//! One sub-module per table/figure of the paper's evaluation section.
//! Each declares its grid of [`crate::sweep`] trials and projects every
//! trial's resolved scenario and campaign report into its rows.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table2`] | Table II — dataset statistics |
//! | [`table3`] | Table III — GRN ablation study |
//! | [`fig5`] | Fig. 5 — ESA MSE vs `d_target` |
//! | [`fig6`] | Fig. 6 — PRA CBR vs `d_target` |
//! | [`fig7`] | Fig. 7 — GRNA MSE vs `d_target` (LR/RF/NN) |
//! | [`fig8`] | Fig. 8 — GRNA-on-RF CBR vs `d_target` |
//! | [`fig9`] | Fig. 9 — effect of the number of predictions |
//! | [`fig10`] | Fig. 10 — per-feature MSE vs correlations |
//! | [`fig11`] | Fig. 11 — rounding & dropout countermeasures |
//! | [`ablation`] | extra ablations: ESA solver, RF surrogate size, noise defense |

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod table3;
