//! First-order optimizers over a [`Params`] store.

use crate::params::{ParamGrads, Params};
use fia_linalg::Matrix;

/// A gradient-based optimizer. `step` reads the per-parameter gradients
/// of one backward pass in place ([`crate::Tape::param_grads`]) and
/// updates the parameter store in place, once per parameter.
pub trait Optimizer {
    /// Applies one update step.
    fn step(&mut self, params: &mut Params, grads: &ParamGrads);
}

/// Stochastic gradient descent with optional momentum and L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient (`0.0` disables momentum).
    pub momentum: f64,
    /// L2 weight-decay coefficient (`0.0` disables decay).
    pub weight_decay: f64,
    velocity: Vec<Option<Matrix>>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f64) -> Self {
        self.weight_decay = wd;
        self
    }

    fn slot(&mut self, idx: usize) -> &mut Option<Matrix> {
        if self.velocity.len() <= idx {
            self.velocity.resize(idx + 1, None);
        }
        &mut self.velocity[idx]
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut Params, grads: &ParamGrads) {
        for (id, grad) in grads.iter() {
            let wd = self.weight_decay;
            let lr = self.lr;
            let mom = self.momentum;
            // Effective gradient with weight decay folded in.
            let value_snapshot = params.get(id).clone();
            let eff = if wd > 0.0 {
                grad.add(&value_snapshot.scale(wd)).expect("shape stable")
            } else {
                grad.clone()
            };
            let update = if mom > 0.0 {
                let slot = self.slot(id.index());
                let v_new = match slot {
                    Some(v) => v.scale(mom).add(&eff).expect("shape stable"),
                    None => eff,
                };
                *slot = Some(v_new.clone());
                v_new
            } else {
                eff
            };
            let p = params.get_mut(id);
            let stepped = p.sub(&update.scale(lr)).expect("shape stable");
            *p = stepped;
        }
    }
}

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (paper default 1e-3).
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical fuzz.
    pub eps: f64,
    t: u64,
    /// First and second moments per parameter slot, zeroed on first use.
    moments: Vec<Option<(Matrix, Matrix)>>,
}

impl Adam {
    /// Adam with standard hyper-parameters `β₁ = 0.9, β₂ = 0.999`.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    /// Updates `m`, `v` and the parameter in place, one pass per
    /// parameter over its slices.
    fn step(&mut self, params: &mut Params, grads: &ParamGrads) {
        self.t += 1;
        let t = self.t as f64;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let (c1, c2) = (1.0 - b1, 1.0 - b2);
        for (id, grad) in grads.iter() {
            let p = params.get_mut(id);
            assert_eq!(p.shape(), grad.shape(), "Adam: gradient shape mismatch");
            let idx = id.index();
            if self.moments.len() <= idx {
                self.moments.resize(idx + 1, None);
            }
            let (m, v) = self.moments[idx].get_or_insert_with(|| {
                let (rows, cols) = p.shape();
                (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols))
            });
            let state = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            for ((p, (m, v)), &g) in p.as_mut_slice().iter_mut().zip(state).zip(grad.as_slice()) {
                *m = *m * b1 + g * c1;
                *v = *v * b2 + g * g * c2;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamId;
    use crate::tape::Tape;

    /// Minimizes f(w) = (w − 3)² with the given optimizer; returns final w.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut params = Params::new();
        let w = params.insert(Matrix::filled(1, 1, 0.0));
        let mut tape = Tape::new();
        for _ in 0..steps {
            tape.reset();
            let wv = tape.param(&params, w);
            let target = tape.input(Matrix::filled(1, 1, 3.0));
            let loss = tape.mse_loss(wv, target);
            tape.backward(loss);
            opt.step(&mut params, tape.param_grads());
        }
        params.get(w)[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.2);
        let w = run_quadratic(&mut opt, 100);
        assert!((w - 3.0).abs() < 1e-6, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let w = run_quadratic(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-4, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = run_quadratic(&mut opt, 300);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        // With zero gradient and weight decay, weights decay toward 0.
        let mut params = Params::new();
        let w = params.insert(Matrix::filled(1, 1, 1.0));
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        for _ in 0..10 {
            opt.step(
                &mut params,
                &ParamGrads::from_pairs([(w, Matrix::zeros(1, 1))]),
            );
        }
        let val = params.get(w)[(0, 0)];
        assert!(val < 1.0 && val > 0.0);
        assert!((val - 0.95f64.powi(10)).abs() < 1e-12);
    }

    #[test]
    fn adam_update_matches_plain_formula_bitwise() {
        // The in-place update against the textbook per-matrix formula it
        // replaced, over several steps on a 1-row, a 1-column and a
        // ragged 54-row parameter. The formula's first step starts from no
        // moments at all, the in-place one from zeroed moments; they may
        // differ only in the sign of an exact zero.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut draw = |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |_, _| {
                let v: f64 = rng.gen_range(-1.0..1.0);
                if rng.gen_bool(0.05) {
                    0.0
                } else {
                    v
                }
            })
        };
        let shapes = [(1, 9), (6, 1), (54, 17)];
        let mut params = Params::new();
        let ids: Vec<ParamId> = shapes
            .iter()
            .map(|&(r, c)| params.insert(draw(r, c)))
            .collect();
        let mut want: Vec<Matrix> = ids.iter().map(|&id| params.get(id).clone()).collect();
        let mut moments: Vec<Option<(Matrix, Matrix)>> = vec![None; ids.len()];
        let mut opt = Adam::new(3e-3);
        for t in 1..=4 {
            let grads: Vec<(ParamId, Matrix)> = ids
                .iter()
                .zip(&shapes)
                .map(|(&id, &(r, c))| (id, draw(r, c)))
                .collect();
            opt.step(&mut params, &ParamGrads::from_pairs(grads.iter().cloned()));

            let bc1 = 1.0 - opt.beta1.powf(t as f64);
            let bc2 = 1.0 - opt.beta2.powf(t as f64);
            for ((p, slot), (_, g)) in want.iter_mut().zip(&mut moments).zip(&grads) {
                let g2 = g.hadamard(g).unwrap();
                let (m, v) = match slot.take() {
                    Some((m, v)) => (
                        m.scale(opt.beta1).add(&g.scale(1.0 - opt.beta1)).unwrap(),
                        v.scale(opt.beta2).add(&g2.scale(1.0 - opt.beta2)).unwrap(),
                    ),
                    None => (g.scale(1.0 - opt.beta1), g2.scale(1.0 - opt.beta2)),
                };
                *p = Matrix::from_fn(p.rows(), p.cols(), |i, j| {
                    let (mhat, vhat) = (m[(i, j)] / bc1, v[(i, j)] / bc2);
                    p[(i, j)] - opt.lr * mhat / (vhat.sqrt() + opt.eps)
                });
                *slot = Some((m, v));
            }
            for (&id, w) in ids.iter().zip(&want) {
                for (&x, &y) in params.get(id).as_slice().iter().zip(w.as_slice()) {
                    assert!(
                        x.to_bits() == y.to_bits() || (x == 0.0 && y == 0.0),
                        "step {t}: {x:e} vs formula {y:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn adam_is_scale_invariant_early() {
        // Adam's first step is ±lr regardless of gradient magnitude.
        let mut params = Params::new();
        let w = params.insert(Matrix::filled(1, 1, 0.0));
        let mut opt = Adam::new(0.01);
        opt.step(
            &mut params,
            &ParamGrads::from_pairs([(w, Matrix::filled(1, 1, 1e6))]),
        );
        let val = params.get(w)[(0, 0)];
        assert!((val + 0.01).abs() < 1e-6, "val = {val}");
    }

    #[test]
    fn a_parameter_bound_twice_gets_one_summed_update() {
        // `Σw + Σw` over two bindings of `w` must step exactly like
        // `2·Σw` over one: one gradient of 2 per element, one Adam
        // update (a per-binding update would apply Adam twice in one
        // step and move `w` to about −0.234 instead of −0.1).
        let run = |twice: bool| {
            let mut params = Params::new();
            let w = params.insert(Matrix::zeros(1, 3));
            let mut tape = Tape::new();
            let loss = if twice {
                let (a, b) = (tape.param(&params, w), tape.param(&params, w));
                let (sa, sb) = (tape.sum_all(a), tape.sum_all(b));
                tape.add(sa, sb)
            } else {
                let a = tape.param(&params, w);
                let s = tape.sum_all(a);
                tape.scale(s, 2.0)
            };
            tape.backward(loss);
            assert_eq!(tape.param_grads().len(), 1);
            let mut opt = Adam::new(0.1);
            opt.step(&mut params, tape.param_grads());
            params.get(w).clone()
        };
        let (twice, once) = (run(true), run(false));
        assert!((once[(0, 0)] + 0.1).abs() < 1e-6, "once: {once:?}");
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&twice), bits(&once));
    }
}
