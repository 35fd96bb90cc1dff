//! Kernel-layer benches: matmul GFLOP/s per backend, and GRNA generator
//! training on the tape. Results land in `BENCH_kernels.json`; the ≥ 2×
//! AVX2-vs-scalar matmul bar at 256×256+ is asserted locally and
//! report-only under `FIA_BENCH_NO_ASSERT` (shared CI runners make
//! wall-clock ratios noisy).
//!
//! The GRNA section measures the tape, not just the kernel: the GEMM
//! flops one training issues (the `fia_kernel_gemm_flops_total`
//! counters) over its median wall time, next to plain `matmul`
//! throughput at the generator's forward shapes, and the heap
//! allocations per training step from a counting allocator installed in
//! this bench binary only.

use fia_bench::harness::Harness;
use fia_core::{Grna, GrnaConfig};
use fia_linalg::{avx2_available, with_backend, Backend, Matrix};
use fia_models::{LogisticRegression, LrConfig, PredictProba};
use fia_telemetry::InstrumentValue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation (`alloc`,
/// `alloc_zeroed` and `realloc` calls).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// GEMM flops issued so far in this process, summed over backend arms.
fn gemm_flops() -> u64 {
    fia_telemetry::global()
        .snapshot()
        .entries
        .iter()
        .filter(|e| e.name == "fia_kernel_gemm_flops_total")
        .map(|e| match e.value {
            InstrumentValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Deterministic dense operand without pulling in an RNG: values in
/// roughly [-1, 1], no exact zeros (the scalar arm zero-skips).
fn operand(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = ((i * 31 + j * 17 + salt * 7) % 251) as f64 / 125.0 - 1.0;
        if x == 0.0 {
            0.004
        } else {
            x
        }
    })
}

/// GFLOP/s for an `n×n · n×n` multiply at the given median time.
fn gflops(n: usize, median_ns: f64) -> f64 {
    (2 * n * n * n) as f64 / median_ns
}

fn matmul_sweep(h: &mut Harness) -> Vec<(usize, f64)> {
    let backends: &[Backend] = if avx2_available() {
        &[Backend::Scalar, Backend::Avx2]
    } else {
        &[Backend::Scalar]
    };
    let mut speedups = Vec::new();
    for &n in &[64usize, 256, 1024] {
        let a = operand(n, n, 1);
        let b = operand(n, n, 2);
        let mut medians = Vec::new();
        for &backend in backends {
            let name = format!("matmul_{n}_f64_{}", backend.name());
            let r = h.bench(&name, || {
                with_backend(backend, || a.matmul(std::hint::black_box(&b)))
            });
            h.metric(&format!("{name}_gflops"), gflops(n, r.median_ns));
            medians.push(r.median_ns);
        }
        if let [scalar_ns, avx2_ns] = medians[..] {
            let speedup = scalar_ns / avx2_ns;
            h.metric(&format!("matmul_{n}_f64_avx2_speedup"), speedup);
            speedups.push((n, speedup));
        }
    }
    speedups
}

/// Smoke-sized GRNA training (the attack's hot loop) on a synthetic
/// deployment shaped like the paper's primary one.
fn grna_training(h: &mut Harness) {
    let cfg = fia_data::SynthConfig {
        n_samples: 400,
        n_features: 12,
        n_informative: 8,
        n_redundant: 4,
        n_classes: 3,
        class_sep: 2.0,
        redundant_noise: 0.05,
        flip_y: 0.0,
        shuffle_features: false,
        seed: 11,
    };
    let ds = fia_data::normalize_dataset(&fia_data::make_classification(&cfg)).0;
    let model = LogisticRegression::fit(
        &ds,
        &LrConfig {
            epochs: 10,
            ..LrConfig::default()
        },
    );
    let adv: Vec<usize> = (0..8).collect();
    let target: Vec<usize> = (8..12).collect();
    let x_adv = ds.features.select_columns(&adv).unwrap();
    let conf = model.predict_proba(&ds.features);
    let base = GrnaConfig {
        hidden: vec![96, 48],
        epochs: 6,
        ..GrnaConfig::paper()
    };
    let train = || {
        Grna::new(&model, &adv, &target, base.clone())
            .train(std::hint::black_box(&x_adv), std::hint::black_box(&conf))
    };

    let train_ns = h.bench("grna_train_f64", train).median_ns;
    if avx2_available() && fia_linalg::detected_backend() != Backend::Scalar {
        h.bench("grna_train_f64_scalar", || {
            with_backend(Backend::Scalar, train)
        });
    }

    // What one training issues: GEMM flops and heap allocations.
    let (flops_before, allocs_before) = (gemm_flops(), ALLOCATIONS.load(Ordering::Relaxed));
    std::hint::black_box(train());
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let flops = gemm_flops() - flops_before;
    let steps = base.epochs * x_adv.rows().div_ceil(base.batch_size);
    let train_gflops = flops as f64 / train_ns;
    h.metric("grna_train_gflops", train_gflops);
    h.metric("grna_train_allocs_per_step", allocs as f64 / steps as f64);

    // The kernel-only ceiling: `matmul` at the generator's forward
    // shapes (mini-batch × layer widths), one round of every layer.
    let mut widths = vec![adv.len() + target.len()];
    widths.extend(&base.hidden);
    widths.push(target.len());
    let layers: Vec<(Matrix, Matrix)> = widths
        .windows(2)
        .enumerate()
        .map(|(l, w)| {
            let salt = 2 * l;
            (
                operand(base.batch_size, w[0], salt),
                operand(w[0], w[1], salt + 1),
            )
        })
        .collect();
    let round = h.bench("matmul_grna_forward_shapes_f64", || {
        for (a, w) in &layers {
            std::hint::black_box(a.matmul(w).unwrap());
        }
    });
    let round_flops: usize = widths
        .windows(2)
        .map(|w| 2 * base.batch_size * w[0] * w[1])
        .sum();
    let kernel_gflops = round_flops as f64 / round.median_ns;
    h.metric("matmul_grna_forward_shapes_gflops", kernel_gflops);
    h.metric(
        "grna_train_gflops_over_matmul",
        train_gflops / kernel_gflops,
    );
}

fn main() {
    let mut h = Harness::new("kernels", 5, 1);
    println!(
        "dispatched backend: {} (FIA_FORCE_SCALAR pins scalar)",
        fia_linalg::detected_backend().name()
    );

    let speedups = matmul_sweep(&mut h);
    grna_training(&mut h);
    h.write_json("BENCH_kernels.json");

    // Acceptance bar: ≥ 2× f64 matmul throughput over the scalar arm at
    // 256×256 and above on an AVX2 host.
    if std::env::var_os("FIA_BENCH_NO_ASSERT").is_none() {
        for (n, speedup) in speedups {
            if n >= 256 {
                assert!(
                    speedup >= 2.0,
                    "avx2 matmul_{n} speedup {speedup:.2}x below the 2x acceptance bar"
                );
            }
        }
    }
}
