//! The scalar arm's `gemm_tn_acc` transposes its right factor into a
//! per-thread buffer: after a thread's first call, a product no larger
//! than the biggest one before it allocates nothing. A counting global
//! allocator measures it; its count is per thread, so the test
//! harness's other threads cannot add to it.

use fia_linalg::kernel::{self, Backend};
use fia_linalg::with_backend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's `alloc`,
/// `alloc_zeroed` and `realloc` calls.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn scalar_gemm_tn_acc_allocates_only_on_its_first_call() {
    // A GRNA generator's input gradient g · Wᵀ (mini-batch 64, layer
    // widths 96 → 48), then a narrower product of the same step.
    let (m, k, n) = (64, 48, 96);
    let a = vec![0.5; m * k];
    let bt = vec![0.25; n * k];
    let mut out = vec![0.0; m * n];
    with_backend(Backend::Scalar, || {
        kernel::gemm_tn_acc(&a, &bt, &mut out, m, k, n);
        let before = allocations();
        for _ in 0..8 {
            kernel::gemm_tn_acc(&a, &bt, &mut out, m, k, n);
        }
        kernel::gemm_tn_acc(&a[..m * 8], &bt[..n * 8], &mut out, m, 8, n);
        kernel::gemm_tn_acc(&a, &bt[..16 * k], &mut out[..m * 16], m, k, 16);
        assert_eq!(allocations() - before, 0, "scalar gemm_tn_acc allocated");
    });
    // The products still add up: nine of k = 48 terms of 0.125, one of
    // k = 8, and one of k = 48 into the first 16 columns.
    assert_eq!(out[0], (9.0 * 48.0 + 8.0 + 48.0) * 0.125);
    assert_eq!(out[m * n - 1], (9.0 * 48.0 + 8.0) * 0.125);
}
