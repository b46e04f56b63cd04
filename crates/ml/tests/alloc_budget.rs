//! Allocation budgets for the selection-monad core, counted by a
//! thread-local counting allocator (each `#[test]` runs on its own
//! thread, so counts never mix between tests).
//!
//! * One handler-SGD step (`lreset $ hOpt $ linearReg p x y`, four
//!   probes of the choice continuation, then the resumption) stays
//!   within a fixed allocation budget.
//! * A bind whose left side has finished allocates nothing, so a chain
//!   of 16 pure binds run to a value costs no more than a chain of 1.

use selc::Sel;
use selc_ml::linreg::sgd_step;
use selc_ml::optimize::gd_handler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread (allocations, zeroed allocations and reallocations).
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// Allocations of one SGD step with a prebuilt handler (169 before the
/// finished-`Sel` form, `Pure`-direct binds and the shared clause table).
const SGD_STEP_BUDGET: u64 = 90;

#[test]
fn one_sgd_step_stays_within_budget() {
    let h = gd_handler(0.05);
    let params = vec![0.3, -0.2];
    // Warm up once so lazily-initialised state is not counted.
    let _ = sgd_step(&h, params.clone(), 1.5, 2.0);
    let (p, allocs) = counted(|| sgd_step(&h, params, 1.5, 2.0));
    assert_eq!(p.len(), 2);
    println!("one sgd_step: {allocs} allocations");
    assert!(allocs <= SGD_STEP_BUDGET, "one sgd_step made {allocs} allocations");
}

/// `Sel::pure(0)` followed by `n` binds `x ↦ Sel::pure(x + 1)`.
fn pure_chain(n: usize) -> Sel<f64, i64> {
    let mut s = Sel::pure(0_i64);
    for _ in 0..n {
        s = s.and_then(|x| Sel::pure(x + 1));
    }
    s
}

#[test]
fn pure_binds_allocate_nothing() {
    let (one, one_allocs) = counted(|| pure_chain(1).run_unwrap());
    let (sixteen, sixteen_allocs) = counted(|| pure_chain(16).run_unwrap());
    assert_eq!((one, sixteen), ((0.0, 1), (0.0, 16)));
    assert!(
        sixteen_allocs <= one_allocs,
        "16 pure binds made {sixteen_allocs} allocations, 1 made {one_allocs}"
    );
}
