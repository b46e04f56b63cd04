//! Allocation budgets for the machine's tree mode, counted by a
//! thread-local counting allocator (each `#[test]` runs on its own
//! thread, so counts never mix between tests).
//!
//! * A [`ChoicePoint::resume`] copies only the suspended run state — no
//!   per-decision history — so resuming costs the same number of
//!   allocations at every depth of a uniform chain.
//! * A sequential, uncached tree walk of a chain stays within a fixed
//!   allocation budget per tree node, so a regression in the machine's
//!   frames, values or snapshots shows up here before it shows up in a
//!   profile.
//! * Entering a space at its root resolves no operation names: the
//!   space did that once, and a run shares the resolved mask.
//! * A scalar or pair [`lambda_c::LossVal`] never touches the heap.

use lambda_c::machine::{ChoicePoint, Explored};
use lambda_c::testgen::deep_decide_chain;
use lambda_rt::bridge::LcCandidates;
use lambda_rt::tree::LcTreeEval;
use selc_engine::Engine;
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

const CHAIN: u32 = 10;

fn chain() -> LcCandidates {
    let p = deep_decide_chain(CHAIN);
    LcCandidates::new(lambda_c::compile(&p.expr).unwrap(), ["decide".to_owned()], CHAIN)
}

/// The choice point at depth `len` on the all-`true` path.
fn point_at(cands: &LcCandidates, len: u32) -> ChoicePoint {
    match cands.explore_prefix(0, len, false).unwrap() {
        Explored::Choice(point) => point,
        Explored::Done(_) => panic!("a chain has a decision at every depth"),
    }
}

#[test]
fn resume_allocations_do_not_grow_with_depth() {
    let cands = chain();
    let points: Vec<ChoicePoint> = (1..CHAIN).map(|len| point_at(&cands, len)).collect();
    // Warm up once so lazily initialised state is not charged to a depth.
    drop(points[0].resume(true).unwrap());
    let per_resume: Vec<u64> = points
        .iter()
        .map(|point| {
            let (r, n) = counted(|| point.resume(false).map(drop));
            r.unwrap();
            n
        })
        .collect();
    // Depths 1..=8 resume to the next choice point through the same
    // segment shape, so a snapshot copy that grew with the path (the
    // emissions so far, the forced-op set) would show up as a slope.
    let (interior, last) = per_resume.split_at(per_resume.len() - 1);
    assert!(interior.iter().all(|&n| n == interior[0]), "resumes at depths 1..=8: {per_resume:?}");
    // The last decision (depth 9) resumes to the leaf: a different
    // segment, but never a costlier one.
    assert!(last[0] <= interior[0], "resumes at depths 1..=9: {per_resume:?}");
}

#[test]
fn a_sequential_tree_walk_stays_within_its_per_node_budget() {
    // Per node, seven: a chain step's three environment conses (the
    // decision, the sequencing unit, the branch payload) and two node
    // frames, plus either the next decision's frame and the handler
    // re-entry frame of its suspension (an interior node) or the return
    // clause's two conses (a leaf). Per search, one more: the one-off
    // setup (the root entry's shared-input `Rc`, the engine's own
    // state) costs that much more than the root node saves.
    const PER_NODE_BUDGET: u64 = 7;
    const PER_SEARCH_BUDGET: u64 = 1;
    let cands = chain();
    let eval = LcTreeEval::new(cands.clone());
    let engine = Engine::exhaustive();
    // The first search pays for one-off setup (metrics registration, the
    // flow report); the second is the steady state.
    drop(engine.search(&eval).unwrap());
    let (out, allocs) = counted(|| engine.search(&eval).unwrap());
    let leaves = 1u64 << CHAIN;
    assert_eq!(out.stats.evaluated, leaves, "an unpruned walk visits every leaf");
    let nodes = 2 * leaves - 1;
    let per_node = allocs as f64 / nodes as f64;
    assert!(
        allocs <= PER_NODE_BUDGET * nodes + PER_SEARCH_BUDGET,
        "{allocs} allocations over {nodes} tree nodes = {per_node:.3} per node \
         (budget {PER_NODE_BUDGET} per node + {PER_SEARCH_BUDGET})"
    );
}

#[test]
fn losses_of_at_most_two_components_never_allocate() {
    use lambda_c::LossVal;
    let ((), n) = counted(|| {
        let (s, p) = (LossVal::scalar(1.5), LossVal::pair(2.0, -3.0));
        let sums = [s.add(&s), s.add(&p), p.add(&p), LossVal::zero().add(&p)];
        let copies = [s.clone(), p.clone(), sums[1].clone()];
        std::hint::black_box((sums, copies));
    });
    assert_eq!(n, 0, "scalar and pair losses stay inline");
    // A third component is the one that spills.
    let (_, n) = counted(|| std::hint::black_box(LossVal::from_components(&[1.0, 2.0, 3.0])));
    assert_eq!(n, 1);
}

#[test]
fn a_root_entry_copies_the_resolved_forced_ops_once() {
    // Five allocations run the chain to its first decision; the sixth is
    // the one `Rc` of the run's shared inputs (the program, the forced
    // decisions with the mask the space resolved once, the prune hook).
    // Re-resolving the operation names on every entry (a clone of the
    // name set, then a fresh mask) cost two more.
    const ROOT_ENTRY_BUDGET: u64 = 6;
    let cands = chain();
    // Warm up once so lazily initialised state is not charged.
    drop(point_at(&cands, 0));
    let (point, allocs) = counted(|| point_at(&cands, 0));
    drop(point);
    assert!(allocs <= ROOT_ENTRY_BUDGET, "{allocs} allocations (budget {ROOT_ENTRY_BUDGET})");
}
