//! Differential + property suite: the parallel tree walk must return
//! bit-identical winners to the one-worker exhaustive flat scan — and to
//! a plain first-minimum scan — on randomized losses, across pool
//! shapes, with and without pruning, including ties.

mod common;

use common::LeafTree;
use proptest::prelude::*;
use selc::loss;
use selc_engine::{minimize, Engine, SharedBound};

/// The oracle the whole workspace uses for sequential argmin: first
/// strict minimum, ties towards the earliest candidate (the semantics of
/// `selection::argmin_by` and of every handler scan in the seed).
fn first_min(losses: &[f64]) -> (usize, f64) {
    let mut best = 0;
    for (i, l) in losses.iter().enumerate().skip(1) {
        if *l < losses[best] {
            best = i;
        }
    }
    (best, losses[best])
}

/// The tree over `losses`, padded to a power of two (and to depth 3 at
/// least) with `+∞` leaves, which can neither win nor tie a finite loss;
/// with `hints`, interior nodes carry their subtree's minimum.
fn padded(losses: &[f64], hints: bool) -> LeafTree<impl Fn(usize) -> f64 + Send + Sync + '_> {
    let depth = losses.len().next_power_of_two().trailing_zeros().max(3);
    LeafTree { hints, ..LeafTree::new(depth, |i| losses.get(i).copied().unwrap_or(f64::INFINITY)) }
}

/// Every worker count with and without pruning. Over 8 to 64 leaves the
/// walks these give run from the whole tree (one worker) down to 32
/// subtree roots (eight workers).
fn pool_shapes() -> Vec<Engine> {
    let mut shapes = Vec::new();
    for threads in [1, 2, 3, 4, 8] {
        for prune in [false, true] {
            shapes.push(Engine { threads, prune });
        }
    }
    shapes
}

proptest! {
    #[test]
    fn parallel_equals_sequential_on_random_losses(
        losses in proptest::collection::vec(0.0_f64..100.0, 1..40)
    ) {
        let seq = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        prop_assert_eq!((seq.index, seq.loss), first_min(&losses));
        for eng in pool_shapes() {
            let par = eng.search(&padded(&losses, false)).unwrap();
            prop_assert_eq!(par.index, seq.index);
            prop_assert_eq!(par.loss, seq.loss);
        }
    }

    #[test]
    fn tie_breaking_is_deterministic_under_parallelism(
        // Quantised losses: few distinct values over many candidates
        // force plenty of exact ties.
        raw in proptest::collection::vec(0_u32..4, 2..48)
    ) {
        let losses: Vec<f64> = raw.iter().map(|r| f64::from(*r)).collect();
        let (oracle_idx, oracle_loss) = first_min(&losses);
        for eng in pool_shapes() {
            let out = eng.search(&padded(&losses, false)).unwrap();
            prop_assert_eq!(out.index, oracle_idx);
            prop_assert_eq!(out.loss, oracle_loss);
        }
    }

    #[test]
    fn replayed_sel_programs_agree_across_engines(
        losses in proptest::collection::vec(0.0_f64..50.0, 1..24)
    ) {
        // Candidate i's program records losses[i] and returns i²; each
        // worker of the walk rebuilds it from plain data, and the flat
        // scan and the four-worker walk must pick the same program and
        // value. Leaves past the last candidate score +∞ without one.
        let program = |i: usize| loss(losses[i]).map(move |_| i * i);
        let run = |i: usize| {
            if i < losses.len() { program(i).run_unwrap().0 } else { f64::INFINITY }
        };
        let seq = minimize(&Engine::exhaustive(), losses.len(), run).unwrap();
        let depth = losses.len().next_power_of_two().trailing_zeros().max(3);
        let par = Engine::with_threads(4).search(&LeafTree::new(depth, run)).unwrap();
        let seq_val = program(seq.index).run_unwrap().1;
        let par_val = program(par.index).run_unwrap().1;
        prop_assert_eq!(seq.index, par.index);
        prop_assert_eq!(seq.loss, par.loss);
        prop_assert_eq!(seq_val, par_val);
        prop_assert_eq!((seq.index, seq.loss), first_min(&losses));
    }

    #[test]
    fn pruning_never_changes_the_winner_with_exact_lower_bounds(
        losses in proptest::collection::vec(0.0_f64..10.0, 1..40)
    ) {
        // Each candidate checks its exact loss, as its own lower bound,
        // against the shared bound before scoring, and abandons the
        // candidate when it is strictly dominated; the walk's interior
        // nodes carry their subtree's minimum, a lower bound too.
        let exact = |i: usize, bound: &SharedBound<f64>| {
            (!bound.dominated(&losses[i])).then_some(losses[i])
        };
        let oracle = first_min(&losses);
        for prune in [false, true] {
            let eng = Engine { threads: 1, prune };
            let out = eng.scan(losses.len(), exact).unwrap();
            prop_assert_eq!((out.index, out.loss), oracle, "engine {eng:?}");
            prop_assert_eq!(out.stats.evaluated + out.stats.pruned, losses.len() as u64);
        }
        for eng in pool_shapes() {
            let tree = padded(&losses, true);
            let out = eng.search(&tree).unwrap();
            prop_assert_eq!((out.index, out.loss), oracle, "engine {eng:?}");
            // Unpruned, the walk scores every leaf, pads included, and
            // cuts nothing.
            let leaves = 1_u64 << tree.depth;
            if eng.prune {
                prop_assert!(out.stats.evaluated <= leaves, "{:?}", out.stats);
            } else {
                prop_assert_eq!((out.stats.evaluated, out.stats.pruned), (leaves, 0));
            }
        }
    }
}

#[test]
fn repeated_parallel_runs_are_reproducible() {
    // Many candidates, eight workers, maximal interleaving churn: the
    // winner must not wobble across repetitions.
    let losses: Vec<f64> = (0..200).map(|i| f64::from((i * 7919 % 101) as u16)).collect();
    let eng = Engine::with_threads(8);
    let first = eng.search(&padded(&losses, false)).unwrap();
    for _ in 0..20 {
        let again = eng.search(&padded(&losses, false)).unwrap();
        assert_eq!((again.index, again.loss), (first.index, first.loss));
    }
    assert_eq!((first.index, first.loss), first_min(&losses));
}
