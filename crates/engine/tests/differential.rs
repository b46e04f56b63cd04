//! Differential + property suite: the parallel engine must return
//! bit-identical winners to its one-worker exhaustive oracle — and to a plain
//! first-minimum scan — on randomized losses, across pool shapes, with
//! and without pruning, including ties.

use proptest::prelude::*;
use selc::loss;
use selc_engine::{minimize, CandidateEval, ParallelEngine, SharedBound};

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

fn pool_shapes() -> Vec<ParallelEngine> {
    let mut shapes = Vec::new();
    for threads in [1, 2, 3, 4, 8] {
        for chunk in [0, 1, 3] {
            for prune in [false, true] {
                shapes.push(ParallelEngine { threads, chunk, prune });
            }
        }
    }
    shapes
}

proptest! {
    #[test]
    fn parallel_equals_sequential_on_random_losses(
        losses in proptest::collection::vec(0.0_f64..100.0, 1..40)
    ) {
        let seq = minimize(&ParallelEngine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        prop_assert_eq!((seq.index, seq.loss), first_min(&losses));
        for eng in pool_shapes() {
            let par = minimize(&eng, losses.len(), |i| losses[i]).unwrap();
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
            let out = minimize(&eng, losses.len(), |i| losses[i]).unwrap();
            prop_assert_eq!(out.index, oracle_idx);
            prop_assert_eq!(out.loss, oracle_loss);
        }
    }

    #[test]
    fn replayed_sel_programs_agree_across_engines(
        losses in proptest::collection::vec(0.0_f64..50.0, 1..24)
    ) {
        // Candidate i's program records losses[i] and returns i²; each
        // worker rebuilds it from plain data, and both engines must pick
        // the same program and value.
        let program = |i: usize| loss(losses[i]).map(move |_| i * i);
        let search = |engine: &ParallelEngine| {
            let out = minimize(engine, losses.len(), |i| program(i).run_unwrap().0).unwrap();
            let value = program(out.index).run_unwrap().1;
            (out, value)
        };
        let (seq, seq_val) = search(&ParallelEngine::exhaustive());
        let (par, par_val) = search(&ParallelEngine { threads: 4, chunk: 1, prune: true });
        prop_assert_eq!(seq.index, par.index);
        prop_assert_eq!(seq.loss, par.loss);
        prop_assert_eq!(seq_val, par_val);
        prop_assert_eq!((seq.index, seq.loss), first_min(&losses));
    }

    #[test]
    fn pruning_never_changes_the_winner_with_exact_lower_bounds(
        losses in proptest::collection::vec(0.0_f64..10.0, 1..40)
    ) {
        struct Exact(Vec<f64>);
        impl CandidateEval<f64> for Exact {
            fn eval(&self, i: usize, _b: &SharedBound<f64>) -> Option<f64> {
                Some(self.0[i])
            }
            fn lower_bound(&self, i: usize) -> Option<f64> {
                Some(self.0[i])
            }
        }
        let eval = Exact(losses.clone());
        let oracle = first_min(&losses);
        for eng in pool_shapes() {
            let out = eng.search(losses.len(), &eval).unwrap();
            prop_assert_eq!((out.index, out.loss), oracle);
            prop_assert_eq!(out.stats.evaluated + out.stats.pruned, losses.len() as u64);
        }
        let seq = ParallelEngine::with_threads(1).search(losses.len(), &eval).unwrap();
        prop_assert_eq!((seq.index, seq.loss), oracle);
    }

    #[test]
    fn self_pruning_evaluators_stay_sound(
        losses in proptest::collection::vec(0.0_f64..10.0, 1..40)
    ) {
        // An evaluator that abandons candidates mid-eval when the shared
        // bound strictly dominates them (monotone-partial-sum style).
        struct SelfPrune(Vec<f64>);
        impl CandidateEval<f64> for SelfPrune {
            fn eval(&self, i: usize, bound: &SharedBound<f64>) -> Option<f64> {
                let l = self.0[i];
                if bound.dominated(&l) {
                    return None;
                }
                Some(l)
            }
        }
        let eval = SelfPrune(losses.clone());
        let oracle = first_min(&losses);
        for eng in pool_shapes() {
            let out = eng.search(losses.len(), &eval).unwrap();
            prop_assert_eq!((out.index, out.loss), oracle, "engine {eng:?}");
        }
    }
}

#[test]
fn repeated_parallel_runs_are_reproducible() {
    // Many candidates, tiny chunks, maximal interleaving churn: the
    // winner must not wobble across repetitions.
    let losses: Vec<f64> = (0..200).map(|i| f64::from((i * 7919 % 101) as u16)).collect();
    let eng = ParallelEngine { threads: 8, chunk: 1, prune: true };
    let first = minimize(&eng, losses.len(), |i| losses[i]).unwrap();
    for _ in 0..20 {
        let again = minimize(&eng, losses.len(), |i| losses[i]).unwrap();
        assert_eq!((again.index, again.loss), (first.index, first.loss));
    }
}
