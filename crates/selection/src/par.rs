//! Parallel evaluation adapters: `argmin`/`argmax` and product root
//! splits over the `selc-engine` worker pool.
//!
//! The theory core of this crate stays dependency-free; this module is
//! the bridge from its sequential combinators to the engine. Every
//! adapter is a drop-in for the sequential form and returns **the same
//! candidate** (bit-identical, earliest-tie) — the differential tests
//! below and in `selc-engine` hold them to that.
//!
//! One caveat bounds that claim: the engine merges under the *total*
//! order `f64::total_cmp`, the sequential scans under partial `<`. The
//! two agree on every loss except `NaN` (which `<` never prefers and
//! `total_cmp` ranks above `+∞`) and `-0.0` vs `+0.0` (equal under `<`,
//! ordered under `total_cmp` — observable through `par_argmax_by`'s
//! negation). Keep losses NaN-free and the guarantee is exact.
//!
//! Selection functions themselves (`Rc` closures) cannot cross threads;
//! what parallelises is *evaluation*: candidates and loss functions are
//! `Send + Sync`, and for products each worker rebuilds the downstream
//! stages locally from a factory, exactly like the engine replays `Sel`
//! programs (see `selc::ReplaySpace`).

use crate::product::{big_product_dep, Stage};
use crate::sel::LossFn;
use selc_engine::{minimize, Engine, ParallelEngine};
use std::rc::Rc;
use std::sync::Arc;

/// Parallel `argmin_by`: first candidate minimising `loss`, evaluated on
/// the engine's worker pool (`SELC_THREADS` workers by default).
/// Identical winner to [`crate::argmin_by`].
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn par_argmin_by<X, F>(candidates: Vec<X>, loss: F) -> X
where
    X: Clone + Send + Sync + 'static,
    F: Fn(&X) -> f64 + Send + Sync,
{
    par_argmin_with(&ParallelEngine::auto(), candidates, loss)
}

/// Parallel `argmax_by`, dual of [`par_argmin_by`].
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn par_argmax_by<X, F>(candidates: Vec<X>, loss: F) -> X
where
    X: Clone + Send + Sync + 'static,
    F: Fn(&X) -> f64 + Send + Sync,
{
    par_argmin_with(&ParallelEngine::auto(), candidates, move |x| -loss(x))
}

/// [`par_argmin_by`] with an explicit engine (e.g. the sequential
/// fallback, for differential testing).
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn par_argmin_with<X, F, G>(engine: &G, candidates: Vec<X>, loss: F) -> X
where
    X: Clone + Send + Sync + 'static,
    F: Fn(&X) -> f64 + Send + Sync,
    G: Engine,
{
    assert!(!candidates.is_empty(), "argmin over an empty candidate list");
    let out = minimize(engine, candidates.len(), |i| loss(&candidates[i]))
        .expect("non-empty candidate list");
    candidates.into_iter().nth(out.index).expect("index in range")
}

/// Root-parallel Escardó–Oliva product: splits the *first* stage's
/// candidates over the worker pool; each worker completes the play by
/// running the remaining stages (rebuilt locally via `rest`) under the
/// global loss, and the loss-minimising completed play wins.
///
/// Equivalent to
/// `big_product_dep([argmin(root), rest()...]).select(loss)` — the first
/// stage of a dependent product evaluates each of its candidates against
/// the optimal completion anyway, which is exactly the map this function
/// distributes.
///
/// # Panics
///
/// Panics if `root` is empty.
pub fn par_product_root<X, R, F>(root: Vec<X>, rest: R, loss: F) -> Vec<X>
where
    X: Clone + Send + Sync + 'static,
    R: Fn() -> Vec<Stage<X, f64>> + Send + Sync,
    F: Fn(&[X]) -> f64 + Send + Sync + 'static,
{
    par_product_root_with(&ParallelEngine::auto(), root, rest, loss)
}

/// [`par_product_root`] with an explicit engine.
///
/// # Panics
///
/// Panics if `root` is empty.
pub fn par_product_root_with<X, R, F, G>(engine: &G, root: Vec<X>, rest: R, loss: F) -> Vec<X>
where
    X: Clone + Send + Sync + 'static,
    R: Fn() -> Vec<Stage<X, f64>> + Send + Sync,
    F: Fn(&[X]) -> f64 + Send + Sync + 'static,
    G: Engine,
{
    assert!(!root.is_empty(), "product over an empty root candidate list");
    let loss = Arc::new(loss);
    let complete = |x: X| -> Vec<X> {
        // Fix the root move as a constant stage, rebuild the remaining
        // stages on this thread, and let backward induction finish.
        let fixed: Stage<X, f64> = Rc::new(move |_: &[X]| crate::sel::Sel::pure(x.clone()));
        let mut stages = vec![fixed];
        stages.extend(rest());
        let loss = Arc::clone(&loss);
        let g: LossFn<Vec<X>, f64> = Rc::new(move |p: &Vec<X>| loss(p));
        big_product_dep(stages).select_rc(g)
    };
    let out = minimize(engine, root.len(), |i| {
        let play = complete(root[i].clone());
        loss(&play)
    })
    .expect("non-empty root");
    complete(root[out.index].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{argmax_by, argmin, argmin_by};
    use selc_engine::SequentialEngine;

    #[test]
    fn par_argmin_matches_sequential_scan() {
        let xs: Vec<i64> = (0..100).map(|i| (i * 31) % 17).collect();
        let seq = argmin_by(xs.clone(), |x| (*x - 9) as f64 * (*x - 9) as f64);
        let par = par_argmin_by(xs.clone(), |x| (*x - 9) as f64 * (*x - 9) as f64);
        assert_eq!(par, seq);
        let eng = par_argmin_with(&SequentialEngine::exhaustive(), xs, |x| {
            (*x - 9) as f64 * (*x - 9) as f64
        });
        assert_eq!(eng, seq);
    }

    #[test]
    fn par_argmax_matches_sequential_scan() {
        let xs: Vec<i64> = (0..60).map(|i| (i * 13) % 23).collect();
        assert_eq!(par_argmax_by(xs.clone(), |x| *x as f64), argmax_by(xs, |x| *x as f64));
    }

    #[test]
    fn tie_breaking_stays_earliest() {
        let xs = vec![5_i64, 1, 3, 1, 1];
        assert_eq!(par_argmin_by(xs, |x| *x as f64), 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_candidates_panic_like_argmin_by() {
        let _ = par_argmin_by(Vec::<i64>::new(), |_| 0.0);
    }

    #[test]
    fn product_root_split_matches_big_product() {
        // Three-stage game over {0,1,2}: minimise a mixing loss.
        let loss = |p: &[usize]| {
            (10 * p[0] + 3 * p[1]) as f64 - (p[2] * p[2]) as f64 + (p[0] * p[2]) as f64
        };
        let mk_rest = || -> Vec<Stage<usize, f64>> {
            (0..2)
                .map(|_| {
                    Rc::new(move |_: &[usize]| argmin(vec![0usize, 1, 2])) as Stage<usize, f64>
                })
                .collect()
        };
        let mut stages: Vec<Stage<usize, f64>> =
            vec![Rc::new(|_: &[usize]| argmin(vec![0usize, 1, 2]))];
        stages.extend(mk_rest());
        let sequential = big_product_dep(stages).select(move |p: &Vec<usize>| loss(p));
        let parallel = par_product_root((0..3).collect(), mk_rest, loss);
        assert_eq!(parallel, sequential);
    }
}
