//! Root-parallel Escardó–Oliva product over the `selc-engine` worker
//! pool.
//!
//! The theory core of this crate stays dependency-free; this module is
//! the bridge from its sequential product to the flat
//! [`Engine`] (whose `exhaustive()` form is the index-order
//! scan on the caller). [`par_product_root`] is a drop-in for the sequential form and returns
//! **the same play** (bit-identical, earliest-tie) — the differential
//! tests below hold it to that. A plain parallel argmin of a closure is
//! [`selc_engine::minimize`]; the tests below also pin its winners to
//! [`crate::argmin_by`] and [`crate::argmax_by`].
//!
//! One caveat bounds that claim: the engine merges under the *total*
//! order `f64::total_cmp`, the sequential scans under partial `<`. The
//! two agree on every loss except `NaN` (which `<` never prefers and
//! `total_cmp` ranks above `+∞`) and `-0.0` vs `+0.0` (equal under `<`,
//! ordered under `total_cmp` — observable when an argmax is run as a
//! negated argmin). Keep losses NaN-free and the guarantee is exact.
//!
//! Selection functions themselves (`Rc` closures) cannot cross threads;
//! what parallelises is *evaluation*: candidates and loss functions are
//! `Send + Sync`, and for products each worker rebuilds the downstream
//! stages locally from a `Send + Sync` closure, exactly as every engine
//! caller rebuilds its `Sel` programs on the worker that runs them.

use crate::product::{big_product_dep, Stage};
use crate::sel::LossFn;
use selc_engine::{minimize, Engine};
use std::rc::Rc;
use std::sync::Arc;

/// Root-parallel Escardó–Oliva product: splits the *first* stage's
/// candidates over `engine`; each worker completes the play by running
/// the remaining stages (rebuilt locally via `rest`) under the global
/// loss, and the loss-minimising completed play wins.
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
pub fn par_product_root<X, R, F>(engine: &Engine, root: Vec<X>, rest: R, loss: F) -> Vec<X>
where
    X: Clone + Send + Sync + 'static,
    R: Fn() -> Vec<Stage<X, f64>> + Send + Sync,
    F: Fn(&[X]) -> f64 + Send + Sync + 'static,
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

    #[test]
    fn par_argmin_matches_sequential_scan() {
        let xs: Vec<i64> = (0..100).map(|i| (i * 31) % 17).collect();
        let loss = |x: &i64| (*x - 9) as f64 * (*x - 9) as f64;
        let seq = argmin_by(xs.clone(), loss);
        let par = minimize(&Engine::with_threads(3), xs.len(), |i| loss(&xs[i]));
        assert_eq!(xs[par.expect("non-empty").index], seq);
        let eng = minimize(&Engine::exhaustive(), xs.len(), |i| loss(&xs[i]));
        assert_eq!(xs[eng.expect("non-empty").index], seq);
    }

    #[test]
    fn par_argmax_matches_sequential_scan() {
        let xs: Vec<i64> = (0..60).map(|i| (i * 13) % 23).collect();
        let par = minimize(&Engine::with_threads(3), xs.len(), |i| -(xs[i] as f64));
        assert_eq!(xs[par.expect("non-empty").index], argmax_by(xs.clone(), |x| *x as f64));
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
        for threads in [1, 2, 3] {
            let engine = Engine::with_threads(threads);
            let parallel = par_product_root(&engine, (0..3).collect(), mk_rest, loss);
            assert_eq!(parallel, sequential, "threads {threads}");
        }
        let exhaustive = par_product_root(&Engine::exhaustive(), (0..3).collect(), mk_rest, loss);
        assert_eq!(exhaustive, sequential);
    }
}
