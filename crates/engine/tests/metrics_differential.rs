//! Differential suite for the observability layer: the engine's
//! *deterministic* counters must not depend on the pool shape. An
//! exhaustive (no-prune) search evaluates every candidate exactly once,
//! whether the one-thread flat scan runs it or a two-worker tree walk
//! over the same losses does, so the metric deltas it leaves behind
//! must be bit-identical — which is also what makes the counters
//! trustworthy for capacity math on a live server.
//!
//! Pruned/cancelled counts are *not* compared across shapes: how many
//! candidates a bound skips is a race by design (see `DESIGN.md`), and
//! the registry would faithfully record whatever happened.
//!
//! This is its own test binary: metrics are process-global, so these
//! tests serialise on one lock and flip recording explicitly rather
//! than racing the unit suites in another binary's process.

mod common;

use common::LeafTree;
use selc_engine::{minimize, Engine, Outcome};
use selc_obs::{set_metrics_enabled, MetricsSnapshot};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `work` and returns what the registry recorded during it.
fn recorded<R>(work: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    let before = selc_obs::metrics::snapshot();
    let out = work();
    let after = selc_obs::metrics::snapshot();
    (out, after.since(&before))
}

/// The deterministic counters: same-by-construction across pool
/// shapes for exhaustive searches.
const DETERMINISTIC: [&str; 4] =
    ["engine.searches", "engine.evaluated", "engine.pruned", "engine.cancelled"];

fn losses() -> Vec<f64> {
    // Deliberately tie-heavy so the walk's claim order actually varies
    // between runs; the counters must not.
    (0..128).map(|i| f64::from((i * 31) % 7)).collect()
}

/// The exhaustive flat scan and a two-worker unpruned walk over
/// `losses` (a tree needs a power-of-two leaf count), each with what it
/// recorded.
fn both(losses: &[f64]) -> [(Option<Outcome<f64>>, MetricsSnapshot); 2] {
    let two = Engine::with_threads(2).without_pruning();
    [
        recorded(|| minimize(&Engine::exhaustive(), losses.len(), |i| losses[i])),
        recorded(|| two.search(&LeafTree::new(losses.len().trailing_zeros(), |i| losses[i]))),
    ]
}

#[test]
fn two_threads_and_sequential_record_identical_deterministic_counters() {
    let _guard = serial();
    set_metrics_enabled(true);
    // A single leaf too: a one-candidate search is still one search.
    for losses in [losses(), vec![3.0]] {
        let [(seq_out, seq), (par_out, par)] = both(&losses);

        // Winner equality is the engine differential suite's job; here
        // it only certifies both runs did the same work.
        let winner = |out: Option<Outcome<f64>>| out.map(|o| (o.index, o.loss));
        assert_eq!(winner(seq_out), winner(par_out));
        for name in DETERMINISTIC {
            assert_eq!(
                seq.counter(name),
                par.counter(name),
                "{name} must not depend on the pool shape ({} candidates)",
                losses.len()
            );
        }
        assert_eq!(seq.counter("engine.searches"), 1);
        assert_eq!(
            seq.counter("engine.evaluated"),
            losses.len() as u64,
            "exhaustive = every candidate"
        );
        assert_eq!(seq.counter("engine.pruned"), 0, "no bound, no prunes");
    }
    // The empty space, which no tree expresses: still one search.
    let (out, empty) = recorded(|| minimize(&Engine::exhaustive(), 0, |_| 0.0));
    assert!(out.is_none());
    assert_eq!(DETERMINISTIC.map(|name| empty.counter(name)), [1, 0, 0, 0]);
    set_metrics_enabled(false);
}

#[test]
fn disabled_metrics_record_exactly_nothing() {
    let _guard = serial();
    set_metrics_enabled(false);
    let losses = losses();
    for (out, delta) in both(&losses) {
        assert!(out.is_some());
        for name in DETERMINISTIC {
            assert_eq!(delta.counter(name), 0, "{name} recorded while disabled");
        }
    }
}
