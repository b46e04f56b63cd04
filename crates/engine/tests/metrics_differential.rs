//! Differential suite for the observability layer: the engine's
//! *deterministic* counters must not depend on the pool shape. An
//! exhaustive (no-prune) search evaluates every candidate exactly once
//! whether one thread runs it or two, so the metric deltas it leaves
//! behind must be bit-identical — which is also what makes the
//! counters trustworthy for capacity math on a live server.
//!
//! Pruned/cancelled counts are *not* compared across shapes: how many
//! candidates a bound skips is a race by design (see `DESIGN.md`), and
//! the registry would faithfully record whatever happened.
//!
//! This is its own test binary: metrics are process-global, so these
//! tests serialise on one lock and flip recording explicitly rather
//! than racing the unit suites in another binary's process.

use selc_engine::{minimize, ParallelEngine, SequentialEngine};
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
    // Deliberately tie-heavy so the parallel engine's claim order
    // actually varies between runs; the counters must not.
    (0..97).map(|i| f64::from((i * 31) % 7)).collect()
}

#[test]
fn two_threads_and_sequential_record_identical_deterministic_counters() {
    let _guard = serial();
    set_metrics_enabled(true);
    // The empty space too: an empty search is still one search.
    for losses in [losses(), Vec::new()] {
        let (seq_out, seq) =
            recorded(|| minimize(&SequentialEngine::exhaustive(), losses.len(), |i| losses[i]));
        let two = ParallelEngine::with_threads(2).without_pruning();
        let (par_out, par) = recorded(|| minimize(&two, losses.len(), |i| losses[i]));

        // Winner equality is the engine differential suite's job; here
        // it only certifies both runs did the same work.
        let winner = |out: Option<selc_engine::Outcome<f64>>| out.map(|o| (o.index, o.loss));
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
    set_metrics_enabled(false);
}

#[test]
fn disabled_metrics_record_exactly_nothing() {
    let _guard = serial();
    set_metrics_enabled(false);
    let losses = losses();
    let (_, delta) = recorded(|| {
        minimize(&SequentialEngine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        let two = ParallelEngine::with_threads(2).without_pruning();
        minimize(&two, losses.len(), |i| losses[i]).unwrap();
    });
    for name in DETERMINISTIC {
        assert_eq!(delta.counter(name), 0, "{name} recorded while disabled");
    }
}
