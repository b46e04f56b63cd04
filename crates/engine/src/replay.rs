//! Evaluating `Sel` programs as engine candidates — replay per worker.
//!
//! `Sel`/`Eff` trees are `Rc`-woven and cannot cross threads, so the
//! engine never shares a program: it ships a [`ReplaySpace`] factory
//! (plain `Send + Sync` data) and each worker rebuilds candidate `i`'s
//! program locally, runs it, and keeps only the recorded loss. Building a
//! tree is pure, so every replay denotes the same computation and the
//! differential suites can demand bit-identical results.

use crate::bound::SharedBound;
use crate::engine::{CandidateEval, Outcome, ParallelEngine};
use selc::{CacheStats, OrderedLoss, ReplaySpace, Sel};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe accumulator for [`CacheStats`] reported by per-candidate
/// program runs (an `Rc`-free mirror of the counters a per-activation
/// [`selc::MemoChoice`] collects — workers record each run's stats here
/// and the evaluator reports the totals into `SearchStats::cache`).
#[derive(Debug, Default)]
pub struct CacheStatsSink {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStatsSink {
    /// Adds one run's counters.
    pub fn record(&self, stats: &CacheStats) {
        // ordering: Relaxed — independent statistics cells; RMW
        // atomicity keeps each total exact, and nothing is published
        // through them.
        self.hits.fetch_add(stats.hits, Ordering::Relaxed);
        self.misses.fetch_add(stats.misses, Ordering::Relaxed);
        self.insertions.fetch_add(stats.insertions, Ordering::Relaxed);
        self.evictions.fetch_add(stats.evictions, Ordering::Relaxed);
    }

    /// The totals accumulated so far.
    pub fn total(&self) -> CacheStats {
        CacheStats {
            // ordering: Relaxed — a statistical scrape; the four loads
            // are not a consistent snapshot under concurrent recorders
            // anyway.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A [`CandidateEval`] that replays a `Sel` program per candidate and
/// scores it by its recorded loss. The program value is discarded during
/// the search; rebuild the winner with [`SelEval::rebuild`] to recover it
/// (pure replay — same loss, same value).
pub struct SelEval<L, A, R> {
    space: R,
    _marker: PhantomData<fn() -> (L, A)>,
}

impl<L, A, R> SelEval<L, A, R>
where
    L: OrderedLoss,
    A: Clone + 'static,
    R: ReplaySpace<L, A>,
{
    /// Wraps an indexed program factory.
    pub fn new(space: R) -> SelEval<L, A, R> {
        SelEval { space, _marker: PhantomData }
    }

    /// Rebuilds candidate `index`'s program (e.g. the winner's, to run it
    /// for its value).
    pub fn rebuild(&self, index: usize) -> Sel<L, A> {
        self.space.build(index)
    }
}

impl<L, A, R> CandidateEval<L> for SelEval<L, A, R>
where
    L: OrderedLoss,
    A: Clone + 'static,
    R: ReplaySpace<L, A>,
{
    fn eval(&self, index: usize, _bound: &SharedBound<L>) -> Option<L> {
        Some(selc::replay_loss(&self.space.build(index)))
    }
}

/// Searches a family of replayable programs: argmin by recorded loss over
/// `factory(0..space)`, then one extra replay of the winner for its
/// value. Returns `None` for an empty space.
pub fn search_programs<L, A, R>(
    engine: &ParallelEngine,
    space: usize,
    factory: R,
) -> Option<(Outcome<L>, A)>
where
    L: OrderedLoss,
    A: Clone + 'static,
    R: ReplaySpace<L, A>,
{
    let eval = SelEval::new(factory);
    let outcome = engine.search(space, &eval)?;
    let (_, value) = eval
        .rebuild(outcome.index)
        .run()
        .expect("replayed winner reached the top level with an unhandled operation");
    Some((outcome, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use selc::loss;

    fn costs() -> Vec<f64> {
        vec![4.0, 2.5, 7.0, 2.5, 9.0]
    }

    #[test]
    fn replayed_programs_score_by_recorded_loss() {
        let cs = costs();
        let factory = move |i: usize| loss(cs[i]).map(move |_| i * 10);
        let (out, value) = search_programs(&ParallelEngine::exhaustive(), 5, factory).unwrap();
        assert_eq!(out.index, 1, "earliest of the tied 2.5s");
        assert_eq!(out.loss, 2.5);
        assert_eq!(value, 10);
    }

    #[test]
    fn parallel_replay_matches_sequential() {
        let cs = costs();
        let cs2 = cs.clone();
        let seq = search_programs(&ParallelEngine::exhaustive(), 5, move |i: usize| {
            loss(cs[i]).map(move |_| i)
        })
        .unwrap();
        let par = search_programs(&ParallelEngine::with_threads(4), 5, move |i: usize| {
            loss(cs2[i]).map(move |_| i)
        })
        .unwrap();
        assert_eq!((seq.0.index, seq.0.loss, seq.1), (par.0.index, par.0.loss, par.1));
    }

    #[test]
    fn cache_sink_accumulates_across_threads() {
        let sink = CacheStatsSink::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    sink.record(&CacheStats { hits: 2, misses: 3, insertions: 3, evictions: 1 });
                });
            }
        });
        assert_eq!(sink.total(), CacheStats { hits: 8, misses: 12, insertions: 12, evictions: 4 });
    }
}
