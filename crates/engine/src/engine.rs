//! The engines: candidate-space search with deterministic reduction.
//!
//! An [`Engine`] evaluates every candidate in a finite space `0..space`
//! through a [`CandidateEval`] and returns the argmin under the total
//! order [`OrderedLoss::cmp_loss`], ties broken towards the smallest
//! index. [`SequentialEngine`] is the single-threaded reference;
//! [`ParallelEngine`] distributes chunks of the space over a pool of
//! `std::thread` workers and merges per-worker bests by `(loss, index)`
//! — a commutative, associative, *total* reduction, so the winner is
//! bit-identical to the sequential scan regardless of thread
//! interleaving. Both share the branch-and-bound machinery of
//! [`SharedBound`].
//!
//! Every engine, the tree walk in [`crate::tree`] included, fans out
//! through one worker loop (`fan_out`, the caller being worker 0) into
//! one per-worker accumulator (`Partial`) and one result path
//! (`Partial::finish`).

use crate::bound::SharedBound;
use crate::cancel::CancelToken;
use crate::queue::WorkQueue;
use crate::threads::configured_threads;
use selc::OrderedLoss;
use selc_cache::{CacheStats, SummaryStats};
use selc_obs::{trace, SpanLabel};
use std::sync::LazyLock;

/// Span labels for the engine hot paths: a queue claim (the wait for
/// work), one flat candidate evaluation, one claimed subtree descent.
/// All three are inert one-branch checks unless `SELC_TRACE` is set.
static CLAIM_SPAN: SpanLabel = SpanLabel::new("engine.claim");
static EVAL_SPAN: SpanLabel = SpanLabel::new("engine.eval");

/// Process-global engine counters, folded in **once per search** from
/// the already-merged [`SearchStats`] rather than incremented per
/// candidate — the per-event cost lands on code that runs a handful of
/// times per request, and the per-candidate loop stays exactly as the
/// bench baselines measured it. This is also what makes the counters
/// deterministic where the underlying stat is: `engine.evaluated`
/// under an exhaustive search is the same number whatever
/// `SELC_THREADS` says, which the metrics differential suite pins.
struct EngineMetrics {
    searches: selc_obs::Counter,
    evaluated: selc_obs::Counter,
    pruned: selc_obs::Counter,
    cancelled: selc_obs::Counter,
    summary_exact_installs: selc_obs::Counter,
    summary_bound_installs: selc_obs::Counter,
}

static ENGINE_METRICS: LazyLock<EngineMetrics> = LazyLock::new(|| EngineMetrics {
    searches: selc_obs::metrics::counter("engine.searches"),
    evaluated: selc_obs::metrics::counter("engine.evaluated"),
    pruned: selc_obs::metrics::counter("engine.pruned"),
    cancelled: selc_obs::metrics::counter("engine.cancelled"),
    summary_exact_installs: selc_obs::metrics::counter("engine.summary_exact_installs"),
    summary_bound_installs: selc_obs::metrics::counter("engine.summary_bound_installs"),
});

/// Folds one finished search into the global counters; no-op when
/// metrics are disabled.
fn record_search_metrics(stats: &SearchStats, aborted: bool) {
    if !selc_obs::metrics_enabled() {
        return;
    }
    let m = &*ENGINE_METRICS;
    m.searches.inc();
    m.evaluated.add(stats.evaluated);
    m.pruned.add(stats.pruned);
    if aborted {
        m.cancelled.inc();
    }
    m.summary_exact_installs.add(stats.summary.exact_installs);
    m.summary_bound_installs.add(stats.summary.bound_installs);
}

/// How an engine asks for the loss of one candidate.
///
/// Implementations are shared by reference across worker threads, so all
/// interior state must be thread-safe (atomics, locks, or nothing).
pub trait CandidateEval<L: OrderedLoss>: Send + Sync {
    /// Evaluates candidate `index` to its loss.
    ///
    /// The evaluator may consult `bound` *during* evaluation and return
    /// `None` to abandon the candidate early — but only under the pruning
    /// soundness condition (see [`crate::bound`]): `None` is a claim that
    /// the candidate's final loss is **strictly** worse than a loss some
    /// other candidate already achieved. Evaluators that cannot prove
    /// this must always return `Some`.
    fn eval(&self, index: usize, bound: &SharedBound<L>) -> Option<L>;

    /// A cheap lower bound on candidate `index`'s loss, if one is
    /// available before evaluating; engines skip candidates whose lower
    /// bound the shared bound strictly dominates.
    fn lower_bound(&self, _index: usize) -> Option<L> {
        None
    }

    /// Cache counters accumulated by the evaluator — probe memoisation
    /// (see [`selc::MemoChoice::stats`]); merged into
    /// [`SearchStats::cache`] after the search.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// A plain-function evaluator: no pruning, no telemetry.
pub struct FnEval<F>(pub F);

impl<L, F> CandidateEval<L> for FnEval<F>
where
    L: OrderedLoss,
    F: Fn(usize) -> L + Send + Sync,
{
    fn eval(&self, index: usize, _bound: &SharedBound<L>) -> Option<L> {
        Some((self.0)(index))
    }
}

/// Search telemetry: what the engine actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates evaluated to completion.
    pub evaluated: u64,
    /// Candidates skipped (dominated lower bound) or abandoned mid-eval.
    pub pruned: u64,
    /// Workers the search ran with (1 for the sequential engine).
    pub threads: usize,
    /// Cache counters reported by the evaluator: memoised probes and/or
    /// shared transposition-table traffic during this search.
    pub cache: CacheStats,
    /// Subtree-summary traffic (tree searches only; all-zero for the
    /// flat engines): interior-node probes and installs, counted by the
    /// engine itself so warm-path savings are visible separately from
    /// the leaf cache counters.
    pub summary: SummaryStats,
}

/// The result of a search: the winning candidate, its loss, and stats.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome<L> {
    /// Index of the winner in `0..space`.
    pub index: usize,
    /// The winner's loss.
    pub loss: L,
    /// Telemetry for this search.
    pub stats: SearchStats,
}

/// What a cancellable search came back with: either the completed argmin
/// or whatever was best when the [`CancelToken`] fired.
#[derive(Clone, Debug, PartialEq)]
pub enum SearchResult<L> {
    /// The space was fully decided (modulo sound pruning): the outcome
    /// is the deterministic argmin, `None` only for an empty space.
    Complete(Option<Outcome<L>>),
    /// The token fired mid-search. The outcome is the best candidate
    /// *seen so far* — a valid achieved loss, but not necessarily the
    /// argmin — or `None` when nothing had scored yet. Stats count only
    /// the work actually done.
    Cancelled(Option<Outcome<L>>),
}

impl<L> SearchResult<L> {
    /// Whether the token fired before the search decided the space.
    #[must_use]
    pub fn was_cancelled(&self) -> bool {
        matches!(self, SearchResult::Cancelled(_))
    }

    /// The outcome either way: the argmin when complete, the partial
    /// best when cancelled.
    #[must_use]
    pub fn into_outcome(self) -> Option<Outcome<L>> {
        match self {
            SearchResult::Complete(o) | SearchResult::Cancelled(o) => o,
        }
    }
}

/// A strategy for searching a finite candidate space. `search` returns
/// `None` only for an empty space.
pub trait Engine {
    /// Argmin over `0..space` under `eval`, deterministic tie-breaking
    /// towards the smallest index, aborting (with the best seen so far)
    /// as soon as `cancel` fires — checked per candidate, alongside the
    /// shared bound, so deadline and disconnect aborts take effect
    /// within one evaluation.
    fn search_with<L: OrderedLoss, E: CandidateEval<L> + ?Sized>(
        &self,
        space: usize,
        eval: &E,
        cancel: &CancelToken,
    ) -> SearchResult<L>;

    /// Argmin over `0..space` under `eval`, deterministic tie-breaking
    /// towards the smallest index. Runs under a token that can never
    /// fire, so the result is always complete.
    fn search<L: OrderedLoss, E: CandidateEval<L> + ?Sized>(
        &self,
        space: usize,
        eval: &E,
    ) -> Option<Outcome<L>> {
        self.search_with(space, eval, &CancelToken::never()).into_outcome()
    }
}

/// Lexicographic `(loss, index)` merge — the deterministic reduction.
/// One definition for every engine (the flat scans here, the tree walk
/// in [`crate::tree`]): the bit-identical-winners contract depends on
/// all of them folding with exactly this comparison.
fn better<L: OrderedLoss>(a: &(L, usize), b: &(L, usize)) -> bool {
    match a.0.cmp_loss(&b.0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.1 < b.1,
    }
}

/// Folds `candidate` into a running best under [`better`].
pub(crate) fn keep_better<L: OrderedLoss>(best: &mut Option<(L, usize)>, candidate: (L, usize)) {
    if best.as_ref().is_none_or(|b| better(&candidate, b)) {
        *best = Some(candidate);
    }
}

/// The one worker loop every engine fans out through: `threads` workers
/// each own an `A`, claim `chunk`-sized ranges of `0..count` and hand
/// each to `work`; a `false` from `work` stops that worker. The calling
/// thread is worker 0, so a one-worker search spawns nothing.
///
/// The claim honours `cancel`: a cancelled worker stops within one
/// claim instead of draining the queue. The returned flag says whether
/// the queue was drained — `false` proves claims were refused, i.e.
/// part of the space went unexamined.
pub(crate) fn fan_out<A, W>(
    threads: usize,
    count: usize,
    chunk: usize,
    cancel: &CancelToken,
    work: W,
) -> (Vec<A>, bool)
where
    A: Default + Send,
    W: Fn(&mut A, usize, usize) -> bool + Sync,
{
    let queue = WorkQueue::new(count);
    let worker = || {
        let mut acc = A::default();
        loop {
            let claimed = {
                let _span = trace::span(&CLAIM_SPAN, chunk as u64);
                queue.claim_unless(chunk, cancel)
            };
            let Some((start, end)) = claimed else { break };
            if !work(&mut acc, start, end) {
                break;
            }
        }
        acc
    };
    let accs = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads).map(|_| s.spawn(worker)).collect();
        let mut accs = Vec::with_capacity(threads);
        accs.push(worker());
        accs.extend(spawned.into_iter().map(|h| h.join().expect("engine worker panicked")));
        accs
    });
    (accs, queue.claim(1).is_none())
}

/// One worker's accumulator, and after [`Partial::merged`] the whole
/// search's: local best plus counters (`evaluated` = candidates or
/// canonical leaves scored, `pruned` = candidates or subtrees skipped,
/// `summary` = interior-node summary traffic, `aborted` = the cancel
/// token fired and some of the space was left unexamined).
pub(crate) struct Partial<L> {
    pub(crate) best: Option<(L, usize)>,
    pub(crate) evaluated: u64,
    pub(crate) pruned: u64,
    pub(crate) summary: SummaryStats,
    pub(crate) aborted: bool,
}

impl<L> Default for Partial<L> {
    fn default() -> Self {
        Partial {
            best: None,
            evaluated: 0,
            pruned: 0,
            summary: SummaryStats::default(),
            aborted: false,
        }
    }
}

impl<L: OrderedLoss> Partial<L> {
    /// Folds the per-worker parts of one [`fan_out`]; an undrained queue
    /// (`drained == false`) marks the search aborted even when no worker
    /// saw the token mid-work.
    pub(crate) fn merged(parts: Vec<Partial<L>>, drained: bool) -> Partial<L> {
        let mut merged = Partial { aborted: !drained, ..Partial::default() };
        for part in parts {
            merged.evaluated += part.evaluated;
            merged.pruned += part.pruned;
            merged.aborted |= part.aborted;
            merged.summary = merged.summary.merged(&part.summary);
            if let Some(candidate) = part.best {
                keep_better(&mut merged.best, candidate);
            }
        }
        merged
    }

    /// The search's result: stats, the once-per-search metrics fold, and
    /// `Complete` or `Cancelled`.
    pub(crate) fn finish(self, threads: usize, cache: CacheStats) -> SearchResult<L> {
        let stats = SearchStats {
            evaluated: self.evaluated,
            pruned: self.pruned,
            threads,
            cache,
            summary: self.summary,
        };
        record_search_metrics(&stats, self.aborted);
        let outcome = self.best.map(|(loss, index)| Outcome { index, loss, stats });
        if self.aborted {
            SearchResult::Cancelled(outcome)
        } else {
            SearchResult::Complete(outcome)
        }
    }
}

/// Evaluates `indices`, maintaining the part's best and the shared
/// bound; marks the part aborted (leaving the rest of the range
/// untouched) when `cancel` fires.
fn scan<L, E>(
    eval: &E,
    indices: std::ops::Range<usize>,
    bound: &SharedBound<L>,
    prune: bool,
    cancel: &CancelToken,
    part: &mut Partial<L>,
) where
    L: OrderedLoss,
    E: CandidateEval<L> + ?Sized,
{
    for i in indices {
        if cancel.is_cancelled() {
            part.aborted = true;
            return;
        }
        if prune {
            if let Some(lb) = eval.lower_bound(i) {
                if bound.dominated(&lb) {
                    part.pruned += 1;
                    continue;
                }
            }
        }
        let scored = {
            let _span = trace::span(&EVAL_SPAN, i as u64);
            eval.eval(i, bound)
        };
        match scored {
            None => part.pruned += 1,
            Some(l) => {
                part.evaluated += 1;
                if prune {
                    bound.observe(&l);
                }
                keep_better(&mut part.best, (l, i));
            }
        }
    }
}

/// The flat search both flat engines run: `threads` workers scan
/// `chunk`-sized ranges of `0..space` against one shared bound.
fn flat_search<L, E>(
    threads: usize,
    chunk: usize,
    prune: bool,
    space: usize,
    eval: &E,
    cancel: &CancelToken,
) -> SearchResult<L>
where
    L: OrderedLoss,
    E: CandidateEval<L> + ?Sized,
{
    let bound = SharedBound::new();
    let (parts, drained) =
        fan_out(threads, space, chunk, cancel, |part: &mut Partial<L>, start, end| {
            scan(eval, start..end, &bound, prune, cancel, part);
            !part.aborted
        });
    Partial::merged(parts, drained).finish(threads, eval.cache_stats())
}

/// The single-threaded reference engine (and differential-test oracle).
#[derive(Clone, Copy, Debug)]
pub struct SequentialEngine {
    /// Enable branch-and-bound pruning against a (thread-local) bound.
    pub prune: bool,
}

impl SequentialEngine {
    /// An exhaustive sequential engine (no pruning).
    pub fn exhaustive() -> SequentialEngine {
        SequentialEngine { prune: false }
    }

    /// A sequential engine with branch-and-bound pruning.
    pub fn pruning() -> SequentialEngine {
        SequentialEngine { prune: true }
    }
}

impl Engine for SequentialEngine {
    fn search_with<L: OrderedLoss, E: CandidateEval<L> + ?Sized>(
        &self,
        space: usize,
        eval: &E,
        cancel: &CancelToken,
    ) -> SearchResult<L> {
        flat_search(1, space.max(1), self.prune, space, eval, cancel)
    }
}

/// The parallel engine: a fixed-size worker pool fed by a chunked work
/// queue (an atomic cursor over `0..space`), with the shared
/// branch-and-bound bound and the deterministic `(loss, index)` merge.
#[derive(Clone, Copy, Debug)]
pub struct ParallelEngine {
    /// Worker count; `0` means [`configured_threads`] (`SELC_THREADS`).
    pub threads: usize,
    /// Indices handed to a worker per queue pop; `0` picks a chunk that
    /// gives each worker ~4 pops over the space.
    pub chunk: usize,
    /// Enable branch-and-bound pruning via the shared bound.
    pub prune: bool,
}

impl Default for ParallelEngine {
    fn default() -> Self {
        ParallelEngine { threads: 0, chunk: 0, prune: true }
    }
}

impl ParallelEngine {
    /// `SELC_THREADS` workers, auto chunking, pruning on.
    pub fn auto() -> ParallelEngine {
        ParallelEngine::default()
    }

    /// A pool of exactly `threads` workers, auto chunking, pruning on.
    pub fn with_threads(threads: usize) -> ParallelEngine {
        ParallelEngine { threads, ..ParallelEngine::default() }
    }

    /// Same pool, pruning disabled (pure exhaustive fan-out).
    pub fn without_pruning(mut self) -> ParallelEngine {
        self.prune = false;
        self
    }

    fn effective_threads(&self, space: usize) -> usize {
        let t = if self.threads == 0 { configured_threads() } else { self.threads };
        t.max(1).min(space.max(1))
    }

    fn effective_chunk(&self, space: usize, threads: usize) -> usize {
        if self.chunk != 0 {
            return self.chunk;
        }
        (space / (threads * 4)).max(1)
    }
}

impl Engine for ParallelEngine {
    fn search_with<L: OrderedLoss, E: CandidateEval<L> + ?Sized>(
        &self,
        space: usize,
        eval: &E,
        cancel: &CancelToken,
    ) -> SearchResult<L> {
        let threads = self.effective_threads(space);
        let chunk = self.effective_chunk(space, threads);
        flat_search(threads, chunk, self.prune, space, eval, cancel)
    }
}

/// Argmin of `f` over `0..space` — the convenience entry point.
pub fn minimize<L, F, G>(engine: &G, space: usize, f: F) -> Option<Outcome<L>>
where
    L: OrderedLoss,
    F: Fn(usize) -> L + Send + Sync,
    G: Engine,
{
    engine.search(space, &FnEval(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_space_returns_none() {
        assert!(minimize(&SequentialEngine::exhaustive(), 0, |i| i as f64).is_none());
        assert!(minimize(&ParallelEngine::with_threads(3), 0, |i| i as f64).is_none());
    }

    #[test]
    fn sequential_finds_min_and_breaks_ties_left() {
        let losses = [3.0, 1.0, 4.0, 1.0, 5.0];
        let out = minimize(&SequentialEngine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        assert_eq!(out.index, 1);
        assert_eq!(out.loss, 1.0);
        assert_eq!(out.stats.evaluated, 5);
        assert_eq!(out.stats.pruned, 0);
    }

    #[test]
    fn parallel_matches_sequential_across_pool_shapes() {
        let losses: Vec<f64> = (0..57).map(|i| f64::from((i * 37 % 19) as u8)).collect();
        let reference =
            minimize(&SequentialEngine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        for threads in [1, 2, 3, 8] {
            for chunk in [0, 1, 5, 100] {
                for prune in [false, true] {
                    let eng = ParallelEngine { threads, chunk, prune };
                    let out = minimize(&eng, losses.len(), |i| losses[i]).unwrap();
                    assert_eq!(
                        (out.index, out.loss),
                        (reference.index, reference.loss),
                        "threads={threads} chunk={chunk} prune={prune}"
                    );
                }
            }
        }
    }

    #[test]
    fn lower_bounds_prune_but_never_change_the_winner() {
        struct Bounded;
        impl CandidateEval<f64> for Bounded {
            fn eval(&self, index: usize, _b: &SharedBound<f64>) -> Option<f64> {
                Some(f64::from(index as u32))
            }
            fn lower_bound(&self, index: usize) -> Option<f64> {
                // Exact bounds: everything after index 0 is prunable once
                // candidate 0 (loss 0) has been observed.
                Some(f64::from(index as u32))
            }
        }
        let seq = SequentialEngine::pruning().search(64, &Bounded).unwrap();
        assert_eq!((seq.index, seq.loss), (0, 0.0));
        assert!(seq.stats.pruned > 0, "stats: {:?}", seq.stats);
        let par =
            ParallelEngine { threads: 4, chunk: 4, prune: true }.search(64, &Bounded).unwrap();
        assert_eq!((par.index, par.loss), (0, 0.0));
        assert_eq!(par.stats.evaluated + par.stats.pruned, 64);
    }

    #[test]
    fn self_pruning_eval_is_counted_and_harmless() {
        struct SelfPrune;
        impl CandidateEval<f64> for SelfPrune {
            fn eval(&self, index: usize, bound: &SharedBound<f64>) -> Option<f64> {
                let loss = f64::from((index % 10) as u32) + 1.0;
                // Abandon mid-eval when strictly dominated (sound: `loss`
                // here is also its own lower bound).
                if bound.dominated(&loss) {
                    return None;
                }
                Some(loss)
            }
        }
        let out =
            ParallelEngine { threads: 3, chunk: 2, prune: true }.search(40, &SelfPrune).unwrap();
        assert_eq!(out.loss, 1.0);
        assert_eq!(out.index, 0, "earliest of the loss-1 candidates");
    }

    #[test]
    fn one_thread_pool_reports_single_worker() {
        let out = minimize(&ParallelEngine::with_threads(1), 10, |i| i as f64).unwrap();
        assert_eq!(out.stats.threads, 1);
    }

    #[test]
    fn nan_losses_lose_to_finite_ones_deterministically() {
        let losses = [f64::NAN, 2.0, f64::NAN, 1.0];
        let seq = minimize(&SequentialEngine::exhaustive(), 4, |i| losses[i]).unwrap();
        let par = minimize(&ParallelEngine::with_threads(4), 4, |i| losses[i]).unwrap();
        assert_eq!(seq.index, 3);
        assert_eq!(par.index, 3);
    }

    /// An evaluator that fires the shared token after `trip` evaluations
    /// — the in-band stand-in for a client hanging up mid-search.
    struct TripWire {
        cancel: CancelToken,
        trip: u64,
        count: std::sync::atomic::AtomicU64,
    }

    impl CandidateEval<f64> for TripWire {
        fn eval(&self, index: usize, _b: &SharedBound<f64>) -> Option<f64> {
            let n = self.count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n + 1 >= self.trip {
                self.cancel.cancel();
            }
            Some(f64::from(index as u32) + 1.0)
        }
    }

    #[test]
    fn cancelled_searches_return_a_partial_best_without_draining_the_space() {
        let space = 100_000;
        for threads in [1, 3] {
            let cancel = CancelToken::new();
            let eval = TripWire { cancel: cancel.clone(), trip: 5, count: Default::default() };
            let result = ParallelEngine { threads, chunk: 2, prune: false }
                .search_with(space, &eval, &cancel);
            assert!(result.was_cancelled(), "threads {threads}");
            let out = result.into_outcome().expect("five candidates scored");
            assert!(out.loss >= 1.0, "partial best is a really-achieved loss");
            assert!(
                out.stats.evaluated + out.stats.pruned < space as u64 / 2,
                "threads {threads}: workers must stop claiming, stats {:?}",
                out.stats
            );
        }
    }

    #[test]
    fn a_pre_cancelled_token_stops_the_search_before_any_evaluation() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let eval = TripWire { cancel: cancel.clone(), trip: u64::MAX, count: Default::default() };
        for result in [
            SequentialEngine::exhaustive().search_with(64, &eval, &cancel),
            ParallelEngine::with_threads(4).search_with(64, &eval, &cancel),
        ] {
            assert!(result.was_cancelled());
            assert!(result.into_outcome().is_none(), "nothing was evaluated");
        }
        assert_eq!(eval.count.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn never_tokens_leave_results_complete_and_bit_identical() {
        let losses: Vec<f64> = (0..33).map(|i| f64::from((i * 13 % 7) as u8)).collect();
        let reference =
            minimize(&SequentialEngine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        let result = ParallelEngine::with_threads(3).search_with(
            losses.len(),
            &FnEval(|i: usize| losses[i]),
            &CancelToken::never(),
        );
        assert!(!result.was_cancelled());
        let out = result.into_outcome().unwrap();
        assert_eq!((out.index, out.loss), (reference.index, reference.loss));
    }

    #[test]
    fn expired_deadlines_cancel_flat_searches() {
        let cancel = CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let result = SequentialEngine::exhaustive().search_with(
            1_000,
            &FnEval(|i: usize| i as f64),
            &cancel,
        );
        assert!(result.was_cancelled());
    }
}
