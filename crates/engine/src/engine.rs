//! The one engine: a flat argmin scan and a tree walk under one policy.
//!
//! [`Engine`] holds the only two knobs a search has: how many workers
//! a tree walk runs with and whether a search prunes. It drives two
//! shapes of space. [`Engine::scan`] scores every candidate of a finite
//! space `0..space` through a closure — a candidate *is* a function
//! from its index to its loss — in index order on the calling thread,
//! and returns the argmin under the total order
//! [`OrderedLoss::cmp_loss`], ties broken towards the smallest index:
//! the paper's left-to-right argmin. [`Engine::search`] (in
//! [`crate::tree`]) walks a decision tree instead, and is the only
//! shape that runs on more than one worker: it splits at the depth that
//! gives each worker about four subtrees, capped at the evaluator's
//! [`crate::TreeEval::min_leaf_depth`]. Both fold bests by
//! `(loss, index)` — a commutative, associative, *total* reduction, so
//! the walk's winner is bit-identical to the index-order scan regardless
//! of thread interleaving — and both prune through one [`SharedBound`].
//!
//! [`Engine::exhaustive`] (one worker, no pruning) is the index-order
//! scan, or the single depth-first walk, on the calling thread: the
//! differential suites' oracle.
//!
//! The tree walk fans out through one worker loop (`fan_out`, the caller
//! being worker 0, the rest parked threads of one persistent pool) into
//! one per-worker accumulator (`Partial`); the scan fills one `Partial`
//! itself, and both share its result path (`Partial::finish`).

use crate::bound::SharedBound;
use crate::cancel::CancelToken;
use crate::pool;
use crate::queue::WorkQueue;
use crate::threads::configured_threads;
use selc::OrderedLoss;
use selc_cache::{CacheStats, SummaryStats};
use selc_obs::{trace, SpanLabel};
use std::sync::{LazyLock, Mutex, PoisonError};

/// Span label for a tree-walk worker's queue claim (the wait for work),
/// whose argument is the claim's size, one subtree root. Inert, one
/// branch, unless `SELC_TRACE` is set.
static CLAIM_SPAN: SpanLabel = SpanLabel::new("engine.claim");

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

/// Search telemetry: what the engine actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates evaluated to completion.
    pub evaluated: u64,
    /// Candidates or subtrees cut: `hint_skips + bound_skips + abandoned`.
    pub pruned: u64,
    /// Tree subtrees skipped because their lower-bound hint was strictly
    /// dominated by the bound.
    pub hint_skips: u64,
    /// Tree subtrees skipped because a bound summary entry was strictly
    /// dominated by the bound.
    pub bound_skips: u64,
    /// Candidates or subtrees the evaluator gave up on itself: a flat
    /// scan closure returning `None`, a tree step reporting
    /// [`crate::TreeStep::Pruned`] (a λC machine abandoning a run
    /// mid-segment).
    pub abandoned: u64,
    /// Workers the search ran with (1 for [`Engine::exhaustive`]).
    pub threads: usize,
    /// Cache counters of this search: memoised probes and/or
    /// shared-table traffic. The engine leaves them empty; the caller
    /// that owns the table fills them in from its own counters. For a
    /// table that holds only subtree summaries (`lambda_rt::LcTransCache`)
    /// this is the table-level view of the traffic `summary` breaks down.
    pub cache: CacheStats,
    /// Subtree-summary traffic (tree searches only; all-zero for the
    /// flat scan): interior-node probes and installs by kind, counted
    /// by the engine itself, so exact answers are visible apart from
    /// bound hints.
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

/// Lexicographic `(loss, index)` merge — the deterministic reduction.
/// One definition for both shapes (the flat scan here, the tree walk in
/// [`crate::tree`]): the bit-identical-winners contract depends on both
/// folding with exactly this comparison.
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

/// The tree walk's worker loop: `threads` workers each own an `A`,
/// claim the indices of `0..count` one at a time and hand each to
/// `work`; a `false` from `work` stops that worker. The calling thread
/// is worker 0 and the rest are parked helpers of the persistent
/// [`crate::pool`], so a warm process spawns nothing per search.
///
/// The claim honours `cancel`: a cancelled worker stops within one
/// claim instead of draining the queue. The returned flag says whether
/// the queue was drained — `false` proves claims were refused, i.e.
/// part of the space went unexamined.
pub(crate) fn fan_out<A, W>(
    threads: usize,
    count: usize,
    cancel: &CancelToken,
    work: W,
) -> (Vec<A>, bool)
where
    A: Default + Send,
    W: Fn(&mut A, usize) -> bool + Sync,
{
    let queue = WorkQueue::new(count);
    let accs = Mutex::new(Vec::with_capacity(threads));
    pool::broadcast(threads.saturating_sub(1), &|| {
        let mut acc = A::default();
        loop {
            let claimed = {
                let _span = trace::span(&CLAIM_SPAN, 1);
                queue.claim_unless(cancel)
            };
            let Some(index) = claimed else { break };
            if !work(&mut acc, index) {
                break;
            }
        }
        accs.lock().unwrap_or_else(PoisonError::into_inner).push(acc);
    });
    (accs.into_inner().unwrap_or_else(PoisonError::into_inner), queue.claim().is_none())
}

/// One worker's accumulator (the scan's only one), and after
/// [`Partial::merged`] the whole walk's: local best plus counters
/// (`evaluated` = candidates or canonical leaves scored,
/// `hint_skips`/`bound_skips`/`abandoned` = what was cut and by which
/// layer, as in [`SearchStats`], `summary` = interior-node summary
/// traffic, `aborted` = the cancel token fired and some of the space was
/// left unexamined).
pub(crate) struct Partial<L> {
    pub(crate) best: Option<(L, usize)>,
    pub(crate) evaluated: u64,
    pub(crate) hint_skips: u64,
    pub(crate) bound_skips: u64,
    pub(crate) abandoned: u64,
    pub(crate) summary: SummaryStats,
    pub(crate) aborted: bool,
}

impl<L> Default for Partial<L> {
    fn default() -> Self {
        Partial {
            best: None,
            evaluated: 0,
            hint_skips: 0,
            bound_skips: 0,
            abandoned: 0,
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
            merged.hint_skips += part.hint_skips;
            merged.bound_skips += part.bound_skips;
            merged.abandoned += part.abandoned;
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
    pub(crate) fn finish(self, threads: usize) -> SearchResult<L> {
        let stats = SearchStats {
            evaluated: self.evaluated,
            pruned: self.hint_skips + self.bound_skips + self.abandoned,
            hint_skips: self.hint_skips,
            bound_skips: self.bound_skips,
            abandoned: self.abandoned,
            threads,
            cache: CacheStats::default(),
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

/// The one search engine: a worker count and a pruning switch. It runs
/// flat candidate spaces ([`Engine::scan`], [`minimize`]) in index
/// order on the calling thread, and decision trees ([`Engine::search`])
/// on `threads` workers.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    /// Tree-walk worker count; `0` means [`configured_threads`]
    /// (`SELC_THREADS`). The flat scan ignores it.
    pub threads: usize,
    /// Enable branch-and-bound pruning via the shared bound.
    pub prune: bool,
}

/// An old name of [`Engine`], kept only because the frozen `perfbench/`
/// still spells it; ROADMAP item 6(a) deletes it.
pub type ParallelEngine = Engine;
/// An old name of [`Engine`]; see the alias above.
pub type SequentialEngine = Engine;
/// An old name of [`Engine`]; see the alias above.
pub type TreeEngine = Engine;

impl Default for Engine {
    fn default() -> Self {
        Engine { threads: 0, prune: true }
    }
}

impl Engine {
    /// `SELC_THREADS` workers, pruning on.
    pub fn auto() -> Engine {
        Engine::default()
    }

    /// A pool of exactly `threads` workers, pruning on.
    pub fn with_threads(threads: usize) -> Engine {
        Engine { threads, ..Engine::default() }
    }

    /// One worker, no pruning: the index-order scan (or the single
    /// depth-first walk) on the calling thread, and the oracle of the
    /// differential suites. Over a tree evaluator without a summary
    /// table it caches nothing either.
    pub fn exhaustive() -> Engine {
        Engine::with_threads(1).without_pruning()
    }

    /// Same worker count, pruning disabled.
    pub fn without_pruning(mut self) -> Engine {
        self.prune = false;
        self
    }

    /// The worker count this engine asks for, before a search caps it
    /// at the work it has.
    pub(crate) fn workers(&self) -> usize {
        let t = if self.threads == 0 { configured_threads() } else { self.threads };
        t.max(1)
    }

    /// Argmin over `0..space` of `f`, ties broken towards the smallest
    /// index; `None` only for an empty space or when `f` abandons every
    /// candidate.
    ///
    /// The scan calls `f` in index order on the calling thread, whatever
    /// `self.threads` says, so `stats.threads` is 1 and the stats are the
    /// same at every worker count. `f(i, bound)` scores candidate `i`. It
    /// may consult `bound` and return `None` to abandon the candidate — a
    /// cheap lower bound checked before the real work, or a monotone
    /// partial loss checked during it — but only under the pruning
    /// soundness condition (see [`crate::bound`]): `None` claims that the
    /// candidate's final loss is **strictly** worse than a loss some
    /// earlier candidate already achieved, which `bound.dominated(lb)`
    /// for a true lower bound `lb` proves. An unpruned engine never
    /// publishes into `bound`, so such a closure scores every candidate
    /// there. `stats.cache` is left empty; a closure that reads a cache
    /// fills it in from its own counters.
    pub fn scan<L, F>(&self, space: usize, mut f: F) -> Option<Outcome<L>>
    where
        L: OrderedLoss,
        F: FnMut(usize, &SharedBound<L>) -> Option<L>,
    {
        let bound = SharedBound::new();
        let mut part = Partial::default();
        for i in 0..space {
            match f(i, &bound) {
                None => part.abandoned += 1,
                Some(l) => {
                    part.evaluated += 1;
                    if self.prune {
                        bound.observe(&l);
                    }
                    keep_better(&mut part.best, (l, i));
                }
            }
        }
        part.finish(1).into_outcome()
    }
}

/// Argmin of `f` over `0..space` — [`Engine::scan`] for a plain loss,
/// in index order on the calling thread.
///
/// The winner is the one a sequential `<` scan keeps (earliest on ties)
/// except on two kinds of loss value: the engine compares under the
/// *total* order `f64::total_cmp`, the sequential scans under partial
/// `<`. `NaN` is never preferred by `<` but ranks above `+∞` under
/// `total_cmp`, and `-0.0` and `+0.0` are equal under `<` but ordered
/// under `total_cmp` (observable when an argmax is run as a negated
/// argmin). Keep losses NaN-free and the guarantee is exact.
pub fn minimize<L, F>(engine: &Engine, space: usize, mut f: F) -> Option<Outcome<L>>
where
    L: OrderedLoss,
    F: FnMut(usize) -> L,
{
    engine.scan(space, |i, _| Some(f(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tests::TableTree;

    #[test]
    fn empty_space_returns_none() {
        assert!(minimize(&Engine::exhaustive(), 0, |i| i as f64).is_none());
        assert!(minimize(&Engine::with_threads(3), 0, |i| i as f64).is_none());
    }

    #[test]
    fn sequential_finds_min_and_breaks_ties_left() {
        let losses = [3.0, 1.0, 4.0, 1.0, 5.0];
        let out = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        assert_eq!(out.index, 1);
        assert_eq!(out.loss, 1.0);
        assert_eq!(out.stats.evaluated, 5);
        assert_eq!(out.stats.pruned, 0);
    }

    #[test]
    fn parallel_matches_sequential_across_pool_shapes() {
        // 57 candidates padded with +∞ to a depth-6 tree: a lone worker
        // walks it from the root; 2, 3 and 8 workers split it into 8, 16
        // and 32 subtree roots.
        let losses: Vec<f64> = (0..57).map(|i| f64::from((i * 37 % 19) as u8)).collect();
        let reference = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        let mut padded = losses.clone();
        padded.resize(64, f64::INFINITY);
        for threads in [1, 2, 3, 8] {
            for prune in [false, true] {
                let eng = Engine { threads, prune };
                let out = eng.search(&TableTree::new(padded.clone(), true)).unwrap();
                assert_eq!(
                    (out.index, out.loss),
                    (reference.index, reference.loss),
                    "threads={threads} prune={prune}"
                );
            }
        }
    }

    /// Candidate `i` has loss `i` and checks that exact lower bound
    /// before scoring: everything after index 0 is prunable once
    /// candidate 0 (loss 0) has been observed.
    fn exact_bound(i: usize, bound: &SharedBound<f64>) -> Option<f64> {
        let loss = f64::from(i as u32);
        (!bound.dominated(&loss)).then_some(loss)
    }

    #[test]
    fn lower_bounds_prune_but_never_change_the_winner() {
        let seq = Engine::with_threads(1).scan(64, exact_bound).unwrap();
        assert_eq!((seq.index, seq.loss), (0, 0.0));
        assert_eq!((seq.stats.evaluated, seq.stats.pruned), (1, 63), "stats: {:?}", seq.stats);
        assert_eq!(seq.stats.abandoned, 63, "a closure's `None` is its own abandonment");
        let par = Engine::with_threads(4).scan(64, exact_bound).unwrap();
        assert_eq!((par.index, par.loss), (0, 0.0));
        assert_eq!(par.stats.evaluated + par.stats.pruned, 64);
        let unpruned = Engine::with_threads(4).without_pruning().scan(64, exact_bound).unwrap();
        assert_eq!(
            (unpruned.stats.evaluated, unpruned.stats.pruned),
            (64, 0),
            "an unpruned engine publishes no bound, so nothing is dominated"
        );
    }

    #[test]
    fn self_pruning_eval_is_counted_and_harmless() {
        // Abandons mid-eval when strictly dominated (sound: `loss` here
        // is also its own lower bound).
        let self_prune = |index: usize, bound: &SharedBound<f64>| {
            let loss = f64::from((index % 10) as u32) + 1.0;
            (!bound.dominated(&loss)).then_some(loss)
        };
        let out = Engine::with_threads(3).scan(40, self_prune).unwrap();
        assert_eq!(out.loss, 1.0);
        assert_eq!(out.index, 0, "earliest of the loss-1 candidates");
        assert_eq!(out.stats.evaluated + out.stats.pruned, 40);
    }

    #[test]
    fn one_thread_pool_reports_single_worker() {
        let losses: Vec<f64> = (0..16).map(f64::from).collect();
        let out = Engine::with_threads(1).search(&TableTree::new(losses.clone(), false)).unwrap();
        assert_eq!(out.stats.threads, 1);
        let out = Engine::with_threads(2).search(&TableTree::new(losses, false)).unwrap();
        assert_eq!(out.stats.threads, 2);
    }

    /// A seeded flat space of `space` rows of small integers: candidate
    /// `a` first checks its row minimum, a true lower bound on its loss,
    /// against the shared bound (as `selc_games`' root split does), then
    /// scores the row minimum plus its first entry's remainder mod 3.
    fn seeded_rows(seed: u64, space: usize) -> Vec<Vec<f64>> {
        let mut x =
            seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (0..space)
            .map(|_| {
                (0..5)
                    .map(|_| {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        f64::from(((x >> 33) % 9) as u32)
                    })
                    .collect()
            })
            .collect()
    }

    fn score_row(row: &[f64], bound: &SharedBound<f64>) -> Option<f64> {
        let lb = row.iter().copied().fold(f64::INFINITY, f64::min);
        (!bound.dominated(&lb)).then(|| lb + row[0] % 3.0)
    }

    #[test]
    fn flat_scans_ignore_the_worker_count() {
        for seed in 0..16 {
            for space in [1, 2, 7, 40] {
                let rows = seeded_rows(seed, space);
                let scan = |eng: Engine| eng.scan(space, |a, bound| score_row(&rows[a], bound));
                let one = scan(Engine::with_threads(1)).unwrap();
                assert_eq!(one.stats.threads, 1);
                assert_eq!(one.stats.evaluated + one.stats.pruned, space as u64);
                let oracle = scan(Engine::exhaustive()).unwrap();
                assert_eq!((one.index, one.loss), (oracle.index, oracle.loss));
                for threads in [2, 4] {
                    let out = scan(Engine::with_threads(threads)).unwrap();
                    assert_eq!(
                        (out.index, out.loss, out.stats),
                        (one.index, one.loss, one.stats),
                        "seed {seed} space {space} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_exhaustive_oracle_is_an_index_order_scan_on_the_caller() {
        let n = 50;
        // Records the `(index, thread)` of every evaluation, and gives up
        // on a candidate once the shared bound strictly dominates it.
        let seen = Mutex::new(Vec::new());
        let recorder = |index: usize, bound: &SharedBound<f64>| {
            seen.lock().unwrap().push((index, std::thread::current().id()));
            let loss = f64::from((index % 7) as u32);
            (!bound.dominated(&loss)).then_some(loss)
        };
        let out = Engine::exhaustive().scan(n, recorder).unwrap();
        let seen = std::mem::take(&mut *seen.lock().unwrap());
        let caller = std::thread::current().id();
        assert_eq!(seen.iter().map(|&(i, _)| i).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        assert!(seen.iter().all(|&(_, t)| t == caller), "every candidate on the calling thread");
        assert_eq!(out.stats.threads, 1);
        assert_eq!(
            (out.stats.evaluated, out.stats.pruned),
            (n as u64, 0),
            "the oracle publishes no bound, so nothing is pruned"
        );
        assert_eq!((out.index, out.loss), (0, 0.0));

        let pruning = Engine::with_threads(1).scan(n, recorder).unwrap();
        assert!(pruning.stats.pruned > 0, "stats: {:?}", pruning.stats);
        assert_eq!((pruning.index, pruning.loss), (0, 0.0));
    }

    #[test]
    fn nan_losses_lose_to_finite_ones_deterministically() {
        let losses = [f64::NAN, 2.0, f64::NAN, 1.0];
        let seq = minimize(&Engine::exhaustive(), 4, |i| losses[i]).unwrap();
        let par = minimize(&Engine::with_threads(4), 4, |i| losses[i]).unwrap();
        assert_eq!(seq.index, 3);
        assert_eq!(par.index, 3);
    }
}
