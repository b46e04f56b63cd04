//! Compiled λC on the engine's prefix-sharing tree search.
//!
//! Where [`crate::search::search_compiled_flat`] replays every one of
//! the `2^depth` forced decision paths from the root — O(2^depth · depth)
//! machine segments — [`LcTreeEval`] walks the decision *tree*: one
//! [`lambda_c::machine::ChoicePoint`] per interior node, each branch
//! resumed from a copy of the suspended prefix state (fixed-size, so a
//! resume costs the same at every depth), O(tree nodes) segments total.
//! With a shared [`LcTransCache`] attached, the engine probes a **subtree
//! summary** at every interior node (keyed `(space id, len, bits)`) and
//! installs one on the way back up, so a table warmed by one search
//! answers whole subtrees of the next in O(1) — an O(depth) walk instead
//! of an O(leaves) rescan. Every search also seeds its `SharedBound` from
//! the space's best previously-achieved loss ([`TreeEval::seed_bits`])
//! before the first segment runs.
//!
//! * **Hints.** A node's hint orders its children best-first. Without a
//!   certificate it is the choice point's accumulated ambient loss. With
//!   one (the [`search_compiled_cached`] certificate argument) it is
//!   `partial + residual`: the residual is the flow analysis's lower
//!   bound on what every completion still emits after this decision,
//!   and every later emission is non-negative, so the hint is a true
//!   lower bound on every leaf beneath — an admissible heuristic in the
//!   A* sense. The engine checks it against its `SharedBound` at every
//!   interior node, and a dominated subtree is skipped *whole*, usually
//!   plies before its partial loss alone would cross the bound. Pruned
//!   subtrees install the hint as a bound summary, which stays sound for
//!   the same reason.
//! * **Mid-segment abandonment.** Under the same certificate, a
//!   [`MachinePrune`] hook threads through `explore`/`resume`; it reads
//!   the machine's running ambient partial, which snapshots with the
//!   machine, so each branch prunes against its own path total (see
//!   `lambda_c::machine`). The
//!   certificate is the only switch: [`NonNegLosses`] has no constructor
//!   outside `lambda_c::flow::analyze`.
//! * **Determinism.** Leaves report `(total loss, decisions used)` and
//!   the engine credits each to its smallest flat index, so the tree
//!   winner is bit-identical — loss *and* index, ties included — to the
//!   flat exhaustive scan (proven by the differential suites).

use crate::bridge::{enforce_replay_contract, LcCandidates, LcValue};
use crate::loss::{encode_scalar, OrdLossVal};
use crate::search::LcTransCache;
use lambda_c::flow::NonNegLosses;
use lambda_c::machine::{ChoicePoint, Explored, MachinePrune};
use lambda_c::MachError;
use selc_cache::{CacheStats, SubtreeSummary};
use selc_engine::tree::{SummaryProbe, TreeEval, TreeStep};
use selc_engine::{CancelToken, Engine, Outcome, SearchResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

/// Paths that actually ran the compiled machine to termination — the
/// observable form of the Hedges CPS-cost argument (the machine is the
/// hot path; summaries are what keep a warm search off it).
static MACHINE_LEAVES: LazyLock<selc_obs::Counter> =
    LazyLock::new(|| selc_obs::metrics::counter("lc.machine_leaves"));

/// A [`TreeEval`] that walks a compiled program's decision tree through
/// machine snapshots, with an optional shared transposition table and
/// certificate-gated pruning.
pub struct LcTreeEval<'c> {
    cands: LcCandidates,
    cache: Option<&'c LcTransCache>,
    base: CacheStats,
    cert: Option<NonNegLosses>,
    best_bits: Arc<AtomicU64>,
}

impl<'c> LcTreeEval<'c> {
    /// A plain tree evaluator: no cache, no mid-segment abandonment. The
    /// achieved-loss mirror is the space's shared [`LcCandidates`] cell,
    /// so it persists across searches and seeds warm repeats (sound:
    /// the program is immutable, see [`TreeEval::seed_bits`]).
    pub fn new(cands: LcCandidates) -> LcTreeEval<'c> {
        let best_bits = cands.best_seen_cell();
        LcTreeEval { cands, cache: None, base: CacheStats::default(), cert: None, best_bits }
    }

    /// Attaches a shared transposition table; stats reported through
    /// [`TreeEval::cache_stats`] are the delta against wrap time.
    pub fn with_cache(mut self, cache: &'c LcTransCache) -> LcTreeEval<'c> {
        self.base = cache.stats();
        self.cache = Some(cache);
        self
    }

    /// Enables mid-segment abandonment on partial losses and subtree
    /// pruning on `partial + residual`, backed by a [`lambda_c::flow`]
    /// certificate. A certificate that does not cover this evaluator's
    /// program is ignored (sound — the search just runs without pruning).
    pub fn with_nonneg_certificate(mut self, cert: &NonNegLosses) -> LcTreeEval<'c> {
        if cert.covers(self.cands.program()) {
            self.cert = Some(cert.clone());
        }
        self
    }

    fn hook(&self) -> Option<MachinePrune> {
        self.cert
            .as_ref()
            .map(|_| MachinePrune { threshold: Arc::clone(&self.best_bits), encode: encode_scalar })
    }

    /// Folds a machine step at a position of length `len` into a tree
    /// step, publishing completed leaves to the abandonment mirror.
    fn advance(
        &self,
        r: Result<Explored, MachError>,
        len: u32,
    ) -> TreeStep<ChoicePoint, OrdLossVal> {
        match r {
            Err(_) => TreeStep::Pruned, // only `Pruned` survives the contract
            Ok(Explored::Choice(point)) => {
                debug_assert_eq!(point.depth(), len, "choice points sit at their position");
                let hint = match &self.cert {
                    Some(cert) => cert.lower_bound(&point),
                    None => point.partial_loss().clone(),
                };
                let hint = Some(OrdLossVal(hint));
                TreeStep::Node { node: point, hint }
            }
            Ok(Explored::Done(out)) => {
                MACHINE_LEAVES.inc();
                let used = out.decisions_used;
                debug_assert!(used <= len, "paths cannot use unvisited decisions");
                let loss = OrdLossVal(out.loss);
                // ordering: Relaxed — the abandonment mirror is a
                // monotone hint, like `SharedBound`: a stale (larger)
                // value only under-prunes, never unsoundly.
                self.best_bits.fetch_min(encode_scalar(&loss.0), Ordering::Relaxed);
                TreeStep::Leaf { loss, used }
            }
        }
    }
}

impl TreeEval<OrdLossVal> for LcTreeEval<'_> {
    type Node = ChoicePoint;

    fn depth(&self) -> u32 {
        self.cands.depth()
    }

    fn enter(&self, prefix: u64, len: u32) -> TreeStep<ChoicePoint, OrdLossVal> {
        self.advance(self.cands.explore_prefix(prefix, len, self.hook()), len)
    }

    fn child(
        &self,
        node: &ChoicePoint,
        decision: bool,
        path: u64,
        len: u32,
    ) -> TreeStep<ChoicePoint, OrdLossVal> {
        self.advance(enforce_replay_contract(node.resume(decision), path, len), len)
    }

    fn hint_is_lower_bound(&self) -> bool {
        self.cert.is_some()
    }

    fn min_leaf_depth(&self) -> u32 {
        // The flow shape's shortest-path decision count is the shallowest
        // depth a leaf can occur at: splitting the parallel walk deeper
        // than that makes sibling tasks replay the same shallow leaves.
        // Purely a partitioning hint — an imprecise (small) bound costs
        // parallelism, never correctness.
        (u32::try_from(self.cands.flow_report().shape.min).unwrap_or(self.cands.depth()))
            .min(self.cands.depth())
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.map(|c| c.stats().since(&self.base)).unwrap_or_default()
    }

    fn probe_summary(&self, bits: u64, len: u32) -> SummaryProbe<OrdLossVal> {
        let Some(cache) = self.cache else { return SummaryProbe::Miss };
        let Some(s) = cache.lookup(&(self.cands.id(), len, bits)) else {
            return SummaryProbe::Miss;
        };
        if s.exact {
            // An exact summary's loss was achieved by its winning leaf:
            // it tightens the mid-segment abandonment mirror like the
            // leaf itself would. (A bound entry must NOT: nothing
            // attained it.)
            // ordering: Relaxed — monotone hint; see `advance`.
            self.best_bits.fetch_min(encode_scalar(&s.loss.0), Ordering::Relaxed);
        }
        SummaryProbe::from(s)
    }

    fn install_summary(&self, bits: u64, len: u32, summary: SubtreeSummary<OrdLossVal>) {
        if let Some(cache) = self.cache {
            cache.store((self.cands.id(), len, bits), summary);
        }
    }

    fn seed_bits(&self) -> Option<u64> {
        // ordering: Relaxed — a stale (larger) seed only forgoes some
        // warm-start pruning; it can never prune unsoundly.
        let bits = self.best_bits.load(Ordering::Relaxed);
        (bits != u64::MAX).then_some(bits)
    }
}

/// Searches a compiled candidate space on the prefix-sharing tree walk:
/// argmin by recorded loss, ties to the lexicographically-first decision
/// vector (`true` first) — bit-identical to
/// [`crate::search::search_compiled_flat`]. One extra forced replay
/// recovers the winner's terminal.
pub fn search_compiled(
    engine: &Engine,
    cands: &LcCandidates,
) -> Option<(Outcome<OrdLossVal>, LcValue)> {
    let eval = LcTreeEval::new(cands.clone());
    let outcome = engine.search(&eval)?;
    let value = cands.run_candidate(outcome.index).ground_value();
    Some((outcome, value))
}

/// [`search_compiled`] through a shared transposition table, with
/// mid-segment abandonment and subtree pruning iff `cert` is a covering
/// [`lambda_c::flow`] certificate (pass [`LcCandidates::certificate`]).
pub fn search_compiled_cached(
    engine: &Engine,
    cands: &LcCandidates,
    cache: &LcTransCache,
    cert: Option<&NonNegLosses>,
) -> Option<(Outcome<OrdLossVal>, LcValue)> {
    let outcome = search_compiled_cached_with(engine, cands, cache, cert, &CancelToken::never())
        .into_outcome()?;
    let value = cands.run_candidate(outcome.index).ground_value();
    Some((outcome, value))
}

/// [`search_compiled_cached`] under a [`CancelToken`]: the request-budget
/// entry point of the serve layer. The token is checked at every
/// interior node of the walk, so a deadline or disconnect aborts within
/// one machine segment; a cancelled search returns
/// [`SearchResult::Cancelled`] with the best leaf seen so far (a really
/// achieved loss, not the argmin). Everything a cancelled run stored —
/// fully-evaluated subtree summaries, the best-seen mirror — is sound,
/// so the table stays warm and unpoisoned for the next request (see
/// `selc_engine::cancel`).
pub fn search_compiled_cached_with(
    engine: &Engine,
    cands: &LcCandidates,
    cache: &LcTransCache,
    cert: Option<&NonNegLosses>,
    cancel: &CancelToken,
) -> SearchResult<OrdLossVal> {
    let mut eval = LcTreeEval::new(cands.clone()).with_cache(cache);
    if let Some(cert) = cert {
        eval = eval.with_nonneg_certificate(cert);
    }
    engine.search_with(&eval, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::search_compiled_flat;
    use lambda_c::testgen;

    fn chain_candidates(choices: u32) -> LcCandidates {
        let p = testgen::deep_decide_chain(choices);
        LcCandidates::new(lambda_c::compile(&p.expr).unwrap(), ["decide".to_owned()], choices)
    }

    #[test]
    fn tree_search_matches_the_flat_scan() {
        let cands = chain_candidates(7);
        let (flat, value) = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        for engine in [
            Engine::exhaustive(),
            Engine::with_threads(2),
            Engine::with_threads(3).without_pruning(),
        ] {
            let (out, v) = search_compiled(&engine, &cands).unwrap();
            assert_eq!(
                (out.index, out.loss.clone()),
                (flat.index, flat.loss.clone()),
                "{engine:?}"
            );
            assert_eq!(v, value, "{engine:?}");
        }
    }

    #[test]
    fn tree_does_linear_machine_work_on_shallow_spaces() {
        // pgm has one real decision; declaring depth 6 gives the flat
        // scan 64 replays but the tree just two leaves.
        let ex = lambda_c::examples::pgm_with_argmin_handler();
        let cands =
            LcCandidates::new(lambda_c::compile(&ex.expr).unwrap(), ["decide".to_owned()], 6);
        let (flat, _) = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        let out = Engine::exhaustive().search(&LcTreeEval::new(cands.clone())).unwrap();
        assert_eq!((out.index, out.loss.clone()), (flat.index, flat.loss));
        assert_eq!(out.stats.evaluated, 2, "one leaf per real decision path: {:?}", out.stats);
    }

    #[test]
    fn a_tree_filled_table_answers_warm_repeats_on_every_engine() {
        let cands = chain_candidates(6);
        let (reference, value) = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        // A sequential exhaustive cold fill summarises every interior
        // node…
        let cache = LcTransCache::unbounded(4);
        let (cold, _) =
            search_compiled_cached(&Engine::exhaustive(), &cands, &cache, None).unwrap();
        assert_eq!((cold.index, cold.loss.clone()), (reference.index, reference.loss.clone()));
        assert_eq!(cold.stats.cache.insertions, 63, "every interior node stored");
        // …so a 2-worker repeat, split at depth 3, answers its eight
        // subtree roots without a single replay…
        let split = Engine::with_threads(2).without_pruning();
        let (warm, wv) = search_compiled_cached(&split, &cands, &cache, None).unwrap();
        assert_eq!((warm.index, warm.loss.clone()), (cold.index, cold.loss.clone()));
        assert_eq!(wv, value);
        assert_eq!(warm.stats.summary.exact_hits, 8, "stats: {:?}", warm.stats);
        assert_eq!(warm.stats.evaluated, 0, "stats: {:?}", warm.stats);
        // …and a pruned repeat over the same handle agrees too.
        let (auto, tv) =
            search_compiled_cached(&Engine::with_threads(2), &cands, &cache, None).unwrap();
        assert_eq!((auto.index, auto.loss.clone()), (cold.index, cold.loss));
        assert_eq!(tv, value);
        assert_eq!(auto.stats.evaluated, 0, "stats: {:?}", auto.stats);
    }

    #[test]
    fn cancelled_compiled_searches_time_out_without_poisoning_the_table() {
        let cands = chain_candidates(10);
        let (reference, _) = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        let cache = LcTransCache::unbounded(4);
        let cert = cands.certificate().expect("chain corpus is certified");
        // A pre-expired deadline: the walk aborts at its first interior
        // node, so (at most) a stray leaf scores and no summary lands.
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        let engine = Engine::with_threads(2);
        let result = search_compiled_cached_with(&engine, &cands, &cache, Some(cert), &expired);
        assert!(result.was_cancelled());
        // The very next un-cancelled search over the same warm handle is
        // bit-identical to the sequential cold reference — whatever the
        // aborted run cached was sound.
        let (out, _) = search_compiled_cached(&engine, &cands, &cache, Some(cert)).unwrap();
        assert_eq!((out.index, out.loss.clone()), (reference.index, reference.loss.clone()));
        // And an explicitly complete run through the cancellable entry
        // reports Complete with the same winner.
        let again =
            search_compiled_cached_with(&engine, &cands, &cache, Some(cert), &CancelToken::never());
        assert!(!again.was_cancelled());
        let out = again.into_outcome().unwrap();
        assert_eq!((out.index, out.loss), (reference.index, reference.loss));
    }

    #[test]
    fn pruned_tree_searches_keep_the_winner_bit_identical() {
        let cands = chain_candidates(8);
        let (flat, value) = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        let cert = cands.certificate().expect("chain corpus is certified");
        for engine in [Engine::with_threads(1), Engine::with_threads(3)] {
            let cache = LcTransCache::unbounded(4);
            let (out, v) = search_compiled_cached(&engine, &cands, &cache, Some(cert)).unwrap();
            assert_eq!(
                (out.index, out.loss.clone()),
                (flat.index, flat.loss.clone()),
                "{engine:?}"
            );
            assert_eq!(v, value, "{engine:?}");
            assert!(out.stats.pruned > 0, "deep chains must prune: {:?}", out.stats);
        }
    }

    #[test]
    fn certified_chain_searches_prune_wrong_turns_at_the_decision() {
        // `partial + residual` dominates a wrong turn at the choice that
        // takes it. On the partial loss alone, the chain-12 job of the
        // offline benchmark materialised 426 nodes.
        let (flat, value) =
            search_compiled_flat(&Engine::exhaustive(), &chain_candidates(12)).unwrap();
        let check = |engine: Engine, cands: &LcCandidates| {
            let cert = cands.certificate().expect("chain corpus is certified");
            let cache = LcTransCache::unbounded(4);
            let (out, v) = search_compiled_cached(&engine, cands, &cache, Some(cert)).unwrap();
            assert_eq!(out.index, flat.index, "{engine:?}");
            assert_eq!(out.loss.0.as_scalar().to_bits(), flat.loss.0.as_scalar().to_bits());
            assert_eq!(v, value, "{engine:?}");
            let nodes = out.stats.evaluated + out.stats.pruned;
            assert!(nodes <= 85, "{engine:?} materialised {nodes} nodes: {:?}", out.stats);
        };
        // One worker, cold: the best-first dive lands on the optimum and
        // every sibling on its path is cut on sight.
        check(Engine::with_threads(1), &chain_candidates(12));
        // Two workers claim split subtrees in index order, so a cold walk
        // dives into several before the best one bounds them. Like the
        // benchmark's jobs, this one shares a candidate space whose
        // best-seen loss an earlier search set, and starts on a fresh
        // table.
        let cands = chain_candidates(12);
        search_compiled(&Engine::exhaustive(), &cands).unwrap();
        check(Engine::with_threads(2), &cands);
    }
}
