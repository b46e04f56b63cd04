//! Compiled λC on the engine's prefix-sharing tree search.
//!
//! Where [`crate::search::search_compiled_flat`] replays every one of
//! the `2^depth` forced decision paths from the root — O(2^depth · depth)
//! machine segments — [`LcTreeEval`] walks the decision *tree*: one
//! [`lambda_c::machine::ChoicePoint`] per interior node, each branch
//! resumed from a copy of the suspended prefix state (fixed-size, so a
//! resume costs the same at every depth), O(tree nodes) segments total.
//! With a shared [`LcTransCache`] attached, the engine probes a **subtree
//! summary** at every interior node and installs one on the way back up,
//! so a table warmed by one search answers whole subtrees of the next in
//! O(1) — an O(depth) walk instead of an O(leaves) rescan.
//!
//! * **Transpositions by machine state.** A node is probed by its
//!   position first ([`LcKey::Prefix`]) and, on a miss, by its
//!   suspended machine's [`lambda_c::machine::StateKey`]
//!   ([`LcKey::State`]); an exact subtree installs both. Prefixes that
//!   reach the same state share one subtree, so even a cold walk expands
//!   each distinct state once: a chain-10 walk expands 69 states, not
//!   1 023 nodes. A state entry stores the winner's suffix below its
//!   node, and a hit adds it to the probing prefix: index order inside a
//!   subtree is suffix order under every prefix, so ties still go to the
//!   lowest index. Only an evaluator with a table builds keys, and a
//!   state holding a handler's `l` or `k` has none (its nodes keep the
//!   prefix key alone).
//!
//! * **One bound per space.** The walk prunes against the space's
//!   achieved-loss bound ([`TreeEval::bound`]), which outlives every
//!   search over the space. Leaves publish into it as soon as they are
//!   expanded, exact summary hits as they are answered, so a sibling
//!   leaf bounds its subtree before the DFS reaches it, and a repeat
//!   prunes from its first node.
//! * **Hints.** Only a certificate (the [`search_compiled_cached`]
//!   certificate argument) gives a node a hint: `partial + residual`,
//!   where the residual is the flow analysis's lower bound on what every
//!   completion still emits after this decision. Every later emission is
//!   non-negative, so the hint is a true lower bound on every leaf
//!   beneath — an admissible heuristic in the A* sense. The engine
//!   orders children by it and checks it against the bound at every
//!   interior node, and a dominated subtree is skipped *whole*, usually
//!   plies before its partial loss alone would cross the bound. Pruned
//!   subtrees install the hint as a bound summary, which stays sound for
//!   the same reason. Without a certificate no node has a hint.
//! * **Mid-segment abandonment.** Under the same certificate, a
//!   [`lambda_c::machine::MachinePrune`] hook over the same bound threads
//!   through `explore`/`resume`; it reads the machine's running ambient
//!   partial, which snapshots with the machine, so each branch prunes
//!   against its own path total (see `lambda_c::machine`). The
//!   certificate is the only switch: [`NonNegLosses`] has no constructor
//!   outside `lambda_c::flow::analyze`.
//! * **Determinism.** Leaves report `(total loss, decisions used)` and
//!   the engine credits each to its smallest flat index, so the tree
//!   winner is bit-identical — loss *and* index, ties included — to the
//!   flat exhaustive scan (proven by the differential suites).

use crate::bridge::{enforce_replay_contract, LcCandidates, LcValue};
use crate::loss::OrdLossVal;
use crate::search::{LcKey, LcTransCache};
use lambda_c::flow::NonNegLosses;
use lambda_c::machine::{ChoicePoint, Explored};
use lambda_c::MachError;
use selc_cache::SubtreeSummary;
use selc_engine::tree::{SummaryProbe, TreeEval, TreeStep};
use selc_engine::{CancelToken, Engine, Outcome, SearchResult, SharedBound};
use std::cell::OnceCell;
use std::sync::LazyLock;

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
    cert: Option<NonNegLosses>,
}

impl<'c> LcTreeEval<'c> {
    /// A plain tree evaluator: no cache, no mid-segment abandonment. Its
    /// bound is the space's (see [`TreeEval::bound`]), so it persists
    /// across searches (sound: the program is immutable).
    pub fn new(cands: LcCandidates) -> LcTreeEval<'c> {
        LcTreeEval { cands, cache: None, cert: None }
    }

    /// Attaches a shared transposition table. Its traffic is the
    /// caller's to read (`cache.stats()` before and after the search).
    pub fn with_cache(self, cache: &'c LcTransCache) -> LcTreeEval<'c> {
        LcTreeEval { cache: Some(cache), ..self }
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

    /// Folds a machine step at a position of length `len` into a tree
    /// step, publishing completed leaves to the space's bound.
    fn advance(&self, r: Result<Explored, MachError>, len: u32) -> TreeStep<LcNode, OrdLossVal> {
        match r {
            Err(_) => TreeStep::Pruned, // only `Pruned` survives the contract
            Ok(Explored::Choice(point)) => {
                debug_assert_eq!(point.depth(), len, "choice points sit at their position");
                let hint = self.cert.as_ref().map(|cert| OrdLossVal(cert.lower_bound(&point)));
                TreeStep::Node { node: LcNode { point, key: OnceCell::new() }, hint }
            }
            Ok(Explored::Done(out)) => {
                MACHINE_LEAVES.inc();
                let used = out.decisions_used;
                debug_assert!(used <= len, "paths cannot use unvisited decisions");
                let loss = OrdLossVal(out.loss);
                self.cands.bound().observe(&loss);
                TreeStep::Leaf { loss, used }
            }
        }
    }

    /// `node`'s state key in this space, built on first use and kept on
    /// the node; `None` for an unkeyable state.
    fn state_key<'n>(&self, node: &'n LcNode) -> Option<&'n LcKey> {
        node.key
            .get_or_init(|| node.point.state_key().map(|k| LcKey::State(self.cands.id(), k)))
            .as_ref()
    }

    /// The flat index of the first leaf below position `(bits, len)`:
    /// what a state entry's suffix is relative to.
    fn base(&self, bits: u64, len: u32) -> u64 {
        bits << (self.cands.depth() - len)
    }
}

/// A node of the walk: the suspended machine, and the key of its state
/// once a probe or an install has built it.
pub struct LcNode {
    point: ChoicePoint,
    key: OnceCell<Option<LcKey>>,
}

impl TreeEval<OrdLossVal> for LcTreeEval<'_> {
    type Node = LcNode;

    fn depth(&self) -> u32 {
        self.cands.depth()
    }

    fn enter(&self, prefix: u64, len: u32) -> TreeStep<LcNode, OrdLossVal> {
        self.advance(self.cands.explore_prefix(prefix, len, self.cert.is_some()), len)
    }

    fn child(
        &self,
        node: &LcNode,
        decision: bool,
        path: u64,
        len: u32,
    ) -> TreeStep<LcNode, OrdLossVal> {
        self.advance(enforce_replay_contract(node.point.resume(decision), path, len), len)
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

    fn probe_summary(&self, bits: u64, len: u32) -> SummaryProbe<OrdLossVal> {
        let key = LcKey::Prefix(self.cands.id(), len, bits);
        let Some(s) = self.cache.and_then(|c| c.lookup(&key)) else {
            return SummaryProbe::Miss;
        };
        if s.exact {
            // An exact summary's loss was achieved by its winning leaf:
            // it tightens the space's bound like the leaf itself would.
            // (A bound entry must NOT: nothing attained it.)
            self.cands.bound().observe(&s.loss);
        }
        SummaryProbe::from(s)
    }

    fn install_summary(&self, bits: u64, len: u32, summary: SubtreeSummary<OrdLossVal>) {
        if let Some(cache) = self.cache {
            cache.store(LcKey::Prefix(self.cands.id(), len, bits), summary);
        }
    }

    fn probe_state(&self, node: &LcNode, bits: u64, len: u32) -> SummaryProbe<OrdLossVal> {
        let Some(cache) = self.cache else { return SummaryProbe::Miss };
        let Some(s) = self.state_key(node).and_then(|key| cache.lookup(key)) else {
            return SummaryProbe::Miss;
        };
        debug_assert!(s.exact, "state entries are exact");
        // Achieved below this node too: the same leaf at the same suffix.
        self.cands.bound().observe(&s.loss);
        SummaryProbe::Exact { loss: s.loss, index: self.base(bits, len) + s.index }
    }

    fn install_state(
        &self,
        node: &LcNode,
        bits: u64,
        len: u32,
        summary: SubtreeSummary<OrdLossVal>,
    ) {
        debug_assert!(summary.exact, "only exact subtrees are shared by state");
        let Some(cache) = self.cache else { return };
        if let Some(key) = self.state_key(node) {
            let suffix = summary.index - self.base(bits, len);
            cache.store(key.clone(), SubtreeSummary::exact(summary.loss, suffix));
        }
    }

    fn bound(&self) -> Option<&SharedBound<OrdLossVal>> {
        Some(self.cands.bound())
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
/// fully-evaluated subtree summaries, the space's achieved losses — is
/// sound, so the table stays warm and unpoisoned for the next request
/// (see `selc_engine::cancel`). `stats.cache` is the table's traffic
/// during this search.
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
    let base = cache.stats();
    let mut result = engine.search_with(&eval, cancel);
    if let SearchResult::Complete(Some(out)) | SearchResult::Cancelled(Some(out)) = &mut result {
        out.stats.cache = cache.stats().since(&base);
    }
    result
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
    fn every_evaluator_over_a_space_hands_the_walk_the_spaces_bound() {
        // An exhaustive walk (no pruning) still publishes its leaves into
        // the space's bound, and a later evaluator over a clone of the
        // space prunes against that same word.
        let cands = chain_candidates(6);
        let (out, _) = search_compiled(&Engine::exhaustive(), &cands).unwrap();
        let later = LcTreeEval::new(cands.clone());
        let bound = later.bound().expect("a compiled space keeps its bound");
        let worse = OrdLossVal(lambda_c::LossVal::scalar(out.loss.0.as_scalar() + 1.0));
        assert!(bound.dominated(&worse), "the winner's loss is in the space's bound");
        assert!(!bound.dominated(&out.loss), "an achieved loss is never dominated");
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
        // state of the chain, 25 of them, each under its prefix and its
        // state…
        let cache = LcTransCache::unbounded(4);
        let (cold, _) =
            search_compiled_cached(&Engine::exhaustive(), &cands, &cache, None).unwrap();
        assert_eq!((cold.index, cold.loss.clone()), (reference.index, reference.loss.clone()));
        assert_eq!(cold.stats.cache.insertions, 2 * 25, "every interior state stored");
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
        // bound an earlier search set, and starts on a fresh table.
        let cands = chain_candidates(12);
        search_compiled(&Engine::exhaustive(), &cands).unwrap();
        check(Engine::with_threads(2), &cands);
    }
}
