//! The compiled-search transposition table, and the flat reference scan
//! every tree search is differenced against.
//!
//! * **Transposition keys.** A candidate that consumes only `u ≤ depth`
//!   decisions is fully determined by its first `u` decision bits, so its
//!   loss is cached under `(space id, u, prefix_u)`. Every path sharing
//!   the prefix hits the same entry, and *across* searches a shared
//!   [`LcTransCache`] handle replays nothing at all. The key is sound
//!   because the machine is deterministic: same forced prefix, same run,
//!   bit-identical loss (the cache crate's injectivity-up-to-evaluation
//!   condition). Interior-node subtree summaries live in the same table
//!   under tagged keys ([`SUMMARY_TAG`]). The one evaluator that reads
//!   and writes it is [`crate::tree::LcTreeEval`]; pruned runs are never
//!   cached (`Pruned` is a fact about the current bound, not a loss).
//! * **The flat oracle.** [`search_compiled_flat`] scores every forced
//!   path from the root through the space's `selc::ReplaySpace` face,
//!   with no table, no pruning, and no shared state — so a reference
//!   computed before a tree search cannot warm it.

use crate::bridge::{LcCandidates, LcValue};
use crate::loss::OrdLossVal;
use selc_cache::{ShardedCache, SubtreeSummary};
use selc_engine::{Engine, Outcome};

/// Tag bit set in the middle (`u32`) key slot of every subtree-summary
/// entry. Leaf keys carry a plain decision count there (`≤ 62`, see
/// [`LcCandidates::new`]), so tagged and untagged keys can never
/// collide: one shared [`LcTransCache`] handle holds both populations,
/// key-disjointly, under one epoch.
pub const SUMMARY_TAG: u32 = 1 << 31;

/// One transposition-table entry: a completed path's loss, or an
/// interior-node subtree summary. The two populations live under
/// disjoint keys (see [`SUMMARY_TAG`]), so a leaf lookup only ever sees
/// [`LcEntry::Leaf`] and a summary probe only [`LcEntry::Summary`] —
/// the enum exists so both share one cache, one capacity budget, and
/// one epoch.
#[derive(Clone, Debug, PartialEq)]
pub enum LcEntry {
    /// Loss of the completed path keyed by `(id, used, prefix)`.
    Leaf(OrdLossVal),
    /// Summary of the subtree keyed by `(id, len | SUMMARY_TAG, bits)`.
    Summary(SubtreeSummary<OrdLossVal>),
}

/// The transposition table for compiled searches: keys are
/// `(space identity, decisions used, prefix bits)` for leaves and
/// `(space identity, prefix length | SUMMARY_TAG, prefix bits)` for
/// subtree summaries — the identity component (see [`LcCandidates::id`])
/// lets one shared handle serve many different programs without prefix
/// collisions.
pub type LcTransCache = ShardedCache<(u64, u32, u64), LcEntry>;

/// Searches a compiled candidate space by the **flat** scan: every one
/// of the `2^depth` forced paths replayed from the root on `engine` —
/// argmin by recorded loss, ties to the lexicographically-first decision
/// vector (`true` first), the winner an argmin-chooser handler picks.
/// One extra replay recovers the winner's terminal. Returns `None` for
/// an empty space (depth 0 still has one candidate, so only for
/// `space == 0` engines).
///
/// The production path is the prefix-sharing
/// [`crate::tree::search_compiled`]; the flat scan stays as the
/// independent differential reference it is proven against. It touches
/// neither a table nor the space's best-seen cell, so it never seeds
/// the searches it checks.
pub fn search_compiled_flat<G: Engine>(
    engine: &G,
    cands: &LcCandidates,
) -> Option<(Outcome<OrdLossVal>, LcValue)> {
    selc_engine::search_programs(engine, cands.space(), cands.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{search_compiled_cached, LcTreeEval};
    use lambda_c::testgen;
    use selc_engine::{SequentialEngine, TreeEngine, TreeEval};

    fn chain_candidates(choices: u32) -> LcCandidates {
        let p = testgen::deep_decide_chain(choices);
        LcCandidates::new(lambda_c::compile(&p.expr).unwrap(), ["decide".to_owned()], choices)
    }

    /// pgm has one real decision; declaring depth 3 gives its two paths
    /// four flat indices each.
    fn shallow_pgm() -> LcCandidates {
        let ex = lambda_c::examples::pgm_with_argmin_handler();
        LcCandidates::new(lambda_c::compile(&ex.expr).unwrap(), ["decide".to_owned()], 3)
    }

    /// A single-worker walk with no summary entries, so the table holds
    /// leaves only.
    fn leaf_only(prune: bool) -> TreeEngine {
        TreeEngine { threads: 1, prune, split: 0, summaries: false }
    }

    #[test]
    fn cached_and_pruned_searches_agree_with_plain() {
        let cands = chain_candidates(6);
        let (plain, value) = search_compiled_flat(&SequentialEngine::exhaustive(), &cands).unwrap();
        // Cold fill without abandonment: every leaf runs and stores.
        let cache = LcTransCache::unbounded(4);
        let (cold, _) = search_compiled_cached(&leaf_only(false), &cands, &cache, None).unwrap();
        assert_eq!((cold.index, cold.loss.clone()), (plain.index, plain.loss.clone()));
        assert_eq!(cold.stats.cache.insertions, cands.space() as u64);
        // Fully warm: a parallel repeat replays nothing.
        let parallel = TreeEngine { threads: 3, prune: false, split: 2, summaries: false };
        let (warm, wv) = search_compiled_cached(&parallel, &cands, &cache, None).unwrap();
        assert_eq!((warm.index, warm.loss.clone()), (plain.index, plain.loss.clone()));
        assert_eq!(wv, value);
        assert_eq!(warm.stats.cache.hits, cands.space() as u64, "fully warm");
        assert_eq!(warm.stats.cache.misses, 0);
        // Abandonment on a fresh cache: same winner, bit-identically.
        let cert = cands.certificate().expect("chain losses are certifiably non-negative");
        for engine in
            [leaf_only(true), TreeEngine { threads: 3, prune: false, split: 2, summaries: true }]
        {
            let fresh = LcTransCache::unbounded(4);
            let (out, v) = search_compiled_cached(&engine, &cands, &fresh, Some(cert)).unwrap();
            assert_eq!((out.index, out.loss.clone()), (plain.index, plain.loss.clone()));
            assert_eq!(v, value);
        }
    }

    #[test]
    fn foreign_certificate_does_not_enable_pruning() {
        // A certificate from a different compilation of the *same* syntax
        // must not unlock pruning: coverage is pointer identity.
        let cands = chain_candidates(5);
        let other = chain_candidates(5);
        let foreign = other.certificate().unwrap();
        let eval = LcTreeEval::new(cands.clone()).with_nonneg_certificate(foreign);
        assert!(!eval.hint_is_lower_bound(), "foreign certificate silently ignored");
        let out = leaf_only(true).search(&eval).unwrap();
        assert_eq!(out.stats.pruned, 0, "no subtree skip, no abandonment: {:?}", out.stats);
        let own = cands.certificate().unwrap();
        let eval = LcTreeEval::new(cands.clone()).with_nonneg_certificate(own);
        assert!(eval.hint_is_lower_bound());
    }

    #[test]
    fn prefix_cache_collapses_duplicate_indices() {
        // Indices sharing pgm's one real decision must collapse onto one
        // prefix entry each, and a warm repeat answers both from them.
        let cands = shallow_pgm();
        let cache = LcTransCache::unbounded(2);
        let (out, _) = search_compiled_cached(&leaf_only(false), &cands, &cache, None).unwrap();
        assert_eq!(cache.len(), 2, "one entry per used prefix, not per index");
        assert_eq!(out.loss.0, lambda_c::LossVal::scalar(2.0));
        assert_eq!(out.stats.cache.insertions, 2);
        let (warm, _) = search_compiled_cached(&leaf_only(false), &cands, &cache, None).unwrap();
        assert_eq!((warm.index, warm.loss), (out.index, out.loss));
        assert_eq!(warm.stats.cache.hits, 2, "both paths answered by the prefix table");
        assert_eq!(warm.stats.cache.misses, 0);
    }

    #[test]
    fn abandoned_candidates_are_not_cached() {
        // With abandonment on, pgm's dominated false branch aborts
        // mid-segment and must not be stored.
        let cands = shallow_pgm();
        let cache = LcTransCache::unbounded(2);
        let cert = cands.certificate().expect("pgm's 2*i losses are non-negative");
        let (out, _) =
            search_compiled_cached(&leaf_only(true), &cands, &cache, Some(cert)).unwrap();
        assert_eq!(out.loss.0, lambda_c::LossVal::scalar(2.0));
        assert_eq!(cache.len(), 1, "only the winning prefix is stored");
        assert_eq!(out.stats.pruned, 1, "the false branch aborts: {:?}", out.stats);
    }

    #[test]
    fn mid_run_pruning_abandons_but_never_changes_the_winner() {
        // Engine-side subtree skips off: every abandonment below is the
        // certificate-armed machine hook firing mid-segment.
        let cands = chain_candidates(7);
        let (plain, _) = search_compiled_flat(&SequentialEngine::exhaustive(), &cands).unwrap();
        let cert = cands.certificate().expect("chain corpus is certified");
        let cache = LcTransCache::unbounded(2);
        let (pruned, _) =
            search_compiled_cached(&leaf_only(false), &cands, &cache, Some(cert)).unwrap();
        assert_eq!((pruned.index, pruned.loss.clone()), (plain.index, plain.loss));
        assert!(
            pruned.stats.pruned > 0,
            "deep chains must abandon dominated paths: {:?}",
            pruned.stats
        );
    }

    #[test]
    fn the_flat_oracle_leaves_the_space_cold() {
        // The reference must not warm what it checks: after a flat scan
        // a tree evaluator over the same space has nothing to seed from.
        let cands = chain_candidates(8);
        let _ = search_compiled_flat(&SequentialEngine::exhaustive(), &cands).unwrap();
        assert_eq!(LcTreeEval::new(cands.clone()).seed_bits(), None);
    }
}
