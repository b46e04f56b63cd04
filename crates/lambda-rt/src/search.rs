//! The compiled-search transposition table, and the flat reference scan
//! every tree search is differenced against.
//!
//! * **Transposition keys.** The table holds one entry kind, the
//!   [`SubtreeSummary`] of an interior decision prefix, keyed
//!   `(space id, len, prefix bits)`. A prefix fully determines its
//!   subtree because the machine is deterministic: same forced prefix,
//!   same runs, bit-identical losses (the cache crate's
//!   injectivity-up-to-evaluation condition). So a summary installed by
//!   one search answers the whole subtree in the next one over the same
//!   handle. A completed path is covered by its parent's exact summary,
//!   so no leaf is stored. The one evaluator that reads and writes the
//!   table is [`crate::tree::LcTreeEval`].
//! * **The flat oracle.** [`search_compiled_flat`] scores every forced
//!   path from the root through a plain loss closure over
//!   [`LcCandidates::run_candidate`], with no table, no pruning, and no
//!   shared state — so a reference computed before a tree search cannot
//!   warm it.

use crate::bridge::{LcCandidates, LcValue};
use crate::loss::OrdLossVal;
use selc_cache::{ShardedCache, SubtreeSummary};
use selc_engine::{minimize, Engine, Outcome};

/// The transposition table for compiled searches: subtree summaries
/// keyed `(space identity, prefix length, prefix bits)`. The identity
/// component (see [`LcCandidates::id`]) lets one shared handle serve many
/// different programs without prefix collisions.
pub type LcTransCache = ShardedCache<(u64, u32, u64), SubtreeSummary<OrdLossVal>>;

/// Searches a compiled candidate space by the **flat** scan: every one
/// of the `2^depth` forced paths replayed from the root on `engine` —
/// argmin by recorded loss, ties to the lexicographically-first decision
/// vector (`true` first), the winner an argmin-chooser handler picks.
/// One extra replay recovers the winner's terminal. Always `Some`: even
/// depth 0 has one candidate.
///
/// The production path is the prefix-sharing
/// [`crate::tree::search_compiled`]; the flat scan stays as the
/// independent differential reference it is proven against. It touches
/// neither a table nor the space's best-seen cell, so it never seeds
/// the searches it checks.
pub fn search_compiled_flat(
    engine: &Engine,
    cands: &LcCandidates,
) -> Option<(Outcome<OrdLossVal>, LcValue)> {
    let out = minimize(engine, cands.space(), |i| OrdLossVal(cands.run_candidate(i).loss))?;
    let value = cands.run_candidate(out.index).ground_value();
    Some((out, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{search_compiled_cached, LcTreeEval};
    use lambda_c::testgen;
    use selc_engine::TreeEval;

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

    /// A single-worker walk from the root.
    fn single(prune: bool) -> Engine {
        Engine { threads: 1, prune }
    }

    #[test]
    fn cached_and_pruned_searches_agree_with_plain() {
        let cands = chain_candidates(6);
        let (plain, value) = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        // Cold fill without abandonment: every interior node stores its
        // exact summary, and nothing else is stored.
        let cache = LcTransCache::unbounded(4);
        let (cold, _) = search_compiled_cached(&single(false), &cands, &cache, None).unwrap();
        assert_eq!((cold.index, cold.loss.clone()), (plain.index, plain.loss.clone()));
        let interior = cands.space() as u64 - 1;
        assert_eq!(cold.stats.summary.exact_installs, interior);
        assert_eq!(cold.stats.cache.insertions, interior);
        // Fully warm: a 3-worker repeat splits at depth 4 and answers
        // its sixteen subtree roots from their summaries, replaying no
        // leaf.
        let parallel = Engine::with_threads(3).without_pruning();
        let (warm, wv) = search_compiled_cached(&parallel, &cands, &cache, None).unwrap();
        assert_eq!((warm.index, warm.loss.clone()), (plain.index, plain.loss.clone()));
        assert_eq!(wv, value);
        assert_eq!(warm.stats.summary.exact_hits, 16, "fully warm: {:?}", warm.stats);
        assert_eq!(warm.stats.cache.hits, 16);
        assert_eq!(warm.stats.cache.misses, 0);
        assert_eq!(warm.stats.evaluated, 0);
        // Abandonment on a fresh cache: same winner, bit-identically.
        let cert = cands.certificate().expect("chain losses are certifiably non-negative");
        for engine in [single(true), Engine::with_threads(3).without_pruning()] {
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
        let out = single(true).search(&eval).unwrap();
        assert_eq!(out.stats.pruned, 0, "no subtree skip, no abandonment: {:?}", out.stats);
        let own = cands.certificate().unwrap();
        let eval = LcTreeEval::new(cands.clone()).with_nonneg_certificate(own);
        assert!(eval.hint_is_lower_bound());
    }

    #[test]
    fn abandoned_candidates_are_not_cached() {
        // With abandonment on, pgm's dominated false branch aborts
        // mid-segment. It leaves the root neither an exact summary (a
        // child was cut) nor a bound (the abandoned run reports no
        // value), so nothing is stored.
        let cands = shallow_pgm();
        let cache = LcTransCache::unbounded(2);
        let cert = cands.certificate().expect("pgm's 2*i losses are non-negative");
        let (out, _) = search_compiled_cached(&single(true), &cands, &cache, Some(cert)).unwrap();
        assert_eq!(out.loss.0, lambda_c::LossVal::scalar(2.0));
        assert_eq!(out.stats.pruned, 1, "the false branch aborts: {:?}", out.stats);
        assert_eq!(out.stats.summary.installs(), 0, "{:?}", out.stats);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn mid_run_pruning_abandons_but_never_changes_the_winner() {
        // Engine-side subtree skips off: every abandonment below is the
        // certificate-armed machine hook firing mid-segment.
        let cands = chain_candidates(7);
        let (plain, _) = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        let cert = cands.certificate().expect("chain corpus is certified");
        let cache = LcTransCache::unbounded(2);
        let (pruned, _) =
            search_compiled_cached(&single(false), &cands, &cache, Some(cert)).unwrap();
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
        let _ = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        assert_eq!(LcTreeEval::new(cands.clone()).seed_bits(), None);
    }
}
