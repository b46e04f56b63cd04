//! The compiled-search transposition table, and the flat reference scan
//! every tree search is differenced against.
//!
//! * **Transposition keys.** The table holds one entry kind, the
//!   [`SubtreeSummary`] of an interior node, under two kinds of key
//!   ([`LcKey`]). A *prefix* key, `(space id, len, prefix bits)`, names
//!   where the node sits: same forced prefix, same runs, bit-identical
//!   losses (the cache crate's injectivity-up-to-evaluation condition).
//!   A *state* key names what the node is: the suspended machine's
//!   [`StateKey`], which two prefixes share when they reach the same
//!   machine state, and then have the same subtree too. A state entry's
//!   index is the winner's suffix below its node, so each prefix that
//!   reaches the state reads its own winner off it. A completed path is
//!   covered by its parent's exact summary, so no leaf is stored. The
//!   one evaluator that reads and writes the table is
//!   [`crate::tree::LcTreeEval`].
//! * **The flat oracle.** [`search_compiled_flat`] scores every forced
//!   path from the root through a plain loss closure over
//!   [`LcCandidates::run_candidate`], with no table, no pruning, and no
//!   shared state — it never touches the space's bound — so a reference
//!   computed before a tree search cannot warm it.

use crate::bridge::{LcCandidates, LcValue};
use crate::loss::OrdLossVal;
use lambda_c::machine::StateKey;
use selc_cache::{ShardedCache, SubtreeSummary};
use selc_engine::{minimize, Engine, Outcome};

/// What a compiled-search summary is keyed by. Both kinds carry the
/// space identity (see [`LcCandidates::id`]), so one shared handle serves
/// many different programs without collisions; keys compare exactly.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LcKey {
    /// An interior decision prefix: `(space id, prefix length, prefix
    /// bits)`. Its summary's index is the winner's flat index.
    Prefix(u64, u32, u64),
    /// An interior node's machine state in a space. Its summary's index
    /// is the winner's suffix below the node.
    State(u64, StateKey),
}

/// The transposition table for compiled searches: subtree summaries
/// under [`LcKey`]s, prefix and state entries side by side.
pub type LcTransCache = ShardedCache<LcKey, SubtreeSummary<OrdLossVal>>;

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
/// neither a table nor the space's bound, so it never warms the
/// searches it checks.
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
        // Cold fill without abandonment: each of the chain's 25 distinct
        // interior states is expanded once and stores its exact summary
        // under its prefix and its state, and nothing else is stored.
        // The other 12 interior nodes the walk reaches are answered by
        // their state.
        let cache = LcTransCache::unbounded(4);
        let (cold, _) = search_compiled_cached(&single(false), &cands, &cache, None).unwrap();
        assert_eq!((cold.index, cold.loss.clone()), (plain.index, plain.loss.clone()));
        let summary = cold.stats.summary;
        assert_eq!(summary.exact_installs, 25, "{:?}", cold.stats);
        assert_eq!(cold.stats.cache.insertions, 2 * 25);
        assert_eq!((summary.misses, summary.state_hits), (25, 12), "{:?}", cold.stats);
        // Fully warm: a 3-worker repeat splits at depth 4 and answers
        // its sixteen subtree roots, by prefix where the cold walk
        // expanded one and by state elsewhere, replaying no leaf.
        let parallel = Engine::with_threads(3).without_pruning();
        let (warm, wv) = search_compiled_cached(&parallel, &cands, &cache, None).unwrap();
        assert_eq!((warm.index, warm.loss.clone()), (plain.index, plain.loss.clone()));
        assert_eq!(wv, value);
        let summary = warm.stats.summary;
        assert_eq!(summary.exact_hits, 16, "fully warm: {:?}", warm.stats);
        assert_eq!(warm.stats.cache.hits, 16);
        assert_eq!(warm.stats.cache.misses, summary.state_hits, "a state hit missed by prefix");
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
        let out = single(true).search(&eval).unwrap();
        assert_eq!(out.stats.pruned, 0, "no subtree skip, no abandonment: {:?}", out.stats);
        let own = cands.certificate().unwrap();
        let eval = LcTreeEval::new(cands.clone()).with_nonneg_certificate(own);
        let out = single(true).search(&eval).unwrap();
        assert!(out.stats.pruned > 0, "the space's own certificate prunes: {:?}", out.stats);
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
        // the space's bound still dominates nothing, not even +∞.
        let cands = chain_candidates(8);
        let _ = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        let eval = LcTreeEval::new(cands.clone());
        let bound = eval.bound().expect("a compiled space keeps its bound");
        assert!(!bound.dominated(&OrdLossVal(lambda_c::LossVal::scalar(f64::INFINITY))));
    }
}
