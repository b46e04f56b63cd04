//! The subtree-summary differential suite: searches that answer interior
//! nodes from cached summaries must return **bit-identical** winners —
//! loss *and* index, ties included — to uncached tree searches on the
//! same engine and to the flat exhaustive scan, under every hostile
//! condition the cache can produce: tiny capacities that evict summaries
//! mid-search, epoch bumps that retire them lazily, pruned fills that
//! leave only bound entries behind, and worker interleavings. The suite
//! also pins what the table holds — summaries only, one per interior
//! node of a cold exhaustive fill — and that a warm search seeds its
//! `SharedBound` from the space's best already-achieved loss before the
//! first segment runs.

use lambda_c::flow::NonNegLosses;
use lambda_c::testgen::{self, ProgramGen};
use lambda_rt::{
    search_compiled_cached, search_compiled_flat, LcCandidates, LcTransCache, LcTreeEval,
    OrdLossVal,
};
use proptest::prelude::*;
use selc_engine::{Engine, Outcome};

fn chain_candidates(choices: u32) -> LcCandidates {
    let p = testgen::deep_decide_chain(choices);
    LcCandidates::new(lambda_c::compile(&p.expr).unwrap(), ["decide".to_owned()], choices)
}

/// The engines every cached search is differenced on.
fn engines() -> Vec<Engine> {
    vec![
        Engine::exhaustive(),
        Engine::with_threads(1),
        Engine::with_threads(2),
        Engine::with_threads(3).without_pruning(),
    ]
}

/// The same search with no table: the uncached twin.
fn uncached(
    engine: &Engine,
    cands: &LcCandidates,
    cert: Option<&NonNegLosses>,
) -> Outcome<OrdLossVal> {
    let mut eval = LcTreeEval::new(cands.clone());
    if let Some(cert) = cert {
        eval = eval.with_nonneg_certificate(cert);
    }
    engine.search(&eval).unwrap()
}

/// Every cached search must agree with the uncached search on the same
/// engine and with the flat scan, over cold, warm, epoch-bumped, and
/// eviction-churned tables alike.
fn assert_summaries_are_invisible(cands: &LcCandidates, label: &str) {
    let (flat, value) = search_compiled_flat(&Engine::exhaustive(), cands).unwrap();
    // The whole corpus is built from non-negative constant losses, so
    // the flow analysis must certify every program — pruned rounds run
    // under the certificate, exactly like production callers.
    let cert = cands.certificate();
    assert!(cert.is_some(), "{label}: corpus programs are flow-certifiable");
    for engine in engines() {
        let plain = uncached(&engine, cands, cert);
        assert_eq!(
            (plain.index, plain.loss.clone()),
            (flat.index, flat.loss.clone()),
            "{label}: uncached {engine:?}"
        );
        // A capacity-8 table under `deep_decide_chain`-sized spaces
        // churns constantly: summaries are installed and evicted within
        // a single search (forced eviction mid-family).
        for cache in [LcTransCache::unbounded(2), LcTransCache::clock_lru(2, 8)] {
            for round in 0..3 {
                // Round 1 runs over whatever the cold fill left; round 2
                // over a lazily-bumped epoch.
                if round == 2 {
                    cache.advance_epoch();
                }
                let what = |k: &str| format!("{label}: {k} round {round} {engine:?}");
                let (s, sv) = search_compiled_cached(&engine, cands, &cache, cert).unwrap();
                assert_eq!(
                    (s.index, s.loss.clone()),
                    (flat.index, flat.loss.clone()),
                    "{}",
                    what("cached")
                );
                assert_eq!(sv, value, "{}", what("cached value"));
            }
        }
    }
}

#[test]
fn summarised_searches_match_plain_and_flat_on_chains() {
    for choices in [1, 4, 7] {
        assert_summaries_are_invisible(&chain_candidates(choices), &format!("chain {choices}"));
    }
}

#[test]
fn summarised_searches_match_plain_and_flat_on_the_search_corpus() {
    for seed in 0..8 {
        let mut g = ProgramGen::new(4100 + seed);
        let choices = 1 + (seed % 5) as u32;
        let p = g.gen_search_program(choices);
        let cands =
            LcCandidates::new(lambda_c::compile(&p.expr).unwrap(), ["decide".to_owned()], choices);
        assert_summaries_are_invisible(&cands, &format!("seed {seed}"));
    }
}

/// A cold exhaustive fill stores one exact summary per distinct
/// interior state, under its prefix and under its state, and nothing
/// else: every table access is the engine's own summary traffic. A node
/// that misses misses twice (prefix, then state); a state hit first
/// missed by prefix.
#[test]
fn a_cold_fill_stores_only_summaries() {
    let cands = chain_candidates(10);
    let engine = Engine::exhaustive();
    let cache = LcTransCache::unbounded(4);
    let (cold, _) = search_compiled_cached(&engine, &cands, &cache, None).unwrap();
    let (stats, summary) = (&cold.stats, &cold.stats.summary);
    let states = 69;
    assert_eq!(summary.installs(), states, "{stats:?}");
    assert_eq!(stats.cache.insertions, 2 * states, "{stats:?}");
    assert_eq!(cache.len(), 2 * 69);
    assert_eq!(stats.cache.misses, 2 * summary.misses + summary.state_hits, "{stats:?}");
    assert_eq!(stats.cache.hits, summary.state_hits, "{stats:?}");
}

/// A warm summarised repeat resolves whole subtrees from exact summary
/// entries: zero leaves touch the machine, and the exhaustive sequential
/// case answers at the root — one exact hit, O(depth) work on a space
/// with 2^depth leaves.
#[test]
fn warm_summarised_repeat_answers_from_summaries() {
    let cands = chain_candidates(9);
    let engine = Engine::exhaustive();
    let cache = LcTransCache::unbounded(4);
    let (cold, value) = search_compiled_cached(&engine, &cands, &cache, None).unwrap();
    assert!(cold.stats.summary.exact_installs > 0, "cold fill installs summaries");
    let (warm, wv) = search_compiled_cached(&engine, &cands, &cache, None).unwrap();
    assert_eq!((warm.index, warm.loss.clone()), (cold.index, cold.loss.clone()));
    assert_eq!(wv, value);
    assert_eq!(warm.stats.summary.exact_hits, 1, "answered at the root: {:?}", warm.stats);
    assert_eq!(warm.stats.evaluated, 0, "no leaf re-evaluation: {:?}", warm.stats);
    // The root summary probe is the one shared-table access.
    assert_eq!(warm.stats.cache.hits, 1, "only the root summary probe: {:?}", warm.stats);

    // A pruned warm repeat still walks no leaves: exact entries answer
    // the fully-explored subtrees and bound entries re-justify the cuts.
    let pruned = Engine::with_threads(1);
    let pcache = LcTransCache::unbounded(4);
    let cert = cands.certificate().expect("chain corpus is flow-certifiable");
    let (pcold, _) = search_compiled_cached(&pruned, &cands, &pcache, Some(cert)).unwrap();
    let (pwarm, _) = search_compiled_cached(&pruned, &cands, &pcache, Some(cert)).unwrap();
    assert_eq!((pwarm.index, pwarm.loss.clone()), (pcold.index, pcold.loss));
    assert_eq!(pwarm.stats.evaluated, 0, "pruned warm repeat: {:?}", pwarm.stats);
    assert!(pwarm.stats.summary.probes() > 0, "summaries carried it: {:?}", pwarm.stats);
}

/// An epoch bump retires summaries lazily: the next search re-derives
/// (and re-installs) them rather than trusting the stale generation.
/// It does exactly the cold fill's work, so every hit it gets is a
/// state it installed itself earlier in the same walk.
#[test]
fn epoch_bump_retires_summaries() {
    let cands = chain_candidates(8);
    let engine = Engine::exhaustive();
    let cache = LcTransCache::unbounded(4);
    let (cold, _) = search_compiled_cached(&engine, &cands, &cache, None).unwrap();
    cache.advance_epoch();
    let (bumped, _) = search_compiled_cached(&engine, &cands, &cache, None).unwrap();
    assert_eq!((bumped.index, bumped.loss.clone()), (cold.index, cold.loss));
    assert_eq!(bumped.stats.summary, cold.stats.summary, "stale summaries must not answer");
    assert_eq!(bumped.stats.evaluated, cold.stats.evaluated, "{:?}", bumped.stats);
    assert_eq!(bumped.stats.cache.hits, cold.stats.cache.hits, "{:?}", bumped.stats);
    assert!(bumped.stats.summary.exact_installs > 0, "the bumped run refills the table");
    let (rewarm, _) = search_compiled_cached(&engine, &cands, &cache, None).unwrap();
    assert_eq!(rewarm.stats.summary.exact_hits, 1, "refilled: answered at the root again");
}

/// The space's bound already holds its best achieved loss when the
/// first segment runs: a search over a *fresh* table (cold cache, warm
/// space) prunes from the first subtree onward — at least as hard as the
/// discovery run, against the same winner.
#[test]
fn warm_space_seeds_the_bound_over_a_cold_table() {
    let cands = chain_candidates(8);
    let engine = Engine::with_threads(1);
    let cert = cands.certificate().expect("chain corpus is flow-certifiable");
    let (first, _) =
        search_compiled_cached(&engine, &cands, &LcTransCache::unbounded(4), Some(cert)).unwrap();
    assert!(first.stats.pruned > 0, "deep chains prune: {:?}", first.stats);
    // Fresh table: nothing to answer from, but the space's bound holds
    // the discovery run's winner before anything evaluates.
    let (seeded, _) =
        search_compiled_cached(&engine, &cands, &LcTransCache::unbounded(4), Some(cert)).unwrap();
    assert_eq!((seeded.index, seeded.loss.clone()), (first.index, first.loss));
    assert!(
        seeded.stats.pruned >= first.stats.pruned,
        "a pre-armed bound prunes at least as hard: {:?} vs {:?}",
        seeded.stats,
        first.stats
    );
    assert!(
        seeded.stats.evaluated <= first.stats.evaluated,
        "and evaluates no more: {:?} vs {:?}",
        seeded.stats,
        first.stats
    );
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(10))]

    /// Randomised sweep: cached searches over one shared tiny table agree
    /// with the flat scan (kept small: the flat reference replays
    /// 2^choices machine runs per case).
    #[test]
    fn summaries_are_invisible_on_random_programs(seed in 0u64..500, choices in 1u32..6) {
        let mut g = ProgramGen::new(seed);
        let p = g.gen_search_program(choices);
        let cands = LcCandidates::new(
            lambda_c::compile(&p.expr).expect("compiles"),
            ["decide".to_owned()],
            choices,
        );
        let (flat, value) =
            search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        prop_assert!(cands.certificate().is_some(), "search corpus is flow-certifiable");
        let cache = LcTransCache::clock_lru(2, 8);
        for engine in [
            Engine::with_threads(2),
            Engine::with_threads(1),
            Engine::exhaustive(),
        ] {
            let (out, v) =
                search_compiled_cached(&engine, &cands, &cache, cands.certificate()).unwrap();
            prop_assert_eq!(out.index, flat.index);
            prop_assert_eq!(out.loss.clone(), flat.loss.clone());
            prop_assert_eq!(v, value.clone());
        }
    }
}
