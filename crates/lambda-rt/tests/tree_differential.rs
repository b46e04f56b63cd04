//! The tree-search differential suite: the prefix-sharing tree walk must
//! return **bit-identical** winners — loss *and* index, ties included —
//! to the flat exhaustive scan, across every configuration: sequential,
//! parallel (`SELC_THREADS` workers and pinned pool shapes), cached
//! (`SELC_CACHE_CAP`-bounded shared tables, cold and warmed by other
//! tree configurations), and
//! pruned (machine abandonment + dominated-subtree skips). The flat scan
//! is itself proven against the argmin handler semantics in
//! `tests/differential.rs`, so equality here closes the three-way chain
//! handler == flat == tree.

use lambda_c::testgen::{self, ProgramGen};
use lambda_c::types::{Effect, Type};
use lambda_c::{compile, LossVal};
use lambda_rt::{
    search_compiled, search_compiled_cached, search_compiled_flat, LcCandidates, LcTransCache,
    OrdLossVal,
};
use proptest::prelude::*;
use selc_engine::{Outcome, SequentialEngine, TreeEngine};

fn tree_engines() -> Vec<TreeEngine> {
    vec![
        TreeEngine::sequential(),
        TreeEngine::with_threads(1),
        TreeEngine::auto(), // SELC_THREADS workers
        TreeEngine { threads: 2, prune: true, split: 1, summaries: true },
        TreeEngine { threads: 3, prune: false, split: 3, summaries: true },
        TreeEngine { threads: 2, prune: true, split: 2, summaries: false },
    ]
}

/// Runs every tree configuration against the flat sequential reference.
fn assert_tree_equals_flat(cands: &LcCandidates, label: &str) {
    let (flat, value) = search_compiled_flat(&SequentialEngine::exhaustive(), cands).unwrap();
    // The corpus emits only non-negative constant losses, so every
    // program must earn a flow certificate; pruned rounds run under it.
    let cert = cands.certificate();
    assert!(cert.is_some(), "{label}: corpus programs are flow-certifiable");
    let check = |out: &Outcome<OrdLossVal>, v: &lambda_rt::LcValue, what: &str| {
        assert_eq!(
            (out.index, out.loss.clone()),
            (flat.index, flat.loss.clone()),
            "{label}: {what} winner"
        );
        assert_eq!(*v, value, "{label}: {what} value");
    };
    for engine in tree_engines() {
        let (out, v) = search_compiled(&engine, cands).unwrap();
        check(&out, &v, &format!("tree {engine:?}"));
        // Cached, cold (fresh tiny-capacity-respecting shared handle)…
        let cache = LcTransCache::from_env();
        let (out, v) = search_compiled_cached(&engine, cands, &cache, cert).unwrap();
        check(&out, &v, &format!("tree cached+pruned {engine:?}"));
        // …and warm over whatever the pruned fill left behind.
        let (out, v) = search_compiled_cached(&engine, cands, &cache, cert).unwrap();
        check(&out, &v, &format!("tree warm {engine:?}"));
        // Cross-warming between configurations: the exhaustive walk over
        // this engine's table, and this engine over an exhaustive fill.
        let (out, v) =
            search_compiled_cached(&TreeEngine::sequential(), cands, &cache, None).unwrap();
        check(&out, &v, &format!("sequential over a {engine:?}-warmed table"));
        let sequential_filled = LcTransCache::from_env();
        let _ = search_compiled_cached(&TreeEngine::sequential(), cands, &sequential_filled, None);
        let (out, v) = search_compiled_cached(&engine, cands, &sequential_filled, cert).unwrap();
        check(&out, &v, &format!("tree over a sequential-warmed table {engine:?}"));
    }
}

#[test]
fn tree_equals_flat_on_the_search_corpus() {
    for seed in 0..12 {
        let mut g = ProgramGen::new(3000 + seed);
        let choices = 1 + (seed % 6) as u32;
        let p = g.gen_search_program(choices);
        let cands =
            LcCandidates::new(compile(&p.expr).expect("compiles"), ["decide".to_owned()], choices);
        assert_tree_equals_flat(&cands, &format!("seed {seed}"));
    }
}

#[test]
fn tree_equals_flat_on_deterministic_deep_chains() {
    for choices in [1, 4, 8] {
        let p = testgen::deep_decide_chain(choices);
        let cands =
            LcCandidates::new(compile(&p.expr).expect("compiles"), ["decide".to_owned()], choices);
        assert_tree_equals_flat(&cands, &format!("chain {choices}"));
    }
}

/// Every path ties: the winner must be candidate 0 (all-`true`) in every
/// configuration — exploration order, worker interleaving, and pruning
/// must not disturb the deterministic tie-break.
#[test]
fn all_tied_paths_break_to_the_all_true_candidate() {
    use lambda_c::build::*;
    let eamb = Effect::single("amb");
    let mut body = lc(0.0);
    for i in (0..3).rev() {
        body = let_(
            eamb.clone(),
            &format!("b{i}"),
            Type::bool(),
            op("decide", unit()),
            seq(eamb.clone(), Type::unit(), loss(lc(1.0)), body),
        );
    }
    let e = handle0(testgen::argmin_handler(&Type::loss(), &Effect::empty()), body);
    let cands = LcCandidates::new(compile(&e).unwrap(), ["decide".to_owned()], 3);
    let cert = cands.certificate().expect("constant-loss program is flow-certifiable");
    for engine in tree_engines() {
        let (out, _) = search_compiled(&engine, &cands).unwrap();
        assert_eq!(out.index, 0, "{engine:?}");
        assert_eq!(out.loss.0, LossVal::scalar(3.0), "{engine:?}");
        let cache = LcTransCache::from_env();
        let (out, _) = search_compiled_cached(&engine, &cands, &cache, Some(cert)).unwrap();
        assert_eq!(out.index, 0, "cached {engine:?}");
    }
}

/// Shallow-terminating paths: a space declared deeper than the program's
/// real decision count must credit early leaves to their smallest flat
/// index in tree and flat searches alike.
#[test]
fn shallow_paths_share_their_representative_index() {
    let ex = lambda_c::examples::pgm_with_argmin_handler();
    let cands = LcCandidates::new(compile(&ex.expr).unwrap(), ["decide".to_owned()], 5);
    assert_tree_equals_flat(&cands, "pgm at depth 5");
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(12))]

    /// Randomised corpus sweep (kept small: the flat reference replays
    /// 2^choices machine runs per configuration in debug builds).
    #[test]
    fn tree_equals_flat_on_random_search_programs(seed in 0u64..500, choices in 1u32..6) {
        let mut g = ProgramGen::new(seed);
        let p = g.gen_search_program(choices);
        let cands = LcCandidates::new(
            compile(&p.expr).expect("compiles"),
            ["decide".to_owned()],
            choices,
        );
        let (flat, value) =
            search_compiled_flat(&SequentialEngine::exhaustive(), &cands).unwrap();
        let cache = LcTransCache::from_env();
        for engine in [TreeEngine::auto(), TreeEngine::sequential()] {
            let (out, v) =
                search_compiled_cached(&engine, &cands, &cache, cands.certificate()).unwrap();
            prop_assert_eq!(out.index, flat.index);
            prop_assert_eq!(out.loss.clone(), flat.loss.clone());
            prop_assert_eq!(v, value.clone());
        }
    }
}
