//! The state-key differential suite: a cached walk that answers subtrees
//! by machine state — two prefixes that reach one state share one
//! subtree — must return **bit-identical** winners, loss bits *and*
//! index, ties included, to the uncached walk and to the flat scan.
//!
//! The corpus is 5 000 `gen_search_program` programs of 1 to 6
//! decisions. Their losses read earlier decisions, so variables stay
//! live across choice points, and small integer losses make many paths
//! meet at one partial: a state key that dropped a live value or the
//! partial's bits would merge subtrees that differ. Each program runs at
//! 1, 2 and 3 workers, on a fresh `SELC_CACHE_CAP`-sized table, first
//! uncertified (exact summaries only) and then certified over the table
//! the first walk left.

use lambda_c::testgen::{decide_chain_holding_k, ProgramGen};
use lambda_c::{compile, LossVal};
use lambda_rt::{
    search_compiled_cached, search_compiled_flat, LcCandidates, LcTransCache, LcTreeEval,
    OrdLossVal,
};
use selc_engine::{Engine, Outcome};

const PROGRAMS: u64 = 5_000;

/// A winner as bits: the index and every loss component's bit pattern.
fn bits(out: &Outcome<OrdLossVal>) -> (usize, Vec<u64>) {
    (out.index, out.loss.0.components().iter().map(|x| x.to_bits()).collect())
}

fn candidates(expr: &lambda_c::Expr, choices: u32) -> LcCandidates {
    LcCandidates::new(compile(expr).expect("compiles"), ["decide".to_owned()], choices)
}

#[test]
fn state_keyed_walks_equal_the_uncached_walk_and_the_flat_scan() {
    let mut state_hits = 0;
    for seed in 0..PROGRAMS {
        let choices = 1 + (seed % 6) as u32;
        let p = ProgramGen::new(70_000 + seed).gen_search_program(choices);
        let cands = candidates(&p.expr, choices);
        let (flat, value) = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        let want = bits(&flat);
        let cert = cands.certificate();
        assert!(cert.is_some(), "seed {seed}: corpus programs are flow-certifiable");
        for threads in [1, 2, 3] {
            let engine = Engine::with_threads(threads);
            let plain = engine.search(&LcTreeEval::new(cands.clone())).unwrap();
            assert_eq!(bits(&plain), want, "seed {seed}: uncached walk at {threads}");
            let cache = LcTransCache::from_env();
            for (round, cert) in [("uncertified", None), ("certified", cert)] {
                let (out, v) = search_compiled_cached(&engine, &cands, &cache, cert).unwrap();
                assert_eq!(bits(&out), want, "seed {seed}: {round} cached walk at {threads}");
                assert_eq!(v, value, "seed {seed}: {round} value at {threads}");
                state_hits += out.stats.summary.state_hits;
            }
        }
    }
    assert!(state_hits > 0, "the corpus exercises state hits");
}

/// Every choice point of this program holds a live `k`, so no node has
/// a state key: the cached walk keeps the counts of a prefix-keyed one,
/// one exact prefix entry per interior node and no state traffic,
/// although its paths meet at equal partials.
#[test]
fn points_holding_a_captured_continuation_keep_prefix_counts() {
    let choices = 4;
    let cands = candidates(&decide_chain_holding_k(choices).expr, choices);
    let (flat, _) = search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
    let cache = LcTransCache::unbounded(4);
    let (out, _) = search_compiled_cached(&Engine::exhaustive(), &cands, &cache, None).unwrap();
    assert_eq!(bits(&out), bits(&flat));
    assert_eq!(out.loss.0, LossVal::scalar(0.0), "a free branch at every step");
    let (stats, summary) = (&out.stats, &out.stats.summary);
    assert_eq!(stats.evaluated, 16, "{stats:?}");
    assert_eq!((summary.exact_installs, stats.cache.insertions), (15, 15), "{stats:?}");
    assert_eq!((summary.misses, summary.state_hits), (15, 0), "{stats:?}");
    assert_eq!(cache.len(), 15);
}
