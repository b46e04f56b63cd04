//! The tree walk's work, pinned: how many leaves one worker evaluates,
//! what it cuts and by which layer, how many subtrees it answers by
//! machine state, and how many summaries it installs, on the two chain
//! walks the repository benchmark runs. The winners are checked bit for
//! bit against the flat scan.
//!
//! * The uncertified chain-10 walk (a served cold refill: a fresh table,
//!   then the same table after an epoch bump) prunes nothing. Every
//!   node it reaches is probed by prefix and then by machine state, so
//!   it expands each distinct state once: the 69 interior states of the
//!   chain (1, 2, 3, 6, 6, 7, 9, 11, 12 and 12 per level: a `b_i` is
//!   dead after its loss, so a state is its depth and partial), with
//!   the 24 leaves under the 12 deepest. Each expanded node installs a
//!   prefix and a state entry. These counts move only when what a state
//!   key holds moves.
//! * The certified chain-12 walk (the offline batch's pattern: a fresh
//!   table per search over one shared space) prunes against the space's
//!   achieved loss. `evaluated` is capped by the value recorded before
//!   the walk pruned against that bound, and the current counts are
//!   pinned beside it, with `pruned` split into hint skips, bound-entry
//!   skips and machine abandonments.

use lambda_rt::{
    search_compiled_cached_with, search_compiled_flat, LcCandidates, LcTransCache, OrdLossVal,
};
use selc_engine::{CancelToken, Engine, Outcome};

fn chain(choices: u32) -> LcCandidates {
    let p = lambda_c::testgen::deep_decide_chain(choices);
    LcCandidates::new(lambda_c::compile(&p.expr).unwrap(), ["decide".to_owned()], choices)
}

/// `(evaluated, hint skips, bound-entry skips, machine abandonments,
/// state hits, exact installs, bound installs, table insertions)`.
type Work = (u64, u64, u64, u64, u64, u64, u64, u64);

fn work(out: &Outcome<OrdLossVal>) -> Work {
    let s = &out.stats;
    assert_eq!(s.pruned, s.hint_skips + s.bound_skips + s.abandoned, "{s:?}");
    let summary = &s.summary;
    (
        s.evaluated,
        s.hint_skips,
        s.bound_skips,
        s.abandoned,
        summary.state_hits,
        summary.exact_installs,
        summary.bound_installs,
        s.cache.insertions,
    )
}

/// One single-worker walk through the served entry point.
fn walk(cands: &LcCandidates, cache: &LcTransCache, certified: bool) -> Outcome<OrdLossVal> {
    let cert = if certified { cands.certificate() } else { None };
    let engine = Engine::with_threads(1);
    let result = search_compiled_cached_with(&engine, cands, cache, cert, &CancelToken::never());
    assert!(!result.was_cancelled());
    result.into_outcome().expect("a chain space has a winner")
}

fn assert_flat_winner(out: &Outcome<OrdLossVal>, cands: &LcCandidates, label: &str) {
    let (flat, _) = search_compiled_flat(&Engine::exhaustive(), cands).unwrap();
    assert_eq!(out.index, flat.index, "{label}");
    assert_eq!(out.loss.0.as_scalar().to_bits(), flat.loss.0.as_scalar().to_bits(), "{label}");
}

/// The uncertified chain-10 walk, before and after an epoch bump: each
/// of the 69 interior states expanded once and installed under its
/// prefix and its state, the other 46 nodes reached answered by state.
const COLD_REFILL: Work = (24, 0, 0, 0, 46, 69, 0, 138);

#[test]
fn uncertified_cold_refill_walks_do_the_recorded_work() {
    let cands = chain(10);
    let cache = LcTransCache::unbounded(4);
    let cold = walk(&cands, &cache, false);
    assert_flat_winner(&cold, &cands, "cold");
    assert_eq!(work(&cold), COLD_REFILL, "cold: {:?}", cold.stats);
    cache.advance_epoch();
    let refill = walk(&cands, &cache, false);
    assert_eq!((refill.index, refill.loss.clone()), (cold.index, cold.loss), "refill winner");
    assert_eq!(work(&refill), COLD_REFILL, "refill: {:?}", refill.stats);
}

/// `evaluated` of the two certified chain-12 walks as recorded: the
/// first on a fresh space, the second on a fresh table over the space
/// the first one warmed.
const CERTIFIED_EVALUATED_CAP: [u64; 2] = [5, 4];

/// The two certified chain-12 walks' current work.
const CERTIFIED: [Work; 2] = [(2, 13, 0, 6, 3, 1, 2, 4), (4, 11, 0, 12, 0, 0, 0, 0)];

#[test]
fn certified_chain_walks_prune_at_least_as_recorded() {
    let cands = chain(12);
    let first = walk(&cands, &LcTransCache::unbounded(4), true);
    let second = walk(&cands, &LcTransCache::unbounded(4), true);
    for (i, out) in [first, second].iter().enumerate() {
        assert_flat_winner(out, &cands, &format!("walk {i}"));
        assert!(
            out.stats.evaluated <= CERTIFIED_EVALUATED_CAP[i],
            "walk {i} evaluated more than recorded: {:?}",
            out.stats
        );
        assert_eq!(work(out), CERTIFIED[i], "walk {i}: {:?}", out.stats);
    }
}
