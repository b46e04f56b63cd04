//! The tree walk's work, pinned: how many leaves one worker evaluates
//! and prunes, and how many subtree summaries it installs, on the two
//! chain walks the repository benchmark runs. The counts were recorded
//! while the engine still kept a per-search bound next to the space's
//! achieved-loss word; the winners are checked bit for bit against the
//! flat scan.
//!
//! * The uncertified chain-10 walk (a served cold refill: a fresh table,
//!   then the same table after an epoch bump) prunes nothing, so its
//!   counts do not depend on the bound at all and must not move.
//! * The certified chain-12 walk (the offline batch's pattern: a fresh
//!   table per search over one shared space) prunes against the space's
//!   achieved loss. A bound that sees each leaf as soon as it is
//!   expanded may only prune more, so `evaluated` is capped by the
//!   recorded value and the current counts are pinned beside it.

use lambda_rt::{
    search_compiled_cached_with, search_compiled_flat, LcCandidates, LcTransCache, OrdLossVal,
};
use selc_engine::{CancelToken, Engine, Outcome};

fn chain(choices: u32) -> LcCandidates {
    let p = lambda_c::testgen::deep_decide_chain(choices);
    LcCandidates::new(lambda_c::compile(&p.expr).unwrap(), ["decide".to_owned()], choices)
}

/// `(evaluated, pruned, exact installs, bound installs, table insertions)`.
type Work = (u64, u64, u64, u64, u64);

fn work(out: &Outcome<OrdLossVal>) -> Work {
    let s = &out.stats;
    (s.evaluated, s.pruned, s.summary.exact_installs, s.summary.bound_installs, s.cache.insertions)
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

/// The uncertified chain-10 walk: every leaf evaluated, every interior
/// node summarised exactly, before and after an epoch bump.
const COLD_REFILL: Work = (1024, 0, 1023, 0, 1023);

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
const CERTIFIED: [Work; 2] = [(5, 22, 1, 2, 3), (4, 23, 0, 0, 0)];

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
