//! Running a validated workload against a tenant's warm state.
//!
//! This is the seam between the wire and the engines: requests are
//! validated *before* any compilation or allocation (a hostile depth
//! cannot make the server build a `2^60`-leaf tree), and execution
//! threads the session's `CancelToken` into the same entry points the
//! direct (library) callers use — `search_compiled_cached_with` for
//! chains, `solve_alphabeta_tt_cancellable` for games — so a served
//! winner is the *same computation* as a direct one, bit for bit.

use crate::protocol::{WireStats, Workload};
use crate::tenants::Tenant;
use lambda_rt::{search_compiled_cached_with, LcCandidates};
use selc_cache::CacheStats;
use selc_engine::{CancelToken, Engine, SearchResult, SearchStats};
use selc_obs::{metrics, Counter};
use std::sync::LazyLock;

/// Largest decide chain the server will compile (space `2^24`).
pub const MAX_CHAIN_CHOICES: u8 = 24;

/// Largest per-ply branching factor for game workloads.
pub const MAX_GAME_BRANCHING: u8 = 8;

/// Deepest game tree the server will generate.
pub const MAX_GAME_DEPTH: u8 = 12;

/// Cap on `branching^depth` (the leaf count actually allocated).
pub const MAX_GAME_LEAVES: u64 = 1 << 20;

/// Workload-layer registry handles: which warmth policy chain runs
/// chose, and how many compiled programs the flow guard refused. All
/// of these ride along in a `Metrics` response (the snapshot serialises
/// the whole registry), so a scraper can see a tenant population's
/// prune-eligibility without a protocol change.
struct FlowMetrics {
    policy_certified_prune: Counter,
    policy_exact_summaries: Counter,
    shape_rejected: Counter,
}

static FLOW_METRICS: LazyLock<FlowMetrics> = LazyLock::new(|| FlowMetrics {
    policy_certified_prune: metrics::counter("serve.policy.certified_prune"),
    policy_exact_summaries: metrics::counter("serve.policy.exact_summaries"),
    shape_rejected: metrics::counter("serve.flow.shape_rejected"),
});

/// How a chain search uses the tenant's transposition table.
///
/// The two goods are in tension: mid-run pruning abandons dominated
/// subtrees, which is the fastest route to a winner but leaves those
/// subtrees without exact summaries; an unpruned pass resolves every
/// interior node exactly, so the cold run installs exact summaries all
/// the way to the root and a warm repeat answers in O(depth). The
/// server used to hard-code the warmth side of that trade; now the
/// choice is explicit and driven by what is actually known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmthPolicy {
    /// Certificate-backed mid-run pruning: only available when
    /// `lambda_c::flow` certified the program's losses non-negative,
    /// and only chosen when the request is deadline-bound — a client
    /// racing a clock wants time-to-winner, not future warmth.
    CertifiedPrune,
    /// No pruning: the cold pass pays full price so repeats are
    /// O(depth). The default, and the only option for programs the
    /// flow analysis could not certify.
    ExactSummaries,
}

impl WarmthPolicy {
    /// Picks the policy from the flow verdict and the request shape.
    pub fn choose(certified: bool, deadline_bound: bool) -> WarmthPolicy {
        if certified && deadline_bound {
            WarmthPolicy::CertifiedPrune
        } else {
            WarmthPolicy::ExactSummaries
        }
    }
}

/// Flow-derived depth guard for compiled chain programs.
///
/// `validate` caps the *requested* parameter; this caps what the
/// compiled program actually does. The static decision-shape analysis
/// bounds how many decision ops any forced path can resolve, so a
/// generator bug (or a future user-supplied program) whose true depth
/// exceeds the cap — or cannot be bounded at all — is refused before
/// the engine builds its tree.
pub fn check_decision_shape(cands: &LcCandidates) -> Result<(), String> {
    let shape = cands.flow_report().shape;
    match shape.max {
        Some(max) if max <= u64::from(MAX_CHAIN_CHOICES) => Ok(()),
        Some(max) => Err(format!(
            "chain program resolves up to {max} decisions, exceeding {MAX_CHAIN_CHOICES}"
        )),
        None => Err("chain program's decision count is statically unbounded".to_owned()),
    }
}

/// Checks a workload's parameters against the resource caps. The error
/// string goes back to the client verbatim (as `Response::Malformed`).
pub fn validate(w: &Workload) -> Result<(), String> {
    match *w {
        Workload::Chain { choices } => {
            if choices == 0 || choices > MAX_CHAIN_CHOICES {
                return Err(format!(
                    "chain choices must be 1..={MAX_CHAIN_CHOICES}, got {choices}"
                ));
            }
        }
        Workload::Game { branching, depth, seed: _ } => {
            if branching == 0 || branching > MAX_GAME_BRANCHING {
                return Err(format!(
                    "game branching must be 1..={MAX_GAME_BRANCHING}, got {branching}"
                ));
            }
            if depth == 0 || depth > MAX_GAME_DEPTH {
                return Err(format!("game depth must be 1..={MAX_GAME_DEPTH}, got {depth}"));
            }
            let leaves = (u64::from(branching)).pow(u32::from(depth));
            if leaves > MAX_GAME_LEAVES {
                return Err(format!(
                    "game size {branching}^{depth} = {leaves} leaves exceeds {MAX_GAME_LEAVES}"
                ));
            }
        }
    }
    Ok(())
}

/// What running a workload produced.
#[derive(Clone, Debug, PartialEq)]
pub enum Ran {
    /// Completed within the deadline.
    Done {
        /// Winning candidate / leaf index.
        index: u64,
        /// Its loss (game value for trees).
        loss: f64,
        /// Telemetry, including the tenant-cache deltas for this run.
        stats: WireStats,
    },
    /// The token fired first.
    TimedOut {
        /// Sound partial best, when the search model has one.
        partial: Option<(u64, f64)>,
    },
    /// The compiled program failed the flow-derived shape guard. The
    /// string goes back to the client as `Response::Malformed`, same
    /// as a parameter-level `validate` failure.
    Rejected(String),
}

fn wire_stats(s: &SearchStats) -> WireStats {
    WireStats {
        evaluated: s.evaluated,
        pruned: s.pruned,
        threads: s.threads as u64,
        cache_hits: s.cache.hits,
        cache_misses: s.cache.misses,
        cache_insertions: s.cache.insertions,
        cache_evictions: s.cache.evictions,
        summary_exact_hits: s.summary.exact_hits,
        summary_bound_hits: s.summary.bound_hits,
        summary_misses: s.summary.misses,
        summary_exact_installs: s.summary.exact_installs,
        summary_bound_installs: s.summary.bound_installs,
    }
}

/// Runs a **validated** workload for `tenant` under `cancel`.
/// `deadline_bound` is whether the request carried a real deadline
/// (`deadline_ms > 0`); it feeds the [`WarmthPolicy`] choice.
///
/// # Panics
///
/// Panics if the workload was not [`validate`]d (e.g. a zero-choice
/// chain would make the engine's non-empty-space invariants fire).
pub fn run(tenant: &Tenant, w: &Workload, cancel: &CancelToken, deadline_bound: bool) -> Ran {
    match *w {
        Workload::Chain { choices } => {
            let cands = tenant.chain(choices);
            if let Err(msg) = check_decision_shape(&cands) {
                FLOW_METRICS.shape_rejected.inc();
                return Ran::Rejected(msg);
            }
            let engine = Engine::auto();
            // Prune only behind a flow certificate *and* a live
            // deadline: an uncertified program must not prune at all
            // (negative losses would make pruning unsound), and an
            // unhurried request prefers exact summaries — the unpruned
            // cold pass is what lets a warm repeat answer in O(depth),
            // and warmth is this server's whole point.
            let policy = WarmthPolicy::choose(cands.flow_report().certified(), deadline_bound);
            let cert = match policy {
                WarmthPolicy::CertifiedPrune => {
                    FLOW_METRICS.policy_certified_prune.inc();
                    cands.certificate()
                }
                WarmthPolicy::ExactSummaries => {
                    FLOW_METRICS.policy_exact_summaries.inc();
                    None
                }
            };
            match search_compiled_cached_with(&engine, &cands, &tenant.lc, cert, cancel) {
                SearchResult::Complete(out) => {
                    // `validate` rejects zero-choice chains, so the
                    // space is provably non-empty here; an empty argmin
                    // is a workspace bug, not a client error.
                    // selc-lint: allow(serve-no-panic)
                    let out = out.expect("validated chains have non-empty spaces");
                    Ran::Done {
                        index: out.index as u64,
                        loss: out.loss.0.as_scalar(),
                        stats: wire_stats(&out.stats),
                    }
                }
                SearchResult::Cancelled(partial) => Ran::TimedOut {
                    partial: partial.map(|o| (o.index as u64, o.loss.0.as_scalar())),
                },
            }
        }
        Workload::Game { branching, depth, seed } => {
            let entry = tenant.game(branching, depth, seed);
            let base = entry.cache.stats();
            match entry.tree.solve_alphabeta_tt_cancellable(&entry.cache, cancel) {
                Some((play, value, leaves)) => {
                    game_done(branching, &play, value, leaves, entry.cache.stats().since(&base))
                }
                // Minimax has no sound partial best (see the solver's
                // docs), so a timed-out game reports none.
                None => Ran::TimedOut { partial: None },
            }
        }
    }
}

/// Answers a game request whose tree the tenant's table has already
/// resolved: one root probe, no search — so the server answers it
/// without taking a search slot or watching the socket. `None` for
/// chains and for cold games.
pub fn run_warm(tenant: &Tenant, workload: &Workload) -> Option<Ran> {
    let Workload::Game { branching, depth, seed } = *workload else {
        return None;
    };
    let entry = tenant.game(branching, depth, seed);
    let base = entry.cache.stats();
    let (play, value) = entry.tree.solve_alphabeta_tt_warm(&entry.cache)?;
    Some(game_done(branching, &play, value, 0, entry.cache.stats().since(&base)))
}

/// A solved game's reply: the play as its leaf index, and the table's
/// counter deltas.
fn game_done(branching: u8, play: &[usize], value: f64, leaves: u64, delta: CacheStats) -> Ran {
    let index = play.iter().fold(0u64, |acc, &m| acc * u64::from(branching) + m as u64);
    let stats = WireStats {
        evaluated: leaves,
        threads: 1,
        cache_hits: delta.hits,
        cache_misses: delta.misses,
        cache_insertions: delta.insertions,
        cache_evictions: delta.evictions,
        ..WireStats::default()
    };
    Ran::Done { index, loss: value, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenants::Tenants;

    #[test]
    fn validation_rejects_degenerate_and_oversized_workloads() {
        assert!(validate(&Workload::Chain { choices: 0 }).is_err());
        assert!(validate(&Workload::Chain { choices: 25 }).is_err());
        assert!(validate(&Workload::Chain { choices: 24 }).is_ok());
        assert!(validate(&Workload::Game { branching: 0, depth: 3, seed: 0 }).is_err());
        assert!(validate(&Workload::Game { branching: 2, depth: 0, seed: 0 }).is_err());
        assert!(validate(&Workload::Game { branching: 9, depth: 2, seed: 0 }).is_err());
        assert!(validate(&Workload::Game { branching: 8, depth: 12, seed: 0 }).is_err());
        assert!(validate(&Workload::Game { branching: 2, depth: 12, seed: 0 }).is_ok());
    }

    #[test]
    fn warmth_policy_prunes_only_certified_deadline_bound_requests() {
        use WarmthPolicy::{CertifiedPrune, ExactSummaries};
        assert_eq!(WarmthPolicy::choose(true, true), CertifiedPrune);
        assert_eq!(WarmthPolicy::choose(true, false), ExactSummaries);
        assert_eq!(WarmthPolicy::choose(false, true), ExactSummaries);
        assert_eq!(WarmthPolicy::choose(false, false), ExactSummaries);
    }

    #[test]
    fn shape_guard_accepts_served_chains_and_refuses_over_deep_programs() {
        let tenants = Tenants::default();
        let tenant = tenants.get_or_create(9);
        assert!(check_decision_shape(&tenant.chain(MAX_CHAIN_CHOICES)).is_ok());
        // A program whose *actual* static decision depth exceeds the
        // cap is refused even though nothing at the parameter layer
        // could have caught it.
        let deep = lambda_c::testgen::deep_decide_chain(u32::from(MAX_CHAIN_CHOICES) + 6);
        let compiled = lambda_c::compile(&deep.expr).expect("testgen chains compile");
        let cands = lambda_rt::LcCandidates::new(
            compiled,
            ["decide".to_owned()],
            u32::from(MAX_CHAIN_CHOICES) + 6,
        );
        let err = check_decision_shape(&cands).unwrap_err();
        assert!(err.contains("exceeding"), "unexpected message: {err}");
    }

    #[test]
    fn deadline_bound_certified_chains_prune_and_keep_the_exact_winner() {
        let tenants = Tenants::default();
        let tenant = tenants.get_or_create(8);
        let w = Workload::Chain { choices: 8 };
        let cands = tenant.chain(8);
        assert!(cands.certificate().is_some(), "the served chain corpus must be flow-certifiable");
        // deadline_bound = true with a certified program takes the
        // CertifiedPrune arm; the winner must still be bit-identical
        // to the exhaustive reference, and `partial + residual` must
        // actually cut subtrees.
        let Ran::Done { index, loss, stats } = run(&tenant, &w, &CancelToken::never(), true) else {
            panic!("never token cannot time out");
        };
        let (reference, _) =
            lambda_rt::search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        assert_eq!(index, reference.index as u64);
        assert_eq!(loss.to_bits(), reference.loss.0.as_scalar().to_bits());
        assert!(stats.pruned > 0, "the certified arm prunes: {stats:?}");
    }

    #[test]
    fn served_chain_winners_match_a_direct_flat_scan() {
        let tenants = Tenants::default();
        let tenant = tenants.get_or_create(1);
        let w = Workload::Chain { choices: 7 };
        let Ran::Done { index, loss, stats } = run(&tenant, &w, &CancelToken::never(), false)
        else {
            panic!("never token cannot time out");
        };
        let cands = tenant.chain(7);
        let (reference, _) =
            lambda_rt::search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        assert_eq!(index, reference.index as u64);
        assert_eq!(loss.to_bits(), reference.loss.0.as_scalar().to_bits());
        assert!(stats.cache_insertions > 0, "cold run fills the tenant table");
        // Warm repeat: answered from the tenant's summaries.
        let Ran::Done { index: i2, loss: l2, stats: warm } =
            run(&tenant, &w, &CancelToken::never(), false)
        else {
            panic!("warm repeat cannot time out");
        };
        assert_eq!((i2, l2.to_bits()), (index, loss.to_bits()));
        // Tiny-capacity CI runs churn the summaries out; retention
        // claims only hold when the table can hold a search.
        if selc::env::configured_capacity().is_none_or(|cap| cap >= 4096) {
            assert!(warm.summary_exact_hits > 0, "repeat answers from summaries: {warm:?}");
            assert_eq!(warm.evaluated, 0, "warm repeat replays nothing: {warm:?}");
        }
    }

    #[test]
    fn served_game_winners_match_backward_induction() {
        let tenants = Tenants::default();
        let tenant = tenants.get_or_create(2);
        let w = Workload::Game { branching: 3, depth: 5, seed: 11 };
        assert_eq!(run_warm(&tenant, &w), None, "a cold table cannot answer without a search");
        let Ran::Done { index, loss, stats } = run(&tenant, &w, &CancelToken::never(), false)
        else {
            panic!("never token cannot time out");
        };
        let tree = selc_games::alternating::GameTree::random(3, 5, 11);
        let (play, value) = tree.solve_backward();
        let expect = play.iter().fold(0u64, |acc, &m| acc * 3 + m as u64);
        assert_eq!((index, loss.to_bits()), (expect, value.to_bits()));
        assert!(stats.evaluated > 0);
        // A complete cold solve probes and stores the root only.
        assert_eq!((stats.cache_hits, stats.cache_misses, stats.cache_insertions), (0, 1, 1));
        // Warm repeat resolves at the root entry: zero leaves.
        let Ran::Done { stats: warm, .. } = run(&tenant, &w, &CancelToken::never(), false) else {
            panic!("warm repeat cannot time out");
        };
        assert_eq!(warm.evaluated, 0, "warm game answered from the root Exact entry");
        assert!(warm.cache_hits > 0);
        // The watcher-free probe gives the same answer.
        let Some(Ran::Done { index: i2, loss: l2, stats: probed }) = run_warm(&tenant, &w) else {
            panic!("a resolved root answers the probe");
        };
        assert_eq!((i2, l2.to_bits()), (expect, value.to_bits()));
        assert_eq!((probed.evaluated, probed.cache_hits), (0, 1));
        assert_eq!(run_warm(&tenant, &Workload::Chain { choices: 6 }), None);
    }

    #[test]
    fn expired_tokens_time_out_both_workload_kinds() {
        let tenants = Tenants::default();
        let tenant = tenants.get_or_create(3);
        let dead = CancelToken::never();
        dead.cancel();
        assert!(matches!(
            run(&tenant, &Workload::Chain { choices: 6 }, &dead, false),
            Ran::TimedOut { .. }
        ));
        assert_eq!(
            run(&tenant, &Workload::Game { branching: 2, depth: 6, seed: 1 }, &dead, false),
            Ran::TimedOut { partial: None }
        );
        // The timeouts must not have poisoned the tenant: a real run
        // still matches the direct reference.
        let Ran::Done { index, .. } =
            run(&tenant, &Workload::Chain { choices: 6 }, &CancelToken::never(), false)
        else {
            panic!("never token cannot time out");
        };
        let cands = tenant.chain(6);
        let (reference, _) =
            lambda_rt::search_compiled_flat(&Engine::exhaustive(), &cands).unwrap();
        assert_eq!(index, reference.index as u64);
    }
}
