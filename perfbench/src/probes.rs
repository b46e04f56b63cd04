//! Isolated probes of the traced run: each times one layer's call on
//! its own, as root spans in the run's recorder.

use crate::load::{Kind, GAME_BRANCHING, GAME_DEPTH};
use crate::trace::Recorder;
use lambda_rt::{search_compiled_cached_with, LcCandidates, LcTreeEval};
use selc_engine::tree::SummaryProbe;
use selc_engine::{configured_threads, CancelToken, TreeEngine, TreeEval, TreeStep};
use selc_games::alternating::{AbCache, GameTree};
use selc_serve::protocol::{read_frame, write_frame};
use selc_serve::workload;
use selc_serve::{Request, Tenant, Tenants, Workload};
use std::net::{TcpListener, TcpStream};

/// A depth-1 tree with two leaves: all the engine's fan-out machinery
/// (worker spawn, claim queue, merge) around almost no evaluation.
struct TwoLeaves;

impl TreeEval<f64> for TwoLeaves {
    type Node = ();

    fn depth(&self) -> u32 {
        1
    }

    fn enter(&self, prefix: u64, len: u32) -> TreeStep<(), f64> {
        if len == 0 {
            TreeStep::Node { node: (), hint: None }
        } else {
            TreeStep::Leaf { loss: if prefix == 0 { 1.0 } else { 2.0 }, used: 1 }
        }
    }

    fn child(&self, _node: &(), decision: bool, _path: u64, _len: u32) -> TreeStep<(), f64> {
        TreeStep::Leaf { loss: if decision { 1.0 } else { 2.0 }, used: 1 }
    }
}

/// `write_frame` + `read_frame` of a request-sized frame against an
/// echo thread over a loopback pair: the transport floor under every
/// served request.
fn rtt_echo(rec: &mut Recorder, n: usize) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let payload =
        Request::Search { tenant: 1, deadline_ms: 0, workload: Workload::Chain { choices: 12 } }
            .encode();
    std::thread::scope(|s| {
        s.spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept the probe connection");
            peer.set_nodelay(true).expect("set TCP_NODELAY");
            while let Ok(Some(frame)) = read_frame(&mut peer) {
                if write_frame(&mut peer, &frame).is_err() {
                    break;
                }
            }
        });
        let mut conn = TcpStream::connect(addr).expect("connect to the echo thread");
        conn.set_nodelay(true).expect("set TCP_NODELAY");
        rec.repeat("serve.rtt_echo", n, || {
            write_frame(&mut conn, &payload).expect("echo write");
            read_frame(&mut conn).expect("echo read").expect("echoed frame")
        });
        // Dropping the connection ends the echo thread.
    });
}

/// A tenant whose `choices`-chain table is warm (cold fill, then one
/// warm repeat), like a pre-warmed served tenant.
fn warm_tenant(tenants: &Tenants, choices: u8) -> std::sync::Arc<Tenant> {
    let tenant = tenants.get_or_create(0);
    for _ in 0..2 {
        workload::run(&tenant, &Workload::Chain { choices }, &CancelToken::never(), false);
    }
    tenant
}

/// Runs every probe; returns the depth the summary probe hit at.
pub fn run_all(kind: Kind, rec: &mut Recorder) -> u32 {
    let choices = kind.chain_choices();
    rtt_echo(rec, 2000);

    for (name, threads) in [("engine.fanout.t1", 1), ("engine.fanout.tN", configured_threads())] {
        let engine = TreeEngine::with_threads(threads);
        rec.repeat(name, 500, || {
            let out = engine.search_with(&TwoLeaves, &CancelToken::never()).into_outcome();
            assert_eq!(out.map(|o| o.index), Some(0), "the cheaper leaf wins");
        });
    }

    let program = lambda_c::testgen::deep_decide_chain(u32::from(choices));
    rec.repeat("lambda_c.compile", 200, || lambda_c::compile(&program.expr));
    let compiled = lambda_c::compile(&program.expr).expect("generated chains compile");
    let ops = || ["decide".to_owned()];
    for i in 0..200 {
        let fresh = LcCandidates::new(compiled.clone(), ops(), u32::from(choices));
        rec.time("lambda_c.flow", None, i, || fresh.flow_report().certified());
    }
    let cands = LcCandidates::new(compiled, ops(), u32::from(choices));
    let space = cands.space();
    let mut path = 0;
    rec.repeat("lambda_c.machine_path", 500, || {
        path = (path + 7919) % space;
        cands.run_candidate(path)
    });

    let tenants = Tenants::default();
    let tenant = warm_tenant(&tenants, choices);
    let warm = tenant.chain(choices);
    let eval = LcTreeEval::new(warm.clone()).with_cache(&tenant.lc);
    // A single-worker walk answers from the root's summary; a parallel
    // one from the first split depth it installed summaries at.
    let len = (0..=u32::from(choices))
        .find(|&len| matches!(eval.probe_summary(0, len), SummaryProbe::Exact { .. }))
        .expect("a warm table holds an exact summary on the leftmost path");
    rec.repeat("cache.summary_probe", 2000, || eval.probe_summary(0, len));

    // `search_compiled_cached_with` with the server's arguments, on the
    // workload's own table state: cold after a bump for `cold_refill`.
    let engine = TreeEngine::auto();
    let never = CancelToken::never();
    let search = || search_compiled_cached_with(&engine, &warm, &tenant.lc, None, &never);
    match kind {
        Kind::ColdRefill => {
            for i in 0..16 {
                tenant.bump();
                rec.time("lambda_rt.search", None, i, search);
            }
        }
        Kind::OfflineBatch => {} // timed inside the traced jobs
        _ => rec.repeat("lambda_rt.search", 300, search),
    }

    let (b, d) = (usize::from(GAME_BRANCHING), usize::from(GAME_DEPTH));
    let mut seed = 0;
    rec.repeat("games.tree_gen", 30, || {
        seed += 1;
        GameTree::random(b, d, seed)
    });
    let tree = GameTree::random(b, d, 1);
    let table = AbCache::from_env();
    for i in 0..30 {
        table.advance_epoch();
        rec.time("games.solve_cold", None, i, || {
            tree.solve_alphabeta_tt_cancellable(&table, &never)
        });
    }
    rec.repeat("games.solve_warm", 2000, || tree.solve_alphabeta_tt_cancellable(&table, &never));
    len
}
