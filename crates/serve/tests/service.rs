//! End-to-end integration suite: real sockets, real sessions, real
//! deadlines — every server answer checked bit-for-bit against the
//! direct library entry points it claims to equal.
//!
//! Each test spawns its own ephemeral-port server, so the suite is
//! parallel-safe and leaves nothing listening. The suite must pass
//! under tiny-cache CI (`SELC_CACHE_CAP=8 SELC_THREADS=2`), so warmth
//! assertions rely only on entries a repeat provably leaves resident
//! (the root summary installed last in the cold pass), never on the
//! whole working set surviving eviction.

use selc_serve::{Client, Response, ServeConfig, Server, Workload};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

fn spawn(workers: usize, max_sessions: usize) -> Server {
    Server::spawn(ServeConfig::loopback(workers, max_sessions)).expect("bind loopback")
}

/// Warmth assertions (summary hits, zero replay) hold when the tenant
/// caches can actually retain a search's summaries. Tiny-capacity CI
/// (`SELC_CACHE_CAP=8`) deliberately churns entries to exercise
/// eviction; there the suite still checks bit-identity and liveness,
/// but not retention.
fn caches_retain_warmth() -> bool {
    selc::env::configured_capacity().is_none_or(|cap| cap >= 4096)
}

/// The direct (no server) reference for a chain workload.
fn direct_chain(choices: u8) -> (u64, f64) {
    let p = lambda_c::testgen::deep_decide_chain(u32::from(choices));
    let cands = lambda_rt::LcCandidates::new(
        lambda_c::compile(&p.expr).expect("testgen chains compile"),
        ["decide".to_owned()],
        u32::from(choices),
    );
    let (out, _) = lambda_rt::search_compiled_flat(&selc_engine::Engine::exhaustive(), &cands)
        .expect("non-empty space");
    (out.index as u64, out.loss.0.as_scalar())
}

/// The direct reference for a game workload.
fn direct_game(branching: u8, depth: u8, seed: u64) -> (u64, f64) {
    let tree = selc_games::alternating::GameTree::random(branching as usize, depth as usize, seed);
    let (play, value) = tree.solve_backward();
    let index = play.iter().fold(0u64, |acc, &m| acc * u64::from(branching) + m as u64);
    (index, value)
}

fn expect_ok(resp: Response) -> (u64, f64, selc_serve::WireStats) {
    match resp {
        Response::Ok { index, loss, stats } => (index, loss, stats),
        other => panic!("expected Ok, got {other:?}"),
    }
}

#[test]
fn concurrent_tenants_get_bit_identical_winners() {
    let server = spawn(4, 8);
    let addr = server.addr();
    let chain_ref = direct_chain(8);
    let game_ref = direct_game(3, 4, 17);
    let handles: Vec<_> = (0..2)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let tenant = 100 + t;
                for _round in 0..3 {
                    let (ci, cl, _) = expect_ok(
                        client.search(tenant, Workload::Chain { choices: 8 }, 0).expect("chain"),
                    );
                    let (gi, gl, _) = expect_ok(
                        client
                            .search(tenant, Workload::Game { branching: 3, depth: 4, seed: 17 }, 0)
                            .expect("game"),
                    );
                    assert_eq!(
                        (ci, cl.to_bits()),
                        (direct_chain(8).0, direct_chain(8).1.to_bits())
                    );
                    let _ = (gi, gl);
                }
                let (ci, cl, _) = expect_ok(
                    client.search(tenant, Workload::Chain { choices: 8 }, 0).expect("chain"),
                );
                let (gi, gl, _) = expect_ok(
                    client
                        .search(tenant, Workload::Game { branching: 3, depth: 4, seed: 17 }, 0)
                        .expect("game"),
                );
                ((ci, cl), (gi, gl))
            })
        })
        .collect();
    for h in handles {
        let ((ci, cl), (gi, gl)) = h.join().expect("client thread");
        assert_eq!((ci, cl.to_bits()), (chain_ref.0, chain_ref.1.to_bits()));
        assert_eq!((gi, gl.to_bits()), (game_ref.0, game_ref.1.to_bits()));
    }
}

#[test]
fn warm_tenant_repeats_answer_from_the_caches() {
    let server = spawn(2, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    let w = Workload::Chain { choices: 10 };
    let (index, loss, cold) = expect_ok(client.search(1, w, 0).expect("cold"));
    assert!(cold.cache_insertions > 0, "cold run fills the table: {cold:?}");
    let (i2, l2, warm) = expect_ok(client.search(1, w, 0).expect("warm"));
    assert_eq!((i2, l2.to_bits()), (index, loss.to_bits()), "warm winner identical");
    if caches_retain_warmth() {
        assert!(warm.summary_exact_hits > 0, "warm repeat answers from summaries: {warm:?}");
        assert_eq!(warm.evaluated, 0, "warm repeat replays nothing: cold {cold:?}, warm {warm:?}");
    }

    // Same story for a game: the warm repeat resolves at the root
    // transposition entry without touching a leaf.
    let g = Workload::Game { branching: 3, depth: 6, seed: 5 };
    let (gi, gl, _) = expect_ok(client.search(1, g, 0).expect("cold game"));
    let (gi2, gl2, gwarm) = expect_ok(client.search(1, g, 0).expect("warm game"));
    assert_eq!((gi2, gl2.to_bits()), (gi, gl.to_bits()));
    assert_eq!(gwarm.evaluated, 0, "warm game answers from the root entry: {gwarm:?}");
    assert!(gwarm.cache_hits > 0);
}

#[test]
fn deadlines_time_out_without_killing_the_session_or_poisoning_the_tenant() {
    let server = spawn(2, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    // A cold 4^10-leaf game solve takes several milliseconds even in a
    // release build, so a 1ms token fires long before it is done, and the
    // server says so instead of blocking the session. (A cold chain is
    // no such request: its certificate prunes most of the tree, and even
    // 2^18 candidates can finish within 1ms.)
    let deadline = Workload::Game { branching: 4, depth: 10, seed: 1 };
    let resp = client.search(9, deadline, 1).expect("deadline request");
    assert!(matches!(resp, Response::Timeout { .. }), "expected Timeout, got {resp:?}");
    // The session survives the timeout…
    let reference = direct_chain(8);
    let (index, loss, _) =
        expect_ok(client.search(9, Workload::Chain { choices: 8 }, 0).expect("follow-up"));
    assert_eq!((index, loss.to_bits()), (reference.0, reference.1.to_bits()));
    // …and so does the tenant's table: time out a mid-sized chain,
    // then run it to completion — the full answer still matches the
    // direct reference bit-for-bit, proving the aborted walk installed
    // nothing wrong (a 2ms budget cannot finish 2^12 cold candidates
    // in a debug build; if some heroic machine does finish, the winner
    // check below covers that case too).
    let _ = client.search(9, Workload::Chain { choices: 12 }, 2).expect("tight budget");
    let reference = direct_chain(12);
    let (index, loss, _) =
        expect_ok(client.search(9, Workload::Chain { choices: 12 }, 0).expect("full run"));
    assert_eq!((index, loss.to_bits()), (reference.0, reference.1.to_bits()));
    // A timed-out game reports no partial (minimax has no sound one).
    let resp = client
        .search(9, Workload::Game { branching: 4, depth: 10, seed: 3 }, 1)
        .expect("game deadline");
    match resp {
        Response::Timeout { partial } => assert_eq!(partial, None),
        Response::Ok { .. } => {} // a very fast machine may finish; fine
        other => panic!("expected Timeout or Ok, got {other:?}"),
    }
}

#[test]
fn epoch_bumps_invalidate_exactly_one_tenant() {
    let server = spawn(2, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    let w = Workload::Chain { choices: 9 };
    // Warm tenants A and B.
    let (ai, al, _) = expect_ok(client.search(201, w, 0).expect("warm A"));
    expect_ok(client.search(201, w, 0).expect("warm A repeat"));
    expect_ok(client.search(202, w, 0).expect("warm B"));
    // Bump A.
    let resp = client.bump_epoch(201).expect("bump");
    assert!(matches!(resp, Response::EpochBumped { epoch } if epoch >= 1), "got {resp:?}");
    // A is cold again: the repeat cannot be answered from the table…
    let (ai2, al2, a_after) = expect_ok(client.search(201, w, 0).expect("A after bump"));
    assert_eq!((ai2, al2.to_bits()), (ai, al.to_bits()), "bump changes cost, never answers");
    assert_eq!(
        a_after.summary_exact_hits + a_after.summary_bound_hits + a_after.cache_hits,
        0,
        "bumped tenant must recompute: {a_after:?}"
    );
    // …while B is still warm.
    let (_, _, b_after) = expect_ok(client.search(202, w, 0).expect("B after bump"));
    if caches_retain_warmth() {
        assert!(
            b_after.summary_exact_hits + b_after.cache_hits > 0,
            "neighbour tenant must stay warm: {b_after:?}"
        );
    }
}

#[test]
fn malformed_frames_are_rejected_without_killing_the_server() {
    let server = spawn(2, 8);
    let addr = server.addr();

    // A well-framed garbage payload: answered Malformed, session kept.
    let mut client = Client::connect(addr).expect("connect");
    let resp = client.send_raw(&[9, 1, 2, 3]).expect("garbage opcode");
    assert!(matches!(resp, Response::Malformed(ref m) if m.contains("opcode")), "got {resp:?}");
    // Same session still serves real requests.
    let reference = direct_chain(6);
    let (index, loss, _) =
        expect_ok(client.search(1, Workload::Chain { choices: 6 }, 0).expect("after garbage"));
    assert_eq!((index, loss.to_bits()), (reference.0, reference.1.to_bits()));

    // A workload that fails validation: Malformed with the reason.
    let resp = client.search(1, Workload::Chain { choices: 0 }, 0).expect("invalid workload");
    assert!(matches!(resp, Response::Malformed(ref m) if m.contains("choices")), "got {resp:?}");

    // A truncated frame (100-byte announcement, 10 bytes, hang up):
    // that session dies, the server does not.
    let mut truncated = Client::connect(addr).expect("connect");
    let mut wire = 100u32.to_be_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 10]);
    truncated.send_bytes(&wire).expect("truncated frame");
    drop(truncated);

    // A hostile length announcement: refused before allocation.
    let mut hostile = Client::connect(addr).expect("connect");
    hostile.send_bytes(&u32::MAX.to_be_bytes()).expect("hostile length");
    // Either a Malformed answer arrives, or the session closed before
    // it could — both are a refusal, not an allocation.
    if let Ok(resp) = hostile.read_response() {
        assert!(matches!(resp, Response::Malformed(_)), "got {resp:?}");
    }

    // After all of that, a fresh client still gets served.
    let mut fresh = Client::connect(addr).expect("connect");
    let (index, loss, _) =
        expect_ok(fresh.search(2, Workload::Chain { choices: 6 }, 0).expect("fresh client"));
    assert_eq!((index, loss.to_bits()), (reference.0, reference.1.to_bits()));
}

#[test]
fn admission_control_refuses_the_session_over_the_limit() {
    let server = spawn(1, 1);
    let addr = server.addr();
    // Session A fills the server; a completed round-trip proves it was
    // admitted (not still in the accept backlog).
    let mut a = Client::connect(addr).expect("connect A");
    expect_ok(a.search(1, Workload::Chain { choices: 4 }, 0).expect("A search"));
    assert_eq!(server.active_sessions(), 1);
    // Session B is refused outright with Busy.
    let mut b = Client::connect(addr).expect("connect B");
    let resp = b.read_response().expect("unsolicited Busy");
    assert_eq!(resp, Response::Busy);
    // A hangs up; the slot drains and a retry is admitted.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(10);
    let admitted = loop {
        let mut retry = Client::connect(addr).expect("reconnect");
        match retry.search(1, Workload::Chain { choices: 4 }, 0) {
            Ok(Response::Ok { .. }) => break true,
            _ => {
                if Instant::now() > deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert!(admitted, "the freed slot must admit a new session");
}

#[test]
fn disconnected_callers_stop_their_searches() {
    let server = spawn(1, 2);
    let addr = server.addr();
    {
        // Ask for a deep cold search with no deadline, then vanish: the
        // socket watch must fire the token — otherwise the search holds
        // the only slot while it grinds through 2^18 candidates for
        // nobody.
        let mut ghost = Client::connect(addr).expect("connect");
        let req = selc_serve::Request::Search {
            tenant: 3,
            deadline_ms: 0,
            workload: Workload::Chain { choices: 18 },
        };
        ghost.send_bytes(&u32::try_from(req.encode().len()).unwrap().to_be_bytes()).unwrap();
        ghost.send_bytes(&req.encode()).unwrap();
    } // dropped: the caller is gone
      // The session must drain far faster than the full search would
      // take in a debug build.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "ghost session never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    // And the slot is free again for a live caller.
    let reference = direct_chain(6);
    let mut live = Client::connect(addr).expect("connect");
    let (index, loss, _) =
        expect_ok(live.search(4, Workload::Chain { choices: 6 }, 0).expect("live search"));
    assert_eq!((index, loss.to_bits()), (reference.0, reference.1.to_bits()));
}

#[test]
fn pipelined_requests_are_not_hang_ups() {
    let server = spawn(1, 2);
    let mut client = Client::connect(server.addr()).expect("connect");
    // The second request is on the wire while the first, cold and
    // undeadlined, is still searching: the session's socket watch sees
    // bytes waiting, which means a live client, not a hang-up.
    for (tenant, choices) in [(6, 14), (6, 6)] {
        let req = selc_serve::Request::Search {
            tenant,
            deadline_ms: 0,
            workload: Workload::Chain { choices },
        };
        let payload = req.encode();
        client.send_bytes(&u32::try_from(payload.len()).unwrap().to_be_bytes()).unwrap();
        client.send_bytes(&payload).unwrap();
    }
    for choices in [14, 6] {
        let reference = direct_chain(choices);
        let (index, loss, _) = expect_ok(client.read_response().expect("pipelined reply"));
        assert_eq!(
            (index, loss.to_bits()),
            (reference.0, reference.1.to_bits()),
            "chain {choices}"
        );
    }
}

#[test]
fn metrics_scrape_reports_live_telemetry() {
    let server = spawn(2, 4);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    // A mixed workload: a cold chain, its warm repeat, and a game
    // solve — enough to light up the serve histograms, the engine
    // counters, and the cache counters all at once.
    expect_ok(client.search(31, Workload::Chain { choices: 8 }, 0).expect("cold chain"));
    expect_ok(client.search(31, Workload::Chain { choices: 8 }, 0).expect("warm chain"));
    expect_ok(
        client.search(31, Workload::Game { branching: 3, depth: 4, seed: 5 }, 0).expect("game"),
    );
    let resp = client.metrics().expect("scrape");
    let Response::Metrics(wire) = resp else {
        panic!("expected Metrics, got {resp:?}");
    };
    let snap = wire.to_snapshot();
    if selc_obs::metrics::configured_metrics() == Some(false) {
        // An explicit SELC_METRICS=0 run records nothing; the scrape
        // path itself (above) is still exercised.
        return;
    }
    // Per-op latency histograms saw our requests (metrics are
    // process-global, so other tests only ever add counts).
    assert!(snap.histogram("serve.latency_us.chain").count() >= 2, "chain latencies recorded");
    assert!(snap.histogram("serve.latency_us.game").count() >= 1, "game latency recorded");
    // Live-state gauges and refusal/abort counters are registered and
    // travel the wire even at their resting values.
    assert!(snap.get("serve.queue_depth").is_some(), "queue-depth gauge scrapeable");
    assert!(snap.get("serve.admission_rejects").is_some(), "reject counter scrapeable");
    // Engine, cache, and game-solver telemetry flows through the same
    // scrape: searches ran, the tenant caches were consulted, and the
    // prune counter exists for when bounds do fire.
    assert!(snap.counter("engine.searches") >= 3, "engine searches counted");
    assert!(snap.counter("cache.hits") + snap.counter("cache.misses") > 0, "caches consulted");
    assert!(snap.get("engine.pruned").is_some(), "prune counter scrapeable");
    assert!(snap.counter("games.ab_solves") >= 1, "game solves counted");
    // And the snapshot renders: one line per metric, usable as a
    // plain-text exposition format.
    let text = snap.render_text();
    assert!(text.lines().count() == snap.entries.len());
    assert!(text.contains("serve.latency_us.chain"));
}

#[test]
fn idle_sessions_do_not_starve_searches() {
    let server = spawn(2, 8);
    let addr = server.addr();
    // Two admitted sessions that never send a byte: one per slot.
    let _idle: Vec<Client> = (0..2).map(|_| Client::connect(addr).expect("connect idle")).collect();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let _ = tx.send(client.search(5, Workload::Chain { choices: 6 }, 0));
    });
    let reply = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("idle sessions held every worker: the third client was never answered");
    let (index, loss, _) = expect_ok(reply.expect("search"));
    let reference = direct_chain(6);
    assert_eq!((index, loss.to_bits()), (reference.0, reference.1.to_bits()));
}

#[test]
fn shutdown_closes_idle_and_searching_sessions_promptly() {
    let mut server = spawn(1, 4);
    let addr = server.addr();
    let mut idle = Client::connect(addr).expect("connect idle");
    expect_ok(idle.search(1, Workload::Chain { choices: 4 }, 0).expect("idle session's search"));
    // Two undeadlined deep searches on one search slot: one runs, one
    // waits for the slot.
    let replies: Vec<_> = (0..2)
        .map(|t| {
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let mut deep = Client::connect(addr).expect("connect deep");
                let _ = tx.send(deep.search(40 + t, Workload::Chain { choices: 18 }, 0));
            });
            rx
        })
        .collect();
    // Wait until both deep sessions are admitted, then give their frames
    // a moment to arrive. Whether the second session is still waiting
    // for the slot or finds the slots closed, the assertions below are
    // the same.
    let admitted = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() < 3 {
        assert!(Instant::now() < admitted, "deep sessions were never admitted");
        thread::sleep(Duration::from_millis(5));
    }
    thread::sleep(Duration::from_millis(100));
    // Shut down from a helper thread that hands the server back, so the
    // handle stays alive while the clients are checked.
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(server);
    });
    let _server = rx.recv_timeout(Duration::from_secs(10)).expect("shutdown never returned");
    for reply in replies {
        let reply =
            reply.recv_timeout(Duration::from_secs(10)).expect("a deep session was never closed");
        assert!(reply.is_err(), "a search cut off by shutdown gets a transport error: {reply:?}");
    }
    assert!(
        idle.search(1, Workload::Chain { choices: 4 }, 0).is_err(),
        "the idle session is closed by shutdown"
    );
}

#[test]
fn shutdown_is_clean_and_idempotent() {
    let mut server = spawn(2, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    expect_ok(client.search(1, Workload::Chain { choices: 5 }, 0).expect("search"));
    server.shutdown();
    server.shutdown(); // idempotent
    assert!(
        client.search(1, Workload::Chain { choices: 5 }, 0).is_err(),
        "sessions are force-closed on shutdown"
    );
}
