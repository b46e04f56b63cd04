//! E17: served search throughput — sessions, deadlines, warm tenants.
//!
//! The service's pitch is that warmth outlives requests: a tenant's
//! second identical search is answered from subtree summaries over a
//! socket round-trip, not recomputed. This family spawns an in-process
//! `selc-serve` on an ephemeral loopback port and measures end-to-end
//! request throughput at 1/2/4/8 concurrent clients, **cold** (every
//! request a fresh tenant, so every search recomputes and refills) vs
//! **warm** (all requests repeat one pre-warmed tenant, so every search
//! is a summary probe plus protocol overhead).
//!
//! Before any timing, winners are gated bit-identical — loss bits *and*
//! index — against the direct sequential flat scan, and a 1ms-deadline
//! request on a deep chain must come back `Timeout` while the session
//! keeps serving; a throughput number for a server that returns wrong
//! or hung answers would be noise.
//!
//! Each throughput run prints a `<label> serve searches_per_sec=…
//! requests=… elapsed_ms=… p50_us=… p99_us=…` stats line; after the
//! usual criterion median for the warm single-request path comes a
//! `<label> metrics p50_us=… p90_us=… p99_us=…` stats line scraped from
//! the *server's* latency histogram over the protocol — the registry's
//! view next to the client's in the same snapshot, since
//! `selc-bench-record` records both. `SELC_BENCH_SMOKE=1` shrinks the
//! workload.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use selc_bench::stats_line;
use selc_serve::{Client, Response, ServeConfig, Server, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var("SELC_BENCH_SMOKE").is_ok()
}

/// Fresh-tenant ids for cold requests, disjoint from the warm tenant.
static NEXT_TENANT: AtomicU64 = AtomicU64::new(1000);

const WARM_TENANT: u64 = 1;

fn expect_ok(resp: Response) -> (u64, f64) {
    match resp {
        Response::Ok { index, loss, .. } => (index, loss),
        other => panic!("expected Ok, got {other:?}"),
    }
}

/// The direct (no server, no cache) reference winner.
fn direct_chain(choices: u8) -> (u64, f64) {
    let p = lambda_c::testgen::deep_decide_chain(u32::from(choices));
    let cands = lambda_rt::LcCandidates::new(
        lambda_c::compile(&p.expr).expect("testgen chains compile"),
        ["decide".to_owned()],
        u32::from(choices),
    );
    let (out, _) =
        lambda_rt::search_compiled_flat(&selc_engine::SequentialEngine::exhaustive(), &cands)
            .expect("non-empty space");
    (out.index as u64, out.loss.0.as_scalar())
}

/// Drives `clients` concurrent loopback clients for `per_client`
/// requests each and prints its `serve` stats line.
fn throughput(
    addr: std::net::SocketAddr,
    label: &str,
    clients: usize,
    per_client: usize,
    w: Workload,
    warm: bool,
) {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut lat_us = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let tenant = if warm {
                        WARM_TENANT
                    } else {
                        NEXT_TENANT.fetch_add(1, Ordering::Relaxed)
                    };
                    let t0 = Instant::now();
                    let resp = client.search(tenant, w, 0).expect("search");
                    lat_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
                    assert!(matches!(resp, Response::Ok { .. }), "got {resp:?}");
                }
                lat_us
            })
        })
        .collect();
    let mut lat_us: Vec<u64> = Vec::new();
    for h in handles {
        lat_us.extend(h.join().expect("client thread"));
    }
    let elapsed = started.elapsed();
    lat_us.sort_unstable();
    let requests = lat_us.len();
    let pct = |p: usize| lat_us[(requests - 1) * p / 100];
    let per_sec = requests as f64 / elapsed.as_secs_f64();
    let pairs = [
        ("searches_per_sec", format!("{per_sec:.1}")),
        ("requests", requests.to_string()),
        ("elapsed_ms", format!("{:.1}", elapsed.as_secs_f64() * 1e3)),
        ("p50_us", pct(50).to_string()),
        ("p99_us", pct(99).to_string()),
    ];
    println!("{}", stats_line(label, "serve", &pairs));
}

fn bench_serve(c: &mut Criterion) {
    let choices: u8 = if smoke() { 8 } else { 12 };
    let server =
        Server::spawn(ServeConfig::loopback(8, 64)).expect("bind an ephemeral loopback port");
    let addr = server.addr();
    let w = Workload::Chain { choices };

    // Bit-identity gate before any timing: served == direct, cold and
    // warm alike (the warm repeat also pre-warms WARM_TENANT).
    let (ref_index, ref_loss) = direct_chain(choices);
    let mut gate = Client::connect(addr).expect("connect");
    for round in ["cold", "warm"] {
        let (index, loss) = expect_ok(gate.search(WARM_TENANT, w, 0).expect("gate search"));
        assert_eq!(
            (index, loss.to_bits()),
            (ref_index, ref_loss.to_bits()),
            "served {round} winner must be bit-identical to the direct scan"
        );
    }
    // Liveness gate: a 1ms deadline on a deep cold chain times out and
    // the session keeps answering.
    let deep = Workload::Chain { choices: if smoke() { 16 } else { 18 } };
    let resp = gate.search(NEXT_TENANT.fetch_add(1, Ordering::Relaxed), deep, 1).expect("deadline");
    assert!(matches!(resp, Response::Timeout { .. }), "expected Timeout, got {resp:?}");
    let (index, _) = expect_ok(gate.search(WARM_TENANT, w, 0).expect("post-timeout search"));
    assert_eq!(index, ref_index, "session must keep serving after a timeout");

    // The headline numbers: throughput at 1/2/4/8 concurrent clients,
    // cold tenants vs the one warm tenant.
    let per_client_cold = if smoke() { 3 } else { 6 };
    let per_client_warm = if smoke() { 16 } else { 64 };
    for clients in [1usize, 2, 4, 8] {
        throughput(
            addr,
            &format!("e17_serve/clients{clients}/cold"),
            clients,
            per_client_cold,
            w,
            false,
        );
        throughput(
            addr,
            &format!("e17_serve/clients{clients}/warm"),
            clients,
            per_client_warm,
            w,
            true,
        );
    }

    // A criterion median for the snapshot: one warm request end-to-end
    // (socket round-trip + summary probe).
    let mut g = c.benchmark_group(format!("e17_serve/chain{choices}"));
    let mut client = Client::connect(addr).expect("connect");
    g.bench_function("warm_request", |b| {
        b.iter(|| black_box(client.search(WARM_TENANT, w, 0).expect("warm request")))
    });
    g.finish();

    // The server's own view of the same traffic: scrape the registry
    // over the protocol and print the chain-latency percentiles as a
    // `metrics` stats line. The server records unless
    // `SELC_METRICS=0` (overhead runs) asked it not to, in which case
    // the histogram is empty and there is nothing to print.
    let resp = client.metrics().expect("metrics scrape");
    let Response::Metrics(wire) = resp else { panic!("expected Metrics, got {resp:?}") };
    let hist = wire.to_snapshot().histogram("serve.latency_us.chain");
    if let (Some(p50), Some(p90), Some(p99)) =
        (hist.percentile(50), hist.percentile(90), hist.percentile(99))
    {
        let pairs = [("p50_us", p50), ("p90_us", p90), ("p99_us", p99)];
        println!("{}", stats_line(&format!("e17_serve/chain{choices}/scraped"), "metrics", &pairs));
    }
}

criterion_group! {
    name = benches;
    // Each cold iteration refills a tenant from scratch; small samples
    // keep the recording honest without a marathon run.
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_millis(400)).warm_up_time(Duration::from_millis(100));
    targets = bench_serve
}
criterion_main!(benches);
