//! E16: subtree summaries — warm repeats in O(depth), not O(leaves).
//!
//! BENCH_4 exposed the warm path as the slow path: the leaf-only
//! transposition table made a warm repeat of the cached tree search walk
//! all 2^18 candidates again (1.05s of probes against 107ms for a cold
//! pruned fill). Interior-node summaries collapse that walk: an exact
//! summary answers its whole subtree in one probe, so a warm repeat
//! touches O(depth) positions. The table now holds summaries only. This
//! family times the same 18-decision probing chain as E15, cold and
//! warm, and rides the flagged alpha–beta transposition table (the
//! minimax face of the same design) alongside. Winners are asserted
//! bit-identical — loss *and* index — between cached, uncached, and
//! sequential searches before any timing runs.
//!
//! After timing, each cached tree search prints `<label> cache …`,
//! `<label> summary exact_hits=…` and `<label> search evaluated=…
//! pruned=…` stats lines, and one cold alpha–beta solve and its warm
//! repeat a `cache` line each, which `selc-bench-record` records under
//! those section names.
//! `SELC_BENCH_SMOKE=1` shrinks the workloads for CI.
//!
//! The `state_keys16` group times a cold single-worker chain-16 walk on
//! a fresh table, where nodes that reach one machine state share one
//! subtree, beside the uncached walk of the same space, and prints the
//! nodes each materialises (131 071 for the uncached walk). It runs at
//! the same size under the smoke flag.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lambda_c::testgen::deep_decide_chain;
use lambda_rt::{search_compiled, search_compiled_cached, LcCandidates, LcTransCache, OrdLossVal};
use selc_bench::stats_line;
use selc_engine::{CancelToken, Engine, Outcome};
use selc_games::alternating::{AbCache, GameTree};
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var("SELC_BENCH_SMOKE").is_ok()
}

fn bench_summaries(c: &mut Criterion) {
    let choices = if smoke() { 10 } else { 18 };
    let p = deep_decide_chain(choices);
    let cands = LcCandidates::new(
        lambda_c::compile(&p.expr).expect("compiles"),
        ["decide".to_owned()],
        choices,
    );
    let engine = Engine::with_threads(4);

    // Bit-identity gate: cached (cold and warm) == uncached on the same
    // engine == sequential, before anything is timed.
    let (reference, ref_val) = search_compiled(&Engine::exhaustive(), &cands).unwrap();
    let (uncached, v) = search_compiled(&engine, &cands).unwrap();
    assert_eq!((uncached.index, uncached.loss), (reference.index, reference.loss.clone()));
    assert_eq!(v, ref_val, "uncached value");
    let cert = cands.certificate().expect("chain corpus is flow-certifiable");
    let warm = LcTransCache::unbounded(8);
    for round in ["cold", "warm"] {
        let (out, v) = search_compiled_cached(&engine, &cands, &warm, None).unwrap();
        assert_eq!(
            (out.index, out.loss.clone()),
            (reference.index, reference.loss.clone()),
            "cached {round} winner"
        );
        assert_eq!(v, ref_val, "cached {round} value");
    }

    // The acceptance target, measured outright: a warm summarised
    // repeat must run ≥50× under BENCH_4's 1.05s warm path (21ms) — it
    // is an O(depth) walk, so the margin is enormous.
    let t0 = Instant::now();
    let _ = black_box(search_compiled_cached(&engine, &cands, &warm, None));
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(21),
        "warm summarised repeat must be O(depth): took {elapsed:?}"
    );

    let mut g = c.benchmark_group(format!("e16_summaries/probing{choices}"));
    g.bench_function("tree_cached_cold", |b| {
        b.iter(|| {
            let cache = LcTransCache::unbounded(8);
            black_box(search_compiled_cached(&engine, &cands, &cache, Some(cert)))
        })
    });
    g.bench_function("tree_cached_warm", |b| {
        b.iter(|| black_box(search_compiled_cached(&engine, &cands, &warm, None)))
    });
    g.finish();

    // Representative stats for the snapshot recorder: a cold-table fill
    // (the space's shared best-seen cell is already armed by this point,
    // so the pruned fill is itself seeded) and the fully-warm summarised
    // repeat.
    let cache = LcTransCache::unbounded(8);
    let (cold, _) = search_compiled_cached(&engine, &cands, &cache, Some(cert)).unwrap();
    assert_eq!(cold.index, reference.index);
    let (warm_out, _) = search_compiled_cached(&engine, &cands, &warm, None).unwrap();
    assert_eq!(warm_out.index, reference.index);
    for (row, out) in [("tree_cached_cold", &cold), ("tree_cached_warm", &warm_out)] {
        let label = format!("e16_summaries/probing{choices}/{row}");
        let (c, s) = (&out.stats.cache, &out.stats.summary);
        let cache = [
            ("hits", c.hits),
            ("misses", c.misses),
            ("insertions", c.insertions),
            ("evictions", c.evictions),
        ];
        let summary = [
            ("exact_hits", s.exact_hits),
            ("state_hits", s.state_hits),
            ("bound_hits", s.bound_hits),
            ("misses", s.misses),
            ("exact_installs", s.exact_installs),
            ("bound_installs", s.bound_installs),
        ];
        let search = [("evaluated", out.stats.evaluated), ("pruned", out.stats.pruned)];
        println!("{}", stats_line(&label, "cache", &cache));
        println!("{}", stats_line(&label, "summary", &summary));
        println!("{}", stats_line(&label, "search", &search));
    }
}

fn bench_state_keys(c: &mut Criterion) {
    let choices = 16;
    let p = deep_decide_chain(choices);
    let cands = LcCandidates::new(
        lambda_c::compile(&p.expr).expect("compiles"),
        ["decide".to_owned()],
        choices,
    );
    // One worker, so the counts printed below are deterministic.
    let engine = Engine::with_threads(1);
    let cold = || {
        let cache = LcTransCache::unbounded(8);
        search_compiled_cached(&engine, &cands, &cache, None).expect("a chain has a winner").0
    };
    // Every interior node is probed once, answered or not.
    let nodes = |out: &Outcome<OrdLossVal>| out.stats.evaluated + out.stats.summary.probes();
    let (plain, _) = search_compiled(&engine, &cands).unwrap();
    let keyed = cold();
    assert_eq!(
        (keyed.index, &keyed.loss),
        (plain.index, &plain.loss),
        "state keys keep the winner"
    );
    assert_eq!(nodes(&plain), (1 << (choices + 1)) - 1, "the uncached walk visits every node");

    let mut g = c.benchmark_group(format!("e16_summaries/state_keys{choices}"));
    g.bench_function("tree_cached_cold", |b| b.iter(|| black_box(cold())));
    g.bench_function("tree_uncached", |b| b.iter(|| black_box(search_compiled(&engine, &cands))));
    g.finish();

    let (s, summary) = (&keyed.stats, &keyed.stats.summary);
    let search = [
        ("nodes", nodes(&keyed)),
        ("uncached_nodes", nodes(&plain)),
        ("evaluated", s.evaluated),
        ("state_hits", summary.state_hits),
        ("exact_installs", summary.exact_installs),
    ];
    let label = format!("e16_summaries/state_keys{choices}/tree_cached_cold");
    println!("{}", stats_line(&label, "search", &search));
}

fn bench_alphabeta_tt(c: &mut Criterion) {
    let depth = if smoke() { 5 } else { 9 };
    let t = GameTree::random(4, depth, 42);
    let reference = t.solve_backward();
    let never = CancelToken::never();
    let solve_tt = |cache: &AbCache| {
        t.solve_alphabeta_tt_cancellable(cache, &never).expect("a never token cannot cancel")
    };
    let warm = AbCache::unbounded(8);
    let (play, value, _) = solve_tt(&warm);
    assert_eq!((play, value), reference, "flagged table == backward induction");
    let (play, value, _) = solve_tt(&warm);
    assert_eq!((play, value), reference, "warm repeat");

    let mut g = c.benchmark_group(format!("e16_summaries/game4x{depth}"));
    g.bench_function("alphabeta", |b| b.iter(|| black_box(t.solve_alphabeta())));
    g.bench_function("alphabeta_tt_cold", |b| {
        b.iter(|| {
            let cache = AbCache::unbounded(8);
            black_box(solve_tt(&cache))
        })
    });
    g.bench_function("alphabeta_tt_warm", |b| b.iter(|| black_box(solve_tt(&warm))));
    g.finish();

    // One cold solve's and one warm repeat's table traffic (the warm
    // delta against the bench churn): the cold solve misses and stores
    // the root only, the warm repeat hits it and evaluates no leaf.
    let cold = AbCache::unbounded(8);
    solve_tt(&cold);
    let base = warm.stats();
    let (_, _, warm_leaves) = solve_tt(&warm);
    assert_eq!(warm_leaves, 0, "warm repeats answer from the root entry");
    for (name, c) in [("cold", cold.stats()), ("warm", warm.stats().since(&base))] {
        let cache = [
            ("hits", c.hits),
            ("misses", c.misses),
            ("insertions", c.insertions),
            ("evictions", c.evictions),
        ];
        let label = format!("e16_summaries/game4x{depth}/alphabeta_tt_{name}");
        println!("{}", stats_line(&label, "cache", &cache));
    }
}

criterion_group! {
    name = benches;
    // Cold fills walk 2^18 leaves per iteration; small sample counts
    // keep the recording honest without an hour-long run.
    config = Criterion::default().sample_size(2).measurement_time(Duration::from_millis(200)).warm_up_time(Duration::from_millis(50));
    targets = bench_summaries, bench_state_keys, bench_alphabeta_tt
}
criterion_main!(benches);
