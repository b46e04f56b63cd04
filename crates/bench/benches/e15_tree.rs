//! E15: prefix-sharing tree search vs the flat forced-path scan.
//!
//! PR 4's bridge fans a depth-`d` compiled program out as `2^d` forced
//! paths, each replayed from the root — O(2^d · d) machine segments. The
//! tree search suspends the machine at each choice point and resumes
//! both branches from the shared prefix snapshot — O(2^d) segments, one
//! per tree node. This family times the uncached tree walk on a deep
//! probing chain (the workload of E14's `decide_search`, at three times
//! the depth); the flat scan runs once, as the reference the winner is
//! asserted against. The cached walks over the same chain, cold and
//! warm, are E16's rows, together with their stats lines.
//!
//! The `two_walkers` row runs two OS threads, each walking a chain-10
//! space with a one-worker engine, first both over one shared space and
//! then each over its own compiled copy, and prints the median ratio of
//! the shared to the private walk time over 5 rounds: what two workers
//! on one program still both write shows up as a ratio above 1.
//!
//! With `SELC_TRACE=<path>` set, the engine spans of the runs are
//! flushed as chrome://tracing JSON after timing. `SELC_BENCH_SMOKE=1`
//! shrinks the chain for CI.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lambda_c::testgen::deep_decide_chain;
use lambda_rt::tree::LcTreeEval;
use lambda_rt::{search_compiled, search_compiled_flat, LcCandidates};
use selc_bench::stats_line;
use selc_engine::Engine;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var("SELC_BENCH_SMOKE").is_ok()
}

/// A freshly compiled decide chain of `choices` decisions.
fn chain(choices: u32) -> LcCandidates {
    let p = deep_decide_chain(choices);
    LcCandidates::new(lambda_c::compile(&p.expr).expect("compiles"), ["decide".to_owned()], choices)
}

fn bench_tree_vs_flat(c: &mut Criterion) {
    let choices = if smoke() { 10 } else { 18 };
    let cands = chain(choices);
    let tree_eng = Engine::with_threads(4);

    // Bit-identical winners, asserted once before timing: the sequential
    // tree walk against the flat scan over all 2^choices paths.
    let (tree_ref, tree_val) = search_compiled(&Engine::exhaustive(), &cands).unwrap();
    let flat_eng = Engine::with_threads(4).without_pruning();
    let (flat_ref, flat_val) = search_compiled_flat(&flat_eng, &cands).unwrap();
    assert_eq!((tree_ref.index, tree_ref.loss.clone()), (flat_ref.index, flat_ref.loss));
    assert_eq!(tree_val, flat_val);

    let mut g = c.benchmark_group(format!("e15_tree/probing{choices}"));
    g.bench_function("tree_cold", |b| b.iter(|| black_box(search_compiled(&tree_eng, &cands))));
    g.finish();

    // With `SELC_TRACE=<path>` set, every engine worker recorded
    // claim/eval/subtree spans into its ring during the runs above;
    // dump them as chrome://tracing JSON (the CI smoke parses the file
    // back to prove it is well-formed).
    match selc_obs::trace::flush_if_configured() {
        Ok(Some((path, events))) => println!("e15_tree trace: flushed {events} events to {path}"),
        Ok(None) => {}
        Err(e) => eprintln!("e15_tree trace: flush failed: {e}"),
    }
}

/// Mean wall time of one walk when two threads each walk their space
/// `WALKS` times at once.
fn walk_pair(spaces: [&LcCandidates; 2]) -> f64 {
    const WALKS: u32 = 20;
    let engine = Engine::with_threads(1);
    let elapsed: f64 = std::thread::scope(|s| {
        let walkers = spaces.map(|space| {
            let engine = &engine;
            s.spawn(move || {
                let eval = LcTreeEval::new(space.clone());
                let start = Instant::now();
                for _ in 0..WALKS {
                    black_box(engine.search(&eval));
                }
                start.elapsed().as_secs_f64()
            })
        });
        walkers.into_iter().map(|w| w.join().expect("a walker finishes")).sum()
    });
    elapsed / f64::from(2 * WALKS)
}

fn bench_two_walkers(_: &mut Criterion) {
    const ROUNDS: usize = 5;
    let shared = chain(10);
    let private = [chain(10), chain(10)];
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|_| walk_pair([&shared, &shared]) / walk_pair([&private[0], &private[1]]))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let pairs = [("median", ratios[ROUNDS / 2]), ("min", ratios[0]), ("max", ratios[ROUNDS - 1])];
    println!("{}", stats_line("e15_tree/two_walkers", "shared_over_private", &pairs));
}

criterion_group! {
    name = benches;
    // The cold tree walks take up to seconds per iteration at 18
    // decisions; two samples of one iteration each keep the recording
    // honest without an hour-long run.
    config = Criterion::default().sample_size(2).measurement_time(Duration::from_millis(200)).warm_up_time(Duration::from_millis(50));
    targets = bench_tree_vs_flat, bench_two_walkers
}
criterion_main!(benches);
