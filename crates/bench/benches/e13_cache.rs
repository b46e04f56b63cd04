//! E13: the `selc-cache` memoisation subsystem — cache off vs. unbounded
//! vs. bounded, on a repeated-subproblem workload: `hyper_grid`, the
//! batched `tuneLR` tuner over a grid with heavy rate duplication,
//! per-batch local memoisation against the shared rate cache, cold,
//! warm, and bounded (CLOCK, forced eviction).
//!
//! After timing, the workload prints one `<label> cache hits=… misses=…
//! insertions=… evictions=…` stats line per cached configuration, which
//! `selc-bench-record` records under `"cache"` in `BENCH_<n>.json`, so
//! snapshots carry hit rates alongside medians. `SELC_BENCH_SMOKE=1`
//! shrinks every size for the CI smoke run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use selc_bench::stats_line;
use selc_cache::{ShardedCache, SharedCache};
use selc_engine::Engine;
use selc_ml::parallel::tune_lr_parallel;
use std::sync::Arc;

fn smoke() -> bool {
    std::env::var("SELC_BENCH_SMOKE").is_ok()
}

fn engine() -> Engine {
    Engine::with_threads(4).without_pruning()
}

/// A grid with heavy duplication: `len` entries drawn from 4 distinct
/// rates — the duplicate-rate workload where shared caching pays.
fn dup_grid(len: usize) -> Vec<f64> {
    (0..len).map(|i| [0.5, 0.25, 0.1, 0.75][i % 4]).collect()
}

fn bench_hyper_grid(c: &mut Criterion) {
    let (grid_len, steps) = if smoke() { (8, 200) } else { (24, 4000) };
    let grid = dup_grid(grid_len);
    // The future behind the Lrate op is a whole (simulated) training
    // run — the expensive rate evaluation the cache is meant to share.
    let program = move || {
        selc::perform::<f64, selc_ml::hyper::Lrate>(()).and_then(move |alpha| {
            let mut p = 0.0_f64;
            for _ in 0..steps {
                p -= alpha * 2.0 * (p - 3.0);
            }
            let e = p - 3.0;
            selc::loss(e * e).map(move |_| p)
        })
    };
    let eng = engine();
    let mut g = c.benchmark_group("e13_cache/hyper_grid");
    g.bench_function("uncached", |b| {
        b.iter(|| black_box(tune_lr_parallel(&eng, grid.clone(), 1, program, None)));
    });
    g.bench_function("cached_cold", |b| {
        b.iter(|| {
            let cache: SharedCache<u64, f64> = Arc::new(ShardedCache::unbounded(4));
            black_box(tune_lr_parallel(&eng, grid.clone(), 1, program, Some(&cache)))
        });
    });
    g.bench_function("cached_bounded2", |b| {
        b.iter(|| {
            let cache: SharedCache<u64, f64> = Arc::new(ShardedCache::clock_lru(2, 2));
            black_box(tune_lr_parallel(&eng, grid.clone(), 1, program, Some(&cache)))
        });
    });
    let warm: SharedCache<u64, f64> = Arc::new(ShardedCache::unbounded(4));
    let _ = tune_lr_parallel(&eng, grid.clone(), 1, program, Some(&warm));
    g.bench_function("cached_warm", |b| {
        b.iter(|| black_box(tune_lr_parallel(&eng, grid.clone(), 1, program, Some(&warm))));
    });
    g.finish();

    let uncached = tune_lr_parallel(&eng, grid.clone(), 1, program, None);
    let cache: SharedCache<u64, f64> = Arc::new(ShardedCache::unbounded(4));
    let cold = tune_lr_parallel(&eng, grid.clone(), 1, program, Some(&cache));
    assert_eq!(cold.alpha, uncached.alpha, "cached and uncached winners agree");
    let warm_out = tune_lr_parallel(&eng, grid, 1, program, Some(&cache));
    assert_eq!(warm_out.alpha, uncached.alpha);
    for (config, out) in [("cached_cold", &cold), ("cached_warm", &warm_out)] {
        let s = &out.stats.cache;
        let pairs = [
            ("hits", s.hits),
            ("misses", s.misses),
            ("insertions", s.insertions),
            ("evictions", s.evictions),
        ];
        println!("{}", stats_line(&format!("e13_cache/hyper_grid/{config}"), "cache", &pairs));
    }
}

criterion_group!(benches, bench_hyper_grid);
criterion_main!(benches);
