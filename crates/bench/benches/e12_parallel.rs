//! E12: the `selc-engine` execution layer — branch-and-bound pruning
//! on and off, on two workloads:
//!
//! * `hyper_grid` — grid search over whole handler-SGD training runs
//!   (`selc_ml::parallel::tune_training_run`): `sequential` trains every
//!   run in index order, and `race` is what any pruning engine runs — a
//!   best-first race on the calling thread, whatever its worker count,
//!   in which most rates diverge and stop after a few data points;
//! * `minimax_root` — root-split minimax over a random table
//!   (`selc_games::parallel::minimax_root_split`), each row's subgame
//!   solved by the ordinary `hmin` handler, rows scanned in index order
//!   on the calling thread.
//!
//! Flat scans run on the calling thread at every worker count, so no
//! row varies the worker count. `SELC_BENCH_SMOKE=1` shrinks every size
//! for the CI smoke run; the pruning rows must beat their unpruned
//! `sequential` rows (and the differential suites pin down that winners
//! never change either way).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use selc_engine::Engine;
use selc_games::bimatrix::Matrix;
use selc_games::parallel::minimax_root_split;
use selc_ml::dataset::Dataset;
use selc_ml::parallel::tune_training_run;

fn smoke() -> bool {
    std::env::var("SELC_BENCH_SMOKE").is_ok()
}

/// A grid whose entry 0 converges and where three of every four rates
/// diverge violently.
fn rate_grid(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| if i % 4 == 0 { 0.02 + 0.01 * (i / 4) as f64 } else { 1.2 + 0.05 * i as f64 })
        .collect()
}

fn bench_hyper_grid(c: &mut Criterion) {
    let (points, epochs, grid_len) = if smoke() { (8, 1, 6) } else { (24, 3, 16) };
    let data = Dataset::linear(points, 2.0, -1.0, 0.05, 3);
    let grid = rate_grid(grid_len);
    let mut g = c.benchmark_group("e12_parallel/hyper_grid");
    g.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(tune_training_run(
                &Engine::exhaustive(),
                grid.clone(),
                &data,
                (0.0, 0.0),
                epochs,
            ))
        });
    });
    let race = Engine::with_threads(1);
    g.bench_function("race", |b| {
        b.iter(|| black_box(tune_training_run(&race, grid.clone(), &data, (0.0, 0.0), epochs)));
    });
    g.finish();
}

fn bench_minimax_root(c: &mut Criterion) {
    let (rows, cols) = if smoke() { (4, 8) } else { (12, 40) };
    let table = Matrix::random(rows, cols, 11);
    let mut g = c.benchmark_group("e12_parallel/minimax_root");
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(minimax_root_split(&table, &Engine::exhaustive())));
    });
    g.bench_function("sequential+prune", |b| {
        b.iter(|| black_box(minimax_root_split(&table, &Engine::with_threads(1))));
    });
    g.finish();
}

criterion_group!(benches, bench_hyper_grid, bench_minimax_root);
criterion_main!(benches);
