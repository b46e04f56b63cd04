//! The `selc-engine` execution layer, end to end: parallel root-split
//! minimax, branch-and-bound hyperparameter tuning, batched `tuneLR`
//! with memoised probes, the `selc-cache` shared-memoisation layer
//! (shared-cache tuning, transposition minimax), and parallel n-queens.
//!
//! ```sh
//! SELC_THREADS=4 cargo run --release --example parallel_search
//! ```

use selc_engine::{configured_threads, Engine};
use selc_games::bimatrix::Matrix;
use selc_games::parallel::{minimax_root_split, queens_parallel};
use selc_games::queens::is_solution;
use selc_games::transposition::{solve_root_split, SymTree};
use selc_ml::dataset::Dataset;
use selc_ml::optimize::gd_handler_tuned;
use selc_ml::parallel::{tune_lr_parallel, tune_training_run};

fn main() {
    println!("worker pool: {} threads (SELC_THREADS to override)", configured_threads());

    // 1. Root-split minimax: each worker solves the minimiser's reply to
    //    one row with the ordinary hmin handler; the winner is
    //    bit-identical to the sequential hmax ∘ hmin nesting.
    let table = Matrix::random(8, 8, 42);
    let engine = Engine::auto();
    let ((row, col), value) = minimax_root_split(&table, &engine);
    let (srow, scol, svalue) = table.maximin();
    assert_eq!(((row, col), value), ((srow, scol), svalue));
    println!("minimax 8x8: play ({row}, {col}), value {value:.3}");

    // 2. Branch-and-bound tuning over whole SGD training runs: diverging
    //    rates are aborted as soon as their running loss is dominated.
    let data = Dataset::linear(24, 2.0, -1.0, 0.05, 3);
    let grid = vec![0.02, 1.4, 1.6, 0.05, 1.8, 2.0, 0.08, 1.2];
    let tuned = tune_training_run(&engine, grid.clone(), &data, (0.0, 0.0), 3);
    let sequential = tune_training_run(&Engine::exhaustive(), grid, &data, (0.0, 0.0), 3);
    assert_eq!(tuned.alpha, sequential.alpha);
    println!(
        "training-run grid: rate {} (total loss {:.3}) — {} runs finished, {} aborted early",
        tuned.alpha, tuned.err, tuned.stats.evaluated, tuned.stats.pruned
    );

    // 3. Batched tuneLR: the paper's grid-search handler, its grid split
    //    into batches rebuilt on workers; duplicate rates inside a
    //    batch are answered by the MemoChoice cache.
    let program = || {
        let prog = selc::perform::<f64, selc_ml::optimize::Optimize>(vec![0.0]).and_then(|p| {
            let e = p[0] - 3.0;
            selc::loss(e * e).map(move |_| p.clone())
        });
        selc::handle(&gd_handler_tuned(), prog)
    };
    let out = tune_lr_parallel(&engine, vec![1.0, 0.5, 1.0, 0.5, 0.25, 0.25], 2, program, None);
    println!(
        "batched tuneLR: rate {} (err {:.3}) — cache: {} real probes, {} hits",
        out.alpha, out.err, out.stats.cache.misses, out.stats.cache.hits
    );

    // 3b. The same tuner against a *shared* cache (SELC_CACHE_CAP
    //     bounds it): rates duplicated across batches are
    //     probed once globally, and a second search is answered entirely
    //     from the cache.
    let cache = selc::ShardedCache::shared_from_env();
    let grid = vec![1.0, 0.5, 1.0, 0.5, 0.25, 0.25];
    let cold = tune_lr_parallel(&engine, grid.clone(), 2, program, Some(&cache));
    let warm = tune_lr_parallel(&engine, grid, 2, program, Some(&cache));
    assert_eq!((cold.alpha, cold.err), (warm.alpha, warm.err));
    println!(
        "shared-cache tuneLR: rate {} — cold {} misses, warm {} misses / {} hits ({}% hit rate)",
        warm.alpha,
        cold.stats.cache.misses,
        warm.stats.cache.misses,
        warm.stats.cache.hits,
        (warm.stats.cache.hit_rate() * 100.0).round()
    );

    // 3c. Transposition minimax: an alternating game whose payoffs are
    //     move-order-invariant, solved once per *canonical state* from a
    //     cache shared by all workers.
    let tree = SymTree::new(4, 6, 5);
    let tcache = selc_games::transposition::TransCache::from_env();
    let (mv, value, outcome) = solve_root_split(&tree, &engine, &tcache);
    assert_eq!(value, tree.value_backward());
    println!(
        "transposition minimax (4^6 tree): move {mv}, value {value:.2} — {} states cached, {} hits",
        tcache.len(),
        outcome.stats.cache.hits
    );

    // 4. Parallel n-queens via the root-split product of selection
    //    functions.
    let n = 6;
    let placement = queens_parallel(&engine, n);
    assert!(is_solution(&placement, n));
    println!("queens {n}: {placement:?}");

    println!("parallel search OK");
}
