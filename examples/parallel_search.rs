//! The `selc-engine` execution layer, end to end: parallel root-split
//! minimax, best-first hyperparameter tuning, batched `tuneLR`
//! with memoised probes, the `selc-cache` shared-memoisation layer
//! (shared-cache tuning, transposition minimax), and parallel n-queens.
//!
//! ```sh
//! SELC_THREADS=4 cargo run --release --example parallel_search
//! ```
//!
//! Standard output is the same at every worker count: it prints winners,
//! and work counts only from single-worker runs and the training-run
//! race, which always runs on the calling thread. How much a parallel
//! search prunes or a shared cache misses depends on how its workers
//! interleave, so those counts are not printed. The pool size goes to
//! standard error.

use selc_engine::{configured_threads, Engine};
use selc_games::bimatrix::Matrix;
use selc_games::parallel::{minimax_root_split, queens_parallel};
use selc_games::queens::is_solution;
use selc_games::transposition::{solve_root_split, SymTree};
use selc_ml::dataset::Dataset;
use selc_ml::optimize::gd_handler_tuned;
use selc_ml::parallel::{tune_lr_parallel, tune_training_run};

fn main() {
    eprintln!("worker pool: {} threads (SELC_THREADS to override)", configured_threads());
    let one = Engine::with_threads(1);

    // 1. Root-split minimax: each worker solves the minimiser's reply to
    //    one row with the ordinary hmin handler; the winner is
    //    bit-identical to the sequential hmax ∘ hmin nesting.
    let table = Matrix::random(8, 8, 42);
    let engine = Engine::auto();
    let ((row, col), value) = minimax_root_split(&table, &engine);
    let (srow, scol, svalue) = table.maximin();
    assert_eq!(((row, col), value), ((srow, scol), svalue));
    println!("minimax 8x8: play ({row}, {col}), value {value:.3}");

    // 2. Best-first tuning over whole SGD training runs: the run with the
    //    lowest running loss takes the next step, so diverging rates stop
    //    after a few data points. The race runs on the calling thread
    //    whatever the pool size, so its counts are fixed.
    let data = Dataset::linear(24, 2.0, -1.0, 0.05, 3);
    let grid = vec![0.02, 1.4, 1.6, 0.05, 1.8, 2.0, 0.08, 1.2];
    let tuned = tune_training_run(&engine, grid.clone(), &data, (0.0, 0.0), 3);
    let sequential = tune_training_run(&Engine::exhaustive(), grid, &data, (0.0, 0.0), 3);
    assert_eq!(tuned.alpha, sequential.alpha);
    println!(
        "training-run grid: rate {} (total loss {:.3}) — {} runs finished, {} left unfinished",
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
    //     from the cache. The counts come from one worker on its own
    //     cache: in a pool, two workers can probe one rate at once and
    //     both miss.
    let grid = vec![1.0, 0.5, 1.0, 0.5, 0.25, 0.25];
    let tune_twice = |engine: &Engine| {
        let cache = selc::ShardedCache::shared_from_env();
        let cold = tune_lr_parallel(engine, grid.clone(), 2, program, Some(&cache));
        let warm = tune_lr_parallel(engine, grid.clone(), 2, program, Some(&cache));
        assert_eq!((cold.alpha, cold.err), (warm.alpha, warm.err));
        (cold, warm)
    };
    let (_, warm) = tune_twice(&engine);
    let (solo_cold, solo_warm) = tune_twice(&one);
    assert_eq!((warm.alpha, warm.err), (solo_warm.alpha, solo_warm.err));
    println!(
        "shared-cache tuneLR: rate {} — one worker: cold {} misses, warm {} misses / {} hits ({}% hit rate)",
        warm.alpha,
        solo_cold.stats.cache.misses,
        solo_warm.stats.cache.misses,
        solo_warm.stats.cache.hits,
        (solo_warm.stats.cache.hit_rate() * 100.0).round()
    );

    // 3c. Transposition minimax: an alternating game whose payoffs are
    //     move-order-invariant, solved once per *canonical state* from a
    //     cache shared by all workers.
    //     Racing workers may solve one state twice, so the cache
    //     counts again come from one worker.
    let tree = SymTree::new(4, 6, 5);
    let solve = |engine: &Engine| {
        let tcache = selc_games::transposition::TransCache::from_env();
        let (mv, value, outcome) = solve_root_split(&tree, engine, &tcache);
        assert_eq!(value, tree.value_backward());
        (mv, value, tcache.len(), outcome.stats.cache.hits)
    };
    let (mv, value, _, _) = solve(&engine);
    let (solo_mv, _, cached, hits) = solve(&one);
    assert_eq!(mv, solo_mv);
    println!(
        "transposition minimax (4^6 tree): move {mv}, value {value:.2} — one worker: {cached} states cached, {hits} hits"
    );

    // 4. Parallel n-queens via the root-split product of selection
    //    functions.
    let n = 6;
    let placement = queens_parallel(&engine, n);
    assert!(is_solution(&placement, n));
    println!("queens {n}: {placement:?}");

    println!("parallel search OK");
}
