//! The `selc-engine` execution layer, end to end: root-split minimax
//! and best-first hyperparameter tuning.
//!
//! ```sh
//! SELC_THREADS=4 cargo run --release --example parallel_search
//! ```
//!
//! Standard output is the same at every worker count: it prints winners,
//! and work counts only from the training-run race, which always runs on
//! the calling thread. The pool size goes to standard error.

use selc_engine::{configured_threads, Engine};
use selc_games::bimatrix::Matrix;
use selc_games::parallel::minimax_root_split;
use selc_ml::dataset::Dataset;
use selc_ml::parallel::tune_training_run;

fn main() {
    eprintln!("worker pool: {} threads (SELC_THREADS to override)", configured_threads());

    // 1. Root-split minimax: the minimiser's reply to each row is solved
    //    with the ordinary hmin handler, rows scanned in index order; the
    //    winner is bit-identical to the sequential hmax ∘ hmin nesting.
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

    println!("parallel search OK");
}
