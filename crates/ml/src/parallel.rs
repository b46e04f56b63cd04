//! Engine-backed hyperparameter search (§4.3 "Hyperparameters" at
//! scale): best-first training-run tuning, under the module name the
//! `perfbench` package pins. It runs sequentially on the calling thread
//! at every worker count; a plain argmin over a parameter grid with a
//! loss closure is [`selc_engine::minimize`], and the paper's `tuneLR`
//! is [`crate::hyper::tune_lr`].
//!
//! [`tune_training_run`] is grid search over whole SGD training runs
//! scored by cumulative training loss, and its winner is bit-identical
//! to the index-order scan of `Engine::exhaustive()` (for NaN-free
//! losses — see [`selc_engine::minimize`] for the `total_cmp` vs. `<`
//! caveat; diverging training runs may reach `+∞`, which both orders
//! treat identically, but must not reach `NaN`). The running loss total
//! is monotone (squared errors are non-negative), hence a true lower
//! bound on the final total, so a pruning engine races the runs best
//! first: the run with the lowest running total takes the next SGD
//! steps, and the first run to finish while holding the lowest total
//! wins. Diverging learning rates stop after a handful of data points,
//! and a converging rate steps only while it could still win or tie.
//! Unpruned engines train every run to the end through [`minimize`].

use crate::dataset::Dataset;
use crate::linreg::sgd_step;
use crate::optimize::gd_handler;
use selc::{f64_sort_key, Handler};
use selc_engine::{minimize, Engine, SearchStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The result of a tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneOutcome {
    /// The winning learning rate.
    pub alpha: f64,
    /// Its cumulative training loss.
    pub err: f64,
    /// Engine telemetry (runs trained to the end, and the rest).
    pub stats: SearchStats,
}

/// A training run of [`tune_training_run`] between steps: its handler,
/// its parameters, how many SGD steps it has taken, and its running total
/// of squared errors — monotone, hence a lower bound on its final total.
struct Run {
    h: Handler<f64, Vec<f64>, Vec<f64>>,
    p: Vec<f64>,
    steps: usize,
    total: f64,
}

impl Run {
    fn new(alpha: f64, init: (f64, f64)) -> Run {
        Run { h: gd_handler(alpha), p: vec![init.0, init.1], steps: 0, total: 0.0 }
    }

    /// One handler-SGD step on the run's next data point (one pass over
    /// `data` per epoch), adding that point's squared error to the total.
    fn step(&mut self, data: &Dataset) {
        let (x, y) = data.points[self.steps % data.points.len()];
        self.p = sgd_step(&self.h, std::mem::take(&mut self.p), x, y);
        let e = y - (self.p[0] * x + self.p[1]);
        self.total += e * e;
        self.steps += 1;
    }

    /// The race key of run `i`: its running total under the engine's
    /// order (`total_cmp`), ties broken towards the smaller index.
    fn key(&self, i: usize) -> (u64, usize) {
        (f64_sort_key(self.total), i)
    }
}

/// Grid search over whole SGD training runs (handler SGD, one run per
/// rate), scored by cumulative training loss. Returns the winning rate,
/// its total loss, and the telemetry.
///
/// An unpruned engine trains every run to the end, in index order,
/// through [`minimize`] (`stats.evaluated` is the grid size); `Engine::exhaustive()` is the
/// index-order oracle. A pruning engine instead races the runs best
/// first on the calling thread: the run with the smallest running total
/// (ties towards the smaller index) takes the next SGD steps, until its
/// total passes the next-smallest, and the race ends when the smallest
/// belongs to a finished run. Running totals never decrease, so that run
/// is the argmin under `(total_cmp, index)` — the exhaustive winner,
/// ties included — and no run steps once it can neither win nor tie.
/// `stats.evaluated` counts runs trained to the end, `stats.pruned` the
/// rest, and `stats.threads` is 1 whatever `engine.threads` says: two
/// workers sharing the race's queue under a `Mutex` trained 116 SGD
/// steps per 8-rate tune instead of 78, and were no faster in wall time
/// on a 2-vCPU host.
///
/// # Panics
///
/// Panics if `grid` is empty.
pub fn tune_training_run(
    engine: &Engine,
    grid: Vec<f64>,
    data: &Dataset,
    init: (f64, f64),
    epochs: usize,
) -> TuneOutcome {
    assert!(!grid.is_empty(), "tune_training_run needs at least one candidate rate");
    let len = epochs * data.points.len();
    if !engine.prune {
        let out = minimize(engine, grid.len(), |i| {
            let mut run = Run::new(grid[i], init);
            while run.steps < len {
                run.step(data);
            }
            run.total
        })
        .expect("non-empty grid");
        return TuneOutcome { alpha: grid[out.index], err: out.loss, stats: out.stats };
    }
    let mut runs: Vec<Run> = grid.iter().map(|&alpha| Run::new(alpha, init)).collect();
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> =
        runs.iter().enumerate().map(|(i, run)| Reverse(run.key(i))).collect();
    loop {
        let Reverse((_, i)) = queue.pop().expect("a run stays queued until one finishes first");
        let next = queue.peek().map(|r| r.0);
        let run = &mut runs[i];
        if run.steps == len {
            let evaluated = runs.iter().filter(|r| r.steps == len).count() as u64;
            let pruned = grid.len() as u64 - evaluated;
            let stats = SearchStats {
                evaluated,
                pruned,
                abandoned: pruned,
                threads: 1,
                ..SearchStats::default()
            };
            return TuneOutcome { alpha: grid[i], err: runs[i].total, stats };
        }
        // One slice: the run steps while its key stays below the next.
        run.step(data);
        while run.steps < len && next.is_none_or(|k| run.key(i) < k) {
            run.step(data);
        }
        queue.push(Reverse(run.key(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines() -> Vec<Engine> {
        vec![
            Engine::with_threads(1),
            Engine::with_threads(2),
            Engine::with_threads(4).without_pruning(),
        ]
    }

    #[test]
    fn training_run_tuner_picks_converging_rate_and_prunes_divergers() {
        let data = Dataset::linear(24, 2.0, -1.0, 0.0, 7);
        // 0.05 converges; the large rates diverge violently.
        let grid = vec![2.0, 1.5, 0.05, 1.2, 1.9];
        let seq_exhaustive =
            tune_training_run(&Engine::exhaustive(), grid.clone(), &data, (0.0, 0.0), 2);
        assert_eq!(seq_exhaustive.alpha, 0.05);
        for eng in engines() {
            let out = tune_training_run(&eng, grid.clone(), &data, (0.0, 0.0), 2);
            assert_eq!(out.alpha, seq_exhaustive.alpha);
            assert_eq!(out.err, seq_exhaustive.err, "winner loss is bit-identical");
        }
        let pruned = tune_training_run(&Engine::with_threads(1), grid, &data, (0.0, 0.0), 2);
        assert_eq!(pruned.alpha, 0.05);
        assert!(pruned.stats.pruned >= 1, "diverging rates abort early: {:?}", pruned.stats);
    }

    /// Tunes `grid` over `epochs` on pruning engines of 1, 2 and
    /// `SELC_THREADS` workers, checks that each race's winner is
    /// bit-identical to `Engine::exhaustive()`'s and its stats the same
    /// at every worker count, and returns the race's outcome.
    fn race_matches_exhaustive(grid: &[f64], epochs: usize) -> TuneOutcome {
        let data = Dataset::linear(24, 2.0, -1.0, 0.1, 7);
        let tune = |eng: &Engine| tune_training_run(eng, grid.to_vec(), &data, (0.0, 0.0), epochs);
        let bits = |o: &TuneOutcome| (o.alpha.to_bits(), o.err.to_bits());
        let reference = tune(&Engine::exhaustive());
        let raced = tune(&Engine::with_threads(1));
        assert_eq!(bits(&raced), bits(&reference), "{grid:?}");
        for eng in [Engine::with_threads(2), Engine::auto()] {
            let out = tune(&eng);
            assert_eq!((bits(&out), out.stats), (bits(&raced), raced.stats), "{grid:?} on {eng:?}");
        }
        assert_eq!(raced.stats.evaluated + raced.stats.pruned, grid.len() as u64);
        assert_eq!(raced.stats.threads, 1, "the race runs on the caller");
        raced
    }

    #[test]
    fn race_ties_go_to_the_lower_index() {
        assert_eq!(race_matches_exhaustive(&[2.0, 0.05, 0.05, 1.5], 2).alpha, 0.05);
        // Rates ±0 never move the parameters, so their runs tie bit for
        // bit; the sign of the winning rate shows which index won.
        for grid in [[1.9, 0.0, -0.0], [1.9, -0.0, 0.0]] {
            let out = race_matches_exhaustive(&grid, 2);
            assert_eq!(out.alpha.to_bits(), grid[1].to_bits(), "{grid:?}");
        }
    }

    #[test]
    fn race_finds_a_winner_last_in_the_grid() {
        let out = race_matches_exhaustive(&[2.0, 1.5, 1.9, 0.05], 2);
        assert_eq!(out.alpha, 0.05);
        assert_eq!((out.stats.evaluated, out.stats.pruned), (1, 3), "divergers stop early");
    }

    #[test]
    fn race_with_zero_epochs_picks_index_zero() {
        let out = race_matches_exhaustive(&[0.3, 0.1, 0.2], 0);
        assert_eq!((out.alpha, out.err), (0.3, 0.0));
        assert_eq!(out.stats.evaluated, 3, "every run is finished before it steps");
    }

    #[test]
    fn race_over_one_rate_trains_it_to_the_end() {
        let out = race_matches_exhaustive(&[0.05], 2);
        assert_eq!((out.alpha, out.stats.evaluated), (0.05, 1));
    }

    #[test]
    fn race_over_diverging_rates_matches_exhaustive() {
        race_matches_exhaustive(&[2.0, 1.5, 1.9], 2);
    }
}
