//! Engine-backed hyperparameter search (§4.3 "Hyperparameters" at
//! scale): chunked parallel grid search over rebuilt programs, and
//! best-first training-run tuning. Every entry point takes an
//! [`Engine`] (`Engine::exhaustive()` for the index-order scan on the
//! caller); a plain parallel argmin over a parameter grid with a loss
//! closure is [`selc_engine::minimize`].
//!
//! Two entry points, both bit-identical in their winners to the
//! index-order scans of `Engine::exhaustive()` (for NaN-free losses —
//! see `selection::par` for the `total_cmp` vs. `<` caveat; diverging
//! training runs may reach `+∞`, which both orders treat identically,
//! but must not reach `NaN`):
//!
//! * [`tune_lr_parallel`] — the paper's `tuneLR` distributed: the grid
//!   is split into **batches**, each worker rebuilds the program from its
//!   `Send + Sync` closure (`Sel` trees cannot cross threads — closures
//!   can) and probes its batch through the memoised tuner, and the
//!   engine merges batch winners deterministically. Probes go through a
//!   per-activation [`selc::MemoChoice`] memo, or, given a shared rate
//!   cache, through that cache, so a rate probed by any worker or any
//!   earlier search runs its future once. Either way the memo counters
//!   flow into the engine's [`SearchStats::cache`] telemetry;
//! * [`tune_training_run`] — grid search over whole SGD training runs
//!   scored by cumulative training loss. The running loss total is
//!   monotone (squared errors are non-negative), hence a true lower
//!   bound on the final total, so a pruning engine races the runs best
//!   first on the calling thread: the run with the lowest running total
//!   takes the next SGD steps, and the first run to finish while
//!   holding the lowest total wins. Diverging learning rates stop after
//!   a handful of data points, and a converging rate steps only while
//!   it could still win or tie. Unpruned engines train every run to the
//!   end through [`minimize`].

use crate::dataset::Dataset;
use crate::hyper::{probe_grid_argmin, Lr};
use crate::linreg::sgd_step;
use crate::optimize::gd_handler;
use selc::{f64_sort_key, handle, CacheStats, Handler, MemoChoice, Sel, SharedCache};
use selc_engine::{minimize, Engine, SearchStats};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};

/// The result of a parallel tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneOutcome {
    /// The winning learning rate.
    pub alpha: f64,
    /// Its loss (probed error or cumulative training loss).
    pub err: f64,
    /// Engine telemetry (evaluated/pruned counts, memo probes/hits).
    pub stats: SearchStats,
}

/// A chunked tuner handler: probes exactly `batch` through the memoised
/// grid scan and *returns* the best `(rate, error)` pair. Probes go
/// through `cache` when one is given, keyed on the rate's bits, so a rate
/// any worker (or any earlier batch or search) already probed is answered
/// without running the future — sound for rebuilds of one program,
/// since probing is pure. Without a cache each activation memoises in
/// its own table, which stays sound for programs that read the rate more
/// than once, and adds its counters to `stats`. The handler's answer for
/// a program that never reads the rate is the batch's first entry with
/// infinite error, so empty-probe batches lose to any batch that probed.
fn tune_batch_handler<A: Clone + 'static>(
    batch: Vec<f64>,
    cache: Option<SharedCache<u64, f64>>,
    stats: Rc<Cell<CacheStats>>,
) -> Handler<f64, A, (f64, f64)> {
    let default = batch[0];
    let key = |r: &f64| r.to_bits();
    Handler::builder::<Lr>()
        .on::<crate::hyper::Lrate>(move |(), l, _k| match &cache {
            Some(cache) => probe_grid_argmin(
                &MemoChoice::with_cache(&l, key, Arc::clone(cache)),
                batch.clone(),
            ),
            None => {
                let memo = MemoChoice::with_key(&l, key);
                let stats = Rc::clone(&stats);
                let m2 = memo.clone();
                probe_grid_argmin(&memo, batch.clone()).map(move |best| {
                    stats.set(stats.get().merged(&m2.stats()));
                    best
                })
            }
        })
        .ret(move |_a| Sel::pure((default, f64::INFINITY)))
        .build()
}

/// Parallel `tuneLR`: splits `grid` into batches of `batch_size`, probes
/// each batch against a fresh rebuild of `program` on the worker pool,
/// and merges batch winners deterministically. For programs that read
/// the rate once (the paper's pattern), the winning rate is bit-identical
/// to `handle(tune_lr(grid), program)` — both are first-strict-minimum
/// scans of the same probed errors, and batching preserves the global
/// scan order.
///
/// With `cache: None` each handler activation memoises its own probes
/// and `stats.cache` sums their counters. With `Some(cache)` every probe
/// goes through the shared rate cache instead, so a rate duplicated
/// across batches — or across whole searches reusing the handle — runs
/// the future once globally; only the amount of evaluation work changes,
/// and `stats.cache` reports this search's share of the handle's
/// traffic.
///
/// # Panics
///
/// Panics if `grid` is empty or `batch_size` is zero.
pub fn tune_lr_parallel<P, A>(
    engine: &Engine,
    grid: Vec<f64>,
    batch_size: usize,
    program: P,
    cache: Option<&SharedCache<u64, f64>>,
) -> TuneOutcome
where
    P: Fn() -> Sel<f64, A> + Send + Sync,
    A: Clone + 'static,
{
    assert!(!grid.is_empty(), "tune_lr_parallel needs at least one candidate rate");
    assert!(batch_size >= 1, "batch_size must be positive");
    let batches: Vec<Vec<f64>> = grid.chunks(batch_size).map(<[f64]>::to_vec).collect();
    let base = cache.map(|c| c.stats()).unwrap_or_default();
    // The per-activation memos' counters, summed over every run, and
    // each scored batch's winning rate, so the winner is read back
    // rather than rebuilt and re-probed.
    let scored = Mutex::new((CacheStats::default(), vec![f64::NAN; batches.len()]));
    // Candidate `i` is the `i`-th batch, probed against a fresh rebuild
    // of the program; its loss is the best probed error inside the batch.
    let mut out = minimize(engine, batches.len(), |i| {
        let stats = Rc::new(Cell::new(CacheStats::default()));
        let h = tune_batch_handler(batches[i].clone(), cache.cloned(), Rc::clone(&stats));
        let (_, (alpha, err)) = handle(&h, program())
            .run()
            .expect("tuned program reached the top level with an unhandled operation");
        let mut scored = scored.lock().unwrap_or_else(PoisonError::into_inner);
        scored.0 = scored.0.merged(&stats.get());
        scored.1[i] = alpha;
        err
    })
    .expect("non-empty grid");
    let (memo_stats, alphas) = scored.into_inner().unwrap_or_else(PoisonError::into_inner);
    out.stats.cache = match cache {
        Some(cache) => cache.stats().since(&base),
        None => memo_stats,
    };
    TuneOutcome { alpha: alphas[out.index], err: out.loss, stats: out.stats }
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
/// An unpruned engine trains every run to the end through [`minimize`]
/// (`stats.evaluated` is the grid size); `Engine::exhaustive()` is the
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
    use crate::hyper::tune_lr;
    use crate::optimize::{gd_handler_tuned, Optimize};
    use selc::{loss, perform, ShardedCache};

    /// One gd step on `(p − 3)²` from `p0`, rate served by the LR effect.
    fn step_prog(p0: f64) -> Sel<f64, Vec<f64>> {
        let prog = perform::<f64, Optimize>(vec![p0]).and_then(|p| {
            let e = p[0] - 3.0;
            loss(e * e).map(move |_| p.clone())
        });
        handle(&gd_handler_tuned(), prog)
    }

    fn engines() -> Vec<Engine> {
        vec![
            Engine::with_threads(1),
            Engine::with_threads(2),
            Engine::with_threads(4).without_pruning(),
        ]
    }

    #[test]
    fn parallel_tuner_matches_sequential_tune_lr() {
        let grid = vec![1.0, 0.9, 0.5, 0.25, 0.1, 0.75];
        let (_, seq_alpha) = handle(&tune_lr(grid.clone()), step_prog(0.0)).run_unwrap();
        for eng in engines() {
            for batch in [1, 2, 3, 6, 10] {
                let out = tune_lr_parallel(&eng, grid.clone(), batch, || step_prog(0.0), None);
                assert_eq!(out.alpha, seq_alpha, "batch {batch}");
            }
        }
        let out = tune_lr_parallel(&Engine::exhaustive(), grid, 2, || step_prog(0.0), None);
        assert_eq!(out.alpha, seq_alpha);
    }

    #[test]
    fn the_winning_batch_is_read_back_not_rebuilt() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let grid = vec![1.0, 0.9, 0.5, 0.25, 0.1, 0.75];
        let (_, seq_alpha) = handle(&tune_lr(grid.clone()), step_prog(0.0)).run_unwrap();
        let builds = AtomicUsize::new(0);
        let program = || {
            builds.fetch_add(1, Relaxed);
            step_prog(0.0)
        };
        let out = tune_lr_parallel(&Engine::exhaustive(), grid.clone(), 2, program, None);
        assert_eq!(builds.load(Relaxed), 3, "one build per batch, none for the winner");
        assert_eq!(out.alpha.to_bits(), seq_alpha.to_bits());
        // One batch over the whole grid scores the same winning pair.
        let whole = tune_lr_parallel(
            &Engine::exhaustive(),
            grid.clone(),
            grid.len(),
            || step_prog(0.0),
            None,
        );
        assert_eq!(
            (out.alpha.to_bits(), out.err.to_bits()),
            (whole.alpha.to_bits(), whole.err.to_bits())
        );
    }

    #[test]
    fn batch_memo_hits_surface_in_engine_telemetry() {
        // Duplicates *within* a batch hit the per-batch MemoChoice cache;
        // the counters must surface through SearchStats.
        let grid = vec![0.5, 0.5, 1.0, 1.0];
        let out = tune_lr_parallel(
            &Engine::with_threads(2).without_pruning(),
            grid,
            2,
            || step_prog(0.0),
            None,
        );
        assert_eq!(out.alpha, 0.5);
        assert_eq!(out.stats.cache.misses, 2, "one real probe per distinct rate per batch");
        assert_eq!(out.stats.cache.hits, 2, "one hit per duplicated rate");
    }

    #[test]
    fn programs_that_never_read_the_rate_fall_back_to_first_entry() {
        let out = tune_lr_parallel(
            &Engine::with_threads(2),
            vec![0.25, 0.75],
            1,
            || Sel::<f64, Vec<f64>>::pure(vec![]),
            None,
        );
        assert_eq!(out.alpha, 0.25);
        assert!(out.err.is_infinite());
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

    #[test]
    fn cached_tuner_matches_sequential_and_reuses_across_searches() {
        let grid = vec![1.0, 0.9, 0.5, 0.25, 0.1, 0.75];
        let (_, seq_alpha) = handle(&tune_lr(grid.clone()), step_prog(0.0)).run_unwrap();
        let cache: SharedCache<u64, f64> = Arc::new(ShardedCache::unbounded(4));
        for (round, eng) in engines().into_iter().enumerate() {
            for batch in [1, 2, 3, 6] {
                let out =
                    tune_lr_parallel(&eng, grid.clone(), batch, || step_prog(0.0), Some(&cache));
                assert_eq!(out.alpha, seq_alpha, "round {round} batch {batch}");
                if round > 0 {
                    assert_eq!(
                        out.stats.cache.misses, 0,
                        "later searches are answered entirely from the shared cache"
                    );
                }
            }
        }
        // Six distinct rates were ever really probed, across all rounds.
        assert_eq!(cache.stats().insertions, 6);
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn cached_tuner_survives_forced_eviction_bit_identically() {
        let grid = vec![1.0, 0.9, 0.5, 0.25, 0.1, 0.75, 0.5, 0.9];
        let (_, seq_alpha) = handle(&tune_lr(grid.clone()), step_prog(0.0)).run_unwrap();
        // Capacity 2 over 6 distinct rates: heavy eviction.
        let cache: SharedCache<u64, f64> = Arc::new(ShardedCache::clock_lru(2, 2));
        for eng in engines() {
            let out = tune_lr_parallel(&eng, grid.clone(), 2, || step_prog(0.0), Some(&cache));
            assert_eq!(out.alpha, seq_alpha);
        }
        assert!(cache.stats().evictions > 0, "cap 2 must evict: {:?}", cache.stats());
    }
}
