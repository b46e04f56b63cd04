//! Engine-backed hyperparameter search (§4.3 "Hyperparameters" at
//! scale): chunked parallel grid search over replayed programs, and
//! branch-and-bound training-run tuning. Every entry point takes the
//! flat [`ParallelEngine`] it runs on (`ParallelEngine::exhaustive()`
//! for the index-order scan on the caller); a plain parallel argmin over a parameter grid with a loss
//! closure is [`selc_engine::minimize`].
//!
//! Three entry points, all bit-identical in their winners to the
//! sequential scans they parallelise (for NaN-free losses — see
//! `selection::par` for the `total_cmp` vs. `<` caveat; diverging
//! training runs may reach `+∞`, which both orders treat identically,
//! but must not reach `NaN`):
//!
//! * [`tune_lr_parallel`] — the paper's `tuneLR` distributed: the grid
//!   is split into **batches**, each worker replays the program (`Sel`
//!   trees cannot cross threads — factories do) and probes its batch
//!   through the sequential memoised tuner, and the engine merges batch
//!   winners deterministically. The per-batch [`selc::MemoChoice`]
//!   counters flow into the engine's [`SearchStats::cache`] telemetry;
//! * [`tune_lr_parallel_cached`] — the same tuner with every probe
//!   going through one shared rate cache, so a rate probed by any
//!   worker or any earlier search runs its future once;
//! * [`tune_training_run`] — grid search over whole SGD training runs
//!   scored by cumulative training loss, with early abort: the running
//!   loss total is monotone (squared errors are non-negative), hence a
//!   true lower bound, so a candidate whose partial total already
//!   strictly exceeds the shared best is abandoned mid-run. Diverging
//!   learning rates die after a handful of data points instead of
//!   training to completion.

use crate::dataset::Dataset;
use crate::hyper::{probe_grid_argmin, Lr};
use crate::linreg::sgd_step;
use crate::optimize::gd_handler;
use selc::{handle, CacheStats, Handler, MemoChoice, Replay, Sel, SharedCache};
use selc_engine::{
    CacheStatsSink, CandidateEval, Outcome, ParallelEngine, SearchStats, SharedBound,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

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
/// grid scan and *returns* the best `(rate, error)` pair. The handler's
/// answer for a program that never reads the rate is the batch's first
/// entry with infinite error, so empty-probe batches lose to any batch
/// that probed.
fn tune_batch_handler<A: Clone + 'static>(
    batch: Vec<f64>,
    sink: Rc<RefCell<CacheStats>>,
) -> Handler<f64, A, (f64, f64)> {
    let default = batch[0];
    Handler::builder::<Lr>()
        .on::<crate::hyper::Lrate>(move |(), l, _k| {
            let memo = MemoChoice::with_key(&l, |r: &f64| r.to_bits());
            let sink = Rc::clone(&sink);
            let m2 = memo.clone();
            probe_grid_argmin(&memo, batch.clone()).map(move |best| {
                let merged = sink.borrow().merged(&m2.stats());
                *sink.borrow_mut() = merged;
                best
            })
        })
        .ret(move |_a| Sel::pure((default, f64::INFINITY)))
        .build()
}

/// Evaluator for [`tune_lr_parallel`]: candidate `i` is the `i`-th batch
/// of the grid; its loss is the best probed error inside the batch.
struct BatchEval<P, A> {
    batches: Vec<Vec<f64>>,
    program: P,
    sink: CacheStatsSink,
    _result: std::marker::PhantomData<fn() -> A>,
}

impl<P, A> BatchEval<P, A>
where
    P: Replay<f64, A>,
    A: Clone + 'static,
{
    /// Replays the program against one batch; pure, so rerunning the
    /// winner reproduces exactly the scored pair.
    fn run_batch(&self, i: usize) -> (f64, f64, CacheStats) {
        let sink = Rc::new(RefCell::new(CacheStats::default()));
        let h = tune_batch_handler(self.batches[i].clone(), Rc::clone(&sink));
        let (_, pair) = handle(&h, self.program.build())
            .run()
            .expect("tuned program reached the top level with an unhandled operation");
        let stats = *sink.borrow();
        (pair.0, pair.1, stats)
    }
}

impl<P, A> CandidateEval<f64> for BatchEval<P, A>
where
    P: Replay<f64, A>,
    A: Clone + 'static,
{
    fn eval(&self, i: usize, _bound: &SharedBound<f64>) -> Option<f64> {
        let (_alpha, err, stats) = self.run_batch(i);
        self.sink.record(&stats);
        Some(err)
    }

    fn cache_stats(&self) -> CacheStats {
        self.sink.total()
    }
}

/// Parallel `tuneLR`: splits `grid` into batches of `batch_size`, probes
/// each batch against a fresh replay of `program` on the worker pool,
/// and merges batch winners deterministically. For programs that read
/// the rate once (the paper's pattern), the winning rate is bit-identical
/// to `handle(tune_lr(grid), program)` — both are first-strict-minimum
/// scans of the same probed errors, and batching preserves the global
/// scan order.
///
/// # Panics
///
/// Panics if `grid` is empty or `batch_size` is zero.
pub fn tune_lr_parallel<P, A>(
    engine: &ParallelEngine,
    grid: Vec<f64>,
    batch_size: usize,
    program: P,
) -> TuneOutcome
where
    P: Replay<f64, A>,
    A: Clone + 'static,
{
    assert!(!grid.is_empty(), "tune_lr_parallel needs at least one candidate rate");
    assert!(batch_size >= 1, "batch_size must be positive");
    let batches: Vec<Vec<f64>> = grid.chunks(batch_size).map(<[f64]>::to_vec).collect();
    let n = batches.len();
    let eval = BatchEval {
        batches,
        program,
        sink: CacheStatsSink::default(),
        _result: std::marker::PhantomData,
    };
    let out: Outcome<f64> = engine.search(n, &eval).expect("non-empty grid");
    let (alpha, err, _) = eval.run_batch(out.index);
    TuneOutcome { alpha, err, stats: out.stats }
}

/// The cached batch handler: like [`tune_batch_handler`], but probes go
/// through a [`SharedCache`] keyed on the rate's bits, so a rate any
/// worker (or any earlier batch, or any earlier *search*) already probed
/// is answered without running the future. Sound for replays of one
/// program factory: probing is pure, so the cached error is
/// bit-identical to a recomputed one.
fn tune_batch_handler_cached<A: Clone + 'static>(
    batch: Vec<f64>,
    cache: SharedCache<u64, f64>,
) -> Handler<f64, A, (f64, f64)> {
    let default = batch[0];
    Handler::builder::<Lr>()
        .on::<crate::hyper::Lrate>(move |(), l, _k| {
            let memo = MemoChoice::with_cache(&l, |r: &f64| r.to_bits(), Arc::clone(&cache));
            probe_grid_argmin(&memo, batch.clone())
        })
        .ret(move |_a| Sel::pure((default, f64::INFINITY)))
        .build()
}

/// Evaluator for [`tune_lr_parallel_cached`]: one batch per candidate,
/// every batch probing through one shared rate cache.
struct CachedBatchEval<P, A> {
    batches: Vec<Vec<f64>>,
    program: P,
    cache: SharedCache<u64, f64>,
    base: CacheStats,
    _result: std::marker::PhantomData<fn() -> A>,
}

impl<P, A> CachedBatchEval<P, A>
where
    P: Replay<f64, A>,
    A: Clone + 'static,
{
    fn run_batch(&self, i: usize) -> (f64, f64) {
        let h = tune_batch_handler_cached(self.batches[i].clone(), Arc::clone(&self.cache));
        let (_, pair) = handle(&h, self.program.build())
            .run()
            .expect("tuned program reached the top level with an unhandled operation");
        pair
    }
}

impl<P, A> CandidateEval<f64> for CachedBatchEval<P, A>
where
    P: Replay<f64, A>,
    A: Clone + 'static,
{
    fn eval(&self, i: usize, _bound: &SharedBound<f64>) -> Option<f64> {
        let (_alpha, err) = self.run_batch(i);
        Some(err)
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats().since(&self.base)
    }
}

/// [`tune_lr_parallel`] with a **shared** rate cache: rate-evaluation
/// results are shared across the batched parallel workers (and across
/// repeated calls reusing the same handle), so a rate duplicated across
/// batches — or across whole searches — runs the future once globally.
/// The winning rate stays bit-identical to the sequential
/// `handle(tune_lr(grid), program)` scan; only the amount of evaluation
/// work changes. `stats.cache` reports this search's share of the shared
/// handle's traffic.
///
/// # Panics
///
/// Panics if `grid` is empty or `batch_size` is zero.
pub fn tune_lr_parallel_cached<P, A>(
    engine: &ParallelEngine,
    grid: Vec<f64>,
    batch_size: usize,
    program: P,
    cache: &SharedCache<u64, f64>,
) -> TuneOutcome
where
    P: Replay<f64, A>,
    A: Clone + 'static,
{
    assert!(!grid.is_empty(), "tune_lr_parallel_cached needs at least one candidate rate");
    assert!(batch_size >= 1, "batch_size must be positive");
    let batches: Vec<Vec<f64>> = grid.chunks(batch_size).map(<[f64]>::to_vec).collect();
    let n = batches.len();
    let eval = CachedBatchEval {
        batches,
        program,
        cache: Arc::clone(cache),
        base: cache.stats(),
        _result: std::marker::PhantomData,
    };
    let out: Outcome<f64> = engine.search(n, &eval).expect("non-empty grid");
    let stats = out.stats;
    let (alpha, err) = eval.run_batch(out.index);
    TuneOutcome { alpha, err, stats }
}

/// Evaluator for [`tune_training_run`]: candidate `i` is `grid[i]`; its
/// loss is the cumulative squared error along a full handler-SGD
/// training run. The running total is monotone non-decreasing, so it is
/// consulted against the shared bound after every data point and the
/// run aborts (`None`) as soon as it is strictly dominated.
struct TrainEval {
    grid: Vec<f64>,
    data: Arc<Dataset>,
    init: (f64, f64),
    epochs: usize,
}

impl TrainEval {
    fn train(&self, alpha: f64, bound: &SharedBound<f64>) -> Option<f64> {
        let h = gd_handler(alpha);
        let mut p = vec![self.init.0, self.init.1];
        let mut total = 0.0_f64;
        for _ in 0..self.epochs {
            for &(x, y) in &self.data.points {
                p = sgd_step(&h, p, x, y);
                let e = y - (p[0] * x + p[1]);
                total += e * e;
                if bound.dominated(&total) {
                    return None;
                }
            }
        }
        Some(total)
    }
}

impl CandidateEval<f64> for TrainEval {
    fn eval(&self, i: usize, bound: &SharedBound<f64>) -> Option<f64> {
        self.train(self.grid[i], bound)
    }
}

/// Grid search over whole SGD training runs (handler SGD, one run per
/// rate), scored by cumulative training loss, with branch-and-bound
/// early abort of dominated runs. Returns the winning rate, its total
/// loss, and the telemetry (`stats.pruned` counts aborted runs).
///
/// # Panics
///
/// Panics if `grid` is empty.
pub fn tune_training_run(
    engine: &ParallelEngine,
    grid: Vec<f64>,
    data: &Dataset,
    init: (f64, f64),
    epochs: usize,
) -> TuneOutcome {
    assert!(!grid.is_empty(), "tune_training_run needs at least one candidate rate");
    let n = grid.len();
    let eval = TrainEval { grid, data: Arc::new(data.clone()), init, epochs };
    let out = engine.search(n, &eval).expect("non-empty grid");
    TuneOutcome { alpha: eval.grid[out.index], err: out.loss, stats: out.stats }
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

    fn engines() -> Vec<ParallelEngine> {
        vec![
            ParallelEngine { threads: 1, chunk: 0, prune: true },
            ParallelEngine { threads: 2, chunk: 1, prune: true },
            ParallelEngine { threads: 4, chunk: 1, prune: false },
        ]
    }

    #[test]
    fn parallel_tuner_matches_sequential_tune_lr() {
        let grid = vec![1.0, 0.9, 0.5, 0.25, 0.1, 0.75];
        let (_, seq_alpha) = handle(&tune_lr(grid.clone()), step_prog(0.0)).run_unwrap();
        for eng in engines() {
            for batch in [1, 2, 3, 6, 10] {
                let out = tune_lr_parallel(&eng, grid.clone(), batch, || step_prog(0.0));
                assert_eq!(out.alpha, seq_alpha, "batch {batch}");
            }
        }
        let out = tune_lr_parallel(&ParallelEngine::exhaustive(), grid, 2, || step_prog(0.0));
        assert_eq!(out.alpha, seq_alpha);
    }

    #[test]
    fn batch_memo_hits_surface_in_engine_telemetry() {
        // Duplicates *within* a batch hit the per-batch MemoChoice cache;
        // the counters must surface through SearchStats.
        let grid = vec![0.5, 0.5, 1.0, 1.0];
        let out = tune_lr_parallel(
            &ParallelEngine { threads: 2, chunk: 1, prune: false },
            grid,
            2,
            || step_prog(0.0),
        );
        assert_eq!(out.alpha, 0.5);
        assert_eq!(out.stats.cache.misses, 2, "one real probe per distinct rate per batch");
        assert_eq!(out.stats.cache.hits, 2, "one hit per duplicated rate");
    }

    #[test]
    fn programs_that_never_read_the_rate_fall_back_to_first_entry() {
        let out = tune_lr_parallel(&ParallelEngine::with_threads(2), vec![0.25, 0.75], 1, || {
            Sel::<f64, Vec<f64>>::pure(vec![])
        });
        assert_eq!(out.alpha, 0.25);
        assert!(out.err.is_infinite());
    }

    #[test]
    fn training_run_tuner_picks_converging_rate_and_prunes_divergers() {
        let data = Dataset::linear(24, 2.0, -1.0, 0.0, 7);
        // 0.05 converges; the large rates diverge violently.
        let grid = vec![2.0, 1.5, 0.05, 1.2, 1.9];
        let seq_exhaustive =
            tune_training_run(&ParallelEngine::exhaustive(), grid.clone(), &data, (0.0, 0.0), 2);
        assert_eq!(seq_exhaustive.alpha, 0.05);
        for eng in engines() {
            let out = tune_training_run(&eng, grid.clone(), &data, (0.0, 0.0), 2);
            assert_eq!(out.alpha, seq_exhaustive.alpha);
            assert_eq!(out.err, seq_exhaustive.err, "winner loss is bit-identical");
        }
        let pruned =
            tune_training_run(&ParallelEngine::with_threads(1), grid, &data, (0.0, 0.0), 2);
        assert_eq!(pruned.alpha, 0.05);
        assert!(pruned.stats.pruned >= 1, "diverging rates abort early: {:?}", pruned.stats);
    }

    #[test]
    fn cached_tuner_matches_sequential_and_reuses_across_searches() {
        let grid = vec![1.0, 0.9, 0.5, 0.25, 0.1, 0.75];
        let (_, seq_alpha) = handle(&tune_lr(grid.clone()), step_prog(0.0)).run_unwrap();
        let cache: SharedCache<u64, f64> = Arc::new(ShardedCache::unbounded(4));
        for (round, eng) in engines().into_iter().enumerate() {
            for batch in [1, 2, 3, 6] {
                let out =
                    tune_lr_parallel_cached(&eng, grid.clone(), batch, || step_prog(0.0), &cache);
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
            let out = tune_lr_parallel_cached(&eng, grid.clone(), 2, || step_prog(0.0), &cache);
            assert_eq!(out.alpha, seq_alpha);
        }
        assert!(cache.stats().evictions > 0, "cap 2 must evict: {:?}", cache.stats());
    }
}
