//! `offline_batch`: library jobs on one caller thread, no server. Each
//! job runs a certified chain search on a fresh table, a training-run
//! grid tune on the flat `ParallelEngine`, full-tree parallel alpha-beta
//! and a root-split minimax — the layers no served workload reaches.

use crate::load::{JobInput, OfflinePlan, GAME_BRANCHING, GAME_DEPTH, WARM_CHAIN};
use crate::measure::micros;
use crate::phase::{Clock, Failures, Phase, Tally};
use crate::trace::Recorder;
use lambda_rt::{search_compiled_cached, search_compiled_flat, LcCandidates, LcTransCache};
use selc_engine::{ParallelEngine, SearchStats, SequentialEngine, TreeEngine};
use selc_games::alternating::GameTree;
use selc_games::bimatrix::Matrix;
use selc_games::parallel::{alphabeta_parallel, minimax_root_split};
use selc_ml::dataset::Dataset;
use selc_ml::parallel::tune_training_run;
use selc_serve::WireStats;
use std::time::Instant;

const TABLE_SIZE: usize = 8;
/// Each SGD step runs the handler program, so the data stay small.
const DATA_POINTS: usize = 24;
const EPOCHS: usize = 2;
/// Plies distributed by `alphabeta_parallel`: `4^2` subtree tasks.
const AB_SPLIT: usize = 2;

struct Job {
    tree: GameTree,
    table: Matrix,
    data: Dataset,
    grid: Vec<f64>,
}

/// A job's winners as bit patterns: `(index, loss)` for the chain,
/// `(rate, total loss)` for the tune, `(play, value)` for the game and
/// `(row, col, value)` for the matrix.
#[derive(Debug, PartialEq)]
pub struct Answers {
    chain: (u64, u64),
    tune: (u64, u64),
    game: (u64, u64),
    minimax: (u64, u64, u64),
}

/// The compiled chain and the generated job inputs.
pub struct Batch {
    cands: LcCandidates,
    jobs: Vec<Job>,
}

fn chain_candidates() -> LcCandidates {
    let program = lambda_c::testgen::deep_decide_chain(u32::from(WARM_CHAIN));
    let compiled = lambda_c::compile(&program.expr).expect("generated chains compile");
    LcCandidates::new(compiled, ["decide".to_owned()], u32::from(WARM_CHAIN))
}

fn job_of(input: &JobInput) -> Job {
    Job {
        tree: GameTree::random(
            usize::from(GAME_BRANCHING),
            usize::from(GAME_DEPTH),
            input.game_seed,
        ),
        table: Matrix::random(TABLE_SIZE, TABLE_SIZE, input.table_seed),
        data: Dataset::linear(DATA_POINTS, 2.0, -1.0, 0.1, input.data_seed),
        grid: input.grid.clone(),
    }
}

/// Compiles the chain, runs its flow analysis, generates every job's
/// inputs and runs one job to start the lazy state: what `setup_s` times.
pub fn set_up(plan: &OfflinePlan) -> Batch {
    let cands = chain_candidates();
    assert!(cands.certificate().is_some(), "the decide chain is flow-certifiable");
    let batch = Batch { cands, jobs: plan.jobs.iter().map(job_of).collect() };
    std::hint::black_box(run_job(&batch, &batch.jobs[0], None, 0));
    batch
}

fn play_index(play: &[usize]) -> u64 {
    play.iter().fold(0u64, |acc, &m| acc * u64::from(GAME_BRANCHING) + m as u64)
}

/// Reference answers by independent paths: the flat exhaustive scan for
/// the chain, backward induction for games, `SequentialEngine` for the
/// grid and the matrix.
pub fn references(batch: &Batch) -> Vec<Answers> {
    let (chain, _) = search_compiled_flat(&SequentialEngine::exhaustive(), &chain_candidates())
        .expect("chains have non-empty spaces");
    let chain = (chain.index as u64, chain.loss.0.as_scalar().to_bits());
    let exhaustive = SequentialEngine::exhaustive();
    batch
        .jobs
        .iter()
        .map(|job| {
            let tune =
                tune_training_run(&exhaustive, job.grid.clone(), &job.data, (0.0, 0.0), EPOCHS);
            let (play, value) = job.tree.solve_backward();
            let ((row, col), v) = minimax_root_split(&job.table, &exhaustive);
            Answers {
                chain,
                tune: (tune.alpha.to_bits(), tune.err.to_bits()),
                game: (play_index(&play), value.to_bits()),
                minimax: (row as u64, col as u64, v.to_bits()),
            }
        })
        .collect()
}

fn wire(s: &SearchStats) -> WireStats {
    WireStats {
        evaluated: s.evaluated,
        pruned: s.pruned,
        threads: s.threads as u64,
        cache_hits: s.cache.hits,
        cache_misses: s.cache.misses,
        cache_insertions: s.cache.insertions,
        cache_evictions: s.cache.evictions,
        summary_exact_hits: s.summary.exact_hits,
        summary_bound_hits: s.summary.bound_hits,
        summary_misses: s.summary.misses,
        summary_exact_installs: s.summary.exact_installs,
        summary_bound_installs: s.summary.bound_installs,
    }
}

/// Runs `f` in a span under `parent` when tracing.
fn span<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.time(name, parent, request, f),
        None => f(),
    }
}

/// One job; with a recorder, each library call gets a span under the
/// job's root span.
fn run_job(
    batch: &Batch,
    job: &Job,
    mut rec: Option<&mut Recorder>,
    request: u64,
) -> (Answers, Tally) {
    let root = rec.as_mut().map(|r| r.open("job", None, request));
    let table = LcTransCache::from_env();
    let (chain, _) = span(&mut rec, "lambda_rt.search", root, request, || {
        search_compiled_cached(&TreeEngine::auto(), &batch.cands, &table, batch.cands.certificate())
    })
    .expect("chains have non-empty spaces");
    let tune = span(&mut rec, "ml.tune_training_run", root, request, || {
        tune_training_run(&ParallelEngine::auto(), job.grid.clone(), &job.data, (0.0, 0.0), EPOCHS)
    });
    let (play, value) = span(&mut rec, "games.alphabeta_parallel", root, request, || {
        alphabeta_parallel(&job.tree, 0, AB_SPLIT)
    });
    let ((row, col), v) = span(&mut rec, "games.minimax_root_split", root, request, || {
        minimax_root_split(&job.table, &ParallelEngine::auto())
    });
    if let (Some(r), Some(id)) = (rec, root) {
        r.close(id);
    }
    let mut tally = Tally::default();
    tally.add(&wire(&chain.stats));
    tally.ml_evaluated = tune.stats.evaluated;
    tally.ml_pruned = tune.stats.pruned;
    let answers = Answers {
        chain: (chain.index as u64, chain.loss.0.as_scalar().to_bits()),
        tune: (tune.alpha.to_bits(), tune.err.to_bits()),
        game: (play_index(&play), value.to_bits()),
        minimax: (row as u64, col as u64, v.to_bits()),
    };
    (answers, tally)
}

/// Runs jobs in the plan's seeded order for `seconds`, closed loop on
/// this thread; spans are recorded when `origin` is given.
pub fn phase(
    batch: &Batch,
    refs: &[Answers],
    plan: &OfflinePlan,
    seconds: f64,
    origin: Option<Instant>,
) -> Phase {
    let before = selc_obs::metrics::snapshot();
    let mut rec = origin.map(Recorder::new);
    let mut tally = Tally::default();
    let mut done = Vec::new();
    let mut fails = Failures::default();
    let mut attempted = 0;
    let clock = Clock::start(seconds);
    let marks = std::thread::scope(|s| {
        let sampler = s.spawn(|| clock.sample());
        for (i, &j) in plan.order.iter().cycle().enumerate() {
            if Instant::now() >= clock.until {
                break;
            }
            attempted += 1;
            let t0 = Instant::now();
            let (answers, job_tally) = run_job(batch, &batch.jobs[j], rec.as_mut(), i as u64);
            let lat = micros(t0.elapsed());
            if answers == refs[j] {
                done.push((clock.start.elapsed(), lat));
                tally.merge(&job_tally);
            } else {
                fails.wrong_winner += 1;
            }
        }
        sampler.join().expect("CPU sampler panicked")
    });
    Phase {
        window: clock.window,
        marks,
        done,
        attempted,
        fails,
        tally,
        scrape: selc_obs::metrics::snapshot().since(&before),
        rec,
    }
}
