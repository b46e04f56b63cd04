//! The repository benchmark. One workload per process:
//!
//! ```text
//! perfbench --workload <warm_repeat|cold_refill|game_mix|offline_batch>
//!           --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it makes the separate traced run and reports the per-layer metrics.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. Any
//! failed op (transport error, `Busy`, `Timeout`, `Malformed`, or a
//! winner not bit-identical to the reference) makes the exit code 1.
//! `run.py` builds this binary and is the command to run.

mod load;
mod measure;
mod offline;
mod phase;
mod probes;
mod served;
mod trace;

use load::Kind;
use measure::{median, peak_rss_mib, ratio};
use phase::{Failures, Phase};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;
use trace::{median_self_times, timed, Recorder};

/// Set-ups per end-to-end run; `setup_s` is their median. All but the
/// last run in child processes of this binary: set-ups repeated in one
/// process leave their freed memory in the allocator's per-thread
/// arenas, which would inflate the measured process's peak RSS.
const SETUP_REPEATS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    /// Only set up once, print the time and exit (the child-process mode).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let spans = flags.get("--spans").map(PathBuf::from);
    let setup_only = flags.get("--setup-only") == Some(&"1");
    Ok(Args { kind, seed, seconds, trace, spans, setup_only })
}

const US: &str = "us";
const COUNT: &str = "count";
const FRACTION: &str = "fraction";

/// A run's result: the record, the metrics, and the correctness verdict.
struct Report {
    record: Vec<(&'static str, String)>,
    fails: Failures,
    attempted: u64,
    /// Why the run is not correct beyond failed ops (accounting).
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(args: &Args, server_workers: usize) -> Report {
        let nproc = nproc();
        let record = vec![
            ("workload", args.kind.name().to_owned()),
            ("seed", args.seed.to_string()),
            ("mode", if args.trace { "traced" } else { "untraced" }.to_owned()),
            ("nproc", nproc.to_string()),
            ("selc_threads", selc_engine::configured_threads().to_string()),
            ("server_workers", server_workers.to_string()),
            ("clients", args.kind.clients(nproc).to_string()),
            ("profile", "release".to_owned()),
        ];
        Report {
            record,
            fails: Failures::default(),
            attempted: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn count(&mut self, phase: &Phase, label: &'static str) {
        self.attempted += phase.attempted;
        self.fails.merge(&phase.fails);
        let done = format!("attempted={} completed={}", phase.attempted, phase.completed());
        self.record.push((label, done));
    }

    fn correct(&self) -> bool {
        self.fails.total() == 0 && self.problems.is_empty()
    }

    fn print(&self) {
        for (key, value) in &self.record {
            println!("# {key}: {value}");
        }
        let f = &self.fails;
        println!(
            "# failures: transport={} busy={} timeout={} malformed={} wrong_winner={}",
            f.transport, f.busy, f.timeout, f.malformed, f.wrong_winner
        );
        if !self.metrics.iter().any(|(name, ..)| *name == "failed_ratio") {
            println!("failed_ratio {} {FRACTION}", ratio(f.total() as f64, self.attempted as f64));
        }
        for problem in &self.problems {
            println!("# problem: {problem}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            f.total(),
            metrics.join(", ")
        );
    }
}

fn end_to_end(report: &mut Report, setups: &[f64], phase: &Phase) {
    report.record.push(("setup_runs_s", format!("{setups:?}")));
    let steady = phase.steady();
    let steal: Vec<String> = steady.steal_s.iter().map(|s| format!("{s:.2}")).collect();
    report.record.push(("window_steal_s", steal.join(" ")));
    // The tail is recorded but not an end-to-end metric: its run-to-run
    // spread on a shared host is wider than any bound the benchmark may set.
    report.record.push(("latency_p90_us", steady.p90.to_string()));
    report.metrics = vec![
        ("setup_s", median(setups), "s"),
        ("throughput_rps", steady.throughput, "ops/s"),
        ("latency_p50_us", steady.p50, US),
        ("cpu_us_per_op", steady.cpu_us_per_op, US),
        ("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];
}

/// Times `SETUP_REPEATS - 1` set-ups, each in a child process.
fn child_setups(args: &Args) -> std::io::Result<Vec<f64>> {
    let exe = std::env::current_exe()?;
    (1..SETUP_REPEATS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", args.kind.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0", "--setup-only", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .trim()
                .strip_prefix("setup_s ")
                .and_then(|v| v.parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| std::io::Error::other(format!("set-up child failed: {stdout}")))
        })
        .collect()
}

/// The child-process mode: one timed set-up, printed as `setup_s <s>`.
fn setup_only(args: &Args) -> std::io::Result<()> {
    let secs = if args.kind == Kind::OfflineBatch {
        timed(|| offline::set_up(&load::offline_plan(args.seed))).1
    } else {
        let plan = load::served_plan(args.kind, args.seed, args.kind.clients(nproc()));
        let (served, secs) = timed(|| served::set_up(&plan));
        served?;
        secs
    };
    println!("setup_s {secs}");
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The per-layer metrics of a traced run. Span-derived times are median
/// self times; counts are per completed search (job) of the traced
/// phase. A metric whose layer the workload does not reach reads 0.
fn per_layer(report: &mut Report, kind: Kind, untraced: &Phase, traced: &Phase, spans: &Recorder) {
    let med = median_self_times(spans);
    let m = |span: &str| med.get(span).copied().unwrap_or(0.0);
    let serve_path: f64 = [
        "serve.decode",
        "serve.validate",
        "serve.tenant_lookup",
        "serve.flow_guard",
        "serve.run",
        "serve.encode",
    ]
    .iter()
    .map(|s| m(s))
    .sum();
    let unattributed = if kind == Kind::OfflineBatch {
        0.0
    } else {
        untraced.p50() - m("serve.rtt_echo") - serve_path
    };
    let n = traced.completed() as f64;
    let per = |x: u64| ratio(x as f64, n);
    let s = &traced.tally.search;
    let lock_wait = traced.scrape.histogram("cache.shard_lock_wait_ns").percentile(50).unwrap_or(0);
    let f = report.fails;
    let failed_ratio = ratio(f.total() as f64, report.attempted as f64);
    report.metrics = vec![
        ("latency_p90_us", untraced.steady().p90, US),
        ("serve.rtt_floor_us", m("serve.rtt_echo"), US),
        ("serve.decode_us", m("serve.decode"), US),
        ("serve.encode_us", m("serve.encode"), US),
        ("serve.validate_us", m("serve.validate"), US),
        ("serve.tenant_lookup_us", m("serve.tenant_lookup"), US),
        ("serve.flow_guard_us", m("serve.flow_guard"), US),
        ("serve.run_us", m("serve.run"), US),
        ("serve.epoch_bump_us", m("serve.epoch_bump"), US),
        ("serve.unattributed_us", unattributed, US),
        ("serve.requests", traced.per_op("serve.requests"), COUNT),
        ("serve.deadline_timeouts", traced.per_op("serve.deadline_timeouts"), COUNT),
        ("serve.admission_rejects", traced.per_op("serve.admission_rejects"), COUNT),
        ("serve.disconnect_cancels", traced.per_op("serve.disconnect_cancels"), COUNT),
        ("lambda_c.compile_us", m("lambda_c.compile"), US),
        ("lambda_c.flow_us", m("lambda_c.flow"), US),
        (
            "lambda_c.machine_segment_us",
            m("lambda_c.machine_path") / f64::from(kind.chain_choices()),
            US,
        ),
        ("lambda_c.machine_leaves", traced.per_op("lc.machine_leaves"), COUNT),
        ("lambda_rt.search_us", m("lambda_rt.search"), US),
        ("lambda_rt.leaf_cache_hits", traced.per_op("lc.leaf_cache_hits"), COUNT),
        ("engine.fanout_us.t1", m("engine.fanout.t1"), US),
        ("engine.fanout_us.tN", m("engine.fanout.tN"), US),
        ("engine.threads", per(s.threads), COUNT),
        ("engine.evaluated", per(s.evaluated), COUNT),
        ("engine.pruned", per(s.pruned), COUNT),
        (
            "engine.useful_ratio",
            ratio(s.evaluated as f64, (s.evaluated + s.pruned) as f64),
            FRACTION,
        ),
        ("cache.summary_probe_us", m("cache.summary_probe"), US),
        ("cache.hits", per(s.cache_hits), COUNT),
        ("cache.misses", per(s.cache_misses), COUNT),
        ("cache.insertions", per(s.cache_insertions), COUNT),
        ("cache.evictions", per(s.cache_evictions), COUNT),
        (
            "cache.hit_ratio",
            ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
            FRACTION,
        ),
        ("cache.summary_exact_hits", per(s.summary_exact_hits), COUNT),
        ("cache.summary_misses", per(s.summary_misses), COUNT),
        ("cache.summary_exact_installs", per(s.summary_exact_installs), COUNT),
        ("cache.shard_lock_contended", traced.per_op("cache.shard_lock_contended"), COUNT),
        ("cache.shard_lock_wait_ns.p50", lock_wait as f64, "ns"),
        ("games.tree_gen_us", m("games.tree_gen"), US),
        ("games.solve_cold_us", m("games.solve_cold"), US),
        ("games.solve_warm_us", m("games.solve_warm"), US),
        ("games.ab_leaves", traced.per_op("games.ab_leaves"), COUNT),
        ("games.alphabeta_parallel_us", m("games.alphabeta_parallel"), US),
        ("games.minimax_root_split_us", m("games.minimax_root_split"), US),
        ("ml.tune_training_run_us", m("ml.tune_training_run"), US),
        ("ml.runs_evaluated", per(traced.tally.ml_evaluated), COUNT),
        ("ml.runs_pruned", per(traced.tally.ml_pruned), COUNT),
        ("trace.overhead_us", traced.p50() - untraced.p50(), US),
        ("failed_ratio", failed_ratio, FRACTION),
        ("fail.transport", f.transport as f64, COUNT),
        ("fail.busy", f.busy as f64, COUNT),
        ("fail.timeout", f.timeout as f64, COUNT),
        ("fail.malformed", f.malformed as f64, COUNT),
        ("fail.wrong_winner", f.wrong_winner as f64, COUNT),
    ];
    report
        .record
        .push(("latency_p50_us", format!("untraced={} traced={}", untraced.p50(), traced.p50())));
    report.record.push(("spans", spans.spans.len().to_string()));
}

/// Adds the probes to `rec`, writes every span out, and reports.
fn finish_trace(
    args: &Args,
    report: &mut Report,
    untraced: &Phase,
    mut traced: Phase,
    mut rec: Recorder,
) {
    let summary_len = probes::run_all(args.kind, &mut rec);
    report.record.push(("summary_probe_depth", summary_len.to_string()));
    if let Some(client_spans) = traced.rec.take() {
        rec.absorb(client_spans);
    }
    per_layer(report, args.kind, untraced, &traced, &rec);
    if let Some(path) = &args.spans {
        match rec.write_jsonl(path) {
            Ok(()) => report.record.push(("spans_file", path.display().to_string())),
            Err(e) => report.problems.push(format!("writing spans to {}: {e}", path.display())),
        }
    }
}

fn served_run(args: &Args) -> std::io::Result<Report> {
    let plan = load::served_plan(args.kind, args.seed, args.kind.clients(nproc()));
    let refs = served::References::compute(&plan);
    if !args.trace {
        let mut setups = child_setups(args)?;
        let (served, secs) = timed(|| served::set_up(&plan));
        setups.push(secs);
        let mut served = served?;
        let phase = served::phase(&mut served, &plan, &refs, args.seconds, None);
        let mut report = Report::new(args, served.workers);
        report.count(&phase, "measured");
        report.problems.extend(served::check_accounting(&phase).err());
        end_to_end(&mut report, &setups, &phase);
        return Ok(report);
    }
    let mut served = served::set_up(&plan)?;
    let half = args.seconds / 2.0;
    let untraced = served::phase(&mut served, &plan, &refs, half, None);
    let origin = Instant::now();
    let traced = served::phase(&mut served, &plan, &refs, half, Some(origin));
    let mut report = Report::new(args, served.workers);
    drop(served);
    for phase in [&untraced, &traced] {
        report.problems.extend(served::check_accounting(phase).err());
    }
    report.count(&untraced, "untraced");
    report.count(&traced, "traced");
    let mut rec = Recorder::new(origin);
    let replay_fails = served::replay(&plan, args.kind, &refs, &mut rec);
    report.fails.merge(&replay_fails);
    report.attempted += rec.spans.iter().filter(|s| s.name == "serve.request").count() as u64;
    finish_trace(args, &mut report, &untraced, traced, rec);
    Ok(report)
}

fn offline_run(args: &Args) -> std::io::Result<Report> {
    let plan = load::offline_plan(args.seed);
    let mut report = Report::new(args, 0);
    if !args.trace {
        let mut setups = child_setups(args)?;
        let (batch, secs) = timed(|| offline::set_up(&plan));
        setups.push(secs);
        let refs = offline::references(&batch);
        let phase = offline::phase(&batch, &refs, &plan, args.seconds, None);
        report.count(&phase, "measured");
        end_to_end(&mut report, &setups, &phase);
        return Ok(report);
    }
    let batch = offline::set_up(&plan);
    let refs = offline::references(&batch);
    let half = args.seconds / 2.0;
    // The untraced half keeps the library's default (metrics off), as a
    // library user runs; the traced half records into the registry.
    let untraced = offline::phase(&batch, &refs, &plan, half, None);
    selc_obs::set_metrics_enabled(true);
    let origin = Instant::now();
    let traced = offline::phase(&batch, &refs, &plan, half, Some(origin));
    report.count(&untraced, "untraced");
    report.count(&traced, "traced");
    finish_trace(args, &mut report, &untraced, traced, Recorder::new(origin));
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]");
            exit(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to report numbers from a debug build; build with --release");
        exit(2);
    }
    if args.setup_only {
        if let Err(e) = setup_only(&args) {
            eprintln!("perfbench: {} set-up: {e}", args.kind.name());
            exit(1);
        }
        return;
    }
    let run = match args.kind {
        Kind::OfflineBatch => offline_run(&args),
        _ => served_run(&args),
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            exit(1);
        }
    };
    report.print();
    if !report.correct() {
        exit(1);
    }
}
