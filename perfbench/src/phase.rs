//! What one measured phase produced, shared by the served and the
//! offline workloads.

use crate::measure::{host_steal_s, median, percentile, process_cpu_s, ratio};
use crate::trace::Recorder;
use selc_obs::MetricsSnapshot;
use selc_serve::{Response, WireStats};
use std::time::{Duration, Instant};

/// Equal windows a phase is cut into. End-to-end figures are medians
/// over the faster half of them (most ops completed). On a shared host,
/// outside load comes in bursts of seconds and only ever slows a window
/// down; the faster half is the workload's own speed. Each window's host
/// steal is kept for the run record.
pub const WINDOWS: u32 = 20;

/// Failed ops by kind. A wrong winner is any answer that is not
/// bit-identical (index and loss bits) to the reference, and any reply
/// of a kind the op cannot legitimately get.
#[derive(Clone, Copy, Debug, Default)]
pub struct Failures {
    pub transport: u64,
    pub busy: u64,
    pub timeout: u64,
    pub malformed: u64,
    pub wrong_winner: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.transport + self.busy + self.timeout + self.malformed + self.wrong_winner
    }

    pub fn merge(&mut self, o: &Failures) {
        self.transport += o.transport;
        self.busy += o.busy;
        self.timeout += o.timeout;
        self.malformed += o.malformed;
        self.wrong_winner += o.wrong_winner;
    }

    /// Files a reply the op did not expect.
    pub fn unexpected(&mut self, resp: &Response) {
        match resp {
            Response::Busy => self.busy += 1,
            Response::Timeout { .. } => self.timeout += 1,
            Response::Malformed(_) => self.malformed += 1,
            _ => self.wrong_winner += 1,
        }
    }
}

/// Search telemetry summed over a phase's completed searches, plus the
/// tuning runs of offline jobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub search: WireStats,
    pub ml_evaluated: u64,
    pub ml_pruned: u64,
}

impl Tally {
    pub fn add(&mut self, s: &WireStats) {
        let t = &mut self.search;
        t.evaluated += s.evaluated;
        t.pruned += s.pruned;
        t.threads += s.threads;
        t.cache_hits += s.cache_hits;
        t.cache_misses += s.cache_misses;
        t.cache_insertions += s.cache_insertions;
        t.cache_evictions += s.cache_evictions;
        t.summary_exact_hits += s.summary_exact_hits;
        t.summary_bound_hits += s.summary_bound_hits;
        t.summary_misses += s.summary_misses;
        t.summary_exact_installs += s.summary_exact_installs;
        t.summary_bound_installs += s.summary_bound_installs;
    }

    pub fn merge(&mut self, o: &Tally) {
        self.add(&o.search);
        self.ml_evaluated += o.ml_evaluated;
        self.ml_pruned += o.ml_pruned;
    }
}

/// A phase's clock: its start, window length and deadline.
#[derive(Clone, Copy)]
pub struct Clock {
    pub start: Instant,
    pub window: Duration,
    pub until: Instant,
}

impl Clock {
    pub fn start(seconds: f64) -> Clock {
        let window = Duration::from_secs_f64(seconds) / WINDOWS;
        let start = Instant::now();
        Clock { start, window, until: start + window * WINDOWS }
    }

    /// Samples at the start and at each window's end; run on a thread
    /// of its own beside the load.
    pub fn sample(&self) -> Vec<Mark> {
        let mark = || Mark { cpu_s: process_cpu_s(), steal_s: host_steal_s() };
        let mut marks = vec![mark()];
        for w in 1..=WINDOWS {
            let at = self.start + self.window * w;
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            marks.push(mark());
        }
        marks
    }
}

/// Process CPU (every thread) and host steal, both in seconds.
#[derive(Clone, Copy)]
pub struct Mark {
    pub cpu_s: f64,
    pub steal_s: f64,
}

/// The end-to-end figures of a phase, each a median over its faster
/// windows, and the host steal of every window.
pub struct Steady {
    pub throughput: f64,
    pub p50: f64,
    pub p90: f64,
    pub cpu_us_per_op: f64,
    pub steal_s: Vec<f64>,
}

/// One measured phase: closed-loop ops until the clock ran out.
pub struct Phase {
    pub window: Duration,
    /// Samples at the start and at each window end.
    pub marks: Vec<Mark>,
    /// Completion offset and latency (µs) of each correctly answered
    /// search (job).
    pub done: Vec<(Duration, f64)>,
    pub attempted: u64,
    pub fails: Failures,
    pub tally: Tally,
    /// Metrics-registry delta across the phase.
    pub scrape: MetricsSnapshot,
    /// Client-side spans, when the phase was traced.
    pub rec: Option<Recorder>,
}

fn sorted(lat: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = lat.collect();
    v.sort_by(f64::total_cmp);
    v
}

impl Phase {
    pub fn completed(&self) -> u64 {
        self.done.len() as u64
    }

    /// Median latency over the whole phase.
    pub fn p50(&self) -> f64 {
        percentile(&sorted(self.done.iter().map(|d| d.1)), 50.0)
    }

    pub fn steady(&self) -> Steady {
        let windows = self.marks.len() - 1;
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for &(at, us) in &self.done {
            // Ops that finish past the last window end are not counted.
            if let Some(w) = lat.get_mut((at.as_nanos() / self.window.as_nanos()) as usize) {
                w.push(us);
            }
        }
        let steal_s: Vec<f64> =
            self.marks.windows(2).map(|m| m[1].steal_s - m[0].steal_s).collect();
        let mut fast: Vec<usize> = (0..windows).collect();
        fast.sort_by_key(|&w| std::cmp::Reverse(lat[w].len()));
        fast.truncate(windows.div_ceil(2));
        let (mut tput, mut p50, mut p90, mut cpu) = (vec![], vec![], vec![], vec![]);
        for w in fast {
            let window = sorted(lat[w].iter().copied());
            let ops = window.len() as f64;
            tput.push(ops / self.window.as_secs_f64());
            p50.push(percentile(&window, 50.0));
            p90.push(percentile(&window, 90.0));
            cpu.push(ratio((self.marks[w + 1].cpu_s - self.marks[w].cpu_s) * 1e6, ops));
        }
        Steady {
            throughput: median(&tput),
            p50: median(&p50),
            p90: median(&p90),
            cpu_us_per_op: median(&cpu),
            steal_s,
        }
    }

    /// A scraped counter's delta per completed search.
    pub fn per_op(&self, counter: &str) -> f64 {
        ratio(self.scrape.counter(counter) as f64, self.completed() as f64)
    }
}
