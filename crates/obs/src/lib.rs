//! Workspace observability: metrics and trace spans, with nothing in
//! the way when they are off.
//!
//! This crate sits *below* every other workspace crate (it depends on
//! nothing, not even `selc`), so any layer — the cache's shard locks,
//! the engines' worker loops, the serve daemon's request path — can be
//! instrumented without a dependency cycle. It has two halves:
//!
//! * [`metrics`] — a process-global registry of named [atomic counters]
//!   [metrics::Counter], [gauges][metrics::Gauge], and [log2-bucketed
//!   histograms][metrics::Histogram], read out as a deterministic
//!   [`MetricsSnapshot`] (sorted names, subtractable like
//!   `selc_cache::CacheStats`). Gated by the `SELC_METRICS` knob: when
//!   off, every record path is one relaxed load and a branch.
//! * [`trace`] — per-thread ring buffers of begin/end span events
//!   (monotonic timestamps, worker id, static label + one `u64`
//!   argument), each behind its own lock, flushed on demand to
//!   chrome://tracing JSON when `SELC_TRACE=<path>` is set.
//!
//! Both halves are *pull*-based: recording does no I/O and allocates
//! only the first time a metric site or a tracing thread records.
//! Aggregation and formatting happen only when somebody asks (a
//! `Metrics` scrape over the serve protocol, a trace flush at the end of
//! a bench). Updating a resolved metric handle never blocks; recording a
//! span waits only while a flush copies that thread's ring. See
//! `DESIGN.md` § Observability for the overhead argument and the snapshot
//! determinism contract.

pub mod metrics;
pub mod trace;

pub use metrics::{
    histogram_bucket_floor, histogram_bucket_of, metrics_enabled, set_metrics_enabled, Counter,
    Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsSnapshot, HISTOGRAM_BUCKETS,
    METRICS_ENV,
};
pub use trace::{set_trace_enabled, trace_enabled, Span, SpanLabel, TRACE_ENV};
