//! The tracing half: per-thread span rings, flushed to chrome://tracing
//! JSON.
//!
//! # Recording
//!
//! A [`Span`] guard records a *begin* event when created and an *end*
//! event when dropped. An event is a plain `Copy` record: the call
//! site's static [`SpanLabel`], one caller-chosen `u64` argument (a
//! subtree prefix, a candidate index), an end flag, and a monotonic
//! nanosecond timestamp from a shared process epoch. Events land in a
//! per-thread ring behind its own lock. Only the owning thread pushes,
//! so the lock is uncontended except while a flush copies that ring out.
//!
//! Rings are bounded ([`RING_CAPACITY`] events); a thread that records
//! more overwrites its own oldest events. Tracing favours the *recent*
//! past — for a bounded-memory always-on facility that is the right loss
//! mode.
//!
//! # Flushing
//!
//! [`flush_to_path`] (or [`flush_if_configured`], keyed on
//! `SELC_TRACE=<path>`) takes each ring's lock in turn and copies its
//! events out, so it only ever sees whole events. It sorts them by
//! timestamp and writes one chrome://tracing JSON object
//! (`{"traceEvents": [...]}`). Load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>; each ring appears as its own `tid` row.

use selc_check::sync::atomic::{AtomicBool, Ordering};
use selc_check::sync::{Mutex, MutexGuard, PoisonError};
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Name of the trace-path variable. Setting it to a non-empty path turns
/// span recording on. Only a process that calls [`flush_if_configured`]
/// writes the file — the e15 bench does, on exit. `selc-serve` records
/// spans but never flushes them.
pub const TRACE_ENV: &str = "SELC_TRACE";

/// Events one thread's ring holds before wrapping (at most 32 B each).
pub const RING_CAPACITY: usize = 8192;

/// The configured trace output path, when `SELC_TRACE` is set to a
/// non-empty value.
#[must_use]
pub fn configured_trace_path() -> Option<String> {
    std::env::var(TRACE_ENV).ok().filter(|p| !p.trim().is_empty())
}

fn enabled_cell() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| AtomicBool::new(configured_trace_path().is_some()))
}

/// Whether span recording is live (one relaxed load — the entire cost
/// of a [`span`] call when tracing is off).
#[inline]
#[must_use]
pub fn trace_enabled() -> bool {
    // ordering: Relaxed — an advisory on/off bit with no data behind
    // it; a span racing a toggle may record or not, both acceptable.
    enabled_cell().load(Ordering::Relaxed)
}

/// Turns span recording on or off at runtime, overriding `SELC_TRACE`.
pub fn set_trace_enabled(on: bool) {
    // ordering: Relaxed — see `trace_enabled`.
    enabled_cell().store(on, Ordering::Relaxed);
}

/// Nanoseconds since the process's first trace event (a shared
/// monotonic epoch, so timestamps from different threads order).
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A span label, one static per call site:
///
/// ```
/// use selc_obs::trace::{self, SpanLabel};
/// static CLAIM: SpanLabel = SpanLabel::new("engine.claim");
/// let _span = trace::span(&CLAIM, 7);
/// ```
pub struct SpanLabel {
    name: &'static str,
}

impl SpanLabel {
    /// A label named `name`.
    #[must_use]
    pub const fn new(name: &'static str) -> SpanLabel {
        SpanLabel { name }
    }
}

/// One begin or end event, copied whole into and out of its ring.
#[derive(Clone, Copy)]
struct Event {
    label: &'static SpanLabel,
    ts_ns: u64,
    arg: u64,
    is_end: bool,
}

// Keeps a full ring at 256 KiB.
const _: () = assert!(std::mem::size_of::<Event>() <= 32);

/// One thread's events, oldest first.
struct Ring {
    /// Worker id (registration order) — the chrome `tid` row.
    tid: u64,
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
}

impl Ring {
    /// A ring over `capacity` slots, allocated up front so recording
    /// never allocates. The model suite uses a tiny one so a flush can
    /// race a wrapping writer within a bounded schedule search.
    fn new(tid: u64, capacity: usize) -> Ring {
        Ring { tid, capacity, events: Mutex::new(VecDeque::with_capacity(capacity)) }
    }

    /// The ring's events. Every push and copy leaves them valid, so a
    /// poisoned lock is still sound to take: `Span::drop` never panics
    /// on one.
    fn lock(&self) -> MutexGuard<'_, VecDeque<Event>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends an event, dropping the oldest once the ring is full.
    fn push(&self, label: &'static SpanLabel, is_end: bool, arg: u64) {
        let event = Event { label, ts_ns: now_ns(), arg, is_end };
        let mut events = self.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// Copies every resident event out, oldest first, with this ring's
    /// tid.
    fn collect_into(&self, out: &mut Vec<(u64, Event)>) {
        out.extend(self.lock().iter().map(|&e| (self.tid, e)));
    }
}

/// Every ring ever registered. A ring outlives its thread, so a later
/// flush still reports a finished worker's events.
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

thread_local! {
    static MY_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

/// Pushes onto the calling thread's ring, registering it on first use.
fn record(label: &'static SpanLabel, is_end: bool, arg: u64) {
    MY_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let mut all = RINGS.lock().expect("trace ring registry poisoned");
            let ring = Arc::new(Ring::new(all.len() as u64, RING_CAPACITY));
            all.push(Arc::clone(&ring));
            ring
        });
        ring.push(label, is_end, arg);
    });
}

/// An in-flight span: records a begin event on creation (when tracing
/// is enabled) and the matching end event on drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing"]
pub struct Span {
    /// `Some` only when the begin event was actually recorded, so an
    /// end is never emitted without its begin (e.g. tracing toggled on
    /// mid-span).
    live: Option<(&'static SpanLabel, u64)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((label, arg)) = self.live {
            record(label, true, arg);
        }
    }
}

/// Opens a span under `label` carrying `arg`. When tracing is disabled
/// this is a relaxed load, a branch, and an inert guard.
#[inline]
pub fn span(label: &'static SpanLabel, arg: u64) -> Span {
    if !trace_enabled() {
        return Span { live: None };
    }
    record(label, false, arg);
    Span { live: Some((label, arg)) }
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serialises every resident span event as one chrome://tracing JSON
/// object and writes it to `w`. Returns the number of events written.
/// Rings are left intact (a later flush re-reports what still fits in
/// the rings); the output is a whole JSON document either way.
///
/// # Errors
///
/// Propagates write failures.
pub fn flush_to_writer<W: Write>(w: &mut W) -> io::Result<usize> {
    let mut events = Vec::new();
    for ring in RINGS.lock().expect("trace ring registry poisoned").iter() {
        ring.collect_into(&mut events);
    }
    // Begin-before-end at equal timestamps keeps chrome's stack
    // builder happy on zero-length spans.
    events.sort_by_key(|&(tid, e)| (e.ts_ns, tid, e.is_end));
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, (tid, e)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        json_escape(e.label.name, &mut out);
        let ph = if e.is_end { "E" } else { "B" };
        let ts_us = e.ts_ns as f64 / 1000.0;
        out.push_str(&format!(
            "\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\"args\":{{\"arg\":{}}}}}",
            e.arg
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    w.write_all(out.as_bytes())?;
    Ok(events.len())
}

/// [`flush_to_writer`] into a freshly created (or truncated) file.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn flush_to_path<P: AsRef<Path>>(path: P) -> io::Result<usize> {
    let mut file = std::fs::File::create(path)?;
    let n = flush_to_writer(&mut file)?;
    file.flush()?;
    Ok(n)
}

/// Flushes to the `SELC_TRACE` path when that knob is set: the one call
/// a bench makes at exit. Returns the path and event count when a flush
/// happened.
///
/// # Errors
///
/// Propagates failures from [`flush_to_path`].
pub fn flush_if_configured() -> io::Result<Option<(String, usize)>> {
    match configured_trace_path() {
        Some(path) => {
            let n = flush_to_path(&path)?;
            Ok(Some((path, n)))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().expect("serial lock poisoned")
    }

    fn resident() -> Vec<(u64, Event)> {
        let mut events = Vec::new();
        for ring in RINGS.lock().unwrap().iter() {
            ring.collect_into(&mut events);
        }
        events
    }

    static TEST_SPAN: SpanLabel = SpanLabel::new("test.trace.work");
    static TEST_INNER: SpanLabel = SpanLabel::new("test.trace.inner");

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = serial();
        let was = trace_enabled();
        set_trace_enabled(false);
        let before = resident().len();
        {
            let _s = span(&TEST_SPAN, 1);
        }
        assert_eq!(before, resident().len(), "disabled spans must not land in any ring");
        set_trace_enabled(was);
    }

    #[test]
    fn spans_nest_and_flush_in_timestamp_order() {
        let _guard = serial();
        let was = trace_enabled();
        set_trace_enabled(true);
        {
            let _outer = span(&TEST_SPAN, 7);
            let _inner = span(&TEST_INNER, 8);
        }
        set_trace_enabled(was);
        let mut buf = Vec::new();
        let n = flush_to_writer(&mut buf).expect("in-memory flush cannot fail");
        assert!(n >= 4, "two spans = four events, got {n}");
        let text = String::from_utf8(buf).expect("trace output is utf-8");
        assert!(text.contains("\"name\":\"test.trace.work\""), "output: {text}");
        assert!(text.contains("\"name\":\"test.trace.inner\""), "output: {text}");
        assert!(text.contains("\"ph\":\"B\"") && text.contains("\"ph\":\"E\""));
        assert!(text.contains("\"args\":{\"arg\":7}"), "output: {text}");
        // Begins precede their ends for the recording thread.
        let begin = text.find("test.trace.work").expect("begin present");
        let end = text.rfind("test.trace.work").expect("end present");
        assert!(begin < end, "begin and end both present");
    }

    #[test]
    fn rings_wrap_without_panicking_and_keep_the_recent_past() {
        let _guard = serial();
        let was = trace_enabled();
        set_trace_enabled(true);
        for i in 0..(RING_CAPACITY as u64 + 100) {
            let _s = span(&TEST_SPAN, i);
        }
        set_trace_enabled(was);
        let events = resident();
        let mine: Vec<&Event> = events
            .iter()
            .map(|(_, e)| e)
            .filter(|e| std::ptr::eq(e.label, &TEST_SPAN) && e.arg > RING_CAPACITY as u64 / 2)
            .collect();
        assert!(!mine.is_empty(), "recent events survive the wrap");
        // This thread's ring holds exactly its last CAP events: the
        // begins and ends of spans 100 + CAP / 2 onward.
        assert_eq!(mine.len(), RING_CAPACITY, "the ring keeps exactly its capacity");
        assert!(
            events.iter().all(|(_, e)| e.ts_ns > 0 || e.arg == 0),
            "events carry real timestamps"
        );
    }
}

/// Exhaustive small-schedule verification under the `selc_check` model
/// checker (`RUSTFLAGS="--cfg selc_model" cargo test -p selc-obs`).
#[cfg(all(test, selc_model))]
mod model_tests {
    use super::*;
    use selc_check::model::{check, spawn, Options};

    static LABELS: [SpanLabel; 3] =
        [SpanLabel::new("first"), SpanLabel::new("second"), SpanLabel::new("third")];

    fn label_index(e: &Event) -> usize {
        LABELS.iter().position(|l| std::ptr::eq(l, e.label)).expect("a known label")
    }

    /// A writer wrapping a two-slot ring while a flush copies it out. On
    /// every interleaving, each event the flush reports comes whole from
    /// one push (`arg` is a function of the label that a mixed event
    /// would break), and the flush never reports more than the ring's
    /// two slots. Once the writer is joined, the ring holds its last two
    /// pushes.
    #[test]
    fn model_flush_sees_whole_events_of_a_wrapping_writer() {
        check("trace-ring-whole-events", Options::default(), || {
            let ring = Arc::new(Ring::new(0, 2));
            let writer = {
                let ring = Arc::clone(&ring);
                spawn(move || {
                    for (i, label) in LABELS.iter().enumerate() {
                        ring.push(label, false, i as u64 * 7);
                    }
                })
            };
            let reader = {
                let ring = Arc::clone(&ring);
                spawn(move || {
                    let mut events = Vec::new();
                    ring.collect_into(&mut events);
                    for (_, e) in &events {
                        let i = label_index(e) as u64;
                        assert_eq!(e.arg, i * 7, "a reported event mixes fields from two pushes");
                        assert!(!e.is_end);
                    }
                    events.len()
                })
            };
            writer.join();
            let seen = reader.join();
            assert!(seen <= 2, "a two-slot ring never reports more than two events");
            let mut settled = Vec::new();
            ring.collect_into(&mut settled);
            let kept: Vec<usize> = settled.iter().map(|(_, e)| label_index(e)).collect();
            assert_eq!(kept, vec![1, 2], "the ring keeps the recent past after wrapping");
        });
    }
}
