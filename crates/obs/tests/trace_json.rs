//! The trace flusher's output contract: what it writes must be a
//! well-formed JSON document in the chrome://tracing shape, whatever
//! the rings held. The checker here is a tiny hand-rolled JSON
//! recogniser (the workspace vendors no JSON crate on purpose); CI
//! additionally round-trips a real bench flush through
//! `python3 -m json.tool`.

use selc_obs::trace::{self, SpanLabel, RING_CAPACITY};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Tracing is process-wide: tests that toggle it take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A minimal JSON well-formedness checker: objects, arrays, strings
/// with escapes, numbers, literals — the RFC 8259 grammar modulo
/// leading-zero pedantry. Returns the value's extent or an error
/// offset.
fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn parse_value(b: &[u8], i: usize) -> Result<usize, usize> {
    let i = skip_ws(b, i);
    match b.get(i) {
        Some(b'{') => parse_object(b, i),
        Some(b'[') => parse_array(b, i),
        Some(b'"') => parse_string(b, i),
        Some(b't') => expect_lit(b, i, b"true"),
        Some(b'f') => expect_lit(b, i, b"false"),
        Some(b'n') => expect_lit(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        _ => Err(i),
    }
}

fn expect_lit(b: &[u8], i: usize, lit: &[u8]) -> Result<usize, usize> {
    if b.len() >= i + lit.len() && &b[i..i + lit.len()] == lit {
        Ok(i + lit.len())
    } else {
        Err(i)
    }
}

fn parse_number(b: &[u8], mut i: usize) -> Result<usize, usize> {
    let start = i;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    let digits = |b: &[u8], mut i: usize| -> (usize, bool) {
        let s = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        (i, i > s)
    };
    let (next, any) = digits(b, i);
    if !any {
        return Err(start);
    }
    i = next;
    if b.get(i) == Some(&b'.') {
        let (next, any) = digits(b, i + 1);
        if !any {
            return Err(i);
        }
        i = next;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(b.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        let (next, any) = digits(b, j);
        if !any {
            return Err(i);
        }
        i = next;
    }
    Ok(i)
}

fn parse_string(b: &[u8], i: usize) -> Result<usize, usize> {
    debug_assert_eq!(b.get(i), Some(&b'"'));
    let mut i = i + 1;
    loop {
        match b.get(i) {
            None => return Err(i),
            Some(b'"') => return Ok(i + 1),
            Some(b'\\') => match b.get(i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                Some(b'u') => {
                    let hex = b.get(i + 2..i + 6).ok_or(i)?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(i);
                    }
                    i += 6;
                }
                _ => return Err(i),
            },
            Some(c) if *c < 0x20 => return Err(i),
            Some(_) => i += 1,
        }
    }
}

fn parse_array(b: &[u8], i: usize) -> Result<usize, usize> {
    debug_assert_eq!(b.get(i), Some(&b'['));
    let mut i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b']') {
        return Ok(i + 1);
    }
    loop {
        i = skip_ws(b, parse_value(b, i)?);
        match b.get(i) {
            Some(b',') => i = skip_ws(b, i + 1),
            Some(b']') => return Ok(i + 1),
            _ => return Err(i),
        }
    }
}

fn parse_object(b: &[u8], i: usize) -> Result<usize, usize> {
    debug_assert_eq!(b.get(i), Some(&b'{'));
    let mut i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b'}') {
        return Ok(i + 1);
    }
    loop {
        if b.get(i) != Some(&b'"') {
            return Err(i);
        }
        i = skip_ws(b, parse_string(b, i)?);
        if b.get(i) != Some(&b':') {
            return Err(i);
        }
        i = skip_ws(b, parse_value(b, i + 1)?);
        match b.get(i) {
            Some(b',') => i = skip_ws(b, i + 1),
            Some(b'}') => return Ok(i + 1),
            _ => return Err(i),
        }
    }
}

fn assert_well_formed_json(text: &str) {
    let b = text.as_bytes();
    match parse_value(b, 0) {
        Ok(end) => {
            let rest = skip_ws(b, end);
            assert_eq!(rest, b.len(), "trailing garbage at byte {rest}: {text:?}");
        }
        Err(at) => panic!(
            "not valid JSON at byte {at} ({:?}...): full text {text:?}",
            &text[at..text.len().min(at + 20)]
        ),
    }
}

static OUTER: SpanLabel = SpanLabel::new("test.flush.outer");
static INNER: SpanLabel = SpanLabel::new("test.flush.inner \"quoted\\path\"");

#[test]
fn flushed_traces_are_well_formed_chrome_tracing_json() {
    let _serial = serial();
    // Exercise the escaping path with a hostile label, nested and
    // cross-thread spans, and an empty-ring flush — all in one test
    // binary so the process-global rings see a known event set.
    let empty = {
        let mut buf = Vec::new();
        trace::flush_to_writer(&mut buf).expect("in-memory flush");
        String::from_utf8(buf).expect("utf-8")
    };
    assert_well_formed_json(&empty);
    assert!(empty.contains("\"traceEvents\""), "shape: {empty}");

    trace::set_trace_enabled(true);
    {
        let _outer = trace::span(&OUTER, u64::MAX);
        let _inner = trace::span(&INNER, 0);
        std::thread::spawn(|| {
            let _worker = trace::span(&OUTER, 42);
        })
        .join()
        .expect("worker thread");
    }
    trace::set_trace_enabled(false);

    let mut buf = Vec::new();
    let events = trace::flush_to_writer(&mut buf).expect("in-memory flush");
    assert!(events >= 6, "three spans = six events, got {events}");
    let text = String::from_utf8(buf).expect("utf-8");
    assert_well_formed_json(&text);
    assert!(text.contains("\"ph\":\"B\"") && text.contains("\"ph\":\"E\""));
    // The hostile label survived escaping and the checker accepted it.
    assert!(text.contains("quoted"), "escaped label present: {text}");
    // Two distinct rings (main + worker) means two tids.
    assert!(
        text.contains("\"tid\":0") && text.contains("\"tid\":1"),
        "both worker rings flushed: {text}"
    );

    // The checker itself must reject broken documents, or the test
    // proves nothing.
    for bad in ["{", "{\"a\":}", "[1,]", "\"unterminated", "{\"a\":1} trailing", "01x"] {
        let b = bad.as_bytes();
        let ok = parse_value(b, 0).map(|end| skip_ws(b, end) == b.len()).unwrap_or(false);
        assert!(!ok, "checker accepted invalid JSON {bad:?}");
    }
}

static WRAP: [SpanLabel; 4] = [
    SpanLabel::new("test.wrap.0"),
    SpanLabel::new("test.wrap.1"),
    SpanLabel::new("test.wrap.2"),
    SpanLabel::new("test.wrap.3"),
];

/// The `(name, tid, arg)` of every event in a flushed document. A name
/// with escaped quotes is cut at its first one; callers match on
/// prefixes.
fn events_of(text: &str) -> Vec<(&str, u64, u64)> {
    let number_after = |ev: &str, key: &str| -> u64 {
        let rest = &ev[ev.find(key).unwrap_or_else(|| panic!("{key} in {ev}")) + key.len()..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        rest[..end].parse().unwrap_or_else(|_| panic!("{key} is a number in {ev}"))
    };
    text.split("\n{\"name\":\"")
        .skip(1)
        .map(|ev| {
            let name = &ev[..ev.find('"').expect("a name ends")];
            (name, number_after(ev, "\"tid\":"), number_after(ev, "\"arg\":"))
        })
        .collect()
}

#[test]
fn flushes_racing_a_wrapping_writer_see_only_whole_events() {
    let _serial = serial();
    trace::set_trace_enabled(true);
    let (done, flushes) = (AtomicBool::new(false), AtomicUsize::new(0));
    let mut writer_events = 0;
    std::thread::scope(|s| {
        s.spawn(|| {
            // Twice the ring's capacity in events and more: it wraps.
            for i in 0..RING_CAPACITY as u64 + 1000 {
                // Halfway, wait for a flush, so at least one lands
                // mid-write whatever the scheduler does.
                while i == RING_CAPACITY as u64 / 2 && flushes.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                let _span = trace::span(&WRAP[(i % 4) as usize], i);
            }
            done.store(true, Ordering::Release);
        });
        loop {
            let finished = done.load(Ordering::Acquire);
            let mut buf = Vec::new();
            trace::flush_to_writer(&mut buf).expect("in-memory flush");
            let text = String::from_utf8(buf).expect("utf-8");
            assert_well_formed_json(&text);
            let mut per_ring: BTreeMap<u64, usize> = BTreeMap::new();
            writer_events = 0;
            for (name, tid, arg) in events_of(&text) {
                *per_ring.entry(tid).or_default() += 1;
                if let Some(k) = name.strip_prefix("test.wrap.") {
                    assert_eq!(k, (arg % 4).to_string(), "event {name} carries arg {arg}");
                    writer_events += 1;
                }
            }
            assert!(
                per_ring.values().all(|&n| n <= RING_CAPACITY),
                "a ring reported more than its capacity: {per_ring:?}"
            );
            flushes.fetch_add(1, Ordering::Release);
            if finished {
                break;
            }
        }
    });
    trace::set_trace_enabled(false);
    assert!(flushes.into_inner() >= 2, "at least one flush ran beside the writer");
    assert_eq!(writer_events, RING_CAPACITY, "the writer's full ring, flushed after it finished");
}
