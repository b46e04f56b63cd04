//! Tracing registers one span ring for every thread that records a span
//! (8192 events of at most 32 B, allocated up front: 256 KiB) and keeps
//! it for the life of the process. Engine
//! workers record `engine.claim` spans, so a fan-out that spawned
//! threads per search grew a traced process by one ring per search.
//! With the persistent pool, the rings stop at the pool's helpers plus
//! the searching thread. Its own binary: tracing is process-wide.

use selc_engine::{minimize, ParallelEngine};
use selc_obs::trace;
use std::collections::BTreeSet;

#[test]
fn traced_searches_record_on_a_bounded_set_of_threads() {
    trace::set_trace_enabled(true);
    for round in 0..200 {
        let out = minimize(&ParallelEngine::with_threads(2), 64, |i| ((i * 7 + round) % 13) as f64);
        assert_eq!(out.unwrap().loss, 0.0);
    }
    let path =
        std::env::temp_dir().join(format!("selc-engine-trace-rings-{}.json", std::process::id()));
    trace::flush_to_path(&path).expect("trace flush");
    let json = std::fs::read_to_string(&path).expect("trace read-back");
    let _ = std::fs::remove_file(&path);
    let tids: BTreeSet<&str> =
        json.split("\"tid\":").skip(1).filter_map(|rest| rest.split(',').next()).collect();
    assert!(!tids.is_empty(), "spans were recorded");
    // Every search asked for one helper: the pool holds one thread.
    assert!(tids.len() <= 2, "{} threads recorded spans: {tids:?}", tids.len());
}
