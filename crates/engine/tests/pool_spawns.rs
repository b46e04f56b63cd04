//! Once the first search has warmed the pool, no search spawns a
//! thread: the process's OS thread count, read from inside every
//! evaluation and after every search, stays at its warm value across
//! tree walks and walks nested inside a walk's leaves. (A per-search
//! spawn shows up from inside the search even when it is joined before
//! the search returns.) Its own binary, so no other test's threads come
//! and go meanwhile.
#![cfg(target_os = "linux")]

mod common;

use common::LeafTree;
use selc_engine::{minimize, Engine};
use std::sync::atomic::{AtomicUsize, Ordering};

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads").count()
}

/// The most OS threads any evaluation has seen.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn seen<T>(value: T) -> T {
    PEAK.fetch_max(os_threads(), Ordering::Relaxed);
    value
}

#[test]
fn a_warm_process_spawns_no_thread_per_search() {
    let losses: Vec<f64> = (0..16).map(|i| f64::from((i * 29 % 17) as u8)).collect();
    let table = LeafTree::new(4, |i| seen(losses[i]));
    // A walk whose every leaf is itself a walk: the inner fan-outs
    // borrow the same warm helpers.
    let nested = LeafTree::new(3, |i| {
        let inner = LeafTree::new(3, |j| seen(-((i * i + j) as f64)));
        Engine::with_threads(2).search(&inner).unwrap().loss
    });
    let expected = minimize(&Engine::exhaustive(), 16, |i| losses[i]).unwrap().index;
    assert_eq!(Engine::with_threads(2).search(&table).unwrap().index, expected);
    let warm = os_threads();
    PEAK.store(0, Ordering::Relaxed);
    for _ in 0..100 {
        assert_eq!(Engine::with_threads(2).search(&table).unwrap().index, expected);
        let out = Engine::with_threads(2).search(&nested);
        assert_eq!(out.map(|out| (out.index, out.loss)), Some((7, -56.0)));
        assert_eq!(os_threads(), warm, "a search left a thread behind");
    }
    assert_eq!(PEAK.load(Ordering::Relaxed), warm, "a warm search ran on a fresh thread");
}
