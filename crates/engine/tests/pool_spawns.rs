//! Once the first search has warmed the pool, no search spawns a
//! thread: the process's OS thread count, read from inside every
//! evaluation and after every search, stays at its warm value across
//! flat, tree and `parallel_subtrees` searches. (A per-search spawn
//! shows up from inside the search even when it is joined before the
//! search returns.) Its own binary, so no other test's threads come and
//! go meanwhile.
#![cfg(target_os = "linux")]

use selc_engine::{minimize, parallel_subtrees, Engine, TreeEval, TreeStep};
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

/// A depth-4 decision tree over a loss table: node = prefix.
struct Table(Vec<f64>);

impl Table {
    const DEPTH: u32 = 4;

    fn step(&self, path: u64, len: u32) -> TreeStep<(), f64> {
        if len == Self::DEPTH {
            TreeStep::Leaf { loss: seen(self.0[path as usize]), used: len }
        } else {
            TreeStep::Node { node: (), hint: None }
        }
    }
}

impl TreeEval<f64> for Table {
    type Node = ();
    fn depth(&self) -> u32 {
        Self::DEPTH
    }
    fn enter(&self, prefix: u64, len: u32) -> TreeStep<(), f64> {
        self.step(prefix, len)
    }
    fn child(&self, _node: &(), _decision: bool, path: u64, len: u32) -> TreeStep<(), f64> {
        self.step(path, len)
    }
}

#[test]
fn a_warm_process_spawns_no_thread_per_search() {
    let table = Table((0..16).map(|i| f64::from((i * 29 % 17) as u8)).collect());
    let flat = || minimize(&Engine::with_threads(2), 16, |i| seen(table.0[i])).unwrap();
    let expected = flat().index;
    let warm = os_threads();
    PEAK.store(0, Ordering::Relaxed);
    for _ in 0..100 {
        assert_eq!(flat().index, expected);
        assert_eq!(Engine::with_threads(2).search(&table).unwrap().index, expected);
        assert_eq!(parallel_subtrees(2, 8, |i| seen(i * i))[7], 49);
        assert_eq!(os_threads(), warm, "a search left a thread behind");
    }
    assert_eq!(PEAK.load(Ordering::Relaxed), warm, "a warm search ran on a fresh thread");
}
