//! The `SELC_THREADS` knob, tested in its own process so the env
//! mutation cannot race other tests.

mod common;

use common::LeafTree;
use selc_engine::{configured_threads, Engine, THREADS_ENV};

#[test]
fn selc_threads_env_sizes_the_pool() {
    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(configured_threads(), 3);
    let tree = LeafTree::new(7, |i| f64::from((i % 7) as u32));
    let out = Engine::auto().search(&tree).unwrap();
    assert_eq!(out.stats.threads, 3);
    assert_eq!(out.index, 0);

    // Garbage falls back to the hardware default (positive, and the
    // search still works).
    std::env::set_var(THREADS_ENV, "not-a-number");
    assert!(configured_threads() >= 1);
    std::env::set_var(THREADS_ENV, "0");
    assert!(configured_threads() >= 1, "zero is rejected, not honoured");

    std::env::remove_var(THREADS_ENV);
    assert!(configured_threads() >= 1);
}
