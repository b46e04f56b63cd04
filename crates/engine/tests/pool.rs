//! The engine's persistent worker pool under stress: a panic on a
//! helper reaches the caller and leaves the pool usable, and tree walks
//! that fan out from several threads at once, each nesting a second
//! walk inside its leaves, all finish with the sequential winner.

mod common;

use common::LeafTree;
use selc_engine::{minimize, Engine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

fn losses() -> Vec<f64> {
    (0..64).map(|i| f64::from((i * 37 % 23) as u8)).collect()
}

#[test]
fn a_helper_panic_reaches_the_caller_and_leaves_the_pool_usable() {
    let caller = std::thread::current().id();
    // Two subtree roots of four leaves each. The barrier holds the walk
    // of each root at its first leaf until the other root is claimed,
    // so one of the two runs on a helper; that one panics.
    let barrier = Barrier::new(2);
    let tree = LeafTree {
        min_leaf: 1,
        ..LeafTree::new(3, |i| {
            if i % 4 == 0 {
                barrier.wait();
                assert_eq!(std::thread::current().id(), caller, "deliberate helper panic");
            }
            0.0
        })
    };
    let result = catch_unwind(AssertUnwindSafe(|| Engine::with_threads(2).search(&tree)));
    let payload = result.expect_err("the helper's panic reaches the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    assert!(msg.is_some_and(|m| m.starts_with("engine worker panicked")), "{msg:?}");

    let losses = losses();
    let seq = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
    let par = Engine::with_threads(2).search(&LeafTree::new(6, |i| losses[i])).unwrap();
    assert_eq!(
        (par.index, par.loss),
        (seq.index, seq.loss),
        "the same pool serves the next search"
    );
}

#[test]
fn concurrent_searches_with_nested_fan_outs_return_the_sequential_winner() {
    let losses = losses();
    // Every leaf's loss is itself a two-worker walk over eight leaves.
    let leaf = |i: usize| {
        let inner = LeafTree::new(3, |j| losses[(i + j * 8) % 64]);
        Engine::with_threads(2).search(&inner).expect("eight leaves").loss
    };
    let seq = minimize(&Engine::exhaustive(), losses.len(), leaf).unwrap();
    let tree = LeafTree::new(6, leaf);
    let winners: Vec<_> = std::thread::scope(|s| {
        let searches: Vec<_> =
            (0..4).map(|_| s.spawn(|| Engine::with_threads(2).search(&tree).unwrap())).collect();
        searches.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for out in winners {
        assert_eq!((out.index, out.loss), (seq.index, seq.loss));
    }
}
