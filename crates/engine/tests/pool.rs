//! The engine's persistent worker pool under stress: a panic on a
//! helper reaches the caller and leaves the pool usable, and searches
//! that fan out from several threads at once, each nesting a second
//! fan-out inside its evaluator, all finish with the sequential winner.

use selc_engine::{minimize, Engine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

fn losses() -> Vec<f64> {
    (0..64).map(|i| f64::from((i * 37 % 23) as u8)).collect()
}

#[test]
fn a_helper_panic_reaches_the_caller_and_leaves_the_pool_usable() {
    let caller = std::thread::current().id();
    // The barrier holds each task until the other is claimed, so one of
    // the two runs on a helper; that one panics.
    let barrier = Barrier::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        Engine::with_threads(2).scan(2, |_, _| {
            barrier.wait();
            assert_eq!(std::thread::current().id(), caller, "deliberate helper panic");
            Some(0.0)
        })
    }));
    let payload = result.expect_err("the helper's panic reaches the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    assert!(msg.is_some_and(|m| m.starts_with("engine worker panicked")), "{msg:?}");

    let losses = losses();
    let seq = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
    let par = minimize(&Engine::with_threads(2), losses.len(), |i| losses[i]).unwrap();
    assert_eq!(
        (par.index, par.loss),
        (seq.index, seq.loss),
        "the same pool serves the next search"
    );
}

#[test]
fn concurrent_searches_with_nested_fan_outs_return_the_sequential_winner() {
    let losses = losses();
    // Every candidate's loss is itself a two-worker fan-out.
    let eval = |i: usize| {
        minimize(&Engine::with_threads(2), 4, |j| losses[(i + j * 16) % losses.len()])
            .expect("four candidates")
            .loss
    };
    let seq = minimize(&Engine::exhaustive(), losses.len(), eval).unwrap();
    let winners: Vec<_> = std::thread::scope(|s| {
        let searches: Vec<_> = (0..4)
            .map(|_| s.spawn(|| minimize(&Engine::with_threads(2), losses.len(), eval).unwrap()))
            .collect();
        searches.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for out in winners {
        assert_eq!((out.index, out.loss), (seq.index, seq.loss));
    }
}
