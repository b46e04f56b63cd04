//! The search slots: a counter built with one free slot per
//! [`crate::ServeConfig::workers`]; a session takes one with
//! [`Slots::take`] to search and returns it with [`Slots::give`].
//!
//! [`Slots::close`] makes every later `take` fail and wakes every
//! waiter, under one lock, so shutdown ends the sessions waiting for a
//! slot that no search would hand back.

use selc_check::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A blocking counter of free search slots whose close is one-way.
pub(crate) struct Slots {
    /// `(free slots, closed)`.
    state: Mutex<(usize, bool)>,
    freed: Condvar,
}

impl Slots {
    pub(crate) fn new(free: usize) -> Slots {
        Slots { state: Mutex::new((free, false)), freed: Condvar::new() }
    }

    /// Locks through poison, like `server::lock_clean`.
    fn lock(&self) -> MutexGuard<'_, (usize, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until a slot is free and takes it; `false` once the
    /// counter is closed.
    pub(crate) fn take(&self) -> bool {
        let mut state = self.lock();
        loop {
            match &mut *state {
                (_, true) => return false,
                (0, false) => {
                    state = self.freed.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                (free, false) => {
                    *free -= 1;
                    return true;
                }
            }
        }
    }

    /// Returns a taken slot.
    pub(crate) fn give(&self) {
        self.lock().0 += 1;
        self.freed.notify_one();
    }

    /// Fails every later `take` and wakes every waiter.
    pub(crate) fn close(&self) {
        self.lock().1 = true;
        self.freed.notify_all();
    }
}

/// Exhaustive small-schedule verification under the `selc_check` model
/// checker (`RUSTFLAGS="--cfg selc_model" cargo test -p selc-serve --lib`).
#[cfg(all(test, selc_model))]
mod model_tests {
    use super::*;
    use selc_check::model::{check, spawn, Options};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// One slot, held by the test thread while two takers queue for it,
    /// then handed back while a `close` races it. On every
    /// interleaving: no taker blocks after `close` (a blocked taker
    /// would be reported as a deadlock — the one `give` wakes only one
    /// of them); no `take` succeeds after `close` returned; and at most
    /// one slot is held at a time. The `closed` flag and the `held`
    /// count are plain `std` atomics, to keep the schedule space small.
    #[test]
    fn model_close_fails_later_takes_and_releases_every_waiter() {
        check("slots-close", Options::default(), || {
            let slots = Arc::new(Slots::new(1));
            assert!(slots.take(), "the one slot starts free");
            let held = Arc::new(AtomicUsize::new(1));
            let closed = Arc::new(AtomicBool::new(false));
            let takers: Vec<_> = (0..2)
                .map(|_| {
                    let (slots, closed, held) =
                        (Arc::clone(&slots), Arc::clone(&closed), Arc::clone(&held));
                    spawn(move || {
                        let after_close = closed.load(Ordering::SeqCst); // ordering: model fixture probe
                        if slots.take() {
                            assert!(!after_close, "a take succeeded after close");
                            let holding = held.fetch_add(1, Ordering::SeqCst) + 1; // ordering: model fixture probe
                            assert_eq!(holding, 1, "two slots held out of one");
                            held.fetch_sub(1, Ordering::SeqCst); // ordering: model fixture probe
                            slots.give();
                        }
                    })
                })
                .collect();
            let closer = {
                let (slots, closed) = (Arc::clone(&slots), Arc::clone(&closed));
                spawn(move || {
                    slots.close();
                    closed.store(true, Ordering::SeqCst); // ordering: model fixture probe
                })
            };
            held.fetch_sub(1, Ordering::SeqCst); // ordering: model fixture probe
            slots.give();
            closer.join();
            for taker in takers {
                taker.join();
            }
            assert!(!slots.take(), "a closed counter hands out no slot");
        });
    }
}
