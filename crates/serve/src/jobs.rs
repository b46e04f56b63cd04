//! The search-slot queue: the server fills a `JobQueue<()>` with one
//! `()` per [`crate::ServeConfig::workers`] slot; a session takes one
//! with [`JobQueue::next`] to search and returns it with `submit`.
//!
//! [`JobQueue::close`] refuses every later submission, drops every
//! queued item, and wakes every waiter, under one lock, so shutdown ends
//! the sessions waiting for a slot that no search would hand back.

use selc_check::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::collections::VecDeque;

/// A blocking FIFO whose close is one-way.
pub(crate) struct JobQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

struct State<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    pub(crate) fn new() -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(State { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Locks through poison, like `server::lock_clean`.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job` for a waiter, or hands it back once the queue is
    /// closed.
    pub(crate) fn submit(&self, job: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is queued and returns it; `None` once the
    /// queue is closed.
    pub(crate) fn next(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return None;
            }
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Refuses further submissions, drops every queued job, and wakes
    /// every waiter.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.jobs.clear();
        drop(state);
        self.ready.notify_all();
    }
}

/// Exhaustive small-schedule verification under the `selc_check` model
/// checker (`RUSTFLAGS="--cfg selc_model" cargo test -p selc-serve --lib`).
#[cfg(all(test, selc_model))]
mod model_tests {
    use super::*;
    use selc_check::model::{check, spawn, Options};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// How a job left the queue's hands.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Fate {
        Served,
        Refused,
        Dropped,
    }

    /// A job that logs its fate when dropped. The log is a plain `std`
    /// mutex: it is bookkeeping, not part of the protocol under test.
    struct Probe {
        id: usize,
        fate: Fate,
        log: Arc<std::sync::Mutex<Vec<(usize, Fate)>>>,
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            self.log.lock().unwrap_or_else(PoisonError::into_inner).push((self.id, self.fate));
        }
    }

    /// Two workers, a submitter of two jobs, and a racing `close`. On
    /// every interleaving: each job is served exactly once, dropped by
    /// `close`, or refused, and nothing is left in the queue; no
    /// `submit` succeeds after `close` returned; and no worker blocks
    /// after `close` (a blocked worker would be reported as a deadlock).
    /// The test thread is the submitter, and the `closed` flag is a
    /// plain `std` atomic, to keep the schedule space small.
    #[test]
    fn model_close_drops_queued_jobs_and_releases_every_worker() {
        check("job-queue-close", Options::default(), || {
            let q = Arc::new(JobQueue::<Probe>::new());
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let closed = Arc::new(AtomicBool::new(false));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    spawn(move || {
                        while let Some(mut job) = q.next() {
                            job.fate = Fate::Served;
                        }
                    })
                })
                .collect();
            let closer = {
                let (q, closed) = (Arc::clone(&q), Arc::clone(&closed));
                spawn(move || {
                    q.close();
                    closed.store(true, Ordering::SeqCst); // ordering: model fixture probe
                })
            };
            for id in 0..2 {
                let after_close = closed.load(Ordering::SeqCst); // ordering: model fixture probe
                let job = Probe { id, fate: Fate::Dropped, log: Arc::clone(&log) };
                if let Err(mut refused) = q.submit(job) {
                    refused.fate = Fate::Refused;
                } else {
                    assert!(!after_close, "a submit succeeded after close");
                }
            }
            closer.join();
            for worker in workers {
                worker.join();
            }
            // The queue is still alive here: a job stranded in it would
            // be missing from the log.
            let mut fates = log.lock().unwrap_or_else(PoisonError::into_inner).clone();
            fates.sort_by_key(|&(id, _)| id);
            let ids: Vec<usize> = fates.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, [0, 1], "every job left the queue exactly once: {fates:?}");
            assert!(q.lock().jobs.is_empty());
        });
    }
}
