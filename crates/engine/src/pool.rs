//! The engine's one thread pool: parked helper threads that persist
//! across searches.
//!
//! [`broadcast`] runs a borrowed job on the calling thread and offers it
//! to `helpers` parked threads as *tickets*. The caller never waits for
//! a helper to start: the job is a work loop over a shared queue, so the
//! caller's own run drains whatever no helper claimed. On return it
//! revokes the unclaimed tickets and waits only for helpers that claimed
//! one, so nested and concurrent broadcasts cannot deadlock. The pool
//! grows to the largest `helpers` ever asked for and never shrinks: a
//! warm process spawns no thread per search. The handoff goes through
//! [`selc_check::sync`], so the model suite below checks it.

use selc_check::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A job as helpers see it: the caller's borrow with its lifetime
/// erased (see the `SAFETY` argument in [`Pool::broadcast`]).
type Job = &'static (dyn Fn() + Sync);

/// One broadcast in flight.
struct Posted {
    id: u64,
    job: Job,
    /// Tickets no helper has claimed yet; zeroed when the caller revokes.
    tickets: usize,
    /// Helpers inside `job` right now.
    running: usize,
    /// Whether some helper's run of `job` panicked.
    panicked: bool,
}

struct State {
    posted: Vec<Posted>,
    next_id: u64,
    closed: bool,
}

impl State {
    /// The broadcast `id`, which stays posted until its caller removes it.
    fn find(&mut self, id: u64) -> &mut Posted {
        self.posted.iter_mut().find(|p| p.id == id).expect("posted until broadcast returns")
    }
}

/// Parked helper threads (each in [`Pool::help`]) and their jobs.
struct Pool {
    state: Mutex<State>,
    /// Helpers park here until a ticket is posted or the pool closes.
    work: Condvar,
    /// Callers park here until their job's running helpers finish.
    done: Condvar,
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            state: Mutex::new(State { posted: Vec::new(), next_id: 0, closed: false }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Locks through poison: jobs run outside the lock.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `job` on the calling thread and on up to `helpers` helpers,
    /// returning once the caller's run and every helper run that started
    /// have finished. Then resumes the caller's panic, or panics with
    /// `"engine worker panicked"` if a helper's run did.
    fn broadcast(&self, helpers: usize, job: &(dyn Fn() + Sync)) {
        if helpers == 0 {
            return job();
        }
        // SAFETY: the erased borrow lives only in this call's `posted`
        // entry, and helpers call it only while counted in its
        // `running`. Before this frame returns or unwinds, the loop
        // below revokes the unclaimed tickets, waits under the lock
        // until `running` is zero, and removes the entry, so no helper
        // can reach `job` once its borrow could end. The caller's own
        // panic is caught and resumed only after that wait, and `find`
        // panics only when the entry is already gone.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        let mut s = self.lock();
        let id = s.next_id;
        s.next_id += 1;
        s.posted.push(Posted { id, job: erased, tickets: helpers, running: 0, panicked: false });
        drop(s);
        for _ in 0..helpers {
            self.work.notify_one();
        }
        let mine = catch_unwind(AssertUnwindSafe(job));
        let mut s = self.lock();
        s.find(id).tickets = 0;
        while s.find(id).running > 0 {
            s = self.done.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        let helper_panicked = s.find(id).panicked;
        s.posted.retain(|p| p.id != id);
        drop(s);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        assert!(!helper_panicked, "engine worker panicked");
    }

    /// The helper loop: claim a ticket, run its job, repeat; park while
    /// there is none; return once the pool is closed.
    fn help(&self) {
        let mut s = self.lock();
        while !s.closed {
            let Some(p) = s.posted.iter_mut().find(|p| p.tickets > 0) else {
                s = self.work.wait(s).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            p.tickets -= 1;
            p.running += 1;
            let (id, job) = (p.id, p.job);
            drop(s);
            let ok = catch_unwind(AssertUnwindSafe(job)).is_ok();
            s = self.lock();
            let p = s.find(id);
            p.running -= 1;
            p.panicked |= !ok;
            if p.running == 0 && p.tickets == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Makes every helper return. The process-wide pool never closes.
    #[cfg(all(test, selc_model))]
    fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
    }
}

/// [`Pool::broadcast`] on the process-wide pool, first growing it to
/// `helpers` threads; a failed spawn only leaves it smaller.
pub(crate) fn broadcast(helpers: usize, job: &(dyn Fn() + Sync)) {
    static POOL: Pool = Pool::new();
    static SPAWNED: Mutex<usize> = Mutex::new(0);
    if helpers > 0 {
        let mut spawned = SPAWNED.lock().unwrap_or_else(PoisonError::into_inner);
        while *spawned < helpers && std::thread::Builder::new().spawn(|| POOL.help()).is_ok() {
            *spawned += 1;
        }
    }
    POOL.broadcast(helpers, job);
}

/// Exhaustive small-schedule verification under the `selc_check` model
/// checker (`RUSTFLAGS="--cfg selc_model" cargo test -p selc-engine`).
#[cfg(all(test, selc_model))]
mod model_tests {
    use super::*;
    use selc_check::model::{check, spawn, Options};
    use selc_check::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// One caller, two helpers, and a job whose two tickets race the
    /// caller's revoke. On every interleaving: `broadcast` returns only
    /// after every started helper has finished; no ticket runs twice;
    /// no revoked ticket runs later; and after `close` every helper
    /// returns (a helper blocked forever is reported as a deadlock).
    #[test]
    fn model_broadcast_waits_for_started_helpers_and_revokes_the_rest() {
        check("pool-handoff", Options::default(), || {
            let pool = Arc::new(Pool::new());
            let helpers: Vec<_> = (0..2)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    spawn(move || pool.help())
                })
                .collect();
            // Runs started, and runs inside the job right now. Two
            // separate ops give the scheduler a point mid-run.
            let runs = AtomicUsize::new(0);
            let inside = AtomicUsize::new(0);
            let job = || {
                runs.fetch_add(1, Ordering::SeqCst); // ordering: model fixture probe
                inside.fetch_add(1, Ordering::SeqCst); // ordering: model fixture probe
                inside.fetch_sub(1, Ordering::SeqCst); // ordering: model fixture probe
            };
            pool.broadcast(2, &job);
            assert_eq!(inside.load(Ordering::SeqCst), 0, "a helper outlived broadcast"); // ordering: model fixture probe
            let ran = runs.load(Ordering::SeqCst); // ordering: model fixture probe
            assert!((1..=3).contains(&ran), "the caller plus at most one run per ticket: {ran}");
            pool.close();
            for h in helpers {
                h.join();
            }
            assert_eq!(runs.load(Ordering::SeqCst), ran, "a revoked ticket ran"); // ordering: model fixture probe
            assert!(pool.lock().posted.is_empty(), "the job was removed");
        });
    }
}
