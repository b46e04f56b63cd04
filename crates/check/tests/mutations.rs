//! Mutation regression tests: the model checker must *catch* known
//! historical bugs when they are deliberately reintroduced, and the
//! failing interleaving's seed must replay deterministically.
//!
//! Three mutants are reproduced locally (the real code is fixed; copying
//! the buggy shape here keeps the workspace honest without shipping the
//! bug):
//!
//! * `MutantQueue` — the pre-saturation work queue cursor: a bare
//!   `fetch_add` that wraps past `usize::MAX` and re-issues index 0 (the
//!   bug the saturating `fetch_update` in `selc_engine::queue` fixed).
//! * `MutantBound` — a shared best-loss bound whose domination test is
//!   non-strict (`>=` instead of `>`): a candidate *tying* the best is
//!   pruned, which breaks the deterministic `(loss, index)` tie-break.
//! * `MutantPool` — the engine pool's handoff (`selc_engine::pool`)
//!   with a `broadcast` that revokes the unclaimed tickets but returns
//!   without waiting for helpers still running the job. In the real
//!   pool the job is a borrow of the caller's stack, so that return is
//!   a use-after-free; here the job is an `Arc` and the test observes a
//!   helper still inside it.
//!
//! Only meaningful under the model cfg:
//! `RUSTFLAGS="--cfg selc_model" cargo test -p selc-check --test mutations`.
#![cfg(selc_model)]

use selc_check::model::{check, check_with_seed, spawn, Options};
use selc_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use selc_check::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

// ordering: SeqCst throughout this file — mutant fixtures run only under
// the model checker, which interprets every access sequentially
// consistently anyway; the strength is not load-bearing.
const SC: Ordering = Ordering::SeqCst;

/// Runs `body` under the checker expecting a failure, and returns the
/// seed the failure report names.
fn failing_seed(name: &'static str, body: impl Fn() + Send + Sync + 'static) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| check(name, Options::default(), body)))
        .expect_err("the checker must catch this mutant");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("model failures carry a message");
    let start = msg.find("seed: \"").expect("failure report names a seed") + "seed: \"".len();
    let end = msg[start..].find('"').expect("seed is quoted") + start;
    msg[start..end].to_string()
}

/// The pre-PR-5 cursor: claims via bare `fetch_add`, no saturation.
struct MutantQueue {
    cursor: AtomicUsize,
    space: usize,
}

impl MutantQueue {
    fn claim(&self, chunk: usize) -> Option<(usize, usize)> {
        let start = self.cursor.fetch_add(chunk, SC);
        if start >= self.space {
            return None;
        }
        Some((start, start.saturating_add(chunk).min(self.space)))
    }
}

fn mutant_queue_body() {
    let q = Arc::new(MutantQueue { cursor: AtomicUsize::new(usize::MAX - 3), space: usize::MAX });
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let q = Arc::clone(&q);
            spawn(move || {
                let first = q.claim(usize::MAX / 2);
                let second = q.claim(usize::MAX / 2);
                [first, second]
            })
        })
        .collect();
    let claims: Vec<(usize, usize)> =
        workers.into_iter().flat_map(selc_check::model::JoinHandle::join).flatten().collect();
    // The invariant the saturating queue upholds: only the clipped tail
    // is ever handed out near the top of the space, exactly once. The
    // mutant's second `fetch_add` wraps the cursor past zero and
    // re-issues low indices a second claimant already owns.
    assert_eq!(
        claims,
        vec![(usize::MAX - 3, usize::MAX)],
        "wrapped cursor re-issued already-claimed indices"
    );
}

#[test]
fn checker_catches_the_reintroduced_cursor_wrap_bug_with_a_replayable_seed() {
    let seed = failing_seed("mutant-queue-wrap", mutant_queue_body);
    // The named seed replays the same failing interleaving, every time.
    for _ in 0..2 {
        let replay = catch_unwind(AssertUnwindSafe(|| {
            check_with_seed("mutant-queue-wrap", &seed, Options::default(), mutant_queue_body);
        }));
        assert!(replay.is_err(), "seed {seed:?} must replay the failure deterministically");
    }
}

/// A shared bound whose domination test was weakened to non-strict
/// (`>=`): ties get pruned.
struct MutantBound {
    bits: AtomicU64,
}

impl MutantBound {
    fn observe(&self, loss: f64) {
        self.bits.fetch_min(loss.to_bits(), SC);
    }

    fn dominated(&self, lb: f64) -> bool {
        lb.to_bits() >= self.bits.load(SC) // the mutation: `>=` where `>` is required
    }
}

fn mutant_bound_body() {
    // Two candidates tie at loss 5.0. The deterministic reduction keeps
    // the earlier index; pruning must therefore never skip a tie.
    let b = Arc::new(MutantBound { bits: AtomicU64::new(u64::MAX) });
    let publisher = {
        let b = Arc::clone(&b);
        spawn(move || b.observe(5.0))
    };
    let scanner = {
        let b = Arc::clone(&b);
        spawn(move || {
            // The earlier-indexed candidate also achieves 5.0 — with
            // strict domination it is never skipped, so the winner is
            // index 0 on every schedule. The non-strict mutant prunes it
            // whenever the publisher's 5.0 lands first.
            if b.dominated(5.0) {
                None // pruned: the sequential scan's winner was dropped
            } else {
                Some(0usize)
            }
        })
    };
    publisher.join();
    let winner = scanner.join();
    assert_eq!(winner, Some(0), "a tying candidate was pruned — tie-break determinism broke");
}

#[test]
fn checker_catches_the_weakened_bound_with_a_replayable_seed() {
    let seed = failing_seed("mutant-bound-ties", mutant_bound_body);
    let replay = catch_unwind(AssertUnwindSafe(|| {
        check_with_seed("mutant-bound-ties", &seed, Options::default(), mutant_bound_body);
    }));
    assert!(replay.is_err(), "seed {seed:?} must replay the failure deterministically");
}

type PoolJob = Arc<dyn Fn() + Send + Sync>;

/// The pool's park/claim/close handoff for one job at a time.
struct MutantPool {
    state: Mutex<PoolState>,
    work: Condvar,
}

struct PoolState {
    job: Option<PoolJob>,
    tickets: usize,
    closed: bool,
}

impl MutantPool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn broadcast(&self, helpers: usize, job: &PoolJob) {
        {
            let mut s = self.lock();
            s.job = Some(Arc::clone(job));
            s.tickets = helpers;
        }
        for _ in 0..helpers {
            self.work.notify_one();
        }
        job();
        // The mutation: revoke and return. The real `broadcast` waits
        // here, under the lock, until no helper is running the job.
        self.lock().tickets = 0;
    }

    fn help(&self) {
        let mut s = self.lock();
        loop {
            if s.closed {
                return;
            }
            if s.tickets == 0 {
                s = self.work.wait(s).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            s.tickets -= 1;
            let job = s.job.clone().expect("a ticket comes with its job");
            drop(s);
            job();
            s = self.lock();
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
    }
}

fn mutant_pool_body() {
    let pool = Arc::new(MutantPool {
        state: Mutex::new(PoolState { job: None, tickets: 0, closed: false }),
        work: Condvar::new(),
    });
    let helpers: Vec<_> = (0..2)
        .map(|_| {
            let pool = Arc::clone(&pool);
            spawn(move || pool.help())
        })
        .collect();
    let inside = Arc::new(AtomicUsize::new(0));
    let job: PoolJob = {
        let inside = Arc::clone(&inside);
        Arc::new(move || {
            inside.fetch_add(1, SC);
            inside.fetch_sub(1, SC);
        })
    };
    pool.broadcast(2, &job);
    // The invariant the real pool upholds: when `broadcast` returns, no
    // helper is still inside the (borrowed) job.
    let outliving = inside.load(SC);
    pool.close();
    for h in helpers {
        h.join();
    }
    assert_eq!(outliving, 0, "broadcast returned while a helper was still running the job");
}

#[test]
fn checker_catches_a_pool_broadcast_that_skips_the_join_with_a_replayable_seed() {
    let seed = failing_seed("mutant-pool-join", mutant_pool_body);
    let replay = catch_unwind(AssertUnwindSafe(|| {
        check_with_seed("mutant-pool-join", &seed, Options::default(), mutant_pool_body);
    }));
    assert!(replay.is_err(), "seed {seed:?} must replay the failure deterministically");
}
