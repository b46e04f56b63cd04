//! Cooperative cancellation: one token per search, checked alongside the
//! shared bound.
//!
//! A [`CancelToken`] carries the two ways a long-lived caller abandons a
//! search mid-flight: an explicit [`CancelToken::cancel`] (a client hung
//! up) and an optional wall-clock deadline (a per-request budget
//! expired). Engines poll [`CancelToken::is_cancelled`] in exactly the
//! places they already consult the [`crate::bound::SharedBound`] — the
//! flat scan's per-candidate loop, the parallel workers' claim loop, and
//! the tree walker's interior nodes — so an abort takes effect within
//! one candidate (flat) or one node expansion (tree), not after the
//! queue drains.
//!
//! # Cancellation is *observable*, never *unsound*
//!
//! A cancelled search stops scoring candidates, so the best it returns
//! is only the best **seen so far** — engines report it as
//! [`crate::engine::SearchResult::Cancelled`], never as a completed
//! argmin. Everything a search *publishes* while being cancelled stays
//! sound, because it only ever publishes facts that do not depend on
//! completing:
//!
//! * achieved losses fed to the `SharedBound` (and to best-seen mirrors)
//!   were really achieved by a fully evaluated candidate;
//! * subtree summaries are **not** installed along an aborted path: the
//!   tree walker returns an aborted subtree as inexact with no lower
//!   bound, which the install rules (exact requires both children exact,
//!   bound requires a known lower bound) already refuse.
//!
//! So a timed-out request can never poison a warm cache — the next,
//! un-cancelled search over the same space recomputes what the abort
//! skipped and remains bit-identical to a cold run.

use selc_check::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheaply-cloneable cancel/deadline flag; clones share the flag, so
/// a caller cancels every worker holding a clone at once.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called
    /// (no deadline).
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// The token every convenience `search` runs under: nobody holds a
    /// handle to it and it has no deadline, so it can never fire. The
    /// deadline-free fast path makes the convenience entry points pay
    /// one relaxed atomic load per check, no clock reads.
    #[must_use]
    pub fn never() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires at `deadline` (and on explicit cancellation).
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken { flag: Arc::new(AtomicBool::new(false)), deadline: Some(deadline) }
    }

    /// A token that fires `budget` from now.
    #[must_use]
    pub fn with_timeout(budget: Duration) -> CancelToken {
        // A budget so large it overflows the clock means "no deadline".
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// Cancels every clone of this token, immediately and permanently.
    pub fn cancel(&self) {
        // ordering: Release — pairs with nothing the flag itself needs
        // (it carries one monotone bit), but orders everything the
        // canceller did before hanging up ahead of the flag becoming
        // visible, so a worker that observes the cancel also observes
        // the caller's final writes (e.g. a result sink being closed).
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the search should stop: explicitly cancelled, or past the
    /// deadline. The flag check is one relaxed load; the clock is read
    /// only when a deadline was set.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        // ordering: Relaxed — polled on the hot claim path. The flag is
        // monotone (false → true, never back), so a stale read only
        // delays the stop by one poll; nothing is read on the strength
        // of observing `true` that would need Acquire here.
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tokens_are_not_cancelled() {
        assert!(!CancelToken::new().is_cancelled());
        assert!(!CancelToken::never().is_cancelled());
    }

    #[test]
    fn cancel_reaches_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled(), "clones share the flag");
        assert!(t.is_cancelled());
    }

    #[test]
    fn past_deadlines_cancel_without_an_explicit_call() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let far = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn saturating_budgets_mean_no_deadline() {
        let t = CancelToken::with_timeout(Duration::from_secs(u64::MAX));
        assert!(!t.is_cancelled());
    }
}

/// Exhaustive small-schedule verification under the `selc_check` model
/// checker (`RUSTFLAGS="--cfg selc_model" cargo test -p selc-engine`).
#[cfg(all(test, selc_model))]
mod model_tests {
    use super::*;
    use crate::queue::WorkQueue;
    use selc_check::model::{check, spawn, Options};

    /// Stop visibility on every schedule: once any thread *observes* the
    /// token as cancelled, every later `claim_unless` through any clone
    /// refuses — cancellation is permanent and never un-observes.
    #[test]
    fn model_observed_cancellation_permanently_refuses_claims() {
        check("cancel-visibility", Options::default(), || {
            let q = std::sync::Arc::new(WorkQueue::new(8));
            let tok = CancelToken::new();
            let canceller = {
                let tok = tok.clone();
                spawn(move || tok.cancel())
            };
            let worker = {
                let (q, tok) = (std::sync::Arc::clone(&q), tok.clone());
                spawn(move || {
                    let saw = tok.is_cancelled();
                    let claim = q.claim_unless(2, &tok);
                    if saw {
                        assert_eq!(claim, None, "a claim after an observed cancel must refuse");
                    }
                })
            };
            canceller.join();
            worker.join();
            // The cancel has been joined: visibility is unconditional now.
            assert!(tok.is_cancelled());
            assert_eq!(q.claim_unless(2, &tok), None);
        });
    }
}
