//! Cooperative cancellation: one token per search, checked alongside the
//! shared bound.
//!
//! A [`CancelToken`] is a flag plus one optional watched condition: an
//! explicit [`CancelToken::cancel`], and a condition the search keeps
//! asking about ([`CancelToken::with_watch`]), such as a deadline
//! (`Instant::now() < d`) or a server's client still being connected.
//! The tree walk polls [`CancelToken::is_cancelled`] where it already
//! consults the [`crate::bound::SharedBound`] — its workers' claim loop
//! and its interior nodes — so an abort takes effect within one node
//! expansion, not after the queue drains.
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
//! * achieved losses fed to a `SharedBound` (which may outlive the
//!   search) were really achieved by a fully evaluated candidate;
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

/// A condition a running search keeps asking about; `false` fires.
type Watch = Arc<dyn Fn() -> bool + Send + Sync>;

/// A cheaply-cloneable cancel flag plus an optional watched condition;
/// clones share both, so a caller cancels every worker holding a clone
/// at once. `CancelToken::default()` fires only when
/// [`CancelToken::cancel`] is called (no watch).
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    watch: Option<Watch>,
}

impl CancelToken {
    /// The token every convenience `search` runs under: nobody holds a
    /// handle to it and it watches nothing, so it can never fire. The
    /// watch-free fast path makes the convenience entry points pay one
    /// relaxed atomic load per check, no clock reads.
    #[must_use]
    pub fn never() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires at `deadline` (and on explicit cancellation).
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken::default().with_watch(move || Instant::now() < deadline)
    }

    /// A token that fires `budget` from now.
    #[must_use]
    pub fn with_timeout(budget: Duration) -> CancelToken {
        // A budget so large it overflows the clock means "no deadline".
        Instant::now()
            .checked_add(budget)
            .map_or_else(CancelToken::default, CancelToken::with_deadline)
    }

    /// This token, additionally fired once `alive` returns `false`. The
    /// flag stays shared with every existing clone, and a watch already
    /// set keeps applying: the search runs while both hold.
    #[must_use]
    pub fn with_watch(self, alive: impl Fn() -> bool + Send + Sync + 'static) -> CancelToken {
        let watch: Watch = match self.watch {
            Some(old) => Arc::new(move || old() && alive()),
            None => Arc::new(alive),
        };
        CancelToken { flag: self.flag, watch: Some(watch) }
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

    /// Whether the search should stop: cancelled, or the watch no longer
    /// holds — which raises the flag, so no clone needs to ask again.
    /// The flag check is one relaxed load; a watch runs only if set.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        // ordering: Relaxed — polled on the hot claim path. The flag is
        // monotone (false → true, never back), so a stale read only
        // delays the stop by one poll; nothing is read on the strength
        // of observing `true` that would need Acquire here.
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        let fired = self.watch.as_ref().is_some_and(|alive| !alive());
        if fired {
            self.cancel();
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tokens_are_not_cancelled() {
        assert!(!CancelToken::default().is_cancelled());
        assert!(!CancelToken::never().is_cancelled());
    }

    #[test]
    fn cancel_reaches_every_clone() {
        let t = CancelToken::default();
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
        assert!(t.watch.is_none(), "an overflowing budget installs no watch");
        assert!(CancelToken::with_timeout(Duration::from_secs(3600)).watch.is_some());
    }

    #[test]
    fn a_false_watch_fires_every_clone() {
        let before = CancelToken::default();
        let watched = before.clone().with_watch(|| false);
        let after = watched.clone();
        assert!(!before.is_cancelled(), "a clone without the watch cannot ask it");
        assert!(watched.is_cancelled());
        assert!(before.is_cancelled(), "the fired watch raised the shared flag");
        assert!(after.is_cancelled());
    }

    #[test]
    fn deadlines_and_watches_compose() {
        use std::sync::atomic::AtomicBool as StdBool;
        // Past deadline, live watch: the deadline fires.
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1))
            .with_watch(|| true);
        assert!(t.is_cancelled());
        // Far deadline, watch that turns false: the watch fires.
        let alive = Arc::new(StdBool::new(true));
        let t = CancelToken::with_timeout(Duration::from_secs(3600)).with_watch({
            let alive = Arc::clone(&alive);
            move || alive.load(std::sync::atomic::Ordering::SeqCst) // ordering: test probe
        });
        assert!(!t.is_cancelled());
        alive.store(false, std::sync::atomic::Ordering::SeqCst); // ordering: test probe
        assert!(t.is_cancelled());
        // The watch order does not matter.
        let t = CancelToken::default().with_watch(|| true).with_watch({
            let past = Instant::now() - Duration::from_millis(1);
            move || Instant::now() < past
        });
        assert!(t.is_cancelled());
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
            let tok = CancelToken::default();
            let canceller = {
                let tok = tok.clone();
                spawn(move || tok.cancel())
            };
            let worker = {
                let (q, tok) = (std::sync::Arc::clone(&q), tok.clone());
                spawn(move || {
                    let saw = tok.is_cancelled();
                    let claim = q.claim_unless(&tok);
                    if saw {
                        assert_eq!(claim, None, "a claim after an observed cancel must refuse");
                    }
                })
            };
            canceller.join();
            worker.join();
            // The cancel has been joined: visibility is unconditional now.
            assert!(tok.is_cancelled());
            assert_eq!(q.claim_unless(&tok), None);
        });
    }
}
