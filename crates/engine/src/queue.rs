//! The tree walk's work queue: a saturating atomic cursor over a finite
//! index space.
//!
//! Workers claim the indices of `0..space` (the walk's subtree roots)
//! one at a time from one atomic cursor. The claim is a `fetch_update`
//! that **saturates at `space`** instead of incrementing forever: a bare
//! `fetch_add` keeps growing after exhaustion, and for spaces near
//! `usize::MAX` the cursor can wrap around and hand already-claimed
//! indices out a second time — double-counting stats at best, breaking
//! the deterministic reduction's "every index exactly once" invariant at
//! worst. Saturation makes exhaustion absorbing: once the cursor reaches
//! `space` every later claim returns `None`, forever, on any thread.

use crate::cancel::CancelToken;
use selc_check::sync::atomic::{AtomicUsize, Ordering};

/// A work queue over the index space `0..space`.
#[derive(Debug)]
pub(crate) struct WorkQueue {
    cursor: AtomicUsize,
    space: usize,
}

impl WorkQueue {
    /// A fresh queue over `0..space`.
    pub(crate) fn new(space: usize) -> WorkQueue {
        WorkQueue { cursor: AtomicUsize::new(0), space }
    }

    /// Claims the next index, or `None` when the space is exhausted.
    /// Relaxed ordering suffices: the queue only partitions indices, it
    /// carries no data between threads.
    pub(crate) fn claim(&self) -> Option<usize> {
        self.cursor
            // ordering: Relaxed suffices — the cursor only partitions
            // indices between workers; it publishes no data, and each
            // worker touches only the index its own RMW returned.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (cur < self.space).then(|| cur + 1)
            })
            .ok()
    }

    /// [`WorkQueue::claim`], refused once `cancel` has fired: a worker
    /// loop driven by this claim stops within one index of cancellation
    /// instead of spinning the queue to exhaustion for a caller that is
    /// no longer listening. Work left unclaimed stays claimable (the
    /// cursor is untouched), so counters and any later drain remain
    /// consistent.
    pub(crate) fn claim_unless(&self, cancel: &CancelToken) -> Option<usize> {
        if cancel.is_cancelled() {
            return None;
        }
        self.claim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_partition_the_space_in_order() {
        let q = WorkQueue::new(3);
        assert_eq!(q.claim(), Some(0));
        assert_eq!(q.claim(), Some(1));
        assert_eq!(q.claim(), Some(2));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None, "exhaustion is absorbing");
    }

    #[test]
    fn empty_space_yields_nothing() {
        let q = WorkQueue::new(0);
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn claims_near_usize_max_saturate_instead_of_wrapping() {
        // A bare `fetch_add` cursor would keep growing past the space and
        // wrap to index 0; the saturating claim must hand out the last
        // indices once each and then `None` forever.
        let q = WorkQueue::new(usize::MAX);
        q.cursor.store(usize::MAX - 2, Ordering::Relaxed);
        assert_eq!(q.claim(), Some(usize::MAX - 2));
        assert_eq!(q.claim(), Some(usize::MAX - 1));
        for _ in 0..4 {
            assert_eq!(q.claim(), None, "no wrap-around re-issue");
        }
        assert_eq!(q.cursor.load(Ordering::Relaxed), usize::MAX);
    }

    #[test]
    fn concurrent_claims_cover_every_index_exactly_once() {
        let q = WorkQueue::new(1000);
        let counts: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (q, counts) = (&q, &counts);
                s.spawn(move || {
                    while let Some(i) = q.claim() {
                        counts[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn cancelled_tokens_stop_claims_with_work_remaining() {
        let q = WorkQueue::new(1000);
        let cancel = CancelToken::default();
        assert_eq!(q.claim_unless(&cancel), Some(0));
        cancel.cancel();
        assert_eq!(q.claim_unless(&cancel), None, "cancellation refuses the claim");
        assert_eq!(q.claim_unless(&cancel), None, "…permanently");
        // The refused work was not consumed: an un-cancelled claimant
        // resumes exactly where the cursor stopped.
        assert_eq!(q.claim_unless(&CancelToken::never()), Some(1));
    }

    #[test]
    fn worker_loops_exit_promptly_on_cancel_instead_of_draining_the_queue() {
        // A worker loop over a 10k-index queue whose very first work item
        // fires the token (e.g. the caller hung up). The loop must stop
        // at its next claim — a pre-fix loop would spin all 10k indices
        // to exhaustion for a caller that is no longer listening.
        let q = WorkQueue::new(10_000);
        let cancel = CancelToken::default();
        let mut claimed = 0;
        while let Some(i) = q.claim_unless(&cancel) {
            claimed += 1;
            if i == 0 {
                cancel.cancel(); // the caller disappears mid-queue
            }
        }
        assert_eq!(claimed, 1, "exactly one index ran; the rest was abandoned");
        assert_eq!(q.claim(), Some(1), "abandoned work was never claimed");
    }
}

/// Exhaustive small-schedule verification under the `selc_check` model
/// checker (`RUSTFLAGS="--cfg selc_model" cargo test -p selc-engine`).
#[cfg(all(test, selc_model))]
mod model_tests {
    use super::*;
    use selc_check::model::{check, spawn, Options};
    use std::sync::Arc;

    /// Two workers draining a small space: across *every* interleaving
    /// (up to the preemption bound), each index is claimed exactly once.
    #[test]
    fn model_claims_partition_the_space_exactly_once() {
        check("queue-partition", Options::default(), || {
            let q = Arc::new(WorkQueue::new(3));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(i) = q.claim() {
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            let mut all: Vec<usize> =
                workers.into_iter().flat_map(selc_check::model::JoinHandle::join).collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2], "every index claimed once, no gap or overlap");
        });
    }

    /// The PR 5 regression, exhaustively: with the cursor a few indices
    /// short of `usize::MAX`, racing claimants get the last indices
    /// exactly once each and every later claim refuses — no schedule lets
    /// the cursor wrap and re-issue index 0.
    #[test]
    fn model_near_max_claims_saturate_on_every_schedule() {
        check("queue-saturate", Options::default(), || {
            let q = Arc::new(WorkQueue::new(usize::MAX));
            q.cursor.store(usize::MAX - 2, Ordering::Relaxed); // ordering: model fixture setup before spawning
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    spawn(move || {
                        let first = q.claim();
                        let second = q.claim();
                        (first, second)
                    })
                })
                .collect();
            let claims: Vec<_> =
                workers.into_iter().map(selc_check::model::JoinHandle::join).collect();
            let mut tail: Vec<_> =
                claims.iter().flat_map(|(a, b)| [a, b]).filter_map(|c| *c).collect();
            tail.sort_unstable();
            assert_eq!(
                tail,
                vec![usize::MAX - 2, usize::MAX - 1],
                "the last indices went out once each"
            );
            assert_eq!(q.cursor.load(Ordering::Relaxed), usize::MAX); // ordering: post-join, publication via join
            assert_eq!(q.claim(), None, "exhaustion is absorbing on every schedule");
        });
    }
}
