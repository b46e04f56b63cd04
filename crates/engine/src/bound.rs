//! The shared best-loss bound for branch-and-bound pruning.
//!
//! Workers publish every loss they *achieve* into one atomic word (via the
//! monotone [`OrderedLoss::prune_bits`] encoding) and consult it to skip
//! candidates whose **lower bound** is already strictly worse than some
//! achieved loss.
//!
//! # Pruning soundness
//!
//! A candidate may be skipped only when `lb > best` **strictly**, where
//! `lb` is a true lower bound on the candidate's final loss and `best` was
//! achieved by some other candidate. Then `final ≥ lb > best ≥ global
//! minimum`, so the skipped candidate can neither win nor *tie* the
//! winner — which is what keeps the deterministic `(loss, index)`
//! reduction bit-identical to the exhaustive sequential scan. A
//! non-strict test (`lb ≥ best`) would break tie-breaking: an
//! earlier-indexed candidate tying the current best could be dropped even
//! though the sequential scan would have kept it.
//!
//! The argument needs `best` achieved in the *same* space, not in the
//! same search. So a bound may outlive a search: a tree evaluator over an
//! immutable program can keep one for its space and hand it to every
//! walk ([`crate::TreeEval::bound`]), and each walk then prunes from its
//! first node against what earlier walks achieved.

use selc::OrderedLoss;
use selc_check::sync::atomic::{AtomicU64, Ordering};
use std::marker::PhantomData;

/// Sentinel meaning "no loss achieved yet" — larger than every encoding.
///
/// `u64::MAX` is also the encoding of the largest-payload NaN; publishing
/// such a loss is indistinguishable from publishing nothing, which only
/// forgoes pruning, never unsoundly enables it.
const UNSET: u64 = u64::MAX;

/// The best achieved loss so far, shared across workers as one atomic
/// `u64` in the [`OrderedLoss::prune_bits`] encoding.
///
/// All operations use relaxed ordering: the bound is a monotone hint —
/// reading a stale (larger) value only misses a pruning opportunity.
pub struct SharedBound<L> {
    bits: AtomicU64,
    _marker: PhantomData<fn(&L)>,
}

impl<L: OrderedLoss> Default for SharedBound<L> {
    fn default() -> Self {
        SharedBound::new()
    }
}

impl<L: OrderedLoss> SharedBound<L> {
    /// A bound with no achieved loss yet (nothing is dominated).
    pub fn new() -> SharedBound<L> {
        SharedBound { bits: AtomicU64::new(UNSET), _marker: PhantomData }
    }

    /// Publishes an *achieved* loss, tightening the bound if it improves.
    pub fn observe(&self, achieved: &L) {
        if let Some(bits) = achieved.prune_bits() {
            // ordering: Relaxed — the bound is a monotone hint. fetch_min
            // never loosens it, and a reader seeing a stale (larger)
            // value only misses a pruning opportunity; no data is
            // published through this word.
            self.bits.fetch_min(bits, Ordering::Relaxed);
        }
    }

    /// Is a candidate with lower bound `lb` strictly dominated by an
    /// achieved loss? `false` whenever nothing was achieved yet or `L`
    /// has no pruning encoding — pruning degrades to exhaustive search.
    pub fn dominated(&self, lb: &L) -> bool {
        match lb.prune_bits() {
            // ordering: Relaxed — staleness is safe in one direction
            // only: a stale *larger* value under-prunes. The strict `>`
            // against an achieved loss is what keeps pruning sound (see
            // the module docs); no ordering strengthens or weakens that.
            Some(bits) => bits > self.bits.load(Ordering::Relaxed),
            None => false,
        }
    }
}

impl<L: OrderedLoss> std::fmt::Debug for SharedBound<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ordering: Relaxed — diagnostic snapshot only.
        write!(f, "SharedBound(bits = {:#x})", self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bound_dominates_nothing() {
        let b: SharedBound<f64> = SharedBound::new();
        assert!(!b.dominated(&f64::NEG_INFINITY));
        assert!(!b.dominated(&f64::INFINITY));
    }

    #[test]
    fn observe_tightens_monotonically() {
        let b: SharedBound<f64> = SharedBound::new();
        b.observe(&5.0);
        assert!(b.dominated(&6.0));
        assert!(!b.dominated(&5.0), "equality is not strict domination");
        assert!(!b.dominated(&4.0));
        b.observe(&9.0); // worse: must not loosen
        assert!(b.dominated(&6.0));
        b.observe(&2.0);
        assert!(b.dominated(&3.0));
        assert!(!b.dominated(&2.0));
    }

    #[test]
    fn unencodable_losses_disable_pruning() {
        let b: SharedBound<(f64, f64)> = SharedBound::new();
        b.observe(&(1.0, 1.0));
        assert!(!b.dominated(&(100.0, 100.0)));
    }

    #[test]
    fn bound_is_shareable_across_threads() {
        let b: SharedBound<f64> = SharedBound::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let b = &b;
                s.spawn(move || b.observe(&(10.0 - f64::from(i))));
            }
        });
        assert!(b.dominated(&8.0));
        assert!(!b.dominated(&7.0));
    }
}

/// Exhaustive small-schedule verification under the `selc_check` model
/// checker (`RUSTFLAGS="--cfg selc_model" cargo test -p selc-engine`).
#[cfg(all(test, selc_model))]
mod model_tests {
    use super::*;
    use selc_check::model::{check, spawn, Options};
    use std::sync::Arc;

    /// Racing publishers and a racing reader: on every interleaving the
    /// bound tightens monotonically, ends at the minimum of everything
    /// published, and domination stays *strict* (an equal loss is never
    /// dominated, preserving the deterministic tie-break).
    #[test]
    fn model_bound_is_monotone_and_strictly_dominating() {
        check("bound-monotone", Options::default(), || {
            let b: Arc<SharedBound<f64>> = Arc::new(SharedBound::new());
            let p1 = {
                let b = Arc::clone(&b);
                spawn(move || {
                    b.observe(&5.0);
                    b.observe(&3.0);
                })
            };
            let p2 = {
                let b = Arc::clone(&b);
                spawn(move || b.observe(&4.0))
            };
            let reader = {
                let b = Arc::clone(&b);
                spawn(move || {
                    let first = b.bits.load(Ordering::Relaxed); // ordering: model fixture probe
                    let second = b.bits.load(Ordering::Relaxed); // ordering: model fixture probe
                    assert!(second <= first, "the bound only ever tightens");
                })
            };
            p1.join();
            p2.join();
            reader.join();
            let best = 3.0f64.prune_bits().expect("finite losses encode");
            assert_eq!(
                b.bits.load(Ordering::Relaxed),
                best,
                "final bound is the min of all published"
            ); // ordering: post-join
            assert!(b.dominated(&3.5));
            assert!(
                !b.dominated(&3.0),
                "ties are never dominated — strictness survives every schedule"
            );
        });
    }
}
