//! [`LossVal`] as an engine loss: the `OrdLossVal` newtype.
//!
//! λC handlers compare losses through the `leq`/`lt` primitives, which
//! read the *scalar* component under the total order
//! [`LossVal::cmp_scalar`]. The engine needs the same order — a
//! [`selc::OrderedLoss`] — so that its deterministic `(loss, index)`
//! reduction picks exactly the winner an argmin handler would.
//!
//! `cmp_loss` is therefore a total *preorder* on loss vectors (vectors
//! with equal scalar components compare `Equal`); that is precisely the
//! comparison λC's choosers can express, and the engine's index
//! tie-breaking makes the merged winner deterministic regardless.

use lambda_c::LossVal;
use selc::{Loss, OrderedLoss};
use std::cmp::Ordering;

/// A λC loss value with the engine's ordering contract.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OrdLossVal(pub LossVal);

impl Loss for OrdLossVal {
    fn zero() -> Self {
        OrdLossVal(LossVal::zero())
    }

    fn combine(&self, other: &Self) -> Self {
        OrdLossVal(self.0.add(&other.0))
    }
}

impl OrderedLoss for OrdLossVal {
    fn cmp_loss(&self, other: &Self) -> Ordering {
        self.0.cmp_scalar(&other.0)
    }

    /// The monotone `u64` embedding of the scalar order — the engine's
    /// own [`selc::f64_sort_key`] on the scalar reading, so every prune
    /// encoding in the workspace agrees bit for bit.
    fn prune_bits(&self) -> Option<u64> {
        Some(selc::f64_sort_key(self.0.as_scalar()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monoid_mirrors_lossval_add() {
        let a = OrdLossVal(LossVal::scalar(1.5));
        let b = OrdLossVal(LossVal::pair(1.0, 2.0));
        assert_eq!(a.combine(&b).0, LossVal::pair(2.5, 2.0));
        assert_eq!(OrdLossVal::zero().0, LossVal::zero());
    }

    #[test]
    fn prune_bits_embed_cmp_loss() {
        let xs = [f64::NEG_INFINITY, -7.25, -0.0, 0.0, 1.5, 1e300, f64::INFINITY, f64::NAN];
        for a in xs {
            for b in xs {
                let (la, lb) = (OrdLossVal(LossVal::scalar(a)), OrdLossVal(LossVal::scalar(b)));
                let (ka, kb) = (la.prune_bits().unwrap(), lb.prune_bits().unwrap());
                assert_eq!(ka.cmp(&kb), la.cmp_loss(&lb), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cmp_loss_reads_the_scalar_like_leq() {
        let a = OrdLossVal(LossVal::pair(1.0, 99.0));
        let b = OrdLossVal(LossVal::scalar(1.0));
        assert_eq!(a.cmp_loss(&b), Ordering::Equal, "preorder on the scalar reading");
    }
}
