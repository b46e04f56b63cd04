//! Loss values.
//!
//! The paper takes the loss set `R` to be a commutative monoid — usually the
//! reals under addition, but the Nash-equilibrium example (§4.3) uses pairs
//! of reals and §6 suggests locally varying the reward monoid. [`LossVal`]
//! covers all the paper's uses with a single machine type: a short vector of
//! `f64` added element-wise, where missing components count as `0`. The
//! empty vector is the monoid unit, a 1-vector is a scalar loss, a 2-vector
//! is a prisoner's-dilemma-style pair. Up to two components are stored
//! inline, so the paper's losses never touch the heap; longer ones spill to
//! a `Vec`.

use std::fmt;

/// An element of the loss monoid `R`.
#[derive(Clone)]
pub struct LossVal(Comps);

/// `Inline(len, xs)` holds up to two components; `Spilled` holds three or more.
#[derive(Clone)]
enum Comps {
    Inline(u8, [f64; 2]),
    Spilled(Vec<f64>),
}

impl LossVal {
    /// The monoid unit `0`.
    pub fn zero() -> Self {
        LossVal(Comps::Inline(0, [0.0; 2]))
    }

    /// A scalar loss.
    pub fn scalar(x: f64) -> Self {
        LossVal(Comps::Inline(1, [x, 0.0]))
    }

    /// A pair loss (used for two-player objectives).
    pub fn pair(a: f64, b: f64) -> Self {
        LossVal(Comps::Inline(2, [a, b]))
    }

    /// The loss with exactly these components.
    pub fn from_components(xs: &[f64]) -> Self {
        match *xs {
            [] => LossVal::zero(),
            [x] => LossVal::scalar(x),
            [a, b] => LossVal::pair(a, b),
            _ => LossVal(Comps::Spilled(xs.to_vec())),
        }
    }

    /// The components, in order (none for the canonical zero).
    pub fn components(&self) -> &[f64] {
        match &self.0 {
            Comps::Inline(len, xs) => &xs[..usize::from(*len)],
            Comps::Spilled(xs) => xs,
        }
    }

    /// Element-wise addition, padding the shorter vector with zeros.
    pub fn add(&self, other: &LossVal) -> LossVal {
        let (a, b) = (self.components(), other.components());
        let sum = |i| a.get(i).copied().unwrap_or(0.0) + b.get(i).copied().unwrap_or(0.0);
        match a.len().max(b.len()) {
            0 => LossVal::zero(),
            1 => LossVal::scalar(sum(0)),
            2 => LossVal::pair(sum(0), sum(1)),
            n => LossVal(Comps::Spilled((0..n).map(sum).collect())),
        }
    }

    /// The scalar reading of this loss: its first component (`0.0` if empty).
    pub fn as_scalar(&self) -> f64 {
        self.component(0)
    }

    /// This loss with its scalar reading replaced by `x`.
    pub fn with_scalar(&self, x: f64) -> LossVal {
        match self.components() {
            [] | [_] => LossVal::scalar(x),
            [_, b] => LossVal::pair(x, *b),
            [_, rest @ ..] => LossVal::from_components(&[&[x], rest].concat()),
        }
    }

    /// The *total* order on scalar readings used by every comparison an
    /// argmin/argmax handler can make (the `leq`/`lt` primitives) and by
    /// the engine bridge's candidate reduction: [`f64::total_cmp`] on
    /// [`LossVal::as_scalar`]. Unlike the partial `<=` on `f64`, this
    /// orders NaN (above `+∞`) and `-0.0 < +0.0` deterministically, so
    /// winners are identical across the smallstep, bigstep, and compiled
    /// evaluators and across sequential and parallel searches — the same
    /// contract as `selc::OrderedLoss` for `f64`.
    pub fn cmp_scalar(&self, other: &LossVal) -> std::cmp::Ordering {
        self.as_scalar().total_cmp(&other.as_scalar())
    }

    /// Component `i`, defaulting to `0.0`.
    pub fn component(&self, i: usize) -> f64 {
        self.components().get(i).copied().unwrap_or(0.0)
    }

    /// True iff every component is zero (the canonical zero is the empty
    /// vector, but padded arithmetic can produce explicit zeros).
    pub fn is_zero(&self) -> bool {
        self.components().iter().all(|x| *x == 0.0)
    }

    /// Approximate equality up to `eps`, treating missing components as 0.
    pub fn approx_eq(&self, other: &LossVal, eps: f64) -> bool {
        let n = self.components().len().max(other.components().len());
        (0..n).all(|i| (self.component(i) - other.component(i)).abs() <= eps)
    }
}

impl Default for LossVal {
    fn default() -> Self {
        LossVal::zero()
    }
}

/// Length-sensitive: `zero() != scalar(0.0)`.
impl PartialEq for LossVal {
    fn eq(&self, other: &LossVal) -> bool {
        self.components() == other.components()
    }
}

/// `LossVal([1.0, 2.0])`: the components as a list.
impl fmt::Debug for LossVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("LossVal").field(&self.components()).finish()
    }
}

impl fmt::Display for LossVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.components() {
            [] => write!(f, "0"),
            [x] => write!(f, "{x}"),
            xs => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_identity() {
        let a = LossVal::pair(1.0, -2.0);
        assert_eq!(a.add(&LossVal::zero()), a);
        assert_eq!(LossVal::zero().add(&a), a);
    }

    #[test]
    fn add_pads_with_zeros() {
        let a = LossVal::scalar(3.0);
        let b = LossVal::pair(1.0, 2.0);
        assert_eq!(a.add(&b), LossVal::pair(4.0, 2.0));
        assert_eq!(b.add(&a), LossVal::pair(4.0, 2.0));
    }

    #[test]
    fn add_is_commutative_and_associative() {
        let a = LossVal::from_components(&[1.0, 2.0, 3.0]);
        let b = LossVal::scalar(-1.0);
        let c = LossVal::pair(0.5, 0.5);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn scalar_reading() {
        assert_eq!(LossVal::zero().as_scalar(), 0.0);
        assert_eq!(LossVal::scalar(7.5).as_scalar(), 7.5);
        assert_eq!(LossVal::pair(1.0, 9.0).as_scalar(), 1.0);
    }

    #[test]
    fn is_zero_recognises_padded_zero() {
        assert!(LossVal::zero().is_zero());
        assert!(LossVal::from_components(&[0.0, 0.0]).is_zero());
        assert!(!LossVal::scalar(0.1).is_zero());
    }

    #[test]
    fn display_formats() {
        assert_eq!(LossVal::zero().to_string(), "0");
        assert_eq!(LossVal::scalar(2.0).to_string(), "2");
        assert_eq!(LossVal::pair(3.0, 4.0).to_string(), "(3, 4)");
    }

    /// The inline representation keeps every behaviour of the `Vec` one.
    #[test]
    fn inline_losses_behave_like_the_vec_representation() {
        // Equality is length-sensitive.
        assert_ne!(LossVal::zero(), LossVal::scalar(0.0));
        assert_ne!(LossVal::scalar(1.0), LossVal::pair(1.0, 0.0));
        assert_eq!(LossVal::default(), LossVal::zero());
        // Padding adds an explicit `+0.0`, which turns `-0.0` into `+0.0`.
        let sum = LossVal::pair(0.1, -0.0).add(&LossVal::scalar(0.2));
        let bits: Vec<u64> = sum.components().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, [(0.1f64 + 0.2).to_bits(), 0.0f64.to_bits()]);
        assert_eq!(LossVal::scalar(-0.0).add(&LossVal::zero()).components()[0].to_bits(), 0);
        assert_eq!(LossVal::zero().add(&LossVal::zero()).components(), &[] as &[f64]);
        // Three components spill and round-trip.
        let three = LossVal::from_components(&[1.0, 2.0, 3.0]);
        assert_eq!(three.components(), &[1.0, 2.0, 3.0]);
        assert_eq!(three.add(&LossVal::pair(1.0, 1.0)).components(), &[2.0, 3.0, 3.0]);
        assert_eq!(three.with_scalar(9.0).components(), &[9.0, 2.0, 3.0]);
        assert_eq!(three.clone(), three);
        // The printed forms are unchanged.
        assert_eq!(three.to_string(), "(1, 2, 3)");
        assert_eq!(format!("{three:?}"), "LossVal([1.0, 2.0, 3.0])");
        assert_eq!(format!("{:?}", LossVal::pair(3.0, 4.5)), "LossVal([3.0, 4.5])");
        assert_eq!(format!("{:?}", LossVal::scalar(2.0)), "LossVal([2.0])");
        assert_eq!(format!("{:?}", LossVal::zero()), "LossVal([])");
    }

    #[test]
    fn cmp_scalar_is_total_and_orders_nan_last() {
        use std::cmp::Ordering;
        let one = LossVal::scalar(1.0);
        let two = LossVal::scalar(2.0);
        let nan = LossVal::scalar(f64::NAN);
        let inf = LossVal::scalar(f64::INFINITY);
        assert_eq!(one.cmp_scalar(&two), Ordering::Less);
        assert_eq!(two.cmp_scalar(&one), Ordering::Greater);
        assert_eq!(one.cmp_scalar(&LossVal::pair(1.0, 9.0)), Ordering::Equal, "scalar reading");
        assert_eq!(inf.cmp_scalar(&nan), Ordering::Less, "NaN sorts above +inf");
        assert_eq!(nan.cmp_scalar(&nan), Ordering::Equal, "total: NaN equals itself");
        assert_eq!(
            LossVal::scalar(-0.0).cmp_scalar(&LossVal::scalar(0.0)),
            Ordering::Less,
            "-0.0 sorts below +0.0 under the total order"
        );
    }

    #[test]
    fn approx_eq_with_padding() {
        assert!(LossVal::zero().approx_eq(&LossVal::from_components(&[0.0]), 1e-12));
        assert!(LossVal::scalar(1.0).approx_eq(&LossVal::from_components(&[1.0 + 1e-13]), 1e-12));
        assert!(!LossVal::scalar(1.0).approx_eq(&LossVal::scalar(1.1), 1e-12));
    }
}
