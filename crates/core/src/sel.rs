//! The `Sel` monad — the library's central type (§4.2).
//!
//! ```text
//! newtype Sel r e a = Sel { unSel :: (a -> Eff r e r) -> Eff r e (r, a) }
//! ```
//!
//! A `Sel<L, A>` takes a *loss continuation* (what loss would the rest of
//! the program incur, given my result?) and produces an effectful
//! computation of a loss–value pair. The monad instance follows the
//! paper's Haskell instance verbatim: `bind` first runs `e` under the
//! *extended* loss continuation `λa. (f a) ⊲ g` (the `◮`/"then" operator),
//! then runs `f a` under `g`, and combines both recorded losses.
//!
//! ### Loss accounting vs. the small-step semantics
//!
//! λC's small-step semantics emits losses eagerly as transition labels;
//! this library (like the paper's Haskell implementation) carries them in
//! the writer position of the result pair. The two agree on every program
//! whose handlers resume each captured continuation along the returned
//! path; a handler that *discards* its continuation (the hyperparameter
//! tuner of §4.3) also discards losses recorded inside the discarded
//! future.

use crate::eff::Eff;
use crate::loss::Loss;
use crate::runtime::{loss_cont, SelRun};
use std::rc::Rc;

pub use crate::runtime::{zero_cont, LossCont};

/// The selection-with-effects monad (see [module docs](self)).
///
/// A finished computation — [`Sel::pure`], [`loss()`], a probe whose
/// future has finished, or a bind of finished parts — is held inline as
/// its loss–value pair. It ignores its loss continuation, so running or
/// binding it allocates no closure.
pub struct Sel<L, A>(Repr<L, A>);

enum Repr<L, A> {
    /// Finished: the recorded loss and the value.
    Done(L, A),
    /// Runs under a loss continuation.
    Run(SelRun<L, A>),
}

impl<L: Clone, A: Clone> Clone for Sel<L, A> {
    fn clone(&self) -> Self {
        Sel(match &self.0 {
            Repr::Done(l, a) => Repr::Done(l.clone(), a.clone()),
            Repr::Run(run) => Repr::Run(Rc::clone(run)),
        })
    }
}

impl<L, A> std::fmt::Debug for Sel<L, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sel(<computation>)")
    }
}

/// The "then" operator `e ⊲ g` (the library form of `◮`): the total loss of
/// running `e` under `g` — its recorded loss plus `g`'s verdict on its
/// result. This is `R_W(e|g)` from §2.1 transplanted to `Eff`.
pub fn then_loss<L: Loss, A: Clone + 'static>(e: &Sel<L, A>, g: &LossCont<L, A>) -> Eff<L> {
    let g2 = Rc::clone(g);
    e.run_with(Rc::clone(g)).and_then(move |(r, a): (L, A)| g2(&a).map(move |rb| r.combine(&rb)))
}

impl<L: Loss, A: Clone + 'static> Sel<L, A> {
    /// Wraps a raw `(a → Eff loss) → Eff (loss, a)` function. Advanced API;
    /// prefer [`Sel::pure`], [`crate::perform`], [`loss()`](crate::sel::loss) and
    /// combinators.
    pub fn from_fn(f: impl Fn(LossCont<L, A>) -> Eff<(L, A)> + 'static) -> Sel<L, A> {
        Sel(Repr::Run(Rc::new(f)))
    }

    /// Lifts a loss-returning effect computation into `Sel` with zero
    /// recorded loss (used to expose choice-continuation probes as `Sel`
    /// computations the handler clause can sequence).
    pub fn from_eff(e: Eff<A>) -> Sel<L, A> {
        match e {
            Eff::Pure(a) => Sel::pure(a),
            e => Sel::from_fn(move |_g| e.clone().map(|a| (L::zero(), a))),
        }
    }

    /// The unit: ignores the loss continuation, records zero loss.
    pub fn pure(a: A) -> Sel<L, A> {
        Sel(Repr::Done(L::zero(), a))
    }

    /// Runs under a loss continuation (the Haskell `unSel`).
    pub fn run_with(&self, g: LossCont<L, A>) -> Eff<(L, A)> {
        match &self.0 {
            Repr::Done(l, a) => Eff::Pure((l.clone(), a.clone())),
            Repr::Run(run) => run(g),
        }
    }

    /// [`Sel::run_with`] that moves a finished pair out instead of cloning it.
    pub(crate) fn run_owned(self, g: LossCont<L, A>) -> Eff<(L, A)> {
        match self.0 {
            Repr::Done(l, a) => Eff::Pure((l, a)),
            Repr::Run(run) => run(g),
        }
    }

    /// Prepends the loss `r1` recorded before this computation, as the
    /// bind does: the total is `r1.combine(r2)`.
    fn after(self, r1: &L) -> Sel<L, A> {
        match self.0 {
            Repr::Done(r2, a) => Sel(Repr::Done(r1.combine(&r2), a)),
            Repr::Run(run) => {
                let r1 = r1.clone();
                Sel::from_fn(move |g| {
                    let r1 = r1.clone();
                    run(g).map(move |(r2, a)| (r1.combine(&r2), a))
                })
            }
        }
    }

    /// Monadic bind (the paper's §4.2 instance).
    pub fn and_then<B: Clone + 'static>(&self, f: impl Fn(A) -> Sel<L, B> + 'static) -> Sel<L, B> {
        let me = match &self.0 {
            // A finished left side never consults the extended loss
            // continuation: bind is application plus the one `combine`.
            Repr::Done(r1, a) => return f(a.clone()).after(r1),
            Repr::Run(run) => Rc::clone(run),
        };
        let f = Rc::new(f);
        Sel::from_fn(move |g: LossCont<L, B>| {
            let f1 = Rc::clone(&f);
            let g1 = Rc::clone(&g);
            // Extend the loss continuation: the loss of an `a` is the loss
            // of running `f a` under g (the ⊲ of the Haskell instance).
            let ext: LossCont<L, A> = loss_cont(move |a: &A| then_loss(&f1(a.clone()), &g1));
            let f2 = Rc::clone(&f);
            let g2 = Rc::clone(&g);
            me(ext).and_then(move |(r1, a): (L, A)| {
                f2(a).run_owned(Rc::clone(&g2)).map(move |(r2, b)| (r1.combine(&r2), b))
            })
        })
    }

    /// Functorial map.
    pub fn map<B: Clone + 'static>(&self, f: impl Fn(A) -> B + 'static) -> Sel<L, B> {
        self.and_then(move |a| Sel::pure(f(a)))
    }

    /// Sequences, discarding this computation's result.
    pub fn then<B: Clone + 'static>(&self, next: Sel<L, B>) -> Sel<L, B> {
        self.and_then(move |_| next.clone())
    }

    /// `⟨e⟩_0` — localises the loss continuation to zero: downstream losses
    /// become invisible to choices made inside, while losses *recorded*
    /// inside still escape. The paper finds this special case sufficient
    /// for all its examples (§3.1).
    pub fn local0(&self) -> Sel<L, A> {
        let me = self.clone();
        Sel::from_fn(move |_g| me.run_with(zero_cont()))
    }

    /// `⟨e⟩_g1` — localises to an arbitrary loss continuation.
    pub fn local_with(&self, g1: LossCont<L, A>) -> Sel<L, A> {
        let me = self.clone();
        Sel::from_fn(move |_g| me.run_with(Rc::clone(&g1)))
    }

    /// `reset e` — losses recorded inside do not escape; the loss
    /// continuation is left unchanged (rule S4 / the denotational clause of
    /// §5.3).
    pub fn reset(&self) -> Sel<L, A> {
        let me = self.clone();
        Sel::from_fn(move |g| me.run_with(g).map(|(_, a)| (L::zero(), a)))
    }

    /// `lreset` (§4.3) — both localisations at once: decisions inside see
    /// only their own losses, and those losses do not escape. Used to make
    /// loop iterations independent.
    pub fn lreset(&self) -> Sel<L, A> {
        self.local0().reset()
    }

    /// Transforms the loss recorded by this computation at this boundary
    /// (enclosing probes see the transformed loss too). `reset` is
    /// `map_loss(|_| L::zero())`; with a product monoid, zeroing a single
    /// component gives the *independent per-objective localising
    /// constructs* the paper's §6 proposes for multi-objective
    /// optimisation.
    pub fn map_loss(&self, f: impl Fn(&L) -> L + 'static) -> Sel<L, A> {
        let me = self.clone();
        let f = Rc::new(f);
        Sel::from_fn(move |g| {
            let f = Rc::clone(&f);
            me.run_with(g).map(move |(r, a)| (f(&r), a))
        })
    }

    /// Runs a fully-handled computation under the zero loss continuation,
    /// returning its recorded loss and result (the paper's `runSel`).
    ///
    /// # Errors
    ///
    /// [`UnhandledOp`] if an operation reaches the top level unhandled.
    pub fn run(&self) -> Result<(L, A), UnhandledOp> {
        match self.run_with(zero_cont()) {
            Eff::Pure(ra) => Ok(ra),
            Eff::Op(call, _) => Err(UnhandledOp { effect: call.effect_name, op: call.op_name }),
        }
    }

    /// Like [`Sel::run`] but panics on unhandled operations; convenient in
    /// examples and tests.
    ///
    /// # Panics
    ///
    /// Panics if an operation reaches the top level unhandled.
    pub fn run_unwrap(&self) -> (L, A) {
        self.run().expect("operation reached the top level unhandled")
    }
}

/// Records a loss (the built-in writer effect): ignores the loss
/// continuation and returns `()` with recorded loss `l` — rule (R4).
pub fn loss<L: Loss>(l: L) -> Sel<L, ()> {
    Sel(Repr::Done(l, ()))
}

/// The error returned by [`Sel::run`] when an operation was never handled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnhandledOp {
    /// Effect name.
    pub effect: &'static str,
    /// Operation name.
    pub op: &'static str,
}

impl std::fmt::Display for UnhandledOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unhandled operation {}::{}", self.effect, self.op)
    }
}

impl std::error::Error for UnhandledOp {}

/// Haskell-style `do` notation for [`Sel`] computations:
///
/// ```
/// use selc::{sel, loss, Sel};
///
/// let prog: Sel<f64, i32> = sel! {
///     let x = Sel::pure(1);
///     let _ = loss(2.5);
///     let y = Sel::pure(x + 1);
///     Sel::pure(x + y)
/// };
/// assert_eq!(prog.run_unwrap(), (2.5, 3));
/// ```
#[macro_export]
macro_rules! sel {
    (let $p:pat = $e:expr; $($rest:tt)+) => {
        ($e).and_then(move |$p| $crate::sel!($($rest)+))
    };
    ($e:expr) => { $e };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_records_zero() {
        let s: Sel<f64, i32> = Sel::pure(5);
        assert_eq!(s.run_unwrap(), (0.0, 5));
    }

    #[test]
    fn loss_accumulates_through_bind() {
        let s = loss(1.0).and_then(|_| loss(2.0)).and_then(|_| Sel::pure(7));
        assert_eq!(s.run_unwrap(), (3.0, 7));
    }

    #[test]
    fn finished_bind_still_combines_with_zero() {
        // `pure` records +0.0, so binding it to `loss(-0.0)` totals
        // 0.0 + -0.0 = +0.0; skipping the combine would leave -0.0.
        let (alone, ()) = loss(-0.0_f64).run_unwrap();
        assert_eq!(alone.to_bits(), (-0.0_f64).to_bits());
        let (l, ()) = Sel::<f64, i32>::pure(1).and_then(|_| loss(-0.0)).run_unwrap();
        assert_eq!(l.to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn map_keeps_loss() {
        let s = loss(1.5).map(|_| "done");
        assert_eq!(s.run_unwrap(), (1.5, "done"));
    }

    #[test]
    fn reset_drops_losses() {
        let s = loss(9.0).then(Sel::pure(1)).reset();
        assert_eq!(s.run_unwrap(), (0.0, 1));
    }

    #[test]
    fn local0_keeps_losses() {
        let s = loss(9.0).then(Sel::pure(1)).local0();
        assert_eq!(s.run_unwrap(), (9.0, 1));
    }

    #[test]
    fn lreset_drops_losses_and_insulates() {
        let s = loss(9.0).then(Sel::pure(1)).lreset();
        assert_eq!(s.run_unwrap(), (0.0, 1));
    }

    #[test]
    fn then_loss_sums_recorded_and_continuation() {
        let s = loss(2.0).then(Sel::pure(3_i32));
        let g: LossCont<f64, i32> = Rc::new(|x: &i32| Eff::Pure(*x as f64));
        match then_loss(&s, &g) {
            Eff::Pure(l) => assert_eq!(l, 5.0),
            _ => panic!("expected pure"),
        }
    }

    #[test]
    fn bind_extends_loss_continuation() {
        // The first computation can *see* downstream losses through its
        // loss continuation. Verify by probing with a custom Sel that
        // reports its continuation's verdict as its loss.
        let probe: Sel<f64, i32> = Sel::from_fn(|g| {
            // select value 1 and record the downstream loss of 1 as loss
            g(&1).map(|l| (l, 1))
        });
        let s = probe.and_then(|x| loss(10.0).then(Sel::pure(x + 1)));
        // downstream of `probe` result 1: loss 10 is recorded, final result 2,
        // zero top-level continuation → probe records 10.
        assert_eq!(s.run_unwrap(), (20.0, 2)); // 10 (probe's record) + 10 (actual)
    }

    #[test]
    fn monad_laws_observed_through_run() {
        let f = |x: i32| loss(x as f64).then(Sel::pure(x + 1));
        let g = |x: i32| Sel::<f64, i32>::pure(x * 2);
        // left identity
        let lhs = Sel::pure(3).and_then(f);
        assert_eq!(lhs.run_unwrap(), f(3).run_unwrap());
        // right identity
        let m = f(4);
        assert_eq!(m.and_then(Sel::pure).run_unwrap(), m.run_unwrap());
        // associativity
        let lhs = m.and_then(f).and_then(g);
        let rhs = m.and_then(move |x| f(x).and_then(g));
        assert_eq!(lhs.run_unwrap(), rhs.run_unwrap());
    }

    #[test]
    fn unhandled_op_is_reported() {
        crate::effect! {
            effect Dummy {
                op Poke : () => ();
            }
        }
        let s: Sel<f64, ()> = crate::perform::<f64, Poke>(());
        let err = s.run().unwrap_err();
        assert_eq!(err.effect, "Dummy");
        assert_eq!(err.op, "Poke");
        assert_eq!(err.to_string(), "unhandled operation Dummy::Poke");
    }

    #[test]
    fn sel_macro_desugars() {
        let prog: Sel<f64, i32> = sel! {
            let x = Sel::pure(10);
            let _ = loss(1.0);
            Sel::pure(x * 2)
        };
        assert_eq!(prog.run_unwrap(), (1.0, 20));
    }
}
