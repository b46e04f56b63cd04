//! The single home of the runtime's continuation machinery.
//!
//! Every `Rc<dyn Fn …>` continuation shape the runtime threads around —
//! the node continuations stored in [`Eff::Op`], the
//! bind continuations of the free monad, the loss continuations of
//! [`Sel`](crate::sel::Sel), and the dynamically-typed choice/delimited
//! continuations handlers receive — is aliased *here and only here*, with
//! smart constructors, so that `eff.rs`, `sel.rs`, and `handler.rs` (and
//! downstream crates, via the re-exports in [`crate`]) compile against one
//! shared surface. Continuations are `Rc`-shared because they are
//! multi-shot: the all-results handler of §2.2 resumes twice, and choice
//! continuations re-run the future once per probed candidate.

use crate::eff::Eff;
use crate::loss::Loss;
use crate::value::Value;
use std::rc::Rc;

/// The continuation stored in an [`Eff::Op`] node:
/// feed the (dynamically-typed) operation result to continue the program.
pub type NodeCont<A> = Rc<dyn Fn(Value) -> Eff<A>>;

/// A monadic bind continuation over [`Eff`], `A → Eff<B>`.
pub type BindCont<A, B> = Rc<dyn Fn(A) -> Eff<B>>;

/// A loss continuation `a → Eff loss`: maps a candidate result to the loss
/// the rest of the program would incur (the `γ` of §4.2).
pub type LossCont<L, A> = Rc<dyn Fn(&A) -> Eff<L>>;

/// The payload of a [`Sel`](crate::sel::Sel): run under a loss continuation,
/// produce an effectful loss–value pair — `(A → Eff L) → Eff (L, A)`.
pub type SelRun<L, A> = Rc<dyn Fn(LossCont<L, A>) -> Eff<(L, A)>>;

/// Raw (dynamically-typed) choice continuation handed to handler clauses:
/// `(param, candidate result) → loss`.
pub type RawChoice<L> = Rc<dyn Fn(Value, Value) -> crate::sel::Sel<L, L>>;

/// Raw (dynamically-typed) delimited continuation handed to handler
/// clauses: `(param, operation result) → B`.
pub type RawResume<L, B> = Rc<dyn Fn(Value, Value) -> crate::sel::Sel<L, B>>;

/// A stored handler clause: `(param, op arg, choice cont, delimited cont)`.
pub(crate) type RawClause<L, B> =
    Rc<dyn Fn(Value, Value, RawChoice<L>, RawResume<L, B>) -> crate::sel::Sel<L, B>>;

/// A stored return clause: `(param, result) → B` under the handler.
pub(crate) type RawRet<L, A, B> = Rc<dyn Fn(Value, A) -> crate::sel::Sel<L, B>>;

/// Wraps a closure as a shareable [`NodeCont`].
pub fn node_cont<A: 'static>(f: impl Fn(Value) -> Eff<A> + 'static) -> NodeCont<A> {
    Rc::new(f)
}

/// Wraps a closure as a shareable [`BindCont`].
pub fn bind_cont<A: 'static, B: 'static>(f: impl Fn(A) -> Eff<B> + 'static) -> BindCont<A, B> {
    Rc::new(f)
}

/// Wraps a closure as a shareable [`LossCont`].
pub fn loss_cont<L: Loss, A: 'static>(f: impl Fn(&A) -> Eff<L> + 'static) -> LossCont<L, A> {
    Rc::new(f)
}

/// The loss continuation that assigns zero loss to every result — how
/// program execution starts (§3.3) and the continuation installed by
/// [`Sel::local0`](crate::sel::Sel::local0).
pub fn zero_cont<L: Loss, A: 'static>() -> LossCont<L, A> {
    Rc::new(|_| Eff::Pure(L::zero()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cont_is_zero_everywhere() {
        let g = zero_cont::<f64, i32>();
        for x in [-3, 0, 7] {
            match g(&x) {
                Eff::Pure(l) => assert_eq!(l, 0.0),
                _ => panic!("zero_cont must be pure"),
            }
        }
    }

    #[test]
    fn constructors_share_multi_shot() {
        let k = bind_cont(|x: i32| Eff::Pure(x + 1));
        let k2 = Rc::clone(&k);
        assert!(matches!(k(1), Eff::Pure(2)));
        assert!(matches!(k2(10), Eff::Pure(11)));
    }

    #[test]
    fn loss_cont_wraps_closure() {
        let g = loss_cont(|x: &i32| Eff::Pure(f64::from(*x) * 2.0));
        match g(&3) {
            Eff::Pure(l) => assert_eq!(l, 6.0),
            _ => panic!("expected pure"),
        }
    }
}
