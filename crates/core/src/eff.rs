//! The free effect monad `Eff`.
//!
//! The paper's Haskell library implements `Eff` with multi-prompt delimited
//! continuations; Rust has no such control operator, so we use the
//! equivalent *free monad over operation nodes*: a computation is either
//! finished ([`Eff::Pure`]) or suspended on an operation call with a
//! (multi-shot, `Rc`-shared) continuation. Handlers fold over this tree —
//! which is precisely how the operational semantics (rules R5/R6) treats
//! handling. See DESIGN.md for the substitution argument.

use crate::effect::Operation;
use crate::runtime::{bind_cont, node_cont, BindCont, NodeCont};
use crate::value::Value;
use std::any::TypeId;
use std::rc::Rc;

/// Identifies which operation a node carries: a user-declared operation, or
/// an internal *return-loss marker* (one per `handle` activation) used to
/// evaluate the handled computation's loss continuation with the handler's
/// current parameter — the implementation of rule (S1)'s use of the
/// *current* parameter `v` under parameterized handlers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A user operation, identified by its marker type.
    User(TypeId),
    /// A return-loss marker for the `handle` activation with this id.
    Marker(u64),
}

/// A suspended operation call.
#[derive(Clone, Debug)]
pub struct OpCall {
    /// The effect the operation belongs to (TypeId of the effect marker).
    pub effect_id: TypeId,
    /// Which operation.
    pub kind: OpKind,
    /// Effect name, for diagnostics.
    pub effect_name: &'static str,
    /// Operation name, for diagnostics.
    pub op_name: &'static str,
    /// The operation argument (the paper's `out` value).
    pub arg: Value,
}

impl OpCall {
    /// A call of the user operation `Op`.
    pub fn user<Op: Operation>(arg: Value) -> OpCall {
        OpCall {
            effect_id: TypeId::of::<Op::Effect>(),
            kind: OpKind::User(TypeId::of::<Op>()),
            effect_name: <Op::Effect as crate::effect::Effect>::NAME,
            op_name: Op::NAME,
            arg,
        }
    }

    /// A return-loss marker for handle activation `id`.
    pub(crate) fn marker(id: u64, arg: Value) -> OpCall {
        OpCall {
            effect_id: TypeId::of::<MarkerEffect>(),
            kind: OpKind::Marker(id),
            effect_name: "<internal>",
            op_name: "<return-loss>",
            arg,
        }
    }

    /// Is this the marker of activation `id`?
    pub(crate) fn is_marker(&self, id: u64) -> bool {
        self.kind == OpKind::Marker(id)
    }
}

/// Private effect tag for marker nodes.
enum MarkerEffect {}

/// A free-monad computation: finished, or suspended on an operation.
///
/// The continuation is `Rc<dyn Fn…>` because handlers may resume it any
/// number of times (the all-results handler of §2.2 resumes twice; choice
/// continuations re-run it for every probed candidate).
pub enum Eff<A> {
    /// A finished computation.
    Pure(A),
    /// Suspended on `OpCall`; feed the operation result to continue.
    Op(OpCall, NodeCont<A>),
}

impl<A> Clone for Eff<A>
where
    A: Clone,
{
    fn clone(&self) -> Self {
        match self {
            Eff::Pure(a) => Eff::Pure(a.clone()),
            Eff::Op(c, k) => Eff::Op(c.clone(), Rc::clone(k)),
        }
    }
}

impl<A> std::fmt::Debug for Eff<A>
where
    A: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Eff::Pure(a) => write!(f, "Eff::Pure({a:?})"),
            Eff::Op(c, _) => write!(f, "Eff::Op({}::{}, <k>)", c.effect_name, c.op_name),
        }
    }
}

impl<A: 'static> Eff<A> {
    /// The unit.
    pub fn pure(a: A) -> Eff<A> {
        Eff::Pure(a)
    }

    /// Monadic bind with a shared continuation: `f` already lives behind
    /// an `Rc`, so every `Op` node on the way to `Pure` shares it.
    pub fn bind<B: 'static>(self, f: BindCont<A, B>) -> Eff<B> {
        match self {
            Eff::Pure(a) => f(a),
            Eff::Op(call, k) => Eff::Op(call, node_cont(move |v| k(v).bind(Rc::clone(&f)))),
        }
    }

    /// Monadic bind with an owned closure. A finished computation applies
    /// `f` directly; `f` is boxed only when it must wait behind an `Op`
    /// node, so pure binds allocate nothing.
    pub fn and_then<B: 'static>(self, f: impl Fn(A) -> Eff<B> + 'static) -> Eff<B> {
        match self {
            Eff::Pure(a) => f(a),
            op => op.bind(bind_cont(f)),
        }
    }

    /// Functorial map.
    pub fn map<B: 'static>(self, f: impl Fn(A) -> B + 'static) -> Eff<B> {
        self.and_then(move |a| Eff::Pure(f(a)))
    }

    /// Is the computation finished?
    pub fn is_pure(&self) -> bool {
        matches!(self, Eff::Pure(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::Effect;

    enum TestEffect {}
    impl Effect for TestEffect {
        const NAME: &'static str = "Test";
    }
    enum Ask {}
    impl Operation for Ask {
        type Effect = TestEffect;
        type Arg = ();
        type Ret = i32;
        const NAME: &'static str = "Ask";
    }

    #[test]
    fn pure_bind_is_application() {
        let e = Eff::pure(2).map(|x| x + 1);
        match e {
            Eff::Pure(v) => assert_eq!(v, 3),
            _ => panic!("expected pure"),
        }
    }

    #[test]
    fn bind_reaches_through_op_nodes() {
        let e: Eff<i32> =
            Eff::Op(OpCall::user::<Ask>(Value::new(())), Rc::new(|v| Eff::Pure(v.get::<i32>())));
        let e2 = e.map(|x| x * 10);
        match e2 {
            Eff::Op(call, k) => {
                assert_eq!(call.op_name, "Ask");
                match k(Value::new(7_i32)) {
                    Eff::Pure(v) => assert_eq!(v, 70),
                    _ => panic!("expected pure after resume"),
                }
            }
            _ => panic!("expected op"),
        }
    }

    #[test]
    fn continuations_are_multi_shot() {
        let e: Eff<i32> = Eff::Op(
            OpCall::user::<Ask>(Value::new(())),
            Rc::new(|v| Eff::Pure(v.get::<i32>() + 1)),
        );
        if let Eff::Op(_, k) = e {
            let a = match k(Value::new(1_i32)) {
                Eff::Pure(v) => v,
                _ => unreachable!(),
            };
            let b = match k(Value::new(10_i32)) {
                Eff::Pure(v) => v,
                _ => unreachable!(),
            };
            assert_eq!((a, b), (2, 11));
        } else {
            panic!("expected op");
        }
    }

    #[test]
    fn marker_identity() {
        let c = OpCall::marker(7, Value::new(()));
        assert!(c.is_marker(7));
        assert!(!c.is_marker(8));
    }
}
