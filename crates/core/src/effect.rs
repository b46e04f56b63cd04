//! Effect and operation declarations.
//!
//! An *effect* groups a finite set of *operations* (the paper follows Koka
//! in this). Both are declared as uninhabited marker types — most easily
//! via the [`effect!`](macro@crate::effect) macro, the analogue of the paper's
//! Template Haskell `[effect| data NDet = NDet { decide :: Op () Bool } ]`:
//!
//! ```
//! use selc::{effect, perform, Sel};
//!
//! effect! {
//!     /// Non-deterministic choice (§2.2).
//!     pub effect NDet {
//!         /// Choose a boolean.
//!         op Decide : () => bool;
//!     }
//! }
//!
//! let _choose: Sel<f64, bool> = perform::<f64, Decide>(());
//! ```

use crate::eff::{Eff, OpCall};
use crate::loss::Loss;
use crate::sel::Sel;
use crate::value::Value;
use std::rc::Rc;

/// An effect label — a group of operations handled together.
pub trait Effect: 'static {
    /// Display name.
    const NAME: &'static str;
}

/// An operation `op : Arg → Ret` of some effect.
///
/// Following the paper's convention (§3.1, footnote 3): `Arg` is the
/// paper's `out` type (sent to start the effect) and `Ret` is the paper's
/// `in` type (received to continue).
pub trait Operation: 'static {
    /// The effect this operation belongs to.
    type Effect: Effect;
    /// Argument type (the paper's `out`).
    type Arg: Clone + 'static;
    /// Result type (the paper's `in`).
    type Ret: Clone + 'static;
    /// Display name.
    const NAME: &'static str;
}

/// Performs an operation: suspends the computation on an `Op` node whose
/// continuation returns the operation result with zero recorded loss
/// (cf. the unit in rule R5's `f_k`). The continuation moves a uniquely
/// held result out of its box and clones only a shared one.
pub fn perform<L: Loss, Op: Operation>(arg: Op::Arg) -> Sel<L, Op::Ret> {
    Sel::from_fn(move |_g| {
        Eff::Op(
            OpCall::user::<Op>(Value::new(arg.clone())),
            Rc::new(|v: Value| Eff::Pure((L::zero(), v.take::<Op::Ret>()))),
        )
    })
}

/// Declares an effect and its operations (see [module docs](self)).
///
/// Grammar: `effect! { <attrs> pub effect Name { <attrs> op OpName : ArgTy => RetTy ; ... } }`
#[macro_export]
macro_rules! effect {
    (
        $(#[$emeta:meta])*
        $vis:vis effect $ename:ident {
            $(
                $(#[$ometa:meta])*
                op $oname:ident : $arg:ty => $ret:ty ;
            )+
        }
    ) => {
        $(#[$emeta])*
        $vis enum $ename {}

        impl $crate::Effect for $ename {
            const NAME: &'static str = stringify!($ename);
        }

        $(
            $(#[$ometa])*
            $vis enum $oname {}

            impl $crate::Operation for $oname {
                type Effect = $ename;
                type Arg = $arg;
                type Ret = $ret;
                const NAME: &'static str = stringify!($oname);
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    effect! {
        /// Test effect.
        pub effect Tele {
            /// Ask for a number.
            op Ask : () => i32;
            /// Emit a number.
            op Tell : i32 => ();
        }
    }

    #[test]
    fn macro_generates_markers() {
        assert_eq!(<Tele as Effect>::NAME, "Tele");
        assert_eq!(<Ask as Operation>::NAME, "Ask");
        assert_eq!(<Tell as Operation>::NAME, "Tell");
    }

    #[test]
    fn perform_suspends_on_op_node() {
        let s: Sel<f64, i32> = perform::<f64, Ask>(());
        let zero = Rc::new(|_: &i32| Eff::Pure(0.0_f64));
        match s.run_with(zero) {
            Eff::Op(call, k) => {
                assert_eq!(call.op_name, "Ask");
                match k(Value::new(9_i32)) {
                    Eff::Pure((l, v)) => {
                        assert_eq!(l, 0.0);
                        assert_eq!(v, 9);
                    }
                    _ => panic!("expected pure"),
                }
            }
            _ => panic!("expected op"),
        }
    }

    thread_local! {
        static CLONES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// A result type that counts its clones.
    pub struct Counted;

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted
        }
    }

    effect! {
        /// Test effect with a clone-counting result.
        pub effect Fetching {
            /// Fetch a counted value.
            op Fetch : () => Counted;
        }
    }

    #[test]
    fn continuation_moves_a_uniquely_held_result() {
        let s: Sel<f64, Counted> = perform::<f64, Fetch>(());
        let zero = Rc::new(|_: &Counted| Eff::Pure(0.0_f64));
        let Eff::Op(_, k) = s.run_with(zero) else { panic!("expected op") };
        let clones = || CLONES.with(std::cell::Cell::get);
        let before = clones();
        assert!(matches!(k(Value::new(Counted)), Eff::Pure(_)));
        assert_eq!(clones() - before, 0, "a uniquely held result is moved out");
        let shared = Value::new(Counted);
        assert!(matches!(k(shared.clone()), Eff::Pure(_)));
        assert_eq!(clones() - before, 1, "a shared result is cloned once");
    }

    #[test]
    fn macro_works_in_function_scope() {
        effect! {
            effect Local {
                op Ping : u8 => u8;
            }
        }
        assert_eq!(<Ping as Operation>::NAME, "Ping");
    }
}
