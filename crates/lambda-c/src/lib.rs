//! λC — the model calculus of *Handling the Selection Monad* (Plotkin &
//! Xie, PLDI 2025), §3 and Appendix A.
//!
//! λC is a higher-order calculus of algebraic effect handlers whose
//! handlers receive, besides the usual delimited continuation, a **choice
//! continuation** giving the loss that each candidate operation result
//! would entail. Losses are produced by a built-in `loss` writer effect and
//! scoped with `⟨·⟩_g` (*local*) and `reset`.
//!
//! The crate provides, faithfully to the paper:
//!
//! * [`types`] — types and multiset effects (Fig 2);
//! * [`sig`] — signatures and the §3.4 well-foundedness check;
//! * [`syntax`] — expressions, handlers, loss-continuation expressions
//!   (Fig 3);
//! * [`typecheck`] — the type-and-effect system (Fig 4);
//! * [`smallstep`] — the loss-continuation-threading small-step semantics
//!   (Fig 6), including the choice-continuation construction of rule R5;
//! * [`bigstep`] — the big-step evaluator (Fig 7) with fuel;
//! * [`build`] — a builder DSL mirroring the paper's syntactic sugar;
//! * [`examples`] — the paper's example programs, ready to run;
//! * [`loss`], [`prim`], [`subst`] — loss values (a commutative monoid),
//!   primitive functions on ground values, and capture-avoiding
//!   substitution;
//! * [`giantstep`] — the giant-step evaluation of Theorem 5.6.
//!
//! Beyond the paper, for running λC programs as searches:
//!
//! * [`compile`](mod@compile) — lowering to de Bruijn code for the
//!   environment machine;
//! * [`machine`] — the environment machine, bit-identical to
//!   [`smallstep`] and able to force decisions and prune;
//! * [`flow`] — abstract interpretation certifying non-negative losses
//!   and bounding decision shapes;
//! * [`testgen`] — a generator of random well-typed programs for the
//!   property tests and benches.
//!
//! # Quick example
//!
//! The §2.3 program `pgm` under the loss-minimising handler:
//!
//! ```
//! use lambda_c::examples;
//!
//! let ex = examples::pgm_with_argmin_handler();
//! let out = lambda_c::bigstep::eval_closed(
//!     &ex.sig, ex.expr, ex.ty, lambda_c::types::Effect::empty(),
//! ).unwrap();
//! assert_eq!(out.loss, lambda_c::loss::LossVal::scalar(2.0));
//! assert_eq!(out.terminal, lambda_c::syntax::Expr::Const(lambda_c::syntax::Const::Char('a')));
//! ```

pub mod bigstep;
pub mod build;
pub mod compile;
pub mod examples;
pub mod flow;
pub mod giantstep;
pub mod loss;
pub mod machine;
pub mod prim;
pub mod sig;
pub mod smallstep;
pub mod subst;
pub mod syntax;
pub mod testgen;
pub mod typecheck;
pub mod types;

pub use bigstep::{eval, eval_closed, EvalOutcome};
pub use compile::{compile, CompileError, CompiledProgram};
pub use flow::{DecisionShape, FlowReport, LossAbs, NonNegLosses};
pub use loss::LossVal;
pub use machine::{MachError, MachineOutcome};
pub use sig::{OpSig, SigError, Signature};
pub use smallstep::{step, EvalError, StepResult};
pub use syntax::{Const, Expr, Handler};
pub use typecheck::{check_program, type_of, TypeError};
pub use types::{BaseTy, Effect, Type};
