//! Compilation of λC expressions to the environment machine's code.
//!
//! The substitution interpreter ([`crate::smallstep`]) clones and renames
//! the full term on every β-step. The compiler lowers a well-scoped
//! expression once into [`Code`] — an immutable, `Arc`-shared tree with
//! **de Bruijn indices** instead of named variables — which the
//! environment machine ([`crate::machine`]) then evaluates with closures
//! and persistent environments: a β-step becomes one environment
//! extension, independent of term size.
//!
//! `Code` is deliberately plain `Send + Sync` data (`Arc`, `String`,
//! [`Type`], [`Const`] — no `Rc`, no closures): a [`CompiledProgram`] is
//! thread-shippable, so the `lambda-rt` bridge can run the machine on
//! any engine worker (replay-per-worker, the engine's portability
//! contract).
//!
//! Only scoping is checked here (unbound variables are compile errors);
//! typing is the typechecker's job, and the machine mirrors the
//! small-step semantics' graceful [`crate::machine::MachError`]s on
//! ill-typed input.

use crate::syntax::{Const, Expr, Handler};
use crate::types::Type;
use std::fmt;
use std::sync::Arc;

/// Compiled λC code: the [`Expr`] grammar with binders turned into de
/// Bruijn indices (innermost binder = index 0) and all sharing via `Arc`.
///
/// Effect annotations are erased — they never influence evaluation (the
/// small-step rules consult them only to re-annotate machine-built
/// lambdas). Types survive only where values need them back
/// (injections, `nil`) so terminal values convert to the same
/// [`crate::prim::Ground`] shapes the reference interpreter produces.
#[derive(Clone, Debug)]
pub enum Code {
    /// A constant.
    Const(Const),
    /// Primitive application `f(e)`.
    Prim(String, Arc<Code>),
    /// A variable, as distance to its binder.
    Var(usize),
    /// `λ. body` (binds index 0 of the body).
    Lam(Arc<Code>),
    /// Application.
    App(Arc<Code>, Arc<Code>),
    /// Tuple.
    Tuple(Vec<Arc<Code>>),
    /// Projection (0-based).
    Proj(Arc<Code>, usize),
    /// Left injection, with both summand types for value reconstruction.
    Inl {
        /// Left summand type.
        lty: Type,
        /// Right summand type.
        rty: Type,
        /// Payload.
        e: Arc<Code>,
    },
    /// Right injection.
    Inr {
        /// Left summand type.
        lty: Type,
        /// Right summand type.
        rty: Type,
        /// Payload.
        e: Arc<Code>,
    },
    /// Case analysis; each branch binds its payload at index 0.
    Cases {
        /// Scrutinee.
        scrut: Arc<Code>,
        /// Left branch (binds the payload).
        lbody: Arc<Code>,
        /// Right branch (binds the payload).
        rbody: Arc<Code>,
    },
    /// The natural number zero.
    Zero,
    /// Successor.
    Succ(Arc<Code>),
    /// Iteration `iter(e1, e2, e3)`.
    Iter(Arc<Code>, Arc<Code>, Arc<Code>),
    /// The empty list.
    Nil(Type),
    /// Cons.
    Cons(Arc<Code>, Arc<Code>),
    /// Fold.
    Fold(Arc<Code>, Arc<Code>, Arc<Code>),
    /// Operation call.
    OpCall {
        /// Operation name.
        op: String,
        /// Argument.
        arg: Arc<Code>,
    },
    /// Loss emission `loss(e)`.
    Loss(Arc<Code>),
    /// `with h from e1 handle e2`.
    Handle {
        /// The handler (clauses compiled in the enclosing scope).
        handler: Arc<CodeHandler>,
        /// Initial parameter.
        from: Arc<Code>,
        /// Handled computation.
        body: Arc<Code>,
    },
    /// `e ◮ λx. e2` — the loss-continuation lambda's *body* (binds x).
    Then {
        /// The computation whose losses are captured.
        e: Arc<Code>,
        /// Body of the continuation lambda (binds the result).
        lam_body: Arc<Code>,
    },
    /// `⟨e⟩_g` with `g = λx. gbody` (binds x).
    Local {
        /// Body of the loss continuation lambda.
        g_body: Arc<Code>,
        /// The localised expression.
        e: Arc<Code>,
    },
    /// `reset e`.
    Reset(Arc<Code>),
}

/// A compiled handler. Clause bodies bind `p, x, l, k` (so `k` is de
/// Bruijn index 0, `p` index 3); the return clause binds `p, x`.
#[derive(Clone, Debug)]
pub struct CodeHandler {
    /// The handled effect label.
    pub label: String,
    /// One compiled clause per operation.
    pub clauses: Vec<CodeClause>,
    /// The compiled return clause body (binds `p, x`).
    pub ret_body: Arc<Code>,
}

impl Code {
    /// Number of subterms (handler clauses included), used to scale
    /// analysis budgets in `lambda_c::flow` proportionally to the program.
    pub fn size(&self) -> usize {
        1 + match self {
            Code::Const(_) | Code::Var(_) | Code::Zero | Code::Nil(_) => 0,
            Code::Prim(_, e)
            | Code::Lam(e)
            | Code::Proj(e, _)
            | Code::Inl { e, .. }
            | Code::Inr { e, .. }
            | Code::Succ(e)
            | Code::Loss(e)
            | Code::OpCall { arg: e, .. }
            | Code::Reset(e) => e.size(),
            Code::App(a, b)
            | Code::Cons(a, b)
            | Code::Then { e: a, lam_body: b }
            | Code::Local { g_body: a, e: b } => a.size() + b.size(),
            Code::Tuple(es) => es.iter().map(|e| e.size()).sum(),
            Code::Cases { scrut, lbody, rbody } => scrut.size() + lbody.size() + rbody.size(),
            Code::Iter(a, b, c) | Code::Fold(a, b, c) => a.size() + b.size() + c.size(),
            Code::Handle { handler, from, body } => {
                from.size()
                    + body.size()
                    + handler.ret_body.size()
                    + handler.clauses.iter().map(|c| c.body.size()).sum::<usize>()
            }
        }
    }
}

impl CodeHandler {
    /// Looks up the clause for `op` (first match, mirroring
    /// [`Handler::clause`]).
    pub fn clause(&self, op: &str) -> Option<&CodeClause> {
        self.clauses.iter().find(|c| c.op == op)
    }
}

/// One compiled operation clause.
#[derive(Clone, Debug)]
pub struct CodeClause {
    /// Operation name.
    pub op: String,
    /// Clause body, binding `p, x, l, k` (k = index 0).
    pub body: Arc<Code>,
}

/// A compiled closed program — plain `Send + Sync` data, ready for the
/// machine (and for replay-per-worker across engine threads).
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The program's code.
    pub code: Arc<Code>,
}

/// A compile-time error: the only thing compilation checks is scoping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// A free variable (programs must be closed).
    Unbound(String),
    /// A `then`/`local` continuation that is not syntactically a lambda
    /// (the grammar guarantees it; builders can violate it).
    NotALambda(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unbound(x) => write!(f, "unbound variable `{x}`"),
            CompileError::NotALambda(w) => write!(f, "{w} continuation is not a lambda"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles a closed expression.
///
/// # Errors
///
/// [`CompileError::Unbound`] on free variables, [`CompileError::NotALambda`]
/// if a `then`/`local` loss continuation is not a lambda.
pub fn compile(e: &Expr) -> Result<CompiledProgram, CompileError> {
    let mut scope = Vec::new();
    Ok(CompiledProgram { code: compile_in(e, &mut scope)? })
}

fn arc(c: Code) -> Arc<Code> {
    Arc::new(c)
}

/// Compiles under a scope stack (innermost binder last).
fn compile_in(e: &Expr, scope: &mut Vec<String>) -> Result<Arc<Code>, CompileError> {
    let code = match e {
        Expr::Const(c) => Code::Const(c.clone()),
        Expr::Prim(name, a) => Code::Prim(name.clone(), compile_in(a, scope)?),
        Expr::Var(x) => {
            let idx = scope
                .iter()
                .rev()
                .position(|b| b == x)
                .ok_or_else(|| CompileError::Unbound(x.clone()))?;
            Code::Var(idx)
        }
        Expr::Lam { var, body, .. } => Code::Lam(compile_binder(body, scope, var)?),
        Expr::App(a, b) => Code::App(compile_in(a, scope)?, compile_in(b, scope)?),
        Expr::Tuple(es) => {
            let cs: Result<Vec<_>, _> = es.iter().map(|e| compile_in(e, scope)).collect();
            Code::Tuple(cs?)
        }
        Expr::Proj(a, i) => Code::Proj(compile_in(a, scope)?, *i),
        Expr::Inl { lty, rty, e } => {
            Code::Inl { lty: lty.clone(), rty: rty.clone(), e: compile_in(e, scope)? }
        }
        Expr::Inr { lty, rty, e } => {
            Code::Inr { lty: lty.clone(), rty: rty.clone(), e: compile_in(e, scope)? }
        }
        Expr::Cases { scrut, lvar, lbody, rvar, rbody, .. } => Code::Cases {
            scrut: compile_in(scrut, scope)?,
            lbody: compile_binder(lbody, scope, lvar)?,
            rbody: compile_binder(rbody, scope, rvar)?,
        },
        Expr::Zero => Code::Zero,
        Expr::Succ(a) => Code::Succ(compile_in(a, scope)?),
        Expr::Iter(a, b, c) => {
            Code::Iter(compile_in(a, scope)?, compile_in(b, scope)?, compile_in(c, scope)?)
        }
        Expr::Nil(t) => Code::Nil(t.clone()),
        Expr::Cons(a, b) => Code::Cons(compile_in(a, scope)?, compile_in(b, scope)?),
        Expr::Fold(a, b, c) => {
            Code::Fold(compile_in(a, scope)?, compile_in(b, scope)?, compile_in(c, scope)?)
        }
        Expr::OpCall { op, arg } => Code::OpCall { op: op.clone(), arg: compile_in(arg, scope)? },
        Expr::Loss(a) => Code::Loss(compile_in(a, scope)?),
        Expr::Handle { handler, from, body } => Code::Handle {
            handler: Arc::new(compile_handler(handler, scope)?),
            from: compile_in(from, scope)?,
            body: compile_in(body, scope)?,
        },
        Expr::Then { e, lam } => {
            let Expr::Lam { var, body, .. } = lam.as_ref() else {
                return Err(CompileError::NotALambda("then".into()));
            };
            Code::Then { e: compile_in(e, scope)?, lam_body: compile_binder(body, scope, var)? }
        }
        Expr::Local { g, e, .. } => {
            let Expr::Lam { var, body, .. } = g.as_ref() else {
                return Err(CompileError::NotALambda("local".into()));
            };
            Code::Local { g_body: compile_binder(body, scope, var)?, e: compile_in(e, scope)? }
        }
        Expr::Reset(a) => Code::Reset(compile_in(a, scope)?),
    };
    Ok(arc(code))
}

fn compile_binder(
    body: &Expr,
    scope: &mut Vec<String>,
    var: &str,
) -> Result<Arc<Code>, CompileError> {
    scope.push(var.to_owned());
    let r = compile_in(body, scope);
    scope.pop();
    r
}

fn compile_handler(h: &Handler, scope: &mut Vec<String>) -> Result<CodeHandler, CompileError> {
    let mut clauses = Vec::with_capacity(h.clauses.len());
    for c in &h.clauses {
        let n = scope.len();
        scope.extend([c.p.clone(), c.x.clone(), c.l.clone(), c.k.clone()]);
        let body = compile_in(&c.body, scope);
        scope.truncate(n);
        clauses.push(CodeClause { op: c.op.clone(), body: body? });
    }
    let n = scope.len();
    scope.extend([h.ret.p.clone(), h.ret.x.clone()]);
    let ret_body = compile_in(&h.ret.body, scope);
    scope.truncate(n);
    Ok(CodeHandler { label: h.label.clone(), clauses, ret_body: ret_body? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::types::Effect;

    #[test]
    fn compiled_code_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledProgram>();
        assert_send_sync::<Code>();
        assert_send_sync::<CodeHandler>();
    }

    #[test]
    fn de_bruijn_indices_count_outward() {
        // λx. λy. (x y) — x is index 1, y index 0.
        let e = lam(
            Effect::empty(),
            "x",
            Type::loss(),
            lam(Effect::empty(), "y", Type::loss(), app(v("x"), v("y"))),
        );
        let p = compile(&e).unwrap();
        let Code::Lam(b1) = p.code.as_ref() else { panic!("outer lam") };
        let Code::Lam(b2) = b1.as_ref() else { panic!("inner lam") };
        let Code::App(f, a) = b2.as_ref() else { panic!("app") };
        assert!(matches!(f.as_ref(), Code::Var(1)));
        assert!(matches!(a.as_ref(), Code::Var(0)));
    }

    #[test]
    fn unbound_variables_are_rejected() {
        assert_eq!(compile(&v("ghost")).unwrap_err(), CompileError::Unbound("ghost".into()));
    }

    #[test]
    fn shadowing_resolves_to_the_nearest_binder() {
        let e = lam(
            Effect::empty(),
            "x",
            Type::loss(),
            lam(Effect::empty(), "x", Type::loss(), v("x")),
        );
        let p = compile(&e).unwrap();
        let Code::Lam(b1) = p.code.as_ref() else { panic!("outer lam") };
        let Code::Lam(b2) = b1.as_ref() else { panic!("inner lam") };
        assert!(matches!(b2.as_ref(), Code::Var(0)));
    }

    #[test]
    fn handler_clauses_bind_p_x_l_k() {
        let h = HandlerBuilder::new("amb", Type::bool(), Type::bool(), Effect::empty())
            .on("decide", "p", "x", "l", "k", app(v("k"), pair(v("p"), v("x"))))
            .build();
        let e = handle0(h, op("decide", unit()));
        let p = compile(&e).unwrap();
        let Code::Handle { handler, .. } = p.code.as_ref() else { panic!("handle") };
        let Code::App(k, args) = handler.clauses[0].body.as_ref() else { panic!("app") };
        assert!(matches!(k.as_ref(), Code::Var(0)), "k is the innermost binder");
        let Code::Tuple(es) = args.as_ref() else { panic!("pair") };
        assert!(matches!(es[0].as_ref(), Code::Var(3)), "p is the outermost of the four");
        assert!(matches!(es[1].as_ref(), Code::Var(2)), "x is next");
    }

    #[test]
    fn handler_bodies_may_close_over_outer_binders() {
        // let grid = 1.0; with h handle … where the clause mentions grid.
        let h = HandlerBuilder::new("amb", Type::loss(), Type::loss(), Effect::empty())
            .on("decide", "p", "x", "l", "k", app(v("k"), pair(v("p"), v("grid"))))
            .build();
        let e =
            let_(Effect::empty(), "grid", Type::loss(), lc(1.0), handle0(h, op("decide", unit())));
        let p = compile(&e).unwrap();
        // grid resolves at distance 4 from inside the clause (under p,x,l,k).
        let Code::App(lamc, _) = p.code.as_ref() else { panic!("let is app") };
        let Code::Lam(body) = lamc.as_ref() else { panic!("lam") };
        let Code::Handle { handler, .. } = body.as_ref() else { panic!("handle") };
        let Code::App(_, args) = handler.clauses[0].body.as_ref() else { panic!("app") };
        let Code::Tuple(es) = args.as_ref() else { panic!("pair") };
        assert!(matches!(es[1].as_ref(), Code::Var(4)));
    }

    #[test]
    fn every_example_compiles() {
        for ex in [
            crate::examples::decide_all(),
            crate::examples::pgm_with_argmin_handler(),
            crate::examples::counter(),
            crate::examples::minimax(),
            crate::examples::password(),
            crate::examples::tune_lr(1.0, 0.5),
            crate::examples::moo_divergent(),
        ] {
            compile(&ex.expr).expect("closed example compiles");
        }
    }
}
