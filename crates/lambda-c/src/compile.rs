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
//! [`Const`], primitive `fn` pointers — no `Rc`, no closures): a
//! [`CompiledProgram`] is thread-shippable, so the `lambda-rt` bridge can
//! run the machine on any engine worker (replay-per-worker, the engine's
//! portability contract).
//!
//! Names are resolved once, here: variables become indices, operation
//! names become [`OpId`]s into the program's name table, and primitives
//! become their [`prim_lookup`] evaluator. Types are erased: no machine
//! value carries one.
//!
//! Only scoping is checked here (unbound variables are compile errors);
//! typing is the typechecker's job, and the machine mirrors the
//! small-step semantics' graceful [`crate::machine::MachError`]s on
//! ill-typed input (an unknown primitive included).

use crate::prim::{prim_lookup, PrimEval};
use crate::syntax::{Const, Expr, Handler};
use std::fmt;
use std::sync::Arc;

/// An operation name, interned per [`CompiledProgram`].
pub type OpId = u32;

/// Compiled λC code: the [`Expr`] grammar with binders turned into de
/// Bruijn indices (innermost binder = index 0) and all sharing via `Arc`.
///
/// Type and effect annotations are erased: neither influences evaluation
/// (the small-step rules consult effects only to re-annotate
/// machine-built lambdas), and a [`crate::prim::Ground`] sum or list
/// carries no type, so terminals convert without one.
#[derive(Clone, Debug)]
pub enum Code {
    /// A constant.
    Const(Const),
    /// Primitive application `f(e)`: the name, its [`prim_lookup`]
    /// evaluator (`None` for an unknown name, which fails when the call
    /// runs) and the argument.
    Prim(String, Option<PrimEval>, Arc<Code>),
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
    /// Left injection.
    Inl(Arc<Code>),
    /// Right injection.
    Inr(Arc<Code>),
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
    Nil,
    /// Cons.
    Cons(Arc<Code>, Arc<Code>),
    /// Fold.
    Fold(Arc<Code>, Arc<Code>, Arc<Code>),
    /// Operation call.
    OpCall {
        /// Operation.
        op: OpId,
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
            Code::Const(_) | Code::Var(_) | Code::Zero | Code::Nil => 0,
            Code::Prim(_, _, e)
            | Code::Lam(e)
            | Code::Proj(e, _)
            | Code::Inl(e)
            | Code::Inr(e)
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
    pub fn clause(&self, op: OpId) -> Option<&CodeClause> {
        self.clauses.iter().find(|c| c.op == op)
    }
}

/// One compiled operation clause.
#[derive(Clone, Debug)]
pub struct CodeClause {
    /// Operation.
    pub op: OpId,
    /// Clause body, binding `p, x, l, k` (k = index 0).
    pub body: Arc<Code>,
}

/// A compiled closed program — plain `Send + Sync` data, ready for the
/// machine (and for replay-per-worker across engine threads).
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The program's code.
    pub code: Arc<Code>,
    /// Operation names, indexed by [`OpId`].
    pub(crate) ops: Arc<[String]>,
}

impl CompiledProgram {
    /// Which of the program's operations `names` lists, by [`OpId`]: the
    /// forced-op mask of a [`crate::machine::TreeChoices`]. Names the
    /// program never mentions are ignored.
    #[must_use]
    pub fn op_mask<S: AsRef<str>>(&self, names: impl IntoIterator<Item = S>) -> Arc<[bool]> {
        let mut mask = vec![false; self.ops.len()];
        for name in names {
            if let Some(id) = self.ops.iter().position(|op| op == name.as_ref()) {
                mask[id] = true;
            }
        }
        mask.into()
    }
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
    let mut cx = Ctx::default();
    let code = compile_in(e, &mut cx)?;
    Ok(CompiledProgram { code, ops: cx.ops.into() })
}

fn arc(c: Code) -> Arc<Code> {
    Arc::new(c)
}

/// What compilation resolves names against: the binders in scope
/// (innermost last) and the operation names seen so far.
#[derive(Default)]
struct Ctx {
    scope: Vec<String>,
    ops: Vec<String>,
}

impl Ctx {
    fn op(&mut self, name: &str) -> OpId {
        if !self.ops.iter().any(|o| o == name) {
            self.ops.push(name.to_owned());
        }
        self.ops.iter().position(|o| o == name).expect("interned above") as OpId
    }
}

/// Compiles under the context's scope stack.
fn compile_in(e: &Expr, cx: &mut Ctx) -> Result<Arc<Code>, CompileError> {
    let code = match e {
        Expr::Const(c) => Code::Const(c.clone()),
        Expr::Prim(name, a) => {
            Code::Prim(name.clone(), prim_lookup(name).map(|d| d.eval), compile_in(a, cx)?)
        }
        Expr::Var(x) => {
            let idx = cx
                .scope
                .iter()
                .rev()
                .position(|b| b == x)
                .ok_or_else(|| CompileError::Unbound(x.clone()))?;
            Code::Var(idx)
        }
        Expr::Lam { var, body, .. } => Code::Lam(compile_binder(body, cx, var)?),
        Expr::App(a, b) => Code::App(compile_in(a, cx)?, compile_in(b, cx)?),
        Expr::Tuple(es) => {
            let cs: Result<Vec<_>, _> = es.iter().map(|e| compile_in(e, cx)).collect();
            Code::Tuple(cs?)
        }
        Expr::Proj(a, i) => Code::Proj(compile_in(a, cx)?, *i),
        Expr::Inl { e, .. } => Code::Inl(compile_in(e, cx)?),
        Expr::Inr { e, .. } => Code::Inr(compile_in(e, cx)?),
        Expr::Cases { scrut, lvar, lbody, rvar, rbody, .. } => Code::Cases {
            scrut: compile_in(scrut, cx)?,
            lbody: compile_binder(lbody, cx, lvar)?,
            rbody: compile_binder(rbody, cx, rvar)?,
        },
        Expr::Zero => Code::Zero,
        Expr::Succ(a) => Code::Succ(compile_in(a, cx)?),
        Expr::Iter(a, b, c) => {
            Code::Iter(compile_in(a, cx)?, compile_in(b, cx)?, compile_in(c, cx)?)
        }
        Expr::Nil(_) => Code::Nil,
        Expr::Cons(a, b) => Code::Cons(compile_in(a, cx)?, compile_in(b, cx)?),
        Expr::Fold(a, b, c) => {
            Code::Fold(compile_in(a, cx)?, compile_in(b, cx)?, compile_in(c, cx)?)
        }
        Expr::OpCall { op, arg } => Code::OpCall { op: cx.op(op), arg: compile_in(arg, cx)? },
        Expr::Loss(a) => Code::Loss(compile_in(a, cx)?),
        Expr::Handle { handler, from, body } => Code::Handle {
            handler: Arc::new(compile_handler(handler, cx)?),
            from: compile_in(from, cx)?,
            body: compile_in(body, cx)?,
        },
        Expr::Then { e, lam } => {
            let Expr::Lam { var, body, .. } = lam.as_ref() else {
                return Err(CompileError::NotALambda("then".into()));
            };
            Code::Then { e: compile_in(e, cx)?, lam_body: compile_binder(body, cx, var)? }
        }
        Expr::Local { g, e, .. } => {
            let Expr::Lam { var, body, .. } = g.as_ref() else {
                return Err(CompileError::NotALambda("local".into()));
            };
            Code::Local { g_body: compile_binder(body, cx, var)?, e: compile_in(e, cx)? }
        }
        Expr::Reset(a) => Code::Reset(compile_in(a, cx)?),
    };
    Ok(arc(code))
}

fn compile_binder(body: &Expr, cx: &mut Ctx, var: &str) -> Result<Arc<Code>, CompileError> {
    cx.scope.push(var.to_owned());
    let r = compile_in(body, cx);
    cx.scope.pop();
    r
}

fn compile_handler(h: &Handler, cx: &mut Ctx) -> Result<CodeHandler, CompileError> {
    let mut clauses = Vec::with_capacity(h.clauses.len());
    for c in &h.clauses {
        let n = cx.scope.len();
        cx.scope.extend([c.p.clone(), c.x.clone(), c.l.clone(), c.k.clone()]);
        let body = compile_in(&c.body, cx);
        cx.scope.truncate(n);
        clauses.push(CodeClause { op: cx.op(&c.op), body: body? });
    }
    let n = cx.scope.len();
    cx.scope.extend([h.ret.p.clone(), h.ret.x.clone()]);
    let ret_body = compile_in(&h.ret.body, cx);
    cx.scope.truncate(n);
    Ok(CodeHandler { label: h.label.clone(), clauses, ret_body: ret_body? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::types::{Effect, Type};

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
