//! Compilation of λC expressions to the environment machine's code.
//!
//! The substitution interpreter ([`crate::smallstep`]) clones and renames
//! the full term on every β-step. The compiler lowers a well-scoped
//! expression once into one flat node table per [`CompiledProgram`] —
//! [`Code`] nodes with **de Bruijn indices** instead of named variables,
//! each child a [`CodeId`] — which the environment machine
//! ([`crate::machine`]) then evaluates with closures and persistent
//! environments: a β-step becomes one environment extension, independent
//! of term size. A code position is a plain number, which machine state
//! and [`crate::flow`]'s dense per-site tables hold without a pointer.
//!
//! `Code` is deliberately plain `Send + Sync` data (ids, `String`,
//! [`Const`], primitive `fn` pointers — no `Rc`, no closures): a
//! [`CompiledProgram`] is thread-shippable, so the `lambda-rt` bridge can
//! run the machine on any engine worker (replay-per-worker, the engine's
//! portability contract).
//!
//! Names are resolved once, here: variables become indices, operation
//! names become [`OpId`]s into the program's name table, and primitives
//! become their [`prim_lookup`] evaluator. Types are erased: no machine
//! value carries one. Each node's free indices are recorded once too:
//! they are all of an environment that evaluating the node can read,
//! which is what a suspended run's state key keeps
//! ([`crate::machine::StateKey`]).
//!
//! Only scoping is checked here (unbound variables are compile errors);
//! typing is the typechecker's job, and the machine mirrors the
//! small-step semantics' graceful [`crate::machine::MachError`]s on
//! ill-typed input (an unknown primitive included).

use crate::prim::{prim_lookup, PrimEval};
use crate::syntax::{Const, Expr, Handler};
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An operation name, interned per [`CompiledProgram`].
pub type OpId = u32;

/// A node's position in its program's node table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodeId(pub(crate) u32);

impl Index<CodeId> for [Code] {
    type Output = Code;

    fn index(&self, id: CodeId) -> &Code {
        &self[id.0 as usize]
    }
}

/// One node of compiled λC: the [`Expr`] grammar with binders turned into
/// de Bruijn indices (innermost binder = index 0) and every child a
/// [`CodeId`] into the program's node table.
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
    Prim(String, Option<PrimEval>, CodeId),
    /// A variable, as distance to its binder.
    Var(usize),
    /// `λ. body` (binds index 0 of the body).
    Lam(CodeId),
    /// Application.
    App(CodeId, CodeId),
    /// Tuple.
    Tuple(Vec<CodeId>),
    /// Projection (0-based).
    Proj(CodeId, usize),
    /// Left injection.
    Inl(CodeId),
    /// Right injection.
    Inr(CodeId),
    /// Case analysis; each branch binds its payload at index 0.
    Cases {
        /// Scrutinee.
        scrut: CodeId,
        /// Left branch (binds the payload).
        lbody: CodeId,
        /// Right branch (binds the payload).
        rbody: CodeId,
    },
    /// The natural number zero.
    Zero,
    /// Successor.
    Succ(CodeId),
    /// Iteration `iter(e1, e2, e3)`.
    Iter(CodeId, CodeId, CodeId),
    /// The empty list.
    Nil,
    /// Cons.
    Cons(CodeId, CodeId),
    /// Fold.
    Fold(CodeId, CodeId, CodeId),
    /// Operation call.
    OpCall {
        /// Operation.
        op: OpId,
        /// Argument.
        arg: CodeId,
    },
    /// Loss emission `loss(e)`.
    Loss(CodeId),
    /// `with h from e1 handle e2`.
    Handle {
        /// The handler (clauses compiled in the enclosing scope).
        handler: CodeHandler,
        /// Initial parameter.
        from: CodeId,
        /// Handled computation.
        body: CodeId,
    },
    /// `e ◮ λx. e2` — the loss-continuation lambda's *body* (binds x).
    Then {
        /// The computation whose losses are captured.
        e: CodeId,
        /// Body of the continuation lambda (binds the result).
        lam_body: CodeId,
    },
    /// `⟨e⟩_g` with `g = λx. gbody` (binds x).
    Local {
        /// Body of the loss continuation lambda.
        g_body: CodeId,
        /// The localised expression.
        e: CodeId,
    },
    /// `reset e`.
    Reset(CodeId),
}

/// A compiled handler. Clause bodies bind `p, x, l, k` (so `k` is de
/// Bruijn index 0, `p` index 3); the return clause binds `p, x`.
#[derive(Clone, Debug)]
pub struct CodeHandler {
    /// One compiled clause per operation.
    pub clauses: Vec<CodeClause>,
    /// The compiled return clause body (binds `p, x`).
    pub ret_body: CodeId,
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
    pub body: CodeId,
}

/// A compiled closed program — plain `Send + Sync` data, ready for the
/// machine (and for replay-per-worker across engine threads).
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The node table: every node of the program, children before
    /// their parents. Its allocation is the program's identity.
    pub(crate) code: Arc<[Code]>,
    /// The program's top node.
    pub(crate) root: CodeId,
    /// Operation names, indexed by [`OpId`].
    pub(crate) ops: Arc<[String]>,
    /// Every node's free de Bruijn indices.
    pub(crate) free: Arc<FreeVars>,
}

/// Every node's free de Bruijn indices, ascending and without repeats,
/// relative to the environment the node is evaluated in (a binder's
/// body contributes its indices minus the binder's width). Node `i`'s
/// end at `ends[i]` in `vars`, and start where node `i - 1`'s end.
#[derive(Debug, Default)]
pub(crate) struct FreeVars {
    ends: Vec<u32>,
    vars: Vec<u32>,
}

impl FreeVars {
    /// The free indices of node `id`.
    pub(crate) fn of(&self, id: CodeId) -> &[u32] {
        &self.vars[self.range(id)]
    }

    fn range(&self, CodeId(i): CodeId) -> std::ops::Range<usize> {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Records the next node's free indices, from its children's.
    fn push(&mut self, node: &Code) {
        let start = self.vars.len();
        let mut add = |child: CodeId, binds: u32| {
            for k in self.range(child) {
                if let Some(v) = self.vars[k].checked_sub(binds) {
                    self.vars.push(v);
                }
            }
        };
        match node {
            Code::Var(i) => self.vars.push(u32::try_from(*i).expect("an index below 2^32")),
            Code::Const(_) | Code::Zero | Code::Nil => {}
            Code::Lam(body) => add(*body, 1),
            Code::Cases { scrut, lbody, rbody } => {
                add(*scrut, 0);
                add(*lbody, 1);
                add(*rbody, 1);
            }
            Code::Handle { handler, from, body } => {
                for c in &handler.clauses {
                    add(c.body, 4);
                }
                add(handler.ret_body, 2);
                add(*from, 0);
                add(*body, 0);
            }
            Code::Then { e, lam_body } => {
                add(*e, 0);
                add(*lam_body, 1);
            }
            Code::Local { g_body, e } => {
                add(*g_body, 1);
                add(*e, 0);
            }
            Code::Tuple(es) => es.iter().for_each(|c| add(*c, 0)),
            Code::Prim(_, _, a)
            | Code::Proj(a, _)
            | Code::Inl(a)
            | Code::Inr(a)
            | Code::Succ(a)
            | Code::OpCall { arg: a, .. }
            | Code::Loss(a)
            | Code::Reset(a) => add(*a, 0),
            Code::App(a, b) | Code::Cons(a, b) => {
                add(*a, 0);
                add(*b, 0);
            }
            Code::Iter(a, b, c) | Code::Fold(a, b, c) => {
                add(*a, 0);
                add(*b, 0);
                add(*c, 0);
            }
        }
        let mut own = self.vars.split_off(start);
        own.sort_unstable();
        own.dedup();
        self.vars.extend(own);
        self.ends.push(u32::try_from(self.vars.len()).expect("fewer than 2^32 free-index entries"));
    }
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
    let root = compile_in(e, &mut cx)?;
    Ok(CompiledProgram { code: cx.nodes.into(), root, ops: cx.ops.into(), free: Arc::new(cx.free) })
}

/// What compilation resolves names against — the binders in scope
/// (innermost last) and the operation names seen so far — and the node
/// table it appends to, with each node's free indices.
#[derive(Default)]
struct Ctx {
    scope: Vec<String>,
    ops: Vec<String>,
    nodes: Vec<Code>,
    free: FreeVars,
}

impl Ctx {
    fn op(&mut self, name: &str) -> OpId {
        if !self.ops.iter().any(|o| o == name) {
            self.ops.push(name.to_owned());
        }
        self.ops.iter().position(|o| o == name).expect("interned above") as OpId
    }
}

/// Compiles under the context's scope stack, appending the node after
/// its children.
fn compile_in(e: &Expr, cx: &mut Ctx) -> Result<CodeId, CompileError> {
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
            handler: compile_handler(handler, cx)?,
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
    let id = u32::try_from(cx.nodes.len()).expect("a program of fewer than 2^32 nodes");
    cx.free.push(&code);
    cx.nodes.push(code);
    Ok(CodeId(id))
}

fn compile_binder(body: &Expr, cx: &mut Ctx, var: &str) -> Result<CodeId, CompileError> {
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
    Ok(CodeHandler { clauses, ret_body: ret_body? })
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

    /// The node `id` names in `p`'s table.
    fn at(p: &CompiledProgram, id: CodeId) -> &Code {
        &p.code[id]
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
        let Code::Lam(b1) = at(&p, p.root) else { panic!("outer lam") };
        let Code::Lam(b2) = at(&p, *b1) else { panic!("inner lam") };
        let Code::App(f, a) = at(&p, *b2) else { panic!("app") };
        assert!(matches!(at(&p, *f), Code::Var(1)));
        assert!(matches!(at(&p, *a), Code::Var(0)));
    }

    #[test]
    fn every_node_records_its_free_indices() {
        // λx. λy. (x y): the application reads 0 and 1, the inner λ only
        // its x (index 0 outside it), the outer λ nothing.
        let e = lam(
            Effect::empty(),
            "x",
            Type::loss(),
            lam(Effect::empty(), "y", Type::loss(), app(v("x"), v("y"))),
        );
        let p = compile(&e).unwrap();
        let Code::Lam(b1) = at(&p, p.root) else { panic!("outer lam") };
        let Code::Lam(b2) = at(&p, *b1) else { panic!("inner lam") };
        assert_eq!(p.free.of(*b2), [0, 1]);
        assert_eq!(p.free.of(*b1), [0]);
        assert!(p.free.of(p.root).is_empty());
        // A handler's clauses bind four and its return clause two: only
        // `grid` is free in the `Handle` node, once.
        let h = HandlerBuilder::new("amb", Type::loss(), Type::loss(), Effect::empty())
            .on("decide", "p", "x", "l", "k", app(v("k"), pair(v("p"), v("grid"))))
            .ret("p", "x", v("grid"))
            .build();
        let e =
            let_(Effect::empty(), "grid", Type::loss(), lc(1.0), handle0(h, op("decide", unit())));
        let p = compile(&e).unwrap();
        let Code::App(lamc, _) = at(&p, p.root) else { panic!("let is app") };
        let Code::Lam(body) = at(&p, *lamc) else { panic!("lam") };
        assert_eq!(p.free.of(*body), [0]);
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
        let Code::Lam(b1) = at(&p, p.root) else { panic!("outer lam") };
        let Code::Lam(b2) = at(&p, *b1) else { panic!("inner lam") };
        assert!(matches!(at(&p, *b2), Code::Var(0)));
    }

    #[test]
    fn handler_clauses_bind_p_x_l_k() {
        let h = HandlerBuilder::new("amb", Type::bool(), Type::bool(), Effect::empty())
            .on("decide", "p", "x", "l", "k", app(v("k"), pair(v("p"), v("x"))))
            .build();
        let e = handle0(h, op("decide", unit()));
        let p = compile(&e).unwrap();
        let Code::Handle { handler, .. } = at(&p, p.root) else { panic!("handle") };
        let Code::App(k, args) = at(&p, handler.clauses[0].body) else { panic!("app") };
        assert!(matches!(at(&p, *k), Code::Var(0)), "k is the innermost binder");
        let Code::Tuple(es) = at(&p, *args) else { panic!("pair") };
        assert!(matches!(at(&p, es[0]), Code::Var(3)), "p is the outermost of the four");
        assert!(matches!(at(&p, es[1]), Code::Var(2)), "x is next");
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
        let Code::App(lamc, _) = at(&p, p.root) else { panic!("let is app") };
        let Code::Lam(body) = at(&p, *lamc) else { panic!("lam") };
        let Code::Handle { handler, .. } = at(&p, *body) else { panic!("handle") };
        let Code::App(_, args) = at(&p, handler.clauses[0].body) else { panic!("app") };
        let Code::Tuple(es) = at(&p, *args) else { panic!("pair") };
        assert!(matches!(at(&p, es[1]), Code::Var(4)));
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
