//! Abstract interpretation over compiled [`Code`]: certified loss bounds
//! and static decision shapes.
//!
//! Branch-and-bound pruning (strict domination on partial ambient losses)
//! is sound only when every future emission is non-negative. Until now that
//! was an unchecked caller promise — a bare `nonneg: bool` the runtime
//! trusted blindly. This module derives the promise from the program
//! instead: a fixpoint-free abstract interpreter walks the scope-checked,
//! loop-free de Bruijn [`Code`] and runs two cooperating analyses:
//!
//! 1. **Loss-sign/interval analysis.** Abstract domain
//!    `{Bot, NonNeg, Interval(lo, hi), Top}` over loss values and ambient
//!    emissions. The machine only feeds the pruning accumulator from
//!    ambient `loss(e)` sites (`capture_depth == 0` in
//!    [`machine`](crate::machine)); Then-captured and Reset-discarded
//!    emissions never reach it directly, but their folded verdicts re-enter
//!    as *values*, which the interval domain tracks through the binding.
//!    If every ambient `loss` site is provably non-negative the program
//!    earns a [`NonNegLosses`] certificate.
//! 2. **Static decision-shape analysis.** Choice-point count and depth
//!    bounds per execution path, feeding `TreeEngine` work-partitioning and
//!    letting `serve` reject over-deep workloads at validate time.
//!
//! Neither analysis decides what may be cached: prefix-cache keys are
//! sound because the machine is deterministic (see `lambda-rt`'s
//! `search` module), not because of any verdict computed here.
//!
//! # Soundness argument
//!
//! The Fig-6 machine adds to the pruning accumulator exactly the values
//! emitted at `loss` sites while `capture_depth == 0`. A site that emits a
//! component-wise non-negative [`LossVal`] on *every* evaluation only ever
//! grows the accumulator under the scalar total order, so partial losses
//! are monotone lower bounds and strict-domination pruning cannot change
//! the winner. The analysis therefore certifies the *site condition*:
//! every `loss` site whose emission can reach a live buffer has an
//! abstract interval with `lo >= 0`. Captured regions (`Then` bodies,
//! `Reset`) are suppressed for violation purposes — their emissions fold
//! into verdict *values*, and any negative verdict re-emitted ambiently is
//! caught at the re-emitting site because the interval rides along the
//! binding. Closures that escape to unknown code are conservatively
//! applied in an ambient context (`escape`), so a suppressed negative
//! cannot hide in a lambda. Unknown applications, probes, and budget
//! exhaustion set `inconclusive`, which refuses certification.
//!
//! Certificates are scoped to **forced-choice replay** over the declared
//! decision operations — the only mode `lambda-rt`'s pruning evaluators
//! run. Under forced replay the machine intercepts decision ops at the
//! handler boundary and never runs their clauses, so decision-op clause
//! bodies are dead code: they are still scanned for violations
//! (conservative) but excluded from shape and emission totals.
//!
//! ```
//! use lambda_c::testgen::{deep_decide_chain, gen_signature};
//! use lambda_c::{compile, flow};
//!
//! let prog = compile(&deep_decide_chain(6).expr).unwrap();
//! let report = flow::analyze(&prog, &gen_signature().decision_ops());
//! let cert = report.certificate().expect("chain losses are non-negative");
//! assert!(cert.covers(&prog));
//! assert_eq!(report.shape.max, Some(6));
//! ```

use std::fmt;
use std::sync::Arc;

use crate::compile::{Code, CompiledProgram};
use crate::loss::LossVal;
use crate::syntax::Const;

/// Abstract loss: the sign/interval domain.
///
/// `Interval(lo, hi)` abstracts a [`LossVal`] by an interval that contains
/// **every component and `0`** (`lo <= 0 <= hi`). Including `0` makes the
/// element-wise zero-padding of [`LossVal::add`] and the zero-defaulting
/// component reads (`fst_loss` on a scalar, `as_scalar` on the empty
/// vector) sound for free. `NonNeg` is `[0, +inf)`; `Top` is all of `R`
/// (and absorbs NaN).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossAbs {
    /// Unreachable / no value.
    Bot,
    /// Every component in `[0, +inf)`.
    NonNeg,
    /// Every component in `[lo, hi]`, with `lo <= 0 <= hi` finite.
    Interval(f64, f64),
    /// No information (includes NaN).
    Top,
}

impl LossAbs {
    /// The abstraction of the monoid unit.
    pub fn zero() -> LossAbs {
        LossAbs::Interval(0.0, 0.0)
    }

    /// Abstracts a concrete loss: the smallest interval containing all
    /// components and `0`. NaN components go to `Top`.
    pub fn constant(l: &LossVal) -> LossAbs {
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for &x in &l.0 {
            if x.is_nan() {
                return LossAbs::Top;
            }
            lo = lo.min(x);
            hi = hi.max(x);
        }
        LossAbs::from_bounds(lo, hi)
    }

    fn bounds(self) -> Option<(f64, f64)> {
        match self {
            LossAbs::Bot => None,
            LossAbs::NonNeg => Some((0.0, f64::INFINITY)),
            LossAbs::Interval(lo, hi) => Some((lo, hi)),
            LossAbs::Top => Some((f64::NEG_INFINITY, f64::INFINITY)),
        }
    }

    fn from_bounds(lo: f64, hi: f64) -> LossAbs {
        if lo.is_nan() || hi.is_nan() || lo == f64::NEG_INFINITY {
            LossAbs::Top
        } else if hi == f64::INFINITY {
            if lo >= 0.0 {
                LossAbs::NonNeg
            } else {
                // The four-point domain has no `[lo, +inf)` element for
                // negative `lo`; round up.
                LossAbs::Top
            }
        } else {
            LossAbs::Interval(lo.min(0.0), hi.max(0.0))
        }
    }

    /// Least upper bound.
    pub fn join(self, other: LossAbs) -> LossAbs {
        match (self.bounds(), other.bounds()) {
            (None, _) => other,
            (_, None) => self,
            (Some((a, b)), Some((c, d))) => LossAbs::from_bounds(a.min(c), b.max(d)),
        }
    }

    /// Abstract monoid addition (element-wise with zero padding).
    // Named for the λC primitive it abstracts, not the operator trait.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: LossAbs) -> LossAbs {
        match (self.bounds(), other.bounds()) {
            (None, _) | (_, None) => LossAbs::Bot,
            (Some((a, b)), Some((c, d))) => LossAbs::from_bounds(a + c, b + d),
        }
    }

    /// Abstract negation.
    // Named for the λC primitive it abstracts, not the operator trait.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> LossAbs {
        match self.bounds() {
            None => LossAbs::Bot,
            Some((lo, hi)) => LossAbs::from_bounds(-hi, -lo),
        }
    }

    /// Abstract scalar multiplication (interval product; both operand
    /// intervals contain `0`, so corner analysis is exact up to rounding
    /// into the four-point domain).
    // Named for the λC primitive it abstracts, not the operator trait.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: LossAbs) -> LossAbs {
        // x * y over a rectangle is extremal at corners; `0 * inf` corners
        // are limits along a zero edge, where the product is identically 0.
        fn corner(x: f64, y: f64) -> f64 {
            if x == 0.0 || y == 0.0 {
                0.0
            } else {
                x * y
            }
        }
        match (self.bounds(), other.bounds()) {
            (None, _) | (_, None) => LossAbs::Bot,
            (Some((a, b)), Some((c, d))) => {
                let cs = [corner(a, c), corner(a, d), corner(b, c), corner(b, d)];
                let lo = cs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = cs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                LossAbs::from_bounds(lo, hi)
            }
        }
    }

    /// Abstract closure under zero-or-more additions (handler clauses,
    /// iteration bodies): `[0,0]` stays zero, non-negative stays
    /// non-negative but unbounded, anything that can be negative is `Top`.
    pub fn star(self) -> LossAbs {
        match self.bounds() {
            None => LossAbs::zero(),
            Some((lo, hi)) => {
                if lo >= 0.0 && hi <= 0.0 {
                    LossAbs::zero()
                } else if lo >= 0.0 {
                    LossAbs::NonNeg
                } else {
                    LossAbs::Top
                }
            }
        }
    }

    /// True iff every concretisation is component-wise non-negative.
    pub fn is_nonneg(self) -> bool {
        match self {
            LossAbs::Bot | LossAbs::NonNeg => true,
            LossAbs::Interval(lo, _) => lo >= 0.0,
            LossAbs::Top => false,
        }
    }

    /// True iff the concrete loss is covered by this abstraction.
    pub fn contains(self, l: &LossVal) -> bool {
        match self.bounds() {
            None => false,
            Some((lo, hi)) => {
                l.0.iter().all(|&x| {
                    x.is_nan() && hi == f64::INFINITY && lo == f64::NEG_INFINITY
                        || (lo <= x && x <= hi)
                }) && lo <= 0.0
                    && hi >= 0.0
            }
        }
    }
}

impl fmt::Display for LossAbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossAbs::Bot => write!(f, "⊥"),
            LossAbs::NonNeg => write!(f, "[0, +∞)"),
            LossAbs::Interval(lo, hi) => write!(f, "[{lo}, {hi}]"),
            LossAbs::Top => write!(f, "⊤"),
        }
    }
}

/// Static bounds on the number of decision points (forced-choice
/// operations) along any execution path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionShape {
    /// Decisions on the shortest path.
    pub min: u64,
    /// Decisions on the longest path, `None` if unbounded/unknown.
    pub max: Option<u64>,
}

impl DecisionShape {
    /// No decisions.
    pub fn zero() -> DecisionShape {
        DecisionShape { min: 0, max: Some(0) }
    }

    /// Exactly one decision.
    pub fn one() -> DecisionShape {
        DecisionShape { min: 1, max: Some(1) }
    }

    /// Unknown shape (e.g. behind an unknown application).
    pub fn unknown() -> DecisionShape {
        DecisionShape { min: 0, max: None }
    }

    /// Sequential composition.
    pub fn seq(self, other: DecisionShape) -> DecisionShape {
        DecisionShape {
            min: self.min + other.min,
            max: self.max.zip(other.max).map(|(a, b)| a + b),
        }
    }

    /// Branch join.
    pub fn join(self, other: DecisionShape) -> DecisionShape {
        DecisionShape {
            min: self.min.min(other.min),
            max: self.max.zip(other.max).map(|(a, b)| a.max(b)),
        }
    }

    /// Zero-or-more repetitions.
    pub fn star(self) -> DecisionShape {
        DecisionShape { min: 0, max: if self.max == Some(0) { Some(0) } else { None } }
    }
}

/// A `loss` site the analysis could not prove non-negative.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The abstract emission at the site.
    pub interval: LossAbs,
    /// A short description of the offending site.
    pub site: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loss site `{}` emits {}", self.site, self.interval)
    }
}

/// A non-forgeable certificate that every ambient emission of a specific
/// compiled program is component-wise non-negative, so strict-domination
/// pruning under forced-choice replay is winner-preserving.
///
/// The only way to obtain one is [`analyze`] returning a clean report;
/// [`NonNegLosses::covers`] ties the certificate to the exact
/// [`CompiledProgram`] it was derived from (pointer identity, `O(1)`).
#[derive(Clone, Debug)]
pub struct NonNegLosses {
    code: Arc<Code>,
}

impl NonNegLosses {
    /// True iff this certificate was derived from exactly `program`.
    pub fn covers(&self, program: &CompiledProgram) -> bool {
        Arc::ptr_eq(&self.code, &program.code)
    }
}

/// The combined verdict of the two analyses.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Interval bound on the total ambient emission (often `Top` for
    /// handled programs; the certificate does not depend on it).
    pub emitted: LossAbs,
    /// Ambient `loss` sites that could not be proven non-negative.
    pub violations: Vec<Violation>,
    /// True if the analysis hit unknown code or its budget: certification
    /// is refused even with no recorded violations.
    pub inconclusive: bool,
    /// Decision-shape bounds.
    pub shape: DecisionShape,
    certificate: Option<NonNegLosses>,
}

impl FlowReport {
    /// The non-negative-losses certificate, if earned.
    pub fn certificate(&self) -> Option<&NonNegLosses> {
        self.certificate.as_ref()
    }

    /// True iff the program was certified.
    pub fn certified(&self) -> bool {
        self.certificate.is_some()
    }
}

/// Analysis configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlowConfig {
    /// Abstract evaluation steps before the analysis gives up and reports
    /// `inconclusive` (guards against exponential beta-redex blowup; λC
    /// `Code` is loop-free, so plain programs finish far below this).
    pub budget: usize,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig { budget: 1 << 20 }
    }
}

/// Runs both analyses on a compiled program.
///
/// `decision_ops` are the operations the runtime will force (scripted
/// decisions replacing their handler clauses); see
/// [`Signature::decision_ops`](crate::sig::Signature::decision_ops).
pub fn analyze<S: AsRef<str>>(program: &CompiledProgram, decision_ops: &[S]) -> FlowReport {
    analyze_with(program, decision_ops, FlowConfig::default())
}

/// [`analyze`] with an explicit budget.
pub fn analyze_with<S: AsRef<str>>(
    program: &CompiledProgram,
    decision_ops: &[S],
    config: FlowConfig,
) -> FlowReport {
    let ops: Vec<&str> = decision_ops.iter().map(AsRef::as_ref).collect();
    let mut an = Analyzer {
        decision_ops: &ops,
        budget: config.budget,
        suppress: 0,
        violations: Vec::new(),
        inconclusive: false,
    };
    let out = an.eval(&program.code, &Env::default());
    // A program whose *result* is a closure may be applied by the caller
    // in an ambient context; scan it like any other escape.
    an.escape(&out.val);
    let certified = an.violations.is_empty() && !an.inconclusive;
    FlowReport {
        emitted: if certified && !out.emit.is_nonneg() {
            // The site condition proves non-negativity even when interval
            // propagation through handler clauses lost precision.
            LossAbs::NonNeg
        } else {
            out.emit
        },
        violations: an.violations,
        inconclusive: an.inconclusive,
        shape: out.shape,
        certificate: if certified {
            Some(NonNegLosses { code: program.code.clone() })
        } else {
            None
        },
    }
}

/// Abstract value.
#[derive(Clone, Debug)]
enum AbsVal {
    /// A loss with an interval bound.
    Loss(LossAbs),
    /// A known closure (body + captured abstract environment).
    Clos(Arc<Code>, Env),
    /// A tuple of known arity.
    Tuple(Vec<AbsVal>),
    /// A known injection (branch + payload) — gives `Cases` precision on
    /// constant booleans.
    Sum(bool, Box<AbsVal>),
    /// A captured continuation `k`.
    Resume,
    /// A loss probe `l`.
    Probe,
    /// Anything else.
    Opaque,
}

type Env = Vec<AbsVal>;

/// Result of abstractly evaluating one term: its value, the interval of
/// what it emits into the *innermost enclosing buffer*, and its decision
/// shape.
struct Out {
    val: AbsVal,
    emit: LossAbs,
    shape: DecisionShape,
}

impl Out {
    fn pure(val: AbsVal) -> Out {
        Out { val, emit: LossAbs::zero(), shape: DecisionShape::zero() }
    }
}

struct Analyzer<'a> {
    decision_ops: &'a [&'a str],
    budget: usize,
    /// Depth of captured regions (`Then` bodies, `Reset`): violations are
    /// not recorded there because those emissions never reach a live
    /// pruning buffer directly — their fold re-enters as a value.
    suppress: u32,
    violations: Vec<Violation>,
    inconclusive: bool,
}

impl Analyzer<'_> {
    fn is_decision(&self, op: &str) -> bool {
        self.decision_ops.contains(&op)
    }

    fn give_up(&mut self) -> Out {
        self.inconclusive = true;
        Out { val: AbsVal::Opaque, emit: LossAbs::Top, shape: DecisionShape::unknown() }
    }

    fn eval(&mut self, code: &Arc<Code>, env: &Env) -> Out {
        if self.budget == 0 {
            return self.give_up();
        }
        self.budget -= 1;
        match &**code {
            Code::Const(Const::Loss(l)) => Out::pure(AbsVal::Loss(LossAbs::constant(l))),
            Code::Const(_) => Out::pure(AbsVal::Opaque),
            Code::Var(i) => {
                Out::pure(env.get(env.len().wrapping_sub(1 + i)).cloned().unwrap_or(AbsVal::Opaque))
            }
            Code::Lam(body) => Out::pure(AbsVal::Clos(body.clone(), env.clone())),
            Code::Prim(name, arg) => {
                let a = self.eval(arg, env);
                Out { val: self.prim(name, &a.val), emit: a.emit, shape: a.shape }
            }
            Code::App(f, a) => {
                let fo = self.eval(f, env);
                let ao = self.eval(a, env);
                let app = self.apply(&fo.val, ao.val);
                Out {
                    val: app.val,
                    emit: fo.emit.add(ao.emit).add(app.emit),
                    shape: fo.shape.seq(ao.shape).seq(app.shape),
                }
            }
            Code::Tuple(es) => {
                let mut vals = Vec::with_capacity(es.len());
                let mut emit = LossAbs::zero();
                let mut shape = DecisionShape::zero();
                for e in es {
                    let o = self.eval(e, env);
                    vals.push(o.val);
                    emit = emit.add(o.emit);
                    shape = shape.seq(o.shape);
                }
                Out { val: AbsVal::Tuple(vals), emit, shape }
            }
            Code::Proj(e, i) => {
                let o = self.eval(e, env);
                let val = match o.val {
                    AbsVal::Tuple(mut vs) if *i < vs.len() => vs.swap_remove(*i),
                    _ => AbsVal::Opaque,
                };
                Out { val, emit: o.emit, shape: o.shape }
            }
            Code::Inl { e, .. } => {
                let o = self.eval(e, env);
                Out { val: AbsVal::Sum(true, Box::new(o.val)), emit: o.emit, shape: o.shape }
            }
            Code::Inr { e, .. } => {
                let o = self.eval(e, env);
                Out { val: AbsVal::Sum(false, Box::new(o.val)), emit: o.emit, shape: o.shape }
            }
            Code::Cases { scrut, lbody, rbody } => {
                let s = self.eval(scrut, env);
                match s.val {
                    AbsVal::Sum(left, payload) => {
                        let branch = if left { lbody } else { rbody };
                        let mut env2 = env.clone();
                        env2.push(*payload);
                        let o = self.eval(branch, &env2);
                        Out { val: o.val, emit: s.emit.add(o.emit), shape: s.shape.seq(o.shape) }
                    }
                    _ => {
                        let mut env2 = env.clone();
                        env2.push(AbsVal::Opaque);
                        let l = self.eval(lbody, &env2);
                        let r = self.eval(rbody, &env2);
                        Out {
                            val: join_val(l.val, r.val),
                            emit: s.emit.add(l.emit.join(r.emit)),
                            shape: s.shape.seq(l.shape.join(r.shape)),
                        }
                    }
                }
            }
            Code::Zero => Out::pure(AbsVal::Opaque),
            Code::Succ(e) => {
                let o = self.eval(e, env);
                Out { val: AbsVal::Opaque, emit: o.emit, shape: o.shape }
            }
            Code::Nil(_) => Out::pure(AbsVal::Opaque),
            Code::Cons(h, t) => {
                let ho = self.eval(h, env);
                let to = self.eval(t, env);
                // List elements flow into folds as opaque values; escape
                // any closures stored in the spine so their bodies are
                // still scanned.
                self.escape(&ho.val);
                Out {
                    val: AbsVal::Opaque,
                    emit: ho.emit.add(to.emit),
                    shape: ho.shape.seq(to.shape),
                }
            }
            Code::Iter(n, z, s) | Code::Fold(n, z, s) => {
                let no = self.eval(n, env);
                let zo = self.eval(z, env);
                let so = self.eval(s, env);
                // The step runs zero or more times on values we cannot
                // track; one application to an opaque argument covers every
                // iteration (the abstract environment is the same and
                // `Opaque` is above every iterate).
                let step = self.apply(&so.val, AbsVal::Opaque);
                Out {
                    val: AbsVal::Opaque,
                    emit: no.emit.add(zo.emit).add(so.emit).add(step.emit.star()),
                    shape: no.shape.seq(zo.shape).seq(so.shape).seq(step.shape.star()),
                }
            }
            Code::OpCall { op, arg } => {
                let a = self.eval(arg, env);
                self.escape(&a.val);
                let here = if self.is_decision(op) {
                    // Forced replay intercepts this call at the handler
                    // boundary and returns a scripted decision; the clause
                    // never runs, so the site itself emits nothing.
                    DecisionShape::one()
                } else {
                    // Non-decision clauses run; their emissions are
                    // accounted (starred) at the enclosing `Handle`.
                    DecisionShape::zero()
                };
                Out { val: AbsVal::Opaque, emit: a.emit, shape: a.shape.seq(here) }
            }
            Code::Loss(e) => {
                let o = self.eval(e, env);
                let emitted = match o.val {
                    AbsVal::Loss(abs) => abs,
                    _ => LossAbs::Top,
                };
                if self.suppress == 0 && !emitted.is_nonneg() {
                    self.violations
                        .push(Violation { interval: emitted, site: format!("loss({:?})", e) });
                }
                Out { val: AbsVal::Opaque, emit: o.emit.add(emitted), shape: o.shape }
            }
            Code::Handle { handler, from, body } => {
                let fo = self.eval(from, env);
                let bo = self.eval(body, env);
                let mut clause_emit = LossAbs::Bot;
                let mut clause_shape = DecisionShape::zero();
                let mut any_live = false;
                for clause in &handler.clauses {
                    let mut env2 = env.clone();
                    env2.push(AbsVal::Opaque); // p
                    env2.push(AbsVal::Opaque); // x
                    env2.push(AbsVal::Probe); // l
                    env2.push(AbsVal::Resume); // k
                    if self.is_decision(&clause.op) {
                        // Dead under forced replay: scan for violations
                        // only; drop emission/shape contributions.
                        self.scan_dead(&clause.body, &env2);
                    } else {
                        let co = self.eval(&clause.body, &env2);
                        clause_emit = clause_emit.join(co.emit);
                        clause_shape = clause_shape.join(co.shape);
                        any_live = true;
                    }
                }
                let mut env_ret = env.clone();
                env_ret.push(AbsVal::Opaque); // p
                env_ret.push(AbsVal::Opaque); // x
                let ro = self.eval(&handler.ret_body, &env_ret);
                let clause_part = if any_live { clause_emit.star() } else { LossAbs::zero() };
                Out {
                    val: AbsVal::Opaque,
                    emit: fo.emit.add(bo.emit).add(clause_part).add(ro.emit),
                    shape: fo.shape.seq(bo.shape).seq(clause_shape.star()).seq(ro.shape),
                }
            }
            Code::Then { e, lam_body } => {
                // `e`'s emissions are captured: they fold into the `◮`
                // verdict (`cap_1 + … + cap_n + g(v)`) instead of reaching
                // the outer buffer, so violations inside are suppressed —
                // the interval rides along the verdict value, and a
                // negative verdict re-emitted ambiently is caught at that
                // re-emitting site. The continuation receives `e`'s value
                // and runs against the outer buffer.
                self.suppress += 1;
                let eo = self.eval(e, env);
                self.suppress -= 1;
                let mut env2 = env.clone();
                env2.push(eo.val);
                let lo = self.eval(lam_body, &env2);
                let g_verdict = match lo.val {
                    AbsVal::Loss(a) => a,
                    _ => LossAbs::Top,
                };
                Out {
                    val: AbsVal::Loss(eo.emit.add(g_verdict)),
                    emit: lo.emit,
                    shape: eo.shape.seq(lo.shape),
                }
            }
            Code::Local { g_body, e } => {
                // `e` shares the outer buffer; the local loss continuation
                // `g` runs at decision points inside, zero or more times.
                let eo = self.eval(e, env);
                let mut env2 = env.clone();
                env2.push(AbsVal::Opaque);
                let go = self.eval(g_body, &env2);
                Out {
                    val: eo.val,
                    emit: eo.emit.add(go.emit.star()),
                    shape: eo.shape.seq(go.shape.star()),
                }
            }
            Code::Reset(e) => {
                // Emissions inside route to a junk buffer, persistently
                // across resumptions: they never reach any live buffer.
                self.suppress += 1;
                let eo = self.eval(e, env);
                self.suppress -= 1;
                Out { val: eo.val, emit: LossAbs::zero(), shape: eo.shape }
            }
        }
    }

    /// Abstract prim transfer. Prims never emit.
    fn prim(&mut self, name: &str, arg: &AbsVal) -> AbsVal {
        fn loss_of(v: &AbsVal) -> LossAbs {
            match v {
                AbsVal::Loss(a) => *a,
                _ => LossAbs::Top,
            }
        }
        fn pair_of(arg: &AbsVal) -> (LossAbs, LossAbs) {
            match arg {
                AbsVal::Tuple(vs) if vs.len() == 2 => (loss_of(&vs[0]), loss_of(&vs[1])),
                _ => (LossAbs::Top, LossAbs::Top),
            }
        }
        match name {
            "add" => {
                let (a, b) = pair_of(arg);
                AbsVal::Loss(a.add(b))
            }
            "sub" => {
                let (a, b) = pair_of(arg);
                AbsVal::Loss(a.add(b.neg()))
            }
            "mul" => {
                let (a, b) = pair_of(arg);
                AbsVal::Loss(a.mul(b))
            }
            "neg" => AbsVal::Loss(loss_of(arg).neg()),
            // A pair-loss's components are the operands' scalar readings;
            // their join (both intervals contain 0) bounds every component.
            "pair_loss" => {
                let (a, b) = pair_of(arg);
                AbsVal::Loss(a.join(b))
            }
            // Component reads: the operand interval contains all components
            // and 0, so it bounds any single component too.
            "fst_loss" | "snd_loss" => AbsVal::Loss(loss_of(arg)),
            "nat_to_loss" | "str_len" | "str_distinct" => AbsVal::Loss(LossAbs::NonNeg),
            // Comparisons and the rest produce non-loss ground values.
            _ => AbsVal::Opaque,
        }
    }

    /// Abstract application. The returned `Out.emit` is what the call
    /// emits into the caller's buffer.
    fn apply(&mut self, f: &AbsVal, arg: AbsVal) -> Out {
        if self.budget == 0 {
            return self.give_up();
        }
        self.budget -= 1;
        match f {
            AbsVal::Clos(body, captured) => {
                let mut env = captured.clone();
                env.push(arg);
                self.eval(body, &env)
            }
            AbsVal::Probe => {
                // `l(p', y)` re-runs the captured continuation with losses
                // folded into the verdict it returns. Only reachable in
                // live (non-decision) clauses; conservatively unknown.
                Out {
                    val: AbsVal::Loss(LossAbs::Top),
                    emit: LossAbs::Top,
                    shape: DecisionShape::unknown(),
                }
            }
            AbsVal::Resume => {
                // `k(p', y)` resumes the continuation; future `loss` sites
                // are scanned at their own occurrence, but the resumed
                // segment's emission total is unknown here.
                Out { val: AbsVal::Opaque, emit: LossAbs::Top, shape: DecisionShape::unknown() }
            }
            _ => {
                // Unknown callee: it may apply the argument in any context.
                self.escape(&arg);
                self.inconclusive = true;
                Out { val: AbsVal::Opaque, emit: LossAbs::Top, shape: DecisionShape::unknown() }
            }
        }
    }

    /// Scans a value that escapes to unknown code: closures inside may be
    /// applied later in an ambient context, so analyze their bodies
    /// unsuppressed (violations recorded) without trusting emission or
    /// shape totals.
    fn escape(&mut self, v: &AbsVal) {
        if self.budget == 0 {
            self.inconclusive = true;
            return;
        }
        match v {
            AbsVal::Clos(body, captured) => {
                self.budget -= 1;
                let saved = self.suppress;
                self.suppress = 0;
                let mut env = captured.clone();
                env.push(AbsVal::Opaque);
                let out = self.eval(body, &env);
                self.suppress = saved;
                self.escape(&out.val);
            }
            AbsVal::Tuple(vs) => {
                for v in vs {
                    self.escape(v);
                }
            }
            AbsVal::Sum(_, payload) => self.escape(payload),
            _ => {}
        }
    }

    /// Analyzes dead code (decision-op clause bodies, bypassed by forced
    /// interception) for `loss` violations only: emission, shape, and
    /// inconclusiveness contributions are discarded.
    fn scan_dead(&mut self, body: &Arc<Code>, env: &Env) {
        let inconclusive = self.inconclusive;
        let _ = self.eval(body, env);
        self.inconclusive = inconclusive;
    }
}

/// Join of abstract values across branches.
fn join_val(a: AbsVal, b: AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Loss(x), AbsVal::Loss(y)) => AbsVal::Loss(x.join(y)),
        (AbsVal::Resume, AbsVal::Resume) => AbsVal::Resume,
        (AbsVal::Probe, AbsVal::Probe) => AbsVal::Probe,
        (AbsVal::Tuple(xs), AbsVal::Tuple(ys)) if xs.len() == ys.len() => {
            AbsVal::Tuple(xs.into_iter().zip(ys).map(|(x, y)| join_val(x, y)).collect())
        }
        (AbsVal::Sum(l1, p1), AbsVal::Sum(l2, p2)) if l1 == l2 => {
            AbsVal::Sum(l1, Box::new(join_val(*p1, *p2)))
        }
        _ => AbsVal::Opaque,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::compile;
    use crate::testgen::{deep_decide_chain, gen_signature, ProgramGen};
    use crate::types::{Effect, Type};

    fn analyze_expr(e: &crate::syntax::Expr, ops: &[&str]) -> FlowReport {
        let prog = compile(e).expect("closed");
        analyze(&prog, ops)
    }

    #[test]
    fn interval_lattice_basics() {
        let five = LossAbs::constant(&LossVal::scalar(5.0));
        assert_eq!(five, LossAbs::Interval(0.0, 5.0));
        let neg = LossAbs::constant(&LossVal::scalar(-3.0));
        assert_eq!(neg, LossAbs::Interval(-3.0, 0.0));
        assert!(!neg.is_nonneg());
        assert_eq!(five.join(neg), LossAbs::Interval(-3.0, 5.0));
        assert_eq!(five.add(neg), LossAbs::Interval(-3.0, 5.0));
        assert_eq!(neg.neg(), LossAbs::Interval(0.0, 3.0));
        assert_eq!(LossAbs::constant(&LossVal::scalar(f64::NAN)), LossAbs::Top);
        assert_eq!(LossAbs::NonNeg.add(five), LossAbs::NonNeg);
        assert_eq!(LossAbs::Top.join(LossAbs::Bot), LossAbs::Top);
        assert!(LossAbs::Bot.join(neg).contains(&LossVal::scalar(-2.0)));
    }

    #[test]
    fn star_and_mul() {
        assert_eq!(LossAbs::zero().star(), LossAbs::zero());
        assert_eq!(LossAbs::Interval(0.0, 4.0).star(), LossAbs::NonNeg);
        assert_eq!(LossAbs::Interval(-1.0, 4.0).star(), LossAbs::Top);
        let a = LossAbs::Interval(0.0, 3.0);
        let b = LossAbs::Interval(-2.0, 0.0);
        assert_eq!(a.mul(b), LossAbs::Interval(-6.0, 0.0));
        assert_eq!(LossAbs::NonNeg.mul(a), LossAbs::NonNeg);
        assert_eq!(LossAbs::NonNeg.mul(b), LossAbs::Top);
    }

    #[test]
    fn constant_loss_is_certified() {
        let e = seq(Effect::empty(), Type::unit(), loss(lc(2.0)), loss(lc(3.0)));
        let r = analyze_expr(&e, &[]);
        assert!(r.certified(), "{:?}", r.violations);
        assert!(r.emitted.contains(&LossVal::scalar(5.0)));
        assert_eq!(r.shape, DecisionShape::zero());
    }

    #[test]
    fn negative_constant_is_refused() {
        let r = analyze_expr(&loss(lc(-1.0)), &[]);
        assert!(!r.certified());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].interval, LossAbs::Interval(-1.0, 0.0));
    }

    #[test]
    fn neg_and_sub_prims_are_refused() {
        let r = analyze_expr(&loss(prim1("neg", lc(3.0))), &[]);
        assert!(!r.certified());
        let r = analyze_expr(&loss(prim2("sub", lc(1.0), lc(4.0))), &[]);
        assert!(!r.certified());
        // ... but subtraction that stays provably non-negative only in
        // spirit is still refused: the interval keeps the negative part.
        let r = analyze_expr(&loss(prim2("sub", lc(4.0), lc(1.0))), &[]);
        assert!(!r.certified());
    }

    #[test]
    fn if_joins_branches() {
        let e = loss(if_(leq(lc(1.0), lc(2.0)), lc(3.0), lc(4.0)));
        let r = analyze_expr(&e, &[]);
        assert!(r.certified());
        assert!(r.emitted.contains(&LossVal::scalar(3.0)));
        assert!(r.emitted.contains(&LossVal::scalar(4.0)));
    }

    #[test]
    fn let_bound_loss_flows_precisely() {
        let eff = Effect::empty();
        let e = let_(eff.clone(), "x", Type::loss(), lc(2.0), loss(add(v("x"), lc(1.0))));
        let r = analyze_expr(&e, &[]);
        assert!(r.certified(), "{:?}", r.violations);
        let e = let_(eff, "x", Type::loss(), lc(-2.0), loss(v("x")));
        assert!(!analyze_expr(&e, &[]).certified());
    }

    #[test]
    fn then_folds_captures_into_the_verdict() {
        let eff = Effect::empty();
        // Verdict discarded: the captured negative never reaches ambient.
        let discarded = seq(
            eff.clone(),
            Type::loss(),
            then(loss(lc(-5.0)), eff.clone(), "x", Type::unit(), lc(0.0)),
            loss(lc(1.0)),
        );
        let r = analyze_expr(&discarded, &[]);
        assert!(r.certified(), "{:?}", r.violations);
        // Re-emitting the folded verdict ambiently is caught at that site.
        let leaked = loss(then(loss(lc(-5.0)), eff, "x", Type::unit(), lc(0.0)));
        assert!(!analyze_expr(&leaked, &[]).certified());
    }

    #[test]
    fn reset_discards_and_sets_purity() {
        let r = analyze_expr(&reset(loss(lc(-9.0))), &[]);
        assert!(r.certified(), "reset routes to junk: {:?}", r.violations);
        assert_eq!(r.emitted, LossAbs::zero());
    }

    #[test]
    fn escaping_closure_is_scanned() {
        // A lambda hiding a negative emission, passed to an unknown op:
        // must be refused even though the body is never applied here.
        let e = op("mystery", lam(Effect::empty(), "x", Type::unit(), loss(lc(-1.0))));
        let r = analyze_expr(&e, &[]);
        assert!(!r.certified());
        assert!(!r.violations.is_empty());
    }

    #[test]
    fn decision_shape_counts_chain() {
        let prog = compile(&deep_decide_chain(5).expr).unwrap();
        let r = analyze(&prog, &gen_signature().decision_ops());
        assert_eq!(r.shape, DecisionShape { min: 5, max: Some(5) });
        assert!(r.certified(), "{:?}", r.violations);
        assert!(r.certificate().unwrap().covers(&prog));
    }

    #[test]
    fn certificate_is_tied_to_its_program() {
        let p1 = compile(&loss(lc(1.0))).unwrap();
        let p2 = compile(&loss(lc(1.0))).unwrap();
        let r = analyze(&p1, &[] as &[&str]);
        let cert = r.certificate().unwrap();
        assert!(cert.covers(&p1));
        assert!(!cert.covers(&p2), "identical syntax, different compilation");
    }

    #[test]
    fn counter_handler_mutates_param() {
        let eff = Effect::single("cnt");
        let body = seq(eff, Type::unit(), loss(op("tick", unit())), lc(0.0));
        let h = ProgramGen::new(0).cnt_handler(&Type::loss(), &Effect::empty());
        let prog = compile(&handle0(h, body)).unwrap();
        let r = analyze(&prog, &gen_signature().decision_ops());
        // `loss(tick())` emits an unknown op result: refused.
        assert!(!r.certified());
    }

    #[test]
    fn budget_exhaustion_is_inconclusive_not_wrong() {
        let prog = compile(&deep_decide_chain(8).expr).unwrap();
        let r = analyze_with(&prog, &gen_signature().decision_ops(), FlowConfig { budget: 10 });
        assert!(r.inconclusive);
        assert!(!r.certified());
    }

    #[test]
    fn nan_loss_is_refused() {
        let r = analyze_expr(&loss(lc(f64::NAN)), &[]);
        assert!(!r.certified());
    }
}
