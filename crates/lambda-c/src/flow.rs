//! Abstract interpretation over compiled [`Code`]: certified loss bounds
//! and static decision shapes.
//!
//! Branch-and-bound pruning (strict domination on partial ambient losses)
//! is sound only when every future emission is non-negative. Until now that
//! was an unchecked caller promise — a bare `nonneg: bool` the runtime
//! trusted blindly. This module derives the promise from the program
//! instead: a fixpoint-free abstract interpreter walks the scope-checked,
//! loop-free de Bruijn [`Code`] and runs three cooperating analyses:
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
//! 3. **Loss-to-go (residual) analysis.** Every term also gets an
//!    emission *floor*: a lower bound on the scalar reading of what it
//!    emits along every path that returns normally (an interval always
//!    contains `0`, so `if b then 3 else 1` has interval `[0, 3]` but
//!    floor `1`). Each forced decision site collects the floors of
//!    everything sequenced after it — a suffix sum — and its
//!    **residual** is the minimum of that sum over every context that
//!    reaches it. The residuals ride inside the [`NonNegLosses`]
//!    certificate, so a search can bound a choice point by
//!    `partial + residual`: the loss the paper's argmin handler reads off
//!    its continuation, bounded statically (the admissible heuristic of
//!    A*).
//!
//! None of the analyses decides what may be cached: prefix-cache keys are
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
//! A residual may count only emissions that happen ambiently on *every*
//! completion after its site resumes. Under the certificate every
//! ambient emission is non-negative, so dropping a term from the suffix
//! sum is always sound, and the analysis drops whatever it cannot vouch
//! for:
//!
//! * A suffix stops growing at a term that may not return to it: a
//!   non-decision operation (its clause may never resume), a decision no
//!   enclosing handler intercepts (the run sticks there), or an
//!   application of a handler continuation or of unknown code.
//! * A site inside an `iter`/`fold` body counts only what follows the
//!   loop.
//! * A site gets residual 0 inside a captured `Then` body, a `Reset`, a
//!   local loss continuation or a live handler clause, and inside a
//!   closure that escapes to unknown code.
//!
//! The machine adds the runtime half: it records a choice point's site
//! only when the operation ran at capture depth 0, so a decision reached
//! inside a probe or a resumed loss continuation reads residual 0 as
//! well.
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

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::compile::{Code, CodeHandler, CompiledProgram, OpId};
use crate::loss::LossVal;
use crate::machine::ChoicePoint;
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
        for &x in l.components() {
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

    /// The lower bound this abstraction gives on a scalar reading
    /// (`-inf` when it gives none).
    fn floor(self) -> f64 {
        self.bounds().map_or(f64::NEG_INFINITY, |(lo, _)| lo)
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
                l.components().iter().all(|&x| {
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
/// It also carries the residual of every forced decision site: a lower
/// bound on the scalar ambient loss that every completion emits after
/// the site resumes ([`NonNegLosses::residual`]). A choice point's
/// `partial + residual` ([`NonNegLosses::lower_bound`]) is then a lower
/// bound on every leaf beneath it, and a much tighter one than the
/// partial loss alone.
///
/// The only way to obtain one is [`analyze`] returning a clean report;
/// [`NonNegLosses::covers`] ties the certificate to the exact
/// [`CompiledProgram`] it was derived from (pointer identity, `O(1)`).
#[derive(Clone, Debug)]
pub struct NonNegLosses {
    code: Arc<Code>,
    /// `(site, residual)`, sorted by site. A site is the address of its
    /// `OpCall` node, which `code` keeps alive.
    residuals: Arc<[(usize, f64)]>,
    /// Relative rounding margin of [`NonNegLosses::lower_bound`].
    slack: f64,
}

impl NonNegLosses {
    /// True iff this certificate was derived from exactly `program`.
    pub fn covers(&self, program: &CompiledProgram) -> bool {
        Arc::ptr_eq(&self.code, &program.code)
    }

    /// The residual of the decision site that suspended `point`: a lower
    /// bound on the scalar reading of the ambient loss that every
    /// completion of `point` emits after it resumes. 0 when the point
    /// was suspended inside a capture scope, or at a site this analysis
    /// never reached (a point of another program, say).
    pub fn residual(&self, point: &ChoicePoint) -> f64 {
        let Some(site) = point.site() else { return 0.0 };
        let site = Arc::as_ptr(site) as usize;
        self.residuals.binary_search_by_key(&site, |&(s, _)| s).map_or(0.0, |i| self.residuals[i].1)
    }

    /// `partial + residual` for `point`: under the scalar order, a lower
    /// bound on the total loss of every completion, and never below the
    /// partial loss. With residual 0 it *is* the partial loss.
    ///
    /// The machine adds emissions one at a time in `f64`, and the
    /// analysis sums floors in its own order; both round. Adding
    /// non-negative numbers is monotone under rounding, so a completion's
    /// total is at least the rounded chain `partial + f_1 + … + f_m` over
    /// the floors the residual sums, which loses at most a factor
    /// `(1 - 2^-53)` per step. The sum is therefore scaled down by
    /// `2 (K + 2) ε`, where `K` bounds `m` and the analysis's own
    /// additions (it counts every emission with a positive floor).
    pub fn lower_bound(&self, point: &ChoicePoint) -> LossVal {
        let partial = point.partial_loss();
        let residual = self.residual(point);
        if residual > 0.0 {
            let scalar = partial.as_scalar();
            partial.with_scalar(((scalar + residual) * (1.0 - self.slack)).max(scalar))
        } else {
            partial.clone()
        }
    }
}

/// The combined verdict of the analyses.
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

/// Runs the analyses on a compiled program.
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
    let ops = program.op_mask(decision_ops);
    let mut an = Analyzer {
        decision_ops: &ops,
        budget: config.budget,
        suppress: 0,
        violations: Vec::new(),
        inconclusive: false,
        handlers: Vec::new(),
        residuals: BTreeMap::new(),
        floors: 0,
    };
    let mut out = an.eval(&program.code, &Env::default());
    // The program's end is the end of every suffix.
    an.settle(std::mem::take(&mut out.sites), true);
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
        certificate: certified.then(|| NonNegLosses {
            code: program.code.clone(),
            residuals: an.residuals.into_iter().collect(),
            slack: 2.0 * (an.floors as f64 + 2.0) * f64::EPSILON,
        }),
    }
}

/// Abstract value.
#[derive(Clone, Debug)]
enum AbsVal {
    /// A loss: its interval, and a lower bound on its scalar reading.
    Loss(LossAbs, f64),
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

impl AbsVal {
    /// A loss whose floor is what its interval gives.
    fn loss(abs: LossAbs) -> AbsVal {
        AbsVal::Loss(abs, abs.floor())
    }
}

type Env = Vec<AbsVal>;

/// A forced decision site whose residual is still being summed.
struct Site {
    /// Address of the `OpCall` node.
    site: usize,
    /// Floors of what follows the site inside the current term.
    residual: f64,
    /// Whether the suffix may still grow: nothing after the site inside
    /// the term can keep control from reaching the term's end.
    open: bool,
}

/// Result of abstractly evaluating one term: its value, what it emits
/// into the *innermost enclosing buffer*, whether it always returns,
/// the decision sites it leaves pending, and its decision shape.
struct Out {
    val: AbsVal,
    emit: LossAbs,
    /// Lower bound on the scalar reading of `emit` along every path that
    /// returns normally; only read when `!blocks`.
    floor: f64,
    /// The term may not return to what follows it.
    blocks: bool,
    sites: Vec<Site>,
    shape: DecisionShape,
}

impl Out {
    fn pure(val: AbsVal) -> Out {
        Out {
            val,
            emit: LossAbs::zero(),
            floor: 0.0,
            blocks: false,
            sites: Vec::new(),
            shape: DecisionShape::zero(),
        }
    }

    /// A term about which nothing is known.
    fn unknown() -> Out {
        Out {
            emit: LossAbs::Top,
            blocks: true,
            shape: DecisionShape::unknown(),
            ..Out::pure(AbsVal::Opaque)
        }
    }

    /// Sequential composition: `self`, then `next`, whose value the
    /// result keeps. `self`'s open sites add `next`'s floor (the suffix
    /// sum), or stop growing if `next` may not return.
    fn then(mut self, next: Out) -> Out {
        for s in self.sites.iter_mut().filter(|s| s.open) {
            if next.blocks {
                s.open = false;
            } else {
                s.residual += next.floor;
            }
        }
        self.sites.extend(next.sites);
        Out {
            val: next.val,
            emit: self.emit.add(next.emit),
            floor: self.floor + next.floor,
            blocks: self.blocks || next.blocks,
            sites: self.sites,
            shape: self.shape.seq(next.shape),
        }
    }

    /// Branch join: one of `self` and `other` runs.
    fn join(mut self, other: Out) -> Out {
        self.sites.extend(other.sites);
        Out {
            val: join_val(self.val, other.val),
            emit: self.emit.join(other.emit),
            floor: self.floor.min(other.floor),
            blocks: self.blocks || other.blocks,
            sites: self.sites,
            shape: self.shape.join(other.shape),
        }
    }

    /// Runs zero or more times (loop bodies, live handler clauses): the
    /// term adds nothing to a floor, and its sites count only what
    /// follows the repetition — nothing, if an iteration may not return.
    fn star(self) -> Out {
        let blocks = self.blocks;
        let sites = self
            .sites
            .into_iter()
            .map(|s| Site { residual: 0.0, open: s.open && !blocks, ..s })
            .collect();
        Out {
            val: AbsVal::Opaque,
            emit: self.emit.star(),
            floor: 0.0,
            blocks: self.blocks,
            sites,
            shape: self.shape.star(),
        }
    }

    fn map(self, f: impl FnOnce(AbsVal) -> AbsVal) -> Out {
        Out { val: f(self.val), ..self }
    }

    /// Moves the value out, leaving `Opaque`.
    fn take(&mut self) -> AbsVal {
        std::mem::replace(&mut self.val, AbsVal::Opaque)
    }
}

struct Analyzer<'a> {
    /// Whether each operation (by [`OpId`]) is a decision.
    decision_ops: &'a [bool],
    budget: usize,
    /// Depth of captured regions (`Then` bodies, `Reset`): violations are
    /// not recorded there because those emissions never reach a live
    /// pruning buffer directly — their fold re-enters as a value.
    suppress: u32,
    violations: Vec<Violation>,
    inconclusive: bool,
    /// The handlers around the current evaluation, innermost last: forced
    /// replay intercepts a decision only under a handler with a clause
    /// for it.
    handlers: Vec<Arc<CodeHandler>>,
    /// Each settled site's residual, the minimum over its contexts.
    residuals: BTreeMap<usize, f64>,
    /// Emissions with a positive floor (see [`NonNegLosses::lower_bound`]).
    floors: usize,
}

impl Analyzer<'_> {
    fn is_decision(&self, op: OpId) -> bool {
        self.decision_ops[op as usize]
    }

    fn give_up(&mut self) -> Out {
        self.inconclusive = true;
        Out::unknown()
    }

    /// Records final residuals: the suffix sums when `keep`, else 0.
    fn settle(&mut self, sites: Vec<Site>, keep: bool) {
        for s in sites {
            let r = if keep { s.residual } else { 0.0 };
            self.residuals.entry(s.site).and_modify(|x| *x = x.min(r)).or_insert(r);
        }
    }

    /// Evaluates `code` in a captured region: its sites get residual 0.
    fn eval_captured(&mut self, code: &Arc<Code>, env: &Env) -> Out {
        self.suppress += 1;
        let mut o = self.eval(code, env);
        self.suppress -= 1;
        self.settle(std::mem::take(&mut o.sites), false);
        o
    }

    fn eval(&mut self, code: &Arc<Code>, env: &Env) -> Out {
        if self.budget == 0 {
            return self.give_up();
        }
        self.budget -= 1;
        match &**code {
            Code::Const(Const::Loss(l)) => {
                let s = l.as_scalar();
                let floor = if s.is_nan() { f64::NEG_INFINITY } else { s };
                Out::pure(AbsVal::Loss(LossAbs::constant(l), floor))
            }
            Code::Const(_) => Out::pure(AbsVal::Opaque),
            Code::Var(i) => {
                Out::pure(env.get(env.len().wrapping_sub(1 + i)).cloned().unwrap_or(AbsVal::Opaque))
            }
            Code::Lam(body) => Out::pure(AbsVal::Clos(body.clone(), env.clone())),
            Code::Prim(name, _, arg) => {
                let mut a = self.eval(arg, env);
                let val = self.prim(name, &a.take());
                a.map(|_| val)
            }
            Code::App(f, a) => {
                let fo = self.eval(f, env);
                let mut ao = self.eval(a, env);
                let app = self.apply(&fo.val, ao.take());
                fo.then(ao).then(app)
            }
            Code::Tuple(es) => {
                let mut out = Out::pure(AbsVal::Opaque);
                let mut vals = Vec::with_capacity(es.len());
                for e in es {
                    let mut o = self.eval(e, env);
                    vals.push(o.take());
                    out = out.then(o);
                }
                out.map(|_| AbsVal::Tuple(vals))
            }
            Code::Proj(e, i) => self.eval(e, env).map(|v| match v {
                AbsVal::Tuple(mut vs) if *i < vs.len() => vs.swap_remove(*i),
                _ => AbsVal::Opaque,
            }),
            Code::Inl(e) => self.eval(e, env).map(|v| AbsVal::Sum(true, Box::new(v))),
            Code::Inr(e) => self.eval(e, env).map(|v| AbsVal::Sum(false, Box::new(v))),
            Code::Cases { scrut, lbody, rbody } => {
                let mut s = self.eval(scrut, env);
                let mut env2 = env.clone();
                match s.take() {
                    AbsVal::Sum(left, payload) => {
                        env2.push(*payload);
                        let o = self.eval(if left { lbody } else { rbody }, &env2);
                        s.then(o)
                    }
                    _ => {
                        env2.push(AbsVal::Opaque);
                        let l = self.eval(lbody, &env2);
                        let r = self.eval(rbody, &env2);
                        s.then(l.join(r))
                    }
                }
            }
            Code::Zero => Out::pure(AbsVal::Opaque),
            Code::Succ(e) => self.eval(e, env).map(|_| AbsVal::Opaque),
            Code::Nil => Out::pure(AbsVal::Opaque),
            Code::Cons(h, t) => {
                let ho = self.eval(h, env);
                let to = self.eval(t, env);
                // List elements flow into folds as opaque values; escape
                // any closures stored in the spine so their bodies are
                // still scanned.
                self.escape(&ho.val);
                ho.then(to).map(|_| AbsVal::Opaque)
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
                no.then(zo).then(so).then(step.star())
            }
            Code::OpCall { op, arg } => {
                let a = self.eval(arg, env);
                self.escape(&a.val);
                let here = if self.is_decision(*op) {
                    // Forced replay intercepts this call at the handler
                    // boundary and resumes it with a scripted decision;
                    // the clause never runs, so the site itself emits
                    // nothing. With no intercepting handler the run
                    // sticks here instead.
                    let site = Site { site: Arc::as_ptr(code) as usize, residual: 0.0, open: true };
                    Out {
                        blocks: !self.handlers.iter().any(|h| h.clause(*op).is_some()),
                        sites: vec![site],
                        shape: DecisionShape::one(),
                        ..Out::pure(AbsVal::Opaque)
                    }
                } else {
                    // Non-decision clauses run; their emissions are
                    // accounted (starred) at the enclosing `Handle`. A
                    // clause need not resume, so the call may not return.
                    Out { blocks: true, ..Out::pure(AbsVal::Opaque) }
                };
                a.then(here)
            }
            Code::Loss(e) => {
                let o = self.eval(e, env);
                let (emitted, floor) = match o.val {
                    AbsVal::Loss(abs, floor) => (abs, floor),
                    _ => (LossAbs::Top, f64::NEG_INFINITY),
                };
                if self.suppress == 0 && !emitted.is_nonneg() {
                    self.violations
                        .push(Violation { interval: emitted, site: format!("loss({:?})", e) });
                }
                // Only read under the certificate, where every ambient
                // emission is non-negative.
                let floor = floor.max(0.0);
                if floor > 0.0 {
                    self.floors += 1;
                }
                o.then(Out { emit: emitted, floor, ..Out::pure(AbsVal::Opaque) })
            }
            Code::Handle { handler, from, body } => {
                let fo = self.eval(from, env);
                self.handlers.push(Arc::clone(handler));
                let bo = self.eval(body, env);
                self.handlers.pop();
                let mut clauses: Option<Out> = None;
                for clause in &handler.clauses {
                    let mut env2 = env.clone();
                    env2.push(AbsVal::Opaque); // p
                    env2.push(AbsVal::Opaque); // x
                    env2.push(AbsVal::Probe); // l
                    env2.push(AbsVal::Resume); // k
                    if self.is_decision(clause.op) {
                        // Dead under forced replay: scan for violations
                        // only; drop emission/shape contributions.
                        self.scan_dead(&clause.body, &env2);
                    } else {
                        let mut co = self.eval(&clause.body, &env2);
                        // A clause runs in place of the rest of the body,
                        // and its `k` may run that rest in a capture: its
                        // sites get residual 0.
                        co.sites.iter_mut().for_each(|s| s.open = false);
                        clauses = Some(match clauses {
                            None => co,
                            Some(c) => c.join(co),
                        });
                    }
                }
                let mut env_ret = env.clone();
                env_ret.push(AbsVal::Opaque); // p
                env_ret.push(AbsVal::Opaque); // x
                let ro = self.eval(&handler.ret_body, &env_ret);
                // The body's sites count the return clause; a live clause
                // adds nothing to their floor, and stops them growing if
                // it may not return.
                let clauses = clauses.map_or_else(|| Out::pure(AbsVal::Opaque), Out::star);
                fo.then(bo).then(ro).then(clauses)
            }
            Code::Then { e, lam_body } => {
                // `e`'s emissions are captured: they fold into the `◮`
                // verdict (`cap_1 + … + cap_n + g(v)`) instead of reaching
                // the outer buffer, so violations inside are suppressed —
                // the interval rides along the verdict value, and a
                // negative verdict re-emitted ambiently is caught at that
                // re-emitting site. The continuation receives `e`'s value
                // and runs against the outer buffer.
                let mut eo = self.eval_captured(e, env);
                let mut env2 = env.clone();
                env2.push(eo.take());
                let lo = self.eval(lam_body, &env2);
                let g_verdict = match lo.val {
                    AbsVal::Loss(a, _) => a,
                    _ => LossAbs::Top,
                };
                let verdict = AbsVal::loss(eo.emit.add(g_verdict));
                Out { emit: LossAbs::zero(), floor: 0.0, ..eo }.then(lo).map(|_| verdict)
            }
            Code::Local { g_body, e } => {
                // `e` shares the outer buffer; the local loss continuation
                // `g` runs at decision points inside, zero or more times,
                // so its sites get residual 0.
                let mut eo = self.eval(e, env);
                let mut env2 = env.clone();
                env2.push(AbsVal::Opaque);
                let mut go = self.eval(g_body, &env2);
                self.settle(std::mem::take(&mut go.sites), false);
                let val = eo.take();
                eo.then(go.star()).map(|_| val)
            }
            Code::Reset(e) => {
                // Emissions inside route to a junk buffer, persistently
                // across resumptions: they never reach any live buffer.
                let eo = self.eval_captured(e, env);
                Out { emit: LossAbs::zero(), floor: 0.0, ..eo }
            }
        }
    }

    /// Abstract prim transfer. Prims never emit. Floors follow the
    /// scalar reading through `add` (rounding is monotone, so the
    /// floors' sum bounds the values' sum), branch joins and the pair
    /// constructors; everything else falls back to the interval.
    fn prim(&mut self, name: &str, arg: &AbsVal) -> AbsVal {
        fn loss_of(v: &AbsVal) -> (LossAbs, f64) {
            match v {
                AbsVal::Loss(a, floor) => (*a, *floor),
                _ => (LossAbs::Top, f64::NEG_INFINITY),
            }
        }
        fn pair_of(arg: &AbsVal) -> ((LossAbs, f64), (LossAbs, f64)) {
            let top = (LossAbs::Top, f64::NEG_INFINITY);
            match arg {
                AbsVal::Tuple(vs) if vs.len() == 2 => (loss_of(&vs[0]), loss_of(&vs[1])),
                _ => (top, top),
            }
        }
        match name {
            "add" => {
                let ((a, fa), (b, fb)) = pair_of(arg);
                // `+inf + -inf` is no bound at all.
                let floor = fa + fb;
                AbsVal::Loss(a.add(b), if floor.is_nan() { f64::NEG_INFINITY } else { floor })
            }
            "sub" => {
                let ((a, _), (b, _)) = pair_of(arg);
                AbsVal::loss(a.add(b.neg()))
            }
            "mul" => {
                let ((a, _), (b, _)) = pair_of(arg);
                AbsVal::loss(a.mul(b))
            }
            "neg" => AbsVal::loss(loss_of(arg).0.neg()),
            // A pair-loss's components are the operands' scalar readings;
            // their join (both intervals contain 0) bounds every component,
            // and the first operand's floor bounds the scalar reading.
            "pair_loss" => {
                let ((a, fa), (b, _)) = pair_of(arg);
                AbsVal::Loss(a.join(b), fa)
            }
            // Component reads: the operand interval contains all components
            // and 0, so it bounds any single component too; component 0
            // is the scalar reading.
            "fst_loss" => {
                let (a, floor) = loss_of(arg);
                AbsVal::Loss(a, floor)
            }
            "snd_loss" => AbsVal::loss(loss_of(arg).0),
            "nat_to_loss" | "str_len" | "str_distinct" => AbsVal::loss(LossAbs::NonNeg),
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
            // `l(p', y)` re-runs the captured continuation with losses
            // folded into the verdict it returns. Only reachable in live
            // (non-decision) clauses; conservatively unknown.
            AbsVal::Probe => Out::unknown().map(|_| AbsVal::loss(LossAbs::Top)),
            // `k(p', y)` resumes the continuation; future `loss` sites
            // are scanned at their own occurrence, but the resumed
            // segment's emission total is unknown here.
            AbsVal::Resume => Out::unknown(),
            _ => {
                // Unknown callee: it may apply the argument in any context.
                self.escape(&arg);
                self.give_up()
            }
        }
    }

    /// Scans a value that escapes to unknown code: closures inside may be
    /// applied later in an ambient context, so analyze their bodies
    /// unsuppressed (violations recorded) without trusting emission,
    /// shape or residual totals.
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
                self.settle(out.sites, false);
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
    /// interception) for `loss` violations only: emission, shape, residual
    /// and inconclusiveness contributions are discarded.
    fn scan_dead(&mut self, body: &Arc<Code>, env: &Env) {
        let inconclusive = self.inconclusive;
        let _ = self.eval(body, env);
        self.inconclusive = inconclusive;
    }
}

/// Join of abstract values across branches.
fn join_val(a: AbsVal, b: AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Loss(x, fx), AbsVal::Loss(y, fy)) => AbsVal::Loss(x.join(y), fx.min(fy)),
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
    use crate::syntax::Expr;
    use crate::testgen::{argmin_handler, deep_decide_chain, gen_signature, ProgramGen};
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

    fn amb() -> Effect {
        Effect::single("amb")
    }

    /// `let b = decide() in loss(if b then t else f)`: floor `min(t, f)`.
    fn decide_then_loss(t: f64, f: f64) -> Expr {
        let_(amb(), "b", Type::bool(), op("decide", unit()), loss(if_(v("b"), lc(t), lc(f))))
    }

    /// The certificate of `body` run under the argmin chooser, and the
    /// residual at each choice point along the all-`true` path.
    fn residuals_on_the_true_path(body: Expr) -> (NonNegLosses, Vec<f64>) {
        use crate::machine::{explore, Explored, RunConfig, TreeChoices};
        let e = handle0(argmin_handler(&Type::loss(), &Effect::empty()), body);
        let prog = compile(&e).expect("closed");
        let r = analyze(&prog, &["decide"]);
        let cert = r.certificate().unwrap_or_else(|| panic!("{:?}", r.violations)).clone();
        let choices = TreeChoices {
            ops: prog.op_mask(["decide"]),
            prefix_bits: 0,
            prefix_len: 0,
            max_decisions: 8,
        };
        let cfg = RunConfig { forced: Some(choices), ..RunConfig::default() };
        let mut step = explore(&prog, cfg).unwrap();
        let mut seen = Vec::new();
        while let Explored::Choice(point) = step {
            seen.push(cert.residual(&point));
            step = point.resume(true).unwrap();
        }
        (cert, seen)
    }

    #[test]
    fn chain_residuals_sum_the_remaining_step_minima() {
        let n = 12;
        let prog = compile(&deep_decide_chain(n).expr).unwrap();
        let r = analyze(&prog, &gen_signature().decision_ops());
        let cert = r.certificate().expect("certified");
        let step_min = |i: u32| f64::from(((7 * i) % 5).min((3 * i + 2) % 5));
        let mut expected: Vec<f64> = (0..n).map(|d| (d..n).map(step_min).sum()).collect();
        expected.sort_by(f64::total_cmp);
        let mut got: Vec<f64> = cert.residuals.iter().map(|&(_, r)| r).collect();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, expected, "one site per step, each bounded by the rest of the chain");
    }

    #[test]
    fn a_decide_in_a_loop_body_counts_only_what_follows_the_loop() {
        let step = lam(
            amb(),
            "acc",
            Type::unit(),
            seq(amb(), Type::unit(), decide_then_loss(3.0, 1.0), v("acc")),
        );
        let twice =
            Expr::Iter(Expr::Succ(Expr::Succ(Expr::Zero.rc()).rc()).rc(), unit().rc(), step.rc());
        let body = seq(amb(), Type::unit(), twice, loss(lc(7.0)));
        assert_eq!(residuals_on_the_true_path(body).1, vec![7.0, 7.0]);

        let step = lam(
            amb(),
            "xs",
            Type::unit(),
            seq(amb(), Type::unit(), decide_then_loss(3.0, 1.0), unit()),
        );
        let list = Expr::Cons(unit().rc(), Expr::Nil(Type::unit()).rc());
        let once = Expr::Fold(list.rc(), unit().rc(), step.rc());
        let body = seq(amb(), Type::unit(), once, loss(lc(7.0)));
        assert_eq!(residuals_on_the_true_path(body).1, vec![7.0]);
    }

    #[test]
    fn captured_decides_get_residual_zero() {
        let captured = then(decide_then_loss(3.0, 1.0), amb(), "x", Type::unit(), lc(0.0));
        let body = seq(amb(), Type::loss(), captured, loss(lc(4.0)));
        let (cert, seen) = residuals_on_the_true_path(body);
        assert_eq!(seen, vec![0.0]);
        assert!(cert.residuals.iter().all(|&(_, r)| r == 0.0), "{:?}", cert.residuals);

        let body = seq(amb(), Type::unit(), reset(decide_then_loss(3.0, 1.0)), loss(lc(4.0)));
        let (cert, seen) = residuals_on_the_true_path(body);
        assert_eq!(seen, vec![0.0]);
        assert!(cert.residuals.iter().all(|&(_, r)| r == 0.0), "{:?}", cert.residuals);
    }

    #[test]
    fn a_decide_in_an_escaping_closure_gets_residual_zero() {
        let fn_ty = Type::unit();
        let program = |escape: bool| {
            let call = seq(amb(), Type::unit(), app(v("f"), unit()), loss(lc(5.0)));
            let rest = if escape {
                // The list spine hands `f` to code the analysis cannot see.
                let list = Expr::Cons(v("f").rc(), Expr::Nil(fn_ty.clone()).rc());
                seq(amb(), Type::unit(), list, call)
            } else {
                call
            };
            let f = lam(amb(), "u", Type::unit(), decide_then_loss(3.0, 1.0));
            let_(amb(), "f", fn_ty.clone(), f, rest)
        };
        assert_eq!(residuals_on_the_true_path(program(false)).1, vec![6.0]);
        assert_eq!(residuals_on_the_true_path(program(true)).1, vec![0.0]);
    }

    #[test]
    fn pair_losses_count_only_their_scalar_component() {
        let pair = prim2("pair_loss", if_(v("b"), lc(2.0), lc(1.0)), lc(9.0));
        let body = let_(amb(), "b", Type::bool(), op("decide", unit()), loss(pair));
        assert_eq!(residuals_on_the_true_path(body).1, vec![1.0]);
    }

    #[test]
    fn the_lower_bound_absorbs_float_rounding() {
        use crate::machine::{explore, Explored, RunConfig, TreeChoices};
        // After the decision the machine adds 2^-53 twice to 1.0: each
        // sum rounds back to 1.0, but the residual is exactly 2^-52, so
        // a bare `partial + residual` would overshoot the only total.
        let tiny = f64::EPSILON / 2.0;
        let rest = seq(amb(), Type::unit(), loss(lc(tiny)), loss(lc(tiny)));
        let body = seq(
            amb(),
            Type::unit(),
            loss(lc(1.0)),
            let_(amb(), "b", Type::bool(), op("decide", unit()), rest),
        );
        let e = handle0(argmin_handler(&Type::loss(), &Effect::empty()), body);
        let prog = compile(&e).unwrap();
        let r = analyze(&prog, &["decide"]);
        let cert = r.certificate().expect("certified");
        let choices = TreeChoices {
            ops: prog.op_mask(["decide"]),
            prefix_bits: 0,
            prefix_len: 0,
            max_decisions: 1,
        };
        let cfg = RunConfig { forced: Some(choices), ..RunConfig::default() };
        let Ok(Explored::Choice(point)) = explore(&prog, cfg) else { panic!("one decision") };
        let Ok(Explored::Done(out)) = point.resume(true) else { panic!("one decision") };
        let total = out.loss.as_scalar();
        assert_eq!(total, 1.0);
        assert_eq!(cert.residual(&point), 2.0 * tiny);
        assert!(point.partial_loss().as_scalar() + cert.residual(&point) > total);
        let bound = cert.lower_bound(&point).as_scalar();
        assert!(bound <= total, "{bound} > {total}");
        assert_eq!(bound, point.partial_loss().as_scalar(), "never below the partial loss");
    }

    #[test]
    fn a_decide_reached_inside_a_probe_reads_residual_zero() {
        // The `tick` clause answers with the probe's verdict and never
        // resumes, so the decide after `tick` runs only inside the probe,
        // whose emissions are captured: nothing ambient follows it. The
        // analysis sees `loss(5|6)` after the site; the machine records
        // no site for a decision made under a capture.
        let probe = app(v("l"), pair(v("p"), v("x")));
        let h = HandlerBuilder::new("cnt", Type::loss(), Type::loss(), amb())
            .on("tick", "p", "x", "l", "k", probe)
            .build();
        let after = seq(amb(), Type::unit(), decide_then_loss(5.0, 6.0), lc(0.0));
        let body = seq(Effect::single("cnt"), Type::loss(), op("tick", unit()), after);
        let (cert, seen) = residuals_on_the_true_path(handle0(h, body));
        assert_eq!(cert.residuals.iter().map(|&(_, r)| r).collect::<Vec<_>>(), vec![5.0]);
        assert_eq!(seen, vec![0.0]);
    }

    #[test]
    fn an_operation_whose_clause_runs_stops_the_suffix() {
        // `tick`'s clause runs (it is no decision), so nothing after it
        // is vouched for; what precedes it still counts.
        let ticked = seq(Effect::single("cnt"), Type::loss(), op("tick", unit()), loss(lc(5.0)));
        let step = seq(amb(), Type::unit(), decide_then_loss(3.0, 1.0), ticked);
        let cnt = ProgramGen::new(0).cnt_handler(&Type::unit(), &amb());
        let body = handle(cnt, Expr::Zero, step);
        assert_eq!(residuals_on_the_true_path(body).1, vec![1.0]);
    }
}
