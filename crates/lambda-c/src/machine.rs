//! The environment machine: evaluation of compiled λC.
//!
//! Where [`crate::smallstep`] re-traverses and re-substitutes the whole
//! term on every step, this machine evaluates [`crate::compile::Code`]
//! with **persistent environments** (a β-step is one cons onto an
//! environment list) and **continuations as data** (`Rc`-shared frame
//! records run by one `resume` match, so the multi-shot delimited and
//! choice continuations of rule (R5) come from cloning a pointer instead
//! of replugging a syntactic context).
//!
//! The machine mirrors the Fig-6 loss-continuation semantics exactly:
//!
//! * **Eager loss emission** — `loss(v)` emits into the innermost loss
//!   sink the moment it reduces, like the transition labels of Fig 6;
//!   the ambient sink is one running partial, added from zero in
//!   emission order, so totals are bit-identical to
//!   [`crate::bigstep::eval`]'s running sum.
//! * **Capture scopes** — a `◮` left-hand side (rule S2) and a choice
//!   probe collect their emissions into a local buffer and fold them
//!   right-associatively around the loss continuation's verdict,
//!   reproducing smallstep's `r1 + (r2 + (… + g(v)))` nesting including
//!   the elision of zero losses; `reset` (S4) discards.
//! * **Loss continuations as values** — the internal `GVal` chains
//!   mirror the (F)/(S1)–(S4) transitions: every evaluation position
//!   extends the chain with a frame (`λx. F[x] ◮ g`), handler bodies
//!   get the return-clause extension with the *live* parameter (the
//!   activation's parameter stack plays the role of smallstep's
//!   rebuilt-from-the-term `from` value), and `then`/`local` replace it.
//!   A frame is a plain record — the node, the child index, the values
//!   so far, the environment and `g` — that one `finish` match completes.
//!   Children that already are values (variables, constants, `λ`,
//!   `zero`, `[]`, `()`) evaluate in place with no frame: they cannot
//!   emit, stick, tick or read their loss continuation, so no probe can
//!   tell the difference and the chain every probe sees is unchanged.
//! * **Handlers** — rule (R5) builds the probe (`l`) and resume (`k`)
//!   continuations as machine values closing over the captured
//!   continuation; both re-run it under a fresh parameter push, so
//!   parameterized handlers thread state exactly as the rebuilt terms
//!   of the substitution semantics do.
//!
//! One [`RunConfig`] serves the engine bridge (`lambda-rt`): **forced
//! choices** replace the clause of selected boolean operations by a
//! decision scripted from a prefix, suspending past it as a
//! [`ChoicePoint`] (a full prefix is one search candidate), and a
//! **prune hook** aborts a run whose ambient partial loss is already
//! strictly worse than a loss some run achieved (sound for non-negative
//! losses).
//! Code positions are [`CodeId`]s, so a resume copies a fixed-size
//! snapshot (the running partial, one `Rc` to the run's unchanging
//! inputs) and writes no reference count another worker reads. Each point
//! also records the id of the `OpCall` node that suspended it, which with
//! the point's program keys its residual in a
//! [`crate::flow::NonNegLosses`] certificate, and a point's whole state
//! can be written out as an exact [`StateKey`] (see [`key`]), under
//! which searches share the subtrees of points whose futures agree.

use crate::compile::{Code, CodeHandler, CodeId, CompiledProgram, OpId};
use crate::loss::LossVal;
use crate::prim::{Ground, PrimEval};
use crate::syntax::Const;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

pub mod key;

pub use key::StateKey;

// ---------------------------------------------------------------------------
// Values and environments
// ---------------------------------------------------------------------------

/// A persistent environment: de Bruijn index 0 is the most recent push.
#[derive(Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

struct EnvNode {
    val: MVal,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends with one value (O(1), shares the tail).
    pub fn push(&self, val: MVal) -> Env {
        Env(Some(Rc::new(EnvNode { val, next: self.clone() })))
    }

    /// Looks up de Bruijn index `i`.
    pub fn get(&self, i: usize) -> Option<&MVal> {
        let mut cur = self;
        for _ in 0..i {
            cur = &cur.0.as_ref()?.next;
        }
        cur.0.as_ref().map(|n| &n.val)
    }
}

/// One-line opaque Debug impls for code- and continuation-bearing types.
macro_rules! fmt_summary {
    ($name:literal) => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str($name)
        }
    };
}

impl fmt::Debug for Env {
    fmt_summary!("Env");
}

/// A machine value: a first-order shape, which converts to the same
/// [`Ground`] value the reference interpreter produces, or a functional
/// value — a closure or a machine-built handler continuation of rule
/// (R5). Values carry no types: nothing at run time reads one.
#[derive(Clone)]
pub enum MVal {
    /// A loss constant.
    Loss(LossVal),
    /// A character.
    Char(char),
    /// A string.
    Str(String),
    /// A natural number.
    Nat(u64),
    /// A tuple.
    Tuple(Vec<MVal>),
    /// An injection into a sum.
    Sum {
        /// Right injection?
        right: bool,
        /// The payload; `None` for unit, so booleans never box.
        val: Option<Box<MVal>>,
    },
    /// A list value, head first.
    List(Vec<MVal>),
    /// A closure (a `λ` value).
    Clos(Clos),
    /// The choice continuation `l` of rule (R5): applied to `(p, y)`,
    /// yields the loss the rest of the program would incur.
    Probe(HandlerCtl),
    /// The delimited continuation `k` of rule (R5): applied to `(p, y)`,
    /// resumes the handled computation.
    Resume(HandlerCtl),
}

impl MVal {
    /// The unit value.
    pub fn unit() -> MVal {
        MVal::Tuple(Vec::new())
    }

    /// The boolean encoding (`inl () = true`), matching [`crate::syntax::Expr::bool`].
    pub fn bool(b: bool) -> MVal {
        MVal::Sum { right: !b, val: None }
    }

    /// The injection of `v`, keeping a unit payload unboxed.
    fn sum(right: bool, v: MVal) -> MVal {
        let unit = matches!(&v, MVal::Tuple(vs) if vs.is_empty());
        MVal::Sum { right, val: (!unit).then(|| Box::new(v)) }
    }

    /// Converts a first-order value to [`Ground`]; `None` for closures and
    /// handler continuations.
    pub fn to_ground(&self) -> Option<Ground> {
        match self {
            MVal::Loss(l) => Some(Ground::Loss(l.clone())),
            MVal::Char(c) => Some(Ground::Char(*c)),
            MVal::Str(s) => Some(Ground::Str(s.clone())),
            MVal::Nat(n) => Some(Ground::Nat(*n)),
            MVal::Tuple(vs) => {
                Some(Ground::Tuple(vs.iter().map(MVal::to_ground).collect::<Option<Vec<_>>>()?))
            }
            MVal::Sum { right, val } => {
                let payload = val.as_ref().map_or(Some(Ground::unit()), |v| v.to_ground())?;
                Some(Ground::Sum(*right, Box::new(payload)))
            }
            MVal::List(items) => {
                Some(Ground::List(items.iter().map(MVal::to_ground).collect::<Option<Vec<_>>>()?))
            }
            MVal::Clos(_) | MVal::Probe(_) | MVal::Resume(_) => None,
        }
    }
}

impl fmt::Debug for MVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_ground() {
            Some(g) => write!(f, "{g}"),
            None => f.write_str("<fun>"),
        }
    }
}

/// A closure: compiled body plus captured environment.
#[derive(Clone)]
pub struct Clos {
    body: CodeId,
    env: Env,
}

impl fmt::Debug for Clos {
    fmt_summary!("Clos");
}

/// One handler activation: its `Handle` node, its closure environment,
/// and the live-parameter stack consulted by the return-clause loss
/// continuation (smallstep reads the current `from` value off the rebuilt
/// term; the machine reads the top of this stack, pushed once per run).
struct Activation {
    handle: CodeId,
    env: Env,
    params: RefCell<Vec<MVal>>,
}

impl Activation {
    fn handler<'c>(&self, code: &'c [Code]) -> &'c CodeHandler {
        match &code[self.handle] {
            Code::Handle { handler, .. } => handler,
            _ => unreachable!("an activation starts at a `Handle` node"),
        }
    }
}

/// What the machine-built `l`/`k` values of rule (R5) close over: the
/// activation, the captured continuation `K`, and the loss continuation
/// current at the handler (both `f_l = λz. (with h handle K[z.1]) ◮ g` and
/// `f_k = λz. ⟨with h handle K[z.1]⟩_g` mention the same `g`).
#[derive(Clone)]
pub struct HandlerCtl {
    act: Rc<Activation>,
    kont: Kont,
    g: GVal,
}

impl fmt::Debug for HandlerCtl {
    fmt_summary!("HandlerCtl");
}

// ---------------------------------------------------------------------------
// Loss continuations as values
// ---------------------------------------------------------------------------

/// A reified loss continuation — the `g` threaded through Fig 6, as a
/// chain of the transitions that built it.
#[derive(Clone)]
enum GVal {
    /// The zero continuation `0` (how execution starts, §3.3).
    Zero,
    /// An ordinary lambda installed by `◮` (S2) or `⟨·⟩_g` (S3).
    Fun(Clos),
    /// The (F) extension `λx. F[x] ◮ outer`: the node frame finishes the
    /// current node's evaluation given the hole's value, and runs under
    /// `outer`.
    Frame(Kont),
    /// The (S1) extension `λx. ret(p_now, x) ◮ outer` with the live
    /// parameter of `act`.
    Ret { act: Rc<Activation>, outer: Rc<GVal> },
}

// ---------------------------------------------------------------------------
// Outcomes, errors, configuration
// ---------------------------------------------------------------------------

/// A machine run's result, mirroring [`crate::bigstep::EvalOutcome`].
#[derive(Clone, Debug)]
pub struct MachineOutcome {
    /// Total ambient loss, accumulated in emission order.
    pub loss: LossVal,
    /// The terminal value (`None` when stuck).
    pub value: Option<MVal>,
    /// `Some(op)` iff evaluation stuck on an unhandled operation.
    pub stuck_on: Option<String>,
    /// Machine steps (β-reductions and continuation runs) taken.
    pub steps: u64,
    /// Forced decisions consumed (0 outside forced mode).
    pub decisions_used: u32,
}

impl MachineOutcome {
    /// The terminal as a [`Ground`] value, when it is first-order.
    pub fn ground_value(&self) -> Option<Ground> {
        self.value.as_ref().and_then(MVal::to_ground)
    }
}

/// A runtime error. On well-typed input only [`MachError::OutOfFuel`],
/// [`MachError::Pruned`] and [`MachError::DecisionsExhausted`] can occur,
/// mirroring the progress guarantee of the reference semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachError {
    /// Ill-formed (ill-typed) expression reached evaluation.
    Malformed(String),
    /// A primitive failed.
    Prim(String),
    /// Fuel exhausted.
    OutOfFuel {
        /// Steps taken before giving up.
        steps: u64,
    },
    /// The prune hook reported the partial loss strictly dominated.
    Pruned,
    /// Forced mode ran out of scripted decisions.
    DecisionsExhausted,
}

impl fmt::Display for MachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachError::Malformed(m) => write!(f, "malformed expression: {m}"),
            MachError::Prim(m) => write!(f, "primitive failed: {m}"),
            MachError::OutOfFuel { steps } => write!(f, "out of fuel after {steps} steps"),
            MachError::Pruned => f.write_str("run abandoned: partial loss dominated"),
            MachError::DecisionsExhausted => f.write_str("forced run exhausted its decisions"),
        }
    }
}

impl std::error::Error for MachError {}

/// What a [`MachinePrune`] hook asks after every ambient emission.
pub trait PruneBound: Send + Sync {
    /// Is the ambient partial loss `partial` strictly dominated: strictly
    /// worse than a loss some run of the same program achieved?
    fn dominated(&self, partial: &LossVal) -> bool;
}

/// Mid-run pruning: abort a run as soon as its ambient partial loss is
/// [`PruneBound::dominated`]. Sound only when later emissions cannot
/// decrease the total (non-negative losses), so the partial bounds the
/// run's total from below. The engine bridge (`lambda-rt`) answers over
/// its candidate space's best achieved loss; a stale answer may only
/// under-prune.
#[derive(Clone)]
pub struct MachinePrune(pub Arc<dyn PruneBound>);

impl fmt::Debug for MachinePrune {
    fmt_summary!("MachinePrune");
}

/// Run configuration, shared by [`run_with`] and [`explore`].
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Step budget; 0 means [`DEFAULT_MACHINE_FUEL`]. Each root-to-leaf
    /// path consumes at most this much, however it is resumed.
    pub fuel: u64,
    /// Forced decisions (engine-search candidates and subtrees).
    pub forced: Option<TreeChoices>,
    /// Mid-run pruning hook (see [`MachinePrune`]); the accumulated
    /// partial loss snapshots with the machine, so each branch prunes
    /// against its own path total.
    pub prune: Option<MachinePrune>,
}

/// Default step budget: ample for every paper program and test corpus.
pub const DEFAULT_MACHINE_FUEL: u64 = 2_000_000;

// ---------------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------------

type LossBuf = Vec<LossVal>;
type EvalR = Result<MRes, MachError>;

/// A resumable continuation: [`resume`] feeds it an operation result.
/// Running a frame only reads it, so sharing one is a pointer clone.
#[derive(Clone)]
struct Kont(Rc<Frame>);

thread_local! {
    /// The identity continuation every operation call starts from.
    static DONE: Kont = Kont(Rc::new(Frame::Done));
}

/// What a suspended run does next, as plain data (Reynolds'
/// defunctionalisation): one variant per continuation shape, holding
/// what that step captured.
enum Frame {
    /// An operation call's own continuation: the resumed value.
    Done,
    /// `inner`, then `rest` on its value ([`bind`]).
    Bind { inner: Kont, rest: Kont },
    /// The rest of a compound node after child `idx` ([`eval_seq`]).
    Seq(SeqState),
    /// `inner` inside a `reset` (S4).
    Reset(Kont),
    /// `inner` inside a `◮` scope holding `cap` ([`then_finish`]).
    Then { inner: Kont, cap: Vec<LossVal>, lam: GVal },
    /// A verdict `inner` with `cap` still to fold ([`fold_finish`]).
    Fold { inner: Kont, cap: Vec<LossVal> },
    /// A handler segment re-entered under `p` ([`reenter`]).
    Reenter { act: Rc<Activation>, p: MVal, g: GVal, inner: Kont },
    /// `cv` at unfolding depth `d`; `fold` pairs element `d` of `items`.
    Iter { cv: MVal, d: usize, items: Option<Rc<Vec<MVal>>>, g: GVal },
}

// Environment conses and frames hold values inline, and a suspended run is
// made of frames: keep both small.
const _: () = assert!(std::mem::size_of::<MVal>() <= 48);
const _: () = assert!(std::mem::size_of::<Frame>() <= 96);

/// What a handler segment runs: the handled body under its (S1) loss
/// continuation, or a captured continuation resumed with a value.
enum Seg {
    Body(CodeId, GVal),
    Resume(Kont, MVal),
}

/// Either a value or a stuck operation with its resumption.
enum MRes {
    Done(MVal),
    Stuck(StuckM),
}

struct StuckM {
    op: OpId,
    arg: MVal,
    cont: Kont,
    /// `true` for a *choice yield* (tree mode): the operation was already
    /// claimed by its innermost handler and `cont` expects the decision
    /// (`MVal::bool`), so every enclosing frame — handlers included —
    /// must forward it untouched to the top of the run.
    choice: bool,
    /// The `OpCall` node that stuck, when it ran at capture depth 0: the
    /// key of its residual in a [`crate::flow::NonNegLosses`].
    site: Option<CodeId>,
}

/// What a forced operation should do next.
enum Decision {
    /// Answer from the scripted bits.
    Scripted(bool),
    /// Suspend: surface a [`ChoicePoint`] to the caller.
    Yield,
}

impl TreeChoices {
    /// Takes decision number `used` (0-based).
    fn next(&self, used: &mut u32) -> Result<Decision, MachError> {
        let j = *used;
        if j >= self.max_decisions {
            return Err(MachError::DecisionsExhausted);
        }
        *used += 1;
        if j < self.prefix_len {
            // Bits past the 64th read as the zero-extension of `bits`.
            let bit = self.prefix_bits.checked_shr(self.prefix_len - 1 - j).unwrap_or(0) & 1;
            return Ok(Decision::Scripted(bit == 0));
        }
        Ok(Decision::Yield)
    }
}

/// What every snapshot of one run shares and never changes. Evaluation
/// also takes its node table as `code`, to hold nodes while mutating `m`.
struct Run {
    program: CompiledProgram,
    fuel: u64,
    forced: Option<TreeChoices>,
    prune: Option<MachinePrune>,
}

/// The mutable run state threaded through evaluation. `Clone` is the
/// snapshot operation of tree mode: a [`ChoicePoint`] captures the state
/// at a suspension and every resume works on its own copy — a fixed-size
/// record plus one loss value, whatever the depth.
#[derive(Clone)]
struct Machine {
    run: Rc<Run>,
    steps: u64,
    /// Depth of enclosing capture/discard loss scopes (0 = ambient).
    capture_depth: u32,
    /// Forced decisions taken so far (0 outside forced mode).
    decisions: u32,
    /// The ambient loss so far: every emission at `capture_depth == 0`,
    /// added from zero in emission order (the bigstep running sum).
    partial: LossVal,
}

impl Machine {
    fn tick(&mut self) -> Result<(), MachError> {
        self.steps += 1;
        if self.steps > self.run.fuel {
            return Err(MachError::OutOfFuel { steps: self.steps });
        }
        Ok(())
    }

    /// Emits a loss, mirroring smallstep exactly: ambient emissions add
    /// every loss to the running partial (the bigstep total adds them
    /// all, in order), capture scopes collect theirs in `buf` and elide
    /// zeros (S2 skips the `add` wrapper for `r = 0`).
    fn emit(&mut self, buf: &mut LossBuf, l: LossVal) -> Result<(), MachError> {
        if self.capture_depth == 0 {
            self.partial = self.partial.add(&l);
            if self.run.prune.as_ref().is_some_and(|p| p.0.dominated(&self.partial)) {
                return Err(MachError::Pruned);
            }
        } else if !l.is_zero() {
            buf.push(l);
        }
        Ok(())
    }
}

/// Runs a compiled program under the zero loss continuation with default
/// fuel — the machine counterpart of [`crate::bigstep::eval_closed`].
///
/// # Errors
///
/// See [`MachError`]; on well-typed, fully handled input only fuel
/// exhaustion is possible.
pub fn run(p: &CompiledProgram) -> Result<MachineOutcome, MachError> {
    run_with(p, RunConfig::default())
}

/// Runs a compiled program to its outcome: [`explore`], with a
/// suspension at an unscripted decision reported as
/// [`MachError::DecisionsExhausted`].
///
/// # Errors
///
/// See [`MachError`].
pub fn run_with(p: &CompiledProgram, cfg: RunConfig) -> Result<MachineOutcome, MachError> {
    match explore(p, cfg)? {
        Explored::Done(out) => Ok(out),
        Explored::Choice(_) => Err(MachError::DecisionsExhausted),
    }
}

// ---------------------------------------------------------------------------
// Tree mode: snapshot/resume at forced choice points
// ---------------------------------------------------------------------------

/// Forced decisions: operations marked in `ops` (which must return
/// `bool` and be handled by an argmin-style chooser, see `lambda-rt`)
/// skip their clause. Decision `j` (0-based, in dynamic order) of the
/// first `prefix_len` is `true` iff bit `prefix_len - 1 - j` of
/// `prefix_bits` is **0**, so candidate indices enumerate decision vectors
/// lexicographically with `true` first, like the paper's `leq` argmin
/// handlers. Every further decision up to `max_decisions` suspends the
/// run as a [`ChoicePoint`], so a search explores both branches from the
/// shared prefix without replaying it.
#[derive(Clone, Debug)]
pub struct TreeChoices {
    /// Operations to force, by [`OpId`]: the program's
    /// [`CompiledProgram::op_mask`], resolved once per search space.
    pub ops: Arc<[bool]>,
    /// The scripted prefix word.
    pub prefix_bits: u64,
    /// How many decisions the prefix scripts.
    pub prefix_len: u32,
    /// Total decision budget (the search depth).
    pub max_decisions: u32,
}

/// Where a run stopped: a finished outcome, or a suspension at a forced
/// choice point.
#[derive(Debug)]
pub enum Explored {
    /// The run finished (terminal value or genuinely-stuck operation).
    Done(MachineOutcome),
    /// The run reached a forced decision; resume with either branch.
    Choice(ChoicePoint),
}

/// A run suspended at a forced choice point: the captured continuation
/// and a snapshot of the run state. The continuation is **multi-shot** —
/// the machine's environments are persistent, handler parameter stacks
/// are balanced at a suspension, and every mutable scrap of run state
/// (fuel, steps, loss scopes, the decision cursor, the ambient partial)
/// lives in the snapshot, which each [`ChoicePoint::resume`] copies — so
/// both decisions can be explored from one shared prefix evaluation. The
/// copy is O(1): the run's inputs are one shared `Rc` and the emissions
/// so far are one running partial, not a per-decision history. Not `Send`:
/// points stay on the worker that created them; parallel searches ship
/// decision *prefixes* and rebuild points locally.
pub struct ChoicePoint {
    cont: Kont,
    state: Machine,
    site: Option<CodeId>,
}

impl fmt::Debug for ChoicePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChoicePoint(depth = {}, partial = {:?})", self.depth(), self.partial_loss())
    }
}

impl ChoicePoint {
    /// Decisions completed before this choice — the node's depth in the
    /// decision tree (path bits have this many digits).
    pub fn depth(&self) -> u32 {
        self.state.decisions - 1
    }

    /// The ambient loss emitted so far along this path: a cheap
    /// best-first ordering estimate. A search's lower bound is
    /// `partial + residual` ([`crate::flow::NonNegLosses::lower_bound`]):
    /// under the certificate every later ambient emission is
    /// non-negative and the residual bounds their sum from below, so
    /// every completion's total is at least that. Without a certificate
    /// the partial loss is no bound at all.
    pub fn partial_loss(&self) -> &LossVal {
        &self.state.partial
    }

    /// The decision site that suspended this point, with the program it
    /// belongs to, when it ran outside every capture scope.
    pub(crate) fn site(&self) -> Option<(&CompiledProgram, CodeId)> {
        self.site.map(|site| (&self.state.run.program, site))
    }

    /// Resumes the run with `decision`, on a fresh copy of the suspended
    /// state (call as many times as you like, in any order).
    ///
    /// # Errors
    ///
    /// See [`MachError`]; [`MachError::Pruned`] when the hook abandons
    /// the branch.
    pub fn resume(&self, decision: bool) -> Result<Explored, MachError> {
        let mut m = self.state.clone();
        let code = &self.state.run.program.code;
        let r = resume(&mut m, code, &self.cont, MVal::bool(decision), &mut LossBuf::new())?;
        Ok(finish_explored(m, r))
    }
}

/// Surfaces a choice yield as a [`ChoicePoint`], or folds a finished run
/// into a [`MachineOutcome`].
fn finish_explored(m: Machine, r: MRes) -> Explored {
    let (value, stuck_on) = match r {
        MRes::Stuck(s) if s.choice => {
            return Explored::Choice(ChoicePoint { cont: s.cont, state: m, site: s.site });
        }
        MRes::Stuck(s) => (None, Some(m.run.program.ops[s.op as usize].clone())),
        MRes::Done(v) => (Some(v), None),
    };
    let Machine { partial: loss, steps, decisions: decisions_used, .. } = m;
    let out = MachineOutcome { loss, value, stuck_on, steps, decisions_used };
    Explored::Done(out)
}

/// Evaluates `p` from the top under the zero loss continuation, through
/// the scripted prefix to the first unscripted forced decision (or to an
/// outcome). The tree search built on this does O(tree nodes) machine
/// work for a depth-`d` space instead of the O(2^d · d) of replaying
/// every forced path from the root.
///
/// # Errors
///
/// See [`MachError`].
///
/// # Panics
///
/// If the forced-op mask was resolved against another program (its
/// length differs from this program's operation table).
pub fn explore(p: &CompiledProgram, cfg: RunConfig) -> Result<Explored, MachError> {
    let RunConfig { fuel, forced, prune } = cfg;
    if let Some(f) = &forced {
        assert_eq!(f.ops.len(), p.ops.len(), "a forced-op mask of another program");
    }
    let fuel = if fuel == 0 { DEFAULT_MACHINE_FUEL } else { fuel };
    let run = Rc::new(Run { program: p.clone(), fuel, forced, prune });
    let mut m = Machine { run, steps: 0, capture_depth: 0, decisions: 0, partial: LossVal::zero() };
    let r = eval(&mut m, &p.code, p.root, &Env::empty(), &GVal::Zero, &mut LossBuf::new())?;
    Ok(finish_explored(m, r))
}

// ---------------------------------------------------------------------------
// Core evaluation
// ---------------------------------------------------------------------------

/// Runs continuation `k` on the resumed value `y`: every frame's step,
/// and the re-wrap a stuck result needs to keep composing.
fn resume(m: &mut Machine, code: &[Code], k: &Kont, y: MVal, buf: &mut LossBuf) -> EvalR {
    match &*k.0 {
        Frame::Done => Ok(MRes::Done(y)),
        Frame::Bind { inner, rest } => {
            let r = resume(m, code, inner, y, buf)?;
            bind(m, code, r, buf, rest.clone())
        }
        Frame::Seq(st) => {
            let mut st = st.clone();
            if child(&code[st.node], st.idx + 1).is_none() {
                return finish(m, code, st, y, buf);
            }
            st.done.push(y);
            st.idx += 1;
            eval_seq(m, code, st, buf)
        }
        Frame::Reset(inner) => {
            m.capture_depth += 1;
            let r = resume(m, code, inner, y, &mut Vec::new());
            m.capture_depth -= 1;
            reset_finish(r?)
        }
        Frame::Then { inner, cap, lam } => {
            let mut cap = cap.clone();
            m.capture_depth += 1;
            let r = resume(m, code, inner, y, &mut cap);
            m.capture_depth -= 1;
            then_finish(m, code, r?, cap, lam.clone(), buf)
        }
        Frame::Fold { inner, cap } => {
            let r = resume(m, code, inner, y, buf)?;
            fold_finish(r, cap.clone())
        }
        Frame::Reenter { act, p, g, inner } => {
            run_seg(m, code, act, p.clone(), Seg::Resume(inner.clone(), y), g, buf)
        }
        Frame::Iter { cv, d, items, g } => {
            let arg = match items {
                Some(items) => MVal::Tuple(vec![items[*d].clone(), y]),
                None => y,
            };
            apply(m, code, cv.clone(), arg, g, buf)
        }
    }
}

/// Sequences `rest` after a possibly-stuck result, re-wrapping the
/// resumption so later sticks keep composing (the CPS analogue of
/// plugging frames back around `K[y]`; after [`Frame::Done`], just `rest`).
fn bind(m: &mut Machine, code: &[Code], r: MRes, buf: &mut LossBuf, rest: Kont) -> EvalR {
    match r {
        MRes::Done(v) => resume(m, code, &rest, v, buf),
        MRes::Stuck(s) => {
            let cont = match *s.cont.0 {
                Frame::Done => rest,
                _ => Kont(Rc::new(Frame::Bind { inner: s.cont, rest })),
            };
            Ok(MRes::Stuck(StuckM { cont, ..s }))
        }
    }
}

/// A compound node mid-evaluation: children `0..idx` are done (`done`
/// holds those that were evaluated, not the [`is_value`] ones), the rest
/// still to run in `env` under `g`.
#[derive(Clone)]
struct SeqState {
    node: CodeId,
    idx: usize,
    done: Vec<MVal>,
    env: Env,
    g: GVal,
}

/// Child `i` of a compound node, in evaluation order (`None` past the
/// last child, and for leaves and the scope nodes [`eval`] runs itself).
fn child(node: &Code, i: usize) -> Option<CodeId> {
    match (node, i) {
        (Code::Tuple(es), _) => es.get(i).copied(),
        (
            Code::Prim(_, _, a)
            | Code::Proj(a, _)
            | Code::Inl(a)
            | Code::Inr(a)
            | Code::Succ(a)
            | Code::OpCall { arg: a, .. }
            | Code::Loss(a)
            | Code::Cases { scrut: a, .. }
            | Code::Handle { from: a, .. }
            | Code::App(a, _)
            | Code::Cons(a, _)
            | Code::Iter(a, _, _)
            | Code::Fold(a, _, _),
            0,
        ) => Some(*a),
        (Code::App(_, b) | Code::Cons(_, b) | Code::Iter(_, b, _) | Code::Fold(_, b, _), 1) => {
            Some(*b)
        }
        (Code::Iter(_, _, c) | Code::Fold(_, _, c), 2) => Some(*c),
        _ => None,
    }
}

/// Whether a node is a value: a variable, constant, `λ`, `zero`, `[]` or `()`.
fn is_value(node: &Code) -> bool {
    matches!(node, Code::Var(_) | Code::Const(_) | Code::Lam(_) | Code::Zero | Code::Nil)
        || matches!(node, Code::Tuple(es) if es.is_empty())
}

/// The value of a node that [`is_value`]; `None` for the others.
fn value(node: &Code, env: &Env) -> Option<Result<MVal, MachError>> {
    if !is_value(node) {
        return None;
    }
    let unbound = |i| MachError::Malformed(format!("unbound de Bruijn index {i}"));
    Some(match node {
        Code::Var(i) => env.get(*i).cloned().ok_or_else(|| unbound(i)),
        Code::Const(c) => Ok(const_val(c)),
        Code::Lam(body) => Ok(MVal::Clos(Clos { body: *body, env: env.clone() })),
        Code::Zero => Ok(MVal::Nat(0)),
        Code::Nil => Ok(MVal::List(Vec::new())),
        _ => Ok(MVal::unit()),
    })
}

/// Evaluates the remaining children of `st.node` left to right, then
/// [`finish`]es it with the last child's value.
fn eval_seq(m: &mut Machine, code: &[Code], mut st: SeqState, buf: &mut LossBuf) -> EvalR {
    let node = &code[st.node];
    loop {
        let next = child(node, st.idx).expect("compound nodes have a child");
        let last = child(node, st.idx + 1).is_none();
        // Value children evaluate in place: they cannot emit, stick, tick
        // or read their loss continuation, so no frame is observable, and
        // `finish` reads the ones before the last again.
        if is_value(&code[next]) {
            if last {
                let v = value(&code[next], &st.env).expect("a value child")?;
                return finish(m, code, st, v, buf);
            }
            st.idx += 1;
            continue;
        }
        let env = st.env.clone();
        // The continuation after this child: it both resumes evaluation on
        // `bind` and *is* the `F[x]` of the loss-continuation extension
        // `λx. F[x] ◮ g` (rule F) — one frame per node and evaluated
        // child, which folds identically to smallstep's one frame per
        // constructor.
        let rest = Kont(Rc::new(Frame::Seq(st)));
        let g_child = GVal::Frame(rest.clone());
        let r = eval(m, code, next, &env, &g_child, buf)?;
        return bind(m, code, r, buf, rest);
    }
}

/// Evaluates node `id` in `env` under loss continuation `g`, emitting
/// into `buf` — the machine's analogue of the judgment `g ⊢ε e →* w`.
fn eval(
    m: &mut Machine,
    code: &[Code],
    id: CodeId,
    env: &Env,
    g: &GVal,
    buf: &mut LossBuf,
) -> EvalR {
    let node = &code[id];
    if let Some(v) = value(node, env) {
        return v.map(MRes::Done);
    }
    match *node {
        Code::Then { e, lam_body } => {
            // (S2): capture the lhs's losses under g := the lambda.
            let lam = GVal::Fun(Clos { body: lam_body, env: env.clone() });
            let mut cap = Vec::new();
            m.capture_depth += 1;
            let r = eval(m, code, e, env, &lam, &mut cap);
            m.capture_depth -= 1;
            then_finish(m, code, r?, cap, lam, buf)
        }
        Code::Local { g_body, e } => {
            // (S3): evaluate under the localised continuation; losses are
            // exported, stuck resumptions keep the baked-in chain.
            let g1 = GVal::Fun(Clos { body: g_body, env: env.clone() });
            eval(m, code, e, env, &g1, buf)
        }
        Code::Reset(e) => {
            m.capture_depth += 1;
            let mut junk = Vec::new();
            let r = eval(m, code, e, env, g, &mut junk);
            m.capture_depth -= 1;
            reset_finish(r?)
        }
        _ => {
            let st =
                SeqState { node: id, idx: 0, done: Vec::new(), env: env.clone(), g: g.clone() };
            eval_seq(m, code, st, buf)
        }
    }
}

/// Completes a compound node given its last child's value `last`.
fn finish(m: &mut Machine, code: &[Code], st: SeqState, last: MVal, buf: &mut LossBuf) -> EvalR {
    let SeqState { node: id, done, env, g, .. } = st;
    let node = &code[id];
    // Child `i`'s value, for the children before the last, in order.
    let mut done = done.into_iter();
    let mut operand = |i: usize| {
        let c = child(node, i).expect("an operand child");
        value(&code[c], &env)
            .unwrap_or_else(|| Ok(done.next().expect("one value per evaluated child")))
    };
    let v = match node {
        Code::Prim(name, eval, _) => return prim_apply(name, *eval, &last),
        Code::Tuple(es) => {
            let mut vs = (0..es.len() - 1).map(operand).collect::<Result<Vec<_>, _>>()?;
            vs.push(last);
            MVal::Tuple(vs)
        }
        Code::Proj(_, i) => match last {
            MVal::Tuple(mut vs) if *i < vs.len() => vs.swap_remove(*i),
            MVal::Tuple(_) => return malformed(format!("projection .{} out of range", i + 1)),
            other => return malformed(format!("projection from non-tuple {other:?}")),
        },
        Code::Inl(_) => MVal::sum(false, last),
        Code::Inr(_) => MVal::sum(true, last),
        Code::Succ(_) => match last {
            MVal::Nat(n) => MVal::Nat(n + 1),
            other => return malformed(format!("succ of non-nat {other:?}")),
        },
        Code::Cons(..) => match (operand(0)?, last) {
            (head, MVal::List(mut items)) => {
                items.insert(0, head);
                MVal::List(items)
            }
            (_, other) => return malformed(format!("cons onto non-list {other:?}")),
        },
        // The chosen branch replaces the node: same g.
        Code::Cases { lbody, rbody, .. } => match last {
            MVal::Sum { right, val } => {
                let payload = val.map_or_else(MVal::unit, |v| *v);
                let branch = if right { *rbody } else { *lbody };
                return eval(m, code, branch, &env.push(payload), &g, buf);
            }
            other => return malformed(format!("cases on non-sum {other:?}")),
        },
        Code::App(..) => return apply(m, code, operand(0)?, last, &g, buf),
        Code::Iter(..) => match operand(0)? {
            MVal::Nat(n) => return iter_apply(m, code, Spine::Nat(n), operand(1)?, &last, &g, buf),
            other => return malformed(format!("iter on non-nat {other:?}")),
        },
        Code::Fold(..) => match operand(0)? {
            MVal::List(items) => {
                let spine = Spine::List(Rc::new(items));
                return iter_apply(m, code, spine, operand(1)?, &last, &g, buf);
            }
            other => return malformed(format!("fold on non-list {other:?}")),
        },
        Code::OpCall { op, .. } => {
            let site = (m.capture_depth == 0).then_some(id);
            let cont = DONE.with(Kont::clone);
            let stuck = StuckM { op: *op, arg: last, cont, choice: false, site };
            return Ok(MRes::Stuck(stuck));
        }
        Code::Loss(_) => match last {
            MVal::Loss(l) => {
                m.emit(buf, l)?;
                MVal::unit()
            }
            other => return malformed(format!("loss of non-loss {other:?}")),
        },
        Code::Handle { body, .. } => {
            let act = Rc::new(Activation { handle: id, env, params: RefCell::new(Vec::new()) });
            // (S1): the handled body runs under the return-clause
            // extension with the live parameter.
            let g1 = GVal::Ret { act: Rc::clone(&act), outer: Rc::new(g.clone()) };
            return run_seg(m, code, &act, last, Seg::Body(*body, g1), &g, buf);
        }
        _ => unreachable!("`child` lists no children for leaves and scope nodes"),
    };
    Ok(MRes::Done(v))
}

fn malformed(msg: String) -> EvalR {
    Err(MachError::Malformed(msg))
}

/// (S4) continued: losses inside `reset` stay suppressed across
/// resumptions, and the value passes through untouched (R9).
fn reset_finish(r: MRes) -> EvalR {
    match r {
        MRes::Done(v) => Ok(MRes::Done(v)),
        MRes::Stuck(s) => {
            Ok(MRes::Stuck(StuckM { cont: Kont(Rc::new(Frame::Reset(s.cont))), ..s }))
        }
    }
}

/// Completes a `◮` (or a choice probe, which is one): the captured losses
/// `cap` fold right-associatively around the continuation's verdict on
/// the value — smallstep's `r1 + (r2 + (… + g(v)))` nesting.
fn then_finish(
    m: &mut Machine,
    code: &[Code],
    r: MRes,
    cap: Vec<LossVal>,
    lam: GVal,
    buf: &mut LossBuf,
) -> EvalR {
    match r {
        MRes::Done(v) => {
            let gr = apply_g(m, code, &lam, v, buf)?;
            fold_finish(gr, cap)
        }
        MRes::Stuck(s) => {
            let cont = Kont(Rc::new(Frame::Then { inner: s.cont, cap, lam }));
            Ok(MRes::Stuck(StuckM { cont, ..s }))
        }
    }
}

/// Folds captured losses around the (possibly still suspended) verdict.
fn fold_finish(gr: MRes, cap: Vec<LossVal>) -> EvalR {
    match gr {
        MRes::Done(MVal::Loss(mut l)) => {
            for r in cap.iter().rev() {
                l = r.add(&l);
            }
            Ok(MRes::Done(MVal::Loss(l)))
        }
        MRes::Done(other) => {
            Err(MachError::Malformed(format!("loss continuation returned non-loss {other:?}")))
        }
        MRes::Stuck(s) => {
            Ok(MRes::Stuck(StuckM { cont: Kont(Rc::new(Frame::Fold { inner: s.cont, cap })), ..s }))
        }
    }
}

/// Applies a reified loss continuation to a value (always in `◮`
/// position, so rule (R7) applies: lambda bodies run under the zero
/// continuation, their ambient emissions escaping to `buf`).
fn apply_g(m: &mut Machine, code: &[Code], g: &GVal, v: MVal, buf: &mut LossBuf) -> EvalR {
    match g {
        GVal::Zero => Ok(MRes::Done(MVal::Loss(LossVal::zero()))),
        GVal::Fun(clos) => {
            m.tick()?;
            eval(m, code, clos.body, &clos.env.push(v), &GVal::Zero, buf)
        }
        GVal::Frame(rest) => {
            // λx. F[x] ◮ outer.
            let outer = match &*rest.0 {
                Frame::Seq(st) => st.g.clone(),
                Frame::Iter { g, .. } => g.clone(),
                _ => unreachable!("only node frames extend a loss continuation"),
            };
            let mut cap = Vec::new();
            m.capture_depth += 1;
            let r = resume(m, code, rest, v, &mut cap);
            m.capture_depth -= 1;
            then_finish(m, code, r?, cap, outer, buf)
        }
        GVal::Ret { act, outer } => {
            // (S1): λx. ret(p_now, x) ◮ outer, with the live parameter.
            let p = act.params.borrow().last().cloned().ok_or_else(|| {
                MachError::Malformed(
                    "return-clause loss continuation escaped its handler activation".into(),
                )
            })?;
            let env = act.env.push(p).push(v);
            let ret_body = act.handler(code).ret_body;
            let outer_g = (**outer).clone();
            let mut cap = Vec::new();
            m.capture_depth += 1;
            let r = eval(m, code, ret_body, &env, &outer_g, &mut cap);
            m.capture_depth -= 1;
            then_finish(m, code, r?, cap, outer_g, buf)
        }
    }
}

/// Runs one handler segment (the initial body, a resumption, or the
/// resumed part of a probe): pushes the segment's parameter, drives the
/// body to a value (R6), a handled operation (R5), or an unhandled one
/// (forwarding), popping the parameter on the way out.
fn run_seg(
    m: &mut Machine,
    code: &[Code],
    act: &Rc<Activation>,
    p: MVal,
    start: Seg,
    g: &GVal,
    buf: &mut LossBuf,
) -> EvalR {
    m.tick()?;
    act.params.borrow_mut().push(p.clone());
    let r = match start {
        Seg::Body(body, g1) => eval(m, code, body, &act.env, &g1, buf),
        Seg::Resume(k, y) => resume(m, code, &k, y, buf),
    };
    act.params.borrow_mut().pop();
    let handler = act.handler(code);
    match r? {
        MRes::Done(v) => {
            // (R6): the return clause runs in place of the handle node.
            let env = act.env.push(p).push(v);
            eval(m, code, handler.ret_body, &env, g, buf)
        }
        MRes::Stuck(s) => {
            let Some(clause) = handler.clause(s.op).filter(|_| !s.choice) else {
                // Not ours (or an already-claimed choice yield): forward,
                // re-entering this segment (with the parameter current at
                // the stick) on resumption.
                return Ok(MRes::Stuck(reenter(act, p, g, s)));
            };
            // Forced-choice interception: answer scripted decisions
            // directly (`k(p, d)`), skipping the clause body; in tree
            // mode, decisions past the scripted prefix suspend the
            // whole run instead.
            if let Some(f) = m.run.forced.as_ref().filter(|f| f.ops[s.op as usize]) {
                return match f.next(&mut m.decisions)? {
                    Decision::Scripted(d) => {
                        run_seg(m, code, act, p, Seg::Resume(s.cont, MVal::bool(d)), g, buf)
                    }
                    // Suspend exactly where the scripted path would
                    // resume: the choice continuation re-enters this
                    // segment with the (later-supplied) decision, and
                    // propagates out past every enclosing handler.
                    Decision::Yield => {
                        Ok(MRes::Stuck(reenter(act, p, g, StuckM { choice: true, ..s })))
                    }
                };
            }
            // (R5): bind p, x, l, k and run the clause body in place
            // of the handle node (same g).
            let ctl = HandlerCtl { act: Rc::clone(act), kont: s.cont.clone(), g: g.clone() };
            let env =
                act.env.push(p).push(s.arg).push(MVal::Probe(ctl.clone())).push(MVal::Resume(ctl));
            eval(m, code, clause.body, &env, g, buf)
        }
    }
}

/// Re-wraps a stuck segment so its resumption re-enters the segment
/// under parameter `p`.
fn reenter(act: &Rc<Activation>, p: MVal, g: &GVal, s: StuckM) -> StuckM {
    let (act, g) = (Rc::clone(act), g.clone());
    StuckM { cont: Kont(Rc::new(Frame::Reenter { act, p, g, inner: s.cont })), ..s }
}

/// Function application — β for closures, rule (R5)'s `k`/`l` for the
/// machine-built handler continuations.
fn apply(m: &mut Machine, code: &[Code], f: MVal, a: MVal, g: &GVal, buf: &mut LossBuf) -> EvalR {
    match f {
        MVal::Clos(c) => {
            m.tick()?;
            eval(m, code, c.body, &c.env.push(a), g, buf)
        }
        MVal::Resume(ctl) => {
            // f_k(p₂, y) = ⟨with h from p₂ handle K[y]⟩_g.
            let (p2, y) = split_pair(a)?;
            run_seg(m, code, &ctl.act, p2, Seg::Resume(ctl.kont.clone(), y), &ctl.g, buf)
        }
        MVal::Probe(ctl) => {
            // f_l(p₂, y) = (with h from p₂ handle K[y]) ◮ g.
            let (p2, y) = split_pair(a)?;
            let mut cap = Vec::new();
            m.capture_depth += 1;
            let seg = Seg::Resume(ctl.kont.clone(), y);
            let r = run_seg(m, code, &ctl.act, p2, seg, &ctl.g, &mut cap);
            m.capture_depth -= 1;
            then_finish(m, code, r?, cap, ctl.g.clone(), buf)
        }
        other => Err(MachError::Malformed(format!("application of non-function {other:?}"))),
    }
}

/// What an `iter`/`fold` unfolds: `n` levels, or one level per list
/// element, which level `d`'s argument pairs with.
enum Spine {
    Nat(u64),
    List(Rc<Vec<MVal>>),
}

/// The shared engine of `iter`/`fold`: one application of `cv` per level
/// of the spine, from the innermost out, with the loss-continuation chain
/// the unfolded `c (c (… b))` spine would build.
fn iter_apply(
    m: &mut Machine,
    code: &[Code],
    spine: Spine,
    bv: MVal,
    cv: &MVal,
    g: &GVal,
    buf: &mut LossBuf,
) -> EvalR {
    let (n, items) = match spine {
        Spine::Nat(n) => (n, None),
        Spine::List(items) => (items.len() as u64, Some(items)),
    };
    if n.saturating_add(m.steps) > m.run.fuel {
        return Err(MachError::OutOfFuel { steps: m.steps });
    }
    let n = usize::try_from(n).map_err(|_| MachError::OutOfFuel { steps: m.steps })?;
    let step = |d: usize, g: &GVal| {
        Kont(Rc::new(Frame::Iter { cv: cv.clone(), d, items: items.clone(), g: g.clone() }))
    };
    // gs[d] is the loss continuation at unfolding depth d (0 = outermost).
    let mut gs: Vec<GVal> = Vec::with_capacity(n);
    gs.push(g.clone());
    for d in 1..n {
        gs.push(GVal::Frame(step(d - 1, &gs[d - 1])));
    }
    let mut cur = MRes::Done(bv);
    for d in (0..n).rev() {
        cur = bind(m, code, cur, buf, step(d, &gs[d]))?;
    }
    Ok(cur)
}

// ---------------------------------------------------------------------------
// Leaf helpers
// ---------------------------------------------------------------------------

fn const_val(c: &Const) -> MVal {
    match c {
        Const::Loss(l) => MVal::Loss(l.clone()),
        Const::Char(c) => MVal::Char(*c),
        Const::Str(s) => MVal::Str(s.clone()),
    }
}

fn split_pair(v: MVal) -> Result<(MVal, MVal), MachError> {
    match v {
        MVal::Tuple(mut vs) if vs.len() == 2 => {
            let y = vs.pop().expect("two");
            let p = vs.pop().expect("two");
            Ok((p, y))
        }
        other => {
            Err(MachError::Malformed(format!("handler continuation applied to non-pair {other:?}")))
        }
    }
}

/// Applies primitive `name` through its compile-time [`crate::prim::prim_lookup`]
/// evaluator, the reference interpreter's table: both agree by construction.
fn prim_apply(name: &str, eval: Option<PrimEval>, arg: &MVal) -> EvalR {
    let eval = eval.ok_or_else(|| MachError::Malformed(format!("unknown primitive `{name}`")))?;
    let garg = arg
        .to_ground()
        .ok_or_else(|| MachError::Malformed(format!("non-ground prim argument {arg:?}")))?;
    let out = eval(&garg).map_err(MachError::Prim)?;
    Ok(MRes::Done(ground_to_mval(&out)))
}

/// Ground → machine value, the inverse of [`MVal::to_ground`].
pub fn ground_to_mval(g: &Ground) -> MVal {
    match g {
        Ground::Loss(l) => MVal::Loss(l.clone()),
        Ground::Char(c) => MVal::Char(*c),
        Ground::Str(s) => MVal::Str(s.clone()),
        Ground::Nat(n) => MVal::Nat(*n),
        Ground::Tuple(gs) => MVal::Tuple(gs.iter().map(ground_to_mval).collect()),
        Ground::Sum(right, g) => MVal::sum(*right, ground_to_mval(g)),
        Ground::List(gs) => MVal::List(gs.iter().map(ground_to_mval).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigstep::eval_closed;
    use crate::compile::compile;
    use crate::examples;
    use crate::prim::value_to_ground;
    use crate::syntax::Expr;
    use crate::types::Type;

    /// Runs one example through both evaluators and demands bit-identical
    /// loss and (ground) terminal.
    fn differential(ex: &examples::ExampleProgram) -> MachineOutcome {
        let reference =
            eval_closed(&ex.sig, ex.expr.clone(), ex.ty.clone(), ex.eff.clone()).unwrap();
        let compiled = compile(&ex.expr).unwrap();
        let out = run(&compiled).unwrap();
        assert_eq!(out.loss, reference.loss, "losses must be bit-identical");
        assert_eq!(out.stuck_on, reference.stuck_on);
        if reference.stuck_on.is_none() {
            assert_eq!(
                out.ground_value(),
                value_to_ground(&reference.terminal),
                "terminals must agree"
            );
        }
        out
    }

    #[test]
    fn machine_matches_reference_on_decide_all() {
        differential(&examples::decide_all());
    }

    #[test]
    fn machine_matches_reference_on_pgm_argmin() {
        let out = differential(&examples::pgm_with_argmin_handler());
        assert_eq!(out.loss, LossVal::scalar(2.0));
    }

    #[test]
    fn machine_matches_reference_on_counter() {
        differential(&examples::counter());
    }

    #[test]
    fn machine_matches_reference_on_minimax() {
        let out = differential(&examples::minimax());
        assert_eq!(out.loss, LossVal::scalar(3.0));
    }

    #[test]
    fn machine_matches_reference_on_password() {
        let out = differential(&examples::password());
        assert_eq!(out.loss, LossVal::scalar(12.0));
    }

    #[test]
    fn machine_matches_reference_on_tune_lr() {
        let out = differential(&examples::tune_lr(1.0, 0.5));
        assert!(out.loss.is_zero());
    }

    #[test]
    fn moo_exhausts_fuel_like_the_reference() {
        // Divergent handling nests machine frames, so keep the budget
        // small (the reference test uses 200 steps for the same reason).
        let ex = examples::moo_divergent();
        let compiled = compile(&ex.expr).unwrap();
        let r = run_with(&compiled, RunConfig { fuel: 60, ..RunConfig::default() });
        assert!(matches!(r.unwrap_err(), MachError::OutOfFuel { .. }));
    }

    #[test]
    fn unhandled_op_reports_stuck() {
        use crate::build::*;
        let e = op("decide", unit());
        let out = run(&compile(&e).unwrap()).unwrap();
        assert_eq!(out.stuck_on.as_deref(), Some("decide"));
        assert!(out.value.is_none());
    }

    #[test]
    fn then_reset_local_loss_scoping() {
        use crate::build::*;
        use crate::types::Effect;
        let e0 = Effect::empty();
        // (loss(2); 7) ◮ λx. x  ⇒  value 9, ambient 0 (S2/R7).
        let lhs = let_(e0.clone(), "_u", Type::unit(), loss(lc(2.0)), lc(7.0));
        let e = then(lhs, e0.clone(), "x", Type::loss(), v("x"));
        let out = run(&compile(&e).unwrap()).unwrap();
        assert!(out.loss.is_zero());
        assert_eq!(out.ground_value(), Some(Ground::Loss(LossVal::scalar(9.0))));
        // reset suppresses (S4), local exports (S3).
        let out = run(&compile(&reset(loss(lc(5.0)))).unwrap()).unwrap();
        assert!(out.loss.is_zero());
        let out = run(&compile(&local0(e0.clone(), Type::unit(), loss(lc(5.0)))).unwrap()).unwrap();
        assert_eq!(out.loss, LossVal::scalar(5.0));
    }

    #[test]
    fn iter_and_fold_match_reference() {
        use crate::build::*;
        use crate::types::Effect;
        let e0 = Effect::empty();
        // iter(3, 1.0, λx. x + x) = 8
        let dbl = lam(e0.clone(), "x", Type::loss(), add(v("x"), v("x")));
        let e = Expr::Iter(Expr::nat(3).rc(), lc(1.0).rc(), dbl.rc());
        let out = run(&compile(&e).unwrap()).unwrap();
        assert_eq!(out.ground_value(), Some(Ground::Loss(LossVal::scalar(8.0))));
        // fold([1,2,3], 0, λ(h,acc). h + acc) = 6
        let f = lam(
            e0.clone(),
            "z",
            Type::Tuple(vec![Type::loss(), Type::loss()]),
            add(proj(v("z"), 0), proj(v("z"), 1)),
        );
        let list = Expr::list(Type::loss(), vec![lc(1.0), lc(2.0), lc(3.0)]);
        let e = Expr::Fold(list.rc(), lc(0.0).rc(), f.rc());
        let out = run(&compile(&e).unwrap()).unwrap();
        assert_eq!(out.ground_value(), Some(Ground::Loss(LossVal::scalar(6.0))));
    }

    /// Forces `decide`: `prefix_len` decisions scripted from
    /// `prefix_bits`, suspending past them up to `max`.
    fn tree_cfg(p: &CompiledProgram, prefix_bits: u64, prefix_len: u32, max: u32) -> RunConfig {
        let ops = p.op_mask(["decide"]);
        let forced = TreeChoices { ops, prefix_bits, prefix_len, max_decisions: max };
        RunConfig { forced: Some(forced), ..RunConfig::default() }
    }

    /// A candidate run: all `max` decisions scripted from `bits`.
    fn forced_cfg(p: &CompiledProgram, bits: u64, max: u32) -> RunConfig {
        tree_cfg(p, bits, max, max)
    }

    /// Forcing the decision of §2.3's `pgm` replays exactly one branch:
    /// forcing `true` gives loss 2 / 'a', forcing `false` loss 4 / 'b',
    /// and the candidate-0 (all-true) run equals the argmin handler's
    /// actual choice.
    #[test]
    fn forced_runs_enumerate_pgm_branches() {
        let ex = examples::pgm_with_argmin_handler();
        let compiled = compile(&ex.expr).unwrap();
        let forced = |bits: u64| run_with(&compiled, forced_cfg(&compiled, bits, 1)).unwrap();
        let t = forced(0); // bit 0 ⇒ true
        assert_eq!(t.loss, LossVal::scalar(2.0));
        assert_eq!(t.ground_value(), Some(Ground::Char('a')));
        assert_eq!(t.decisions_used, 1);
        let f = forced(1);
        assert_eq!(f.loss, LossVal::scalar(4.0));
        assert_eq!(f.ground_value(), Some(Ground::Char('b')));
        // The argmin handler picks the loss-2 branch — candidate 0.
        let real = run(&compiled).unwrap();
        assert_eq!(real.loss, t.loss);
        assert_eq!(real.ground_value(), t.ground_value());
    }

    /// Dominates every partial whose scalar reading is above `.0`.
    struct Above(f64);

    impl PruneBound for Above {
        fn dominated(&self, partial: &LossVal) -> bool {
            partial.as_scalar() > self.0
        }
    }

    #[test]
    fn forced_run_prunes_on_dominated_partial() {
        let ex = examples::pgm_with_argmin_handler();
        let compiled = compile(&ex.expr).unwrap();
        // An achieved loss of 3.0: the loss-4 branch must abort.
        let cfg = |bits| RunConfig {
            prune: Some(MachinePrune(Arc::new(Above(3.0)))),
            ..forced_cfg(&compiled, bits, 1)
        };
        assert_eq!(run_with(&compiled, cfg(1)).unwrap_err(), MachError::Pruned);
        // The loss-2 branch survives.
        let ok = run_with(&compiled, cfg(0)).unwrap();
        assert_eq!(ok.loss, LossVal::scalar(2.0));
    }

    #[test]
    fn explore_suspends_at_the_first_decision_and_resumes_multi_shot() {
        let ex = examples::pgm_with_argmin_handler();
        let compiled = compile(&ex.expr).unwrap();
        let Explored::Choice(point) = explore(&compiled, tree_cfg(&compiled, 0, 0, 1)).unwrap()
        else {
            panic!("pgm must suspend at its decide");
        };
        assert_eq!(point.depth(), 0);
        assert!(point.partial_loss().is_zero());
        let run = |d: bool| match point.resume(d).unwrap() {
            Explored::Done(out) => out,
            Explored::Choice(_) => panic!("depth-1 program cannot suspend twice"),
        };
        let t = run(true);
        assert_eq!(t.loss, LossVal::scalar(2.0));
        assert_eq!(t.ground_value(), Some(Ground::Char('a')));
        assert_eq!(t.decisions_used, 1);
        let f = run(false);
        assert_eq!(f.loss, LossVal::scalar(4.0));
        assert_eq!(f.ground_value(), Some(Ground::Char('b')));
        // Multi-shot: a second resume of the same branch is bit-identical.
        let t2 = run(true);
        assert_eq!((t2.loss.clone(), t2.ground_value()), (t.loss.clone(), t.ground_value()));
    }

    /// Full-tree DFS through explore/resume must reproduce every forced
    /// path bit-identically (loss, terminal, decisions used).
    #[test]
    fn tree_leaves_match_replayed_forced_runs() {
        let p = crate::testgen::deep_decide_chain(4);
        let compiled = compile(&p.expr).unwrap();
        let mut leaves: Vec<(u64, MachineOutcome)> = Vec::new();
        fn dfs(r: Explored, bits: u64, depth: u32, leaves: &mut Vec<(u64, MachineOutcome)>) {
            match r {
                Explored::Done(out) => {
                    assert_eq!(out.decisions_used, depth, "chain paths use every decision");
                    leaves.push((bits, out));
                }
                Explored::Choice(point) => {
                    assert_eq!(point.depth(), depth);
                    // `true` is bit 0, appended at the low end as the
                    // candidate encoding prescribes.
                    dfs(point.resume(true).unwrap(), bits << 1, depth + 1, leaves);
                    dfs(point.resume(false).unwrap(), (bits << 1) | 1, depth + 1, leaves);
                }
            }
        }
        dfs(explore(&compiled, tree_cfg(&compiled, 0, 0, 4)).unwrap(), 0, 0, &mut leaves);
        assert_eq!(leaves.len(), 16);
        for (bits, out) in leaves {
            let forced = run_with(&compiled, forced_cfg(&compiled, bits, 4)).unwrap();
            assert_eq!(out.loss, forced.loss, "bits {bits:#b}");
            assert_eq!(out.ground_value(), forced.ground_value(), "bits {bits:#b}");
            assert_eq!(out.decisions_used, forced.decisions_used, "bits {bits:#b}");
        }
    }

    #[test]
    fn scripted_prefix_fast_forwards_to_the_subtree() {
        let p = crate::testgen::deep_decide_chain(3);
        let compiled = compile(&p.expr).unwrap();
        // Script the first two decisions as (false, true) = bits 0b10.
        let Explored::Choice(point) = explore(&compiled, tree_cfg(&compiled, 0b10, 2, 3)).unwrap()
        else {
            panic!("one decision must remain");
        };
        assert_eq!(point.depth(), 2);
        for d in [true, false] {
            let Explored::Done(out) = point.resume(d).unwrap() else {
                panic!("three decisions exhaust the chain");
            };
            let forced =
                run_with(&compiled, forced_cfg(&compiled, 0b100 | u64::from(!d), 3)).unwrap();
            assert_eq!(out.loss, forced.loss, "decision {d}");
        }
    }

    #[test]
    fn tree_mode_rejects_exhausted_decision_budgets() {
        let ex = examples::pgm_with_argmin_handler();
        let compiled = compile(&ex.expr).unwrap();
        let r = explore(&compiled, tree_cfg(&compiled, 0, 0, 0));
        assert_eq!(r.unwrap_err(), MachError::DecisionsExhausted);
    }

    #[test]
    fn tree_branches_prune_against_their_own_path_total() {
        // Chain: decide; loss(2 | 4); decide; loss(2 | 4); 0 — with an
        // achieved bound of 7, the (false, false) path (4 + 4) must abort
        // while every other path survives: the partial snapshots per
        // branch, so the abort does not leak into (false, true).
        use crate::build::*;
        use crate::types::{Effect, Type};
        let eamb = Effect::single("amb");
        let mut body = lc(0.0);
        for i in (0..2).rev() {
            body = let_(
                eamb.clone(),
                &format!("b{i}"),
                Type::bool(),
                op("decide", unit()),
                seq(
                    eamb.clone(),
                    Type::unit(),
                    loss(if_(v(&format!("b{i}")), lc(2.0), lc(4.0))),
                    body,
                ),
            );
        }
        let e = handle0(crate::testgen::argmin_handler(&Type::loss(), &Effect::empty()), body);
        let compiled = compile(&e).unwrap();
        let cfg = RunConfig {
            prune: Some(MachinePrune(Arc::new(Above(7.0)))),
            ..tree_cfg(&compiled, 0, 0, 2)
        };
        let Explored::Choice(root) = explore(&compiled, cfg).unwrap() else {
            panic!("suspends at the first decide");
        };
        let Explored::Choice(after_false) = root.resume(false).unwrap() else {
            panic!("suspends at the second decide");
        };
        assert_eq!(after_false.partial_loss(), &LossVal::scalar(4.0));
        assert_eq!(after_false.resume(false).unwrap_err(), MachError::Pruned);
        let Explored::Done(out) = after_false.resume(true).unwrap() else {
            panic!("two decisions exhaust the chain");
        };
        assert_eq!(out.loss, LossVal::scalar(6.0));
        let Explored::Choice(after_true) = root.resume(true).unwrap() else {
            panic!("suspends at the second decide");
        };
        assert_eq!(after_true.partial_loss(), &LossVal::scalar(2.0));
    }

    /// Decision words past 64 bits read as zero-extended: the first of
    /// 70 scripted decisions is bit 69, which is 0, so `pgm` takes its
    /// `true` branch exactly as with a one-decision word of 0.
    #[test]
    fn forced_decisions_past_64_bits_read_as_zero() {
        let compiled = compile(&examples::pgm_with_argmin_handler().expr).unwrap();
        let forced =
            |bits: u64, max: u32| run_with(&compiled, forced_cfg(&compiled, bits, max)).unwrap();
        let (wide, narrow) = (forced(1 << 5, 70), forced(0, 1));
        assert_eq!(wide.ground_value(), Some(Ground::Char('a')));
        assert_eq!((&wide.loss, wide.ground_value()), (&narrow.loss, narrow.ground_value()));
    }

    /// A decide chain whose step `i` emits `losses[i]` on `true` and
    /// `losses[i + 1]` on `false` (cyclically).
    fn loss_chain(losses: &[LossVal]) -> CompiledProgram {
        use crate::build::*;
        use crate::types::Effect;
        let eamb = Effect::single("amb");
        let mut body = lc(0.0);
        for i in (0..losses.len()).rev() {
            let b = format!("b{i}");
            let (t, f) = (&losses[i], &losses[(i + 1) % losses.len()]);
            let (t, f) = (Expr::Const(Const::Loss(t.clone())), Expr::Const(Const::Loss(f.clone())));
            let step = seq(eamb.clone(), Type::unit(), loss(if_(v(&b), t, f)), body);
            body = let_(eamb.clone(), &b, Type::bool(), op("decide", unit()), step);
        }
        let h = crate::testgen::argmin_handler(&Type::loss(), &Effect::empty());
        compile(&handle0(h, body)).unwrap()
    }

    /// The tree walk's running partial must add exactly like a replay:
    /// with step losses that do not associate (and a `-0.0`), every leaf
    /// of an out-of-order, repeated explore/resume DFS equals the forced
    /// replay of its path bit for bit, per component, with and without a
    /// prune hook (armed at `+∞`, so it observes but never fires).
    #[test]
    fn tree_leaves_match_replays_bit_for_bit_on_non_associative_losses() {
        let steps = [0.1, 0.2, 0.7, 1e16, -1e16, -0.0];
        let scalar: Vec<LossVal> = steps.iter().map(|&x| LossVal::scalar(x)).collect();
        let pair: Vec<LossVal> = steps.iter().map(|&x| LossVal::pair(x, -x / 3.0)).collect();
        let depth = steps.len() as u32;
        let bits_of = |l: &LossVal| l.components().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        fn dfs(r: Explored, bits: u64, leaves: &mut Vec<(u64, MachineOutcome)>) {
            match r {
                Explored::Done(out) => leaves.push((bits, out)),
                Explored::Choice(point) => {
                    for d in [false, true, false, true] {
                        let r = point.resume(d).unwrap();
                        dfs(r, (bits << 1) | u64::from(!d), leaves);
                    }
                }
            }
        }
        for losses in [&scalar, &pair] {
            let compiled = loss_chain(losses);
            for armed in [false, true] {
                let prune = armed.then(|| MachinePrune(Arc::new(Above(f64::INFINITY))));
                let cfg = RunConfig { prune, ..tree_cfg(&compiled, 0, 0, depth) };
                let mut leaves = Vec::new();
                dfs(explore(&compiled, cfg).unwrap(), 0, &mut leaves);
                assert_eq!(leaves.len(), 1 << (2 * depth), "every branch visited twice");
                for (bits, out) in leaves {
                    let replay = run_with(&compiled, forced_cfg(&compiled, bits, depth)).unwrap();
                    let at = format!("bits {bits:#b}, armed {armed}");
                    assert_eq!(bits_of(&out.loss), bits_of(&replay.loss), "{at}");
                    assert_eq!(out.decisions_used, replay.decisions_used, "{at}");
                    assert_eq!(out.steps, replay.steps, "{at}");
                }
            }
        }
    }

    #[test]
    fn forced_run_rejects_too_few_decisions() {
        let ex = examples::pgm_with_argmin_handler();
        let compiled = compile(&ex.expr).unwrap();
        let r = run_with(&compiled, forced_cfg(&compiled, 0, 0));
        assert_eq!(r.unwrap_err(), MachError::DecisionsExhausted);
    }

    /// A prefix shorter than the budget leaves a decision unscripted:
    /// `explore` suspends there, and `run_with` reports the suspension as
    /// an exhausted script, at the root and below a scripted prefix.
    #[test]
    fn run_with_rejects_a_prefix_shorter_than_the_budget() {
        let pgm = compile(&examples::pgm_with_argmin_handler().expr).unwrap();
        assert!(matches!(explore(&pgm, tree_cfg(&pgm, 0, 0, 1)), Ok(Explored::Choice(_))));
        assert_eq!(
            run_with(&pgm, tree_cfg(&pgm, 0, 0, 1)).unwrap_err(),
            MachError::DecisionsExhausted
        );
        let chain = compile(&crate::testgen::deep_decide_chain(3).expr).unwrap();
        let r = run_with(&chain, tree_cfg(&chain, 0b1, 2, 3));
        assert_eq!(r.unwrap_err(), MachError::DecisionsExhausted);
    }

    /// A prefix that scripts every decision never suspends: `explore`
    /// finishes with exactly the outcome `run_with` returns for it.
    #[test]
    fn fully_scripted_explore_equals_run_with() {
        let compiled = compile(&crate::testgen::deep_decide_chain(3).expr).unwrap();
        for bits in 0..8 {
            let Explored::Done(out) = explore(&compiled, forced_cfg(&compiled, bits, 3)).unwrap()
            else {
                panic!("bits {bits:#b}: a fully scripted run cannot suspend");
            };
            let run = run_with(&compiled, forced_cfg(&compiled, bits, 3)).unwrap();
            let bits_of =
                |l: &LossVal| l.components().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits_of(&out.loss), bits_of(&run.loss), "bits {bits:#b}");
            assert_eq!(out.ground_value(), run.ground_value(), "bits {bits:#b}");
            assert_eq!(out.stuck_on, run.stuck_on, "bits {bits:#b}");
            assert_eq!(out.steps, run.steps, "bits {bits:#b}");
            assert_eq!(out.decisions_used, run.decisions_used, "bits {bits:#b}");
        }
    }
}
