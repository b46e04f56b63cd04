//! Compiled λC programs as engine candidate spaces.
//!
//! Following Hedges' observation that selection computations *are* CPS
//! terms, a compiled λC program with `depth` argmin choice points is a
//! family of `2^depth` straight-line programs: candidate `i` replays the
//! machine with its choices scripted from the bits of `i` (most
//! significant bit = first decision, `0` = `true`), so candidate indices
//! enumerate decision vectors lexicographically with `true` first —
//! exactly the order in which the paper's `leq`-based argmin handlers
//! break ties. [`LcCandidates`] packages that family as plain
//! `Send + Sync` data: [`LcCandidates::run_candidate`] maps a candidate
//! index to its machine outcome, so a loss closure over it runs on the
//! engine's flat scan unchanged (see
//! [`crate::search::search_compiled_flat`]), and
//! [`LcCandidates::explore_prefix`] feeds the prefix-sharing tree search.
//!
//! ## Soundness scope
//!
//! Equivalence with the handler semantics (forced-path argmin ==
//! handler's choice, bit-identically) requires the forced operations to
//! be handled by **argmin choosers over the program's single ambient
//! loss** — probe both branches, compare with `leq`, resume the cheaper —
//! with no `local`/`reset` rescoping between the choice points (the
//! [`lambda_c::testgen::ProgramGen::gen_search_program`] fragment, and the paper's
//! §2.3 program family). Handlers that aggregate (`decide_all`), never
//! resume (`tuneLR`), or maximise are still *evaluated* faithfully by the
//! machine — they just aren't a minimisation the engine can fan out.

use lambda_c::flow::{self, FlowReport, NonNegLosses};
use lambda_c::machine::{self, Explored, MachineOutcome, MachinePrune, RunConfig, TreeChoices};
use lambda_c::prim::Ground;
use lambda_c::{CompiledProgram, MachError};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static NEXT_SPACE_ID: AtomicU64 = AtomicU64::new(1);

/// The terminal a candidate reports next to its loss: the ground reading
/// of the machine's value (`None` for higher-order results).
pub type LcValue = Option<Ground>;

/// A compiled λC program viewed as a finite candidate space: one
/// candidate per assignment of the forced operations' `2^depth` decision
/// vectors. Plain `Send + Sync` data — the engine shares it with workers
/// and each runs the machine locally (replay-per-worker).
#[derive(Clone, Debug)]
pub struct LcCandidates {
    program: Arc<CompiledProgram>,
    ops: BTreeSet<String>,
    /// `ops` resolved against the program once, for every run to share.
    forced: Arc<[bool]>,
    depth: u32,
    /// Process-unique space identity, part of every transposition key:
    /// a shared cache may serve many *different* programs without their
    /// decision prefixes colliding. Clones (including the engine's
    /// replay-per-worker rebuilds) keep the identity — same program,
    /// same entries.
    id: u64,
    /// The best loss any candidate of this space has been observed to
    /// *achieve* (monotone `prune_bits` encoding; `u64::MAX` until one
    /// completes). Shared across clones and searches: the program is
    /// immutable and evaluation pure, so an achieved loss stays achieved
    /// — which is what makes seeding mid-run abandonment thresholds and
    /// the engine's `SharedBound` from it sound on warm repeats.
    best_seen: Arc<AtomicU64>,
    /// The flow analysis of the program over the forced operations,
    /// computed on first demand and shared across clones (the program is
    /// immutable, so the verdict is too).
    flow: Arc<OnceLock<FlowReport>>,
}

impl LcCandidates {
    /// Wraps a compiled program whose operations `ops` are forced over
    /// `depth` decisions (candidates `0..2^depth`).
    ///
    /// # Panics
    ///
    /// Panics if `depth > 62` (candidate indices are `usize`/`u64` bit
    /// vectors; practical searches are far smaller).
    pub fn new(
        program: CompiledProgram,
        ops: impl IntoIterator<Item = String>,
        depth: u32,
    ) -> LcCandidates {
        assert!(depth <= 62, "decision depth {depth} exceeds the 62-bit candidate encoding");
        let ops: BTreeSet<String> = ops.into_iter().collect();
        LcCandidates {
            forced: program.op_mask(&ops),
            program: Arc::new(program),
            ops,
            depth,
            // ordering: Relaxed — space ids only need uniqueness, which
            // the RMW guarantees under any ordering.
            id: NEXT_SPACE_ID.fetch_add(1, Ordering::Relaxed),
            best_seen: Arc::new(AtomicU64::new(u64::MAX)),
            flow: Arc::new(OnceLock::new()),
        }
    }

    /// The compiled program backing this space (what a
    /// [`NonNegLosses`] certificate must cover).
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The [`lambda_c::flow`] verdict for this space: the program
    /// analysed with the forced operations as decision ops. Computed once
    /// per space (clones share the result through the space handle).
    pub fn flow_report(&self) -> &FlowReport {
        self.flow.get_or_init(|| {
            let ops: Vec<&str> = self.ops.iter().map(String::as_str).collect();
            flow::analyze(&self.program, &ops)
        })
    }

    /// The non-negative-losses certificate, if the flow analysis can
    /// prove one for this program — the value that unlocks mid-run
    /// abandonment without an unchecked caller promise.
    pub fn certificate(&self) -> Option<&NonNegLosses> {
        self.flow_report().certificate()
    }

    /// Number of candidates, `2^depth`.
    pub fn space(&self) -> usize {
        1_usize << self.depth
    }

    /// The decision depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The candidate space's process-unique identity (the transposition
    /// key's program component).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared best-achieved-loss cell (see the field docs):
    /// evaluators feed it from completed runs and exact summary hits,
    /// and seed their searches from it.
    pub(crate) fn best_seen_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.best_seen)
    }

    /// Runs candidate `index`'s forced machine under the replay contract:
    /// any machine failure, or a stuck (unhandled) operation, is a panic —
    /// candidate spaces must hold fully handled, terminating programs.
    ///
    /// # Panics
    ///
    /// On machine errors or a stuck (unhandled) operation.
    pub fn run_candidate(&self, index: usize) -> MachineOutcome {
        match self.explore_prefix(index as u64, self.depth, None) {
            Ok(Explored::Done(out)) => out,
            _ => unreachable!("a fully scripted, unpruned run neither suspends nor prunes"),
        }
    }

    /// Starts (or fast-forwards) a tree-mode run: scripts the `len`
    /// decisions of `prefix` and suspends at the next choice point, under
    /// the replay contract — any failure other than a prune abandonment,
    /// and any stuck (unhandled) operation, is a panic.
    ///
    /// # Errors
    ///
    /// Only [`MachError::Pruned`], when `prune` fires.
    ///
    /// # Panics
    ///
    /// On other machine errors or a stuck operation.
    pub fn explore_prefix(
        &self,
        prefix: u64,
        len: u32,
        prune: Option<MachinePrune>,
    ) -> Result<Explored, MachError> {
        let forced = TreeChoices {
            ops: Arc::clone(&self.forced),
            prefix_bits: prefix,
            prefix_len: len,
            max_decisions: self.depth,
        };
        let cfg = RunConfig { fuel: 0, forced: Some(forced), prune };
        enforce_replay_contract(machine::explore(&self.program, cfg), prefix, len)
    }
}

/// The replay contract of [`LcCandidates::run_candidate`] and
/// [`LcCandidates::explore_prefix`]: candidate spaces must hold fully
/// handled, terminating programs, so only prune abandonments survive as
/// errors.
pub(crate) fn enforce_replay_contract(
    r: Result<Explored, MachError>,
    prefix: u64,
    len: u32,
) -> Result<Explored, MachError> {
    match r {
        Err(MachError::Pruned) => Err(MachError::Pruned),
        Err(e) => panic!("compiled λC subtree {prefix:#b}/{len} failed: {e}"),
        Ok(Explored::Done(out)) => {
            assert!(
                out.stuck_on.is_none(),
                "compiled λC subtree {prefix:#b}/{len} stuck on unhandled operation {:?}",
                out.stuck_on
            );
            Ok(Explored::Done(out))
        }
        ok => ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::search_compiled_flat;
    use lambda_c::testgen;
    use selc_engine::Engine;

    fn pgm_candidates() -> LcCandidates {
        let ex = lambda_c::examples::pgm_with_argmin_handler();
        LcCandidates::new(lambda_c::compile(&ex.expr).unwrap(), ["decide".to_owned()], 1)
    }

    #[test]
    fn candidates_enumerate_true_first() {
        let c = pgm_candidates();
        assert_eq!(c.space(), 2);
        let t = c.run_candidate(0);
        let f = c.run_candidate(1);
        assert_eq!(t.ground_value(), Some(Ground::Char('a')));
        assert_eq!(f.ground_value(), Some(Ground::Char('b')));
    }

    #[test]
    fn replay_space_search_matches_the_handler() {
        let ex = lambda_c::examples::pgm_with_argmin_handler();
        let reference =
            lambda_c::eval_closed(&ex.sig, ex.expr.clone(), ex.ty.clone(), ex.eff.clone()).unwrap();
        let c = pgm_candidates();
        let (out, value) = search_compiled_flat(&Engine::exhaustive(), &c).unwrap();
        assert_eq!(out.loss.0, reference.loss);
        assert_eq!(value, lambda_c::prim::value_to_ground(&reference.terminal));
        let (par, pvalue) = search_compiled_flat(&Engine::with_threads(2), &c).unwrap();
        assert_eq!((par.index, par.loss), (out.index, out.loss));
        assert_eq!(pvalue, value);
    }

    #[test]
    fn deep_chain_search_matches_bigstep() {
        let p = testgen::deep_decide_chain(5);
        let sig = testgen::gen_signature();
        let reference =
            lambda_c::eval_closed(&sig, p.expr.clone(), p.ty.clone(), p.eff.clone()).unwrap();
        let c = LcCandidates::new(lambda_c::compile(&p.expr).unwrap(), ["decide".to_owned()], 5);
        let (out, _) = search_compiled_flat(&Engine::exhaustive(), &c).unwrap();
        assert_eq!(out.loss.0, reference.loss, "engine argmin == handler semantics");
    }
}
