//! The flow differential suite: abstract-interpretation certificates
//! checked against **exhaustive concrete evaluation**. A `NonNegLosses`
//! certificate claims that under forced-choice replay every ambient
//! emission is component-wise non-negative — so this suite replays
//! *every* forced path of certified programs on the machine, recording
//! each ambient partial sum through the prune hook, and demands the
//! partial-sum sequence be monotone non-decreasing from zero (exactly
//! the lower-bound property strict-domination pruning relies on). On
//! top of that: a self-contained pruned-vs-unpruned argmin must agree
//! bit for bit, the `emitted` interval must contain every realised
//! total, the shipped corpora must always earn certificates, every
//! choice point's `partial + residual` must be admissible (at most the
//! least total among its completions), and hand-built adversarial
//! programs (negative constants, `sub`, `neg`, opaque op results) must be
//! refused at analysis time.

use lambda_c::flow::{self, FlowReport, NonNegLosses};
use lambda_c::machine::{
    self, ChoicePoint, Explored, MachError, MachineOutcome, MachinePrune, PruneBound, RunConfig,
    TreeChoices,
};
use lambda_c::testgen::{self, ProgramGen};
use lambda_c::types::{Effect, Type};
use lambda_c::{compile, CompiledProgram, LossVal};
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

fn analyze(p: &CompiledProgram) -> FlowReport {
    flow::analyze(p, &["decide"])
}

/// Forces `decide`: the first `len` of `depth` decisions scripted from
/// `bits` (`len == depth` is one candidate run).
fn forced_cfg(
    p: &CompiledProgram,
    bits: u64,
    len: u32,
    depth: u32,
    prune: Option<MachinePrune>,
) -> RunConfig {
    let ops = p.op_mask(["decide"]);
    let choices = TreeChoices { ops, prefix_bits: bits, prefix_len: len, max_decisions: depth };
    RunConfig { fuel: 0, forced: Some(choices), prune }
}

/// The workspace's monotone `u64` embedding of the scalar loss order
/// (`selc::f64_sort_key` on the scalar, re-derived locally: lambda-c
/// tests do not see the other crates).
fn encode_scalar(l: &LossVal) -> u64 {
    let b = l.as_scalar().to_bits();
    if b & (1 << 63) == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

thread_local! {
    /// Every ambient partial sum the machine saw, in emission order
    /// (recorded through the prune hook by [`Recorder`]).
    static PARTIALS: RefCell<Vec<LossVal>> = const { RefCell::new(Vec::new()) };
}

/// A prune hook that records every partial it is asked about and
/// dominates none: the run is observed, not cut.
struct Recorder;

impl PruneBound for Recorder {
    fn dominated(&self, partial: &LossVal) -> bool {
        PARTIALS.with(|p| p.borrow_mut().push(partial.clone()));
        false
    }
}

/// A prune hook over the least encoded total achieved so far.
struct Threshold(AtomicU64);

impl PruneBound for Threshold {
    fn dominated(&self, partial: &LossVal) -> bool {
        // ordering: Relaxed — single-threaded test loop; the hook's
        // contract only needs a monotone hint anyway.
        encode_scalar(partial) > self.0.load(AtomicOrdering::Relaxed)
    }
}

/// Runs candidate `bits` with every ambient partial sum recorded.
fn run_recorded(p: &CompiledProgram, bits: u64, depth: u32) -> (MachineOutcome, Vec<LossVal>) {
    PARTIALS.with(|p| p.borrow_mut().clear());
    let hook = MachinePrune(Arc::new(Recorder));
    let out = machine::run_with(p, forced_cfg(p, bits, depth, depth, Some(hook)))
        .expect("forced replay of a corpus program succeeds");
    (out, PARTIALS.with(|p| p.borrow().clone()))
}

/// The certificate's concrete meaning, checked exhaustively: on every
/// forced path the ambient partial sums climb monotonically from zero
/// (component-wise), so any partial is a lower bound on the total.
fn assert_certificate_holds_on_every_path(p: &CompiledProgram, depth: u32, label: &str) {
    let report = analyze(p);
    assert!(
        report.certified(),
        "{label}: expected a certificate, got violations {:?} (inconclusive: {})",
        report.violations,
        report.inconclusive
    );
    for bits in 0..(1u64 << depth) {
        let (out, partials) = run_recorded(p, bits, depth);
        let mut prev = LossVal::zero();
        for (k, cur) in partials.iter().enumerate() {
            for c in 0..2 {
                assert!(
                    cur.component(c) >= prev.component(c),
                    "{label} path {bits}: emission {k} decreased component {c}: \
                     {prev:?} -> {cur:?}"
                );
            }
            prev = cur.clone();
        }
        // The final total is the last partial (or zero when the path
        // emits nothing), and the abstract interval must contain it.
        assert_eq!(partials.last().cloned().unwrap_or_else(LossVal::zero), out.loss);
        assert!(
            report.emitted.contains(&out.loss),
            "{label} path {bits}: emitted bound {} excludes realised {:?}",
            report.emitted,
            out.loss
        );
        for c in 0..2 {
            assert!(out.loss.component(c) >= 0.0, "{label} path {bits}: negative total");
        }
    }
}

/// A self-contained argmin over forced paths: pruned (threshold fed by
/// achieved losses) vs unpruned must pick the same `(loss, index)`, and
/// abandon exactly the predicted paths. Returns how many were abandoned.
///
/// The prediction: the threshold at path `i` is the least encoded total
/// over paths `< i` (an abandoned path's total is above it, so it never
/// lowers the minimum), and under the certificate the partial sums climb
/// to the total, so path `i` is abandoned iff its unpruned total encodes
/// strictly above that minimum.
fn assert_pruning_preserves_the_winner(p: &CompiledProgram, depth: u32, label: &str) -> usize {
    let mut best: Option<(u64, LossVal)> = None;
    let mut predicted = Vec::new();
    let mut least = u64::MAX;
    for bits in 0..(1u64 << depth) {
        let out =
            machine::run_with(p, forced_cfg(p, bits, depth, depth, None)).expect("unpruned run");
        let total = encode_scalar(&out.loss);
        if total > least {
            predicted.push(bits);
        }
        least = least.min(total);
        if best.as_ref().is_none_or(|(_, l)| out.loss.cmp_scalar(l) == Ordering::Less) {
            best = Some((bits, out.loss));
        }
    }
    let threshold = Arc::new(Threshold(AtomicU64::new(u64::MAX)));
    let mut pruned_best: Option<(u64, LossVal)> = None;
    let mut abandoned = Vec::new();
    for bits in 0..(1u64 << depth) {
        let hook = MachinePrune(threshold.clone());
        match machine::run_with(p, forced_cfg(p, bits, depth, depth, Some(hook))) {
            Ok(out) => {
                // ordering: Relaxed — single-threaded test loop; the
                // hook's contract only needs a monotone hint anyway.
                threshold.0.fetch_min(encode_scalar(&out.loss), AtomicOrdering::Relaxed);
                if pruned_best
                    .as_ref()
                    .is_none_or(|(_, l)| out.loss.cmp_scalar(l) == Ordering::Less)
                {
                    pruned_best = Some((bits, out.loss));
                }
            }
            Err(MachError::Pruned) => abandoned.push(bits),
            Err(e) => panic!("{label} path {bits}: unexpected machine error {e:?}"),
        }
    }
    let (bi, bl) = best.expect("non-empty space");
    let (pi, pl) = pruned_best.expect("the winner itself is never pruned");
    assert_eq!((pi, pl.cmp_scalar(&bl)), (bi, Ordering::Equal), "{label}: winner moved");
    assert_eq!(
        pl.as_scalar().to_bits(),
        bl.as_scalar().to_bits(),
        "{label}: winner loss not bit-identical"
    );
    assert_eq!(abandoned, predicted, "{label}: abandoned paths");
    abandoned.len()
}

#[test]
fn chain_corpus_is_certified_and_prunes_winner_preservingly() {
    for choices in [1, 4, 7] {
        let p = compile(&testgen::deep_decide_chain(choices).expr).unwrap();
        let label = format!("chain {choices}");
        let report = analyze(&p);
        assert_eq!(report.shape.max, Some(u64::from(choices)), "{label}: exact shape");
        assert_eq!(report.shape.min, u64::from(choices), "{label}: every path decides");
        assert_certificate_holds_on_every_path(&p, choices, &label);
        let abandoned = assert_pruning_preserves_the_winner(&p, choices, &label);
        // On deep chains the strict-domination cut must actually fire —
        // otherwise this test proves nothing about pruning.
        if choices >= 4 {
            assert!(abandoned > 0, "{label}: no path was ever abandoned");
        }
    }
}

/// Walks every choice point below `step` (forced replay in tree mode)
/// and checks that `partial + residual` stays at or below the least
/// total among the point's completions; returns that least total.
fn least_total_checking_residuals(
    cert: &NonNegLosses,
    step: Explored,
    label: &str,
    on_point: &mut dyn FnMut(&ChoicePoint),
) -> f64 {
    let point = match step {
        Explored::Done(out) => return out.loss.as_scalar(),
        Explored::Choice(point) => point,
    };
    on_point(&point);
    let least = [true, false]
        .into_iter()
        .map(|d| {
            let next = point.resume(d).expect("forced replay of a corpus program succeeds");
            least_total_checking_residuals(cert, next, label, on_point)
        })
        .fold(f64::INFINITY, f64::min);
    let (partial, residual) = (point.partial_loss().as_scalar(), cert.residual(&point));
    assert!(
        partial + residual <= least,
        "{label} depth {}: partial {partial} + residual {residual} exceeds the best completion \
         {least}",
        point.depth()
    );
    let bound = cert.lower_bound(&point);
    assert!(bound.as_scalar() >= partial, "{label}: the bound fell below the partial loss");
    assert_ne!(bound.cmp_scalar(&LossVal::scalar(least)), Ordering::Greater, "{label}");
    least
}

/// The admissibility check over one certified program; `on_point` sees
/// every choice point.
fn assert_residuals_admissible(
    p: &CompiledProgram,
    depth: u32,
    label: &str,
    on_point: &mut dyn FnMut(&NonNegLosses, &ChoicePoint),
) {
    let report = analyze(p);
    let cert = report.certificate().unwrap_or_else(|| panic!("{label}: expected a certificate"));
    let root = machine::explore(p, forced_cfg(p, 0, 0, depth, None)).expect("corpus programs run");
    let mut points = 0;
    least_total_checking_residuals(cert, root, label, &mut |point| {
        points += 1;
        on_point(cert, point);
    });
    assert_eq!(points, (1 << depth) - 1, "{label}: every decision is a choice point");
}

/// Residual admissibility: at every choice point of every search-corpus
/// program and every chain up to depth 12, `partial + residual` is at
/// most the least total over the point's completions — so pruning on it
/// never cuts a winner or a tie. On the chain the residual is exact: the
/// sum of the remaining steps' `min(t_i, f_i)`, so a silent fallback to
/// a weaker bound fails too.
#[test]
fn residuals_are_admissible_at_every_choice_point() {
    for seed in 0..48 {
        for choices in 1..=6 {
            let mut g = ProgramGen::new(seed);
            let p = compile(&g.gen_search_program(choices).expr).expect("compiles");
            let label = format!("seed {seed} choices {choices}");
            assert_residuals_admissible(&p, choices, &label, &mut |_, _| {});
        }
    }
    for choices in 1..=12 {
        let p = compile(&testgen::deep_decide_chain(choices).expr).unwrap();
        let step_min = |i: u32| f64::from(((7 * i) % 5).min((3 * i + 2) % 5));
        let mut positive = 0;
        assert_residuals_admissible(&p, choices, &format!("chain {choices}"), &mut |cert, pt| {
            let exact: f64 = (pt.depth()..choices).map(step_min).sum();
            assert_eq!(cert.residual(pt), exact, "chain {choices} depth {}", pt.depth());
            positive += u32::from(exact > 0.0);
        });
        if choices >= 3 {
            assert!(positive > 0, "chain {choices}: the precision check saw only zeros");
        }
    }
}

#[test]
fn paper_example_is_certified_with_its_known_interval() {
    let ex = lambda_c::examples::pgm_with_argmin_handler();
    let p = compile(&ex.expr).unwrap();
    let report = analyze(&p);
    assert!(report.certified());
    // pgm emits loss(2·i), i ∈ {1, 2}: both totals sit in the bound.
    assert!(report.emitted.contains(&LossVal::scalar(2.0)));
    assert!(report.emitted.contains(&LossVal::scalar(4.0)));
    assert_certificate_holds_on_every_path(&p, 1, "pgm");
}

#[test]
fn adversarial_programs_are_refused_at_analysis_time() {
    use lambda_c::build::*;
    let eamb = Effect::single("amb");
    // Each body is wrapped in one decide so the program is a real (if
    // tiny) search; certification must still be refused.
    let adversaries: Vec<(&str, lambda_c::syntax::Expr)> = vec![
        ("negative constant", loss(lc(-1.0))),
        ("negative branch", if_(op("decide", unit()), loss(lc(1.0)), loss(lc(-2.0)))),
        ("sub can cross zero", loss(prim2("sub", lc(1.0), lc(2.0)))),
        ("neg flips the sign", loss(prim1("neg", lc(3.0)))),
        ("mul of mixed signs", loss(mul(lc(-1.0), lc(5.0)))),
    ];
    for (what, body) in adversaries {
        let wrapped = let_(
            eamb.clone(),
            "b",
            Type::bool(),
            op("decide", unit()),
            seq(eamb.clone(), Type::loss(), body, lc(0.0)),
        );
        let e = lambda_c::build::handle0(
            testgen::argmin_handler(&Type::loss(), &Effect::empty()),
            wrapped,
        );
        let p = compile(&e).unwrap();
        let report = analyze(&p);
        assert!(!report.certified(), "{what}: must be refused");
        assert!(
            !report.violations.is_empty() || report.inconclusive,
            "{what}: refusal must carry a reason"
        );
    }
}

#[test]
fn opaque_op_results_are_refused_not_guessed() {
    use lambda_c::build::*;
    // loss(tick()) emits whatever the cnt handler returns — statically
    // unknown, so the analysis must refuse rather than assume.
    let ecnt = Effect::single("cnt");
    let mut g = ProgramGen::new(0);
    let body = seq(ecnt.clone(), Type::loss(), loss(op("tick", unit())), lc(0.0));
    let e = handle0(g.cnt_handler(&Type::loss(), &Effect::empty()), body);
    let p = compile(&e).unwrap();
    let report = analyze(&p);
    assert!(!report.certified(), "opaque emission must not be certified");
}

/// The search corpus always earns a certificate, the certificate's
/// concrete meaning holds on every forced path, and pruning abandons
/// exactly the predicted paths — over every program the generator's
/// `(seed 0..1000, choices 1..6)` grid yields.
#[test]
fn search_corpus_certificates_hold_exhaustively() {
    for seed in 0u64..1000 {
        for choices in 1u32..6 {
            let mut g = ProgramGen::new(seed);
            let p = compile(&g.gen_search_program(choices).expr).expect("compiles");
            let label = format!("seed {seed} choices {choices}");
            assert_certificate_holds_on_every_path(&p, choices, &label);
            assert_pruning_preserves_the_winner(&p, choices, &label);
        }
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(16))]

    /// One-direction check on the unconstrained corpus (negative
    /// constants, `sub`, opaque ops all occur): whenever the analysis
    /// *does* certify, the concrete ambient total cannot be negative.
    #[test]
    fn certification_is_sound_on_the_unconstrained_corpus(
        seed in 0u64..2000,
        depth in 1u32..5,
        residual in any::<bool>(),
    ) {
        let mut g = ProgramGen::new(seed);
        let gp = g.gen_program(depth, residual);
        let p = compile(&gp.expr).expect("compiles");
        let report = analyze(&p);
        if report.certified() {
            let out = machine::run(&p).expect("corpus programs run");
            for c in 0..2 {
                prop_assert!(
                    out.loss.component(c) >= 0.0,
                    "seed {seed}: certified but emitted {:?}",
                    out.loss
                );
            }
            prop_assert!(report.emitted.contains(&out.loss));
        }
    }
}
