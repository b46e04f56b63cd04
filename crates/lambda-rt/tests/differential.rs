//! The λC bridge differential suite: the compiled environment machine
//! must be **bit-identical** — loss and terminal — to the Fig-6
//! smallstep reference and the Fig-7 bigstep evaluator, on every paper
//! example and on `testgen` corpora; and searches over compiled
//! candidates (the flat sequential scan, the tree walk in parallel under
//! `SELC_THREADS`, cached under `SELC_CACHE_SHARDS`/`SELC_CACHE_CAP`,
//! pruned) must reproduce the argmin handler's winner bit-identically.

use lambda_c::bigstep::{eval_closed, DEFAULT_FUEL};
use lambda_c::loss::LossVal;
use lambda_c::prim::value_to_ground;
use lambda_c::smallstep::{step, StepResult};
use lambda_c::syntax::Expr;
use lambda_c::testgen::{self, ProgramGen};
use lambda_c::types::{Effect, Type};
use lambda_c::{compile, machine, Signature};
use lambda_rt::{search_compiled_cached, search_compiled_flat, LcCandidates, LcTransCache};
use selc_engine::{ParallelEngine, SequentialEngine, TreeEngine};

/// Runs the explicit Fig-6 smallstep loop (not via bigstep, so the two
/// reference layers are exercised independently).
fn smallstep_outcome(
    sig: &Signature,
    e: &Expr,
    ty: &Type,
    eff: &Effect,
) -> (LossVal, Option<Expr>, Option<String>) {
    let g = Expr::zero_cont(ty.clone(), eff.clone()).rc();
    let mut cur = e.clone();
    let mut total = LossVal::zero();
    for _ in 0..DEFAULT_FUEL {
        match step(sig, &g, eff, &cur).expect("reference stepping succeeds") {
            StepResult::Step { loss, expr } => {
                total = total.add(&loss);
                cur = expr;
            }
            StepResult::Value => return (total, Some(cur), None),
            StepResult::Stuck { op } => return (total, Some(cur), Some(op)),
        }
    }
    panic!("smallstep did not terminate");
}

/// Demands bit-identical loss (and ground terminal, when the program
/// terminates) across smallstep, bigstep, and the compiled machine.
fn assert_three_way(sig: &Signature, e: &Expr, ty: &Type, eff: &Effect, label: &str) {
    let (ss_loss, ss_term, ss_stuck) = smallstep_outcome(sig, e, ty, eff);
    let bs = eval_closed(sig, e.clone(), ty.clone(), eff.clone()).expect("bigstep succeeds");
    let mc = machine::run(&compile(e).expect("compiles")).expect("machine succeeds");

    assert_eq!(bs.loss, ss_loss, "{label}: bigstep vs smallstep loss");
    assert_eq!(mc.loss, ss_loss, "{label}: machine vs smallstep loss");
    assert_eq!(bs.stuck_on, ss_stuck, "{label}: bigstep vs smallstep stuckness");
    assert_eq!(mc.stuck_on, ss_stuck, "{label}: machine vs smallstep stuckness");
    if ss_stuck.is_none() {
        let ss_ground = value_to_ground(&ss_term.expect("terminal"));
        assert_eq!(
            value_to_ground(&bs.terminal),
            ss_ground,
            "{label}: bigstep vs smallstep terminal"
        );
        assert_eq!(mc.ground_value(), ss_ground, "{label}: machine vs smallstep terminal");
    }
}

#[test]
fn paper_examples_agree_across_all_three_evaluators() {
    for (label, ex) in [
        ("decide_all", lambda_c::examples::decide_all()),
        ("pgm_argmin", lambda_c::examples::pgm_with_argmin_handler()),
        ("counter", lambda_c::examples::counter()),
        ("minimax", lambda_c::examples::minimax()),
        ("password", lambda_c::examples::password()),
        ("tune_lr", lambda_c::examples::tune_lr(1.0, 0.5)),
    ] {
        assert_three_way(&ex.sig, &ex.expr, &ex.ty, &ex.eff, label);
    }
}

#[test]
fn testgen_corpus_agrees_across_all_three_evaluators() {
    let sig = testgen::gen_signature();
    for seed in 0..120 {
        let mut g = ProgramGen::new(seed);
        // Every third program leaves `amb` unhandled, exercising the
        // stuck-propagation paths of all three evaluators.
        let p = g.gen_program(4, seed % 3 == 0);
        assert_three_way(&sig, &p.expr, &p.ty, &p.eff, &format!("testgen seed {seed}"));
    }
}

#[test]
fn deep_chains_agree_across_all_three_evaluators() {
    // Both reference evaluators recurse over the whole term per step and
    // the machine nests Rust frames per chain level; give the deep
    // programs a real stack instead of the 2 MiB test default.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let sig = testgen::gen_signature();
            // Sizes bounded by the *reference* interpreter: smallstep is
            // quadratic in the chain and exponential in the choices, and
            // this suite runs it in debug builds (e14 benches the big
            // sizes in release).
            for p in [testgen::deep_let_chain(100), testgen::deep_decide_chain(5)] {
                assert_three_way(&sig, &p.expr, &p.ty, &p.eff, "deep chain");
            }
        })
        .expect("spawns")
        .join()
        .expect("deep-chain differential passes");
}

/// The search-corpus equivalence: for the argmin fragment, every engine
/// configuration must return the handler's own winner — loss and
/// terminal bit-identical to the Fig-6 reference — sequentially, in
/// parallel (`SELC_THREADS` workers), cached (`SELC_CACHE_CAP` capacity,
/// possibly evicting constantly), and with branch-and-bound abandonment.
#[test]
fn engine_search_reproduces_the_argmin_handler_bit_identically() {
    let sig = testgen::gen_signature();
    let shared_cache = LcTransCache::from_env();
    // Seed count bounded by the reference interpreter: the probing argmin
    // handler costs O(2^choices) substitution runs per seed in debug.
    for seed in 0..10 {
        let mut g = ProgramGen::new(1000 + seed);
        let choices = 1 + (seed % 5) as u32;
        let p = g.gen_search_program(choices);
        let reference =
            eval_closed(&sig, p.expr.clone(), p.ty.clone(), p.eff.clone()).expect("reference");
        let ref_ground = value_to_ground(&reference.terminal);

        let cands =
            LcCandidates::new(compile(&p.expr).expect("compiles"), ["decide".to_owned()], choices);

        // Plain sequential search.
        let (seq, seq_v) = search_compiled_flat(&SequentialEngine::exhaustive(), &cands).unwrap();
        assert_eq!(seq.loss.0, reference.loss, "seed {seed}: engine argmin == handler loss");
        assert_eq!(seq_v, ref_ground, "seed {seed}: engine winner == handler terminal");

        // The parallel tree walk, pruned, over the shared (possibly
        // tiny, evicting) transposition table, cold then warm. Pruning
        // runs under the flow certificate, which the search corpus
        // (non-negative constant losses) must always earn.
        let tree = TreeEngine::auto();
        let cert = cands.certificate().expect("search corpus is flow-certifiable");
        let (pout, pv) = search_compiled_cached(&tree, &cands, &shared_cache, Some(cert)).unwrap();
        assert_eq!((pout.index, pout.loss.0.clone()), (seq.index, reference.loss.clone()));
        assert_eq!(pv, ref_ground);
        let (warm, wv) = search_compiled_cached(&tree, &cands, &shared_cache, Some(cert)).unwrap();
        assert_eq!((warm.index, warm.loss.0.clone()), (seq.index, reference.loss.clone()));
        assert_eq!(wv, ref_ground);

        // The flat scan on the parallel engine.
        if seed < 3 {
            let (rout, rv) = search_compiled_flat(&ParallelEngine::auto(), &cands).unwrap();
            assert_eq!((rout.index, rout.loss.0), (seq.index, reference.loss.clone()));
            assert_eq!(rv, ref_ground);
        }
    }
}

/// Ties must break identically: equal-cost branches pick `true` in the
/// handler (`leq`) and the smallest index (= `true`-first) in the engine.
#[test]
fn tie_breaking_matches_the_handler() {
    use lambda_c::build::*;
    let sig = testgen::gen_signature();
    let eamb = Effect::single("amb");
    // Two decides, every path costs 1.0.
    let mut body: Expr = lc(0.0);
    for i in (0..2).rev() {
        body = let_(
            eamb.clone(),
            &format!("b{i}"),
            Type::bool(),
            op("decide", unit()),
            seq(eamb.clone(), Type::unit(), loss(lc(1.0)), body),
        );
    }
    let e = handle0(testgen::argmin_handler(&Type::loss(), &Effect::empty()), body);
    let reference = eval_closed(&sig, e.clone(), Type::loss(), Effect::empty()).unwrap();
    let cands = LcCandidates::new(compile(&e).unwrap(), ["decide".to_owned()], 2);
    let (out, _) = search_compiled_flat(&ParallelEngine::auto(), &cands).unwrap();
    assert_eq!(out.index, 0, "all-true is the lexicographically first minimal path");
    assert_eq!(out.loss.0, reference.loss);
}
