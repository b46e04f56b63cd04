//! E14: the λC bridge — the paper's calculus as an engine workload.
//!
//! Two questions, each on paper examples and `testgen` deep programs:
//!
//! * **Evaluator cost** — Fig-6 smallstep (explicit step loop), Fig-7
//!   bigstep (the fueled iterator), and the compiled environment machine
//!   on the *same* programs: what does clone-and-rename substitution
//!   cost against closures + persistent environments?
//! * **Search cost** — for argmin-chooser programs, the handler's own
//!   probing evaluation (exponential re-evaluation of futures) against
//!   the bridge's flat engine search over forced decision paths. (The
//!   cached and pruned tree walk is E15's subject.)
//!
//! `SELC_BENCH_SMOKE=1` shrinks sizes for CI.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lambda_c::bigstep::{eval_closed, DEFAULT_FUEL};
use lambda_c::smallstep::{step, StepResult};
use lambda_c::syntax::Expr;
use lambda_c::testgen::{deep_decide_chain, deep_let_chain, gen_signature, GenProgram};
use lambda_c::{compile, machine, CompiledProgram, LossVal, Signature};
use lambda_rt::{search_compiled_flat, LcCandidates};
use selc_engine::SequentialEngine;

fn smoke() -> bool {
    std::env::var("SELC_BENCH_SMOKE").is_ok()
}

/// The explicit Fig-6 loop (materialising every intermediate term).
fn smallstep_loss(sig: &Signature, p: &GenProgram) -> LossVal {
    let g = Expr::zero_cont(p.ty.clone(), p.eff.clone()).rc();
    let mut cur = p.expr.clone();
    let mut total = LossVal::zero();
    for _ in 0..DEFAULT_FUEL {
        match step(sig, &g, &p.eff, &cur).expect("steps") {
            StepResult::Step { loss, expr } => {
                total = total.add(&loss);
                cur = expr;
            }
            _ => return total,
        }
    }
    panic!("out of fuel");
}

fn bigstep_loss(sig: &Signature, p: &GenProgram) -> LossVal {
    eval_closed(sig, p.expr.clone(), p.ty.clone(), p.eff.clone()).expect("evaluates").loss
}

fn machine_loss(c: &CompiledProgram) -> LossVal {
    machine::run(c).expect("runs").loss
}

/// Evaluator comparison on one program, with equality asserted once.
fn bench_evaluators(c: &mut Criterion, family: &str, sig: &Signature, p: &GenProgram) {
    let compiled = compile(&p.expr).expect("compiles");
    let reference = bigstep_loss(sig, p);
    assert_eq!(smallstep_loss(sig, p), reference, "{family}: smallstep agrees");
    assert_eq!(machine_loss(&compiled), reference, "{family}: compiled agrees");

    let mut g = c.benchmark_group(format!("e14_lambda/{family}"));
    g.bench_function("smallstep", |b| b.iter(|| black_box(smallstep_loss(sig, p))));
    g.bench_function("bigstep", |b| b.iter(|| black_box(bigstep_loss(sig, p))));
    g.bench_function("compiled", |b| b.iter(|| black_box(machine_loss(&compiled))));
    g.finish();
}

fn bench_paper_examples(c: &mut Criterion) {
    let ex = lambda_c::examples::pgm_with_argmin_handler();
    let p = GenProgram { expr: ex.expr, ty: ex.ty, eff: ex.eff };
    bench_evaluators(c, "pgm", &ex.sig, &p);

    let ex = lambda_c::examples::password();
    let p = GenProgram { expr: ex.expr, ty: ex.ty, eff: ex.eff };
    bench_evaluators(c, "password", &ex.sig, &p);
}

fn bench_deep_let(c: &mut Criterion) {
    let sig = gen_signature();
    let depth = if smoke() { 64 } else { 256 };
    bench_evaluators(c, "deep_let", &sig, &deep_let_chain(depth));
}

fn bench_decide_chain(c: &mut Criterion) {
    let sig = gen_signature();
    // The reference interpreters re-evaluate O(3^choices) futures, so the
    // chain stays modest even in the full run (the machine and the
    // engine search would happily take far more).
    let choices = if smoke() { 4 } else { 6 };
    let p = deep_decide_chain(choices);
    bench_evaluators(c, "decide_chain", &sig, &p);

    // The search side: the probing handler's own evaluation explores
    // O(2^choices) futures by re-evaluation; the bridge fans the same
    // argmin over forced paths on the engine.
    let reference = bigstep_loss(&sig, &p);
    let cands =
        LcCandidates::new(compile(&p.expr).expect("compiles"), ["decide".to_owned()], choices);
    let seq = SequentialEngine::exhaustive();
    let (out, _) = search_compiled_flat(&seq, &cands).unwrap();
    assert_eq!(out.loss.0, reference, "engine argmin == handler semantics");

    let mut g = c.benchmark_group("e14_lambda/decide_search");
    g.bench_function("machine_probing", |b| {
        let compiled = compile(&p.expr).expect("compiles");
        b.iter(|| black_box(machine_loss(&compiled)))
    });
    g.bench_function("search_seq", |b| b.iter(|| black_box(search_compiled_flat(&seq, &cands))));
    g.finish();
}

criterion_group!(benches, bench_paper_examples, bench_deep_let, bench_decide_chain);
criterion_main!(benches);
