//! A generator of random *well-typed* λC programs, used by the
//! metatheory property tests (progress, preservation, termination,
//! adequacy) and by the fuzzing benches.
//!
//! The generator works over a fixed two-effect hierarchical signature —
//! `amb { decide : () → bool }` and `cnt { tick : () → loss }` — and
//! builds expressions type-directedly, so every output typechecks by
//! construction (asserted in the tests, not assumed). Handlers are drawn
//! from a small family of templates: constant choosers, a
//! choice-continuation-probing argmin, and a parameterized counter; that
//! family exercises every operational rule including (R5)'s choice
//! continuations and (S1)'s parameter threading.

use crate::build;
use crate::sig::{OpSig, Signature};
use crate::syntax::{Expr, Handler};
use crate::types::{Effect, Type};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated closed program.
#[derive(Clone, Debug)]
pub struct GenProgram {
    /// The expression.
    pub expr: Expr,
    /// Its type.
    pub ty: Type,
    /// Its (residual) effect.
    pub eff: Effect,
}

/// The fixed signature used by the generator.
pub fn gen_signature() -> Signature {
    let mut sig = Signature::new();
    sig.declare("amb", vec![("decide".into(), OpSig { arg: Type::unit(), ret: Type::bool() })])
        .expect("fresh signature");
    sig.declare("cnt", vec![("tick".into(), OpSig { arg: Type::unit(), ret: Type::loss() })])
        .expect("fresh signature");
    sig
}

/// The program generator.
pub struct ProgramGen {
    rng: StdRng,
    var_counter: u64,
}

impl ProgramGen {
    /// A deterministic generator from a seed.
    pub fn new(seed: u64) -> ProgramGen {
        ProgramGen { rng: StdRng::seed_from_u64(seed), var_counter: 0 }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.var_counter += 1;
        format!("{prefix}{}", self.var_counter)
    }

    fn small_loss(&mut self) -> Expr {
        let v: i32 = self.rng.gen_range(-3..=5);
        Expr::lossc(v as f64)
    }

    fn vars_of(env: &[(String, Type)], ty: &Type) -> Vec<String> {
        env.iter().filter(|(_, t)| t == ty).map(|(x, _)| x.clone()).collect()
    }

    /// Generates `e : ty ! eff` under `env`, with recursion budget `depth`.
    pub fn gen_expr(
        &mut self,
        env: &[(String, Type)],
        ty: &Type,
        eff: &Effect,
        depth: u32,
    ) -> Expr {
        // At depth 0, emit a leaf of the right type.
        if depth == 0 {
            return self.gen_leaf(env, ty);
        }
        // Sometimes reference a variable of the right type.
        let vars = Self::vars_of(env, ty);
        if !vars.is_empty() && self.rng.gen_bool(0.2) {
            let i = self.rng.gen_range(0..vars.len());
            return Expr::Var(vars[i].clone());
        }
        match ty {
            Type::Base(crate::types::BaseTy::Loss) => self.gen_loss_expr(env, eff, depth),
            t if *t == Type::bool() => self.gen_bool_expr(env, eff, depth),
            t if *t == Type::unit() => self.gen_unit_expr(env, eff, depth),
            Type::Base(crate::types::BaseTy::Char) => {
                let c = self.gen_expr(env, &Type::bool(), eff, depth - 1);
                build::if_(c, build::ch('a'), build::ch('b'))
            }
            Type::Tuple(ts) => {
                let parts =
                    ts.iter().map(|t| self.gen_expr(env, t, eff, depth - 1)).collect::<Vec<_>>();
                build::tuple(parts)
            }
            _ => self.gen_leaf(env, ty),
        }
    }

    fn gen_leaf(&mut self, env: &[(String, Type)], ty: &Type) -> Expr {
        let vars = Self::vars_of(env, ty);
        if !vars.is_empty() && self.rng.gen_bool(0.5) {
            let i = self.rng.gen_range(0..vars.len());
            return Expr::Var(vars[i].clone());
        }
        match ty {
            Type::Base(crate::types::BaseTy::Loss) => self.small_loss(),
            Type::Base(crate::types::BaseTy::Char) => {
                build::ch(if self.rng.gen_bool(0.5) { 'a' } else { 'b' })
            }
            Type::Base(crate::types::BaseTy::Str) => build::s("s"),
            Type::Nat => Expr::nat(self.rng.gen_range(0..3)),
            Type::Tuple(ts) => {
                let parts = ts.iter().map(|t| self.gen_leaf(env, t)).collect::<Vec<_>>();
                build::tuple(parts)
            }
            t if *t == Type::bool() => Expr::bool(self.rng.gen_bool(0.5)),
            Type::Sum(a, _) => Expr::Inl {
                lty: (**a).clone(),
                rty: match ty {
                    Type::Sum(_, b) => (**b).clone(),
                    _ => unreachable!(),
                },
                e: self.gen_leaf(env, a).rc(),
            },
            Type::List(t) => Expr::Nil((**t).clone()),
            Type::Fun(a, b, fe) => {
                let x = self.fresh("f");
                let body = self.gen_leaf(&[], b);
                build::lam(fe.clone(), &x, (**a).clone(), body)
            }
        }
    }

    fn gen_loss_expr(&mut self, env: &[(String, Type)], eff: &Effect, depth: u32) -> Expr {
        let d = depth - 1;
        match self.rng.gen_range(0..10) {
            0 | 1 => self.small_loss(),
            2 => build::add(
                self.gen_expr(env, &Type::loss(), eff, d),
                self.gen_expr(env, &Type::loss(), eff, d),
            ),
            3 => build::mul(self.small_loss(), self.gen_expr(env, &Type::loss(), eff, d)),
            4 => build::if_(
                self.gen_expr(env, &Type::bool(), eff, d),
                self.gen_expr(env, &Type::loss(), eff, d),
                self.gen_expr(env, &Type::loss(), eff, d),
            ),
            5 if eff.contains("cnt") => build::op("tick", build::unit()),
            6 => {
                // x ← e1; e2
                let x = self.fresh("x");
                let e1 = self.gen_expr(env, &Type::loss(), eff, d);
                let mut env2 = env.to_vec();
                env2.push((x.clone(), Type::loss()));
                let e2 = self.gen_expr(&env2, &Type::loss(), eff, d);
                build::let_(eff.clone(), &x, Type::loss(), e1, e2)
            }
            7 => {
                // e ◮ λx. e2 : loss (the then construct)
                let x = self.fresh("x");
                let e1 = self.gen_expr(env, &Type::loss(), eff, d);
                let mut env2 = env.to_vec();
                env2.push((x.clone(), Type::loss()));
                let e2 = self.gen_expr(&env2, &Type::loss(), eff, d);
                build::then(e1, eff.clone(), &x, Type::loss(), e2)
            }
            8 => {
                build::local0(eff.clone(), Type::loss(), self.gen_expr(env, &Type::loss(), eff, d))
            }
            _ => self.maybe_handled(env, &Type::loss(), eff, d),
        }
    }

    fn gen_bool_expr(&mut self, env: &[(String, Type)], eff: &Effect, depth: u32) -> Expr {
        let d = depth - 1;
        match self.rng.gen_range(0..7) {
            0 => Expr::bool(self.rng.gen_bool(0.5)),
            1 => build::leq(
                self.gen_expr(env, &Type::loss(), eff, d),
                self.gen_expr(env, &Type::loss(), eff, d),
            ),
            2 if eff.contains("amb") => build::op("decide", build::unit()),
            3 => build::if_(
                self.gen_expr(env, &Type::bool(), eff, d),
                self.gen_expr(env, &Type::bool(), eff, d),
                self.gen_expr(env, &Type::bool(), eff, d),
            ),
            4 => {
                let x = self.fresh("b");
                let e1 = self.gen_expr(env, &Type::bool(), eff, d);
                let mut env2 = env.to_vec();
                env2.push((x.clone(), Type::bool()));
                let e2 = self.gen_expr(&env2, &Type::bool(), eff, d);
                build::let_(eff.clone(), &x, Type::bool(), e1, e2)
            }
            _ => self.maybe_handled(env, &Type::bool(), eff, d),
        }
    }

    fn gen_unit_expr(&mut self, env: &[(String, Type)], eff: &Effect, depth: u32) -> Expr {
        let d = depth - 1;
        match self.rng.gen_range(0..4) {
            0 => build::unit(),
            1 => build::loss(self.gen_expr(env, &Type::loss(), eff, d)),
            2 => build::reset(self.gen_unit_expr(env, eff, d.max(1))),
            _ => build::seq(
                eff.clone(),
                Type::unit(),
                build::loss(self.gen_expr(env, &Type::loss(), eff, d)),
                build::unit(),
            ),
        }
    }

    /// Wraps a generated body in a handler for `amb` or `cnt` (or falls
    /// back to a plain subexpression when the coin says so).
    fn maybe_handled(
        &mut self,
        env: &[(String, Type)],
        ty: &Type,
        eff: &Effect,
        depth: u32,
    ) -> Expr {
        if depth == 0 {
            return self.gen_leaf(env, ty);
        }
        match self.rng.gen_range(0..3) {
            0 => {
                // handle amb with a random chooser template
                let inner_eff = eff.plus("amb");
                let body = self.gen_expr(env, ty, &inner_eff, depth);
                let h = self.amb_handler(ty, eff);
                build::handle0(h, body)
            }
            1 => {
                // handle cnt with the parameterized counter
                let inner_eff = eff.plus("cnt");
                let body = self.gen_expr(env, ty, &inner_eff, depth);
                let h = self.cnt_handler(ty, eff);
                build::handle(h, Expr::nat(0), body)
            }
            _ => self.gen_leaf(env, ty),
        }
    }

    /// One of three `amb` handler templates at computation type `ty`.
    pub fn amb_handler(&mut self, ty: &Type, eff: &Effect) -> Handler {
        use build::*;
        let kind = self.rng.gen_range(0..3);
        let clause = match kind {
            0 => app(v("k"), pair(v("p"), Expr::tt())),
            1 => app(v("k"), pair(v("p"), Expr::ff())),
            _ => {
                // argmin over the two probed losses
                let_(
                    eff.clone(),
                    "y",
                    Type::loss(),
                    app(v("l"), pair(v("p"), Expr::tt())),
                    let_(
                        eff.clone(),
                        "z",
                        Type::loss(),
                        app(v("l"), pair(v("p"), Expr::ff())),
                        if_(
                            leq(v("y"), v("z")),
                            app(v("k"), pair(v("p"), Expr::tt())),
                            app(v("k"), pair(v("p"), Expr::ff())),
                        ),
                    ),
                )
            }
        };
        HandlerBuilder::new("amb", ty.clone(), ty.clone(), eff.clone())
            .on("decide", "p", "x", "l", "k", clause)
            .build()
    }

    /// The parameterized counter handler for `cnt` at computation type
    /// `ty`.
    pub fn cnt_handler(&mut self, ty: &Type, eff: &Effect) -> Handler {
        use build::*;
        HandlerBuilder::new("cnt", ty.clone(), ty.clone(), eff.clone())
            .par_ty(Type::Nat)
            .on(
                "tick",
                "p",
                "x",
                "l",
                "k",
                app(v("k"), pair(Expr::Succ(v("p").rc()), prim1("nat_to_loss", v("p")))),
            )
            .build()
    }

    /// Generates a closed program. `residual_amb` leaves `amb` unhandled
    /// (for giant-step adequacy testing); otherwise the program is fully
    /// handled.
    pub fn gen_program(&mut self, depth: u32, residual_amb: bool) -> GenProgram {
        let ty = match self.rng.gen_range(0..3) {
            0 => Type::loss(),
            1 => Type::bool(),
            _ => Type::unit(),
        };
        let eff = if residual_amb { Effect::single("amb") } else { Effect::empty() };
        let expr = self.gen_expr(&[], &ty, &eff, depth);
        GenProgram { expr, ty, eff }
    }
}

/// The argmin chooser for `decide`: probe both losses, resume with the
/// cheaper branch, ties to `true` — the λC form of the paper's §2.3
/// handler and the semantics the engine bridge's forced-path search
/// reproduces.
pub fn argmin_handler(ty: &Type, eff: &Effect) -> Handler {
    use build::*;
    HandlerBuilder::new("amb", ty.clone(), ty.clone(), eff.clone())
        .on(
            "decide",
            "p",
            "x",
            "l",
            "k",
            let_(
                eff.clone(),
                "y",
                Type::loss(),
                app(v("l"), pair(v("p"), Expr::tt())),
                let_(
                    eff.clone(),
                    "z",
                    Type::loss(),
                    app(v("l"), pair(v("p"), Expr::ff())),
                    if_(
                        leq(v("y"), v("z")),
                        app(v("k"), pair(v("p"), Expr::tt())),
                        app(v("k"), pair(v("p"), Expr::ff())),
                    ),
                ),
            ),
        )
        .build()
}

/// A deterministic deep `let` chain — no effects, every binder referenced
/// by the next one, so the substitution interpreter pays a full-body
/// clone per β-step while the environment machine pays one cons:
/// `x1 ← 1; x2 ← x1 + 1; …; xn`.
pub fn deep_let_chain(depth: u32) -> GenProgram {
    use build::*;
    let e0 = Effect::empty();
    let mut e = v(&format!("x{depth}"));
    for i in (1..=depth).rev() {
        let rhs = if i == 1 { lc(1.0) } else { add(v(&format!("x{}", i - 1)), lc(1.0)) };
        e = let_(e0.clone(), &format!("x{i}"), Type::loss(), rhs, e);
    }
    GenProgram { expr: e, ty: Type::loss(), eff: Effect::empty() }
}

/// A deterministic deep decide chain under one top-level argmin handler:
/// `choices` nested decisions, each emitting a non-negative loss that
/// depends on the decision (`true` costs `(7i mod 5)`, `false`
/// `(3i + 2 mod 5)`), returning the total. The probing handler evaluates
/// `O(2^choices)` futures — the workload where the compiled forced-path
/// search shines.
pub fn deep_decide_chain(choices: u32) -> GenProgram {
    use build::*;
    let eamb = Effect::single("amb");
    let mut body = lc(0.0);
    for i in (0..choices).rev() {
        let t = f64::from((7 * i) % 5);
        let f = f64::from((3 * i + 2) % 5);
        body = let_(
            eamb.clone(),
            &format!("b{i}"),
            Type::bool(),
            op("decide", unit()),
            seq(eamb.clone(), Type::unit(), loss(if_(v(&format!("b{i}")), lc(t), lc(f))), body),
        );
    }
    let expr = handle0(argmin_handler(&Type::loss(), &Effect::empty()), body);
    GenProgram { expr, ty: Type::loss(), eff: Effect::empty() }
}

/// A decide chain run inside a `tick` clause whose `k` resumes only
/// after the last decision, under one top-level argmin handler: every
/// choice point's state holds that live resume continuation, so none has
/// a [`crate::machine::StateKey`]. Step `i` costs `0`/`1` for
/// `true`/`false` on even `i` and the reverse on odd `i`, so different
/// paths reach equal partial losses, which keyed states would share.
pub fn decide_chain_holding_k(choices: u32) -> GenProgram {
    use build::*;
    let eamb = Effect::single("amb");
    let mut body = app(v("k"), pair(v("p"), lc(0.0)));
    for i in (0..choices).rev() {
        let b = format!("b{i}");
        let (t, f) = if i % 2 == 0 { (0.0, 1.0) } else { (1.0, 0.0) };
        body = let_(
            eamb.clone(),
            &b,
            Type::bool(),
            op("decide", unit()),
            seq(eamb.clone(), Type::unit(), loss(if_(v(&b), lc(t), lc(f))), body),
        );
    }
    let counter = HandlerBuilder::new("cnt", Type::loss(), Type::loss(), eamb)
        .on("tick", "p", "x", "l", "k", body)
        .build();
    let inner = handle0(counter, op("tick", unit()));
    let expr = handle0(argmin_handler(&Type::loss(), &Effect::empty()), inner);
    GenProgram { expr, ty: Type::loss(), eff: Effect::empty() }
}

impl ProgramGen {
    /// Generates a *search program*: a fully handled chain of `choices`
    /// decides under one top-level argmin handler, each decision followed
    /// by a random **non-negative** loss depending on the decisions so
    /// far, returning `0`. The fragment deliberately avoids
    /// `local`/`reset`/nested choosers so that minimising total emitted
    /// loss over forced decision paths coincides with the handler
    /// semantics — the corpus for the engine bridge's differential suite.
    pub fn gen_search_program(&mut self, choices: u32) -> GenProgram {
        use build::*;
        let eamb = Effect::single("amb");
        let mut bound: Vec<String> = Vec::new();
        let mut steps: Vec<(String, Expr)> = Vec::new();
        for i in 0..choices {
            let b = format!("b{i}");
            // Loss for this step: a sum of 1–2 decision-dependent
            // non-negative contributions over the variables bound so far.
            let mut contrib = self.nonneg_contrib(&b);
            for _ in 0..self.rng.gen_range(0..2_u32) {
                if let Some(prev) = self.pick_var(&bound) {
                    contrib = add(contrib, self.nonneg_contrib(&prev));
                }
            }
            bound.push(b.clone());
            steps.push((b, contrib));
        }
        let mut body: Expr = lc(0.0);
        for (b, contrib) in steps.into_iter().rev() {
            body = let_(
                eamb.clone(),
                &b,
                Type::bool(),
                op("decide", unit()),
                seq(eamb.clone(), Type::unit(), loss(contrib), body),
            );
        }
        let expr = handle0(argmin_handler(&Type::loss(), &Effect::empty()), body);
        GenProgram { expr, ty: Type::loss(), eff: Effect::empty() }
    }

    fn nonneg_contrib(&mut self, var: &str) -> Expr {
        use build::*;
        let t = f64::from(self.rng.gen_range(0..=5_u32));
        let f = f64::from(self.rng.gen_range(0..=5_u32));
        if_(v(var), lc(t), lc(f))
    }

    fn pick_var(&mut self, bound: &[String]) -> Option<String> {
        if bound.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..bound.len());
        Some(bound[i].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typecheck::check_program;

    #[test]
    fn generated_programs_typecheck() {
        let sig = gen_signature();
        for seed in 0..200 {
            let mut g = ProgramGen::new(seed);
            let p = g.gen_program(4, seed % 3 == 0);
            let ty = check_program(&sig, &p.expr, &p.eff)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", p.expr));
            assert_eq!(ty, p.ty, "seed {seed}");
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = ProgramGen::new(7).gen_program(4, false);
        let b = ProgramGen::new(7).gen_program(4, false);
        assert_eq!(a.expr, b.expr);
    }

    #[test]
    fn signature_is_well_founded() {
        assert!(gen_signature().check_well_founded().is_ok());
    }

    #[test]
    fn search_programs_typecheck_and_are_deterministic() {
        let sig = gen_signature();
        for seed in 0..40 {
            let mut g = ProgramGen::new(seed);
            let p = g.gen_search_program(1 + (seed % 5) as u32);
            let ty = check_program(&sig, &p.expr, &p.eff)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", p.expr));
            assert_eq!(ty, Type::loss());
        }
        let a = ProgramGen::new(3).gen_search_program(4);
        let b = ProgramGen::new(3).gen_search_program(4);
        assert_eq!(a.expr, b.expr);
    }

    #[test]
    fn deep_chains_typecheck_and_evaluate() {
        let sig = gen_signature();
        let p = deep_let_chain(40);
        assert_eq!(check_program(&sig, &p.expr, &p.eff).unwrap(), Type::loss());
        let out = crate::bigstep::eval_closed(&sig, p.expr, p.ty, p.eff).unwrap();
        assert_eq!(out.terminal, Expr::lossc(40.0));

        let p = decide_chain_holding_k(3);
        assert_eq!(check_program(&sig, &p.expr, &p.eff).unwrap(), Type::loss());
        let out = crate::bigstep::eval_closed(&sig, p.expr, p.ty, p.eff).unwrap();
        assert_eq!(out.loss, crate::LossVal::scalar(0.0), "every step has a free branch");

        let p = deep_decide_chain(4);
        assert_eq!(check_program(&sig, &p.expr, &p.eff).unwrap(), Type::loss());
        let out = crate::bigstep::eval_closed(&sig, p.expr, p.ty, p.eff).unwrap();
        assert!(out.is_value());
        // Per-step minimum of {true-cost, false-cost}: min contributions
        // are independent here, so the argmin total is their sum.
        let expected: f64 = (0..4).map(|i| f64::from(((7 * i) % 5).min((3 * i + 2) % 5))).sum();
        assert_eq!(out.loss, crate::LossVal::scalar(expected));
    }
}
