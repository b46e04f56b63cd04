//! Primitive (first-order) functions `f : σ → τ` and ground values.
//!
//! The paper assumes a stock of basic functions on first-order types,
//! including `+ : (loss, loss) → loss`, and deterministic total reductions
//! `f(v) → v'` for them (rule R1). [`Ground`] is the shared first-order
//! value representation used both by the operational semantics (converted
//! from syntactic values) and by the denotational semantics, so the two
//! interpreters agree on primitives by construction.

use crate::loss::LossVal;
use crate::syntax::{Const, Expr};
use crate::types::{BaseTy, Type};
use std::fmt;

/// A first-order ("ground") value.
#[derive(Clone, Debug, PartialEq)]
pub enum Ground {
    /// A loss.
    Loss(LossVal),
    /// A character.
    Char(char),
    /// A string.
    Str(String),
    /// A natural number.
    Nat(u64),
    /// A tuple.
    Tuple(Vec<Ground>),
    /// A sum: `false` = left, `true` = right. Booleans are `Sum(left ())` =
    /// true, `Sum(right ())` = false, mirroring `inl`/`inr` on units.
    Sum(bool, Box<Ground>),
    /// A list.
    List(Vec<Ground>),
}

impl Ground {
    /// The unit value.
    pub fn unit() -> Ground {
        Ground::Tuple(Vec::new())
    }

    /// Boolean encoding: `inl ()` is true, `inr ()` is false.
    pub fn bool(b: bool) -> Ground {
        Ground::Sum(!b, Box::new(Ground::unit()))
    }

    /// Reads a boolean back.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Ground::Sum(is_right, payload) if **payload == Ground::unit() => Some(!is_right),
            _ => None,
        }
    }

    /// Reads a scalar loss back.
    pub fn as_loss(&self) -> Option<&LossVal> {
        match self {
            Ground::Loss(l) => Some(l),
            _ => None,
        }
    }
}

impl fmt::Display for Ground {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ground::Loss(l) => write!(f, "{l}"),
            Ground::Char(c) => write!(f, "'{c}'"),
            Ground::Str(s) => write!(f, "{s:?}"),
            Ground::Nat(n) => write!(f, "{n}"),
            Ground::Tuple(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Ground::Sum(false, g) => write!(f, "inl({g})"),
            Ground::Sum(true, g) => write!(f, "inr({g})"),
            Ground::List(gs) => {
                write!(f, "[")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Converts a *closed, first-order* syntactic value to a ground value.
pub fn value_to_ground(e: &Expr) -> Option<Ground> {
    match e {
        Expr::Const(Const::Loss(l)) => Some(Ground::Loss(l.clone())),
        Expr::Const(Const::Char(c)) => Some(Ground::Char(*c)),
        Expr::Const(Const::Str(s)) => Some(Ground::Str(s.clone())),
        Expr::Zero => Some(Ground::Nat(0)),
        Expr::Succ(e) => match value_to_ground(e)? {
            Ground::Nat(n) => Some(Ground::Nat(n + 1)),
            _ => None,
        },
        Expr::Tuple(es) => {
            let gs: Option<Vec<Ground>> = es.iter().map(|e| value_to_ground(e)).collect();
            Some(Ground::Tuple(gs?))
        }
        Expr::Inl { e, .. } => Some(Ground::Sum(false, Box::new(value_to_ground(e)?))),
        Expr::Inr { e, .. } => Some(Ground::Sum(true, Box::new(value_to_ground(e)?))),
        Expr::Nil(_) => Some(Ground::List(Vec::new())),
        Expr::Cons(h, t) => {
            let h = value_to_ground(h)?;
            match value_to_ground(t)? {
                Ground::List(mut gs) => {
                    gs.insert(0, h);
                    Some(Ground::List(gs))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Converts a ground value back to a syntactic value of the given type (the
/// type supplies `inl`/`inr` and `nil` annotations).
pub fn ground_to_value(g: &Ground, ty: &Type) -> Expr {
    match (g, ty) {
        (Ground::Loss(l), _) => Expr::Const(Const::Loss(l.clone())),
        (Ground::Char(c), _) => Expr::Const(Const::Char(*c)),
        (Ground::Str(s), _) => Expr::Const(Const::Str(s.clone())),
        (Ground::Nat(n), _) => Expr::nat(*n),
        (Ground::Tuple(gs), Type::Tuple(ts)) => {
            Expr::Tuple(gs.iter().zip(ts).map(|(g, t)| ground_to_value(g, t).rc()).collect())
        }
        (Ground::Sum(false, g), Type::Sum(a, b)) => {
            Expr::Inl { lty: (**a).clone(), rty: (**b).clone(), e: ground_to_value(g, a).rc() }
        }
        (Ground::Sum(true, g), Type::Sum(a, b)) => {
            Expr::Inr { lty: (**a).clone(), rty: (**b).clone(), e: ground_to_value(g, b).rc() }
        }
        (Ground::List(gs), Type::List(t)) => {
            Expr::list((**t).clone(), gs.iter().map(|g| ground_to_value(g, t)).collect())
        }
        // Shape mismatches only arise on ill-typed inputs; produce something
        // inert rather than panicking so error paths stay debuggable.
        _ => Expr::unit(),
    }
}

/// The reduction function of a primitive: `f(v) -> v'` on ground values.
pub type PrimEval = fn(&Ground) -> Result<Ground, String>;

/// A primitive function: typing plus a total evaluator on ground values.
#[derive(Clone)]
pub struct PrimDef {
    /// Argument type `σ` (first-order).
    pub arg_ty: Type,
    /// Result type `τ` (first-order).
    pub ret_ty: Type,
    /// The reduction `f(v) → v'`.
    pub eval: PrimEval,
}

impl fmt::Debug for PrimDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PrimDef({} -> {})", self.arg_ty, self.ret_ty)
    }
}

fn scalar2(g: &Ground) -> Result<(f64, f64), String> {
    match g {
        Ground::Tuple(gs) if gs.len() == 2 => {
            let a = gs[0].as_loss().ok_or("expected loss")?.as_scalar();
            let b = gs[1].as_loss().ok_or("expected loss")?.as_scalar();
            Ok((a, b))
        }
        _ => Err(format!("expected a pair of losses, got {g}")),
    }
}

fn loss2(g: &Ground) -> Result<(LossVal, LossVal), String> {
    match g {
        Ground::Tuple(gs) if gs.len() == 2 => {
            let a = gs[0].as_loss().ok_or("expected loss")?.clone();
            let b = gs[1].as_loss().ok_or("expected loss")?.clone();
            Ok((a, b))
        }
        _ => Err(format!("expected a pair of losses, got {g}")),
    }
}

fn scalar1(g: &Ground) -> Result<f64, String> {
    g.as_loss().map(|l| l.as_scalar()).ok_or_else(|| format!("expected a loss, got {g}"))
}

/// Looks up a primitive by name. The table covers everything the paper's
/// examples need: loss arithmetic and comparisons, pair-loss construction
/// and projections (for two-player objectives), character/string helpers,
/// and `nat → loss` conversion.
pub fn prim_lookup(name: &str) -> Option<PrimDef> {
    let loss2_ty = Type::Tuple(vec![Type::loss(), Type::loss()]);
    let def = |arg_ty: Type, ret_ty: Type, f: PrimEval| Some(PrimDef { arg_ty, ret_ty, eval: f });
    match name {
        "add" => def(loss2_ty, Type::loss(), |g| {
            let (a, b) = loss2(g)?;
            Ok(Ground::Loss(a.add(&b)))
        }),
        "sub" => def(loss2_ty, Type::loss(), |g| {
            let (a, b) = scalar2(g)?;
            Ok(Ground::Loss(LossVal::scalar(a - b)))
        }),
        "mul" => def(loss2_ty, Type::loss(), |g| {
            let (a, b) = scalar2(g)?;
            Ok(Ground::Loss(LossVal::scalar(a * b)))
        }),
        "neg" => {
            def(Type::loss(), Type::loss(), |g| Ok(Ground::Loss(LossVal::scalar(-scalar1(g)?))))
        }
        // Comparisons use the workspace's total order (`f64::total_cmp` on
        // the scalar reading, see `LossVal::cmp_scalar`), not the partial
        // `<`/`<=`: argmin/argmax handler paths built from these must pick
        // deterministic NaN/tie winners, identical across the smallstep,
        // bigstep, and compiled evaluators and across engine reductions.
        "leq" => def(loss2_ty, Type::bool(), |g| {
            let (a, b) = loss2(g)?;
            Ok(Ground::bool(a.cmp_scalar(&b) != std::cmp::Ordering::Greater))
        }),
        "lt" => def(loss2_ty, Type::bool(), |g| {
            let (a, b) = loss2(g)?;
            Ok(Ground::bool(a.cmp_scalar(&b) == std::cmp::Ordering::Less))
        }),
        "pair_loss" => def(loss2_ty, Type::loss(), |g| {
            let (a, b) = scalar2(g)?;
            Ok(Ground::Loss(LossVal::pair(a, b)))
        }),
        "fst_loss" => def(Type::loss(), Type::loss(), |g| {
            let l = g.as_loss().ok_or("expected loss")?;
            Ok(Ground::Loss(LossVal::scalar(l.component(0))))
        }),
        "snd_loss" => def(Type::loss(), Type::loss(), |g| {
            let l = g.as_loss().ok_or("expected loss")?;
            Ok(Ground::Loss(LossVal::scalar(l.component(1))))
        }),
        "eq_char" => def(
            Type::Tuple(vec![Type::Base(BaseTy::Char), Type::Base(BaseTy::Char)]),
            Type::bool(),
            |g| match g {
                Ground::Tuple(gs) if gs.len() == 2 => match (&gs[0], &gs[1]) {
                    (Ground::Char(a), Ground::Char(b)) => Ok(Ground::bool(a == b)),
                    _ => Err("expected chars".into()),
                },
                _ => Err("expected a pair of chars".into()),
            },
        ),
        "str_len" => def(Type::Base(BaseTy::Str), Type::loss(), |g| match g {
            Ground::Str(s) => Ok(Ground::Loss(LossVal::scalar(s.chars().count() as f64))),
            _ => Err("expected a string".into()),
        }),
        "str_distinct" => def(Type::Base(BaseTy::Str), Type::loss(), |g| match g {
            Ground::Str(s) => {
                let set: std::collections::BTreeSet<char> = s.chars().collect();
                Ok(Ground::Loss(LossVal::scalar(set.len() as f64)))
            }
            _ => Err("expected a string".into()),
        }),
        "str_append" => def(
            Type::Tuple(vec![Type::Base(BaseTy::Str), Type::Base(BaseTy::Str)]),
            Type::Base(BaseTy::Str),
            |g| match g {
                Ground::Tuple(gs) if gs.len() == 2 => match (&gs[0], &gs[1]) {
                    (Ground::Str(a), Ground::Str(b)) => Ok(Ground::Str(format!("{a}{b}"))),
                    _ => Err("expected strings".into()),
                },
                _ => Err("expected a pair of strings".into()),
            },
        ),
        "nat_to_loss" => def(Type::Nat, Type::loss(), |g| match g {
            Ground::Nat(n) => Ok(Ground::Loss(LossVal::scalar(*n as f64))),
            _ => Err("expected a nat".into()),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, arg: Ground) -> Ground {
        (prim_lookup(name).unwrap().eval)(&arg).unwrap()
    }

    #[test]
    fn arithmetic() {
        let two = Ground::Loss(LossVal::scalar(2.0));
        let three = Ground::Loss(LossVal::scalar(3.0));
        assert_eq!(
            run("add", Ground::Tuple(vec![two.clone(), three.clone()])),
            Ground::Loss(LossVal::scalar(5.0))
        );
        assert_eq!(
            run("mul", Ground::Tuple(vec![two.clone(), three.clone()])),
            Ground::Loss(LossVal::scalar(6.0))
        );
        assert_eq!(
            run("sub", Ground::Tuple(vec![two.clone(), three.clone()])),
            Ground::Loss(LossVal::scalar(-1.0))
        );
        assert_eq!(run("neg", two), Ground::Loss(LossVal::scalar(-2.0)));
    }

    #[test]
    fn add_on_pair_losses_is_elementwise() {
        let a = Ground::Loss(LossVal::pair(1.0, 2.0));
        let b = Ground::Loss(LossVal::pair(3.0, 4.0));
        assert_eq!(run("add", Ground::Tuple(vec![a, b])), Ground::Loss(LossVal::pair(4.0, 6.0)));
    }

    #[test]
    fn comparisons() {
        let p = |a: f64, b: f64| {
            Ground::Tuple(vec![Ground::Loss(LossVal::scalar(a)), Ground::Loss(LossVal::scalar(b))])
        };
        assert_eq!(run("leq", p(2.0, 2.0)).as_bool(), Some(true));
        assert_eq!(run("lt", p(2.0, 2.0)).as_bool(), Some(false));
        assert_eq!(run("lt", p(1.0, 2.0)).as_bool(), Some(true));
    }

    #[test]
    fn comparisons_are_total_on_nan_and_signed_zero() {
        let p = |a: f64, b: f64| {
            Ground::Tuple(vec![Ground::Loss(LossVal::scalar(a)), Ground::Loss(LossVal::scalar(b))])
        };
        // NaN sorts above +inf under total_cmp, so these are deterministic
        // (plain `<=` would answer false for every NaN comparison).
        assert_eq!(run("leq", p(f64::NAN, f64::INFINITY)).as_bool(), Some(false));
        assert_eq!(run("leq", p(f64::INFINITY, f64::NAN)).as_bool(), Some(true));
        assert_eq!(run("leq", p(f64::NAN, f64::NAN)).as_bool(), Some(true));
        assert_eq!(run("lt", p(f64::NAN, f64::NAN)).as_bool(), Some(false));
        assert_eq!(run("leq", p(-0.0, 0.0)).as_bool(), Some(true));
        assert_eq!(run("leq", p(0.0, -0.0)).as_bool(), Some(false), "total order: +0 > -0");
    }

    #[test]
    fn pair_loss_roundtrip() {
        let p = Ground::Tuple(vec![
            Ground::Loss(LossVal::scalar(3.0)),
            Ground::Loss(LossVal::scalar(5.0)),
        ]);
        let pl = run("pair_loss", p);
        assert_eq!(pl, Ground::Loss(LossVal::pair(3.0, 5.0)));
        assert_eq!(run("fst_loss", pl.clone()), Ground::Loss(LossVal::scalar(3.0)));
        assert_eq!(run("snd_loss", pl), Ground::Loss(LossVal::scalar(5.0)));
    }

    #[test]
    fn string_prims() {
        assert_eq!(run("str_len", Ground::Str("abc".into())), Ground::Loss(LossVal::scalar(3.0)));
        assert_eq!(
            run("str_distinct", Ground::Str("aabb".into())),
            Ground::Loss(LossVal::scalar(2.0))
        );
        assert_eq!(
            run(
                "str_append",
                Ground::Tuple(vec![Ground::Str("pass ".into()), Ground::Str("abc".into())])
            ),
            Ground::Str("pass abc".into())
        );
    }

    #[test]
    fn ground_value_roundtrip() {
        let ty = Type::Tuple(vec![Type::bool(), Type::List(Box::new(Type::Nat))]);
        let v = Expr::Tuple(vec![
            Expr::tt().rc(),
            Expr::list(Type::Nat, vec![Expr::nat(1), Expr::nat(2)]).rc(),
        ]);
        let g = value_to_ground(&v).unwrap();
        assert_eq!(
            g,
            Ground::Tuple(vec![
                Ground::bool(true),
                Ground::List(vec![Ground::Nat(1), Ground::Nat(2)])
            ])
        );
        assert_eq!(ground_to_value(&g, &ty), v);
    }

    #[test]
    fn bool_encoding_matches_inl_inr() {
        assert_eq!(value_to_ground(&Expr::tt()).unwrap().as_bool(), Some(true));
        assert_eq!(value_to_ground(&Expr::ff()).unwrap().as_bool(), Some(false));
    }

    #[test]
    fn lambdas_are_not_ground() {
        let lam = Expr::Lam {
            eff: crate::types::Effect::empty(),
            var: "x".into(),
            ty: Type::unit(),
            body: Expr::unit().rc(),
        };
        assert!(value_to_ground(&lam).is_none());
    }

    #[test]
    fn unknown_prim_is_none() {
        assert!(prim_lookup("no_such_prim").is_none());
    }
}
