//! Shared workload builders for the benchmark harness.
//!
//! One Criterion bench target per experiment/figure lives under
//! `benches/`; see DESIGN.md's per-experiment index and EXPERIMENTS.md for
//! the recorded results. This library provides the program families the
//! benches sweep over, so bench code stays declarative, and the one
//! stats-line format ([`stats_line`]) every family prints its counters in.

use selc::{effect, handle, loss, perform, Handler, Sel};
use std::fmt::{Display, Write};

/// Formats one stats line, `<label> <section> k=v …` — the only shape
/// `selc-bench-record` reads counters from. It records the line as
/// `"<section>": {"<label>": {"<k>": v, …}}` in `BENCH_<n>.json`, keys
/// in the order given here. Labels and keys hold no `=` or whitespace,
/// and every value must print as a finite number: the recorder skips
/// (and warns about) a line with any other value.
pub fn stats_line<V: Display>(label: &str, section: &str, pairs: &[(&str, V)]) -> String {
    let mut line = format!("{label} {section}");
    for (k, v) in pairs {
        let _ = write!(line, " {k}={v}");
    }
    line
}

effect! {
    /// Binary choice, shared across benches.
    pub effect NDet {
        /// Choose a boolean.
        op Decide : () => bool;
    }
}

/// The §2.3 argmin handler at any result type.
pub fn argmin_handler<B: Clone + 'static>() -> Handler<f64, B, B> {
    Handler::builder::<NDet>()
        .on::<Decide>(|(), l, k| {
            l.at(true).and_then(move |y| {
                let (l, k) = (l.clone(), k.clone());
                l.at(false).and_then(move |z| if y <= z { k.resume(true) } else { k.resume(false) })
            })
        })
        .build_identity()
}

/// The §2.2 all-results handler.
pub fn all_results_handler() -> Handler<f64, bool, Vec<bool>> {
    Handler::builder::<NDet>()
        .on::<Decide>(|(), _l, k| {
            k.resume(true).and_then(move |ts: Vec<bool>| {
                let k = k.clone();
                k.resume(false).map(move |fs| {
                    let mut out = ts.clone();
                    out.extend(fs);
                    out
                })
            })
        })
        .ret(|b| Sel::pure(vec![b]))
        .build()
}

/// A chain of `n` decides whose conjunction is returned (generalises the
/// §2.2 program).
pub fn decide_chain(n: usize) -> Sel<f64, bool> {
    fn go(i: usize, n: usize, acc: bool) -> Sel<f64, bool> {
        if i == n {
            return Sel::pure(acc);
        }
        perform::<f64, Decide>(()).and_then(move |b| go(i + 1, n, acc && b))
    }
    go(0, n, true)
}

/// A chain of `n` decides with per-step losses: step `i` costs `i` when
/// true, `n − i` when false. The argmin handler must thread global
/// information through the choice continuations.
pub fn costed_decide_chain(n: usize) -> Sel<f64, usize> {
    fn go(i: usize, n: usize, trues: usize) -> Sel<f64, usize> {
        if i == n {
            return Sel::pure(trues);
        }
        perform::<f64, Decide>(()).and_then(move |b| {
            let cost = if b { i as f64 } else { (n - i) as f64 };
            loss(cost).and_then(move |_| go(i + 1, n, trues + usize::from(b)))
        })
    }
    go(0, n, 0)
}

/// The §2.3 `pgm` as a library computation.
pub fn pgm_sel() -> Sel<f64, char> {
    perform::<f64, Decide>(()).and_then(|b| {
        let i = if b { 1.0 } else { 2.0 };
        loss(2.0 * i).map(move |_| if b { 'a' } else { 'b' })
    })
}

/// Runs `pgm` under the argmin handler, returning (loss, result).
pub fn run_pgm() -> (f64, char) {
    handle(&argmin_handler(), pgm_sel()).run_unwrap()
}

/// `n`-way greedy choice via a single op over index lists, with a probing
/// handler — the kernel behind the A1 overhead ablation.
pub mod nway {
    use selc::{effect, handle, loss, perform, Choice, Handler, Sel};
    use std::rc::Rc;

    effect! {
        /// Choose an index in `0..n`.
        pub effect Pick {
            /// The op.
            op PickIdx : usize => usize;
        }
    }

    fn min_with(l: &Choice<f64, usize>, n: usize) -> Sel<f64, usize> {
        fn go(l: Choice<f64, usize>, n: usize, i: usize, best: (usize, f64)) -> Sel<f64, usize> {
            if i == n {
                return Sel::pure(best.0);
            }
            l.at(i).and_then(move |li| {
                let best = if li < best.1 { (i, li) } else { best };
                go(l.clone(), n, i + 1, best)
            })
        }
        go(l.clone(), n, 0, (usize::MAX, f64::INFINITY))
    }

    /// A handler picking the loss-minimising index.
    pub fn argmin_pick_handler<B: Clone + 'static>() -> Handler<f64, B, B> {
        Handler::builder::<Pick>()
            .on::<PickIdx>(|n, l, k| min_with(&l, n).and_then(move |i| k.resume(i)))
            .build_identity()
    }

    /// `pick(n)` then record `costs[i]` — the handler must return the
    /// argmin of `costs`.
    pub fn argmin_program(costs: Rc<Vec<f64>>) -> Sel<f64, usize> {
        let n = costs.len();
        perform::<f64, PickIdx>(n).and_then(move |i| loss(costs[i]).map(move |_| i))
    }

    /// Handler-based argmin over `costs`.
    pub fn handler_argmin(costs: &Rc<Vec<f64>>) -> (f64, usize) {
        handle(&argmin_pick_handler(), argmin_program(Rc::clone(costs))).run_unwrap()
    }

    /// Direct argmin baseline.
    pub fn direct_argmin(costs: &[f64]) -> (f64, usize) {
        let mut best = 0;
        for i in 1..costs.len() {
            if costs[i] < costs[best] {
                best = i;
            }
        }
        (costs[best], best)
    }
}

/// Nested handler towers for the depth ablation (A3): `depth` stacked
/// identity-ish handlers over one costed decide chain.
pub fn nested_handler_tower(depth: usize, chain: usize) -> (f64, usize) {
    // Only the innermost handler handles NDet; the outer ones handle
    // otherwise-unused effects so nodes traverse `depth` folds.
    use selc::handle as h;
    effect! {
        effect Aux {
            op Nop : () => ();
        }
    }
    fn aux_handler<B: Clone + 'static>() -> Handler<f64, B, B> {
        Handler::builder::<Aux>().on::<Nop>(|(), _l, k| k.resume(())).build_identity()
    }
    let mut prog = h(&argmin_handler(), costed_decide_chain(chain));
    for _ in 0..depth {
        prog = h(&aux_handler(), prog);
    }
    prog.run_unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn stats_lines_are_label_section_pairs() {
        let line = stats_line("e16/x", "search", &[("evaluated", 4_u64), ("pruned", 26)]);
        assert_eq!(line, "e16/x search evaluated=4 pruned=26");
    }

    #[test]
    fn pgm_matches_paper() {
        assert_eq!(run_pgm(), (2.0, 'a'));
    }

    #[test]
    fn decide_chain_enumerates() {
        let (_, all) = handle(&all_results_handler(), decide_chain(2)).run_unwrap();
        assert_eq!(all, vec![true, false, false, false]);
    }

    #[test]
    fn costed_chain_picks_cheapest_path() {
        // step i: true costs i, false costs n−i; optimal: true iff i < n−i.
        let (cost, trues) = handle(&argmin_handler(), costed_decide_chain(5)).run_unwrap();
        // optimal costs: min(i, 5−i) for i=0..4 → 0+1+2+2+1 = 6; trues at i=0,1,2
        assert_eq!(cost, 6.0);
        assert_eq!(trues, 3);
    }

    #[test]
    fn nway_handler_matches_direct() {
        let costs = Rc::new(vec![3.0, 1.0, 4.0, 1.5]);
        assert_eq!(nway::handler_argmin(&costs), nway::direct_argmin(&costs));
    }

    #[test]
    fn tower_is_transparent() {
        let base = handle(&argmin_handler(), costed_decide_chain(4)).run_unwrap();
        assert_eq!(nested_handler_tower(3, 4), base);
    }
}
