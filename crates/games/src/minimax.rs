//! Minimax two-player games (§4.3), three ways:
//!
//! 1. [`minimax_handler`] — the paper's solution: a `Max` effect for the
//!    maximiser and a `Min` effect for the minimiser, each handled by a
//!    chooser that probes its choice continuation over every move ("note
//!    how the loss is shared by two handlers");
//! 2. [`minimax_selection`] — the §2.1 solution: Kleisli extension /
//!    product of `argmax` and `argmin` selection functions;
//! 3. [`Matrix::maximin`](crate::bimatrix::Matrix::maximin) — direct
//!    backward induction (baseline).

use crate::bimatrix::Matrix;
use selc::{effect, handle, loss, perform, Choice, Handler, Sel};
use selection::{argmax, argmin, product};
use std::rc::Rc;

effect! {
    /// The maximiser's move effect (`Max` in §4.3): choose one of `n`
    /// moves.
    pub effect MaxEff {
        /// Choose a move index from `0..n`.
        op MaxMove : usize => usize;
    }
}

effect! {
    /// The minimiser's move effect (`Min` in §4.3).
    pub effect MinEff {
        /// Choose a move index from `0..n`.
        op MinMove : usize => usize;
    }
}

/// Effectful argmax over `0..n` through a choice continuation
/// (the paper's `maxWith l [moves]`); the per-ply handlers of
/// [`crate::alternating`] share it.
pub(crate) fn pick_extreme(l: &Choice<f64, usize>, n: usize, maximise: bool) -> Sel<f64, usize> {
    fn go(
        l: Choice<f64, usize>,
        n: usize,
        maximise: bool,
        i: usize,
        best: Option<(usize, f64)>,
    ) -> Sel<f64, usize> {
        if i == n {
            return Sel::pure(best.expect("no moves").0);
        }
        l.at(i).and_then(move |li| {
            let better = match best {
                None => true,
                Some((_, bv)) => {
                    if maximise {
                        li > bv
                    } else {
                        li < bv
                    }
                }
            };
            let next = if better { Some((i, li)) } else { best };
            go(l.clone(), n, maximise, i + 1, next)
        })
    }
    go(l.clone(), n, maximise, 0, None)
}

/// The maximiser's handler `hmax`: probe every move, resume with the
/// loss-maximising one.
pub fn hmax<B: Clone + 'static>() -> Handler<f64, B, B> {
    Handler::builder::<MaxEff>()
        .on::<MaxMove>(|n, l, k| pick_extreme(&l, n, true).and_then(move |m| k.resume(m)))
        .build_identity()
}

/// The minimiser's handler `hmin`.
pub fn hmin<B: Clone + 'static>() -> Handler<f64, B, B> {
    Handler::builder::<MinEff>()
        .on::<MinMove>(|n, l, k| pick_extreme(&l, n, false).and_then(move |m| k.resume(m)))
        .build_identity()
}

/// The §4.3 minimax program for an arbitrary loss table:
///
/// ```text
/// minimax = do a ← perform max moves; b ← perform min moves;
///              loss (table !! a !! b); return (a, b)
/// ```
///
/// solved as `runSel $ hmax $ hmin minimax`. Returns
/// `((row, col), value)`.
pub fn minimax_handler(table: &Matrix) -> ((usize, usize), f64) {
    let t = Rc::new(table.clone());
    let rows = table.rows();
    let cols = table.cols();
    let game = perform::<f64, MaxMove>(rows).and_then(move |a| {
        let t = Rc::clone(&t);
        perform::<f64, MinMove>(cols).and_then(move |b| loss(t.entries[a][b]).map(move |_| (a, b)))
    });
    let (v, play) = handle(&hmax(), handle(&hmin(), game)).run_unwrap();
    (play, v)
}

/// The §2.1 solution via the selection monad: the product of `argmax`
/// (rows) and `argmin` (columns) applied to the evaluation function.
pub fn minimax_selection(table: &Matrix) -> ((usize, usize), f64) {
    let rows: Vec<usize> = (0..table.rows()).collect();
    let cols: Vec<usize> = (0..table.cols()).collect();
    let s = product::pair(argmax(rows), argmin(cols));
    let t = table.clone();
    let pair = s.select(move |&(r, c)| t.entries[r][c]);
    let value = table.entries[pair.0][pair.1];
    (pair, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_all_three_ways() {
        let m = Matrix::paper_example();
        let (hp, hv) = minimax_handler(&m);
        let (sp, sv) = minimax_selection(&m);
        let (br, bc, bv) = m.maximin();
        assert_eq!(hp, (0, 1), "handler plays (Left, Right)");
        assert_eq!(hv, 3.0);
        assert_eq!(sp, (0, 1));
        assert_eq!(sv, 3.0);
        assert_eq!((br, bc, bv), (0, 1, 3.0));
    }

    #[test]
    fn three_solvers_agree_on_random_tables() {
        for seed in 0..25 {
            let m = Matrix::random(3, 4, seed);
            let (hp, hv) = minimax_handler(&m);
            let (sp, sv) = minimax_selection(&m);
            let (br, bc, bv) = m.maximin();
            assert_eq!(hv, bv, "seed {seed}: handler value vs backward induction");
            assert_eq!(sv, bv, "seed {seed}: selection value vs backward induction");
            assert_eq!(hp, (br, bc), "seed {seed}: handler play");
            assert_eq!(sp, (br, bc), "seed {seed}: selection play");
        }
    }

    #[test]
    fn asymmetric_dimensions() {
        let m = Matrix::new(vec![vec![1.0, 2.0, 0.5], vec![4.0, 0.1, 3.0]]);
        // row 0: min 0.5; row 1: min 0.1 → maximiser picks row 0, col 2
        let (p, v) = minimax_handler(&m);
        assert_eq!(p, (0, 2));
        assert_eq!(v, 0.5);
    }

    #[test]
    fn single_move_game() {
        let m = Matrix::new(vec![vec![7.0]]);
        assert_eq!(minimax_handler(&m), ((0, 0), 7.0));
        assert_eq!(minimax_selection(&m), ((0, 0), 7.0));
    }
}
