//! Linear regression three ways (experiment E4, §4.3).
//!
//! 1. [`train_handler_sgd`] — the paper's program: each data point runs
//!    `lreset $ hOpt $ linearReg p x y` and the updated parameters fold
//!    into the next step (the `foldM` of §4.3).
//! 2. [`train_tape_sgd`] — hand-coded SGD with exact reverse-mode
//!    gradients (baseline).
//! 3. [`Dataset::least_squares`](crate::dataset::Dataset::least_squares)
//!    — the closed-form optimum (gold standard).
//!
//! The reproduction claim (EXPERIMENTS.md): all three land on the same
//! line on noiseless data, and 1–2 agree to finite-difference accuracy on
//! every step.

use crate::dataset::Dataset;
use crate::optimize::{gd_handler, Optimize};
use selc::{handle, loss, perform, Handler, Sel};
use selc_autodiff::tape;

/// The paper's `linearReg [w,b] x target` program: ask the optimiser for
/// new parameters, record the squared error of the *new* parameters on
/// this data point, return them.
pub fn linear_reg(params: Vec<f64>, x: f64, target: f64) -> Sel<f64, Vec<f64>> {
    perform::<f64, Optimize>(params).and_then(move |p| {
        let y = p[0] * x + p[1];
        loss((target - y) * (target - y)).map(move |_| p.clone())
    })
}

/// One handler-SGD step: `lreset $ hOpt $ linearReg p x y`, run to a value.
/// `h` is [`gd_handler`]`(lr)`, built once per training run.
pub fn sgd_step(
    h: &Handler<f64, Vec<f64>, Vec<f64>>,
    params: Vec<f64>,
    x: f64,
    target: f64,
) -> Vec<f64> {
    let prog = handle(h, linear_reg(params, x, target)).lreset();
    prog.run_unwrap().1
}

/// Full handler-based SGD training: one pass per epoch over the dataset,
/// folding [`sgd_step`] (the paper's `foldM`).
pub fn train_handler_sgd(data: &Dataset, init: (f64, f64), lr: f64, epochs: usize) -> (f64, f64) {
    let h = gd_handler(lr);
    let mut p = vec![init.0, init.1];
    for _ in 0..epochs {
        for &(x, y) in &data.points {
            p = sgd_step(&h, p, x, y);
        }
    }
    (p[0], p[1])
}

/// Builds the *entire* training run as one `Sel` computation — each step
/// wrapped in `lreset` exactly as the paper's `foldM` loop body — and runs
/// it once. Demonstrates that `lreset` makes per-point decisions
/// independent even within a single program.
pub fn train_handler_sgd_monadic(data: &Dataset, init: (f64, f64), lr: f64) -> (f64, f64) {
    fn go(
        points: std::rc::Rc<Vec<(f64, f64)>>,
        i: usize,
        p: Vec<f64>,
        h: Handler<f64, Vec<f64>, Vec<f64>>,
    ) -> Sel<f64, Vec<f64>> {
        if i == points.len() {
            return Sel::pure(p);
        }
        let (x, y) = points[i];
        handle(&h, linear_reg(p, x, y))
            .lreset()
            .and_then(move |p2| go(std::rc::Rc::clone(&points), i + 1, p2, h.clone()))
    }
    let prog = go(std::rc::Rc::new(data.points.clone()), 0, vec![init.0, init.1], gd_handler(lr));
    let (_, p) = prog.run_unwrap();
    (p[0], p[1])
}

/// Hand-coded SGD with exact reverse-mode gradients (baseline for E4).
pub fn train_tape_sgd(data: &Dataset, init: (f64, f64), lr: f64, epochs: usize) -> (f64, f64) {
    let (mut w, mut b) = init;
    for _ in 0..epochs {
        for &(x, y) in &data.points {
            let g = tape::grad(
                |t, v| {
                    let wx = t.mul_const(v[0], x);
                    let pred = t.add(wx, v[1]);
                    let err = t.sub_const(pred, y);
                    t.sq(err)
                },
                &[w, b],
            );
            w -= lr * g[0];
            b -= lr * g[1];
        }
    }
    (w, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_step_matches_tape_gradient() {
        let lr = 0.05;
        let (x, y) = (1.5, 4.0);
        let hp = sgd_step(&gd_handler(lr), vec![0.2, -0.3], x, y);
        let d = Dataset { points: vec![(x, y)], true_w: 0.0, true_b: 0.0 };
        let tp = train_tape_sgd(&d, (0.2, -0.3), lr, 1);
        assert!((hp[0] - tp.0).abs() < 1e-4, "handler {hp:?} vs tape {tp:?}");
        assert!((hp[1] - tp.1).abs() < 1e-4, "handler {hp:?} vs tape {tp:?}");
    }

    #[test]
    fn handler_sgd_converges_on_noiseless_line() {
        let d = Dataset::linear(32, 2.0, 1.0, 0.0, 5);
        let (w, b) = train_handler_sgd(&d, (0.0, 0.0), 0.05, 40);
        assert!((w - 2.0).abs() < 0.05, "w = {w}");
        assert!((b - 1.0).abs() < 0.05, "b = {b}");
    }

    #[test]
    fn handler_and_tape_sgd_trace_the_same_trajectory() {
        let d = Dataset::linear(16, -1.0, 0.5, 0.0, 9);
        let h = train_handler_sgd(&d, (0.3, 0.3), 0.1, 3);
        let t = train_tape_sgd(&d, (0.3, 0.3), 0.1, 3);
        assert!((h.0 - t.0).abs() < 1e-3, "handler {h:?} vs tape {t:?}");
        assert!((h.1 - t.1).abs() < 1e-3, "handler {h:?} vs tape {t:?}");
    }

    #[test]
    fn handler_sgd_approaches_least_squares_under_noise() {
        let d = Dataset::linear(64, 1.2, -0.7, 0.02, 13);
        let (w, b) = train_handler_sgd(&d, (0.0, 0.0), 0.05, 30);
        let (lw, lb) = d.least_squares();
        assert!((w - lw).abs() < 0.1, "w {w} vs ls {lw}");
        assert!((b - lb).abs() < 0.1, "b {b} vs ls {lb}");
    }

    #[test]
    fn monadic_fold_matches_imperative_fold() {
        let d = Dataset::linear(24, 0.8, 0.2, 0.0, 21);
        let a = train_handler_sgd(&d, (0.0, 0.0), 0.05, 1);
        let m = train_handler_sgd_monadic(&d, (0.0, 0.0), 0.05);
        assert!((a.0 - m.0).abs() < 1e-12);
        assert!((a.1 - m.1).abs() < 1e-12);
    }

    #[test]
    fn mse_decreases_over_training() {
        let d = Dataset::linear(32, 2.0, 1.0, 0.0, 17);
        let before = d.mse(0.0, 0.0);
        let (w, b) = train_handler_sgd(&d, (0.0, 0.0), 0.05, 5);
        let after = d.mse(w, b);
        assert!(after < before / 2.0, "before {before}, after {after}");
    }
}
