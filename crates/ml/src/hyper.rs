//! Hyperparameter optimisation (§4.3 "Hyperparameters").
//!
//! The learning rate becomes its own effect `LR { lrate :: Op () Float }`.
//! [`read_lr`] resumes with a fixed rate; [`tune_lr`] implements the
//! paper's grid search: it probes the loss of each candidate rate through
//! the choice continuation and returns the best one **without resuming the
//! computation** — the handler's result is the chosen rate.

use selc::{effect, Handler, MemoChoice, Sel};

effect! {
    /// The learning-rate hyperparameter effect.
    pub effect Lr {
        /// Request the current learning rate.
        op Lrate : () => f64;
    }
}

/// A handler that always returns the fixed learning rate `alpha`
/// (the paper's `readLR α`).
pub fn read_lr<B: Clone + 'static>(alpha: f64) -> Handler<f64, B, B> {
    Handler::builder::<Lr>().on::<Lrate>(move |(), _l, k| k.resume(alpha)).build_identity()
}

/// Sequences memoised probes of every rate in `grid`, returning the
/// `(rate, error)` pair that minimises the probed error (ties towards
/// the earliest grid entry), for [`tune_lr`].
/// Generic over the memo's cache handle `C`, so the same scan runs
/// against a per-activation [`selc::LocalCache`] (as [`tune_lr`] does)
/// or a [`selc::SharedCache`] shared across runs of one program.
pub fn probe_grid_argmin<C>(
    memo: &MemoChoice<f64, f64, u64, C>,
    grid: Vec<f64>,
) -> Sel<f64, (f64, f64)>
where
    C: selc::CacheHandle<u64, f64> + Clone + 'static,
{
    fn go<C: selc::CacheHandle<u64, f64> + Clone + 'static>(
        m: MemoChoice<f64, f64, u64, C>,
        grid: std::rc::Rc<Vec<f64>>,
        i: usize,
        best: (f64, f64),
    ) -> Sel<f64, (f64, f64)> {
        if i == grid.len() {
            return Sel::pure(best);
        }
        let alpha = grid[i];
        m.at(alpha).and_then(move |err| {
            let best = if err < best.1 { (alpha, err) } else { best };
            go(m.clone(), std::rc::Rc::clone(&grid), i + 1, best)
        })
    }
    assert!(!grid.is_empty(), "probe_grid_argmin needs at least one candidate rate");
    let default = grid[0];
    go(memo.clone(), std::rc::Rc::new(grid), 0, (default, f64::INFINITY))
}

/// The paper's `tuneLR (α1, α2)` generalised to a grid: probes the loss of
/// running the rest of the computation with each candidate rate and
/// *returns* (rather than resumes with) the one with the least loss. The
/// return clause returns the first candidate, matching
/// `handlerRet (λ_ → return α1)`.
///
/// Probes go through a [`MemoChoice`] keyed on the rate's bits, so a grid
/// with duplicate rates runs the future once per *distinct* rate.
///
/// # Panics
///
/// Panics if the grid is empty.
pub fn tune_lr<A: Clone + 'static>(grid: Vec<f64>) -> Handler<f64, A, f64> {
    assert!(!grid.is_empty(), "tune_lr needs at least one candidate rate");
    let default = grid[0];
    Handler::builder::<Lr>()
        .on::<Lrate>(move |(), l, _k| {
            // err_i ← l α_i for each candidate; return the argmin.
            let memo = MemoChoice::with_key(&l, |r: &f64| r.to_bits());
            probe_grid_argmin(&memo, grid.clone()).map(|(alpha, _err)| alpha)
        })
        .ret(move |_a| Sel::pure(default))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::{gd_handler_tuned, Optimize};
    use selc::{handle, loss, perform};

    /// One gd step on `(p − 3)²` from `p0`, with the rate served by an
    /// outer LR handler.
    fn step_prog(p0: f64) -> Sel<f64, Vec<f64>> {
        let prog = perform::<f64, Optimize>(vec![p0]).and_then(|p| {
            let e = p[0] - 3.0;
            loss(e * e).map(move |_| p.clone())
        });
        handle(&gd_handler_tuned(), prog)
    }

    #[test]
    fn read_lr_serves_fixed_rate() {
        let (_, p) = handle(&read_lr(0.1), step_prog(0.0)).run_unwrap();
        assert!((p[0] - 0.6).abs() < 1e-4, "{p:?}");
    }

    #[test]
    fn tune_lr_picks_the_rate_with_smaller_loss() {
        // From p=0 on (p−3)²: rate 1.0 overshoots to 6 (loss 9), rate 1/6
        // lands at 1 (loss 4), rate 0.5 lands exactly at 3 (loss 0).
        let h = tune_lr(vec![1.0, 0.5]);
        let (_, alpha) = handle(&h, step_prog(0.0)).run_unwrap();
        assert_eq!(alpha, 0.5);
    }

    #[test]
    fn tune_lr_grid_order_does_not_matter_for_strict_winner() {
        let a = handle(&tune_lr(vec![0.5, 1.0]), step_prog(0.0)).run_unwrap().1;
        let b = handle(&tune_lr(vec![1.0, 0.5]), step_prog(0.0)).run_unwrap().1;
        assert_eq!(a, 0.5);
        assert_eq!(b, 0.5);
    }

    #[test]
    fn tune_lr_never_resumes_so_result_is_a_rate() {
        // The handled computation returns Vec<f64>, but the handler's
        // result type is f64 — the chosen rate. If the program performs no
        // lrate at all, the return clause yields the first candidate.
        let h = tune_lr(vec![0.25, 0.75]);
        let prog: Sel<f64, Vec<f64>> = Sel::pure(vec![]);
        let (_, alpha) = handle(&h, prog).run_unwrap();
        assert_eq!(alpha, 0.25);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_grid_panics() {
        let _ = tune_lr::<f64>(vec![]);
    }

    #[test]
    fn duplicate_rates_probe_once() {
        // The future bumps a counter per run; with memoised probes the
        // duplicated 0.5 and 1.0 entries cost nothing extra.
        use std::cell::RefCell;
        use std::rc::Rc;
        let runs = Rc::new(RefCell::new(0u64));
        let c = Rc::clone(&runs);
        let prog = perform::<f64, Lrate>(()).and_then(move |alpha| {
            *c.borrow_mut() += 1;
            let p = 0.0 - alpha * 2.0 * (0.0 - 3.0); // one gd step from 0
            let e = p - 3.0;
            loss(e * e).map(move |_| vec![p])
        });
        let h = tune_lr(vec![1.0, 0.5, 1.0, 0.5, 0.5]);
        let (_, alpha) = handle(&h, prog).run_unwrap();
        assert_eq!(alpha, 0.5);
        assert_eq!(*runs.borrow(), 2, "one future run per distinct rate");
    }
}
