//! The `Opt` effect and the gradient-descent handler (§4.3's `hOpt`).
//!
//! ```text
//! hOpt = handler (Opt { optimize = operation (λp l k →
//!          do ds ← autodiff l p
//!             let p' = zipWith (λw d → w − 0.01·d) p ds
//!             k p') })
//! ```
//!
//! `autodiff l p` differentiates the *choice continuation* — the loss the
//! rest of the program would incur as a function of the parameters the
//! operation returns. Since `l` is an opaque effectful function, the
//! handler uses central finite differences: `2·dim` probes of `l` per
//! `optimize` (see `selc-autodiff` for validation against exact engines).

use selc::{effect, perform, Choice, Handler, Loss, Sel};
use std::rc::Rc;

effect! {
    /// Parameter-optimisation effect (§4.3).
    pub effect Opt {
        /// Ask the optimiser for updated parameters, given current ones.
        op Optimize : Vec<f64> => Vec<f64>;
    }
}

/// Sequences probes of the choice continuation at each of `points`,
/// collecting the probed losses. (Monadic `mapM (l ·) points`.)
pub fn probe_losses<L: Loss>(l: &Choice<L, Vec<f64>>, points: Vec<Vec<f64>>) -> Sel<L, Vec<L>> {
    /// The losses probed so far, newest first: each probe links one node
    /// in front of the shared tail instead of copying the earlier losses.
    struct Probed<L>(L, Option<Rc<Probed<L>>>);

    fn go<L: Loss>(
        l: Choice<L, Vec<f64>>,
        points: Rc<Vec<Vec<f64>>>,
        i: usize,
        probed: Option<Rc<Probed<L>>>,
    ) -> Sel<L, Vec<L>> {
        if i == points.len() {
            let mut losses = Vec::with_capacity(i);
            let mut node = probed.as_deref();
            while let Some(Probed(loss, tail)) = node {
                losses.push(loss.clone());
                node = tail.as_deref();
            }
            losses.reverse();
            return Sel::pure(losses);
        }
        l.at(points[i].clone()).and_then(move |loss| {
            let probed = Some(Rc::new(Probed(loss, probed.clone())));
            go(l.clone(), Rc::clone(&points), i + 1, probed)
        })
    }
    go(l.clone(), Rc::new(points), 0, None)
}

/// `autodiff l p` — the gradient of the choice continuation at `p` by
/// central finite differences, as an effectful computation.
pub fn autodiff(l: &Choice<f64, Vec<f64>>, p: &[f64]) -> Sel<f64, Vec<f64>> {
    let rel_step = 6.0554544523933395e-6_f64; // cbrt(f64::EPSILON)
    let dim = p.len();
    let mut points = Vec::with_capacity(2 * dim);
    let mut steps = Vec::with_capacity(dim);
    for i in 0..dim {
        let h = rel_step * p[i].abs().max(1.0);
        steps.push(h);
        let mut plus = p.to_vec();
        plus[i] += h;
        points.push(plus);
        let mut minus = p.to_vec();
        minus[i] -= h;
        points.push(minus);
    }
    probe_losses(l, points)
        .map(move |ls| (0..dim).map(|i| (ls[2 * i] - ls[2 * i + 1]) / (2.0 * steps[i])).collect())
}

/// The gradient-descent handler `hOpt` with learning rate `lr`.
pub fn gd_handler<B: Clone + 'static>(lr: f64) -> Handler<f64, B, B> {
    Handler::builder::<Opt>()
        .on::<Optimize>(move |p, l, k| {
            autodiff(&l, &p).and_then(move |ds| {
                let p2: Vec<f64> = p.iter().zip(&ds).map(|(w, d)| w - lr * d).collect();
                k.resume(p2)
            })
        })
        .build_identity()
}

/// A gradient-descent handler whose learning rate is itself requested
/// through the hyperparameter effect (§4.3 "Hyperparameters"):
/// `do ds ← autodiff l p; α ← perform lrate (); …`.
pub fn gd_handler_tuned<B: Clone + 'static>() -> Handler<f64, B, B> {
    Handler::builder::<Opt>()
        .on::<Optimize>(move |p, l, k| {
            autodiff(&l, &p).and_then(move |ds| {
                let p = p.clone();
                let k = k.clone();
                perform::<f64, crate::hyper::Lrate>(()).and_then(move |alpha| {
                    let p2: Vec<f64> = p.iter().zip(&ds).map(|(w, d)| w - alpha * d).collect();
                    k.resume(p2)
                })
            })
        })
        .build_identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use selc::{handle, loss};

    /// One optimisation step on the fixed quadratic `(p0 − 3)²`.
    fn quadratic_step(lr: f64, p0: f64) -> Vec<f64> {
        let prog = perform::<f64, Optimize>(vec![p0]).and_then(|p| {
            let e = p[0] - 3.0;
            loss(e * e).map(move |_| p.clone())
        });
        let (_, p) = handle(&gd_handler(lr), prog).run_unwrap();
        p
    }

    #[test]
    fn one_step_moves_towards_the_minimum() {
        // grad at 0 of (x−3)² is −6; step 0.1 ⇒ 0.6
        let p = quadratic_step(0.1, 0.0);
        assert!((p[0] - 0.6).abs() < 1e-4, "{p:?}");
    }

    #[test]
    fn iterating_converges_to_the_minimum() {
        let mut x = 0.0;
        for _ in 0..100 {
            x = quadratic_step(0.2, x)[0];
        }
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn probe_losses_collects_in_order() {
        let h: Handler<f64, Vec<f64>, Vec<f64>> = Handler::builder::<Opt>()
            .on::<Optimize>(|p, l, k| {
                probe_losses(&l, vec![vec![1.0], vec![2.0], vec![3.0]]).and_then(move |ls| {
                    let k = k.clone();
                    let _ = p;
                    // resume with the probed losses as "parameters"
                    k.resume(ls)
                })
            })
            .build_identity();
        // downstream loss = 10 * p[0]
        let prog = perform::<f64, Optimize>(vec![0.0])
            .and_then(|p| loss(10.0 * p[0]).map(move |_| p.clone()));
        let (_, ls) = handle(&h, prog).run_unwrap();
        assert_eq!(ls, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn autodiff_of_downstream_quadratic() {
        let h: Handler<f64, Vec<f64>, Vec<f64>> = Handler::builder::<Opt>()
            .on::<Optimize>(|p, l, k| autodiff(&l, &p).and_then(move |g| k.resume(g)))
            .build_identity();
        // loss = (p0 − 1)² + (p1 + 2)²; at (0,0) gradient = (−2, 4)
        let prog = perform::<f64, Optimize>(vec![0.0, 0.0]).and_then(|p| {
            let v = (p[0] - 1.0) * (p[0] - 1.0) + (p[1] + 2.0) * (p[1] + 2.0);
            loss(v).map(move |_| p.clone())
        });
        let (_, g) = handle(&h, prog).run_unwrap();
        assert!((g[0] + 2.0).abs() < 1e-4, "{g:?}");
        assert!((g[1] - 4.0).abs() < 1e-4, "{g:?}");
    }
}
