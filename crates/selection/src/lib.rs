//! Pure selection-monad theory (§2.1 of *Handling the Selection Monad*,
//! Plotkin & Xie, PLDI 2025).
//!
//! The selection monad on a set `X` is `S(X) = (X → R) → X`: a *selection
//! function* picks an element of `X` given a *loss function* `γ : X → R`.
//! The canonical example is [`argmin`]: given a loss function over a finite
//! candidate set it returns a minimising element.
//!
//! This crate implements, in the category of Rust closures:
//!
//! * [`Sel`] — plain selection functions with the Kleisli-triple structure
//!   of §2.1 (unit, extension via the loss-continuation transformer `~f`),
//!   the associated loss `R(F|γ) = γ(F(γ))`, and the morphism into the
//!   continuation ("quantifier") monad `K(X) = (X → R) → R`.
//! * [`SelW`] — the writer-augmented selection monad
//!   `S_W(X) = (X → R) → (R × X)` used by the paper to model programs that
//!   record losses with a `loss` effect.
//! * [`product`] — the Escardó–Oliva binary and n-ary products of selection
//!   functions, which implement backward induction / exhaustive game
//!   solving and are exercised by the games substrate.
//! * [`argmin`]/[`argmax`] and friends over finite candidate lists.
//!
//! Everything here is deterministic: ties in `argmin`/`argmax` are broken
//! towards the earliest candidate, matching the paper's "we assume
//! available some way to choose when there is more than one such
//! element". The crate is dependency-free.
//!
//! # Example
//!
//! Solving the one-move game of §2.1: the maximiser picks `x`, the
//! minimiser replies with the `y` minimising `eval(x, y)`:
//!
//! ```
//! use selection::{argmax, argmin_by, Sel};
//! use std::rc::Rc;
//!
//! let eval = |x: &usize, y: &usize| [[5.0_f64, 3.0], [2.0, 9.0]][*x][*y];
//! // f : X -> S(X × Y)
//! let f = move |x: usize| {
//!     Sel::new(move |g: Rc<dyn Fn(&(usize, usize)) -> f64>| {
//!         let y = argmin_by(vec![0usize, 1], |y| g(&(x, *y)));
//!         (x, y)
//!     })
//! };
//! let minimax = argmax(vec![0usize, 1]).and_then(f);
//! let (x0, y0) = minimax.select(move |&(x, y)| eval(&x, &y));
//! assert_eq!((x0, y0), (0, 1)); // A plays Left, B replies Right, value 3
//! ```

mod argminmax;
mod quantifier;
mod sel;
mod selw;

pub mod product;

pub use argminmax::{argmax, argmax_by, argmin, argmin_by, argmin_index, max_with, min_with};
pub use quantifier::Quant;
pub use sel::{LossFn, Sel};
pub use selw::{argmin_recording, Monoid, SelW};
