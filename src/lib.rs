//! Umbrella crate for the *Handling the Selection Monad* reproduction.
//!
//! Re-exports every workspace crate so that the runnable examples under
//! `examples/` and the cross-crate integration tests under `tests/` can use
//! one coherent namespace. See `README.md` for a tour and `DESIGN.md` for
//! the system inventory.

pub use lambda_c;
pub use lambda_rt;
pub use selc;
pub use selc_autodiff as autodiff;
pub use selc_denote as denote;
pub use selc_games as games;
pub use selc_ml as ml;
pub use selection;

/// Compiles (and runs) the ```rust blocks of `README.md` as doctests, so
/// the tour cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
