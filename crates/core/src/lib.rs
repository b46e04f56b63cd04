//! # selc — handling the selection monad
//!
//! A Rust library of **algebraic effect handlers with choice
//! continuations**, reproducing the programming interface of *Handling the
//! Selection Monad* (Plotkin & Xie, PLDI 2025), §4.
//!
//! Ordinary effect handlers receive a delimited continuation `k`; handlers
//! here additionally receive a **choice continuation** `l` that reports the
//! *loss* the rest of the program would incur for each candidate operation
//! result. Losses are recorded with the built-in writer effect [`loss()`](sel::loss);
//! programmers write handlers that *select* — greedily, by gradient
//! descent, by grid search, by game-theoretic reasoning — using the losses
//! of their possible choices.
//!
//! ## Quickstart
//!
//! ```
//! use selc::{effect, handler, loss, perform, Handler, Sel};
//!
//! effect! {
//!     /// Binary choice (§2.3).
//!     pub effect NDet {
//!         /// Choose a boolean.
//!         op Decide : () => bool;
//!     }
//! }
//!
//! // pgm ≜ b ← decide(); i ← if b then 1 else 2; loss(2·i);
//! //       if b then 'a' else 'b'
//! let pgm = perform::<f64, Decide>(()).and_then(|b| {
//!     let i = if b { 1.0 } else { 2.0 };
//!     loss(2.0 * i).map(move |_| if b { 'a' } else { 'b' })
//! });
//!
//! // An argmin handler: probe both futures, resume with the cheaper one.
//! let h: Handler<f64, char, char> = Handler::builder::<NDet>()
//!     .on::<Decide>(|(), l, k| {
//!         l.at(true).and_then(move |y| {
//!             let (l, k) = (l.clone(), k.clone());
//!             l.at(false).and_then(move |z| {
//!                 if y <= z { k.resume(true) } else { k.resume(false) }
//!             })
//!         })
//!     })
//!     .build_identity();
//!
//! let (total_loss, result) = handler::handle(&h, pgm).run_unwrap();
//! assert_eq!(result, 'a');
//! assert_eq!(total_loss, 2.0);
//! ```
//!
//! ## Architecture
//!
//! * [`Sel<L, A>`](Sel) — the monad
//!   `(A → Eff L) → Eff (L, A)` of §4.2, over any loss monoid [`Loss`];
//! * [`Eff`](eff::Eff) — a free monad over operation nodes (the substitute
//!   for the Haskell artifact's multi-prompt delimited continuations);
//! * [`Handler`] / [`handler::handle`] — the fold implementing rules
//!   (R5)/(R6)/(S1) of the paper's operational semantics;
//! * [`Sel::local0`] / [`Sel::reset`] / [`Sel::lreset`] — the loss-scoping
//!   constructs `⟨·⟩_0` and `reset`;
//! * [`effect!`] — effect/operation declaration;
//! * [`sel!`] — `do`-notation.
//!
//! The λC calculus this library implements is itself reproduced — with its
//! type system, small-step semantics, and denotational semantics — in the
//! companion crates `lambda-c` and `selc-denote`.

pub mod eff;
pub mod effect;
pub mod handler;
pub mod loss;
pub mod memo;
pub mod ordered;
pub mod replay;
pub mod runtime;
pub mod sel;
pub mod value;

/// The `SELC_*` environment knobs' shared parser and the cache knob —
/// re-exported from `selc-cache` so every crate reads configuration the
/// same way (`selc::env::env_usize` backs `SELC_THREADS` and
/// `SELC_CACHE_CAP` alike).
pub use selc_cache::env;

pub use effect::{perform, Effect, Operation};
pub use handler::{handle, handle_with, Choice, Handler, HandlerBuilder, Resume};
pub use loss::Loss;
pub use memo::MemoChoice;
pub use ordered::{f64_sort_key, OrderedLoss};
pub use replay::{replay_loss, Replay, ReplaySpace};
pub use runtime::{zero_cont, BindCont, LossCont, NodeCont, RawChoice, RawResume, SelRun};
pub use sel::{loss, Sel, UnhandledOp};
pub use selc_cache::{CacheHandle, CacheStats, LocalCache, ShardedCache, SharedCache};
pub use value::Value;
