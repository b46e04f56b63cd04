//! Correctness tooling for the selection-monad workspace.
//!
//! Two halves, one crate:
//!
//! * [`sync`] + `model`: a dependency-free, loom-style deterministic
//!   model checker. Concurrent code imports its atomics, mutexes, and
//!   condvars through [`sync`], which re-exports `std::sync` in normal
//!   builds and swaps in scheduler-instrumented facades when the crate
//!   graph is compiled with `--cfg selc_model`. Under that cfg,
//!   `model::check` runs a closure over *every* thread interleaving up
//!   to a preemption bound, serialising real OS threads through a
//!   token-passing DFS scheduler. A failing interleaving panics with a
//!   seed that `model::check_with_seed` replays exactly.
//!
//! * [`lint`]: a hand-rolled static pass (`selc-lint` binary) that keeps
//!   the workspace's determinism and robustness invariants from
//!   regressing: no `partial_cmp`/untotal float sorts outside the
//!   sanctioned `autodiff::Dual` site, a written justification for every
//!   atomic memory ordering, and no `unwrap()`/`expect()` in
//!   `crates/serve` non-test code.
//!
//! The crate intentionally depends on nothing, so every other crate can
//! depend on it without cycles.

pub mod lint;
#[cfg(selc_model)]
pub mod model;
pub mod sync;
