//! # lambda-rt — the λC → runtime bridge
//!
//! PRs 2–3 built a parallel, prunable, cached execution layer
//! (`selc-engine`, `selc-cache`) for the *library* form of the selection
//! monad; the paper's own calculus λC (`lambda-c`) still ran only on its
//! single-threaded substitution interpreter. This crate closes that gap:
//!
//! 1. **Compile** — `lambda_c::compile` lowers a well-typed λC
//!    expression to `Arc`-shared de Bruijn code, and
//!    `lambda_c::machine` evaluates it with persistent environments and
//!    continuations as plain frame records, bit-identical to the Fig-6 smallstep reference
//!    (losses *and* terminals) at a fraction of the cost of
//!    clone-and-rename substitution.
//! 2. **Bridge** — [`LcCandidates`] turns the compiled program's argmin
//!    choice points into a family of `2^depth` forced-path runs, one per
//!    candidate index (Hedges: a selection computation is a function
//!    from a choice to its loss), so a plain loss closure over it runs
//!    on the flat `selc_engine::Engine::scan` — parallel workers,
//!    deterministic `(loss, index)` reduction, `SharedBound`
//!    branch-and-bound.
//! 3. **Tree search** — [`search_compiled`] walks the decision *tree*
//!    instead of the flat path family: the machine suspends at each
//!    choice point ([`lambda_c::machine::ChoicePoint`]) and both
//!    branches resume from the shared prefix snapshot, O(tree nodes)
//!    machine work instead of O(2^depth · depth) replay-from-root, with
//!    subtree-granularity parallelism. The flat scan stays as the
//!    independent differential reference ([`search_compiled_flat`]): no
//!    table, no pruning, no state shared with the searches it checks.
//! 4. **Cache** — [`search_compiled_cached`] threads a `selc-cache`
//!    transposition table through the tree walk. It holds one entry
//!    kind, the subtree summary of a *decision prefix* (its best
//!    `(loss, index)`), so a warm repeat answers whole subtrees and
//!    replays nothing. Pruning is switched on only by a `lambda_c::flow`
//!    certificate.
//!
//! ```
//! use lambda_rt::{search_compiled, LcCandidates};
//! use selc_engine::Engine;
//!
//! let ex = lambda_c::examples::pgm_with_argmin_handler();
//! let cands = LcCandidates::new(
//!     lambda_c::compile(&ex.expr).unwrap(),
//!     ["decide".to_owned()],
//!     1,
//! );
//! let (outcome, value) = search_compiled(&Engine::exhaustive(), &cands).unwrap();
//! assert_eq!(outcome.loss.0, lambda_c::LossVal::scalar(2.0));
//! assert_eq!(value, Some(lambda_c::prim::Ground::Char('a')));
//! ```

pub mod bridge;
pub mod loss;
pub mod search;
pub mod tree;

pub use bridge::{LcCandidates, LcValue};
pub use loss::{encode_scalar, OrdLossVal};
pub use search::{search_compiled_flat, LcTransCache};
pub use tree::{search_compiled, search_compiled_cached, search_compiled_cached_with, LcTreeEval};
