//! # selc-engine — a parallel, prunable selection-search engine
//!
//! The paper's handler semantics turns every choice point into a
//! loss-driven search over candidates, but the `selc` runtime (like the
//! paper's Haskell artifact) explores them strictly sequentially over a
//! non-`Send` `Rc` free-monad tree. This crate is the execution layer
//! that turns candidate exploration into prunable work, and tree-shaped
//! exploration into schedulable, parallel work:
//!
//! * **One engine** — [`Engine`] `{ threads, prune }` is the only search
//!   type. [`Engine::scan`] is the flat argmin over a closure from a
//!   candidate index to its loss ([`minimize`] for a plain loss): the
//!   paper's left-to-right argmin, run in index order on the calling
//!   thread at every worker count. [`Engine::search`] walks a decision
//!   tree, and is the one search that runs on more than one worker. The
//!   worker count is a policy, not a second engine:
//!   [`Engine::exhaustive`] (one worker, no pruning) is the index-order
//!   scan or the single depth-first walk on the calling thread, and the
//!   oracle of the differential test suites. A walk's work sizes follow
//!   from the worker count alone — a split at about four subtrees per
//!   worker, capped at the evaluator's [`TreeEval::min_leaf_depth`].
//! * **Replay per worker** — tree evaluators cross threads as plain
//!   `Send + Sync` values, never as `Sel`/`Eff` trees: those are
//!   `Rc`-woven, so each worker rebuilds its subtree root locally
//!   ([`TreeEval::enter`]; building is pure, so every rebuild denotes the
//!   same computation) and keeps only the recorded losses.
//! * **One worker loop, one pool** — the tree walk's workers claim
//!   subtree roots one at a time from a saturating atomic cursor, the
//!   calling thread being worker 0 and the rest parked helpers of one
//!   persistent pool, so a warm process spawns no thread per search. No
//!   external dependencies. Worker count defaults to the `SELC_THREADS`
//!   knob ([`threads::configured_threads`]) so CI and benches are
//!   reproducible anywhere.
//! * **Deterministic reduction** — bests fold lexicographically by
//!   `(loss, index)` under the *total* order [`selc::OrderedLoss`], so a
//!   parallel walk returns bit-identical winners to the sequential scan
//!   regardless of interleaving.
//! * **Branch-and-bound pruning** — searches publish achieved losses into
//!   one atomic word ([`SharedBound`]) and skip candidates whose lower
//!   bound is *strictly* dominated; strictness is exactly what preserves
//!   the deterministic tie-breaking (see [`bound`] for the soundness
//!   argument).
//! * **Prefix-sharing tree search** — spaces that are really decision
//!   *trees* (compiled λC choice points, deep games) run on
//!   [`Engine::search`] over a [`TreeEval`]: DFS with the bound consulted
//!   at every interior node, best-first child ordering, and
//!   subtree-granularity work distribution — bit-identical winners to
//!   the flat scan at O(tree nodes) cost. Tree evaluators with a shared
//!   `selc-cache` table answer repeat leaves and whole subtrees from it,
//!   and hit/miss telemetry flows into [`SearchStats`].
//!
//! Downstream, `selc-games` scans minimax root rows, `selc-ml` scans
//! training runs, and `lambda-rt` walks compiled choice trees — all
//! through this engine, each entry point taking the engine it runs on.

pub mod bound;
pub mod cancel;
pub mod engine;
mod pool;
mod queue;
pub mod threads;
pub mod tree;

pub use bound::SharedBound;
pub use cancel::CancelToken;
pub use engine::{minimize, Engine, Outcome, SearchResult, SearchStats};
// Old names of `Engine`, for the frozen `perfbench/` only.
pub use engine::{ParallelEngine, SequentialEngine, TreeEngine};
pub use threads::{configured_threads, THREADS_ENV};
pub use tree::{SummaryProbe, TreeEval, TreeStep};
