//! # selc-engine — a parallel, batched selection-search engine
//!
//! The paper's handler semantics turns every choice point into a
//! loss-driven search over candidates, but the `selc` runtime (like the
//! paper's Haskell artifact) explores them strictly sequentially over a
//! non-`Send` `Rc` free-monad tree. This crate is the execution layer
//! that turns candidate exploration into schedulable, parallel, prunable
//! work:
//!
//! * **Replay per worker** — programs cross threads as plain
//!   `Send + Sync` closures, never as trees: `Sel`/`Eff` trees are
//!   `Rc`-woven, so each worker calls the closure to rebuild its
//!   candidate's program locally (building is pure, so every rebuild
//!   denotes the same computation) and keeps only the recorded loss.
//! * **One engine** — [`Engine`] `{ threads, prune }` is the only search
//!   type. [`Engine::scan`] is the flat argmin over a closure from a
//!   candidate index to its loss ([`minimize`] for a plain loss);
//!   [`Engine::search`] walks a decision tree. The worker count is a
//!   policy, not a second engine: [`Engine::exhaustive`] (one worker, no
//!   pruning) is the index-order scan on the calling thread and the
//!   oracle of the differential test suites. Work sizes follow from the
//!   worker count alone — flat chunks of about a quarter of a worker's
//!   share, a tree split at about four subtrees per worker, capped at the
//!   evaluator's [`TreeEval::min_leaf_depth`].
//! * **One worker loop, one pool** — workers fed by a chunked atomic
//!   work queue, the calling thread being worker 0 and the rest parked
//!   helpers of one persistent pool, so a warm process spawns no thread
//!   per search; the flat scan and the tree walk both fan out through
//!   it. No external dependencies. Worker count defaults to the
//!   `SELC_THREADS` knob ([`threads::configured_threads`]) so CI and
//!   benches are reproducible anywhere.
//! * **Deterministic reduction** — per-worker bests merge lexicographically
//!   by `(loss, index)` under the *total* order [`selc::OrderedLoss`], so
//!   parallel argmin returns bit-identical winners to the sequential scan
//!   regardless of interleaving.
//! * **Branch-and-bound pruning** — workers publish achieved losses into
//!   one atomic word ([`SharedBound`]) and skip candidates whose lower
//!   bound is *strictly* dominated; strictness is exactly what preserves
//!   the deterministic tie-breaking (see [`bound`] for the soundness
//!   argument).
//! * **Prefix-sharing tree search** — spaces that are really decision
//!   *trees* (compiled λC choice points, deep games) run on
//!   [`Engine::search`] over a [`TreeEval`]: DFS with the bound consulted
//!   at every interior node, best-first child ordering, and
//!   subtree-granularity work distribution over the saturating
//!   [`queue::WorkQueue`] — bit-identical winners to the flat scan at
//!   O(tree nodes) cost. Tree evaluators with a shared `selc-cache`
//!   table answer repeat leaves and whole subtrees from it, and hit/miss
//!   telemetry flows into [`SearchStats`].
//!
//! Downstream, `selc-games` root-splits minimax and n-queens, `selc-ml`
//! batches hyperparameter grids, and `selection::par` root-splits a
//! product of selection functions — all through this engine, each entry
//! point taking the engine it runs on.

pub mod bound;
pub mod cancel;
pub mod engine;
mod pool;
pub mod queue;
pub mod threads;
pub mod tree;

pub use bound::SharedBound;
pub use cancel::CancelToken;
pub use engine::{minimize, Engine, Outcome, SearchResult, SearchStats};
// Old names of `Engine`, for the frozen `perfbench/` only.
pub use engine::{ParallelEngine, SequentialEngine, TreeEngine};
pub use queue::WorkQueue;
pub use threads::{configured_threads, THREADS_ENV};
pub use tree::{SummaryProbe, TreeEval, TreeStep};
