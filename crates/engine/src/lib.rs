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
//! * **One worker loop, one pool** — workers fed by a chunked atomic
//!   work queue, the calling thread being worker 0 and the rest parked
//!   helpers of one persistent pool, so a warm process spawns no thread
//!   per search; every engine (flat, tree, [`tree::parallel_subtrees`])
//!   fans out through it. No external dependencies. Worker count
//!   defaults to the `SELC_THREADS` knob ([`threads::configured_threads`])
//!   so CI and benches are reproducible anywhere.
//! * **Deterministic reduction** — per-worker bests merge lexicographically
//!   by `(loss, index)` under the *total* order [`selc::OrderedLoss`], so
//!   parallel argmin returns bit-identical winners to the sequential scan
//!   regardless of interleaving.
//! * **Branch-and-bound pruning** — workers publish achieved losses into
//!   one atomic word ([`SharedBound`]) and skip candidates whose lower
//!   bound is *strictly* dominated; strictness is exactly what preserves
//!   the deterministic tie-breaking (see [`bound`] for the soundness
//!   argument).
//! * **One flat engine** — [`ParallelEngine`]; its worker count is a
//!   policy, not a second engine type. [`ParallelEngine::exhaustive`]
//!   (one worker, no pruning) is the index-order scan on the calling
//!   thread and the oracle of the differential test suites.
//! * **Prefix-sharing tree search** — spaces that are really decision
//!   *trees* (compiled λC choice points, deep games) run on
//!   [`tree::TreeEngine`]: DFS with the bound consulted at every
//!   interior node, best-first child ordering, and subtree-granularity
//!   work distribution over the saturating [`queue::WorkQueue`] —
//!   bit-identical winners to the flat scan at O(tree nodes) cost. Tree
//!   evaluators with a shared `selc-cache` table answer repeat leaves
//!   and whole subtrees from it, and hit/miss telemetry flows into
//!   [`SearchStats`].
//!
//! [`minimize`] is the one parallel argmin of a closure. Downstream,
//! `selc-games` root-splits minimax and n-queens, `selc-ml` batches
//! hyperparameter grids, and `selection::par` root-splits a product of
//! selection functions — all through this engine, each entry point
//! taking the engine it runs on.

pub mod bound;
pub mod cancel;
pub mod engine;
mod pool;
pub mod queue;
pub mod threads;
pub mod tree;

pub use bound::SharedBound;
pub use cancel::CancelToken;
pub use engine::{
    minimize, CandidateEval, FnEval, Outcome, ParallelEngine, SearchResult, SearchStats,
    SequentialEngine,
};
pub use queue::WorkQueue;
pub use threads::{configured_threads, THREADS_ENV};
pub use tree::{parallel_subtrees, SummaryProbe, TreeEngine, TreeEval, TreeStep};
