//! # selc-cache — sharded concurrent memoisation for selection search
//!
//! The paper's §6 names memoisation as the mitigation for the selection
//! handler's probe/resume recomputation, and `selc::MemoChoice`
//! implements the per-activation half: one clause invocation, one
//! cache. This crate is the other half — evaluated work as a **shared,
//! concurrent, evictable resource**: transposition tables that live
//! across workers (the `selc-engine` pool), across handler activations
//! (replays of one program factory), and across whole runs (repeated
//! searches over the same space). It is the first piece of cross-run
//! state in the workspace — the prerequisite for any future serving
//! layer (Abadi–Plotkin's *Smart Choices* reuse of choice/cost
//! evaluations at system scale).
//!
//! The pieces:
//!
//! * [`ShardedCache`] — N mutex-guarded shards selected by a
//!   deterministic key hash; epoch invalidation for reusing one cache
//!   across searches ([`ShardedCache::advance_epoch`]); shared as a
//!   cheap-clone [`SharedCache`] (`Arc`). Each shard stores entries in
//!   a plain hash map ([`ShardedCache::unbounded`]) or a bounded
//!   second-chance clock ([`ShardedCache::clock_lru`]); `SELC_CACHE_CAP`
//!   picks between them for [`ShardedCache::from_env`]. Eviction costs
//!   recomputation, never correctness — a miss just means "compute it
//!   again".
//! * [`CacheHandle`] — what memoising call sites are generic over;
//!   implemented by [`ShardedCache`] (and `Arc` of it) and by the
//!   single-threaded per-activation [`LocalCache`].
//! * [`CacheStats`] — hits/misses/insertions/evictions, mergeable per
//!   shard and per worker; flows into `selc-engine::SearchStats`.
//! * [`SubtreeSummary`] / [`SummaryStats`] — interior-node subtree
//!   summaries for tree search: exact entries carry a subtree's argmin,
//!   bound entries a lower bound from a pruned walk (see [`summary`]).
//! * [`env`](mod@env) — the `SELC_CACHE_CAP` knob and the one
//!   environment parser (`env_usize`) shared with `SELC_THREADS`.
//!
//! This crate has no dependencies (not even on `selc`); `selc` builds
//! its probe memoisation on top of it.

mod backend;
pub mod env;
pub mod handle;
pub mod local;
pub mod sharded;
pub mod stats;
pub mod summary;

pub use handle::CacheHandle;
pub use local::LocalCache;
pub use sharded::{ShardedCache, SharedCache};
pub use stats::CacheStats;
pub use summary::{SubtreeSummary, SummaryStats};
