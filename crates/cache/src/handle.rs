//! The handle abstraction: what a memoising call site talks to.
//!
//! `selc::MemoChoice` (and any other probe-memoising code) is generic
//! over a [`CacheHandle`] — interior-mutable, shared-by-clone lookup
//! and store. Two families implement it:
//!
//! * [`LocalCache`](crate::local::LocalCache) — the per-activation
//!   `Rc<RefCell<HashMap>>` cache (single-threaded, unbounded, dies
//!   with the activation);
//! * [`ShardedCache`](crate::sharded::ShardedCache) — the concurrent
//!   transposition table, shared across workers/activations/runs as an
//!   [`Arc`] ([`SharedCache`](crate::sharded::SharedCache)).
//!
//! # Sharing contract
//!
//! A handle may only be shared between call sites whose cached
//! computation agrees on every key: same key ⇒ same (bit-identical)
//! value. Probe replays of one program factory satisfy this by purity;
//! reusing one handle across *different* programs requires either
//! distinct keys or an [`advance_epoch`](crate::sharded::ShardedCache::advance_epoch)
//! between them.

use crate::stats::CacheStats;
use std::hash::Hash;
use std::sync::Arc;

/// Interior-mutable cache access: lookups and stores through `&self`.
pub trait CacheHandle<K, V> {
    /// The cached value for `key`, if present.
    fn lookup(&self, key: &K) -> Option<V>;

    /// Stores `key → value`.
    fn store(&self, key: K, value: V);

    /// This handle's counters so far. For a shared handle these are the
    /// *global* counters (all sharers), not one call site's slice — use
    /// [`CacheStats::since`] with a snapshot for per-search deltas.
    fn stats(&self) -> CacheStats;
}

impl<K: Clone + Eq + Hash, V: Clone> CacheHandle<K, V> for crate::sharded::ShardedCache<K, V> {
    fn lookup(&self, key: &K) -> Option<V> {
        crate::sharded::ShardedCache::lookup(self, key)
    }

    fn store(&self, key: K, value: V) {
        crate::sharded::ShardedCache::store(self, key, value);
    }

    fn stats(&self) -> CacheStats {
        crate::sharded::ShardedCache::stats(self)
    }
}

/// Shared handles delegate: `Arc<C>` is a handle wherever `C` is. This
/// is how a [`SharedCache`](crate::sharded::SharedCache) clone rides
/// into a worker's locally rebuilt handler.
impl<K, V, C: CacheHandle<K, V>> CacheHandle<K, V> for Arc<C> {
    fn lookup(&self, key: &K) -> Option<V> {
        (**self).lookup(key)
    }

    fn store(&self, key: K, value: V) {
        (**self).store(key, value);
    }

    fn stats(&self) -> CacheStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedCache;

    fn exercise(h: &impl CacheHandle<u32, f64>) {
        assert_eq!(h.lookup(&1), None);
        h.store(1, 2.5);
        assert_eq!(h.lookup(&1), Some(2.5));
        let s = h.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn sharded_cache_is_a_handle_directly_and_behind_arc() {
        exercise(&ShardedCache::unbounded(2));
        exercise(&Arc::new(ShardedCache::unbounded(2)));
    }
}
