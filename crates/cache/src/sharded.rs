//! The concurrent cache: N mutex-guarded shards selected by key hash,
//! with epoch invalidation for reusing one cache across searches.
//!
//! Sharding bounds contention instead of eliminating it: two workers
//! only serialise when their keys hash to the same shard, so lock hold
//! times stay at one store operation and throughput scales with the
//! shard count. The shard for a key is a pure function of the key (a
//! deterministic SipHash), so *which* values a lookup can see never
//! depends on thread interleaving — with an unbounded store the cache
//! contents are a plain function of the set of stores performed, and the
//! differential suites exploit that to demand shard-count invariance.
//!
//! # Epoch invalidation
//!
//! [`ShardedCache::advance_epoch`] logically empties the whole cache in
//! one atomic bump. Shards notice lazily: each shard records the epoch
//! it last served, and the first access under a newer epoch clears the
//! shard's store (counting the dropped entries as evictions) before
//! proceeding. The contract: entries stored under epoch *e* are
//! invisible under every epoch > *e*. Use it when the meaning of the
//! keys changes — a new program, a new loss function, a new dataset —
//! while reusing the allocation and the handle.

use crate::backend::{ClockLru, Store};
use crate::stats::CacheStats;
use selc_check::sync::atomic::{AtomicU64, Ordering};
use selc_check::sync::{Mutex, MutexGuard, TryLockError};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-global mirrors of the per-cache [`CacheStats`] counters,
/// plus the shard-lock contention telemetry no per-cache view can
/// express (a wait is a property of the *moment*, not of any one
/// handle). Registered lazily, recorded only when `selc_obs` metrics
/// are enabled — the disabled path never touches this struct.
struct CacheMetrics {
    hits: selc_obs::Counter,
    misses: selc_obs::Counter,
    insertions: selc_obs::Counter,
    evictions: selc_obs::Counter,
    lock_contended: selc_obs::Counter,
    lock_wait_ns: selc_obs::Histogram,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: selc_obs::metrics::counter("cache.hits"),
        misses: selc_obs::metrics::counter("cache.misses"),
        insertions: selc_obs::metrics::counter("cache.insertions"),
        evictions: selc_obs::metrics::counter("cache.evictions"),
        lock_contended: selc_obs::metrics::counter("cache.shard_lock_contended"),
        lock_wait_ns: selc_obs::metrics::histogram("cache.shard_lock_wait_ns"),
    })
}

/// Locks a shard, timing the wait when the lock was contended. The
/// uncontended path (metrics on or off) stays one atomic acquire: with
/// metrics on it is a `try_lock` that usually succeeds, and only the
/// `WouldBlock` slow path pays for an `Instant` pair and a histogram
/// record — per-shard lock-wait telemetry priced entirely on the
/// contended moments it exists to expose.
fn lock_shard<S>(m: &Mutex<S>) -> MutexGuard<'_, S> {
    if selc_obs::metrics_enabled() {
        match m.try_lock() {
            Ok(guard) => return guard,
            Err(TryLockError::WouldBlock) => {
                let start = Instant::now();
                let guard = m.lock().expect("cache shard poisoned");
                let waited = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let metrics = cache_metrics();
                metrics.lock_contended.inc();
                metrics.lock_wait_ns.record(waited);
                return guard;
            }
            Err(TryLockError::Poisoned(_)) => panic!("cache shard poisoned"),
        }
    }
    m.lock().expect("cache shard poisoned")
}

/// The canonical shared handle: a [`ShardedCache`] behind an [`Arc`],
/// cheap to clone into worker closures and handler factories.
pub type SharedCache<K, V> = Arc<ShardedCache<K, V>>;

/// One shard: a store plus the epoch it last served and its counters.
struct Shard<K, V> {
    store: Store<K, V>,
    epoch: u64,
    stats: CacheStats,
}

impl<K: Clone + Eq + Hash, V: Clone> Shard<K, V> {
    /// Applies a pending epoch bump: entries from older epochs vanish
    /// before the shard serves anything, counted as evictions in both
    /// the per-cache stats and the process-global metrics mirror.
    fn sync_epoch(&mut self, current: u64) {
        if self.epoch != current {
            let dropped = self.store.clear() as u64;
            self.stats.evictions += dropped;
            if dropped > 0 && selc_obs::metrics_enabled() {
                cache_metrics().evictions.add(dropped);
            }
            self.epoch = current;
        }
    }
}

/// A sharded concurrent memoisation cache (transposition table).
///
/// `Send + Sync` whenever `K` and `V` are `Send`; share it across
/// workers as a [`SharedCache`]. All values are stored by clone —
/// selection-search caches hold losses and other small copyable scores.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    epoch: AtomicU64,
}

impl<K: Clone + Eq + Hash, V: Clone> ShardedCache<K, V> {
    /// A cache of `shards` unbounded shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn unbounded(shards: usize) -> ShardedCache<K, V> {
        ShardedCache::with_stores(shards, || Store::Map(HashMap::new()))
    }

    /// A bounded cache: CLOCK stores whose capacities sum to **at
    /// most** `total_capacity` (and to no less than
    /// `total_capacity − shards + 1`). The shard count is clamped to
    /// the capacity so every shard holds at least one entry — a tiny
    /// cap therefore really is tiny, whatever shard count was asked
    /// for, which is what the CI forced-eviction job relies on.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `total_capacity` is zero.
    #[must_use]
    pub fn clock_lru(shards: usize, total_capacity: usize) -> ShardedCache<K, V> {
        assert!(total_capacity >= 1, "bounded cache needs capacity >= 1");
        assert!(shards >= 1, "ShardedCache needs at least one shard");
        let shards = shards.min(total_capacity);
        let per_shard = total_capacity / shards;
        ShardedCache::with_stores(shards, || Store::Clock(ClockLru::new(per_shard)))
    }

    /// The environment-configured cache: [`crate::env::DEFAULT_SHARDS`]
    /// shards, bounded to `SELC_CACHE_CAP` entries when that knob is set
    /// and positive, unbounded otherwise. Every cached entry point that
    /// does not take an explicit cache builds one of these, so the knob
    /// governs the whole workspace just like `SELC_THREADS` does for
    /// pools.
    #[must_use]
    pub fn from_env() -> ShardedCache<K, V> {
        let shards = crate::env::DEFAULT_SHARDS;
        match crate::env::configured_capacity() {
            Some(cap) => ShardedCache::clock_lru(shards, cap),
            None => ShardedCache::unbounded(shards),
        }
    }

    /// [`from_env`](Self::from_env), already wrapped for sharing.
    #[must_use]
    pub fn shared_from_env() -> SharedCache<K, V> {
        Arc::new(ShardedCache::from_env())
    }

    /// A cache of `shards` shards, each with a store built by `store`.
    fn with_stores(shards: usize, store: impl Fn() -> Store<K, V>) -> ShardedCache<K, V> {
        assert!(shards >= 1, "ShardedCache needs at least one shard");
        let shards = (0..shards)
            .map(|_| Mutex::new(Shard { store: store(), epoch: 0, stats: CacheStats::default() }))
            .collect();
        ShardedCache { shards, epoch: AtomicU64::new(0) }
    }

    /// The shard a key lives in — a pure function of the key, so lookups
    /// are deterministic and shard counts only affect contention, never
    /// contents (for unbounded stores).
    fn shard_index(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Locks a key's shard, applying any pending epoch invalidation
    /// first (dropped entries count as evictions).
    fn shard(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let mut guard = lock_shard(&self.shards[self.shard_index(key)]);
        // ordering: Acquire — pairs with the Release in `advance_epoch`:
        // a shard that observes the bumped epoch also observes everything
        // the bumping thread did before invalidating (e.g. the new
        // program being installed), so it never clears and then serves a
        // stale value that was stored after the bump it missed.
        guard.sync_epoch(self.epoch.load(Ordering::Acquire));
        guard
    }

    /// The cached value for `key`, if present under the current epoch.
    pub fn lookup(&self, key: &K) -> Option<V> {
        let mut shard = self.shard(key);
        let found = shard.store.get(key);
        match &found {
            Some(_) => shard.stats.hits += 1,
            None => shard.stats.misses += 1,
        }
        drop(shard);
        if selc_obs::metrics_enabled() {
            let metrics = cache_metrics();
            match &found {
                Some(_) => metrics.hits.inc(),
                None => metrics.misses.inc(),
            }
        }
        found
    }

    /// Stores `key → value` under the current epoch.
    pub fn store(&self, key: K, value: V) {
        let mut shard = self.shard(&key);
        shard.stats.insertions += 1;
        let evicted = shard.store.insert(key, value);
        if evicted {
            shard.stats.evictions += 1;
        }
        drop(shard);
        if selc_obs::metrics_enabled() {
            let metrics = cache_metrics();
            metrics.insertions.inc();
            if evicted {
                metrics.evictions.inc();
            }
        }
    }

    /// Logically empties the cache: entries stored under earlier epochs
    /// become invisible, and each shard physically clears on its next
    /// access. Returns the new epoch.
    pub fn advance_epoch(&self) -> u64 {
        // ordering: Release — publishes everything the bumping thread
        // wrote before invalidating; pairs with the Acquire loads in
        // `shard` and `for_each_shard` (see the comment in `shard`).
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// The current epoch (starts at 0).
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire — callers compare epochs across handles and
        // expect the writes that preceded an observed bump to be visible.
        self.epoch.load(Ordering::Acquire)
    }

    /// Live entries across all shards (after applying pending epoch
    /// invalidation).
    pub fn len(&self) -> usize {
        self.for_each_shard(|s| s.store.len()).into_iter().sum()
    }

    /// No live entries?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merged counters across all shards.
    pub fn stats(&self) -> CacheStats {
        self.for_each_shard(|s| s.stats)
            .into_iter()
            .fold(CacheStats::default(), |acc, s| acc.merged(&s))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Runs `f` under each shard's lock in shard order, applying pending
    /// epoch invalidation first so observations are epoch-consistent.
    fn for_each_shard<T>(&self, mut f: impl FnMut(&mut Shard<K, V>) -> T) -> Vec<T> {
        // ordering: Acquire — same pairing as the load in `shard`.
        let current = self.epoch.load(Ordering::Acquire);
        self.shards
            .iter()
            .map(|m| {
                let mut guard = lock_shard(m);
                guard.sync_epoch(current);
                f(&mut guard)
            })
            .collect()
    }
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            // ordering: Relaxed — diagnostic snapshot only.
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_store_roundtrip_and_stats() {
        let c: ShardedCache<u32, f64> = ShardedCache::unbounded(4);
        assert_eq!(c.lookup(&7), None);
        c.store(7, 0.5);
        assert_eq!(c.lookup(&7), Some(0.5));
        assert_eq!(c.len(), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn contents_are_shard_count_invariant() {
        // Same stores → same lookups, whatever the shard count.
        for shards in [1, 2, 3, 8, 17] {
            let c: ShardedCache<u64, u64> = ShardedCache::unbounded(shards);
            for k in 0..100 {
                c.store(k, k * k);
            }
            for k in 0..100 {
                assert_eq!(c.lookup(&k), Some(k * k), "shards = {shards}");
            }
            assert_eq!(c.lookup(&1000), None);
            assert_eq!(c.len(), 100, "shards = {shards}");
        }
    }

    #[test]
    fn advance_epoch_invalidates_lazily() {
        let c: ShardedCache<u32, u32> = ShardedCache::unbounded(2);
        c.store(1, 1);
        c.store(2, 2);
        assert_eq!(c.advance_epoch(), 1);
        assert_eq!(c.lookup(&1), None, "old-epoch entries are invisible");
        assert_eq!(c.lookup(&2), None);
        assert!(c.is_empty());
        // The drops were counted as evictions.
        assert_eq!(c.stats().evictions, 2);
        // The cache is usable under the new epoch.
        c.store(1, 10);
        assert_eq!(c.lookup(&1), Some(10));
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn bounded_cache_evicts_and_counts() {
        let c: ShardedCache<u64, u64> = ShardedCache::clock_lru(2, 4);
        for k in 0..32 {
            c.store(k, k);
        }
        assert!(c.len() <= 4, "len {} exceeds total capacity", c.len());
        assert!(c.stats().evictions >= 28, "stats: {:?}", c.stats());
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let c: SharedCache<u64, u64> = Arc::new(ShardedCache::unbounded(4));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..250u64 {
                        let k = (t * 250 + i) % 100;
                        match c.lookup(&k) {
                            Some(v) => assert_eq!(v, k * 3, "cached value corrupted"),
                            None => c.store(k, k * 3),
                        }
                    }
                });
            }
        });
        assert_eq!(c.len(), 100);
        for k in 0..100 {
            assert_eq!(c.lookup(&k), Some(k * 3));
        }
        let s = c.stats();
        assert_eq!(s.lookups(), 1000 + 100, "4×250 worker lookups + 100 checks");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedCache::<u32, u32>::unbounded(0);
    }
}

/// Exhaustive small-schedule verification under the `selc_check` model
/// checker (`RUSTFLAGS="--cfg selc_model" cargo test -p selc-cache`).
#[cfg(all(test, selc_model))]
mod model_tests {
    use super::*;
    use selc_check::model::{check, spawn, Options};

    /// Epoch-bump tenant isolation on every interleaving: once a reader
    /// *observes* the bumped epoch, no lookup through any handle can
    /// return a value stored under the old epoch — the tenant that
    /// triggered the bump never sees the previous tenant's entries.
    #[test]
    fn model_epoch_bump_isolates_old_entries_on_every_schedule() {
        check("cache-epoch-isolation", Options::default(), || {
            let c: SharedCache<u32, u32> = Arc::new(ShardedCache::unbounded(1));
            c.store(7, 100); // the previous tenant's entry, epoch 0
            let bumper = {
                let c = Arc::clone(&c);
                spawn(move || c.advance_epoch())
            };
            let reader = {
                let c = Arc::clone(&c);
                spawn(move || {
                    let epoch_seen = c.epoch();
                    let v = c.lookup(&7);
                    assert!(
                        !(epoch_seen >= 1 && v == Some(100)),
                        "a reader that observed the bump saw an old-epoch value"
                    );
                })
            };
            bumper.join();
            reader.join();
            // The bump is joined: the old entry is gone unconditionally.
            assert_eq!(c.epoch(), 1);
            assert_eq!(c.lookup(&7), None, "old-epoch entries are invisible after the bump");
        });
    }
}
