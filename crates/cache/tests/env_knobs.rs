//! The `SELC_CACHE_CAP` knob, tested in its own process so the env
//! mutation cannot race other tests (the same discipline as
//! `selc-engine`'s `env_threads.rs`).

use selc_cache::env::{configured_capacity, env_usize, CACHE_CAP_ENV, DEFAULT_SHARDS};
use selc_cache::ShardedCache;

#[test]
fn cache_env_knobs_shape_from_env_caches() {
    // Pinned cap 4 → bounded cache that evicts.
    std::env::set_var(CACHE_CAP_ENV, "4");
    assert_eq!(configured_capacity(), Some(4));
    let c: ShardedCache<u64, u64> = ShardedCache::from_env();
    assert_eq!(c.shard_count(), 4, "the shard count is clamped to the capacity");
    for k in 0..64 {
        c.store(k, k);
    }
    assert!(c.stats().evictions > 0, "cap 4 must evict under 64 stores: {:?}", c.stats());

    // Cap 0 or garbage → unbounded.
    std::env::set_var(CACHE_CAP_ENV, "0");
    assert_eq!(configured_capacity(), None);
    std::env::set_var(CACHE_CAP_ENV, "not-a-number");
    assert_eq!(configured_capacity(), None);

    // Unset → unbounded, default shards; from_env never evicts then.
    std::env::remove_var(CACHE_CAP_ENV);
    assert_eq!(configured_capacity(), None);
    let c: ShardedCache<u64, u64> = ShardedCache::from_env();
    assert_eq!(c.shard_count(), DEFAULT_SHARDS);
    for k in 0..256 {
        c.store(k, k);
    }
    assert_eq!(c.len(), 256);
    assert_eq!(c.stats().evictions, 0);

    // The shared parser itself.
    std::env::set_var(CACHE_CAP_ENV, "  17 ");
    assert_eq!(env_usize(CACHE_CAP_ENV), Some(17), "trimmed parse");
    std::env::remove_var(CACHE_CAP_ENV);
}
