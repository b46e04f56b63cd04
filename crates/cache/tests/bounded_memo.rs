//! A bounded cache under a memoised recursion: with a capacity far below
//! the number of subproblems, almost every entry is evicted and
//! recomputed, and the result must still be bit-identical to the
//! uncached recursion at every shard count.

use selc_cache::ShardedCache;

/// A leaf cost in `[0, 1)` from the cell's coordinates.
fn cost(i: u32, j: u32) -> f64 {
    let z = (u64::from(i) << 32 | u64::from(j)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The cheapest monotone path from `(i, j)` to `(n, n)` on an `n × n`
/// grid, memoised through `cache` when one is given. Every cell is
/// reached along many paths, so the subproblems repeat.
fn cheapest(i: u32, j: u32, n: u32, cache: Option<&ShardedCache<(u32, u32), f64>>) -> f64 {
    if let Some(v) = cache.and_then(|c| c.lookup(&(i, j))) {
        return v;
    }
    let rest = match (i < n, j < n) {
        (false, false) => 0.0,
        (true, false) => cheapest(i + 1, j, n, cache),
        (false, true) => cheapest(i, j + 1, n, cache),
        (true, true) => cheapest(i + 1, j, n, cache).min(cheapest(i, j + 1, n, cache)),
    };
    let v = cost(i, j) + rest;
    if let Some(c) = cache {
        c.store((i, j), v);
    }
    v
}

#[test]
fn a_tiny_clock_cache_and_shard_counts_do_not_change_a_memoised_value() {
    let n = 9;
    let oracle = cheapest(0, 0, n, None);
    for shards in [1, 2, 8] {
        let unbounded = ShardedCache::unbounded(shards);
        assert_eq!(cheapest(0, 0, n, Some(&unbounded)).to_bits(), oracle.to_bits());
        assert!(unbounded.stats().hits > 0, "repeated cells are answered from the cache");
        // Capacity 4: almost everything is evicted and recomputed.
        let tiny = ShardedCache::clock_lru(shards, 4);
        let value = cheapest(0, 0, n, Some(&tiny));
        assert_eq!(value.to_bits(), oracle.to_bits(), "tiny cap, shards {shards}");
        assert!(tiny.len() <= 4, "len {} exceeds the capacity", tiny.len());
        assert!(tiny.stats().evictions > 0, "cap 4 must evict: {:?}", tiny.stats());
        // A warm repeat through the evicting cache agrees too.
        assert_eq!(cheapest(0, 0, n, Some(&tiny)).to_bits(), oracle.to_bits());
    }
}
