//! Cache telemetry: one counter block for every cache in the system.
//!
//! [`CacheStats`] subsumes the old per-activation `MemoStats` of
//! `selc::memo` (its `probes` counter is exactly [`CacheStats::misses`]:
//! every uncached probe is a lookup miss followed by a real run). The
//! counters are mergeable — per shard, per worker, per search — so one
//! coherent hit/miss/eviction block can flow from a single shard all the
//! way up into `selc-engine`'s `SearchStats`.

/// Counters describing what a cache did: lookups that hit, lookups that
/// missed, entries inserted, and entries evicted (by a bounded store
/// reaching capacity, or by epoch invalidation clearing a shard).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the caller then recomputes).
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries removed to make room (bounded stores) or dropped by
    /// epoch invalidation.
    pub evictions: u64,
}

impl CacheStats {
    /// Component-wise sum, for aggregating shards, workers, or searches.
    #[must_use]
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
        }
    }

    /// Component-wise saturating difference: the activity *since* an
    /// earlier snapshot of the same (monotone) counters. Used to report
    /// one search's share of a long-lived shared cache.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (`0.0` when no lookup
    /// happened yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_sums_componentwise() {
        let a = CacheStats { hits: 1, misses: 2, insertions: 3, evictions: 4 };
        let b = CacheStats { hits: 10, misses: 20, insertions: 30, evictions: 40 };
        assert_eq!(
            a.merged(&b),
            CacheStats { hits: 11, misses: 22, insertions: 33, evictions: 44 }
        );
        assert_eq!(a.merged(&CacheStats::default()), a);
    }

    #[test]
    fn since_subtracts_a_snapshot() {
        let before = CacheStats { hits: 5, misses: 5, insertions: 5, evictions: 0 };
        let after = CacheStats { hits: 8, misses: 6, insertions: 6, evictions: 2 };
        assert_eq!(
            after.since(&before),
            CacheStats { hits: 3, misses: 1, insertions: 1, evictions: 2 }
        );
        // Saturating: a fresh cache "since" an old busy one is zero, not
        // a wrap-around.
        assert_eq!(CacheStats::default().since(&after), CacheStats::default());
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let s = CacheStats { hits: 3, misses: 1, insertions: 1, evictions: 0 };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
