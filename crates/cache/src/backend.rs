//! Per-shard storage: a [`Store`] is a plain hash map or the bounded
//! [`ClockLru`], picked when the cache is built (`SELC_CACHE_CAP`).
//!
//! A store is plain single-threaded storage — `ShardedCache` supplies
//! the concurrency (one store per mutex-guarded shard) and the
//! telemetry (the shard counts hits/misses/insertions/evictions around
//! store calls). Eviction is a *space* policy, never a correctness
//! one: a selection search consulting a cache treats a miss as "compute
//! it again", so an evicted entry can cost recomputation but can never
//! change a winner (the soundness argument in `DESIGN.md`).

use std::collections::HashMap;
use std::hash::Hash;

/// One shard's storage: what to keep and what to drop.
pub(crate) enum Store<K, V> {
    /// Unbounded: nothing is ever evicted.
    Map(HashMap<K, V>),
    /// Bounded: second-chance eviction at capacity.
    Clock(ClockLru<K, V>),
}

impl<K: Clone + Eq + Hash, V: Clone> Store<K, V> {
    /// The stored value for `key`, if present (a clock hit also sets
    /// the entry's referenced bit).
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        match self {
            Store::Map(map) => map.get(key).cloned(),
            Store::Clock(clock) => clock.get(key),
        }
    }

    /// Stores `key → value`, returning `true` if an existing entry had
    /// to be evicted to make room (never for an update in place).
    pub(crate) fn insert(&mut self, key: K, value: V) -> bool {
        match self {
            Store::Map(map) => {
                map.insert(key, value);
                false
            }
            Store::Clock(clock) => clock.insert(key, value),
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        match self {
            Store::Map(map) => map.len(),
            Store::Clock(clock) => clock.slots.len(),
        }
    }

    /// Drops every entry, returning how many were dropped (epoch
    /// invalidation reports these as evictions).
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.len();
        match self {
            Store::Map(map) => map.clear(),
            Store::Clock(clock) => {
                clock.slots.clear();
                clock.index.clear();
                clock.hand = 0;
            }
        }
        n
    }
}

/// One clock slot: an entry plus its second-chance bit.
struct Slot<K, V> {
    key: K,
    value: V,
    referenced: bool,
}

/// The bounded store: CLOCK (second-chance) eviction — an LRU
/// approximation with O(1) hits and no linked-list churn. Entries sit on
/// a circular buffer; a hit sets the entry's referenced bit; when the
/// store is full, a sweeping hand clears referenced bits until it finds
/// an unreferenced victim to replace.
pub(crate) struct ClockLru<K, V> {
    capacity: usize,
    slots: Vec<Slot<K, V>>,
    index: HashMap<K, usize>,
    hand: usize,
}

impl<K: Clone + Eq + Hash, V: Clone> ClockLru<K, V> {
    /// A bounded store holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> ClockLru<K, V> {
        assert!(capacity >= 1, "ClockLru needs capacity >= 1");
        ClockLru {
            capacity,
            slots: Vec::with_capacity(capacity.min(1024)),
            index: HashMap::new(),
            hand: 0,
        }
    }

    /// Advances the hand to a victim slot, giving referenced entries
    /// their second chance. Terminates: each pass clears one bit, so
    /// after at most one full sweep some slot is unreferenced.
    fn victim(&mut self) -> usize {
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if self.slots[i].referenced {
                self.slots[i].referenced = false;
            } else {
                return i;
            }
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.index.get(key)?;
        self.slots[i].referenced = true;
        Some(self.slots[i].value.clone())
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].value = value;
            self.slots[i].referenced = true;
            return false;
        }
        if self.slots.len() < self.capacity {
            self.index.insert(key.clone(), self.slots.len());
            self.slots.push(Slot { key, value, referenced: true });
            return false;
        }
        let i = self.victim();
        self.index.remove(&self.slots[i].key);
        self.index.insert(key.clone(), i);
        self.slots[i] = Slot { key, value, referenced: true };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_evicts() {
        let mut b: Store<u32, u32> = Store::Map(HashMap::new());
        for i in 0..1000 {
            assert!(!b.insert(i, i * 2));
        }
        assert_eq!(b.len(), 1000);
        assert_eq!(b.get(&500), Some(1000));
        assert_eq!(b.get(&1001), None);
        assert_eq!(b.clear(), 1000);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn clock_update_in_place_is_not_an_eviction() {
        let mut b: Store<u32, u32> = Store::Clock(ClockLru::new(2));
        assert!(!b.insert(1, 10));
        assert!(!b.insert(1, 11), "update in place");
        assert_eq!(b.get(&1), Some(11));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn clock_evicts_at_capacity() {
        let mut b: Store<u32, u32> = Store::Clock(ClockLru::new(2));
        assert!(!b.insert(1, 1));
        assert!(!b.insert(2, 2));
        assert!(b.insert(3, 3), "third insert must evict");
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(&3), Some(3), "new entry is resident");
        let residents = [1u32, 2].iter().filter(|k| b.get(k).is_some()).count();
        assert_eq!(residents, 1, "exactly one old entry survived");
    }

    #[test]
    fn clock_second_chance_prefers_unreferenced_victims() {
        let mut b: Store<u32, u32> = Store::Clock(ClockLru::new(2));
        b.insert(1, 1);
        b.insert(2, 2);
        // Both referenced: the sweep clears both bits and evicts slot 0
        // (key 1), leaving [3 (referenced), 2 (unreferenced)].
        assert!(b.insert(3, 3));
        assert_eq!(b.get(&1), None);
        assert_eq!(b.get(&2), Some(2));
        // Hit 2 but not 3 … then the next insert's victim is whichever
        // entry is unreferenced when the hand reaches it.
        let mut b: Store<u32, u32> = Store::Clock(ClockLru::new(2));
        b.insert(1, 1);
        b.insert(2, 2);
        b.insert(3, 3); // state: [3 (ref), 2 (unref)], hand on slot 1
        assert!(b.insert(4, 4), "evicts the unreferenced 2, not the fresh 3");
        assert_eq!(b.get(&3), Some(3));
        assert_eq!(b.get(&2), None);
        assert_eq!(b.get(&4), Some(4));
    }

    #[test]
    fn clock_clear_resets_everything() {
        let mut b: Store<u32, u32> = Store::Clock(ClockLru::new(3));
        for i in 0..3 {
            b.insert(i, i);
        }
        assert_eq!(b.clear(), 3);
        assert_eq!(b.len(), 0);
        assert!(!b.insert(9, 9));
        assert_eq!(b.get(&9), Some(9));
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = ClockLru::<u32, u32>::new(0);
    }
}
