//! Differential + property suite for cached tree search: a tree walk
//! that answers leaves and whole subtrees from a shared table must return
//! **bit-identical winners** to the uncached sequential scan — across
//! pool shapes, shard counts, warm and cold tables, epoch bumps, key
//! collapsing, and under capacities tiny enough to force heavy eviction.
//! CI runs this file with `SELC_THREADS=2 SELC_CACHE_CAP=8`, so the
//! `from_env` rows exercise real thread interleaving against a
//! really-evicting bounded table.

use proptest::prelude::*;
use selc_cache::{ShardedCache, SubtreeSummary};
use selc_engine::{minimize, Engine, SummaryProbe, TreeEval, TreeStep};
use std::sync::atomic::{AtomicU64, Ordering};

/// A table entry: a leaf's loss under its leaf key, or an interior
/// summary under its position.
#[derive(Clone, Debug)]
enum Entry {
    Leaf(f64),
    Summary(SubtreeSummary<f64>),
}

/// Leaves are keyed `(depth, class)`, interior positions `(len, bits)`
/// with `len < depth`, so the two populations never collide.
type Table = ShardedCache<(u32, u64), Entry>;

/// A full binary tree over a loss table with a shared cache: leaves are
/// looked up before they are computed and stored after, subtree
/// summaries go through the same table, and hints are prefix minima (a
/// true lower bound, so pruning engines skip dominated subtrees).
struct CachedTable<'c, K> {
    losses: Vec<f64>,
    depth: u32,
    cache: &'c Table,
    /// The leaf key: must be injective up to loss (one key, one loss).
    class: K,
    /// Whether interior positions probe and install summaries; off, the
    /// table holds leaves only.
    summaries: bool,
    /// Leaves really computed rather than answered from the table.
    computed: AtomicU64,
}

impl<'c, K: Fn(u64) -> u64 + Send + Sync> CachedTable<'c, K> {
    fn new(losses: &[f64], cache: &'c Table, class: K) -> CachedTable<'c, K> {
        let depth = losses.len().trailing_zeros();
        assert_eq!(1 << depth, losses.len(), "table must be a power of two");
        CachedTable {
            losses: losses.to_vec(),
            depth,
            cache,
            class,
            summaries: true,
            computed: AtomicU64::new(0),
        }
    }

    fn step(&self, path: u64, len: u32) -> TreeStep<(), f64> {
        if len == self.depth {
            let key = (len, (self.class)(path));
            if let Some(Entry::Leaf(loss)) = self.cache.lookup(&key) {
                return TreeStep::Leaf { loss, used: len };
            }
            // ordering: Relaxed — a test counter, no data guarded.
            self.computed.fetch_add(1, Ordering::Relaxed);
            let loss = self.losses[path as usize];
            self.cache.store(key, Entry::Leaf(loss));
            return TreeStep::Leaf { loss, used: len };
        }
        let lo = (path << (self.depth - len)) as usize;
        let hint = self.losses[lo..lo + (1 << (self.depth - len))].iter().copied().reduce(f64::min);
        TreeStep::Node { node: (), hint }
    }
}

impl<K: Fn(u64) -> u64 + Send + Sync> TreeEval<f64> for CachedTable<'_, K> {
    type Node = ();

    fn depth(&self) -> u32 {
        self.depth
    }

    fn enter(&self, prefix: u64, len: u32) -> TreeStep<(), f64> {
        self.step(prefix, len)
    }

    fn child(&self, _node: &(), _decision: bool, path: u64, len: u32) -> TreeStep<(), f64> {
        self.step(path, len)
    }

    fn probe_summary(&self, bits: u64, len: u32) -> SummaryProbe<f64> {
        if !self.summaries {
            return SummaryProbe::Miss;
        }
        match self.cache.lookup(&(len, bits)) {
            Some(Entry::Summary(s)) => SummaryProbe::from(s),
            _ => SummaryProbe::Miss,
        }
    }

    fn install_summary(&self, bits: u64, len: u32, summary: SubtreeSummary<f64>) {
        if self.summaries {
            self.cache.store((len, bits), Entry::Summary(summary));
        }
    }
}

/// The longest power-of-two prefix of a generated loss vector (the tree
/// is full-depth).
fn full_tree<T>(mut v: Vec<T>) -> Vec<T> {
    v.truncate(1 << (usize::BITS - 1 - v.len().leading_zeros()));
    v
}

/// The workspace's sequential-argmin oracle: first strict minimum.
fn first_min(losses: &[f64]) -> (usize, f64) {
    let mut best = 0;
    for (i, l) in losses.iter().enumerate().skip(1) {
        if *l < losses[best] {
            best = i;
        }
    }
    (best, losses[best])
}

fn engines() -> Vec<Engine> {
    vec![
        Engine::with_threads(1),
        Engine::with_threads(2).without_pruning(),
        Engine::with_threads(4),
        Engine::with_threads(8),
    ]
}

/// Every table shape a search might run against, flagged unbounded or
/// not: unbounded across shard counts, capacities small enough to evict
/// almost everything, and the environment-configured table (bounded to
/// 8 entries in CI).
fn cache_shapes() -> Vec<(Table, bool)> {
    vec![
        (ShardedCache::unbounded(1), true),
        (ShardedCache::unbounded(3), true),
        (ShardedCache::unbounded(16), true),
        (ShardedCache::clock_lru(1, 2), false),
        (ShardedCache::clock_lru(4, 8), false),
        (ShardedCache::from_env(), false),
    ]
}

proptest! {
    #[test]
    fn cached_search_equals_uncached_cold_and_warm(
        losses in proptest::collection::vec(0.0_f64..100.0, 1..40)
    ) {
        let losses = full_tree(losses);
        let oracle = first_min(&losses);
        let seq = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        prop_assert_eq!((seq.index, seq.loss), oracle);
        for (cache, unbounded) in cache_shapes() {
            // Two rounds against the same handle: cold fills, warm hits
            // (or re-fills, under eviction) — the winner must not move.
            for round in 0..2 {
                for eng in engines() {
                    let eval = CachedTable::new(&losses, &cache, |p| p);
                    let out = eng.search(&eval).unwrap();
                    prop_assert_eq!(
                        (out.index, out.loss), oracle,
                        "round {} engine {:?} shards {}", round, eng, cache.shard_count()
                    );
                    if round == 1 && unbounded {
                        // The exhaustive engine of round 0 stored every
                        // leaf; nothing is ever computed twice.
                        prop_assert_eq!(eval.computed.load(Ordering::Relaxed), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn ties_break_identically_under_caching(
        // Quantised losses: few distinct values over many leaves force
        // plenty of exact ties.
        raw in proptest::collection::vec(0_u32..4, 2..48)
    ) {
        let losses: Vec<f64> = full_tree(raw).into_iter().map(f64::from).collect();
        let oracle = first_min(&losses);
        for (cache, _) in cache_shapes() {
            for eng in engines() {
                let eval = CachedTable::new(&losses, &cache, |p| p);
                let out = eng.search(&eval).unwrap();
                prop_assert_eq!((out.index, out.loss), oracle, "engine {:?}", eng);
            }
        }
    }

    #[test]
    fn collapsing_keys_preserve_the_winner(
        raw in proptest::collection::vec(0_u32..6, 1..40)
    ) {
        // Key leaves by their *loss class*, not their path: leaves sharing
        // a class share one table entry, so most lookups after the first
        // per class are hits — legal because equal classes mean
        // bit-identical losses, and the winner must still be the earliest
        // index of the smallest class. With the harness's summaries and
        // the engine's pruning off, the table holds exactly the leaf
        // classes.
        let raw = full_tree(raw);
        let losses: Vec<f64> = raw.iter().copied().map(f64::from).collect();
        let oracle = first_min(&losses);
        let cache = Table::unbounded(4);
        for eng in engines() {
            let eng = eng.without_pruning();
            let eval = CachedTable {
                summaries: false,
                ..CachedTable::new(&losses, &cache, |p| u64::from(raw[p as usize]))
            };
            let out = eng.search(&eval).unwrap();
            prop_assert_eq!((out.index, out.loss), oracle, "engine {:?}", eng);
        }
        let distinct = {
            let mut v = raw.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        prop_assert_eq!(cache.len(), distinct, "one entry per loss class");
    }

    #[test]
    fn epoch_bumps_never_change_winners(
        losses in proptest::collection::vec(0.0_f64..10.0, 1..30)
    ) {
        let losses = full_tree(losses);
        let oracle = first_min(&losses);
        let cache = Table::unbounded(2);
        for (round, eng) in engines().into_iter().enumerate() {
            if round % 2 == 1 {
                cache.advance_epoch();
            }
            let eval = CachedTable::new(&losses, &cache, |p| p);
            let out = eng.search(&eval).unwrap();
            prop_assert_eq!((out.index, out.loss), oracle, "round {}", round);
        }
    }
}

#[test]
fn warm_cache_repeat_runs_are_reproducible_under_churn() {
    // Many leaves, many workers, a shared warm table: repeated parallel
    // searches must neither wobble nor miss — every claimed subtree is
    // answered by the exact summary the exhaustive cold fill installed.
    let losses: Vec<f64> = (0..256).map(|i| f64::from((i * 7919 % 101) as u16)).collect();
    let cache = Table::unbounded(8);
    let eng = Engine::with_threads(8).without_pruning();
    let first = eng.search(&CachedTable::new(&losses, &cache, |p| p)).unwrap();
    for _ in 0..10 {
        let eval = CachedTable::new(&losses, &cache, |p| p);
        let base = cache.stats();
        let again = eng.search(&eval).unwrap();
        assert_eq!((again.index, again.loss), (first.index, first.loss));
        assert_eq!(cache.stats().since(&base).misses, 0, "warm unbounded table never misses");
        assert_eq!(eval.computed.load(Ordering::Relaxed), 0);
    }
    let oracle = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
    assert_eq!((first.index, first.loss), (oracle.index, oracle.loss));
}
