//! Transposition-table minimax: alternating games whose repeated
//! subtrees are answered from a shared [`selc_cache::ShardedCache`]
//! keyed on **canonicalised game state**.
//!
//! The classic game-tree fact this module exploits: when distinct move
//! *orders* reach the same position (a transposition), the subtree below
//! is the same game, so its backward-induction value can be computed
//! once and reused. [`SymTree`] makes that structure explicit — its
//! leaf payoffs depend only on the *multiset* of moves played, so every
//! permutation of a move prefix roots an identical subgame and the
//! canonical state is simply the sorted move prefix. (The move parity,
//! i.e. whose turn it is, is determined by the prefix length, so the
//! sorted prefix is the whole state.) An induction on depth then gives
//! the soundness fact the cache relies on: `value(path)` is a function
//! of `sorted(path)` alone.
//!
//! A complete tree has `b^d` nodes at depth `d` but only
//! `C(d + b − 1, d)` distinct canonical states — for `b = 4, d = 8`
//! that is 65 536 positions collapsing onto 165 states, which is why the
//! `e13_cache` bench shows order-of-magnitude wins. Workers of a
//! root-split engine search share one cache handle, so a subtree proved
//! under root move `a` is reused under root move `b` — exactly the
//! cross-worker reuse `selc-engine`'s `SharedBound` provides for bounds,
//! now for values.
//!
//! Determinism: cached values are bit-identical to recomputed ones
//! (same leaf hashes, same fold), so cached, uncached, bounded-cache,
//! and parallel solvers all return the same value and principal play —
//! the tests and `crates/games/tests` hold them to it.

use selc_cache::ShardedCache;
use selc_engine::{minimize, Engine, Outcome};

/// Canonical game state: the sorted move prefix.
pub type TransKey = Vec<u8>;

/// A transposition table for [`SymTree`] solving: canonical state →
/// backward-induction value.
pub type TransCache = ShardedCache<TransKey, f64>;

/// A complete alternating game tree (maximiser moves first) whose leaf
/// payoff depends only on the multiset of moves played — the
/// order-invariance that makes transpositions exact.
#[derive(Clone, Debug)]
pub struct SymTree {
    /// Moves available at every node (≤ 255 so a move fits a byte).
    pub branching: usize,
    /// Number of plies.
    pub depth: usize,
    seed: u64,
}

/// splitmix64 — the same mixer the vendored `rand` uses; enough to make
/// leaf payoffs look arbitrary while staying a pure function of the
/// canonical state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SymTree {
    /// A game with `branching` moves per node, `depth` plies, and leaf
    /// payoffs derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `branching` is 0 or exceeds 255, or if `depth` is 0.
    #[must_use]
    pub fn new(branching: usize, depth: usize, seed: u64) -> SymTree {
        assert!((1..=255).contains(&branching), "branching must fit a byte and be positive");
        assert!(depth >= 1, "degenerate game tree");
        SymTree { branching, depth, seed }
    }

    /// The payoff of a completed game — a pure function of the
    /// *multiset* of moves in `path` (two decimal digits in `0..100`).
    #[must_use]
    pub fn leaf(&self, path: &[u8]) -> f64 {
        let mut canon = path.to_vec();
        canon.sort_unstable();
        self.leaf_canonical(&canon)
    }

    fn leaf_canonical(&self, sorted: &[u8]) -> f64 {
        let mut h = mix(self.seed);
        for &m in sorted {
            h = mix(h ^ u64::from(m));
        }
        (h % 10_000) as f64 / 100.0
    }

    /// Backward-induction value of the node at `path`, optionally
    /// answering repeated canonical states from `cache`. Ties break
    /// towards the smaller move index at every node (strict
    /// improvement), matching every other solver in this crate.
    fn node_value(&self, path: &mut Vec<u8>, cache: Option<&TransCache>) -> f64 {
        if path.len() == self.depth {
            let mut canon = path.clone();
            canon.sort_unstable();
            return self.leaf_canonical(&canon);
        }
        let key = cache.map(|c| {
            let mut canon = path.clone();
            canon.sort_unstable();
            (c, canon)
        });
        if let Some((c, k)) = &key {
            if let Some(v) = c.lookup(k) {
                return v;
            }
        }
        let v = self.best_child(path, cache).1;
        if let Some((c, k)) = key {
            c.store(k, v);
        }
        v
    }

    /// The best move at the node `path` and that move's subgame value —
    /// the one arg-best fold every solver shares: the player on turn is
    /// the path-length parity, improvement is strict, so ties break
    /// towards the smaller move index.
    fn best_child(&self, path: &mut Vec<u8>, cache: Option<&TransCache>) -> (u8, f64) {
        let maximising = path.len().is_multiple_of(2);
        let mut best: Option<(u8, f64)> = None;
        for m in 0..self.branching as u8 {
            path.push(m);
            let v = self.node_value(path, cache);
            path.pop();
            let better = match best {
                None => true,
                Some((_, b)) => {
                    if maximising {
                        v > b
                    } else {
                        v < b
                    }
                }
            };
            if better {
                best = Some((m, v));
            }
        }
        best.expect("branching > 0")
    }

    /// The game value by plain backward induction — the exponential
    /// baseline and differential-test oracle.
    #[must_use]
    pub fn value_backward(&self) -> f64 {
        self.node_value(&mut Vec::new(), None)
    }

    /// The game value with a transposition table: each distinct
    /// canonical state is solved once. Bit-identical to
    /// [`value_backward`](Self::value_backward).
    #[must_use]
    pub fn value_transposition(&self, cache: &TransCache) -> f64 {
        self.node_value(&mut Vec::new(), Some(cache))
    }
}

/// Root-split transposition minimax: distributes the maximiser's first
/// moves over the engine's pool, all workers sharing `cache` — a
/// subtree solved under one root move answers its transpositions under
/// every other. Returns `(best first move, game value, outcome)`;
/// move and value are bit-identical to the sequential solvers, and
/// `outcome.stats.cache` carries this search's share of the shared
/// handle's hits/misses/evictions.
pub fn solve_root_split(
    tree: &SymTree,
    engine: &Engine,
    cache: &TransCache,
) -> (usize, f64, Outcome<f64>) {
    let base = cache.stats();
    // Candidate `m` is the maximiser's first move, scored by the
    // *negated* subgame value (the engine minimises).
    let mut outcome =
        minimize(engine, tree.branching, |m| -tree.node_value(&mut vec![m as u8], Some(cache)))
            .expect("branching > 0");
    outcome.stats.cache = cache.stats().since(&base);
    (outcome.index, -outcome.loss, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_are_order_invariant() {
        let t = SymTree::new(4, 5, 7);
        assert_eq!(t.leaf(&[0, 1, 2, 3, 1]), t.leaf(&[3, 1, 1, 2, 0]));
        assert_ne!(t.leaf(&[0, 0, 0, 0, 0]), t.leaf(&[1, 1, 1, 1, 1]), "payoffs vary");
    }

    #[test]
    fn transposition_value_is_bit_identical_to_backward_induction() {
        for seed in 0..8 {
            for (b, d) in [(2, 4), (3, 5), (4, 4)] {
                let t = SymTree::new(b, d, seed);
                let oracle = t.value_backward();
                let cache = TransCache::unbounded(4);
                assert_eq!(t.value_transposition(&cache), oracle, "seed {seed} b{b} d{d}");
                // Warm cache: the repeat solve is one root lookup.
                let before = cache.stats();
                assert_eq!(t.value_transposition(&cache), oracle);
                let delta = cache.stats().since(&before);
                assert_eq!((delta.hits, delta.misses), (1, 0), "seed {seed} b{b} d{d}");
            }
        }
    }

    #[test]
    fn transpositions_actually_collapse_the_tree() {
        let t = SymTree::new(3, 6, 1);
        let cache = TransCache::unbounded(4);
        let _ = t.value_transposition(&cache);
        // 3^0 + … + 3^5 = 364 internal nodes, but only C(k+2, 2) states
        // per level k — the cache stores one entry per *state*.
        let internal_nodes: usize = (0..6).map(|k| 3usize.pow(k)).sum();
        assert!(cache.len() < internal_nodes / 4, "cache holds {} entries", cache.len());
        assert!(cache.stats().hits > 0, "repeated states were answered from cache");
    }

    #[test]
    fn bounded_cache_and_shard_counts_do_not_change_the_value() {
        for seed in [3, 11] {
            let t = SymTree::new(3, 5, seed);
            let oracle = t.value_backward();
            for shards in [1, 2, 8] {
                let unbounded = TransCache::unbounded(shards);
                assert_eq!(t.value_transposition(&unbounded), oracle, "shards {shards}");
                // Capacity 4: almost everything is evicted and recomputed.
                let tiny = TransCache::clock_lru(shards, 4);
                assert_eq!(t.value_transposition(&tiny), oracle, "tiny cap, shards {shards}");
                assert!(tiny.stats().evictions > 0, "cap 4 must evict: {:?}", tiny.stats());
            }
        }
    }

    /// The best move at every node from the root down (ties towards
    /// the smaller move) and the leaf payoff that play reaches.
    fn best_play(t: &SymTree, cache: Option<&TransCache>) -> (Vec<u8>, f64) {
        let mut path = Vec::new();
        while path.len() < t.depth {
            let (m, _) = t.best_child(&mut path, cache);
            path.push(m);
        }
        let payoff = t.leaf(&path);
        (path, payoff)
    }

    #[test]
    fn best_moves_are_cache_invariant_and_realise_the_value() {
        for seed in 0..5 {
            let t = SymTree::new(3, 4, seed);
            let (play, payoff) = best_play(&t, None);
            let cache = TransCache::unbounded(2);
            assert_eq!(best_play(&t, Some(&cache)), (play, payoff), "seed {seed}");
            assert_eq!(payoff, t.value_backward(), "the best play realises the game value");
            assert_eq!(payoff, t.value_transposition(&cache), "seed {seed}");
        }
    }

    #[test]
    fn root_split_matches_sequential_solvers_across_engines() {
        for seed in 0..5 {
            let t = SymTree::new(4, 4, seed);
            let oracle_value = t.value_backward();
            let (oracle_play, _) = best_play(&t, None);
            for prune in [false, true] {
                for threads in [1, 2, 4] {
                    let cache = TransCache::unbounded(4);
                    let eng = Engine { threads, prune };
                    let (mv, value, outcome) = solve_root_split(&t, &eng, &cache);
                    assert_eq!(value, oracle_value, "seed {seed} threads {threads}");
                    assert_eq!(mv, usize::from(oracle_play[0]), "seed {seed} threads {threads}");
                    assert_eq!(
                        outcome.stats.cache.lookups(),
                        outcome.stats.cache.hits + outcome.stats.cache.misses
                    );
                }
            }
            let cache = TransCache::unbounded(4);
            let (mv, value, _) = solve_root_split(&t, &Engine::exhaustive(), &cache);
            assert_eq!((mv, value), (usize::from(oracle_play[0]), oracle_value));
        }
    }

    #[test]
    fn warm_cache_serves_a_repeat_root_split_and_epochs_reset_it() {
        let t = SymTree::new(3, 5, 9);
        let cache = TransCache::unbounded(4);
        let eng = Engine::with_threads(2);
        let (mv1, v1, first) = solve_root_split(&t, &eng, &cache);
        assert!(first.stats.cache.misses > 0);
        let (mv2, v2, second) = solve_root_split(&t, &eng, &cache);
        assert_eq!((mv1, v1), (mv2, v2));
        assert_eq!(second.stats.cache.misses, 0, "every subtree served from cache");
        assert_eq!(second.stats.cache.hits, 3, "one root lookup per first move");

        cache.advance_epoch();
        let (mv3, v3, third) = solve_root_split(&t, &eng, &cache);
        assert_eq!((mv1, v1), (mv3, v3));
        assert!(third.stats.cache.misses > 0, "post-epoch search recomputes");
    }
}
