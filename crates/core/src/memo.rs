//! Probe memoisation — the §6 future-work direction made concrete.
//!
//! §6: "the choice continuation shares expressions with the delimited
//! continuation (though this need not lead to recomputations) … we expect
//! that further program transformations and advanced compiler
//! optimizations (e.g., memoization) will mitigate recomputations."
//!
//! [`MemoChoice`] wraps a [`Choice`] with a cache keyed by the candidate
//! result: probing the same candidate twice costs one run. It is generic
//! over the cache behind it ([`selc_cache::CacheHandle`]):
//!
//! * the default, a per-activation [`LocalCache`] (the seed's
//!   `Rc<RefCell<HashMap>>`, now one backend among others) — create with
//!   [`MemoChoice::new`] / [`MemoChoice::with_key`];
//! * a shared, `Send + Sync` [`selc_cache::SharedCache`] handle — create
//!   with [`MemoChoice::with_cache`] — so probe results survive the
//!   activation and are reused across engine workers and whole runs.
//!
//! Per-activation memoisation is sound because probes are
//! observationally pure (they advance nothing and record nothing — a
//! property pinned down by `tests/laws.rs::probes_are_observationally_pure`)
//! and the wrapped choice continuation is fixed for the lifetime of one
//! clause invocation. *Sharing* a cache beyond the activation needs one
//! more fact: every sharer's probed future must agree on every key (same
//! key ⇒ bit-identical loss). Rebuilds of one program from one
//! `Fn() -> Sel` closure satisfy this by purity; anything else must key-split
//! or `advance_epoch` between programs (see `selc-cache`'s handle
//! contract).
//!
//! What memoisation does **not** do — and cannot do soundly at this
//! level — is share work between a probe and the eventual *resumption*:
//! resuming must actually perform the future's effects, so the
//! Hartmann–Schrijvers–Gibbons generalised selection monad (which
//! returns choice and loss together) remains the real fix for that half
//! of the cost.

use crate::handler::Choice;
use crate::loss::Loss;
use crate::sel::Sel;
use selc_cache::{CacheHandle, CacheStats, LocalCache};
use std::hash::Hash;
use std::rc::Rc;

/// A memoising wrapper around a choice continuation. Create with
/// [`MemoChoice::new`] (hashable candidates), [`MemoChoice::with_key`]
/// (explicit key function, e.g. for `f64`-valued candidates), or
/// [`MemoChoice::with_cache`] (explicit cache handle, e.g. a
/// [`selc_cache::SharedCache`] shared across workers).
pub struct MemoChoice<L, R, K = R, C = LocalCache<K, L>>
where
    K: Eq + Hash,
{
    inner: Choice<L, R>,
    key: Rc<dyn Fn(&R) -> K>,
    cache: C,
}

impl<L, R, K: Eq + Hash, C: Clone> Clone for MemoChoice<L, R, K, C> {
    fn clone(&self) -> Self {
        MemoChoice {
            inner: self.inner.clone(),
            key: Rc::clone(&self.key),
            cache: self.cache.clone(),
        }
    }
}

impl<L: Loss, R: Clone + Eq + Hash + 'static> MemoChoice<L, R, R> {
    /// Memoises by the candidate value itself, in a fresh
    /// per-activation cache.
    pub fn new(inner: &Choice<L, R>) -> MemoChoice<L, R, R> {
        MemoChoice::with_key(inner, |r: &R| r.clone())
    }
}

impl<L: Loss, R: Clone + 'static, K: Clone + Eq + Hash + 'static> MemoChoice<L, R, K> {
    /// Memoises by an explicit key (use when `R` is not hashable, e.g.
    /// quantise `f64` candidates to bits), in a fresh per-activation
    /// cache.
    pub fn with_key(inner: &Choice<L, R>, key: impl Fn(&R) -> K + 'static) -> MemoChoice<L, R, K> {
        MemoChoice::with_cache(inner, key, LocalCache::new())
    }
}

impl<L, R, K, C> MemoChoice<L, R, K, C>
where
    L: Loss,
    R: Clone + 'static,
    K: Clone + Eq + Hash + 'static,
    C: CacheHandle<K, L> + Clone + 'static,
{
    /// Memoises through an explicit cache handle. Pass a
    /// [`selc_cache::SharedCache`] clone to share probe results across
    /// activations, workers, and runs — subject to the handle's sharing
    /// contract (every sharer's future must agree on every key).
    pub fn with_cache(
        inner: &Choice<L, R>,
        key: impl Fn(&R) -> K + 'static,
        cache: C,
    ) -> MemoChoice<L, R, K, C> {
        MemoChoice { inner: inner.clone(), key: Rc::new(key), cache }
    }

    /// Probes candidate `y`, consulting the cache first.
    ///
    /// The returned computation checks the cache *at run time* (probes
    /// sequenced earlier in the same clause fill it), so
    /// `memo.at(x).and_then(|_| memo.at(x))` runs the future once.
    pub fn at(&self, y: R) -> Sel<L, L> {
        let me = self.clone();
        Sel::from_fn(move |g| {
            let k = (me.key)(&y);
            if let Some(hit) = me.cache.lookup(&k) {
                return crate::eff::Eff::Pure((L::zero(), hit));
            }
            let cache = me.cache.clone();
            me.inner
                .at(y.clone())
                .map(move |l| {
                    cache.store(k.clone(), l.clone());
                    l
                })
                .run_with(g)
        })
    }

    /// This memo's cache counters. For the default per-activation cache
    /// these are exactly this activation's probes: `misses` counts real
    /// (uncached) runs of the future, `hits` counts probes answered from
    /// the cache. For a shared handle they are the handle's *global*
    /// counters — use [`CacheStats::since`] against a snapshot for one
    /// activation's share.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of *real* (uncached) probes performed so far — cache
    /// misses, each of which ran the future.
    pub fn real_probes(&self) -> u64 {
        self.stats().misses
    }

    /// The cache handle behind this memo (e.g. to snapshot stats before
    /// a run).
    pub fn cache(&self) -> &C {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{effect, handle, loss, perform, Handler};
    use std::cell::RefCell;
    use std::sync::Arc;

    effect! {
        effect Grid {
            op PickRate : () => u32;
        }
    }

    /// A tuner that probes a grid *with duplicates* and returns the
    /// argmin; with memoisation each distinct rate's future runs once.
    fn tuner(grid: Vec<u32>, memo: bool, counter: Rc<RefCell<u64>>) -> Handler<f64, f64, u32> {
        Handler::builder::<Grid>()
            .on::<PickRate>(move |(), l, _k| {
                let grid = grid.clone();
                let m = MemoChoice::new(&l);
                let probe = move |r: u32| -> Sel<f64, f64> {
                    if memo {
                        m.at(r)
                    } else {
                        l.at(r)
                    }
                };
                fn go(
                    probe: Rc<dyn Fn(u32) -> Sel<f64, f64>>,
                    grid: Rc<Vec<u32>>,
                    i: usize,
                    best: (u32, f64),
                ) -> Sel<f64, u32> {
                    if i == grid.len() {
                        return Sel::pure(best.0);
                    }
                    let r = grid[i];
                    probe(r).and_then(move |e| {
                        let best = if e < best.1 { (r, e) } else { best };
                        go(Rc::clone(&probe), Rc::clone(&grid), i + 1, best)
                    })
                }
                go(Rc::new(probe), Rc::new(grid), 0, (0, f64::INFINITY))
            })
            .ret({
                let _c = counter;
                |_| Sel::pure(0)
            })
            .build()
    }

    /// Each probe runs the future, which bumps `counter`.
    fn future(counter: Rc<RefCell<u64>>) -> Sel<f64, f64> {
        perform::<f64, PickRate>(()).and_then(move |r| {
            *counter.borrow_mut() += 1;
            let err = (r as f64 - 3.0).powi(2);
            loss(err).map(move |_| err)
        })
    }

    #[test]
    fn duplicates_are_cached() {
        let grid = vec![1u32, 5, 1, 5, 1, 3];
        let runs_plain = Rc::new(RefCell::new(0u64));
        let h = tuner(grid.clone(), false, Rc::clone(&runs_plain));
        let (_, best) = handle(&h, future(Rc::clone(&runs_plain))).run_unwrap();
        assert_eq!(best, 3);
        let plain = *runs_plain.borrow();

        let runs_memo = Rc::new(RefCell::new(0u64));
        let h = tuner(grid, true, Rc::clone(&runs_memo));
        let (_, best) = handle(&h, future(Rc::clone(&runs_memo))).run_unwrap();
        assert_eq!(best, 3);
        let memo = *runs_memo.borrow();

        assert_eq!(plain, 6, "one future run per probe without memo");
        assert_eq!(memo, 3, "one future run per distinct candidate with memo");
    }

    #[test]
    fn memoised_and_plain_choices_agree() {
        for grid in [vec![0u32, 6], vec![2, 2, 2], vec![4, 1, 4, 1]] {
            let c1 = Rc::new(RefCell::new(0));
            let c2 = Rc::new(RefCell::new(0));
            let a = handle(&tuner(grid.clone(), false, c1.clone()), future(c1)).run_unwrap();
            let b = handle(&tuner(grid, true, c2.clone()), future(c2)).run_unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn stats_count_probes_and_hits() {
        // Grid [1, 5, 1, 5, 1, 3]: three distinct rates → 3 real probes
        // (cache misses), three repeats → 3 hits. The stats handle shares
        // state with the clause's clone, so reading it after the run sees
        // the totals.
        let grid = vec![1u32, 5, 1, 5, 1, 3];
        let counter = Rc::new(RefCell::new(0u64));
        let stats_cell: Rc<RefCell<Option<CacheStats>>> = Rc::new(RefCell::new(None));
        let sink = Rc::clone(&stats_cell);
        let h: Handler<f64, f64, u32> = Handler::builder::<Grid>()
            .on::<PickRate>(move |(), l, _k| {
                let m = MemoChoice::new(&l);
                let grid = grid.clone();
                let sink = Rc::clone(&sink);
                let probe = {
                    let m = m.clone();
                    move |r: u32| m.at(r)
                };
                fn go(
                    probe: Rc<dyn Fn(u32) -> Sel<f64, f64>>,
                    grid: Rc<Vec<u32>>,
                    i: usize,
                    best: (u32, f64),
                ) -> Sel<f64, u32> {
                    if i == grid.len() {
                        return Sel::pure(best.0);
                    }
                    let r = grid[i];
                    probe(r).and_then(move |e| {
                        let best = if e < best.1 { (r, e) } else { best };
                        go(Rc::clone(&probe), Rc::clone(&grid), i + 1, best)
                    })
                }
                go(Rc::new(probe), Rc::new(grid), 0, (0, f64::INFINITY)).map(move |w| {
                    *sink.borrow_mut() = Some(m.stats());
                    w
                })
            })
            .ret(|_| Sel::pure(0))
            .build();
        let (_, best) = handle(&h, future(counter)).run_unwrap();
        assert_eq!(best, 3);
        let stats = stats_cell.borrow().expect("clause ran");
        assert_eq!(stats, CacheStats { hits: 3, misses: 3, insertions: 3, evictions: 0 });
        assert_eq!(stats.merged(&stats).hits, 6);
    }

    #[test]
    fn with_key_supports_float_candidates() {
        effect! {
            effect FGrid {
                op PickF : () => ();
            }
        }
        let h: Handler<f64, f64, f64> = Handler::builder::<FGrid>()
            .on::<PickF>(|(), l, _k| {
                // candidates are the probe *inputs* here — trivial op, the
                // point is the key function on a non-Hash type
                let m: MemoChoice<f64, (), u8> = MemoChoice::with_key(&l, |()| 0u8);
                m.at(()).and_then(move |a| {
                    let m = m.clone();
                    m.at(()).map(move |b| {
                        assert_eq!(a, b);
                        a
                    })
                })
            })
            .ret(Sel::pure)
            .build();
        let prog = perform::<f64, PickF>(()).and_then(|()| loss(7.0).map(|_| 1.0));
        let (_, probed) = handle(&h, prog).run_unwrap();
        assert_eq!(probed, 7.0);
    }

    #[test]
    fn shared_cache_survives_the_activation() {
        // Two runs of the same tuner program against one SharedCache:
        // the second run's probes are all hits — zero future runs.
        let cache: selc_cache::SharedCache<u32, f64> =
            Arc::new(selc_cache::ShardedCache::unbounded(4));
        let mk_handler = |cache: selc_cache::SharedCache<u32, f64>,
                          counter: Rc<RefCell<u64>>|
         -> Handler<f64, f64, u32> {
            let _c = counter;
            Handler::builder::<Grid>()
                .on::<PickRate>(move |(), l, _k| {
                    let m = MemoChoice::with_cache(&l, |r: &u32| *r, Arc::clone(&cache));
                    let grid = Rc::new(vec![1u32, 5, 3]);
                    fn go(
                        m: MemoChoice<f64, u32, u32, selc_cache::SharedCache<u32, f64>>,
                        grid: Rc<Vec<u32>>,
                        i: usize,
                        best: (u32, f64),
                    ) -> Sel<f64, u32> {
                        if i == grid.len() {
                            return Sel::pure(best.0);
                        }
                        let r = grid[i];
                        m.at(r).and_then(move |e| {
                            let best = if e < best.1 { (r, e) } else { best };
                            go(m.clone(), Rc::clone(&grid), i + 1, best)
                        })
                    }
                    go(m, grid, 0, (0, f64::INFINITY))
                })
                .ret(|_| Sel::pure(0))
                .build()
        };
        let runs = Rc::new(RefCell::new(0u64));
        let h = mk_handler(Arc::clone(&cache), Rc::clone(&runs));
        let (_, best1) = handle(&h, future(Rc::clone(&runs))).run_unwrap();
        assert_eq!(best1, 3);
        assert_eq!(*runs.borrow(), 3, "first run probes every distinct rate");

        let h = mk_handler(Arc::clone(&cache), Rc::clone(&runs));
        let (_, best2) = handle(&h, future(Rc::clone(&runs))).run_unwrap();
        assert_eq!(best2, best1, "cached run picks the identical winner");
        assert_eq!(*runs.borrow(), 3, "second run is answered entirely from the shared cache");
        assert_eq!(cache.stats().hits, 3);

        // Epoch invalidation brings the futures back.
        cache.advance_epoch();
        let h = mk_handler(Arc::clone(&cache), Rc::clone(&runs));
        let (_, best3) = handle(&h, future(Rc::clone(&runs))).run_unwrap();
        assert_eq!(best3, best1);
        assert_eq!(*runs.borrow(), 6, "invalidated entries are re-probed");
    }
}
