//! Prefix-sharing tree search: DFS over decision subtrees with the
//! shared branch-and-bound bound, beside the flat candidate scan.
//!
//! The flat scan treats a depth-`d` decision space as `2^d` independent
//! candidates, each evaluated from scratch — `O(2^d · d)` work even
//! though all candidates share prefixes. A [`TreeEval`] exposes the space
//! as the *tree* it really is (the backtracking-search shape of Hedges'
//! selection-monad transformers): interior nodes are shared prefix
//! states, `child` extends a prefix by one decision, and a leaf reports
//! the final loss of one complete path — `O(tree nodes)` work total.
//!
//! [`Engine::search`] drives the DFS:
//!
//! * **The bound at every interior node** — completed leaves feed a
//!   [`SharedBound`]: the evaluator's own when it keeps one for its
//!   space ([`TreeEval::bound`]), else a fresh one per search. A subtree
//!   whose lower-bound hint is *strictly* dominated is skipped whole.
//! * **Best-first child ordering** — children are visited cheapest
//!   estimate first (a leaf's loss, a node's lower-bound hint; ties
//!   toward the `true` branch), so small losses are found early and the
//!   bound tightens before the expensive siblings run. This pays even on
//!   one core — it is an evaluation-order improvement, not a
//!   parallelism trick.
//! * **Subtree-granularity distribution** — through the engine's one
//!   worker loop (the caller being worker 0), workers claim decision
//!   *prefixes* of one split depth from the saturating
//!   [`crate::WorkQueue`] (not fixed index chunks), rebuild the subtree
//!   root locally (`enter`), and DFS it; node handles never cross
//!   threads, so non-`Send` evaluator state (e.g. machine continuations)
//!   is fine. The split depth comes from the worker count — about four
//!   subtree roots per worker — capped at the evaluator's
//!   [`TreeEval::min_leaf_depth`]. One worker walks the single
//!   split-depth-0 prefix, the root.
//! * **Subtree summaries at every interior node** — evaluators with a
//!   summary table ([`TreeEval::probe_summary`]) answer whole subtrees
//!   from cache: an *exact* entry returns the subtree's argmin in O(1)
//!   (warm repeats become O(depth) walks instead of O(leaves) rescans),
//!   a *bound* entry skips the subtree when strictly dominated by an
//!   achieved loss. Fully-evaluated subtrees install exact entries on
//!   the way back up, pruned ones install bound entries
//!   ([`TreeEval::install_summary`]). A position that misses is probed
//!   once more by what its node *is* ([`TreeEval::probe_state`]): an
//!   evaluator whose nodes have exact state keys answers a subtree
//!   reached along another path (a transposition), and every exact
//!   subtree installs under its state too ([`TreeEval::install_state`]).
//!   The engine always probes and
//!   installs; an evaluator without a table keeps the trait's no-op
//!   defaults, so "does this walk cache?" is "does the evaluator have a
//!   table?". Likewise an evaluator that keeps its bound across searches
//!   makes a repeat prune from its first node; one that does not gets a
//!   fresh bound each time.
//!
//! # Determinism
//!
//! The reduction is the engine's usual `(loss, index)` lexicographic
//! merge, where a leaf that used only `u ≤ depth` decisions represents
//! the *smallest* flat index sharing its path (`path << (depth - u)`) —
//! exactly the index the flat scan's left-to-right tie-breaking would
//! credit. Exploration *order* therefore cannot change the winner: every
//! canonical leaf is either visited (and merged under the total order)
//! or skipped only when strictly dominated, so tree, flat, sequential,
//! and parallel searches return bit-identical `(loss, index)` winners,
//! ties included.

use crate::bound::SharedBound;
use crate::cancel::CancelToken;
use crate::engine::{fan_out, keep_better, Engine, Outcome, Partial, SearchResult};
use selc::OrderedLoss;
use selc_cache::SubtreeSummary;
use selc_obs::{trace, SpanLabel};

/// Span label for one claimed subtree's depth-first descent; the span
/// argument is the subtree's prefix bits, so a trace row shows *which*
/// part of the space each worker was walking.
static SUBTREE_SPAN: SpanLabel = SpanLabel::new("tree.subtree");

/// One step of tree exploration: what lies at (or just past) a decision
/// prefix.
#[derive(Debug)]
pub enum TreeStep<N, L> {
    /// The path terminated after `used` decisions with final loss `loss`
    /// (`used` may be smaller than the position's length when the
    /// program finishes inside a scripted prefix).
    Leaf {
        /// Total loss of the completed path.
        loss: L,
        /// Decisions the path actually consumed.
        used: u32,
    },
    /// An interior node: a shared prefix state to descend into.
    Node {
        /// The evaluator's node handle (thread-local; never crosses
        /// workers).
        node: N,
        /// A true lower bound on every leaf beneath, or nothing. It
        /// orders the node among its siblings (best-first) and prunes
        /// the subtree when strictly dominated by the bound.
        hint: Option<L>,
    },
    /// The evaluator abandoned the subtree mid-expansion (its own
    /// strict-domination check fired — same soundness contract as an
    /// [`Engine::scan`] closure returning `None`).
    Pruned,
}

/// What an evaluator's summary table answered for an interior position —
/// the probe-side view of a [`SubtreeSummary`].
#[derive(Clone, Debug)]
pub enum SummaryProbe<L> {
    /// An exact entry: the subtree beneath the position was fully
    /// evaluated when it was installed, and `(loss, index)` is its true
    /// argmin under the deterministic `(loss, index)` reduction. The
    /// engine returns it as the subtree's answer without descending.
    Exact {
        /// The subtree's argmin loss.
        loss: L,
        /// Flat index of the subtree's winner (canonical crediting).
        index: u64,
    },
    /// A bound entry: `loss` is only a **lower bound** on every candidate
    /// credited beneath the position (the subtree was pruned when it was
    /// installed). Never an answer; the engine may skip the subtree when
    /// the bound is strictly dominated by an achieved loss.
    Bound {
        /// The lower bound.
        loss: L,
    },
    /// Nothing cached for this position.
    Miss,
}

impl<L> From<SubtreeSummary<L>> for SummaryProbe<L> {
    fn from(s: SubtreeSummary<L>) -> SummaryProbe<L> {
        if s.exact {
            SummaryProbe::Exact { loss: s.loss, index: s.index }
        } else {
            SummaryProbe::Bound { loss: s.loss }
        }
    }
}

/// A tree-shaped candidate space over binary decisions.
///
/// Positions are `(path, len)` pairs: `len` decisions taken, decision `j`
/// at bit `len - 1 - j` of `path`, `0` meaning `true` — the flat
/// scan's candidate encoding restricted to a prefix. `depth` is
/// bounded by 62 (indices are `u64`/`usize` bit vectors).
pub trait TreeEval<L: OrderedLoss>: Send + Sync {
    /// A materialised interior node. Need not be `Send`: nodes live and
    /// die on the worker that entered the subtree.
    type Node;

    /// The decision depth of the space (`2^depth` flat candidates).
    fn depth(&self) -> u32;

    /// Materialises the subtree root at `(prefix, len)`, replaying the
    /// `len` scripted decisions. A run that terminates inside the prefix
    /// yields `Leaf { used < len }`.
    fn enter(&self, prefix: u64, len: u32) -> TreeStep<Self::Node, L>;

    /// Takes `decision` at `node`; `(path, len)` is the **child**
    /// position (the parent's path extended by the decision), so
    /// cache-keyed evaluators can probe/store without their own
    /// bookkeeping.
    fn child(
        &self,
        node: &Self::Node,
        decision: bool,
        path: u64,
        len: u32,
    ) -> TreeStep<Self::Node, L>;

    /// The shallowest depth at which a leaf can occur — a work-partition
    /// hint (e.g. from a static decision-shape analysis). The parallel
    /// walk caps its split depth here: fanning out below the shallowest
    /// leaf makes sibling tasks replay the same shallow leaves instead
    /// of dividing work. Purely a partitioning matter — any value is
    /// winner-safe (canonical-index crediting already deduplicates) —
    /// so the default claims no information.
    fn min_leaf_depth(&self) -> u32 {
        self.depth()
    }

    /// Probes the evaluator's subtree-summary table at interior position
    /// `(bits, len)`. Evaluators without a table (the default) always
    /// miss. An implementation must only surface entries installed
    /// against the **same** space state — epoch-bump the table whenever
    /// the program behind the space changes.
    fn probe_summary(&self, _bits: u64, _len: u32) -> SummaryProbe<L> {
        SummaryProbe::Miss
    }

    /// Installs `summary` for interior position `(bits, len)` as the DFS
    /// returns through it: an exact entry when the subtree was fully
    /// evaluated, a bound entry when pruning cut it. Default: no table,
    /// no-op.
    fn install_summary(&self, _bits: u64, _len: u32, _summary: SubtreeSummary<L>) {}

    /// Probes the table by `node`'s own state rather than its position,
    /// after [`TreeEval::probe_summary`] missed at `(bits, len)`: two
    /// nodes whose futures are the same have the same subtree whatever
    /// path reached them. Only an `Exact` answer is used, and its index
    /// must already be rebased onto `(bits, len)`: the subtree's winner
    /// at the same suffix below this position. Default: no state table,
    /// always a miss.
    fn probe_state(&self, _node: &Self::Node, _bits: u64, _len: u32) -> SummaryProbe<L> {
        SummaryProbe::Miss
    }

    /// Installs the exact `summary` of the fully evaluated subtree at
    /// `(bits, len)` under `node`'s own state, next to
    /// [`TreeEval::install_summary`]. Default: no-op.
    fn install_state(
        &self,
        _node: &Self::Node,
        _bits: u64,
        _len: u32,
        _summary: SubtreeSummary<L>,
    ) {
    }

    /// The bound the walk prunes against, when the evaluator keeps one
    /// for its space; `None` (the default) gives each search a fresh
    /// one. A kept bound persists across searches, so a repeat prunes
    /// from its first node. Soundness: publish into it only losses some
    /// candidate of this space actually achieved (never a lower bound),
    /// or pruning could drop the true winner (see [`crate::bound`]).
    fn bound(&self) -> Option<&SharedBound<L>> {
        None
    }
}

/// The tree walk: DFS over decision subtrees with deterministic
/// `(loss, index)` reduction, parallelised at subtree granularity.
impl Engine {
    /// Argmin over the tree's leaves under the deterministic
    /// `(loss, representative index)` reduction. `None` only when the
    /// evaluator prunes every path (a violation of the strict-domination
    /// contract, but kept non-panicking like the flat scan). Runs under
    /// a token that can never fire; see [`Engine::search_with`] for
    /// deadline/disconnect cancellation.
    pub fn search<L, T>(&self, eval: &T) -> Option<Outcome<L>>
    where
        L: OrderedLoss,
        T: TreeEval<L>,
    {
        self.search_with(eval, &CancelToken::never()).into_outcome()
    }

    /// [`Engine::search`] under a [`CancelToken`], checked at every
    /// interior node alongside the shared bound. When the token fires
    /// the walk unwinds with the best leaf seen so far
    /// ([`SearchResult::Cancelled`]); aborted subtrees return as inexact
    /// with no lower bound, so **no summary is installed along the abort
    /// path** — a cancelled search can tighten caches (its completed
    /// leaves and subtrees are real) but never poison them.
    ///
    /// One worker walks the whole tree from the root. `n` workers split
    /// it at the depth that gives each about four subtree roots, never
    /// below [`TreeEval::min_leaf_depth`], and no more workers run than
    /// there are roots.
    pub fn search_with<L, T>(&self, eval: &T, cancel: &CancelToken) -> SearchResult<L>
    where
        L: OrderedLoss,
        T: TreeEval<L>,
    {
        let depth = eval.depth();
        assert!(depth <= 62, "decision depth {depth} exceeds the 62-bit index encoding");
        let threads = self.workers().min(1_usize << depth.min(20));
        let split = if threads == 1 {
            0
        } else {
            // ~4 subtrees per worker, but never split below the
            // shallowest possible leaf: subtrees rooted under a leaf all
            // replay that same leaf.
            (threads * 4).next_power_of_two().trailing_zeros().min(eval.min_leaf_depth().min(depth))
        };
        // One worker per subtree root at most: the rest could claim nothing.
        let threads = threads.min(1 << split);
        let fresh = SharedBound::new();
        let bound = eval.bound().unwrap_or(&fresh);
        let walker = Walker { eval, bound, prune: self.prune, depth, cancel };

        let (parts, drained) =
            fan_out(threads, 1_usize << split, 1, cancel, |part: &mut Partial<L>, start, _| {
                let _span = trace::span(&SUBTREE_SPAN, start as u64);
                let prefix = start as u64;
                let sub = walker.dfs(eval.enter(prefix, split), prefix, split, part);
                if let Some(candidate) = sub.best {
                    keep_better(&mut part.best, candidate);
                }
                !part.aborted
            });
        Partial::merged(parts, drained).finish(threads)
    }
}

struct Walker<'a, L, T> {
    eval: &'a T,
    bound: &'a SharedBound<L>,
    prune: bool,
    depth: u32,
    cancel: &'a CancelToken,
}

/// What one subtree reduced to, threaded back up the DFS so every parent
/// can install its own summary.
struct Sub<L> {
    /// The subtree's canonical contribution: the best `(loss, index)`
    /// among leaves credited inside it. `None` when it credits nothing
    /// (non-canonical early leaves) or pruning cut it before anything
    /// scored. Merged into the worker's [`Partial`] by the DFS caller.
    best: Option<(L, usize)>,
    /// A lower bound on every candidate credited beneath the position,
    /// when one is known: the min of visited losses and skipped
    /// subtrees' own bounds. `None` when an evaluator-side prune left no
    /// value to bound with.
    lb: Option<L>,
    /// Whether the subtree was fully evaluated — no pruning cut any part
    /// of it, so `best` is its true argmin (ties included).
    exact: bool,
}

impl<L: OrderedLoss, T: TreeEval<L>> Walker<'_, L, T> {
    /// DFS from `step`, which sits at position `(bits, len)`; returns
    /// the subtree's reduction (the caller merges `best` upward).
    fn dfs(
        &self,
        step: TreeStep<T::Node, L>,
        bits: u64,
        len: u32,
        part: &mut Partial<L>,
    ) -> Sub<L> {
        match step {
            TreeStep::Pruned => {
                part.abandoned += 1;
                // The evaluator proved strict domination but reported no
                // value, so the parent has nothing to bound with.
                Sub { best: None, lb: None, exact: false }
            }
            TreeStep::Leaf { loss, used } => {
                debug_assert!(used <= len, "leaves cannot overshoot their position");
                let tail = len - used;
                // A path that terminated inside a scripted prefix is
                // reachable from every prefix extending it; only the
                // canonical (all-`true` remainder) position counts it.
                if bits & ((1_u64 << tail) - 1) != 0 {
                    // Credited elsewhere, but the loss still lower-bounds
                    // this (single-leaf) subtree, and nothing was cut.
                    return Sub { best: None, lb: Some(loss), exact: true };
                }
                part.evaluated += 1;
                if self.prune {
                    self.bound.observe(&loss);
                }
                let index = ((bits >> tail) << (self.depth - used)) as usize;
                Sub { best: Some((loss.clone(), index)), lb: Some(loss), exact: true }
            }
            TreeStep::Node { node, hint } => {
                // The cancellation check sits where the bound checks do:
                // once per interior node. An aborted subtree reports
                // itself inexact with no lower bound, so no ancestor can
                // install a summary over the hole it leaves — the
                // cancellation-soundness half of the install rules.
                if self.cancel.is_cancelled() {
                    part.aborted = true;
                    return Sub { best: None, lb: None, exact: false };
                }
                let answer = match self.eval.probe_summary(bits, len) {
                    SummaryProbe::Exact { loss, index } => {
                        part.summary.exact_hits += 1;
                        Some((loss, index))
                    }
                    SummaryProbe::Bound { loss } => {
                        part.summary.bound_hits += 1;
                        // A bound entry is never an answer — but when
                        // strictly dominated by an achieved loss, no
                        // candidate beneath can win or tie, and the
                        // subtree is skipped whole. (It must NOT feed
                        // `bound.observe`: nothing attained it.)
                        if self.prune && self.bound.dominated(&loss) {
                            part.bound_skips += 1;
                            return Sub { best: None, lb: Some(loss), exact: false };
                        }
                        None
                    }
                    SummaryProbe::Miss => match self.eval.probe_state(&node, bits, len) {
                        SummaryProbe::Exact { loss, index } => {
                            part.summary.exact_hits += 1;
                            part.summary.state_hits += 1;
                            Some((loss, index))
                        }
                        _ => {
                            part.summary.misses += 1;
                            None
                        }
                    },
                };
                if let Some((loss, index)) = answer {
                    // The whole subtree in O(1): its cached argmin is an
                    // achieved loss, so it also tightens the bound like
                    // the leaves it stands for would.
                    if self.prune {
                        self.bound.observe(&loss);
                    }
                    return Sub {
                        best: Some((loss.clone(), index as usize)),
                        lb: Some(loss),
                        exact: true,
                    };
                }
                if self.prune && hint.as_ref().is_some_and(|h| self.bound.dominated(h)) {
                    part.hint_skips += 1;
                    return Sub { best: None, lb: hint, exact: false };
                }
                // Expand both children (one shared-prefix step each),
                // then descend cheapest estimate first so the bound is
                // tight before the expensive sibling runs; ties keep the
                // `true` branch first. No allocation: this runs once per
                // interior node of the hot walk.
                let t_bits = bits << 1;
                let f_bits = (bits << 1) | 1;
                let t_step = self.eval.child(&node, true, t_bits, len + 1);
                let f_step = self.eval.child(&node, false, f_bits, len + 1);
                let false_first = match (estimate(&t_step), estimate(&f_step)) {
                    (Some(et), Some(ef)) => ef.cmp_loss(et) == std::cmp::Ordering::Less,
                    (et, ef) => et.is_none() && ef.is_some(),
                };
                let [(first, first_bits), (second, second_bits)] = if false_first {
                    [(f_step, f_bits), (t_step, t_bits)]
                } else {
                    [(t_step, t_bits), (f_step, f_bits)]
                };
                let a = self.dfs(first, first_bits, len + 1, part);
                let b = if part.aborted {
                    // Unwind without touching the sibling: its expansion
                    // already happened (cheap), but its subtree has not.
                    Sub { best: None, lb: None, exact: false }
                } else {
                    self.dfs(second, second_bits, len + 1, part)
                };

                let mut best = a.best;
                if let Some(candidate) = b.best {
                    keep_better(&mut best, candidate);
                }
                let exact = a.exact && b.exact;
                // Ties keep `a`'s bound.
                let lb = a.lb.zip(b.lb).map(|(x, y)| std::cmp::min_by(x, y, L::cmp_loss));
                if exact {
                    // Fully evaluated: the subtree's true argmin, ties
                    // included — answerable on the next visit.
                    if let Some((loss, index)) = &best {
                        let summary = SubtreeSummary::exact(loss.clone(), *index as u64);
                        self.eval.install_summary(bits, len, summary.clone());
                        self.eval.install_state(&node, bits, len, summary);
                        part.summary.exact_installs += 1;
                    }
                } else if let Some(lb) = &lb {
                    // Pruning cut the subtree: the min of what was
                    // seen (losses and skipped subtrees' bounds) is a
                    // lower bound on everything beneath, nothing more.
                    let index = best.as_ref().map_or(0, |(_, i)| *i as u64);
                    self.eval.install_summary(bits, len, SubtreeSummary::bound(lb.clone(), index));
                    part.summary.bound_installs += 1;
                }
                Sub { best, lb, exact }
            }
        }
    }
}

/// The ordering estimate of a child step: a leaf's final loss, a node's
/// hint.
fn estimate<N, L>(step: &TreeStep<N, L>) -> Option<&L> {
    match step {
        TreeStep::Leaf { loss, .. } => Some(loss),
        TreeStep::Node { hint, .. } => hint.as_ref(),
        TreeStep::Pruned => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::minimize;
    use std::sync::Mutex;

    /// A synthetic full-depth tree over a flat loss table: node = prefix,
    /// leaf loss = table[path], hints = prefix minimum (a true lower
    /// bound).
    struct TableTree {
        losses: Vec<f64>,
        depth: u32,
        hints: bool,
    }

    impl TableTree {
        fn new(losses: Vec<f64>, hints: bool) -> TableTree {
            let depth = losses.len().trailing_zeros();
            assert_eq!(1 << depth, losses.len(), "table must be a power of two");
            TableTree { losses, depth, hints }
        }

        fn step(&self, path: u64, len: u32) -> TreeStep<(u64, u32), f64> {
            if len == self.depth {
                return TreeStep::Leaf { loss: self.losses[path as usize], used: len };
            }
            let hint = self.hints.then(|| {
                let width = self.depth - len;
                let lo = (path << width) as usize;
                self.losses[lo..lo + (1 << width)].iter().copied().fold(f64::INFINITY, f64::min)
            });
            TreeStep::Node { node: (path, len), hint }
        }
    }

    impl TreeEval<f64> for TableTree {
        type Node = (u64, u32);
        fn depth(&self) -> u32 {
            self.depth
        }
        fn enter(&self, prefix: u64, len: u32) -> TreeStep<(u64, u32), f64> {
            self.step(prefix, len)
        }
        fn child(
            &self,
            _node: &(u64, u32),
            _decision: bool,
            path: u64,
            len: u32,
        ) -> TreeStep<(u64, u32), f64> {
            self.step(path, len)
        }
    }

    fn table(seed: u64, n: usize) -> Vec<f64> {
        // Small integer-valued losses force plenty of exact ties.
        (0..n).map(|i| f64::from(((i as u64).wrapping_mul(seed * 2 + 7) % 11) as u32)).collect()
    }

    #[test]
    fn tree_search_matches_the_flat_scan_including_ties() {
        for seed in 0..12 {
            let losses = table(seed, 64);
            let flat = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
            for hints in [false, true] {
                for engine in [
                    Engine::exhaustive(),
                    Engine::with_threads(1),
                    Engine::with_threads(2),
                    Engine::with_threads(3),
                    Engine::with_threads(4).without_pruning(),
                ] {
                    let eval = TableTree::new(losses.clone(), hints);
                    let out = engine.search(&eval).unwrap();
                    assert_eq!(
                        (out.index, out.loss),
                        (flat.index, flat.loss),
                        "seed {seed} hints {hints} engine {engine:?}"
                    );
                }
            }
        }
    }

    /// Delegates to a [`TableTree`] while claiming a shallow
    /// `min_leaf_depth`, counting how many subtree roots the parallel
    /// walk actually enters.
    struct ShallowLeafTable {
        inner: TableTree,
        min_leaf: u32,
        enters: std::sync::atomic::AtomicUsize,
    }

    impl TreeEval<f64> for ShallowLeafTable {
        type Node = (u64, u32);
        fn depth(&self) -> u32 {
            self.inner.depth()
        }
        fn enter(&self, prefix: u64, len: u32) -> TreeStep<(u64, u32), f64> {
            // ordering: Relaxed — a test counter, no data guarded.
            self.enters.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.enter(prefix, len)
        }
        fn child(
            &self,
            node: &(u64, u32),
            decision: bool,
            path: u64,
            len: u32,
        ) -> TreeStep<(u64, u32), f64> {
            self.inner.child(node, decision, path, len)
        }
        fn min_leaf_depth(&self) -> u32 {
            self.min_leaf
        }
    }

    #[test]
    fn min_leaf_depth_caps_the_parallel_split() {
        let losses = table(5, 64);
        let flat = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        let engine = Engine::with_threads(4).without_pruning();
        // Unconstrained: ~4 subtrees per worker → a split of 4 → 16 roots.
        let wide = ShallowLeafTable {
            inner: TableTree::new(losses.clone(), false),
            min_leaf: 6,
            enters: std::sync::atomic::AtomicUsize::new(0),
        };
        let out = engine.search(&wide).unwrap();
        assert_eq!((out.index, out.loss), (flat.index, flat.loss));
        // ordering: Relaxed — test counter.
        assert_eq!(wide.enters.load(std::sync::atomic::Ordering::Relaxed), 16);
        // A shape hint of "leaves can occur at depth 1" caps the fan-out
        // at 2 subtree roots, same winner, and the pool at one worker per
        // root.
        let capped = ShallowLeafTable {
            inner: TableTree::new(losses, false),
            min_leaf: 1,
            enters: std::sync::atomic::AtomicUsize::new(0),
        };
        let out = engine.search(&capped).unwrap();
        assert_eq!((out.index, out.loss), (flat.index, flat.loss));
        // ordering: Relaxed — test counter.
        assert_eq!(capped.enters.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(out.stats.threads, 2, "no worker without a root to claim");
    }

    #[test]
    fn dominated_subtrees_are_pruned_but_never_change_the_winner() {
        // Losses descend towards index 0, so with best-first ordering the
        // `true`-most subtree sets a tight bound early.
        let losses: Vec<f64> = (0..64).map(f64::from).collect();
        let eval = TableTree::new(losses.clone(), true);
        let out = Engine::with_threads(1).search(&eval).unwrap();
        assert_eq!((out.index, out.loss), (0, 0.0));
        assert!(out.stats.pruned > 0, "stats: {:?}", out.stats);
        assert!(out.stats.evaluated < 64, "stats: {:?}", out.stats);
    }

    /// A space where every path starting `false` terminates after one
    /// decision: the early leaf must be counted exactly once, as the
    /// smallest flat index it represents.
    struct ShortFalse;

    impl TreeEval<f64> for ShortFalse {
        type Node = (u64, u32);
        fn depth(&self) -> u32 {
            3
        }
        fn enter(&self, prefix: u64, len: u32) -> TreeStep<(u64, u32), f64> {
            // Positions are only entered at the split depth; replay the
            // decisions one by one like a real scripted machine would.
            let mut step = self.start();
            for j in (0..len).rev() {
                let d = (prefix >> j) & 1 == 0;
                match step {
                    TreeStep::Node { node, .. } => {
                        step = self.child(&node, d, prefix >> j, len - j);
                    }
                    leaf => return leaf,
                }
            }
            step
        }
        fn child(
            &self,
            node: &(u64, u32),
            decision: bool,
            path: u64,
            len: u32,
        ) -> TreeStep<(u64, u32), f64> {
            let (_, nlen) = *node;
            debug_assert_eq!(nlen + 1, len);
            if len == 1 && !decision {
                return TreeStep::Leaf { loss: 0.5, used: 1 };
            }
            if len == 3 {
                return TreeStep::Leaf { loss: f64::from(path as u32), used: 3 };
            }
            TreeStep::Node { node: (path, len), hint: None }
        }
    }

    impl ShortFalse {
        fn start(&self) -> TreeStep<(u64, u32), f64> {
            TreeStep::Node { node: (0, 0), hint: None }
        }
    }

    #[test]
    fn early_leaves_count_once_with_their_representative_index() {
        // Flat view: indices 4..8 share the `false` leaf (loss 0.5, repr
        // index 4); indices 0..4 have losses 0..4. Winner: index 0.
        let flat_losses = [0.0, 1.0, 2.0, 3.0, 0.5, 0.5, 0.5, 0.5];
        let flat = minimize(&Engine::exhaustive(), 8, |i| flat_losses[i]).unwrap();
        for engine in [Engine::exhaustive(), Engine::with_threads(4).without_pruning()] {
            let out = engine.search(&ShortFalse).unwrap();
            assert_eq!((out.index, out.loss), (flat.index, flat.loss), "{engine:?}");
            assert_eq!(out.stats.evaluated, 5, "4 deep leaves + 1 early leaf: {engine:?}");
        }
    }

    /// A depth-0 space: its one leaf is the root.
    struct One;

    impl TreeEval<f64> for One {
        type Node = ();
        fn depth(&self) -> u32 {
            0
        }
        fn enter(&self, _p: u64, _l: u32) -> TreeStep<(), f64> {
            TreeStep::Leaf { loss: 7.0, used: 0 }
        }
        fn child(&self, _n: &(), _d: bool, _p: u64, _l: u32) -> TreeStep<(), f64> {
            unreachable!("no interior nodes at depth 0")
        }
    }

    #[test]
    fn depth_zero_spaces_have_one_leaf() {
        let out = Engine::auto().search(&One).unwrap();
        assert_eq!((out.index, out.loss), (0, 7.0));
    }

    /// A [`TableTree`] with a real summary table (plain mutexed map — the
    /// engine contract, not the sharded cache, is under test here) and a
    /// bound kept across its searches.
    struct SummaryTree {
        inner: TableTree,
        table: Mutex<std::collections::HashMap<(u64, u32), SubtreeSummary<f64>>>,
        bound: SharedBound<f64>,
    }

    impl SummaryTree {
        fn new(losses: Vec<f64>, hints: bool) -> SummaryTree {
            SummaryTree {
                inner: TableTree::new(losses, hints),
                table: Mutex::new(std::collections::HashMap::new()),
                bound: SharedBound::new(),
            }
        }
    }

    impl TreeEval<f64> for SummaryTree {
        type Node = (u64, u32);
        fn depth(&self) -> u32 {
            self.inner.depth()
        }
        fn enter(&self, prefix: u64, len: u32) -> TreeStep<(u64, u32), f64> {
            self.inner.enter(prefix, len)
        }
        fn child(
            &self,
            node: &(u64, u32),
            decision: bool,
            path: u64,
            len: u32,
        ) -> TreeStep<(u64, u32), f64> {
            self.inner.child(node, decision, path, len)
        }
        fn probe_summary(&self, bits: u64, len: u32) -> SummaryProbe<f64> {
            match self.table.lock().unwrap().get(&(bits, len)) {
                Some(s) => SummaryProbe::from(*s),
                None => SummaryProbe::Miss,
            }
        }
        fn install_summary(&self, bits: u64, len: u32, summary: SubtreeSummary<f64>) {
            self.table.lock().unwrap().insert((bits, len), summary);
        }
        fn bound(&self) -> Option<&SharedBound<f64>> {
            Some(&self.bound)
        }
    }

    #[test]
    fn warm_exhaustive_repeat_answers_at_the_root() {
        let losses = table(5, 64);
        let flat = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        let eval = SummaryTree::new(losses, false);
        let engine = Engine::exhaustive();
        let cold = engine.search(&eval).unwrap();
        assert_eq!((cold.index, cold.loss), (flat.index, flat.loss));
        assert_eq!(cold.stats.summary.exact_hits, 0);
        assert_eq!(cold.stats.summary.exact_installs, 63, "every interior node installs");
        assert_eq!(cold.stats.summary.bound_installs, 0, "no pruning, no bound entries");
        let warm = engine.search(&eval).unwrap();
        assert_eq!((warm.index, warm.loss), (flat.index, flat.loss));
        assert_eq!(warm.stats.summary.exact_hits, 1, "one probe, at the root");
        assert_eq!(warm.stats.evaluated, 0, "no leaf re-walked: {:?}", warm.stats);
    }

    #[test]
    fn pruned_runs_install_bound_entries_and_stay_bit_identical() {
        for seed in 0..8 {
            let losses = table(seed, 128);
            let flat = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
            let eval = SummaryTree::new(losses, true);
            for round in 0..3 {
                for engine in [
                    Engine::with_threads(1),
                    Engine::with_threads(3),
                    Engine::with_threads(2).without_pruning(),
                ] {
                    let out = engine.search(&eval).unwrap();
                    assert_eq!(
                        (out.index, out.loss),
                        (flat.index, flat.loss),
                        "seed {seed} round {round} engine {engine:?}"
                    );
                }
            }
            let installs: Vec<bool> =
                eval.table.lock().unwrap().values().map(|s| s.exact).collect();
            assert!(installs.iter().any(|e| *e), "seed {seed}: some subtree fully evaluated");
        }
    }

    #[test]
    fn seeded_bound_prunes_from_the_first_subtree() {
        // Losses descend towards index 0; the evaluator's bound already
        // holds the known winner's loss (achieved by candidate 0), so the
        // whole `false` half of the tree is dominated before any leaf
        // completes.
        let losses: Vec<f64> = (0..64).map(f64::from).collect();
        let eval = SummaryTree::new(losses, true);
        eval.bound.observe(&0.0);
        let out = Engine::with_threads(1).search(&eval).unwrap();
        assert_eq!((out.index, out.loss), (0, 0.0), "a kept bound never changes the winner");
        // Only the winner's own path survives: the winner, its sibling
        // leaf (single leaves are never hint-pruned), and one dominated
        // subtree skip per level above them.
        assert_eq!(out.stats.evaluated, 2, "stats: {:?}", out.stats);
        assert_eq!(out.stats.pruned, 5, "stats: {:?}", out.stats);
    }

    #[test]
    fn bound_entries_are_never_returned_as_answers() {
        // Round 1 prunes hard, installing bound entries everywhere the
        // cut fell. Round 2 runs exhaustively (pruning off): it may not
        // trust any bound entry, so it must re-walk those subtrees and
        // still produce the exhaustive winner.
        let losses = table(9, 64);
        let flat = minimize(&Engine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        let eval = SummaryTree::new(losses, true);
        let pruned = Engine::with_threads(1).search(&eval).unwrap();
        assert_eq!((pruned.index, pruned.loss), (flat.index, flat.loss));
        assert!(pruned.stats.summary.bound_installs > 0, "stats: {:?}", pruned.stats);
        let exhaustive = Engine::exhaustive().search(&eval).unwrap();
        assert_eq!((exhaustive.index, exhaustive.loss), (flat.index, flat.loss));
        assert!(
            exhaustive.stats.summary.bound_hits > 0,
            "the pruned run's bound entries were probed (root included) but not trusted: {:?}",
            exhaustive.stats
        );
        // The exhaustive re-walk upgrades the cut subtrees: a third run
        // now answers at the root without touching a leaf.
        let third = Engine::exhaustive().search(&eval).unwrap();
        assert_eq!((third.index, third.loss), (flat.index, flat.loss));
        assert_eq!(third.stats.summary.exact_hits, 1, "stats: {:?}", third.stats);
        assert_eq!(third.stats.evaluated, 0);
    }

    #[test]
    fn the_calling_thread_is_worker_zero() {
        // Each task holds its worker at the barrier until the other task
        // is claimed, so the two tasks run on two different workers.
        let barrier = std::sync::Barrier::new(2);
        let ids = Mutex::new(Vec::new());
        Engine::with_threads(2).scan(2, |_, _| {
            barrier.wait();
            ids.lock().unwrap().push(std::thread::current().id());
            Some(0.0)
        });
        let ids = ids.into_inner().unwrap();
        assert!(ids.contains(&std::thread::current().id()), "{ids:?}");
    }

    #[test]
    fn cancelled_tree_searches_unwind_without_installing_summaries() {
        // The token fires before the walk starts: every interior node
        // aborts, nothing is evaluated, and — the soundness half — not
        // one summary is installed over the unexplored holes.
        let eval = SummaryTree::new(table(3, 64), false);
        let cancel = CancelToken::default();
        cancel.cancel();
        for engine in [Engine::with_threads(1), Engine::with_threads(3)] {
            let result = engine.search_with(&eval, &cancel);
            assert!(result.was_cancelled(), "{engine:?}");
            assert!(eval.table.lock().unwrap().is_empty(), "no summary installed: {engine:?}");
        }
        // Refused at the claim whatever the worker count: not even a
        // depth-0 root is entered.
        for threads in [1, 3] {
            let result = Engine::with_threads(threads).search_with(&One, &cancel);
            assert_eq!(result, SearchResult::Cancelled(None), "{threads} workers");
        }
        // A later, un-cancelled search over the same evaluator is
        // bit-identical to a cold run — nothing was poisoned.
        let flat = minimize(&Engine::exhaustive(), 64, |i| eval.inner.losses[i]).unwrap();
        let out = Engine::with_threads(2).search(&eval).unwrap();
        assert_eq!((out.index, out.loss), (flat.index, flat.loss));
    }

    #[test]
    fn a_watch_that_turns_false_mid_walk_installs_nothing_on_the_abort_path() {
        // The watch holds for its first 20 checks, then fails: the walk
        // stops mid-tree. Subtrees finished before the abort may keep
        // their summaries; every ancestor of the aborted node — the root
        // included — must not get one, and whatever was installed must
        // be the subtree's true argmin.
        let losses = table(4, 64);
        let flat = minimize(&Engine::exhaustive(), 64, |i| losses[i]).unwrap();
        let eval = SummaryTree::new(losses.clone(), false);
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        let checks = AtomicU64::new(0);
        let cancel = CancelToken::default().with_watch(move || checks.fetch_add(1, Relaxed) < 20);
        let result = Engine::exhaustive().search_with(&eval, &cancel);
        assert!(result.was_cancelled());
        let table = eval.table.lock().unwrap().clone();
        assert!(!table.contains_key(&(0, 0)), "no root summary over an aborted walk");
        assert!(table.len() < 63, "not every interior node installed: {} entries", table.len());
        for (&(bits, len), s) in &table {
            let width = 6 - len;
            let lo = (bits << width) as usize;
            let best = minimize(&Engine::exhaustive(), 1 << width, |i| losses[lo + i]).unwrap();
            assert!(s.exact, "no pruning, so no bound entries");
            assert_eq!((s.index, s.loss), ((lo + best.index) as u64, best.loss), "{bits}/{len}");
        }
        // The next, unwatched search over the same tables is the cold
        // winner.
        let out = Engine::exhaustive().search(&eval).unwrap();
        assert_eq!((out.index, out.loss), (flat.index, flat.loss));
    }

    #[test]
    fn mid_walk_cancellation_returns_a_partial_best_and_skips_the_rest() {
        /// Fires the shared token after `trip` leaf evaluations.
        struct Tripping {
            inner: TableTree,
            cancel: CancelToken,
            trip: u64,
            count: std::sync::atomic::AtomicU64,
        }
        impl TreeEval<f64> for Tripping {
            type Node = (u64, u32);
            fn depth(&self) -> u32 {
                self.inner.depth()
            }
            fn enter(&self, prefix: u64, len: u32) -> TreeStep<(u64, u32), f64> {
                self.inner.enter(prefix, len)
            }
            fn child(
                &self,
                node: &(u64, u32),
                decision: bool,
                path: u64,
                len: u32,
            ) -> TreeStep<(u64, u32), f64> {
                let step = self.inner.child(node, decision, path, len);
                if matches!(step, TreeStep::Leaf { .. }) {
                    let n = self.count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if n + 1 >= self.trip {
                        self.cancel.cancel();
                    }
                }
                step
            }
        }
        let cancel = CancelToken::default();
        let eval = Tripping {
            inner: TableTree::new(table(7, 1 << 12), false),
            cancel: cancel.clone(),
            trip: 4,
            count: Default::default(),
        };
        let result = Engine::exhaustive().search_with(&eval, &cancel);
        assert!(result.was_cancelled());
        let out = result.into_outcome().expect("some leaves scored before the trip");
        assert!(
            out.stats.evaluated < 64,
            "the 4096-leaf walk stopped near the trip: {:?}",
            out.stats
        );
    }
}
