//! Multi-round alternating games: the §4.3 minimax example extended from
//! one move each to a full game tree of alternating moves.
//!
//! The correct generalisation nests **one handler per ply**, outermost
//! handler for the first mover — exactly how the paper nests
//! `hmax $ hmin` for its two-ply game. Each ply's choice continuation
//! then resolves the whole subtree below it (all later plies are handled
//! *inside* the probed resumption), which is backward induction.
//!
//! Sharing a single handler between two plies of the same player is *not*
//! the same game: an op of ply 2 surfacing inside ply 1's probe escapes
//! past the prober to the shared outer handler, whose own choice
//! continuation then spans the prober's subsequent clause logic. That is
//! faithful calculus behaviour (choice continuations are global until
//! localised) but it is not backward induction —
//! [`GameTree::solve_shared_handlers`] exhibits it and the tests pin down
//! a case where the two diverge.

use crate::minimax::{hmax, hmin, pick_extreme, MaxMove, MinMove};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selc::{effect, handle, loss, perform, Handler, Sel};
use selc_cache::ShardedCache;
use selc_engine::CancelToken;
use selc_obs::{trace, SpanLabel};
use std::rc::Rc;
use std::sync::LazyLock;

/// One flagged-table alpha-beta solve, root to resolution; the span
/// argument is the tree depth.
static AB_SOLVE_SPAN: SpanLabel = SpanLabel::new("games.ab_solve");

/// Leaves the flagged-table solvers actually evaluated (0 on a warm
/// repeat — the gap between this and `games.ab_solves` is the served
/// game path's warmth, end to end).
static AB_LEAVES: LazyLock<selc_obs::Counter> =
    LazyLock::new(|| selc_obs::metrics::counter("games.ab_leaves"));
static AB_SOLVES: LazyLock<selc_obs::Counter> =
    LazyLock::new(|| selc_obs::metrics::counter("games.ab_solves"));
static AB_CANCELLED: LazyLock<selc_obs::Counter> =
    LazyLock::new(|| selc_obs::metrics::counter("games.ab_cancelled"));

/// How much a stored alpha–beta resolution can be trusted on a later
/// visit — the minimax mirror of the engine's exact/bound subtree
/// summaries (`selc_cache::SubtreeSummary`).
///
/// Classification is against the node's *original* window `(α₀, β₀)`
/// under the strict-cutoff discipline: values inside the **closed**
/// window `[α₀, β₀]` are exact (a strict cutoff only ever skips
/// subtrees that strictly lose, so boundary values are still resolved
/// in full, ties included), values strictly outside it are one-sided
/// bounds produced by a cut somewhere below.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbFlag {
    /// `value` is the true minimax value and `leaf` the backward-
    /// induction leaf (leftmost ties). Reusable under any window.
    Exact,
    /// The node was cut from below: the true value is `>= value`.
    /// Reusable only to re-trigger a cut, when `value > beta`.
    Lower,
    /// Symmetric: the true value is `<= value`. Reusable only when
    /// `value < alpha`.
    Upper,
}

/// One transposition entry: a node's resolved best leaf and value, and
/// how far they can be trusted ([`AbFlag`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbEntry {
    /// The best leaf found below the node, as an index into
    /// [`GameTree::leaves`] (the play is its base-`branching` digits).
    pub leaf: u64,
    /// The node's minimax value (exact or a one-sided bound, per `flag`).
    pub value: f64,
    /// How much of the window search the entry replaces.
    pub flag: AbFlag,
}

// Every probe copies an entry out of its shard under the shard lock, so
// the entry must stay a small plain value: no heap field may creep back.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<AbEntry>();
    assert!(std::mem::size_of::<AbEntry>() <= 24);
};

/// A transposition table for [`GameTree::solve_alphabeta_tt_cancellable`], keyed by
/// the node's breadth-first position in the complete tree. Keys carry no
/// tree identity, so one handle serves **one tree per epoch**: call
/// [`ShardedCache::advance_epoch`] before pointing it at a different
/// tree (entries then lazily die, exactly like the engine caches).
pub type AbCache = ShardedCache<u64, AbEntry>;

effect! {
    /// Ply-0 move (maximiser).
    pub effect Ply0 {
        /// Choose among `n` moves.
        op Move0 : usize => usize;
    }
}
effect! {
    /// Ply-1 move (minimiser).
    pub effect Ply1 {
        /// Choose among `n` moves.
        op Move1 : usize => usize;
    }
}
effect! {
    /// Ply-2 move (maximiser).
    pub effect Ply2 {
        /// Choose among `n` moves.
        op Move2 : usize => usize;
    }
}
effect! {
    /// Ply-3 move (minimiser).
    pub effect Ply3 {
        /// Choose among `n` moves.
        op Move3 : usize => usize;
    }
}

/// Maximum supported depth of [`GameTree::solve_handlers`] (one static
/// effect per ply).
pub const MAX_DEPTH: usize = 4;

macro_rules! ply_handler {
    ($name:ident, $op:ident, $maximise:expr) => {
        fn $name<B: Clone + 'static>() -> Handler<f64, B, B> {
            Handler::builder::<<$op as selc::Operation>::Effect>()
                .on::<$op>(|n, l, k| pick_extreme(&l, n, $maximise).and_then(move |m| k.resume(m)))
                .build_identity()
        }
    };
}

ply_handler!(h_ply0, Move0, true);
ply_handler!(h_ply1, Move1, false);
ply_handler!(h_ply2, Move2, true);
ply_handler!(h_ply3, Move3, false);

/// `branching^depth`, or `None` when it does not fit a `usize`.
fn leaf_count(branching: usize, depth: usize) -> Option<usize> {
    u32::try_from(depth).ok().and_then(|d| branching.checked_pow(d))
}

/// The transposition key of node `(ply, index)`: its breadth-first
/// position `1 + b + … + b^(ply−1) + index` in the complete tree. All
/// shallower nodes number first, so keys are injective for every
/// `b ≥ 1` (for `b = 1` the key is the ply).
fn node_key(branching: usize, ply: usize, index: usize) -> u64 {
    let shallower = (0..ply).fold(0_u64, |n, _| n * branching as u64 + 1);
    shallower + index as u64
}

/// A complete game tree with `branching^depth` leaves, maximiser to move
/// first, leaf values indexed by the move path.
#[derive(Clone, Debug)]
pub struct GameTree {
    /// Moves available at every node.
    pub branching: usize,
    /// Number of plies (at most [`MAX_DEPTH`] for the handler solver).
    pub depth: usize,
    /// Leaf values in lexicographic path order.
    pub leaves: Vec<f64>,
}

impl GameTree {
    /// A random game tree.
    ///
    /// # Panics
    ///
    /// Panics if `branching == 0` or `depth == 0`, or if
    /// `branching^depth` does not fit a `usize`.
    pub fn random(branching: usize, depth: usize, seed: u64) -> GameTree {
        assert!(branching > 0 && depth > 0, "degenerate game tree");
        let n = leaf_count(branching, depth).unwrap_or_else(|| {
            panic!("game tree too large: {branching}^{depth} leaves overflow usize")
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let leaves = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
        GameTree { branching, depth, leaves }
    }

    /// The leaf value at a full move path.
    pub fn leaf(&self, path: &[usize]) -> f64 {
        self.leaves[self.index_of(path)]
    }

    /// The index of the node a move path names among its ply's nodes,
    /// in lexicographic move order.
    fn index_of(&self, path: &[usize]) -> usize {
        path.iter().fold(0, |idx, m| idx * self.branching + m)
    }

    /// The move path to leaf `leaf`: its `depth` base-`branching` digits,
    /// first move most significant (the inverse of the indexing
    /// [`GameTree::leaf`] uses).
    pub(crate) fn play_of(&self, leaf: usize) -> Vec<usize> {
        let mut play = vec![0; self.depth];
        let mut rem = leaf;
        for slot in play.iter_mut().rev() {
            *slot = rem % self.branching;
            rem /= self.branching;
        }
        play
    }

    /// Panics unless the public fields describe a complete tree: the
    /// alpha–beta solvers compute every child and leaf index from
    /// `branching` and `depth`, so `leaves` must hold `branching^depth`
    /// values.
    pub(crate) fn assert_shape(&self) {
        assert!(self.branching > 0, "degenerate game tree");
        assert_eq!(
            leaf_count(self.branching, self.depth),
            Some(self.leaves.len()),
            "a branching-{} depth-{} game tree needs branching^depth leaves",
            self.branching,
            self.depth
        );
    }

    /// Explicit backward induction (negamax-style) — the baseline. The
    /// maximiser moves on even plies; ties break towards smaller move
    /// indices at every node.
    pub fn solve_backward(&self) -> (Vec<usize>, f64) {
        fn go(t: &GameTree, path: &mut Vec<usize>) -> (Vec<usize>, f64) {
            if path.len() == t.depth {
                return (path.clone(), t.leaf(path));
            }
            let maximising = path.len().is_multiple_of(2);
            let mut best: Option<(Vec<usize>, f64)> = None;
            for m in 0..t.branching {
                path.push(m);
                let (p, v) = go(t, path);
                path.pop();
                let better = match &best {
                    None => true,
                    Some((_, bv)) => {
                        if maximising {
                            v > *bv
                        } else {
                            v < *bv
                        }
                    }
                };
                if better {
                    best = Some((p, v));
                }
            }
            best.expect("branching > 0")
        }
        go(self, &mut Vec::new())
    }

    /// Strict-cutoff alpha–beta: backward induction that skips a
    /// subtree only when its value falls *strictly* outside the
    /// `(alpha, beta)` window — the minimax analogue of the engine's
    /// strict-domination pruning. A node cut at `v > beta` (maximiser)
    /// strictly loses at the minimising ancestor that achieved `beta`,
    /// so it can neither win nor *tie* there; nodes on a tie boundary
    /// are never cut. The returned play and value are therefore
    /// bit-identical to [`GameTree::solve_backward`], leftmost
    /// tie-breaking included. Works at any depth (no handler-effect
    /// limit).
    pub fn solve_alphabeta(&self) -> (Vec<usize>, f64) {
        self.assert_shape();
        let (solved, _) = self.solve_node(0, 0, None, &CancelToken::never());
        let (leaf, value) = solved.expect("a never token cannot cancel");
        (self.play_of(leaf), value)
    }

    /// [`GameTree::solve_alphabeta`] through a flagged transposition
    /// table, under a `selc_engine::CancelToken` (pass
    /// `CancelToken::never()` for a solve that cannot be cut short).
    /// Returns the play, its value and the number of leaves evaluated.
    ///
    /// Interior resolutions are stored as [`AbEntry`]s and later visits
    /// probe before searching — `Exact` entries answer outright,
    /// `Lower`/`Upper` entries re-trigger the cut they came from when
    /// they still clear the live window. Nodes on the last interior ply
    /// below the root scan their leaves without the table. The root's
    /// window is infinite, so the root always stores `Exact` and a warm
    /// repeat is O(1): one probe, zero leaves.
    ///
    /// Bit-identity with [`GameTree::solve_backward`] (play *and*
    /// value, leftmost ties) is preserved because bound entries are
    /// reused only strictly outside the live window — positions the
    /// strict-cutoff search discards or cuts on anyway — while values
    /// inside the closed window always come from `Exact` entries or a
    /// full sub-search.
    ///
    /// The token is checked at every interior node like the tree
    /// engine's walker. The solve returns `None` when it fired
    /// mid-solve: minimax has no sound "best seen so far" (an unexplored
    /// sibling can change every ancestor's value), so a cancelled solve
    /// yields nothing rather than a wrong play. Soundness against the
    /// table: an aborted node returns **before** computing or storing a
    /// value, and the abort propagates straight up, so no entry derived
    /// from a partially-searched node is ever stored — entries written
    /// by completed siblings earlier in the solve are real resolutions
    /// and stay valid for the next request.
    pub fn solve_alphabeta_tt_cancellable(
        &self,
        cache: &AbCache,
        cancel: &CancelToken,
    ) -> Option<(Vec<usize>, f64, u64)> {
        let _span = trace::span(&AB_SOLVE_SPAN, self.depth as u64);
        self.assert_shape();
        let (solved, leaves) = self.solve_node(0, 0, Some(cache), cancel);
        AB_LEAVES.add(leaves);
        match solved {
            Some((leaf, value)) => {
                AB_SOLVES.inc();
                Some((self.play_of(leaf), value, leaves))
            }
            None => {
                AB_CANCELLED.inc();
                None
            }
        }
    }

    /// What a warm repeat of [`GameTree::solve_alphabeta_tt_cancellable`] returns,
    /// read from the root's `Exact` entry with one probe and no walk.
    /// `None` when `cache` holds no resolved root (cold, evicted or
    /// bumped), in which case the caller runs the full solve.
    pub fn solve_alphabeta_tt_warm(&self, cache: &AbCache) -> Option<(Vec<usize>, f64)> {
        self.assert_shape();
        let root = cache.lookup(&node_key(self.branching, 0, 0))?;
        if root.flag != AbFlag::Exact {
            return None;
        }
        AB_SOLVES.inc();
        Some((self.play_of(root.leaf as usize), root.value))
    }

    /// The alpha–beta core every solver here runs: strict-cutoff search
    /// of node `(ply, index)` from an infinite window, through `cache`
    /// when one is given, checking `cancel` once per interior node.
    /// Returns the best leaf's index and the node's value (`None` when
    /// the token fired), and the number of leaves evaluated. Callers
    /// check [`GameTree::assert_shape`] first.
    pub(crate) fn solve_node(
        &self,
        ply: usize,
        index: usize,
        cache: Option<&AbCache>,
        cancel: &CancelToken,
    ) -> (Option<(usize, f64)>, u64) {
        let mut walk = Walk { tree: self, cache, cancel, leaves: 0 };
        let solved = walk.node(ply, index, f64::NEG_INFINITY, f64::INFINITY);
        (solved, walk.leaves)
    }

    /// The game as a `Sel` program over the per-ply effects.
    fn program(&self) -> Sel<f64, Vec<usize>> {
        fn go(t: Rc<GameTree>, path: Vec<usize>) -> Sel<f64, Vec<usize>> {
            if path.len() == t.depth {
                let v = t.leaf(&path);
                return loss(v).map(move |_| path.clone());
            }
            let b = t.branching;
            let step = move |m: usize, t: Rc<GameTree>, mut p: Vec<usize>| {
                p.push(m);
                go(t, p)
            };
            match path.len() {
                0 => {
                    perform::<f64, Move0>(b).and_then(move |m| step(m, Rc::clone(&t), path.clone()))
                }
                1 => {
                    perform::<f64, Move1>(b).and_then(move |m| step(m, Rc::clone(&t), path.clone()))
                }
                2 => {
                    perform::<f64, Move2>(b).and_then(move |m| step(m, Rc::clone(&t), path.clone()))
                }
                _ => {
                    perform::<f64, Move3>(b).and_then(move |m| step(m, Rc::clone(&t), path.clone()))
                }
            }
        }
        go(Rc::new(self.clone()), Vec::new())
    }

    /// Solves the game with one handler per ply, outermost first mover —
    /// exact backward induction. Returns `(play, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `depth > MAX_DEPTH`.
    pub fn solve_handlers(&self) -> (Vec<usize>, f64) {
        assert!(self.depth <= MAX_DEPTH, "per-ply handlers support depth <= {MAX_DEPTH}");
        let prog = self.program();
        let prog = handle(&h_ply3(), prog);
        let prog = handle(&h_ply2(), prog);
        let prog = handle(&h_ply1(), prog);
        let prog = handle(&h_ply0(), prog);
        let (v, play) = prog.run_unwrap();
        (play, v)
    }

    /// The *shared-handler* variant: one `hmax` for all maximiser plies
    /// and one `hmin` for all minimiser plies. For depth ≤ 2 this equals
    /// backward induction (it is the paper's own nesting); for deeper
    /// trees a later op surfacing inside an earlier probe escapes to the
    /// shared handler and the dynamics differ — see module docs.
    pub fn solve_shared_handlers(&self) -> (Vec<usize>, f64) {
        fn go(t: Rc<GameTree>, path: Vec<usize>) -> Sel<f64, Vec<usize>> {
            if path.len() == t.depth {
                let v = t.leaf(&path);
                return loss(v).map(move |_| path.clone());
            }
            let b = t.branching;
            if path.len().is_multiple_of(2) {
                perform::<f64, MaxMove>(b).and_then(move |m| {
                    let mut p = path.clone();
                    p.push(m);
                    go(Rc::clone(&t), p)
                })
            } else {
                perform::<f64, MinMove>(b).and_then(move |m| {
                    let mut p = path.clone();
                    p.push(m);
                    go(Rc::clone(&t), p)
                })
            }
        }
        let prog = go(Rc::new(self.clone()), Vec::new());
        let (v, play) = handle(&hmax(), handle(&hmin(), prog)).run_unwrap();
        (play, v)
    }
}

/// One alpha–beta walk. Nodes are `(ply, index)` in flat leaf order:
/// node `(p, i)` has children `(p + 1, i·b + m)` and node `(depth, i)`
/// is `leaves[i]`, so no move path is ever built, cloned or hashed.
struct Walk<'a> {
    tree: &'a GameTree,
    cache: Option<&'a AbCache>,
    cancel: &'a CancelToken,
    /// Leaves evaluated so far.
    leaves: u64,
}

impl Walk<'_> {
    /// Strict-cutoff alpha–beta at node `(ply, index)` under the window
    /// `(alpha0, beta0)`: the best leaf below it (leftmost among ties)
    /// and its value, or `None` once the token fired.
    fn node(&mut self, ply: usize, index: usize, alpha0: f64, beta0: f64) -> Option<(usize, f64)> {
        let t = self.tree;
        if ply == t.depth {
            self.leaves += 1;
            return Some((index, t.leaves[index]));
        }
        if self.cancel.is_cancelled() {
            return None; // nothing computed here, nothing stored
        }
        // The last interior ply scans its `b` adjacent leaves without
        // the table: a hit there would save at most `b` leaf reads, while
        // every probe or store costs a shard lock and two key hashes.
        // The root always uses the table, so a warm repeat stays one
        // probe at every depth.
        let last = ply + 1 == t.depth;
        let table = self
            .cache
            .filter(|_| ply == 0 || !last)
            .map(|c| (c, node_key(t.branching, ply, index)));
        if let Some(e) = table.and_then(|(c, key)| c.lookup(&key)) {
            // An `Exact` hit substitutes the true resolution wherever
            // the fresh search would have produced one; a bound hit is
            // honoured only when it clears the *live* window strictly,
            // i.e. exactly when the fresh search's fail-soft value
            // would land on the same side and trigger the same cut.
            let usable = match e.flag {
                AbFlag::Exact => true,
                AbFlag::Lower => e.value > beta0,
                AbFlag::Upper => e.value < alpha0,
            };
            if usable {
                return Some((e.leaf as usize, e.value));
            }
        }
        let maximising = ply.is_multiple_of(2);
        let (mut alpha, mut beta) = (alpha0, beta0);
        let mut best = (index, f64::NAN); // replaced by the first child
        for m in 0..t.branching {
            let child = index * t.branching + m;
            let (leaf, v) = if last {
                self.leaves += 1;
                (child, t.leaves[child])
            } else {
                self.node(ply + 1, child, alpha, beta)? // a cancelled child unwinds the solve
            };
            if m == 0 || if maximising { v > best.1 } else { v < best.1 } {
                best = (leaf, v);
            }
            if maximising {
                alpha = alpha.max(best.1);
                if best.1 > beta {
                    break; // strictly loses at the min ancestor achieving beta
                }
            } else {
                beta = beta.min(best.1);
                if best.1 < alpha {
                    break; // strictly loses at the max ancestor achieving alpha
                }
            }
        }
        if let Some((c, key)) = table {
            let flag = if best.1 > beta0 {
                AbFlag::Lower
            } else if best.1 < alpha0 {
                AbFlag::Upper
            } else {
                AbFlag::Exact
            };
            c.store(key, AbEntry { leaf: best.0 as u64, value: best.1, flag });
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_two_matches_paper_shape() {
        // [[5,3],[2,9]] as a depth-2, branching-2 tree
        let t = GameTree { branching: 2, depth: 2, leaves: vec![5.0, 3.0, 2.0, 9.0] };
        assert_eq!(t.solve_backward(), (vec![0, 1], 3.0));
        assert_eq!(t.solve_handlers(), (vec![0, 1], 3.0)); // (Left, Right)
        assert_eq!(t.solve_shared_handlers(), (vec![0, 1], 3.0));
    }

    #[test]
    fn per_ply_handlers_match_backward_induction() {
        for seed in 0..10 {
            for depth in [2usize, 3, 4] {
                let t = GameTree::random(2, depth, seed);
                let (play, v) = t.solve_handlers();
                let (bplay, bv) = t.solve_backward();
                assert_eq!(v, bv, "seed {seed}, depth {depth}");
                assert_eq!(play, bplay, "seed {seed}, depth {depth}");
                assert_eq!(t.leaf(&play), v);
            }
        }
    }

    #[test]
    fn shared_handlers_agree_at_depth_two() {
        for seed in 0..10 {
            let t = GameTree::random(3, 2, seed);
            assert_eq!(t.solve_shared_handlers().1, t.solve_backward().1, "seed {seed}");
        }
    }

    #[test]
    fn shared_handlers_can_diverge_at_depth_three() {
        // Documented divergence: with shared handlers, ply-2 max ops
        // surfacing inside ply-1 min probes escape to the shared hmax.
        let mut diverged = false;
        for seed in 0..10 {
            let t = GameTree::random(2, 3, seed);
            if t.solve_shared_handlers().1 != t.solve_backward().1 {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "expected at least one divergence across seeds");
    }

    /// A tree with leaves drawn from a tiny integer set, so ties abound
    /// at every level.
    fn tied_tree(branching: usize, depth: usize, seed: u64) -> GameTree {
        let mut t = GameTree::random(branching, depth, seed);
        for leaf in &mut t.leaves {
            *leaf = (*leaf / 20.0).floor(); // values in {0..4}: heavy ties
        }
        t
    }

    #[test]
    fn alphabeta_matches_backward_induction_value_and_play() {
        for seed in 0..15 {
            for (branching, depth) in [(2, 3), (2, 5), (3, 4), (4, 2), (2, 8)] {
                let t = GameTree::random(branching, depth, seed);
                assert_eq!(
                    t.solve_alphabeta(),
                    t.solve_backward(),
                    "seed {seed} b {branching} d {depth}"
                );
            }
        }
    }

    #[test]
    fn alphabeta_breaks_ties_leftmost_like_backward_induction() {
        for seed in 0..20 {
            let t = tied_tree(3, 5, seed);
            assert_eq!(t.solve_alphabeta(), t.solve_backward(), "seed {seed}");
        }
    }

    /// The leaves the table-less alpha–beta solve of `t` evaluates.
    fn plain_leaves(t: &GameTree) -> u64 {
        t.solve_node(0, 0, None, &CancelToken::never()).1
    }

    /// A table solve under a token that cannot fire.
    fn solve_tt(t: &GameTree, cache: &AbCache) -> (Vec<usize>, f64, u64) {
        t.solve_alphabeta_tt_cancellable(cache, &CancelToken::never())
            .expect("a never token cannot cancel")
    }

    #[test]
    fn alphabeta_actually_cuts() {
        let t = GameTree::random(4, 6, 9);
        let leaves = plain_leaves(&t);
        let total = t.leaves.len() as u64;
        assert!(leaves < total, "window cuts must skip leaves: {leaves}/{total}");
        // And a depth-1 tree degenerates to a full scan.
        assert_eq!(plain_leaves(&GameTree::random(5, 1, 0)), 5);
    }

    #[test]
    fn alphabeta_from_a_prefix_solves_the_subgame() {
        let t = GameTree::random(2, 4, 3);
        let (solved, _) = t.solve_node(2, t.index_of(&[1, 0]), None, &CancelToken::never());
        let (leaf, value) = solved.expect("a never token cannot cancel");
        let play = t.play_of(leaf);
        assert_eq!(&play[..2], &[1, 0], "the prefix is kept");
        // The subgame below [1, 0] restarts with the maximiser (ply 2):
        // check against a brute-force scan of the 4 completions.
        let mut best: Option<(Vec<usize>, f64)> = None;
        for m2 in 0..2 {
            let mut worst: Option<(Vec<usize>, f64)> = None;
            for m3 in 0..2 {
                let p = vec![1, 0, m2, m3];
                let v = t.leaf(&p);
                if worst.as_ref().is_none_or(|(_, wv)| v < *wv) {
                    worst = Some((p, v));
                }
            }
            let w = worst.expect("two moves");
            if best.as_ref().is_none_or(|(_, bv)| w.1 > *bv) {
                best = Some(w);
            }
        }
        assert_eq!((play, value), best.expect("two moves"));
    }

    #[test]
    fn node_keys_are_injective_and_leaf_indices_round_trip() {
        // The unary tree and the largest shapes the service accepts.
        for (b, d) in [(1, 5), (2, 12), (4, 10), (8, 6)] {
            // Keys count 0, 1, 2, … in (ply, index) order: strictly
            // increasing, hence injective, for b = 1 as for b > 1.
            let mut next = 0_u64;
            for ply in 0..=d {
                for index in 0..leaf_count(b, ply).expect("fits") {
                    assert_eq!(node_key(b, ply, index), next, "b {b} d {d} node ({ply}, {index})");
                    next += 1;
                }
            }
            let t = GameTree { branching: b, depth: d, leaves: Vec::new() };
            for leaf in 0..leaf_count(b, d).expect("fits") {
                let play = t.play_of(leaf);
                assert_eq!(play.len(), d);
                assert!(play.iter().all(|&m| m < b), "b {b} d {d} leaf {leaf}: {play:?}");
                assert_eq!(t.index_of(&play), leaf, "b {b} d {d}");
            }
        }
    }

    #[test]
    fn flagged_table_matches_backward_induction_cold_and_warm() {
        let shapes = [(2, 3), (2, 5), (3, 4), (4, 2), (2, 8), (1, 5), (2, 12), (5, 1)];
        for seed in 0..15 {
            for (branching, depth) in shapes {
                let what = format!("seed {seed} b {branching} d {depth}");
                let t = GameTree::random(branching, depth, seed);
                let reference = t.solve_backward();
                let cache = AbCache::unbounded(4);
                let (play, value, cold) = solve_tt(&t, &cache);
                assert_eq!((play, value), reference, "cold, {what}");
                // Each node is visited once per solve, so a cold table
                // never hits: it evaluates exactly the plain solve's leaves.
                assert_eq!(cold, plain_leaves(&t), "cold leaves, {what}");
                let (play, value, warm) = solve_tt(&t, &cache);
                assert_eq!((play, value), reference, "warm, {what}");
                assert_eq!(warm, 0, "warm leaves, {what}");
            }
        }
    }

    #[test]
    fn flagged_table_breaks_ties_leftmost_like_backward_induction() {
        for seed in 0..20 {
            for t in [tied_tree(3, 5, seed), tied_tree(1, 4, seed), tied_tree(2, 12, seed)] {
                let reference = t.solve_backward();
                let cache = AbCache::unbounded(4);
                let (play, value, _) = solve_tt(&t, &cache);
                assert_eq!((play, value), reference, "cold, seed {seed}");
                let (play, value, _) = solve_tt(&t, &cache);
                assert_eq!((play, value), reference, "warm, seed {seed}");
            }
        }
    }

    #[test]
    fn warm_repeat_answers_from_the_root_entry() {
        let t = GameTree::random(3, 6, 7);
        let cache = AbCache::unbounded(4);
        assert_eq!(t.solve_alphabeta_tt_warm(&cache), None, "a cold table has no root");
        let (play, value, cold_leaves) = solve_tt(&t, &cache);
        assert!(cold_leaves > 0);
        // The root window is infinite, so the root entry is Exact and a
        // warm repeat resolves at the root: zero leaves evaluated.
        let (wplay, wvalue, warm_leaves) = solve_tt(&t, &cache);
        assert_eq!((wplay.clone(), wvalue), (play, value));
        assert_eq!(warm_leaves, 0, "warm repeat must be answered from the root entry");
        assert_eq!(t.solve_alphabeta_tt_warm(&cache), Some((wplay, wvalue)));
    }

    #[test]
    fn epoch_bump_retires_entries_for_the_next_tree() {
        // One handle serves one tree per epoch: bump it and the same
        // keys must resolve the *new* tree from scratch.
        let a = GameTree::random(2, 6, 11);
        let b = GameTree::random(2, 6, 12);
        let cache = AbCache::unbounded(4);
        let (play, value, _) = solve_tt(&a, &cache);
        assert_eq!((play, value), a.solve_backward());
        cache.advance_epoch();
        let (play, value, leaves) = solve_tt(&b, &cache);
        assert!(leaves > 0, "stale entries must not answer the new tree");
        assert_eq!((play, value), b.solve_backward());
        let (_, _, warm) = solve_tt(&b, &cache);
        assert_eq!(warm, 0);
    }

    #[test]
    fn cancellable_solver_matches_the_plain_one_under_a_never_token() {
        for seed in 0..10 {
            for (branching, depth) in [(3, 5), (1, 4), (2, 12), (4, 1)] {
                let t = GameTree::random(branching, depth, seed);
                let reference = t.solve_backward();
                assert_eq!(t.solve_alphabeta(), reference, "seed {seed} b {branching} d {depth}");
                let cache = AbCache::unbounded(4);
                let (play, value, _) = solve_tt(&t, &cache);
                assert_eq!((play, value), reference, "seed {seed} b {branching} d {depth}");
                // And the entries it stored answer the repeat from the root.
                let (_, _, warm) = solve_tt(&t, &cache);
                assert_eq!(warm, 0, "seed {seed} b {branching} d {depth}");
            }
        }
    }

    #[test]
    fn cancelled_solves_return_none_without_poisoning_the_table() {
        for (branching, depth) in [(3, 6), (1, 5), (2, 12)] {
            let t = GameTree::random(branching, depth, 5);
            let reference = t.solve_backward();
            let cache = AbCache::unbounded(4);
            let dead = CancelToken::never();
            dead.cancel();
            assert_eq!(t.solve_alphabeta_tt_cancellable(&cache, &dead), None);
            // A token that fires mid-solve (after some entries are
            // stored) must also abort without a wrong answer or a
            // poisoned entry: simulate by cancelling between two solves
            // of sibling subgames.
            let mid = CancelToken::never();
            let warmup = GameTree::random(branching, depth, 5);
            let _ = warmup.solve_alphabeta_tt_cancellable(&cache, &mid);
            mid.cancel();
            assert_eq!(t.solve_alphabeta_tt_cancellable(&cache, &mid), None);
            // Whatever the aborted runs left behind, an un-cancelled
            // solve on the same handle is still bit-identical to the
            // reference.
            let (play, value, _) = solve_tt(&t, &cache);
            assert_eq!((play, value), reference, "b {branching} d {depth}");
        }
    }

    #[test]
    fn a_watch_that_turns_false_mid_solve_stores_no_root_entry() {
        // The watch holds for its first 10 interior-node checks, then
        // fails: the solve unwinds through every ancestor of the node it
        // stopped at without storing, so the root stays unresolved.
        let t = GameTree::random(3, 6, 5);
        let reference = t.solve_backward();
        let cache = AbCache::unbounded(4);
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        let checks = AtomicU64::new(0);
        let cancel = CancelToken::default().with_watch(move || checks.fetch_add(1, Relaxed) < 10);
        assert_eq!(t.solve_alphabeta_tt_cancellable(&cache, &cancel), None);
        assert!(cache.lookup(&node_key(3, 0, 0)).is_none(), "no root entry after an abort");
        assert_eq!(t.solve_alphabeta_tt_warm(&cache), None);
        let (play, value, _) = solve_tt(&t, &cache);
        assert_eq!((play, value), reference);
    }

    #[test]
    fn tiny_capacity_eviction_stays_bit_identical() {
        // A capacity-8 table churns constantly; evictions may cost
        // warmth but never correctness.
        for seed in 0..10 {
            for (branching, depth) in [(4, 4), (1, 6), (2, 12), (3, 1)] {
                let t = GameTree::random(branching, depth, seed);
                let reference = t.solve_backward();
                let cache = AbCache::clock_lru(2, 8);
                for round in 0..3 {
                    let (play, value, _) = solve_tt(&t, &cache);
                    assert_eq!(
                        (play, value),
                        reference,
                        "seed {seed} b {branching} d {depth} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn three_way_branching() {
        let t = GameTree::random(3, 3, 4);
        assert_eq!(t.solve_handlers().1, t.solve_backward().1);
    }

    #[test]
    #[should_panic(expected = "depth <= 4")]
    fn depth_five_rejected_by_handler_solver() {
        let t = GameTree::random(2, 5, 0);
        let _ = t.solve_handlers();
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_depth_rejected() {
        let _ = GameTree::random(2, 0, 0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_shape_rejected_before_allocating() {
        let _ = GameTree::random(2, 64, 0);
    }

    #[test]
    #[should_panic(expected = "needs branching^depth leaves")]
    fn malformed_tree_rejected_at_solver_entry() {
        let t = GameTree { branching: 2, depth: 3, leaves: vec![1.0; 7] };
        let _ = t.solve_alphabeta();
    }
}
