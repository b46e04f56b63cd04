//! Engine-backed game solving: root-split parallel minimax, parallel
//! n-queens and full-tree parallel alpha–beta, each taking its engine
//! (or worker count) explicitly.
//!
//! The root split is the classic parallelisation of backward induction:
//! the first mover's candidates are independent subgames, so each worker
//! rebuilds "fix root move `a`, solve the rest with the usual handlers"
//! locally (handler programs are `Rc` trees and cannot cross threads —
//! the evaluator ships only the `Arc`-shared table). The engine's
//! deterministic `(loss, index)` reduction keeps the chosen play
//! bit-identical to the sequential `hmax ∘ hmin` nesting, and its
//! branch-and-bound bound prunes rows whose best conceivable value
//! (the row maximum) cannot beat a value some worker already achieved.

use crate::alternating::GameTree;
use crate::bimatrix::Matrix;
use crate::minimax::{hmin, MinMove};
use selc::{handle, loss, perform, Sel};
use selc_engine::{parallel_subtrees, Engine, SharedBound};
use std::sync::Arc;

/// The subgame after the maximiser fixes row `a`: the minimiser moves,
/// the joint loss is recorded, and the chosen column is returned.
fn subgame(table: Arc<Matrix>, a: usize) -> Sel<f64, usize> {
    let cols = table.cols();
    perform::<f64, MinMove>(cols).and_then(move |b| loss(table.entries[a][b]).map(move |_| b))
}

/// Scores row `a` for the root split: replays `handle(hmin, subgame(a))`
/// and returns the *negated* game value (the engine minimises; the root
/// player maximises). First it checks the row's lower bound
/// `-(row minimum)` against the shared bound: for a matrix game the
/// subgame value *is* the row minimum, so a cheap scan (no handler
/// machinery, no future replays) gives a tight bound and rows that
/// cannot strictly beat the incumbent value never pay for handler
/// evaluation. Tightness is fine for soundness — strict domination
/// (`lb > best`) still never drops a tying row. In deeper games, where
/// no exact scan exists, a heuristic bound slots into the same check.
fn score_row(table: &Arc<Matrix>, a: usize, bound: &SharedBound<f64>) -> Option<f64> {
    let row_min = table.entries[a].iter().copied().fold(f64::INFINITY, f64::min);
    if bound.dominated(&-row_min) {
        return None;
    }
    let (value, _col) = handle(&hmin(), subgame(Arc::clone(table), a)).run_unwrap();
    Some(-value)
}

/// Root-split parallel minimax: distributes the maximiser's rows over
/// the engine's worker pool, each worker solving the minimiser's reply
/// with the ordinary `hmin` handler. Returns `((row, col), value)`,
/// bit-identical to [`crate::minimax::minimax_handler`].
pub fn minimax_root_split(table: &Matrix, engine: &Engine) -> ((usize, usize), f64) {
    let table = Arc::new(table.clone());
    let a = engine
        .scan(table.rows(), |a, bound| score_row(&table, a, bound))
        .expect("matrices are non-empty")
        .index;
    // Replay the winning subgame once for the minimiser's reply (pure,
    // so this reproduces exactly the value the search scored).
    let (value, b) = handle(&hmin(), subgame(table, a)).run_unwrap();
    ((a, b), value)
}

/// Parallel n-queens: splits the first queen's column over `engine`;
/// each worker finishes the board with the usual product of per-row
/// `argmin` selections under the global attack-count loss. Returns the
/// same placement as [`crate::queens::queens_selection`] — the empty
/// placement for `n = 0`.
pub fn queens_parallel(engine: &Engine, n: usize) -> Vec<usize> {
    use selection::product::Stage;
    use std::rc::Rc;
    if n == 0 {
        return Vec::new();
    }
    let rest = move || -> Vec<Stage<usize, f64>> {
        (1..n)
            .map(|_| {
                Rc::new(move |_: &[usize]| selection::argmin((0..n).collect::<Vec<usize>>()))
                    as Stage<usize, f64>
            })
            .collect()
    };
    selection::par::par_product_root(engine, (0..n).collect(), rest, |p: &[usize]| {
        crate::queens::attacks(p) as f64
    })
}

/// Full-tree parallel alpha–beta: where [`minimax_root_split`] stops at
/// the first mover's moves, this distributes *every* subtree at `split`
/// plies — `branching^split` independent work items claimed from the
/// engine's saturating subtree queue ([`parallel_subtrees`], the same
/// distribution the λC tree search uses) — and solves each with the
/// store-nothing strict-cutoff core of [`GameTree::solve_alphabeta`]
/// from a fresh window. Work item `i` *is* node `i` of ply `split` in
/// flat leaf order, which numbers each ply's nodes in move order, so the
/// results come back in move order and the shared top plies fold by
/// backward induction over that fixed order: the play and value are
/// bit-identical to [`GameTree::solve_backward`] regardless of worker
/// timing. `threads == 0` means `SELC_THREADS`.
///
/// # Panics
///
/// Panics on a degenerate tree or one whose `leaves` does not hold
/// `branching^depth` values.
pub fn alphabeta_parallel(t: &GameTree, threads: usize, split: usize) -> (Vec<usize>, f64) {
    t.assert_shape();
    let split = split.min(t.depth);
    let count = t.branching.pow(split as u32);
    let mut level = parallel_subtrees(threads, count, |i| t.solve_node(split, i).0);
    // Fold the shared top plies over `(leaf, value)` pairs: at ply `p`
    // the maximiser moves iff `p` is even, ties towards the smaller move
    // index — the in-order scan keeps the first of equals, which *is*
    // the smaller move.
    for p in (0..split).rev() {
        let maximising = p.is_multiple_of(2);
        level = level
            .chunks(t.branching)
            .map(|group| {
                group
                    .iter()
                    .copied()
                    .reduce(|best, cand| {
                        let better = if maximising { cand.1 > best.1 } else { cand.1 < best.1 };
                        if better {
                            cand
                        } else {
                            best
                        }
                    })
                    .expect("branching > 0")
            })
            .collect();
    }
    let (leaf, value) = level[0];
    (t.play_of(leaf), value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimax::{minimax_handler, minimax_selection};
    use crate::queens::{attacks, queens_selection};

    #[test]
    fn root_split_solves_the_paper_example() {
        let m = Matrix::paper_example();
        assert_eq!(minimax_root_split(&m, &Engine::with_threads(2)), ((0, 1), 3.0));
        assert_eq!(minimax_root_split(&m, &Engine::exhaustive()), ((0, 1), 3.0));
    }

    #[test]
    fn root_split_matches_all_sequential_solvers_on_random_tables() {
        for seed in 0..25 {
            let m = Matrix::random(5, 4, seed);
            let expected = minimax_handler(&m);
            assert_eq!(minimax_selection(&m), expected, "seed {seed}");
            for threads in [1, 2, 4] {
                for prune in [false, true] {
                    let eng = Engine { threads, prune };
                    assert_eq!(
                        minimax_root_split(&m, &eng),
                        expected,
                        "seed {seed} threads {threads} prune {prune}"
                    );
                }
            }
            assert_eq!(
                minimax_root_split(&m, &Engine::with_threads(1)),
                expected,
                "seed {seed} sequential+prune"
            );
        }
    }

    #[test]
    fn pruning_skips_dominated_rows() {
        // Row 0 achieves value 5; rows 1.. have maxima below 5, so once
        // the lone worker has scored row 0 the rest are pruned.
        let mut rows = vec![vec![5.0, 6.0, 7.0]];
        for i in 0..6 {
            rows.push(vec![1.0 + f64::from(i) * 0.1; 3]);
        }
        let m = Matrix::new(rows);
        let engine = Engine::with_threads(1);
        assert_eq!(minimax_root_split(&m, &engine), ((0, 0), 5.0));
        let table = Arc::new(m);
        let outcome = engine.scan(table.rows(), |a, bound| score_row(&table, a, bound)).unwrap();
        assert_eq!(outcome.index, 0);
        assert_eq!(outcome.stats.pruned, 6, "stats: {:?}", outcome.stats);
    }

    #[test]
    fn queens_parallel_matches_selection_product() {
        let engine = Engine::with_threads(2);
        for n in [0, 1, 4, 5] {
            let par = queens_parallel(&engine, n);
            let seq = queens_selection(n);
            assert_eq!(par, seq, "n = {n}");
        }
        // Unsolvable boards still minimise attacks identically.
        assert_eq!(attacks(&queens_parallel(&engine, 3)), 1);
        assert_eq!(queens_parallel(&Engine::exhaustive(), 3), queens_selection(3));
    }

    #[test]
    fn parallel_alphabeta_matches_backward_induction_across_splits() {
        for seed in 0..8 {
            for (branching, depth) in [(2, 5), (3, 4)] {
                let t = GameTree::random(branching, depth, seed);
                let expected = t.solve_backward();
                for threads in [1, 2, 4] {
                    for split in [0, 1, 2, 3] {
                        assert_eq!(
                            alphabeta_parallel(&t, threads, split),
                            expected,
                            "seed {seed} b {branching} d {depth} threads {threads} split {split}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_alphabeta_keeps_leftmost_ties_under_contention() {
        // All-equal leaves: every play ties, and the leftmost must win
        // no matter how workers interleave.
        let t = GameTree { branching: 3, depth: 4, leaves: vec![1.0; 81] };
        let expected = t.solve_backward();
        assert_eq!(expected.0, vec![0, 0, 0, 0]);
        for _ in 0..5 {
            assert_eq!(alphabeta_parallel(&t, 4, 2), expected);
        }
    }

    #[test]
    fn parallel_alphabeta_split_deeper_than_the_tree_is_clamped() {
        let t = GameTree::random(2, 2, 1);
        assert_eq!(alphabeta_parallel(&t, 2, 9), t.solve_backward());
    }
}
