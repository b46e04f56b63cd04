//! Engine-backed game solving: root-split parallel minimax and parallel
//! n-queens, each taking its engine explicitly, and full-tree alpha–beta,
//! which takes a worker count but runs on the calling thread.
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
use selc_engine::{Engine, SharedBound};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The subgame after the maximiser fixes row `a`: the minimiser moves,
/// the joint loss is recorded, and the chosen column is returned.
fn subgame(table: Arc<Matrix>, a: usize) -> Sel<f64, usize> {
    let cols = table.cols();
    perform::<f64, MinMove>(cols).and_then(move |b| loss(table.entries[a][b]).map(move |_| b))
}

/// Scores row `a` for the root split: replays `handle(hmin, subgame(a))`
/// and returns the *negated* game value (the engine minimises; the root
/// player maximises) with the column the minimiser chose. First it
/// checks the row's lower bound `-(row minimum)` against the shared
/// bound: for a matrix game the subgame value *is* the row minimum, so
/// a cheap scan (no handler machinery, no future replays) gives a tight
/// bound and rows that cannot strictly beat the incumbent value never
/// pay for handler evaluation. Tightness is fine for soundness — strict
/// domination (`lb > best`) still never drops a tying row. In deeper
/// games, where no exact scan exists, a heuristic bound slots into the
/// same check.
fn score_row(table: &Arc<Matrix>, a: usize, bound: &SharedBound<f64>) -> Option<(f64, usize)> {
    let row_min = table.entries[a].iter().copied().fold(f64::INFINITY, f64::min);
    if bound.dominated(&-row_min) {
        return None;
    }
    let (value, col) = handle(&hmin(), subgame(Arc::clone(table), a)).run_unwrap();
    Some((-value, col))
}

/// Root-split parallel minimax: distributes the maximiser's rows over
/// the engine's worker pool, each worker solving the minimiser's reply
/// with the ordinary `hmin` handler and keeping the column it chose.
/// Returns `((row, col), value)`, bit-identical to
/// [`crate::minimax::minimax_handler`].
pub fn minimax_root_split(table: &Matrix, engine: &Engine) -> ((usize, usize), f64) {
    let table = Arc::new(table.clone());
    // One slot per row, written only by the worker that scores it.
    let cols: Vec<AtomicUsize> = (0..table.rows()).map(|_| AtomicUsize::new(0)).collect();
    let out = engine
        .scan(table.rows(), |a, bound| {
            let (loss, col) = score_row(&table, a, bound)?;
            // ordering: Relaxed — read only after the scan has joined
            // its workers, and the join orders this store before it.
            cols[a].store(col, Ordering::Relaxed);
            Some(loss)
        })
        .expect("matrices are non-empty");
    // ordering: Relaxed — see the store above.
    ((out.index, cols[out.index].load(Ordering::Relaxed)), -out.loss)
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

/// Full-tree alpha–beta for callers that pass a worker count and a
/// split ply: it runs [`GameTree::solve_alphabeta`] on the calling
/// thread and ignores `threads` and `split`, so the play and value are
/// bit-identical to [`GameTree::solve_backward`], ties included.
///
/// No parallel form has paid for itself on this solve. Solving each
/// ply-`split` subtree from a fresh window evaluates about twice the
/// sequential solver's leaves on seeded 4×8 trees. Sharing the younger
/// root moves under the root's live window once the eldest is solved
/// (Young Brothers Wait) keeps the count near the sequential one (7 425
/// against 7 005 per tree at two workers), but inside an offline job on
/// two cores the second worker made the solve no faster in wall time
/// and dearer in CPU; sharing at every node above `split` cost more
/// still.
///
/// # Panics
///
/// Panics on a degenerate tree or one whose `leaves` does not hold
/// `branching^depth` values.
pub fn alphabeta_parallel(t: &GameTree, _threads: usize, _split: usize) -> (Vec<usize>, f64) {
    t.solve_alphabeta()
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
        let outcome = engine
            .scan(table.rows(), |a, bound| score_row(&table, a, bound).map(|(loss, _)| loss))
            .unwrap();
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
        for (branching, depth) in [(2, 5), (3, 4), (4, 6), (4, 8)] {
            for seed in 0..64 {
                let t = GameTree::random(branching, depth, seed);
                let expected = t.solve_backward();
                for threads in [1, 2, 4] {
                    for split in 0..=depth + 1 {
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
        for threads in [1, 2, 4] {
            for split in 0..=t.depth + 1 {
                for _ in 0..5 {
                    assert_eq!(
                        alphabeta_parallel(&t, threads, split),
                        expected,
                        "threads {threads} split {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_alphabeta_split_deeper_than_the_tree_is_clamped() {
        let t = GameTree::random(2, 2, 1);
        assert_eq!(alphabeta_parallel(&t, 2, 9), t.solve_backward());
    }
}
