//! Engine-backed game solving under the names the `perfbench` package
//! pins: root-split minimax, which takes its engine explicitly, and
//! full-tree alpha–beta, which takes a worker count. Both run
//! sequentially on the calling thread: the root split is a flat scan,
//! which the engine runs in index order whatever its worker count, and
//! the alpha–beta is the sequential solve.
//!
//! The root split is the classic decomposition of backward induction:
//! the first mover's candidates are independent subgames, so each row is
//! scored by rebuilding "fix root move `a`, solve the rest with the
//! usual handlers". The engine's deterministic `(loss, index)` reduction
//! keeps the chosen play bit-identical to the sequential `hmax ∘ hmin`
//! nesting, and its branch-and-bound bound prunes rows whose best
//! conceivable value (the row minimum) cannot beat a value an earlier
//! row already achieved.

use crate::alternating::GameTree;
use crate::bimatrix::Matrix;
use crate::minimax::{hmin, MinMove};
use selc::{handle, loss, perform, Sel};
use selc_engine::{Engine, SharedBound};
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

/// Root-split minimax: scans the maximiser's rows with
/// [`Engine::scan`], solving the minimiser's reply to each with the
/// ordinary `hmin` handler and keeping the column it chose. Returns
/// `((row, col), value)`, bit-identical to
/// [`crate::minimax::minimax_handler`].
pub fn minimax_root_split(table: &Matrix, engine: &Engine) -> ((usize, usize), f64) {
    let table = Arc::new(table.clone());
    // The column each scored row's minimiser chose.
    let mut cols = vec![0; table.rows()];
    let out = engine
        .scan(table.rows(), |a, bound| {
            let (loss, col) = score_row(&table, a, bound)?;
            cols[a] = col;
            Some(loss)
        })
        .expect("matrices are non-empty");
    ((out.index, cols[out.index]), -out.loss)
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
    use selc_engine::minimize;
    use selection::{argmax_by, argmin_by};

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
    fn par_argmin_matches_sequential_scan() {
        let xs: Vec<i64> = (0..100).map(|i| (i * 31) % 17).collect();
        let loss = |x: &i64| (*x - 9) as f64 * (*x - 9) as f64;
        let seq = argmin_by(xs.clone(), loss);
        let par = minimize(&Engine::with_threads(3), xs.len(), |i| loss(&xs[i]));
        assert_eq!(xs[par.expect("non-empty").index], seq);
        let eng = minimize(&Engine::exhaustive(), xs.len(), |i| loss(&xs[i]));
        assert_eq!(xs[eng.expect("non-empty").index], seq);
    }

    #[test]
    fn par_argmax_matches_sequential_scan() {
        let xs: Vec<i64> = (0..60).map(|i| (i * 13) % 23).collect();
        let par = minimize(&Engine::with_threads(3), xs.len(), |i| -(xs[i] as f64));
        assert_eq!(xs[par.expect("non-empty").index], argmax_by(xs.clone(), |x| *x as f64));
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
