//! Game-theory substrate for §2.1 and §4.3 of *Handling the Selection
//! Monad*: minimax play and Nash equilibria, each implemented both with
//! choice-continuation handlers (the paper's way) and with conventional
//! baselines (enumeration, backward induction, selection-function
//! products) for differential testing and benchmarking.
//!
//! * [`bimatrix`] — two-player matrix games, pure-Nash enumeration,
//!   best-response machinery;
//! * [`minimax`] — the §4.3 minimax example generalised to arbitrary
//!   tables and move counts: `Max`/`Min` effects, handler solution,
//!   backward-induction baseline, selection-product baseline;
//! * [`nash`] — the §4.3 prisoner's-dilemma `hNash` handler (one-sided
//!   improvement steps iterated to a fixed point) plus enumeration
//!   baseline;
//! * [`queens`] — n-queens via products of selection functions (the
//!   algorithm-design lineage the paper cites: Escardó–Oliva,
//!   Hartmann–Gibbons);
//! * [`alternating`] — multi-round alternating game trees: handler-driven
//!   backward induction vs. an explicit negamax baseline;
//! * [`parallel`] — the same games on the `selc-engine` worker pool:
//!   root-split minimax (with branch-and-bound row pruning) and
//!   full-tree alpha–beta, bit-identical to their sequential
//!   counterparts.

pub mod alternating;
pub mod bimatrix;
pub mod minimax;
pub mod nash;
pub mod parallel;
pub mod queens;
