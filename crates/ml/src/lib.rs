//! ML substrate for the §4.3 experiments of *Handling the Selection
//! Monad*: optimisation-by-handler (SGD), hyperparameter tuning, greedy
//! selection, and a bandit example (§6 relates the design to RL).
//!
//! Each module pairs the paper's handler-based implementation with one or
//! more conventional baselines, so the benchmark harness can compare
//! *shape* (who converges, to what, at what overhead):
//!
//! * [`dataset`] — synthetic regression workloads;
//! * [`optimize`] — the `Opt` effect and the gradient-descent handler
//!   `hOpt` (choice-continuation differentiation via finite differences);
//! * [`linreg`] — linear regression three ways: handler SGD, hand-coded
//!   SGD (reverse-mode tape), closed-form least squares;
//! * [`hyper`] — the `LR` hyperparameter effect with `read_lr` and the
//!   grid-searching `tune_lr` handler (which never resumes);
//! * [`password`] — the greedy `Max` effect and the password example;
//! * [`bandit`] — greedy full-information bandit via choice continuations
//!   vs. an ε-greedy baseline;
//! * [`saddle`] — GAN-style min-max training: descent and ascent handlers
//!   sharing one recorded value function (§4.3's GAN remark);
//! * [`parallel`] — hyperparameter search on the `selc-engine` worker
//!   pool: chunked parallel `tuneLR` (replay per worker, memoised batch
//!   probes) and best-first tuning over whole training runs.

pub mod bandit;
pub mod dataset;
pub mod hyper;
pub mod linreg;
pub mod optimize;
pub mod parallel;
pub mod password;
pub mod polyreg;
pub mod saddle;
