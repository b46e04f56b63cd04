//! Subtree summaries: interior-node cache entries for tree search.
//!
//! A leaf transposition entry remembers what one *candidate* evaluated
//! to; a [`SubtreeSummary`] remembers what a whole *subtree* reduced to —
//! the argmin `(loss, representative leaf index)` of every candidate
//! under one decision prefix. A warm repeat of a tree search that finds
//! a summary at an interior node skips the entire subtree in O(1)
//! instead of re-walking its leaves, which is what turns warm repeats
//! into O(depth) walks.
//!
//! # Exact vs. bound entries
//!
//! The `exact` flag carries the soundness story for summaries produced
//! under branch-and-bound pruning:
//!
//! * `exact == true` — the subtree was **fully evaluated** (no pruning
//!   cut any part of it). `loss`/`index` are its true argmin under the
//!   deterministic `(loss, index)` reduction, ties to the smallest
//!   index, and a probe may return them as the subtree's answer.
//! * `exact == false` — pruning cut the subtree, so its visited minimum
//!   may overstate the true argmin of the *skipped* parts. `loss` is
//!   then only a **lower bound** on every candidate beneath the prefix
//!   (the min of the visited leaves and the skipped subtrees' own lower
//!   bounds). A probe must never return it as an answer, but it is a
//!   sound pruning hint: if the stored bound is strictly dominated by an
//!   achieved loss, no candidate in the subtree can win or tie, and the
//!   whole subtree may be skipped — the same strict-domination condition
//!   as the engine's `SharedBound`.
//!
//! The same exact/bound split is the minimax transposition-flag story
//! (Exact / Lower / Upper bound entries) `selc-games` uses for its
//! alpha–beta table; summaries are its argmin specialisation.
//!
//! [`SummaryStats`] counts summary traffic by kind, which the table-level
//! [`crate::CacheStats`] cannot: an exact hit answers a whole subtree, a
//! bound hit can at most re-justify a cut, and benchmarks need to see
//! the difference.

/// The cached reduction of one decision-prefix subtree. `L` is the loss
/// type; `index` is the flat candidate index of the subtree's winner
/// under the engine's canonical (smallest representative) crediting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubtreeSummary<L> {
    /// The subtree's argmin loss (`exact`), or a lower bound on every
    /// candidate beneath the prefix (`!exact`).
    pub loss: L,
    /// Flat index of the best *visited* leaf (the winner when `exact`;
    /// informational for bound entries).
    pub index: u64,
    /// Whether the subtree was fully evaluated when the entry was
    /// installed (see module docs).
    pub exact: bool,
}

impl<L> SubtreeSummary<L> {
    /// An exact entry: the subtree's true argmin.
    pub fn exact(loss: L, index: u64) -> SubtreeSummary<L> {
        SubtreeSummary { loss, index, exact: true }
    }

    /// A bound entry: a lower bound on every candidate beneath the
    /// prefix, with the best visited index as a hint.
    pub fn bound(loss: L, index: u64) -> SubtreeSummary<L> {
        SubtreeSummary { loss, index, exact: false }
    }
}

/// Counters describing what a search's summary probes and installs did.
/// Mergeable per worker and per search, like [`crate::CacheStats`], and
/// carried next to it in `selc-engine`'s `SearchStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Interior-node probes answered by an exact entry (a whole subtree
    /// skipped with its argmin returned).
    pub exact_hits: u64,
    /// Probes answered by a bound entry (usable as a pruning hint only).
    pub bound_hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Exact entries installed on the way back up.
    pub exact_installs: u64,
    /// Bound entries installed for pruned subtrees.
    pub bound_installs: u64,
}

impl SummaryStats {
    /// Component-wise sum, for aggregating workers or searches.
    #[must_use]
    pub fn merged(&self, other: &SummaryStats) -> SummaryStats {
        SummaryStats {
            exact_hits: self.exact_hits + other.exact_hits,
            bound_hits: self.bound_hits + other.bound_hits,
            misses: self.misses + other.misses,
            exact_installs: self.exact_installs + other.exact_installs,
            bound_installs: self.bound_installs + other.bound_installs,
        }
    }

    /// Total probes (hits of either flavour + misses).
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.exact_hits + self.bound_hits + self.misses
    }

    /// Total installs (exact + bound).
    #[must_use]
    pub fn installs(&self) -> u64 {
        self.exact_installs + self.bound_installs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_the_flag() {
        assert!(SubtreeSummary::exact(1.5, 4).exact);
        assert!(!SubtreeSummary::bound(1.5, 4).exact);
        assert_eq!(SubtreeSummary::exact(2.0, 7).index, 7);
    }

    #[test]
    fn stats_merge_componentwise() {
        let a = SummaryStats {
            exact_hits: 1,
            bound_hits: 2,
            misses: 3,
            exact_installs: 4,
            bound_installs: 5,
        };
        let b = SummaryStats {
            exact_hits: 10,
            bound_hits: 20,
            misses: 30,
            exact_installs: 40,
            bound_installs: 50,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            SummaryStats {
                exact_hits: 11,
                bound_hits: 22,
                misses: 33,
                exact_installs: 44,
                bound_installs: 55,
            }
        );
        assert_eq!(a.merged(&SummaryStats::default()), a);
        assert_eq!(m.probes(), 11 + 22 + 33);
        assert_eq!(m.installs(), 44 + 55);
    }
}
