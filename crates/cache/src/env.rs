//! Cache configuration knobs — and the one env parser the workspace
//! shares.
//!
//! One variable governs every cached entry point that does not take an
//! explicit cache, exactly as `SELC_THREADS` governs every pool:
//! `SELC_CACHE_CAP`, the total entry capacity. Unset, unparsable, or `0`
//! means unbounded; any positive value selects the bounded CLOCK store
//! (CI pins a tiny cap to force eviction through the differential
//! suites). Environment-built caches always have [`DEFAULT_SHARDS`]
//! shards.
//!
//! [`env_usize`] is the shared parsing helper: `selc-engine`'s
//! `configured_threads` (via the `selc::env` re-export), the knob
//! above, and `selc-serve`'s `SELC_SERVE_{PORT,WORKERS,MAX_SESSIONS}`
//! all go through it, so "positive integer, trimmed, anything else is
//! as-if-unset" is decided in exactly one place. The serve knob *names*
//! live here too ([`SERVE_PORT_ENV`] and friends) so every `SELC_*`
//! variable the workspace reads is greppable from one module; their
//! defaults are the serve crate's business.

/// Names of the observability knobs — owned by `selc_obs` (the one
/// crate below this one), re-exported here so every `SELC_*` variable
/// the workspace reads stays greppable from this module: `SELC_METRICS`
/// toggles metric recording, `SELC_TRACE=<path>` enables span tracing
/// and names the chrome://tracing flush target.
pub use selc_obs::{METRICS_ENV, TRACE_ENV};

/// Name of the capacity variable.
pub const CACHE_CAP_ENV: &str = "SELC_CACHE_CAP";

/// Name of the `selc-serve` listen-port variable.
pub const SERVE_PORT_ENV: &str = "SELC_SERVE_PORT";

/// Name of the `selc-serve` concurrent-search (search-slot) variable.
pub const SERVE_WORKERS_ENV: &str = "SELC_SERVE_WORKERS";

/// Name of the `selc-serve` admission-limit variable.
pub const SERVE_MAX_SESSIONS_ENV: &str = "SELC_SERVE_MAX_SESSIONS";

/// Shard count of environment-built caches: enough to keep a handful of
/// workers from serialising, small enough to stay cheap to merge stats
/// over.
pub const DEFAULT_SHARDS: usize = 16;

/// Parses environment variable `name` as a **positive** `usize`.
/// Returns `None` when the variable is unset, empty, zero, or not a
/// (trimmed) integer — for every `SELC_*` knob, "not a positive count"
/// means "as if unset", and this helper is the one place that rule
/// lives.
#[must_use]
pub fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse::<usize>().ok().filter(|n| *n >= 1)
}

/// Total capacity for environment-built caches: `Some(n)` when
/// `SELC_CACHE_CAP` is set to a positive integer, `None` (unbounded)
/// otherwise — including an explicit `0`.
#[must_use]
pub fn configured_capacity() -> Option<usize> {
    env_usize(CACHE_CAP_ENV)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-environment mutation lives in tests/env_knobs.rs (its own
    // test binary, so it cannot race other tests); here only the pure
    // parsing contract via unset/garbage-free defaults.
    #[test]
    fn unset_variable_parses_to_none() {
        assert_eq!(env_usize("SELC_CACHE_TEST_SURELY_UNSET"), None);
    }
}
