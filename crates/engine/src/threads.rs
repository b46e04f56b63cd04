//! Worker-count configuration: the `SELC_THREADS` knob.
//!
//! Every tree walk that does not pin a worker count is sized with
//! [`configured_threads`] (a walk with `N` workers borrows `N − 1`
//! parked helpers of the engine's one persistent pool), so one
//! environment variable makes runs reproducible on any machine (CI pins
//! `SELC_THREADS=2`). Unset or
//! unparsable values fall back to [`std::thread::available_parallelism`].
//! Parsing goes through the workspace's one env parser
//! ([`selc::env::env_usize`]), shared with the `SELC_CACHE_CAP` cache
//! knob.

/// Name of the environment variable consulted by [`configured_threads`].
pub const THREADS_ENV: &str = "SELC_THREADS";

/// Number of workers a parallel search should use when the caller did not
/// pin one: `SELC_THREADS` if set to a positive integer, else the
/// machine's available parallelism, else 1.
pub fn configured_threads() -> usize {
    selc::env::env_usize(THREADS_ENV).unwrap_or_else(hardware_threads)
}

/// The fallback default: what the OS reports, clamped to at least 1.
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_default_is_positive() {
        assert!(hardware_threads() >= 1);
    }
}
