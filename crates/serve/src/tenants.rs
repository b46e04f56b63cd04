//! Per-tenant warm state: the whole reason the server is long-lived.
//!
//! A [`Tenant`] owns the caches its searches warm — a `lambda-rt`
//! transposition table for compiled chains and one flagged alpha-beta
//! table per game descriptor — plus the [`LcCandidates`] handles those
//! caches are keyed under. The handles matter as much as the tables:
//! an `LcCandidates` space identity is part of every transposition key,
//! so a *fresh* handle per request would never hit the previous
//! request's entries. Keeping the handle in the tenant is what turns
//! "same tenant, same workload, again" into subtree-summary hits
//! instead of recomputation.
//!
//! Sharing across a tenant's concurrent sessions is sound for the same
//! reason the engine's `SharedBound` is: programs are immutable and
//! evaluation pure, so a loss achieved by one session's search is
//! achieved, full stop — caches only short-circuit recomputation of
//! values the other session would have computed bit-identically.
//!
//! Isolation is by construction: tenants never share a cache object,
//! so [`Tenants::bump`] (the management request) retires exactly one
//! tenant's entries — the invalidation the epoch mechanism was built
//! for — and cannot cool a neighbour.

use crate::server::lock_clean;
use lambda_c::testgen::deep_decide_chain;
use lambda_rt::{LcCandidates, LcTransCache};
use selc_games::alternating::{AbCache, GameTree};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One tenant's warm state.
pub struct Tenant {
    /// Decision-prefix transposition table shared by all of this
    /// tenant's chain searches (configured from the `SELC_CACHE_*`
    /// knobs, like every environment-built cache).
    pub lc: LcTransCache,
    /// One candidates handle per chain length, so repeat requests keep
    /// the space identity (and with it, their cache keys).
    chains: Mutex<HashMap<u8, LcCandidates>>,
    /// One tree + alpha-beta table per `(branching, depth, seed)`.
    games: Mutex<HashMap<(u8, u8, u64), GameEntry>>,
}

/// A game workload's solved-position state.
#[derive(Clone)]
pub struct GameEntry {
    /// The (deterministically generated) tree itself.
    pub tree: Arc<GameTree>,
    /// Its flagged transposition table; node keys (breadth-first
    /// positions) carry no tree identity, hence one table *per
    /// descriptor*, never shared. Once a solve completes it holds one
    /// entry, the resolved root that answers every repeat until the
    /// next bump; a timed-out solve leaves the subtrees it completed,
    /// which the next solve of the descriptor resumes from.
    pub cache: Arc<AbCache>,
}

impl Tenant {
    fn new() -> Tenant {
        Tenant {
            lc: LcTransCache::from_env(),
            chains: Mutex::new(HashMap::new()),
            games: Mutex::new(HashMap::new()),
        }
    }

    /// The tenant's candidates handle for a `choices`-deep decide
    /// chain, compiled on first use.
    pub fn chain(&self, choices: u8) -> LcCandidates {
        let mut chains = lock_clean(&self.chains);
        chains
            .entry(choices)
            .or_insert_with(|| {
                let p = deep_decide_chain(u32::from(choices));
                // Compiling our own generated chain cannot fail on
                // client input — a failure is a workspace bug worth a
                // crash, not a survivable request error.
                // selc-lint: allow(serve-no-panic)
                let compiled = lambda_c::compile(&p.expr).expect("testgen chains compile");
                LcCandidates::new(compiled, ["decide".to_owned()], u32::from(choices))
            })
            .clone()
    }

    /// The tenant's tree and table for a game descriptor, generated on
    /// first use.
    pub fn game(&self, branching: u8, depth: u8, seed: u64) -> GameEntry {
        let mut games = lock_clean(&self.games);
        games
            .entry((branching, depth, seed))
            .or_insert_with(|| GameEntry {
                tree: Arc::new(GameTree::random(branching as usize, depth as usize, seed)),
                cache: Arc::new(AbCache::from_env()),
            })
            .clone()
    }

    /// Retires every cached entry this tenant has: the chain table and
    /// all game tables advance their epochs. Returns the chain table's
    /// new epoch (the value acknowledged on the wire).
    pub fn bump(&self) -> u64 {
        let epoch = self.lc.advance_epoch();
        let games = lock_clean(&self.games);
        for entry in games.values() {
            entry.cache.advance_epoch();
        }
        epoch
    }
}

/// The registry: tenant id → warm state, created on first contact.
#[derive(Default)]
pub struct Tenants {
    map: Mutex<HashMap<u64, Arc<Tenant>>>,
}

impl Tenants {
    /// Looks up (or creates) a tenant.
    pub fn get_or_create(&self, id: u64) -> Arc<Tenant> {
        let mut map = lock_clean(&self.map);
        Arc::clone(map.entry(id).or_insert_with(|| Arc::new(Tenant::new())))
    }

    /// Bumps one tenant's epoch (creating it if unseen, so the ack is
    /// well-defined); every other tenant's warmth is untouched.
    pub fn bump(&self, id: u64) -> u64 {
        self.get_or_create(id).bump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_handles_are_stable_per_tenant_so_cache_keys_match() {
        let tenants = Tenants::default();
        let t = tenants.get_or_create(1);
        let a = t.chain(6);
        let b = t.chain(6);
        // Same space identity ⇒ same transposition keys and one shared
        // bound: warm repeats only work because the handle is reused.
        assert_eq!(a.space(), 64);
        assert_eq!(a.id(), b.id());
        let other = tenants.get_or_create(2).chain(6);
        assert_eq!(other.space(), 64);
        assert_ne!(other.id(), a.id(), "another tenant, another space");
    }

    #[test]
    fn bump_retires_exactly_one_tenants_entries() {
        let tenants = Tenants::default();
        let a = tenants.get_or_create(1);
        let b = tenants.get_or_create(2);
        let (a0, b0) = (a.lc.epoch(), b.lc.epoch());
        let game = a.game(2, 3, 9);
        let g0 = game.cache.epoch();
        let acked = tenants.bump(1);
        assert_eq!(acked, a0 + 1);
        assert_eq!(a.lc.epoch(), a0 + 1, "bumped tenant's chain table advanced");
        assert_eq!(game.cache.epoch(), g0 + 1, "bumped tenant's game tables advanced");
        assert_eq!(b.lc.epoch(), b0, "neighbour untouched");
    }

    #[test]
    fn game_entries_are_per_descriptor() {
        let tenants = Tenants::default();
        let t = tenants.get_or_create(5);
        let x = t.game(2, 3, 1);
        let y = t.game(2, 3, 1);
        let z = t.game(2, 3, 2);
        assert!(Arc::ptr_eq(&x.tree, &y.tree), "same descriptor, same entry");
        assert!(!Arc::ptr_eq(&x.tree, &z.tree), "different seed, different entry");
        assert_eq!(x.tree.leaves.len(), 8);
    }
}
