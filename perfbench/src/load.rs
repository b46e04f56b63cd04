//! Seeded load: every tenant id, op order and generated input of a run
//! comes from the workload seed, and all of it exists before the server
//! (or the library) sees anything.

use selc_serve::Workload;

/// The four workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 2 clients, chain-12 searches over 16 pre-warmed tenants.
    WarmRepeat,
    /// 1 client, `BumpEpoch` then a cold chain-10 search per op.
    ColdRefill,
    /// 2 clients, rounds of one bump and 16 game solves over 4 descriptors.
    GameMix,
    /// No server: library jobs on one caller thread.
    OfflineBatch,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::WarmRepeat, Kind::ColdRefill, Kind::GameMix, Kind::OfflineBatch];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmRepeat => "warm_repeat",
            Kind::ColdRefill => "cold_refill",
            Kind::GameMix => "game_mix",
            Kind::OfflineBatch => "offline_batch",
        }
    }

    /// Closed-loop clients the workload drives (never more than `nproc`).
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Kind::WarmRepeat | Kind::GameMix => nproc.clamp(1, 2),
            Kind::ColdRefill | Kind::OfflineBatch => 1,
        }
    }

    /// Decide-chain length of the workload's chain searches.
    pub fn chain_choices(self) -> u8 {
        match self {
            Kind::ColdRefill => COLD_CHAIN,
            _ => WARM_CHAIN,
        }
    }
}

pub const WARM_CHAIN: u8 = 12;
pub const COLD_CHAIN: u8 = 10;
const CHAIN_TENANTS: usize = 16;
pub const GAME_BRANCHING: u8 = 4;
pub const GAME_DEPTH: u8 = 8;
const GAME_POOL: usize = 64;
const ROUND_DESCRIPTORS: usize = 4;
const SOLVES_PER_DESCRIPTOR: usize = 4;
/// Ops each served client cycles through: more than a 20-second run
/// sends, and still generated in milliseconds.
const SERVED_OPS: usize = 1 << 17;
/// Distinct offline job inputs, and the length of their seeded order.
const OFFLINE_JOBS: usize = 32;
const OFFLINE_ORDER: usize = 1 << 12;
const GRID_RATES: usize = 8;

/// SplitMix64: reproducible from the seed, which is all load needs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn distinct(&mut self, n: usize) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::with_capacity(n);
        while out.len() < n {
            let x = self.next_u64();
            if !out.contains(&x) {
                out.push(x);
            }
        }
        out
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One request a served client sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Search { tenant: u64, workload: Workload },
    Bump { tenant: u64 },
}

/// A served workload's whole load: the set-up warm-up, then each
/// client's measured op sequence (cycled if a run outlasts it).
#[derive(Debug, PartialEq)]
pub struct ServedPlan {
    pub prewarm: Vec<Op>,
    pub clients: Vec<Vec<Op>>,
}

impl ServedPlan {
    /// Every distinct search workload the plan sends (for references):
    /// those of the warm-up, which touches every measured one.
    pub fn workloads(&self) -> Vec<Workload> {
        let mut out: Vec<Workload> = Vec::new();
        for op in &self.prewarm {
            if let Op::Search { workload, .. } = op {
                if !out.contains(workload) {
                    out.push(*workload);
                }
            }
        }
        out
    }
}

pub fn served_plan(kind: Kind, seed: u64, clients: usize) -> ServedPlan {
    let mut rng = Rng::new(seed);
    match kind {
        Kind::WarmRepeat => {
            let chain = Workload::Chain { choices: WARM_CHAIN };
            let tenants = rng.distinct(CHAIN_TENANTS);
            // Each tenant's first search fills its table; the second
            // walks the warm path once before timing.
            let prewarm = tenants
                .iter()
                .flat_map(|&tenant| [Op::Search { tenant, workload: chain }; 2])
                .collect();
            let clients = (0..clients)
                .map(|_| {
                    (0..SERVED_OPS)
                        .map(|_| Op::Search {
                            tenant: tenants[rng.below(tenants.len())],
                            workload: chain,
                        })
                        .collect()
                })
                .collect();
            ServedPlan { prewarm, clients }
        }
        Kind::ColdRefill => {
            let chain = Workload::Chain { choices: COLD_CHAIN };
            let tenants = rng.distinct(CHAIN_TENANTS);
            let prewarm =
                tenants.iter().map(|&tenant| Op::Search { tenant, workload: chain }).collect();
            let clients = (0..clients)
                .map(|_| {
                    (0..SERVED_OPS / 2)
                        .flat_map(|_| {
                            let tenant = tenants[rng.below(tenants.len())];
                            [Op::Bump { tenant }, Op::Search { tenant, workload: chain }]
                        })
                        .collect()
                })
                .collect();
            ServedPlan { prewarm, clients }
        }
        Kind::GameMix => {
            let tenants = rng.distinct(clients);
            let pools: Vec<Vec<Workload>> = (0..clients)
                .map(|_| {
                    rng.distinct(GAME_POOL)
                        .into_iter()
                        .map(|seed| Workload::Game {
                            branching: GAME_BRANCHING,
                            depth: GAME_DEPTH,
                            seed,
                        })
                        .collect()
                })
                .collect();
            let prewarm = tenants
                .iter()
                .zip(&pools)
                .flat_map(|(&tenant, pool)| {
                    pool.iter().map(move |&workload| Op::Search { tenant, workload })
                })
                .collect();
            let rounds = SERVED_OPS / (1 + ROUND_DESCRIPTORS * SOLVES_PER_DESCRIPTOR);
            let clients = tenants
                .iter()
                .zip(&pools)
                .map(|(&tenant, pool)| {
                    let mut ops = Vec::new();
                    for _ in 0..rounds {
                        ops.push(Op::Bump { tenant });
                        let mut picks: Vec<usize> = (0..pool.len()).collect();
                        rng.shuffle(&mut picks);
                        let mut solves: Vec<Workload> = picks[..ROUND_DESCRIPTORS]
                            .iter()
                            .flat_map(|&d| [pool[d]; SOLVES_PER_DESCRIPTOR])
                            .collect();
                        rng.shuffle(&mut solves);
                        ops.extend(
                            solves.into_iter().map(|workload| Op::Search { tenant, workload }),
                        );
                    }
                    ops
                })
                .collect();
            ServedPlan { prewarm, clients }
        }
        Kind::OfflineBatch => panic!("offline_batch has no served plan"),
    }
}

/// One offline job's generated inputs.
#[derive(Debug, PartialEq)]
pub struct JobInput {
    pub game_seed: u64,
    pub table_seed: u64,
    pub data_seed: u64,
    /// Learning rates; the upper end diverges, so pruning has work.
    pub grid: Vec<f64>,
}

#[derive(Debug, PartialEq)]
pub struct OfflinePlan {
    pub jobs: Vec<JobInput>,
    /// Seeded job order, cycled by the caller thread.
    pub order: Vec<usize>,
}

pub fn offline_plan(seed: u64) -> OfflinePlan {
    let mut rng = Rng::new(seed);
    let jobs = (0..OFFLINE_JOBS)
        .map(|_| JobInput {
            game_seed: rng.next_u64(),
            table_seed: rng.next_u64(),
            data_seed: rng.next_u64(),
            grid: (0..GRID_RATES).map(|_| 0.005 + 0.4 * rng.unit()).collect(),
        })
        .collect();
    let order = (0..OFFLINE_ORDER).map(|_| rng.below(OFFLINE_JOBS)).collect();
    OfflinePlan { jobs, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_the_same_ops_twice_and_two_seeds_differ() {
        for kind in [Kind::WarmRepeat, Kind::ColdRefill, Kind::GameMix] {
            let clients = kind.clients(2);
            assert_eq!(served_plan(kind, 7, clients), served_plan(kind, 7, clients), "{kind:?}");
            assert_ne!(served_plan(kind, 7, clients), served_plan(kind, 8, clients), "{kind:?}");
        }
        assert_eq!(offline_plan(7), offline_plan(7));
        assert_ne!(offline_plan(7), offline_plan(8));
    }

    #[test]
    fn every_measured_search_is_warmed_up_so_it_has_a_reference() {
        for kind in [Kind::WarmRepeat, Kind::ColdRefill, Kind::GameMix] {
            let plan = served_plan(kind, 11, kind.clients(2));
            let warmed = plan.workloads();
            for op in plan.clients.iter().flatten() {
                if let Op::Search { workload, .. } = op {
                    assert!(warmed.contains(workload), "{kind:?}: {workload:?}");
                }
            }
        }
    }

    #[test]
    fn game_rounds_bump_then_solve_each_of_four_descriptors_four_times() {
        let plan = served_plan(Kind::GameMix, 3, 2);
        assert_eq!(plan.prewarm.len(), 2 * 64);
        let round = &plan.clients[0][..17];
        assert!(matches!(round[0], Op::Bump { .. }));
        let mut distinct: Vec<Workload> = Vec::new();
        for op in &round[1..] {
            let Op::Search { workload, .. } = op else { panic!("16 solves follow the bump") };
            if !distinct.contains(workload) {
                distinct.push(*workload);
            }
        }
        assert_eq!(distinct.len(), 4);
    }
}
