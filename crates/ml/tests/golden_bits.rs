//! Bit-identity of handler SGD across changes to the runtime: final
//! `(w, b)` of `train_handler_sgd` and the `(alpha, err)` winners of
//! `tune_training_run`, compared by `to_bits()` against values recorded
//! from the runtime before its allocation-lean rewrite. Any change to the
//! order or operands of a loss `combine` or a finite-difference probe
//! shows up here as a flipped bit. The tuning cases also pin how many
//! runs one pruning worker trains and abandons, so a change to the
//! engine's pruning decisions shows up even when the winner survives it.

use rand::{Rng, SeedableRng};
use selc_engine::Engine;
use selc_ml::dataset::Dataset;
use selc_ml::linreg::train_handler_sgd;
use selc_ml::parallel::tune_training_run;

fn datasets() -> [Dataset; 3] {
    [
        Dataset::linear(24, 2.0, -1.0, 0.1, 7),
        Dataset::linear(16, -0.5, 3.0, 0.0, 11),
        Dataset::linear(32, 1.5, 0.5, 0.3, 5),
    ]
}

/// `(dataset, rate, w bits, b bits)` after 2 epochs from `(0, 0)`.
const SGD: [(usize, f64, u64, u64); 9] = [
    (0, 0.01, 0x3ff9_0378_7c44_1ccb, 0xbfea_5ce7_b51a_95ab),
    (0, 0.05, 0x3fff_feb5_3440_b4ca, 0xbfef_19e6_f83e_c5c1),
    (0, 0.2, 0x3fff_ff8c_0929_6f76, 0xbfed_1b8f_a779_e391),
    (1, 0.01, 0xbfb2_5510_a0cb_2330, 0x3ff6_3ea5_01cb_2213),
    (1, 0.05, 0xbfdc_8d38_63aa_dd11, 0x4007_161e_df3b_09f1),
    (1, 0.2, 0xbfe0_005e_0156_60f3, 0x4007_fffa_f371_0fc2),
    (2, 0.01, 0x3ff2_f839_1029_7328, 0x3fd8_ab9b_3b38_71bf),
    (2, 0.05, 0x3ff8_136c_36b0_ed7f, 0x3fdd_6076_56fe_a275),
    (2, 0.2, 0x3ff7_7467_050c_94f6, 0x3fe4_3e0e_815f_2222),
];

#[test]
fn handler_sgd_trajectories_are_bit_identical() {
    let sets = datasets();
    for (set, lr, w_bits, b_bits) in SGD {
        let (w, b) = train_handler_sgd(&sets[set], (0.0, 0.0), lr, 2);
        assert_eq!((w.to_bits(), b.to_bits()), (w_bits, b_bits), "dataset {set}, rate {lr}");
    }
}

#[test]
fn diverging_handler_sgd_is_bit_identical() {
    // Rate 1.5 overshoots on every step: |w| reaches ~1e23 in 2 epochs.
    let (w, b) = train_handler_sgd(&datasets()[0], (0.0, 0.0), 1.5, 2);
    assert_eq!((w.to_bits(), b.to_bits()), (0xc4be_caa4_8ec6_1850, 0x44aa_b56b_1234_4afc));
}

/// `(seed, alpha bits, err bits, evaluated, pruned)`: an 8-rate grid
/// drawn from `seed`, tuned over 2 epochs of 24 points drawn from the
/// same seed. The last two are the pruning decisions of one pruning
/// worker, which scans the grid in index order: runs trained to the end,
/// and runs abandoned once their running loss was strictly dominated.
const TUNE: [(u64, u64, u64, u64, u64); 4] = [
    (1, 0x3fbf_28a6_3599_41d5, 0x4000_2513_a1a5_6e60, 3, 5),
    (2, 0x3fc4_cd46_2488_7e5e, 0x3ffc_94e9_dae2_d3e2, 1, 7),
    (3, 0x3fc7_af0d_927f_9e98, 0x4001_2aeb_271b_cbc0, 2, 6),
    (4, 0x3fc2_6922_ede4_7b51, 0x4001_f028_9700_4e14, 3, 5),
];

#[test]
fn training_run_tuning_is_bit_identical() {
    for (seed, alpha_bits, err_bits, evaluated, pruned) in TUNE {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let grid: Vec<f64> = (0..8).map(|_| 0.005 + 0.4 * rng.gen::<f64>()).collect();
        let data = Dataset::linear(24, 2.0, -1.0, 0.1, seed);
        for engine in [Engine::exhaustive(), Engine::with_threads(1), Engine::with_threads(2)] {
            let out = tune_training_run(&engine, grid.clone(), &data, (0.0, 0.0), 2);
            assert_eq!(
                (out.alpha.to_bits(), out.err.to_bits()),
                (alpha_bits, err_bits),
                "seed {seed} {engine:?}"
            );
        }
        let out = tune_training_run(&Engine::with_threads(1), grid, &data, (0.0, 0.0), 2);
        assert_eq!((out.stats.evaluated, out.stats.pruned), (evaluated, pruned), "seed {seed}");
    }
}
