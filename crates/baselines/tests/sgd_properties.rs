//! Property-based tests on the SGD substrate.

use cumf_baselines::sgd::{blocked_epoch, hogwild_epoch, SgdConfig, SgdModel};
use cumf_datasets::DatasetProfile;
use cumf_numeric::stats::XorShift64;
use cumf_sparse::blocking::BlockGrid;
use cumf_sparse::coo::CooMatrix;
use proptest::prelude::*;

fn random_data(m: usize, n: usize, nz: usize, seed: u64) -> CooMatrix {
    let mut rng = XorShift64::new(seed);
    let mut coo = CooMatrix::new(m, n);
    for _ in 0..nz {
        coo.push(
            rng.next_below(m) as u32,
            rng.next_below(n) as u32,
            2.0 + rng.next_f32() * 2.0,
        );
    }
    coo
}

fn train_sse(data: &CooMatrix, model: &SgdModel) -> f64 {
    data.entries()
        .iter()
        .map(|e| {
            let p = cumf_numeric::dense::dot(
                model.x.row(e.row as usize),
                model.theta.row(e.col as usize),
            );
            ((p - e.value) as f64).powi(2)
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A blocked epoch with any grid size performs every update exactly
    /// once: the resulting model is independent of the grid only up to
    /// update order, but the training SSE must drop for all grids.
    #[test]
    fn blocked_epoch_improves_fit_for_any_grid(grid in 1usize..7, seed in 0u64..500) {
        let data = random_data(60, 40, 600, seed);
        let config = SgdConfig { grid, f: 6, ..SgdConfig::new(6, 0.02) };
        let bg = BlockGrid::partition(&data, grid);
        let mut model = SgdModel::init(60, 40, &config, 3.0);
        let before = train_sse(&data, &model);
        for k in 0..4 {
            blocked_epoch(&bg, &mut model, &config, k);
        }
        let after = train_sse(&data, &model);
        prop_assert!(after < before, "grid {}: SSE {} → {}", grid, before, after);
    }

    /// Hogwild and blocked epochs reach similar quality from the same init.
    #[test]
    fn hogwild_matches_blocked_quality(seed in 0u64..500) {
        let data = random_data(80, 50, 900, seed);
        let config = SgdConfig { f: 6, grid: 4, ..SgdConfig::new(6, 0.02) };
        let bg = BlockGrid::partition(&data, config.grid);
        let mut blocked = SgdModel::init(80, 50, &config, 3.0);
        let mut hog = SgdModel::init(80, 50, &config, 3.0);
        for k in 0..8 {
            blocked_epoch(&bg, &mut blocked, &config, k);
            hogwild_epoch(&data, &mut hog, &config, k);
        }
        let sb = (train_sse(&data, &blocked) / data.nnz() as f64).sqrt();
        let sh = (train_sse(&data, &hog) / data.nnz() as f64).sqrt();
        prop_assert!((sb - sh).abs() < 0.25, "blocked {} vs hogwild {}", sb, sh);
    }

    /// Factors stay finite under the profile-tuned learning rates for every
    /// benchmark value scale.
    #[test]
    fn profile_tuned_rates_are_stable(seed in 0u64..200) {
        for profile in DatasetProfile::table2() {
            let config = SgdConfig { grid: 4, ..SgdConfig::for_profile(6, &profile) };
            let mut rng = XorShift64::new(seed | 1);
            let mut data = CooMatrix::new(50, 30);
            for _ in 0..400 {
                let v = profile.value_mean + (rng.next_f32() - 0.5) * profile.value_mean;
                data.push(rng.next_below(50) as u32, rng.next_below(30) as u32, v);
            }
            let bg = BlockGrid::partition(&data, config.grid);
            let mut model = SgdModel::init(50, 30, &config, profile.value_mean);
            for k in 0..6 {
                blocked_epoch(&bg, &mut model, &config, k);
            }
            prop_assert!(
                model.x.as_slice().iter().all(|v| v.is_finite()),
                "{} diverged",
                profile.name
            );
        }
    }

    /// Zero learning rate leaves the model bitwise unchanged.
    #[test]
    fn zero_lr_is_identity(seed in 0u64..500) {
        let data = random_data(30, 20, 200, seed);
        let config = SgdConfig { lr0: 0.0, f: 4, grid: 3, ..SgdConfig::new(4, 0.1) };
        let bg = BlockGrid::partition(&data, config.grid);
        let mut model = SgdModel::init(30, 20, &config, 3.0);
        let snapshot = model.x.as_slice().to_vec();
        blocked_epoch(&bg, &mut model, &config, 0);
        prop_assert_eq!(model.x.as_slice(), &snapshot[..]);
    }
}

/// At `grid = 1` the blocked epoch's one block holds the entries in COO
/// order (`BlockGrid::partition` is a stable counting sort), which is the
/// Hogwild epoch's order: the two epochs must agree bit for bit, at any
/// factor width.
#[test]
fn hogwild_equals_blocked_at_grid_one() {
    for f in [6usize, 520] {
        let data = random_data(40, 30, 500, 7 + f as u64);
        let config = SgdConfig {
            f,
            grid: 1,
            ..SgdConfig::new(f, 0.02)
        };
        let bg = BlockGrid::partition(&data, 1);
        let mut blocked = SgdModel::init(40, 30, &config, 3.0);
        let mut hog = SgdModel::init(40, 30, &config, 3.0);
        for k in 0..3 {
            blocked_epoch(&bg, &mut blocked, &config, k);
            hogwild_epoch(&data, &mut hog, &config, k);
        }
        let bits = |m: &cumf_numeric::dense::DenseMatrix| -> Vec<u32> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&blocked.x), bits(&hog.x), "f = {f}: X");
        assert_eq!(bits(&blocked.theta), bits(&hog.theta), "f = {f}: Θ");
        assert!(hog.x.as_slice().iter().all(|v| v.is_finite()), "f = {f}");
    }
}
