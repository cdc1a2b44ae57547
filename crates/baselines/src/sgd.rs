//! The shared SGD substrate: blocked epochs and Hogwild epochs, used by
//! the LIBMF, NOMAD and GPU-SGD wrappers.
//!
//! The SGD update for one observation `r_uv` (equation (5)):
//!
//! ```text
//! e    = r_uv − x_uᵀθ_v
//! x_u += α (e·θ_v − λ·x_u)
//! θ_v += α (e·x_u − λ·θ_v)
//! ```
//!
//! Two observations conflict iff they share a row or a column, which yields
//! the two classic parallelization schemes (§VI-A): **blocking** (grid the
//! matrix; blocks on a generalized diagonal are conflict-free) and
//! **Hogwild** (update racily and rely on sparsity). Both epochs run on the
//! calling thread, in their schedule's update order: the comparison between
//! the schemes is algorithmic, and `gpu-sim` prices the parallel schedule
//! each wrapper's timing model assumes.

use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::stats::XorShift64;
use cumf_sparse::blocking::BlockGrid;
use cumf_sparse::coo::CooMatrix;

/// SGD hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct SgdConfig {
    /// Latent dimension.
    pub f: usize,
    /// L2 regularization λ.
    pub lambda: f32,
    /// Initial learning rate α₀.
    pub lr0: f32,
    /// Decay: α_k = α₀ / (1 + decay·k) per epoch k (the bold-driver-free
    /// schedule LIBMF's learning-rate paper \[3\] reduces to).
    pub decay: f32,
    /// Block-grid dimension for the blocking scheme (≥ worker count).
    pub grid: usize,
    /// Seed for factor init and shuffles.
    pub seed: u64,
}

impl SgdConfig {
    /// Reasonable defaults at dimension `f` for 1–5-star rating data.
    pub fn new(f: usize, lambda: f32) -> SgdConfig {
        SgdConfig {
            f,
            lambda,
            lr0: 0.05,
            decay: 0.3,
            grid: 8,
            seed: 17,
        }
    }

    /// Benchmark-tuned configuration for a dataset profile: λ from
    /// Table II, and the learning rate scaled inversely with the value
    /// magnitude (SGD's gradient scale grows with the rating scale, so a
    /// 1–100-range dataset needs a ~25× smaller step than a 1–5 one).
    pub fn for_profile(f: usize, profile: &cumf_datasets::DatasetProfile) -> SgdConfig {
        let lr0 = 0.029 / profile.value_mean.max(0.1);
        SgdConfig {
            f,
            lambda: profile.lambda,
            lr0,
            decay: 0.35,
            grid: 8,
            seed: 17,
        }
    }

    /// Learning rate at epoch `k` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.lr0 / (1.0 + self.decay * epoch as f32)
    }
}

/// Mutable SGD state: the two factor matrices.
pub struct SgdModel {
    /// Row factors, `m × f`.
    pub x: DenseMatrix,
    /// Column factors, `n × f`.
    pub theta: DenseMatrix,
}

impl SgdModel {
    /// Initialize factors so `x·θ` starts near `value_mean`.
    pub fn init(m: usize, n: usize, config: &SgdConfig, value_mean: f32) -> SgdModel {
        let f = config.f;
        let mut rng = XorShift64::new(config.seed);
        let center = (value_mean.max(0.01) / f as f32).sqrt();
        let mut x = DenseMatrix::zeros(m, f);
        let mut theta = DenseMatrix::zeros(n, f);
        x.fill_with(|| center + (rng.next_f32() - 0.5) * center * 0.5);
        theta.fill_with(|| center + (rng.next_f32() - 0.5) * center * 0.5);
        SgdModel { x, theta }
    }
}

/// Apply the SGD update for one entry to raw factor slices.
#[inline]
fn update_one(x: &mut [f32], theta: &mut [f32], r: f32, lr: f32, lambda: f32) {
    let mut e = r;
    for i in 0..x.len() {
        e -= x[i] * theta[i];
    }
    for i in 0..x.len() {
        let xi = x[i];
        let ti = theta[i];
        x[i] = xi + lr * (e * ti - lambda * xi);
        theta[i] = ti + lr * (e * xi - lambda * ti);
    }
}

/// One **blocked** epoch: the grid's `gb` waves in sequence, the `gb`
/// blocks of each wave in wave order, each block's entries in order.
/// Within a wave, block `(i, c_i)` owns row range `i` and column range
/// `c_i` exclusively, so LIBMF could give each block to its own worker;
/// here they run one after another.
pub fn blocked_epoch(grid: &BlockGrid, model: &mut SgdModel, config: &SgdConfig, epoch: usize) {
    let lr = config.lr_at(epoch);
    for w in 0..grid.grid() {
        for (br, bc) in grid.wave(w) {
            for e in grid.block(br, bc) {
                update_one(
                    model.x.row_mut(e.row as usize),
                    model.theta.row_mut(e.col as usize),
                    e.value,
                    lr,
                    config.lambda,
                );
            }
        }
    }
}

/// One **Hogwild** epoch: every entry in COO order, with no blocking —
/// the lock-free scheme of \[22\], whose workers would update racily and
/// rely on sparsity to keep conflicts rare.
pub fn hogwild_epoch(data: &CooMatrix, model: &mut SgdModel, config: &SgdConfig, epoch: usize) {
    let lr = config.lr_at(epoch);
    for e in data.entries() {
        update_one(
            model.x.row_mut(e.row as usize),
            model.theta.row_mut(e.col as usize),
            e.value,
            lr,
            config.lambda,
        );
    }
}

/// Test RMSE of an SGD model.
pub fn sgd_test_rmse(model: &SgdModel, test: &CooMatrix) -> f64 {
    cumf_als::metrics::test_rmse(&model.x, &model.theta, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_datasets::{MfDataset, SizeClass};

    fn setup() -> (MfDataset, SgdConfig) {
        let data = MfDataset::netflix(SizeClass::Tiny, 21);
        let config = SgdConfig {
            f: 8,
            ..SgdConfig::new(8, 0.05)
        };
        (data, config)
    }

    #[test]
    fn blocked_sgd_reduces_rmse() {
        let (data, config) = setup();
        let grid = BlockGrid::partition(&data.train_coo, config.grid);
        let mut model = SgdModel::init(data.m(), data.n(), &config, 3.6);
        let before = sgd_test_rmse(&model, &data.test);
        for k in 0..15 {
            blocked_epoch(&grid, &mut model, &config, k);
        }
        let after = sgd_test_rmse(&model, &data.test);
        assert!(after < before, "RMSE {before} → {after}");
        assert!(after < 1.15, "blocked SGD should fit: {after}");
    }

    #[test]
    fn hogwild_sgd_reduces_rmse() {
        let (data, config) = setup();
        let mut model = SgdModel::init(data.m(), data.n(), &config, 3.6);
        let before = sgd_test_rmse(&model, &data.test);
        for k in 0..15 {
            hogwild_epoch(&data.train_coo, &mut model, &config, k);
        }
        let after = sgd_test_rmse(&model, &data.test);
        assert!(after < before);
        assert!(
            after < 1.2,
            "hogwild should converge despite races: {after}"
        );
    }

    #[test]
    fn blocked_and_hogwild_reach_similar_quality() {
        let (data, config) = setup();
        let grid = BlockGrid::partition(&data.train_coo, config.grid);
        let mut blocked = SgdModel::init(data.m(), data.n(), &config, 3.6);
        let mut hog = SgdModel::init(data.m(), data.n(), &config, 3.6);
        for k in 0..20 {
            blocked_epoch(&grid, &mut blocked, &config, k);
            hogwild_epoch(&data.train_coo, &mut hog, &config, k);
        }
        let rb = sgd_test_rmse(&blocked, &data.test);
        let rh = sgd_test_rmse(&hog, &data.test);
        assert!((rb - rh).abs() < 0.1, "blocked {rb} vs hogwild {rh}");
    }

    #[test]
    fn learning_rate_decays() {
        let c = SgdConfig::new(16, 0.05);
        assert!(c.lr_at(0) > c.lr_at(5));
        assert_eq!(c.lr_at(0), c.lr0);
    }

    #[test]
    fn single_update_moves_toward_observation() {
        let mut x = vec![0.5f32; 4];
        let mut t = vec![0.5f32; 4];
        // prediction 1.0, observation 3.0 → error positive, factors grow.
        update_one(&mut x, &mut t, 3.0, 0.1, 0.0);
        assert!(x.iter().all(|&v| v > 0.5));
        assert!(t.iter().all(|&v| v > 0.5));
        let pred: f32 = x.iter().zip(&t).map(|(a, b)| a * b).sum();
        assert!(pred > 1.0 && pred < 3.0);
    }

    #[test]
    fn update_is_symmetric_in_factors() {
        // x and θ receive mirror-image updates when they start equal.
        let mut x = vec![0.3f32, 0.7];
        let mut t = vec![0.3f32, 0.7];
        update_one(&mut x, &mut t, 2.0, 0.05, 0.1);
        assert_eq!(x, t);
    }
}
