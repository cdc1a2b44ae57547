//! LIBMF-style baseline: multi-threaded blocked SGD on one machine \[39\]\[3\].
//!
//! Functional: the [`crate::sgd`] blocked scheme with a grid larger than the
//! thread count (LIBMF's work-stealing grid), its blocks run in order on the
//! calling thread. Timing: the host roofline of
//! the machine it runs on, with the shared-scheduler lock term that makes
//! LIBMF "stop scaling when using few dozen cores" (§VI-A). The paper runs
//! it with 40 threads on the Pascal server's POWER8 host, "which achieves
//! the best performance".

use crate::sgd::{blocked_epoch, sgd_test_rmse, SgdConfig, SgdModel};
use cumf_datasets::MfDataset;
use cumf_gpu_sim::host::{CpuSpec, HostWorkload, SyncModel};
use cumf_gpu_sim::timeline::ConvergenceCurve;
use cumf_sparse::blocking::BlockGrid;

/// Fraction of per-thread work spent in LIBMF's shared block scheduler.
/// Calibrated so 40 threads on the POWER8 host give the ≈30× best-case
/// speedup LIBMF reports before its scaling flattens.
const SCHEDULER_SERIAL_FRACTION: f64 = 0.004;
/// SIMD efficiency of LIBMF's hand-vectorized inner loop.
const SGD_SIMD_EFFICIENCY: f64 = 0.25;

/// The LIBMF baseline runner.
pub struct LibMf {
    /// Host machine.
    pub cpu: CpuSpec,
    /// Worker threads (40 in the paper's runs).
    pub threads: u32,
    /// SGD hyper-parameters.
    pub config: SgdConfig,
}

/// A baseline training run's outcome (shared shape across baseline systems).
#[derive(Clone, Debug)]
pub struct SystemReport {
    /// `(sim time, test RMSE)` convergence curve.
    pub curve: ConvergenceCurve,
    /// Simulated seconds per epoch.
    pub epoch_time: f64,
    /// First simulated time at which the target RMSE was reached.
    pub time_to_target: Option<f64>,
    /// Epochs actually run.
    pub epochs_run: u32,
}

impl LibMf {
    /// LIBMF as the paper benchmarks it: 40 threads on the POWER8 host,
    /// learning rate tuned to the dataset's value scale.
    pub fn paper_setup(f: usize, profile: &cumf_datasets::DatasetProfile) -> LibMf {
        LibMf {
            cpu: CpuSpec::power8(),
            threads: 40,
            config: SgdConfig {
                grid: 16,
                ..SgdConfig::for_profile(f, profile)
            },
        }
    }

    /// Simulated time of one SGD epoch over the full-scale dataset.
    ///
    /// Per observation: read+write of `x_u` and `θ_v` (4·f·4 bytes) plus the
    /// rating stream; `8f` flops (two length-f passes of FMA pairs).
    pub fn epoch_time(&self, data: &MfDataset) -> f64 {
        let nz = data.profile.nz as f64;
        let f = self.config.f as f64;
        let w = HostWorkload {
            flops: nz * 8.0 * f,
            bytes: nz * (4.0 * f * 4.0 + 12.0),
            efficiency: SGD_SIMD_EFFICIENCY,
        };
        self.cpu.workload_time(
            &w,
            self.threads,
            SyncModel::SharedLock {
                serial_fraction: SCHEDULER_SERIAL_FRACTION,
            },
        )
    }

    /// Train until `max_epochs` or the profile's RMSE target.
    pub fn train(&self, data: &MfDataset, max_epochs: u32) -> SystemReport {
        let grid = BlockGrid::partition(&data.train_coo, self.config.grid);
        let mut model = SgdModel::init(data.m(), data.n(), &self.config, data.profile.value_mean);
        let epoch_time = self.epoch_time(data);
        let target = data.profile.rmse_target;
        let mut curve = ConvergenceCurve::new("LIBMF");
        let mut time_to_target = None;
        let mut epochs_run = 0;
        for k in 0..max_epochs {
            blocked_epoch(&grid, &mut model, &self.config, k as usize);
            epochs_run = k + 1;
            let rmse = sgd_test_rmse(&model, &data.test);
            let t = epoch_time * epochs_run as f64;
            curve.push(t, epochs_run, rmse);
            if rmse <= target {
                time_to_target = Some(t);
                break;
            }
        }
        SystemReport {
            curve,
            epoch_time,
            time_to_target,
            epochs_run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_datasets::SizeClass;

    #[test]
    fn netflix_epoch_time_in_table4_ballpark() {
        // Table IV: LIBMF reaches 0.92 on Netflix in 23 s; SGD needs a few
        // dozen epochs, so one epoch should cost a few hundred ms to ~1 s.
        let data = MfDataset::netflix(SizeClass::Tiny, 1);
        let t = LibMf::paper_setup(100, &data.profile).epoch_time(&data);
        assert!(t > 0.2 && t < 2.5, "epoch time {t}");
    }

    #[test]
    fn more_threads_help_until_they_dont() {
        let data = MfDataset::netflix(SizeClass::Tiny, 1);
        let mk = |threads| {
            LibMf {
                threads,
                ..LibMf::paper_setup(100, &data.profile)
            }
            .epoch_time(&data)
        };
        let t4 = mk(4);
        let t16 = mk(16);
        let t40 = mk(40);
        assert!(t16 < t4);
        // Beyond physical cores the lock keeps it flat-ish, not faster.
        assert!(t40 >= t16 * 0.9);
    }

    #[test]
    fn converges_on_tiny_data() {
        let data = MfDataset::netflix(SizeClass::Tiny, 3);
        let libmf = LibMf {
            config: SgdConfig {
                f: 8,
                grid: 8,
                ..SgdConfig::new(8, 0.05)
            },
            ..LibMf::paper_setup(8, &data.profile)
        };
        let report = libmf.train(&data, 20);
        assert!(report.curve.best_rmse().unwrap() < 1.2);
        assert_eq!(report.curve.points().len() as u32, report.epochs_run);
    }

    #[test]
    fn hugewiki_epoch_is_much_slower() {
        let nf = MfDataset::netflix(SizeClass::Tiny, 1);
        let hw = MfDataset::hugewiki(SizeClass::Tiny, 1);
        let libmf = LibMf::paper_setup(100, &nf.profile);
        // 3.1B vs 99M non-zeros → ≈ 31× the per-epoch work.
        let ratio = libmf.epoch_time(&hw) / libmf.epoch_time(&nf);
        assert!(ratio > 20.0 && ratio < 45.0, "ratio {ratio}");
    }
}
