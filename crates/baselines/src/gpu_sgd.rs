//! GPU-SGD baseline: the cuMF_SGD system \[35\] — batch Hogwild! SGD on one
//! or more GPUs, with warp-shuffle update kernels and half-precision
//! factor storage.
//!
//! Functional: the Hogwild epoch of [`crate::sgd`], run in COO order on the
//! calling thread (the GPU's racy warp updates are priced, not run).
//! Timing: SGD is *memory-bound* (Table I: C/M = O(1)), so an epoch prices
//! at its factor traffic over the device bandwidth; half-precision storage
//! halves those bytes exactly as in cuMF_SGD. Multi-GPU runs partition `R`
//! by rows and exchange the column-factor matrix every epoch.

use crate::libmf::SystemReport;
use crate::sgd::{hogwild_epoch, sgd_test_rmse, SgdConfig, SgdModel};
use cumf_datasets::MfDataset;
use cumf_gpu_sim::interconnect::Interconnect;
use cumf_gpu_sim::kernel::{KernelCost, LaunchTiming};
use cumf_gpu_sim::occupancy::{occupancy, KernelResources};
use cumf_gpu_sim::timeline::ConvergenceCurve;
use cumf_gpu_sim::{GpuGeneration, GpuSpec};
use cumf_telemetry::{KernelLaunchRecord, PhaseSpan, Recorder, NOOP};

/// Achieved fraction of peak bandwidth of cuMF_SGD's scattered update
/// kernel (random row/column access, half-width transactions).
const SGD_BANDWIDTH_EFFICIENCY: f64 = 0.55;

/// The cuMF_SGD baseline runner.
pub struct GpuSgd {
    /// Device model.
    pub spec: GpuSpec,
    /// Number of GPUs (1 or 4 in the paper's Figure 8).
    pub gpus: u32,
    /// Whether factors are stored in half precision (cuMF_SGD's default).
    pub half_precision: bool,
    /// SGD hyper-parameters.
    pub config: SgdConfig,
}

impl GpuSgd {
    /// cuMF_SGD as Figure 8 runs it.
    pub fn paper_setup(
        spec: GpuSpec,
        gpus: u32,
        f: usize,
        profile: &cumf_datasets::DatasetProfile,
    ) -> GpuSgd {
        GpuSgd {
            spec,
            gpus,
            half_precision: true,
            config: SgdConfig::for_profile(f, profile),
        }
    }

    /// Simulated time of one epoch at full scale.
    pub fn epoch_time(&self, data: &MfDataset) -> f64 {
        let nz = data.profile.nz as f64 / self.gpus as f64;
        let f = self.config.f as f64;
        let elem = if self.half_precision { 2.0 } else { 4.0 };
        // Each update reads and writes x_u and θ_v (4 f-vectors) plus the
        // rating stream.
        let bytes = nz * (4.0 * f * elem + 12.0);
        let mem_time = bytes / (self.spec.dram_bandwidth * SGD_BANDWIDTH_EFFICIENCY);
        let flop_time = nz * 8.0 * f / (self.spec.peak_fp32_flops * 0.5);
        let compute = mem_time.max(flop_time);
        let comm = if self.gpus > 1 {
            let ic = match self.spec.generation {
                GpuGeneration::Pascal => Interconnect::nvlink(),
                _ => Interconnect::pcie3(),
            };
            // Exchange the column factors once per epoch.
            ic.allgather_time(
                data.profile.n * self.config.f as u64 * elem as u64,
                self.gpus,
            )
        } else {
            0.0
        };
        compute + comm
    }

    /// Train until `max_epochs` or the profile's RMSE target.
    pub fn train(&self, data: &MfDataset, max_epochs: u32) -> SystemReport {
        self.train_with_recorder(data, max_epochs, &NOOP)
    }

    /// [`GpuSgd::train`] with a telemetry recorder: each epoch emits one
    /// `sgd_hogwild_update` kernel record (memory-bound, as Table I
    /// predicts), a communication record on multi-GPU runs, and an
    /// `epoch-sgd` phase span. Recording never changes the epoch pricing.
    pub fn train_with_recorder(
        &self,
        data: &MfDataset,
        max_epochs: u32,
        recorder: &dyn Recorder,
    ) -> SystemReport {
        let mut model = SgdModel::init(data.m(), data.n(), &self.config, data.profile.value_mean);
        let epoch_time = self.epoch_time(data);
        let target = data.profile.rmse_target;
        let mut curve = ConvergenceCurve::new(format!("sgd@{}", self.gpus));
        let mut time_to_target = None;
        let mut epochs_run = 0;
        for k in 0..max_epochs {
            hogwild_epoch(&data.train_coo, &mut model, &self.config, k as usize);
            epochs_run = k + 1;
            let rmse = sgd_test_rmse(&model, &data.test);
            let t = epoch_time * epochs_run as f64;
            curve.push(t, epochs_run, rmse);
            if recorder.enabled() {
                self.emit_epoch_telemetry(recorder, data, t - epoch_time);
            }
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

    /// One epoch's telemetry, starting at simulated `t0`: the Hogwild update
    /// kernel (costs recomputed exactly as [`GpuSgd::epoch_time`] prices
    /// them) and, on multi-GPU runs, the column-factor exchange.
    fn emit_epoch_telemetry(&self, recorder: &dyn Recorder, data: &MfDataset, t0: f64) {
        let nz = data.profile.nz as f64 / self.gpus as f64;
        let f = self.config.f as f64;
        let elem = if self.half_precision { 2.0 } else { 4.0 };
        let bytes = nz * (4.0 * f * elem + 12.0);
        let mem_time = bytes / (self.spec.dram_bandwidth * SGD_BANDWIDTH_EFFICIENCY);
        let flop_time = nz * 8.0 * f / (self.spec.peak_fp32_flops * 0.5);
        let compute = mem_time.max(flop_time);
        let occ = occupancy(
            &self.spec,
            &KernelResources {
                regs_per_thread: 48,
                threads_per_block: 128,
                shared_mem_per_block: 0,
            },
        );
        let cost = KernelCost {
            flops_fp32: nz * 8.0 * f,
            flops_fp16: 0.0,
            dram_read_bytes: bytes / 2.0,
            dram_write_bytes: bytes / 2.0,
            l2_wire_bytes: bytes,
            transactions: bytes / 32.0,
            mlp: 4.0,
            pipe_efficiency: 0.5,
        };
        let timing = LaunchTiming {
            compute_time: flop_time,
            dram_time: mem_time,
            l2_time: 0.0,
            latency_time: 0.0,
            time: compute,
        };
        recorder.kernel(KernelLaunchRecord::new(
            "sgd_hogwild_update",
            &self.spec,
            occ,
            cost,
            timing,
            t0,
            data.profile.nz / 256 / self.gpus as u64,
            128,
        ));
        let mut t_end = t0 + compute;
        if self.gpus > 1 {
            let ic = match self.spec.generation {
                GpuGeneration::Pascal => Interconnect::nvlink(),
                _ => Interconnect::pcie3(),
            };
            let comm_bytes = data.profile.n * self.config.f as u64 * elem as u64;
            let comm = ic.allgather_time(comm_bytes, self.gpus);
            let comm_cost = KernelCost {
                flops_fp32: 0.0,
                flops_fp16: 0.0,
                dram_read_bytes: comm_bytes as f64,
                dram_write_bytes: 0.0,
                l2_wire_bytes: 0.0,
                transactions: 0.0,
                mlp: 1.0,
                pipe_efficiency: 1.0,
            };
            let comm_timing = LaunchTiming {
                compute_time: 0.0,
                dram_time: comm,
                l2_time: 0.0,
                latency_time: 0.0,
                time: comm,
            };
            recorder.kernel(KernelLaunchRecord::new(
                "nccl_allgather",
                &self.spec,
                occ,
                comm_cost,
                comm_timing,
                t_end,
                self.gpus as u64,
                1,
            ));
            t_end += comm;
        }
        recorder.phase(PhaseSpan::new("epoch-sgd", t0, t_end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_datasets::SizeClass;

    #[test]
    fn sgd_epoch_is_much_cheaper_than_als_epoch() {
        // §V-E: "SGD runs faster per iteration but requires more iterations."
        let data = MfDataset::netflix(SizeClass::Tiny, 1);
        let sgd = GpuSgd::paper_setup(GpuSpec::maxwell_titan_x(), 1, 100, &data.profile);
        let t_sgd = sgd.epoch_time(&data);
        // ALS epoch on the same data/device (priced in cumf-als tests at
        // ≈1–2 s); SGD should be several times cheaper per epoch.
        assert!(t_sgd < 0.5, "SGD epoch {t_sgd}");
    }

    #[test]
    fn half_precision_halves_traffic_time() {
        let data = MfDataset::netflix(SizeClass::Tiny, 1);
        let half = GpuSgd::paper_setup(GpuSpec::maxwell_titan_x(), 1, 100, &data.profile);
        let full = GpuSgd {
            half_precision: false,
            ..GpuSgd::paper_setup(GpuSpec::maxwell_titan_x(), 1, 100, &data.profile)
        };
        let ratio = full.epoch_time(&data) / half.epoch_time(&data);
        assert!(ratio > 1.7 && ratio < 2.1, "fp32/fp16 epoch ratio {ratio}");
    }

    #[test]
    fn multi_gpu_scales_with_comm_overhead() {
        let data = MfDataset::hugewiki(SizeClass::Tiny, 1);
        let one = GpuSgd::paper_setup(GpuSpec::maxwell_titan_x(), 1, 100, &data.profile)
            .epoch_time(&data);
        let four = GpuSgd::paper_setup(GpuSpec::maxwell_titan_x(), 4, 100, &data.profile)
            .epoch_time(&data);
        assert!(four < one, "4 GPUs should beat 1");
        assert!(four > one / 4.0, "but not perfectly (comm)");
    }

    #[test]
    fn converges_functionally() {
        let data = MfDataset::netflix(SizeClass::Tiny, 13);
        let mut sgd = GpuSgd::paper_setup(GpuSpec::maxwell_titan_x(), 1, 8, &data.profile);
        sgd.config = SgdConfig::new(8, 0.05);
        let report = sgd.train(&data, 25);
        assert!(
            report.curve.best_rmse().unwrap() < 1.2,
            "best {:?}",
            report.curve.best_rmse()
        );
    }
}
