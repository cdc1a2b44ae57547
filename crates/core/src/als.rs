//! The ALS trainer: alternating `update-X` / `update-Θ` sweeps, each a fused
//! `get_hermitian → get_bias → solve` pass, with per-phase simulated timing
//! on a chosen GPU (or multi-GPU server).
//!
//! Functional execution is real: the factor matrices are genuinely solved
//! and test RMSE genuinely evaluated, so epochs-to-convergence comes from
//! the data. Simulated time prices each epoch at the dataset's *full-scale*
//! profile (Table II dimensions) on the chosen [`GpuSpec`] — see DESIGN.md
//! §1 and §5.

use crate::config::{AlsConfig, Precision, SolverKind};
use crate::kernels::bias::{bias_cost, bias_row};
use crate::kernels::hermitian::{
    hermitian_phases, hermitian_row, HermitianPhases, HermitianShape, HermitianWorkload,
};
use crate::kernels::solve::{solve_cost, solve_row_traced, SolveBatch, SolveStats, SolveTrace};
use crate::metrics::test_rmse;
use cumf_datasets::MfDataset;
use cumf_gpu_sim::interconnect::Interconnect;
use cumf_gpu_sim::kernel::{hermitian_pipe_efficiency, launch_time, KernelCost, LaunchTiming};
use cumf_gpu_sim::memory::{load_l1_hit_ratio, load_wire_profile, StagedLoad};
use cumf_gpu_sim::occupancy::{occupancy, KernelResources, Occupancy};
use cumf_gpu_sim::timeline::{ConvergenceCurve, SimClock};
use cumf_gpu_sim::{GpuGeneration, GpuSpec};
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::stats::XorShift64;
use cumf_numeric::sym::{packed_len, SymPacked};
use cumf_sparse::CsrMatrix;
use cumf_telemetry::{
    CounterSample, KernelLaunchRecord, PhaseSpan, Recorder, SolverExit, SolverRecord, NOOP,
};
use serde::Serialize;

/// Simulated per-phase times of one epoch (one update-X + one update-Θ).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct EpochPhases {
    /// Global→shared staging time of both `get_hermitian` launches.
    pub load: f64,
    /// FMA time of both `get_hermitian` launches.
    pub compute: f64,
    /// `A_u` flush time of both launches.
    pub write: f64,
    /// Both `get_bias` launches.
    pub bias: f64,
    /// Both batched solves.
    pub solve: f64,
    /// Multi-GPU all-gather time (0 on one GPU).
    pub comm: f64,
}

impl EpochPhases {
    /// Total epoch time.
    pub fn total(&self) -> f64 {
        self.load + self.compute + self.write + self.bias + self.solve + self.comm
    }
}

/// One epoch's record.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct EpochReport {
    /// 1-based epoch number.
    pub epoch: u32,
    /// Cumulative simulated training time after this epoch.
    pub sim_time: f64,
    /// Test RMSE after this epoch.
    pub test_rmse: f64,
    /// This epoch's phase breakdown.
    pub phases: EpochPhases,
    /// Mean CG iterations per row this epoch (f for direct solvers).
    pub mean_cg_iters: f64,
}

/// The result of a training run.
#[derive(Clone, Debug, Serialize)]
pub struct TrainReport {
    /// Per-epoch records, in order.
    pub epochs: Vec<EpochReport>,
    /// The `(sim time, RMSE)` convergence curve (Figure 6 / 8 material).
    pub curve: ConvergenceCurve,
    /// Simulated time at which the RMSE target was reached, if it was.
    pub time_to_target: Option<f64>,
}

impl TrainReport {
    /// RMSE after the last completed epoch.
    pub fn final_rmse(&self) -> f64 {
        self.epochs
            .last()
            .map(|e| e.test_rmse)
            .unwrap_or(f64::INFINITY)
    }

    /// Total simulated training time.
    pub fn total_sim_time(&self) -> f64 {
        self.epochs.last().map(|e| e.sim_time).unwrap_or(0.0)
    }
}

/// Which factor a sweep updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Solve each `x_u` from `R` rows and `Θ`.
    X,
    /// Solve each `θ_v` from `Rᵀ` rows and `X`.
    Theta,
}

/// Price one sweep of an ALS epoch at *full-scale* profile dimensions on
/// `spec` × `gpus` — the pure cost model, usable without running the
/// functional sweep (harnesses re-price a single functional run on several
/// devices this way).
pub fn price_side(
    profile: &cumf_datasets::DatasetProfile,
    config: &AlsConfig,
    side: Side,
    spec: &GpuSpec,
    gpus: u32,
    mean_cg_iters: f64,
) -> EpochPhases {
    price_side_detailed(profile, config, side, spec, gpus, mean_cg_iters).phases
}

/// Everything [`price_side`] computes, kept at full resolution for the
/// telemetry pipeline: per-pseudo-kernel [`KernelCost`]s and
/// [`LaunchTiming`]s (load / compute / write / bias / solve), cache hit
/// ratios of the staging phase, occupancies, and communication volume.
#[derive(Clone, Debug)]
pub struct SideCosts {
    /// The condensed phase times — exactly what [`price_side`] returns.
    pub phases: EpochPhases,
    /// The raw `get_hermitian` breakdown (its occupancy included).
    pub herm: HermitianPhases,
    /// Operation counters of the global→shared staging phase.
    pub load_cost: KernelCost,
    /// Timing of the staging phase (`bound()` classifies dram/l2/latency).
    pub load_timing: LaunchTiming,
    /// Operation counters of the `Σ θθᵀ` FMA phase.
    pub compute_cost: KernelCost,
    /// Timing of the FMA phase (always compute-bound by construction).
    pub compute_timing: LaunchTiming,
    /// Operation counters of the `A_u` flush.
    pub write_cost: KernelCost,
    /// Timing of the flush (streaming-write, dram-bound).
    pub write_timing: LaunchTiming,
    /// Fraction of staged reads served by L1 under the load pattern.
    pub l1_hit_ratio: f64,
    /// Fraction of L2 wire traffic *not* going to DRAM.
    pub l2_hit_ratio: f64,
    /// Occupancy of the generic 128-thread bias / solve launches.
    pub generic_occ: Occupancy,
    /// `get_bias` operation counters.
    pub bias_cost: KernelCost,
    /// `get_bias` launch timing.
    pub bias_timing: LaunchTiming,
    /// Batched-solve operation counters.
    pub solve_cost: KernelCost,
    /// Batched-solve launch timing.
    pub solve_timing: LaunchTiming,
    /// Rows updated on this GPU at full scale (= the launch grid size).
    pub rows: u64,
    /// Bytes all-gathered after the sweep (0 on one GPU).
    pub comm_bytes: u64,
}

/// [`price_side`] at full resolution. The phase times are computed by the
/// identical sequence of operations, so `price_side_detailed(..).phases`
/// is bit-identical to `price_side(..)`.
pub fn price_side_detailed(
    profile: &cumf_datasets::DatasetProfile,
    config: &AlsConfig,
    side: Side,
    spec: &GpuSpec,
    gpus: u32,
    mean_cg_iters: f64,
) -> SideCosts {
    let f = config.f;
    let shape = HermitianShape {
        f,
        bin: config.bin,
        tile: config.tile,
    };
    let (rows_full, feat_full) = match side {
        Side::X => (profile.m, profile.n),
        Side::Theta => (profile.n, profile.m),
    };
    let g = gpus as u64;
    let w = HermitianWorkload {
        rows: rows_full.div_ceil(g),
        feature_rows: feat_full,
        nz: profile.nz / g,
    };
    let herm = hermitian_phases(spec, &w, &shape, config.load_pattern);

    let generic_occ = occupancy(
        spec,
        &KernelResources {
            regs_per_thread: 40,
            threads_per_block: 128,
            shared_mem_per_block: 0,
        },
    );
    let bias_kcost = bias_cost(spec, w.rows, w.nz, f as u64);
    let bias_timing = launch_time(spec, &generic_occ, &bias_kcost);
    let mean_iters_for_cost = match config.solver {
        SolverKind::Cg { .. } => mean_cg_iters,
        _ => f as f64,
    };
    let solve_kcost = solve_cost(
        spec,
        &config.solver,
        w.rows,
        f as u64,
        mean_iters_for_cost,
        false,
    );
    let solve_timing = launch_time(spec, &generic_occ, &solve_kcost);

    let (comm, comm_bytes) = if gpus > 1 {
        let ic = match spec.generation {
            GpuGeneration::Pascal => Interconnect::nvlink(),
            _ => Interconnect::pcie3(),
        };
        let bytes = profile.factor_bytes(rows_full);
        (ic.allgather_time(bytes, gpus), bytes)
    } else {
        (0.0, 0)
    };

    let phases = EpochPhases {
        load: herm.load.time,
        compute: herm.compute_time,
        write: herm.write_time,
        bias: bias_timing.time,
        solve: solve_timing.time,
        comm,
    };

    // Telemetry-only derived quantities below: none feed back into `phases`.
    // The load/compute/write timings are reconstructed so that each phase's
    // `time` matches the priced phase and `bound()` classifies it the same
    // way `load_time` / `hermitian_phases` decided it.
    let staged = StagedLoad {
        total_bytes: w.nz * f as u64 * 4,
        unique_bytes: w.feature_rows * f as u64 * 4,
    };
    let (wire_bytes, transactions, mlp) = load_wire_profile(config.load_pattern, &staged);
    let load_cost = KernelCost {
        flops_fp32: 0.0,
        flops_fp16: 0.0,
        dram_read_bytes: herm.load.dram_bytes,
        dram_write_bytes: 0.0,
        l2_wire_bytes: wire_bytes,
        transactions,
        mlp,
        pipe_efficiency: 1.0,
    };
    let load_timing = LaunchTiming {
        compute_time: 0.0,
        dram_time: herm.load.dram_time,
        l2_time: herm.load.l2_time,
        latency_time: herm.load.latency_time,
        time: herm.load.time,
    };
    let l1_hit_ratio = load_l1_hit_ratio(config.load_pattern);
    let l2_hit_ratio = if wire_bytes > 0.0 {
        (1.0 - herm.load.dram_bytes / wire_bytes).max(0.0)
    } else {
        0.0
    };

    let compute_cost = KernelCost::compute_only(
        2.0 * w.nz as f64 * packed_len(f) as f64,
        hermitian_pipe_efficiency(spec),
    );
    let compute_timing = LaunchTiming {
        compute_time: herm.compute_time,
        dram_time: 0.0,
        l2_time: 0.0,
        latency_time: 0.0,
        time: herm.compute_time,
    };

    let write_cost = KernelCost {
        flops_fp32: 0.0,
        flops_fp16: 0.0,
        dram_read_bytes: 0.0,
        dram_write_bytes: (w.rows * (f as u64) * (f as u64) * 4) as f64,
        l2_wire_bytes: 0.0,
        transactions: 0.0,
        mlp: 1.0,
        pipe_efficiency: 1.0,
    };
    let write_timing = LaunchTiming {
        compute_time: 0.0,
        dram_time: herm.write_time,
        l2_time: 0.0,
        latency_time: 0.0,
        time: herm.write_time,
    };

    SideCosts {
        phases,
        herm,
        load_cost,
        load_timing,
        compute_cost,
        compute_timing,
        write_cost,
        write_timing,
        l1_hit_ratio,
        l2_hit_ratio,
        generic_occ,
        bias_cost: bias_kcost,
        bias_timing,
        solve_cost: solve_kcost,
        solve_timing,
        rows: w.rows,
        comm_bytes,
    }
}

/// Telemetry name of the configured batched solver kernel.
pub fn solver_kernel_name(solver: &SolverKind) -> &'static str {
    match solver {
        SolverKind::BatchCholesky => "solve_cholesky",
        SolverKind::BatchLu => "solve_lu",
        SolverKind::Cg {
            precision: Precision::Fp32,
            ..
        } => "solve_cg_fp32",
        SolverKind::Cg {
            precision: Precision::Fp16,
            ..
        } => "solve_cg_fp16",
    }
}

/// Price a whole ALS epoch (update-X + update-Θ).
pub fn price_epoch(
    profile: &cumf_datasets::DatasetProfile,
    config: &AlsConfig,
    spec: &GpuSpec,
    gpus: u32,
    mean_cg_iters: f64,
) -> EpochPhases {
    let px = price_side(profile, config, Side::X, spec, gpus, mean_cg_iters);
    let pt = price_side(profile, config, Side::Theta, spec, gpus, mean_cg_iters);
    EpochPhases {
        load: px.load + pt.load,
        compute: px.compute + pt.compute,
        write: px.write + pt.write,
        bias: px.bias + pt.bias,
        solve: px.solve + pt.solve,
        comm: px.comm + pt.comm,
    }
}

/// Functional-sweep counters gathered for one side's [`SolverRecord`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct SweepCounts {
    rows: u64,
    total_cg_iters: u64,
    max_cg_iters: u64,
    rows_converged: u64,
    rows_capped: u64,
}

impl SweepCounts {
    /// Count one solved row.
    fn add(&mut self, stats: SolveStats) {
        let iters = stats.iterations as u64;
        self.total_cg_iters += iters;
        self.max_cg_iters = self.max_cg_iters.max(iters);
        if stats.converged {
            self.rows_converged += 1;
        } else {
            self.rows_capped += 1;
        }
    }
}

/// The cuMF_ALS trainer.
pub struct AlsTrainer<'a> {
    data: &'a MfDataset,
    config: AlsConfig,
    spec: GpuSpec,
    gpus: u32,
    /// User factors, `m × f`.
    pub x: DenseMatrix,
    /// Item factors, `n × f`.
    pub theta: DenseMatrix,
    clock: SimClock,
    recorder: &'a dyn Recorder,
    epochs_run: u32,
    interconnect_bytes: f64,
}

impl<'a> AlsTrainer<'a> {
    /// Create a trainer over `data` on `gpus` devices of type `spec`.
    ///
    /// Factors are initialized so that `x_uᵀθ_v` starts near the dataset's
    /// mean value (the standard ALS warm init), with seeded jitter.
    pub fn new(data: &'a MfDataset, config: AlsConfig, spec: GpuSpec, gpus: u32) -> Self {
        assert!(gpus >= 1, "need at least one GPU");
        let f = config.f;
        let mut rng = XorShift64::new(config.seed);
        let center = (data.profile.value_mean.max(0.01) / f as f32).sqrt();
        let mut x = DenseMatrix::zeros(data.m(), f);
        let mut theta = DenseMatrix::zeros(data.n(), f);
        let jitter = center * 0.5;
        x.fill_with(|| center + (rng.next_f32() - 0.5) * jitter);
        theta.fill_with(|| center + (rng.next_f32() - 0.5) * jitter);
        AlsTrainer {
            data,
            config,
            spec,
            gpus,
            x,
            theta,
            clock: SimClock::new(),
            recorder: &NOOP,
            epochs_run: 0,
            interconnect_bytes: 0.0,
        }
    }

    /// [`AlsTrainer::new`] with a telemetry recorder attached from the start.
    pub fn with_recorder(
        data: &'a MfDataset,
        config: AlsConfig,
        spec: GpuSpec,
        gpus: u32,
        recorder: &'a dyn Recorder,
    ) -> Self {
        let mut t = Self::new(data, config, spec, gpus);
        t.recorder = recorder;
        t
    }

    /// Attach a telemetry recorder; subsequent epochs emit kernel launches,
    /// phase spans, solver records and counters. Recording only observes the
    /// simulation — with the default no-op recorder the trainer's sim times
    /// and factors are bit-identical to an uninstrumented run.
    pub fn set_recorder(&mut self, recorder: &'a dyn Recorder) {
        self.recorder = recorder;
    }

    /// Borrow the config.
    pub fn config(&self) -> &AlsConfig {
        &self.config
    }

    /// The simulated clock (phase attribution is cumulative over training).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Run the configured number of ALS iterations (stopping early at the
    /// RMSE target if one is set), returning the full report.
    pub fn train(&mut self) -> TrainReport {
        let mut epochs = Vec::with_capacity(self.config.iterations);
        let mut curve = ConvergenceCurve::new(format!("cuMFALS@{}x{}", self.gpus, self.spec.name));
        let mut time_to_target = None;

        for epoch in 1..=self.config.iterations as u32 {
            let (phases, mean_cg) = self.run_epoch();
            let rmse = test_rmse(&self.x, &self.theta, &self.data.test);
            if self.recorder.enabled() {
                // RMSE evaluation runs host-side in cuMF; mark it as a
                // zero-length instant on the simulated timeline.
                let now = self.clock.now();
                self.recorder.phase(PhaseSpan::new("rmse-eval", now, now));
            }
            let report = EpochReport {
                epoch,
                sim_time: self.clock.now(),
                test_rmse: rmse,
                phases,
                mean_cg_iters: mean_cg,
            };
            curve.push(report.sim_time, epoch, rmse);
            epochs.push(report);
            if let Some(target) = self.config.rmse_target {
                if rmse <= target && time_to_target.is_none() {
                    time_to_target = Some(self.clock.now());
                    break;
                }
            }
        }
        TrainReport {
            epochs,
            curve,
            time_to_target,
        }
    }

    /// One ALS iteration: update-X then update-Θ. Returns the epoch's phase
    /// breakdown and the mean CG iteration count across both sweeps.
    pub fn run_epoch(&mut self) -> (EpochPhases, f64) {
        let t0 = self.clock.now();
        if self.recorder.enabled() {
            self.recorder.counter(CounterSample::new(
                "device_mem_bytes",
                t0,
                self.device_bytes_per_gpu() as f64,
            ));
        }
        let (px, cg_x) = self.update_side(Side::X, t0);
        let (pt, cg_t) = self.update_side(Side::Theta, t0 + px.total());
        let phases = EpochPhases {
            load: px.load + pt.load,
            compute: px.compute + pt.compute,
            write: px.write + pt.write,
            bias: px.bias + pt.bias,
            solve: px.solve + pt.solve,
            comm: px.comm + pt.comm,
        };
        self.clock.advance("load", phases.load);
        self.clock.advance("compute", phases.compute);
        self.clock.advance("write", phases.write);
        self.clock.advance("bias", phases.bias);
        self.clock.advance("solve", phases.solve);
        self.clock.advance("comm", phases.comm);
        self.epochs_run += 1;
        (phases, (cg_x + cg_t) / 2.0)
    }

    /// One fused sweep. Functionally updates the factor matrix; returns the
    /// priced phases (at full-scale profile dimensions) and the measured
    /// mean CG iterations. `t0` is the simulated instant the sweep starts —
    /// kernel records and phase spans are laid out sequentially from it.
    ///
    /// The sweep runs on the calling thread: `get_hermitian` and
    /// `get_bias` per row, and the solve per group of sixteen populated
    /// rows, one row per SIMD lane ([`SolveBatch`]), which gives every
    /// row the bits and the iteration count of its own solve.
    fn update_side(&mut self, side: Side, t0: f64) -> (EpochPhases, f64) {
        let f = self.config.f;
        let shape = HermitianShape {
            f,
            bin: self.config.bin,
            tile: self.config.tile,
        };
        let (r, features): (&CsrMatrix, &DenseMatrix) = match side {
            Side::X => (&self.data.r, &self.theta),
            Side::Theta => (&self.data.rt, &self.x),
        };
        let lambda = self.config.lambda;
        let solver = self.config.solver;
        let tracing = self.recorder.enabled();

        // --- functional sweep: hermitian + bias per row, then the solve
        // of each group of CG_LANES populated rows as one lane batch ---
        let mut counts = SweepCounts {
            rows: r.rows() as u64,
            ..SweepCounts::default()
        };
        let mut new_factors = DenseMatrix::zeros(r.rows(), f);
        let old_factors: &DenseMatrix = match side {
            Side::X => &self.x,
            Side::Theta => &self.theta,
        };
        let (mut a, mut staging, mut b) = (SymPacked::zeros(f), Vec::new(), vec![0.0f32; f]);
        let mut batch = SolveBatch::new(&solver, f);
        let mut drain = |batch: &mut SolveBatch| {
            batch.solve(|u, x, stats| {
                new_factors.row_mut(u).copy_from_slice(x);
                counts.add(stats);
            })
        };
        for u in 0..r.rows() {
            let cols = r.row_cols(u);
            if cols.is_empty() {
                // No observations: the regularized optimum is 0, which
                // `new_factors` already holds.
                continue;
            }
            hermitian_row(cols, features, lambda, &shape, &mut staging, &mut a);
            bias_row(cols, r.row_values(u), features, &mut b);
            if batch.is_full() {
                drain(&mut batch);
            }
            // Warm start from the previous sweep's factors.
            batch.push(u, &a, &b, old_factors.row(u));
        }
        drain(&mut batch);

        // Representative-row trace: re-solve the first populated row on
        // scratch buffers (before the factor swap, so the warm start matches
        // what the sweep saw). Pure observation — results are discarded.
        let mut solve_trace = SolveTrace::default();
        if tracing {
            if let Some(u) = (0..r.rows()).find(|&u| !r.row_cols(u).is_empty()) {
                let mut a = SymPacked::zeros(f);
                let mut staging = Vec::new();
                let mut b = vec![0.0f32; f];
                let mut x_row = old_factors.row(u).to_vec();
                hermitian_row(
                    r.row_cols(u),
                    features,
                    lambda,
                    &shape,
                    &mut staging,
                    &mut a,
                );
                bias_row(r.row_cols(u), r.row_values(u), features, &mut b);
                solve_row_traced(&solver, &a, &mut x_row, &b, &mut solve_trace);
            }
        }

        match side {
            Side::X => self.x = new_factors,
            Side::Theta => self.theta = new_factors,
        }
        let mean_cg = counts.total_cg_iters as f64 / r.rows().max(1) as f64;

        // --- cost model at full-scale dimensions ---
        let costs = price_side_detailed(
            &self.data.profile,
            &self.config,
            side,
            &self.spec,
            self.gpus,
            mean_cg,
        );
        if tracing {
            self.emit_side_telemetry(side, t0, &costs, mean_cg, &solve_trace, counts);
        }
        (costs.phases, mean_cg)
    }

    /// Emit one sweep's telemetry: three `get_hermitian` pseudo-kernels, the
    /// bias and solve launches, the all-gather (multi-GPU), phase spans over
    /// each group, the batch [`SolverRecord`], and the cumulative
    /// interconnect-traffic counter. Events are stamped sequentially from
    /// `t0`, mirroring how `run_epoch` advances the [`SimClock`].
    fn emit_side_telemetry(
        &mut self,
        side: Side,
        t0: f64,
        costs: &SideCosts,
        mean_cg: f64,
        solve_trace: &SolveTrace,
        counts: SweepCounts,
    ) {
        let rec = self.recorder;
        let label = match side {
            Side::X => "X",
            Side::Theta => "Theta",
        };
        let p = &costs.phases;
        let grid = costs.rows;

        let mut t = t0;
        rec.kernel(
            KernelLaunchRecord::new(
                "get_hermitian.load",
                &self.spec,
                costs.herm.occupancy,
                costs.load_cost,
                costs.load_timing,
                t,
                grid,
                64,
            )
            .with_cache_hit_ratios(costs.l1_hit_ratio, costs.l2_hit_ratio),
        );
        t += p.load;
        rec.kernel(KernelLaunchRecord::new(
            "get_hermitian.compute",
            &self.spec,
            costs.herm.occupancy,
            costs.compute_cost,
            costs.compute_timing,
            t,
            grid,
            64,
        ));
        t += p.compute;
        rec.kernel(KernelLaunchRecord::new(
            "get_hermitian.write",
            &self.spec,
            costs.herm.occupancy,
            costs.write_cost,
            costs.write_timing,
            t,
            grid,
            64,
        ));
        t += p.write;
        rec.phase(PhaseSpan::new(format!("get_hermitian-{label}"), t0, t));

        let bias_start = t;
        rec.kernel(KernelLaunchRecord::new(
            "get_bias",
            &self.spec,
            costs.generic_occ,
            costs.bias_cost,
            costs.bias_timing,
            t,
            grid,
            128,
        ));
        t += p.bias;
        rec.phase(PhaseSpan::new(format!("get_bias-{label}"), bias_start, t));

        let solve_start = t;
        let solver_name = solver_kernel_name(&self.config.solver);
        rec.kernel(KernelLaunchRecord::new(
            solver_name,
            &self.spec,
            costs.generic_occ,
            costs.solve_cost,
            costs.solve_timing,
            t,
            grid,
            128,
        ));
        t += p.solve;
        rec.phase(PhaseSpan::new(format!("solve-{label}"), solve_start, t));

        let is_cg = matches!(self.config.solver, SolverKind::Cg { .. });
        let exit = if !is_cg {
            SolverExit::Direct
        } else if counts.rows_capped > counts.rows_converged {
            SolverExit::IterationCap
        } else {
            SolverExit::Converged
        };
        rec.solver(SolverRecord {
            solver: solver_name.into(),
            side: label.into(),
            epoch: self.epochs_run,
            rows: counts.rows,
            total_cg_iters: if is_cg { counts.total_cg_iters } else { 0 },
            mean_cg_iters: mean_cg,
            max_cg_iters: counts.max_cg_iters as u32,
            rows_converged: counts.rows_converged,
            rows_iteration_capped: counts.rows_capped,
            exit,
            residual_trajectory: solve_trace.residuals.clone(),
            fp16_roundtrip_rms: solve_trace.fp16_roundtrip_rms,
            fp16_roundtrip_max: solve_trace.fp16_roundtrip_max,
            sim_time: t,
        });

        if p.comm > 0.0 {
            let comm_start = t;
            let comm_cost = KernelCost {
                flops_fp32: 0.0,
                flops_fp16: 0.0,
                dram_read_bytes: costs.comm_bytes as f64,
                dram_write_bytes: 0.0,
                l2_wire_bytes: 0.0,
                transactions: 0.0,
                mlp: 1.0,
                pipe_efficiency: 1.0,
            };
            let comm_timing = LaunchTiming {
                compute_time: 0.0,
                dram_time: p.comm,
                l2_time: 0.0,
                latency_time: 0.0,
                time: p.comm,
            };
            rec.kernel(KernelLaunchRecord::new(
                "nccl_allgather",
                &self.spec,
                costs.generic_occ,
                comm_cost,
                comm_timing,
                comm_start,
                self.gpus as u64,
                1,
            ));
            t += p.comm;
            rec.phase(PhaseSpan::new(format!("comm-{label}"), comm_start, t));
            self.interconnect_bytes += costs.comm_bytes as f64;
            rec.counter(CounterSample::new(
                "interconnect_bytes",
                t,
                self.interconnect_bytes,
            ));
        }
    }

    /// Peak device-memory demand per GPU at full scale: the factor matrices
    /// (X sliced, Θ full for update-X and vice versa), the rating slice, and
    /// the staged Gram matrices. Used by harnesses to check Table III
    /// capacity (Hugewiki does not fit one 12 GB GPU — the reason the paper
    /// runs it on four).
    pub fn device_bytes_per_gpu(&self) -> u64 {
        let p = &self.data.profile;
        let f = self.config.f as u64;
        let g = self.gpus as u64;
        let factors = (p.m.div_ceil(g) + p.n) * f * 4;
        let ratings = p.nz / g * 8; // value + column index
        let grams_in_flight = 4096 * f * f * 4; // solver batch window
        factors + ratings + grams_in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;
    use cumf_datasets::SizeClass;

    fn tiny() -> MfDataset {
        MfDataset::netflix(SizeClass::Tiny, 77)
    }

    fn fast_config(data: &MfDataset, solver: SolverKind) -> AlsConfig {
        AlsConfig {
            f: 8,
            iterations: 5,
            solver,
            rmse_target: None,
            ..AlsConfig::for_profile(&data.profile)
        }
    }

    #[test]
    fn rmse_decreases_over_epochs() {
        let data = tiny();
        let mut t = AlsTrainer::new(
            &data,
            fast_config(&data, SolverKind::cumf_default()),
            GpuSpec::maxwell_titan_x(),
            1,
        );
        let report = t.train();
        let first = report.epochs.first().unwrap().test_rmse;
        let last = report.final_rmse();
        assert!(last < first, "RMSE should fall: {first} → {last}");
        assert!(last < 1.1, "tiny Netflix should fit well, got {last}");
    }

    /// The fused single-loop FP16 matvec the split passes replaced, each
    /// entry widened through `F16::to_f32`.
    struct FusedF16(cumf_numeric::sym::SymPackedF16);

    impl cumf_numeric::cg::MatVec for FusedF16 {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn matvec(&self, x: &[f32], y: &mut [f32]) {
            let data = self.0.as_slice();
            y.fill(0.0);
            for i in 0..self.dim() {
                let base = i * (i + 1) / 2;
                let mut acc = 0.0f32;
                for j in 0..i {
                    let a = data[base + j].to_f32();
                    acc += a * x[j];
                    y[j] += a * x[i];
                }
                y[i] += acc + data[base + i].to_f32() * x[i];
            }
        }
    }

    /// One sweep of the default solver (CG, FP16 storage) written out from
    /// the reference pieces: `hermitian_row_reference`, `bias_row`, the
    /// FP16 overflow guard, and CG over [`FusedF16`], warm-started from
    /// `old`.
    fn reference_sweep(
        r: &CsrMatrix,
        features: &DenseMatrix,
        old: &DenseMatrix,
        lambda: f32,
        fs: usize,
        tolerance: f32,
    ) -> DenseMatrix {
        let f = features.cols();
        let mut out = DenseMatrix::zeros(r.rows(), f);
        for u in 0..r.rows() {
            let cols = r.row_cols(u);
            if cols.is_empty() {
                continue;
            }
            let mut a =
                crate::kernels::hermitian::hermitian_row_reference(cols, features, lambda, f);
            let mut b = vec![0.0f32; f];
            bias_row(cols, r.row_values(u), features, &mut b);
            let amax = a.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            if amax > 3.0e4 {
                let s = amax / 1.0e4;
                a.as_mut_slice().iter_mut().for_each(|v| *v /= s);
                b.iter_mut().for_each(|v| *v /= s);
            }
            let x = out.row_mut(u);
            x.copy_from_slice(old.row(u));
            cumf_numeric::cg::cg_solve(&FusedF16(a.to_f16()), x, &b, fs, tolerance);
        }
        out
    }

    #[test]
    fn two_epochs_match_a_reference_sweep_bit_for_bit() {
        let data = tiny();
        let mut cfg = fast_config(&data, SolverKind::cumf_default());
        // Odd f: partial register tiles; BIN 5: rows span several batches.
        cfg.f = 19;
        cfg.bin = 5;
        let SolverKind::Cg { fs, tolerance, .. } = cfg.solver else {
            unreachable!("the default solver is CG")
        };
        let mut t = AlsTrainer::new(&data, cfg.clone(), GpuSpec::maxwell_titan_x(), 1);
        let (mut x, mut theta) = (t.x.clone(), t.theta.clone());
        for _ in 0..2 {
            t.run_epoch();
            x = reference_sweep(&data.r, &theta, &x, cfg.lambda, fs, tolerance);
            theta = reference_sweep(&data.rt, &x, &theta, cfg.lambda, fs, tolerance);
        }
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&t.x), bits(&x), "user factors");
        assert_eq!(bits(&t.theta), bits(&theta), "item factors");
    }

    /// One sweep solved row by row with `solve_row_with`, and the counts
    /// a [`SolverRecord`] reports for it.
    fn per_row_sweep(
        r: &CsrMatrix,
        features: &DenseMatrix,
        old: &DenseMatrix,
        cfg: &AlsConfig,
    ) -> (DenseMatrix, SweepCounts) {
        let f = cfg.f;
        let shape = HermitianShape {
            f,
            bin: cfg.bin,
            tile: cfg.tile,
        };
        let mut out = DenseMatrix::zeros(r.rows(), f);
        let mut counts = SweepCounts {
            rows: r.rows() as u64,
            ..SweepCounts::default()
        };
        let (mut a, mut staging, mut b) = (SymPacked::zeros(f), Vec::new(), vec![0.0f32; f]);
        let mut scratch = crate::kernels::solve::SolveScratch::new(f);
        for u in 0..r.rows() {
            let cols = r.row_cols(u);
            if cols.is_empty() {
                continue;
            }
            hermitian_row(cols, features, cfg.lambda, &shape, &mut staging, &mut a);
            bias_row(cols, r.row_values(u), features, &mut b);
            let x = out.row_mut(u);
            x.copy_from_slice(old.row(u));
            let stats = crate::kernels::solve::solve_row_with(&cfg.solver, &a, x, &b, &mut scratch);
            counts.add(stats);
        }
        (out, counts)
    }

    /// The trainer's lane-batched sweep against a row-by-row one, on a
    /// dataset whose user and item counts (600 and 200) are not
    /// multiples of the lane group and whose empty rows and columns
    /// shift every group boundary: the same factor bits, the same mean
    /// CG iterations, and the same converged and capped counts, for the
    /// default FP16 CG, FP32 CG and a direct solver.
    #[test]
    fn batched_epochs_match_a_per_row_sweep() {
        let mut data = tiny();
        let kept: Vec<_> = data
            .train_coo
            .entries()
            .iter()
            .copied()
            .filter(|e| e.row % 7 != 3 && e.col % 11 != 5)
            .collect();
        let coo = cumf_sparse::coo::CooMatrix::from_entries(data.m(), data.n(), kept);
        data.r = CsrMatrix::from_coo(&coo);
        data.rt = CsrMatrix::from_coo(&coo.transpose());
        assert!(!data.m().is_multiple_of(16) && !data.n().is_multiple_of(16));
        assert!(data.r.row_cols(3).is_empty() && data.rt.row_cols(5).is_empty());
        let solvers = [
            SolverKind::cumf_default(),
            SolverKind::Cg {
                fs: 6,
                tolerance: 1e-3,
                precision: Precision::Fp32,
            },
            SolverKind::BatchCholesky,
        ];
        for solver in solvers {
            let mut cfg = fast_config(&data, solver);
            cfg.f = 21;
            let recorder = cumf_telemetry::MemoryRecorder::new();
            let mut t = AlsTrainer::with_recorder(
                &data,
                cfg.clone(),
                GpuSpec::maxwell_titan_x(),
                1,
                &recorder,
            );
            let (mut x, mut theta) = (t.x.clone(), t.theta.clone());
            for epoch in 0..2 {
                let (_, mean_cg) = t.run_epoch();
                let (nx, cx) = per_row_sweep(&data.r, &theta, &x, &cfg);
                let (nt, ct) = per_row_sweep(&data.rt, &nx, &theta, &cfg);
                (x, theta) = (nx, nt);
                let bits =
                    |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&t.x), bits(&x), "{solver:?} epoch {epoch}: X");
                assert_eq!(bits(&t.theta), bits(&theta), "{solver:?} epoch {epoch}: Θ");
                let mean = |c: &SweepCounts| c.total_cg_iters as f64 / c.rows as f64;
                assert_eq!(mean_cg, (mean(&cx) + mean(&ct)) / 2.0, "{solver:?}");
                let records: Vec<_> = recorder
                    .take_events()
                    .into_iter()
                    .filter_map(|e| match e {
                        cumf_telemetry::Event::Solver { record } => Some(record),
                        _ => None,
                    })
                    .collect();
                assert_eq!(records.len(), 2);
                for (rec, want) in records.iter().zip([cx, ct]) {
                    let got = SweepCounts {
                        rows: rec.rows,
                        total_cg_iters: want.total_cg_iters,
                        max_cg_iters: rec.max_cg_iters as u64,
                        rows_converged: rec.rows_converged,
                        rows_capped: rec.rows_iteration_capped,
                    };
                    assert_eq!(got, want, "{solver:?} epoch {epoch} side {}", rec.side);
                    if matches!(solver, SolverKind::Cg { .. }) {
                        assert_eq!(rec.total_cg_iters, want.total_cg_iters);
                    }
                }
            }
        }
    }

    #[test]
    fn objective_monotone_under_exact_solver() {
        let data = tiny();
        let config = fast_config(&data, SolverKind::BatchCholesky);
        let mut t = AlsTrainer::new(&data, config, GpuSpec::maxwell_titan_x(), 1);
        let mut prev = f64::INFINITY;
        for _ in 0..4 {
            t.run_epoch();
            let obj = crate::metrics::training_objective(&data.r, &t.x, &t.theta, 0.05);
            assert!(obj <= prev * (1.0 + 1e-6), "objective rose: {prev} → {obj}");
            prev = obj;
        }
    }

    #[test]
    fn cg_and_direct_converge_to_similar_rmse() {
        // Solution 3's claim: truncated CG does not hurt ALS convergence.
        let data = tiny();
        let spec = GpuSpec::maxwell_titan_x();
        let mut exact = AlsTrainer::new(
            &data,
            fast_config(&data, SolverKind::BatchCholesky),
            spec.clone(),
            1,
        );
        let mut approx = AlsTrainer::new(
            &data,
            fast_config(
                &data,
                SolverKind::Cg {
                    fs: 4,
                    tolerance: 1e-4,
                    precision: Precision::Fp32,
                },
            ),
            spec,
            1,
        );
        let re = exact.train();
        let ra = approx.train();
        assert!(
            (re.final_rmse() - ra.final_rmse()).abs() < 0.05,
            "exact {} vs cg {}",
            re.final_rmse(),
            ra.final_rmse()
        );
    }

    #[test]
    fn fp16_matches_fp32_convergence() {
        let data = tiny();
        let spec = GpuSpec::pascal_p100();
        let cg32 = SolverKind::Cg {
            fs: 6,
            tolerance: 1e-4,
            precision: Precision::Fp32,
        };
        let cg16 = SolverKind::Cg {
            fs: 6,
            tolerance: 1e-4,
            precision: Precision::Fp16,
        };
        let r32 = AlsTrainer::new(&data, fast_config(&data, cg32), spec.clone(), 1).train();
        let r16 = AlsTrainer::new(&data, fast_config(&data, cg16), spec, 1).train();
        assert!((r32.final_rmse() - r16.final_rmse()).abs() < 0.05);
    }

    #[test]
    fn simulated_time_uses_full_scale_profile() {
        // Tiny synthetic instance, but per-epoch time must reflect Netflix's
        // 99M ratings: well over 100 ms per epoch on Maxwell.
        let data = tiny();
        let mut cfg = fast_config(&data, SolverKind::cumf_default());
        cfg.f = 100;
        let mut t = AlsTrainer::new(&data, cfg, GpuSpec::maxwell_titan_x(), 1);
        let (phases, _) = t.run_epoch();
        assert!(phases.total() > 0.1, "epoch priced at {}", phases.total());
        assert!(phases.total() < 100.0);
    }

    #[test]
    fn pascal_is_faster_than_kepler() {
        let data = tiny();
        let cfg = fast_config(&data, SolverKind::cumf_default());
        let (pk, _) = AlsTrainer::new(&data, cfg.clone(), GpuSpec::kepler_k40(), 1).run_epoch();
        let (pp, _) = AlsTrainer::new(&data, cfg, GpuSpec::pascal_p100(), 1).run_epoch();
        assert!(pp.total() < pk.total());
    }

    #[test]
    fn multi_gpu_divides_compute_and_adds_comm() {
        let data = tiny();
        let cfg = fast_config(&data, SolverKind::cumf_default());
        let (p1, _) = AlsTrainer::new(&data, cfg.clone(), GpuSpec::pascal_p100(), 1).run_epoch();
        let (p4, _) = AlsTrainer::new(&data, cfg, GpuSpec::pascal_p100(), 4).run_epoch();
        assert_eq!(p1.comm, 0.0);
        assert!(p4.comm > 0.0);
        assert!(
            p4.compute < p1.compute / 3.0,
            "compute should split ~4 ways"
        );
    }

    #[test]
    fn early_stop_at_target() {
        let data = tiny();
        let mut cfg = fast_config(&data, SolverKind::cumf_default());
        cfg.iterations = 30;
        cfg.rmse_target = Some(1.0); // loose target reached quickly
        let mut t = AlsTrainer::new(&data, cfg, GpuSpec::maxwell_titan_x(), 1);
        let report = t.train();
        assert!(report.time_to_target.is_some());
        assert!(report.epochs.len() < 30, "should stop early");
        assert_eq!(report.time_to_target, report.curve.time_to_rmse(1.0));
    }

    #[test]
    fn hugewiki_does_not_fit_one_maxwell() {
        // Table III motivation for 4 GPUs on Hugewiki.
        let data = MfDataset::hugewiki(SizeClass::Tiny, 1);
        let cfg = AlsConfig {
            f: 100,
            iterations: 1,
            ..AlsConfig::for_profile(&data.profile)
        };
        let t1 = AlsTrainer::new(&data, cfg.clone(), GpuSpec::maxwell_titan_x(), 1);
        assert!(t1.device_bytes_per_gpu() > GpuSpec::maxwell_titan_x().dram_capacity);
        let t4 = AlsTrainer::new(&data, cfg, GpuSpec::maxwell_titan_x(), 4);
        assert!(t4.device_bytes_per_gpu() < GpuSpec::maxwell_titan_x().dram_capacity);
    }
}
