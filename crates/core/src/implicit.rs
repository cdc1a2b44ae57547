//! Implicit-feedback matrix factorization (§V-F) — the Hu–Koren–Volinsky
//! one-class model the paper extends cuMF_ALS to.
//!
//! Observations become binary preferences `p_uv = 1 iff r_uv > 0` with
//! confidences `c_uv = 1 + α·r_uv`; *every* unobserved cell is a zero-
//! preference observation with confidence 1, so `P` is dense and SGD becomes
//! hopeless (`Nz = m·n`) — the paper's argument for why ALS wins here.
//!
//! ALS stays tractable through the classic Gram trick:
//!
//! ```text
//! A_u = ΘᵀΘ + Σ_{v: r_uv>0} (c_uv − 1)·θ_v θ_vᵀ + λI
//! b_u = Σ_{v: r_uv>0} c_uv · θ_v
//! ```
//!
//! `ΘᵀΘ` is computed once per sweep (`O(n f²)`), after which each row costs
//! only its observed non-zeros — the same complexity class as explicit ALS.

use crate::als::solver_kernel_name;
use crate::config::{Precision, SolverKind};
use crate::kernels::solve::{solve_cost, solve_row_with, SolveScratch};
use cumf_datasets::MfDataset;
use cumf_gpu_sim::kernel::{hermitian_pipe_efficiency, launch_time, KernelCost, LaunchTiming};
use cumf_gpu_sim::occupancy::{occupancy, KernelResources};
use cumf_gpu_sim::timeline::SimClock;
use cumf_gpu_sim::GpuSpec;
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::stats::XorShift64;
use cumf_numeric::sym::{packed_len, SymPacked};
use cumf_sparse::CsrMatrix;
use cumf_telemetry::{KernelLaunchRecord, PhaseSpan, Recorder, NOOP};

/// Configuration of the implicit-feedback trainer.
#[derive(Clone, Debug)]
pub struct ImplicitAlsConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Regularization λ.
    pub lambda: f32,
    /// Confidence scale α in `c_uv = 1 + α·r_uv` (40 in the original paper).
    pub alpha: f32,
    /// Sweeps to run.
    pub iterations: usize,
    /// Per-row solver (CG by default — exactly where the approximate solver
    /// shines, since `A_u` is dense here).
    pub solver: SolverKind,
    /// Seed for factor initialization.
    pub seed: u64,
}

impl Default for ImplicitAlsConfig {
    fn default() -> Self {
        ImplicitAlsConfig {
            f: 100,
            lambda: 0.05,
            alpha: 40.0,
            iterations: 10,
            solver: SolverKind::Cg {
                fs: 6,
                tolerance: 1e-4,
                precision: Precision::Fp32,
            },
            seed: 7,
        }
    }
}

/// One sweep's record.
#[derive(Clone, Copy, Debug)]
pub struct ImplicitEpochReport {
    /// 1-based sweep number.
    pub epoch: u32,
    /// Cumulative simulated time.
    pub sim_time: f64,
    /// The weighted one-class objective (should fall monotonically-ish).
    pub objective: f64,
}

/// The implicit-feedback ALS trainer.
pub struct ImplicitAlsTrainer<'a> {
    data: &'a MfDataset,
    config: ImplicitAlsConfig,
    spec: GpuSpec,
    /// User factors.
    pub x: DenseMatrix,
    /// Item factors.
    pub theta: DenseMatrix,
    clock: SimClock,
    recorder: &'a dyn Recorder,
}

impl<'a> ImplicitAlsTrainer<'a> {
    /// Create a trainer; ratings in `data` are reinterpreted as implicit
    /// counts (any positive value = an interaction).
    pub fn new(data: &'a MfDataset, config: ImplicitAlsConfig, spec: GpuSpec) -> Self {
        let f = config.f;
        let mut rng = XorShift64::new(config.seed);
        let mut x = DenseMatrix::zeros(data.m(), f);
        let mut theta = DenseMatrix::zeros(data.n(), f);
        let s = 0.1 / (f as f32).sqrt();
        x.fill_with(|| rng.next_f32() * s);
        theta.fill_with(|| rng.next_f32() * s);
        ImplicitAlsTrainer {
            data,
            config,
            spec,
            x,
            theta,
            clock: SimClock::new(),
            recorder: &NOOP,
        }
    }

    /// Attach a telemetry recorder; each sweep then emits a phase span and
    /// kernel records for the Gram/row-update compute and the batched solve.
    /// Recording never changes the simulated times.
    pub fn set_recorder(&mut self, recorder: &'a dyn Recorder) {
        self.recorder = recorder;
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Run all sweeps, recording objective and simulated time per sweep.
    pub fn train(&mut self) -> Vec<ImplicitEpochReport> {
        (1..=self.config.iterations as u32)
            .map(|epoch| {
                self.run_epoch();
                ImplicitEpochReport {
                    epoch,
                    sim_time: self.clock.now(),
                    objective: self.objective(),
                }
            })
            .collect()
    }

    /// One full sweep: update X from Θ, then Θ from X.
    pub fn run_epoch(&mut self) {
        let t0 = self.clock.now();
        let new_x = self.update_factors(&self.data.r, &self.theta, &self.x);
        self.x = new_x;
        let new_t = self.update_factors(&self.data.rt, &self.x, &self.theta);
        self.theta = new_t;
        let t = self.epoch_sim_time();
        self.clock.advance("implicit-epoch", t);
        if self.recorder.enabled() {
            self.emit_epoch_telemetry(t0);
        }
    }

    /// Telemetry for one sweep: the Gram/row-update compute and the batched
    /// solve as kernel records (their costs recomputed exactly as
    /// [`ImplicitAlsTrainer::epoch_sim_time`] prices them, so the two launch
    /// durations sum to the advanced epoch time), under an
    /// `implicit-epoch` phase span.
    fn emit_epoch_telemetry(&self, t0: f64) {
        let p = &self.data.profile;
        let f = self.config.f as u64;
        let spec = &self.spec;
        let occ = occupancy(
            spec,
            &KernelResources {
                regs_per_thread: 64,
                threads_per_block: 128,
                shared_mem_per_block: 0,
            },
        );
        let gram_flops = 2.0 * (p.n + p.m) as f64 * packed_len(f as usize) as f64;
        let row_flops = 2.0 * 2.0 * p.nz as f64 * packed_len(f as usize) as f64;
        let eff = hermitian_pipe_efficiency(spec);
        let compute = (gram_flops + row_flops) / (spec.peak_fp32_flops * eff);
        let compute_cost = KernelCost::compute_only(gram_flops + row_flops, eff);
        let compute_timing = LaunchTiming {
            compute_time: compute,
            dram_time: 0.0,
            l2_time: 0.0,
            latency_time: 0.0,
            time: compute,
        };
        self.recorder.kernel(KernelLaunchRecord::new(
            "implicit_gram_update",
            spec,
            occ,
            compute_cost,
            compute_timing,
            t0,
            p.m + p.n,
            128,
        ));
        let scost = solve_cost(spec, &self.config.solver, p.m + p.n, f, 6.0, false);
        let stiming = launch_time(spec, &occ, &scost);
        self.recorder.kernel(KernelLaunchRecord::new(
            solver_kernel_name(&self.config.solver),
            spec,
            occ,
            scost,
            stiming,
            t0 + compute,
            p.m + p.n,
            128,
        ));
        self.recorder
            .phase(PhaseSpan::new("implicit-epoch", t0, self.clock.now()));
    }

    /// Simulated time of one sweep at full-scale profile dimensions.
    pub fn epoch_sim_time(&self) -> f64 {
        let p = &self.data.profile;
        let f = self.config.f as u64;
        let spec = &self.spec;
        let occ = occupancy(
            spec,
            &KernelResources {
                regs_per_thread: 64,
                threads_per_block: 128,
                shared_mem_per_block: 0,
            },
        );
        // Gram precomputes: ΘᵀΘ and XᵀX.
        let gram_flops = 2.0 * (p.n + p.m) as f64 * packed_len(f as usize) as f64;
        // Per-row confidence updates: like get_hermitian over Nz, twice.
        let row_flops = 2.0 * 2.0 * p.nz as f64 * packed_len(f as usize) as f64;
        let compute =
            (gram_flops + row_flops) / (spec.peak_fp32_flops * hermitian_pipe_efficiency(spec));
        // Solves for all m + n rows.
        let solve = launch_time(
            spec,
            &occ,
            &solve_cost(spec, &self.config.solver, p.m + p.n, f, 6.0, false),
        )
        .time;
        compute + solve
    }

    /// Update one side's factors given the other side's (`features`).
    fn update_factors(
        &self,
        r: &CsrMatrix,
        features: &DenseMatrix,
        old: &DenseMatrix,
    ) -> DenseMatrix {
        let f = self.config.f;
        let lambda = self.config.lambda;
        let alpha = self.config.alpha;
        let solver = self.config.solver;

        // Gram base: G = Σ_v θ_v θ_vᵀ over ALL feature rows (dense part of
        // the one-class loss), computed once per sweep.
        let gram = gram(features);

        let mut out = DenseMatrix::zeros(r.rows(), f);
        let (mut a, mut b, mut scratch) =
            (SymPacked::zeros(f), vec![0.0f32; f], SolveScratch::new(f));
        for (u, row) in out.as_mut_slice().chunks_mut(f).enumerate() {
            a.as_mut_slice().copy_from_slice(gram.as_slice());
            b.fill(0.0);
            for (v, rv) in r.row_iter(u) {
                let c_minus_1 = alpha * rv.max(0.0);
                a.syr_scaled(c_minus_1, features.row(v as usize));
                cumf_numeric::dense::axpy(1.0 + c_minus_1, features.row(v as usize), &mut b);
            }
            a.add_diagonal(lambda);
            row.copy_from_slice(old.row(u));
            solve_row_with(&solver, &a, row, &b, &mut scratch);
        }
        out
    }

    /// The one-class weighted objective
    /// `Σ_{u,v} c_uv (p_uv − x_uᵀθ_v)² + λ(‖X‖² + ‖Θ‖²)`, computed without
    /// materializing the dense sum via the Gram identity:
    /// `Σ_{all v} (x_uᵀθ_v)² = x_uᵀ (ΘᵀΘ) x_u`.
    pub fn objective(&self) -> f64 {
        let f = self.config.f;
        let gram = gram(&self.theta);
        let dense_part: f64 = (0..self.x.rows())
            .map(|u| {
                let xu = self.x.row(u);
                let mut gx = vec![0.0f32; f];
                gram.matvec(xu, &mut gx);
                cumf_numeric::dense::dot_f64(xu, &gx)
            })
            .sum();
        // Correction on observed cells: c(1 − s)² − s² where s = x·θ.
        let correction: f64 = (0..self.data.r.rows())
            .map(|u| {
                let xu = self.x.row(u);
                let mut acc = 0.0f64;
                for (v, rv) in self.data.r.row_iter(u) {
                    let s = cumf_numeric::dense::dot(xu, self.theta.row(v as usize)) as f64;
                    let c = 1.0 + self.config.alpha as f64 * rv.max(0.0) as f64;
                    acc += c * (1.0 - s) * (1.0 - s) - s * s;
                }
                acc
            })
            .sum();
        let reg = self.config.lambda as f64
            * (cumf_numeric::dense::dot_f64(self.x.as_slice(), self.x.as_slice())
                + cumf_numeric::dense::dot_f64(self.theta.as_slice(), self.theta.as_slice()));
        dense_part + correction + reg
    }
}

/// `ΘᵀΘ = Σ_v θ_v θ_vᵀ` over every row of `features`, in row order.
fn gram(features: &DenseMatrix) -> SymPacked {
    let mut g = SymPacked::zeros(features.cols());
    for v in 0..features.rows() {
        g.syr(features.row(v));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_datasets::SizeClass;

    fn tiny() -> MfDataset {
        MfDataset::netflix(SizeClass::Tiny, 5)
    }

    fn cfg(f: usize, iterations: usize) -> ImplicitAlsConfig {
        ImplicitAlsConfig {
            f,
            iterations,
            alpha: 10.0,
            ..Default::default()
        }
    }

    #[test]
    fn objective_decreases_over_sweeps() {
        let data = tiny();
        let mut t = ImplicitAlsTrainer::new(&data, cfg(8, 4), GpuSpec::maxwell_titan_x());
        let reports = t.train();
        assert_eq!(reports.len(), 4);
        for w in reports.windows(2) {
            assert!(
                w[1].objective <= w[0].objective * 1.001,
                "objective rose: {} → {}",
                w[0].objective,
                w[1].objective
            );
        }
    }

    #[test]
    fn observed_cells_predict_high() {
        let data = tiny();
        let mut t = ImplicitAlsTrainer::new(&data, cfg(8, 5), GpuSpec::maxwell_titan_x());
        t.train();
        // Mean prediction on observed interactions should be well above the
        // global mean prediction (pulled toward 1 by high confidence).
        let mut obs_sum = 0.0f64;
        let mut obs_n = 0usize;
        for u in 0..data.m() {
            for (v, _) in data.r.row_iter(u) {
                obs_sum += crate::metrics::predict(t.x.row(u), t.theta.row(v as usize)) as f64;
                obs_n += 1;
            }
        }
        let obs_mean = obs_sum / obs_n as f64;
        assert!(obs_mean > 0.4, "observed-cell mean prediction {obs_mean}");
    }

    #[test]
    fn closed_form_matches_tiny_dense_solution() {
        // On a 3×2 toy problem, compare update_factors against the dense
        // normal-equations solution computed by brute force.
        use cumf_sparse::coo::CooMatrix;
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 0, 3.0);
        let _r = CsrMatrix::from_coo(&coo);
        let data = tiny(); // only used for the trainer scaffold
        let config = cfg(2, 1);
        let t = ImplicitAlsTrainer::new(&data, config.clone(), GpuSpec::maxwell_titan_x());

        let theta = DenseMatrix::from_vec(2, 2, vec![0.3, 0.1, 0.2, 0.4]);
        let old = DenseMatrix::zeros(3, 2);
        let r = CsrMatrix::from_coo(&coo);
        let got = {
            // Use the private path through a fresh trainer-less call.
            let tt = ImplicitAlsTrainer {
                data: t.data,
                config: config.clone(),
                spec: t.spec.clone(),
                x: old.clone(),
                theta: theta.clone(),
                clock: SimClock::new(),
                recorder: &NOOP,
            };
            tt.update_factors(&r, &theta, &old)
        };
        // Brute force for row 0: A = ΘᵀΘ + α·2·θ₀θ₀ᵀ + λI, b = (1+α·2)θ₀.
        let alpha = config.alpha;
        let lambda = config.lambda;
        let mut a = SymPacked::zeros(2);
        a.syr(theta.row(0));
        a.syr(theta.row(1));
        a.syr_scaled(alpha * 2.0, theta.row(0));
        a.add_diagonal(lambda);
        let mut b = vec![0.0f32; 2];
        cumf_numeric::dense::axpy(1.0 + alpha * 2.0, theta.row(0), &mut b);
        let expect = cumf_numeric::cholesky::cholesky_solve(&a, &b).unwrap();
        for (j, &ev) in expect.iter().enumerate().take(2) {
            assert!(
                (got.get(0, j) - ev).abs() < 1e-3,
                "j={j}: {} vs {}",
                got.get(0, j),
                ev
            );
        }
    }

    #[test]
    fn per_iteration_time_in_figure_ballpark() {
        // §V-F: cuMFALS ≈ 2.2 s per implicit iteration on Netflix.
        let data = tiny();
        let t = ImplicitAlsTrainer::new(
            &data,
            ImplicitAlsConfig::default(),
            GpuSpec::maxwell_titan_x(),
        );
        let time = t.epoch_sim_time();
        assert!(time > 0.5 && time < 8.0, "implicit epoch priced at {time}s");
    }
}
