//! The batched `solve` step (§IV): exact LU / Cholesky, or the paper's
//! approximate CG with optional FP16 storage.
//!
//! Functionally, each row's SPD system `A_u x_u = b_u` is solved
//! independently. The GPU batches them across blocks; the trainer
//! batches the CG solves across SIMD lanes, sixteen rows per
//! [`SolveBatch`], each lane bit-identical to [`solve_row_with`] on its
//! row. Fold-in (`fold_in_batch`), the implicit trainer and the direct
//! solvers solve one row at a time. The cost side reproduces Figure 5: exact solvers
//! are compute-bound `O(f³)` per row; CG is memory-bound at `fs` reads of
//! `A_u` per row, and FP16 storage halves those bytes.

use crate::config::{Precision, SolverKind};
use cumf_gpu_sim::kernel::{KernelCost, LU_BATCHED_PIPE_EFFICIENCY};
use cumf_gpu_sim::memory::STREAM_READ_EFFICIENCY;
use cumf_gpu_sim::GpuSpec;
use cumf_numeric::cg::{
    cg_solve_in, cg_solve_lanes, CgLaneScratch, CgOutcome, CgScratch, CG_LANES,
};
use cumf_numeric::cholesky::cholesky_solve;
use cumf_numeric::f16::{narrow_slice, widen_slice, F16};
use cumf_numeric::kernel::widen_interleave;
use cumf_numeric::lu::{lu_flops, lu_solve};
use cumf_numeric::sym::{packed_len, SymPacked, SymPackedF16};

/// Outcome of one row's solve — the trainer averages `iterations` across
/// rows to feed the cost model the *actual* CG work done.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// CG iterations spent (direct solvers report the dimension `f`).
    pub iterations: usize,
    /// Whether the solve hit its tolerance (always true for direct).
    pub converged: bool,
}

/// Observability capture of one traced row solve: the CG residual
/// trajectory and, for FP16 solves, round-trip error statistics of the
/// narrowed Gram matrix. Filled by [`solve_row_traced`]; `solve_row` skips
/// it entirely.
#[derive(Clone, Debug, Default)]
pub struct SolveTrace {
    /// Residual norms: one before the first CG iteration, one per
    /// iteration. Empty for direct solves.
    pub residuals: Vec<f64>,
    /// RMS of `|a_ij − fp32(fp16(a_ij))|` over the Gram entries (0 unless
    /// the solve narrowed to FP16).
    pub fp16_roundtrip_rms: f64,
    /// Max of the same round-trip error.
    pub fp16_roundtrip_max: f64,
}

/// Per-row solve buffers kept across rows: the FP16 copy of `A_u`, the
/// FP32 matrix the FP16 CG runs on (first the rescaled system of the
/// overflow guard, then the widened FP16 copy), and the CG work vectors.
/// A caller keeps one across its rows (the implicit trainer,
/// `FoldInScratch` and [`SolveBatch`] each hold one), so the solve
/// allocates nothing per row. Every buffer is overwritten before it is
/// read: reuse never changes a bit.
#[derive(Clone, Debug)]
pub struct SolveScratch {
    a16: SymPackedF16,
    scaled: SymPacked,
    b_scaled: Vec<f32>,
    cg: CgScratch,
}

impl SolveScratch {
    /// Buffers for systems of dimension `f`.
    pub fn new(f: usize) -> SolveScratch {
        SolveScratch {
            a16: SymPackedF16::zeros(f),
            scaled: SymPacked::zeros(f),
            b_scaled: vec![0.0; f],
            cg: CgScratch::default(),
        }
    }
}

/// Solve `A x = b` for one row, warm-starting CG from the incoming `x`.
///
/// Returns the per-row stats. Falls back from a failed direct factorization
/// (numerically semidefinite `A_u` on a nearly-empty row) to CG, which
/// handles semidefiniteness gracefully — the same guard the CUDA batched
/// solver implements via info codes. Allocates its buffers; loops over
/// rows call [`solve_row_with`] instead.
pub fn solve_row(solver: &SolverKind, a: &SymPacked, x: &mut [f32], b: &[f32]) -> SolveStats {
    solve_row_with(solver, a, x, b, &mut SolveScratch::new(a.dim()))
}

/// [`solve_row`] on reusable buffers — bit-identical to it.
///
/// Panics if `scratch` was sized for a different dimension.
pub fn solve_row_with(
    solver: &SolverKind,
    a: &SymPacked,
    x: &mut [f32],
    b: &[f32],
    scratch: &mut SolveScratch,
) -> SolveStats {
    assert_eq!(
        scratch.a16.dim(),
        a.dim(),
        "solve scratch sized for another f"
    );
    solve_row_impl(solver, a, x, b, None, scratch)
}

/// [`solve_row`] plus telemetry capture: CG residual trajectories and FP16
/// round-trip error statistics land in `trace`. The solve arithmetic is
/// identical to the untraced path.
pub fn solve_row_traced(
    solver: &SolverKind,
    a: &SymPacked,
    x: &mut [f32],
    b: &[f32],
    trace: &mut SolveTrace,
) -> SolveStats {
    let mut scratch = SolveScratch::new(a.dim());
    solve_row_impl(solver, a, x, b, Some(trace), &mut scratch)
}

fn fp16_roundtrip_stats(original: &SymPacked, narrowed: &SymPackedF16, trace: &mut SolveTrace) {
    let mut sum_sq = 0.0f64;
    let mut max = 0.0f64;
    let n = original.as_slice().len().max(1);
    for (&v, h) in original.as_slice().iter().zip(narrowed.as_slice()) {
        let err = (v - h.to_f32()).abs() as f64;
        sum_sq += err * err;
        max = max.max(err);
    }
    trace.fp16_roundtrip_rms = (sum_sq / n as f64).sqrt();
    trace.fp16_roundtrip_max = max;
}

fn solve_row_impl(
    solver: &SolverKind,
    a: &SymPacked,
    x: &mut [f32],
    b: &[f32],
    mut trace: Option<&mut SolveTrace>,
    scratch: &mut SolveScratch,
) -> SolveStats {
    let f = a.dim();
    fn residuals<'t>(t: &'t mut Option<&mut SolveTrace>) -> Option<&'t mut Vec<f64>> {
        t.as_deref_mut().map(|t| &mut t.residuals)
    }
    let stats = |out: CgOutcome| SolveStats {
        iterations: out.iterations,
        converged: out.converged,
    };
    match solver {
        SolverKind::BatchCholesky => match cholesky_solve(a, b) {
            Ok(sol) => {
                x.copy_from_slice(&sol);
                SolveStats {
                    iterations: f,
                    converged: true,
                }
            }
            Err(_) => stats(cg_solve_in(a, x, b, f, 1e-6, None, &mut scratch.cg)),
        },
        SolverKind::BatchLu => match lu_solve(&a.to_dense(), b) {
            Ok(sol) => {
                x.copy_from_slice(&sol);
                SolveStats {
                    iterations: f,
                    converged: true,
                }
            }
            Err(_) => stats(cg_solve_in(a, x, b, f, 1e-6, None, &mut scratch.cg)),
        },
        SolverKind::Cg {
            fs,
            tolerance,
            precision,
        } => match precision {
            Precision::Fp32 => stats(cg_solve_in(
                a,
                x,
                b,
                *fs,
                *tolerance,
                residuals(&mut trace),
                &mut scratch.cg,
            )),
            Precision::Fp16 => {
                // Narrow A_u to half precision — the reduced-precision read
                // path of Solution 4. b and x stay FP32 (as on the GPU).
                let SolveScratch {
                    a16,
                    scaled,
                    b_scaled,
                    cg,
                } = scratch;
                let (narrowed, rhs) = match fp16_rescale(a, scaled) {
                    Some(s) => {
                        for (d, &v) in b_scaled.iter_mut().zip(b) {
                            *d = v / s;
                        }
                        (&*scaled, &b_scaled[..])
                    }
                    None => (a, b),
                };
                narrowed.to_f16_into(a16);
                if let Some(t) = trace.as_deref_mut() {
                    fp16_roundtrip_stats(narrowed, a16, t);
                }
                // Widen once and run the FP32 CG: widening is exact, so
                // these are the FP16 matrix's bits. The device re-reads
                // FP16 every iteration, which `solve_cost` prices.
                widen_slice(a16.as_slice(), scaled.as_mut_slice());
                stats(cg_solve_in(
                    &*scaled,
                    x,
                    rhs,
                    *fs,
                    *tolerance,
                    residuals(&mut trace),
                    cg,
                ))
            }
        },
    }
}

/// Up to [`CG_LANES`] rows' systems, solved together — the trainer's
/// solve step. With a CG solver the rows are the lanes of one
/// [`cg_solve_lanes`]: each row's FP16 narrowing, with its overflow
/// rescale, happens per row as in [`solve_row_with`], and the group's
/// widened `A_u` are interleaved element by element into the lane
/// layout, so every row gets the bits, the iteration count and the
/// convergence flag [`solve_row_with`] gives it. The direct solvers
/// keep the per-row path: [`SolveBatch::push`] solves their row at once.
///
/// The buffers are the group's: the FP16 copies of its `A_u`
/// ([`CG_LANES`] × `f(f+1)/2` binary16 values), their interleaved
/// widening (as many `f32`), one rescale buffer, and the interleaved
/// `x`, `b` and CG work vectors.
#[derive(Clone, Debug)]
pub struct SolveBatch {
    solver: SolverKind,
    f: usize,
    /// The caller's tag of each loaded lane, in lane order.
    tags: Vec<usize>,
    /// Lane `l`'s FP16 `A_u` at `l · f(f+1)/2` (FP16 CG only).
    a16: Vec<F16>,
    /// The overflow guard's rescaled `A_u` (FP16 CG only).
    scaled: SymPacked,
    /// The interleaved `A_u`, `x` and `b` of [`cg_solve_lanes`] (CG only).
    a: Vec<f32>,
    x: Vec<f32>,
    b: Vec<f32>,
    cg: CgLaneScratch,
    /// Direct solvers: each lane's stats, and the per-row buffers.
    direct: [SolveStats; CG_LANES],
    row: SolveScratch,
    /// One lane's solution, gathered for the caller.
    out: Vec<f32>,
}

impl SolveBatch {
    /// An empty batch of `solver` systems of dimension `f`.
    pub fn new(solver: &SolverKind, f: usize) -> SolveBatch {
        let (cg, half) = match solver {
            SolverKind::Cg { precision, .. } => (true, *precision == Precision::Fp16),
            _ => (false, false),
        };
        SolveBatch {
            solver: *solver,
            f,
            tags: Vec::with_capacity(CG_LANES),
            a16: vec![F16::ZERO; if half { CG_LANES * packed_len(f) } else { 0 }],
            scaled: SymPacked::zeros(if half { f } else { 0 }),
            a: vec![0.0; if cg { CG_LANES * packed_len(f) } else { 0 }],
            x: vec![0.0; CG_LANES * f],
            b: vec![0.0; if cg { CG_LANES * f } else { 0 }],
            cg: CgLaneScratch::default(),
            direct: [SolveStats::default(); CG_LANES],
            row: SolveScratch::new(if cg { 0 } else { f }),
            out: vec![0.0; f],
        }
    }

    /// Whether the batch holds [`CG_LANES`] rows, so the next
    /// [`SolveBatch::push`] needs a [`SolveBatch::solve`] first.
    pub fn is_full(&self) -> bool {
        self.tags.len() == CG_LANES
    }

    /// Load one row's system `a x = b`, warm-started from `x0`, as the
    /// next lane; `tag` comes back with its solution.
    ///
    /// Panics if the batch is full or a dimension is not `f`.
    pub fn push(&mut self, tag: usize, a: &SymPacked, b: &[f32], x0: &[f32]) {
        let (f, lane) = (self.f, self.tags.len());
        assert!(lane < CG_LANES, "solve batch is full");
        assert!(
            a.dim() == f && b.len() == f && x0.len() == f,
            "solve batch: dimension"
        );
        self.tags.push(tag);
        let SolverKind::Cg { precision, .. } = self.solver else {
            self.out.copy_from_slice(x0);
            self.direct[lane] = solve_row_with(&self.solver, a, &mut self.out, b, &mut self.row);
            for (i, &v) in self.out.iter().enumerate() {
                self.x[i * CG_LANES + lane] = v;
            }
            return;
        };
        let scale = match precision {
            Precision::Fp32 => {
                for (k, &v) in a.as_slice().iter().enumerate() {
                    self.a[k * CG_LANES + lane] = v;
                }
                None
            }
            Precision::Fp16 => {
                let scale = fp16_rescale(a, &mut self.scaled);
                let narrowed = if scale.is_some() { &self.scaled } else { a };
                let len = packed_len(f);
                narrow_slice(
                    narrowed.as_slice(),
                    &mut self.a16[lane * len..(lane + 1) * len],
                );
                scale
            }
        };
        for i in 0..f {
            self.x[i * CG_LANES + lane] = x0[i];
            self.b[i * CG_LANES + lane] = match scale {
                Some(s) => b[i] / s,
                None => b[i],
            };
        }
    }

    /// Solve the loaded rows and hand each one's tag, solution and stats
    /// to `out`, in load order; the batch is then empty.
    pub fn solve(&mut self, mut out: impl FnMut(usize, &[f32], SolveStats)) {
        let live = self.tags.len();
        if live == 0 {
            return;
        }
        let stats = match self.solver {
            SolverKind::Cg {
                fs,
                tolerance,
                precision,
            } => {
                if precision == Precision::Fp16 {
                    widen_interleave(&self.a16, &mut self.a);
                }
                let outcomes = cg_solve_lanes(
                    &self.a,
                    &mut self.x,
                    &self.b,
                    live,
                    fs,
                    tolerance,
                    &mut self.cg,
                );
                outcomes.map(|o| SolveStats {
                    iterations: o.iterations,
                    converged: o.converged,
                })
            }
            _ => self.direct,
        };
        for (lane, &tag) in self.tags.iter().enumerate() {
            for (i, v) in self.out.iter_mut().enumerate() {
                *v = self.x[i * CG_LANES + lane];
            }
            out(tag, &self.out, stats[lane]);
        }
        self.tags.clear();
    }
}

/// The FP16 overflow guard: binary16 tops out at 65504, and Gram
/// entries scale with n_u·r². Solving (A/s)·x = b/s is the same system,
/// so when `a`'s largest `|a_ij|` exceeds 3·10⁴ this writes `a / s`
/// into `scaled`, with `s = amax / 10⁴`, and returns `s`, by which the
/// caller divides `b` (the tolerance then applies to the scaled
/// residual, which only makes the stop criterion stricter). `None`:
/// `a` narrows as it is.
fn fp16_rescale(a: &SymPacked, scaled: &mut SymPacked) -> Option<f32> {
    let amax = abs_max(a.as_slice());
    if amax <= 3.0e4 {
        return None;
    }
    let s = amax / 1.0e4;
    for (d, &v) in scaled.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *d = v / s;
    }
    Some(s)
}

/// The largest `|v|` of `values`, NaNs skipped, at least `0.0` — the
/// FP16 overflow guard's `amax`. `f32::max` returns one of its
/// arguments and skips a NaN, and every `|v|` is `≥ +0.0`, so the
/// result does not depend on the order the values are met in: sixteen
/// running maxima, then their maximum, give the bits of one left-to-
/// right fold, in a loop that vectorizes.
fn abs_max(values: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 16];
    let (chunks, rest) = values.as_chunks::<16>();
    for c in chunks {
        for (m, &v) in lanes.iter_mut().zip(c) {
            *m = m.max(v.abs());
        }
    }
    rest.iter()
        .chain(&lanes)
        .fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Cost of a batched solve over `rows` systems of dimension `f`.
///
/// `mean_cg_iters` is the measured average CG iteration count (ignored for
/// direct solvers). The `l1_enabled` flag exists to answer the paper's
/// "does L1 benefit the CG solver?" question — it does not (coalesced
/// high-occupancy streams bypass it), so it deliberately has no effect,
/// matching the identical `solve-L1`/`solve-noL1` bars of Figure 5.
pub fn solve_cost(
    _spec: &GpuSpec,
    solver: &SolverKind,
    rows: u64,
    f: u64,
    mean_cg_iters: f64,
    l1_enabled: bool,
) -> KernelCost {
    let _ = l1_enabled;
    match solver {
        SolverKind::BatchLu | SolverKind::BatchCholesky => {
            let per_row_flops = 2.0 * lu_flops(f as usize) as f64;
            KernelCost {
                flops_fp32: rows as f64 * per_row_flops,
                flops_fp16: 0.0,
                dram_read_bytes: (rows * (f * f + f) * 4) as f64,
                dram_write_bytes: (rows * f * 4) as f64,
                l2_wire_bytes: (rows * (f * f + f) * 4) as f64,
                transactions: (rows * (f * f + f) * 4 / 128) as f64,
                mlp: 8.0,
                pipe_efficiency: LU_BATCHED_PIPE_EFFICIENCY,
            }
        }
        SolverKind::Cg { precision, .. } => {
            // Each CG iteration re-reads A_u (f² elements; the CUDA kernel
            // stores the full symmetric matrix for coalesced matvec rows),
            // plus the initial residual matvec.
            let reads = mean_cg_iters + 1.0;
            let elem_bytes = match precision {
                Precision::Fp32 => 4.0,
                Precision::Fp16 => 2.0,
            };
            let matrix_bytes = rows as f64 * (f * f) as f64 * elem_bytes * reads;
            let vector_bytes = rows as f64 * (f * 4) as f64 * reads * 4.0; // r, p, ap, x traffic
            let flops = rows as f64 * reads * 2.0 * (f * f) as f64;
            let (fp32, fp16) = match precision {
                Precision::Fp32 => (flops, 0.0),
                Precision::Fp16 => (0.0, flops),
            };
            KernelCost {
                flops_fp32: fp32,
                flops_fp16: fp16,
                dram_read_bytes: (matrix_bytes + vector_bytes) / STREAM_READ_EFFICIENCY.min(1.0),
                dram_write_bytes: (rows * f * 4) as f64,
                l2_wire_bytes: matrix_bytes + vector_bytes,
                transactions: (matrix_bytes + vector_bytes) / 128.0,
                mlp: 32.0,
                pipe_efficiency: 0.8,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_gpu_sim::occupancy::{occupancy, KernelResources};

    fn spd(dim: usize, seed: u64) -> SymPacked {
        let mut rng = cumf_numeric::stats::XorShift64::new(seed);
        let mut a = SymPacked::zeros(dim);
        for _ in 0..dim + 2 {
            let v: Vec<f32> = (0..dim).map(|_| rng.next_f32() - 0.5).collect();
            a.syr(&v);
        }
        a.add_diagonal(0.5);
        a
    }

    #[test]
    fn all_solvers_agree_on_spd_system() {
        let f = 10;
        let a = spd(f, 3);
        let b: Vec<f32> = (0..f).map(|i| (i as f32 - 4.0) * 0.2).collect();
        let solvers = [
            SolverKind::BatchLu,
            SolverKind::BatchCholesky,
            SolverKind::Cg {
                fs: 2 * f,
                tolerance: 1e-7,
                precision: Precision::Fp32,
            },
        ];
        let mut solutions = Vec::new();
        for s in &solvers {
            let mut x = vec![0.0f32; f];
            let stats = solve_row(s, &a, &mut x, &b);
            assert!(stats.converged, "{s:?}");
            solutions.push(x);
        }
        for sol in &solutions[1..] {
            for i in 0..f {
                assert!(
                    (sol[i] - solutions[0][i]).abs() < 1e-2,
                    "solver disagreement at {i}"
                );
            }
        }
    }

    #[test]
    fn fp16_solution_close_to_fp32() {
        let f = 12;
        let a = spd(f, 9);
        let b: Vec<f32> = (0..f).map(|i| ((i * 3) % 5) as f32 * 0.3 - 0.6).collect();
        let mut x32 = vec![0.0f32; f];
        let mut x16 = vec![0.0f32; f];
        solve_row(
            &SolverKind::Cg {
                fs: 24,
                tolerance: 1e-6,
                precision: Precision::Fp32,
            },
            &a,
            &mut x32,
            &b,
        );
        solve_row(
            &SolverKind::Cg {
                fs: 24,
                tolerance: 1e-6,
                precision: Precision::Fp16,
            },
            &a,
            &mut x16,
            &b,
        );
        for i in 0..f {
            assert!(
                (x32[i] - x16[i]).abs() < 0.05,
                "i={i}: {} vs {}",
                x32[i],
                x16[i]
            );
        }
    }

    #[test]
    fn fp16_overflow_guard_rescales() {
        // Gram entries far beyond f16's 65504 max: without rescaling the
        // narrowed matrix is +∞ and CG returns garbage.
        let f = 6;
        let mut a = spd(f, 4);
        for v in a.as_mut_slice() {
            *v *= 1.0e6;
        }
        let b: Vec<f32> = (0..f).map(|i| (i as f32 + 1.0) * 1.0e5).collect();
        let mut x16 = vec![0.0f32; f];
        solve_row(
            &SolverKind::Cg {
                fs: 2 * f,
                tolerance: 0.0,
                precision: Precision::Fp16,
            },
            &a,
            &mut x16,
            &b,
        );
        assert!(x16.iter().all(|v| v.is_finite()), "{x16:?}");
        let x_exact = cholesky_solve(&a, &b).unwrap();
        for i in 0..f {
            assert!(
                (x16[i] - x_exact[i]).abs() < 0.05 * x_exact[i].abs().max(0.01),
                "i={i}"
            );
        }
    }

    #[test]
    fn truncated_cg_reports_its_iterations() {
        let f = 20;
        let a = spd(f, 5);
        let b = vec![1.0f32; f];
        let mut x = vec![0.0f32; f];
        let stats = solve_row(
            &SolverKind::Cg {
                fs: 6,
                tolerance: 0.0,
                precision: Precision::Fp32,
            },
            &a,
            &mut x,
            &b,
        );
        assert_eq!(stats.iterations, 6);
        assert!(!stats.converged);
    }

    #[test]
    fn traced_solve_is_bit_identical_and_captures_fp16_error() {
        let f = 10;
        let a = spd(f, 6);
        let b: Vec<f32> = (0..f).map(|i| (i as f32) * 0.2 - 0.8).collect();
        for precision in [Precision::Fp32, Precision::Fp16] {
            let solver = SolverKind::Cg {
                fs: 8,
                tolerance: 1e-6,
                precision,
            };
            let mut x_plain = vec![0.0f32; f];
            let mut x_traced = vec![0.0f32; f];
            let mut trace = SolveTrace::default();
            let plain = solve_row(&solver, &a, &mut x_plain, &b);
            let traced = solve_row_traced(&solver, &a, &mut x_traced, &b, &mut trace);
            assert_eq!(
                x_plain, x_traced,
                "{precision:?}: tracing changed the solution"
            );
            assert_eq!(plain.iterations, traced.iterations);
            assert_eq!(trace.residuals.len(), traced.iterations + 1);
            match precision {
                Precision::Fp32 => assert_eq!(trace.fp16_roundtrip_rms, 0.0),
                Precision::Fp16 => {
                    assert!(trace.fp16_roundtrip_rms > 0.0);
                    assert!(trace.fp16_roundtrip_max >= trace.fp16_roundtrip_rms);
                    // Relative error of binary16 narrowing is ≤ 2⁻¹¹.
                    let amax = a.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs())) as f64;
                    assert!(trace.fp16_roundtrip_max <= amax * 5e-4);
                }
            }
        }
    }

    /// One scratch carried through a sequence of rows — FP16 with and
    /// without the overflow rescale, FP32 CG, and direct solves including
    /// a singular one that falls back to CG — gives each row the bits a
    /// fresh solve gives it.
    #[test]
    fn reused_scratch_is_bit_identical_to_a_fresh_solve() {
        let f = 9;
        let mut big = spd(f, 12);
        for v in big.as_mut_slice() {
            *v *= 1.0e6;
        }
        let rows = [spd(f, 10), big, spd(f, 11), SymPacked::zeros(f)];
        let solvers = [
            SolverKind::cumf_default(),
            SolverKind::Cg {
                fs: 6,
                tolerance: 1e-4,
                precision: Precision::Fp32,
            },
            SolverKind::BatchCholesky,
            SolverKind::BatchLu,
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = SolveScratch::new(f);
        for solver in &solvers {
            for (k, a) in rows.iter().enumerate() {
                let b: Vec<f32> = (0..f).map(|i| (i + k) as f32 * 0.3 - 1.0).collect();
                let mut x_fresh = vec![0.1f32; f];
                let mut x_reused = x_fresh.clone();
                let fresh = solve_row(solver, a, &mut x_fresh, &b);
                let reused = solve_row_with(solver, a, &mut x_reused, &b, &mut scratch);
                assert_eq!(bits(&x_fresh), bits(&x_reused), "{solver:?} row {k}");
                assert_eq!(fresh.iterations, reused.iterations);
                assert_eq!(fresh.converged, reused.converged);
            }
        }
    }

    /// The FP16 arm is FP32 CG on the widened narrowed matrix, bit for
    /// bit, with and without the overflow rescale.
    #[test]
    fn fp16_solve_is_fp32_cg_on_the_widened_matrix() {
        let f = 13;
        let mut big = spd(f, 14);
        for v in big.as_mut_slice() {
            *v *= 1.0e6;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (fs, tolerance) = (6, 1e-4);
        let solver = SolverKind::Cg {
            fs,
            tolerance,
            precision: Precision::Fp16,
        };
        let mut scratch = SolveScratch::new(f);
        for (a, rescaled) in [(spd(f, 13), false), (big, true)] {
            let b: Vec<f32> = (0..f).map(|i| i as f32 * 0.4 - 2.0).collect();
            // The solver's overflow rule: divide by amax/1e4 above 3e4.
            let amax = a.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            assert_eq!(amax > 3.0e4, rescaled);
            let (mut scaled, mut rhs) = (a.clone(), b.clone());
            if rescaled {
                let s = amax / 1.0e4;
                scaled.as_mut_slice().iter_mut().for_each(|v| *v /= s);
                rhs.iter_mut().for_each(|v| *v /= s);
            }
            let widened = scaled.to_f16().to_f32();
            let mut want = vec![0.2f32; f];
            let outcome = cg_solve_in(
                &widened,
                &mut want,
                &rhs,
                fs,
                tolerance,
                None,
                &mut CgScratch::default(),
            );
            let mut got = vec![0.2f32; f];
            let stats = solve_row_with(&solver, &a, &mut got, &b, &mut scratch);
            assert_eq!(bits(&got), bits(&want), "rescaled: {rescaled}");
            assert_eq!(stats.iterations, outcome.iterations);
        }
    }

    /// Row `k` of a lane group, cycling through every way a lane can
    /// stop and every input the per-row path treats specially: `b = 0`
    /// from `x = 0` (0 iterations), the zero matrix (`pAp = 0`), a
    /// negative-definite matrix (`pAp < 0`), Gram entries past the FP16
    /// overflow guard (the rescale runs in this lane only), NaN in `A`,
    /// +∞ in `b`, a −0.0 in the warm start, and small right-hand sides
    /// that converge after a few steps.
    fn group_row(f: usize, k: usize) -> (SymPacked, Vec<f32>, Vec<f32>) {
        let mut a = spd(f, 40 + k as u64);
        let mut b: Vec<f32> = (0..f).map(|i| ((i + k) % 5) as f32 * 0.4 - 0.8).collect();
        let mut x = vec![0.05f32 * k as f32; f];
        match k % 9 {
            0 => {
                b.fill(0.0);
                x.fill(0.0);
            }
            1 => a = SymPacked::zeros(f),
            2 => a.as_mut_slice().iter_mut().for_each(|v| *v = -v.abs()),
            3 => a.as_mut_slice().iter_mut().for_each(|v| *v *= 1.0e6),
            4 => a.as_mut_slice()[f] = f32::NAN,
            5 => b[1] = f32::INFINITY,
            6 => x[0] = -0.0,
            7 | 8 => {
                // A small residual that a few steps take below 1e-4 (row
                // 7) or 1e-3 (row 8).
                x.fill(0.0);
                let s = if k % 9 == 7 { 3e-4 } else { 3e-3 };
                b.iter_mut().for_each(|v| *v *= s);
            }
            _ => {}
        }
        (a, b, x)
    }

    /// A [`SolveBatch`] of 1 to 16 rows gives every row the bits and
    /// the stats [`solve_row_with`] gives it alone, for FP16 and FP32
    /// CG and for a direct solver; a NaN or ±∞ row leaves its
    /// neighbours' bits alone (its own solution is NaN in both, whose
    /// payload the two paths need not share). The batch is reused
    /// across groups, as the trainer reuses it.
    #[test]
    fn solve_batch_matches_solve_row_with_per_row() {
        let f = 13;
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let solvers = [
            SolverKind::cumf_default(),
            SolverKind::Cg {
                fs: 8,
                tolerance: 1e-3,
                precision: Precision::Fp16,
            },
            SolverKind::Cg {
                fs: 6,
                tolerance: 1e-4,
                precision: Precision::Fp32,
            },
            SolverKind::Cg {
                fs: 4,
                tolerance: 0.0,
                precision: Precision::Fp32,
            },
            SolverKind::BatchLu,
        ];
        for solver in &solvers {
            let mut batch = SolveBatch::new(solver, f);
            let mut exits = std::collections::BTreeSet::new();
            for live in 1..=CG_LANES {
                let rows: Vec<_> = (0..live).map(|k| group_row(f, k + live)).collect();
                for (k, (a, b, x)) in rows.iter().enumerate() {
                    batch.push(100 + k, a, b, x);
                }
                assert_eq!(batch.is_full(), live == CG_LANES);
                let mut seen = 0;
                batch.solve(|tag, x, stats| {
                    let k = tag - 100;
                    assert_eq!(k, seen, "rows come back in load order");
                    seen += 1;
                    let (a, b, x0) = &rows[k];
                    let mut want = x0.clone();
                    let alone = solve_row_with(solver, a, &mut want, b, &mut SolveScratch::new(f));
                    let at = format!("{solver:?}: {live} rows, row {k}");
                    assert!(x.iter().zip(&want).all(|(&g, &w)| same(g, w)), "{at}");
                    if want.iter().all(|v| v.is_finite()) {
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(x), bits(&want), "{at}");
                    }
                    assert_eq!(stats.iterations, alone.iterations, "{at}");
                    assert_eq!(stats.converged, alone.converged, "{at}");
                    exits.insert((stats.iterations, stats.converged));
                });
                assert_eq!(seen, live);
                batch.solve(|_, _, _| panic!("a solved batch is empty"));
            }
            if let SolverKind::Cg { fs, tolerance, .. } = solver {
                assert!(exits.contains(&(1, false)), "{solver:?}: {exits:?}");
                assert!(exits.contains(&(*fs, false)), "{solver:?}: {exits:?}");
                if *tolerance > 0.0 {
                    assert!(exits.contains(&(0, true)), "{solver:?}: {exits:?}");
                    assert!(
                        exits.iter().any(|&(i, c)| c && i > 0),
                        "{solver:?}: {exits:?}"
                    );
                }
            }
        }
    }

    /// The chunked `abs_max` is the left-to-right fold, NaN, ±∞, −0.0
    /// and subnormals included, at every length around the chunk.
    #[test]
    fn abs_max_is_the_left_to_right_fold() {
        let specials = [f32::NAN, -0.0, 1e-42, -3.0e4, f32::NEG_INFINITY, 7.5, -7.5];
        for len in 0..70 {
            for nan_only in [false, true] {
                let v: Vec<f32> = (0..len)
                    .map(|i| {
                        if nan_only {
                            f32::NAN
                        } else {
                            specials[(i * 5 + len) % 7] * (i as f32 + 1.0)
                        }
                    })
                    .collect();
                let fold = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                assert_eq!(abs_max(&v).to_bits(), fold.to_bits(), "len {len}");
            }
        }
    }

    /// The FP16 overflow rescale ran in the lanes the group test gives it.
    #[test]
    fn group_rows_exercise_the_fp16_rescale_in_some_lanes() {
        let amax = |a: &SymPacked| a.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let big: Vec<bool> = (0..9).map(|k| amax(&group_row(13, k).0) > 3.0e4).collect();
        assert_eq!(big.iter().filter(|&&b| b).count(), 1, "{big:?}");
    }

    #[test]
    #[should_panic(expected = "sized for another f")]
    fn scratch_of_another_dimension_is_rejected() {
        let a = spd(4, 1);
        let mut x = [0.0f32; 4];
        solve_row_with(
            &SolverKind::cumf_default(),
            &a,
            &mut x,
            &[1.0; 4],
            &mut SolveScratch::new(5),
        );
    }

    #[test]
    fn singular_direct_solve_falls_back_to_cg() {
        // A zero row has A_u = λ·0·I = 0 — singular for LU.
        let a = SymPacked::zeros(4);
        let b = [0.0f32; 4];
        let mut x = [1.0f32; 4];
        let stats = solve_row(&SolverKind::BatchLu, &a, &mut x, &b);
        // CG on 0·x = 0 finishes immediately.
        assert!(stats.converged);
    }

    fn cg_times(spec: &GpuSpec, rows: u64, f: u64, precision: Precision) -> f64 {
        let occ = occupancy(
            spec,
            &KernelResources {
                regs_per_thread: 40,
                threads_per_block: 128,
                shared_mem_per_block: 0,
            },
        );
        let solver = SolverKind::Cg {
            fs: 6,
            tolerance: 1e-4,
            precision,
        };
        let cost = solve_cost(spec, &solver, rows, f, 6.0, false);
        cumf_gpu_sim::kernel::launch_time(spec, &occ, &cost).time
    }

    #[test]
    fn figure5_solver_ratios() {
        // LU-FP32 ≈ 4× CG-FP32; CG-FP16 ≈ ½ CG-FP32 (on Maxwell: FP16 saves
        // only bandwidth).
        let spec = GpuSpec::maxwell_titan_x();
        let occ = occupancy(
            &spec,
            &KernelResources {
                regs_per_thread: 40,
                threads_per_block: 128,
                shared_mem_per_block: 0,
            },
        );
        let rows = 498_000u64;
        let f = 100u64;
        let lu_cost = solve_cost(&spec, &SolverKind::BatchLu, rows, f, 0.0, false);
        let t_lu = cumf_gpu_sim::kernel::launch_time(&spec, &occ, &lu_cost).time;
        let t_cg32 = cg_times(&spec, rows, f, Precision::Fp32);
        let t_cg16 = cg_times(&spec, rows, f, Precision::Fp16);
        let r_lu_cg = t_lu / t_cg32;
        let r_32_16 = t_cg32 / t_cg16;
        assert!(r_lu_cg > 2.5 && r_lu_cg < 6.0, "LU/CG32 ratio {r_lu_cg}");
        assert!(r_32_16 > 1.5 && r_32_16 < 2.1, "CG32/CG16 ratio {r_32_16}");
    }

    #[test]
    fn l1_flag_changes_nothing_for_cg() {
        // Figure 5's solve-L1 == solve-noL1 observation.
        let spec = GpuSpec::maxwell_titan_x();
        let solver = SolverKind::cumf_default();
        let with = solve_cost(&spec, &solver, 1000, 100, 6.0, true);
        let without = solve_cost(&spec, &solver, 1000, 100, 6.0, false);
        assert_eq!(with, without);
    }

    #[test]
    fn cg_cost_scales_with_measured_iterations() {
        let spec = GpuSpec::maxwell_titan_x();
        let solver = SolverKind::Cg {
            fs: 6,
            tolerance: 1e-4,
            precision: Precision::Fp32,
        };
        let c3 = solve_cost(&spec, &solver, 1000, 100, 3.0, false);
        let c6 = solve_cost(&spec, &solver, 1000, 100, 6.0, false);
        assert!(c6.dram_read_bytes > c3.dram_read_bytes * 1.5);
    }
}
