//! The truncated conjugate-gradient solver — Algorithm 1 of the paper.
//!
//! ```text
//! procedure CGSOLVE(A, x, b, fs, ε)
//!     r = b − A·x;  p = r;  rsold = rᵀr
//!     for j = 1..fs:
//!         ap = A·p;  α = rsold / (pᵀ·ap)
//!         x = x + αp;  r = r − α·ap
//!         rsnew = rᵀr
//!         if √rsnew < ε: break
//!         p = r + (rsnew/rsold)·p
//!         rsold = rsnew
//!     return x
//! ```
//!
//! With `fs = f` iterations this reproduces the exact solution of an SPD
//! system (CG's finite-termination property); the paper's approximation runs
//! `fs ≪ f` (empirically `fs = 6` at `f = 100`), cutting the solve from
//! `O(f³)` to `O(fs·f²)` without hurting the outer ALS convergence.
//!
//! The solver is generic over [`MatVec`] (packed symmetric or dense). An
//! FP16-stored Gram matrix (Solution 4) is solved through its exact FP32
//! widening: the device's halved read traffic is priced by the cost model,
//! not mirrored by the host arithmetic.
//!
//! Note: the paper's listing updates `r` as `r − α·p`; the correct CG
//! recurrence — and what any working implementation, including the authors'
//! released CUDA code, computes — is `r − α·(A·p)`. We implement the correct
//! recurrence and note the typo here.

use crate::dense::{axpy, dot_f64, xpby};
use crate::sym::SymPacked;

/// Anything that can apply a symmetric linear operator: `y = A·x`.
pub trait MatVec {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Compute `y = A·x`.
    fn matvec(&self, x: &[f32], y: &mut [f32]);
}

impl MatVec for SymPacked {
    fn dim(&self) -> usize {
        self.dim()
    }
    fn matvec(&self, x: &[f32], y: &mut [f32]) {
        SymPacked::matvec(self, x, y)
    }
}

impl MatVec for crate::dense::DenseMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows(), self.cols());
        self.rows()
    }
    fn matvec(&self, x: &[f32], y: &mut [f32]) {
        crate::dense::DenseMatrix::matvec(self, x, y)
    }
}

/// What a CG run did: how many iterations it spent and the final residual.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CgOutcome {
    /// Number of `A·p` products performed.
    pub iterations: usize,
    /// `‖b − A·x‖₂` implied by the final recurrence (√rsnew).
    pub residual_norm: f32,
    /// Whether the ε tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// The three work vectors of one CG solve (`r`, `p`, `A·p`), kept so a
/// caller solving one system per row allocates them once. Resized to the
/// system's dimension on use; their contents never carry between solves.
#[derive(Clone, Debug, Default)]
pub struct CgScratch {
    r: Vec<f32>,
    p: Vec<f32>,
    ap: Vec<f32>,
}

/// Solve `A x = b` approximately, warm-starting from the incoming `x`.
///
/// * `max_iters` — the paper's `fs` (6 for f=100 in their evaluation);
/// * `tolerance` — the paper's `ε`, compared against `√(rᵀr)`.
///
/// ALS warm-starts each solve from the previous sweep's `x_u`, which is a
/// large part of why so few CG steps suffice.
pub fn cg_solve(
    a: &impl MatVec,
    x: &mut [f32],
    b: &[f32],
    max_iters: usize,
    tolerance: f32,
) -> CgOutcome {
    cg_solve_in(
        a,
        x,
        b,
        max_iters,
        tolerance,
        None,
        &mut CgScratch::default(),
    )
}

/// [`cg_solve`] on caller-owned work vectors, with an optional
/// residual-trajectory trace: when `trace` is `Some`, the residual norm
/// `√(rᵀr)` is appended once before the first iteration and once per
/// iteration. The arithmetic is identical with or without a trace —
/// tracing only observes values the solver computes anyway — and with
/// fresh or reused `scratch`.
pub fn cg_solve_in(
    a: &impl MatVec,
    x: &mut [f32],
    b: &[f32],
    max_iters: usize,
    tolerance: f32,
    mut trace: Option<&mut Vec<f64>>,
    scratch: &mut CgScratch,
) -> CgOutcome {
    let dim = a.dim();
    assert_eq!(x.len(), dim, "cg_solve: x length");
    assert_eq!(b.len(), dim, "cg_solve: b length");

    let CgScratch { r, p, ap } = scratch;
    for v in [&mut *r, &mut *p, &mut *ap] {
        v.resize(dim, 0.0);
    }

    // r = b − A·x
    a.matvec(x, ap);
    for i in 0..dim {
        r[i] = b[i] - ap[i];
    }
    p.copy_from_slice(r);
    let mut rsold = dot_f64(r, r);
    if let Some(t) = trace.as_deref_mut() {
        t.push(rsold.sqrt());
    }

    if (rsold.sqrt() as f32) < tolerance {
        return CgOutcome {
            iterations: 0,
            residual_norm: rsold.sqrt() as f32,
            converged: true,
        };
    }

    let mut iterations = 0;
    let mut converged = false;
    let mut rsnew = rsold;

    for _ in 0..max_iters {
        a.matvec(p, ap);
        iterations += 1;
        let pap = dot_f64(p, ap);
        if pap <= 0.0 {
            // Loss of positive-definiteness in finite precision; stop rather
            // than take a step in a bad direction.
            break;
        }
        let alpha = (rsold / pap) as f32;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);
        rsnew = dot_f64(r, r);
        if let Some(t) = trace.as_deref_mut() {
            t.push(rsnew.sqrt());
        }
        if (rsnew.sqrt() as f32) < tolerance {
            converged = true;
            break;
        }
        xpby(r, (rsnew / rsold) as f32, p);
        rsold = rsnew;
    }

    CgOutcome {
        iterations,
        residual_norm: rsnew.sqrt() as f32,
        converged,
    }
}

/// FMA count of `iters` CG iterations at dimension `f` — the `O(fs·f²)` cost
/// the simulator charges for the approximate solver.
pub fn cg_flops(f: usize, iters: usize) -> u64 {
    let f = f as u64;
    // per iteration: one symmetric matvec (f²) + ~5 vector ops (5f).
    (iters as u64) * (f * f + 5 * f) + f * f // + initial residual matvec
}

/// Bytes read from the system matrix per CG iteration when `A` is stored
/// packed with `bytes_per_elem` (4 for FP32, 2 for FP16) — the memory-bound
/// quantity of Observation 4.
pub fn cg_matrix_bytes_per_iter(f: usize, bytes_per_elem: u64) -> u64 {
    (crate::sym::packed_len(f) as u64) * bytes_per_elem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::cholesky_solve;
    use crate::sym::SymPacked;

    fn spd(dim: usize, seed: u64) -> SymPacked {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let mut a = SymPacked::zeros(dim);
        for _ in 0..dim + 3 {
            let v: Vec<f32> = (0..dim).map(|_| next()).collect();
            a.syr(&v);
        }
        a.add_diagonal(1.0);
        a
    }

    #[test]
    fn exact_after_dim_iterations() {
        // CG's finite-termination property: fs = f reproduces the direct solve.
        for seed in 1..6 {
            let a = spd(8, seed);
            let b: Vec<f32> = (0..8).map(|i| (i as f32) * 0.25 - 1.0).collect();
            let direct = cholesky_solve(&a, &b).unwrap();
            let mut x = vec![0.0; 8];
            let out = cg_solve(&a, &mut x, &b, 16, 1e-7);
            assert!(out.converged, "seed {seed} should converge");
            for i in 0..8 {
                assert!(
                    (x[i] - direct[i]).abs() < 1e-3,
                    "seed {seed} i {i}: {} vs {}",
                    x[i],
                    direct[i]
                );
            }
        }
    }

    #[test]
    fn truncated_cg_reduces_residual_monotonically() {
        let a = spd(12, 7);
        let b: Vec<f32> = (0..12).map(|i| ((i * 7 % 5) as f32) - 2.0).collect();
        let mut prev = f32::INFINITY;
        for fs in 1..8 {
            let mut x = vec![0.0; 12];
            let out = cg_solve(&a, &mut x, &b, fs, 0.0);
            assert!(
                out.residual_norm <= prev + 1e-4,
                "fs={fs}: {} > {}",
                out.residual_norm,
                prev
            );
            prev = out.residual_norm;
        }
    }

    #[test]
    fn warm_start_converges_in_zero_iterations() {
        let a = spd(6, 3);
        let b = [1.0, 0.5, -0.5, 2.0, 0.0, -1.0];
        let mut x = cholesky_solve(&a, &b).unwrap();
        let out = cg_solve(&a, &mut x, &b, 10, 1e-3);
        assert!(out.converged);
        assert!(
            out.iterations <= 1,
            "warm start took {} iterations",
            out.iterations
        );
    }

    #[test]
    fn identity_converges_in_one_iteration() {
        let mut a = SymPacked::zeros(5);
        a.add_diagonal(1.0);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut x = vec![0.0; 5];
        let out = cg_solve(&a, &mut x, &b, 10, 1e-6);
        assert_eq!(out.iterations, 1);
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn fp16_storage_still_converges() {
        let a = spd(10, 11);
        let h = a.to_f16();
        let b: Vec<f32> = (0..10).map(|i| (i as f32 - 5.0) * 0.1).collect();
        let exact = cholesky_solve(&a, &b).unwrap();
        let mut x = vec![0.0; 10];
        cg_solve(&h.to_f32(), &mut x, &b, 20, 1e-4);
        // FP16 matrix perturbs A by ≤2⁻¹¹ relatively; solution error stays small.
        for i in 0..10 {
            assert!(
                (x[i] - exact[i]).abs() < 0.02,
                "i {i}: {} vs {}",
                x[i],
                exact[i]
            );
        }
    }

    #[test]
    fn traced_solve_matches_untraced_and_records_residuals() {
        let a = spd(12, 8);
        let b: Vec<f32> = (0..12).map(|i| (i as f32) * 0.3 - 1.5).collect();
        let mut x_plain = vec![0.0; 12];
        let mut x_traced = vec![0.0; 12];
        let mut residuals = Vec::new();
        let plain = cg_solve(&a, &mut x_plain, &b, 6, 0.0);
        let mut scratch = CgScratch::default();
        let traced = cg_solve_in(
            &a,
            &mut x_traced,
            &b,
            6,
            0.0,
            Some(&mut residuals),
            &mut scratch,
        );
        assert_eq!(x_plain, x_traced, "tracing must not change arithmetic");
        assert_eq!(plain, traced);
        // One entry before iteration 1 plus one per iteration.
        assert_eq!(residuals.len(), plain.iterations + 1);
        assert!(residuals.last().unwrap() < residuals.first().unwrap());
        assert!((residuals.last().unwrap() - plain.residual_norm as f64).abs() < 1e-3);
    }

    #[test]
    fn respects_iteration_cap() {
        let a = spd(30, 5);
        let b = vec![1.0; 30];
        let mut x = vec![0.0; 30];
        let out = cg_solve(&a, &mut x, &b, 3, 0.0);
        assert_eq!(out.iterations, 3);
        assert!(!out.converged);
    }

    #[test]
    fn flops_model_is_quadratic_per_iteration() {
        // 6 CG iterations at f=100 ≈ 6·10⁴ FMAs ≪ LU's ~6.7·10⁵.
        assert!(cg_flops(100, 6) < crate::lu::lu_flops(100) / 4);
        assert_eq!(
            cg_matrix_bytes_per_iter(100, 2) * 2,
            cg_matrix_bytes_per_iter(100, 4)
        );
    }
}
