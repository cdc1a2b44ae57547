//! Incremental fold-in: serve new users/items without retraining.
//!
//! The paper's conclusion sketches "ALS for the initial batch training and
//! SGD for incremental updates". The cheapest incremental operation —
//! widely deployed with ALS models — is the *fold-in*: given a trained `Θ`
//! and a new user's ratings, the optimal `x_u` is one regularized solve
//! against the existing item factors (exactly an update-X row, so it reuses
//! the `get_hermitian`/`get_bias`/`solve` kernels and costs `O(n_u·f² + f²·fs)`).

use crate::config::SolverKind;
use crate::kernels::bias::bias_row;
use crate::kernels::hermitian::{hermitian_row, HermitianShape};
use crate::kernels::solve::{solve_row_with, SolveScratch};
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::sym::SymPacked;

/// Reusable workspace for fold-in solves at one feature dimension `f`.
///
/// One fold-in allocates a staging buffer, a packed Gram matrix, a bias
/// vector, two index/value scatter buffers and the solver's buffers
/// ([`SolveScratch`]); a serving engine folding
/// cold users on every micro-batch wants to pay that once per worker, not
/// once per request. All buffers are fully overwritten on each solve, so
/// reuse never leaks state between rows.
#[derive(Clone, Debug)]
pub struct FoldInScratch {
    shape: HermitianShape,
    staging: Vec<f32>,
    a: SymPacked,
    b: Vec<f32>,
    cols: Vec<u32>,
    values: Vec<f32>,
    solve: SolveScratch,
}

impl FoldInScratch {
    /// A workspace for feature dimension `f` (the paper's BIN staging
    /// shape).
    pub fn new(f: usize) -> FoldInScratch {
        let shape = HermitianShape::paper(f);
        FoldInScratch {
            staging: Vec::new(),
            shape,
            a: SymPacked::zeros(f),
            b: vec![0.0f32; f],
            cols: Vec::new(),
            values: Vec::new(),
            solve: SolveScratch::new(f),
        }
    }

    /// The feature dimension this workspace was sized for.
    pub fn f(&self) -> usize {
        self.b.len()
    }
}

/// [`fold_in_row`] writing into a caller-provided buffer through a
/// reusable [`FoldInScratch`] — the allocation-free form batch callers
/// loop over. `out.len()` and `scratch.f()` must equal
/// `item_factors.cols()`.
pub fn fold_in_row_into(
    item_factors: &DenseMatrix,
    ratings: &[(u32, f32)],
    lambda: f32,
    solver: &SolverKind,
    scratch: &mut FoldInScratch,
    out: &mut [f32],
) {
    let f = item_factors.cols();
    assert_eq!(out.len(), f, "output buffer must be f-long");
    assert_eq!(scratch.f(), f, "scratch sized for a different f");
    out.fill(0.0);
    if ratings.is_empty() {
        return;
    }
    scratch.cols.clear();
    scratch.values.clear();
    for &(v, r) in ratings {
        scratch.cols.push(v);
        scratch.values.push(r);
    }
    hermitian_row(
        &scratch.cols,
        item_factors,
        lambda,
        &scratch.shape,
        &mut scratch.staging,
        &mut scratch.a,
    );
    bias_row(&scratch.cols, &scratch.values, item_factors, &mut scratch.b);
    solve_row_with(solver, &scratch.a, out, &scratch.b, &mut scratch.solve);
}

/// Fold a new row (user) into an existing model: returns the factor vector
/// that optimally explains `ratings` against the fixed `item_factors`.
///
/// `ratings` pairs item indices with observed values; indices must be valid
/// rows of `item_factors`. An empty slice returns the zero vector (the
/// regularized optimum for an unobserved user).
pub fn fold_in_row(
    item_factors: &DenseMatrix,
    ratings: &[(u32, f32)],
    lambda: f32,
    solver: &SolverKind,
) -> Vec<f32> {
    let f = item_factors.cols();
    let mut x = vec![0.0f32; f];
    let mut scratch = FoldInScratch::new(f);
    fold_in_row_into(item_factors, ratings, lambda, solver, &mut scratch, &mut x);
    x
}

/// Fold a batch of new rows in, returning an `rows × f` factor matrix.
/// Rows solve in order on one [`FoldInScratch`].
/// Each row is any borrowable rating list (`Vec<(u32, f32)>` or a slice),
/// so callers can fold histories they do not own.
pub fn fold_in_batch<R: AsRef<[(u32, f32)]>>(
    item_factors: &DenseMatrix,
    rows: &[R],
    lambda: f32,
    solver: &SolverKind,
) -> DenseMatrix {
    let f = item_factors.cols();
    let mut out = DenseMatrix::zeros(rows.len(), f);
    let mut scratch = FoldInScratch::new(f);
    for (row, ratings) in out.as_mut_slice().chunks_mut(f).zip(rows) {
        fold_in_row_into(
            item_factors,
            ratings.as_ref(),
            lambda,
            solver,
            &mut scratch,
            row,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::AlsTrainer;
    use crate::config::AlsConfig;
    use cumf_datasets::{MfDataset, SizeClass};
    use cumf_gpu_sim::GpuSpec;

    fn trained() -> (MfDataset, DenseMatrix, DenseMatrix) {
        let data = MfDataset::netflix(SizeClass::Tiny, 33);
        let cfg = AlsConfig {
            f: 8,
            iterations: 6,
            rmse_target: None,
            ..AlsConfig::for_profile(&data.profile)
        };
        let mut t = AlsTrainer::new(&data, cfg, GpuSpec::maxwell_titan_x(), 1);
        t.train();
        let x = t.x.clone();
        let theta = t.theta.clone();
        (data, x, theta)
    }

    #[test]
    fn fold_in_recovers_existing_user() {
        // Folding an existing user's own ratings back in must land near the
        // factor vector training produced for them.
        let (data, x, theta) = trained();
        let solver = SolverKind::BatchCholesky;
        let user = (0..data.m()).max_by_key(|&u| data.r.row_nnz(u)).unwrap();
        let ratings: Vec<(u32, f32)> = data.r.row_iter(user).collect();
        let folded = fold_in_row(&theta, &ratings, 0.05, &solver);
        for (i, &fv) in folded.iter().enumerate().take(8) {
            assert!(
                (fv - x.get(user, i)).abs() < 0.05,
                "dim {i}: folded {} vs trained {}",
                fv,
                x.get(user, i)
            );
        }
    }

    #[test]
    fn folded_user_predicts_their_ratings() {
        let (data, _, theta) = trained();
        let user = (0..data.m()).max_by_key(|&u| data.r.row_nnz(u)).unwrap();
        let ratings: Vec<(u32, f32)> = data.r.row_iter(user).collect();
        let folded = fold_in_row(&theta, &ratings, 0.05, &SolverKind::cumf_default());
        let mut se = 0.0f64;
        for &(v, r) in &ratings {
            let p = cumf_numeric::dense::dot(&folded, theta.row(v as usize));
            se += ((p - r) as f64).powi(2);
        }
        let rmse = (se / ratings.len() as f64).sqrt();
        assert!(rmse < 1.0, "fold-in train RMSE {rmse}");
    }

    #[test]
    fn empty_history_folds_to_zero() {
        let (_, _, theta) = trained();
        let folded = fold_in_row(&theta, &[], 0.05, &SolverKind::BatchCholesky);
        assert!(folded.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // Solving row B after row A through one scratch must equal solving
        // B through a fresh scratch — no state may leak between solves.
        let (data, _, theta) = trained();
        let a: Vec<(u32, f32)> = data.r.row_iter(0).collect();
        let b: Vec<(u32, f32)> = data.r.row_iter(1).collect();
        let solver = SolverKind::cumf_default();
        let f = theta.cols();
        let mut shared = FoldInScratch::new(f);
        let mut out_a = vec![0.0f32; f];
        let mut out_b = vec![0.0f32; f];
        fold_in_row_into(&theta, &a, 0.05, &solver, &mut shared, &mut out_a);
        fold_in_row_into(&theta, &b, 0.05, &solver, &mut shared, &mut out_b);
        let mut fresh = FoldInScratch::new(f);
        let mut out_fresh = vec![1.0f32; f]; // dirty output buffer too
        fold_in_row_into(&theta, &b, 0.05, &solver, &mut fresh, &mut out_fresh);
        assert_eq!(out_b, out_fresh);
        // Empty ratings still zero a dirty output buffer.
        fold_in_row_into(&theta, &[], 0.05, &solver, &mut shared, &mut out_a);
        assert!(out_a.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn batch_matches_row_by_row() {
        let (data, _, theta) = trained();
        let rows: Vec<Vec<(u32, f32)>> = (0..20).map(|u| data.r.row_iter(u).collect()).collect();
        let solver = SolverKind::BatchCholesky;
        let batch = fold_in_batch(&theta, &rows, 0.05, &solver);
        for (u, ratings) in rows.iter().enumerate() {
            let single = fold_in_row(&theta, ratings, 0.05, &solver);
            assert_eq!(batch.row(u), &single[..], "row {u}");
        }
    }
}
