//! Evaluation metrics: test RMSE (the paper's convergence criterion) and
//! the regularized training objective of equation (1).

use cumf_numeric::dense::{dot, DenseMatrix};
use cumf_numeric::stats::Welford;
use cumf_sparse::coo::CooMatrix;
use cumf_sparse::csr::CsrMatrix;

/// Predicted rating: `x_uᵀ θ_v`.
#[inline]
pub fn predict(x_row: &[f32], theta_row: &[f32]) -> f32 {
    dot(x_row, theta_row)
}

/// Root-mean-square error of `X·Θᵀ` against held-out observations: one
/// Welford accumulator per 4096-entry chunk, merged in chunk order.
pub fn test_rmse(x: &DenseMatrix, theta: &DenseMatrix, test: &CooMatrix) -> f64 {
    if test.nnz() == 0 {
        return 0.0;
    }
    let mut w = Welford::new();
    for chunk in test.entries().chunks(4096) {
        let mut acc = Welford::new();
        for e in chunk {
            let p = predict(x.row(e.row as usize), theta.row(e.col as usize));
            let err = (p - e.value) as f64;
            acc.push(err * err);
        }
        w.merge(&acc);
    }
    w.root_mean()
}

/// The regularized objective of equation (1):
/// `Σ_{r_uv≠0} (r_uv − x_uᵀθ_v)² + λ(Σ_u n_u‖x_u‖² + Σ_v n_v‖θ_v‖²)`.
///
/// ALS descends this monotonically — the property test the trainer relies
/// on to detect kernel regressions.
pub fn training_objective(r: &CsrMatrix, x: &DenseMatrix, theta: &DenseMatrix, lambda: f32) -> f64 {
    let loss: f64 = (0..r.rows())
        .map(|u| {
            let xu = x.row(u);
            let mut s = 0.0f64;
            for (v, val) in r.row_iter(u) {
                let e = (val - predict(xu, theta.row(v as usize))) as f64;
                s += e * e;
            }
            s
        })
        .sum();

    let reg_x: f64 = (0..r.rows())
        .map(|u| {
            let xu = x.row(u);
            r.row_nnz(u) as f64 * cumf_numeric::dense::dot_f64(xu, xu)
        })
        .sum();

    // Column counts for the Θ side.
    let mut col_counts = vec![0u32; r.cols()];
    for u in 0..r.rows() {
        for &c in r.row_cols(u) {
            col_counts[c as usize] += 1;
        }
    }
    let reg_t: f64 = (0..theta.rows())
        .map(|v| {
            let tv = theta.row(v);
            col_counts[v] as f64 * cumf_numeric::dense::dot_f64(tv, tv)
        })
        .sum();

    loss + lambda as f64 * (reg_x + reg_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_sparse::coo::CooMatrix;

    #[test]
    fn perfect_factors_give_zero_rmse() {
        // R = X·Θᵀ exactly.
        let x = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let theta = DenseMatrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let mut test = CooMatrix::new(2, 2);
        test.push(0, 0, 3.0); // x_0·θ_0 = 3
        test.push(1, 1, 6.0); // x_1·θ_1 = 6
        assert_eq!(test_rmse(&x, &theta, &test), 0.0);
    }

    #[test]
    fn rmse_known_error() {
        let x = DenseMatrix::from_vec(1, 1, vec![1.0]);
        let theta = DenseMatrix::from_vec(2, 1, vec![2.0, 4.0]);
        let mut test = CooMatrix::new(1, 2);
        test.push(0, 0, 3.0); // error 1
        test.push(0, 1, 3.0); // error 1
        assert!((test_rmse(&x, &theta, &test) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_test_set_is_zero() {
        let x = DenseMatrix::zeros(1, 1);
        let theta = DenseMatrix::zeros(1, 1);
        assert_eq!(test_rmse(&x, &theta, &CooMatrix::new(1, 1)), 0.0);
    }

    #[test]
    fn objective_decomposes_loss_and_regularizer() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        let r = CsrMatrix::from_coo(&coo);
        let x = DenseMatrix::from_vec(2, 1, vec![1.0, 1.0]);
        let theta = DenseMatrix::from_vec(2, 1, vec![1.0, 1.0]);
        // loss: (2-1)² + (3-1)² = 5; reg: λ(1·1 + 1·1 + 1·1 + 1·1) = 4λ.
        let obj = training_objective(&r, &x, &theta, 0.5);
        assert!((obj - (5.0 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn objective_zero_for_perfect_fit_without_reg() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 6.0);
        let r = CsrMatrix::from_coo(&coo);
        let x = DenseMatrix::from_vec(1, 2, vec![2.0, 1.0]);
        let theta = DenseMatrix::from_vec(1, 2, vec![2.0, 2.0]);
        assert_eq!(training_objective(&r, &x, &theta, 0.0), 0.0);
    }
}
