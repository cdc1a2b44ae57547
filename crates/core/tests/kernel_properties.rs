//! Property-based tests on the cuMF_ALS kernels.

use cumf_als::kernels::bias::bias_row;
use cumf_als::kernels::hermitian::{
    hermitian_row, hermitian_row_reference, tiled_rank1_update, HermitianShape,
};
use cumf_als::kernels::solve::solve_row;
use cumf_als::{Precision, SolverKind};
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::stats::XorShift64;
use cumf_numeric::sym::{packed_len, SymPacked};
use proptest::prelude::*;

fn features(rows: usize, f: usize) -> impl Strategy<Value = DenseMatrix> {
    prop::collection::vec(-1.0f32..1.0, rows * f)
        .prop_map(move |data| DenseMatrix::from_vec(rows, f, data))
}

proptest! {
    /// Tiled rank-1 accumulation is bitwise identical to the plain update
    /// for any tile size, including non-dividing ones.
    #[test]
    fn tiling_invariance(
        theta in prop::collection::vec(-2.0f32..2.0, 1..40),
        tile in 1usize..12,
    ) {
        let f = theta.len();
        let mut tiled = vec![0.0f32; packed_len(f)];
        tiled_rank1_update(&mut tiled, &theta, tile);
        let mut reference = SymPacked::zeros(f);
        reference.syr(&theta);
        prop_assert_eq!(&tiled[..], reference.as_slice());
    }

    /// Staged (BIN-batched) accumulation is bitwise identical to the
    /// reference regardless of BIN and tile geometry.
    #[test]
    fn staging_invariance(
        feats in features(20, 9),
        cols in prop::collection::vec(0u32..20, 0..30),
        bin in 1usize..8,
        tile in 1usize..6,
        lambda in 0.0f32..1.0,
    ) {
        let shape = HermitianShape { f: 9, bin, tile };
        let mut staging = Vec::new();
        let mut a = SymPacked::zeros(9);
        hermitian_row(&cols, &feats, lambda, &shape, &mut staging, &mut a);
        let reference = hermitian_row_reference(&cols, &feats, lambda, 9);
        prop_assert_eq!(a.as_slice(), reference.as_slice());
    }

    /// The register-blocked Gram kernel behind `hermitian_row` is
    /// bit-identical to the plain rank-1 reference: lane-multiple and odd
    /// `f` (partial row blocks and diagonal tiles), BIN from one vector to
    /// the paper's 32, duplicate and unsorted columns (70 draws from 40
    /// items), and rows shorter than one tile. The kernel's portable
    /// compilation is pinned the same way in `cumf_numeric::kernel`.
    #[test]
    fn blocked_hermitian_matches_reference(
        f in prop::sample::select(vec![1usize, 3, 7, 8, 9, 15, 16, 17, 24, 100, 128]),
        bin in prop::sample::select(vec![1usize, 5, 32]),
        cols in prop::collection::vec(0u32..40, 0..70),
        seed in any::<u64>(),
        lambda in 0.0f32..1.0,
    ) {
        let mut rng = XorShift64::new(seed | 1);
        let mut feats = DenseMatrix::zeros(40, f);
        feats.fill_with(|| rng.next_f32() * 2.0 - 1.0);
        let shape = HermitianShape { f, bin, tile: 10 };
        let mut staging = Vec::new();
        let mut a = SymPacked::zeros(f);
        hermitian_row(&cols, &feats, lambda, &shape, &mut staging, &mut a);
        let reference = hermitian_row_reference(&cols, &feats, lambda, f);
        let bits = |s: &SymPacked| s.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a), bits(&reference));
    }

    /// A_u is positive semidefinite plus λ·n_u on the diagonal: every
    /// solve_row solver produces a solution with small residual.
    #[test]
    fn solvers_consistent_on_generated_rows(
        feats in features(15, 6),
        cols in prop::collection::vec(0u32..15, 1..15),
    ) {
        let a = hermitian_row_reference(&cols, &feats, 0.1, 6);
        let values: Vec<f32> = cols.iter().map(|&c| 1.0 + (c % 5) as f32).collect();
        let mut b = vec![0.0f32; 6];
        bias_row(&cols, &values, &feats, &mut b);

        let mut x_direct = vec![0.0f32; 6];
        solve_row(&SolverKind::BatchCholesky, &a, &mut x_direct, &b);
        let mut x_cg = vec![0.0f32; 6];
        solve_row(&SolverKind::Cg { fs: 12, tolerance: 1e-7, precision: Precision::Fp32 }, &a, &mut x_cg, &b);

        for i in 0..6 {
            let tol = 1e-2f32.max(2e-2 * x_direct[i].abs());
            prop_assert!((x_direct[i] - x_cg[i]).abs() < tol,
                "dim {}: direct {} vs cg {}", i, x_direct[i], x_cg[i]);
        }
        // Residual check for the direct solve.
        let mut ax = vec![0.0f32; 6];
        a.matvec(&x_direct, &mut ax);
        for i in 0..6 {
            let tol = 1e-3f32.max(1e-3 * b[i].abs());
            prop_assert!((ax[i] - b[i]).abs() < tol);
        }
    }

    /// bias_row is linear in the rating values.
    #[test]
    fn bias_linearity(
        feats in features(10, 5),
        cols in prop::collection::vec(0u32..10, 1..10),
        scale in 0.5f32..3.0,
    ) {
        let v1: Vec<f32> = cols.iter().map(|&c| (c % 7) as f32 * 0.5 + 0.1).collect();
        let v2: Vec<f32> = v1.iter().map(|x| x * scale).collect();
        let mut b1 = vec![0.0f32; 5];
        let mut b2 = vec![0.0f32; 5];
        bias_row(&cols, &v1, &feats, &mut b1);
        bias_row(&cols, &v2, &feats, &mut b2);
        for i in 0..5 {
            prop_assert!((b2[i] - b1[i] * scale).abs() < 1e-3 * (1.0 + b2[i].abs()));
        }
    }

    /// Column order never matters: A_u and b_u are permutation-invariant
    /// (up to FP addition order — tested with exactly representable values).
    #[test]
    fn permutation_invariance(perm_seed in 0u64..1000) {
        let f = 6;
        // Quarter-integer features are exact in f32 sums of this size.
        let mut feats = DenseMatrix::zeros(12, f);
        let mut v = 0.25f32;
        feats.fill_with(|| {
            v = if v > 2.0 { 0.25 } else { v + 0.25 };
            v
        });
        let mut cols: Vec<u32> = (0..12).collect();
        // Fisher–Yates with the seed.
        let mut rng = cumf_numeric::stats::XorShift64::new(perm_seed + 1);
        for i in (1..cols.len()).rev() {
            cols.swap(i, rng.next_below(i + 1));
        }
        let sorted: Vec<u32> = (0..12).collect();
        let a1 = hermitian_row_reference(&cols, &feats, 0.5, f);
        let a2 = hermitian_row_reference(&sorted, &feats, 0.5, f);
        prop_assert_eq!(a1.as_slice(), a2.as_slice());
    }
}
