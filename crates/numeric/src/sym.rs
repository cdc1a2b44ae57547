//! Symmetric matrices in lower-triangular packed storage.
//!
//! The Gram matrix `A_u = Σ θ_v θ_vᵀ + λ n_{x_u} I` built by
//! `get_hermitian` is symmetric, and the paper's kernel exploits this by only
//! computing tiles with `x ≤ y` (Figure 2). [`SymPacked`] is the host-side
//! mirror of that layout: `f(f+1)/2` elements, lower triangle, row by row.
//!
//! Packed storage index for `(i, j)` with `i ≥ j`: `i(i+1)/2 + j`.

use crate::dense::DenseMatrix;
use crate::f16::F16;

/// A symmetric `dim × dim` matrix stored as its packed lower triangle.
#[derive(Clone, Debug, PartialEq)]
pub struct SymPacked {
    dim: usize,
    data: Vec<f32>,
}

/// Number of packed elements for a symmetric matrix of dimension `dim`.
#[inline]
pub fn packed_len(dim: usize) -> usize {
    dim * (dim + 1) / 2
}

/// Packed index of element `(i, j)`; arguments are swapped if `j > i`.
#[inline]
pub fn packed_index(i: usize, j: usize) -> usize {
    if i >= j {
        i * (i + 1) / 2 + j
    } else {
        j * (j + 1) / 2 + i
    }
}

impl SymPacked {
    /// The zero matrix of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        SymPacked {
            dim,
            data: vec![0.0; packed_len(dim)],
        }
    }

    /// Build from a packed lower-triangle buffer.
    pub fn from_packed(dim: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), packed_len(dim), "SymPacked::from_packed: size");
        SymPacked { dim, data }
    }

    /// Dimension of the matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the packed buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the packed buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor (either triangle).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.dim && j < self.dim);
        self.data[packed_index(i, j)]
    }

    /// Element setter (sets the mirrored element implicitly).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.dim && j < self.dim);
        self.data[packed_index(i, j)] = v;
    }

    /// Rank-1 update `self ← self + v vᵀ` touching only the lower triangle —
    /// the innermost operation of `get_hermitian`.
    pub fn syr(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "syr: vector length");
        for i in 0..self.dim {
            let vi = v[i];
            let row = &mut self.data[i * (i + 1) / 2..i * (i + 1) / 2 + i + 1];
            for (j, cell) in row.iter_mut().enumerate() {
                *cell += vi * v[j];
            }
        }
    }

    /// Scaled rank-1 update `self ← self + w · v vᵀ` — the confidence-
    /// weighted accumulation of implicit-feedback ALS (`(c_uv − 1) θθᵀ`).
    pub fn syr_scaled(&mut self, w: f32, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "syr_scaled: vector length");
        for i in 0..self.dim {
            let wvi = w * v[i];
            let row = &mut self.data[i * (i + 1) / 2..i * (i + 1) / 2 + i + 1];
            for (j, cell) in row.iter_mut().enumerate() {
                *cell += wvi * v[j];
            }
        }
    }

    /// Add `lambda` to the diagonal (`+ λ I` regularization term).
    pub fn add_diagonal(&mut self, lambda: f32) {
        for i in 0..self.dim {
            self.data[i * (i + 1) / 2 + i] += lambda;
        }
    }

    /// Symmetric matrix–vector product `y = self · x`, reading each packed
    /// element once and using it for both `(i,j)` and `(j,i)`.
    ///
    /// Row `i` runs as two passes over its off-diagonal part: the scatter
    /// `y[j] += a_ij·x_i`, one independent update per element (so it
    /// vectorizes), then the sequential chain `acc += a_ij·x_j`. Every
    /// `y[j]` and every `acc` sees the same operations in the same order
    /// as the single fused loop, so the bits do not depend on the split.
    pub fn matvec(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.dim, "sym matvec: x length");
        assert_eq!(y.len(), self.dim, "sym matvec: y length");
        y.fill(0.0);
        for i in 0..self.dim {
            let base = i * (i + 1) / 2;
            let xi = x[i];
            let row = &self.data[base..base + i];
            scatter_row(row, xi, &mut y[..i]);
            let acc = chain_row(0.0, row, &x[..i]);
            y[i] += acc + self.data[base + i] * xi;
        }
    }

    /// Expand into a full dense matrix (both triangles).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.dim, self.dim);
        for i in 0..self.dim {
            for j in 0..=i {
                let v = self.data[i * (i + 1) / 2 + j];
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        m
    }

    /// Build from the lower triangle of a dense matrix.
    pub fn from_dense_lower(m: &DenseMatrix) -> Self {
        assert_eq!(m.rows(), m.cols(), "from_dense_lower: must be square");
        let dim = m.rows();
        let mut data = Vec::with_capacity(packed_len(dim));
        for i in 0..dim {
            for j in 0..=i {
                data.push(m.get(i, j));
            }
        }
        SymPacked { dim, data }
    }

    /// Narrow the packed buffer to FP16 (the paper's Solution-4 store path).
    pub fn to_f16(&self) -> SymPackedF16 {
        let mut out = SymPackedF16::zeros(self.dim);
        self.to_f16_into(&mut out);
        out
    }

    /// [`SymPacked::to_f16`] into an existing matrix, so a solver that
    /// narrows one `A_u` per row reuses one buffer.
    ///
    /// Panics if `out` has a different dimension.
    pub fn to_f16_into(&self, out: &mut SymPackedF16) {
        assert_eq!(out.dim, self.dim, "to_f16_into: dimension mismatch");
        crate::f16::narrow_slice(&self.data, &mut out.data);
    }
}

/// `y[j] += a[j]·xi` for every `j`: independent updates, one per element.
#[inline]
fn scatter_row(a: &[f32], xi: f32, y: &mut [f32]) {
    for (yj, &aj) in y.iter_mut().zip(a) {
        *yj += aj * xi;
    }
}

/// `acc + Σ a[j]·x[j]`, accumulated left to right in one chain.
#[inline]
fn chain_row(mut acc: f32, a: &[f32], x: &[f32]) -> f32 {
    for (&aj, &xj) in a.iter().zip(x) {
        acc += aj * xj;
    }
    acc
}

/// A symmetric packed matrix stored in binary16 — the reduced-precision form
/// `A_u` takes in device memory for the FP16 CG solver. The host solver
/// widens it once per row ([`SymPackedF16::to_f32`] or
/// [`crate::f16::widen_slice`]) and runs the FP32 matvec on the copy;
/// widening is exact, so that is the FP16 matrix's arithmetic.
#[derive(Clone, Debug, PartialEq)]
pub struct SymPackedF16 {
    dim: usize,
    data: Vec<F16>,
}

impl SymPackedF16 {
    /// The zero matrix of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        SymPackedF16 {
            dim,
            data: vec![F16::ZERO; packed_len(dim)],
        }
    }

    /// Dimension of the matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the packed FP16 buffer.
    #[inline]
    pub fn as_slice(&self) -> &[F16] {
        &self.data
    }

    /// Element accessor, widened to f32.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[packed_index(i, j)].to_f32()
    }

    /// Widen back to f32 packed storage.
    pub fn to_f32(&self) -> SymPacked {
        let mut data = vec![0.0f32; self.data.len()];
        crate::f16::widen_slice(&self.data, &mut data);
        SymPacked {
            dim: self.dim,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SymPacked {
        // [[2,1,0],[1,3,1],[0,1,4]]
        SymPacked::from_packed(3, vec![2.0, 1.0, 3.0, 0.0, 1.0, 4.0])
    }

    #[test]
    fn packed_index_symmetry() {
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(packed_index(i, j), packed_index(j, i));
            }
        }
        assert_eq!(packed_index(0, 0), 0);
        assert_eq!(packed_index(1, 0), 1);
        assert_eq!(packed_index(1, 1), 2);
        assert_eq!(packed_index(2, 2), 5);
    }

    #[test]
    fn get_set_both_triangles() {
        let mut s = SymPacked::zeros(4);
        s.set(3, 1, 7.5);
        assert_eq!(s.get(3, 1), 7.5);
        assert_eq!(s.get(1, 3), 7.5);
    }

    #[test]
    fn syr_builds_gram_matrix() {
        let mut s = SymPacked::zeros(3);
        s.syr(&[1.0, 2.0, 3.0]);
        s.syr(&[0.0, 1.0, -1.0]);
        // Σ v vᵀ at (1,1): 4+1=5; (2,1): 6-1=5; (2,2): 9+1=10
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(1, 1), 5.0);
        assert_eq!(s.get(2, 1), 5.0);
        assert_eq!(s.get(2, 2), 10.0);
    }

    #[test]
    fn syr_scaled_matches_scaled_syr() {
        let v = [1.0, -2.0, 0.5];
        let mut a = SymPacked::zeros(3);
        a.syr_scaled(3.0, &v);
        let scaled: Vec<f32> = v.iter().map(|x| x * 3.0f32.sqrt()).collect();
        let mut b = SymPacked::zeros(3);
        b.syr(&scaled);
        for i in 0..3 {
            for j in 0..3 {
                assert!((a.get(i, j) - b.get(i, j)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut s = sample();
        s.add_diagonal(0.5);
        assert_eq!(s.get(0, 0), 2.5);
        assert_eq!(s.get(1, 1), 3.5);
        assert_eq!(s.get(2, 2), 4.5);
        assert_eq!(s.get(1, 0), 1.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let s = sample();
        let d = s.to_dense();
        let x = [1.0, -1.0, 2.0];
        let mut y1 = [0.0; 3];
        let mut y2 = [0.0; 3];
        s.matvec(&x, &mut y1);
        d.matvec(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn dense_round_trip() {
        let s = sample();
        assert_eq!(SymPacked::from_dense_lower(&s.to_dense()), s);
    }

    /// The fused single-loop matvec the split passes replaced: both
    /// updates of `a_ij` in one inner loop, reading entries through `get`.
    fn reference_matvec(dim: usize, get: impl Fn(usize) -> f32, x: &[f32], y: &mut [f32]) {
        y.fill(0.0);
        for i in 0..dim {
            let base = i * (i + 1) / 2;
            let mut acc = 0.0f32;
            for j in 0..i {
                let a = get(base + j);
                acc += a * x[j];
                y[j] += a * x[i];
            }
            y[i] += acc + get(base + i) * x[i];
        }
    }

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 3.7
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Dimensions below, at and across the vector widths.
    const DIMS: [usize; 9] = [0, 1, 2, 7, 8, 63, 64, 65, 130];

    #[test]
    fn split_matvec_is_bit_identical_to_the_fused_loop() {
        for dim in DIMS {
            let mut next = lcg(dim as u64 + 5);
            let a = SymPacked::from_packed(dim, (0..packed_len(dim)).map(|_| next()).collect());
            let x: Vec<f32> = (0..dim).map(|_| next()).collect();
            let (mut got, mut want) = (vec![1.0; dim], vec![0.0; dim]);
            a.matvec(&x, &mut got);
            reference_matvec(dim, |k| a.as_slice()[k], &x, &mut want);
            assert_eq!(bits(&got), bits(&want), "dim {dim}");
        }
    }

    #[test]
    fn to_f16_into_reuses_a_buffer_with_the_same_bits() {
        let s = sample();
        let mut out = SymPackedF16::zeros(3);
        s.to_f16_into(&mut out);
        assert_eq!(out, s.to_f16());
    }

    #[test]
    fn f16_round_trip_small_values() {
        let s = sample(); // entries are small integers → exact in f16
        let h = s.to_f16();
        assert_eq!(h.to_f32(), s);
        assert_eq!(h.get(2, 1), 1.0);
        assert_eq!(h.dim(), 3);
    }
}
