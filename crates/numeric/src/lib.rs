//! Numeric substrate for the cuMF_ALS reproduction.
//!
//! This crate is dependency-light on purpose: everything the ALS/SGD/CCD
//! solvers need from "a BLAS" is implemented here from scratch —
//!
//! * [`mod@f16`] — a software IEEE 754 binary16 type, the storage format used by
//!   the paper's reduced-precision CG solver (Solution 4);
//! * [`dense`] — dense vector/matrix kernels (dot, axpy, gemv, gemm, norms);
//! * [`sym`] — symmetric matrices in lower-triangular packed storage, the
//!   layout of the per-row Gram matrices `A_u` built by `get_hermitian`;
//! * [`cholesky`] / [`lu`] — exact direct solvers (the cuBLAS batched-LU
//!   analog the paper replaces);
//! * [`cg`] — the truncated conjugate-gradient solver of the paper's
//!   Algorithm 1, generic over the precision the system matrix is read in,
//!   and its lane-batched form (sixteen systems, one per SIMD lane);
//! * [`kernel`] — register-blocked SIMD scoring microkernels with fused
//!   int8 decode and a documented fixed lane-reduction order (the
//!   serving hot path), the FP16 widen and interleave, the solver's Gram
//!   kernel, and the one cached ISA probe every kernel dispatches on;
//! * [`stats`] — RMSE and streaming statistics used by the experiment
//!   protocol.
//!
//! Numerics convention: all *accumulation* is done in `f32` (or `f64` where
//! noted); `f16` is a **storage** format only, exactly as on the GPU the
//! paper targets (FP16 loads feeding FP32 FMA pipelines).

#![deny(missing_docs)]

pub mod cg;
pub mod cholesky;
pub mod dense;
pub mod f16;
pub mod kernel;
pub mod lu;
pub mod stats;
pub mod sym;

pub use cg::{cg_solve, CgOutcome, MatVec};
pub use dense::DenseMatrix;
pub use f16::F16;
pub use sym::SymPacked;
