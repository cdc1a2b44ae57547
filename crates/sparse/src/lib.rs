//! Sparse-matrix substrate for the cuMF_ALS reproduction.
//!
//! The rating matrix `R ∈ R^{m×n}` (Nz non-zeros) is consumed in two
//! orientations by ALS: by rows when updating `X` (each `x_u` needs column
//! indices + values of `R_{u*}`) and by columns when updating `Θ` (each
//! `θ_v` needs `R_{*v}`). We therefore keep both a [`csr::CsrMatrix`] and its
//! transpose; [`coo::CooMatrix`] is the interchange/builder format.
//!
//! [`blocking`] implements the 2-D grid partitioning used by the SGD family
//! (LIBMF, GPU-SGD): blocks sharing no rows or columns may be updated in
//! parallel without conflicts. [`split`] implements the experiment protocol's
//! train/test splits.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod blocking;
pub mod coo;
pub mod csr;
pub mod split;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
