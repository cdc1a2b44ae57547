//! Competing matrix-factorization systems, reimplemented.
//!
//! The paper's evaluation compares cuMF_ALS against six systems. Each is
//! rebuilt here as *algorithm + parallelization strategy + cost model*, so
//! the comparisons exercise the same design axes the paper varies:
//!
//! | module | system | strategy |
//! |---|---|---|
//! | [`sgd`] | (shared SGD substrate) | blocked waves + Hogwild atomics |
//! | [`libmf`] | LIBMF \[39\], \[3\] | multi-threaded blocked SGD, one box |
//! | [`nomad`] | NOMAD \[37\] | asynchronous distributed SGD over MPI |
//! | [`gpu_sgd`] | cuMF_SGD \[35\] | batch Hogwild SGD on GPUs |
//! | [`gpu_als`] | GPU-ALS \[31\] (HPDC'16) | ALS, coalesced loads + batch LU |
//! | [`bidmach`] | BIDMach \[2\] | ALS over generic sparse kernels |
//! | [`ccd`] | CCD++ \[36\] | cyclic coordinate descent |
//! | [`implicit_cpu`] | implicit / QMF | CPU iALS for one-class inputs |
//! | [`gemm_batched`] | cuBLAS `gemmBatched` | Figure 7(a) FLOPS baseline |
//!
//! Functional execution is real (each system genuinely factorizes the
//! synthetic datasets and its epochs-to-target is measured); wall-clock is
//! simulated on the hardware models in `cumf-gpu-sim`, with per-system
//! calibration constants documented in each module.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bidmach;
pub mod ccd;
pub mod gemm_batched;
pub mod gpu_als;
pub mod gpu_sgd;
pub mod implicit_cpu;
pub mod libmf;
pub mod nomad;
pub mod sgd;

pub use gpu_als::GpuAlsBaseline;
pub use gpu_sgd::GpuSgd;
pub use libmf::LibMf;
pub use nomad::Nomad;
