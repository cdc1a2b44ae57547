//! # cumf-als — ALS matrix factorization with memory optimization and
//! approximate computing
//!
//! A Rust reproduction of *"Matrix Factorization on GPUs with Memory
//! Optimization and Approximate Computing"* (Tan et al., ICPP 2018) — the
//! cuMF_ALS system. The library factorizes a sparse rating matrix
//! `R ≈ X·Θᵀ` by alternating least squares, with the paper's two
//! optimizations:
//!
//! 1. **Memory-optimized `get_hermitian`** ([`kernels::hermitian`]):
//!    the per-row Gram matrices `A_u = Σ θ_v θ_vᵀ + λ n_u I` are built with
//!    register-tiled accumulation and shared-memory staging, with the
//!    *non-coalesced cache-assisted* load scheme of the paper's Solution 2.
//! 2. **Approximate solving** ([`kernels::solve`]): the per-row systems
//!    `A_u x_u = b_u` are solved with a truncated conjugate-gradient solver
//!    (`fs ≪ f` iterations, `O(f²)` each) instead of exact batched LU
//!    (`O(f³)`), optionally reading `A_u` in FP16 to halve solver memory
//!    traffic (Solutions 3–4).
//!
//! Kernels execute functionally on the host (real arithmetic on the
//! calling thread, vectorized by the SIMD kernels of `cumf_numeric::kernel`),
//! while every launch is priced on a [`cumf_gpu_sim::GpuSpec`] — see that
//! crate for the model. The trainer reports per-phase simulated time plus
//! genuinely measured test RMSE, which is exactly the data the paper's
//! evaluation plots.
//!
//! ## Quickstart
//!
//! ```
//! use cumf_als::{AlsConfig, AlsTrainer, SolverKind, Precision};
//! use cumf_datasets::{MfDataset, SizeClass};
//! use cumf_gpu_sim::GpuSpec;
//!
//! let data = MfDataset::netflix(SizeClass::Tiny, 42);
//! let config = AlsConfig {
//!     f: 16,
//!     iterations: 3,
//!     ..AlsConfig::for_profile(&data.profile)
//! };
//! let mut trainer = AlsTrainer::new(&data, config, GpuSpec::maxwell_titan_x(), 1);
//! let report = trainer.train();
//! assert!(report.final_rmse() < 1.5);
//! println!("simulated time: {:.2}s", report.total_sim_time());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod als;
pub mod config;
pub mod fold_in;
pub mod hybrid;
pub mod implicit;
pub mod kernels;
pub mod metrics;
pub mod selector;

pub use als::{
    price_epoch, price_side, price_side_detailed, solver_kernel_name, AlsTrainer, EpochPhases,
    EpochReport, Side, SideCosts, TrainReport,
};
pub use config::{AlsConfig, Precision, SolverKind};
pub use fold_in::{fold_in_batch, fold_in_row, fold_in_row_into, FoldInScratch};
pub use hybrid::{HybridTrainer, IncrementalConfig};
pub use implicit::{ImplicitAlsConfig, ImplicitAlsTrainer};
pub use metrics::{predict, test_rmse, training_objective};
pub use selector::{select, Algorithm, Selection};
