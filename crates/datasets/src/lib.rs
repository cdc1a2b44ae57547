//! Dataset substrate: synthetic generators matching the shapes of the
//! paper's three benchmark datasets (Table II), plus a text loader for
//! real MovieLens-format data.
//!
//! The paper evaluates on Netflix (480,189 × 17,770, 99 M ratings),
//! YahooMusic (1,000,990 × 624,961, 252.8 M) and Hugewiki (50 M × 39,780,
//! 3.1 B). Those datasets are not redistributable (Netflix was withdrawn,
//! KDD-Cup terms lapsed, Hugewiki's snapshot is unhosted), so this crate
//! *plants* rank-structured ground truth inside synthetic matrices whose
//! shape statistics — dimensions ratio, density, degree skew, rating scale,
//! noise floor — match each dataset, at a configurable scale.
//!
//! Two numbers per dataset matter downstream:
//!
//! * the **synthetic instance** (scaled) is what solvers actually factorize
//!   — convergence trajectories (epochs to reach the RMSE target) are real;
//! * the **full-scale profile** ([`profile::DatasetProfile`]) carries the
//!   paper's m, n, Nz into the simulator's cost model, so simulated
//!   per-epoch times refer to the paper-scale problem.
//!
//! See DESIGN.md §1 for why this substitution preserves the evaluation's
//! comparisons.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod generator;
pub mod loader;
pub mod profile;
pub mod requests;

pub use generator::{MfDataset, SizeClass};
pub use profile::DatasetProfile;
pub use requests::{RequestSampler, SampledRequest};
