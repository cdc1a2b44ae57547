//! A performance-model GPU simulator for the cuMF_ALS reproduction.
//!
//! The paper's contributions are *memory-hierarchy* and *arithmetic-
//! complexity* effects on NVIDIA GPUs: register tiling, shared-memory
//! staging, cache-assisted non-coalesced loads under low occupancy, an
//! `O(f³) → O(fs·f²)` solver substitution, and FP16 halving the bytes the
//! memory-bound solver moves. None of that requires executing SASS — it
//! requires a faithful model of
//!
//! * the **occupancy** rules that decide how many thread blocks fit on a
//!   streaming multiprocessor ([`occupancy`]),
//! * **coalescing** and the **L1/L2 cache** path that turn warp access
//!   patterns into DRAM transactions ([`memory`], [`cache`]),
//! * the **roofline + latency** timing of a kernel launch ([`kernel`]),
//! * device **memcpy** and **multi-GPU interconnect** transfers
//!   ([`memory`], [`interconnect`]),
//! * and, for the CPU/distributed baselines the paper compares against, an
//!   analogous **host roofline** and **network** model ([`host`]).
//!
//! Kernels in `cumf-als` execute *functionally* on the host (real `f32`
//! arithmetic — convergence results are genuine); each launch additionally
//! produces a [`kernel::KernelCost`] that this crate prices into simulated
//! seconds on a chosen [`device::GpuSpec`]. All experiment harnesses report
//! those simulated seconds, which is what makes ratios comparable to the
//! paper's measurements regardless of the machine running the simulation.
//!
//! Calibrated constants (latency cycles, pipe efficiencies, memcpy
//! efficiency) are documented where they are defined; each traces back to
//! either a vendor datasheet figure or a measurement reported in the paper
//! itself.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod device;
pub mod host;
pub mod interconnect;
pub mod kernel;
pub mod mem_alloc;
pub mod memory;
pub mod occupancy;
pub mod timeline;

pub use device::{GpuGeneration, GpuSpec};
pub use kernel::{KernelCost, LaunchTiming};
pub use occupancy::{KernelResources, Occupancy};
pub use timeline::{ConvergenceCurve, SimClock};
