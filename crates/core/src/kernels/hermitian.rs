//! `get_hermitian` — the memory-optimized Gram-matrix kernel (§III).
//!
//! For every row `u` with non-zeros `{v : r_uv ≠ 0}`, build
//!
//! ```text
//! A_u = Σ_v θ_v θ_vᵀ + λ·n_u·I
//! ```
//!
//! The functional implementation mirrors the CUDA kernel's structure
//! (Figure 2): feature vectors are *staged* in batches of `BIN` (the shared
//! memory buffer), and each batch is folded into the lower triangle of
//! `A_u` by a register-blocked rank-k kernel
//! ([`cumf_numeric::kernel::syrk_packed`]): a small tile of `A_u` stays in
//! registers while all `BIN` staged vectors stream through it, and is
//! stored once — the host form of the paper's register tiling
//! (Solution 1).
//!
//! The host tile is a constant of that kernel's compilation
//! ([`GRAM_ROWS`](cumf_numeric::kernel::GRAM_ROWS) rows × [`LANES`]
//! columns in AVX2,
//! [`GRAM_ROWS_WIDE`](cumf_numeric::kernel::GRAM_ROWS_WIDE) × 16 in
//! AVX-512, sized to the vector registers), not
//! [`HermitianShape::tile`]: the paper's `T × T` tile (`T` = 10 at
//! f = 100) is device geometry, and it is what `gpu-sim` prices —
//! register demand, occupancy, the launch below. [`tiled_rank1_update`]
//! keeps the paper's `T × T` walk for one vector, for the tile ablation.
//!
//! Bit-identity rests on the per-element order, not on any tile: each
//! element still receives `acc += θ_i·θ_j` once per rating, in the row's
//! order, `mul` then `add`; only the loop nest around it changes. The
//! tests pin `hermitian_row` (and `tiled_rank1_update` at every `T`) to
//! the plain rank-1 reference bit for bit — exactly the correctness
//! argument for the CUDA kernel's tiling.
//!
//! The cost side prices the three phases Figure 4 measures — **load**
//! (global→shared staging under a [`LoadPattern`]), **compute** (the
//! `Nz·f²` FMAs), **write** (flushing `A_u` to global memory) — using the
//! occupancy the register demand allows.

use cumf_gpu_sim::kernel::{hermitian_pipe_efficiency, KernelCost};
use cumf_gpu_sim::memory::{
    load_time, streaming_write_time, LoadBreakdown, LoadPattern, StagedLoad,
};
use cumf_gpu_sim::occupancy::{hermitian_regs_per_thread, occupancy, KernelResources, Occupancy};
use cumf_gpu_sim::GpuSpec;
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::kernel::{syrk_packed, LANES};
use cumf_numeric::sym::{packed_len, SymPacked};
use cumf_sparse::CsrMatrix;

/// Geometry of the kernel: feature dimension, staging batch, register tile.
#[derive(Clone, Copy, Debug)]
pub struct HermitianShape {
    /// Latent dimension `f`.
    pub f: usize,
    /// Shared-memory staging batch (`BIN`, 32 in the paper).
    pub bin: usize,
    /// Register tile edge (`T`, 10 in the paper at f = 100). It sizes the
    /// device kernel the cost model prices; the host kernel's register
    /// tile is a constant of `syrk_packed`.
    pub tile: usize,
}

impl HermitianShape {
    /// The paper's geometry at a given `f`.
    pub fn paper(f: usize) -> Self {
        HermitianShape {
            f,
            bin: 32,
            tile: 10,
        }
    }

    /// Thread-block resources this geometry compiles to (64-thread blocks,
    /// as the paper's worked example uses).
    pub fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: hermitian_regs_per_thread(self.f as u32, self.tile as u32, 64),
            threads_per_block: 64,
            shared_mem_per_block: (self.bin * self.f * 4) as u32,
        }
    }
}

/// Accumulate `θθᵀ` into packed `acc`, walking the tile grid exactly as the
/// CUDA kernel does: only tiles with `x ≤ y`, each tile a `T×T` block of
/// FMAs (Figure 2's numbered blocks).
pub fn tiled_rank1_update(acc: &mut [f32], theta: &[f32], tile: usize) {
    let f = theta.len();
    debug_assert_eq!(acc.len(), packed_len(f));
    let g = f.div_ceil(tile);
    for ty in 0..g {
        let row_start = ty * tile;
        let row_end = (row_start + tile).min(f);
        for tx in 0..=ty {
            let col_start = tx * tile;
            let col_end = (col_start + tile).min(f);
            for i in row_start..row_end {
                let ti = theta[i];
                let base = i * (i + 1) / 2;
                // Diagonal tiles only fill their lower half.
                let jmax = if tx == ty {
                    i.min(col_end - 1)
                } else {
                    col_end - 1
                };
                for j in col_start..=jmax {
                    acc[base + j] += ti * theta[j];
                }
            }
        }
    }
}

/// Build `A_u` for one row: stage the row's feature vectors in `BIN`-sized
/// batches (the shared-memory buffer), fold each batch into `A_u` with
/// the register-blocked rank-k kernel [`syrk_packed`], then add `λ·n_u`
/// to the diagonal.
///
/// `staging` is the caller-provided scratch standing in for shared memory
/// (`BIN` rows of `f` floats, each padded to the kernel's lane width);
/// reusing it across rows mirrors how the CUDA kernel reuses its static
/// shared allocation, and keeps the host loop allocation-free.
/// `shape.tile` is not read here: the host's register tile is the
/// kernel's constant, and `T` only prices the device kernel.
pub fn hermitian_row(
    cols: &[u32],
    features: &DenseMatrix,
    lambda: f32,
    shape: &HermitianShape,
    staging: &mut Vec<f32>,
    out: &mut SymPacked,
) {
    let f = shape.f;
    debug_assert_eq!(features.cols(), f);
    debug_assert_eq!(out.dim(), f);
    out.as_mut_slice().fill(0.0);
    let ld = f.next_multiple_of(LANES);

    for batch in cols.chunks(shape.bin) {
        // Stage: copy this batch of feature vectors (global → shared).
        staging.clear();
        for &v in batch {
            staging.extend_from_slice(features.row(v as usize));
            staging.resize(staging.len() + ld - f, 0.0);
        }
        // Stream the whole batch through each register tile.
        syrk_packed(out.as_mut_slice(), f, staging, ld);
    }
    out.add_diagonal(lambda * cols.len() as f32);
}

/// Reference implementation (no staging, no tiling) for equivalence tests.
pub fn hermitian_row_reference(
    cols: &[u32],
    features: &DenseMatrix,
    lambda: f32,
    f: usize,
) -> SymPacked {
    let mut a = SymPacked::zeros(f);
    for &v in cols {
        a.syr(features.row(v as usize));
    }
    a.add_diagonal(lambda * cols.len() as f32);
    a
}

/// The phase breakdown Figure 4 plots for one `get_hermitian` launch.
#[derive(Clone, Copy, Debug)]
pub struct HermitianPhases {
    /// Global→shared staging time (per [`LoadPattern`]).
    pub load: LoadBreakdown,
    /// FMA time for `Σ θθᵀ`.
    pub compute_time: f64,
    /// Time to flush the `A_u`s to global memory.
    pub write_time: f64,
    /// Achieved occupancy of the launch.
    pub occupancy: Occupancy,
}

impl HermitianPhases {
    /// Total kernel time (phases overlap little in this kernel: staging,
    /// accumulation and the final flush are dependency-ordered per block).
    pub fn total(&self) -> f64 {
        self.load.time + self.compute_time + self.write_time
    }
}

/// Workload description at *cost-model* scale: how many rows are updated,
/// how many feature rows are staged from, how many non-zeros drive FMAs.
#[derive(Clone, Copy, Debug)]
pub struct HermitianWorkload {
    /// Rows being updated (m for update-X, n for update-Θ).
    pub rows: u64,
    /// Rows of the staged feature matrix (n for update-X, m for update-Θ).
    pub feature_rows: u64,
    /// Non-zeros processed.
    pub nz: u64,
}

/// Price the three phases of a `get_hermitian` launch on `spec`.
pub fn hermitian_phases(
    spec: &GpuSpec,
    w: &HermitianWorkload,
    shape: &HermitianShape,
    pattern: LoadPattern,
) -> HermitianPhases {
    let occ = occupancy(spec, &shape.resources());
    let f = shape.f as u64;

    let load = load_time(
        spec,
        &occ,
        pattern,
        &StagedLoad {
            total_bytes: w.nz * f * 4,
            unique_bytes: w.feature_rows * f * 4,
        },
    );

    // FMAs: Nz × f(f+1)/2 into the lower triangle (the paper quotes Nz·f²
    // flops, which is the same quantity counting FMA = 2 ops).
    let fmas = w.nz as f64 * packed_len(shape.f) as f64;
    let compute_time = 2.0 * fmas / (spec.peak_fp32_flops * hermitian_pipe_efficiency(spec));

    // Flush: the solver consumes full (symmetrized) f×f matrices.
    let write_time = streaming_write_time(spec, w.rows * f * f * 4);

    HermitianPhases {
        load,
        compute_time,
        write_time,
        occupancy: occ,
    }
}

/// The accumulated [`KernelCost`] of a launch — the operation counters the
/// Table-I harness reads.
pub fn hermitian_cost(
    spec: &GpuSpec,
    w: &HermitianWorkload,
    shape: &HermitianShape,
    pattern: LoadPattern,
) -> KernelCost {
    let phases = hermitian_phases(spec, w, shape, pattern);
    let f = shape.f as f64;
    KernelCost {
        flops_fp32: 2.0 * w.nz as f64 * packed_len(shape.f) as f64,
        flops_fp16: 0.0,
        dram_read_bytes: phases.load.dram_bytes,
        dram_write_bytes: (w.rows as f64) * f * f * 4.0,
        l2_wire_bytes: (w.nz as f64) * f * 4.0,
        transactions: (w.nz as f64) * f * 4.0 / 128.0,
        mlp: match pattern {
            LoadPattern::Coalesced => 2.0,
            _ => 32.0,
        },
        pipe_efficiency: hermitian_pipe_efficiency(spec),
    }
}

/// Run `get_hermitian` functionally for all rows of `r` (parallel over rows
/// like the GPU's one-block-per-row mapping), fused with a consumer — the
/// trainer fuses bias + solve here so the `A_u`s never all materialize.
pub fn for_each_row_hermitian<F>(
    r: &CsrMatrix,
    features: &DenseMatrix,
    lambda: f32,
    shape: &HermitianShape,
    consumer: F,
) where
    F: Fn(usize, &SymPacked) + Sync,
{
    use rayon::prelude::*;
    (0..r.rows()).into_par_iter().for_each_init(
        || (SymPacked::zeros(shape.f), Vec::new()),
        |(acc, staging), u| {
            hermitian_row(r.row_cols(u), features, lambda, shape, staging, acc);
            consumer(u, acc);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_numeric::stats::XorShift64;

    fn random_features(rows: usize, f: usize, seed: u64) -> DenseMatrix {
        let mut rng = XorShift64::new(seed);
        let mut m = DenseMatrix::zeros(rows, f);
        m.fill_with(|| rng.next_f32() - 0.5);
        m
    }

    #[test]
    fn tiled_update_matches_syr() {
        let mut rng = XorShift64::new(3);
        for f in [1usize, 5, 10, 16, 23, 100] {
            for tile in [1usize, 3, 10] {
                let theta: Vec<f32> = (0..f).map(|_| rng.next_f32() - 0.5).collect();
                let mut tiled = vec![0.0f32; packed_len(f)];
                tiled_rank1_update(&mut tiled, &theta, tile);
                let mut reference = SymPacked::zeros(f);
                reference.syr(&theta);
                for (a, b) in tiled.iter().zip(reference.as_slice()) {
                    assert_eq!(a, b, "f={f} tile={tile}: tiling must be bitwise-identical");
                }
            }
        }
    }

    #[test]
    fn staged_row_matches_reference_bitwise() {
        // The BIN-staged, tiled kernel must produce the same A_u as a plain
        // rank-1 loop: same additions in the same per-element order.
        let f = 24;
        let features = random_features(50, f, 7);
        let cols: Vec<u32> = vec![3, 11, 17, 20, 42, 49, 5, 9, 13, 27, 31, 44];
        let shape = HermitianShape { f, bin: 5, tile: 7 };
        let mut staging = Vec::new();
        let mut a = SymPacked::zeros(f);
        hermitian_row(&cols, &features, 0.05, &shape, &mut staging, &mut a);
        let reference = hermitian_row_reference(&cols, &features, 0.05, f);
        assert_eq!(a.as_slice(), reference.as_slice());
    }

    #[test]
    fn lambda_scales_with_row_count() {
        let f = 8;
        let features = random_features(10, f, 1);
        let shape = HermitianShape { f, bin: 4, tile: 4 };
        let mut staging = Vec::new();
        let mut a = SymPacked::zeros(f);
        hermitian_row(&[1, 2, 3], &features, 0.5, &shape, &mut staging, &mut a);
        let bare = hermitian_row_reference(&[1, 2, 3], &features, 0.0, f);
        for i in 0..f {
            assert!(
                (a.get(i, i) - bare.get(i, i) - 1.5).abs() < 1e-6,
                "λ·n_u = 0.5·3 on the diagonal"
            );
        }
    }

    #[test]
    fn empty_row_is_pure_regularizer() {
        let f = 6;
        let features = random_features(5, f, 2);
        let shape = HermitianShape::paper(f);
        let mut staging = Vec::new();
        let mut a = SymPacked::zeros(f);
        hermitian_row(&[], &features, 0.05, &shape, &mut staging, &mut a);
        // n_u = 0 → A_u is exactly zero (the trainer special-cases empty
        // rows rather than solving a singular system).
        assert!(a.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        use cumf_sparse::coo::CooMatrix;
        let f = 12;
        let mut coo = CooMatrix::new(30, 20);
        let mut rng = XorShift64::new(11);
        for _ in 0..200 {
            coo.push(
                rng.next_below(30) as u32,
                rng.next_below(20) as u32,
                rng.next_f32(),
            );
        }
        let r = CsrMatrix::from_coo(&coo);
        let features = random_features(20, f, 5);
        let shape = HermitianShape { f, bin: 8, tile: 5 };

        let results: Vec<parking_lot::Mutex<Option<SymPacked>>> =
            (0..30).map(|_| parking_lot::Mutex::new(None)).collect();
        for_each_row_hermitian(&r, &features, 0.1, &shape, |u, a| {
            *results[u].lock() = Some(a.clone());
        });
        for (u, cell) in results.iter().enumerate() {
            let got = cell.lock().take().unwrap();
            let want = hermitian_row_reference(r.row_cols(u), &features, 0.1, f);
            assert_eq!(got.as_slice(), want.as_slice(), "row {u}");
        }
    }

    #[test]
    fn figure4_phase_shape() {
        // Netflix update-X on Maxwell: nonCoal-L1 load < nonCoal-noL1 < coal;
        // compute identical across patterns.
        let spec = GpuSpec::maxwell_titan_x();
        let w = HermitianWorkload {
            rows: 480_189,
            feature_rows: 17_770,
            nz: 99_072_112,
        };
        let shape = HermitianShape::paper(100);
        let l1 = hermitian_phases(&spec, &w, &shape, LoadPattern::NonCoalescedL1);
        let no_l1 = hermitian_phases(&spec, &w, &shape, LoadPattern::NonCoalescedNoL1);
        let coal = hermitian_phases(&spec, &w, &shape, LoadPattern::Coalesced);
        assert!(l1.load.time < no_l1.load.time);
        assert!(no_l1.load.time < coal.load.time);
        assert_eq!(l1.compute_time, coal.compute_time);
        assert_eq!(
            l1.occupancy.blocks_per_sm, 6,
            "the paper's occupancy example"
        );
    }

    #[test]
    fn update_theta_writes_less_for_netflix_shape() {
        // n < m on Netflix (Table II), so update-Θ flushes fewer Gram
        // matrices. (The paper's Fig-4 caption swaps m and n; we follow the
        // physics and note the discrepancy in EXPERIMENTS.md.)
        let spec = GpuSpec::maxwell_titan_x();
        let shape = HermitianShape::paper(100);
        let x = hermitian_phases(
            &spec,
            &HermitianWorkload {
                rows: 480_189,
                feature_rows: 17_770,
                nz: 99_072_112,
            },
            &shape,
            LoadPattern::NonCoalescedL1,
        );
        let theta = hermitian_phases(
            &spec,
            &HermitianWorkload {
                rows: 17_770,
                feature_rows: 480_189,
                nz: 99_072_112,
            },
            &shape,
            LoadPattern::NonCoalescedL1,
        );
        assert!(theta.write_time < x.write_time);
        // But update-Θ's load is slower: the staged working set (X, 192 MB)
        // overwhelms L2, killing cross-block reuse.
        assert!(theta.load.time > x.load.time);
    }

    #[test]
    fn cost_counters_match_table1_complexity() {
        let spec = GpuSpec::maxwell_titan_x();
        let w = HermitianWorkload {
            rows: 1000,
            feature_rows: 500,
            nz: 50_000,
        };
        let shape = HermitianShape::paper(100);
        let cost = hermitian_cost(&spec, &w, &shape, LoadPattern::NonCoalescedL1);
        // C = Nz·f(f+1) ≈ Nz·f²; intensity C/M ~ f/4 per byte.
        assert!((cost.flops_fp32 - 50_000.0 * 5050.0 * 2.0).abs() < 1.0);
        assert!(cost.arithmetic_intensity() > 1.0);
    }
}
