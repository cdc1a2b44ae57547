//! Approximate nearest-neighbour retrieval structures: a k-means centroid
//! index for candidate generation and an int8 per-block quantized copy of
//! the item factors for cheap shortlist scanning.
//!
//! The paper's central trade is accuracy for memory bandwidth (FP16 factor
//! storage, CG truncation); this module applies the same dial to serving.
//! The exact scorer streams every item row per request — `O(n·f)` bytes —
//! and `AdmissionReport::effective_gbps` shows that scan is
//! bandwidth-bound. Two-stage retrieval cuts the bytes twice:
//!
//! 1. **Candidate generation.** At publish time the item factors are
//!    clustered with deterministic seeded k-means ([`CentroidIndex`]). A
//!    request scores `k_clusters` centroids (tiny), keeps the top
//!    `n_probe` clusters by inner product, and scans only their members.
//! 2. **Quantized shortlist scan.** The probed members are scored against
//!    an int8 copy of the factors with one scale per
//!    [`QUANT_BLOCK_ROWS`]-row block ([`QuantizedFactors`]) — a quarter of
//!    the FP32 bytes — and only the surviving shortlist is rescored
//!    exactly in FP32 before the final merge.
//!
//! Both structures are immutable once built; a published epoch holds one
//! of each per shard, over the shard's rows. Everything is deterministic:
//! k-means uses a fixed seed and iteration cap, ties break toward lower
//! indices, and member lists are in ascending item order — so the
//! approximate path is as reproducible as the exact one.

use crate::topk::TopK;
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::kernel;

/// Item rows sharing one int8 quantization scale in
/// [`QuantizedFactors`]. 32 rows keeps the scale local enough that one
/// outlier row cannot crush its whole block's resolution, while the
/// per-block overhead (4 bytes per `32·f` weights) stays negligible.
pub const QUANT_BLOCK_ROWS: usize = 32;

/// SplitMix64 — the same full-avalanche finalizer the canary router uses;
/// duplicated here so index construction has no dependency on routing.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build parameters for a [`CentroidIndex`]: how many clusters, the
/// deterministic seed, and the Lloyd-iteration cap.
///
/// The defaults suit catalogs of a few hundred to a few thousand items
/// (the bench datasets); for larger catalogs scale `k_clusters` roughly
/// with `√n` so both stages stay balanced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnnParams {
    /// Number of k-means clusters (clamped to `[1, n_items]` at build).
    pub k_clusters: usize,
    /// Seed for the deterministic initialization: the same factors and
    /// params always produce the same index, on any host.
    pub seed: u64,
    /// Maximum Lloyd iterations (the loop also stops early when the
    /// assignment reaches a fixed point).
    pub max_iters: usize,
}

impl Default for AnnParams {
    fn default() -> AnnParams {
        AnnParams {
            k_clusters: 64,
            seed: 0x5EED_C1C5,
            max_iters: 10,
        }
    }
}

/// How a registry prepares snapshots for approximate retrieval at publish
/// time: the index build parameters plus whether to also attach the int8
/// factor copy. Derived from the engine's configured
/// [`crate::scorer::Retrieval`] mode, so every publish — bootstrap,
/// `register`, `publish` — carries the structures the scorer will ask for.
#[derive(Clone, Copy, Debug)]
pub struct AnnPolicy {
    /// Centroid-index build parameters.
    pub params: AnnParams,
    /// Attach an int8 quantized factor copy alongside the index.
    pub int8: bool,
}

/// A k-means clustering of the item factors, stored inside the snapshot
/// it was built from: `k` centroid rows plus the item ids of each cluster
/// in one flat, offset-indexed member array.
///
/// ```
/// use cumf_numeric::dense::DenseMatrix;
/// use cumf_serve::ann::{AnnParams, CentroidIndex};
///
/// let theta = DenseMatrix::from_vec(4, 1, vec![-1.0, -0.9, 0.9, 1.0]);
/// let idx = CentroidIndex::build(&theta, AnnParams { k_clusters: 2, ..AnnParams::default() });
/// assert_eq!(idx.k_clusters(), 2);
/// // Every item belongs to exactly one cluster.
/// let mut all: Vec<u32> = (0..2).flat_map(|c| idx.members(c).to_vec()).collect();
/// all.sort_unstable();
/// assert_eq!(all, vec![0, 1, 2, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct CentroidIndex {
    params: AnnParams,
    f: usize,
    n_items: usize,
    /// `k × f` centroid rows, row-major.
    centroids: Vec<f32>,
    /// Item ids grouped by cluster, ascending within each cluster.
    members: Vec<u32>,
    /// `k + 1` prefix offsets into `members`.
    offsets: Vec<usize>,
}

impl CentroidIndex {
    /// Cluster `items` (one `f`-long row per item) into
    /// `params.k_clusters` groups with deterministic seeded k-means.
    ///
    /// Initialization picks `k` distinct item rows via a SplitMix64-driven
    /// Fisher–Yates shuffle of the item ids; Lloyd iterations assign each
    /// item to its squared-Euclidean-nearest centroid (ties toward the
    /// lower cluster id) and recompute means, stopping at
    /// `params.max_iters` or a fixed point. A cluster that empties keeps
    /// its previous centroid, so `k` never silently shrinks below the
    /// clamped value.
    ///
    /// Non-finite factors are not rejected. A row with a NaN or ±∞
    /// element is NaN or +∞ away from every centroid, so the strict `<`
    /// against the initial +∞ never fires and the row stays in cluster 0.
    /// Cluster 0's mean then takes NaN (or ±∞) in those elements, so
    /// every row is NaN or +∞ away from it, and a finite row stays in it
    /// only when no centroid is a finite distance away. The partition
    /// still covers every item exactly once.
    pub fn build(items: &DenseMatrix, params: AnnParams) -> CentroidIndex {
        CentroidIndex::build_rows(items.as_slice(), items.rows(), items.cols(), params)
    }

    /// [`CentroidIndex::build`] over `n` borrowed row-major `f`-long rows
    /// (a shard's range); member ids are range-local.
    ///
    /// The assign step is lane-parallel: once per Lloyd iteration the
    /// `k × f` centroids are transposed into an `f × k_pad` scratch (`k`
    /// padded to a multiple of [`kernel::LANES`]), and one
    /// [`kernel::sq_dists_transposed`] call per group of
    /// [`kernel::DIST_ROWS`] items computes their distances to every
    /// centroid, one centroid per lane. Each lane runs the scalar chain
    /// over one (item, centroid) pair — from `0.0`, `j` ascending,
    /// `e = row[j] − cen[j]` then `d += e·e` with no FMA — so every
    /// distance is the same bits as the scalar loop, and the argmin below
    /// sweeps each item's distances in ascending centroid order with the
    /// strict `<`. Padding lanes are computed but never compared. The
    /// assignments, the f64 update and the member lists are therefore
    /// bit-identical to one scalar distance loop per pair (pinned by the
    /// reference in this module's tests).
    pub(crate) fn build_rows(
        theta: &[f32],
        n: usize,
        f: usize,
        params: AnnParams,
    ) -> CentroidIndex {
        CentroidIndex::build_rows_with(theta, n, f, params, kernel::sq_dists_transposed)
    }

    /// [`CentroidIndex::build_rows`] with the assign step's distance
    /// kernel passed in, so tests can pin each of its compilations.
    fn build_rows_with(
        theta: &[f32],
        n: usize,
        f: usize,
        params: AnnParams,
        sq_dists: kernel::SqDistsFn,
    ) -> CentroidIndex {
        let k = params.k_clusters.clamp(1, n.max(1));

        // Deterministic init: shuffle item ids, take the first k as seeds.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (splitmix64(params.seed ^ i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut centroids = vec![0.0f32; k * f];
        for (c, &item) in order.iter().take(k).enumerate() {
            centroids[c * f..(c + 1) * f].copy_from_slice(&theta[item * f..(item + 1) * f]);
        }

        let k_pad = k.next_multiple_of(kernel::LANES);
        let mut cen_t = vec![0.0f32; f * k_pad];
        let mut dists = vec![0.0f32; kernel::DIST_ROWS * k_pad];
        let mut assignment = vec![0usize; n];
        let mut sums = vec![0.0f64; k * f];
        let mut counts = vec![0usize; k];
        for _ in 0..params.max_iters.max(1) {
            for c in 0..k {
                for j in 0..f {
                    cen_t[j * k_pad + c] = centroids[c * f + j];
                }
            }
            // Assign: nearest centroid by squared L2, ties to the lower id.
            let mut changed = false;
            for (g, slots) in assignment.chunks_mut(kernel::DIST_ROWS).enumerate() {
                let v0 = g * kernel::DIST_ROWS;
                let dists = &mut dists[..slots.len() * k_pad];
                let rows = &theta[v0 * f..(v0 + slots.len()) * f];
                sq_dists(rows, slots.len(), &cen_t, k_pad, dists);
                for (slot, line) in slots.iter_mut().zip(dists.chunks_exact(k_pad)) {
                    let mut best = 0usize;
                    let mut best_d = f32::INFINITY;
                    for (c, &d) in line[..k].iter().enumerate() {
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    if *slot != best {
                        *slot = best;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            // Update: mean of each cluster's members; empty clusters keep
            // their previous centroid.
            sums.fill(0.0);
            counts.fill(0);
            for (v, &c) in assignment.iter().enumerate() {
                counts[c] += 1;
                for j in 0..f {
                    sums[c * f + j] += theta[v * f + j] as f64;
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for j in 0..f {
                        centroids[c * f + j] = (sums[c * f + j] / counts[c] as f64) as f32;
                    }
                }
            }
        }

        // Group members by cluster, ascending item id within each (items
        // are walked in id order, so the grouping is already sorted).
        let mut offsets = vec![0usize; k + 1];
        for &c in &assignment {
            offsets[c + 1] += 1;
        }
        for c in 0..k {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut members = vec![0u32; n];
        for (v, &c) in assignment.iter().enumerate() {
            members[cursor[c]] = v as u32;
            cursor[c] += 1;
        }

        CentroidIndex {
            params: AnnParams {
                k_clusters: k,
                ..params
            },
            f,
            n_items: n,
            centroids,
            members,
            offsets,
        }
    }

    /// The build parameters, with `k_clusters` as actually clamped — the
    /// sharded store re-derives per-shard parameters from these.
    pub fn params(&self) -> AnnParams {
        self.params
    }

    /// Number of clusters.
    pub fn k_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Feature dimension of the factors the index was built over.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Number of items the index covers.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Centroid row `c`.
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.f..(c + 1) * self.f]
    }

    /// Item ids of cluster `c`, ascending.
    pub fn members(&self, c: usize) -> &[u32] {
        &self.members[self.offsets[c]..self.offsets[c + 1]]
    }

    /// The `n_probe` clusters with the highest inner product against
    /// `user`, best first (ties toward the lower cluster id — the same
    /// total order as every other ranking in the crate). Centroid scores
    /// use the same [`kernel::dot_lanes`] lane order as every other
    /// scoring surface. A NaN score — the centroid of a cluster holding
    /// a NaN row — ranks as −∞, below every finite score, so that
    /// cluster is probed last rather than first (`total_cmp` puts a
    /// positive NaN above +∞), and an `n_probe` covering every cluster
    /// still covers it.
    pub fn probe(&self, user: &[f32], n_probe: usize) -> Vec<u32> {
        debug_assert_eq!(user.len(), self.f);
        let mut top = TopK::new(n_probe.clamp(1, self.k_clusters()));
        for c in 0..self.k_clusters() {
            let score = kernel::dot_lanes(user, self.centroid(c));
            let score = if score.is_nan() {
                f32::NEG_INFINITY
            } else {
                score
            };
            top.push(c as u32, score);
        }
        top.into_sorted().into_iter().map(|s| s.item).collect()
    }

    /// Payload bytes of the index: centroids, member ids, and offsets.
    pub fn bytes(&self) -> u64 {
        (self.centroids.len() * std::mem::size_of::<f32>()
            + self.members.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<usize>()) as u64
    }
}

/// An int8 copy of the item factors with one FP32 scale per
/// [`QUANT_BLOCK_ROWS`]-row block: `q = round(v / scale)` clamped to
/// `[-127, 127]`, with `scale = max|v| / 127` over the block's finite
/// elements ([`kernel::quantize_i8`]). NaN quantizes to 0 and ±∞ to
/// ±127, so a non-finite element leaves its block-mates' weights as
/// they would be without it; the exact rescore still reads the true
/// value.
///
/// Reading these rows costs a quarter of the FP32 scan bytes; the
/// per-element round-trip error is bounded by `scale / 2`
/// (test-enforced), which is why the shortlist scan may rank with them
/// but the final shortlist is always rescored exactly.
#[derive(Clone, Debug)]
pub struct QuantizedFactors {
    f: usize,
    n_items: usize,
    /// `n × f` quantized weights, row-major.
    data: Vec<i8>,
    /// One scale per row block (`⌈n / QUANT_BLOCK_ROWS⌉` entries).
    scales: Vec<f32>,
}

impl QuantizedFactors {
    /// Quantize `items` (one `f`-long row per item) blockwise. An
    /// all-zero block gets scale 0 and round-trips exactly.
    pub fn build(items: &DenseMatrix) -> QuantizedFactors {
        QuantizedFactors::build_rows(items.as_slice(), items.rows(), items.cols())
    }

    /// [`QuantizedFactors::build`] over `n` borrowed row-major `f`-long
    /// rows; blocks are counted from the first.
    pub(crate) fn build_rows(theta: &[f32], n: usize, f: usize) -> QuantizedFactors {
        let n_blocks = n.div_ceil(QUANT_BLOCK_ROWS).max(1);
        let mut data = vec![0i8; n * f];
        let mut scales = vec![0.0f32; n_blocks];
        for (b, slot) in scales.iter_mut().enumerate() {
            let lo = b * QUANT_BLOCK_ROWS;
            let hi = (lo + QUANT_BLOCK_ROWS).min(n);
            *slot = kernel::quantize_i8(&theta[lo * f..hi * f], &mut data[lo * f..hi * f]);
        }
        QuantizedFactors {
            f,
            n_items: n,
            data,
            scales,
        }
    }

    /// Feature dimension.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Number of quantized item rows.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The scale of `item`'s block.
    #[inline]
    pub fn scale(&self, item: usize) -> f32 {
        self.scales[item / QUANT_BLOCK_ROWS]
    }

    /// The quantized row of `item`.
    #[inline]
    pub fn row(&self, item: usize) -> &[i8] {
        &self.data[item * self.f..(item + 1) * self.f]
    }

    /// Approximate inner product `user · θ̃_item`: the int8 weights are
    /// dequantized inside the accumulation loop by
    /// [`kernel::dot_i8_scaled`] — one byte read per weight, FP32 lanes,
    /// the block scale applied once to the reduced sum.
    #[inline]
    pub fn dot(&self, item: usize, user: &[f32]) -> f32 {
        debug_assert_eq!(user.len(), self.f);
        kernel::dot_i8_scaled(user, self.row(item), self.scale(item))
    }

    /// Payload bytes: the int8 weights plus the per-block scales.
    pub fn bytes(&self) -> u64 {
        (self.data.len() + self.scales.len() * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn theta(n: usize, f: usize, seed: u64) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(n, f);
        let mut state = seed;
        m.fill_with(|| {
            state = splitmix64(state);
            (state % 2000) as f32 / 1000.0 - 1.0
        });
        m
    }

    #[test]
    fn kmeans_is_deterministic_for_a_fixed_seed() {
        let t = theta(60, 4, 7);
        let p = AnnParams {
            k_clusters: 8,
            ..AnnParams::default()
        };
        let a = CentroidIndex::build(&t, p);
        let b = CentroidIndex::build(&t, p);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.members, b.members);
        assert_eq!(a.offsets, b.offsets);
        // A different seed permutes the initialization.
        let c = CentroidIndex::build(&t, AnnParams { seed: 999, ..p });
        assert!(a.centroids != c.centroids || a.members != c.members);
    }

    /// The scalar k-means the lane-parallel assign step replaced, kept
    /// verbatim as the reference: one `d += e·e` chain per (item,
    /// centroid) pair, swept in ascending centroid order.
    fn build_rows_scalar(theta: &[f32], n: usize, f: usize, params: AnnParams) -> CentroidIndex {
        let k = params.k_clusters.clamp(1, n.max(1));

        // Deterministic init: shuffle item ids, take the first k as seeds.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (splitmix64(params.seed ^ i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut centroids = vec![0.0f32; k * f];
        for (c, &item) in order.iter().take(k).enumerate() {
            centroids[c * f..(c + 1) * f].copy_from_slice(&theta[item * f..(item + 1) * f]);
        }

        let mut assignment = vec![0usize; n];
        for _ in 0..params.max_iters.max(1) {
            // Assign: nearest centroid by squared L2, ties to the lower id.
            let mut changed = false;
            for (v, slot) in assignment.iter_mut().enumerate() {
                let row = &theta[v * f..(v + 1) * f];
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for c in 0..k {
                    let cen = &centroids[c * f..(c + 1) * f];
                    let mut d = 0.0f32;
                    for j in 0..f {
                        let e = row[j] - cen[j];
                        d += e * e;
                    }
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            // Update: mean of each cluster's members; empty clusters keep
            // their previous centroid.
            let mut sums = vec![0.0f64; k * f];
            let mut counts = vec![0usize; k];
            for (v, &c) in assignment.iter().enumerate() {
                counts[c] += 1;
                for j in 0..f {
                    sums[c * f + j] += theta[v * f + j] as f64;
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for j in 0..f {
                        centroids[c * f + j] = (sums[c * f + j] / counts[c] as f64) as f32;
                    }
                }
            }
        }

        // Group members by cluster, ascending item id within each (items
        // are walked in id order, so the grouping is already sorted).
        let mut offsets = vec![0usize; k + 1];
        for &c in &assignment {
            offsets[c + 1] += 1;
        }
        for c in 0..k {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut members = vec![0u32; n];
        for (v, &c) in assignment.iter().enumerate() {
            members[cursor[c]] = v as u32;
            cursor[c] += 1;
        }

        CentroidIndex {
            params: AnnParams {
                k_clusters: k,
                ..params
            },
            f,
            n_items: n,
            centroids,
            members,
            offsets,
        }
    }

    /// A catalog drawn from a pool of `n / 4 + 1` distinct rows, so
    /// seeds and members repeat and distances tie exactly; with
    /// `nonfinite`, about one row in eight gets a NaN, +∞ or −∞ element.
    fn generated_catalog(n: usize, f: usize, seed: u64, nonfinite: bool) -> Vec<f32> {
        let mut state = seed;
        let mut next = || {
            state = splitmix64(state);
            state
        };
        let pool = n / 4 + 1;
        // Awkward magnitudes, so a reordered chain changes the bits.
        let distinct: Vec<f32> = (0..pool * f)
            .map(|_| ((next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.7)
            .collect();
        let mut theta = Vec::with_capacity(n * f);
        for _ in 0..n {
            let src = (next() % pool as u64) as usize;
            theta.extend_from_slice(&distinct[src * f..(src + 1) * f]);
        }
        if nonfinite && f > 0 {
            for v in 0..n {
                let r = next();
                if r % 8 == 0 {
                    let special =
                        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(r >> 8) as usize % 3];
                    theta[v * f + (r >> 16) as usize % f] = special;
                }
            }
        }
        theta
    }

    /// The lane-parallel build of `n` generated rows against the scalar
    /// reference, with every compilation of the distance kernel.
    fn check_against_scalar(
        n: usize,
        f: usize,
        k: usize,
        seed: u64,
        nonfinite: bool,
    ) -> Result<(), TestCaseError> {
        let theta = generated_catalog(n, f, seed, nonfinite);
        let params = AnnParams {
            k_clusters: k,
            seed,
            ..AnnParams::default()
        };
        let want = build_rows_scalar(&theta, n, f, params);
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, sq_dists) in kernel::sq_dists_compilations() {
            let got = CentroidIndex::build_rows_with(&theta, n, f, params, sq_dists);
            prop_assert_eq!(got.params, want.params, "{}", name);
            prop_assert_eq!(bits(&got.centroids), bits(&want.centroids), "{}", name);
            prop_assert_eq!(&got.members, &want.members, "{}", name);
            prop_assert_eq!(&got.offsets, &want.offsets, "{}", name);
        }
        let mut all = want.members.clone();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
        for v in 0..n {
            if theta[v * f..(v + 1) * f].iter().any(|x| !x.is_finite()) {
                prop_assert!(want.members(0).contains(&(v as u32)), "row {}", v);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every compilation of the lane-parallel assign step builds the
        /// same index as the scalar reference, bit for bit: unpadded and
        /// lane-multiple `k` and `f`, `k > n` (the clamp), duplicated rows
        /// (exact ties go to the lower id) and non-finite rows (which land
        /// in cluster 0 while the members still partition the catalog).
        #[test]
        fn lane_parallel_kmeans_matches_the_scalar_reference(
            n in 1usize..300,
            f in prop::sample::select(vec![1usize, 3, 7, 8, 9, 17, 100]),
            k in prop::sample::select(vec![1usize, 2, 3, 7, 8, 9, 31, 32, 33, 64]),
            seed in any::<u64>(),
            nonfinite in any::<bool>(),
        ) {
            check_against_scalar(n, f, k, seed, nonfinite)?;
        }
    }

    /// The same comparison at every `n` that leaves a last group of one
    /// to three rows for the distance kernel, finite and non-finite.
    #[test]
    fn lane_parallel_kmeans_matches_the_scalar_reference_on_ragged_row_groups() {
        for rem in 1..kernel::DIST_ROWS {
            for n in [
                rem,
                8 * kernel::DIST_ROWS + rem,
                61 * kernel::DIST_ROWS + rem,
            ] {
                for (f, k) in [(3, 2), (17, 9), (100, 32), (9, 33)] {
                    for nonfinite in [false, true] {
                        let seed = (n * 131 + f * 7 + k) as u64;
                        check_against_scalar(n, f, k, seed, nonfinite).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn members_partition_the_catalog() {
        for (n, k) in [(50, 7), (10, 10), (3, 64), (1, 1)] {
            let idx = CentroidIndex::build(
                &theta(n, 3, 11),
                AnnParams {
                    k_clusters: k,
                    ..AnnParams::default()
                },
            );
            assert_eq!(idx.k_clusters(), k.min(n), "k clamps to n");
            assert_eq!(idx.params().k_clusters, k.min(n));
            let mut all = Vec::new();
            for c in 0..idx.k_clusters() {
                let m = idx.members(c);
                assert!(m.windows(2).all(|w| w[0] < w[1]), "ascending in-cluster");
                all.extend_from_slice(m);
            }
            all.sort_unstable();
            assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn probe_ranks_centroids_by_inner_product() {
        // Two well-separated 1-D clusters: a positive user probes the
        // positive cluster first.
        let t = DenseMatrix::from_vec(6, 1, vec![-1.0, -0.9, -1.1, 0.9, 1.0, 1.1]);
        let idx = CentroidIndex::build(
            &t,
            AnnParams {
                k_clusters: 2,
                ..AnnParams::default()
            },
        );
        let probed = idx.probe(&[1.0], 1);
        assert_eq!(probed.len(), 1);
        let members = idx.members(probed[0] as usize);
        assert_eq!(members, &[3, 4, 5], "positive cluster probed first");
        // Probing every cluster returns them all.
        assert_eq!(idx.probe(&[1.0], 2).len(), 2);
        assert_eq!(idx.probe(&[1.0], 100).len(), 2, "n_probe clamps to k");
    }

    #[test]
    fn a_nan_centroid_is_probed_last() {
        let mut t = theta(200, 4, 5);
        t.row_mut(7)[2] = f32::NAN;
        let idx = CentroidIndex::build(
            &t,
            AnnParams {
                k_clusters: 8,
                ..AnnParams::default()
            },
        );
        let nan = (0..idx.k_clusters())
            .find(|&c| idx.centroid(c).iter().any(|x| x.is_nan()))
            .expect("the NaN row's cluster has a NaN centroid");
        assert!(idx.members(nan).contains(&7));
        for user in [[1.0, 1.0, 1.0, 1.0], [-0.5, 0.25, 1.0, -1.0]] {
            assert!(!idx.probe(&user, 3).contains(&(nan as u32)), "{user:?}");
            let all = idx.probe(&user, 8);
            assert_eq!(all.len(), 8, "n_probe = k still covers every cluster");
            assert_eq!(all.last(), Some(&(nan as u32)), "{user:?}");
        }
    }

    #[test]
    fn int8_round_trip_error_is_within_half_a_scale_per_block() {
        let t = theta(70, 5, 13); // 3 blocks, last one partial
        let q = QuantizedFactors::build(&t);
        assert_eq!(q.n_items(), 70);
        assert_eq!(q.f(), 5);
        for v in 0..70 {
            let scale = q.scale(v);
            assert!(scale > 0.0);
            for (j, &w) in q.row(v).iter().enumerate() {
                let exact = t.row(v)[j];
                let back = w as f32 * scale;
                assert!(
                    (back - exact).abs() <= scale / 2.0 + 1e-6,
                    "item {v} dim {j}: {back} vs {exact} (scale {scale})"
                );
            }
        }
    }

    /// A ±∞ element neither sets its block's scale nor zeroes its
    /// block-mates: their weights and the scale are those of the same
    /// block with that element made finite, ±∞ quantizes to ±127 and NaN
    /// to 0, and every block-mate's approximate dot is finite.
    #[test]
    fn an_infinite_element_leaves_its_block_mates_weights() {
        let clean = theta(40, 3, 23); // blocks 0..32 and 32..40
        let user = [0.25f32, -0.5, 1.0];
        for (v, j, special, weight) in [
            (5, 1, f32::INFINITY, 127),
            (9, 0, f32::NEG_INFINITY, -127),
            (34, 2, f32::INFINITY, 127),
            (12, 2, f32::NAN, 0),
        ] {
            let mut finite = clean.clone();
            finite.row_mut(v)[j] = 0.0;
            let mut t = finite.clone();
            t.row_mut(v)[j] = special;
            let (got, want) = (
                QuantizedFactors::build(&t),
                QuantizedFactors::build(&finite),
            );
            assert_eq!(got.scale(v).to_bits(), want.scale(v).to_bits(), "row {v}");
            assert!(got.scale(v).is_finite() && got.scale(v) > 0.0, "row {v}");
            for u in 0..40 {
                for c in 0..3 {
                    let w = if (u, c) == (v, j) {
                        weight
                    } else {
                        want.row(u)[c]
                    };
                    assert_eq!(got.row(u)[c], w, "{special}: item {u} dim {c}");
                }
                if u != v && u / QUANT_BLOCK_ROWS == v / QUANT_BLOCK_ROWS {
                    assert!(got.dot(u, &user).is_finite(), "{special}: item {u}");
                }
            }
        }
    }

    #[test]
    fn int8_zero_block_round_trips_exactly() {
        let t = DenseMatrix::zeros(40, 3);
        let q = QuantizedFactors::build(&t);
        assert_eq!(q.scale(0), 0.0);
        assert!(q.row(7).iter().all(|&w| w == 0));
        assert_eq!(q.dot(7, &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn quantized_dot_matches_manual_dequantization() {
        let t = theta(34, 4, 17);
        let q = QuantizedFactors::build(&t);
        let user = [0.3f32, -0.7, 0.11, 0.9];
        for v in [0usize, 31, 32, 33] {
            // Reference: widen the weights exactly, dot in the kernel's
            // lane order, apply the block scale once — the documented
            // semantics of the fused kernel.
            let widened: Vec<f32> = q.row(v).iter().map(|&w| w as f32).collect();
            let manual = kernel::dot_lanes(&user, &widened) * q.scale(v);
            assert_eq!(q.dot(v, &user), manual);
            // And it approximates the exact product.
            let exact = kernel::dot_lanes(&user, t.row(v));
            assert!((q.dot(v, &user) - exact).abs() < 0.05, "item {v}");
        }
    }

    #[test]
    fn payload_bytes_are_exact() {
        let t = theta(64, 8, 19);
        let q = QuantizedFactors::build(&t);
        assert_eq!(q.bytes(), 64 * 8 + 2 * 4); // weights + 2 block scales
        let idx = CentroidIndex::build(
            &t,
            AnnParams {
                k_clusters: 4,
                ..AnnParams::default()
            },
        );
        // 4×8 f32 centroids + 64 u32 members + 5 usize offsets.
        assert_eq!(
            idx.bytes(),
            (4 * 8 * 4 + 64 * 4 + 5 * std::mem::size_of::<usize>()) as u64
        );
    }
}
