//! Batched top-k scoring: a blocked user×item GEMM reduced through
//! per-user bounded heaps.
//!
//! The score matrix `S = X_batch · Θᵀ (+ priors)` is never materialized.
//! Work is tiled: users are processed in chunks of
//! [`ScoreConfig::user_chunk`] (the tile's user height; the chunks run one
//! after another on the calling thread) and items in blocks; each tile
//! re-reads a Θ-block that fits in cache while streaming the chunk's user
//! rows — the same register/cache-blocking reasoning as the paper's
//! `get_hermitian`, applied to inference. Inside a tile the arithmetic is
//! the register-blocked microkernel of [`cumf_numeric::kernel`]:
//! [`kernel::score_tile`] scores [`kernel::TILE_USERS`] users per Θ pass
//! with [`kernel::LANES`] accumulator lanes each, and on the FP16 path
//! [`kernel::score_tile_f16`] fuses the f16→f32 widen into that loop — no
//! scratch widening pass, each Θ chunk decoded once per `TILE_USERS`
//! users. The kernel's fixed lane order is the determinism contract:
//! every scoring surface (blocked, sharded, approximate, and the
//! [`score_one`] reference) reduces through the same lanes, so they stay
//! bit-identical to each other by construction.
//!
//! Since the two-stage retrieval change the scorer also carries an
//! *approximate* mode ([`Retrieval::Approx`]): when the snapshot has a
//! [`crate::ann::CentroidIndex`], each user scores `k_clusters` centroids,
//! scans only the members of the top `n_probe` clusters (optionally from
//! the int8 copy), and rescores the surviving shortlist exactly in FP32 —
//! trading recall for an order-of-magnitude cut in scan bytes. With
//! `n_probe == k_clusters` and no quantization the approximate path
//! covers every item with identical arithmetic, so it is bit-identical to
//! [`Retrieval::Exact`] (property-test-enforced).

use crate::ann::CentroidIndex;
use crate::query::Explanation;
use crate::store::{ModelSnapshot, SnapshotView};
use crate::topk::{ScoredItem, TopK};
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::kernel;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shortlist precision for [`Retrieval::Approx`]'s cluster-member scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QuantMode {
    /// Scan probed members in FP32 — fewer items, full precision, no
    /// rescore pass needed.
    None,
    /// Scan probed members from the snapshot's int8 copy (¼ of the FP32
    /// bytes), then rescore the shortlist exactly in FP32. Falls back to
    /// [`QuantMode::None`] when the snapshot carries no int8 copy.
    Int8,
}

/// Retrieval mode: how much of the catalog a request's scoring pass
/// actually reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Retrieval {
    /// Scan every item row — the exact blocked GEMM path.
    #[default]
    Exact,
    /// Two-stage approximate retrieval: probe the snapshot's centroid
    /// index, scan only the top `n_probe` clusters' members (per
    /// `quant`), rescore the shortlist exactly in FP32. Falls back to
    /// [`Retrieval::Exact`] when the snapshot carries no index (counted
    /// per model as `serve_ann_fallback_total`).
    Approx {
        /// Clusters scanned per user, clamped to `[1, k_clusters]`.
        n_probe: usize,
        /// Precision of the cluster-member scan.
        quant: QuantMode,
    },
}

impl Retrieval {
    /// Whether this is the exact full-scan mode.
    pub fn is_exact(&self) -> bool {
        matches!(self, Retrieval::Exact)
    }
}

/// Measured work of one scoring pass. Both paths count the factor bytes
/// they read where they read them — the exact scan at each
/// `score_tile`/`score_tile_f16` call, the approximate one at each probe,
/// member scan and rescore — and that count is what flows into
/// `serve_scan_bytes_total`, the `serve_ann_*` counters, and
/// `AdmissionReport::effective_gbps`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Factor bytes the pass streamed (centroids + member rows + rescore
    /// rows on the approximate path; every Θ tile at its stored width —
    /// 2 bytes per element from the FP16 copy, 4 from FP32 — once per
    /// user chunk on the exact path). Priors and user rows are not
    /// counted.
    pub bytes: u64,
    /// Clusters probed, summed over users (0 on the exact path).
    pub probed_clusters: u64,
    /// Item rows scored in stage 2, summed over users. On the exact path
    /// this is the full `n_items × users` scan.
    pub candidates: u64,
    /// Shortlist rows rescored exactly in FP32, summed over users
    /// (nonzero only on the int8 approximate path).
    pub rescored: u64,
    /// Nominal floating-point operations of the pass: `2·f` per scored
    /// row (one multiply + one add per coordinate), covering the centroid
    /// probe, the stage-2 scan, and the rescore. Paired with the
    /// score-stage seconds this yields effective GFLOP/s, the
    /// compute-side twin of `effective_gbps`.
    pub flops: u64,
}

/// Tiling and precision knobs for the batched scorer.
#[derive(Clone, Copy, Debug)]
pub struct ScoreConfig {
    /// Items per Θ-block (the cache-resident tile edge). `None` auto-tunes
    /// from the model's feature dimension so the block stays ~100 KiB
    /// regardless of `f` (see [`ScoreConfig::effective_block_items`]);
    /// `Some(n)` is an explicit override.
    pub block_items: Option<usize>,
    /// Users per score tile: the tile's user height, i.e. how many users
    /// share each pass over a Θ-block on the exact path.
    pub user_chunk: usize,
    /// Read the FP16 factor copy when the snapshot carries one (exact
    /// path only; the approximate shortlist scan uses `retrieval`'s
    /// [`QuantMode`] instead).
    pub use_fp16: bool,
    /// Exact full scan, or two-stage approximate retrieval (see
    /// [`Retrieval`]).
    pub retrieval: Retrieval,
}

impl Default for ScoreConfig {
    fn default() -> ScoreConfig {
        ScoreConfig {
            block_items: None,
            user_chunk: 32,
            use_fp16: false,
            retrieval: Retrieval::Exact,
        }
    }
}

impl ScoreConfig {
    /// Auto-tuned Θ-block footprint target, bytes. ~100 KiB is L2-resident
    /// on every device the simulator models, and far larger than the
    /// heap's O(k) working set.
    pub const AUTO_BLOCK_BYTES: usize = 100 * 1024;

    /// Items per Θ-block for a model of feature dimension `f`: the
    /// explicit override when set, otherwise [`Self::AUTO_BLOCK_BYTES`]
    /// divided by the FP32 row footprint `4·f`, clamped to `[16, 4096]`.
    /// At `f = 100` this lands on the 256-item block the scorer always
    /// used; a wide model (`f = 400`) drops to 64 items and a narrow one
    /// (`f = 8`) grows to 3200 — same cache footprint either way.
    ///
    /// ```
    /// use cumf_serve::scorer::ScoreConfig;
    ///
    /// let auto = ScoreConfig::default();
    /// assert_eq!(auto.effective_block_items(100), 256);
    /// assert_eq!(auto.effective_block_items(400), 64);
    /// let fixed = ScoreConfig { block_items: Some(17), ..auto };
    /// assert_eq!(fixed.effective_block_items(400), 17);
    /// ```
    pub fn effective_block_items(&self, f: usize) -> usize {
        match self.block_items {
            Some(n) => n.max(1),
            None => (Self::AUTO_BLOCK_BYTES / (4 * f.max(1))).clamp(16, 4096),
        }
    }
}

/// Score every row of `user_factors` against the snapshot's items and
/// return each user's top `k` items, best first.
///
/// Honors `cfg.retrieval`: [`Retrieval::Exact`] (or an `Approx` request
/// against a snapshot with no centroid index) runs the blocked full scan;
/// [`Retrieval::Approx`] runs the two-stage probe/scan/rescore path. This
/// is [`top_k_batch_stats`] with the [`ScanStats`] dropped.
///
/// On the exact path scores are `x_u · θ_v + prior(v)`, with the dot
/// evaluated in [`kernel`]'s fixed lane order on the blocked and naive
/// paths alike, so results are bit-identical to
/// [`naive_top_k`](crate::topk::naive_top_k) over [`score_one`]'s rows.
pub fn top_k_batch(
    snapshot: &ModelSnapshot,
    user_factors: &DenseMatrix,
    k: usize,
    cfg: &ScoreConfig,
) -> Vec<Vec<ScoredItem>> {
    top_k_batch_stats(snapshot, user_factors, k, cfg).0
}

/// [`top_k_batch`] plus the [`ScanStats`] of the pass: the bytes, rows
/// and FLOPs it counted as it read them — the entry point the shard
/// scatter-gather uses.
pub fn top_k_batch_stats(
    snapshot: &ModelSnapshot,
    user_factors: &DenseMatrix,
    k: usize,
    cfg: &ScoreConfig,
) -> (Vec<Vec<ScoredItem>>, ScanStats) {
    let view = snapshot.view(0..snapshot.n_items(), snapshot.ann(), snapshot.int8());
    scan_view(view, user_factors, k, cfg)
}

/// [`top_k_batch_stats`] over one view (a shard's pass); item ids are
/// range-local.
pub(crate) fn scan_view(
    view: SnapshotView<'_>,
    user_factors: &DenseMatrix,
    k: usize,
    cfg: &ScoreConfig,
) -> (Vec<Vec<ScoredItem>>, ScanStats) {
    assert_eq!(
        user_factors.cols(),
        view.f,
        "user factor dimension must match the model"
    );
    if let Retrieval::Approx { n_probe, quant } = cfg.retrieval {
        if let Some(index) = view.ann {
            return top_k_batch_approx(view, index, user_factors, k, n_probe, quant, cfg);
        }
    }
    let (rows, bytes) = top_k_batch_exact(view, user_factors, k, cfg);
    let candidates = view.n_items as u64 * user_factors.rows() as u64;
    let stats = ScanStats {
        bytes,
        probed_clusters: 0,
        candidates,
        rescored: 0,
        flops: 2 * view.f as u64 * candidates,
    };
    (rows, stats)
}

/// Two-stage approximate retrieval: per user, rank the `k_clusters`
/// centroids, scan the members of the top `n_probe` clusters (from the
/// int8 copy when requested and present, FP32 otherwise), then — on the
/// int8 path — rescore an oversampled `4·k` shortlist exactly in FP32.
/// The FP32 member scan pushes straight into the final heap with the same
/// `dot + prior` arithmetic — [`kernel::dot_lanes`] over a borrowed row —
/// as the exact scan, which is what makes the full-probe/no-quant case
/// bit-identical to [`Retrieval::Exact`].
fn top_k_batch_approx(
    view: SnapshotView<'_>,
    index: &CentroidIndex,
    user_factors: &DenseMatrix,
    k: usize,
    n_probe: usize,
    quant: QuantMode,
    cfg: &ScoreConfig,
) -> (Vec<Vec<ScoredItem>>, ScanStats) {
    let f = view.f;
    let users = user_factors.rows();
    let chunk = cfg.user_chunk.max(1);
    let int8 = match quant {
        QuantMode::Int8 => view.int8,
        QuantMode::None => None,
    };
    // Oversample the int8 shortlist so quantization roundoff near the
    // k-th score boundary rarely evicts a true top-k item before the
    // exact rescore can save it.
    let shortlist = (4 * k).max(k).max(1);
    let probed = AtomicU64::new(0);
    let candidates = AtomicU64::new(0);
    let rescored = AtomicU64::new(0);
    // Priors borrowed once for the whole pass; empty means "add 0".
    let priors = view.priors;
    let prior = |v: usize| if priors.is_empty() { 0.0 } else { priors[v] };

    let mut heaps: Vec<TopK> = (0..users).map(|_| TopK::new(k)).collect();
    heaps
        .par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(chunk_idx, chunk_heaps)| {
            let user0 = chunk_idx * chunk;
            let (mut p, mut c, mut r) = (0u64, 0u64, 0u64);
            for (du, heap) in chunk_heaps.iter_mut().enumerate() {
                let xu = user_factors.row(user0 + du);
                let clusters = index.probe(xu, n_probe);
                p += clusters.len() as u64;
                match int8 {
                    Some(q) => {
                        let mut pre = TopK::new(shortlist);
                        for &cluster in &clusters {
                            for &item in index.members(cluster as usize) {
                                let v = item as usize;
                                let s = q.dot(v, xu) + prior(v);
                                pre.push(item, s);
                                c += 1;
                            }
                        }
                        for cand in pre.into_sorted() {
                            let v = cand.item as usize;
                            let s = kernel::dot_lanes(xu, view.item_row(v)) + prior(v);
                            heap.push(cand.item, s);
                            r += 1;
                        }
                    }
                    None => {
                        for &cluster in &clusters {
                            for &item in index.members(cluster as usize) {
                                let v = item as usize;
                                let s = kernel::dot_lanes(xu, view.item_row(v)) + prior(v);
                                heap.push(item, s);
                                c += 1;
                            }
                        }
                    }
                }
            }
            probed.fetch_add(p, Ordering::Relaxed);
            candidates.fetch_add(c, Ordering::Relaxed);
            rescored.fetch_add(r, Ordering::Relaxed);
        });

    let probed = probed.into_inner();
    let candidates = candidates.into_inner();
    let rescored = rescored.into_inner();
    // Measured traffic: every user reads all k_clusters centroid rows for
    // the probe, stage 2 reads each candidate row at the scan width
    // (1 byte/coord int8, 4 FP32), and the rescore re-reads shortlist
    // rows in FP32.
    let width: u64 = if int8.is_some() { 1 } else { 4 };
    let probe_dots = users as u64 * index.k_clusters() as u64;
    let bytes = probe_dots * f as u64 * 4 + candidates * f as u64 * width + rescored * f as u64 * 4;
    let stats = ScanStats {
        bytes,
        probed_clusters: probed,
        candidates,
        rescored,
        flops: 2 * f as u64 * (probe_dots + candidates + rescored),
    };
    (heaps.into_iter().map(TopK::into_sorted).collect(), stats)
}

/// The exact blocked full-scan kernel behind [`top_k_batch`]; returns the
/// rankings and the factor bytes the tiles read.
///
/// Each worker owns one `chunk × block` score tile that
/// [`kernel::score_tile`] (or, on the FP16 path,
/// [`kernel::score_tile_f16`] with the widen fused into the loop — no
/// scratch widening pass) fills per Θ-block. Each tile row then gets its
/// priors (or `+ 0.0`) added in place in one vectorizable pass and drains
/// into its user's heap through [`TopK::push_slice`], which skips every
/// 8-score chunk below the heap's current k-th score. Each chunk sums the
/// `len·f·width` bytes of the tiles it scores and publishes its total
/// once.
fn top_k_batch_exact(
    view: SnapshotView<'_>,
    user_factors: &DenseMatrix,
    k: usize,
    cfg: &ScoreConfig,
) -> (Vec<Vec<ScoredItem>>, u64) {
    let n = view.n_items;
    let f = view.f;
    let users = user_factors.rows();
    let block = cfg.effective_block_items(f);
    let chunk = cfg.user_chunk.max(1);
    let fp16_rows = if cfg.use_fp16 { view.f16_rows } else { None };
    let width = if fp16_rows.is_some() { 2 } else { 4 };
    let (theta, priors) = (view.rows, view.priors);
    let x = user_factors.as_slice();
    let bytes = AtomicU64::new(0);

    let tile_len = chunk.min(users.max(1)) * block;
    let mut heaps: Vec<TopK> = (0..users).map(|_| TopK::new(k)).collect();
    heaps.par_chunks_mut(chunk).enumerate().for_each_init(
        || vec![0.0f32; tile_len],
        |scores, (chunk_idx, chunk_heaps)| {
            let user0 = chunk_idx * chunk;
            let cu = chunk_heaps.len();
            let xs = &x[user0 * f..(user0 + cu) * f];
            let mut start = 0;
            let mut read = 0u64;
            while start < n {
                let len = block.min(n - start);
                read += (len * f * width) as u64;
                match fp16_rows {
                    Some(q) => kernel::score_tile_f16(
                        xs,
                        cu,
                        &q[start * f..(start + len) * f],
                        len,
                        f,
                        scores,
                    ),
                    None => kernel::score_tile(
                        xs,
                        cu,
                        &theta[start * f..(start + len) * f],
                        len,
                        f,
                        scores,
                    ),
                }
                let tile_priors = (!priors.is_empty()).then(|| &priors[start..start + len]);
                for (du, heap) in chunk_heaps.iter_mut().enumerate() {
                    let row = &mut scores[du * len..(du + 1) * len];
                    match tile_priors {
                        Some(p) => row.iter_mut().zip(p).for_each(|(s, &pr)| *s += pr),
                        // The `+ 0.0` is the absent prior: it normalizes a
                        // −0.0 dot to +0.0 exactly like the reference
                        // path's `+ prior(v)`.
                        None => row.iter_mut().for_each(|s| *s += 0.0),
                    }
                    heap.push_slice(start as u32, row);
                }
                start += len;
            }
            bytes.fetch_add(read, Ordering::Relaxed);
        },
    );
    let rows = heaps.into_iter().map(TopK::into_sorted).collect();
    (rows, bytes.into_inner())
}

/// Unblocked reference: the full score row for one user (`n` entries, in
/// item order). Tests pair this with [`naive_top_k`](crate::topk::naive_top_k)
/// as ground truth. It routes through the same [`kernel`] dots as the
/// blocked path — [`kernel::dot_lanes`] on FP32 rows, [`kernel::dot_f16`]
/// on the FP16 copy — so the bit-identity contract holds by construction,
/// not by accident.
pub fn score_one(snapshot: &ModelSnapshot, user_factors: &[f32], fp16: bool) -> Vec<f32> {
    let f = snapshot.f();
    assert_eq!(user_factors.len(), f);
    let n = snapshot.n_items();
    let f16_rows = if fp16 { snapshot.f16_factors() } else { None };
    match f16_rows {
        Some(q) => (0..n)
            .map(|v| kernel::dot_f16(user_factors, &q[v * f..(v + 1) * f]) + snapshot.prior(v))
            .collect(),
        None => (0..n)
            .map(|v| kernel::dot_lanes(user_factors, snapshot.item_row(v)) + snapshot.prior(v))
            .collect(),
    }
}

/// Per-factor explanation of one (query, item) score: the `q[j]·θ_v[j]`
/// products in factor order plus the item's prior, alongside the exact
/// served score.
///
/// The served score is `kernel::dot_lanes(q, θ_v) + prior` — the same
/// arithmetic as every other scoring surface, so it is bit-identical to
/// the score a top-k pass would assign the item. The explanation terms
/// sum in plain factor order, which reassociates the lane reduction, so
/// [`Explanation::score`] matches the served score only to within FP32
/// roundoff (≤ 1e-6 at serving dimensions, property-test-enforced).
pub fn explain_one(snapshot: &ModelSnapshot, query: &[f32], item: usize) -> (Explanation, f32) {
    let f = snapshot.f();
    assert_eq!(query.len(), f, "query dimension must match the model");
    assert!(item < snapshot.n_items(), "item out of range");
    let row = snapshot.item_row(item);
    let terms = query.iter().zip(row).map(|(&a, &b)| a * b).collect();
    let prior = snapshot.prior(item);
    let score = kernel::dot_lanes(query, row) + prior;
    (Explanation { terms, prior }, score)
}

/// Convenience: top-k for a single user factor vector.
pub fn top_k_one(
    snapshot: &ModelSnapshot,
    user_factors: &[f32],
    k: usize,
    cfg: &ScoreConfig,
) -> Vec<ScoredItem> {
    let m = DenseMatrix::from_vec(1, user_factors.len(), user_factors.to_vec());
    top_k_batch(snapshot, &m, k, cfg).pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::naive_top_k;
    use rand::prelude::*;

    fn random_snapshot(n: usize, f: usize, seed: u64) -> ModelSnapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut theta = DenseMatrix::zeros(n, f);
        theta.fill_with(|| rng.gen_f32() * 2.0 - 1.0);
        let pop: Vec<f32> = (0..n).map(|_| rng.gen_f32() * 0.1).collect();
        ModelSnapshot::new(0, theta, pop)
    }

    fn random_users(u: usize, f: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = DenseMatrix::zeros(u, f);
        x.fill_with(|| rng.gen_f32() * 2.0 - 1.0);
        x
    }

    #[test]
    fn blocked_equals_naive_across_tilings() {
        let snap = random_snapshot(137, 9, 1);
        let users = random_users(11, 9, 2);
        // Reference: naive argsort over the unblocked score rows.
        let want: Vec<Vec<ScoredItem>> = (0..users.rows())
            .map(|u| naive_top_k(&score_one(&snap, users.row(u), false), 10))
            .collect();
        for (block_items, user_chunk) in [(Some(1), 1), (Some(7), 3), (Some(64), 32), (None, 1000)]
        {
            let cfg = ScoreConfig {
                block_items,
                user_chunk,
                ..ScoreConfig::default()
            };
            let got = top_k_batch(&snap, &users, 10, &cfg);
            assert_eq!(got, want, "tiling {block_items:?}×{user_chunk}");
        }
    }

    #[test]
    fn fp16_path_differs_only_within_roundoff() {
        let snap = random_snapshot(64, 8, 3).with_fp16();
        let users = random_users(4, 8, 4);
        let cfg32 = ScoreConfig::default();
        let cfg16 = ScoreConfig {
            use_fp16: true,
            ..ScoreConfig::default()
        };
        let full = top_k_batch(&snap, &users, 64, &cfg32);
        let quant = top_k_batch(&snap, &users, 64, &cfg16);
        for (a, b) in full.iter().flatten().zip(quant.iter().flatten()) {
            // Same items may reorder slightly, but every score moves by at
            // most the FP16 roundoff amplified by f=8 accumulation.
            assert!((a.score - b.score).abs() < 2e-2);
        }
    }

    #[test]
    fn top_k_one_matches_batch_row() {
        let snap = random_snapshot(50, 6, 5);
        let users = random_users(3, 6, 6);
        let cfg = ScoreConfig::default();
        let batch = top_k_batch(&snap, &users, 5, &cfg);
        for (u, row) in batch.iter().enumerate() {
            assert_eq!(&top_k_one(&snap, users.row(u), 5, &cfg), row);
        }
    }

    #[test]
    fn priors_shift_the_ranking() {
        // Two identical items; only the prior separates them.
        let theta = DenseMatrix::from_vec(2, 1, vec![1.0, 1.0]);
        let snap = ModelSnapshot::new(0, theta, vec![0.0, 1.0]);
        let top = top_k_one(&snap, &[1.0], 2, &ScoreConfig::default());
        assert_eq!(top[0].item, 1, "prior must break the tie");
        assert_eq!(top[0].score, 2.0);
    }

    #[test]
    fn auto_block_targets_100kib_and_clamps() {
        let auto = ScoreConfig::default();
        // 100 KiB / (4·f), so narrow models take bigger blocks…
        assert_eq!(auto.effective_block_items(100), 256);
        assert_eq!(auto.effective_block_items(50), 512);
        // …and the range is clamped at both ends.
        assert_eq!(auto.effective_block_items(1), 4096);
        assert_eq!(auto.effective_block_items(100_000), 16);
        // Explicit override wins, floored at 1.
        let fixed = ScoreConfig {
            block_items: Some(0),
            ..auto
        };
        assert_eq!(fixed.effective_block_items(100), 1);
    }

    #[test]
    fn scan_bytes_halves_on_the_effective_fp16_path() {
        let bytes = |snap: &ModelSnapshot, users: usize, cfg: &ScoreConfig| {
            top_k_batch_stats(snap, &random_users(users, 8, 19), 5, cfg)
                .1
                .bytes
        };
        let plain = random_snapshot(100, 8, 9);
        let cfg32 = ScoreConfig::default();
        // 33 users at user_chunk=32 ⇒ 2 chunks over 100×8 f32 rows.
        assert_eq!(bytes(&plain, 33, &cfg32), 2 * 100 * 8 * 4);
        assert_eq!(bytes(&plain, 0, &cfg32), 0, "no users, no scan");
        let cfg16 = ScoreConfig {
            use_fp16: true,
            ..cfg32
        };
        // FP16 requested but absent: the loop falls back to FP32 reads and
        // the accounting must agree.
        assert_eq!(bytes(&plain, 33, &cfg16), 2 * 100 * 8 * 4);
        let quant = random_snapshot(100, 8, 9).with_fp16();
        assert_eq!(bytes(&quant, 33, &cfg16), 2 * 100 * 8 * 2);
    }

    #[test]
    fn k_larger_than_catalog_returns_all() {
        let snap = random_snapshot(7, 4, 8);
        let top = top_k_one(&snap, &[0.5; 4], 100, &ScoreConfig::default());
        assert_eq!(top.len(), 7);
    }

    #[test]
    fn explain_terms_sum_to_the_served_score() {
        let snap = random_snapshot(30, 8, 20);
        let users = random_users(1, 8, 21);
        let q = users.row(0);
        let (e, score) = explain_one(&snap, q, 7);
        assert_eq!(e.terms.len(), 8);
        assert_eq!(e.prior, snap.prior(7));
        // Factor-order summation reassociates the lane reduction, so the
        // explained total matches to roundoff, not bits…
        assert!((e.score() - score).abs() < 1e-6);
        // …while the served score itself is bit-identical to the
        // reference scoring surface.
        assert_eq!(score, score_one(&snap, q, false)[7]);
    }

    fn approx_cfg(n_probe: usize, quant: QuantMode) -> ScoreConfig {
        ScoreConfig {
            retrieval: Retrieval::Approx { n_probe, quant },
            ..ScoreConfig::default()
        }
    }

    #[test]
    fn full_probe_unquantized_approx_is_bit_identical_to_exact() {
        use crate::ann::AnnParams;
        let params = AnnParams {
            k_clusters: 8,
            ..AnnParams::default()
        };
        let snap = random_snapshot(120, 7, 10).with_ann(params);
        let users = random_users(9, 7, 11);
        let exact = top_k_batch(&snap, &users, 10, &ScoreConfig::default());
        let approx = top_k_batch(&snap, &users, 10, &approx_cfg(8, QuantMode::None));
        assert_eq!(exact, approx, "full probe + FP32 must cover every item");
    }

    #[test]
    fn approx_without_an_index_falls_back_to_the_exact_scan() {
        let snap = random_snapshot(60, 5, 12);
        let users = random_users(4, 5, 13);
        let cfg = approx_cfg(2, QuantMode::Int8);
        let (rows, stats) = top_k_batch_stats(&snap, &users, 5, &cfg);
        assert_eq!(rows, top_k_batch(&snap, &users, 5, &ScoreConfig::default()));
        assert_eq!(stats.probed_clusters, 0, "fallback never probes");
        assert_eq!(stats.candidates, 60 * 4);
        // One chunk of 4 users reads all 60 × 5 FP32 rows once.
        assert_eq!(stats.bytes, 60 * 5 * 4);
    }

    #[test]
    fn approx_stats_count_the_measured_traffic() {
        use crate::ann::AnnParams;
        let params = AnnParams {
            k_clusters: 10,
            ..AnnParams::default()
        };
        let snap = random_snapshot(1000, 6, 14).with_ann(params).with_int8();
        let users = random_users(5, 6, 15);
        let (rows, stats) = top_k_batch_stats(&snap, &users, 4, &approx_cfg(3, QuantMode::Int8));
        assert_eq!(rows.len(), 5);
        assert_eq!(stats.probed_clusters, 5 * 3);
        assert!(stats.candidates < 1000 * 5, "probe must prune the scan");
        assert!(stats.rescored > 0 && stats.rescored <= 5 * 16);
        assert!(stats.rescored <= stats.candidates);
        // bytes = probe (all centroids, FP32) + int8 member scan + FP32 rescore.
        let want = 5 * 10 * 6 * 4 + stats.candidates * 6 + stats.rescored * 6 * 4;
        assert_eq!(stats.bytes, want);
        // The whole point: far fewer bytes than the exact FP32 scan.
        let exact = top_k_batch_stats(&snap, &users, 4, &ScoreConfig::default()).1;
        assert_eq!(
            exact.bytes,
            1000 * 6 * 4,
            "one chunk over 1000 × 6 FP32 rows"
        );
        let exact = exact.bytes;
        assert!(
            stats.bytes < exact,
            "approx {} vs exact {exact}",
            stats.bytes
        );
    }

    #[test]
    fn int8_rescore_keeps_recall_high_on_a_random_snapshot() {
        use crate::ann::AnnParams;
        use crate::metrics::overlap_at_k;
        let params = AnnParams {
            k_clusters: 16,
            ..AnnParams::default()
        };
        let snap = random_snapshot(500, 12, 16).with_ann(params).with_int8();
        let users = random_users(20, 12, 17);
        let exact = top_k_batch(&snap, &users, 10, &ScoreConfig::default());
        let approx = top_k_batch(&snap, &users, 10, &approx_cfg(8, QuantMode::Int8));
        let mut recall = 0.0;
        for (a, b) in exact.iter().zip(approx.iter()) {
            recall += overlap_at_k(a, b, 10);
        }
        recall /= 20.0;
        assert!(
            recall >= 0.9,
            "recall@10 {recall} below the documented floor"
        );
    }
}
