//! Sharded factor storage and scatter-gather scoring.
//!
//! The paper's training-side win comes from partitioning the factor
//! matrices across parallel workers and cache-blocking each partition's
//! walk; this module applies the same reasoning to serving. Item factors
//! are split into contiguous item-id ranges — each shard a row range over
//! the epoch's one [`ModelSnapshot`], so no FP32 or FP16 row or prior is
//! copied, plus a centroid index and int8 copy built over that range —
//! and a request batch is *scattered*: every shard runs the blocked
//! scoring kernel of [`top_k_batch`](crate::scorer::top_k_batch) over its
//! range, producing one bounded heap per (shard, user). The *gather* step
//! merges the per-shard heaps with the deterministic tie-break of
//! [`merge_top_k`] (score descending, item id ascending), so the sharded
//! ranking is bit-identical to the unsharded scorer's — test-enforced for
//! shard counts 1–8 including tied scores straddling shard boundaries.
//!
//! Shard 0 scores on the calling thread and shards 1.. on scoped OS
//! threads, one each (the rayon shim is sequential, so parallelism across
//! shards comes from `std::thread`); a 1-shard snapshot spawns nothing.
//! The merge order is fixed, so results never depend on the schedule.
//! Beyond parallel scoring, contiguous range shards are the on-ramp to
//! multi-node serving: each range could live in a different process and
//! the gather step would not change.

use crate::ann::{AnnParams, AnnPolicy, CentroidIndex, QuantizedFactors};
use crate::error::ServeError;
use crate::registry::ModelId;
use crate::scorer::{scan_view, ScoreConfig};
use crate::store::{ModelSnapshot, SnapshotView};
use crate::topk::{merge_top_k, ScoredItem};
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::kernel;
use cumf_telemetry::{FootprintReport, MemoryFootprint};
use parking_lot::{Mutex, RwLock};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// One contiguous slice of the item catalog: global ids
/// `[start, start + n_items())`, a row range over the epoch's one
/// [`ModelSnapshot`], plus the retrieval artifacts built over exactly
/// those rows.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Global item id of the shard's first row.
    pub start: usize,
    len: usize,
    /// K-means index over the shard's rows; member ids are shard-local.
    pub(crate) ann: Option<CentroidIndex>,
    /// Int8 copy of the shard's rows, blocks counted from `start`.
    pub(crate) int8: Option<QuantizedFactors>,
}

impl Shard {
    /// Number of items in this shard.
    pub fn n_items(&self) -> usize {
        self.len
    }

    /// The shard's rows of `full`, its epoch's snapshot.
    pub(crate) fn view<'a>(&'a self, full: &'a ModelSnapshot) -> SnapshotView<'a> {
        let rows = self.start..self.start + self.len;
        full.view(rows, self.ann.as_ref(), self.int8.as_ref())
    }
}

/// A published model epoch split into contiguous item-range shards.
///
/// Owns the one [`ModelSnapshot`] of the epoch — FP32 rows, FP16 copy and
/// priors — and its shards are row ranges over it: cold-start fold-in
/// solves against the full Θ, and every shard scan slices it.
///
/// ```
/// use cumf_numeric::dense::DenseMatrix;
/// use cumf_serve::shard::ShardedSnapshot;
/// use cumf_serve::store::ModelSnapshot;
///
/// let theta = DenseMatrix::from_vec(5, 2, (0..10).map(|i| i as f32).collect());
/// let sharded = ShardedSnapshot::build(ModelSnapshot::new(3, theta, vec![]), 2);
/// assert_eq!(sharded.epoch(), 3);
/// assert_eq!(sharded.n_shards(), 2);
/// // 5 items over 2 shards: ranges [0,3) and [3,5).
/// assert_eq!(sharded.shards()[0].n_items(), 3);
/// assert_eq!(sharded.shards()[1].start, 3);
/// ```
#[derive(Clone, Debug)]
pub struct ShardedSnapshot {
    full: ModelSnapshot,
    shards: Vec<Shard>,
}

impl ShardedSnapshot {
    /// Split `snapshot` into `n_shards` contiguous item ranges, sized as
    /// evenly as possible (earlier shards take the remainder). The shard
    /// count is clamped to `[1, n_items]` so no shard is ever empty.
    ///
    /// When `snapshot` carries a centroid index, each shard re-clusters
    /// its own rows with `⌈k·len/n⌉` clusters (floored at 1), keeping the
    /// probe/scan ratio at any shard count; an int8 copy is re-quantized
    /// per shard too. The epoch then holds each artifact once.
    pub fn build(snapshot: ModelSnapshot, n_shards: usize) -> ShardedSnapshot {
        ShardedSnapshot::build_with(snapshot, n_shards, None)
    }

    /// [`ShardedSnapshot::build`], also building per shard what `policy`
    /// asks for (a publisher's own index wins: it may be tuned).
    pub(crate) fn build_with(
        mut snapshot: ModelSnapshot,
        n_shards: usize,
        policy: Option<AnnPolicy>,
    ) -> ShardedSnapshot {
        let (n, f) = (snapshot.n_items(), snapshot.f());
        let s = n_shards.clamp(1, n.max(1));
        let (index, int8) = snapshot.take_retrieval();
        let params = index.as_ref().map(CentroidIndex::params);
        let params = params.or(policy.map(|p| p.params));
        let want_int8 = int8.is_some() || policy.is_some_and(|p| p.int8);
        // A single shard's range is the whole catalog: what the publisher
        // built is exactly what the shard would rebuild.
        let (mut index, mut int8) = if s == 1 { (index, int8) } else { (None, None) };
        let theta = snapshot.item_factors().as_slice();
        let (base, rem) = (n / s, n % s);
        let shards = (0..s)
            .map(|i| {
                let (start, len) = (i * base + i.min(rem), base + usize::from(i < rem));
                let rows = &theta[start * f..(start + len) * f];
                let ann = params.map(|p| {
                    index.take().unwrap_or_else(|| {
                        let k = p.k_clusters.clamp(1, n.max(1));
                        let k = (k * len).div_ceil(n.max(1)).max(1);
                        CentroidIndex::build_rows(rows, len, f, AnnParams { k_clusters: k, ..p })
                    })
                });
                let int8 = want_int8.then(|| {
                    int8.take()
                        .unwrap_or_else(|| QuantizedFactors::build_rows(rows, len, f))
                });
                Shard {
                    start,
                    len,
                    ann,
                    int8,
                }
            })
            .collect();
        ShardedSnapshot {
            full: snapshot,
            shards,
        }
    }

    /// Model epoch of this snapshot.
    pub fn epoch(&self) -> u64 {
        self.full.epoch
    }

    /// Feature dimension `f`.
    pub fn f(&self) -> usize {
        self.full.f()
    }

    /// Total items across all shards.
    pub fn n_items(&self) -> usize {
        self.full.n_items()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The epoch's one snapshot: FP32 rows, FP16 copy and priors, which
    /// fold-in solves against and every shard slices. Its centroid index
    /// and int8 copy live in the shards.
    pub fn full(&self) -> &ModelSnapshot {
        &self.full
    }

    /// The shards, in item-range order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Whether every shard carries a centroid index — what an
    /// approximate scan probes (otherwise it scans exactly).
    pub(crate) fn has_ann(&self) -> bool {
        self.shards.iter().all(|s| s.ann.is_some())
    }
}

impl MemoryFootprint for ShardedSnapshot {
    /// Children: `full` (the epoch's one snapshot: FP32, FP16, priors)
    /// and `shards` with one `shard{i}` subtree each, holding what is
    /// truly per shard — its `centroids` and `int8` leaves. Shards are
    /// views, so the total is one copy of each artifact.
    fn footprint(&self) -> FootprintReport {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut leaves = Vec::new();
                if let Some(idx) = &s.ann {
                    leaves.push(FootprintReport::leaf("centroids", idx.bytes()));
                }
                if let Some(q) = &s.int8 {
                    leaves.push(FootprintReport::leaf("int8", q.bytes()));
                }
                FootprintReport::branch(format!("shard{i}"), leaves)
            })
            .collect();
        FootprintReport::branch(
            "sharded_snapshot",
            vec![
                self.full.footprint().renamed("full"),
                FootprintReport::branch("shards", shards),
            ],
        )
    }
}

/// Wall-clock accounting for one shard's scoring pass: the per-shard
/// counters and the `serve.shard{i}.score` span the engine renders from
/// its batch trace.
#[derive(Clone, Copy, Debug)]
pub struct ShardTiming {
    /// Shard index.
    pub shard: usize,
    /// When the pass began: the caller's `t_base` (the engine clock, in a
    /// batch) plus the pass's offset within the call.
    pub start: f64,
    /// Stage-2 score evaluations the shard performed: `items × users` on
    /// the exact path, the pruned candidate count on the approximate one.
    pub scored: u64,
    /// Factor bytes the pass read from the shard's rows, counted where it
    /// read them ([`ScanStats::bytes`](crate::scorer::ScanStats::bytes)):
    /// exact scans count every tile at its stored width (FP16 2 bytes per
    /// element, FP32 4) once per user chunk; approximate scans count the
    /// centroid + member + rescore traffic.
    pub bytes: u64,
    /// Clusters the shard's pass probed, summed over users (0 on the
    /// exact path).
    pub probed_clusters: u64,
    /// Shortlist rows the shard rescored exactly in FP32 (nonzero only on
    /// the int8 approximate path).
    pub rescored: u64,
    /// Nominal floating-point operations of the shard's pass (`2·f` per
    /// scored row, probe and rescore included) from
    /// [`ScanStats`](crate::scorer::ScanStats) — the numerator of
    /// effective GFLOP/s.
    pub flops: u64,
    /// Host wall-clock seconds the shard's pass took.
    pub secs: f64,
}

/// The scatter half of sharded scoring: per-shard rankings (global item
/// ids, pre-merge) plus per-shard timings. Produced by [`scatter_top_k`],
/// consumed by [`ShardScatter::gather`] — the split lets the engine stamp
/// scatter and merge time separately for request-span stage breakdowns.
#[derive(Debug)]
pub struct ShardScatter {
    /// Shard-major rankings: `rankings[shard][user]`.
    rankings: Vec<Vec<Vec<ScoredItem>>>,
    /// Per-shard accounting, in shard order.
    pub timings: Vec<ShardTiming>,
    users: usize,
}

impl ShardScatter {
    /// The gather half: merge each user's per-shard heaps under the
    /// total order of [`merge_top_k`] (score descending, item id
    /// ascending). Consumes the scatter; returns rankings in user order
    /// plus the per-shard timings.
    pub fn gather(mut self, k: usize) -> (Vec<Vec<ScoredItem>>, Vec<ShardTiming>) {
        if let [only] = &mut self.rankings[..] {
            // Single shard: its local order is already the global order.
            return (std::mem::take(only), self.timings);
        }
        let mut scratch: Vec<Vec<ScoredItem>> = vec![Vec::new(); self.rankings.len()];
        let merged = (0..self.users)
            .map(|u| {
                for (slot, rankings) in scratch.iter_mut().zip(&mut self.rankings) {
                    *slot = std::mem::take(&mut rankings[u]);
                }
                merge_top_k(&scratch, k)
            })
            .collect();
        (merged, self.timings)
    }
}

/// Scatter: one blocked scoring pass per shard over its item range —
/// shard 0 on the calling thread, each further shard on a scoped thread.
///
/// Each shard's [`ShardTiming::start`] is `t_base` plus the pass's offset
/// from the call, so a caller passing its clock's current reading gets
/// starts on that clock. Timings come back in shard-index order whatever
/// order the threads finished in.
pub fn scatter_top_k(
    sharded: &ShardedSnapshot,
    user_factors: &DenseMatrix,
    k: usize,
    cfg: &ScoreConfig,
    t_base: f64,
) -> ShardScatter {
    let users = user_factors.rows();
    let anchor = Instant::now();
    // One shard's pass: rankings shifted to global ids, plus its timing.
    let full = sharded.full();
    let score_shard = |idx: usize, shard: &Shard| -> (Vec<Vec<ScoredItem>>, ShardTiming) {
        let start = t_base + anchor.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (mut local, stats) = scan_view(shard.view(full), user_factors, k, cfg);
        for user_ranking in &mut local {
            for item in user_ranking.iter_mut() {
                item.item += shard.start as u32;
            }
        }
        let timing = ShardTiming {
            shard: idx,
            start,
            scored: stats.candidates,
            bytes: stats.bytes,
            probed_clusters: stats.probed_clusters,
            rescored: stats.rescored,
            flops: stats.flops,
            secs: t0.elapsed().as_secs_f64(),
        };
        (local, timing)
    };
    // Shard 0 scores on this thread while shards 1.. score on scoped
    // threads; collecting in index order keeps the timings in shard order.
    // `build_with` clamps the shard count to at least 1, so shard 0 exists.
    let per_shard: Vec<_> = std::thread::scope(|scope| {
        let shards = sharded.shards();
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .skip(1)
            .map(|(idx, shard)| scope.spawn(move || score_shard(idx, shard)))
            .collect();
        let first = score_shard(0, &shards[0]);
        // A shard pass panics only on a scorer bug (its rows are a range
        // of the snapshot, and the engine validates every query first);
        // such a panic is re-raised here with its own payload.
        let rest = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        std::iter::once(first).chain(rest).collect()
    });
    let (rankings, timings) = per_shard.into_iter().unzip();
    ShardScatter {
        rankings,
        timings,
        users,
    }
}

/// Scatter-gather scoring: every shard runs the blocked kernel over its
/// item range, then per-user heaps are merged into global rankings.
/// Returns the rankings plus per-shard timings, whose starts count from
/// the call.
///
/// Bit-identical to [`top_k_batch`](crate::scorer::top_k_batch) over the unsharded snapshot: shard
/// slices preserve row layout so each item's dot product is the same
/// arithmetic, and [`merge_top_k`]'s total order (score descending, item
/// id ascending) picks exactly the set and order one global heap would.
pub fn top_k_batch_sharded_timed(
    sharded: &ShardedSnapshot,
    user_factors: &DenseMatrix,
    k: usize,
    cfg: &ScoreConfig,
) -> (Vec<Vec<ScoredItem>>, Vec<ShardTiming>) {
    scatter_top_k(sharded, user_factors, k, cfg, 0.0).gather(k)
}

/// Score only a caller-supplied candidate slate against one query vector
/// and return the best `k`, best first, plus per-shard timings for the
/// shards that owned at least one candidate.
///
/// This is the candidate-set serving path ([`crate::engine::Query::RankItems`]):
/// the catalog scan is skipped entirely — each slate member is grouped
/// under its owning contiguous-range shard and scored with the same
/// `kernel::dot_lanes + prior` arithmetic as every other surface, so the
/// result is bit-identical to the full sharded top-k ranking restricted
/// to the slate (test-enforced). Duplicate slate entries rank
/// independently. Timing starts count from `t_base`, as in
/// [`scatter_top_k`].
///
/// # Panics
///
/// If `query.len()` is not the model's `f` or a slate id is
/// `>= n_items()`. The engine never passes either: its query is a row of
/// the model's own user factors, and it answers an out-of-range slate id
/// with [`ServeError::UnknownItem`] before scoring.
pub fn rank_slate_sharded(
    sharded: &ShardedSnapshot,
    query: &[f32],
    slate: &[u32],
    k: usize,
    t_base: f64,
) -> (Vec<ScoredItem>, Vec<ShardTiming>) {
    let f = sharded.f();
    assert_eq!(query.len(), f, "query dimension must match the model");
    // Group candidates by owning shard: ranges are contiguous, so the
    // owner is the last shard starting at or before the id (shard 0
    // starts at 0, so there always is one).
    let (full, shards) = (sharded.full(), sharded.shards());
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); shards.len()];
    for &item in slate {
        assert!(
            (item as usize) < sharded.n_items(),
            "slate item out of range"
        );
        let idx = shards.partition_point(|s| s.start <= item as usize) - 1;
        groups[idx].push(item);
    }
    let mut all: Vec<ScoredItem> = Vec::with_capacity(slate.len());
    let mut timings = Vec::new();
    let anchor = Instant::now();
    for (idx, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let start = t_base + anchor.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for &item in group {
            let v = item as usize;
            let score = kernel::dot_lanes(query, full.item_row(v)) + full.prior(v);
            all.push(ScoredItem { item, score });
        }
        let scored = group.len() as u64;
        timings.push(ShardTiming {
            shard: idx,
            start,
            scored,
            bytes: scored * f as u64 * 4,
            probed_clusters: 0,
            rescored: 0,
            flops: 2 * f as u64 * scored,
            secs: t0.elapsed().as_secs_f64(),
        });
    }
    all.sort_unstable_by(ScoredItem::rank_cmp);
    all.truncate(k);
    (all, timings)
}

/// [`top_k_batch_sharded_timed`] without the timings — the plain sharded
/// counterpart of [`top_k_batch`](crate::scorer::top_k_batch).
pub fn top_k_batch_sharded(
    sharded: &ShardedSnapshot,
    user_factors: &DenseMatrix,
    k: usize,
    cfg: &ScoreConfig,
) -> Vec<Vec<ScoredItem>> {
    top_k_batch_sharded_timed(sharded, user_factors, k, cfg).0
}

/// Placeholder model id carried by [`ServeError::DimensionMismatch`] when
/// a bare store (not registered under a [`crate::registry::ModelRegistry`])
/// rejects a publish.
const UNREGISTERED: &str = "(unregistered)";

/// Snapshot-swapped holder of the current [`ShardedSnapshot`] (one shard
/// makes it the plain unsharded store): readers clone an `Arc` per batch,
/// never blocked by a publish in progress, and an old epoch is freed when
/// its last reader drops it.
///
/// ```
/// use cumf_numeric::dense::DenseMatrix;
/// use cumf_serve::shard::ShardedFactorStore;
/// use cumf_serve::store::ModelSnapshot;
///
/// let store = ShardedFactorStore::new(
///     ModelSnapshot::new(0, DenseMatrix::identity(8), vec![]),
///     4,
/// );
/// let held = store.snapshot();
/// store.publish(ModelSnapshot::new(1, DenseMatrix::identity(8), vec![])).unwrap();
/// assert_eq!(held.epoch(), 0); // in-flight batch unaffected
/// assert_eq!(store.epoch(), 1);
/// assert_eq!(store.snapshot().n_shards(), 4); // re-sharded on publish
/// ```
#[derive(Debug)]
pub struct ShardedFactorStore {
    current: RwLock<Arc<ShardedSnapshot>>,
    n_shards: usize,
    /// Weak handles to snapshots this store has *replaced*. A superseded
    /// epoch whose `Weak` still upgrades is memory held alive by some
    /// outside `Arc` (an in-flight batch — fine; a leaked clone — not),
    /// and is reported under `superseded` in the footprint tree. Dead
    /// handles are pruned on every footprint walk.
    superseded: Mutex<Vec<Weak<ShardedSnapshot>>>,
}

impl ShardedFactorStore {
    /// A store serving `snapshot` split into `n_shards` ranges (clamped
    /// to the item count; every later publish re-shards at the same
    /// count).
    pub fn new(snapshot: ModelSnapshot, n_shards: usize) -> ShardedFactorStore {
        ShardedFactorStore::serving(ShardedSnapshot::build(snapshot, n_shards))
    }

    /// A store serving `sharded`; later publishes re-shard at its count.
    pub(crate) fn serving(sharded: ShardedSnapshot) -> ShardedFactorStore {
        ShardedFactorStore {
            n_shards: sharded.n_shards(),
            current: RwLock::new(Arc::new(sharded)),
            superseded: Mutex::new(Vec::new()),
        }
    }

    /// The current sharded snapshot. Cheap (`Arc` clone under a read
    /// lock); hold it for a whole batch so the batch scores one epoch.
    pub fn snapshot(&self) -> Arc<ShardedSnapshot> {
        self.current.read().clone()
    }

    /// Shard, then atomically replace the served snapshot; returns the
    /// new epoch. Sharding runs before the write lock is taken, so
    /// readers only ever wait for the pointer swap.
    ///
    /// The snapshot's feature dimension must match the one currently
    /// served ([`ServeError::DimensionMismatch`] otherwise): every scorer
    /// and user-factor matrix downstream is sized for the live `f`, so a
    /// different `f` is a different model, not a new epoch.
    pub fn publish(&self, snapshot: ModelSnapshot) -> Result<u64, ServeError> {
        let expected = self.current.read().f();
        if snapshot.f() != expected {
            return Err(ServeError::DimensionMismatch {
                model: ModelId::from(UNREGISTERED),
                expected,
                got: snapshot.f(),
            });
        }
        Ok(self.swap(ShardedSnapshot::build(snapshot, self.n_shards)))
    }

    /// Atomically replace the served snapshot with `sharded`, built off
    /// the lock by a caller that has checked its `f`; returns its epoch.
    pub(crate) fn swap(&self, sharded: ShardedSnapshot) -> u64 {
        let (epoch, sharded) = (sharded.epoch(), Arc::new(sharded));
        // The write lock covers the pointer swap only; the replaced epoch
        // is released after it, so freeing it never stalls a reader.
        let old = std::mem::replace(&mut *self.current.write(), sharded);
        // Remember the replaced epoch weakly: if readers keep it alive it
        // shows up under `superseded` in the footprint (the snapshot-leak
        // signal); once the last Arc drops, the handle prunes itself.
        self.superseded.lock().push(Arc::downgrade(&old));
        epoch
    }

    /// Superseded snapshots still alive behind outside `Arc`s, oldest
    /// first. Prunes dead handles as a side effect.
    pub fn live_superseded(&self) -> Vec<Arc<ShardedSnapshot>> {
        let mut weaks = self.superseded.lock();
        weaks.retain(|w| w.strong_count() > 0);
        weaks.iter().filter_map(Weak::upgrade).collect()
    }

    /// Shard count every snapshot is split into.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Epoch of the currently served snapshot.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch()
    }
}

impl MemoryFootprint for ShardedFactorStore {
    /// Children: `current` (the served [`ShardedSnapshot`]) and
    /// `superseded` — one `epoch{N}` subtree per replaced snapshot still
    /// reachable through an outside `Arc`. A `superseded` total that stays
    /// nonzero long after a publish is the snapshot-leak signal.
    fn footprint(&self) -> FootprintReport {
        let current = self.snapshot().footprint().renamed("current");
        let old = self
            .live_superseded()
            .into_iter()
            .map(|s| {
                let epoch = s.epoch();
                s.footprint().renamed(format!("epoch{epoch}"))
            })
            .collect();
        FootprintReport::branch(
            "store",
            vec![current, FootprintReport::branch("superseded", old)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{score_one, top_k_batch};
    use crate::topk::naive_top_k;

    fn snap(n: usize, f: usize, priors: bool) -> ModelSnapshot {
        let mut theta = DenseMatrix::zeros(n, f);
        for i in 0..n {
            for j in 0..f {
                theta.set(i, j, ((i * 31 + j * 7) % 13) as f32 * 0.21 - 1.0);
            }
        }
        let pop = if priors {
            (0..n).map(|i| (i % 5) as f32 * 0.1).collect()
        } else {
            vec![]
        };
        ModelSnapshot::new(0, theta, pop)
    }

    fn users(u: usize, f: usize) -> DenseMatrix {
        let mut x = DenseMatrix::zeros(u, f);
        for i in 0..u {
            for j in 0..f {
                x.set(i, j, ((i * 17 + j * 3) % 11) as f32 * 0.19 - 0.9);
            }
        }
        x
    }

    #[test]
    fn shard_ranges_partition_the_catalog() {
        for (n, s) in [(10, 3), (8, 8), (7, 2), (5, 1), (3, 9)] {
            let sharded = ShardedSnapshot::build(snap(n, 2, true), s);
            assert_eq!(sharded.n_shards(), s.min(n));
            let mut next = 0usize;
            for shard in sharded.shards() {
                assert_eq!(shard.start, next);
                assert!(shard.n_items() > 0, "no shard may be empty");
                next += shard.n_items();
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn shard_slices_carry_identical_rows_and_priors() {
        let full = snap(11, 3, true);
        let sharded = ShardedSnapshot::build(full.clone(), 4);
        for shard in sharded.shards() {
            let view = shard.view(sharded.full());
            for local in 0..shard.n_items() {
                let global = shard.start + local;
                assert_eq!(view.item_row(local), full.item_factors().row(global));
                assert_eq!(view.priors[local], full.prior(global));
            }
        }
    }

    #[test]
    fn fp16_carries_through_sharding() {
        let sharded = ShardedSnapshot::build(snap(9, 4, false).with_fp16(), 3);
        assert!(sharded.full().has_fp16());
        assert!(sharded
            .shards()
            .iter()
            .all(|s| s.view(sharded.full()).f16_rows.is_some()));
        let plain = ShardedSnapshot::build(snap(9, 4, false), 3);
        assert!(plain
            .shards()
            .iter()
            .all(|s| s.view(plain.full()).f16_rows.is_none()));
    }

    #[test]
    fn sharded_scoring_is_bit_identical_to_unsharded() {
        let full = snap(37, 5, true);
        let x = users(6, 5);
        let cfg = ScoreConfig::default();
        let want = top_k_batch(&full, &x, 9, &cfg);
        for s in [1, 2, 3, 7, 8] {
            let sharded = ShardedSnapshot::build(full.clone(), s);
            let (got, timings) = top_k_batch_sharded_timed(&sharded, &x, 9, &cfg);
            assert_eq!(got, want, "{s} shards");
            assert_eq!(timings.len(), sharded.n_shards());
            let scored: u64 = timings.iter().map(|t| t.scored).sum();
            assert_eq!(scored, 37 * 6, "{s} shards must cover every score");
        }
    }

    #[test]
    fn tied_scores_straddling_a_boundary_merge_deterministically() {
        // All items identical ⇒ every score ties; the ranking must be
        // items 0..k in id order no matter where shard cuts fall.
        let theta = DenseMatrix::from_vec(12, 2, vec![0.5; 24]);
        let full = ModelSnapshot::new(0, theta, vec![]);
        let x = users(3, 2);
        let want = top_k_batch(&full, &x, 5, &ScoreConfig::default());
        for s in [2, 3, 5, 7, 8, 12] {
            let sharded = ShardedSnapshot::build(full.clone(), s);
            let got = top_k_batch_sharded(&sharded, &x, 5, &ScoreConfig::default());
            assert_eq!(got, want, "{s} shards");
            for ranking in &got {
                let ids: Vec<u32> = ranking.iter().map(|r| r.item).collect();
                assert_eq!(ids, vec![0, 1, 2, 3, 4]);
            }
        }
    }

    #[test]
    fn rank_slate_matches_the_full_ranking_restricted_to_the_slate() {
        let full = snap(37, 5, true);
        let x = users(1, 5);
        let q = x.row(0);
        let cfg = ScoreConfig::default();
        // Reference: the complete ranking (k = catalog) filtered down to
        // the slate members, truncated to k.
        let slate = vec![4u32, 9, 0, 36, 17, 22];
        let complete = top_k_batch(&full, &x, 37, &cfg).pop().unwrap();
        let want: Vec<ScoredItem> = complete
            .iter()
            .filter(|s| slate.contains(&s.item))
            .take(4)
            .copied()
            .collect();
        for s in [1, 3, 8] {
            let sharded = ShardedSnapshot::build(full.clone(), s);
            let (got, timings) = rank_slate_sharded(&sharded, q, &slate, 4, 0.0);
            assert_eq!(got, want, "{s} shards");
            let scored: u64 = timings.iter().map(|t| t.scored).sum();
            assert_eq!(scored, slate.len() as u64, "{s} shards");
            let bytes: u64 = timings.iter().map(|t| t.bytes).sum();
            assert_eq!(bytes, slate.len() as u64 * 5 * 4, "only slate rows read");
            assert!(timings.iter().all(|t| t.scored > 0), "empty shards skipped");
        }
    }

    #[test]
    fn rank_slate_scores_duplicates_independently() {
        let full = snap(12, 3, false);
        let x = users(1, 3);
        let sharded = ShardedSnapshot::build(full, 3);
        let (got, _) = rank_slate_sharded(&sharded, x.row(0), &[5, 5, 2], 3, 0.0);
        assert_eq!(got.len(), 3);
        assert!(got[0].score >= got[1].score && got[1].score >= got[2].score);
        let fives = got.iter().filter(|s| s.item == 5).count();
        assert_eq!(fives, 2, "each occurrence ranks on its own");
    }

    #[test]
    fn store_republish_reshards_at_the_same_count() {
        let store = ShardedFactorStore::new(snap(10, 2, false), 3);
        assert_eq!(store.n_shards(), 3);
        let epoch = store.publish(snap_at(9, 6, 2)).unwrap();
        assert_eq!(epoch, 9);
        let held = store.snapshot();
        assert_eq!(held.n_shards(), 3);
        assert_eq!(held.n_items(), 6);
    }

    #[test]
    fn store_publish_rejects_a_dimension_mismatch() {
        let store = ShardedFactorStore::new(snap(10, 2, false), 3);
        let err = store.publish(snap_at(9, 6, 4)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::DimensionMismatch {
                expected: 2,
                got: 4,
                ..
            }
        ));
        assert_eq!(store.epoch(), 0, "rejected publish must not swap");
    }

    fn snap_at(epoch: u64, n: usize, f: usize) -> ModelSnapshot {
        let mut s = snap(n, f, false);
        s.epoch = epoch;
        s
    }

    #[test]
    fn shard_timings_account_scan_bytes() {
        let full = snap(37, 5, false);
        let x = users(6, 5);
        let cfg = ScoreConfig::default();
        for s in [1, 3, 8] {
            let sharded = ShardedSnapshot::build(full.clone(), s);
            let (_, timings) = top_k_batch_sharded_timed(&sharded, &x, 9, &cfg);
            let total: u64 = timings.iter().map(|t| t.bytes).sum();
            // 6 users fit one chunk; every shard streams its slice once,
            // so shards partition the unsharded scan exactly.
            assert_eq!(total, 37 * 5 * 4, "{s} shards");
            for (t, shard) in timings.iter().zip(sharded.shards()) {
                assert_eq!(t.bytes, (shard.n_items() * 5 * 4) as u64);
            }
        }
    }

    #[test]
    fn ann_and_int8_carry_through_sharding_with_scaled_clusters() {
        let params = AnnParams {
            k_clusters: 8,
            ..AnnParams::default()
        };
        let parent = snap(40, 3, false).with_ann(params).with_int8();
        let sharded = ShardedSnapshot::build(parent, 4);
        // One copy each: the catalog-wide index and int8 copy are
        // replaced by the shards' own.
        assert!(!sharded.full().has_ann() && !sharded.full().has_int8());
        assert!(sharded.has_ann());
        for shard in sharded.shards() {
            assert!(shard.int8.is_some());
            let idx = shard.ann.as_ref().expect("shard index");
            // 8 clusters over 40 items, 10-item shards ⇒ 2 clusters each.
            assert_eq!(idx.k_clusters(), 2);
        }
        let plain = ShardedSnapshot::build(snap(40, 3, false), 4);
        assert!(plain.shards().iter().all(|s| s.ann.is_none()));
    }

    #[test]
    fn approx_shard_timings_report_measured_traffic() {
        let params = AnnParams {
            k_clusters: 8,
            ..AnnParams::default()
        };
        let full = snap(400, 4, true).with_ann(params).with_int8();
        let x = users(5, 4);
        let cfg = ScoreConfig {
            retrieval: crate::scorer::Retrieval::Approx {
                n_probe: 2,
                quant: crate::scorer::QuantMode::Int8,
            },
            ..ScoreConfig::default()
        };
        for s in [1, 3] {
            let sharded = ShardedSnapshot::build(full.clone(), s);
            let (_, timings) = top_k_batch_sharded_timed(&sharded, &x, 3, &cfg);
            let probed: u64 = timings.iter().map(|t| t.probed_clusters).sum();
            let scored: u64 = timings.iter().map(|t| t.scored).sum();
            let rescored: u64 = timings.iter().map(|t| t.rescored).sum();
            assert!(probed > 0, "{s} shards");
            assert!(scored < 400 * 5, "{s} shards must prune the scan");
            assert!(rescored > 0 && rescored <= scored, "{s} shards");
        }
        // Single shard at the reference shape: the measured approximate
        // traffic must undercut the exact FP32 scan.
        let single = ShardedSnapshot::build(full.clone(), 1);
        let (_, timings) = top_k_batch_sharded_timed(&single, &x, 3, &cfg);
        let (_, exact) = top_k_batch_sharded_timed(&single, &x, 3, &ScoreConfig::default());
        let exact_bytes = exact[0].bytes;
        assert_eq!(exact_bytes, 400 * 4 * 4, "one chunk over 400 × 4 FP32 rows");
        assert!(
            timings[0].bytes < exact_bytes,
            "{} vs {exact_bytes}",
            timings[0].bytes
        );
    }

    #[test]
    fn sharded_snapshot_footprint_sums_full_plus_shards() {
        let sharded = ShardedSnapshot::build(snap(10, 2, true).with_fp16(), 3);
        let r = sharded.footprint();
        assert!(r.verify());
        // full: 10×2 f32 + f16 + 10 prior f32s = 80 + 40 + 40; the 3
        // shards are views over it and add nothing.
        let full = 10 * 2 * 4 + 10 * 2 * 2 + 10 * 4;
        assert_eq!(r.total_bytes(), full);
        assert_eq!(r.children()[0].name(), "full");
        assert_eq!(r.children()[1].children().len(), 3);
    }

    #[test]
    fn superseded_epochs_show_until_their_last_arc_drops() {
        let store = ShardedFactorStore::new(snap(8, 2, false), 2);
        let resident = store.footprint().total_bytes();
        let held = store.snapshot(); // an in-flight batch
        store.publish(snap_at(1, 8, 2)).unwrap();
        let r = store.footprint();
        assert!(r.verify());
        let superseded = r
            .children()
            .iter()
            .find(|c| c.name() == "superseded")
            .expect("superseded branch");
        assert_eq!(superseded.children().len(), 1);
        assert_eq!(superseded.children()[0].name(), "epoch0");
        assert_eq!(r.total_bytes(), 2 * resident, "old epoch still resident");
        drop(held);
        let r = store.footprint();
        assert_eq!(r.total_bytes(), resident, "pruned once the Arc dropped");
        assert!(store.live_superseded().is_empty());
    }

    /// Non-finite factors through the whole scatter → merge path: item 4
    /// holds a NaN element, item 11 a +∞ one (in the `f % 8` tail), and
    /// item 17 is all −0.0. The kernel's accumulators start at +0.0, so a
    /// dot of −0.0 products reduces to +0.0 on every path, and the check
    /// is that each path agrees on it. Served rankings must be bit-identical
    /// to the argsort of `score_one`'s row — NaN and ±∞ scores included —
    /// on 1–3 shards, with and without priors (one of them −0.0).
    #[test]
    fn non_finite_scores_rank_identically_through_scatter_and_merge() {
        let (n, f) = (23, 9);
        let mut theta = DenseMatrix::zeros(n, f);
        for i in 0..n {
            for j in 0..f {
                theta.set(i, j, ((i * 31 + j * 7) % 13) as f32 * 0.21 - 1.0);
            }
        }
        theta.set(4, 2, f32::NAN);
        theta.set(11, 8, f32::INFINITY);
        for j in 0..f {
            theta.set(17, j, -0.0);
        }
        // Mixed-sign users meet the +∞ element with both signs; the
        // all-positive one makes every product of item 17's dot −0.0.
        let mut x = users(4, f);
        for j in 0..f {
            x.set(3, j, 0.5);
        }
        let mut pop: Vec<f32> = (0..n).map(|i| (i % 5) as f32 * 0.1).collect();
        pop[17] = -0.0;
        let bits = |r: &[ScoredItem]| -> Vec<(u32, u32)> {
            r.iter().map(|s| (s.item, s.score.to_bits())).collect()
        };
        for priors in [vec![], pop] {
            let full = ModelSnapshot::new(0, theta.clone(), priors);
            for k in [5, n] {
                let want: Vec<_> = (0..x.rows())
                    .map(|u| bits(&naive_top_k(&score_one(&full, x.row(u), false), k)))
                    .collect();
                for block_items in [None, Some(5)] {
                    let cfg = ScoreConfig {
                        block_items,
                        ..ScoreConfig::default()
                    };
                    for s in 1..=3 {
                        let sharded = ShardedSnapshot::build(full.clone(), s);
                        let scatter = scatter_top_k(&sharded, &x, k, &cfg, 0.0);
                        for (u, want) in want.iter().enumerate() {
                            let lists: Vec<_> =
                                scatter.rankings.iter().map(|r| r[u].clone()).collect();
                            assert_eq!(
                                &bits(&merge_top_k(&lists, k)),
                                want,
                                "user {u}, {s} shards"
                            );
                        }
                        let (got, _) = scatter.gather(k);
                        let got: Vec<_> = got.iter().map(|r| bits(r)).collect();
                        assert_eq!(got, want, "{s} shards, k {k}, blocks {block_items:?}");
                    }
                }
            }
        }
    }
}
