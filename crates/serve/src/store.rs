//! Model snapshots: one immutable published epoch of item factors, and
//! the crate-internal row-range views of one that scoring passes read.
//! The atomic swap that publishes epochs is
//! [`crate::shard::ShardedFactorStore`].

use crate::ann::{AnnParams, CentroidIndex, QuantizedFactors};
use cumf_numeric::dense::DenseMatrix;
use cumf_telemetry::{FootprintReport, MemoryFootprint};
use std::ops::Range;

/// One immutable published model epoch: item factors, per-item
/// popularity priors, and the epoch number.
///
/// ```
/// use cumf_numeric::dense::DenseMatrix;
/// use cumf_serve::store::ModelSnapshot;
///
/// let theta = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
/// let snap = ModelSnapshot::new(7, theta, vec![0.1, 0.2]);
/// assert_eq!(snap.epoch, 7);
/// assert_eq!(snap.n_items(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ModelSnapshot {
    /// Monotonic epoch number; cache keys embed it so entries from an old
    /// model can never answer for a new one.
    pub epoch: u64,
    /// Item factors `Θ`, one `f`-long row per item.
    item_factors: DenseMatrix,
    /// Per-item additive prior (e.g. log-popularity), added to every score;
    /// empty means no prior.
    popularity: Vec<f32>,
    /// K-means centroid index over the item factors, populated by
    /// [`ModelSnapshot::with_ann`]. Enables the two-stage approximate
    /// retrieval path ([`crate::scorer::Retrieval::Approx`]).
    ann: Option<CentroidIndex>,
    /// Int8 per-block-scale copy of the factors, populated by
    /// [`ModelSnapshot::with_int8`] — the shortlist-scan format of the
    /// approximate path (a quarter of the FP32 scan bytes).
    int8: Option<QuantizedFactors>,
}

impl ModelSnapshot {
    /// A snapshot of `item_factors` with additive `popularity` priors
    /// (pass an empty vector for none; otherwise one entry per item).
    pub fn new(epoch: u64, item_factors: DenseMatrix, popularity: Vec<f32>) -> ModelSnapshot {
        assert!(
            popularity.is_empty() || popularity.len() == item_factors.rows(),
            "popularity prior length {} != item count {}",
            popularity.len(),
            item_factors.rows()
        );
        ModelSnapshot {
            epoch,
            item_factors,
            popularity,
            ann: None,
            int8: None,
        }
    }

    /// Build and attach a [`CentroidIndex`] over the item factors
    /// (builder-style) — the publish-time half of two-stage approximate
    /// retrieval. Costs one seeded k-means pass now; requests probe the
    /// index instead of scanning the full catalog when the scorer runs in
    /// [`crate::scorer::Retrieval::Approx`] mode.
    pub fn with_ann(mut self, params: AnnParams) -> ModelSnapshot {
        self.ann = Some(CentroidIndex::build(&self.item_factors, params));
        self
    }

    /// Build and attach an int8 per-block-scale copy of the factors
    /// (builder-style), the shortlist-scan format of the approximate
    /// path. The FP32 master stays available — final shortlists are
    /// always rescored against it.
    pub fn with_int8(mut self) -> ModelSnapshot {
        self.int8 = Some(QuantizedFactors::build(&self.item_factors));
        self
    }

    /// Number of items (rows of `Θ`).
    pub fn n_items(&self) -> usize {
        self.item_factors.rows()
    }

    /// Feature dimension `f`.
    pub fn f(&self) -> usize {
        self.item_factors.cols()
    }

    /// Whether a centroid index is present.
    pub fn has_ann(&self) -> bool {
        self.ann.is_some()
    }

    /// Whether the int8 factor copy is present.
    pub fn has_int8(&self) -> bool {
        self.int8.is_some()
    }

    /// The centroid index, when [`ModelSnapshot::with_ann`] built one.
    pub fn ann(&self) -> Option<&CentroidIndex> {
        self.ann.as_ref()
    }

    /// The int8 factor copy, when [`ModelSnapshot::with_int8`] built one.
    pub fn int8(&self) -> Option<&QuantizedFactors> {
        self.int8.as_ref()
    }

    /// The FP32 item-factor matrix.
    pub fn item_factors(&self) -> &DenseMatrix {
        &self.item_factors
    }

    /// The per-item popularity priors (empty when none were attached).
    pub fn popularity(&self) -> &[f32] {
        &self.popularity
    }

    /// Borrow item `v`'s FP32 factor row directly — no scratch argument,
    /// no block arithmetic. The single-row accessor the approximate
    /// member scan and exact rescore use per candidate.
    #[inline]
    pub fn item_row(&self, v: usize) -> &[f32] {
        let f = self.f();
        &self.item_factors.as_slice()[v * f..(v + 1) * f]
    }

    /// Additive prior for `item` (0 when no priors were attached).
    #[inline]
    pub fn prior(&self, item: usize) -> f32 {
        if self.popularity.is_empty() {
            0.0
        } else {
            self.popularity[item]
        }
    }

    /// Rows `range` as a [`SnapshotView`], scanned with `ann` and `int8`
    /// — which must be built over exactly those rows.
    pub(crate) fn view<'a>(
        &'a self,
        range: Range<usize>,
        ann: Option<&'a CentroidIndex>,
        int8: Option<&'a QuantizedFactors>,
    ) -> SnapshotView<'a> {
        let f = self.f();
        let rows = range.start * f..range.end * f;
        SnapshotView {
            f,
            n_items: range.len(),
            rows: &self.item_factors.as_slice()[rows],
            priors: if self.popularity.is_empty() {
                &[]
            } else {
                &self.popularity[range]
            },
            ann,
            int8,
        }
    }

    /// Detach the centroid index and int8 copy (sharding rebuilds them
    /// per shard).
    pub(crate) fn take_retrieval(&mut self) -> (Option<CentroidIndex>, Option<QuantizedFactors>) {
        (self.ann.take(), self.int8.take())
    }
}

/// A row range of a [`ModelSnapshot`] plus the retrieval artifacts built
/// over exactly those rows: what one scoring pass reads. Item ids inside
/// a view are range-local, like the index's member ids and int8 rows.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SnapshotView<'a> {
    pub(crate) f: usize,
    pub(crate) n_items: usize,
    pub(crate) rows: &'a [f32],
    /// Empty when the snapshot has no priors.
    pub(crate) priors: &'a [f32],
    pub(crate) ann: Option<&'a CentroidIndex>,
    pub(crate) int8: Option<&'a QuantizedFactors>,
}

impl<'a> SnapshotView<'a> {
    /// FP32 row of range-local item `v`.
    #[inline]
    pub(crate) fn item_row(&self, v: usize) -> &'a [f32] {
        &self.rows[v * self.f..(v + 1) * self.f]
    }
}

impl MemoryFootprint for ModelSnapshot {
    /// Children: `fp32` (the `Θ` matrix), `centroids` (after [`ModelSnapshot::with_ann`]), `int8` (after
    /// [`ModelSnapshot::with_int8`]), and `priors`. Exact payload bytes —
    /// container headers are not counted.
    fn footprint(&self) -> FootprintReport {
        let mut children = vec![FootprintReport::leaf(
            "fp32",
            std::mem::size_of_val(self.item_factors.as_slice()) as u64,
        )];
        if let Some(idx) = &self.ann {
            children.push(FootprintReport::leaf("centroids", idx.bytes()));
        }
        if let Some(q) = &self.int8 {
            children.push(FootprintReport::leaf("int8", q.bytes()));
        }
        children.push(FootprintReport::leaf(
            "priors",
            (self.popularity.len() * std::mem::size_of::<f32>()) as u64,
        ));
        FootprintReport::branch("snapshot", children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;
    use crate::shard::ShardedFactorStore;

    fn snap(epoch: u64, n: usize, f: usize) -> ModelSnapshot {
        let mut m = DenseMatrix::zeros(n, f);
        for i in 0..n {
            for j in 0..f {
                m.set(i, j, (i * f + j) as f32 * 0.1);
            }
        }
        ModelSnapshot::new(epoch, m, vec![])
    }

    // The publish contract of the unsharded store, held by its
    // replacement: a one-shard `ShardedFactorStore`.

    #[test]
    fn publish_swaps_epoch_without_touching_readers() {
        let store = ShardedFactorStore::new(snap(1, 4, 3), 1);
        let held = store.snapshot();
        assert_eq!(store.publish(snap(2, 4, 3)), Ok(2));
        assert_eq!(held.epoch(), 1);
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.snapshot().epoch(), 2);
    }

    #[test]
    fn publish_rejects_a_dimension_mismatch() {
        // The serving scorers are sized for the live f; a snapshot with a
        // different f used to be accepted silently and corrupt the next
        // batch. It is now rejected and the served snapshot is untouched.
        let store = ShardedFactorStore::new(snap(1, 4, 3), 1);
        let err = store.publish(snap(2, 4, 5)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::DimensionMismatch {
                expected: 3,
                got: 5,
                ..
            }
        ));
        assert_eq!(err.reason(), "dimension_mismatch");
        assert_eq!(store.epoch(), 1, "rejected publish must not swap");
        // Item-count changes (catalog growth) are still fine.
        assert_eq!(store.publish(snap(2, 9, 3)), Ok(2));
    }

    #[test]
    fn priors_default_to_zero() {
        let s = snap(0, 3, 2);
        assert_eq!(s.prior(2), 0.0);
        let with = ModelSnapshot::new(0, DenseMatrix::identity(2), vec![0.5, -0.5]);
        assert_eq!(with.prior(0), 0.5);
        assert_eq!(with.prior(1), -0.5);
    }

    #[test]
    #[should_panic(expected = "popularity prior length")]
    fn wrong_prior_length_rejected() {
        let _ = ModelSnapshot::new(0, DenseMatrix::identity(3), vec![1.0]);
    }

    /// The FP32 matrix is the snapshot's one copy of Θ. (The FP16 half
    /// this test is named for left with the FP16 serving path.)
    #[test]
    fn fp16_footprint_is_half_the_fp32_copy() {
        let plain = snap(0, 64, 16);
        let r = plain.footprint();
        assert!(r.verify());
        let find = |r: &cumf_telemetry::FootprintReport, name: &str| {
            r.children()
                .iter()
                .find(|c| c.name() == name)
                .map(|c| c.total_bytes())
        };
        assert_eq!(find(&r, "fp32"), Some(64 * 16 * 4));
        assert_eq!(
            r.total_bytes(),
            64 * 16 * 4,
            "no priors: Θ is the whole footprint"
        );
    }

    #[test]
    fn ann_and_int8_footprints_appear_when_attached() {
        let s = snap(0, 64, 8)
            .with_ann(crate::ann::AnnParams {
                k_clusters: 4,
                ..crate::ann::AnnParams::default()
            })
            .with_int8();
        assert!(s.has_ann() && s.has_int8());
        let r = s.footprint();
        assert!(r.verify());
        let find = |name: &str| {
            r.children()
                .iter()
                .find(|c| c.name() == name)
                .map(|c| c.total_bytes())
        };
        assert_eq!(find("centroids"), Some(s.ann().unwrap().bytes()));
        assert_eq!(find("int8"), Some(s.int8().unwrap().bytes()));
        // int8 weights are a quarter of the fp32 payload (plus scales).
        assert_eq!(find("int8").unwrap(), 64 * 8 + 2 * 4);
        assert_eq!(find("fp32").unwrap(), 64 * 8 * 4);
        // A plain snapshot carries neither component.
        let plain = snap(0, 64, 8).footprint();
        assert!(plain.children().iter().all(|c| c.name() != "centroids"));
        assert!(plain.children().iter().all(|c| c.name() != "int8"));
    }

    #[test]
    fn store_footprint_tracks_the_published_snapshot() {
        let store = ShardedFactorStore::new(snap(0, 8, 4), 1);
        let before = store.footprint().total_bytes();
        store.publish(snap(1, 16, 4)).unwrap();
        let after = store.footprint();
        assert!(after.verify());
        assert_eq!(after.total_bytes(), 2 * before);
        assert_eq!(after.children()[0].name(), "current");
    }
}
