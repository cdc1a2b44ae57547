//! Bounded top-k selection: a size-capped min-heap per user, plus the
//! deterministic merge the sharded scorer reduces through.
//!
//! Scoring a user against `n` items produces `n` candidate scores but the
//! response only carries `k ≪ n` of them. [`TopK`] keeps the best `k` in
//! `O(k)` memory — versus `O(n)` for a full argsort — which is what lets
//! the scorer walk item blocks without ever materializing the full score
//! row.
//!
//! ## The cost model
//!
//! Once `k` items are held, [`TopK`] caches a *floor*: the total-order key
//! of the worst retained score. A candidate whose key is below the floor
//! cannot enter and is rejected by one integer compare, before the heap is
//! touched. [`TopK::push_slice`] applies that test to eight scores at a
//! time: a chunk with no lane at or above the floor costs one 8-lane
//! compare, and only the lanes that pass reach [`TopK::push`], where an
//! entrant costs `O(log k)` heap work. For scores in random order the
//! entrants number about `k·(1 + ln(n/k))` of the `n`, so the drain is a
//! streaming compare over the row, not `n` heap operations.
//!
//! ## The tie-break contract
//!
//! Every selection and merge in this module orders candidates by **score
//! descending, then item id ascending** ([`ScoredItem::rank_cmp`], a
//! total order via `f32::total_cmp`). The contract matters because the
//! same item set reaches a ranking along different paths — one heap walk,
//! a naive argsort, or a merge of per-shard heaps — and responses must be
//! bit-identical regardless of which path produced them (test-enforced).
//! The floor test is `≥`, not `>`: a score equal to the worst retained one
//! still reaches the id tie-break, so the retained set does not depend on
//! arrival order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Lanes per [`TopK::push_slice`] chunk.
const FILTER_LANES: usize = 8;

/// `score`'s position in [`f32::total_cmp`]'s order, as an `i32`: the
/// magnitude bits of a negative value are flipped so that comparing keys
/// as signed integers is exactly `total_cmp` — −NaN < −∞ < … < −0.0 <
/// +0.0 < … < +∞ < +NaN, payloads included.
#[inline(always)]
fn order_key(score: f32) -> i32 {
    let bits = score.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// One recommendation candidate: an item index and its score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredItem {
    /// Item (column of the rating matrix / row of `Θ`).
    pub item: u32,
    /// Predicted score, priors included.
    pub score: f32,
}

impl ScoredItem {
    /// The ranking order: `Less` when `self` ranks before `other` —
    /// higher score first (by `f32::total_cmp`), ties broken toward the
    /// smaller item id so rankings are deterministic regardless of scoring
    /// order. Every sort, heap and merge in this module orders by it.
    #[inline]
    pub fn rank_cmp(&self, other: &ScoredItem) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(self.item.cmp(&other.item))
    }

    /// Whether `self` ranks strictly before `other` under
    /// [`ScoredItem::rank_cmp`].
    #[inline]
    pub fn ranks_before(&self, other: &ScoredItem) -> bool {
        self.rank_cmp(other) == Ordering::Less
    }
}

/// Heap adapter: orders entries *worst-first* so a max-[`BinaryHeap`] keeps
/// the current cut-off candidate at the top.
#[derive(Clone, Copy, Debug)]
struct WorstFirst(ScoredItem);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for WorstFirst {}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.rank_cmp(&other.0)
    }
}

/// A bounded min-heap keeping the best `k` of a stream of scored items.
///
/// ```
/// use cumf_serve::topk::TopK;
///
/// let mut top = TopK::new(2);
/// for (item, score) in [(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0)] {
///     top.push(item, score);
/// }
/// let best = top.into_sorted();
/// assert_eq!(best[0].item, 1);
/// assert_eq!(best[1].item, 3);
/// ```
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    /// [`order_key`] of the worst retained score once `k` items are held;
    /// `i32::MIN` (admit all) until then.
    floor: i32,
    heap: BinaryHeap<WorstFirst>,
}

impl TopK {
    /// An empty selector that will retain at most `k` items.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            floor: i32::MIN,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer one candidate. Kept only if fewer than `k` items have been
    /// seen or it ranks before the current worst retained item; a score
    /// below that item's is rejected by the cached floor without touching
    /// the heap.
    #[inline]
    pub fn push(&mut self, item: u32, score: f32) {
        if self.k == 0 || order_key(score) < self.floor {
            return;
        }
        let cand = WorstFirst(ScoredItem { item, score });
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if cand >= *worst {
                return;
            }
            *worst = cand;
        }
        if self.heap.len() == self.k {
            if let Some(worst) = self.heap.peek() {
                self.floor = order_key(worst.0.score);
            }
        }
    }

    /// Offer `scores[j]` as item `first_item + j` for every `j` — the same
    /// retained set as [`TopK::push`] on each in turn, but tested against
    /// the floor eight lanes at a time: a chunk with no score at or above
    /// the worst retained one is skipped without heap work, and only a
    /// chunk with a lane that passes goes through `push`, whose floor test
    /// then rejects the other lanes. Item ids must fit in `u32`.
    ///
    /// ```
    /// use cumf_serve::topk::{naive_top_k, TopK};
    ///
    /// let scores: Vec<f32> = (0..19).map(|i| ((i * 7) % 5) as f32).collect();
    /// let mut top = TopK::new(4);
    /// top.push_slice(0, &scores);
    /// assert_eq!(top.into_sorted(), naive_top_k(&scores, 4));
    /// ```
    pub fn push_slice(&mut self, first_item: u32, scores: &[f32]) {
        let mut chunks = scores.chunks_exact(FILTER_LANES);
        let mut item = first_item;
        for chunk in &mut chunks {
            let floor = self.floor;
            // A branch-free OR over the lanes, so the test compiles to
            // vector compares; `push` repeats it per lane against the
            // floor as it rises within the chunk.
            if chunk
                .iter()
                .fold(false, |any, &s| any | (order_key(s) >= floor))
            {
                for (lane, &s) in chunk.iter().enumerate() {
                    self.push(item + lane as u32, s);
                }
            }
            item = item.wrapping_add(FILTER_LANES as u32);
        }
        for (j, &s) in chunks.remainder().iter().enumerate() {
            self.push(item + j as u32, s);
        }
    }

    /// Number of items currently retained (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The retained items, best first.
    pub fn into_sorted(self) -> Vec<ScoredItem> {
        let mut v: Vec<ScoredItem> = self.heap.into_iter().map(|w| w.0).collect();
        v.sort_unstable_by(ScoredItem::rank_cmp);
        v
    }
}

/// Merge per-shard rankings into one global top-k, best first.
///
/// Each input list must already be sorted best-first by the module's
/// tie-break order (score descending, item id ascending) — which is what
/// [`TopK::into_sorted`] and [`naive_top_k`] produce. The merge preserves
/// that total order, so the result is bit-identical to ranking the union
/// of all candidates in one pass: shard boundaries can never reorder tied
/// scores (test-enforced, including ties straddling shards).
///
/// ```
/// use cumf_serve::topk::{merge_top_k, ScoredItem};
///
/// let s = |item, score| ScoredItem { item, score };
/// // Two shards, a tie at 1.0 straddling them: item 2 must win the tie.
/// let a = vec![s(5, 1.0), s(0, 0.5)];
/// let b = vec![s(2, 1.0), s(9, 0.7)];
/// let merged = merge_top_k(&[a, b], 3);
/// assert_eq!(
///     merged.iter().map(|x| x.item).collect::<Vec<_>>(),
///     vec![2, 5, 9]
/// );
/// ```
pub fn merge_top_k(lists: &[Vec<ScoredItem>], k: usize) -> Vec<ScoredItem> {
    debug_assert!(lists
        .iter()
        .all(|l| l.windows(2).all(|w| w[0].rank_cmp(&w[1]).is_le())));
    let mut all: Vec<ScoredItem> = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        all.extend_from_slice(list);
    }
    all.sort_unstable_by(ScoredItem::rank_cmp);
    all.truncate(k);
    all
}

/// Reference selection: full argsort, then truncate. `O(n log n)` — used by
/// tests as the ground truth the heap path must match exactly. Follows the
/// module's tie-break contract: score descending, then item id ascending.
pub fn naive_top_k(scores: &[f32], k: usize) -> Vec<ScoredItem> {
    let mut all: Vec<ScoredItem> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| ScoredItem {
            item: i as u32,
            score: s,
        })
        .collect();
    all.sort_unstable_by(ScoredItem::rank_cmp);
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_best_k_sorted() {
        let scores = [0.5, 3.0, -1.0, 2.0, 3.0, 0.0];
        let mut top = TopK::new(3);
        for (i, &s) in scores.iter().enumerate() {
            top.push(i as u32, s);
        }
        let got = top.into_sorted();
        // Ties (items 1 and 4, both 3.0) break toward the smaller id.
        assert_eq!(
            got.iter().map(|s| s.item).collect::<Vec<_>>(),
            vec![1, 4, 3]
        );
        assert_eq!(got, naive_top_k(&scores, 3));
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut top = TopK::new(10);
        top.push(7, 1.0);
        top.push(3, 2.0);
        let got = top.into_sorted();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].item, 3);
    }

    #[test]
    fn k_zero_retains_nothing() {
        let mut top = TopK::new(0);
        top.push(0, 1.0);
        assert!(top.is_empty());
        assert!(top.into_sorted().is_empty());
    }

    #[test]
    fn merge_matches_single_list_ranking() {
        // Items 0..12 with scores that collide in pairs; split across three
        // "shards" by item-id range, the merge must equal one global sort.
        let scores: Vec<f32> = (0..12).map(|i| ((i * 7) % 5) as f32).collect();
        let want = naive_top_k(&scores, 6);
        let lists: Vec<Vec<ScoredItem>> = [(0usize, 4usize), (4, 8), (8, 12)]
            .iter()
            .map(|&(lo, hi)| {
                let mut top = TopK::new(6);
                for (i, &score) in scores.iter().enumerate().take(hi).skip(lo) {
                    top.push(i as u32, score);
                }
                top.into_sorted()
            })
            .collect();
        assert_eq!(merge_top_k(&lists, 6), want);
    }

    #[test]
    fn merge_breaks_ties_toward_smaller_item_id_across_lists() {
        let s = |item, score| ScoredItem { item, score };
        // The tied score 2.0 appears in both lists; item 1 (second list)
        // must rank before item 6 (first list).
        let a = vec![s(6, 2.0), s(0, 1.0)];
        let b = vec![s(1, 2.0), s(3, 1.5)];
        let merged = merge_top_k(&[a, b], 4);
        assert_eq!(
            merged.iter().map(|x| x.item).collect::<Vec<_>>(),
            vec![1, 6, 3, 0]
        );
        // Reversing the list order changes nothing: the order is total.
        let a = vec![s(6, 2.0), s(0, 1.0)];
        let b = vec![s(1, 2.0), s(3, 1.5)];
        assert_eq!(merge_top_k(&[b, a], 4), merged);
    }

    #[test]
    fn merge_truncates_and_handles_empty_lists() {
        let s = |item, score| ScoredItem { item, score };
        let lists = vec![vec![], vec![s(2, 1.0)], vec![], vec![s(1, 3.0)]];
        let merged = merge_top_k(&lists, 1);
        assert_eq!(merged, vec![s(1, 3.0)]);
        assert!(merge_top_k(&[], 5).is_empty());
    }

    #[test]
    fn naive_top_k_tie_break_is_score_desc_then_item_asc() {
        // Regression: the documented contract, checked directly.
        let scores = [2.0f32, 3.0, 3.0, 1.0, 3.0];
        let got = naive_top_k(&scores, 5);
        assert_eq!(
            got.iter().map(|s| s.item).collect::<Vec<_>>(),
            vec![1, 2, 4, 0, 3]
        );
    }

    #[test]
    fn matches_naive_on_adversarial_ties() {
        // All-equal scores: ranking must be item order, and heap == argsort.
        let scores = vec![1.0f32; 20];
        let mut top = TopK::new(5);
        for (i, &s) in scores.iter().enumerate() {
            top.push(i as u32, s);
        }
        assert_eq!(top.into_sorted(), naive_top_k(&scores, 5));
    }

    /// Score bit patterns the drain must order exactly as `total_cmp`
    /// does: repeated finite values (so ties are exact), both zeros, NaNs
    /// of both signs with different payloads, both infinities and
    /// subnormals of both signs.
    const POOL: [u32; 16] = [
        0x3f80_0000, // 1.0
        0x4000_0000, // 2.0
        0x3f00_0000, // 0.5
        0xbf80_0000, // -1.0
        0xc000_0000, // -2.0
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7fc0_0000, // +NaN
        0x7fc0_1234, // +NaN, another payload
        0xffc0_0000, // -NaN
        0xffff_ffff, // -NaN, largest payload
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x0000_0001, // smallest positive subnormal
        0x8000_0001, // smallest negative subnormal
        0x007f_ffff, // largest subnormal
    ];

    /// Rankings as `(item, score bits)`, so NaN scores compare exactly.
    fn bits(ranking: &[ScoredItem]) -> Vec<(u32, u32)> {
        ranking
            .iter()
            .map(|s| (s.item, s.score.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `push_slice` retains exactly what per-item `push` and the
        /// argsort reference do. The slices cover consecutive id ranges
        /// but arrive rotated and optionally reversed, so a lower-id tie
        /// often arrives after the floor is already set at its score.
        #[test]
        fn push_slice_equals_per_item_push_and_naive(
            slices in prop::collection::vec(
                prop::collection::vec(prop::sample::select(POOL.to_vec()), 0..=40),
                1..=5,
            ),
            k in prop::sample::select(vec![0usize, 1, 3, 10, 1000]),
            rotate in 0usize..5,
            reverse in any::<bool>(),
        ) {
            let mut firsts = Vec::with_capacity(slices.len());
            let mut all = Vec::new();
            for slice in &slices {
                firsts.push(all.len() as u32);
                all.extend(slice.iter().map(|&b| f32::from_bits(b)));
            }
            let mut order: Vec<usize> = (0..slices.len()).collect();
            order.rotate_left(rotate % slices.len());
            if reverse {
                order.reverse();
            }
            let mut sliced = TopK::new(k);
            let mut single = TopK::new(k);
            for &i in &order {
                let scores = &all[firsts[i] as usize..][..slices[i].len()];
                sliced.push_slice(firsts[i], scores);
                for (j, &s) in scores.iter().enumerate() {
                    single.push(firsts[i] + j as u32, s);
                }
            }
            let want = bits(&naive_top_k(&all, k));
            prop_assert_eq!(bits(&single.into_sorted()), want.clone());
            prop_assert_eq!(bits(&sliced.into_sorted()), want);
        }
    }

    #[test]
    fn order_key_is_total_cmp() {
        for &a in &POOL {
            for &b in &POOL {
                let (x, y) = (f32::from_bits(a), f32::from_bits(b));
                assert_eq!(
                    order_key(x).cmp(&order_key(y)),
                    x.total_cmp(&y),
                    "{a:#x} vs {b:#x}"
                );
            }
        }
    }
}
