//! Ranking quality metrics for the serving path.
//!
//! Training quality is measured by RMSE (`cumf_als::metrics`); serving
//! quality is a *ranking* question — did quantization or caching change
//! which items surface? NDCG@k answers it: 1.0 means the evaluated ranking
//! ordered items exactly as well as the ideal ordering of the relevance
//! scores, and the discount makes swaps near the top cost more than swaps
//! near the cut-off. [`overlap_at_k`] is the coarser set-level companion:
//! what fraction of the top-k two rankers agree on at all.

use crate::topk::ScoredItem;

/// Discounted cumulative gain of `ranking`'s first `k` entries, where
/// `relevance[item]` grades each item. Gains are linear (`rel / log2(pos+2)`),
/// the standard form when relevance is itself a model score.
pub fn dcg_at_k(ranking: &[ScoredItem], relevance: &[f32], k: usize) -> f64 {
    ranking
        .iter()
        .take(k)
        .enumerate()
        .map(|(pos, s)| relevance[s.item as usize] as f64 / ((pos + 2) as f64).log2())
        .sum()
}

/// Normalized DCG@k of `ranking` against per-item `relevance` grades
/// (indexed by item id; non-negative). Returns 1.0 for an ideal ordering
/// and 0.0 when every retrieved item has zero relevance. Also returns 1.0
/// when the ideal DCG itself is 0 (nothing relevant exists to retrieve).
pub fn ndcg_at_k(ranking: &[ScoredItem], relevance: &[f32], k: usize) -> f64 {
    debug_assert!(
        relevance.iter().all(|&r| r >= 0.0),
        "NDCG needs non-negative relevance grades"
    );
    let dcg = dcg_at_k(ranking, relevance, k);
    let mut ideal: Vec<f32> = relevance.to_vec();
    ideal.sort_unstable_by(|a, b| b.total_cmp(a));
    let idcg: f64 = ideal
        .iter()
        .take(k)
        .enumerate()
        .map(|(pos, &r)| r as f64 / ((pos + 2) as f64).log2())
        .sum();
    if idcg == 0.0 {
        1.0
    } else {
        dcg / idcg
    }
}

/// Fraction of the first `k` items two rankings share, order-ignored
/// (`|A∩B| / k`, with `k` clamped to the shorter prefix actually
/// available). 1.0 means both rankers surfaced the same set — the
/// question asked when comparing the approximate path or a sharded deployment
/// against the exact scorer. Returns 1.0 when `k` is 0.
pub fn overlap_at_k(a: &[ScoredItem], b: &[ScoredItem], k: usize) -> f64 {
    let k = k.min(a.len()).min(b.len());
    if k == 0 {
        return 1.0;
    }
    let set: std::collections::HashSet<u32> = a.iter().take(k).map(|s| s.item).collect();
    let shared = b.iter().take(k).filter(|s| set.contains(&s.item)).count();
    shared as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranking(items: &[u32]) -> Vec<ScoredItem> {
        items
            .iter()
            .enumerate()
            .map(|(pos, &item)| ScoredItem {
                item,
                score: -(pos as f32),
            })
            .collect()
    }

    #[test]
    fn ideal_ranking_scores_one() {
        let rel = [3.0, 2.0, 1.0, 0.0];
        assert!((ndcg_at_k(&ranking(&[0, 1, 2, 3]), &rel, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_ranking_scores_below_one() {
        let rel = [3.0, 2.0, 1.0, 0.0];
        let n = ndcg_at_k(&ranking(&[3, 2, 1, 0]), &rel, 4);
        assert!(n < 0.8, "reversed NDCG {n}");
    }

    #[test]
    fn early_swaps_cost_more_than_late_swaps() {
        let rel = [4.0, 3.0, 2.0, 1.0];
        let swap_top = ndcg_at_k(&ranking(&[1, 0, 2, 3]), &rel, 4);
        let swap_bottom = ndcg_at_k(&ranking(&[0, 1, 3, 2]), &rel, 4);
        assert!(swap_top < swap_bottom);
    }

    #[test]
    fn zero_relevance_everywhere_is_defined() {
        let rel = [0.0; 3];
        assert_eq!(ndcg_at_k(&ranking(&[2, 1, 0]), &rel, 3), 1.0);
    }

    #[test]
    fn k_truncates_the_evaluation() {
        let rel = [1.0, 1.0, 5.0];
        // Item 2 (rel 5) missing from the top-2 window hurts.
        let n = ndcg_at_k(&ranking(&[0, 1, 2]), &rel, 2);
        assert!(n < 0.5, "NDCG@2 {n}");
    }

    #[test]
    fn overlap_ignores_order_and_clamps_k() {
        let a = ranking(&[0, 1, 2, 3]);
        let b = ranking(&[3, 2, 1, 0]);
        assert_eq!(overlap_at_k(&a, &b, 4), 1.0);
        assert_eq!(overlap_at_k(&a, &b, 2), 0.0, "top-2 sets are disjoint");
        let half = overlap_at_k(&ranking(&[0, 1]), &ranking(&[1, 9]), 2);
        assert_eq!(half, 0.5);
        // k beyond either list clamps to the shorter prefix.
        assert_eq!(overlap_at_k(&a, &ranking(&[0]), 10), 1.0);
        assert_eq!(overlap_at_k(&a, &b, 0), 1.0);
    }
}
