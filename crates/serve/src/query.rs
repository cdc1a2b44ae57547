//! The query abstraction: what a serving request asks *for*.
//!
//! The v2 engine answered exactly one question — user → top-k items. But
//! every matrix-factorization deployment grows the same endpoint family:
//! item → similar items ("customers also bought", the cacheable
//! high-QPS workload), user → similar users, rank-this-slate (the
//! ad/feed-ranking shape), and explain-this-score. All of them are still
//! a `q·Θᵀ` (or `q·Xᵀ`) scan — only the *query vector*, the *target
//! matrix*, and the *candidate set* differ — so the paper's
//! memory-bandwidth framing applies to each one unchanged.
//!
//! [`Query`] names the five shapes. The engine resolves each to a
//! (query vector, target matrix, candidate set) triple and routes the
//! scan through the same sharded scorer:
//!
//! | query | vector | target | candidates |
//! |---|---|---|---|
//! | [`Query::User`] | `x_u` (stored or folded-in) | Θ | full catalog |
//! | [`Query::SimilarItems`] | `θ_v` | Θ | catalog minus `v` |
//! | [`Query::SimilarUsers`] | `x_u` | X | users minus `u` |
//! | [`Query::RankItems`] | `x_u` | Θ rows of the slate | the slate |
//! | [`Query::Explain`] | `x_u` | `θ_v` only | the one item |
//!
//! [`Endpoint`] is the coarse label used for cache partitioning and the
//! `endpoint=` dimension on serving metrics.

use crate::engine::UserRef;
use crate::registry::RouteKey;

/// What a [`Request`](crate::engine::Request) asks the engine to score.
///
/// Marked `#[non_exhaustive]`: future query shapes (e.g. batch explain)
/// must not be breaking changes for downstream matches.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Query {
    /// Classic user → top-k over the full item catalog (known user row or
    /// cold-start fold-in). Semantics are identical to the v2 engine.
    User(UserRef),
    /// Item → top-k most similar items: score `θ_v·Θᵀ` and exclude the
    /// query item itself from the ranking.
    SimilarItems(u32),
    /// User → top-k most similar users: score `x_u·Xᵀ` over the model's
    /// user-factor matrix, excluding the query user.
    SimilarUsers(u32),
    /// Rank a caller-supplied candidate slate for a known user: score
    /// only the listed items (the scan is skipped entirely) and return
    /// them in the engine's total order.
    RankItems {
        /// The known user whose factor row scores the slate.
        user: u32,
        /// Candidate item ids to rank; duplicates rank independently.
        slate: Vec<u32>,
    },
    /// Explain one (user, item) score: return the per-factor contribution
    /// terms `x_u[j]·θ_v[j]` plus the popularity prior, which sum to the
    /// served dot product.
    Explain {
        /// The known user side of the score.
        user: u32,
        /// The item side of the score.
        item: u32,
    },
}

impl Query {
    /// The coarse endpoint label this query is served under.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Query::User(_) => Endpoint::TopK,
            Query::SimilarItems(_) => Endpoint::SimilarItems,
            Query::SimilarUsers(_) => Endpoint::SimilarUsers,
            Query::RankItems { .. } => Endpoint::RankItems,
            Query::Explain { .. } => Endpoint::Explain,
        }
    }

    /// The key the canary split hashes: user-keyed queries by their user,
    /// similar-items by the *item* id (deterministic per item, so canary
    /// arms cache consistently), cold starts by the request id.
    pub(crate) fn route_key(&self, request_id: u64) -> RouteKey {
        match self {
            Query::User(UserRef::Known(id))
            | Query::SimilarItems(id)
            | Query::SimilarUsers(id)
            | Query::RankItems { user: id, .. }
            | Query::Explain { user: id, .. } => RouteKey::User(*id),
            Query::User(UserRef::Cold(_)) => RouteKey::Cold(request_id),
        }
    }
}

/// The serving endpoint family — one label per [`Query`] shape.
///
/// Used to partition the result cache (an item→item entry must never
/// alias a user→top-k entry for the same id) and as the `endpoint=`
/// label on `serve_endpoint_requests_total` and the per-endpoint latency
/// histograms (see `docs/OBSERVABILITY.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// User → top-k items ([`Query::User`]).
    TopK,
    /// Item → similar items ([`Query::SimilarItems`]).
    SimilarItems,
    /// User → similar users ([`Query::SimilarUsers`]).
    SimilarUsers,
    /// Rank a caller-supplied slate ([`Query::RankItems`]).
    RankItems,
    /// Per-factor score explanation ([`Query::Explain`]).
    Explain,
}

impl Endpoint {
    /// Every endpoint, in declaration order — the full `endpoint=` label
    /// set, registered up front so `/metrics` always exposes all five.
    pub const ALL: [Endpoint; 5] = [
        Endpoint::TopK,
        Endpoint::SimilarItems,
        Endpoint::SimilarUsers,
        Endpoint::RankItems,
        Endpoint::Explain,
    ];

    /// Position in [`Endpoint::ALL`], which lists the variants in
    /// declaration order.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case token used as the `endpoint=` metric label and
    /// in bench output.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::TopK => "topk",
            Endpoint::SimilarItems => "similar_items",
            Endpoint::SimilarUsers => "similar_users",
            Endpoint::RankItems => "rank_items",
            Endpoint::Explain => "explain",
        }
    }
}

/// Per-factor breakdown of one (user, item) score, returned by
/// [`Query::Explain`] requests on
/// [`Recommendation::explanation`](crate::engine::Recommendation::explanation).
///
/// The invariant — test-enforced to 1e-6 — is that
/// `terms.iter().sum::<f32>() + prior` reproduces the score the serving
/// path would assign the same (user, item) pair.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct Explanation {
    /// One `x_u[j]·θ_v[j]` product per latent factor, in factor order.
    pub terms: Vec<f32>,
    /// The item's popularity prior (0 when the model has none).
    pub prior: f32,
}

impl Explanation {
    /// The explained score: sum of the factor terms plus the prior,
    /// accumulated in factor order.
    pub fn score(&self) -> f32 {
        self.terms.iter().sum::<f32>() + self.prior
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_names_are_stable_snake_case_tokens() {
        let names: Vec<&str> = Endpoint::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "topk",
                "similar_items",
                "similar_users",
                "rank_items",
                "explain"
            ]
        );
    }

    #[test]
    fn endpoint_index_is_the_position_in_all() {
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn queries_map_to_their_endpoints() {
        for (q, want) in [
            (Query::User(UserRef::Known(3)), Endpoint::TopK),
            (Query::SimilarItems(7), Endpoint::SimilarItems),
            (Query::SimilarUsers(2), Endpoint::SimilarUsers),
            (
                Query::RankItems {
                    user: 1,
                    slate: vec![4, 5],
                },
                Endpoint::RankItems,
            ),
            (Query::Explain { user: 1, item: 4 }, Endpoint::Explain),
        ] {
            assert_eq!(q.endpoint(), want);
        }
    }

    #[test]
    fn explanation_score_sums_terms_and_prior() {
        let e = Explanation {
            terms: vec![0.5, -0.25, 1.0],
            prior: 0.125,
        };
        assert_eq!(e.score(), 1.375);
    }
}
