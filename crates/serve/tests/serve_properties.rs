//! Property-based and model-level tests for the serving crate:
//! the blocked top-k path against a naive argsort oracle, the sharded
//! scatter-gather path against the unsharded scorer, the approximate
//! retrieval path's exactness/recall guarantees (full probe bit-identity,
//! recall monotonicity in `n_probe`, int8 round-trip bounds),
//! canary-routing determinism and split convergence, registry
//! promote/rollback cache isolation, cache retirement on a user-factor
//! swap, and admission-queue overload behavior.

use cumf_numeric::dense::DenseMatrix;
use cumf_serve::obs::STAGES;
use cumf_serve::{
    admission_queue, canary_unit, merge_top_k, naive_top_k, overlap_at_k, score_one, top_k_batch,
    top_k_batch_sharded, top_k_batch_sharded_timed, AdmissionConfig, AnnParams, CanaryPolicy,
    Endpoint, ModelSnapshot, QuantMode, QuantizedFactors, Query, Request, Retrieval, ScoreConfig,
    ScoredItem, ServeConfig, ServeEngine, ServeError, ShardedSnapshot, SubmitError, UserRef,
};
use cumf_telemetry::{FootprintReport, MemoryRecorder, NOOP};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A random (snapshot, user batch) pair: n items × f features plus u user
/// rows, entries in [-1, 1], and random popularity priors.
fn arb_model() -> impl Strategy<Value = (ModelSnapshot, DenseMatrix)> {
    (1usize..80, 1usize..8, 1usize..12).prop_flat_map(|(n, f, u)| {
        (
            prop::collection::vec(-1.0f32..1.0, n * f),
            prop::collection::vec(0.0f32..0.2, n),
            prop::collection::vec(-1.0f32..1.0, u * f),
        )
            .prop_map(move |(theta, pop, x)| {
                (
                    ModelSnapshot::new(0, DenseMatrix::from_vec(n, f, theta), pop),
                    DenseMatrix::from_vec(u, f, x),
                )
            })
    })
}

proptest! {
    /// The blocked, heap-reduced batch scorer must agree *exactly* (same
    /// items, same scores, same order) with a full naive argsort of the
    /// unblocked score rows, for every tiling geometry.
    #[test]
    fn batched_top_k_equals_naive_argsort(
        model in arb_model(),
        k in 1usize..15,
        block_items in 1usize..97,
        user_chunk in 1usize..9,
    ) {
        let (snapshot, users) = model;
        let cfg = ScoreConfig { block_items: Some(block_items), user_chunk, ..ScoreConfig::default() };
        let got = top_k_batch(&snapshot, &users, k, &cfg);
        prop_assert_eq!(got.len(), users.rows());
        for (u, ranked) in got.iter().enumerate() {
            let scores = score_one(&snapshot, users.row(u));
            let want = naive_top_k(&scores, k);
            prop_assert_eq!(ranked, &want, "user {} tiling {}x{}", u, block_items, user_chunk);
        }
    }

    /// Rankings are invariant under tiling: any two block geometries
    /// produce bit-identical results.
    #[test]
    fn tiling_never_changes_the_ranking(
        model in arb_model(),
        blocks in (1usize..64, 1usize..64),
    ) {
        let (snapshot, users) = model;
        let a = top_k_batch(&snapshot, &users, 8, &ScoreConfig {
            block_items: Some(blocks.0), user_chunk: 3, ..ScoreConfig::default() });
        let b = top_k_batch(&snapshot, &users, 8, &ScoreConfig {
            block_items: Some(blocks.1), user_chunk: 5, ..ScoreConfig::default() });
        prop_assert_eq!(a, b);
    }

    /// Sharded scatter-gather scoring is bit-identical to the unsharded
    /// scorer for every shard count, on arbitrary models.
    #[test]
    fn sharded_scoring_equals_unsharded(
        model in arb_model(),
        k in 1usize..15,
    ) {
        let (snapshot, users) = model;
        let cfg = ScoreConfig::default();
        let want = top_k_batch(&snapshot, &users, k, &cfg);
        for shards in [1usize, 2, 3, 7, 8] {
            let sharded = ShardedSnapshot::build(snapshot.clone(), shards);
            let (got, timings) = top_k_batch_sharded_timed(&sharded, &users, k, &cfg);
            prop_assert_eq!(&got, &want, "{} shards", shards);
            // Shard 0 scores inline and the rest on threads, yet timings
            // come back in shard-index order.
            let order: Vec<usize> = timings.iter().map(|t| t.shard).collect();
            prop_assert_eq!(order, (0..sharded.n_shards()).collect::<Vec<_>>(), "{} shards", shards);
        }
    }

    /// Ties straddling shard boundaries never perturb the ranking: with a
    /// catalog of *duplicated* item rows every duplicate pair ties, and
    /// the sharded merge must still reproduce the unsharded order (score
    /// desc, item id asc) for every cut placement.
    #[test]
    fn boundary_ties_merge_identically(
        f in 1usize..6,
        dup in 2usize..5,
        groups in 2usize..8,
        seed_row in prop::collection::vec(-1.0f32..1.0, 8),
    ) {
        let n = dup * groups;
        // Rows repeat every `groups` items, so ties are spread across the
        // catalog and any shard cut separates some tied pair.
        let mut theta = Vec::with_capacity(n * f);
        for i in 0..n {
            for j in 0..f {
                theta.push(seed_row[(i % groups + j) % 8]);
            }
        }
        let snapshot = ModelSnapshot::new(0, DenseMatrix::from_vec(n, f, theta), vec![]);
        let users = DenseMatrix::from_vec(1, f, seed_row[..f].to_vec());
        let cfg = ScoreConfig::default();
        let want = top_k_batch(&snapshot, &users, n, &cfg);
        for shards in 1..=n {
            let sharded = ShardedSnapshot::build(snapshot.clone(), shards);
            let got = top_k_batch_sharded(&sharded, &users, n, &cfg);
            prop_assert_eq!(&got, &want, "{} shards over {} items", shards, n);
        }
    }
}

proptest! {
    /// With every cluster probed and no quantization, the approximate
    /// retrieval path must be bit-identical to the exact scorer: the
    /// candidate set covers the whole catalog, candidates are scored in
    /// FP32, and the heap's total order is push-order independent.
    #[test]
    fn full_probe_unquantized_approx_is_bit_identical_to_exact(
        model in arb_model(),
        k in 1usize..15,
        k_clusters in 1usize..7,
    ) {
        let (snapshot, users) = model;
        let snapshot = snapshot.with_ann(AnnParams { k_clusters, ..AnnParams::default() });
        let exact = top_k_batch(&snapshot, &users, k, &ScoreConfig::default());
        let approx = top_k_batch(&snapshot, &users, k, &ScoreConfig {
            retrieval: Retrieval::Approx { n_probe: k_clusters, quant: QuantMode::None },
            ..ScoreConfig::default()
        });
        prop_assert_eq!(approx, exact);
    }

    /// int8 block quantization round-trips every coefficient to within
    /// half a quantization step of its block's scale.
    #[test]
    fn int8_round_trip_error_is_bounded_by_half_a_step(
        rows in prop::collection::vec(-2.0f32..2.0, 4..260),
    ) {
        let f = 4usize;
        let n = rows.len() / f;
        let items = DenseMatrix::from_vec(n, f, rows[..n * f].to_vec());
        let q = QuantizedFactors::build(&items);
        for i in 0..n {
            let scale = q.scale(i);
            for (j, &v) in items.row(i).iter().enumerate() {
                let back = f32::from(q.row(i)[j]) * scale;
                prop_assert!(
                    (back - v).abs() <= scale * 0.5 + 1e-6,
                    "item {} dim {}: {} -> {} (scale {})", i, j, v, back, scale
                );
            }
        }
    }
}

/// Recall@k versus the exact scorer is monotone in `n_probe`: without
/// quantization the candidate sets nest as the probe widens, so widening
/// the probe can only add true top-k items — and the full probe recovers
/// the exact ranking.
#[test]
fn recall_at_k_is_monotone_in_n_probe() {
    let (n, f, u, k, clusters) = (600usize, 8usize, 24usize, 10usize, 16usize);
    let theta: Vec<f32> = (0..n * f)
        .map(|i| ((i as u64 * 2_654_435_761 % 1000) as f32 - 500.0) / 500.0)
        .collect();
    let x: Vec<f32> = (0..u * f)
        .map(|i| ((i as u64 * 40_503 % 997) as f32 - 498.0) / 498.0)
        .collect();
    let snapshot =
        ModelSnapshot::new(0, DenseMatrix::from_vec(n, f, theta), vec![]).with_ann(AnnParams {
            k_clusters: clusters,
            ..AnnParams::default()
        });
    let x = DenseMatrix::from_vec(u, f, x);
    let exact = top_k_batch(&snapshot, &x, k, &ScoreConfig::default());
    let mut prev = -1.0f64;
    for n_probe in 1..=clusters {
        let approx = top_k_batch(
            &snapshot,
            &x,
            k,
            &ScoreConfig {
                retrieval: Retrieval::Approx {
                    n_probe,
                    quant: QuantMode::None,
                },
                ..ScoreConfig::default()
            },
        );
        let recall = exact
            .iter()
            .zip(&approx)
            .map(|(e, a)| overlap_at_k(e, a, k))
            .sum::<f64>()
            / u as f64;
        assert!(
            recall >= prev - 1e-12,
            "recall fell from {prev} to {recall} at n_probe {n_probe}"
        );
        prev = recall;
    }
    assert_eq!(prev, 1.0, "full probe must recover the exact ranking");
}

proptest! {
    /// Canary routing is deterministic per user (a pure hash, no RNG) and
    /// monotone in the split fraction: ramping a canary up only ever moves
    /// users onto the candidate arm, never shuffles them back and forth.
    #[test]
    fn canary_routing_is_deterministic_and_monotone(
        users in prop::collection::vec(0u32..1_000_000, 1..50),
        fa in 0.0f64..1.0,
        fb in 0.0f64..1.0,
    ) {
        let lo = CanaryPolicy::new("candidate", fa.min(fb));
        let hi = CanaryPolicy::new("candidate", fa.max(fb));
        for &u in &users {
            // Same user, same policy, same arm — every time.
            prop_assert_eq!(
                lo.routes_to_candidate(u as u64),
                lo.routes_to_candidate(u as u64)
            );
            // The user's unit coordinate is fixed; widening the fraction
            // can only add users to the candidate arm.
            if lo.routes_to_candidate(u as u64) {
                prop_assert!(hi.routes_to_candidate(u as u64), "user {} left the arm", u);
            }
            let unit = canary_unit(u as u64);
            prop_assert!((0.0..1.0).contains(&unit));
        }
    }
}

/// The measured split over 10k users converges to the configured fraction
/// within ±2% — the satellite acceptance bound.
#[test]
fn canary_split_converges_within_2_percent_over_10k_users() {
    for fraction in [0.05, 0.1, 0.25, 0.5, 0.75, 0.9] {
        let policy = CanaryPolicy::new("candidate", fraction);
        let hits = (0..10_000u64)
            .filter(|&u| policy.routes_to_candidate(u))
            .count();
        let got = hits as f64 / 10_000.0;
        assert!(
            (got - fraction).abs() <= 0.02,
            "fraction {fraction}: measured {got}"
        );
    }
}

/// Registry promote/rollback round-trip with cache isolation: arms never
/// answer for each other, rollback leaves no stale hits, and routing
/// changes take effect without rebuilding the engine.
#[test]
fn promote_rollback_round_trip_keeps_cache_arms_isolated() {
    let mut v = 0.0f32;
    let mut theta_a = DenseMatrix::zeros(20, 4);
    theta_a.fill_with(|| {
        v += 0.1;
        v
    });
    let mut theta_b = theta_a.clone();
    cumf_numeric::dense::scale(-1.0, theta_b.as_mut_slice());
    let x = DenseMatrix::identity(4);
    let engine = ServeEngine::builder()
        .model(
            "champion",
            x.clone(),
            ModelSnapshot::new(0, theta_a, vec![]),
        )
        .model("challenger", x, ModelSnapshot::new(0, theta_b, vec![]))
        .canary("challenger", 1.0)
        .build()
        .unwrap();
    let reg = engine.registry();

    // Full canary: user 1 is served (and cached) by the challenger.
    let canaried = engine.recommend_user(1, &NOOP).unwrap();
    assert_eq!(canaried.model.as_str(), "challenger");
    assert!(!canaried.from_cache);

    // Rollback: the champion takes 100% again. Same user, same epoch —
    // but a different model slot, so the challenger's cached entry must
    // NOT answer.
    reg.rollback().unwrap();
    let rolled = engine.recommend_user(1, &NOOP).unwrap();
    assert_eq!(rolled.model.as_str(), "champion");
    assert!(!rolled.from_cache, "stale hit across arms after rollback");
    assert_ne!(rolled.items, canaried.items, "arms rank differently");

    // Re-canary: the challenger's earlier entry is still valid under its
    // own (model, epoch, user) key and hits bit-identically.
    reg.set_canary(CanaryPolicy::new("challenger", 1.0))
        .unwrap();
    let recanaried = engine.recommend_user(1, &NOOP).unwrap();
    assert_eq!(recanaried.model.as_str(), "challenger");
    assert!(recanaried.from_cache);
    assert_eq!(recanaried.items, canaried.items);

    // Promote: the challenger becomes the default alias, no restart.
    reg.promote().unwrap();
    assert!(reg.canary().is_none());
    let promoted = engine.recommend_user(1, &NOOP).unwrap();
    assert_eq!(promoted.model.as_str(), "challenger");
    assert!(promoted.from_cache);
    assert_eq!(promoted.items, canaried.items);
}

/// Swapping a model's user factors retires every cached ranking computed
/// from the old `X`: the cache key carries the user-side epoch, so the
/// same known user after `set_user_factors` is scored afresh, never served
/// the stale entry.
#[test]
fn set_user_factors_retires_cached_rankings() {
    let engine = ServeEngine::builder()
        .model(
            "default",
            DenseMatrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]),
            ModelSnapshot::new(0, DenseMatrix::identity(3), vec![]),
        )
        .build()
        .unwrap();
    let serve = || {
        let out = engine.recommend_batch(&[Request::known(0, 0)], &NOOP);
        out.into_iter().next().unwrap().unwrap()
    };
    let before = serve();
    assert_eq!(before.items[0].item, 0);
    assert!(serve().from_cache, "same X: the second lookup hits");

    let id = engine.registry().default_model();
    engine
        .registry()
        .set_user_factors(&id, DenseMatrix::from_vec(1, 3, vec![0.0, 0.0, 1.0]))
        .unwrap();
    let after = serve();
    assert!(
        !after.from_cache,
        "a ranking cached under the old X was served"
    );
    assert_eq!(after.items[0].item, 2);
    assert!(serve().from_cache, "the new X caches afresh");
}

/// Single-model regression: the v2 engine (registry + router + builder)
/// must return results bit-identical to the direct batch scorer — the
/// redesign may not perturb single-model serving.
#[test]
fn single_model_engine_matches_the_direct_scorer_bit_for_bit() {
    let (n, f, u, k) = (30usize, 3usize, 10usize, 7usize);
    let theta: Vec<f32> = (0..n * f)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 50.0)
        .collect();
    let x: Vec<f32> = (0..u * f)
        .map(|i| ((i * 53 % 89) as f32 - 44.0) / 44.0)
        .collect();
    let theta = DenseMatrix::from_vec(n, f, theta);
    let x = DenseMatrix::from_vec(u, f, x);
    let snapshot = ModelSnapshot::new(3, theta, vec![]);
    let want = top_k_batch(&snapshot, &x, k, &ScoreConfig::default());

    let engine = ServeEngine::builder()
        .config(ServeConfig::default().with_k(k))
        .model("only", x.clone(), snapshot)
        .build()
        .unwrap();
    let requests: Vec<Request> = (0..u).map(|i| Request::known(i as u64, i as u32)).collect();
    let got = engine.recommend_batch(&requests, &NOOP);
    assert_eq!(got.len(), u);
    for (i, rec) in got.into_iter().enumerate() {
        let rec = rec.unwrap();
        assert_eq!(rec.model.as_str(), "only");
        assert_eq!(rec.epoch, 3);
        assert_eq!(
            rec.items, want[i],
            "user {i} diverged from the direct scorer"
        );
    }
}

/// An overloaded admission queue must reject rather than grow: with no
/// worker draining, exactly `queue_depth` requests are accepted and every
/// further submission is shed and counted.
#[test]
fn overloaded_admission_queue_rejects_rather_than_grows() {
    let theta = DenseMatrix::identity(8);
    let engine = ServeEngine::builder()
        .config(ServeConfig::default().with_k(3))
        .model(
            "default",
            DenseMatrix::identity(8),
            ModelSnapshot::new(0, theta, vec![]),
        )
        .build()
        .unwrap();
    for depth in [1usize, 4, 16] {
        let (queue, worker, done) = admission_queue(AdmissionConfig {
            max_batch: 8,
            queue_depth: depth,
        });
        let total = depth + 13;
        let mut accepted = 0usize;
        for i in 0..total {
            match queue.try_submit(Request::known(i as u64, (i % 8) as u32), engine.now()) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Full(_)) => {}
                Err(SubmitError::Closed(_)) => panic!("worker still alive"),
            }
        }
        assert_eq!(accepted, depth, "bounded queue holds exactly its depth");
        assert_eq!(queue.rejected(), 13, "every overflow is counted");
        drop(queue);
        let report = worker.run(&engine, &cumf_telemetry::NOOP);
        assert_eq!(report.admitted, depth as u64);
        assert_eq!(report.rejected, 13);
        assert_eq!(done.iter().count(), depth, "accepted requests still served");
    }
}

proptest! {
    /// `SimilarItems` through the full engine is bit-identical to a naive
    /// exclude-then-top-k over Θ·Θᵀ: score every catalog item against the
    /// query item's own factor row, drop the query item, and keep the
    /// usual total order (score desc, item id asc).
    #[test]
    fn similar_items_equals_naive_theta_theta_top_k(
        model in arb_model(),
        k in 1usize..10,
    ) {
        let (snapshot, users) = model;
        let n = snapshot.n_items();
        let engine = ServeEngine::builder()
            .config(ServeConfig::default().with_k(k))
            .model("only", users, snapshot.clone())
            .build()
            .unwrap();
        let requests: Vec<Request> = (0..n)
            .map(|v| Request::similar_items(v as u64, v as u32))
            .collect();
        let got = engine.recommend_batch(&requests, &NOOP);
        for (v, rec) in got.into_iter().enumerate() {
            let rec = rec.unwrap();
            let scores = score_one(&snapshot, snapshot.item_row(v));
            let want: Vec<_> = naive_top_k(&scores, n)
                .into_iter()
                .filter(|s| s.item != v as u32)
                .take(k)
                .collect();
            prop_assert_eq!(&rec.items, &want, "query item {}", v);
        }
    }

    /// `RankItems` equals the full top-k restricted to the slate: ranking
    /// a candidate list must reproduce exactly the positions those items
    /// occupy in the complete catalog ranking.
    #[test]
    fn rank_items_equals_full_top_k_restricted_to_the_slate(
        model in arb_model(),
        k in 1usize..10,
        picks in prop::collection::vec(any::<u32>(), 1..20),
    ) {
        let (snapshot, users) = model;
        let n = snapshot.n_items();
        let mut slate: Vec<u32> = picks.iter().map(|ix| ix % n as u32).collect();
        slate.sort_unstable();
        slate.dedup();
        let engine = ServeEngine::builder()
            .config(ServeConfig::default().with_k(k))
            .model("only", users.clone(), snapshot.clone())
            .build()
            .unwrap();
        for u in 0..users.rows() {
            let req = Request::rank_items(u as u64, u as u32, slate.clone());
            let rec = engine.recommend_batch(&[req], &NOOP).pop().unwrap().unwrap();
            let scores = score_one(&snapshot, users.row(u));
            let want: Vec<_> = naive_top_k(&scores, n)
                .into_iter()
                .filter(|s| slate.binary_search(&s.item).is_ok())
                .take(k)
                .collect();
            prop_assert_eq!(&rec.items, &want, "user {}", u);
        }
    }

    /// `Explain` decomposes the served score: the per-factor terms plus the
    /// prior sum back to the dot product within 1e-6, and the served score
    /// itself is bit-identical to the exact scorer's row.
    #[test]
    fn explain_terms_sum_to_the_served_dot_product(
        model in arb_model(),
    ) {
        let (snapshot, users) = model;
        let n = snapshot.n_items();
        let engine = ServeEngine::builder()
            .model("only", users.clone(), snapshot.clone())
            .build()
            .unwrap();
        for u in 0..users.rows() {
            let v = (u * 7) % n;
            let req = Request::explain(u as u64, u as u32, v as u32);
            let rec = engine.recommend_batch(&[req], &NOOP).pop().unwrap().unwrap();
            let e = rec.explanation.clone().expect("explain returns an Explanation");
            prop_assert_eq!(rec.items.len(), 1);
            prop_assert_eq!(rec.items[0].item, v as u32);
            let served = rec.items[0].score;
            // Bit-identical to the exact scorer's score for (u, v)...
            prop_assert_eq!(served, score_one(&snapshot, users.row(u))[v]);
            // ...and the factor-order term sum lands within 1e-6 of it.
            prop_assert!(
                (e.score() - served).abs() <= 1e-6,
                "user {} item {}: terms sum to {} but served {}", u, v, e.score(), served
            );
            prop_assert_eq!(e.terms.len(), snapshot.f());
            prop_assert_eq!(e.prior, snapshot.prior(v));
        }
    }
}

/// Self-exclusion under ties: with every factor row duplicated, the query
/// item ties bit-exactly with its twin. The twin must survive exclusion and
/// rank first, and the remaining order must follow the (score desc, id asc)
/// total order with only the query item removed.
#[test]
fn similar_items_excludes_only_the_query_item_under_ties() {
    let (groups, dup, k) = (4usize, 3usize, 8usize);
    let (f, n) = (groups, groups * dup);
    // Item i's row is the one-hot e_{i % groups}, so each item has dup-1
    // bit-exact twins, self-similarity is maximal (1.0), and every
    // cross-group pair ties at 0.0.
    let theta: Vec<f32> = (0..n)
        .flat_map(|i| (0..f).map(move |j| if j == i % groups { 1.0 } else { 0.0 }))
        .collect();
    let snapshot = ModelSnapshot::new(0, DenseMatrix::from_vec(n, f, theta), vec![]);
    let engine = ServeEngine::builder()
        .config(ServeConfig::default().with_k(k))
        .model("only", DenseMatrix::identity(f), snapshot.clone())
        .build()
        .unwrap();
    for q in 0..n as u32 {
        let rec = engine
            .recommend_batch(&[Request::similar_items(q as u64, q)], &NOOP)
            .pop()
            .unwrap()
            .unwrap();
        let scores = score_one(&snapshot, snapshot.item_row(q as usize));
        let want: Vec<_> = naive_top_k(&scores, n)
            .into_iter()
            .filter(|s| s.item != q)
            .take(k)
            .collect();
        assert_eq!(rec.items, want, "query item {q}");
        // The twin with the lowest id ties the query item's self-score and
        // must lead the list.
        let twin = (0..n as u32)
            .find(|&i| i != q && i % groups as u32 == q % groups as u32)
            .unwrap();
        assert_eq!(rec.items[0].item, twin, "query item {q}");
        assert_eq!(rec.items[0].score, scores[q as usize], "query item {q}");
    }
}

/// Sharded approximate retrieval reproduces, bit for bit, the
/// construction in which every shard copied its rows into a snapshot of
/// its own and built its index (`⌈k·len/n⌉` clusters) and int8 copy over
/// that copy: same shard boundaries, same k-means input rows, same int8
/// blocks. Checked with partial probes (which do miss true top-k items
/// here) over a catalog whose duplicated rows tie across shard
/// boundaries, through both `ShardedSnapshot::build` and the engine's
/// policy-driven publish.
#[test]
fn sharded_approx_matches_per_shard_copies_bit_for_bit() {
    let (n, f, u, k, clusters, n_probe) = (203usize, 5usize, 16usize, 10usize, 12usize, 3usize);
    // 150 distinct rows; items 150.. duplicate rows 0, 2, 4, … (and their
    // priors), so scores tie across every shard boundary.
    let src = |i: usize| if i < 150 { i } else { (i - 150) * 2 };
    let base: Vec<f32> = (0..150 * f)
        .map(|i| ((i as u64 * 2_654_435_761 % 1000) as f32 - 500.0) / 500.0)
        .collect();
    let theta: Vec<f32> = (0..n)
        .flat_map(|i| base[src(i) * f..(src(i) + 1) * f].to_vec())
        .collect();
    let priors: Vec<f32> = (0..n).map(|i| (src(i) % 4) as f32 * 0.05).collect();
    let x = DenseMatrix::from_vec(
        u,
        f,
        (0..u * f)
            .map(|i| ((i as u64 * 40_503 % 997) as f32 - 498.0) / 498.0)
            .collect(),
    );
    let params = AnnParams {
        k_clusters: clusters,
        ..AnnParams::default()
    };
    let snapshot = ModelSnapshot::new(
        0,
        DenseMatrix::from_vec(n, f, theta.clone()),
        priors.clone(),
    );
    let mut pruned = 0usize;
    for quant in [QuantMode::Int8, QuantMode::None] {
        let cfg = ScoreConfig {
            retrieval: Retrieval::Approx { n_probe, quant },
            ..ScoreConfig::default()
        };
        for s in [1usize, 2, 3, 8] {
            // Reference: even split, remainder to the earlier shards, each
            // range copied into its own snapshot.
            let mut per_shard: Vec<Vec<Vec<ScoredItem>>> = Vec::new();
            let mut start = 0usize;
            for i in 0..s {
                let len = n / s + usize::from(i < n % s);
                let local = ModelSnapshot::new(
                    0,
                    DenseMatrix::from_vec(len, f, theta[start * f..(start + len) * f].to_vec()),
                    priors[start..start + len].to_vec(),
                )
                .with_ann(AnnParams {
                    k_clusters: (clusters * len).div_ceil(n),
                    ..params
                })
                .with_int8();
                let mut ranked = top_k_batch(&local, &x, k, &cfg);
                for item in ranked.iter_mut().flatten() {
                    item.item += start as u32;
                }
                per_shard.push(ranked);
                start += len;
            }
            let want: Vec<Vec<ScoredItem>> = (0..u)
                .map(|user| {
                    let lists: Vec<Vec<ScoredItem>> =
                        per_shard.iter().map(|r| r[user].clone()).collect();
                    merge_top_k(&lists, k)
                })
                .collect();

            let sharded = ShardedSnapshot::build(snapshot.clone().with_ann(params).with_int8(), s);
            assert_eq!(sharded.n_shards(), s);
            let got = top_k_batch_sharded(&sharded, &x, k, &cfg);
            assert_eq!(got, want, "{s} shards, {quant:?}");
            let exact = top_k_batch(&snapshot, &x, k, &ScoreConfig::default());
            pruned += exact.iter().zip(&want).filter(|(e, w)| e != w).count();

            let engine = ServeEngine::builder()
                .config(
                    ServeConfig::default()
                        .with_k(k)
                        .with_shards(s)
                        .with_score(cfg)
                        .with_ann(params),
                )
                .model("only", x.clone(), snapshot.clone())
                .build()
                .unwrap();
            let requests: Vec<Request> =
                (0..u).map(|i| Request::known(i as u64, i as u32)).collect();
            for (user, rec) in engine
                .recommend_batch(&requests, &NOOP)
                .into_iter()
                .enumerate()
            {
                assert_eq!(
                    rec.unwrap().items,
                    want[user],
                    "engine, {s} shards, {quant:?}"
                );
            }
        }
    }
    assert!(pruned > 0, "the partial probe must actually prune");
}

/// The subtree named `name` anywhere under `report`.
fn find_subtree<'a>(report: &'a FootprintReport, name: &str) -> Option<&'a FootprintReport> {
    if report.name() == name {
        return Some(report);
    }
    report.children().iter().find_map(|c| find_subtree(c, name))
}

/// Publish racing readers: two threads serve batches from a 3-shard int8
/// approximate engine while a third publishes perturbed epochs. No batch
/// is torn across epochs, every response names a published epoch, no
/// request fails, and once the readers stop no superseded epoch is still
/// pinned — shard views keep no stale snapshot alive.
#[test]
fn publish_races_readers_without_tearing_a_batch() {
    let (n, f, users, epochs) = (240usize, 6usize, 32u32, 6u64);
    let theta: Vec<f32> = (0..n * f)
        .map(|i| ((i as u64 * 2_654_435_761 % 1000) as f32 - 500.0) / 500.0)
        .collect();
    let x: Vec<f32> = (0..users as usize * f)
        .map(|i| ((i as u64 * 40_503 % 997) as f32 - 498.0) / 498.0)
        .collect();
    let config = ServeConfig::default()
        .with_k(5)
        .with_shards(3)
        .with_score(ScoreConfig {
            retrieval: Retrieval::Approx {
                n_probe: 2,
                quant: QuantMode::Int8,
            },
            ..ScoreConfig::default()
        })
        .with_ann(AnnParams {
            k_clusters: 12,
            ..AnnParams::default()
        });
    let engine = ServeEngine::builder()
        .config(config)
        .model(
            "default",
            DenseMatrix::from_vec(users as usize, f, x),
            ModelSnapshot::new(0, DenseMatrix::from_vec(n, f, theta.clone()), vec![]),
        )
        .build()
        .unwrap();
    let id = engine.registry().default_model().clone();
    let batch = |round: u64| -> Vec<Request> {
        (0..8u64)
            .map(|j| Request::known(round * 8 + j, ((round * 5 + j * 3) % users as u64) as u32))
            .collect()
    };
    let served = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                let (engine, served, done) = (&engine, &served, &done);
                scope.spawn(move || {
                    let mut batches: Vec<Vec<u64>> = Vec::new();
                    let mut round = r << 32;
                    while !done.load(Ordering::Acquire) {
                        let epochs: Vec<u64> = engine
                            .recommend_batch(&batch(round), &NOOP)
                            .into_iter()
                            .map(|rec| rec.expect("no request fails during a publish").epoch)
                            .collect();
                        batches.push(epochs);
                        served.fetch_add(1, Ordering::Release);
                        round += 1;
                    }
                    batches
                })
            })
            .collect();
        for epoch in 1..=epochs {
            // Let the readers make progress before every publish so the
            // two really interleave.
            let before = served.load(Ordering::Acquire);
            while served.load(Ordering::Acquire) < before + 2 {
                std::thread::yield_now();
            }
            let scale = 1.0 + epoch as f32 * 0.01;
            let next: Vec<f32> = theta.iter().map(|v| v * scale).collect();
            engine
                .registry()
                .publish(
                    &id,
                    ModelSnapshot::new(epoch, DenseMatrix::from_vec(n, f, next), vec![]),
                )
                .unwrap();
        }
        done.store(true, Ordering::Release);
        for reader in readers {
            let batches = reader.join().expect("reader panicked");
            assert!(!batches.is_empty());
            for epochs_of_batch in batches {
                let first = epochs_of_batch[0];
                assert!(first <= epochs, "epoch {first} was never published");
                assert!(
                    epochs_of_batch.iter().all(|&e| e == first),
                    "one batch, one model, several epochs: {epochs_of_batch:?}"
                );
            }
        }
    });
    let last = engine.recommend_batch(&batch(u64::MAX >> 8), &NOOP);
    assert!(last.iter().all(|r| r.as_ref().unwrap().epoch == epochs));
    let report = engine.memory_report();
    let superseded = find_subtree(&report, "superseded").expect("store reports superseded epochs");
    assert!(
        superseded.children().is_empty(),
        "a stale epoch is still pinned"
    );
    assert_eq!(superseded.total_bytes(), 0);
}

/// A retire racing batch routing: one thread retires 200 registered
/// models in turn while two others serve batches addressed to the next
/// ones to go. Each batch routes from one consistent view of the
/// registry, so every response is a recommendation or `RetiredModel` —
/// never a panic from a router that resolved to an entry the batch's
/// table lacks.
#[test]
fn retire_races_batch_routing_without_a_panic() {
    let (models, f) = (200usize, 2usize);
    let factors = |rows: usize, seed: usize| {
        let values = (0..rows * f)
            .map(|i| ((i * 7 + seed * 13) % 11) as f32 * 0.2 - 1.0)
            .collect();
        DenseMatrix::from_vec(rows, f, values)
    };
    let engine = ServeEngine::builder()
        .config(ServeConfig::default().with_k(2))
        .model(
            "default",
            factors(2, 0),
            ModelSnapshot::new(0, factors(4, 1), vec![]),
        )
        .build()
        .unwrap();
    let ids: Vec<String> = (0..models).map(|m| format!("m{m}")).collect();
    for (m, id) in ids.iter().enumerate() {
        let snapshot = ModelSnapshot::new(0, factors(4, m + 2), vec![]);
        engine
            .registry()
            .register(id.as_str(), factors(2, m), snapshot)
            .unwrap();
    }
    // How many models are retired so far; the reader addresses the next
    // two, the ones a retire is about to land on.
    let retired = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let read = || loop {
            let next = retired.load(Ordering::Acquire) as usize;
            if next == models {
                return;
            }
            let batch: Vec<Request> = ids[next..(next + 2).min(models)]
                .iter()
                .enumerate()
                .map(|(i, id)| Request::known(i as u64, 0).for_model(id.as_str()))
                .collect();
            for response in engine.recommend_batch(&batch, &NOOP) {
                assert!(
                    matches!(response, Ok(_) | Err(ServeError::RetiredModel(_))),
                    "{response:?}"
                );
            }
        };
        let readers = [scope.spawn(read), scope.spawn(read)];
        for id in &ids {
            engine.registry().retire(&id.as_str().into()).unwrap();
            retired.fetch_add(1, Ordering::Release);
        }
        for reader in readers {
            reader
                .join()
                .expect("batch routing panicked during a retire");
        }
    });
    let last: Vec<Request> = ids
        .iter()
        .map(|id| Request::known(0, 0).for_model(id.as_str()))
        .collect();
    assert!(engine
        .recommend_batch(&last, &NOOP)
        .iter()
        .all(|r| matches!(r, Err(ServeError::RetiredModel(_)))));
}

/// One generated request for [`mixed_batches_equal_each_request_served_alone`],
/// whose arms are "a" (9 users × 37 items) and "b" (6 users × 50 items):
/// `kind` picks the endpoint (or an unknown model) and `a`/`b` pick ids,
/// ranging a little past both arms so unknown users and items occur.
/// Cold histories stay within the smaller catalog, valid on both arms.
fn mixed_request(id: u64, kind: u8, a: u32, b: u32) -> Request {
    let (n_min, n_max, users_max) = (37, 50, 9);
    match kind {
        0 => Request::known(id, a % (users_max + 2)),
        1 => Request::cold(
            id,
            (0..1 + b % 4)
                .map(|j| ((a + 11 * j) % n_min, 1.0 + j as f32))
                .collect(),
        ),
        2 => Request::similar_items(id, a % (n_max + 1)),
        3 => Request::similar_users(id, a % (users_max + 1)),
        4 => Request::rank_items(
            id,
            a % (users_max + 1),
            (0..b % 5).map(|j| (b / 5 + 13 * j) % (n_max + 1)).collect(),
        ),
        5 => Request::explain(id, a % (users_max + 1), b % (n_max + 1)),
        6 => Request::known(id, a % users_max).for_model("ghost"),
        8 => Request::cold(id, vec![(a % n_min, 4.0), (b, 5.0)]),
        _ => Request::known(id, a % users_max).for_model(["a", "b"][b as usize % 2]),
    }
}

/// The two-arm canary engine the mixed-batch tests serve from, f = 5,
/// factors drawn from `seed`: arm "a" has 9 users × 37 items, arm "b" 6
/// users × 50 items with priors, and "b" takes half the unaddressed
/// traffic.
fn two_arm_engine(seed: u64, config: &ServeConfig) -> ServeEngine {
    let f = 5usize;
    let mut state = seed | 1;
    let mut matrix = |rows: usize| {
        let values = (0..rows * f)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        DenseMatrix::from_vec(rows, f, values)
    };
    let (xa, ta, xb, tb) = (matrix(9), matrix(37), matrix(6), matrix(50));
    let priors_b: Vec<f32> = (0..50).map(|i| (i % 7) as f32 * 0.03).collect();
    ServeEngine::builder()
        .config(config.clone())
        .model("a", xa, ModelSnapshot::new(1, ta, vec![]))
        .model("b", xb, ModelSnapshot::new(4, tb, priors_b))
        .canary("b", 0.5)
        .build()
        .unwrap()
}

/// The engine configurations the mixed-batch tests sweep: 1, 2 and 3
/// shards, each under exact and int8-approximate retrieval.
fn mixed_configs() -> Vec<ServeConfig> {
    let approx = ScoreConfig {
        retrieval: Retrieval::Approx {
            n_probe: 2,
            quant: QuantMode::Int8,
        },
        ..ScoreConfig::default()
    };
    let mut configs = Vec::new();
    for score in [ScoreConfig::default(), approx] {
        for shards in [1usize, 2, 3] {
            configs.push(
                ServeConfig::default()
                    .with_k(4)
                    .with_shards(shards)
                    .with_score(score)
                    .with_ann(AnnParams {
                        k_clusters: 6,
                        ..AnnParams::default()
                    }),
            );
        }
    }
    configs
}

/// The `serve_stage_seconds` observation count of each engine stage, read
/// through the registry's JSONL bridge.
fn stage_counts(engine: &ServeEngine) -> Vec<f64> {
    let samples = engine.obs().metrics().registry().to_counter_samples(0.0);
    STAGES[1..]
        .iter()
        .map(|stage| {
            let name = format!("serve_stage_seconds{{stage=\"{stage}\"}}.count");
            samples
                .iter()
                .find(|c| c.name == name)
                .map_or(0.0, |c| c.value)
        })
        .collect()
}

/// The cache identity of a cacheable request: (endpoint, id).
fn cacheable(req: &Request) -> Option<(Endpoint, u32)> {
    match &req.query {
        Query::User(UserRef::Known(u)) => Some((Endpoint::TopK, *u)),
        Query::SimilarItems(v) => Some((Endpoint::SimilarItems, *v)),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A batch mixing all five endpoints, cold users, cache hits, unknown
    /// users and items, empty slates and an unknown model, over a canary
    /// split of two models, answers every slot exactly as the same request
    /// served alone on a fresh engine: same items bit for bit, model,
    /// epoch, explanation and error. Checked at 1, 2 and 3 shards, exact
    /// and int8-approximate; the batch trace counts match the batch's
    /// composition.
    #[test]
    fn mixed_batches_equal_each_request_served_alone(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..8, any::<u32>(), any::<u32>(), any::<bool>()), 0..16),
    ) {
        let build = |config: &ServeConfig| two_arm_engine(seed, config);
        // Each op is (kind, a, b, warm): a warm request is served once on
        // the batch's engine first, so a cacheable one hits inside the
        // batch. Every batch also carries one of each case, at random
        // positions: warmed top-k and similar-items hits, a cold user,
        // similar users, a slate, an explain, an empty slate, an unknown
        // model, user and item, and a cold history naming an unknown item.
        let (u, v) = ((seed % 6) as u32, (seed % 37) as u32);
        let mut ops = ops;
        for (j, op) in [
            (0, u, 0, true),
            (2, v, 0, true),
            (1, v, 2, false),
            (3, u, 0, false),
            (4, u, 8, false),
            (5, u, v, false),
            (4, 0, 0, false),
            (6, u, 0, false),
            (0, 9, 0, false),
            (2, 50, 0, false),
            (8, u, 99, false),
        ]
        .into_iter()
        .enumerate()
        {
            let at = (seed >> (3 * j)) as usize % (ops.len() + 1);
            ops.insert(at, op);
        }
        let requests: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(i, &(kind, a, b, _))| mixed_request(i as u64, kind, a, b))
            .collect();
        for config in mixed_configs() {
            let (shards, score) = (config.shards, config.score);
            let alone: Vec<_> = requests
                .iter()
                .map(|r| build(&config).recommend_batch(std::slice::from_ref(r), &NOOP).pop().unwrap())
                .collect();
            let engine = build(&config);
            let mut warmed = std::collections::HashSet::new();
            for (req, &(.., warm)) in requests.iter().zip(&ops) {
                if warm {
                    let rec = engine.recommend_batch(std::slice::from_ref(req), &NOOP).pop().unwrap();
                    if let (Ok(rec), Some(key)) = (rec, cacheable(req)) {
                        warmed.insert((rec.model, key));
                    }
                }
            }
            let (got, trace) = engine.recommend_batch_traced(&requests, &NOOP);
            prop_assert_eq!(got.len(), requests.len());
            let (mut hits, mut cold, mut scored, mut errors) = (0, 0, 0, 0);
            for (i, (got, want)) in got.iter().zip(&alone).enumerate() {
                let ctx = format!("slot {i} {:?}, {shards} shards, {:?}", requests[i].query, score.retrieval);
                match (got, want) {
                    (Ok(g), Ok(w)) => {
                        prop_assert_eq!(g.request_id, i as u64);
                        prop_assert_eq!(&g.model, &w.model, "{}", ctx);
                        prop_assert_eq!(g.epoch, w.epoch, "{}", ctx);
                        prop_assert_eq!(&g.items, &w.items, "{}", ctx);
                        prop_assert_eq!(&g.explanation, &w.explanation, "{}", ctx);
                        let hit = cacheable(&requests[i])
                            .is_some_and(|key| warmed.contains(&(w.model.clone(), key)));
                        prop_assert_eq!(g.from_cache, hit, "{}", ctx);
                        let is_cold = matches!(requests[i].query, Query::User(UserRef::Cold(_)));
                        if hit {
                            hits += 1;
                        } else if is_cold {
                            cold += 1;
                        } else {
                            scored += 1;
                        }
                    }
                    (Err(g), Err(w)) => {
                        prop_assert_eq!(g.reason(), w.reason(), "{}", ctx);
                        prop_assert_eq!(g, w, "{}", ctx);
                        errors += 1;
                    }
                    (g, w) => prop_assert!(false, "{}: batch {:?} vs alone {:?}", ctx, g, w),
                }
            }
            prop_assert_eq!(
                (trace.requests, trace.cache_hits, trace.cold_users, trace.scored_users, trace.errors),
                (requests.len(), hits, cold, scored, errors),
                "{} shards, {:?}", shards, score.retrieval
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every view of a batch is rendered from its one `BatchTrace`. A
    /// batch mixing all five endpoints (plus hits, cold users and
    /// failures), over 1–3 shards and exact or int8-approximate
    /// retrieval, must show the same stages to every consumer:
    ///
    /// * the recorder's `serve.batch` and `serve.batch.{stage}` spans are
    ///   the trace's boundaries and `stages()`;
    /// * each `ShardTiming` — scatter passes and slate passes alike — has
    ///   exactly one `serve.shard{i}.score` span, in trace order, of the
    ///   same duration and inside the score stage;
    /// * each `serve_stage_seconds` histogram counts the batch once;
    /// * through admission, a completion's `admitted_at` is where its
    ///   span's queue stage ends.
    ///
    /// Rankings are bit-identical with the recorder on or off.
    #[test]
    fn batch_views_agree_with_the_trace(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..9, any::<u32>(), any::<u32>()), 0..10),
    ) {
        let (u, v) = ((seed % 6) as u32, (seed % 37) as u32);
        let mut ops = ops;
        // One of each endpoint; the slate [0, 13, 26] is valid on both arms
        // and touches every shard.
        ops.extend([(0, u, 0), (2, v, 0), (3, u, 0), (4, u, 3), (5, u, v)]);
        let requests: Vec<Request> = ops
            .iter()
            .enumerate()
            .map(|(i, &(kind, a, b))| mixed_request(i as u64, kind, a, b))
            .collect();
        for config in mixed_configs() {
            let ctx = format!("{} shards, {:?}", config.shards, config.score.retrieval);
            let (want, _) = two_arm_engine(seed, &config).recommend_batch_traced(&requests, &NOOP);
            let engine = two_arm_engine(seed, &config);
            let before = stage_counts(&engine);
            let rec = MemoryRecorder::new();
            let (got, trace) = engine.recommend_batch_traced(&requests, &rec);
            for (g, w) in got.iter().zip(&want) {
                let items = |r: &Result<cumf_serve::Recommendation, _>| r.as_ref().ok().map(|r| r.items.clone());
                prop_assert_eq!(items(g), items(w), "{}", ctx);
            }
            let spans = rec.phase_spans();
            let batch: Vec<_> = spans
                .iter()
                .filter(|s| s.name.starts_with("serve.batch"))
                .map(|s| (s.name.to_string(), s.start, s.end))
                .collect();
            let mut expected = vec![("serve.batch".to_string(), trace.start, trace.end)];
            for (name, start, end) in trace.stages() {
                expected.push((format!("serve.batch.{name}"), start, end));
            }
            prop_assert_eq!(batch, expected, "{}", ctx);

            let [_, _, (_, score_start, score_end), _, _] = trace.stages();
            let shard_spans: Vec<_> = spans.iter().filter(|s| s.name.starts_with("serve.shard")).collect();
            prop_assert_eq!(shard_spans.len(), trace.shard_timings.len(), "{}", ctx);
            prop_assert!(!trace.shard_timings.is_empty(), "{}", ctx);
            for (span, t) in shard_spans.iter().zip(&trace.shard_timings) {
                prop_assert_eq!(span.name.to_string(), format!("serve.shard{}.score", t.shard), "{}", ctx);
                prop_assert!((span.duration() - t.secs).abs() < 1e-9, "{}: {:?} vs {}", ctx, span, t.secs);
                prop_assert!(span.start >= score_start - 1e-9 && span.end <= score_end + 1e-9, "{}: {:?}", ctx, span);
            }

            let after = stage_counts(&engine);
            let advanced: Vec<f64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            prop_assert_eq!(advanced, vec![1.0; 5], "{}", ctx);

            let (queue, worker, done) = admission_queue(AdmissionConfig {
                max_batch: requests.len(),
                queue_depth: requests.len(),
            });
            for req in &requests {
                queue.submit(req.clone(), engine.now()).unwrap();
            }
            drop(queue);
            let report = worker.run(&engine, &rec);
            prop_assert_eq!(report.batches, 1, "{}", ctx);
            for c in done.iter() {
                let queue_end = c.span.submitted_at + c.span.stages.queue;
                prop_assert!((c.admitted_at - queue_end).abs() < 1e-12, "{}: {} vs {}", ctx, c.admitted_at, queue_end);
                prop_assert_eq!(c.finished_at, c.span.finished_at, "{}", ctx);
            }
            let served = rec.phase_spans().iter().filter(|s| s.name == "serve.batch").count();
            prop_assert_eq!(served as u64, engine.obs().metrics().batches.get(), "{}", ctx);
        }
    }
}
