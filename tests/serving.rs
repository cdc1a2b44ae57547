//! End-to-end serving: train with cumf-als, publish into cumf-serve,
//! replay sampled traffic, and check the rankings, the cold-start path,
//! the snapshot swap, multi-model canary routing with promote/rollback,
//! and the telemetry stream all line up.

use cumf_als::{AlsConfig, AlsTrainer};
use cumf_datasets::{MfDataset, RequestSampler, SizeClass};
use cumf_gpu_sim::GpuSpec;
use cumf_numeric::dense::DenseMatrix;
use cumf_serve::{
    overlap_at_k, AnnParams, CanaryPolicy, ModelSnapshot, QuantMode, Request, Retrieval,
    ScoreConfig, ServeConfig, ServeEngine,
};
use cumf_telemetry::{to_jsonl, MemoryRecorder, NOOP};

fn trained() -> (MfDataset, DenseMatrix, DenseMatrix) {
    let data = MfDataset::netflix(SizeClass::Tiny, 4242);
    let cfg = AlsConfig {
        f: 8,
        iterations: 6,
        rmse_target: None,
        ..AlsConfig::for_profile(&data.profile)
    };
    let mut t = AlsTrainer::new(&data, cfg, GpuSpec::maxwell_titan_x(), 1);
    t.train();
    let (x, theta) = (t.x.clone(), t.theta.clone());
    drop(t);
    (data, x, theta)
}

fn engine_from(x: &DenseMatrix, theta: &DenseMatrix) -> ServeEngine {
    let snapshot = ModelSnapshot::new(0, theta.clone(), vec![]);
    ServeEngine::builder()
        .config(ServeConfig::default().with_k(10))
        .model("default", x.clone(), snapshot)
        .build()
        .expect("single trained model builds")
}

#[test]
fn trained_model_serves_sampled_traffic() {
    let (data, x, theta) = trained();
    let engine = engine_from(&x, &theta);
    let mut sampler = RequestSampler::from_dataset(&data, 7);
    let stream = sampler.sample(300, 1000.0);

    let rec = MemoryRecorder::new();
    let mut served = 0;
    for chunk in stream.chunks(32) {
        let reqs: Vec<Request> = chunk
            .iter()
            .enumerate()
            .map(|(i, s)| Request::known(i as u64, s.user))
            .collect();
        let out = engine.recommend_batch(&reqs, &rec);
        assert_eq!(out.len(), reqs.len());
        for r in &out {
            let r = r.as_ref().expect("sampled users are all known");
            assert_eq!(r.items.len(), 10);
            assert_eq!(r.model.as_str(), "default");
            // Rankings are strictly ordered.
            for w in r.items.windows(2) {
                assert!(w[0].ranks_before(&w[1]));
            }
        }
        served += out.len();
    }
    assert_eq!(served, 300);

    // Skewed traffic over a Tiny population must produce repeat users,
    // hence cache hits.
    let stats = engine.cache_stats();
    assert!(stats.hits > 0, "no cache hits over 300 skewed requests");
    assert_eq!(stats.hits + stats.misses, 300);

    // The event stream carries the batch phase spans, and the engine's
    // typed registry carries the live totals (bridgeable into JSONL).
    let jsonl = to_jsonl(&rec.events());
    assert!(jsonl.contains("serve.batch"));
    assert!(jsonl.contains("serve.shard0.score"));
    let m = engine.obs().metrics();
    assert_eq!(m.requests.get(), 300);
    assert_eq!(m.cache_hits.get(), stats.hits);
    let bridged = to_jsonl(
        &m.registry()
            .to_counter_samples(engine.now())
            .into_iter()
            .map(|c| cumf_telemetry::Event::Counter { sample: c })
            .collect::<Vec<_>>(),
    );
    assert!(bridged.contains("serve_requests_total"));
    assert!(bridged.contains("serve_cache_hits_total"));
    // The v2 per-model series carry the model label.
    let prom = m.registry().render_prometheus();
    assert!(prom.contains("serve_model_requests_total{model=\"default\"} 300"));
}

#[test]
fn cold_start_reconstructs_a_known_users_taste() {
    let (data, x, theta) = trained();
    let engine = engine_from(&x, &theta);
    // The heaviest rater: their fold-in solve is best-conditioned.
    let user = (0..data.m()).max_by_key(|&u| data.r.row_nnz(u)).unwrap() as u32;
    let known = engine.recommend_user(user, &NOOP).unwrap();
    let cold = engine.recommend_batch(
        &[Request::cold(0, data.r.row_iter(user as usize).collect())],
        &NOOP,
    );
    // Folding the user's own history must land on essentially the same
    // recommendations the trained factors produce.
    let known_items: Vec<u32> = known.items.iter().map(|s| s.item).collect();
    let overlap = cold[0]
        .as_ref()
        .unwrap()
        .items
        .iter()
        .filter(|s| known_items.contains(&s.item))
        .count();
    assert!(
        overlap >= 7,
        "cold-start top-10 shares only {overlap}/10 items with the trained ranking"
    );
}

#[test]
fn publishing_a_new_epoch_rolls_the_cache_over() {
    let (_, x, theta) = trained();
    let engine = engine_from(&x, &theta);
    let first = engine.recommend_user(3, &NOOP).unwrap();
    assert!(!first.from_cache);
    assert!(engine.recommend_user(3, &NOOP).unwrap().from_cache);

    // "Retrain" (identity republish is enough for the swap semantics),
    // via the registry's keyed publish.
    engine
        .registry()
        .publish(
            &"default".into(),
            ModelSnapshot::new(1, theta.clone(), vec![]),
        )
        .unwrap();
    let after = engine.recommend_user(3, &NOOP).unwrap();
    assert_eq!(after.epoch, 1);
    assert!(!after.from_cache, "old epoch's entry must not answer");
    // Identical factors ⇒ identical ranking, fresh epoch tag.
    assert_eq!(after.items, first.items);
}

/// Approximate retrieval end-to-end: an int8-rescoring approximate
/// engine over the same trained factors keeps recall@10 at or above 0.9
/// against the exact engine while streaming measurably fewer factor
/// bytes, and the `serve_ann_*` counters account for the probe.
#[test]
fn approximate_engine_trades_bounded_recall_for_fewer_scan_bytes() {
    let (data, x, theta) = trained();
    let exact = engine_from(&x, &theta);
    let approx = ServeEngine::builder()
        .config(
            ServeConfig::default()
                .with_k(10)
                .with_score(ScoreConfig {
                    retrieval: Retrieval::Approx {
                        n_probe: 8,
                        quant: QuantMode::Int8,
                    },
                    ..ScoreConfig::default()
                })
                .with_ann(AnnParams {
                    k_clusters: 16,
                    ..AnnParams::default()
                }),
        )
        .model(
            "default",
            x.clone(),
            ModelSnapshot::new(0, theta.clone(), vec![]),
        )
        .build()
        .expect("approx engine builds");

    let mut recall = 0.0f64;
    let mut served = 0usize;
    for user in (0..data.m() as u32).step_by(11) {
        let a = exact.recommend_user(user, &NOOP).unwrap();
        let b = approx.recommend_user(user, &NOOP).unwrap();
        recall += overlap_at_k(&a.items, &b.items, 10);
        served += 1;
    }
    recall /= served as f64;
    assert!(
        recall >= 0.9,
        "recall@10 vs the exact engine fell to {recall:.3}"
    );

    let (me, ma) = (exact.obs().metrics(), approx.obs().metrics());
    assert!(
        ma.scan_bytes.get() < me.scan_bytes.get(),
        "approx scan bytes {} must undercut exact {}",
        ma.scan_bytes.get(),
        me.scan_bytes.get()
    );
    assert!(ma.ann_probed.get() > 0, "the probe stage must be counted");
    assert!(
        ma.ann_rescored.get() > 0,
        "int8 shortlists must be rescored"
    );
    assert!(
        ma.ann_rescored.get() <= ma.ann_candidates.get(),
        "rescore fraction stays within [0, 1]"
    );
    assert_eq!(me.ann_probed.get(), 0, "exact engines never probe");
    assert_eq!(
        ma.model("default").ann_fallback.get(),
        0,
        "the builder attaches the index, so the approx path never falls back"
    );
}

/// The tentpole end-to-end: a champion/challenger pair behind one engine.
/// Traffic splits at the configured canary fraction, both arms serve from
/// their own factors, per-model metrics land in the Prometheus
/// exposition, and promote/rollback retarget routing without rebuilding
/// the engine.
#[test]
fn two_model_canary_splits_promotes_and_rolls_back() {
    let (data, x, theta) = trained();
    // The challenger: same geometry, retrained-looking factors (scaled),
    // so both arms rank — identically here, which is fine; what we check
    // is routing, isolation, and observability.
    let mut theta_b = theta.clone();
    cumf_numeric::dense::scale(0.5, theta_b.as_mut_slice());
    let engine = ServeEngine::builder()
        .config(ServeConfig::default().with_k(10))
        .model("champion", x.clone(), ModelSnapshot::new(0, theta, vec![]))
        .model(
            "challenger",
            x.clone(),
            ModelSnapshot::new(0, theta_b, vec![]),
        )
        .canary("challenger", 0.25)
        .build()
        .unwrap();

    // Replay every user once; count which arm answered.
    let n_users = data.m() as u32;
    let reqs: Vec<Request> = (0..n_users).map(|u| Request::known(u as u64, u)).collect();
    let out = engine.recommend_batch(&reqs, &NOOP);
    let canaried = out
        .iter()
        .filter(|r| r.as_ref().unwrap().model.as_str() == "challenger")
        .count();
    let frac = canaried as f64 / n_users as f64;
    assert!(
        (frac - 0.25).abs() < 0.1,
        "canary share {frac:.3} far from the configured 0.25 over {n_users} users"
    );
    assert!(
        canaried > 0 && canaried < n_users as usize,
        "both arms must serve"
    );

    // Explicit model ids override the canary split.
    let pinned = engine
        .recommend_batch(&[Request::known(0, 0).for_model("challenger")], &NOOP)
        .pop()
        .unwrap()
        .unwrap();
    assert_eq!(pinned.model.as_str(), "challenger");

    // Per-model series are in the exposition, labelled.
    let prom = engine.obs().metrics().registry().render_prometheus();
    assert!(prom.contains("serve_model_requests_total{model=\"champion\"}"));
    assert!(prom.contains("serve_model_requests_total{model=\"challenger\"}"));
    assert!(prom.contains("serve_model_epoch_current{model=\"challenger\"}"));

    // Promote: the challenger becomes the default for all traffic, the
    // canary clears — no engine restart, next batch sees it.
    engine.registry().promote().unwrap();
    assert_eq!(engine.registry().default_model().as_str(), "challenger");
    assert!(engine.registry().canary().is_none());
    let all = engine.recommend_batch(&reqs, &NOOP);
    assert!(all
        .iter()
        .all(|r| r.as_ref().unwrap().model.as_str() == "challenger"));

    // Roll back to the champion and restart a smaller canary: routing
    // follows immediately.
    engine.registry().set_default(&"champion".into()).unwrap();
    engine
        .registry()
        .set_canary(CanaryPolicy::new("challenger", 0.0))
        .unwrap();
    let back = engine.recommend_batch(&reqs, &NOOP);
    assert!(back
        .iter()
        .all(|r| r.as_ref().unwrap().model.as_str() == "champion"));
}
