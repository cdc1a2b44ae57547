//! Serving benchmark: train once, then replay a Poisson request stream
//! through the `cumf-serve` admission queue and report latency
//! percentiles, throughput, shed rate and cache effectiveness.
//!
//! The generator paces request *arrivals* at the target QPS and submits
//! each into the engine's bounded admission queue; a worker thread drains
//! the queue into micro-batches: each takes what is queued (up to
//! `--batch`) and closes as soon as the queue is empty. In the default
//! closed loop a full queue blocks the submitter (backpressure), so
//! queueing delay shows up in the latencies the moment the engine can't
//! keep up. With `--open-loop` the submitter never blocks: a full queue
//! *sheds* the request, and overload turns into a measured rejection rate
//! while the latency of admitted requests stays bounded.
//!
//! ```text
//! cargo run --release -p cumf-bench --bin serve_bench -- \
//!     --quick --qps 2000 --requests 4000 --shards 4 \
//!     --models 2 --canary-fraction 0.1 \
//!     --json BENCH_serve.json --metrics /tmp/serve.jsonl
//! ```
//!
//! Extra flags on top of the common set: `--qps F`, `--requests N`,
//! `--k N`, `--batch N` (max micro-batch), `--queue-depth N` (admission
//! queue capacity), `--shards N` (item-range shards), `--open-loop` (shed
//! instead of blocking when the queue is full), `--cache N` (entries),
//! `--cold-frac F` (fraction served as cold-start fold-ins),
//! `--models N` (register N arms `m0…m{N-1}` in the model registry; 1
//! registers a single `default` model), `--canary-fraction F` (route that
//! fraction of traffic to the last arm as a canary candidate),
//! `--republish` (publish a new model epoch halfway through, via the
//! registry), `--mem-budget-mb F` (soft resident-memory budget; exceeding
//! it after a publish warns and counts, never evicts), `--retrieval
//! exact|approx` (two-stage centroid-probed retrieval instead of the full
//! exact scan; see `docs/APPROXIMATION.md`), `--n-probe N` (clusters
//! scanned per request), `--clusters N` (centroids built at publish
//! time), `--quant int8|none` (stage-2 scan precision; int8 rescores the
//! shortlist in FP32), `--items N` (synthesize an N-item catalog instead
//! of the Tiny/Small presets — pruning only pays on catalogs that dwarf
//! the probe), `--kernels` (run the single-thread scoring-microkernel
//! sweep at its reference shape and fold the `kernels` block into the
//! JSON summary — the standalone form is the `kernel_bench` binary),
//! `--endpoint topk|similar-items|similar-users|rank|explain` (which
//! [`Query`](cumf_serve::Query) shape the replay exercises; non-topk
//! endpoints skip the cold-start fold-ins), `--slate N` (candidate-slate
//! length per `--endpoint rank` request), `--data PATH` (train and serve
//! a MovieLens-format `user::item::rating` text file loaded through
//! `cumf_datasets::loader` instead of a synthetic replica),
//! `--write-data PATH` (materialize the ML-100k-shaped replica as a
//! MovieLens text file first, then load it back — the loader round-trip
//! EXPERIMENTS.md records),
//! `--json PATH` (write a machine-readable summary
//! carrying [`cumf_bench::diff::SCHEMA_VERSION`], gateable with
//! `bench_diff` — schema v3 adds the `memory` footprint tree and
//! `bandwidth` effective-GB/s blocks; v4 adds the `retrieval` block and,
//! under `--retrieval approx`, the measured `recall` block; v5 adds
//! `score_flops` + `effective_gflops` to the `bandwidth` block and, under
//! `--kernels`, the `kernels` microbenchmark block; v6 adds the
//! `endpoint` token and the per-endpoint `endpoints` block mirroring the
//! `serve_endpoint_*` metric family).
//!
//! Observability flags (the `serve::obs` stack is always on; these expose
//! it): `--prom-out PATH` writes the Prometheus text exposition at exit
//! (including the per-model `serve_model_*` series), `--slow-trace-us N`
//! sets the flight-recorder slow threshold, `--slow-trace PATH` dumps a
//! Chrome trace of the slowest exemplar requests, `--slo-target-us N`
//! sets the SLO latency target that the burn-rate windows and the
//! report's compliance line are computed from, `--obs-addr ADDR` binds
//! the zero-dependency HTTP exposition server ([`cumf_serve::ObsServer`])
//! on ADDR (e.g. `127.0.0.1:9090`; port 0 picks a free one — the bound
//! address is printed) for live `GET /metrics`, `/healthz`, `/readyz` and
//! `/debug/*` scrapes during the replay, and `--obs-linger-ms N` keeps
//! the server (and the process) up N ms after the replay finishes so an
//! external scraper can collect the final state — the CI smoke job curls
//! the endpoints inside that window.

use cumf_als::{AlsConfig, AlsTrainer};
use cumf_bench::diff::SCHEMA_VERSION;
use cumf_bench::kernels::{run_kernel_bench, KernelBenchConfig, KernelReport};
use cumf_bench::{fmt_s, rule, HarnessArgs, TelemetrySink};
use cumf_datasets::loader::{load_ratings_file, write_movielens};
use cumf_datasets::{DatasetProfile, MfDataset, RequestSampler, SizeClass};
use cumf_gpu_sim::GpuSpec;
use cumf_numeric::dense::DenseMatrix;
use cumf_serve::{
    admission_queue, overlap_at_k, top_k_batch_sharded_timed, AdmissionConfig, AdmissionReport,
    AnnParams, Completion, Endpoint, HttpConfig, ModelSnapshot, ObsConfig, ObsServer, QuantMode,
    Request, Retrieval, ScoreConfig, ServeConfig, ServeEngine, SloConfig, SubmitError,
};
use cumf_telemetry::footprint::human_bytes;
use cumf_telemetry::{CounterSample, LatencyHistogram};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

struct ServeFlags {
    qps: f64,
    requests: usize,
    k: usize,
    batch: usize,
    queue_depth: usize,
    shards: usize,
    open_loop: bool,
    cache: usize,
    cold_frac: f64,
    models: usize,
    canary_fraction: f64,
    republish: bool,
    approx: bool,
    n_probe: usize,
    clusters: usize,
    quant_none: bool,
    items: Option<usize>,
    kernels: bool,
    endpoint: Endpoint,
    slate: usize,
    data: Option<String>,
    write_data: Option<String>,
    json: Option<String>,
    prom_out: Option<String>,
    slow_trace: Option<String>,
    slow_trace_us: u64,
    slo_target_us: u64,
    mem_budget_mb: Option<f64>,
    obs_addr: Option<String>,
    obs_linger_ms: u64,
}

impl ServeFlags {
    /// The retrieval mode the flags ask for.
    fn retrieval(&self) -> Retrieval {
        if self.approx {
            Retrieval::Approx {
                n_probe: self.n_probe,
                quant: if self.quant_none {
                    QuantMode::None
                } else {
                    QuantMode::Int8
                },
            }
        } else {
            Retrieval::Exact
        }
    }
}

fn parse_flags() -> (HarnessArgs, ServeFlags) {
    let (args, extras) = HarnessArgs::parse_with_extras();
    let mut flags = ServeFlags {
        qps: 2000.0,
        requests: if args.quick { 4000 } else { 20000 },
        k: 10,
        batch: 64,
        queue_depth: 256,
        shards: 1,
        open_loop: false,
        cache: 4096,
        cold_frac: 0.02,
        models: 1,
        canary_fraction: 0.0,
        republish: false,
        approx: false,
        n_probe: 16,
        clusters: 64,
        quant_none: false,
        items: None,
        kernels: false,
        endpoint: Endpoint::TopK,
        slate: 32,
        data: None,
        write_data: None,
        json: None,
        prom_out: None,
        slow_trace: None,
        slow_trace_us: 2_000,
        slo_target_us: 25_000,
        mem_budget_mb: None,
        obs_addr: None,
        obs_linger_ms: 0,
    };
    let mut it = extras.into_iter();
    while let Some(a) = it.next() {
        let mut val = |d: f64| it.next().and_then(|s| s.parse().ok()).unwrap_or(d);
        match a.as_str() {
            "--qps" => flags.qps = val(2000.0),
            "--requests" => flags.requests = val(20000.0) as usize,
            "--k" => flags.k = val(10.0) as usize,
            "--batch" => flags.batch = (val(64.0) as usize).max(1),
            "--queue-depth" => flags.queue_depth = (val(256.0) as usize).max(1),
            "--shards" => flags.shards = (val(1.0) as usize).max(1),
            "--open-loop" => flags.open_loop = true,
            "--cache" => flags.cache = val(4096.0) as usize,
            "--cold-frac" => flags.cold_frac = val(0.02),
            "--models" => flags.models = (val(1.0) as usize).max(1),
            "--canary-fraction" => flags.canary_fraction = val(0.0).clamp(0.0, 1.0),
            "--republish" => flags.republish = true,
            "--retrieval" => {
                flags.approx = matches!(it.next().as_deref(), Some("approx"));
            }
            "--n-probe" => flags.n_probe = (val(16.0) as usize).max(1),
            "--clusters" => flags.clusters = (val(64.0) as usize).max(1),
            "--quant" => {
                flags.quant_none = matches!(it.next().as_deref(), Some("none"));
            }
            "--items" => flags.items = Some((val(2000.0) as usize).max(16)),
            "--kernels" => flags.kernels = true,
            "--endpoint" => {
                flags.endpoint = match it.next().as_deref() {
                    Some("topk") | None => Endpoint::TopK,
                    Some("similar-items") => Endpoint::SimilarItems,
                    Some("similar-users") => Endpoint::SimilarUsers,
                    Some("rank") => Endpoint::RankItems,
                    Some("explain") => Endpoint::Explain,
                    Some(other) => {
                        eprintln!("unknown --endpoint {other}, serving topk");
                        Endpoint::TopK
                    }
                };
            }
            "--slate" => flags.slate = (val(32.0) as usize).max(1),
            "--data" => flags.data = it.next(),
            "--write-data" => flags.write_data = it.next(),
            "--json" => flags.json = it.next(),
            "--prom-out" => flags.prom_out = it.next(),
            "--slow-trace" => flags.slow_trace = it.next(),
            "--slow-trace-us" => flags.slow_trace_us = (val(2000.0) as u64).max(1),
            "--slo-target-us" => flags.slo_target_us = (val(25000.0) as u64).max(1),
            "--mem-budget-mb" => flags.mem_budget_mb = Some(val(f64::INFINITY).max(0.0)),
            "--obs-addr" => flags.obs_addr = it.next(),
            "--obs-linger-ms" => flags.obs_linger_ms = val(0.0) as u64,
            "--help" | "-h" => {
                eprintln!(
                    "serve_bench flags: --qps F, --requests N, --k N, --batch N, \
                     --queue-depth N, --shards N, --open-loop, \
                     --cache N, --cold-frac F, --models N, --canary-fraction F, \
                     --republish, --retrieval exact|approx, --n-probe N, --clusters N, \
                     --quant int8|none, --items N, --kernels, \
                     --endpoint topk|similar-items|similar-users|rank|explain, --slate N, \
                     --data PATH, --write-data PATH, \
                     --json PATH, --prom-out PATH, --slow-trace PATH, \
                     --slow-trace-us N, --slo-target-us N, --mem-budget-mb F, \
                     --obs-addr ADDR, --obs-linger-ms N; common: {}",
                    HarnessArgs::common_usage()
                );
                std::process::exit(0);
            }
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    (args, flags)
}

/// Deterministic pseudo-random candidate slate for request `i`:
/// Knuth-hash item picks over the catalog, reproducible across runs so
/// two benches rank identical slates. Duplicates are allowed — the
/// engine ranks them independently, matching real deduplication-free
/// ad/feed callers.
fn slate_for(i: usize, n_items: usize, len: usize) -> Vec<u32> {
    (0..len)
        .map(|j| {
            let h = (i as u64)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(j as u64 * 97_003);
            (h % n_items as u64) as u32
        })
        .collect()
}

/// Popularity prior: a small log-count bonus, the usual cold-item floor.
fn popularity_prior(data: &MfDataset) -> Vec<f32> {
    (0..data.n())
        .map(|v| 0.01 * (1.0 + data.rt.row_nnz(v) as f32).ln())
        .collect()
}

/// Measured ranking quality of the approximate retrieval path against
/// the exact FP32 scan, over a sample of trained users, with the factor
/// bytes each path streamed for the same batch.
struct RecallSummary {
    k: usize,
    users: usize,
    recall: f64,
    exact_bytes: u64,
    approx_bytes: u64,
}

impl RecallSummary {
    /// How many times fewer factor bytes the approximate scan streamed.
    fn bytes_ratio(&self) -> f64 {
        self.exact_bytes as f64 / self.approx_bytes.max(1) as f64
    }
}

/// Score a sample of trained users through both the exact and the
/// approximate sharded scorer on the engine's published snapshot (the
/// registry has already built each shard's centroid index and int8 block
/// copy), and measure mean `overlap@k` plus scan bytes for each path.
///
/// Users are scored one request at a time — the latency-critical serving
/// regime, and what the admission replay actually produces (at
/// interactive QPS most scoring micro-batches hold a single cache-miss
/// user). Byte counts therefore reflect per-request streaming: the exact
/// path re-streams the whole Θ catalog per request, the approximate path
/// streams the centroid table plus only the probed clusters. Large
/// offline batches amortize the exact scan across a user chunk and favor
/// it instead — see `docs/APPROXIMATION.md` for that trade.
fn measure_recall(engine: &ServeEngine, x: &DenseMatrix, flags: &ServeFlags) -> RecallSummary {
    let id = engine.registry().default_model();
    let guard = engine
        .registry()
        .snapshot(&id)
        .expect("default arm is live");
    let sample = x.rows().clamp(1, 256);
    let step = (x.rows() / sample).max(1);
    let exact_cfg = ScoreConfig::default();
    let approx_cfg = ScoreConfig {
        retrieval: flags.retrieval(),
        ..exact_cfg
    };
    let (mut users, mut recall) = (0usize, 0.0f64);
    let (mut exact_bytes, mut approx_bytes) = (0u64, 0u64);
    let mut u = 0usize;
    while u < x.rows() && users < sample {
        let one = DenseMatrix::from_vec(1, x.cols(), x.row(u).to_vec());
        let (exact, es) = top_k_batch_sharded_timed(&guard, &one, flags.k, &exact_cfg);
        let (approx, aps) = top_k_batch_sharded_timed(&guard, &one, flags.k, &approx_cfg);
        recall += overlap_at_k(&exact[0], &approx[0], flags.k);
        exact_bytes += es.iter().map(|t| t.work.bytes).sum::<u64>();
        approx_bytes += aps.iter().map(|t| t.work.bytes).sum::<u64>();
        users += 1;
        u += step;
    }
    RecallSummary {
        k: flags.k,
        users,
        recall: recall / users.max(1) as f64,
        exact_bytes,
        approx_bytes,
    }
}

/// Everything the replay measured, for the human report and the JSON dump.
struct ReplaySummary {
    served: usize,
    failed: usize,
    shed: usize,
    span: f64,
    latency: LatencyHistogram,
    admission: AdmissionReport,
    /// Completions per model arm, keyed by model id.
    per_model: BTreeMap<String, usize>,
}

fn main() {
    let (args, flags) = parse_flags();
    let sink = TelemetrySink::from_args(&args);
    let rec = sink.recorder();

    // ── Train the model this engine will serve ──────────────────────────
    // `--items N` swaps in a custom catalog size: approximate retrieval
    // only pays once the catalog dwarfs the per-request probe + rescore
    // overhead, which the Tiny/Small presets are too small to show.
    let size = match (flags.items, args.quick) {
        (Some(n), quick) => SizeClass::Custom {
            m: if quick { 600 } else { 3000 },
            n,
            nz: 12 * n,
        },
        (None, true) => SizeClass::Tiny,
        (None, false) => SizeClass::Small,
    };
    let data = if flags.data.is_some() || flags.write_data.is_some() {
        // Real-data path: serve a MovieLens-format ratings file through
        // the text loader. `--write-data` first materializes the
        // ML-100k-shaped replica as a `user::item::rating` file so the
        // loader is exercised end-to-end without a network fetch.
        if let Some(path) = &flags.write_data {
            let replica = MfDataset::movielens_100k(args.seed);
            let mut all = replica.train_coo.clone();
            for e in replica.test.entries() {
                all.push(e.row, e.col, e.value);
            }
            let file = std::fs::File::create(path).expect("create ratings file");
            write_movielens(&all, std::io::BufWriter::new(file)).expect("write ratings file");
            eprintln!("wrote {} MovieLens-format ratings to {path}", all.nnz());
        }
        let path = flags
            .data
            .as_deref()
            .or(flags.write_data.as_deref())
            .unwrap();
        let coo = load_ratings_file(path).expect("parse ratings file");
        eprintln!(
            "loaded {} ratings ({} users × {} items) from {path} via the text loader",
            coo.nnz(),
            coo.rows(),
            coo.cols()
        );
        MfDataset::from_ratings(DatasetProfile::movielens_100k(), &coo, 0.1, args.seed)
    } else {
        MfDataset::netflix(size, args.seed)
    };
    let cfg = AlsConfig {
        f: if args.quick { 16 } else { 48 },
        iterations: args.epochs(8) as usize,
        rmse_target: None,
        ..AlsConfig::for_profile(&data.profile)
    };
    eprintln!(
        "training {}×{} ({} ratings), f={} …",
        data.m(),
        data.n(),
        data.train_nnz(),
        cfg.f
    );
    let mut trainer = AlsTrainer::new(&data, cfg, GpuSpec::maxwell_titan_x(), 1);
    trainer.train();

    let obs_cfg = ObsConfig {
        slow_threshold: Duration::from_micros(flags.slow_trace_us),
        slo: SloConfig {
            target: Duration::from_micros(flags.slo_target_us),
            ..SloConfig::default()
        },
        ..ObsConfig::default()
    };
    let mut serve_cfg = ServeConfig::default()
        .with_k(flags.k)
        .with_shards(flags.shards)
        .with_cache_capacity(flags.cache)
        .with_score(ScoreConfig {
            retrieval: flags.retrieval(),
            ..ScoreConfig::default()
        })
        .with_ann(AnnParams {
            k_clusters: flags.clusters,
            ..AnnParams::default()
        })
        .with_obs(obs_cfg);
    if let Some(mb) = flags.mem_budget_mb {
        serve_cfg = serve_cfg.with_memory_budget((mb * 1024.0 * 1024.0) as u64);
    }

    // One registry arm per --models: the same trained factors behind each
    // (distinct epoch tags so the arms are tellable apart downstream),
    // with the last arm as the canary candidate when a split is asked for.
    let arm_names: Vec<String> = if flags.models <= 1 {
        vec!["default".to_string()]
    } else {
        (0..flags.models).map(|i| format!("m{i}")).collect()
    };
    let mut builder = ServeEngine::builder().config(serve_cfg);
    for (i, name) in arm_names.iter().enumerate() {
        let snapshot = ModelSnapshot::new(i as u64, trainer.theta.clone(), popularity_prior(&data));
        builder = builder.model(name.as_str(), trainer.x.clone(), snapshot);
    }
    let canary_arm = (flags.canary_fraction > 0.0 && arm_names.len() > 1)
        .then(|| arm_names.last().unwrap().clone());
    if let Some(candidate) = &canary_arm {
        builder = builder.canary(candidate.as_str(), flags.canary_fraction);
    }
    let engine = Arc::new(
        builder
            .build()
            .expect("registry bootstrap from trained factors"),
    );

    // Bind the exposition server before the replay so live scrapes see
    // the stream mid-flight; port 0 picks a free port (printed below).
    let obs_server = flags.obs_addr.as_deref().map(|addr| {
        let server = ObsServer::bind(addr, Arc::clone(&engine), HttpConfig::default())
            .expect("bind observability listener");
        eprintln!("obs: serving /metrics on http://{}/", server.local_addr());
        server
    });

    // ── Measure recall of the approximate path (before the replay, so
    //    the engine's live counters stay untouched) ──────────────────────
    let recall = flags
        .approx
        .then(|| measure_recall(&engine, &trainer.x, &flags));
    if let Some(r) = &recall {
        eprintln!(
            "approx retrieval: recall@{} = {:.3} over {} users, {:.1}x fewer scan bytes",
            r.k,
            r.recall,
            r.users,
            r.bytes_ratio()
        );
    }

    // ── Synthesize the request stream ───────────────────────────────────
    let mut sampler = RequestSampler::from_dataset(&data, args.seed ^ 0xBEEF);
    let stream = sampler.sample(flags.requests, flags.qps);
    // Every cold_frac-th request is replayed as an unseen user carrying
    // the sampled user's training history (a realistic fold-in workload).
    let cold_every = if flags.cold_frac > 0.0 {
        (1.0 / flags.cold_frac).round() as usize
    } else {
        usize::MAX
    };

    eprintln!(
        "replaying {} {} requests at {} QPS ({} loop, batch ≤ {}, queue {}, \
         {} shard{}, cache {}, k {}, {} model{}{}{})",
        flags.requests,
        flags.endpoint.name(),
        flags.qps,
        if flags.open_loop { "open" } else { "closed" },
        flags.batch,
        flags.queue_depth,
        flags.shards,
        if flags.shards == 1 { "" } else { "s" },
        flags.cache,
        flags.k,
        arm_names.len(),
        if arm_names.len() == 1 { "" } else { "s" },
        canary_arm
            .as_ref()
            .map(|c| format!(" (canary {c} at {:.2})", flags.canary_fraction))
            .unwrap_or_default(),
        if flags.republish { ", republish" } else { "" },
    );

    // ── Replay through the admission queue ──────────────────────────────
    // The worker drains the queue on its own thread while this thread
    // paces arrivals; latency for an admitted request is measured from its
    // *scheduled* arrival to batch completion, so both queueing delay and
    // closed-loop backpressure (a late submit) are charged to it.
    let (queue, worker, done) = admission_queue(AdmissionConfig {
        max_batch: flags.batch,
        queue_depth: flags.queue_depth,
    });
    // Shed requests must spend SLO budget, so the queue needs the obs hook.
    let queue = queue.with_obs(engine.obs_arc());
    let mut shed = 0usize;
    let replay0 = engine.now();
    let (admission, completions) = std::thread::scope(|scope| {
        let engine = &engine;
        let handle = scope.spawn(move || worker.run(engine, rec));
        let mut republished = false;
        for (i, sampled) in stream.iter().enumerate() {
            // Mid-run publish: same factors, new epoch into the default
            // arm — a keyed snapshot swap under load, every cache key for
            // that arm rolls over.
            if flags.republish && !republished && i >= stream.len() / 2 {
                let id = engine.registry().default_model();
                let snap = engine
                    .registry()
                    .snapshot(&id)
                    .expect("default arm is live");
                let fresh = ModelSnapshot::new(
                    snap.epoch() + 1,
                    snap.full().item_factors().clone(),
                    popularity_prior(&data),
                );
                engine
                    .registry()
                    .publish(&id, fresh)
                    .expect("republish into the default arm");
                republished = true;
            }

            let due = replay0 + sampled.arrival;
            let now = engine.now();
            if due > now {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let req = match flags.endpoint {
                Endpoint::TopK => {
                    if cold_every != usize::MAX && i % cold_every == cold_every - 1 {
                        Request::cold(i as u64, data.r.row_iter(sampled.user as usize).collect())
                    } else {
                        Request::known(i as u64, sampled.user)
                    }
                }
                Endpoint::SimilarItems => {
                    Request::similar_items(i as u64, sampled.user % data.n() as u32)
                }
                Endpoint::SimilarUsers => Request::similar_users(i as u64, sampled.user),
                Endpoint::RankItems => {
                    Request::rank_items(i as u64, sampled.user, slate_for(i, data.n(), flags.slate))
                }
                Endpoint::Explain => Request::explain(
                    i as u64,
                    sampled.user,
                    sampled.user.wrapping_mul(31).wrapping_add(i as u32) % data.n() as u32,
                ),
            };
            if flags.open_loop {
                match queue.try_submit(req, due) {
                    Ok(()) | Err(SubmitError::Full(_)) => {}
                    Err(SubmitError::Closed(_)) => panic!("admission worker died"),
                }
            } else {
                queue.submit(req, due).expect("admission worker died");
            }
        }
        shed = queue.rejected() as usize;
        drop(queue); // disconnect: the worker drains and returns
        let completions: Vec<Completion> = done.iter().collect();
        (handle.join().expect("worker panicked"), completions)
    });
    let span = engine.now() - replay0;

    let mut latency = LatencyHistogram::new();
    let mut per_model: BTreeMap<String, usize> = BTreeMap::new();
    let mut failed = 0usize;
    for c in &completions {
        match &c.response {
            Ok(r) => {
                debug_assert!(r.items.len() <= flags.k);
                *per_model.entry(r.model.as_str().to_string()).or_insert(0) += 1;
            }
            Err(_) => failed += 1,
        }
        latency.record_secs((c.finished_at - c.submitted_at).max(0.0));
    }
    let summary = ReplaySummary {
        served: completions.len() - failed,
        failed,
        shed,
        span,
        latency,
        admission,
        per_model,
    };
    // Optional single-thread microkernel sweep, after the replay so it
    // never competes with the admission worker for the core. Always the
    // reference shape: a catalog too big for most last-level caches (a
    // 300 MiB L3 may hold it), so the scans stream Θ from memory as a
    // full exact scan does.
    let kernels = flags.kernels.then(|| {
        let cfg = KernelBenchConfig::reference();
        eprintln!(
            "microkernels: scanning {} items at f={} per kernel …",
            cfg.n_items, cfg.f
        );
        run_kernel_bench(&cfg)
    });

    // Refresh the serve_mem_bytes / serve_cache_* gauges from live state
    // so the report, the JSON summary, and --prom-out all agree.
    engine.refresh_memory_gauges();
    report(&engine, &flags, &summary, recall.as_ref(), kernels.as_ref());

    // Final aggregates into the JSONL stream, next to the engine's phase
    // spans: the replay's own latency/QPS/hit-ratio figures plus every
    // engine metric under its `/metrics` name (`serve_*`).
    if rec.enabled() {
        let t = engine.now();
        for c in summary.latency.to_counters("serve.latency", t) {
            rec.counter(c);
        }
        rec.counter(CounterSample::new(
            "serve.qps",
            t,
            summary.served as f64 / summary.span,
        ));
        rec.counter(CounterSample::new(
            "serve.cache_hit_ratio",
            t,
            engine.cache_stats().hit_ratio(),
        ));
        engine.obs().refresh_slo_gauges(t);
        for c in engine.obs().metrics().registry().to_counter_samples(t) {
            rec.counter(c);
        }
    }
    if let Some(path) = &flags.json {
        let json = json_summary(&engine, &flags, &summary, recall.as_ref(), kernels.as_ref());
        std::fs::write(path, json.to_json()).expect("failed to write JSON summary");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &flags.prom_out {
        let text = engine.obs().render_prometheus(engine.now());
        std::fs::write(path, text).expect("failed to write Prometheus exposition");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &flags.slow_trace {
        let trace = engine.obs().flight().exemplar_trace();
        std::fs::write(path, trace).expect("failed to write slow-request trace");
        eprintln!("wrote {path}");
    }
    if let Some(server) = obs_server {
        if flags.obs_linger_ms > 0 {
            eprintln!(
                "obs: lingering {} ms on http://{}/ for scrapes …",
                flags.obs_linger_ms,
                server.local_addr()
            );
            std::thread::sleep(Duration::from_millis(flags.obs_linger_ms));
        }
        server.shutdown();
    }
    sink.finish().expect("failed to write telemetry outputs");
}

fn report(
    engine: &ServeEngine,
    flags: &ServeFlags,
    s: &ReplaySummary,
    recall: Option<&RecallSummary>,
    kernels: Option<&KernelReport>,
) {
    let (p50, p95, p99) = s.latency.percentiles();
    let qps = s.served as f64 / s.span;
    let cache = engine.cache_stats();
    let header = format!(
        "{:<26} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "metric", "p50 ms", "p95 ms", "p99 ms", "mean ms", "max ms"
    );
    println!("{header}");
    println!("{}", rule(header.len()));
    println!(
        "{:<26} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
        "request latency",
        p50 * 1e3,
        p95 * 1e3,
        p99 * 1e3,
        s.latency.mean() * 1e3,
        s.latency.max() * 1e3
    );
    let (q50, q95, q99) = s.admission.queue_delay.percentiles();
    println!(
        "{:<26} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
        "queueing delay",
        q50 * 1e3,
        q95 * 1e3,
        q99 * 1e3,
        s.admission.queue_delay.mean() * 1e3,
        s.admission.queue_delay.max() * 1e3
    );
    println!();
    println!(
        "served {} requests in {} s wall — {:.0} QPS achieved (target {:.0}); {} shed, {} failed",
        s.served,
        fmt_s(s.span),
        qps,
        flags.qps,
        s.shed,
        s.failed
    );
    println!(
        "admission: {} batches (mean {:.1} req/batch; {} closed full, {} on an empty queue)",
        s.admission.batches,
        s.admission.mean_batch(),
        s.admission.closed_by_size,
        s.admission.closed_by_age
    );
    println!(
        "cache: {} hits / {} misses ({:.1}% hit ratio), {} / {} entries resident",
        cache.hits,
        cache.misses,
        cache.hit_ratio() * 100.0,
        cache.len,
        cache.capacity
    );
    let m = engine.obs().metrics();
    let endpoints: Vec<String> = Endpoint::ALL
        .iter()
        .filter_map(|e| {
            let h = m.endpoint(*e);
            let n = h.requests.get();
            (n > 0).then(|| {
                let (_, _, p99) = h.latency.snapshot().percentiles();
                format!("{} {} (p99 {:.3} ms)", e.name(), n, p99 * 1e3)
            })
        })
        .collect();
    println!("endpoints: {}", endpoints.join(", "));
    let mem = engine.memory_report();
    let parts: Vec<String> = mem
        .children()
        .iter()
        .map(|c| format!("{} {}", c.name(), human_bytes(c.total_bytes())))
        .collect();
    println!(
        "memory: {} resident ({})",
        human_bytes(mem.total_bytes()),
        parts.join(", ")
    );
    println!(
        "bandwidth: {} streamed over {} s of score time — {:.2} GB/s, {:.2} GFLOP/s effective",
        human_bytes(s.admission.work.bytes),
        fmt_s(s.admission.score_secs),
        s.admission.effective_gbps(),
        s.admission.effective_gflops(),
    );
    if let Some(k) = kernels {
        println!();
        print!("{}", k.render());
    }
    if let Some(r) = recall {
        let m = engine.obs().metrics();
        println!(
            "retrieval: approx (clusters {}, probe {}, {}) — recall@{} {:.3} over {} users; \
             {} scanned vs {} exact ({:.1}x reduction)",
            flags.clusters,
            flags.n_probe,
            if flags.quant_none {
                "fp32 candidates"
            } else {
                "int8 candidates + fp32 rescore"
            },
            r.k,
            r.recall,
            r.users,
            human_bytes(r.approx_bytes),
            human_bytes(r.exact_bytes),
            r.bytes_ratio()
        );
        println!(
            "retrieval counters: {} clusters probed, {} shortlist rows scanned, {} rescored",
            m.ann_probed.get(),
            m.ann_candidates.get(),
            m.ann_rescored.get()
        );
    }
    if s.per_model.len() > 1 {
        let total: usize = s.per_model.values().sum::<usize>().max(1);
        let arms: Vec<String> = s
            .per_model
            .iter()
            .map(|(m, n)| format!("{m} {} ({:.1}%)", n, *n as f64 / total as f64 * 100.0))
            .collect();
        let canary = engine
            .registry()
            .canary()
            .map(|p| format!(" — canary {} at {:.2}", p.candidate, p.fraction))
            .unwrap_or_default();
        println!("models: {}{}", arms.join(", "), canary);
    }
    if let Some(slo) = &s.admission.slo {
        let burns: Vec<String> = slo
            .burn_rates
            .iter()
            .map(|b| format!("{:.2}x/{:.0}s", b.burn, b.window_secs))
            .collect();
        println!(
            "SLO: target {:.1} ms, {:.1}% compliant ({} breached, {} shed of {}), \
             burn {} — {}",
            slo.target_secs * 1e3,
            slo.compliance * 100.0,
            slo.breached,
            slo.shed,
            slo.total,
            burns.join(", "),
            if slo.met() { "met" } else { "VIOLATED" }
        );
    }
    let default = engine.registry().default_model();
    let epoch = engine.registry().epoch(&default).unwrap_or(0);
    println!(
        "default model '{}' at epoch {} across {} shard{}",
        default,
        epoch,
        engine.registry().n_shards(),
        if engine.registry().n_shards() == 1 {
            ""
        } else {
            "s"
        },
    );
}

fn json_summary(
    engine: &ServeEngine,
    flags: &ServeFlags,
    s: &ReplaySummary,
    recall: Option<&RecallSummary>,
    kernels: Option<&KernelReport>,
) -> Value {
    let (p50, p95, p99) = s.latency.percentiles();
    let (q50, q95, q99) = s.admission.queue_delay.percentiles();
    let cache = engine.cache_stats();
    let mem = engine.memory_report();
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let slo = s.admission.slo.as_ref().map(|slo| {
        obj(vec![
            ("target_ms", Value::Num(slo.target_secs * 1e3)),
            ("error_budget", Value::Num(slo.error_budget)),
            ("compliance", Value::Num(slo.compliance)),
            ("breached", Value::Num(slo.breached as f64)),
            ("shed", Value::Num(slo.shed as f64)),
            ("met", Value::Bool(slo.met())),
        ])
    });
    let metrics = engine.obs().metrics();
    let endpoints = obj(Endpoint::ALL
        .iter()
        .map(|e| {
            let h = metrics.endpoint(*e);
            let snap = h.latency.snapshot();
            let (p50, p95, p99) = snap.percentiles();
            (
                e.name(),
                obj(vec![
                    ("requests", Value::Num(h.requests.get() as f64)),
                    ("p50_ms", Value::Num(p50 * 1e3)),
                    ("p95_ms", Value::Num(p95 * 1e3)),
                    ("p99_ms", Value::Num(p99 * 1e3)),
                    ("mean_ms", Value::Num(snap.mean() * 1e3)),
                ]),
            )
        })
        .collect());
    let models = Value::Array(
        engine
            .registry()
            .model_ids()
            .iter()
            .map(|id| {
                obj(vec![
                    ("name", Value::Str(id.as_str().to_string())),
                    (
                        "epoch",
                        Value::Num(engine.registry().epoch(id).unwrap_or(0) as f64),
                    ),
                    (
                        "served",
                        Value::Num(*s.per_model.get(id.as_str()).unwrap_or(&0) as f64),
                    ),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("schema_version", Value::Num(SCHEMA_VERSION)),
        ("bench", Value::Str("serve_bench".to_string())),
        ("shards", Value::Num(engine.registry().n_shards() as f64)),
        ("requests", Value::Num(flags.requests as f64)),
        ("served", Value::Num(s.served as f64)),
        ("failed", Value::Num(s.failed as f64)),
        ("shed", Value::Num(s.shed as f64)),
        ("open_loop", Value::Bool(flags.open_loop)),
        ("target_qps", Value::Num(flags.qps)),
        ("qps", Value::Num(s.served as f64 / s.span)),
        ("wall_s", Value::Num(s.span)),
        ("models", models),
        ("canary_fraction", Value::Num(flags.canary_fraction)),
        ("endpoint", Value::Str(flags.endpoint.name().to_string())),
        ("endpoints", endpoints),
        (
            "latency_ms",
            obj(vec![
                ("p50", Value::Num(p50 * 1e3)),
                ("p95", Value::Num(p95 * 1e3)),
                ("p99", Value::Num(p99 * 1e3)),
                ("mean", Value::Num(s.latency.mean() * 1e3)),
                ("max", Value::Num(s.latency.max() * 1e3)),
            ]),
        ),
        (
            "queue_delay_ms",
            obj(vec![
                ("p50", Value::Num(q50 * 1e3)),
                ("p95", Value::Num(q95 * 1e3)),
                ("p99", Value::Num(q99 * 1e3)),
            ]),
        ),
        (
            "admission",
            obj(vec![
                ("batches", Value::Num(s.admission.batches as f64)),
                ("mean_batch", Value::Num(s.admission.mean_batch())),
                (
                    "closed_by_size",
                    Value::Num(s.admission.closed_by_size as f64),
                ),
                (
                    "closed_by_age",
                    Value::Num(s.admission.closed_by_age as f64),
                ),
                ("rejected", Value::Num(s.admission.rejected as f64)),
                ("queue_depth", Value::Num(flags.queue_depth as f64)),
                ("max_batch", Value::Num(flags.batch as f64)),
            ]),
        ),
        (
            "cache",
            obj(vec![
                ("hit_ratio", Value::Num(cache.hit_ratio())),
                ("hits", Value::Num(cache.hits as f64)),
                ("misses", Value::Num(cache.misses as f64)),
            ]),
        ),
        (
            "memory",
            obj(vec![
                ("resident_bytes", Value::Num(mem.total_bytes() as f64)),
                ("tree", mem.to_value()),
            ]),
        ),
        (
            "bandwidth",
            obj(vec![
                ("scan_bytes", Value::Num(s.admission.work.bytes as f64)),
                ("score_flops", Value::Num(s.admission.work.flops as f64)),
                ("score_secs", Value::Num(s.admission.score_secs)),
                ("effective_gbps", Value::Num(s.admission.effective_gbps())),
                (
                    "effective_gflops",
                    Value::Num(s.admission.effective_gflops()),
                ),
            ]),
        ),
        (
            "kernels",
            kernels.map(|k| k.to_value()).unwrap_or(Value::Null),
        ),
        (
            "retrieval",
            obj(vec![
                (
                    "mode",
                    Value::Str(if flags.approx { "approx" } else { "exact" }.to_string()),
                ),
                ("n_probe", Value::Num(flags.n_probe as f64)),
                ("clusters", Value::Num(flags.clusters as f64)),
                (
                    "quant",
                    Value::Str(if flags.quant_none { "none" } else { "int8" }.to_string()),
                ),
            ]),
        ),
        (
            "recall",
            recall
                .map(|r| {
                    obj(vec![
                        ("k", Value::Num(r.k as f64)),
                        ("users", Value::Num(r.users as f64)),
                        ("recall_at_k", Value::Num(r.recall)),
                        ("exact_scan_bytes", Value::Num(r.exact_bytes as f64)),
                        ("approx_scan_bytes", Value::Num(r.approx_bytes as f64)),
                        ("bytes_ratio", Value::Num(r.bytes_ratio())),
                    ])
                })
                .unwrap_or(Value::Null),
        ),
        ("k", Value::Num(flags.k as f64)),
        ("slo", slo.unwrap_or(Value::Null)),
    ])
}
