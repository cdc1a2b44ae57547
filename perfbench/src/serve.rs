//! The three serving workloads: set-up, the fixed-rate and saturation
//! phases, the correctness checks, and (traced) the per-layer probes.
//!
//! Every serving workload runs a 2-shard engine behind the admission
//! queue. The load generator is this process's main thread; the
//! publisher of `serve-publish` is the only other load thread.

use crate::ladder;
use crate::report::{peak_rss_mb, CpuMark, Outcome, Workload};
use crate::stats::{median, quantile_sorted, steady_window, supported_tail, BatchStamp};
use crate::traffic::{fill_sym, mix, pace_until, zipf_weights, Rng};
use cumf_datasets::{RequestSampler, SampledRequest};
use cumf_numeric::dense::DenseMatrix;
use cumf_serve::{
    admission_queue, overlap_at_k, top_k_one, AdmissionConfig, AdmissionReport, AnnParams,
    CentroidIndex, Completion, ModelSnapshot, QuantMode, QuantizedFactors, Query, Request,
    Retrieval, ScoreConfig, ScoredItem, ServeConfig, ServeEngine, ShardedSnapshot, StageBreakdown,
    SubmitError, UserRef,
};
use cumf_telemetry::{Event, FootprintReport, MemoryRecorder, PhaseSpan, Recorder, NOOP};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

/// Latent dimension of every serving catalog.
pub const F: usize = 100;
/// Results per request.
pub const K: usize = 10;
/// Item-range shards of every serving engine.
pub const SHARDS: usize = 2;
/// Result-cache entries.
pub const CACHE: usize = 4096;
/// Zipf skew of the popularity-weighted workloads.
pub const ZIPF_S: f64 = 1.0;
/// Centroids of the `serve-publish` index (each shard clusters its half
/// of the catalog into half as many).
pub const CLUSTERS: usize = 64;
/// Clusters planted in the `serve-publish` catalog.
pub const PLANTED: usize = 16;
/// Clusters probed per shard per request on `serve-publish`.
pub const N_PROBE: usize = 6;
/// Each workload is set up at least `SETUP_MIN` and at most `SETUP_MAX`
/// times, until `SETUP_SECS` have passed; `setup_s` is the median.
pub const SETUP_MIN: usize = 3;
pub const SETUP_MAX: usize = 9;
pub const SETUP_SECS: f64 = 1.5;

/// Whether another set-up should run after `done` of them took `total`.
pub fn more_setups(done: usize, total: f64) -> bool {
    done < SETUP_MIN || (done < SETUP_MAX && total < SETUP_SECS)
}
/// Share of the saturation phase treated as ramp-up.
pub const SAT_WARMUP: f64 = 0.2;
/// Floor of the approximate path's recall@10 (the approx CI gate's).
pub const RECALL_FLOOR: f64 = 0.9;
/// Most catalog rows the traced run builds a centroid index and an int8
/// copy of.
pub const ANN_ROWS: usize = 1 << 15;

/// Shape and traffic of one serving workload.
pub struct ServeSpec {
    pub workload: Workload,
    pub items: usize,
    pub users: usize,
    /// Zipf(`ZIPF_S`) popularity; uniform otherwise.
    pub zipf: bool,
    /// Share of requests sent as cold-start fold-ins.
    pub cold_frac: f64,
    /// Two-stage int8 retrieval over a planted-cluster catalog.
    pub approx: bool,
    /// Offered rate of the fixed-rate phase, requests/s.
    pub rate: f64,
    /// Latency limit of `slo_attain`, ms.
    pub limit_ms: f64,
    /// Requests kept outstanding by the closed loop.
    pub window: usize,
    /// Seconds between publishes of a perturbed epoch.
    pub publish_every: Option<f64>,
    /// Served rankings compared bit for bit with the exact scorer.
    pub check_sample: usize,
}

pub const SERVE_HOT: ServeSpec = ServeSpec {
    workload: Workload::ServeHot,
    items: 1682,
    users: 1 << 17,
    zipf: true,
    cold_frac: 0.02,
    approx: false,
    rate: 3000.0,
    limit_ms: 50.0,
    window: 256,
    publish_every: None,
    check_sample: 256,
};

pub const SERVE_SCAN: ServeSpec = ServeSpec {
    workload: Workload::ServeScan,
    items: 1 << 19,
    users: 1 << 17,
    zipf: false,
    cold_frac: 0.0,
    approx: false,
    rate: 10.0,
    limit_ms: 250.0,
    window: 32,
    publish_every: None,
    check_sample: 16,
};

pub const SERVE_PUBLISH: ServeSpec = ServeSpec {
    workload: Workload::ServePublish,
    items: 1 << 15,
    users: 1 << 16,
    zipf: true,
    cold_frac: 0.0,
    approx: true,
    rate: 500.0,
    limit_ms: 50.0,
    window: 256,
    publish_every: Some(2.5),
    check_sample: 0,
};

impl ServeSpec {
    fn score_config(&self) -> ScoreConfig {
        ScoreConfig {
            retrieval: if self.approx {
                Retrieval::Approx {
                    n_probe: N_PROBE,
                    quant: QuantMode::Int8,
                }
            } else {
                Retrieval::Exact
            },
            ..ScoreConfig::default()
        }
    }
}

/// User `u`'s factor row, regenerated from the seed on demand.
pub fn user_row(seed: u64, u: usize) -> Vec<f32> {
    let mut row = vec![0.0; F];
    fill_sym(&mut row, mix(seed ^ 0x05E4_0000_0000) ^ u as u64, 0.3);
    row
}

/// Where a serving model's factors come from: synthesized from the seed
/// (the serve-* workloads), or the model `train-als` just trained.
#[derive(Clone, Copy)]
pub struct Factors<'a> {
    pub seed: u64,
    trained: Option<(&'a DenseMatrix, &'a DenseMatrix)>,
}

impl<'a> Factors<'a> {
    pub fn seeded(seed: u64) -> Factors<'static> {
        Factors {
            seed,
            trained: None,
        }
    }

    pub fn trained(seed: u64, x: &'a DenseMatrix, theta: &'a DenseMatrix) -> Factors<'a> {
        Factors {
            seed,
            trained: Some((x, theta)),
        }
    }

    /// User `u`'s factor row.
    pub fn user(&self, u: usize) -> Vec<f32> {
        match self.trained {
            Some((x, _)) => x.row(u).to_vec(),
            None => user_row(self.seed, u),
        }
    }

    fn users(&self, spec: &ServeSpec) -> DenseMatrix {
        match self.trained {
            Some((x, _)) => x.clone(),
            None => {
                let mut x = DenseMatrix::zeros(spec.users, F);
                for u in 0..spec.users {
                    x.row_mut(u).copy_from_slice(&user_row(self.seed, u));
                }
                x
            }
        }
    }

    fn items(&self, spec: &ServeSpec) -> DenseMatrix {
        match self.trained {
            Some((_, theta)) => theta.clone(),
            None => catalog(spec, self.seed),
        }
    }
}

/// The serving workload `train-als` runs in its traced run, on the
/// model it trained: Zipf users over the trained catalog, exact FP32.
pub fn trained_spec(users: usize, items: usize) -> ServeSpec {
    ServeSpec {
        workload: Workload::TrainAls,
        items,
        users,
        check_sample: 256,
        ..SERVE_HOT
    }
}

/// Item factors: uniform noise, or (approx workloads) points scattered
/// around `PLANTED` centres so the centroid index has structure
/// to find.
fn catalog(spec: &ServeSpec, seed: u64) -> DenseMatrix {
    let mut theta = DenseMatrix::zeros(spec.items, F);
    fill_sym(theta.as_mut_slice(), seed ^ 0x17E3, 0.3);
    if spec.approx {
        let mut centres = vec![0.0f32; PLANTED * F];
        fill_sym(&mut centres, seed ^ 0xCE47, 1.0);
        let mut rng = Rng::new(seed ^ 0xA551);
        for v in 0..spec.items {
            let c = rng.below(PLANTED);
            for (x, m) in theta
                .row_mut(v)
                .iter_mut()
                .zip(&centres[c * F..(c + 1) * F])
            {
                *x += m;
            }
        }
    }
    theta
}

fn build_engine(spec: &ServeSpec, factors: &Factors) -> ServeEngine {
    let theta = factors.items(spec);
    let x = factors.users(spec);
    let cfg = ServeConfig::default()
        .with_k(K)
        .with_shards(SHARDS)
        .with_cache_capacity(CACHE)
        .with_score(spec.score_config())
        .with_ann(AnnParams {
            k_clusters: CLUSTERS,
            ..AnnParams::default()
        });
    ServeEngine::builder()
        .config(cfg)
        .model("default", x, ModelSnapshot::new(0, theta, vec![]))
        .build()
        .expect("engine builds from synthesized factors")
}

/// Deterministic request stream: popularity-weighted users, Poisson
/// arrivals, every `1/cold_frac`-th request a cold fold-in carrying a
/// seeded rating history.
pub struct Traffic {
    sampler: RequestSampler,
    seed: u64,
    n_items: usize,
    cold_every: u64,
    next_id: u64,
}

impl Traffic {
    fn new(spec: &ServeSpec, seed: u64) -> Traffic {
        let weights = if spec.zipf {
            zipf_weights(spec.users, ZIPF_S, seed)
        } else {
            vec![1.0; spec.users]
        };
        Traffic {
            sampler: RequestSampler::from_weights(weights, seed ^ 0x7AFF),
            seed,
            n_items: spec.items,
            cold_every: if spec.cold_frac > 0.0 {
                (1.0 / spec.cold_frac).round() as u64
            } else {
                u64::MAX
            },
            next_id: 0,
        }
    }

    /// Whether request `id` is a cold fold-in (every `cold_every`-th).
    fn is_cold(&self, id: u64) -> bool {
        self.cold_every != u64::MAX && id % self.cold_every == self.cold_every - 1
    }

    /// Request `id` for `user`: a known-user top-k, or a cold fold-in
    /// with a seeded history.
    pub fn request(&self, id: u64, user: u32) -> Request {
        if self.is_cold(id) {
            let mut rng = Rng::new(self.seed ^ mix(id));
            let history = (0..20)
                .map(|_| {
                    (
                        rng.below(self.n_items) as u32,
                        1.0 + 4.0 * rng.unit() as f32,
                    )
                })
                .collect();
            Request::cold(id, history)
        } else {
            Request::known(id, user)
        }
    }

    /// The next `count` users with Poisson arrival offsets at `rate`, and
    /// the id of the first.
    fn open_loop(&mut self, count: usize, rate: f64) -> (u64, Vec<SampledRequest>) {
        let first = self.next_id;
        self.next_id += count as u64;
        (first, self.sampler.sample(count, rate))
    }

    fn next(&mut self) -> Request {
        let user = self.sampler.next_user();
        self.next_id += 1;
        self.request(self.next_id - 1, user)
    }
}

/// One request of the fixed-rate phase as the generator recorded it.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    pub id: u64,
    pub submitted: f64,
    pub admitted: f64,
    pub finished: f64,
    pub batch: usize,
    pub ok: bool,
}

/// Per-completion records of a phase, folded in as completions arrive
/// so the generator's bookkeeping stays small beside the engine whose
/// memory `peak_rss_mb` reports.
#[derive(Default)]
pub struct Records {
    pub ok: usize,
    pub errors: usize,
    /// Per-request records (fixed-rate phase only).
    pub served: Vec<Served>,
    /// Per-request stage breakdowns (traced fixed-rate phase only).
    pub stages: Vec<StageBreakdown>,
    pub batches: Vec<BatchStamp>,
    /// Every model epoch a response came from.
    pub epochs: BTreeSet<u64>,
    /// Responses kept for the exact-ranking check: (id, epoch, items).
    pub kept: Vec<(u64, u64, Vec<ScoredItem>)>,
}

/// What one phase saw.
pub struct Phase {
    pub sent: usize,
    pub shed: usize,
    pub rec: Records,
    /// The fixed-rate phase's users by request id, from `first_id`.
    pub first_id: u64,
    pub users: Vec<u32>,
    /// Generator lateness per send, seconds (fixed-rate phase only).
    pub lateness: Vec<f64>,
    pub report: AdmissionReport,
    /// Phase bounds on the engine clock.
    pub start: f64,
    pub stop: f64,
    /// CPU time the whole process ran during the phase, seconds (see
    /// [`CpuMark::ran_until`]).
    pub cpu: f64,
}

/// Folds completions into a [`Phase`].
struct Sink {
    rec: Records,
    detailed: bool,
    traced: bool,
    keep_every: u64,
}

impl Sink {
    fn new(detailed: bool, traced: bool, keep_every: u64) -> Sink {
        Sink {
            rec: Records::default(),
            detailed,
            traced,
            keep_every: keep_every.max(1),
        }
    }

    fn absorb(&mut self, c: Completion) {
        let p = &mut self.rec;
        // The worker sends a batch's completions back to back.
        if p.batches.last().map(|b| b.admitted.to_bits()) != Some(c.admitted_at.to_bits()) {
            p.batches.push(BatchStamp {
                admitted: c.admitted_at,
                finished: c.finished_at,
                size: c.batch_size,
            });
        }
        let id = c.span.request_id;
        let ok = c.response.is_ok();
        match c.response {
            Ok(r) => {
                p.ok += 1;
                p.epochs.insert(r.epoch);
                if self.detailed && id.is_multiple_of(self.keep_every) {
                    p.kept.push((id, r.epoch, r.items));
                }
            }
            Err(_) => p.errors += 1,
        }
        if self.detailed {
            p.served.push(Served {
                id,
                submitted: c.submitted_at,
                admitted: c.admitted_at,
                finished: c.finished_at,
                batch: c.batch_size,
                ok,
            });
            if self.traced {
                p.stages.push(c.span.stages);
            }
        }
    }
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.rec
            .served
            .iter()
            .map(|s| s.finished - s.submitted)
            .collect()
    }

    /// The known user of request `id` of this phase, if it was one.
    pub fn user(&self, traffic: &Traffic, id: u64) -> Option<u32> {
        let user = *self.users.get(id.checked_sub(self.first_id)? as usize)?;
        (!traffic.is_cold(id)).then_some(user)
    }

    fn summary(&self, name: &str) -> String {
        format!(
            "{name}: sent {}, succeeded {}, failed {}, shed {}",
            self.sent, self.rec.ok, self.rec.errors, self.shed
        )
    }
}

/// Open loop at the workload's fixed rate: each request is sent at its
/// scheduled time (or shed if the queue is full) and timed from then.
fn fixed_phase(
    engine: &ServeEngine,
    spec: &ServeSpec,
    traffic: &mut Traffic,
    seconds: f64,
    rec: &dyn Recorder,
    gen_spans: Option<&Mutex<Vec<PhaseSpan>>>,
) -> Phase {
    let count = ((spec.rate * seconds).round() as usize).max(1);
    let (first_id, stream) = traffic.open_loop(count, spec.rate);
    let keep_every = (count / (4 * spec.check_sample.max(1))).max(1) as u64;
    let mut sink = Sink::new(true, gen_spans.is_some(), keep_every);
    let (queue, worker, done) = admission_queue(AdmissionConfig::default());
    let queue = queue.with_obs(engine.obs_arc());
    let now = || engine.now();
    let mut lateness = Vec::with_capacity(count);
    let mut shed = 0usize;
    let cpu0 = CpuMark::process();
    let start = now() + 0.005;
    let report = std::thread::scope(|s| {
        let handle = s.spawn(|| worker.run(engine, rec));
        for (i, sampled) in stream.iter().enumerate() {
            let due = start + sampled.arrival;
            let req = traffic.request(first_id + i as u64, sampled.user);
            let late = pace_until(now, due, || {
                while let Ok(c) = done.try_recv() {
                    sink.absorb(c);
                }
            });
            lateness.push(late);
            match queue.try_submit(req, due) {
                Ok(()) => {}
                Err(SubmitError::Full(_)) => shed += 1,
                Err(SubmitError::Closed(_)) => panic!("admission worker exited early"),
            }
            if let Some(spans) = gen_spans.filter(|_| i < MAX_GEN_SPANS) {
                let submitted = now();
                let mut spans = spans.lock().expect("span buffer lock");
                spans.push(PhaseSpan::new("gen.late", due, due + late));
                spans.push(PhaseSpan::new(
                    "gen.submit",
                    due + late,
                    submitted.max(due + late),
                ));
            }
        }
        drop(queue);
        for c in done.iter() {
            sink.absorb(c);
        }
        handle.join().expect("admission worker panicked")
    });
    Phase {
        sent: count,
        shed,
        first_id,
        users: stream.iter().map(|s| s.user).collect(),
        lateness,
        report,
        start,
        stop: now(),
        cpu: cpu0.ran_until(CpuMark::process()),
        rec: sink.rec,
    }
}

/// Closed loop: keep `spec.window` requests outstanding for `seconds`,
/// refilling one for each completion, then drain.
fn saturation_phase(
    engine: &ServeEngine,
    spec: &ServeSpec,
    traffic: &mut Traffic,
    seconds: f64,
    rec: &dyn Recorder,
) -> Phase {
    let (queue, worker, done) = admission_queue(AdmissionConfig::default());
    let queue = queue.with_obs(engine.obs_arc());
    let mut sink = Sink::new(false, false, 1);
    let mut sent = 0usize;
    let cpu0 = CpuMark::process();
    let start = engine.now();
    let stop = start + seconds;
    let report = std::thread::scope(|s| {
        let handle = s.spawn(|| worker.run(engine, rec));
        let mut submit = || {
            sent += 1;
            queue
                .submit(traffic.next(), engine.now())
                .expect("admission worker exited early");
        };
        for _ in 0..spec.window {
            submit();
        }
        let mut outstanding = spec.window;
        while outstanding > 0 {
            sink.absorb(done.recv().expect("admission worker exited early"));
            outstanding -= 1;
            if engine.now() < stop {
                submit();
                outstanding += 1;
            }
        }
        drop(queue);
        handle.join().expect("admission worker panicked")
    });
    Phase {
        sent,
        shed: 0,
        rec: sink.rec,
        first_id: 0,
        users: Vec::new(),
        lateness: Vec::new(),
        report,
        start,
        stop,
        cpu: cpu0.ran_until(CpuMark::process()),
    }
}

/// Publishes perturbed epochs of the base catalog on a fixed schedule
/// while a phase runs.
struct Publisher<'a> {
    engine: &'a ServeEngine,
    base: DenseMatrix,
    seed: u64,
    every: f64,
}

/// One publish: the epoch it made, its wall time and its CPU time.
struct Published {
    epoch: u64,
    secs: f64,
    cpu: f64,
}

impl Publisher<'_> {
    /// Publish at `start + every·(j + ¼)` for every such time before
    /// `stop`; a late publish starts as soon as the previous one returns.
    fn run(&self, start: f64, stop: f64) -> Vec<Published> {
        let mut done = Vec::new();
        let id = self.engine.registry().default_model();
        loop {
            let due = start + self.every * (done.len() as f64 + 0.25);
            if due >= stop {
                return done;
            }
            pace_until(|| self.engine.now(), due, || {});
            let epoch = self.engine.registry().epoch(&id).expect("default model") + 1;
            let mut theta = self.base.clone();
            let mut noise = vec![0.0f32; theta.as_slice().len()];
            fill_sym(&mut noise, self.seed ^ mix(epoch), 0.02);
            for (t, n) in theta.as_mut_slice().iter_mut().zip(&noise) {
                *t += n;
            }
            let (t0, cpu0) = (Instant::now(), CpuMark::thread());
            let epoch = self
                .engine
                .registry()
                .publish(&id, ModelSnapshot::new(epoch, theta, vec![]))
                .expect("publish a perturbed epoch");
            done.push(Published {
                epoch,
                secs: t0.elapsed().as_secs_f64(),
                cpu: cpu0.ran_until(CpuMark::thread()),
            });
        }
    }
}

/// Run `phase` with the publisher (if any) publishing beside it for
/// `seconds`.
fn alongside<T: Send>(
    publisher: Option<&Publisher>,
    seconds: f64,
    phase: impl FnOnce() -> T,
) -> (T, Vec<Published>) {
    match publisher {
        None => (phase(), Vec::new()),
        Some(p) => std::thread::scope(|s| {
            let start = p.engine.now();
            let h = s.spawn(move || p.run(start, start + seconds));
            let out = phase();
            (out, h.join().expect("publisher panicked"))
        }),
    }
}

/// Total bytes of every node named `name` in `tree`.
pub fn subtree_bytes(tree: &FootprintReport, name: &str) -> u64 {
    if tree.name() == name {
        return tree.total_bytes();
    }
    tree.children().iter().map(|c| subtree_bytes(c, name)).sum()
}

/// Requests whose generator spans a traced run keeps.
const MAX_GEN_SPANS: usize = 10_000;

const MIB: f64 = 1024.0 * 1024.0;

/// Run one serving workload; `seconds` is split evenly between the
/// fixed-rate and saturation phases.
pub fn run(
    spec: &ServeSpec,
    factors: Factors,
    seconds: f64,
    traced: bool,
    process: Instant,
) -> Outcome {
    let seed = factors.seed;
    let mut out = Outcome::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut engine = None;
    while more_setups(setups.len(), setups.iter().sum()) {
        drop(engine.take());
        let t0 = if setups.is_empty() {
            process
        } else {
            Instant::now()
        };
        engine = Some(build_engine(spec, &factors));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let engine = engine.expect("at least one set-up");
    eprintln!(
        "{}: {} items x f={F}, {} users, {SHARDS} shards, set-up {:.3?} s",
        spec.workload.name(),
        spec.items,
        spec.users,
        setups
    );
    let publisher = spec.publish_every.map(|every| Publisher {
        engine: &engine,
        base: engine
            .registry()
            .snapshot(&engine.registry().default_model())
            .expect("default model")
            .full()
            .item_factors()
            .clone(),
        seed,
        every,
    });

    let mem = MemoryRecorder::new();
    let rec: &dyn Recorder = if traced { &mem } else { &NOOP };
    let gen_spans = Mutex::new(Vec::new());
    let mut traffic = Traffic::new(spec, seed);
    let half = seconds / 2.0;
    let publisher = publisher.as_ref();
    let (fixed, fixed_publishes) = alongside(publisher, half, || {
        let spans = traced.then_some(&gen_spans);
        fixed_phase(&engine, spec, &mut traffic, half, rec, spans)
    });
    let mut publishes = fixed_publishes;
    let untraced_sat = traced.then(|| {
        let (phase, more) = alongside(publisher, half, || {
            saturation_phase(&engine, spec, &mut traffic, half, &NOOP)
        });
        publishes.extend(more);
        phase
    });
    let n_fixed_publishes = publishes.len();
    let (sat, more) = alongside(publisher, half, || {
        saturation_phase(&engine, spec, &mut traffic, half, rec)
    });
    publishes.extend(more);

    eprintln!("{}", fixed.summary("fixed-rate phase"));
    eprintln!("{}", sat.summary("saturation phase"));
    out.attempted = (fixed.sent + sat.sent) as u64;
    out.failed = (fixed.shed + fixed.rec.errors + sat.rec.errors) as u64;

    // ── end-to-end numbers ──────────────────────────────────────────────
    let served = &fixed.rec.served;
    let mut lat = fixed.latencies();
    lat.sort_by(f64::total_cmp);
    let p50 = quantile_sorted(&lat, 0.5);
    let limit = spec.limit_ms / 1e3;
    let within = served
        .iter()
        .filter(|s| s.ok && s.finished - s.submitted <= limit)
        .count();
    let slo = within as f64 / fixed.sent as f64;
    let sat_qps = sat_rate(&sat);
    let waits: Vec<f64> = served.iter().map(|s| s.admitted - s.submitted).collect();
    eprintln!(
        "fixed-rate batches: median size {:.1}, service {:.3} ms, queue wait {:.3} ms",
        median(&served.iter().map(|s| s.batch as f64).collect::<Vec<_>>()),
        median(
            &served
                .iter()
                .map(|s| s.finished - s.admitted)
                .collect::<Vec<_>>()
        ) * 1e3,
        median(&waits) * 1e3,
    );
    let mut late = fixed.lateness.clone();
    late.sort_by(f64::total_cmp);
    eprintln!(
        "fixed rate {} req/s: latency p50 {:.3} ms, {} ({} samples); \
         generator lateness p50 {:.3} ms, {}; within {} ms: {:.4}",
        spec.rate,
        p50 * 1e3,
        fmt_tail(supported_tail(&lat)),
        lat.len(),
        quantile_sorted(&late, 0.5) * 1e3,
        fmt_tail(supported_tail(&late)),
        spec.limit_ms,
        slo
    );
    eprintln!(
        "saturation (window {}): {:.1} completions/s over {} batches; cache hit ratio {:.3}",
        spec.window,
        sat_qps,
        sat.rec.batches.len(),
        engine.cache_stats().hit_ratio()
    );
    let sat_cpu = sat.cpu / (sat.rec.ok + sat.rec.errors).max(1) as f64;
    eprintln!(
        "process CPU per request: saturation {:.4} ms, fixed rate {:.4} ms (the pacer yields)",
        sat_cpu * 1e3,
        fixed.cpu / fixed.sent.max(1) as f64 * 1e3
    );

    // ── checks ──────────────────────────────────────────────────────────
    let published: BTreeSet<u64> = std::iter::once(0)
        .chain(publishes.iter().map(|p| p.epoch))
        .collect();
    let mut phases = vec![&fixed, &sat];
    phases.extend(untraced_sat.as_ref());
    let stray = phases
        .iter()
        .flat_map(|p| &p.rec.epochs)
        .filter(|e| !published.contains(e))
        .count();
    out.check(
        stray == 0,
        format!(
            "every response's epoch is one of the {} published",
            published.len()
        ),
    );
    let errors: usize = phases.iter().map(|p| p.rec.errors).sum();
    out.check(errors == 0, format!("no request failed ({errors} did)"));
    let quality = if spec.approx {
        let r = measure_recall(&engine, &factors);
        out.check(
            r >= RECALL_FLOOR,
            format!("recall@{K} {r:.4} >= {RECALL_FLOOR}"),
        );
        r
    } else {
        check_exact(&engine, &fixed, &traffic, spec, &factors, &mut out)
    };

    if !traced {
        out.put("setup_s", median(&setups));
        // On a workload that publishes, the publish is the timed
        // operation: its reads share the cores with the publisher.
        let op = if spec.publish_every.is_some() {
            let secs: Vec<f64> = publishes.iter().map(|p| p.secs).collect();
            let cpu: Vec<f64> = publishes.iter().map(|p| p.cpu).collect();
            eprintln!(
                "publish wall times: fixed-rate phase {:.3?} s, saturation {:.3?} s; CPU {cpu:.3?} s",
                &secs[..n_fixed_publishes],
                &secs[n_fixed_publishes..]
            );
            median(&cpu)
        } else {
            sat_cpu
        };
        out.put("op_cpu_ms", op * 1e3);
        out.put("quality", quality);
        out.put("peak_rss_mb", peak_rss_mb());
        return out;
    }

    // ── traced run: per-layer numbers ───────────────────────────────────
    let stage = |f: fn(&StageBreakdown) -> f64| {
        median(&fixed.rec.stages.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    out.put("engine.stage_cache_ms", stage(|s| s.cache));
    out.put("engine.stage_foldin_ms", stage(|s| s.foldin));
    out.put("engine.stage_score_ms", stage(|s| s.score));
    out.put("engine.stage_merge_ms", stage(|s| s.merge));
    out.put("engine.stage_respond_ms", stage(|s| s.respond));
    out.put("engine.errors", errors as f64);
    out.put("admission.queue_wait_p50_ms", median(&waits) * 1e3);
    let r = &fixed.report;
    out.put("admission.mean_batch", r.mean_batch());
    out.put(
        "admission.age_close_share",
        r.closed_by_age as f64 / r.batches.max(1) as f64,
    );
    out.put(
        "admission.shed_share",
        fixed.shed as f64 / fixed.sent as f64,
    );
    out.put("cache.hit_ratio", engine.cache_stats().hit_ratio());
    out.put("gen.lateness_p50_ms", quantile_sorted(&late, 0.5) * 1e3);
    out.put("gen.lateness_p99_ms", quantile_sorted(&late, 0.99) * 1e3);
    let untraced = untraced_sat.as_ref().map(sat_rate).unwrap_or(f64::NAN);
    out.put("obs.trace_overhead", untraced / sat_qps);
    eprintln!("tracing overhead: untraced {untraced:.1}/s vs traced {sat_qps:.1}/s saturation");
    out.put(
        "registry.resident_mb",
        engine.memory_report().total_bytes() as f64 / MIB,
    );
    builds(&engine, &mut out);
    if spec.workload != Workload::TrainAls {
        let id = engine.registry().default_model();
        let snap = engine.registry().snapshot(&id).expect("default model");
        crate::train::catalog_sweep(snap.full().item_factors(), &factors, &mut out);
    }

    let mut spans = gen_spans.into_inner().expect("span buffer");
    let ladder = ladder::run(&engine, &fixed, &traffic, &factors, &mut spans);
    ladder.report(&mut out);

    let mut events = mem.take_events();
    events.extend(spans.into_iter().map(|span| Event::Phase { span }));
    crate::write_trace(spec.workload.name(), seed, &events);
    out
}

/// Closed-loop completions per second over the steady window.
fn sat_rate(phase: &Phase) -> f64 {
    let (n, secs) = steady_window(&phase.rec.batches, phase.start, phase.stop, SAT_WARMUP);
    n as f64 / secs
}

fn fmt_tail(t: Option<crate::stats::Tail>) -> String {
    match t {
        Some(t) => format!("p{} {:.3} ms ({} beyond)", t.pct, t.value * 1e3, t.beyond),
        None => "no supported tail".to_string(),
    }
}

/// Seeded sample of the served known-user rankings kept during the
/// fixed-rate phase, each compared bit for bit with `top_k_one` on the
/// served epoch's unsharded snapshot. Returns the share that matched.
fn check_exact(
    engine: &ServeEngine,
    phase: &Phase,
    traffic: &Traffic,
    spec: &ServeSpec,
    factors: &Factors,
    out: &mut Outcome,
) -> f64 {
    let id = engine.registry().default_model();
    let snap = engine.registry().snapshot(&id).expect("default model");
    let kept: Vec<(u32, &[ScoredItem])> = phase
        .rec
        .kept
        .iter()
        .filter(|(_, epoch, _)| *epoch == snap.epoch())
        .filter_map(|(id, _, items)| phase.user(traffic, *id).map(|u| (u, items.as_slice())))
        .collect();
    let mut rng = Rng::new(factors.seed ^ 0xC4EC);
    let sample = spec.check_sample.min(kept.len());
    let cfg = ScoreConfig::default();
    let mut mismatched = 0;
    for _ in 0..sample {
        let (u, items) = kept[rng.below(kept.len())];
        let exact = top_k_one(snap.full(), &factors.user(u as usize), K, &cfg);
        let same = exact.len() == items.len()
            && exact
                .iter()
                .zip(items)
                .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits());
        mismatched += usize::from(!same);
    }
    out.check(
        sample > 0 && mismatched == 0,
        format!("{sample} sampled rankings bit-identical to exact top_k_one ({mismatched} differ)"),
    );
    (sample - mismatched) as f64 / sample.max(1) as f64
}

/// Mean overlap@10 of served approximate rankings against the exact
/// scorer on the same epoch, over a fixed seeded sample of users.
fn measure_recall(engine: &ServeEngine, factors: &Factors) -> f64 {
    let id = engine.registry().default_model();
    let snap = engine.registry().snapshot(&id).expect("default model");
    let users = engine.registry().n_users(&id).expect("default model");
    let mut rng = Rng::new(factors.seed ^ 0x4ECA);
    let requests: Vec<Request> = (0..256)
        .map(|i| Request::known(1 << 40 | i, rng.below(users) as u32))
        .collect();
    let served = engine.recommend_batch(&requests, &NOOP);
    let exact_cfg = ScoreConfig::default();
    let mut total = 0.0;
    for (req, resp) in requests.iter().zip(served) {
        let resp = resp.expect("recall sample is served");
        assert_eq!(
            resp.epoch,
            snap.epoch(),
            "no publish runs during the recall sample"
        );
        let Query::User(UserRef::Known(u)) = req.query else {
            unreachable!("the recall sample is known users")
        };
        let exact = top_k_one(snap.full(), &factors.user(u as usize), K, &exact_cfg);
        total += overlap_at_k(&exact, &resp.items, K);
    }
    total / requests.len() as f64
}

/// Time the publish-side builds on the live catalog: sharding, the
/// centroid index and the int8 copy. The index and int8 copy are built
/// on at most the first `ANN_ROWS` items (all of them except on
/// serve-scan, where k-means over 2^19 items would take most of a run).
fn builds(engine: &ServeEngine, out: &mut Outcome) {
    let id = engine.registry().default_model();
    let snap = engine.registry().snapshot(&id).expect("default model");
    let theta = snap.full().item_factors();
    let rows = theta.rows().min(ANN_ROWS);
    let head = DenseMatrix::from_vec(rows, F, theta.as_slice()[..rows * F].to_vec());
    let params = AnnParams {
        k_clusters: CLUSTERS,
        ..AnnParams::default()
    };
    let t0 = Instant::now();
    std::hint::black_box(CentroidIndex::build(&head, params));
    out.put("ann.index_build_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    std::hint::black_box(QuantizedFactors::build(&head));
    out.put("ann.quant_build_s", t0.elapsed().as_secs_f64());
    let mut fresh = ModelSnapshot::new(snap.epoch(), theta.clone(), vec![]);
    if snap.full().ann().is_some() {
        fresh = fresh.with_ann(params).with_int8();
    }
    let t0 = Instant::now();
    std::hint::black_box(ShardedSnapshot::build(fresh, SHARDS));
    out.put("shard.build_s", t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` states each serving workload's offered rate and
    /// latency limit in its `why`; they must be the constants used here.
    #[test]
    fn benchmark_json_states_rates_and_limits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for spec in [&SERVE_HOT, &SERVE_SCAN, &SERVE_PUBLISH] {
            let why = doc
                .get("workloads")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .find(|w| w.get("name").and_then(Value::as_str) == Some(spec.workload.name()))
                .and_then(|w| w.get("why").and_then(Value::as_str))
                .unwrap();
            let stated = format!("{} req/s, limit {} ms", spec.rate, spec.limit_ms);
            assert!(
                why.contains(&stated),
                "{}: `{why}` lacks `{stated}`",
                spec.workload.name()
            );
        }
    }

    #[test]
    fn traffic_is_deterministic_per_seed() {
        let users = |seed| {
            let mut t = Traffic::new(&SERVE_HOT, seed);
            (0..200)
                .map(|_| match t.next().query {
                    cumf_serve::Query::User(cumf_serve::UserRef::Known(u)) => u as i64,
                    _ => -1,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(users(5), users(5));
        assert_ne!(users(5), users(6));
        assert_eq!(users(5).iter().filter(|&&u| u < 0).count(), 4, "2% cold");
    }

    #[test]
    fn user_rows_regenerate_exactly() {
        assert_eq!(user_row(9, 123), user_row(9, 123));
        assert_ne!(user_row(9, 123), user_row(9, 124));
        assert_eq!(user_row(9, 0).len(), F);
    }
}
