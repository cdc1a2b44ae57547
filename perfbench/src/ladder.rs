//! The per-layer ladder: a seeded sample of a workload's own fixed-rate
//! batches replayed one layer at a time, each rung calling one layer's
//! public entry point from here:
//!
//! ```text
//! kernel    score_tile over the whole FP32 catalog, 1 thread
//! scorer    top_k_batch on the unsharded snapshot        (+ heap, blocking)
//! shard     top_k_batch_sharded_timed, SHARDS threads   (+ scatter, merge)
//! engine    recommend_batch, from the Completion stamps (+ cache, fold-in)
//! admission submit → last completion through a queue    (+ queue, age timer)
//! ```
//!
//! A rung's self time is its time minus the rung below it. The replay
//! runs on a freshly published epoch (same factors) so the result cache
//! starts cold, as it did for the live phase. On serve-publish the scorer
//! is approximate and reads less than the exact kernel rung below it, so
//! its heap share is negative. Beside the ladder, `dot_i8_scaled` is
//! timed for one user of each batch over the int8 catalog (built here
//! on the exact workloads).

use crate::report::Outcome;
use crate::serve::{subtree_bytes, Factors, Phase, Traffic, F, K};
use crate::stats::median;
use crate::traffic::Rng;
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::kernel::{dot_i8_scaled, score_tile};
use cumf_serve::{
    admission_queue, top_k_batch, top_k_batch_sharded_timed, top_k_batch_stats, AdmissionConfig,
    Completion, ModelSnapshot, QuantizedFactors, Query, Request, ServeEngine, UserRef,
};
use cumf_telemetry::PhaseSpan;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Most batches replayed, and the wall-time budget of the replay.
const MAX_BATCHES: usize = 24;
const BUDGET_SECS: f64 = 3.0;
/// A rung shorter than this is repeated and averaged.
const MIN_RUNG_SECS: f64 = 2e-3;

/// Per-batch rung times (seconds) and counts.
#[derive(Default)]
pub struct Ladder {
    size: Vec<f64>,
    kernel: Vec<f64>,
    kernel_rate: Vec<f64>,
    i8_rate: Vec<f64>,
    scorer: Vec<f64>,
    shard: Vec<f64>,
    imbalance: Vec<f64>,
    engine: Vec<f64>,
    admission: Vec<f64>,
    bytes: Vec<f64>,
    /// Bytes of the superseded epoch a reader held across the publish.
    superseded: u64,
}

/// Mean seconds per call of `f`, repeated until `MIN_RUNG_SECS` elapse.
fn time_rung<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    let mut reps = 0u32;
    loop {
        black_box(f());
        reps += 1;
        let secs = t0.elapsed().as_secs_f64();
        if secs >= MIN_RUNG_SECS || reps >= 1000 {
            return secs / f64::from(reps);
        }
    }
}

/// The fixed-phase batches as request lists, in admission order.
fn batches_of(phase: &Phase, traffic: &Traffic) -> Vec<Vec<Request>> {
    let mut batches: Vec<Vec<Request>> = Vec::new();
    let mut last = None;
    for s in phase.rec.served.iter().filter(|s| s.ok) {
        if last != Some(s.admitted.to_bits()) {
            batches.push(Vec::new());
            last = Some(s.admitted.to_bits());
        }
        let user = phase.users[(s.id - phase.first_id) as usize];
        batches
            .last_mut()
            .expect("a batch was just opened")
            .push(traffic.request(s.id, user));
    }
    batches
}

pub fn run(
    engine: &ServeEngine,
    phase: &Phase,
    traffic: &Traffic,
    factors: &Factors,
    spans: &mut Vec<PhaseSpan>,
) -> Ladder {
    let mut ladder = Ladder::default();
    let registry = engine.registry();
    let id = registry.default_model();
    // The live epoch stays pinned across the publish, as an in-flight
    // reader would pin it.
    let live = registry.snapshot(&id).expect("default model");
    let fresh = ModelSnapshot::new(live.epoch() + 1, live.full().item_factors().clone(), vec![]);
    registry
        .publish(&id, fresh)
        .expect("publish the replay epoch");
    ladder.superseded = subtree_bytes(&engine.memory_report(), "superseded");
    drop(live);
    let snap = registry.snapshot(&id).expect("default model");
    let full = snap.full();
    let cfg = engine.config().score;
    let built;
    let int8 = match full.int8() {
        Some(q) => q,
        None => {
            built = QuantizedFactors::build(full.item_factors());
            &built
        }
    };

    let mut batches = batches_of(phase, traffic);
    let mut rng = Rng::new(factors.seed ^ 0x1ADD);
    for i in (1..batches.len()).rev() {
        batches.swap(i, rng.below(i + 1));
    }
    let t_start = Instant::now();
    let (queue, worker, done) = admission_queue(AdmissionConfig::default());
    std::thread::scope(|s| {
        let handle = s.spawn(|| worker.run(engine, &cumf_telemetry::NOOP));
        for batch in batches.iter().take(MAX_BATCHES) {
            if ladder.size.len() >= 3 && t_start.elapsed().as_secs_f64() > BUDGET_SECS {
                break;
            }
            let known: Vec<u32> = batch
                .iter()
                .filter_map(|r| match r.query {
                    Query::User(UserRef::Known(u)) => Some(u),
                    _ => None,
                })
                .collect();
            if known.is_empty() {
                continue;
            }
            let mut users = DenseMatrix::zeros(known.len(), F);
            for (i, &u) in known.iter().enumerate() {
                users.row_mut(i).copy_from_slice(&factors.user(u as usize));
            }
            let b = known.len();
            let t = engine.now();

            let i8_secs = time_rung(|| {
                let mut acc = 0.0f32;
                for v in 0..int8.n_items() {
                    acc += dot_i8_scaled(users.row(0), int8.row(v), int8.scale(v));
                }
                acc
            });
            ladder
                .i8_rate
                .push((int8.n_items() * F) as f64 / i8_secs / 1e9);
            let theta = full.item_factors().as_slice();
            let block = cfg.effective_block_items(F);
            let mut out = vec![0.0f32; b * block];
            let kernel = time_rung(|| {
                for chunk in theta.chunks(block * F) {
                    let n = chunk.len() / F;
                    score_tile(users.as_slice(), b, chunk, n, F, &mut out[..b * n]);
                    black_box(&out);
                }
            });
            ladder
                .kernel_rate
                .push((2 * b * full.n_items() * F) as f64 / kernel / 1e9);
            let scorer = time_rung(|| top_k_batch(full, &users, K, &cfg));
            let mut timings = Vec::new();
            let shard = time_rung(|| {
                let (ranked, t) = top_k_batch_sharded_timed(&snap, &users, K, &cfg);
                timings = t;
                ranked
            });
            let secs: Vec<f64> = timings.iter().map(|t| t.secs).collect();
            let mean = secs.iter().sum::<f64>() / secs.len().max(1) as f64;
            ladder
                .imbalance
                .push(secs.iter().copied().fold(0.0, f64::max) / mean);
            let stats = top_k_batch_stats(full, &users, K, &cfg).1;
            ladder.bytes.push(stats.bytes as f64 / b as f64);

            // The admission rung serves the whole batch, cold requests
            // included; the engine rung is the worker's own stamps.
            let t0 = engine.now();
            for r in batch {
                queue
                    .submit(r.clone(), t0)
                    .expect("ladder admission worker exited early");
            }
            let got: Vec<Completion> = (0..batch.len())
                .map(|_| done.recv().expect("ladder admission worker exited early"))
                .collect();
            let last = got.iter().map(|c| c.finished_at).fold(t0, f64::max);
            let mut served: BTreeMap<u64, f64> = BTreeMap::new();
            for c in &got {
                served.insert(c.admitted_at.to_bits(), c.finished_at - c.admitted_at);
            }
            let engine_secs: f64 = served.values().sum();

            ladder.size.push(b as f64);
            ladder.kernel.push(kernel);
            ladder.scorer.push(scorer);
            ladder.shard.push(shard);
            ladder.engine.push(engine_secs);
            ladder.admission.push(last - t0);
            let mut at = t;
            for (name, d) in [
                ("ladder.kernel", kernel),
                ("ladder.scorer", scorer),
                ("ladder.shard", shard),
            ] {
                spans.push(PhaseSpan::new(name, at, at + d));
                at += d;
            }
            spans.push(PhaseSpan::new("ladder.admission", t0, last));
        }
        drop(queue);
        handle.join().expect("ladder admission worker panicked");
    });
    ladder
}

impl Ladder {
    pub fn report(&self, out: &mut Outcome) {
        let ms = |v: &[f64]| median(v) * 1e3;
        let share = |top: &[f64], below: &[f64]| {
            let v: Vec<f64> = top.iter().zip(below).map(|(t, b)| (t - b) / t).collect();
            median(&v)
        };
        eprintln!(
            "ladder over {} batches (median {} known users): kernel {:.3} ms, scorer {:.3} ms, \
             shard {:.3} ms, engine {:.3} ms, admission {:.3} ms",
            self.size.len(),
            median(&self.size),
            ms(&self.kernel),
            ms(&self.scorer),
            ms(&self.shard),
            ms(&self.engine),
            ms(&self.admission)
        );
        eprintln!(
            "ladder self times (median of per-batch differences): heap {:.3} ms, \
             scatter {:.3} ms, engine {:.3} ms, admission {:.3} ms",
            ms(&diff(&self.scorer, &self.kernel)),
            ms(&diff(&self.shard, &self.scorer)),
            ms(&diff(&self.engine, &self.shard)),
            ms(&diff(&self.admission, &self.engine))
        );
        out.put("kernel.score_tile_gflops", median(&self.kernel_rate));
        out.put("kernel.dot_i8_gbps", median(&self.i8_rate));
        out.put("scorer.batch_ms", ms(&self.scorer));
        out.put("scorer.heap_share", share(&self.scorer, &self.kernel));
        out.put("scorer.bytes_per_req", median(&self.bytes));
        out.put(
            "registry.superseded_mb",
            self.superseded as f64 / (1024.0 * 1024.0),
        );
        out.put("shard.scatter_ms", ms(&self.shard));
        out.put("shard.imbalance", median(&self.imbalance));
        out.put("engine.batch_ms", ms(&self.engine));
        out.put("engine.self_share", share(&self.engine, &self.shard));
        out.put("admission.batch_ms", ms(&self.admission));
    }
}

fn diff(top: &[f64], below: &[f64]) -> Vec<f64> {
    top.iter().zip(below).map(|(t, b)| t - b).collect()
}
