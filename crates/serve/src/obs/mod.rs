//! `serve::obs` — request tracing, live metrics, flight recording, and
//! SLO tracking for the serving path.
//!
//! PR 1 gave training an nvprof-style event pipeline; this module is the
//! serving-side observability layer built on top of it (see
//! `docs/OBSERVABILITY.md` for the full tour):
//!
//! * [`span`] — [`RequestSpan`]: every served request decomposed into
//!   queue / cache / foldin / score / merge / respond stages whose
//!   durations telescope exactly to its end-to-end latency.
//! * a typed [`ServeMetrics`] registry ([`cumf_telemetry::MetricsRegistry`]
//!   underneath) replacing the ad-hoc `serve.*` counter strings: Prometheus
//!   text exposition, JSON snapshots, and a bridge into the JSONL stream.
//! * [`flight`] — [`FlightRecorder`]: an always-on ring of recent spans
//!   plus a tail-latency exemplar sampler, dumpable as a Chrome trace.
//! * [`slo`] — [`SloTracker`]: latency target + error/shed budget with
//!   multi-window burn rates, surfaced in the admission report.
//!
//! PR 9 turns the bundle into an *operational surface*:
//!
//! * [`journal`] — [`EventJournal`]: typed, engine-clock-timestamped
//!   lifecycle audit records (publishes, promotions, burn transitions,
//!   shed bursts) in a bounded ring.
//! * [`health`] — [`HealthStatus`]: the liveness-vs-readiness model
//!   behind `/healthz` and `/readyz`.
//! * [`http`] — [`ObsServer`]: a zero-dependency HTTP/1.1 server
//!   exposing all of the above as scrape endpoints.
//!
//! One [`ServeObs`] bundles all of it; the engine owns it
//! ([`crate::engine::ServeEngine::obs`]) so the admission worker and any
//! exposition endpoint observe the same state. The bundle also owns the
//! **engine clock** ([`ServeObs::now`], seconds since construction) so
//! spans, SLO buckets, and journal timestamps share one time base.

pub mod flight;
pub mod health;
pub mod http;
pub mod journal;
pub mod slo;
pub mod span;

pub use flight::{chrome_trace_for, FlightRecorder};
pub use health::{HealthCheck, HealthStatus};
pub use http::{HttpConfig, ObsServer, ShutdownHandle};
pub use journal::{EventJournal, EventKind, JournalRecord};
pub use slo::{SloConfig, SloReport, SloTracker, WindowBurn};
pub use span::{BatchTrace, RequestSpan, StageBreakdown, STAGES};

use crate::query::Endpoint;
use cumf_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use parking_lot::Mutex;
use serde::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans retained in the flight recorder's ring.
const FLIGHT_RING_CAPACITY: usize = 256;

/// Lifecycle records retained in the event journal's ring.
const JOURNAL_CAPACITY: usize = 1024;

/// Configuration for the serving observability layer.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Slow-request exemplars retained (slowest first).
    pub exemplar_capacity: usize,
    /// End-to-end latency at which a request becomes a slow exemplar.
    pub slow_threshold: Duration,
    /// The service-level objective to track.
    pub slo: SloConfig,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            exemplar_capacity: 16,
            slow_threshold: Duration::from_millis(50),
            slo: SloConfig::default(),
        }
    }
}

/// Per-shard metric handles, registered once per shard index and cached
/// by the engine.
#[derive(Clone, Debug)]
pub struct ShardMetrics {
    /// `items × users` score evaluations this shard performed.
    pub scored: Counter,
    /// Wall-clock seconds per scoring pass on this shard.
    pub pass_seconds: Histogram,
}

/// Per-endpoint metric handles, labeled `endpoint="<token>"`. Registered
/// for every [`Endpoint`] at construction so the full label set is
/// always present on `/metrics`, even before an endpoint's first
/// request.
#[derive(Clone, Debug)]
pub struct EndpointMetrics {
    /// Requests routed to this endpoint (cache hits and per-request
    /// errors included).
    pub requests: Counter,
    /// Batch service time attributed to each of the endpoint's requests
    /// (the engine's cache→respond span; queueing delay is tracked
    /// separately by `serve_queue_delay_seconds`).
    pub latency: Histogram,
}

/// Per-model metric handles, labeled `model="<id>"`. Registered once per
/// model by the [`crate::registry::ModelRegistry`] and cached on each
/// entry, so the hot path never re-resolves a label set.
#[derive(Clone, Debug)]
pub struct ModelMetrics {
    /// Requests this model served (cache hits included).
    pub requests: Counter,
    /// Requests this model answered from the result cache.
    pub cache_hits: Counter,
    /// The epoch this model is currently serving.
    pub epoch: Gauge,
    /// Wall-clock seconds per snapshot publish of this model — the one
    /// `register` makes and each `publish` — from the start of the shard
    /// and retrieval-index build to the swap. One observation per
    /// journaled `SnapshotPublished`.
    pub publish_seconds: Histogram,
    /// Requests scored for this model in FP32 because `use_fp16` was set
    /// but the published snapshot carries no FP16 copy. A nonzero rate
    /// means the bandwidth halving you configured is silently not
    /// happening — republish with [`crate::store::ModelSnapshot::with_fp16`].
    pub fp16_fallback: Counter,
    /// Requests that asked for approximate retrieval but were scored with
    /// the full exact scan because the published snapshot carries no
    /// centroid index. A nonzero rate means the scan-byte reduction you
    /// configured is silently not happening — republish with
    /// [`crate::store::ModelSnapshot::with_ann`].
    pub ann_fallback: Counter,
    /// Publishes to this model that left the engine's resident bytes over
    /// the configured soft memory budget (warn-only; nothing is evicted).
    pub budget_exceeded: Counter,
}

/// Typed handles for every serving metric, backed by one
/// [`MetricsRegistry`]. Names follow Prometheus conventions: `serve_`
/// prefix, `_total` counters, `_seconds` unit suffix, labels for
/// dimensions (`shard`, `stage`, `window`).
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    /// Requests entering the engine (cache hits included).
    pub requests: Counter,
    /// Engine micro-batches served.
    pub batches: Counter,
    /// Requests answered from the result cache.
    pub cache_hits: Counter,
    /// Known-user requests that missed the cache and were scored.
    pub cache_misses: Counter,
    /// Cold users folded in.
    pub cold_users: Counter,
    /// Requests shed at admission.
    pub shed: Counter,
    /// End-to-end latency (submit → batch end), per request.
    pub request_latency: Histogram,
    /// Admission queueing delay (submit → batch start), per request.
    pub queue_delay: Histogram,
    /// Model epoch currently being served.
    pub epoch: Gauge,
    /// Factor bytes the blocked scorer streamed while scanning item
    /// blocks, summed over every scoring pass (cache hits bypass the scan
    /// and add nothing). With a wall-clock denominator this is the
    /// engine's effective scan bandwidth.
    pub scan_bytes: Counter,
    /// Clusters probed by approximate-retrieval scoring passes, summed
    /// over arms, shards, and users. 0 on exact engines.
    pub ann_probed: Counter,
    /// Stage-2 shortlist rows scored by approximate-retrieval passes
    /// (candidate items scanned after the centroid probe). 0 on exact
    /// engines.
    pub ann_candidates: Counter,
    /// Shortlist rows rescored exactly in FP32 after an int8 scan. The
    /// rescore fraction is `ann_rescored / ann_candidates`.
    pub ann_rescored: Counter,
    /// Entries resident in the result cache, summed over stripes.
    /// Refreshed on demand ([`crate::engine::ServeEngine::refresh_memory_gauges`]),
    /// not per batch — the stats walk is O(entries).
    pub cache_entries: Gauge,
    /// Estimated resident bytes of the result cache, summed over stripes.
    /// Same refresh cadence as `cache_entries`.
    pub cache_bytes: Gauge,
    /// Per-batch stage durations, labeled `stage="cache"|...|"respond"`
    /// (the queue stage is per-request: see `queue_delay`).
    stages: Vec<(&'static str, Histogram)>,
    /// Per-endpoint request counters and latency histograms, indexed in
    /// [`Endpoint::ALL`] order.
    endpoints: Vec<EndpointMetrics>,
}

impl ServeMetrics {
    /// Register every serving metric on `registry` (idempotent — two
    /// `ServeMetrics` on one registry share all handles).
    pub fn new(registry: Arc<MetricsRegistry>) -> ServeMetrics {
        let stages = STAGES[1..]
            .iter()
            .map(|&s| {
                (
                    s,
                    registry.histogram_with(
                        "serve_stage_seconds",
                        "Engine batch-stage durations",
                        &[("stage", s)],
                    ),
                )
            })
            .collect();
        let endpoints = Endpoint::ALL
            .iter()
            .map(|e| EndpointMetrics {
                requests: registry.counter_with(
                    "serve_endpoint_requests_total",
                    "Requests per serving endpoint",
                    &[("endpoint", e.name())],
                ),
                latency: registry.histogram_with(
                    "serve_endpoint_latency_seconds",
                    "Batch service time attributed per request, per endpoint",
                    &[("endpoint", e.name())],
                ),
            })
            .collect();
        ServeMetrics {
            requests: registry.counter("serve_requests_total", "Requests entering the engine"),
            batches: registry.counter("serve_batches_total", "Engine micro-batches served"),
            cache_hits: registry.counter("serve_cache_hits_total", "Result-cache hits"),
            cache_misses: registry
                .counter("serve_cache_misses_total", "Known-user cache misses scored"),
            cold_users: registry.counter("serve_cold_users_total", "Cold users folded in"),
            shed: registry.counter("serve_shed_total", "Requests shed at admission"),
            request_latency: registry.histogram(
                "serve_request_latency_seconds",
                "End-to-end request latency (submit to batch end)",
            ),
            queue_delay: registry.histogram(
                "serve_queue_delay_seconds",
                "Admission queueing delay (submit to batch start)",
            ),
            epoch: registry.gauge("serve_model_epoch", "Model epoch currently served"),
            scan_bytes: registry.counter(
                "serve_scan_bytes_total",
                "Factor bytes streamed by scoring scans (cache hits excluded)",
            ),
            ann_probed: registry.counter(
                "serve_ann_probed_clusters_total",
                "Clusters probed by approximate-retrieval scoring passes",
            ),
            ann_candidates: registry.counter(
                "serve_ann_shortlist_items_total",
                "Stage-2 shortlist rows scored by approximate retrieval",
            ),
            ann_rescored: registry.counter(
                "serve_ann_rescored_items_total",
                "Shortlist rows rescored exactly in FP32 after an int8 scan",
            ),
            cache_entries: registry.gauge(
                "serve_cache_entries",
                "Entries resident in the result cache (all stripes)",
            ),
            cache_bytes: registry.gauge(
                "serve_cache_bytes",
                "Estimated resident bytes of the result cache (all stripes)",
            ),
            stages,
            endpoints,
            registry,
        }
    }

    /// Handles for one serving endpoint (pre-registered at construction,
    /// so the lookup is an array index, never a label resolve).
    pub fn endpoint(&self, e: Endpoint) -> &EndpointMetrics {
        &self.endpoints[e.index()]
    }

    /// The registry behind the handles.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Handles for model `name` (registered on first use, cached by the
    /// registry on each model entry).
    pub fn model(&self, name: &str) -> ModelMetrics {
        ModelMetrics {
            requests: self.registry.counter_with(
                "serve_model_requests_total",
                "Requests served per model",
                &[("model", name)],
            ),
            cache_hits: self.registry.counter_with(
                "serve_model_cache_hits_total",
                "Result-cache hits per model",
                &[("model", name)],
            ),
            epoch: self.registry.gauge_with(
                "serve_model_epoch_current",
                "Epoch currently served, per model",
                &[("model", name)],
            ),
            publish_seconds: self.registry.histogram_with(
                "serve_publish_seconds",
                "Snapshot publish duration (shard and index build to swap), per model",
                &[("model", name)],
            ),
            fp16_fallback: self.registry.counter_with(
                "serve_fp16_fallback_total",
                "Requests scored in FP32 because the snapshot has no FP16 copy",
                &[("model", name)],
            ),
            ann_fallback: self.registry.counter_with(
                "serve_ann_fallback_total",
                "Approximate-retrieval requests scored exactly because the snapshot has no centroid index",
                &[("model", name)],
            ),
            budget_exceeded: self.registry.counter_with(
                "serve_mem_budget_exceeded_total",
                "Publishes that left resident bytes over the soft memory budget",
                &[("model", name)],
            ),
        }
    }

    /// Gauge for the resident bytes of one footprint-tree node
    /// ([`cumf_telemetry::FootprintReport::flatten`] path), labeled
    /// `component="<path>",model="<id>"`. Model-agnostic components
    /// (cache, flight recorder) use `model=""`.
    pub fn mem_bytes(&self, component: &str, model: &str) -> Gauge {
        self.registry.gauge_with(
            "serve_mem_bytes",
            "Resident bytes per footprint-tree component",
            &[("component", component), ("model", model)],
        )
    }

    /// Counter for requests failed with [`crate::ServeError`] reason
    /// token `reason` (see `ServeError::reason`), labeled
    /// `reason="<token>"`.
    pub fn error(&self, reason: &str) -> Counter {
        self.registry.counter_with(
            "serve_errors_total",
            "Requests answered with a ServeError, by reason",
            &[("reason", reason)],
        )
    }

    /// Handles for shard `i` (registered on first use, cached by caller).
    pub fn shard(&self, i: usize) -> ShardMetrics {
        let idx = i.to_string();
        ShardMetrics {
            scored: self.registry.counter_with(
                "serve_shard_scored_total",
                "Score evaluations per shard",
                &[("shard", &idx)],
            ),
            pass_seconds: self.registry.histogram_with(
                "serve_shard_pass_seconds",
                "Per-batch scoring-pass duration per shard",
                &[("shard", &idx)],
            ),
        }
    }

    /// Record one batch's stage durations from its trace.
    pub fn observe_batch_stages(&self, trace: &BatchTrace) {
        for ((_, h), (_, start, end)) in self.stages.iter().zip(trace.stages()) {
            h.observe_secs((end - start).max(0.0));
        }
    }
}

/// The serving observability bundle: metrics + flight recorder + SLO
/// tracker behind one handle. Created by the engine from [`ObsConfig`];
/// everything is internally synchronized, so clones of the `Arc` may be
/// read (exposition) while the worker writes.
#[derive(Debug)]
pub struct ServeObs {
    metrics: ServeMetrics,
    flight: FlightRecorder,
    slo: SloTracker,
    journal: EventJournal,
    /// The engine clock's origin: every span, SLO bucket, and journal
    /// record is stamped in seconds since this instant.
    started: Instant,
    /// Whether the SLO was fast-burning at the last gauge refresh — the
    /// edge detector behind `SloBurnEntered`/`SloBurnExited`.
    burn_firing: AtomicBool,
    /// Shed-burst aggregation: `(last_emit_time, sheds_since_then)`.
    shed_burst: Mutex<(f64, u64)>,
}

impl ServeObs {
    /// Build the bundle on a fresh registry.
    pub fn new(cfg: ObsConfig) -> ServeObs {
        ServeObs::with_registry(cfg, Arc::new(MetricsRegistry::new()))
    }

    /// Build the bundle on an existing registry (e.g. one shared with
    /// other subsystems exposing on the same endpoint).
    pub fn with_registry(cfg: ObsConfig, registry: Arc<MetricsRegistry>) -> ServeObs {
        ServeObs {
            metrics: ServeMetrics::new(Arc::clone(&registry)),
            flight: FlightRecorder::new(
                FLIGHT_RING_CAPACITY,
                cfg.exemplar_capacity,
                cfg.slow_threshold.as_secs_f64(),
            ),
            slo: SloTracker::new(cfg.slo),
            journal: EventJournal::new(JOURNAL_CAPACITY, registry),
            started: Instant::now(),
            burn_firing: AtomicBool::new(false),
            shed_burst: Mutex::new((f64::NEG_INFINITY, 0)),
        }
    }

    /// Seconds since this bundle was built — the engine clock. Every
    /// span, SLO bucket, and journal record shares this time base
    /// ([`crate::engine::ServeEngine::now`] delegates here).
    pub fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The typed metric handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The SLO tracker.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// The lifecycle event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Record one completed request span: latency + queue-delay
    /// histograms, the flight recorder, and the SLO tracker.
    pub fn observe_completion(&self, span: &RequestSpan) {
        self.metrics.request_latency.observe_secs(span.e2e());
        self.metrics.queue_delay.observe_secs(span.stages.queue);
        self.flight.observe(span);
        self.slo.record(span.finished_at, span.e2e());
    }

    /// Record one shed request at engine time `now`. Sheds are journaled
    /// as rate-limited `ShedBurst` records — at most one per second,
    /// folding the sheds since the previous record into its `count` — so
    /// an overload storm cannot flush the lifecycle history out of the
    /// ring (`serve_shed_total` stays exact regardless).
    pub fn observe_shed(&self, now: f64) {
        self.metrics.shed.inc();
        self.slo.record_shed(now);
        let emit = {
            let mut burst = self.shed_burst.lock();
            burst.1 += 1;
            if now - burst.0 >= 1.0 {
                let count = burst.1;
                *burst = (now, 0);
                Some(count)
            } else {
                None
            }
        };
        if let Some(count) = emit {
            self.journal
                .record(now, None, EventKind::ShedBurst { count });
        }
    }

    /// Refresh the derived SLO gauges (`serve_slo_compliance`,
    /// `serve_slo_burn_rate{window=...}`) from the tracker's state at
    /// engine time `now`. This is also the fast-burn edge detector: when
    /// the short-window burn rate crosses the configured
    /// [`SloConfig::fast_burn_threshold`] in either direction, a
    /// `SloBurnEntered` / `SloBurnExited` record is journaled. Every
    /// scrape of `/metrics` runs this, so the journal sees transitions
    /// even between request bursts.
    pub fn refresh_slo_gauges(&self, now: f64) -> SloReport {
        let report = self.slo.report(now);
        let reg = self.metrics.registry();
        reg.gauge("serve_slo_compliance", "Lifetime good fraction vs the SLO")
            .set(report.compliance);
        for w in &report.burn_rates {
            let label = format!("{}s", w.window_secs);
            reg.gauge_with(
                "serve_slo_burn_rate",
                "Windowed bad fraction over the error budget",
                &[("window", &label)],
            )
            .set(w.burn);
        }
        let short = &report.burn_rates[0];
        let firing = short.burn >= self.slo.config().fast_burn_threshold;
        let was_firing = self.burn_firing.swap(firing, Ordering::AcqRel);
        if firing != was_firing {
            let transition = if firing {
                EventKind::SloBurnEntered {
                    window_secs: short.window_secs,
                    burn: short.burn,
                }
            } else {
                EventKind::SloBurnExited {
                    window_secs: short.window_secs,
                    burn: short.burn,
                }
            };
            self.journal.record(now, None, transition);
        }
        report
    }

    /// Whether the SLO was fast-burning as of the last
    /// [`ServeObs::refresh_slo_gauges`] call — the `slo_fast_burn`
    /// readiness check reads this after refreshing.
    pub fn fast_burn_firing(&self) -> bool {
        self.burn_firing.load(Ordering::Acquire)
    }

    /// Prometheus text exposition of every serving metric, with the SLO
    /// gauges refreshed at engine time `now`.
    pub fn render_prometheus(&self, now: f64) -> String {
        self.refresh_slo_gauges(now);
        self.metrics.registry().render_prometheus()
    }

    /// JSON snapshot of every serving metric, SLO gauges refreshed at
    /// engine time `now`.
    pub fn snapshot(&self, now: f64) -> Value {
        self.refresh_slo_gauges(now);
        self.metrics.registry().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, submitted: f64, end: f64) -> RequestSpan {
        let trace = BatchTrace {
            start: submitted + (end - submitted) * 0.25,
            cache_done: submitted + (end - submitted) * 0.35,
            foldin_done: submitted + (end - submitted) * 0.45,
            score_done: submitted + (end - submitted) * 0.8,
            merge_done: submitted + (end - submitted) * 0.9,
            end,
            requests: 2,
            cache_hits: 0,
            cold_users: 0,
            scored_users: 2,
            errors: 0,
            arms: vec![(crate::registry::ModelId::from("default"), 3)],
            shard_timings: vec![],
            scan_bytes: 0,
            score_flops: 0,
            ann_probed: 0,
            ann_candidates: 0,
            ann_rescored: 0,
        };
        RequestSpan::from_batch(&trace, id, submitted, false, false)
    }

    #[test]
    fn completion_flows_into_metrics_flight_and_slo() {
        let obs = ServeObs::new(ObsConfig {
            slow_threshold: Duration::from_millis(10),
            ..ObsConfig::default()
        });
        obs.observe_completion(&span(1, 0.0, 0.002)); // fast
        obs.observe_completion(&span(2, 1.0, 1.2)); // slow: exemplar + breach
        obs.observe_shed(1.3);
        assert_eq!(obs.metrics().request_latency.snapshot().count(), 2);
        assert_eq!(obs.flight().exemplars().len(), 1);
        assert_eq!(obs.flight().slowest().unwrap().request_id, 2);
        let report = obs.refresh_slo_gauges(1.3);
        assert_eq!((report.total, report.breached, report.shed), (3, 1, 1));
        let text = obs.render_prometheus(1.3);
        assert!(text.contains("serve_slo_compliance"));
        assert!(text.contains("serve_slo_burn_rate{window=\"1s\"}"));
        assert!(text.contains("serve_shed_total 1"));
        assert!(text.contains("serve_request_latency_seconds_count 2"));
    }

    #[test]
    fn memory_metric_families_register_and_render() {
        let obs = ServeObs::new(ObsConfig::default());
        obs.metrics().scan_bytes.add(4096);
        obs.metrics().cache_entries.set(3.0);
        obs.metrics().cache_bytes.set(1536.0);
        obs.metrics()
            .mem_bytes("registry/m0/store", "m0")
            .set(2048.0);
        obs.metrics().ann_probed.add(12);
        obs.metrics().ann_candidates.add(300);
        obs.metrics().ann_rescored.add(40);
        let m = obs.metrics().model("m0");
        m.fp16_fallback.add(2);
        m.budget_exceeded.inc();
        m.ann_fallback.inc();
        let text = obs.render_prometheus(0.0);
        assert!(text.contains("serve_scan_bytes_total 4096"));
        assert!(text.contains("serve_ann_probed_clusters_total 12"));
        assert!(text.contains("serve_ann_shortlist_items_total 300"));
        assert!(text.contains("serve_ann_rescored_items_total 40"));
        assert!(text.contains("serve_ann_fallback_total{model=\"m0\"} 1"));
        assert!(text.contains("serve_cache_entries 3"));
        assert!(text.contains("serve_cache_bytes 1536"));
        assert!(text.contains("serve_mem_bytes{component=\"registry/m0/store\",model=\"m0\"} 2048"));
        assert!(text.contains("serve_fp16_fallback_total{model=\"m0\"} 2"));
        assert!(text.contains("serve_mem_budget_exceeded_total{model=\"m0\"} 1"));
        // Handles are idempotent: re-resolving points at the same gauge.
        assert_eq!(
            obs.metrics().mem_bytes("registry/m0/store", "m0").get(),
            2048.0
        );
    }

    #[test]
    fn endpoint_label_set_is_fully_registered_up_front() {
        let obs = ServeObs::new(ObsConfig::default());
        // Every endpoint's series exists before any traffic, so a scrape
        // always sees the full endpoint= label set.
        let text = obs.render_prometheus(0.0);
        for name in [
            "topk",
            "similar_items",
            "similar_users",
            "rank_items",
            "explain",
        ] {
            assert!(
                text.contains(&format!(
                    "serve_endpoint_requests_total{{endpoint=\"{name}\"}} 0"
                )),
                "missing endpoint series {name}: {text}"
            );
        }
        let ep = obs.metrics().endpoint(Endpoint::SimilarItems);
        ep.requests.add(2);
        ep.latency.observe_secs(0.001);
        let text = obs.render_prometheus(0.0);
        assert!(text.contains("serve_endpoint_requests_total{endpoint=\"similar_items\"} 2"));
        assert!(text.contains("serve_endpoint_latency_seconds_count{endpoint=\"similar_items\"} 1"));
    }

    #[test]
    fn shed_storms_fold_into_rate_limited_burst_records() {
        let obs = ServeObs::new(ObsConfig::default());
        // First shed opens a burst record immediately…
        obs.observe_shed(10.0);
        // …then a storm inside the same second stays folded…
        for i in 0..50 {
            obs.observe_shed(10.0 + i as f64 * 0.01);
        }
        // …until the next shed beyond the rate limit flushes the fold.
        obs.observe_shed(11.5);
        let bursts: Vec<_> = obs
            .journal()
            .records()
            .into_iter()
            .filter_map(|r| match r.kind {
                EventKind::ShedBurst { count } => Some(count),
                _ => None,
            })
            .collect();
        assert_eq!(bursts, vec![1, 51], "storm must fold, not flood");
        assert_eq!(obs.metrics().shed.get(), 52, "counter stays exact");
    }

    #[test]
    fn burn_transitions_are_journaled_on_refresh() {
        let obs = ServeObs::new(ObsConfig {
            slo: SloConfig {
                error_budget: 0.01,
                ..SloConfig::default()
            },
            ..ObsConfig::default()
        });
        assert!(!obs.fast_burn_firing());
        // Ten sheds in one second: burn = 1.0/0.01 = 100 ≥ threshold 10.
        for i in 0..10 {
            obs.observe_shed(5.0 + i as f64 * 0.05);
        }
        obs.refresh_slo_gauges(5.6);
        assert!(obs.fast_burn_firing());
        // Repeated refresh while firing: no duplicate transition record.
        obs.refresh_slo_gauges(5.7);
        // The window ages out; the next refresh journals the exit.
        obs.refresh_slo_gauges(30.0);
        assert!(!obs.fast_burn_firing());
        let kinds: Vec<_> = obs
            .journal()
            .records()
            .iter()
            .map(|r| r.kind.name())
            .filter(|k| k.starts_with("SloBurn"))
            .collect();
        assert_eq!(kinds, vec!["SloBurnEntered", "SloBurnExited"]);
    }

    #[test]
    fn engine_clock_is_monotone() {
        let obs = ServeObs::new(ObsConfig::default());
        let a = obs.now();
        let b = obs.now();
        assert!(b >= a);
    }

    #[test]
    fn two_metrics_views_share_one_registry() {
        let obs = ServeObs::new(ObsConfig::default());
        let again = ServeMetrics::new(Arc::clone(obs.metrics().registry()));
        obs.metrics().requests.add(5);
        assert_eq!(again.requests.get(), 5, "same underlying counter");
        // Shard handles are idempotent too.
        obs.metrics().shard(3).scored.add(7);
        assert_eq!(again.shard(3).scored.get(), 7);
    }

    #[test]
    fn batch_stage_histograms_cover_the_service_time() {
        let obs = ServeObs::new(ObsConfig::default());
        let trace = BatchTrace {
            start: 0.025,
            cache_done: 0.035,
            foldin_done: 0.045,
            score_done: 0.08,
            merge_done: 0.09,
            end: 0.1,
            requests: 2,
            cache_hits: 0,
            cold_users: 0,
            scored_users: 2,
            errors: 0,
            arms: vec![(crate::registry::ModelId::from("default"), 0)],
            shard_timings: vec![],
            scan_bytes: 0,
            score_flops: 0,
            ann_probed: 0,
            ann_candidates: 0,
            ann_rescored: 0,
        };
        obs.metrics().observe_batch_stages(&trace);
        let total: f64 = STAGES
            .iter()
            .filter(|&&n| n != "queue")
            .map(|&n| {
                obs.metrics()
                    .stages
                    .iter()
                    .find(|(name, _)| *name == n)
                    .unwrap()
                    .1
                    .snapshot()
                    .sum()
            })
            .sum();
        assert!((total - trace.service_secs()).abs() < 1e-9);
    }
}
