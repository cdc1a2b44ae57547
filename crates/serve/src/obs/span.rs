//! Request spans: one record per served request, decomposing its
//! end-to-end latency into admission and engine stages.
//!
//! The engine stamps a [`BatchTrace`] — six contiguous timestamps on the
//! engine clock bracketing the batch's cache pass, cold-start fold-in,
//! shard scatter, gather/merge, and response assembly. A [`RequestSpan`]
//! is that trace re-based onto one request: its `queue` stage runs from
//! the request's own submission time to the batch's start, and the batch
//! stages follow. Because every boundary is shared, the stage durations
//! *telescope*: they sum exactly (up to floating-point rounding) to the
//! request's end-to-end latency — test-enforced here and again through
//! the full admission path.
//!
//! The trace is the batch's only record: [`BatchTrace::stages`] maps its
//! boundaries to stages once, and the request spans, the stage
//! histograms and the recorder's phase spans are all rendered from it.

use crate::registry::ModelId;
use crate::scorer::ScanStats;
use crate::shard::ShardTiming;
use cumf_telemetry::{Event, PhaseSpan};
use serde::Serialize;

/// The named stages every request decomposes into, in pipeline order.
pub const STAGES: [&str; 6] = ["queue", "cache", "foldin", "score", "merge", "respond"];

/// Timestamps and counts for one engine micro-batch, on the engine clock
/// ([`crate::engine::ServeEngine::now`]). Produced by
/// [`crate::engine::ServeEngine::recommend_batch_traced`].
#[derive(Clone, Debug)]
pub struct BatchTrace {
    /// Batch processing began (first timestamp taken inside the engine).
    pub start: f64,
    /// Cache pass finished.
    pub cache_done: f64,
    /// Cold-start fold-in and batch assembly finished.
    pub foldin_done: f64,
    /// Shard scatter (per-shard blocked scoring) finished.
    pub score_done: f64,
    /// Gather/merge of per-shard heaps finished.
    pub merge_done: f64,
    /// Responses assembled and cache filled; the batch is done.
    pub end: f64,
    /// Requests in the batch.
    pub requests: usize,
    /// Requests answered from the result cache.
    pub cache_hits: usize,
    /// Cold users folded in.
    pub cold_users: usize,
    /// Users that went through the scoring pass (misses + cold).
    pub scored_users: usize,
    /// Requests answered with a [`crate::ServeError`] instead of a
    /// recommendation (routing failures, unknown users).
    pub errors: usize,
    /// The model arms the batch served, as `(model, epoch)` pairs in
    /// registry-slot order (single-model batches have exactly one).
    pub arms: Vec<(ModelId, u64)>,
    /// Per-shard scoring passes of the batch — scatter and slate passes
    /// over every arm — each with its start, duration and work.
    pub shard_timings: Vec<ShardTiming>,
}

impl BatchTrace {
    /// Wall-clock seconds the engine spent on the batch.
    pub fn service_secs(&self) -> f64 {
        self.end - self.start
    }

    /// The batch's scoring work: the [`ShardTiming::work`] of every pass,
    /// summed over arms and shards. Cache hits contribute nothing — a hit
    /// bypasses the scan entirely.
    pub fn work(&self) -> ScanStats {
        self.shard_timings.iter().map(|t| t.work).sum()
    }

    /// The five engine stages as `(name, start, end)` intervals, in
    /// [`STAGES`] order after `queue` (which precedes the batch and is
    /// per request). The one place boundaries map to stages: request
    /// spans, stage histograms and recorder phases all read it.
    pub fn stages(&self) -> [(&'static str, f64, f64); 5] {
        let bounds = [
            self.start,
            self.cache_done,
            self.foldin_done,
            self.score_done,
            self.merge_done,
            self.end,
        ];
        std::array::from_fn(|i| (STAGES[i + 1], bounds[i], bounds[i + 1]))
    }
}

/// Per-stage durations (seconds) of one request, in [`STAGES`] order.
///
/// Built from shared batch boundaries, so
/// [`total`](StageBreakdown::total) telescopes to the request's
/// end-to-end latency exactly (up to floating-point rounding).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct StageBreakdown {
    /// Submit → batch start (admission queueing, including batch close).
    pub queue: f64,
    /// Result-cache lookup pass.
    pub cache: f64,
    /// Cold-start fold-in and batch factor assembly.
    pub foldin: f64,
    /// Scatter: per-shard blocked scoring.
    pub score: f64,
    /// Gather: merging per-shard heaps into global rankings.
    pub merge: f64,
    /// Cache fill and response assembly.
    pub respond: f64,
}

impl StageBreakdown {
    /// Stage durations paired with their [`STAGES`] names.
    pub fn as_pairs(&self) -> [(&'static str, f64); 6] {
        [
            ("queue", self.queue),
            ("cache", self.cache),
            ("foldin", self.foldin),
            ("score", self.score),
            ("merge", self.merge),
            ("respond", self.respond),
        ]
    }

    /// Sum of all stages — the request's end-to-end latency.
    pub fn total(&self) -> f64 {
        self.queue + self.cache + self.foldin + self.score + self.merge + self.respond
    }

    /// The (stage name, duration) of the slowest stage.
    pub fn slowest(&self) -> (&'static str, f64) {
        self.as_pairs()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("six stages")
    }
}

/// One served request's full timing record: identity, batch context, and
/// the stage decomposition of its latency.
#[derive(Clone, Debug, Serialize)]
pub struct RequestSpan {
    /// The request's caller-chosen id.
    pub request_id: u64,
    /// When the producer submitted the request (engine clock).
    pub submitted_at: f64,
    /// When its batch finished (engine clock).
    pub finished_at: f64,
    /// How many requests shared the batch.
    pub batch_size: usize,
    /// Whether the response came from the result cache.
    pub from_cache: bool,
    /// Whether this was a cold-start (fold-in) request.
    pub cold: bool,
    /// Factor bytes the request's *batch* streamed while scoring
    /// ([`BatchTrace::work`]'s `bytes`) — like the stage durations, a batch
    /// quantity attributed to each rider, not a per-request exclusive
    /// count. 0 for a batch answered entirely from cache.
    pub scan_bytes: u64,
    /// Per-stage latency decomposition.
    pub stages: StageBreakdown,
}

impl RequestSpan {
    /// Re-base a batch trace onto one of its requests.
    ///
    /// `submitted_at` must not exceed `trace.start` (requests are always
    /// submitted before the worker opens their batch); the batch stages
    /// are shared with every other request in the batch.
    pub fn from_batch(
        trace: &BatchTrace,
        request_id: u64,
        submitted_at: f64,
        from_cache: bool,
        cold: bool,
    ) -> RequestSpan {
        let [cache, foldin, score, merge, respond] = trace.stages().map(|(_, s, e)| e - s);
        RequestSpan {
            request_id,
            submitted_at,
            finished_at: trace.end,
            batch_size: trace.requests,
            from_cache,
            cold,
            scan_bytes: trace.work().bytes,
            stages: StageBreakdown {
                queue: trace.start - submitted_at,
                cache,
                foldin,
                score,
                merge,
                respond,
            },
        }
    }

    /// End-to-end latency in seconds (submit → batch end).
    pub fn e2e(&self) -> f64 {
        self.finished_at - self.submitted_at
    }

    /// Render the span as Chrome trace-event phases: one outer
    /// `request <id>` span plus one nested span per non-empty stage, laid
    /// out contiguously from `submitted_at` on the engine clock. Feed the
    /// result to [`cumf_telemetry::chrome_trace`].
    pub fn to_chrome_events(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(1 + STAGES.len());
        events.push(Event::Phase {
            span: PhaseSpan::new(
                format!("request {}", self.request_id),
                self.submitted_at,
                self.finished_at,
            ),
        });
        let mut t = self.submitted_at;
        for (name, dur) in self.stages.as_pairs() {
            // Clamp into the outer span so floating-point rounding can
            // never make a child poke past its parent in the trace sweep.
            let end = (t + dur.max(0.0)).min(self.finished_at);
            if dur > 0.0 {
                events.push(Event::Phase {
                    span: PhaseSpan::new(format!("stage.{name}"), t, end),
                });
            }
            t = end;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> BatchTrace {
        BatchTrace {
            start: 1.0,
            cache_done: 1.125,
            foldin_done: 1.25,
            score_done: 1.5,
            merge_done: 1.625,
            end: 1.75,
            requests: 4,
            cache_hits: 1,
            cold_users: 1,
            scored_users: 3,
            errors: 0,
            arms: vec![(ModelId::from("default"), 7)],
            shard_timings: vec![ShardTiming {
                shard: 0,
                start: 1.25,
                secs: 0.25,
                work: ScanStats {
                    bytes: 4096,
                    ..ScanStats::default()
                },
            }],
        }
    }

    #[test]
    fn stages_telescope_to_e2e_latency() {
        let span = RequestSpan::from_batch(&trace(), 42, 0.875, false, false);
        assert_eq!(span.e2e(), 1.75 - 0.875);
        assert!(
            (span.stages.total() - span.e2e()).abs() < 1e-12,
            "stage sum {} != e2e {}",
            span.stages.total(),
            span.e2e()
        );
        assert_eq!(span.stages.queue, 0.125);
        assert_eq!(span.stages.slowest().0, "score");
        assert_eq!(span.scan_bytes, 4096, "batch scan bytes ride the span");
        assert_eq!(span.scan_bytes, trace().shard_timings[0].work.bytes);
    }

    #[test]
    fn chrome_events_nest_inside_the_request_span() {
        let span = RequestSpan::from_batch(&trace(), 9, 0.75, false, true);
        let events = span.to_chrome_events();
        // 1 outer + 6 non-empty stages.
        assert_eq!(events.len(), 7);
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for e in &events[1..] {
            if let Event::Phase { span: s } = e {
                assert!(s.start >= span.submitted_at && s.end <= span.finished_at);
                lo = lo.min(s.start);
                hi = hi.max(s.end);
            }
        }
        // Stages tile the whole request interval.
        assert_eq!((lo, hi), (span.submitted_at, span.finished_at));
        let json = cumf_telemetry::chrome_trace(&events);
        assert!(json.contains("request 9") && json.contains("stage.score"));
    }

    #[test]
    fn zero_duration_stages_are_skipped_in_the_trace() {
        let mut t = trace();
        t.cache_done = t.start; // empty cache stage
        let span = RequestSpan::from_batch(&t, 1, t.start, true, false);
        let names: Vec<String> = span
            .to_chrome_events()
            .iter()
            .filter_map(|e| match e {
                Event::Phase { span } => Some(span.name.to_string()),
                _ => None,
            })
            .collect();
        assert!(!names.contains(&"stage.cache".to_string()));
        assert!(!names.contains(&"stage.queue".to_string()));
        assert!(names.contains(&"stage.score".to_string()));
    }
}
