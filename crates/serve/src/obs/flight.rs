//! The flight recorder: always-on, bounded retention of recent and slow
//! request spans.
//!
//! Production incidents are debugged after the fact; by the time someone
//! looks, the interesting requests are gone unless something retained
//! them. The flight recorder keeps two bounded views, cheap enough to
//! leave on permanently:
//!
//! * a **ring buffer** of the most recent [`RequestSpan`]s (whatever just
//!   happened, slow or not), and
//! * a **tail-latency exemplar sampler**: the slowest spans whose
//!   end-to-end latency exceeded a configured threshold, kept sorted
//!   slowest-first and capped, so the worst requests of a run survive no
//!   matter how much fast traffic follows them.
//!
//! Either view dumps as a Chrome trace via
//! [`RequestSpan::to_chrome_events`] + [`cumf_telemetry::chrome_trace`],
//! which is how `serve_bench --slow-trace-us` materializes a slow-request
//! waterfall.

use super::span::RequestSpan;
use cumf_telemetry::{FootprintReport, MemoryFootprint};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Bounded retention of recent and slow request spans. All methods take
/// `&self`; one recorder is shared by the admission worker and whoever
/// reads it.
#[derive(Debug)]
pub struct FlightRecorder {
    ring_cap: usize,
    exemplar_cap: usize,
    slow_secs: f64,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    ring: VecDeque<RequestSpan>,
    /// Sorted slowest-first, at most `exemplar_cap` long.
    exemplars: Vec<RequestSpan>,
    seen: u64,
    slow: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `ring_cap` spans and the
    /// `exemplar_cap` slowest spans at or above `slow_secs` end-to-end.
    /// Capacities are floored at 1; `slow_secs` may be 0 to sample every
    /// request as an exemplar candidate.
    pub fn new(ring_cap: usize, exemplar_cap: usize, slow_secs: f64) -> FlightRecorder {
        FlightRecorder {
            ring_cap: ring_cap.max(1),
            exemplar_cap: exemplar_cap.max(1),
            slow_secs: slow_secs.max(0.0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The slow-exemplar threshold in seconds.
    pub fn slow_threshold_secs(&self) -> f64 {
        self.slow_secs
    }

    /// Record one completed span.
    pub fn observe(&self, span: &RequestSpan) {
        let mut inner = self.inner.lock();
        inner.seen += 1;
        if inner.ring.len() == self.ring_cap {
            inner.ring.pop_front();
        }
        inner.ring.push_back(span.clone());
        if span.e2e() >= self.slow_secs {
            inner.slow += 1;
            // Insert keeping slowest-first order; ties keep insertion
            // order (stable position search), then cap.
            let pos = inner.exemplars.partition_point(|s| s.e2e() >= span.e2e());
            if pos < self.exemplar_cap {
                inner.exemplars.insert(pos, span.clone());
                inner.exemplars.truncate(self.exemplar_cap);
            }
        }
    }

    /// The retained recent spans, oldest first.
    pub fn recent(&self) -> Vec<RequestSpan> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// The retained slow exemplars, slowest first.
    pub fn exemplars(&self) -> Vec<RequestSpan> {
        self.inner.lock().exemplars.clone()
    }

    /// The single slowest span seen above the threshold, if any.
    pub fn slowest(&self) -> Option<RequestSpan> {
        self.inner.lock().exemplars.first().cloned()
    }

    /// `(spans observed, spans at or above the slow threshold)`.
    pub fn totals(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.seen, inner.slow)
    }

    /// Dump the slow exemplars as a Chrome trace-event JSON document
    /// (empty trace if nothing crossed the threshold).
    pub fn exemplar_trace(&self) -> String {
        chrome_trace_for(&self.exemplars())
    }
}

impl MemoryFootprint for FlightRecorder {
    /// Children: `ring` and `exemplars`, each `retained spans ×
    /// size_of::<RequestSpan>()`. Exact for the spans themselves
    /// (`RequestSpan` owns no heap data); the `VecDeque`/`Vec` slack
    /// between `len` and capacity is not counted.
    fn footprint(&self) -> FootprintReport {
        let span = std::mem::size_of::<RequestSpan>() as u64;
        let inner = self.inner.lock();
        FootprintReport::branch(
            "flight_recorder",
            vec![
                FootprintReport::leaf("ring", inner.ring.len() as u64 * span),
                FootprintReport::leaf("exemplars", inner.exemplars.len() as u64 * span),
            ],
        )
    }
}

/// Render any set of spans as one Chrome trace-event JSON document.
pub fn chrome_trace_for(spans: &[RequestSpan]) -> String {
    let events: Vec<_> = spans
        .iter()
        .flat_map(RequestSpan::to_chrome_events)
        .collect();
    cumf_telemetry::chrome_trace(&events)
}

#[cfg(test)]
mod tests {
    use super::super::span::{BatchTrace, RequestSpan};
    use super::*;

    fn span(id: u64, e2e: f64) -> RequestSpan {
        let trace = BatchTrace {
            start: 10.0,
            cache_done: 10.0 + e2e * 0.1,
            foldin_done: 10.0 + e2e * 0.2,
            score_done: 10.0 + e2e * 0.7,
            merge_done: 10.0 + e2e * 0.8,
            end: 10.0 + e2e,
            requests: 1,
            cache_hits: 0,
            cold_users: 0,
            scored_users: 1,
            errors: 0,
            arms: vec![(crate::registry::ModelId::from("default"), 0)],
            shard_timings: vec![],
        };
        RequestSpan::from_batch(&trace, id, 10.0, false, false)
    }

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let fr = FlightRecorder::new(3, 4, f64::MAX);
        for id in 0..5 {
            fr.observe(&span(id, 0.001));
        }
        let ids: Vec<u64> = fr.recent().iter().map(|s| s.request_id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(fr.totals(), (5, 0));
        assert!(fr.slowest().is_none());
    }

    #[test]
    fn exemplars_keep_the_slowest_above_threshold() {
        let fr = FlightRecorder::new(8, 2, 0.010);
        for (id, e2e) in [(0, 0.005), (1, 0.020), (2, 0.015), (3, 0.050), (4, 0.001)] {
            fr.observe(&span(id, e2e));
        }
        let ids: Vec<u64> = fr.exemplars().iter().map(|s| s.request_id).collect();
        assert_eq!(ids, vec![3, 1], "slowest first, capped at 2");
        assert_eq!(fr.slowest().unwrap().request_id, 3);
        assert_eq!(fr.totals(), (5, 3));
    }

    #[test]
    fn footprint_counts_retained_spans() {
        let fr = FlightRecorder::new(3, 2, 0.010);
        assert_eq!(fr.footprint().total_bytes(), 0, "empty recorder, 0 bytes");
        for id in 0..5 {
            fr.observe(&span(id, 0.020));
        }
        let r = fr.footprint();
        assert!(r.verify());
        // Ring capped at 3, exemplars at 2.
        let per = std::mem::size_of::<RequestSpan>() as u64;
        assert_eq!(r.total_bytes(), 5 * per);
    }

    #[test]
    fn exemplar_trace_is_a_chrome_document() {
        let fr = FlightRecorder::new(4, 4, 0.0);
        fr.observe(&span(7, 0.002));
        let json = fr.exemplar_trace();
        assert!(json.contains("traceEvents"));
        assert!(json.contains("request 7"));
        assert!(json.contains("stage.score"));
    }
}
