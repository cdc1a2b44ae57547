//! # cumf-telemetry — an nvprof-style profiler for the simulated GPU stack
//!
//! The simulation crates price every kernel launch through a roofline-plus-
//! latency model but, before this crate, only surfaced aggregate phase
//! times. `cumf-telemetry` adds the observability layer nvprof/Nsight give
//! you on real hardware:
//!
//! * **Typed events** ([`event`]): [`KernelLaunchRecord`] (full cost-model
//!   input/output plus roofline context), [`PhaseSpan`], [`SolverRecord`]
//!   (CG step counts, residual trajectories, FP16 round-trip error), and
//!   [`CounterSample`] — all stamped with *simulated* time.
//! * **Recorders** ([`recorder`]): a [`Recorder`] trait with a zero-overhead
//!   [`NoopRecorder`] default and an in-memory [`MemoryRecorder`] sink.
//!   Instrumented code checks `enabled()` first and never branches
//!   simulation logic on the recorder, so disabling it is bit-identical.
//! * **Exporters**: Chrome trace-event JSON ([`chrome`]), JSON-Lines metric
//!   streams ([`jsonl`]), and an nvprof-style per-kernel summary table
//!   ([`summary`]).
//! * **Latency aggregation** ([`hist`]): a log-bucketed
//!   [`LatencyHistogram`] (p50/p95/p99, mergeable) for the *wall-clock*
//!   serving path, exportable into the same counter stream.
//! * **Byte accounting** ([`footprint`]): a [`MemoryFootprint`] trait
//!   returning [`FootprintReport`] component trees whose interior nodes
//!   provably sum to their children — the *space* counterpart to the
//!   time-oriented spans above, feeding `serve_mem_bytes`-style gauges.
//! * **Live metrics** ([`registry`]): a [`MetricsRegistry`] of typed,
//!   labeled handles — thread-striped atomic [`Counter`]s, [`Gauge`]s,
//!   [`Histogram`]s — with Prometheus text exposition and JSON snapshots,
//!   for operational state that events are the wrong shape for.
//!
//! Typical harness wiring:
//!
//! ```
//! use cumf_telemetry::{chrome_trace, to_jsonl, MemoryRecorder, Recorder};
//! use cumf_telemetry::{CounterSample, PhaseSpan};
//!
//! let rec = MemoryRecorder::new();
//! if rec.enabled() {
//!     rec.phase(PhaseSpan::new("get_hermitian-X", 0.0, 0.4));
//!     rec.counter(CounterSample::new("device_mem_bytes", 0.4, 1.5e9));
//! }
//! let trace_json = chrome_trace(&rec.events());
//! let metrics = to_jsonl(&rec.events());
//! assert!(trace_json.contains("traceEvents") && metrics.lines().count() == 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod footprint;
pub mod hist;
pub mod jsonl;
pub mod recorder;
pub mod registry;
pub mod summary;

pub use chrome::chrome_trace;
pub use event::{CounterSample, Event, KernelLaunchRecord, PhaseSpan, SolverExit, SolverRecord};
pub use footprint::{FootprintReport, MemoryFootprint};
pub use hist::LatencyHistogram;
pub use jsonl::to_jsonl;
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder, NOOP};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use summary::{kernel_summary, render_summary, summarize_events, KernelSummaryRow};

/// Write a Chrome trace-event JSON document for `events` to `path`.
pub fn write_chrome_trace(path: &str, events: &[Event]) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(events))
}

/// Write a JSONL metrics stream for `events` to `path`.
pub fn write_jsonl(path: &str, events: &[Event]) -> std::io::Result<()> {
    std::fs::write(path, to_jsonl(events))
}
