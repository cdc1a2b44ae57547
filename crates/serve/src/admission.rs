//! Asynchronous request admission: a bounded queue between request
//! producers and the batched engine.
//!
//! The serving benchmark used to form micro-batches synchronously — chop
//! the replay into fixed windows, score a window, repeat — which couples
//! batch shape to arrival order and has no answer to overload beyond
//! unbounded queueing. This module replaces that with the standard
//! admission-controlled design:
//!
//! * **Bounded queue.** [`AdmissionQueue::submit`] enqueues into a
//!   fixed-depth channel; when the queue is full, `submit` blocks (closed
//!   loop: producers experience backpressure) while
//!   [`AdmissionQueue::try_submit`] *sheds* — the request is rejected
//!   immediately, handed back to the caller, and counted. The queue can
//!   therefore never grow without bound; overload turns into an explicit,
//!   measured rejection rate instead of silent latency collapse.
//! * **Work-conserving batch close.** The worker blocks for a batch's
//!   first request, takes whatever else is already queued (up to
//!   `max_batch`), and closes the batch the moment the queue is empty —
//!   there is no timer. Requests that arrive while a batch is being
//!   scored make up the next one, so under load batches fill by
//!   themselves and the engine amortizes its scoring pass, while a lone
//!   request waits for nothing but the batch ahead of it.
//! * **Completions out-of-band.** Each served request is reported as a
//!   [`Completion`] carrying submit/admit/finish stamps on the engine's
//!   wall clock, so callers can split total latency into queueing delay
//!   and service time. The admit and finish stamps are the batch trace's
//!   start and end, so the split is the request span's `queue` stage
//!   against the rest.
//!
//! Shutdown is by channel disconnect: drop every [`AdmissionQueue`] clone
//! and the worker drains what is buffered, then returns its
//! [`AdmissionReport`].
//!
//! ```
//! use cumf_numeric::dense::DenseMatrix;
//! use cumf_serve::admission::{admission_queue, AdmissionConfig};
//! use cumf_serve::engine::{Request, ServeConfig, ServeEngine};
//! use cumf_serve::store::ModelSnapshot;
//! use cumf_telemetry::NOOP;
//!
//! let engine = ServeEngine::builder()
//!     .config(ServeConfig::default().with_k(2))
//!     .model(
//!         "default",
//!         DenseMatrix::identity(4),
//!         ModelSnapshot::new(0, DenseMatrix::identity(4), vec![]),
//!     )
//!     .build()
//!     .unwrap();
//! let (queue, worker, done) = admission_queue(AdmissionConfig::default());
//! for u in 0..4u32 {
//!     queue.submit(Request::known(u as u64, u), engine.now()).unwrap();
//! }
//! drop(queue); // disconnect: the worker drains and returns
//! let report = worker.run(&engine, &NOOP);
//! assert_eq!(report.admitted, 4);
//! assert_eq!(done.iter().count(), 4);
//! ```

use crate::engine::{Query, Recommendation, Request, ServeEngine, UserRef};
use crate::error::ServeError;
use crate::obs::{RequestSpan, ServeObs, SloReport};
use crate::scorer::ScanStats;
use cumf_telemetry::{FootprintReport, LatencyHistogram, MemoryFootprint, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::Arc;

/// Queue depth and batch size cap.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Requests per micro-batch at most; a batch closes as soon as it
    /// holds this many (floored at 1).
    pub max_batch: usize,
    /// Bounded queue capacity. `try_submit` sheds beyond this; `submit`
    /// blocks.
    pub queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_batch: 64,
            queue_depth: 256,
        }
    }
}

/// A request waiting in the queue, stamped with its submission time on the
/// engine clock.
struct Submitted {
    req: Request,
    submitted_at: f64,
}

/// Why `try_submit` handed a request back.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue is at capacity — the request was shed (and counted).
    Full(Request),
    /// The worker is gone; nothing will ever drain the queue.
    Closed(Request),
}

/// Producer handle: submit requests into the bounded queue. Cloneable —
/// any number of submitter threads may share one queue. Dropping every
/// clone disconnects the worker, which then drains and returns.
#[derive(Clone)]
pub struct AdmissionQueue {
    tx: SyncSender<Submitted>,
    rejected: Arc<AtomicU64>,
    obs: Option<Arc<ServeObs>>,
    /// Bounded channel capacity, kept for footprint reporting.
    depth: usize,
}

impl AdmissionQueue {
    /// Route shed accounting into an engine's observability bundle
    /// (typically [`ServeEngine::obs_arc`]): every request
    /// [`try_submit`](AdmissionQueue::try_submit) sheds is counted in
    /// `serve_shed_total` and spends SLO error budget at its submission
    /// time.
    pub fn with_obs(mut self, obs: Arc<ServeObs>) -> AdmissionQueue {
        self.obs = Some(obs);
        self
    }
    /// Closed-loop submit: blocks while the queue is full (backpressure),
    /// errors only if the worker is gone. `submitted_at` is the request's
    /// timestamp on the engine clock ([`ServeEngine::now`]).
    pub fn submit(&self, req: Request, submitted_at: f64) -> Result<(), Request> {
        self.tx
            .send(Submitted { req, submitted_at })
            .map_err(|e| e.0.req)
    }

    /// Open-loop submit: never blocks. A full queue sheds the request —
    /// it is returned in [`SubmitError::Full`] and the rejection counter
    /// increments — so overload produces a measured reject rate instead
    /// of unbounded queueing.
    pub fn try_submit(&self, req: Request, submitted_at: f64) -> Result<(), SubmitError> {
        match self.tx.try_send(Submitted { req, submitted_at }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(s)) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.observe_shed(s.submitted_at);
                }
                Err(SubmitError::Full(s.req))
            }
            Err(TrySendError::Disconnected(s)) => Err(SubmitError::Closed(s.req)),
        }
    }

    /// Requests shed so far by [`AdmissionQueue::try_submit`].
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

impl MemoryFootprint for AdmissionQueue {
    /// A worst-case bound, not a live measurement: the bounded channel
    /// can hold at most `queue_depth` request headers. Cold-start rating
    /// histories live on the heap behind those headers and are workload-
    /// dependent, so they are not counted.
    fn footprint(&self) -> FootprintReport {
        FootprintReport::branch(
            "admission_queue",
            vec![FootprintReport::leaf(
                "queued_request_headers",
                (self.depth * std::mem::size_of::<Submitted>()) as u64,
            )],
        )
    }
}

/// One served request, stamped on the engine clock: queueing delay is
/// `admitted_at - submitted_at`, service time `finished_at - admitted_at`.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The engine's response: a recommendation, or the per-request
    /// [`ServeError`] the engine answered with (routing failures and
    /// unknown users fail alone — the rest of the batch is unaffected).
    pub response: Result<Recommendation, ServeError>,
    /// When the producer submitted the request.
    pub submitted_at: f64,
    /// When the engine began the batch containing it (its trace's start,
    /// so `admitted_at - submitted_at` is `span.stages.queue`).
    pub admitted_at: f64,
    /// When the engine finished the batch.
    pub finished_at: f64,
    /// How many requests shared the batch.
    pub batch_size: usize,
    /// The request's stage-decomposed timing record: queue / cache /
    /// foldin / score / merge / respond durations that telescope to
    /// `finished_at - submitted_at`.
    pub span: RequestSpan,
}

/// Why a batch closed.
enum Close {
    /// It reached `max_batch`.
    Full,
    /// Nothing else was queued.
    Empty,
    /// Every producer is gone.
    Drain,
}

/// Consumer side: drains the queue into engine micro-batches. Run it on
/// its own thread (e.g. inside `std::thread::scope`) while producers
/// submit; [`AdmissionWorker::run`] returns when every producer handle
/// has been dropped and the queue is empty.
pub struct AdmissionWorker {
    rx: Receiver<Submitted>,
    done: Sender<Completion>,
    rejected: Arc<AtomicU64>,
    cfg: AdmissionConfig,
}

impl AdmissionWorker {
    /// Serve batches until the queue disconnects; returns the admission
    /// statistics. Completions are sent to the receiver returned by
    /// [`admission_queue`]; if that receiver was dropped, completions are
    /// discarded but serving continues.
    pub fn run(self, engine: &ServeEngine, recorder: &dyn Recorder) -> AdmissionReport {
        let max_batch = self.cfg.max_batch.max(1);
        let mut report = AdmissionReport::new(self.cfg);
        // Each iteration blocks for the first request of the next batch;
        // a recv error means every producer handle is gone and we're done.
        while let Ok(first) = self.rx.recv() {
            let mut batch = vec![first];
            let close = loop {
                if batch.len() >= max_batch {
                    break Close::Full;
                }
                match self.rx.try_recv() {
                    Ok(s) => batch.push(s),
                    Err(TryRecvError::Empty) => break Close::Empty,
                    Err(TryRecvError::Disconnected) => break Close::Drain,
                }
            };

            let mut stamps = Vec::with_capacity(batch.len());
            let mut reqs = Vec::with_capacity(batch.len());
            for s in batch {
                stamps.push(s.submitted_at);
                reqs.push(s.req);
            }
            let (out, trace) = engine.recommend_batch_traced(&reqs, recorder);
            let (admitted_at, finished_at) = (trace.start, trace.end);
            let [_, _, (_, score_start, score_end), _, _] = trace.stages();

            let n = out.len();
            report.batches += 1;
            report.admitted += n as u64;
            report.work += trace.work();
            report.score_secs += (score_end - score_start).max(0.0);
            match close {
                Close::Full => report.closed_by_size += 1,
                Close::Empty => report.closed_by_age += 1,
                Close::Drain => report.closed_by_drain += 1,
            }
            for ((submitted_at, response), req) in stamps.into_iter().zip(out).zip(&reqs) {
                let from_cache = response.as_ref().map(|r| r.from_cache).unwrap_or(false);
                if response.is_err() {
                    report.failed += 1;
                }
                let span = RequestSpan::from_batch(
                    &trace,
                    req.id,
                    submitted_at,
                    from_cache,
                    matches!(req.query, Query::User(UserRef::Cold(_))),
                );
                report.queue_delay.record_secs(span.stages.queue.max(0.0));
                engine.obs().observe_completion(&span);
                let _ = self.done.send(Completion {
                    response,
                    submitted_at,
                    admitted_at,
                    finished_at,
                    batch_size: n,
                    span,
                });
            }
        }
        report.rejected = self.rejected.load(Ordering::Relaxed);
        report.slo = Some(engine.obs().refresh_slo_gauges(engine.now()));
        report
    }
}

/// What the admission worker did over its lifetime.
#[derive(Clone, Debug)]
pub struct AdmissionReport {
    /// The policy the worker ran under.
    pub cfg: AdmissionConfig,
    /// Micro-batches served.
    pub batches: u64,
    /// Requests admitted (= served).
    pub admitted: u64,
    /// Batches closed by reaching `max_batch`.
    pub closed_by_size: u64,
    /// Batches closed before reaching `max_batch` because nothing else
    /// was queued.
    pub closed_by_age: u64,
    /// Batches closed by queue disconnect during shutdown drain.
    pub closed_by_drain: u64,
    /// Requests shed by `try_submit` (snapshot at worker exit).
    pub rejected: u64,
    /// Requests admitted but answered with a [`ServeError`].
    pub failed: u64,
    /// The engine's scoring work over the worker's lifetime
    /// ([`crate::obs::BatchTrace::work`] summed over batches; cache hits
    /// contribute nothing): the numerators of
    /// [`AdmissionReport::effective_gbps`] and
    /// [`AdmissionReport::effective_gflops`].
    pub work: ScanStats,
    /// Wall-clock seconds the engine spent inside score stages (the
    /// denominator of [`AdmissionReport::effective_gbps`] and
    /// [`AdmissionReport::effective_gflops`]).
    pub score_secs: f64,
    /// Queueing delay (submit → batch start) distribution.
    pub queue_delay: LatencyHistogram,
    /// SLO summary at worker exit (compliance, breaches, sheds, windowed
    /// burn rates), from the engine's [`crate::obs::SloTracker`].
    pub slo: Option<SloReport>,
}

impl AdmissionReport {
    fn new(cfg: AdmissionConfig) -> AdmissionReport {
        AdmissionReport {
            cfg,
            batches: 0,
            admitted: 0,
            closed_by_size: 0,
            closed_by_age: 0,
            closed_by_drain: 0,
            rejected: 0,
            failed: 0,
            work: ScanStats::default(),
            score_secs: 0.0,
            queue_delay: LatencyHistogram::new(),
            slo: None,
        }
    }

    /// Effective scan bandwidth in GB/s: factor bytes streamed over the
    /// wall-clock seconds the engine spent scoring. 0 when nothing was
    /// scored. "Effective" because cache hits shrink the numerator while
    /// leaving throughput intact — a rising hit ratio shows up as served
    /// QPS outrunning scan bandwidth.
    pub fn effective_gbps(&self) -> f64 {
        if self.score_secs <= 0.0 {
            0.0
        } else {
            self.work.bytes as f64 / self.score_secs / 1e9
        }
    }

    /// Effective scoring throughput in GFLOP/s: nominal flops (`2·f` per
    /// scored row) over the wall-clock seconds spent scoring. Read next
    /// to [`AdmissionReport::effective_gbps`]: when GB/s sits near the
    /// host's memory bandwidth the scan is bandwidth-bound; when GFLOP/s
    /// plateaus while GB/s has headroom it is compute-bound — which is
    /// what narrower factor formats (int8) shift.
    pub fn effective_gflops(&self) -> f64 {
        if self.score_secs <= 0.0 {
            0.0
        } else {
            self.work.flops as f64 / self.score_secs / 1e9
        }
    }

    /// Mean requests per served batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.admitted as f64 / self.batches as f64
        }
    }
}

/// Build the queue / worker / completion-stream triple for `cfg`.
///
/// Typical wiring: move the [`AdmissionWorker`] onto a scoped thread with
/// a shared `&ServeEngine`, submit from the current thread (or several),
/// drop the queue, read [`Completion`]s, join the worker for the
/// [`AdmissionReport`].
pub fn admission_queue(
    cfg: AdmissionConfig,
) -> (AdmissionQueue, AdmissionWorker, Receiver<Completion>) {
    let (tx, rx) = sync_channel(cfg.queue_depth.max(1));
    let (done_tx, done_rx) = channel();
    let rejected = Arc::new(AtomicU64::new(0));
    let queue = AdmissionQueue {
        tx,
        rejected: Arc::clone(&rejected),
        obs: None,
        depth: cfg.queue_depth.max(1),
    };
    let worker = AdmissionWorker {
        rx,
        done: done_tx,
        rejected,
        cfg,
    };
    (queue, worker, done_rx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::store::ModelSnapshot;
    use cumf_numeric::dense::DenseMatrix;
    use cumf_telemetry::NOOP;
    use std::time::Duration;

    fn tiny_engine(users: usize) -> ServeEngine {
        let f = 3;
        let mut x = DenseMatrix::zeros(users, f);
        let mut theta = DenseMatrix::zeros(20, f);
        x.fill_with(|| 0.5);
        theta.fill_with(|| 0.25);
        ServeEngine::builder()
            .config(ServeConfig::default().with_k(3))
            .model("default", x, ModelSnapshot::new(0, theta, vec![]))
            .build()
            .unwrap()
    }

    fn req(u: u32) -> Request {
        Request::known(u as u64, u)
    }

    #[test]
    fn batches_close_on_size() {
        let engine = tiny_engine(8);
        let (queue, worker, done) = admission_queue(AdmissionConfig {
            max_batch: 4,
            queue_depth: 16,
        });
        for u in 0..8 {
            queue.submit(req(u), engine.now()).unwrap();
        }
        drop(queue);
        let report = worker.run(&engine, &NOOP);
        assert_eq!(report.admitted, 8);
        assert_eq!(report.batches, 2);
        assert_eq!(report.closed_by_size, 2);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.mean_batch(), 4.0);
        let completions: Vec<Completion> = done.iter().collect();
        assert_eq!(completions.len(), 8);
        assert!(completions.iter().all(|c| c.batch_size == 4));
        // Request order is preserved through the queue and within batches.
        let ids: Vec<u64> = completions
            .iter()
            .map(|c| c.response.as_ref().unwrap().request_id)
            .collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
        // Stamps are ordered: submit ≤ admit ≤ finish.
        for c in &completions {
            assert!(c.submitted_at <= c.admitted_at);
            assert!(c.admitted_at <= c.finished_at);
        }
    }

    #[test]
    fn batches_close_when_the_queue_is_empty() {
        let engine = tiny_engine(4);
        let (queue, worker, done) = admission_queue(AdmissionConfig {
            max_batch: 64,
            queue_depth: 16,
        });
        // Three requests wait before the worker starts; the producer stays
        // connected, so only an empty queue can close the first batch.
        for u in 0..3 {
            queue.submit(req(u), engine.now()).unwrap();
        }
        std::thread::scope(|scope| {
            let engine = &engine;
            let handle = scope.spawn(move || worker.run(engine, &NOOP));
            let next = || {
                done.recv_timeout(Duration::from_secs(10))
                    .expect("an empty queue must close the batch")
            };
            let mut sizes: Vec<usize> = (0..3).map(|_| next().batch_size).collect();
            queue.submit(req(3), engine.now()).unwrap();
            let last = next();
            assert_eq!(last.response.as_ref().unwrap().request_id, 3);
            sizes.push(last.batch_size);
            assert_eq!(sizes, [3, 3, 3, 1]);
            drop(queue);
            let report = handle.join().unwrap();
            assert_eq!(report.batches, 2);
            assert_eq!(report.closed_by_age, 2);
            assert_eq!(report.closed_by_size, 0);
            assert_eq!(report.closed_by_drain, 0);
            assert_eq!(report.admitted, 4);
        });
    }

    #[test]
    fn overloaded_queue_sheds_instead_of_growing() {
        let engine = tiny_engine(16);
        let depth = 3;
        let (queue, worker, done) = admission_queue(AdmissionConfig {
            max_batch: 64,
            queue_depth: depth,
        });
        // No worker running: the queue fills to exactly `depth`, then
        // every further try_submit is shed and counted.
        let mut accepted = 0;
        let mut shed = 0;
        for u in 0..10 {
            match queue.try_submit(req(u), engine.now()) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Full(r)) => {
                    assert_eq!(r.id, u as u64, "shed request is handed back");
                    shed += 1;
                }
                Err(SubmitError::Closed(_)) => panic!("worker not yet dropped"),
            }
        }
        assert_eq!(accepted, depth);
        assert_eq!(shed, 10 - depth);
        assert_eq!(queue.rejected(), (10 - depth) as u64);
        drop(queue);
        let report = worker.run(&engine, &NOOP);
        assert_eq!(report.admitted, depth as u64);
        assert_eq!(report.rejected, (10 - depth) as u64);
        assert_eq!(done.iter().count(), depth);
    }

    #[test]
    fn submit_after_worker_exit_errors() {
        let engine = tiny_engine(2);
        let (queue, worker, _done) = admission_queue(AdmissionConfig::default());
        drop(worker);
        assert!(queue.submit(req(0), engine.now()).is_err());
        match queue.try_submit(req(1), engine.now()) {
            Err(SubmitError::Closed(r)) => assert_eq!(r.id, 1),
            other => panic!("expected Closed, got {other:?}"),
        }
        // A dead worker is not overload: nothing was counted as shed.
        assert_eq!(queue.rejected(), 0);
    }

    #[test]
    fn completion_spans_telescope_to_e2e_latency() {
        // The tentpole acceptance criterion: a request through admission →
        // sharded scoring → merge → cache carries a span whose stage
        // durations sum (within clock precision) to its e2e latency.
        let f = 3;
        let mut x = DenseMatrix::zeros(8, f);
        let mut theta = DenseMatrix::zeros(24, f);
        x.fill_with(|| 0.5);
        theta.fill_with(|| 0.25);
        let engine = ServeEngine::builder()
            .config(ServeConfig::default().with_k(3).with_shards(3))
            .model("default", x, ModelSnapshot::new(0, theta, vec![]))
            .build()
            .unwrap();
        let (queue, worker, done) = admission_queue(AdmissionConfig {
            max_batch: 4,
            queue_depth: 16,
        });
        for u in 0..8 {
            queue.submit(req(u), engine.now()).unwrap();
        }
        // Serve user 0 twice so the second trip is a cache hit.
        queue.submit(req(0), engine.now()).unwrap();
        drop(queue);
        let report = worker.run(&engine, &NOOP);
        assert_eq!(report.admitted, 9);
        let completions: Vec<Completion> = done.iter().collect();
        for c in &completions {
            let e2e = c.finished_at - c.submitted_at;
            assert!(
                (c.span.stages.total() - e2e).abs() < 1e-9,
                "stages {:?} sum {} != e2e {}",
                c.span.stages,
                c.span.stages.total(),
                e2e
            );
            assert_eq!(c.span.request_id, c.response.as_ref().unwrap().request_id);
            assert_eq!(c.span.batch_size, c.batch_size);
            assert!(c.span.stages.queue >= 0.0);
        }
        // At least one from-cache completion flowed through with the flag.
        assert!(completions.iter().any(|c| c.span.from_cache));
        // Every completion landed in the engine's obs bundle.
        assert_eq!(engine.obs().metrics().request_latency.snapshot().count(), 9);
        assert_eq!(engine.obs().flight().totals().0, 9);
        let slo = report.slo.expect("worker reports SLO state");
        assert_eq!(slo.total, 9);
        assert_eq!(slo.shed, 0);
    }

    #[test]
    fn sheds_spend_slo_budget_through_the_obs_hook() {
        let engine = tiny_engine(4);
        let (queue, worker, _done) = admission_queue(AdmissionConfig {
            max_batch: 64,
            queue_depth: 2,
        });
        let queue = queue.with_obs(engine.obs_arc());
        // No worker running: fill the queue, then shed twice.
        let mut shed = 0;
        for u in 0..4 {
            if queue.try_submit(req(u % 4), engine.now()).is_err() {
                shed += 1;
            }
        }
        assert_eq!(shed, 2);
        assert_eq!(engine.obs().metrics().shed.get(), 2);
        drop(queue);
        let report = worker.run(&engine, &NOOP);
        let slo = report.slo.expect("slo present");
        assert_eq!(slo.shed, 2);
        assert_eq!(slo.total, 2 + 2);
        assert!((slo.compliance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_requests_complete_with_errors_not_aborts() {
        // An unknown user flows through the whole admission path as an
        // Err completion; its batchmates are served normally.
        let engine = tiny_engine(4);
        let (queue, worker, done) = admission_queue(AdmissionConfig {
            max_batch: 3,
            queue_depth: 8,
        });
        queue.submit(req(0), engine.now()).unwrap();
        queue.submit(req(99), engine.now()).unwrap(); // only 4 users exist
        queue.submit(req(1), engine.now()).unwrap();
        drop(queue);
        let report = worker.run(&engine, &NOOP);
        assert_eq!((report.admitted, report.failed), (3, 1));
        let completions: Vec<Completion> = done.iter().collect();
        assert_eq!(completions.len(), 3);
        assert!(completions[0].response.is_ok());
        assert!(matches!(
            completions[1].response.as_ref().unwrap_err(),
            ServeError::UnknownUser { user: 99, .. }
        ));
        assert!(completions[2].response.is_ok());
        // The failed request still carries a telescoping span.
        let c = &completions[1];
        let e2e = c.finished_at - c.submitted_at;
        assert!((c.span.stages.total() - e2e).abs() < 1e-9);
        assert_eq!(c.span.request_id, 99);
    }

    #[test]
    fn report_accounts_scan_bytes_and_effective_bandwidth() {
        let engine = tiny_engine(8); // 20 items × f=3
        let (queue, worker, _done) = admission_queue(AdmissionConfig {
            max_batch: 4,
            queue_depth: 16,
        });
        for u in 0..8 {
            queue.submit(req(u), engine.now()).unwrap();
        }
        drop(queue);
        let report = worker.run(&engine, &NOOP);
        // Two size-closed batches, each one user-chunk pass over Θ:
        // 2 × 20 items × 3 factors × 4 bytes.
        assert_eq!(report.work.bytes, 2 * 20 * 3 * 4);
        // Flops mirror the bytes: 2·f per scored row, 2 batches of 4
        // users over 20 items each.
        assert_eq!(report.work.flops, 2 * 3 * (2 * 20 * 4));
        assert!(report.score_secs > 0.0);
        assert!(report.effective_gbps() > 0.0);
        assert!(report.effective_gflops() > 0.0);
        // Idle report divides by nothing.
        let idle = AdmissionReport::new(AdmissionConfig::default());
        assert_eq!(idle.effective_gbps(), 0.0);
        assert_eq!(idle.effective_gflops(), 0.0);
    }

    #[test]
    fn queue_footprint_bounds_queued_request_headers() {
        let (queue, _worker, _done) = admission_queue(AdmissionConfig {
            queue_depth: 7,
            ..AdmissionConfig::default()
        });
        let r = queue.footprint();
        assert!(r.verify());
        assert_eq!(r.total_bytes(), 7 * std::mem::size_of::<Submitted>() as u64);
    }
}
