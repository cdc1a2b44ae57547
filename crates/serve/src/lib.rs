//! # cumf-serve — batched top-k recommendation inference
//!
//! Training (`cumf-als`) ends with two factor matrices; serving turns them
//! into ranked recommendations under load. This crate is the online half
//! the ROADMAP's "heavy traffic from millions of users" goal needs:
//!
//! * [`store`] — [`ModelSnapshot`]: one immutable published epoch of item
//!   factors and priors. Snapshots optionally carry an FP16 copy of the
//!   factors — the paper's half-precision storage trick (Solution 4),
//!   here halving *scoring* bandwidth instead of solver bandwidth.
//! * [`scorer`] — a blocked user×item scoring pass reduced through
//!   per-user bounded heaps ([`topk`]), never materializing the full score
//!   matrix: each tile row drains through one 8-lane compare per 8 scores
//!   against the k-th best so far, with heap work only for the entrants.
//!   The Θ-block size auto-tunes from `f` to a ~100 KiB cache-resident
//!   tile.
//! * [`ann`] — two-stage approximate retrieval: a deterministic k-means
//!   [`CentroidIndex`] built at publish time plus an int8 per-block
//!   [`QuantizedFactors`] copy, so [`Retrieval::Approx`] scans only the
//!   top `n_probe` clusters' members (optionally at 1 byte/coord) and
//!   rescores the shortlist exactly in FP32 — the paper's
//!   accuracy-for-bandwidth dial applied to serving (see
//!   `docs/APPROXIMATION.md`).
//! * [`shard`] — [`ShardedFactorStore`]: snapshots behind an atomic `Arc`
//!   swap, so a background trainer publishes new epochs without ever
//!   blocking readers. Each epoch's catalog is split into contiguous
//!   item-range shards — row-range views over the one snapshot, each with
//!   its own centroid index and int8 rows — scored scatter-gather and
//!   merged with a deterministic tie-break so the result is bit-identical
//!   to the unsharded scorer.
//! * [`registry`] — multi-model serving: a keyed [`ModelRegistry`] of
//!   factor stores sharing one scorer, cache, and observability bundle,
//!   with a deterministic-hash canary [`Router`] ([`CanaryPolicy`]) and
//!   promote/rollback — production A/B arms and staged rollouts without
//!   an engine restart.
//! * [`engine`] — [`ServeEngine`]: micro-batching, per-request model
//!   routing, cold-start fold-in via [`cumf_als::fold_in_batch`], a
//!   `(model, epoch, user)`-keyed lock-striped LRU result [`cache`], and
//!   one [`BatchTrace`] per batch from which the metrics and the
//!   [`cumf_telemetry::Recorder`] phase spans are rendered. Built with
//!   [`ServeEngineBuilder`]; fallible paths return [`ServeError`] instead
//!   of panicking, per request.
//! * [`admission`] — a bounded request queue in front of the engine:
//!   each batch is whatever is queued (up to `max_batch`), closed the
//!   moment the queue is empty; overload sheds with a counted rejection
//!   instead of unbounded queueing.
//! * [`metrics`] — NDCG@k, the ranking-quality yardstick used to bound the
//!   FP16 path's approximation error, plus overlap@k for comparing two
//!   rankers.
//! * [`obs`] — request-level observability: stage-decomposed
//!   [`RequestSpan`]s, typed metrics with Prometheus exposition, an
//!   always-on flight recorder, and SLO burn-rate tracking (see
//!   `docs/OBSERVABILITY.md`). PR 9 puts the bundle on the network:
//!   [`ObsServer`] is a zero-dependency HTTP/1.1 exposition server
//!   (`/metrics`, `/healthz`, `/readyz`, `/debug/*`), backed by the typed
//!   [`obs::health`] readiness model and the [`EventJournal`] lifecycle
//!   audit ring.
//! * **Byte accounting** — every resident structure implements
//!   [`cumf_telemetry::MemoryFootprint`], rolled up by
//!   [`engine::ServeEngine::memory_report`] into a tree whose children
//!   provably sum to the total (`serve_mem_bytes` gauges), and the
//!   factor bytes every scan counts as it reads them ([`ScanStats`]) flow
//!   through [`BatchTrace`]/[`RequestSpan`] into `serve_scan_bytes_total`
//!   and the admission report's effective GB/s.
//!
//! ## Round-trip: fold a cold user in, then recommend
//!
//! ```
//! use cumf_als::{fold_in_row, SolverKind};
//! use cumf_numeric::dense::DenseMatrix;
//! use cumf_serve::scorer::{top_k_one, ScoreConfig};
//! use cumf_serve::store::ModelSnapshot;
//!
//! // A trained Θ for 4 items in a 2-D latent space: items 0–1 are "genre
//! // A", items 2–3 "genre B".
//! let theta = DenseMatrix::from_vec(4, 2, vec![
//!     1.0, 0.0,
//!     0.9, 0.1,
//!     0.0, 1.0,
//!     0.1, 0.9,
//! ]);
//!
//! // A new user who loved item 0: one regularized solve against Θ.
//! let x_new = fold_in_row(&theta, &[(0, 5.0)], 0.05, &SolverKind::BatchCholesky);
//!
//! // Score them against the catalog.
//! let snapshot = ModelSnapshot::new(0, theta, vec![]);
//! let top = top_k_one(&snapshot, &x_new, 2, &ScoreConfig::default());
//! assert_eq!(top[0].item, 0, "their rated item ranks first");
//! assert_eq!(top[1].item, 1, "the same-genre neighbour is next");
//! ```
//!
//! For the full engine path (batching, cache, cold-start, telemetry) see
//! [`engine::ServeEngine`]; for the closed-loop load generator see
//! `serve_bench` in `cumf-bench`.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod admission;
pub mod ann;
pub mod cache;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod obs;
pub mod query;
pub mod registry;
pub mod scorer;
pub mod shard;
pub mod store;
pub mod topk;

pub use admission::{
    admission_queue, AdmissionConfig, AdmissionQueue, AdmissionReport, AdmissionWorker, Completion,
    SubmitError,
};
pub use ann::{AnnParams, AnnPolicy, CentroidIndex, QuantizedFactors, QUANT_BLOCK_ROWS};
pub use cache::{CacheKey, CacheStats, ResultCache, StripedCache};
pub use engine::{Recommendation, Request, ServeConfig, ServeEngine, ServeEngineBuilder, UserRef};
pub use error::ServeError;
pub use metrics::{dcg_at_k, ndcg_at_k, overlap_at_k};
pub use obs::{
    BatchTrace, EventJournal, EventKind, FlightRecorder, HealthCheck, HealthStatus, HttpConfig,
    JournalRecord, ObsConfig, ObsServer, RequestSpan, ServeMetrics, ServeObs, ShutdownHandle,
    SloConfig, SloReport, SloTracker, StageBreakdown,
};
pub use query::{Endpoint, Explanation, Query};
pub use registry::{canary_unit, CanaryPolicy, ModelId, ModelRegistry, RouteKey, Router};
pub use scorer::{
    explain_one, score_one, top_k_batch, top_k_batch_stats, top_k_one, QuantMode, Retrieval,
    ScanStats, ScoreConfig,
};
pub use shard::{
    rank_slate_sharded, top_k_batch_sharded, top_k_batch_sharded_timed, Shard, ShardTiming,
    ShardedFactorStore, ShardedSnapshot,
};
pub use store::ModelSnapshot;
pub use topk::{merge_top_k, naive_top_k, ScoredItem, TopK};
