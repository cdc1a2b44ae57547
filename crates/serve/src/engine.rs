//! The serving engine: micro-batched requests in, ranked items out.
//!
//! [`ServeEngine`] composes the crate's pieces into the request path. Since
//! the v2 redesign the engine routes over a keyed [`ModelRegistry`] instead
//! of owning a single store — one scorer configuration, one result cache,
//! and one observability bundle shared by every registered model. The v3
//! request path generalizes "which user" into a [`Query`] — user → top-k,
//! item → similar items, user → similar users, rank-a-slate, and explain —
//! each resolving to a (query vector, target matrix, candidate set) triple
//! served through the same sharded scorer (see [`crate::query`]):
//!
//! 1. snapshot the registry's routing state once per batch
//!    ([`crate::registry::Router`]) and resolve every request to a model —
//!    explicit [`ModelId`], default alias, or deterministic canary split;
//!    routing failures become per-request [`ServeError`]s, not panics;
//! 2. answer the cacheable endpoints (user → top-k, item → similar
//!    items) from the lock-striped result cache ([`StripedCache`]) when
//!    possible — keys carry `(model, epoch, id, endpoint, retrieval)`, so
//!    canary arms never see each other's entries, exact/approximate
//!    answers never alias, and an item→item ranking never answers for a
//!    user→top-k one;
//! 3. fold cold users' rating histories into factor vectors with
//!    [`cumf_als::fold_in_batch`] (one regularized solve each, CG or
//!    Cholesky per the configured [`SolverKind`]) against the routed
//!    model's full Θ;
//! 4. scatter each model's share of the batch across its snapshot's
//!    shards, one blocked scoring pass per shard, and gather the per-shard
//!    heaps into global rankings ([`scatter_top_k`] + gather —
//!    bit-identical to the unsharded scorer);
//! 5. fill the cache, update the typed serving metrics
//!    ([`crate::obs::ServeMetrics`], including per-model `model="…"`
//!    series), and stamp a [`BatchTrace`] whose stage timestamps the
//!    admission worker turns into per-request spans.
//!
//! Telemetry uses *wall-clock* seconds since engine construction as the
//! time base — serving is a real host-side workload, unlike training whose
//! events carry simulated GPU time.
//!
//! `recommend_batch` takes `&self` and every shared structure behind it is
//! internally synchronized, so the admission worker
//! ([`crate::admission`]) and any number of submitter threads can share
//! one engine by reference — and registry operations (publish, canary
//! ramps, promote/rollback) apply from the next batch without a restart.

use crate::ann::{AnnParams, AnnPolicy};
use crate::cache::{CacheKey, CacheStats, StripedCache};
use crate::error::ServeError;
use crate::obs::{
    BatchTrace, EventKind, HealthCheck, HealthStatus, ObsConfig, ServeObs, ShardMetrics,
};
use crate::registry::{CanaryPolicy, ModelEntry, ModelId, ModelRegistry, RouteKey};
use crate::scorer::{explain_one, QuantMode, Retrieval, ScoreConfig};
use crate::shard::{rank_slate_sharded, scatter_top_k, ShardTiming, ShardedSnapshot};
use crate::store::ModelSnapshot;
use crate::topk::ScoredItem;
use cumf_als::{fold_in_batch, SolverKind};
use cumf_numeric::dense::DenseMatrix;
use cumf_telemetry::{FootprintReport, MemoryFootprint, PhaseSpan, Recorder, NOOP};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub use crate::query::{Endpoint, Explanation, Query};

/// Engine-level configuration.
///
/// Construct via [`ServeConfig::default`] and the `with_*` builder methods
/// — the struct is `#[non_exhaustive]`, so new knobs are not breaking
/// changes:
///
/// ```
/// use cumf_serve::engine::ServeConfig;
///
/// let cfg = ServeConfig::default().with_k(20).with_shards(4);
/// assert_eq!((cfg.k, cfg.shards), (20, 4));
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Items returned per request.
    pub k: usize,
    /// Scorer tiling and precision (see [`ScoreConfig`]).
    pub score: ScoreConfig,
    /// Contiguous item-range shards each model's snapshot is split into
    /// (clamped to `[1, n_items]`; 1 reproduces the unsharded scorer
    /// exactly).
    pub shards: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Lock stripes the result cache is split into (floored at 1).
    pub cache_stripes: usize,
    /// Regularization for cold-start fold-in solves.
    pub lambda: f32,
    /// Solver for cold-start fold-in systems.
    pub solver: SolverKind,
    /// Observability layer: flight-recorder retention, slow-request
    /// threshold, and the SLO to track (see [`crate::obs`]).
    pub obs: ObsConfig,
    /// Soft memory budget in bytes over every registered model's resident
    /// footprint (`None` disables the check). A publish that leaves the
    /// registry over it warns on stderr, names the largest component, and
    /// increments `serve_mem_budget_exceeded_total{model=}` — nothing is
    /// evicted.
    pub memory_budget: Option<u64>,
    /// Centroid-index build parameters (cluster count, k-means seed,
    /// iteration cap) used when `score.retrieval` is
    /// [`Retrieval::Approx`]: the engine derives an [`AnnPolicy`] from the
    /// retrieval mode and these parameters, and the registry completes
    /// every registered/published snapshot to it at publish time. Ignored
    /// under [`Retrieval::Exact`].
    pub ann: AnnParams,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            k: 10,
            score: ScoreConfig::default(),
            shards: 1,
            cache_capacity: 4096,
            cache_stripes: 8,
            lambda: 0.05,
            solver: SolverKind::cumf_default(),
            obs: ObsConfig::default(),
            memory_budget: None,
            ann: AnnParams::default(),
        }
    }
}

impl ServeConfig {
    /// Items returned per request.
    pub fn with_k(mut self, k: usize) -> ServeConfig {
        self.k = k;
        self
    }

    /// Scorer tiling and precision.
    pub fn with_score(mut self, score: ScoreConfig) -> ServeConfig {
        self.score = score;
        self
    }

    /// Item-range shards per model snapshot.
    pub fn with_shards(mut self, shards: usize) -> ServeConfig {
        self.shards = shards;
        self
    }

    /// Result-cache capacity in entries (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> ServeConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Lock stripes for the result cache.
    pub fn with_cache_stripes(mut self, stripes: usize) -> ServeConfig {
        self.cache_stripes = stripes;
        self
    }

    /// Regularization for cold-start fold-in solves.
    pub fn with_lambda(mut self, lambda: f32) -> ServeConfig {
        self.lambda = lambda;
        self
    }

    /// Solver for cold-start fold-in systems.
    pub fn with_solver(mut self, solver: SolverKind) -> ServeConfig {
        self.solver = solver;
        self
    }

    /// Observability configuration.
    pub fn with_obs(mut self, obs: ObsConfig) -> ServeConfig {
        self.obs = obs;
        self
    }

    /// Soft memory budget in bytes (warn-only; see
    /// [`ServeConfig::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: u64) -> ServeConfig {
        self.memory_budget = Some(bytes);
        self
    }

    /// Centroid-index build parameters for approximate retrieval (see
    /// [`ServeConfig::ann`]).
    pub fn with_ann(mut self, ann: AnnParams) -> ServeConfig {
        self.ann = ann;
        self
    }

    /// The approximate-retrieval policy this configuration implies:
    /// `Some` (index parameters plus whether an int8 copy is needed) iff
    /// the retrieval mode is [`Retrieval::Approx`].
    pub fn ann_policy(&self) -> Option<AnnPolicy> {
        match self.score.retrieval {
            Retrieval::Exact => None,
            Retrieval::Approx { quant, .. } => Some(AnnPolicy {
                params: self.ann,
                int8: matches!(quant, QuantMode::Int8),
            }),
        }
    }
}

/// Who a request is for.
#[derive(Clone, Debug, PartialEq)]
pub enum UserRef {
    /// A user the model was trained on: row of the routed model's `X`
    /// matrix.
    Known(u32),
    /// A cold user: a rating history to fold in before scoring. Cold
    /// results are never cached (there is no stable key for them).
    Cold(Vec<(u32, f32)>),
}

/// One serving request: a [`Query`] plus routing hints.
///
/// Construct via the endpoint constructors — [`Request::known`] /
/// [`Request::cold`] for user → top-k (semantics unchanged from the v2
/// engine), [`Request::similar_items`], [`Request::similar_users`],
/// [`Request::rank_items`], and [`Request::explain`] — and target a
/// specific model with [`Request::for_model`]. The struct is
/// `#[non_exhaustive]`, so future fields are not breaking changes:
///
/// ```
/// use cumf_serve::engine::Request;
///
/// let r = Request::known(7, 3).for_model("challenger");
/// assert_eq!(r.id, 7);
/// assert_eq!(r.model.as_ref().unwrap().as_str(), "challenger");
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Request {
    /// Caller-chosen id, echoed in the [`Recommendation`].
    pub id: u64,
    /// What to score (see [`Query`] for the endpoint family).
    pub query: Query,
    /// Which model to score against. `None` routes via the registry's
    /// default alias, subject to any canary policy.
    pub model: Option<ModelId>,
}

impl Request {
    /// A request for `user`, routed by the registry (default alias or
    /// canary split). Shorthand for
    /// [`Request::query`]`(id, Query::User(user))`.
    pub fn new(id: u64, user: UserRef) -> Request {
        Request::query(id, Query::User(user))
    }

    /// A request for an arbitrary [`Query`], routed by the registry.
    pub fn query(id: u64, query: Query) -> Request {
        Request {
            id,
            query,
            model: None,
        }
    }

    /// A request for known user `user`.
    pub fn known(id: u64, user: u32) -> Request {
        Request::new(id, UserRef::Known(user))
    }

    /// A cold-start request folding in `history` before scoring.
    pub fn cold(id: u64, history: Vec<(u32, f32)>) -> Request {
        Request::new(id, UserRef::Cold(history))
    }

    /// An item → similar-items request: rank the catalog by `θ_v·Θᵀ`,
    /// excluding `item` itself.
    ///
    /// ```
    /// use cumf_serve::engine::{Query, Request};
    ///
    /// let r = Request::similar_items(1, 42);
    /// assert_eq!(r.query, Query::SimilarItems(42));
    /// ```
    pub fn similar_items(id: u64, item: u32) -> Request {
        Request::query(id, Query::SimilarItems(item))
    }

    /// A user → similar-users request: rank the model's users by
    /// `x_u·Xᵀ`, excluding `user` itself.
    ///
    /// ```
    /// use cumf_serve::engine::{Query, Request};
    ///
    /// let r = Request::similar_users(1, 7);
    /// assert_eq!(r.query, Query::SimilarUsers(7));
    /// ```
    pub fn similar_users(id: u64, user: u32) -> Request {
        Request::query(id, Query::SimilarUsers(user))
    }

    /// Rank a caller-supplied candidate `slate` for known user `user` —
    /// only the listed items are scored; the catalog scan is skipped.
    ///
    /// ```
    /// use cumf_serve::engine::{Query, Request};
    ///
    /// let r = Request::rank_items(1, 7, vec![3, 9, 4]);
    /// assert_eq!(
    ///     r.query,
    ///     Query::RankItems { user: 7, slate: vec![3, 9, 4] }
    /// );
    /// ```
    pub fn rank_items(id: u64, user: u32, slate: Vec<u32>) -> Request {
        Request::query(id, Query::RankItems { user, slate })
    }

    /// Explain one (user, item) score: the response carries the scored
    /// pair as its single item plus a per-factor
    /// [`Explanation`] on [`Recommendation::explanation`].
    ///
    /// ```
    /// use cumf_serve::engine::{Query, Request};
    ///
    /// let r = Request::explain(1, 7, 42);
    /// assert_eq!(r.query, Query::Explain { user: 7, item: 42 });
    /// ```
    pub fn explain(id: u64, user: u32, item: u32) -> Request {
        Request::query(id, Query::Explain { user, item })
    }

    /// Pin the request to a specific model, bypassing the default alias
    /// and any canary policy (builder-style).
    pub fn for_model(mut self, model: impl Into<ModelId>) -> Request {
        self.model = Some(model.into());
        self
    }
}

/// One served response.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Recommendation {
    /// The request's id.
    pub request_id: u64,
    /// The model that served the request (after routing).
    pub model: ModelId,
    /// That model's epoch the ranking was computed under.
    pub epoch: u64,
    /// Top-k candidates, best first. For [`Query::SimilarUsers`] responses
    /// the ids are *user* rows of `X`, not items; for [`Query::Explain`]
    /// this is the single explained pair carrying the exact served score.
    pub items: Vec<ScoredItem>,
    /// Whether the ranking came from the result cache.
    pub from_cache: bool,
    /// Per-factor score breakdown — `Some` only for [`Query::Explain`]
    /// responses.
    pub explanation: Option<Explanation>,
}

/// Builder for [`ServeEngine`]: configuration plus the initial model set.
///
/// At least one model is required ([`ServeError::NoModels`] otherwise);
/// the first registered model is the default alias unless
/// [`default_model`](ServeEngineBuilder::default_model) says otherwise.
/// More models can be registered after construction through
/// [`ServeEngine::registry`].
#[derive(Debug, Default)]
pub struct ServeEngineBuilder {
    cfg: Option<ServeConfig>,
    models: Vec<(ModelId, DenseMatrix, ModelSnapshot)>,
    default_model: Option<ModelId>,
    canary: Option<(ModelId, f64)>,
}

impl ServeEngineBuilder {
    /// Set the engine configuration (defaults to
    /// [`ServeConfig::default`]).
    pub fn config(mut self, cfg: ServeConfig) -> ServeEngineBuilder {
        self.cfg = Some(cfg);
        self
    }

    /// Register a model: `user_factors` (`X` from training) backs
    /// known-user requests, `snapshot` is its initial published epoch.
    pub fn model(
        mut self,
        id: impl Into<ModelId>,
        user_factors: DenseMatrix,
        snapshot: ModelSnapshot,
    ) -> ServeEngineBuilder {
        self.models.push((id.into(), user_factors, snapshot));
        self
    }

    /// Make `id` the default alias (must be one of the registered
    /// models).
    pub fn default_model(mut self, id: impl Into<ModelId>) -> ServeEngineBuilder {
        self.default_model = Some(id.into());
        self
    }

    /// Install a canary policy sending `fraction` of unaddressed traffic
    /// to `candidate` (see [`CanaryPolicy`]).
    pub fn canary(mut self, candidate: impl Into<ModelId>, fraction: f64) -> ServeEngineBuilder {
        self.canary = Some((candidate.into(), fraction));
        self
    }

    /// Build the engine: registers every model (first one bootstraps the
    /// registry), applies the default alias and canary policy.
    pub fn build(self) -> Result<ServeEngine, ServeError> {
        let cfg = self.cfg.unwrap_or_default();
        let mut models = self.models.into_iter();
        let (first_id, first_x, first_snap) = models.next().ok_or(ServeError::NoModels)?;
        let obs = Arc::new(ServeObs::new(cfg.obs));
        let registry = ModelRegistry::bootstrap(
            first_id,
            first_x,
            first_snap,
            cfg.shards,
            Arc::clone(&obs),
            cfg.memory_budget,
            cfg.ann_policy(),
        )?;
        for (id, x, snap) in models {
            registry.register(id, x, snap)?;
        }
        if let Some(id) = self.default_model {
            registry.set_default(&id)?;
        }
        if let Some((candidate, fraction)) = self.canary {
            registry.set_canary(CanaryPolicy::new(candidate, fraction))?;
        }
        let shard_metrics = (0..cfg.shards.max(1))
            .map(|i| obs.metrics().shard(i))
            .collect();
        Ok(ServeEngine {
            cache: StripedCache::new(cfg.cache_capacity, cfg.cache_stripes),
            registry,
            cfg,
            obs,
            shard_metrics,
            endpoint_journaled: Default::default(),
        })
    }
}

/// The batched top-k inference engine, routing over a keyed model
/// registry.
///
/// ```
/// use cumf_numeric::dense::DenseMatrix;
/// use cumf_serve::engine::{Request, ServeConfig, ServeEngine};
/// use cumf_serve::store::ModelSnapshot;
/// use cumf_telemetry::NOOP;
///
/// // 2 users × 3 items, f = 2, identity-ish factors.
/// let x = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
/// let theta = DenseMatrix::from_vec(3, 2, vec![0.9, 0.1, 0.1, 0.9, 0.5, 0.5]);
/// let engine = ServeEngine::builder()
///     .config(ServeConfig::default().with_k(1))
///     .model("default", x, ModelSnapshot::new(0, theta, vec![]))
///     .build()
///     .unwrap();
/// let out = engine.recommend_batch(&[Request::known(0, 0)], &NOOP);
/// let rec = out[0].as_ref().unwrap();
/// assert_eq!(rec.items[0].item, 0); // user 0 aligns with item 0
/// assert_eq!(rec.model.as_str(), "default");
/// ```
pub struct ServeEngine {
    registry: ModelRegistry,
    cache: StripedCache,
    cfg: ServeConfig,
    obs: Arc<ServeObs>,
    /// Registered-once-per-shard metric handles, indexed by shard.
    shard_metrics: Vec<ShardMetrics>,
    /// One flag per [`Endpoint`] (in [`Endpoint::ALL`] order), set when
    /// that endpoint first serves so the journal records
    /// `EndpointFirstServed` exactly once per engine.
    endpoint_journaled: [AtomicBool; 5],
}

/// One model's share of a batch, keyed by registry slot so iteration
/// order (and therefore span/timing order) is deterministic.
struct ModelGroup {
    entry: Arc<ModelEntry>,
    snapshot: Arc<ShardedSnapshot>,
    user_factors: Arc<DenseMatrix>,
    /// (request index, `Some(user)` when cacheable).
    to_score: Vec<(usize, Option<u32>)>,
    /// Cold histories, aligned with the `None` entries of `to_score`.
    cold_histories: Vec<Vec<(u32, f32)>>,
    /// Similar-items queries: (request index, query item id).
    similar_items: Vec<(usize, u32)>,
    /// Similar-users queries: (request index, query user id).
    similar_users: Vec<(usize, u32)>,
    /// Rank-slate queries: (request index, user, candidate slate).
    rank_slates: Vec<(usize, u32, Vec<u32>)>,
    /// Explain queries: (request index, user, item).
    explains: Vec<(usize, u32, u32)>,
}

impl ServeEngine {
    /// Start building an engine (see [`ServeEngineBuilder`]).
    pub fn builder() -> ServeEngineBuilder {
        ServeEngineBuilder::default()
    }

    /// The model registry: register/publish/retire models, move the
    /// default alias, and ramp/promote/rollback canaries — all while the
    /// engine serves; changes apply from the next batch.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The engine's observability bundle: typed metrics, the flight
    /// recorder, and the SLO tracker. Everything behind it is internally
    /// synchronized, so exposition can read while serving writes.
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// A shareable handle to the observability bundle (e.g. for an
    /// exposition endpoint or the admission queue's shed accounting).
    pub fn obs_arc(&self) -> Arc<ServeObs> {
        Arc::clone(&self.obs)
    }

    /// Engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Result-cache counters, summed over all stripes.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Wall-clock seconds since engine construction — the time base of the
    /// engine's telemetry events. Delegates to [`ServeObs::now`], so
    /// request spans, SLO buckets, and journal records all share one
    /// clock.
    pub fn now(&self) -> f64 {
        self.obs.now()
    }

    /// Evaluate the readiness checks against live engine state — the
    /// `/readyz` payload (see [`crate::obs::health`] for the
    /// liveness-vs-readiness model):
    ///
    /// * `default_model_live` — the registry's default alias resolves to
    ///   a live model (false after a `force_retire` drain);
    /// * `slo_fast_burn` — the short-window burn rate is below the
    ///   configured fast-burn threshold (the SLO gauges are refreshed as
    ///   a side effect, so burn transitions are journaled here too);
    /// * `memory_budget` — resident bytes are within the soft budget
    ///   (vacuously true when no budget is configured).
    pub fn health(&self) -> HealthStatus {
        let now = self.now();
        let default = self.registry.default_model();
        let default_live = self.registry.is_live(&default);
        let report = self.obs.refresh_slo_gauges(now);
        let firing = self.obs.fast_burn_firing();
        let short = &report.burn_rates[0];
        let threshold = self.obs.slo().config().fast_burn_threshold;
        let memory = match self.registry.memory_budget() {
            None => HealthCheck {
                name: "memory_budget",
                ok: true,
                detail: "no memory budget configured".to_string(),
            },
            Some(budget) => {
                let resident = self.memory_report().total_bytes();
                HealthCheck {
                    name: "memory_budget",
                    ok: resident <= budget,
                    detail: format!("resident {resident} B vs budget {budget} B"),
                }
            }
        };
        HealthStatus {
            checks: vec![
                HealthCheck {
                    name: "default_model_live",
                    ok: default_live,
                    detail: if default_live {
                        format!("default alias {default} resolves to a live model")
                    } else {
                        format!("default alias {default} is retired")
                    },
                },
                HealthCheck {
                    name: "slo_fast_burn",
                    ok: !firing,
                    detail: format!(
                        "burn {:.2} over {}s window vs threshold {threshold}",
                        short.burn, short.window_secs
                    ),
                },
                memory,
            ],
        }
    }

    /// The engine's full resident-bytes tree: the model registry (every
    /// model's stores, superseded epochs still alive behind `Arc`s, and
    /// user factors), the result cache (per stripe), and the flight
    /// recorder. Children provably sum to the total
    /// ([`FootprintReport::verify`]).
    pub fn memory_report(&self) -> FootprintReport {
        FootprintReport::branch(
            "engine",
            vec![
                self.registry.footprint(),
                self.cache.footprint(),
                self.obs.flight().footprint(),
            ],
        )
    }

    /// Refresh every memory gauge from live state and return the full
    /// tree: the registry's `serve_mem_bytes{component=,model=}` series
    /// (also refreshed automatically on register / publish / retire /
    /// promote / rollback), the engine-level `cache` and
    /// `flight_recorder` components, and the `serve_cache_entries` /
    /// `serve_cache_bytes` gauges. On demand rather than per batch — the
    /// cache walk is O(entries) — so call it before scraping.
    pub fn refresh_memory_gauges(&self) -> FootprintReport {
        self.registry.refresh_memory_gauges();
        let m = self.obs.metrics();
        let stats = self.cache.stats();
        m.cache_entries.set(stats.len as f64);
        m.cache_bytes.set(stats.bytes as f64);
        let report = self.memory_report();
        for child in report.children() {
            if child.name() != "registry" {
                m.mem_bytes(child.name(), "")
                    .set(child.total_bytes() as f64);
            }
        }
        m.mem_bytes("engine", "").set(report.total_bytes() as f64);
        report
    }

    /// Serve one known user (a batch of one), routed by the registry.
    pub fn recommend_user(
        &self,
        user: u32,
        recorder: &dyn Recorder,
    ) -> Result<Recommendation, ServeError> {
        self.recommend_batch(&[Request::known(user as u64, user)], recorder)
            .pop()
            .expect("batch of one returns one response")
    }

    /// Serve a micro-batch: route every request to a model, cache
    /// lookups, cold-start fold-in, one scatter-gather scoring pass per
    /// routed model, responses in request order.
    ///
    /// Failures are *per request*: a request that routes to an unknown or
    /// retired model, or names a user the routed model does not know,
    /// gets an `Err` in its slot while the rest of the batch is served
    /// normally (each failure also increments
    /// `serve_errors_total{reason=…}`).
    pub fn recommend_batch(
        &self,
        requests: &[Request],
        recorder: &dyn Recorder,
    ) -> Vec<Result<Recommendation, ServeError>> {
        self.recommend_batch_traced(requests, recorder).0
    }

    /// [`recommend_batch`](ServeEngine::recommend_batch) plus the batch's
    /// [`BatchTrace`]: six contiguous engine-clock timestamps bracketing
    /// the cache, fold-in, scatter, merge, and response stages, plus the
    /// `(model, epoch)` arms the batch served. The admission worker
    /// re-bases the trace onto each request as a
    /// [`crate::obs::RequestSpan`] whose stage durations telescope to its
    /// end-to-end latency.
    ///
    /// Always updates the engine's [`ServeObs`] metrics; additionally
    /// emits `serve.batch` / `serve.batch.*` phase spans (and per-shard
    /// `serve.shard{i}.score` spans from each model's scatter) when
    /// `recorder` is enabled.
    pub fn recommend_batch_traced(
        &self,
        requests: &[Request],
        recorder: &dyn Recorder,
    ) -> (Vec<Result<Recommendation, ServeError>>, BatchTrace) {
        let t0 = self.now();
        let table = self.registry.routing_table();

        // Pass 1: route every request, answer from cache (one stripe lock
        // per lookup), group the rest by model.
        let mut responses: Vec<Option<Result<Recommendation, ServeError>>> =
            vec![None; requests.len()];
        let mut groups: BTreeMap<u32, ModelGroup> = BTreeMap::new();
        let mut batch_hits = 0u64;
        let mut errors = 0usize;
        for (i, req) in requests.iter().enumerate() {
            // Every query kind routes on a stable key: user-keyed queries
            // by their user, similar-items by the *item* id (deterministic
            // per item, so canary arms cache consistently), cold starts by
            // request id.
            let route_key = match &req.query {
                Query::User(UserRef::Known(u)) => RouteKey::User(*u),
                Query::User(UserRef::Cold(_)) => RouteKey::Cold(req.id),
                Query::SimilarItems(v) => RouteKey::User(*v),
                Query::SimilarUsers(u) => RouteKey::User(*u),
                Query::RankItems { user, .. } => RouteKey::User(*user),
                Query::Explain { user, .. } => RouteKey::User(*user),
            };
            let entry = match table.route(req.model.as_ref(), route_key) {
                Ok(entry) => entry,
                Err(e) => {
                    self.obs.metrics().error(e.reason()).inc();
                    errors += 1;
                    responses[i] = Some(Err(e));
                    continue;
                }
            };
            let group = groups.entry(entry.slot).or_insert_with(|| ModelGroup {
                snapshot: entry.store.snapshot(),
                user_factors: entry.user_factors(),
                entry,
                to_score: Vec::new(),
                cold_histories: Vec::new(),
                similar_items: Vec::new(),
                similar_users: Vec::new(),
                rank_slates: Vec::new(),
                explains: Vec::new(),
            });
            group.entry.metrics.requests.inc();
            let epoch = group.snapshot.epoch();
            let n_users = group.user_factors.rows();
            let n_items = group.snapshot.n_items();
            let unknown_user = |user: u32| ServeError::UnknownUser {
                user,
                n_users,
                model: group.entry.id.clone(),
            };
            let unknown_item = |item: u32| ServeError::UnknownItem {
                item,
                n_items,
                model: group.entry.id.clone(),
            };
            // Validation per endpoint; `Err` short-circuits the request,
            // `Ok(None)` means queued for scoring, `Ok(Some(items))` is a
            // cache hit.
            let outcome: Result<Option<Vec<ScoredItem>>, ServeError> = match &req.query {
                Query::User(UserRef::Known(u)) => {
                    if (*u as usize) >= n_users {
                        Err(unknown_user(*u))
                    } else {
                        let key = CacheKey {
                            model: group.entry.slot,
                            epoch,
                            user: *u,
                            endpoint: Endpoint::TopK,
                            retrieval: self.cfg.score.retrieval,
                        };
                        match self.cache.get(&key) {
                            Some(items) => Ok(Some(items)),
                            None => {
                                group.to_score.push((i, Some(*u)));
                                Ok(None)
                            }
                        }
                    }
                }
                Query::User(UserRef::Cold(history)) => {
                    group.to_score.push((i, None));
                    group.cold_histories.push(history.clone());
                    Ok(None)
                }
                Query::SimilarItems(v) => {
                    if (*v as usize) >= n_items {
                        Err(unknown_item(*v))
                    } else {
                        let key = CacheKey {
                            model: group.entry.slot,
                            epoch,
                            user: *v,
                            endpoint: Endpoint::SimilarItems,
                            retrieval: self.cfg.score.retrieval,
                        };
                        match self.cache.get(&key) {
                            Some(items) => Ok(Some(items)),
                            None => {
                                group.similar_items.push((i, *v));
                                Ok(None)
                            }
                        }
                    }
                }
                Query::SimilarUsers(u) => {
                    if n_users == 0 {
                        Err(ServeError::NoUserFactors(group.entry.id.clone()))
                    } else if (*u as usize) >= n_users {
                        Err(unknown_user(*u))
                    } else {
                        group.similar_users.push((i, *u));
                        Ok(None)
                    }
                }
                Query::RankItems { user, slate } => {
                    if (*user as usize) >= n_users {
                        Err(unknown_user(*user))
                    } else if slate.is_empty() {
                        Err(ServeError::EmptySlate)
                    } else if let Some(&bad) = slate.iter().find(|&&v| (v as usize) >= n_items) {
                        Err(unknown_item(bad))
                    } else {
                        group.rank_slates.push((i, *user, slate.clone()));
                        Ok(None)
                    }
                }
                Query::Explain { user, item } => {
                    if (*user as usize) >= n_users {
                        Err(unknown_user(*user))
                    } else if (*item as usize) >= n_items {
                        Err(unknown_item(*item))
                    } else {
                        group.explains.push((i, *user, *item));
                        Ok(None)
                    }
                }
            };
            match outcome {
                Ok(None) => {}
                Ok(Some(items)) => {
                    batch_hits += 1;
                    group.entry.metrics.cache_hits.inc();
                    responses[i] = Some(Ok(Recommendation {
                        request_id: req.id,
                        model: group.entry.id.clone(),
                        epoch,
                        items,
                        from_cache: true,
                        explanation: None,
                    }));
                }
                Err(e) => {
                    self.obs.metrics().error(e.reason()).inc();
                    errors += 1;
                    responses[i] = Some(Err(e));
                }
            }
        }
        let t1 = self.now();

        // Pass 2: per model (slot order), fold cold users against that
        // model's full Θ and assemble its batch factor matrix.
        let mut batches: BTreeMap<u32, DenseMatrix> = BTreeMap::new();
        for (&slot, group) in &groups {
            let folded = if group.cold_histories.is_empty() {
                None
            } else {
                Some(fold_in_batch(
                    group.snapshot.full().item_factors(),
                    &group.cold_histories,
                    self.cfg.lambda,
                    &self.cfg.solver,
                ))
            };
            let mut batch = DenseMatrix::zeros(group.to_score.len(), group.snapshot.f());
            let mut next_cold = 0usize;
            for (row, (_, user)) in group.to_score.iter().enumerate() {
                let src = match user {
                    Some(u) => group.user_factors.row(*u as usize),
                    None => {
                        let r = folded
                            .as_ref()
                            .expect("cold rows were folded")
                            .row(next_cold);
                        next_cold += 1;
                        r
                    }
                };
                batch.row_mut(row).copy_from_slice(src);
            }
            batches.insert(slot, batch);
        }
        // Query matrices for the vector endpoints: similar-items rows are
        // Θ rows of the query items, similar-users rows are X rows of the
        // query users — both resolve to "score this vector against a
        // target matrix", which is the query abstraction's whole point.
        let mut item_query_batches: BTreeMap<u32, DenseMatrix> = BTreeMap::new();
        let mut user_query_batches: BTreeMap<u32, DenseMatrix> = BTreeMap::new();
        for (&slot, group) in &groups {
            if !group.similar_items.is_empty() {
                let f = group.snapshot.f();
                let mut q = DenseMatrix::zeros(group.similar_items.len(), f);
                for (row, (_, v)) in group.similar_items.iter().enumerate() {
                    q.row_mut(row)
                        .copy_from_slice(group.snapshot.full().item_row(*v as usize));
                }
                item_query_batches.insert(slot, q);
            }
            if !group.similar_users.is_empty() {
                let f = group.user_factors.cols();
                let mut q = DenseMatrix::zeros(group.similar_users.len(), f);
                for (row, (_, u)) in group.similar_users.iter().enumerate() {
                    q.row_mut(row)
                        .copy_from_slice(group.user_factors.row(*u as usize));
                }
                user_query_batches.insert(slot, q);
            }
        }
        let t2 = self.now();

        // Pass 3: scatter each model's micro-batch across its shards
        // (slot order, so per-shard `serve.shard{i}.score` spans land
        // deterministically), then gather per-shard heaps into global
        // rankings.
        let mut scatters = Vec::with_capacity(groups.len());
        for (slot, group) in &groups {
            let scatter_rec: &dyn Recorder = if group.to_score.is_empty() {
                &NOOP
            } else {
                recorder
            };
            let scatter = scatter_top_k(
                &group.snapshot,
                &batches[slot],
                self.cfg.k,
                &self.cfg.score,
                scatter_rec,
                self.now(),
            );
            scatters.push((*slot, scatter));
        }
        // Vector-endpoint scoring rides the same score window. The
        // scatters run with a silent recorder so the per-shard span stream
        // stays exactly the top-k path's; their work is still accounted in
        // the shard timings merged below.
        let mut item_scatters = Vec::new();
        let mut user_scatters = Vec::new();
        let mut slate_ranked: BTreeMap<u32, Vec<Vec<ScoredItem>>> = BTreeMap::new();
        let mut slate_timings: Vec<ShardTiming> = Vec::new();
        let mut explained: BTreeMap<u32, Vec<(Explanation, f32)>> = BTreeMap::new();
        for (slot, group) in &groups {
            if let Some(q) = item_query_batches.get(slot) {
                // k+1 candidates: the query item ranks itself first more
                // often than not, and one spare guarantees k survivors
                // after self-exclusion. Runs under the engine's ScoreConfig,
                // so similar-items gets the ANN dial and FP16 path free.
                let scatter = scatter_top_k(
                    &group.snapshot,
                    q,
                    self.cfg.k + 1,
                    &self.cfg.score,
                    &NOOP,
                    self.now(),
                );
                item_scatters.push((*slot, scatter));
            }
            if let Some(q) = user_query_batches.get(slot) {
                // The user side always scans exactly in FP32: X carries no
                // FP16/int8/centroid sidecars, and building them per batch
                // would cost more than the scan they would save.
                let user_cfg = ScoreConfig {
                    retrieval: Retrieval::Exact,
                    use_fp16: false,
                    ..self.cfg.score
                };
                let scatter = scatter_top_k(
                    &group.entry.user_side_snapshot(),
                    q,
                    self.cfg.k + 1,
                    &user_cfg,
                    &NOOP,
                    self.now(),
                );
                user_scatters.push((*slot, scatter));
            }
            for (_, user, slate) in &group.rank_slates {
                let (items, timings) = rank_slate_sharded(
                    &group.snapshot,
                    group.user_factors.row(*user as usize),
                    slate,
                    self.cfg.k,
                );
                slate_timings.extend(timings);
                slate_ranked.entry(*slot).or_default().push(items);
            }
            for (_, user, item) in &group.explains {
                let (e, score) = explain_one(
                    group.snapshot.full(),
                    group.user_factors.row(*user as usize),
                    *item as usize,
                );
                explained.entry(*slot).or_default().push((e, score));
            }
        }
        let t3 = self.now();
        let mut shard_timings: Vec<ShardTiming> = Vec::new();
        let mut ranked: BTreeMap<u32, Vec<Vec<ScoredItem>>> = BTreeMap::new();
        for (slot, scatter) in scatters {
            let (rankings, timings) = scatter.gather(self.cfg.k);
            if !groups[&slot].to_score.is_empty() {
                shard_timings.extend(timings);
            }
            ranked.insert(slot, rankings);
        }
        let mut item_ranked: BTreeMap<u32, Vec<Vec<ScoredItem>>> = BTreeMap::new();
        for (slot, scatter) in item_scatters {
            let (rankings, timings) = scatter.gather(self.cfg.k + 1);
            shard_timings.extend(timings);
            item_ranked.insert(slot, rankings);
        }
        let mut user_ranked: BTreeMap<u32, Vec<Vec<ScoredItem>>> = BTreeMap::new();
        for (slot, scatter) in user_scatters {
            let (rankings, timings) = scatter.gather(self.cfg.k + 1);
            shard_timings.extend(timings);
            user_ranked.insert(slot, rankings);
        }
        shard_timings.extend(slate_timings);
        let t4 = self.now();

        // Pass 4: fill cache, assemble responses in request order.
        let mut scored_users = 0usize;
        let mut cold_users = 0usize;
        // Only the cacheable endpoints (top-k known users, similar-items)
        // count as cache misses; the uncached endpoints are scored work
        // but never a miss.
        let mut cacheable_misses = 0u64;
        for (&slot, group) in &groups {
            let known_misses = group.to_score.len() - group.cold_histories.len();
            scored_users += known_misses
                + group.similar_items.len()
                + group.similar_users.len()
                + group.rank_slates.len()
                + group.explains.len();
            cold_users += group.cold_histories.len();
            cacheable_misses += (known_misses + group.similar_items.len()) as u64;
            let epoch = group.snapshot.epoch();
            let respond = |request_id: u64, items: Vec<ScoredItem>, explanation| {
                Ok(Recommendation {
                    request_id,
                    model: group.entry.id.clone(),
                    epoch,
                    items,
                    from_cache: false,
                    explanation,
                })
            };
            for ((i, user), items) in group.to_score.iter().zip(&ranked[&slot]) {
                if let Some(u) = user {
                    self.cache.insert(
                        CacheKey {
                            model: slot,
                            epoch,
                            user: *u,
                            endpoint: Endpoint::TopK,
                            retrieval: self.cfg.score.retrieval,
                        },
                        items.clone(),
                    );
                }
                responses[*i] = Some(respond(requests[*i].id, items.clone(), None));
            }
            if let Some(rankings) = item_ranked.get(&slot) {
                for ((i, v), items) in group.similar_items.iter().zip(rankings) {
                    // Self-exclusion: drop the query item, keep the best k.
                    // Filtering the k+1 ranking is provably identical to
                    // excluding before selection under the total order.
                    let items: Vec<ScoredItem> = items
                        .iter()
                        .filter(|s| s.item != *v)
                        .take(self.cfg.k)
                        .copied()
                        .collect();
                    self.cache.insert(
                        CacheKey {
                            model: slot,
                            epoch,
                            user: *v,
                            endpoint: Endpoint::SimilarItems,
                            retrieval: self.cfg.score.retrieval,
                        },
                        items.clone(),
                    );
                    responses[*i] = Some(respond(requests[*i].id, items, None));
                }
            }
            if let Some(rankings) = user_ranked.get(&slot) {
                for ((i, u), items) in group.similar_users.iter().zip(rankings) {
                    let items: Vec<ScoredItem> = items
                        .iter()
                        .filter(|s| s.item != *u)
                        .take(self.cfg.k)
                        .copied()
                        .collect();
                    responses[*i] = Some(respond(requests[*i].id, items, None));
                }
            }
            if let Some(per_req) = slate_ranked.get(&slot) {
                for ((i, _, _), items) in group.rank_slates.iter().zip(per_req) {
                    responses[*i] = Some(respond(requests[*i].id, items.clone(), None));
                }
            }
            if let Some(per_req) = explained.get(&slot) {
                for ((i, _, item), (e, score)) in group.explains.iter().zip(per_req) {
                    responses[*i] = Some(respond(
                        requests[*i].id,
                        vec![ScoredItem {
                            item: *item,
                            score: *score,
                        }],
                        Some(e.clone()),
                    ));
                }
            }
        }
        let t5 = self.now();

        let arms: Vec<(ModelId, u64)> = groups
            .values()
            .map(|g| (g.entry.id.clone(), g.snapshot.epoch()))
            .collect();
        // Factor bytes the scatter passes streamed: per-shard accounting
        // ([`ShardTiming::bytes`] — analytic on the exact path, measured
        // on the approximate one), summed over every arm. Cache hits
        // never reach a scatter, so they contribute nothing.
        let scan_bytes: u64 = shard_timings.iter().map(|t| t.bytes).sum();
        let score_flops: u64 = shard_timings.iter().map(|t| t.flops).sum();
        let approx = !self.cfg.score.retrieval.is_exact();
        let ann_probed: u64 = shard_timings.iter().map(|t| t.probed_clusters).sum();
        let ann_rescored: u64 = shard_timings.iter().map(|t| t.rescored).sum();
        // Stage-2 candidate rows under the approximate mode; 0 on exact
        // engines, where ShardTiming::scored is the full scan.
        let ann_candidates: u64 = if approx {
            shard_timings.iter().map(|t| t.scored).sum()
        } else {
            0
        };
        let trace = BatchTrace {
            start: t0,
            cache_done: t1,
            foldin_done: t2,
            score_done: t3,
            merge_done: t4,
            end: t5,
            requests: requests.len(),
            cache_hits: batch_hits as usize,
            cold_users,
            scored_users,
            errors,
            arms,
            shard_timings,
            scan_bytes,
            score_flops,
            ann_probed,
            ann_candidates,
            ann_rescored,
        };

        // Always-on typed metrics (lock-free counters, striped by thread).
        let m = self.obs.metrics();
        m.requests.add(requests.len() as u64);
        m.batches.inc();
        m.cache_hits.add(batch_hits);
        m.cache_misses.add(cacheable_misses);
        m.cold_users.add(cold_users as u64);
        m.scan_bytes.add(scan_bytes);
        m.ann_probed.add(trace.ann_probed);
        m.ann_candidates.add(trace.ann_candidates);
        m.ann_rescored.add(trace.ann_rescored);
        // Count the requests a missing artifact silently degraded, per
        // model: FP16 asked for but the epoch has no FP16 copy (scanned
        // in FP32), or approx retrieval asked for but the shards have no
        // centroid index (scanned exactly — rare, the registry's policy
        // builds it, but a recall dial that silently reads 4× the bytes
        // must be visible). Each reads what the shard scans read.
        for group in groups.values() {
            let scans = (group.to_score.len() + group.similar_items.len()) as u64;
            if self.cfg.score.use_fp16 && scans > 0 && !group.snapshot.full().has_fp16() {
                group.entry.metrics.fp16_fallback.add(scans);
            }
            if approx && scans > 0 && !group.snapshot.has_ann() {
                group.entry.metrics.ann_fallback.add(scans);
            }
        }
        if let Some(default) = table.entries.get(table.router.default_model()) {
            m.epoch.set(default.store.epoch() as f64);
        }
        // Per-endpoint accounting: one request count and one batch-time
        // latency observation per request, plus a once-per-engine journal
        // record the first time each endpoint serves.
        for req in requests {
            let ep = req.query.endpoint();
            let handles = m.endpoint(ep);
            handles.requests.inc();
            handles.latency.observe_secs(t5 - t0);
            let idx = Endpoint::ALL
                .iter()
                .position(|e| *e == ep)
                .expect("endpoint in ALL");
            if !self.endpoint_journaled[idx].swap(true, Ordering::Relaxed) {
                self.obs.journal().record(
                    t5,
                    None,
                    EventKind::EndpointFirstServed {
                        endpoint: ep.name(),
                    },
                );
            }
        }
        m.observe_batch_stages(&trace);
        for t in &trace.shard_timings {
            if let Some(sm) = self.shard_metrics.get(t.shard) {
                sm.scored.add(t.scored);
                sm.pass_seconds.observe_secs(t.secs);
            }
        }

        // Event-stream spans for Chrome traces (each model's scatter
        // already emitted its per-shard spans inside [t2, t3]).
        if recorder.enabled() {
            recorder.phase(PhaseSpan::new("serve.batch", t0, t5));
            recorder.phase(PhaseSpan::new("serve.batch.cache", t0, t1));
            recorder.phase(PhaseSpan::new("serve.batch.foldin", t1, t2));
            recorder.phase(PhaseSpan::new("serve.batch.merge", t3, t4));
            recorder.phase(PhaseSpan::new("serve.batch.respond", t4, t5));
        }

        let out = responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect();
        (out, trace)
    }
}

impl MemoryFootprint for ServeEngine {
    /// Alias for [`ServeEngine::memory_report`].
    fn footprint(&self) -> FootprintReport {
        self.memory_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_telemetry::{MemoryRecorder, NOOP};
    use rand::prelude::*;

    fn factors(users: usize, items: usize, f: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = DenseMatrix::zeros(users, f);
        x.fill_with(|| rng.gen_f32() - 0.5);
        let mut theta = DenseMatrix::zeros(items, f);
        theta.fill_with(|| rng.gen_f32() - 0.5);
        (x, theta)
    }

    fn engine(users: usize, items: usize, f: usize, cfg: ServeConfig) -> ServeEngine {
        let (x, theta) = factors(users, items, f, 99);
        ServeEngine::builder()
            .config(cfg)
            .model("default", x, ModelSnapshot::new(0, theta, vec![]))
            .build()
            .unwrap()
    }

    fn known(ids: &[u32]) -> Vec<Request> {
        ids.iter().map(|&u| Request::known(u as u64, u)).collect()
    }

    fn unwrap_all(out: Vec<Result<Recommendation, ServeError>>) -> Vec<Recommendation> {
        out.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn batch_answers_in_request_order() {
        let e = engine(10, 30, 4, ServeConfig::default());
        let out = unwrap_all(e.recommend_batch(&known(&[3, 1, 4, 1, 5]), &NOOP));
        assert_eq!(
            out.iter().map(|r| r.request_id).collect::<Vec<_>>(),
            vec![3, 1, 4, 1, 5]
        );
        assert!(out.iter().all(|r| r.items.len() == 10));
        assert!(out.iter().all(|r| r.model.as_str() == "default"));
    }

    #[test]
    fn second_lookup_hits_cache_bit_identically() {
        let e = engine(5, 40, 6, ServeConfig::default());
        let cold = e.recommend_user(2, &NOOP).unwrap();
        assert!(!cold.from_cache);
        let warm = e.recommend_user(2, &NOOP).unwrap();
        assert!(warm.from_cache);
        assert_eq!(cold.items, warm.items, "cache must be bit-identical");
        let s = e.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn duplicate_users_in_one_batch_agree_then_hit() {
        let e = engine(4, 20, 3, ServeConfig::default());
        // Same user twice in one batch: both scored this round (the second
        // is enqueued before the first's insert), identical results.
        let out = unwrap_all(e.recommend_batch(&known(&[0, 0]), &NOOP));
        assert_eq!(out[0].items, out[1].items);
        // Next batch hits.
        let again = unwrap_all(e.recommend_batch(&known(&[0]), &NOOP));
        assert!(again[0].from_cache);
    }

    #[test]
    fn publish_invalidates_cache_by_keying() {
        let e = engine(3, 15, 4, ServeConfig::default());
        let id = e.registry().default_model();
        let before = e.recommend_user(1, &NOOP).unwrap();
        let mut theta2 = e
            .registry()
            .snapshot(&id)
            .unwrap()
            .full()
            .item_factors()
            .clone();
        cumf_numeric::dense::scale(-1.0, theta2.as_mut_slice());
        e.registry()
            .publish(&id, ModelSnapshot::new(1, theta2, vec![]))
            .unwrap();
        let after = e.recommend_user(1, &NOOP).unwrap();
        assert!(!after.from_cache, "new epoch must not hit old entries");
        assert_eq!(after.epoch, 1);
        assert_ne!(before.items, after.items);
    }

    #[test]
    fn cold_user_with_history_gets_nonzero_scores() {
        let e = engine(2, 25, 5, ServeConfig::default());
        let history: Vec<(u32, f32)> = (0..8).map(|v| (v, 4.0)).collect();
        let out = unwrap_all(e.recommend_batch(&[Request::cold(7, history)], &NOOP));
        assert!(!out[0].from_cache);
        assert!(out[0].items.iter().any(|s| s.score != 0.0));
    }

    #[test]
    fn mixed_batch_counts_typed_metrics() {
        let e = engine(6, 20, 3, ServeConfig::default());
        e.recommend_user(0, &NOOP).unwrap(); // warm one entry
        let rec = MemoryRecorder::new();
        let mut reqs = known(&[0, 1]);
        reqs.push(Request::cold(100, vec![(0, 5.0)]));
        let m = e.obs().metrics();
        let (req0, hit0) = (m.requests.get(), m.cache_hits.get());
        e.recommend_batch(&reqs, &rec);
        assert_eq!(m.requests.get() - req0, 3);
        assert_eq!(m.cache_hits.get() - hit0, 1);
        assert_eq!(m.cache_misses.get(), 1 + 1); // warming miss + user 1
        assert_eq!(m.cold_users.get(), 1);
        assert_eq!(m.batches.get(), 2);
        // Per-shard handles saw the scoring pass (1 shard by default).
        assert!(e.obs().metrics().shard(0).scored.get() > 0);
        // Per-model handles saw every routed request.
        assert_eq!(m.model("default").requests.get(), 4);
        assert_eq!(m.model("default").cache_hits.get(), 1);
        // The event stream carries the batch + stage + shard spans.
        let names: Vec<String> = rec
            .phase_spans()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        for want in [
            "serve.shard0.score",
            "serve.batch",
            "serve.batch.cache",
            "serve.batch.foldin",
            "serve.batch.merge",
            "serve.batch.respond",
        ] {
            assert!(
                names.contains(&want.to_string()),
                "missing {want}: {names:?}"
            );
        }
        // And the Prometheus exposition renders the same counts.
        let text = e.obs().render_prometheus(e.now());
        assert!(text.contains("serve_cold_users_total 1"));
        assert!(text.contains("serve_shard_scored_total{shard=\"0\"}"));
        assert!(text.contains("serve_stage_seconds_count{stage=\"score\"} 2"));
        assert!(text.contains("serve_model_requests_total{model=\"default\"} 4"));
    }

    #[test]
    fn batch_trace_timestamps_are_contiguous_and_counted() {
        let e = engine(8, 30, 4, ServeConfig::default().with_shards(3));
        e.recommend_user(2, &NOOP).unwrap(); // warm one entry
        let mut reqs = known(&[2, 3]);
        reqs.push(Request::cold(50, vec![(1, 3.0)]));
        let (out, trace) = e.recommend_batch_traced(&reqs, &NOOP);
        assert_eq!(out.len(), 3);
        // Monotone, contiguous boundaries.
        let ts = [
            trace.start,
            trace.cache_done,
            trace.foldin_done,
            trace.score_done,
            trace.merge_done,
            trace.end,
        ];
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        assert_eq!(
            (
                trace.requests,
                trace.cache_hits,
                trace.cold_users,
                trace.scored_users,
                trace.errors,
            ),
            (3, 1, 1, 1, 0)
        );
        assert_eq!(trace.shard_timings.len(), 3);
        assert_eq!(trace.arms, vec![(ModelId::from("default"), 0)]);
    }

    #[test]
    fn batch_scan_bytes_count_scored_users_not_cache_hits() {
        let e = engine(8, 30, 4, ServeConfig::default());
        let (_, trace) = e.recommend_batch_traced(&known(&[0, 1]), &NOOP);
        // One chunk of 2 users scans all of Θ once: 30 items × f=4 × 4 B.
        assert_eq!(trace.scan_bytes, 30 * 4 * 4);
        assert_eq!(e.obs().metrics().scan_bytes.get(), trace.scan_bytes);
        // An all-hit batch streams nothing.
        let (_, warm) = e.recommend_batch_traced(&known(&[0, 1]), &NOOP);
        assert_eq!(warm.scan_bytes, 0);
        assert_eq!(e.obs().metrics().scan_bytes.get(), trace.scan_bytes);
        // Sharding re-partitions the same scan: byte totals are invariant.
        let sharded = engine(8, 30, 4, ServeConfig::default().with_shards(3));
        let (_, t3) = sharded.recommend_batch_traced(&known(&[0, 1]), &NOOP);
        assert_eq!(t3.scan_bytes, trace.scan_bytes);
    }

    #[test]
    fn fp16_fallback_is_counted_per_model() {
        let score = ScoreConfig {
            use_fp16: true,
            ..ScoreConfig::default()
        };
        let e = engine(6, 20, 3, ServeConfig::default().with_score(score));
        // The snapshot has no FP16 copy: every scored request falls back.
        e.recommend_batch(&known(&[0, 1, 2]), &NOOP);
        let m = e.obs().metrics().model("default");
        assert_eq!(m.fp16_fallback.get(), 3);
        // Cache hits bypass the scan and are not counted.
        e.recommend_batch(&known(&[0, 1]), &NOOP);
        assert_eq!(m.fp16_fallback.get(), 3);
        // Publishing a snapshot that carries FP16 stops the fallback.
        let id = e.registry().default_model();
        let theta = e
            .registry()
            .snapshot(&id)
            .unwrap()
            .full()
            .item_factors()
            .clone();
        e.registry()
            .publish(&id, ModelSnapshot::new(1, theta, vec![]).with_fp16())
            .unwrap();
        e.recommend_batch(&known(&[3, 4]), &NOOP);
        assert_eq!(m.fp16_fallback.get(), 3);
        // An engine not asking for FP16 never counts.
        let plain = engine(6, 20, 3, ServeConfig::default());
        plain.recommend_batch(&known(&[0]), &NOOP);
        assert_eq!(
            plain.obs().metrics().model("default").fp16_fallback.get(),
            0
        );
    }

    #[test]
    fn memory_report_sums_registry_cache_and_flight() {
        let e = engine(6, 20, 3, ServeConfig::default());
        let empty = e.memory_report();
        assert!(empty.verify());
        let names: Vec<&str> = empty.children().iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["registry", "cache", "flight_recorder"]);
        // Serving fills the cache, so resident bytes grow.
        e.recommend_batch(&known(&[0, 1, 2]), &NOOP);
        let report = e.refresh_memory_gauges();
        assert!(report.verify());
        assert!(report.total_bytes() > empty.total_bytes());
        let m = e.obs().metrics();
        assert_eq!(m.cache_entries.get(), 3.0);
        assert_eq!(m.cache_bytes.get() as u64, e.cache_stats().bytes);
        assert_eq!(m.mem_bytes("engine", "").get() as u64, report.total_bytes());
        let text = e.obs().render_prometheus(e.now());
        assert!(text.contains("serve_mem_bytes{component=\"engine\",model=\"\"}"));
        assert!(text.contains("serve_mem_bytes{component=\"model\",model=\"default\"}"));
        assert!(text.contains("serve_cache_entries 3"));
    }

    #[test]
    fn health_reports_ready_then_flips_on_force_retire() {
        let e = engine(6, 20, 3, ServeConfig::default());
        let status = e.health();
        assert!(status.ready(), "fresh engine must be ready: {status:?}");
        assert_eq!(status.checks.len(), 3);
        e.registry()
            .force_retire(&e.registry().default_model())
            .unwrap();
        let drained = e.health();
        assert!(!drained.ready());
        assert_eq!(drained.failing(), vec!["default_model_live"]);
        // A drained default fails requests instead of panicking.
        let out = e.recommend_batch(&known(&[0]), &NOOP);
        assert!(matches!(
            out[0].as_ref().unwrap_err(),
            ServeError::RetiredModel(_)
        ));
    }

    #[test]
    fn health_flips_when_the_memory_budget_is_exceeded() {
        let (x, theta) = factors(4, 10, 2, 3);
        let e = ServeEngine::builder()
            .config(ServeConfig::default().with_memory_budget(1))
            .model("default", x, ModelSnapshot::new(0, theta, vec![]))
            .build()
            .unwrap();
        let status = e.health();
        assert!(!status.ready());
        assert_eq!(status.failing(), vec!["memory_budget"]);
    }

    #[test]
    fn health_flips_while_the_slo_fast_burns() {
        let e = engine(4, 10, 2, ServeConfig::default());
        assert!(e.health().ready());
        // A burst of sheds torches the 1 s window: burn 100 ≥ 10.
        let now = e.now();
        for i in 0..20 {
            e.obs().observe_shed(now + i as f64 * 1e-4);
        }
        let burning = e.health();
        assert!(!burning.ready());
        assert_eq!(burning.failing(), vec!["slo_fast_burn"]);
        // The journal recorded the transition in.
        assert!(e
            .obs()
            .journal()
            .records()
            .iter()
            .any(|r| r.kind.name() == "SloBurnEntered"));
    }

    #[test]
    fn sharded_engine_matches_unsharded() {
        let reqs = known(&[0, 2, 4, 1]);
        let base = engine(6, 37, 4, ServeConfig::default());
        let want = unwrap_all(base.recommend_batch(&reqs, &NOOP));
        for shards in [2, 3, 8] {
            let e = engine(6, 37, 4, ServeConfig::default().with_shards(shards));
            let got = unwrap_all(e.recommend_batch(&reqs, &NOOP));
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.items, b.items, "shards={shards}");
            }
        }
    }

    #[test]
    fn unknown_user_is_an_error_not_a_panic() {
        let e = engine(2, 10, 2, ServeConfig::default());
        // The bad request fails alone; its neighbors are served.
        let out = e.recommend_batch(&known(&[0, 5, 1]), &NOOP);
        assert!(out[0].is_ok() && out[2].is_ok());
        let err = out[1].as_ref().unwrap_err();
        assert!(matches!(
            err,
            ServeError::UnknownUser {
                user: 5,
                n_users: 2,
                ..
            }
        ));
        // Counted under its reason label.
        let text = e.obs().render_prometheus(e.now());
        assert!(text.contains("serve_errors_total{reason=\"unknown_user\"} 1"));
    }

    #[test]
    fn explicit_model_ids_route_past_the_canary() {
        let (x, theta) = factors(6, 20, 3, 1);
        let (x2, mut theta2) = (x.clone(), theta.clone());
        cumf_numeric::dense::scale(-1.0, theta2.as_mut_slice());
        let e = ServeEngine::builder()
            .model("champion", x, ModelSnapshot::new(0, theta, vec![]))
            .model("challenger", x2, ModelSnapshot::new(0, theta2, vec![]))
            .canary("challenger", 1.0)
            .build()
            .unwrap();
        // fraction 1.0: unaddressed traffic goes to the challenger…
        let routed = e.recommend_user(0, &NOOP).unwrap();
        assert_eq!(routed.model.as_str(), "challenger");
        // …but an explicit id bypasses the split.
        let pinned =
            unwrap_all(e.recommend_batch(&[Request::known(0, 0).for_model("champion")], &NOOP));
        assert_eq!(pinned[0].model.as_str(), "champion");
        assert_ne!(pinned[0].items, routed.items, "the arms differ");
        // Unknown and retired models fail per-request.
        let out = e.recommend_batch(&[Request::known(1, 1).for_model("ghost")], &NOOP);
        assert!(matches!(
            out[0].as_ref().unwrap_err(),
            ServeError::UnknownModel(_)
        ));
    }

    fn approx_config(n_probe: usize) -> ServeConfig {
        ServeConfig::default()
            .with_score(ScoreConfig {
                retrieval: Retrieval::Approx {
                    n_probe,
                    quant: QuantMode::Int8,
                },
                ..ScoreConfig::default()
            })
            .with_ann(AnnParams {
                k_clusters: 16,
                ..AnnParams::default()
            })
    }

    #[test]
    fn approx_engine_attaches_the_index_and_cuts_scan_bytes() {
        let exact = engine(8, 600, 8, ServeConfig::default());
        let approx = engine(8, 600, 8, approx_config(4));
        // The builder-derived policy attached both sidecars.
        let id = approx.registry().default_model();
        let held = approx.registry().snapshot(&id).unwrap();
        assert!(held.has_ann() && held.shards().iter().all(|s| s.int8.is_some()));
        let reqs = known(&[0, 1, 2, 3]);
        let (want, te) = exact.recommend_batch_traced(&reqs, &NOOP);
        let (got, ta) = approx.recommend_batch_traced(&reqs, &NOOP);
        assert!(
            ta.scan_bytes < te.scan_bytes,
            "{} vs {}",
            ta.scan_bytes,
            te.scan_bytes
        );
        assert!(ta.ann_probed > 0 && ta.ann_candidates > 0 && ta.ann_rescored > 0);
        assert_eq!(te.ann_probed, 0, "exact engines never probe");
        // The shortlist rescore keeps the rankings close to exact.
        let mut recall = 0.0;
        for (a, b) in want.iter().zip(&got) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            recall += crate::metrics::overlap_at_k(&a.items, &b.items, 10);
        }
        assert!(recall / 4.0 >= 0.9, "recall@10 {}", recall / 4.0);
        // The ann counters reached the typed metrics and exposition.
        let m = approx.obs().metrics();
        assert_eq!(m.ann_probed.get(), ta.ann_probed);
        assert_eq!(m.ann_candidates.get(), ta.ann_candidates);
        assert_eq!(m.ann_rescored.get(), ta.ann_rescored);
        let text = approx.obs().render_prometheus(approx.now());
        assert!(text.contains("serve_ann_probed_clusters_total"));
        // Cache round trip under the approximate key.
        let warm = approx.recommend_user(0, &NOOP).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.items, got[0].as_ref().unwrap().items);
    }

    #[test]
    fn approx_published_epochs_get_the_index_too() {
        let e = engine(6, 300, 4, approx_config(4));
        let id = e.registry().default_model();
        let theta = e
            .registry()
            .snapshot(&id)
            .unwrap()
            .full()
            .item_factors()
            .clone();
        e.registry()
            .publish(&id, ModelSnapshot::new(1, theta, vec![]))
            .unwrap();
        let held = e.registry().snapshot(&id).unwrap();
        assert!(held.has_ann() && held.shards().iter().all(|s| s.int8.is_some()));
        let (_, trace) = e.recommend_batch_traced(&known(&[0, 1]), &NOOP);
        assert!(trace.ann_probed > 0);
        assert_eq!(
            e.obs().metrics().model("default").ann_fallback.get(),
            0,
            "policy-completed snapshots never fall back"
        );
    }

    #[test]
    fn canary_batch_serves_both_arms_in_one_pass() {
        let (x, theta) = factors(64, 20, 3, 7);
        let e = ServeEngine::builder()
            .model("a", x.clone(), ModelSnapshot::new(0, theta.clone(), vec![]))
            .model("b", x, ModelSnapshot::new(5, theta, vec![]))
            .canary("b", 0.5)
            .build()
            .unwrap();
        let reqs = known(&(0..64).collect::<Vec<u32>>());
        let (out, trace) = e.recommend_batch_traced(&reqs, &NOOP);
        let out = unwrap_all(out);
        let on_b = out.iter().filter(|r| r.model.as_str() == "b").count();
        assert!(on_b > 0 && on_b < 64, "both arms must serve: {on_b}/64");
        // The trace reports both arms with their epochs, in slot order.
        assert_eq!(
            trace.arms,
            vec![(ModelId::from("a"), 0), (ModelId::from("b"), 5)]
        );
        // Routing is deterministic: a second pass picks identical arms
        // (and hits the cache).
        let again = unwrap_all(e.recommend_batch(&reqs, &NOOP));
        for (first, second) in out.iter().zip(&again) {
            assert_eq!(first.model, second.model);
            assert!(second.from_cache);
        }
    }
}
