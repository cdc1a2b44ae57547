//! The serving engine: micro-batched requests in, ranked items out.
//!
//! [`ServeEngine`] composes the crate's pieces into the request path. Since
//! the v2 redesign the engine routes over a keyed [`ModelRegistry`] instead
//! of owning a single store — one scorer configuration, one result cache,
//! and one observability bundle shared by every registered model. The v3
//! request path generalizes "which user" into a [`Query`] — user → top-k,
//! item → similar items, user → similar users, rank-a-slate, and explain —
//! each resolving to a (query vector, target matrix, candidate set) triple
//! served through the same sharded scorer (see [`crate::query`]).
//!
//! A batch runs five stages, each stamping one [`BatchTrace`] boundary:
//!
//! 1. **resolve** — snapshot the registry's routing state once per batch
//!    ([`crate::registry::Router`]), route every request to a model
//!    (explicit [`ModelId`], default alias, or deterministic canary
//!    split), validate it per endpoint, and answer the cacheable
//!    endpoints (user → top-k, item → similar items) from the
//!    lock-striped result cache ([`StripedCache`]) when possible. Keys
//!    carry `(model, epoch, user_epoch, id, endpoint, retrieval)`, so a
//!    Θ publish or an `X` swap retires every entry, canary arms
//!    never see each other's entries, exact/approximate answers never
//!    alias, and an item→item ranking never answers for a user→top-k one.
//!    Failures become per-request [`ServeError`]s, not panics; every other
//!    request becomes one job on its model's list: a scan row, a slate,
//!    or an explain;
//! 2. **assemble** — fold cold users' rating histories into factor
//!    vectors with [`cumf_als::fold_in_batch`] (one regularized solve
//!    each, CG or Cholesky per the configured [`SolverKind`]) against the
//!    routed model's full Θ, and build one query matrix per model and
//!    scan plan (top-k and similar items over Θ, similar users over X);
//! 3. **scan** — scatter each query matrix across its target's shards,
//!    one blocked scoring pass per shard ([`scatter_top_k`]), and score
//!    the slates and explains directly;
//! 4. **merge** — gather the per-shard heaps into global rankings
//!    (bit-identical to the unsharded scorer), drop a similarity query's
//!    own id, and keep the best k;
//! 5. **respond** — fill the cache and build the responses in request
//!    order.
//!
//! One `record` step then updates the typed serving metrics
//! ([`crate::obs::ServeMetrics`], including per-model `model="…"` and
//! per-endpoint series), the journal and the phase spans; the admission
//! worker turns the trace's timestamps into per-request spans.
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
use crate::registry::{CanaryPolicy, ModelEntry, ModelId, ModelRegistry, RoutingTable};
use crate::scorer::{explain_one, QuantMode, Retrieval, ScoreConfig};
use crate::shard::{rank_slate_sharded, scatter_top_k, ShardScatter, ShardTiming, ShardedSnapshot};
use crate::store::ModelSnapshot;
use crate::topk::ScoredItem;
use cumf_als::{fold_in_batch, SolverKind};
use cumf_numeric::dense::DenseMatrix;
use cumf_telemetry::{FootprintReport, MemoryFootprint, PhaseSpan, Recorder};
use std::collections::BTreeMap;
use std::iter::zip;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub use crate::query::{Endpoint, Explanation, Query};

/// Lock stripes the result cache is split into.
const CACHE_STRIPES: usize = 8;

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
            cache: StripedCache::new(cfg.cache_capacity, CACHE_STRIPES),
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

/// A served response, or the failure that replaced it.
type Response = Result<Recommendation, ServeError>;

/// The three scan plans, in the order a batch runs them, each named by
/// the endpoint that issues it (see [`ServeEngine::target`]). Top-k and
/// similar-items scans both read Θ but stay separate: they fetch a
/// different number of candidates, and under approximate retrieval the
/// int8 shortlist grows with that number.
const PLANS: [Endpoint; 3] = [
    Endpoint::TopK,
    Endpoint::SimilarItems,
    Endpoint::SimilarUsers,
];

/// One model's share of a batch, keyed by registry slot so iteration
/// order (and therefore span/timing order) is deterministic.
struct ModelGroup<'r> {
    entry: Arc<ModelEntry>,
    snapshot: Arc<ShardedSnapshot>,
    /// The model's user factors `X`, one row per user.
    users: Arc<ShardedSnapshot>,
    /// Requests routed to this model, including failed and cached ones.
    routed: usize,
    /// Requests answered from the result cache.
    hits: usize,
    /// (request index, resolved job) for every request left to serve, in
    /// request order.
    jobs: Vec<(usize, Job<'r>)>,
}

/// A validated request, resolved against its routed model.
enum Job<'r> {
    /// One query row of a `q·Tᵀ` scan.
    Scan(Scan<'r>),
    /// Rank a caller-supplied slate for a known user (borrowed from the
    /// request).
    Slate { user: u32, slate: &'r [u32] },
    /// Explain one (user, item) score.
    Explain { user: u32, item: u32 },
}

/// One query row of a scan, borrowing what it needs from the request.
struct Scan<'r> {
    /// The plan (one of [`PLANS`]) the row is scanned under. Similarity
    /// plans drop the row's own id from its ranking.
    plan: Endpoint,
    row: Row<'r>,
    /// Where the answer is cached; `None` for uncacheable endpoints and
    /// cold users.
    key: Option<CacheKey>,
}

/// Where a scan's query vector comes from.
enum Row<'r> {
    /// Row `u` of the model's user factors `X`.
    User(u32),
    /// Row `v` of the model's item factors `Θ`.
    Item(u32),
    /// A cold user's rating history, folded in by the assemble stage.
    Cold(&'r [(u32, f32)]),
}

/// A job's ranking (and, for an explain, its explanation): what the scan
/// and merge stages produce for the respond stage, one per job.
type Ranked = (Vec<ScoredItem>, Option<Explanation>);

impl<'r> ModelGroup<'r> {
    /// The queued scans of `plan` with their positions in `jobs`, in
    /// request order.
    fn scans(&self, plan: Endpoint) -> impl Iterator<Item = (usize, &Scan<'r>)> {
        let jobs = self.jobs.iter().enumerate();
        jobs.filter_map(move |(pos, (_, job))| match job {
            Job::Scan(scan) if scan.plan == plan => Some((pos, scan)),
            _ => None,
        })
    }

    /// Queued scans matching `pred`.
    fn count(&self, pred: impl Fn(&Scan<'r>) -> bool) -> usize {
        let matching = |(_, job): &&(usize, Job<'r>)| matches!(job, Job::Scan(s) if pred(s));
        self.jobs.iter().filter(matching).count()
    }

    /// The response to request `request_id`, served by this group's model
    /// and epoch.
    fn recommendation(&self, request_id: u64, ranked: Ranked, from_cache: bool) -> Recommendation {
        let (items, explanation) = ranked;
        Recommendation {
            request_id,
            model: self.entry.id.clone(),
            epoch: self.snapshot.epoch(),
            items,
            from_cache,
            explanation,
        }
    }
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
            // A batch answers every request in its slot, so a batch of one
            // returns exactly one response.
            .expect("batch of one returns one response")
    }

    /// Serve a micro-batch: route every request to a model, cache
    /// lookups, cold-start fold-in, one scatter-gather scoring pass per
    /// routed model and scan plan, responses in request order.
    ///
    /// Failures are *per request*: a request that routes to an unknown or
    /// retired model, or names a user or item (a cold history's
    /// included) the routed model does not know,
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
    /// the resolve, assemble, scan, merge, and respond stages, plus the
    /// `(model, epoch)` arms the batch served. The admission worker
    /// re-bases the trace onto each request as a
    /// [`crate::obs::RequestSpan`] whose stage durations telescope to its
    /// end-to-end latency.
    ///
    /// Always updates the engine's [`ServeObs`] metrics; additionally
    /// renders the trace as `serve.batch`, `serve.batch.{stage}` and
    /// per-shard `serve.shard{i}.score` phase spans when `recorder` is
    /// enabled.
    pub fn recommend_batch_traced(
        &self,
        requests: &[Request],
        recorder: &dyn Recorder,
    ) -> (Vec<Result<Recommendation, ServeError>>, BatchTrace) {
        let t0 = self.now();
        let table = self.registry.routing_table();
        let (mut responses, groups) = self.resolve(requests, &table);
        let t1 = self.now();
        let queries: Vec<_> = groups.iter().map(|g| self.assemble(g)).collect();
        let t2 = self.now();
        let mut shard_timings = Vec::new();
        let scanned: Vec<_> = zip(&groups, queries)
            .map(|(g, q)| self.scan(g, q, &mut shard_timings))
            .collect();
        let t3 = self.now();
        let ranked: Vec<_> = zip(&groups, scanned)
            .map(|(g, s)| self.merge(g, s, &mut shard_timings))
            .collect();
        let t4 = self.now();
        for (group, ranked) in zip(&groups, ranked) {
            self.respond(group, ranked, requests, &mut responses);
        }
        let t5 = self.now();

        let out: Vec<Response> = responses
            .into_iter()
            // Resolve answers or queues every request, and respond answers
            // every queued job, so every slot is filled.
            .map(|r| r.expect("every request answered"))
            .collect();
        let total = |count: fn(&ModelGroup) -> usize| groups.iter().map(count).sum::<usize>();
        let cold_users = total(|g| g.count(|s| matches!(s.row, Row::Cold(_))));
        let trace = BatchTrace {
            start: t0,
            cache_done: t1,
            foldin_done: t2,
            score_done: t3,
            merge_done: t4,
            end: t5,
            requests: requests.len(),
            cache_hits: total(|g| g.hits),
            cold_users,
            scored_users: total(|g| g.jobs.len()) - cold_users,
            errors: out.iter().filter(|r| r.is_err()).count(),
            arms: groups
                .iter()
                .map(|g| (g.entry.id.clone(), g.snapshot.epoch()))
                .collect(),
            shard_timings,
        };
        self.record(requests, &groups, &out, &trace, &table, recorder);
        (out, trace)
    }

    /// Stage 1 (resolve): route every request, validate it against its
    /// model, and probe the cache (one stripe lock per lookup). Failures
    /// and hits are answered here; every other request becomes a job on
    /// its model's group.
    fn resolve<'r>(
        &self,
        requests: &'r [Request],
        table: &RoutingTable,
    ) -> (Vec<Option<Response>>, Vec<ModelGroup<'r>>) {
        let mut responses = Vec::with_capacity(requests.len());
        let mut groups: BTreeMap<u32, ModelGroup<'r>> = BTreeMap::new();
        for (i, req) in requests.iter().enumerate() {
            let routed = table.route(req.model.as_ref(), req.query.route_key(req.id));
            // `Ok(None)`: queued as a job; `Ok(Some(_))`: a cache hit.
            let outcome = routed.and_then(|entry| {
                let group = groups.entry(entry.slot).or_insert_with(|| ModelGroup {
                    snapshot: entry.store.snapshot(),
                    users: entry.users(),
                    entry,
                    routed: 0,
                    hits: 0,
                    jobs: Vec::new(),
                });
                group.routed += 1;
                let job = self.job(group, &req.query)?;
                let key = match &job {
                    Job::Scan(scan) => scan.key.as_ref(),
                    _ => None,
                };
                let Some(items) = key.and_then(|key| self.cache.get(key)) else {
                    group.jobs.push((i, job));
                    return Ok(None);
                };
                group.hits += 1;
                Ok(Some(group.recommendation(req.id, (items, None), true)))
            });
            responses.push(outcome.transpose());
        }
        (responses, groups.into_values().collect())
    }

    /// Validate `query` against `group`'s model and resolve it to a job.
    fn job<'r>(&self, group: &ModelGroup, query: &'r Query) -> Result<Job<'r>, ServeError> {
        let (n_users, n_items) = (group.users.n_items(), group.snapshot.n_items());
        let model = || group.entry.id.clone();
        let user = |user: u32| match (user as usize) < n_users {
            true => Ok(user),
            false => Err(ServeError::UnknownUser {
                user,
                n_users,
                model: model(),
            }),
        };
        let item = |item: u32| match (item as usize) < n_items {
            true => Ok(item),
            false => Err(ServeError::UnknownItem {
                item,
                n_items,
                model: model(),
            }),
        };
        // Cacheable scans carry their key; keys include the endpoint, so
        // an item→item ranking never answers for a user→top-k one.
        let scan = |plan, row, cached: Option<u32>| {
            let key = cached.map(|id| CacheKey {
                model: group.entry.slot,
                epoch: group.snapshot.epoch(),
                user_epoch: group.users.epoch(),
                user: id,
                endpoint: plan,
                retrieval: self.cfg.score.retrieval,
            });
            Job::Scan(Scan { plan, row, key })
        };
        Ok(match query {
            Query::User(UserRef::Known(u)) => scan(Endpoint::TopK, Row::User(user(*u)?), Some(*u)),
            Query::User(UserRef::Cold(history)) => {
                history.iter().try_for_each(|&(v, _)| item(v).map(drop))?;
                scan(Endpoint::TopK, Row::Cold(history), None)
            }
            Query::SimilarItems(v) => scan(Endpoint::SimilarItems, Row::Item(item(*v)?), Some(*v)),
            Query::SimilarUsers(_) if n_users == 0 => {
                return Err(ServeError::NoUserFactors(model()))
            }
            Query::SimilarUsers(u) => scan(Endpoint::SimilarUsers, Row::User(user(*u)?), None),
            Query::RankItems { user: u, slate } => {
                let u = user(*u)?;
                if slate.is_empty() {
                    return Err(ServeError::EmptySlate);
                }
                slate.iter().try_for_each(|&v| item(v).map(drop))?;
                Job::Slate { user: u, slate }
            }
            Query::Explain { user: u, item: v } => Job::Explain {
                user: user(*u)?,
                item: item(*v)?,
            },
        })
    }

    /// Stage 2 (assemble): one query matrix per non-empty plan. Cold rows
    /// are folded in against the model's full Θ — one `fold_in_batch`
    /// per model, since only top-k scans carry them.
    fn assemble(&self, group: &ModelGroup) -> Vec<(Endpoint, DenseMatrix)> {
        let full = group.snapshot.full();
        let mut queries = Vec::new();
        for plan in PLANS {
            let rows: Vec<&Row> = group.scans(plan).map(|(_, scan)| &scan.row).collect();
            if rows.is_empty() {
                continue;
            }
            let mut q = DenseMatrix::zeros(rows.len(), group.snapshot.f());
            let mut cold = Vec::new();
            for (r, row) in rows.into_iter().enumerate() {
                let src = match *row {
                    Row::User(u) => group.users.full().item_row(u as usize),
                    Row::Item(v) => full.item_row(v as usize),
                    Row::Cold(history) => {
                        cold.push((r, history));
                        continue;
                    }
                };
                q.row_mut(r).copy_from_slice(src);
            }
            if !cold.is_empty() {
                let histories: Vec<_> = cold.iter().map(|&(_, h)| h).collect();
                let (lambda, solver) = (self.cfg.lambda, &self.cfg.solver);
                let folded = fold_in_batch(full.item_factors(), &histories, lambda, solver);
                for (i, (r, _)) in cold.into_iter().enumerate() {
                    q.row_mut(r).copy_from_slice(folded.row(i));
                }
            }
            queries.push((plan, q));
        }
        queries
    }

    /// What a plan's scan reads and under which config: Θ under the
    /// engine's [`ScoreConfig`], or — for similar users — `X`, always
    /// exactly: X carries no int8 or centroid sidecars, and building them
    /// per batch would cost more than the scan they would save.
    fn target(&self, group: &ModelGroup, plan: Endpoint) -> (Arc<ShardedSnapshot>, ScoreConfig) {
        if plan != Endpoint::SimilarUsers {
            return (Arc::clone(&group.snapshot), self.cfg.score);
        }
        let exact = ScoreConfig {
            retrieval: Retrieval::Exact,
            ..self.cfg.score
        };
        (Arc::clone(&group.users), exact)
    }

    /// Stage 3 (scan): one scatter per query matrix across its target's
    /// shards, plus the slates and explains, which score their few rows
    /// directly and are ranked here. Returns the scatters and one ranking
    /// slot per job; slate passes add their shard timings to `timings`.
    fn scan(
        &self,
        group: &ModelGroup,
        queries: Vec<(Endpoint, DenseMatrix)>,
        timings: &mut Vec<ShardTiming>,
    ) -> (Vec<(Endpoint, usize, ShardScatter)>, Vec<Ranked>) {
        let mut scatters = Vec::new();
        for (plan, q) in queries {
            let (target, cfg) = self.target(group, plan);
            // Similarity scans fetch k+1: the query id ranks itself first
            // more often than not, and one spare guarantees k survivors
            // after self-exclusion.
            let fetch = self.cfg.k + usize::from(plan != Endpoint::TopK);
            let scatter = scatter_top_k(&target, &q, fetch, &cfg, self.now());
            scatters.push((plan, fetch, scatter));
        }
        let mut ranked = vec![(Vec::new(), None); group.jobs.len()];
        for ((_, job), slot) in group.jobs.iter().zip(&mut ranked) {
            match *job {
                Job::Scan(_) => {}
                Job::Slate { user, slate } => {
                    let query = group.users.full().item_row(user as usize);
                    let (items, t) =
                        rank_slate_sharded(&group.snapshot, query, slate, self.cfg.k, self.now());
                    timings.extend(t);
                    slot.0 = items;
                }
                Job::Explain { user, item } => {
                    let query = group.users.full().item_row(user as usize);
                    let (e, score) = explain_one(group.snapshot.full(), query, item as usize);
                    *slot = (vec![ScoredItem { item, score }], Some(e));
                }
            }
        }
        (scatters, ranked)
    }

    /// Stage 4 (merge): gather each scatter's per-shard heaps into global
    /// rankings, drop the query id, and keep the best k. Filtering the
    /// k+1 ranking is provably identical to excluding before selection
    /// under the total order.
    fn merge(
        &self,
        group: &ModelGroup,
        (scatters, mut ranked): (Vec<(Endpoint, usize, ShardScatter)>, Vec<Ranked>),
        timings: &mut Vec<ShardTiming>,
    ) -> Vec<Ranked> {
        for (plan, fetch, scatter) in scatters {
            let (rankings, shard_timings) = scatter.gather(fetch);
            timings.extend(shard_timings);
            for ((pos, scan), items) in group.scans(plan).zip(rankings) {
                let exclude = match scan.row {
                    Row::User(id) | Row::Item(id) if plan != Endpoint::TopK => Some(id),
                    _ => None,
                };
                let items = items.into_iter().filter(|s| Some(s.item) != exclude);
                ranked[pos].0 = items.take(self.cfg.k).collect();
            }
        }
        ranked
    }

    /// Stage 5 (respond): fill the cache and build the responses.
    fn respond(
        &self,
        group: &ModelGroup,
        ranked: Vec<Ranked>,
        requests: &[Request],
        responses: &mut [Option<Response>],
    ) {
        for (&(i, ref job), ranked) in group.jobs.iter().zip(ranked) {
            if let Job::Scan(Scan { key: Some(key), .. }) = job {
                self.cache.insert(*key, ranked.0.clone());
            }
            responses[i] = Some(Ok(group.recommendation(requests[i].id, ranked, false)));
        }
    }

    /// Publish a finished batch: the typed metrics (engine-wide, per
    /// model, per endpoint, per shard), the fallback counters, the
    /// once-per-engine journal records, and — the one place the serve
    /// path emits phase spans — the trace rendered as `serve.batch`, one
    /// `serve.batch.{stage}` per stage and one `serve.shard{i}.score` per
    /// shard pass.
    fn record(
        &self,
        requests: &[Request],
        groups: &[ModelGroup],
        out: &[Response],
        trace: &BatchTrace,
        table: &RoutingTable,
        recorder: &dyn Recorder,
    ) {
        // Always-on typed metrics (lock-free counters, striped by thread).
        let m = self.obs.metrics();
        m.requests.add(requests.len() as u64);
        m.batches.inc();
        m.cache_hits.add(trace.cache_hits as u64);
        m.cold_users.add(trace.cold_users as u64);
        // The batch's scoring work, summed over its shard passes. Cache
        // hits never reach a scan.
        let work = trace.work();
        m.scan_bytes.add(work.bytes);
        m.ann_probed.add(work.probed_clusters);
        // Stage-2 shortlist rows under the approximate mode only: on an
        // exact engine the candidates are the full scan.
        if !self.cfg.score.retrieval.is_exact() {
            m.ann_candidates.add(work.candidates);
        }
        m.ann_rescored.add(work.rescored);
        for e in out.iter().filter_map(|r| r.as_ref().err()) {
            m.error(e.reason()).inc();
        }
        for group in groups {
            let metrics = &group.entry.metrics;
            metrics.requests.add(group.routed as u64);
            metrics.cache_hits.add(group.hits as u64);
            // Only the cacheable endpoints (top-k known users,
            // similar-items) count as cache misses; the uncached endpoints
            // are scored work but never a miss.
            m.cache_misses.add(group.count(|s| s.key.is_some()) as u64);
            // Count the requests a missing artifact silently degraded:
            // approx retrieval asked for but the shards have no centroid
            // index (scanned exactly — rare, the registry's policy builds
            // it, but a recall dial that silently reads 4× the bytes must
            // be visible). Only item-side scans read that artifact.
            let scans = group.count(|s| s.plan != Endpoint::SimilarUsers) as u64;
            if !self.cfg.score.retrieval.is_exact() && scans > 0 && !group.snapshot.has_ann() {
                metrics.ann_fallback.add(scans);
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
            handles.latency.observe_secs(trace.service_secs());
            if !self.endpoint_journaled[ep.index()].swap(true, Ordering::Relaxed) {
                let kind = EventKind::EndpointFirstServed {
                    endpoint: ep.name(),
                };
                self.obs.journal().record(trace.end, None, kind);
            }
        }
        m.observe_batch_stages(trace);
        for t in &trace.shard_timings {
            if let Some(sm) = self.shard_metrics.get(t.shard) {
                sm.scored.add(t.work.candidates);
                sm.pass_seconds.observe_secs(t.secs);
            }
        }
        if recorder.enabled() {
            recorder.phase(PhaseSpan::new("serve.batch", trace.start, trace.end));
            for (name, start, end) in trace.stages() {
                recorder.phase(PhaseSpan::new(format!("serve.batch.{name}"), start, end));
            }
            for t in &trace.shard_timings {
                let name = format!("serve.shard{}.score", t.shard);
                recorder.phase(PhaseSpan::new(name, t.start, t.start + t.secs));
            }
        }
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
        assert_eq!(trace.work().bytes, 30 * 4 * 4);
        assert_eq!(e.obs().metrics().scan_bytes.get(), trace.work().bytes);
        // An all-hit batch streams nothing.
        let (_, warm) = e.recommend_batch_traced(&known(&[0, 1]), &NOOP);
        assert_eq!(warm.work().bytes, 0);
        assert_eq!(e.obs().metrics().scan_bytes.get(), trace.work().bytes);
        // Sharding re-partitions the same scan: byte totals are invariant.
        let sharded = engine(8, 30, 4, ServeConfig::default().with_shards(3));
        let (_, t3) = sharded.recommend_batch_traced(&known(&[0, 1]), &NOOP);
        assert_eq!(t3.work().bytes, trace.work().bytes);
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
            ta.work().bytes < te.work().bytes,
            "{} vs {}",
            ta.work().bytes,
            te.work().bytes
        );
        assert!(
            ta.work().probed_clusters > 0 && ta.work().candidates > 0 && ta.work().rescored > 0
        );
        assert_eq!(te.work().probed_clusters, 0, "exact engines never probe");
        // The shortlist rescore keeps the rankings close to exact.
        let mut recall = 0.0;
        for (a, b) in want.iter().zip(&got) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            recall += crate::metrics::overlap_at_k(&a.items, &b.items, 10);
        }
        assert!(recall / 4.0 >= 0.9, "recall@10 {}", recall / 4.0);
        // The ann counters reached the typed metrics and exposition.
        let m = approx.obs().metrics();
        assert_eq!(m.ann_probed.get(), ta.work().probed_clusters);
        assert_eq!(m.ann_candidates.get(), ta.work().candidates);
        assert_eq!(m.ann_rescored.get(), ta.work().rescored);
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
        assert!(trace.work().probed_clusters > 0);
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
