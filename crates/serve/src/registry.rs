//! The model registry and request router: many models behind one engine.
//!
//! Production recommenders never run a single model — per-region variants,
//! A/B arms, and staged rollouts all serve at once. This module
//! generalizes the v1 "one engine owns one store" design into a keyed
//! registry:
//!
//! * [`ModelId`] — a cheap, cloneable model name (an interned string).
//! * [`ModelRegistry`] — register / publish / retire keyed
//!   [`ShardedFactorStore`]s. All models share one scorer configuration,
//!   one result cache, and one observability bundle (the engine owns
//!   those); the registry owns routing state and per-model factor state.
//! * [`Router`] — resolves each request to a model: an explicit
//!   [`ModelId`] on the request wins, otherwise the *default alias*,
//!   subject to an optional [`CanaryPolicy`] that deterministically sends
//!   a fraction of traffic to a candidate model before promotion.
//! * promote / rollback — [`ModelRegistry::promote`] makes the canary
//!   candidate the new default and clears the policy;
//!   [`ModelRegistry::rollback`] clears the policy so the default takes
//!   100% of traffic again. Both are routing-only operations: no engine
//!   restart, no cache flush (cache keys carry the model slot, so arms
//!   never see each other's entries).
//!
//! ## Canary determinism
//!
//! [`CanaryPolicy`] splits traffic by *user*, not by request: a user's id
//! is hashed (SplitMix64) to a unit-interval coordinate and routed to the
//! candidate iff the coordinate is below the policy's fraction. The same
//! user therefore always lands on the same arm for a fixed policy
//! (consistent experience, valid A/B attribution), and *ramping* the
//! fraction up only ever moves users default → candidate, never back and
//! forth. Cold-start requests carry no stable user id and are hashed by
//! request id instead (a salted hash, so they don't shadow user 0).

use crate::ann::AnnPolicy;
use crate::error::ServeError;
use crate::obs::{EventKind, ModelMetrics, ServeObs};
use crate::shard::{ShardedFactorStore, ShardedSnapshot};
use crate::store::ModelSnapshot;
use cumf_numeric::dense::DenseMatrix;
use cumf_telemetry::{FootprintReport, MemoryFootprint};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A model's name: cheap to clone, hash, and compare — the key of the
/// registry and the routing target carried by requests and responses.
///
/// ```
/// use cumf_serve::registry::ModelId;
///
/// let id = ModelId::from("eu-west/als-f64");
/// assert_eq!(id.as_str(), "eu-west/als-f64");
/// assert_eq!(id, ModelId::from(String::from("eu-west/als-f64")));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(Arc<str>);

impl ModelId {
    /// The model name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ModelId {
    fn from(s: &str) -> ModelId {
        ModelId(Arc::from(s))
    }
}

impl From<String> for ModelId {
    fn from(s: String) -> ModelId {
        ModelId(Arc::from(s.as_str()))
    }
}

impl From<&ModelId> for ModelId {
    fn from(id: &ModelId) -> ModelId {
        id.clone()
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::fmt::Debug for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", &*self.0)
    }
}

/// SplitMix64: the standard 64-bit finalizer — full avalanche, so
/// consecutive user ids land uniformly on the unit interval.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a routing key to its deterministic coordinate in `[0, 1)`.
///
/// Pure and process-independent (no RNG, no time), so the same user lands
/// on the same canary arm across restarts and across replicas.
pub fn canary_unit(key: u64) -> f64 {
    // Top 53 bits → an exactly representable dyadic rational in [0, 1).
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// Salt mixed into request ids when routing cold-start requests, so a
/// cold request with id `u` is routed independently of known user `u`.
const COLD_ROUTE_SALT: u64 = 0xC01D_0000_0000_0000;

/// Canary split: send `fraction` of traffic to `candidate`, the rest to
/// the default alias.
///
/// ```
/// use cumf_serve::registry::CanaryPolicy;
///
/// let p = CanaryPolicy::new("challenger", 0.25);
/// // Deterministic: the same user always gets the same answer.
/// assert_eq!(p.routes_to_candidate(42), p.routes_to_candidate(42));
/// // Ramping up only ever moves users toward the candidate.
/// let wider = CanaryPolicy::new("challenger", 0.75);
/// if p.routes_to_candidate(42) {
///     assert!(wider.routes_to_candidate(42));
/// }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CanaryPolicy {
    /// The model receiving the canary fraction.
    pub candidate: ModelId,
    /// Fraction of traffic routed to the candidate, in `[0, 1]`.
    pub fraction: f64,
}

impl CanaryPolicy {
    /// A policy sending `fraction` (clamped to `[0, 1]`; NaN becomes 0)
    /// of traffic to `candidate`.
    pub fn new(candidate: impl Into<ModelId>, fraction: f64) -> CanaryPolicy {
        let fraction = if fraction.is_nan() {
            0.0
        } else {
            fraction.clamp(0.0, 1.0)
        };
        CanaryPolicy {
            candidate: candidate.into(),
            fraction,
        }
    }

    /// Whether routing key `key` (a user id, or a salted request id for
    /// cold requests) lands on the candidate arm.
    pub fn routes_to_candidate(&self, key: u64) -> bool {
        canary_unit(key) < self.fraction
    }
}

/// How a request identifies itself to the router.
#[derive(Clone, Copy, Debug)]
pub enum RouteKey {
    /// A known user id — the canary split hashes this.
    User(u32),
    /// A cold request's id — salted so it is independent of user ids.
    Cold(u64),
}

impl RouteKey {
    fn hash_key(self) -> u64 {
        match self {
            RouteKey::User(u) => u as u64,
            RouteKey::Cold(id) => id ^ COLD_ROUTE_SALT,
        }
    }
}

/// An immutable snapshot of the routing state, taken once per batch so
/// every request in a batch routes under one consistent policy.
///
/// Pure — resolution never touches the registry's lock — which makes the
/// canary split property-testable in isolation.
#[derive(Clone, Debug)]
pub struct Router {
    default_model: ModelId,
    canary: Option<CanaryPolicy>,
    /// Live (serving) model ids.
    live: Vec<ModelId>,
    /// Retired (tombstoned) model ids.
    retired: Vec<ModelId>,
}

impl Router {
    /// The model a request resolves to: the explicit id when present
    /// (erroring if unknown or retired), otherwise the canary split over
    /// the default alias.
    pub fn resolve(
        &self,
        explicit: Option<&ModelId>,
        key: RouteKey,
    ) -> Result<ModelId, ServeError> {
        if let Some(id) = explicit {
            if self.live.contains(id) {
                return Ok(id.clone());
            }
            if self.retired.contains(id) {
                return Err(ServeError::RetiredModel(id.clone()));
            }
            return Err(ServeError::UnknownModel(id.clone()));
        }
        if let Some(policy) = &self.canary {
            // A force-retired candidate falls through to the default
            // rather than erroring: the canary arm is best-effort.
            if policy.routes_to_candidate(key.hash_key()) && self.live.contains(&policy.candidate) {
                return Ok(policy.candidate.clone());
            }
        }
        if !self.live.contains(&self.default_model) {
            // Reachable only via force_retire of the default alias — the
            // "drained" state the readiness model reports as not-ready.
            return Err(ServeError::RetiredModel(self.default_model.clone()));
        }
        Ok(self.default_model.clone())
    }

    /// The default alias every unaddressed request falls back to.
    pub fn default_model(&self) -> &ModelId {
        &self.default_model
    }

    /// The canary policy in force, if any.
    pub fn canary(&self) -> Option<&CanaryPolicy> {
        self.canary.as_ref()
    }
}

/// One registered model: its factor state, routing identity, and cached
/// per-model metric handles.
#[derive(Debug)]
pub(crate) struct ModelEntry {
    pub(crate) id: ModelId,
    /// Unique small integer, never reused — the `model` component of
    /// cache keys, so arms can never hit each other's entries.
    pub(crate) slot: u32,
    /// Feature dimension pinned at registration; publishes and
    /// user-factor swaps must match it.
    pub(crate) f: usize,
    pub(crate) store: ShardedFactorStore,
    /// `X` for known-user requests, swapped atomically alongside (but
    /// independently of) Θ publishes.
    user_factors: RwLock<Arc<DenseMatrix>>,
    /// Lazily built sharded view of `X` for similar-users scans
    /// ([`crate::engine::Query::SimilarUsers`]); invalidated whenever the
    /// user-factor matrix is swapped.
    user_snapshot: RwLock<Option<Arc<ShardedSnapshot>>>,
    retired: AtomicBool,
    pub(crate) metrics: ModelMetrics,
}

impl ModelEntry {
    /// The current user-factor matrix (an `Arc` clone; hold it for a
    /// whole batch).
    pub(crate) fn user_factors(&self) -> Arc<DenseMatrix> {
        self.user_factors.read().clone()
    }

    /// The user-factor matrix as a sharded snapshot, for `x_u·Xᵀ`
    /// similar-users scans through the same scatter-gather path items
    /// use. Built lazily on first use (one copy of `X`, off the hot
    /// path for every later batch) and cached until
    /// [`ModelRegistry::set_user_factors`] swaps `X`. The snapshot
    /// carries no priors, FP16 copy, or centroid index: the user side
    /// always scans exactly in FP32.
    pub(crate) fn user_side_snapshot(&self) -> Arc<ShardedSnapshot> {
        if let Some(s) = self.user_snapshot.read().as_ref() {
            return Arc::clone(s);
        }
        let mut slot = self.user_snapshot.write();
        if let Some(s) = slot.as_ref() {
            return Arc::clone(s);
        }
        let x = self.user_factors();
        let sharded = Arc::new(ShardedSnapshot::build(
            ModelSnapshot::new(0, (*x).clone(), vec![]),
            self.store.n_shards(),
        ));
        *slot = Some(Arc::clone(&sharded));
        sharded
    }

    pub(crate) fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// This model's resident bytes, rooted at its id: the sharded store
    /// (current epoch plus any superseded epochs still alive behind
    /// `Arc`s) and the user-factor matrix. Retired models keep their
    /// memory until dropped, so they report too.
    pub(crate) fn footprint(&self) -> FootprintReport {
        let uf = self.user_factors();
        let mut children = vec![
            self.store.footprint(),
            FootprintReport::leaf("user_factors", std::mem::size_of_val(uf.as_slice()) as u64),
        ];
        if let Some(s) = self.user_snapshot.read().as_ref() {
            children.push(s.footprint().renamed("user_snapshot"));
        }
        FootprintReport::branch(self.id.as_str(), children)
    }
}

/// The routing table an engine batch works from: the pure [`Router`] plus
/// the entries it may resolve to, captured under one read of the
/// registry's lock.
pub(crate) struct RoutingTable {
    pub(crate) router: Router,
    pub(crate) entries: HashMap<ModelId, Arc<ModelEntry>>,
}

impl RoutingTable {
    /// Resolve a request and return its entry (retired entries are
    /// unreachable: the router already rejected them).
    pub(crate) fn route(
        &self,
        explicit: Option<&ModelId>,
        key: RouteKey,
    ) -> Result<Arc<ModelEntry>, ServeError> {
        let id = self.router.resolve(explicit, key)?;
        Ok(Arc::clone(
            self.entries
                .get(&id)
                .expect("router resolves to a live entry"),
        ))
    }
}

struct Inner {
    models: HashMap<ModelId, Arc<ModelEntry>>,
    default_model: ModelId,
    canary: Option<CanaryPolicy>,
    next_slot: u32,
}

/// Keyed registry of serving models sharing one engine.
///
/// Created by [`crate::engine::ServeEngineBuilder`]; reachable at runtime
/// through [`crate::engine::ServeEngine::registry`]. All mutating
/// operations (`register`, `publish`, `retire`, `set_default`,
/// `set_canary`, `promote`, `rollback`) take `&self` and are safe to call
/// while the engine serves — routing changes apply from the next batch.
///
/// ```
/// use cumf_numeric::dense::DenseMatrix;
/// use cumf_serve::engine::ServeEngine;
/// use cumf_serve::registry::CanaryPolicy;
/// use cumf_serve::store::ModelSnapshot;
///
/// let engine = ServeEngine::builder()
///     .model("champion", DenseMatrix::identity(4), ModelSnapshot::new(0, DenseMatrix::identity(4), vec![]))
///     .build()
///     .unwrap();
/// let reg = engine.registry();
/// reg.register("challenger", DenseMatrix::identity(4), ModelSnapshot::new(0, DenseMatrix::identity(4), vec![])).unwrap();
/// reg.set_canary(CanaryPolicy::new("challenger", 0.1)).unwrap();
/// assert_eq!(reg.promote().unwrap().as_str(), "challenger");
/// assert_eq!(reg.default_model().as_str(), "challenger");
/// ```
pub struct ModelRegistry {
    inner: RwLock<Inner>,
    /// Shard count every model's snapshots are split into.
    shards: usize,
    /// The engine's observability bundle: metric handle factory, the
    /// engine clock, and the lifecycle journal every registry mutation
    /// writes to.
    obs: Arc<ServeObs>,
    /// Soft resident-bytes budget over every model's footprint. A publish
    /// that leaves the registry over it warns and counts
    /// (`serve_mem_budget_exceeded_total`); nothing is evicted.
    memory_budget: Option<u64>,
    /// When set, every registered or published snapshot is completed to
    /// this approximate-retrieval policy: each shard gets a centroid index
    /// (k-means at publish time, off the serving path) and — when the
    /// policy asks for int8 — an int8 copy of its rows. The
    /// engine derives this from its retrieval mode so `Approx` requests
    /// never fall back to the exact scan just because a publisher forgot
    /// to attach the index.
    ann: Option<AnnPolicy>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("ModelRegistry")
            .field("models", &inner.models.len())
            .field("default_model", &inner.default_model)
            .field("canary", &inner.canary)
            .finish()
    }
}

impl ModelRegistry {
    /// A registry whose first model is `(id, user_factors, snapshot)` —
    /// there is always a default alias, so construction takes the initial
    /// model rather than allowing an empty registry.
    pub(crate) fn bootstrap(
        id: ModelId,
        user_factors: DenseMatrix,
        snapshot: ModelSnapshot,
        shards: usize,
        obs: Arc<ServeObs>,
        memory_budget: Option<u64>,
        ann: Option<AnnPolicy>,
    ) -> Result<ModelRegistry, ServeError> {
        let registry = ModelRegistry {
            inner: RwLock::new(Inner {
                models: HashMap::new(),
                default_model: id.clone(),
                canary: None,
                next_slot: 0,
            }),
            shards,
            obs,
            memory_budget,
            ann,
        };
        registry.register(id, user_factors, snapshot)?;
        Ok(registry)
    }

    /// Append one lifecycle record to the engine's journal at the
    /// current engine time.
    fn journal(&self, model: Option<&ModelId>, kind: EventKind) {
        self.obs
            .journal()
            .record(self.obs.now(), model.cloned(), kind);
    }

    fn entry_of(inner: &Inner, id: &ModelId) -> Result<Arc<ModelEntry>, ServeError> {
        match inner.models.get(id) {
            Some(e) if e.is_retired() => Err(ServeError::RetiredModel(id.clone())),
            Some(e) => Ok(Arc::clone(e)),
            None => Err(ServeError::UnknownModel(id.clone())),
        }
    }

    /// Register a new model under `id`. Fails with
    /// [`ServeError::DuplicateModel`] when the id exists (live *or*
    /// retired — slots are never recycled) and
    /// [`ServeError::DimensionMismatch`] when `user_factors` and
    /// `snapshot` disagree on `f`.
    pub fn register(
        &self,
        id: impl Into<ModelId>,
        user_factors: DenseMatrix,
        snapshot: ModelSnapshot,
    ) -> Result<(), ServeError> {
        let id = id.into();
        if user_factors.cols() != snapshot.f() {
            return Err(ServeError::DimensionMismatch {
                model: id,
                expected: snapshot.f(),
                got: user_factors.cols(),
            });
        }
        // Shard and build the retrieval artifacts before taking the write
        // lock that every batch's routing read waits on.
        let start = Instant::now();
        let sharded = ShardedSnapshot::build_with(snapshot, self.shards, self.ann);
        let (f, epoch) = (sharded.f(), sharded.epoch());
        let bytes = sharded.footprint().total_bytes();
        let mut inner = self.inner.write();
        if inner.models.contains_key(&id) {
            return Err(ServeError::DuplicateModel(id));
        }
        let slot = inner.next_slot;
        inner.next_slot += 1;
        let metrics = self.obs.metrics().model(id.as_str());
        metrics.epoch.set(epoch as f64);
        let entry = Arc::new(ModelEntry {
            id: id.clone(),
            slot,
            f,
            store: ShardedFactorStore::serving(sharded),
            user_factors: RwLock::new(Arc::new(user_factors)),
            user_snapshot: RwLock::new(None),
            retired: AtomicBool::new(false),
            metrics,
        });
        inner.models.insert(id.clone(), Arc::clone(&entry));
        drop(inner);
        entry
            .metrics
            .publish_seconds
            .observe_duration(start.elapsed());
        self.refresh_memory_gauges();
        // Registration is also the model's first publish: journal both so
        // the audit trail always opens register → publish.
        self.journal(Some(&id), EventKind::ModelRegistered);
        self.journal(Some(&id), EventKind::SnapshotPublished { epoch, bytes });
        Ok(())
    }

    /// Publish a new epoch of `id`'s item factors. The snapshot's `f`
    /// must match the dimension the model was registered with
    /// ([`ServeError::DimensionMismatch`] otherwise — a different `f` is
    /// a different model, register it as one). When an
    /// approximate-retrieval policy is in force, the shards' centroid
    /// indexes / int8 copies are built here — publish time, off the
    /// request path. Returns the new epoch.
    pub fn publish(&self, id: &ModelId, snapshot: ModelSnapshot) -> Result<u64, ServeError> {
        let entry = Self::entry_of(&self.inner.read(), id)?;
        if snapshot.f() != entry.f {
            return Err(ServeError::DimensionMismatch {
                model: id.clone(),
                expected: entry.f,
                got: snapshot.f(),
            });
        }
        // Shard and build the retrieval artifacts off the store's lock.
        let start = Instant::now();
        let sharded = ShardedSnapshot::build_with(snapshot, entry.store.n_shards(), self.ann);
        let bytes = sharded.footprint().total_bytes();
        let epoch = entry.store.swap(sharded);
        entry
            .metrics
            .publish_seconds
            .observe_duration(start.elapsed());
        entry.metrics.epoch.set(epoch as f64);
        self.journal(Some(id), EventKind::SnapshotPublished { epoch, bytes });
        let report = self.refresh_memory_gauges();
        if let Some(budget) = self.memory_budget {
            let total = report.total_bytes();
            if total > budget {
                entry.metrics.budget_exceeded.inc();
                self.journal(
                    Some(id),
                    EventKind::MemBudgetExceeded {
                        resident_bytes: total,
                        budget_bytes: budget,
                    },
                );
                let (path, bytes) = report.largest_leaf();
                eprintln!(
                    "serve: memory budget exceeded after publishing {id} epoch {epoch}: \
                     resident {total} B > budget {budget} B (largest component {path}: {bytes} B)"
                );
            }
        }
        Ok(epoch)
    }

    /// Replace `id`'s user-factor matrix (e.g. after retraining `X`
    /// alongside a published Θ). The column count must match the model's
    /// pinned `f`.
    pub fn set_user_factors(
        &self,
        id: &ModelId,
        user_factors: DenseMatrix,
    ) -> Result<(), ServeError> {
        let entry = Self::entry_of(&self.inner.read(), id)?;
        if user_factors.cols() != entry.f {
            return Err(ServeError::DimensionMismatch {
                model: id.clone(),
                expected: entry.f,
                got: user_factors.cols(),
            });
        }
        *entry.user_factors.write() = Arc::new(user_factors);
        // The similar-users view is a copy of the old X: drop it so the
        // next similar-users batch rebuilds from the swapped matrix.
        *entry.user_snapshot.write() = None;
        Ok(())
    }

    /// Retire `id`: it stops serving (requests naming it get
    /// [`ServeError::RetiredModel`]) and its id is tombstoned. The default
    /// alias and the canary candidate cannot be retired
    /// ([`ServeError::ModelInUse`]) — point routing elsewhere first.
    pub fn retire(&self, id: &ModelId) -> Result<(), ServeError> {
        {
            let inner = self.inner.write();
            if inner.default_model == *id
                || inner.canary.as_ref().is_some_and(|c| c.candidate == *id)
            {
                return Err(ServeError::ModelInUse(id.clone()));
            }
            let entry = Self::entry_of(&inner, id)?;
            entry.retired.store(true, Ordering::Release);
        }
        // Retirement stops routing but frees nothing (the entry and its
        // epochs stay resident); refresh so the gauges say so.
        self.refresh_memory_gauges();
        self.journal(Some(id), EventKind::Retired);
        Ok(())
    }

    /// Retire `id` even when it is the default alias or the canary
    /// candidate — the emergency drain verb [`ModelRegistry::retire`]
    /// deliberately refuses to be.
    ///
    /// Force-retiring the canary candidate clears the policy (its
    /// traffic share falls back to the default); force-retiring the
    /// default leaves every unaddressed request failing with
    /// [`ServeError::RetiredModel`] until [`ModelRegistry::set_default`]
    /// points the alias at a live model — exactly the state the
    /// `default_model_live` readiness check reports as not-ready, so a
    /// scraping supervisor sees `/readyz` flip to 503 the moment the
    /// drain lands.
    pub fn force_retire(&self, id: &ModelId) -> Result<(), ServeError> {
        let cleared_canary = {
            let mut inner = self.inner.write();
            let entry = Self::entry_of(&inner, id)?;
            entry.retired.store(true, Ordering::Release);
            if inner.canary.as_ref().is_some_and(|c| c.candidate == *id) {
                inner.canary = None;
                true
            } else {
                false
            }
        };
        self.refresh_memory_gauges();
        self.journal(Some(id), EventKind::Retired);
        if cleared_canary {
            self.journal(Some(id), EventKind::RolledBack);
        }
        Ok(())
    }

    /// Point the default alias at `id` (which must be live).
    pub fn set_default(&self, id: &ModelId) -> Result<(), ServeError> {
        let mut inner = self.inner.write();
        Self::entry_of(&inner, id)?;
        inner.default_model = id.clone();
        Ok(())
    }

    /// Install (or replace) the canary policy. The candidate must be a
    /// live model.
    pub fn set_canary(&self, policy: CanaryPolicy) -> Result<(), ServeError> {
        let (candidate, fraction) = {
            let mut inner = self.inner.write();
            Self::entry_of(&inner, &policy.candidate)?;
            let meta = (policy.candidate.clone(), policy.fraction);
            inner.canary = Some(policy);
            meta
        };
        self.journal(Some(&candidate), EventKind::CanarySet { fraction });
        Ok(())
    }

    /// Promote the canary: the candidate becomes the default alias and
    /// the policy is cleared, so it now takes 100% of unaddressed
    /// traffic. Returns the promoted id; [`ServeError::NoCanary`] when no
    /// policy is in place.
    pub fn promote(&self) -> Result<ModelId, ServeError> {
        let candidate = {
            let mut inner = self.inner.write();
            let candidate = inner.canary.take().ok_or(ServeError::NoCanary)?.candidate;
            inner.default_model = candidate.clone();
            candidate
        };
        self.refresh_memory_gauges();
        self.journal(Some(&candidate), EventKind::Promoted);
        Ok(candidate)
    }

    /// Roll the canary back: the policy is cleared and the default alias
    /// (unchanged) takes 100% of traffic again. The candidate stays
    /// registered — its cache entries are keyed by its own slot, so
    /// nothing it served can ever answer for another model. Returns the
    /// rolled-back candidate id.
    pub fn rollback(&self) -> Result<ModelId, ServeError> {
        let candidate = {
            let mut inner = self.inner.write();
            inner.canary.take().ok_or(ServeError::NoCanary)?.candidate
        };
        self.refresh_memory_gauges();
        self.journal(Some(&candidate), EventKind::RolledBack);
        Ok(candidate)
    }

    /// The current default alias.
    pub fn default_model(&self) -> ModelId {
        self.inner.read().default_model.clone()
    }

    /// The canary policy in force, if any.
    pub fn canary(&self) -> Option<CanaryPolicy> {
        self.inner.read().canary.clone()
    }

    /// A pure snapshot of the routing state (see [`Router`]).
    pub fn router(&self) -> Router {
        let inner = self.inner.read();
        let (mut live, mut retired) = (Vec::new(), Vec::new());
        for (id, entry) in &inner.models {
            if entry.is_retired() {
                retired.push(id.clone());
            } else {
                live.push(id.clone());
            }
        }
        Router {
            default_model: inner.default_model.clone(),
            canary: inner.canary.clone(),
            live,
            retired,
        }
    }

    /// Routing table for one engine batch: router + resolvable entries.
    pub(crate) fn routing_table(&self) -> RoutingTable {
        let router = self.router();
        let inner = self.inner.read();
        RoutingTable {
            router,
            entries: inner
                .models
                .iter()
                .filter(|(_, e)| !e.is_retired())
                .map(|(id, e)| (id.clone(), Arc::clone(e)))
                .collect(),
        }
    }

    /// Live model ids, sorted (for stable reporting).
    pub fn model_ids(&self) -> Vec<ModelId> {
        let inner = self.inner.read();
        let mut ids: Vec<ModelId> = inner
            .models
            .iter()
            .filter(|(_, e)| !e.is_retired())
            .map(|(id, _)| id.clone())
            .collect();
        ids.sort();
        ids
    }

    /// Whether `id` is registered and live.
    pub fn is_live(&self, id: &ModelId) -> bool {
        self.inner
            .read()
            .models
            .get(id)
            .is_some_and(|e| !e.is_retired())
    }

    /// The currently served epoch of `id`.
    pub fn epoch(&self, id: &ModelId) -> Result<u64, ServeError> {
        Ok(Self::entry_of(&self.inner.read(), id)?.store.epoch())
    }

    /// The current sharded snapshot of `id` (an `Arc` clone — hold it for
    /// a whole batch, as with [`ShardedFactorStore::snapshot`]).
    pub fn snapshot(&self, id: &ModelId) -> Result<Arc<ShardedSnapshot>, ServeError> {
        Ok(Self::entry_of(&self.inner.read(), id)?.store.snapshot())
    }

    /// How many users `id` knows (rows of its user-factor matrix).
    pub fn n_users(&self, id: &ModelId) -> Result<usize, ServeError> {
        Ok(Self::entry_of(&self.inner.read(), id)?
            .user_factors()
            .rows())
    }

    /// The registry's cache-key slot for `id` — unique per registered
    /// model, never reused. Exposed for cache introspection and tests.
    pub fn slot(&self, id: &ModelId) -> Result<u32, ServeError> {
        Ok(Self::entry_of(&self.inner.read(), id)?.slot)
    }

    /// Shard count every model's snapshots are split into.
    pub fn n_shards(&self) -> usize {
        self.shards
    }

    /// Entries in stable id order, retired included (they stay resident).
    fn entries_sorted(&self) -> Vec<Arc<ModelEntry>> {
        let inner = self.inner.read();
        let mut entries: Vec<Arc<ModelEntry>> = inner.models.values().cloned().collect();
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        entries
    }

    /// Refresh the `serve_mem_bytes{component=,model=}` gauges from the
    /// registry's current footprint and return the full tree.
    ///
    /// Called automatically on register / publish / retire / promote /
    /// rollback; call it yourself before scraping if byte-perfect gauges
    /// matter between those events. To keep the series set bounded, each
    /// model exports a fixed component set — `model` (total),
    /// `model/store/current`, `model/store/superseded`,
    /// `model/user_factors` — rather than one gauge per epoch; the full
    /// per-epoch, per-shard breakdown lives in the returned
    /// [`FootprintReport`].
    pub fn refresh_memory_gauges(&self) -> FootprintReport {
        fn child_bytes(r: &FootprintReport, name: &str) -> u64 {
            r.children()
                .iter()
                .find(|c| c.name() == name)
                .map_or(0, FootprintReport::total_bytes)
        }
        let entries = self.entries_sorted();
        let mut children = Vec::with_capacity(entries.len());
        for entry in entries {
            let tree = entry.footprint();
            let model = entry.id.as_str();
            let store = tree
                .children()
                .iter()
                .find(|c| c.name() == "store")
                .cloned()
                .unwrap_or_else(|| FootprintReport::leaf("store", 0));
            self.obs
                .metrics()
                .mem_bytes("model", model)
                .set(tree.total_bytes() as f64);
            self.obs
                .metrics()
                .mem_bytes("model/store/current", model)
                .set(child_bytes(&store, "current") as f64);
            self.obs
                .metrics()
                .mem_bytes("model/store/superseded", model)
                .set(child_bytes(&store, "superseded") as f64);
            self.obs
                .metrics()
                .mem_bytes("model/user_factors", model)
                .set(child_bytes(&tree, "user_factors") as f64);
            children.push(tree);
        }
        let report = FootprintReport::branch("registry", children);
        self.obs
            .metrics()
            .mem_bytes("registry", "")
            .set(report.total_bytes() as f64);
        report
    }

    /// The configured soft memory budget, if any.
    pub fn memory_budget(&self) -> Option<u64> {
        self.memory_budget
    }
}

impl MemoryFootprint for ModelRegistry {
    /// Children: one subtree per registered model (retired models
    /// included — they stay resident until dropped), each rooted at the
    /// model's id, in stable id order.
    fn footprint(&self) -> FootprintReport {
        FootprintReport::branch(
            "registry",
            self.entries_sorted()
                .iter()
                .map(|e| e.footprint())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{ObsConfig, ServeObs};

    fn obs() -> Arc<ServeObs> {
        Arc::new(ServeObs::new(ObsConfig::default()))
    }

    fn snap(epoch: u64, n: usize, f: usize) -> ModelSnapshot {
        let mut m = DenseMatrix::zeros(n, f);
        m.fill_with(|| 0.25);
        ModelSnapshot::new(epoch, m, vec![])
    }

    fn registry() -> ModelRegistry {
        registry_on(obs())
    }

    fn registry_on(obs: Arc<ServeObs>) -> ModelRegistry {
        ModelRegistry::bootstrap(
            ModelId::from("champion"),
            DenseMatrix::identity(4),
            snap(0, 6, 4),
            2,
            obs,
            None,
            None,
        )
        .unwrap()
    }

    #[test]
    fn register_publish_retire_lifecycle() {
        let reg = registry();
        let challenger = ModelId::from("challenger");
        reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4))
            .unwrap();
        assert_eq!(reg.model_ids().len(), 2);
        assert_eq!(reg.publish(&challenger, snap(5, 8, 4)).unwrap(), 5);
        assert_eq!(reg.epoch(&challenger).unwrap(), 5);
        // Slots are distinct and stable.
        assert_ne!(
            reg.slot(&ModelId::from("champion")).unwrap(),
            reg.slot(&challenger).unwrap()
        );
        reg.retire(&challenger).unwrap();
        assert!(!reg.is_live(&challenger));
        assert_eq!(
            reg.publish(&challenger, snap(6, 8, 4)),
            Err(ServeError::RetiredModel(challenger.clone()))
        );
        // Tombstoned: the id cannot be re-registered.
        assert_eq!(
            reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4)),
            Err(ServeError::DuplicateModel(challenger))
        );
    }

    #[test]
    fn dimension_mismatches_are_rejected_everywhere() {
        let reg = registry();
        let champ = ModelId::from("champion");
        // Publish with the wrong f.
        assert_eq!(
            reg.publish(&champ, snap(1, 6, 3)),
            Err(ServeError::DimensionMismatch {
                model: champ.clone(),
                expected: 4,
                got: 3,
            })
        );
        // User factors with the wrong f.
        assert!(matches!(
            reg.set_user_factors(&champ, DenseMatrix::identity(5)),
            Err(ServeError::DimensionMismatch { .. })
        ));
        // Register with internally inconsistent dimensions.
        assert!(matches!(
            reg.register("b", DenseMatrix::identity(3), snap(0, 6, 4)),
            Err(ServeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn default_and_candidate_cannot_be_retired() {
        let reg = registry();
        let champ = ModelId::from("champion");
        assert_eq!(
            reg.retire(&champ),
            Err(ServeError::ModelInUse(champ.clone()))
        );
        reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4))
            .unwrap();
        let challenger = ModelId::from("challenger");
        reg.set_canary(CanaryPolicy::new("challenger", 0.5))
            .unwrap();
        assert_eq!(
            reg.retire(&challenger),
            Err(ServeError::ModelInUse(challenger.clone()))
        );
        // After rollback the candidate is retirable.
        assert_eq!(reg.rollback().unwrap(), challenger);
        reg.retire(&challenger).unwrap();
    }

    #[test]
    fn promote_swaps_the_default_and_clears_the_policy() {
        let reg = registry();
        reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4))
            .unwrap();
        assert_eq!(reg.promote(), Err(ServeError::NoCanary));
        reg.set_canary(CanaryPolicy::new("challenger", 0.1))
            .unwrap();
        assert_eq!(reg.promote().unwrap().as_str(), "challenger");
        assert_eq!(reg.default_model().as_str(), "challenger");
        assert!(reg.canary().is_none());
        // The old champion is now retirable.
        reg.retire(&ModelId::from("champion")).unwrap();
    }

    #[test]
    fn canary_to_unknown_model_is_rejected() {
        let reg = registry();
        assert_eq!(
            reg.set_canary(CanaryPolicy::new("ghost", 0.5)),
            Err(ServeError::UnknownModel(ModelId::from("ghost")))
        );
        assert_eq!(
            reg.set_default(&ModelId::from("ghost")),
            Err(ServeError::UnknownModel(ModelId::from("ghost")))
        );
    }

    #[test]
    fn router_resolves_explicit_default_and_canary() {
        let reg = registry();
        reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4))
            .unwrap();
        reg.set_canary(CanaryPolicy::new("challenger", 1.0))
            .unwrap();
        let router = reg.router();
        // fraction = 1.0: every unaddressed request hits the candidate.
        for u in 0..50 {
            assert_eq!(
                router.resolve(None, RouteKey::User(u)).unwrap().as_str(),
                "challenger"
            );
        }
        // Explicit ids bypass the canary.
        let champ = ModelId::from("champion");
        assert_eq!(
            router.resolve(Some(&champ), RouteKey::User(0)).unwrap(),
            champ
        );
        assert_eq!(
            router.resolve(Some(&ModelId::from("ghost")), RouteKey::User(0)),
            Err(ServeError::UnknownModel(ModelId::from("ghost")))
        );
    }

    #[test]
    fn router_is_a_snapshot_not_a_live_view() {
        let reg = registry();
        reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4))
            .unwrap();
        reg.set_canary(CanaryPolicy::new("challenger", 1.0))
            .unwrap();
        let before = reg.router();
        reg.rollback().unwrap();
        // The old snapshot still routes to the candidate; a fresh one
        // does not.
        assert_eq!(
            before.resolve(None, RouteKey::User(1)).unwrap().as_str(),
            "challenger"
        );
        assert_eq!(
            reg.router()
                .resolve(None, RouteKey::User(1))
                .unwrap()
                .as_str(),
            "champion"
        );
    }

    #[test]
    fn cold_requests_route_independently_of_user_ids() {
        // A cold request with id u must not be forced onto the same arm
        // as known user u: the salt decorrelates them. With 512 keys and
        // a fair coin-ish fraction, at least one pair must disagree.
        let policy = CanaryPolicy::new("c", 0.5);
        let disagree = (0..512u64)
            .filter(|&k| {
                policy.routes_to_candidate(RouteKey::User(k as u32).hash_key())
                    != policy.routes_to_candidate(RouteKey::Cold(k).hash_key())
            })
            .count();
        assert!(disagree > 0, "cold routing shadows user routing");
    }

    #[test]
    fn registry_footprint_sums_models_and_tracks_superseded_epochs() {
        let reg = registry();
        reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4))
            .unwrap();
        let report = reg.footprint();
        assert!(report.verify(), "children must sum to totals");
        assert_eq!(report.children().len(), 2);
        let names: Vec<&str> = report.children().iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["challenger", "champion"], "stable id order");
        // identity(4) user factors: 16 f32s.
        let champ = &report.children()[1];
        let uf = champ
            .children()
            .iter()
            .find(|c| c.name() == "user_factors")
            .unwrap();
        assert_eq!(uf.total_bytes(), 16 * 4);

        // Hold the pre-publish snapshot across a publish: the superseded
        // epoch stays resident and the footprint says so.
        let champ_id = ModelId::from("champion");
        let held = reg.snapshot(&champ_id).unwrap();
        let before = reg.footprint().total_bytes();
        reg.publish(&champ_id, snap(1, 6, 4)).unwrap();
        let with_held = reg.footprint().total_bytes();
        assert!(
            with_held > before,
            "superseded epoch behind a live Arc must add bytes"
        );
        drop(held);
        assert_eq!(
            reg.footprint().total_bytes(),
            before,
            "dropping the last Arc prunes the superseded epoch"
        );
    }

    #[test]
    fn memory_gauges_refresh_on_publish() {
        let o = obs();
        let reg = registry_on(Arc::clone(&o));
        let m = o.metrics().clone();
        let total = reg.footprint().total_bytes() as f64;
        assert_eq!(m.mem_bytes("registry", "").get(), total);
        assert_eq!(m.mem_bytes("model", "champion").get(), total);
        reg.publish(&ModelId::from("champion"), snap(1, 12, 4))
            .unwrap();
        let grown = reg.footprint().total_bytes() as f64;
        assert!(grown > total);
        assert_eq!(m.mem_bytes("registry", "").get(), grown);
        assert_eq!(
            m.mem_bytes("model/store/superseded", "champion").get(),
            0.0,
            "no Arc held: the old epoch died at publish"
        );
    }

    #[test]
    fn publish_over_budget_warns_and_counts() {
        let o = obs();
        let reg = ModelRegistry::bootstrap(
            ModelId::from("champion"),
            DenseMatrix::identity(4),
            snap(0, 6, 4),
            2,
            Arc::clone(&o),
            Some(1), // 1 byte: any publish exceeds
            None,
        )
        .unwrap();
        let m = o.metrics().clone();
        assert_eq!(reg.memory_budget(), Some(1));
        let counter = m.model("champion").budget_exceeded;
        assert_eq!(counter.get(), 0, "registration alone does not count");
        reg.publish(&ModelId::from("champion"), snap(1, 6, 4))
            .unwrap();
        assert_eq!(counter.get(), 1);
        reg.publish(&ModelId::from("champion"), snap(2, 6, 4))
            .unwrap();
        assert_eq!(counter.get(), 2, "warn-only: publishes keep landing");
        // Each breach is journaled with the offending byte counts.
        let breaches: Vec<_> = o
            .journal()
            .records()
            .into_iter()
            .filter(|r| matches!(r.kind, EventKind::MemBudgetExceeded { .. }))
            .collect();
        assert_eq!(breaches.len(), 2);
        if let EventKind::MemBudgetExceeded {
            resident_bytes,
            budget_bytes,
        } = breaches[0].kind
        {
            assert_eq!(budget_bytes, 1);
            assert!(resident_bytes > 1);
        }
    }

    #[test]
    fn ann_policy_completes_registered_and_published_snapshots() {
        use crate::ann::{AnnParams, AnnPolicy};
        let policy = AnnPolicy {
            params: AnnParams {
                k_clusters: 3,
                ..AnnParams::default()
            },
            int8: true,
        };
        let reg = ModelRegistry::bootstrap(
            ModelId::from("champion"),
            DenseMatrix::identity(4),
            snap(0, 6, 4),
            1,
            obs(),
            None,
            Some(policy),
        )
        .unwrap();
        let champ = ModelId::from("champion");
        // Registration attached both sidecars…
        let held = reg.snapshot(&champ).unwrap();
        assert!(held.has_ann() && held.shards()[0].int8.is_some());
        assert_eq!(held.shards()[0].ann.as_ref().unwrap().k_clusters(), 3);
        // …and a bare published snapshot gets them too, at publish time.
        reg.publish(&champ, snap(1, 8, 4)).unwrap();
        let next = reg.snapshot(&champ).unwrap();
        assert!(next.has_ann() && next.shards()[0].int8.is_some());
        // A publisher-supplied index is kept, not rebuilt.
        let tuned = snap(2, 8, 4).with_ann(AnnParams {
            k_clusters: 5,
            ..AnnParams::default()
        });
        reg.publish(&champ, tuned).unwrap();
        let kept = reg.snapshot(&champ).unwrap();
        assert_eq!(kept.shards()[0].ann.as_ref().unwrap().k_clusters(), 5);
    }

    #[test]
    fn lifecycle_journal_replays_in_order_with_monotone_timestamps() {
        let o = obs();
        let reg = registry_on(Arc::clone(&o));
        reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4))
            .unwrap();
        reg.publish(&ModelId::from("challenger"), snap(1, 8, 4))
            .unwrap();
        reg.set_canary(CanaryPolicy::new("challenger", 0.25))
            .unwrap();
        reg.promote().unwrap();
        reg.set_canary(CanaryPolicy::new("champion", 0.5)).unwrap();
        reg.rollback().unwrap();
        reg.retire(&ModelId::from("champion")).unwrap();
        let recs = o.journal().records();
        let kinds: Vec<_> = recs.iter().map(|r| r.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "ModelRegistered",   // champion (bootstrap)
                "SnapshotPublished", // champion epoch 0
                "ModelRegistered",   // challenger
                "SnapshotPublished", // challenger epoch 0
                "SnapshotPublished", // challenger epoch 1
                "CanarySet",
                "Promoted",
                "CanarySet",
                "RolledBack",
                "Retired",
            ]
        );
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(recs.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(recs[6].model.as_ref().unwrap().as_str(), "challenger");
        // Payloads ride along: the challenger's epoch-1 publish.
        assert!(matches!(
            recs[4].kind,
            EventKind::SnapshotPublished { epoch: 1, bytes } if bytes > 0
        ));
        // One publish-duration observation per journaled publish, per
        // model: register's and each publish's.
        for (model, publishes) in [("champion", 1), ("challenger", 2)] {
            let timed = o.metrics().model(model).publish_seconds.snapshot().count();
            assert_eq!(timed, publishes, "{model}");
        }
    }

    #[test]
    fn user_side_snapshot_is_cached_and_invalidated_on_swap() {
        let reg = registry();
        let champ = ModelId::from("champion");
        let entry = ModelRegistry::entry_of(&reg.inner.read(), &champ).unwrap();
        let first = entry.user_side_snapshot();
        // identity(4): 4 user rows, sharded at the store's count, exact
        // FP32 only.
        assert_eq!(first.n_items(), 4);
        assert_eq!(first.n_shards(), entry.store.n_shards());
        assert!(!first.full().has_fp16() && !first.full().has_ann());
        assert!(
            Arc::ptr_eq(&first, &entry.user_side_snapshot()),
            "second call must reuse the cached view"
        );
        // The cached copy is honest resident memory: exactly one copy of
        // X (4 users × f = 4 × 4 bytes) — the shards are views over it.
        let footprint = entry.footprint();
        let uf_side = footprint
            .children()
            .iter()
            .find(|c| c.name() == "user_snapshot")
            .expect("cached view must appear in the footprint");
        assert_eq!(uf_side.total_bytes(), 4 * 4 * 4);
        // Swapping X drops the view; the next call rebuilds from the new
        // matrix.
        reg.set_user_factors(&champ, DenseMatrix::zeros(7, 4))
            .unwrap();
        let rebuilt = entry.user_side_snapshot();
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.n_items(), 7);
    }

    #[test]
    fn force_retire_bypasses_the_in_use_guard() {
        let reg = registry();
        let champ = ModelId::from("champion");
        assert_eq!(
            reg.retire(&champ),
            Err(ServeError::ModelInUse(champ.clone()))
        );
        reg.force_retire(&champ).unwrap();
        assert!(!reg.is_live(&champ));
        // The drained default now fails resolution instead of panicking.
        assert_eq!(
            reg.router().resolve(None, RouteKey::User(7)),
            Err(ServeError::RetiredModel(champ))
        );
    }

    #[test]
    fn force_retiring_the_candidate_clears_the_canary() {
        let reg = registry();
        reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4))
            .unwrap();
        reg.set_canary(CanaryPolicy::new("challenger", 1.0))
            .unwrap();
        reg.force_retire(&ModelId::from("challenger")).unwrap();
        assert!(reg.canary().is_none(), "policy must not outlive its arm");
        // All traffic falls back to the (live) default.
        assert_eq!(
            reg.router()
                .resolve(None, RouteKey::User(1))
                .unwrap()
                .as_str(),
            "champion"
        );
    }

    #[test]
    fn stale_router_snapshot_falls_through_a_dead_candidate() {
        let reg = registry();
        reg.register("challenger", DenseMatrix::identity(4), snap(0, 6, 4))
            .unwrap();
        reg.set_canary(CanaryPolicy::new("challenger", 1.0))
            .unwrap();
        // Build a router that still carries the policy, but whose live
        // set lacks the candidate (the race a batch can observe).
        let mut router = reg.router();
        router.live.retain(|id| id.as_str() != "challenger");
        assert_eq!(
            router.resolve(None, RouteKey::User(3)).unwrap().as_str(),
            "champion",
            "dead canary arm must fall through, not panic"
        );
    }

    #[test]
    fn canary_fraction_edge_cases() {
        let never = CanaryPolicy::new("c", 0.0);
        let always = CanaryPolicy::new("c", 1.0);
        for u in 0..1000 {
            assert!(!never.routes_to_candidate(u));
            assert!(always.routes_to_candidate(u));
        }
        // NaN and out-of-range fractions are clamped.
        assert_eq!(CanaryPolicy::new("c", f64::NAN).fraction, 0.0);
        assert_eq!(CanaryPolicy::new("c", 7.0).fraction, 1.0);
        assert_eq!(CanaryPolicy::new("c", -1.0).fraction, 0.0);
    }
}
