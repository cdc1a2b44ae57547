//! LRU result cache keyed by `(model, epoch, user_epoch, user, endpoint,
//! retrieval)`, and its lock-striped concurrent wrapper.
//!
//! Recommendation traffic is heavily skewed (the dataset generators plant
//! Zipf item popularity and log-normal user activity precisely because real
//! traces look that way), so a small cache in front of the scorer absorbs a
//! large share of requests. Keying by `(model, epoch, user_epoch)` makes
//! invalidation free: a published Θ snapshot or a swapped `X` changes the
//! key of every lookup, so stale entries simply stop being hit and age
//! out of the LRU list — and two registry models (a canary arm and its
//! champion, say) can never answer for each other, because their
//! registry slots differ.
//!
//! Entries are returned by reference to the stored vector, so a hit is
//! bit-identical to the scoring pass that populated it (test-enforced).
//!
//! [`ResultCache`] itself is single-threaded (`&mut self`); the engine
//! fronts it with [`StripedCache`], which hashes each user id to one of N
//! independently locked segments so concurrent request threads contend
//! only when they land on the same stripe.

use crate::query::Endpoint;
use crate::scorer::Retrieval;
use crate::topk::ScoredItem;
use cumf_telemetry::{FootprintReport, MemoryFootprint};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Cache key: a known query id under one published epoch of one
/// registered model and one epoch of its user factors, scored by one
/// endpoint under one retrieval mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The model's registry slot ([`crate::registry::ModelRegistry::slot`]
    /// — unique per registered model, never reused), so arms of a canary
    /// split can never hit each other's entries.
    pub model: u32,
    /// Model epoch the cached ranking was computed under.
    pub epoch: u64,
    /// Epoch of the model's user factors `X` the ranking was computed
    /// under: 0 at registration, +1 per
    /// [`crate::registry::ModelRegistry::set_user_factors`], so a swapped
    /// `X` retires every key the way a Θ publish does.
    pub user_epoch: u64,
    /// Query id: the user row for user → top-k entries, the *item* row
    /// for similar-items entries. Safe to overload only because
    /// [`CacheKey::endpoint`] keeps the two id spaces apart.
    pub user: u32,
    /// The serving endpoint that produced the ranking. An item→item
    /// answer and a user→top-k answer for the same numeric id are
    /// unrelated rankings; the endpoint tag stops them aliasing.
    pub endpoint: Endpoint,
    /// Retrieval mode the ranking was computed under. An `Exact` and an
    /// `Approx` answer for the same `(model, epoch, user)` are different
    /// rankings, so the mode is part of the key — without it a config
    /// change (or two engines sharing a cache at different dial settings)
    /// would alias them.
    pub retrieval: Retrieval,
}

/// Hit/miss/occupancy counters, cheap to copy out for telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum entries.
    pub capacity: usize,
    /// Estimated bytes held by resident entries: per entry, the slot and
    /// index-map overhead plus `k × 8` bytes of ranked items. An estimate
    /// (allocator slack and `HashMap` table load are not modelled), but a
    /// faithful one — it scales with `len` and with `k`.
    pub bytes: u64,
}

impl CacheStats {
    /// Hits over all lookups (0 when nothing was looked up).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

/// One slot of the intrusive LRU list.
#[derive(Debug)]
struct Slot {
    key: CacheKey,
    value: Vec<ScoredItem>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map from [`CacheKey`] to a ranked
/// item list. All operations are `O(1)` (hash map + intrusive list).
///
/// ```
/// use cumf_serve::cache::{CacheKey, ResultCache};
/// use cumf_serve::query::Endpoint;
/// use cumf_serve::scorer::Retrieval;
/// use cumf_serve::topk::ScoredItem;
///
/// let mut cache = ResultCache::new(2);
/// let k = |user| CacheKey {
///     model: 0, epoch: 0, user_epoch: 0, user, endpoint: Endpoint::TopK, retrieval: Retrieval::Exact,
/// };
/// let v = vec![ScoredItem { item: 9, score: 1.0 }];
/// cache.insert(k(1), v.clone());
/// cache.insert(k(2), v.clone());
/// assert!(cache.get(&k(1)).is_some()); // 1 is now most-recent
/// cache.insert(k(3), v.clone());       // evicts 2, the LRU entry
/// assert!(cache.get(&k(2)).is_none());
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    /// Most-recently-used slot index, NIL when empty.
    head: usize,
    /// Least-recently-used slot index, NIL when empty.
    tail: usize,
    /// Reusable slot indices from evictions.
    free: Vec<usize>,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries (0 disables
    /// caching: every lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<&[ScoredItem]> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                Some(&self.slots[idx].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether `key` is resident, without touching recency or counters.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    /// Insert (or overwrite) `key`, evicting the least-recently-used entry
    /// if the cache is full.
    pub fn insert(&mut self, key: CacheKey, value: Vec<ScoredItem>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            self.detach(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.detach(lru);
            let old = self.slots[lru].key;
            self.map.remove(&old);
            self.free.push(lru);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        // Fixed per-entry overhead: the LRU slot plus the index-map entry
        // (key + slot index). Payloads are counted exactly.
        let per_entry = (std::mem::size_of::<Slot>()
            + std::mem::size_of::<CacheKey>()
            + std::mem::size_of::<usize>()) as u64;
        let payload: u64 = self
            .map
            .values()
            .map(|&idx| (self.slots[idx].value.len() * std::mem::size_of::<ScoredItem>()) as u64)
            .sum();
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            len: self.map.len(),
            capacity: self.capacity,
            bytes: self.map.len() as u64 * per_entry + payload,
        }
    }

    /// Drop every entry (counters are preserved — they describe traffic,
    /// not contents).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A lock-striped concurrent view over N [`ResultCache`] segments.
///
/// Each user id hashes (Fibonacci multiplicative hash — epoch is *not*
/// part of the stripe choice, so a republish keeps every user on the same
/// stripe and old-epoch entries age out of that stripe's LRU list) to one
/// segment guarded by its own mutex. Hit/miss semantics per lookup are
/// exactly [`ResultCache`]'s; total capacity is split evenly across
/// stripes, and [`StripedCache::stats`] sums the per-stripe counters so
/// hit/miss/occupancy numbers aggregate the way the single-lock cache
/// reported them.
///
/// ```
/// use cumf_serve::cache::{CacheKey, StripedCache};
/// use cumf_serve::query::Endpoint;
/// use cumf_serve::scorer::Retrieval;
/// use cumf_serve::topk::ScoredItem;
///
/// let cache = StripedCache::new(64, 8);
/// let key = CacheKey {
///     model: 0, epoch: 0, user_epoch: 0, user: 7, endpoint: Endpoint::TopK,
///     retrieval: Retrieval::Exact,
/// };
/// assert!(cache.get(&key).is_none());
/// cache.insert(key, vec![ScoredItem { item: 1, score: 2.0 }]);
/// assert_eq!(cache.get(&key).unwrap()[0].item, 1);
/// let s = cache.stats();
/// assert_eq!((s.hits, s.misses, s.len, s.capacity), (1, 1, 1, 64));
/// ```
#[derive(Debug)]
pub struct StripedCache {
    stripes: Vec<Mutex<ResultCache>>,
}

impl StripedCache {
    /// A cache of `capacity` total entries split over `n_stripes`
    /// independently locked segments (`n_stripes` is floored at 1; the
    /// first `capacity % n_stripes` stripes absorb the remainder, so the
    /// segment capacities always sum to `capacity`). Capacity 0 disables
    /// caching entirely, as in [`ResultCache::new`].
    pub fn new(capacity: usize, n_stripes: usize) -> StripedCache {
        let n = n_stripes.max(1);
        let (base, rem) = (capacity / n, capacity % n);
        StripedCache {
            stripes: (0..n)
                .map(|i| Mutex::new(ResultCache::new(base + usize::from(i < rem))))
                .collect(),
        }
    }

    /// Number of lock stripes.
    pub fn n_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe a key's user id hashes to.
    #[inline]
    fn stripe_of(&self, key: &CacheKey) -> &Mutex<ResultCache> {
        let h = key.user.wrapping_mul(0x9E37_79B9) as usize >> 16;
        &self.stripes[h % self.stripes.len()]
    }

    /// Look up `key` in its stripe, promoting it to most-recently-used on
    /// a hit. Returns a clone of the stored ranking (the stripe lock is
    /// released before returning).
    pub fn get(&self, key: &CacheKey) -> Option<Vec<ScoredItem>> {
        self.stripe_of(key).lock().get(key).map(<[_]>::to_vec)
    }

    /// Insert (or overwrite) `key` in its stripe, evicting that stripe's
    /// least-recently-used entry if the stripe is full.
    pub fn insert(&self, key: CacheKey, value: Vec<ScoredItem>) {
        self.stripe_of(&key).lock().insert(key, value);
    }

    /// Counters and occupancy summed over all stripes.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for stripe in &self.stripes {
            let s = stripe.lock().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.len += s.len;
            total.capacity += s.capacity;
            total.bytes += s.bytes;
        }
        total
    }

    /// Per-stripe stats, in stripe order (each stripe locked briefly in
    /// turn — not an atomic snapshot across stripes).
    pub fn stripe_stats(&self) -> Vec<CacheStats> {
        self.stripes.iter().map(|s| s.lock().stats()).collect()
    }

    /// Drop every entry in every stripe (counters are preserved, as in
    /// [`ResultCache::clear`]).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.lock().clear();
        }
    }
}

impl MemoryFootprint for StripedCache {
    /// One `stripe{i}` leaf per lock stripe, carrying that stripe's
    /// estimated entry bytes (see [`CacheStats::bytes`]).
    fn footprint(&self) -> FootprintReport {
        let stripes = self
            .stripe_stats()
            .into_iter()
            .enumerate()
            .map(|(i, s)| FootprintReport::leaf(format!("stripe{i}"), s.bytes))
            .collect();
        FootprintReport::branch("cache", stripes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(user: u32, epoch: u64) -> CacheKey {
        CacheKey {
            model: 0,
            epoch,
            user_epoch: 0,
            user,
            endpoint: Endpoint::TopK,
            retrieval: Retrieval::Exact,
        }
    }

    fn val(item: u32) -> Vec<ScoredItem> {
        vec![ScoredItem {
            item,
            score: item as f32,
        }]
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ResultCache::new(3);
        for u in 0..3 {
            c.insert(key(u, 0), val(u));
        }
        // Touch 0 so 1 becomes LRU.
        assert!(c.get(&key(0, 0)).is_some());
        c.insert(key(3, 0), val(3));
        assert!(c.contains(&key(0, 0)));
        assert!(!c.contains(&key(1, 0)));
        assert!(c.contains(&key(2, 0)));
        assert!(c.contains(&key(3, 0)));
        assert_eq!(c.stats().len, 3);
    }

    #[test]
    fn epoch_partitions_the_keyspace() {
        let mut c = ResultCache::new(4);
        c.insert(key(7, 0), val(1));
        assert!(c.get(&key(7, 1)).is_none(), "new epoch: logical miss");
        c.insert(key(7, 1), val(2));
        assert_eq!(c.get(&key(7, 0)).unwrap()[0].item, 1);
        assert_eq!(c.get(&key(7, 1)).unwrap()[0].item, 2);
    }

    #[test]
    fn model_slot_partitions_the_keyspace() {
        // Same user, same epoch, different registry slots: fully isolated
        // — the cache-side half of canary-arm isolation.
        let mut c = ResultCache::new(4);
        let champion = CacheKey {
            model: 0,
            epoch: 3,
            user_epoch: 0,
            user: 7,
            endpoint: Endpoint::TopK,
            retrieval: Retrieval::Exact,
        };
        let challenger = CacheKey {
            model: 1,
            epoch: 3,
            user_epoch: 0,
            user: 7,
            endpoint: Endpoint::TopK,
            retrieval: Retrieval::Exact,
        };
        c.insert(champion, val(1));
        assert!(c.get(&challenger).is_none(), "arm must not hit other arm");
        c.insert(challenger, val(2));
        assert_eq!(c.get(&champion).unwrap()[0].item, 1);
        assert_eq!(c.get(&challenger).unwrap()[0].item, 2);
    }

    #[test]
    fn retrieval_mode_partitions_the_keyspace() {
        // Same (model, epoch, user) scored exactly and approximately are
        // different answers; the key must keep them apart.
        use crate::scorer::QuantMode;
        let mut c = ResultCache::new(4);
        let exact = key(7, 3);
        let approx = CacheKey {
            retrieval: Retrieval::Approx {
                n_probe: 8,
                quant: QuantMode::Int8,
            },
            ..exact
        };
        c.insert(exact, val(1));
        assert!(c.get(&approx).is_none(), "modes must not alias");
        c.insert(approx, val(2));
        assert_eq!(c.get(&exact).unwrap()[0].item, 1);
        assert_eq!(c.get(&approx).unwrap()[0].item, 2);
        // Different dial settings are different answers too.
        let wider = CacheKey {
            retrieval: Retrieval::Approx {
                n_probe: 16,
                quant: QuantMode::Int8,
            },
            ..exact
        };
        assert!(c.get(&wider).is_none(), "n_probe is part of the key");
    }

    #[test]
    fn endpoint_partitions_the_keyspace() {
        // Item 7's similar-items ranking and user 7's top-k ranking share
        // the numeric id but are unrelated answers; the endpoint tag must
        // keep them apart.
        let mut c = ResultCache::new(4);
        let topk = key(7, 3);
        let sim = CacheKey {
            endpoint: Endpoint::SimilarItems,
            ..topk
        };
        c.insert(topk, val(1));
        assert!(c.get(&sim).is_none(), "endpoints must not alias");
        c.insert(sim, val(2));
        assert_eq!(c.get(&topk).unwrap()[0].item, 1);
        assert_eq!(c.get(&sim).unwrap()[0].item, 2);
    }

    #[test]
    fn counters_track_traffic() {
        let mut c = ResultCache::new(2);
        assert!(c.get(&key(0, 0)).is_none());
        c.insert(key(0, 0), val(0));
        assert!(c.get(&key(0, 0)).is_some());
        assert!(c.get(&key(0, 0)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overwrite_updates_value_and_recency() {
        let mut c = ResultCache::new(2);
        c.insert(key(0, 0), val(1));
        c.insert(key(1, 0), val(2));
        c.insert(key(0, 0), val(3)); // overwrite; 1 is now LRU
        c.insert(key(2, 0), val(4));
        assert!(!c.contains(&key(1, 0)));
        assert_eq!(c.get(&key(0, 0)).unwrap()[0].item, 3);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert(key(0, 0), val(1));
        assert!(c.get(&key(0, 0)).is_none());
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn single_slot_cache_churns_correctly() {
        let mut c = ResultCache::new(1);
        for u in 0..10 {
            c.insert(key(u, 0), val(u));
            assert_eq!(c.get(&key(u, 0)).unwrap()[0].item, u);
            if u > 0 {
                assert!(!c.contains(&key(u - 1, 0)));
            }
        }
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c = ResultCache::new(2);
        c.insert(key(0, 0), val(0));
        let _ = c.get(&key(0, 0));
        c.clear();
        assert_eq!(c.stats().len, 0);
        assert_eq!(c.stats().hits, 1);
        assert!(c.get(&key(0, 0)).is_none());
    }

    #[test]
    fn striped_capacity_sums_to_total() {
        for (cap, stripes) in [(64, 8), (10, 3), (7, 16), (0, 4), (5, 1)] {
            let c = StripedCache::new(cap, stripes);
            assert_eq!(c.stats().capacity, cap, "{cap} entries / {stripes} stripes");
            assert_eq!(c.n_stripes(), stripes);
        }
        // Stripe count floors at 1.
        assert_eq!(StripedCache::new(8, 0).n_stripes(), 1);
    }

    #[test]
    fn striped_semantics_match_the_single_lock_cache() {
        let striped = StripedCache::new(256, 8);
        let mut single = ResultCache::new(256);
        for round in 0..3u32 {
            for user in 0..100u32 {
                let k = key(user, 0);
                let a = striped.get(&k);
                let b = single.get(&k).map(<[_]>::to_vec);
                assert_eq!(a.is_some(), b.is_some(), "round {round} user {user}");
                if a.is_none() {
                    striped.insert(k, val(user));
                    single.insert(k, val(user));
                } else {
                    assert_eq!(a, b);
                }
            }
        }
        // Capacity exceeds the working set, so no evictions anywhere and
        // the aggregate counters agree exactly with the single-lock run.
        let (s, t) = (striped.stats(), single.stats());
        assert_eq!((s.hits, s.misses, s.len), (t.hits, t.misses, t.len));
    }

    #[test]
    fn striped_same_user_new_epoch_stays_on_one_stripe() {
        let c = StripedCache::new(16, 4);
        c.insert(key(9, 0), val(1));
        c.insert(key(9, 1), val(2));
        // Both epochs resident; epoch 0 entry is a logical miss under
        // epoch 1's key but still retrievable under its own.
        assert_eq!(c.get(&key(9, 0)).unwrap()[0].item, 1);
        assert_eq!(c.get(&key(9, 1)).unwrap()[0].item, 2);
    }

    #[test]
    fn byte_estimate_tracks_entries_and_payload() {
        let mut c = ResultCache::new(4);
        assert_eq!(c.stats().bytes, 0);
        c.insert(key(0, 0), val(1));
        let one = c.stats().bytes;
        assert!(one > 8, "an entry costs more than its one ScoredItem");
        c.insert(
            key(1, 0),
            vec![
                ScoredItem {
                    item: 2,
                    score: 0.5
                };
                10
            ],
        );
        let two = c.stats().bytes;
        // Second entry carries 9 more items than the first: +72 payload
        // bytes on top of one more fixed per-entry overhead.
        assert_eq!(two, 2 * one + 9 * 8);
        c.clear();
        assert_eq!(c.stats().bytes, 0, "cleared entries stop counting");
    }

    #[test]
    fn striped_footprint_sums_stripe_bytes() {
        let c = StripedCache::new(16, 4);
        for u in 0..8 {
            c.insert(key(u, 0), val(u));
        }
        let r = c.footprint();
        assert!(r.verify());
        assert_eq!(r.children().len(), 4);
        assert_eq!(r.total_bytes(), c.stats().bytes);
        assert!(r.total_bytes() > 0);
    }

    #[test]
    fn striped_eviction_is_per_stripe() {
        // One stripe of capacity 1: inserting two users that collide on
        // the single stripe evicts the older entry.
        let c = StripedCache::new(1, 1);
        c.insert(key(0, 0), val(0));
        c.insert(key(1, 0), val(1));
        assert!(c.get(&key(0, 0)).is_none());
        assert_eq!(c.get(&key(1, 0)).unwrap()[0].item, 1);
    }
}
