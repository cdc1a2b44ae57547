//! The lifecycle event journal: typed, engine-clock-timestamped audit
//! records of everything operationally significant that happened to a
//! serving process.
//!
//! Metrics answer "how much"; the journal answers "what happened, in what
//! order". Every registry mutation (register / publish / canary / promote
//! / rollback / retire), every SLO fast-burn transition, every
//! memory-budget breach, and every shed burst lands here as a
//! [`JournalRecord`] — a monotone sequence number, a timestamp on the
//! engine clock ([`crate::obs::ServeObs::now`]), an optional model id,
//! and a typed [`EventKind`] payload. The records live in a bounded ring
//! (oldest evicted first), export as JSON or JSONL, and each emission
//! increments `serve_events_total{kind=…}` so scrape-side alerting can
//! trigger on lifecycle churn without parsing the journal itself.
//!
//! The journal is the audit backbone of the `/debug/events` endpoint
//! ([`crate::obs::http`]); see `docs/OBSERVABILITY.md` for the record
//! schema.

use crate::registry::ModelId;
use cumf_telemetry::MetricsRegistry;
use parking_lot::Mutex;
use serde::Value;
use std::collections::VecDeque;
use std::sync::Arc;

/// What happened. Each variant carries only the payload that is not
/// already on the enclosing [`JournalRecord`] (time, model, sequence).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    /// A model was registered (its epoch-0 snapshot published alongside,
    /// recorded as a separate [`EventKind::SnapshotPublished`]).
    ModelRegistered,
    /// A snapshot (epoch) of a model's item factors went live.
    SnapshotPublished {
        /// The epoch now being served.
        epoch: u64,
        /// Resident bytes of the published snapshot (factors plus any
        /// int8 / centroid-index sidecars).
        bytes: u64,
    },
    /// A canary policy was installed or replaced; the record's model is
    /// the candidate.
    CanarySet {
        /// Fraction of unaddressed traffic routed to the candidate.
        fraction: f64,
    },
    /// The canary candidate became the default alias.
    Promoted,
    /// The canary policy was cleared without promotion.
    RolledBack,
    /// A model was retired from serving (tombstoned, memory retained).
    Retired,
    /// The short-window SLO burn rate crossed above the fast-burn
    /// threshold ([`crate::obs::slo::SloConfig::fast_burn_threshold`]).
    SloBurnEntered {
        /// The window the burn was measured over, in seconds.
        window_secs: f64,
        /// The burn rate at the transition.
        burn: f64,
    },
    /// The short-window burn rate dropped back below the threshold.
    SloBurnExited {
        /// The window the burn was measured over, in seconds.
        window_secs: f64,
        /// The burn rate at the transition.
        burn: f64,
    },
    /// A publish left the engine's resident bytes over the configured
    /// soft memory budget (warn-only; nothing was evicted).
    MemBudgetExceeded {
        /// Resident bytes after the publish.
        resident_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
    /// Requests were shed at admission. Rate-limited to at most one
    /// record per second; `count` is the sheds folded into this record
    /// (the `serve_shed_total` counter stays exact).
    ShedBurst {
        /// Sheds since the previous `ShedBurst` record.
        count: u64,
    },
    /// A serving endpoint ([`crate::engine::Query`] shape) answered its
    /// first request on this engine. Recorded once per endpoint per
    /// engine, so the journal shows which parts of the query surface a
    /// process actually exercised.
    EndpointFirstServed {
        /// The endpoint's stable token (the `endpoint=` metric label).
        endpoint: &'static str,
    },
}

impl EventKind {
    /// Stable name of this event kind: the `kind` field of the JSON
    /// record and the `kind` label on `serve_events_total`.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ModelRegistered => "ModelRegistered",
            EventKind::SnapshotPublished { .. } => "SnapshotPublished",
            EventKind::CanarySet { .. } => "CanarySet",
            EventKind::Promoted => "Promoted",
            EventKind::RolledBack => "RolledBack",
            EventKind::Retired => "Retired",
            EventKind::SloBurnEntered { .. } => "SloBurnEntered",
            EventKind::SloBurnExited { .. } => "SloBurnExited",
            EventKind::MemBudgetExceeded { .. } => "MemBudgetExceeded",
            EventKind::ShedBurst { .. } => "ShedBurst",
            EventKind::EndpointFirstServed { .. } => "EndpointFirstServed",
        }
    }

    /// The variant's payload fields as `(name, value)` pairs, flattened
    /// into the record's JSON object.
    fn payload(&self) -> Vec<(String, Value)> {
        match *self {
            EventKind::SnapshotPublished { epoch, bytes } => vec![
                ("epoch".into(), Value::Num(epoch as f64)),
                ("bytes".into(), Value::Num(bytes as f64)),
            ],
            EventKind::CanarySet { fraction } => {
                vec![("fraction".into(), Value::Num(fraction))]
            }
            EventKind::SloBurnEntered { window_secs, burn }
            | EventKind::SloBurnExited { window_secs, burn } => vec![
                ("window_secs".into(), Value::Num(window_secs)),
                ("burn".into(), Value::Num(burn)),
            ],
            EventKind::MemBudgetExceeded {
                resident_bytes,
                budget_bytes,
            } => vec![
                ("resident_bytes".into(), Value::Num(resident_bytes as f64)),
                ("budget_bytes".into(), Value::Num(budget_bytes as f64)),
            ],
            EventKind::ShedBurst { count } => {
                vec![("count".into(), Value::Num(count as f64))]
            }
            EventKind::EndpointFirstServed { endpoint } => {
                vec![("endpoint".into(), Value::Str(endpoint.into()))]
            }
            _ => vec![],
        }
    }
}

/// One journal entry: when, which model (if any), and what happened.
#[derive(Clone, Debug)]
pub struct JournalRecord {
    /// Monotone sequence number, 0-based over the journal's lifetime
    /// (eviction never renumbers — gaps at the front mean the ring
    /// wrapped).
    pub seq: u64,
    /// Engine-clock timestamp ([`crate::obs::ServeObs::now`]).
    pub time: f64,
    /// The model the event concerns, when it concerns one.
    pub model: Option<ModelId>,
    /// What happened.
    pub kind: EventKind,
}

impl JournalRecord {
    /// The record as one flat JSON object:
    /// `{seq, time, kind, model?, …payload}`.
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("seq".into(), Value::Num(self.seq as f64)),
            ("time".into(), Value::Num(self.time)),
            ("kind".into(), Value::Str(self.kind.name().into())),
        ];
        if let Some(model) = &self.model {
            members.push(("model".into(), Value::Str(model.as_str().into())));
        }
        members.extend(self.kind.payload());
        Value::Object(members)
    }
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<JournalRecord>,
    next_seq: u64,
}

/// A bounded ring of [`JournalRecord`]s shared by every emitter. All
/// methods take `&self`; emission is a short mutex hold plus one counter
/// increment, cheap enough for control-plane paths (it is never on the
/// per-request hot path — shed records are burst-aggregated upstream).
#[derive(Debug)]
pub struct EventJournal {
    capacity: usize,
    registry: Arc<MetricsRegistry>,
    inner: Mutex<Inner>,
}

impl EventJournal {
    /// A journal retaining the most recent `capacity` records (floored at
    /// 1), counting emissions on `registry` as
    /// `serve_events_total{kind=…}`.
    pub fn new(capacity: usize, registry: Arc<MetricsRegistry>) -> EventJournal {
        EventJournal {
            capacity: capacity.max(1),
            registry,
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                next_seq: 0,
            }),
        }
    }

    /// Append one record at engine time `time`; returns its sequence
    /// number.
    pub fn record(&self, time: f64, model: Option<ModelId>, kind: EventKind) -> u64 {
        self.registry
            .counter_with(
                "serve_events_total",
                "Lifecycle journal records emitted, by kind",
                &[("kind", kind.name())],
            )
            .inc();
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(JournalRecord {
            seq,
            time,
            model,
            kind,
        });
        seq
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<JournalRecord> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Records emitted over the journal's lifetime (retained or evicted).
    pub fn total(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The journal as one JSON object:
    /// `{"total": N, "capacity": C, "events": [...]}` — `events` holds
    /// the retained records oldest first.
    pub fn to_value(&self) -> Value {
        let inner = self.inner.lock();
        Value::Object(vec![
            ("total".into(), Value::Num(inner.next_seq as f64)),
            ("capacity".into(), Value::Num(self.capacity as f64)),
            (
                "events".into(),
                Value::Array(inner.ring.iter().map(JournalRecord::to_value).collect()),
            ),
        ])
    }

    /// The retained records as JSONL: one JSON object per line, oldest
    /// first (the streaming-friendly export; `to_value` is the one-shot
    /// document).
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for r in &inner.ring {
            out.push_str(&r.to_value().to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(cap: usize) -> EventJournal {
        EventJournal::new(cap, Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn records_keep_order_and_monotone_sequence() {
        let j = journal(16);
        j.record(0.1, Some(ModelId::from("m0")), EventKind::ModelRegistered);
        j.record(
            0.2,
            Some(ModelId::from("m0")),
            EventKind::SnapshotPublished {
                epoch: 1,
                bytes: 4096,
            },
        );
        j.record(0.3, None, EventKind::ShedBurst { count: 3 });
        let recs = j.records();
        assert_eq!(recs.len(), 3);
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(recs.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(recs[1].kind.name(), "SnapshotPublished");
        assert_eq!(recs[2].model, None);
        assert_eq!(j.total(), 3);
    }

    #[test]
    fn ring_evicts_oldest_without_renumbering() {
        let j = journal(2);
        for i in 0..5 {
            j.record(i as f64, None, EventKind::Promoted);
        }
        let recs = j.records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].seq, recs[1].seq), (3, 4));
        assert_eq!(j.total(), 5);
        assert_eq!(j.capacity(), 2);
    }

    #[test]
    fn json_export_flattens_payloads_and_counts_by_kind() {
        let reg = Arc::new(MetricsRegistry::new());
        let j = EventJournal::new(8, Arc::clone(&reg));
        j.record(
            1.5,
            Some(ModelId::from("champ")),
            EventKind::SnapshotPublished {
                epoch: 7,
                bytes: 1024,
            },
        );
        j.record(
            2.0,
            None,
            EventKind::SloBurnEntered {
                window_secs: 1.0,
                burn: 42.0,
            },
        );
        let v = j.to_value();
        let events = v.get("events").unwrap().as_array().unwrap();
        let first = &events[0];
        assert_eq!(
            first.get("kind").unwrap().as_str(),
            Some("SnapshotPublished")
        );
        assert_eq!(first.get("model").unwrap().as_str(), Some("champ"));
        assert_eq!(first.get("epoch").unwrap().as_f64(), Some(7.0));
        assert_eq!(first.get("bytes").unwrap().as_f64(), Some(1024.0));
        assert_eq!(events[1].get("burn").unwrap().as_f64(), Some(42.0));
        // JSONL: one parseable object per line.
        let jsonl = j.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(Value::parse(line).is_ok(), "unparseable line {line}");
        }
        // Each emission counted under its kind label.
        let text = reg.render_prometheus();
        assert!(text.contains("serve_events_total{kind=\"SnapshotPublished\"} 1"));
        assert!(text.contains("serve_events_total{kind=\"SloBurnEntered\"} 1"));
    }
}
