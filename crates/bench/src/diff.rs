//! Bench regression gating: compare a fresh `serve_bench --json` summary
//! against the committed `BENCH_serve.json` reference with tolerances.
//!
//! The committed reference used to be schema-checked but never *compared*,
//! so a serving-path performance regression could merge silently. The
//! `bench_diff` binary (thin wrapper over [`diff`]) closes that gap:
//!
//! * throughput may not **drop** by more than `qps_drop_frac`,
//! * p50 / p99 latency may not **rise** by more than their fractions,
//! * the shed fraction may not rise by more than `shed_rise_abs`
//!   (absolute, since the reference is usually 0).
//!
//! Tolerances default to generous values because CI hosts are noisy —
//! the gate exists to catch "3× slower", not "3% slower". Both summaries
//! must carry the same [`SCHEMA_VERSION`] (written by `serve_bench`),
//! so the comparison can evolve safely with the schema.

use serde::Value;

/// Version stamped into `serve_bench --json` output as `schema_version`.
/// Bump when renaming or re-unit-ing any field `bench_diff` reads.
///
/// v3 added the `memory` (resident-bytes component tree) and `bandwidth`
/// (scan bytes, effective GB/s) blocks; `bench_diff` reports them
/// informationally but never gates on them. v4 added the `retrieval`
/// block (mode, `n_probe`, clusters, quant) and, under `--retrieval
/// approx`, the measured `recall` block (recall@k against the exact FP32
/// scan plus the scan-byte ratio); both are likewise informational here —
/// CI gates recall directly on the JSON. v5 added `score_flops` and
/// `effective_gflops` to the `bandwidth` block and, under `--kernels`,
/// the `kernels` microbenchmark block (per-kernel items/s, GB/s,
/// GFLOP/s, plus the fp32-speedup ratio; an fp16-over-fp32 ratio rode
/// along until the FP16 serving path was removed) — all
/// informational: kernel throughput is host-shaped and never gates. v6
/// added the `endpoint` token (which `--endpoint` the replay exercised)
/// and the per-endpoint `endpoints` block (requests + latency summary
/// per `endpoint=` label); the per-endpoint rows are informational —
/// traffic mix is workload-shaped, so only the aggregate qps/latency
/// rows gate.
pub const SCHEMA_VERSION: f64 = 6.0;

/// Allowed regressions before the diff fails.
#[derive(Clone, Copy, Debug)]
pub struct DiffTolerances {
    /// Max fractional throughput drop (0.35 = fail below 65% of reference).
    pub qps_drop_frac: f64,
    /// Max fractional p50 latency rise (1.0 = fail above 2× reference).
    pub p50_rise_frac: f64,
    /// Max fractional p99 latency rise.
    pub p99_rise_frac: f64,
    /// Max absolute rise in shed fraction (shed / requests).
    pub shed_rise_abs: f64,
}

impl Default for DiffTolerances {
    fn default() -> DiffTolerances {
        DiffTolerances {
            qps_drop_frac: 0.35,
            p50_rise_frac: 1.0,
            p99_rise_frac: 1.5,
            shed_rise_abs: 0.05,
        }
    }
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Check {
    /// Metric name (dotted path in the summary).
    pub metric: &'static str,
    /// Reference value.
    pub reference: f64,
    /// Current value.
    pub current: f64,
    /// Signed change in the *bad* direction (fraction of reference, or
    /// absolute for the shed fraction); negative means improvement.
    pub change: f64,
    /// The tolerance this change was held against.
    pub limit: f64,
}

impl Check {
    /// Whether this metric regressed beyond its tolerance.
    pub fn regressed(&self) -> bool {
        self.change > self.limit
    }

    /// Whether this metric is informational only (infinite tolerance):
    /// it is reported in the table but can never regress.
    pub fn informational(&self) -> bool {
        self.limit.is_infinite()
    }
}

/// The outcome of one reference-vs-current comparison.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Every compared metric, in a fixed order.
    pub checks: Vec<Check>,
}

impl DiffReport {
    /// Whether any metric regressed beyond tolerance.
    pub fn regressed(&self) -> bool {
        self.checks.iter().any(Check::regressed)
    }

    /// Human-readable table of the comparison.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<22} {:>14} {:>14} {:>9} {:>9}  verdict\n",
            "metric", "reference", "current", "change", "limit"
        );
        for c in &self.checks {
            let limit = if c.informational() {
                format!("{:>9}", "-")
            } else {
                format!("{:>8.1}%", c.limit * 100.0)
            };
            out.push_str(&format!(
                "{:<22} {:>14.4} {:>14.4} {:>8.1}% {}  {}\n",
                c.metric,
                c.reference,
                c.current,
                c.change * 100.0,
                limit,
                if c.regressed() {
                    "REGRESSED"
                } else if c.informational() {
                    "info"
                } else {
                    "ok"
                }
            ));
        }
        out
    }
}

fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for p in path {
        cur = cur
            .get(p)
            .ok_or_else(|| format!("summary is missing `{}`", path.join(".")))?;
    }
    cur.as_f64()
        .ok_or_else(|| format!("`{}` is not a number", path.join(".")))
}

/// Fractional rise of `cur` over `ref` (0 when the reference is 0 and the
/// current value is too; "infinitely worse" collapses to a large number).
fn rise_frac(reference: f64, current: f64) -> f64 {
    if reference > 0.0 {
        (current - reference) / reference
    } else if current > 0.0 {
        f64::MAX
    } else {
        0.0
    }
}

/// Compare a fresh summary against the committed reference.
///
/// Errors (rather than failing checks) when either summary is missing a
/// field or their `schema_version`s disagree — those are tooling bugs,
/// not performance regressions, and exit differently in `bench_diff`.
pub fn diff(
    reference: &Value,
    current: &Value,
    tol: &DiffTolerances,
) -> Result<DiffReport, String> {
    let ref_schema = num(reference, &["schema_version"])?;
    let cur_schema = num(current, &["schema_version"])?;
    if ref_schema != cur_schema {
        return Err(format!(
            "schema_version mismatch: reference {ref_schema} vs current {cur_schema}"
        ));
    }
    if cur_schema != SCHEMA_VERSION {
        return Err(format!(
            "summaries are schema {cur_schema}, this bench_diff understands {SCHEMA_VERSION}"
        ));
    }

    let mut checks = Vec::new();

    let qps_ref = num(reference, &["qps"])?;
    let qps_cur = num(current, &["qps"])?;
    checks.push(Check {
        metric: "qps",
        reference: qps_ref,
        current: qps_cur,
        // A *drop* is bad for throughput, so the signed change inverts.
        change: if qps_ref > 0.0 {
            (qps_ref - qps_cur) / qps_ref
        } else {
            0.0
        },
        limit: tol.qps_drop_frac,
    });

    for (metric, path, limit) in [
        ("latency_ms.p50", ["latency_ms", "p50"], tol.p50_rise_frac),
        ("latency_ms.p99", ["latency_ms", "p99"], tol.p99_rise_frac),
    ] {
        let r = num(reference, &path)?;
        let c = num(current, &path)?;
        checks.push(Check {
            metric,
            reference: r,
            current: c,
            change: rise_frac(r, c),
            limit,
        });
    }

    let shed_frac = |v: &Value| -> Result<f64, String> {
        let shed = num(v, &["shed"])?;
        let requests = num(v, &["requests"])?;
        Ok(if requests > 0.0 { shed / requests } else { 0.0 })
    };
    let (sr, sc) = (shed_frac(reference)?, shed_frac(current)?);
    checks.push(Check {
        metric: "shed_fraction",
        reference: sr,
        current: sc,
        change: sc - sr,
        limit: tol.shed_rise_abs,
    });

    // Schema-3 memory/bandwidth figures: informational only. Resident
    // bytes are configuration-shaped (model size, cache capacity) and
    // effective GB/s is host-shaped, so neither gates a merge — but a
    // surprise in either deserves eyes, so they ride along in the table.
    // Summaries missing the blocks (hand-trimmed fixtures) are skipped,
    // not errors.
    for (metric, path) in [
        ("memory.resident_bytes", ["memory", "resident_bytes"]),
        ("bandwidth.effective_gbps", ["bandwidth", "effective_gbps"]),
    ] {
        if let (Ok(r), Ok(c)) = (num(reference, &path), num(current, &path)) {
            checks.push(Check {
                metric,
                reference: r,
                current: c,
                change: rise_frac(r, c),
                limit: f64::INFINITY,
            });
        }
    }

    // Schema-6 per-endpoint traffic: informational. The endpoint mix is
    // whatever `--endpoint` the run chose, so a shifted count or a moved
    // per-endpoint p99 is a workload change, not a regression — the
    // aggregate qps/latency rows above do the gating. Older summaries
    // without the block skip the rows.
    for (metric, endpoint) in [
        ("endpoints.topk", "topk"),
        ("endpoints.similar_items", "similar_items"),
        ("endpoints.similar_users", "similar_users"),
        ("endpoints.rank_items", "rank_items"),
        ("endpoints.explain", "explain"),
    ] {
        let path = ["endpoints", endpoint, "requests"];
        if let (Ok(r), Ok(c)) = (num(reference, &path), num(current, &path)) {
            checks.push(Check {
                metric,
                reference: r,
                current: c,
                change: rise_frac(r, c),
                limit: f64::INFINITY,
            });
        }
    }

    // Schema-5 microkernel ratio: informational for the same reason as
    // bandwidth — throughput is host-shaped (vector width, cache sizes),
    // so a number moving between machines means nothing. Runs without
    // `--kernels` simply skip the row.
    let path = ["kernels", "fp32_speedup"];
    if let (Ok(r), Ok(c)) = (num(reference, &path), num(current, &path)) {
        checks.push(Check {
            metric: "kernels.fp32_speedup",
            reference: r,
            current: c,
            change: rise_frac(r, c),
            limit: f64::INFINITY,
        });
    }

    Ok(DiffReport { checks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(qps: f64, p50: f64, p99: f64, shed: f64) -> Value {
        summary_with_memory(qps, p50, p99, shed, 1_000_000.0, 2.5)
    }

    fn summary_with_memory(
        qps: f64,
        p50: f64,
        p99: f64,
        shed: f64,
        resident: f64,
        gbps: f64,
    ) -> Value {
        Value::parse(&format!(
            r#"{{"schema_version": {SCHEMA_VERSION}, "qps": {qps}, "requests": 1000,
                "shed": {shed},
                "latency_ms": {{"p50": {p50}, "p99": {p99}}},
                "memory": {{"resident_bytes": {resident}}},
                "bandwidth": {{"effective_gbps": {gbps}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_summaries_pass() {
        let s = summary(4000.0, 0.5, 1.0, 0.0);
        let report = diff(&s, &s, &DiffTolerances::default()).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.checks.iter().all(|c| c.change.abs() < 1e-12));
    }

    #[test]
    fn big_qps_drop_regresses_small_drop_does_not() {
        let reference = summary(4000.0, 0.5, 1.0, 0.0);
        let tol = DiffTolerances::default();
        let mild = diff(&reference, &summary(3000.0, 0.5, 1.0, 0.0), &tol).unwrap();
        assert!(!mild.regressed(), "25% drop within 35% tolerance");
        let severe = diff(&reference, &summary(2000.0, 0.5, 1.0, 0.0), &tol).unwrap();
        assert!(severe.regressed(), "50% drop must fail");
        let check = &severe.checks[0];
        assert_eq!(check.metric, "qps");
        assert!((check.change - 0.5).abs() < 1e-12);
        assert!(severe.render().contains("REGRESSED"));
        // Faster-than-reference is an improvement, never a regression.
        let faster = diff(&reference, &summary(9000.0, 0.5, 1.0, 0.0), &tol).unwrap();
        assert!(!faster.regressed());
    }

    #[test]
    fn latency_and_shed_regressions_are_caught() {
        let reference = summary(4000.0, 0.5, 1.0, 0.0);
        let tol = DiffTolerances::default();
        let slow_p50 = diff(&reference, &summary(4000.0, 1.2, 1.0, 0.0), &tol).unwrap();
        assert!(slow_p50.regressed(), "2.4x p50 over 2x tolerance");
        let slow_p99 = diff(&reference, &summary(4000.0, 0.5, 2.4, 0.0), &tol).unwrap();
        assert!(!slow_p99.regressed(), "2.4x p99 within 2.5x tolerance");
        let shedding = diff(&reference, &summary(4000.0, 0.5, 1.0, 100.0), &tol).unwrap();
        assert!(shedding.regressed(), "10% shed over 5% absolute budget");
    }

    #[test]
    fn memory_and_bandwidth_are_informational_never_gating() {
        let reference = summary(4000.0, 0.5, 1.0, 0.0);
        let tol = DiffTolerances::default();
        // 10× the resident bytes and a collapsed bandwidth: reported, not
        // regressed.
        let bloated = summary_with_memory(4000.0, 0.5, 1.0, 0.0, 10_000_000.0, 0.1);
        let report = diff(&reference, &bloated, &tol).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        let mem = report
            .checks
            .iter()
            .find(|c| c.metric == "memory.resident_bytes")
            .expect("memory check present");
        assert!(mem.informational());
        assert!((mem.change - 9.0).abs() < 1e-12, "10x = +900%");
        assert!(report.render().contains("info"));
        // Summaries without the blocks diff fine (fields skipped).
        let bare = Value::parse(&format!(
            r#"{{"schema_version": {SCHEMA_VERSION}, "qps": 4000.0, "requests": 1000,
                "shed": 0, "latency_ms": {{"p50": 0.5, "p99": 1.0}}}}"#
        ))
        .unwrap();
        let report = diff(&bare, &bare, &tol).unwrap();
        assert!(!report.regressed());
        assert!(!report
            .checks
            .iter()
            .any(|c| c.metric.starts_with("memory") || c.metric.starts_with("bandwidth")));
    }

    #[test]
    fn kernel_ratios_are_informational_and_optional() {
        let tol = DiffTolerances::default();
        let with_kernels = |speedup: f64| {
            Value::parse(&format!(
                r#"{{"schema_version": {SCHEMA_VERSION}, "qps": 4000.0, "requests": 1000,
                    "shed": 0, "latency_ms": {{"p50": 0.5, "p99": 1.0}},
                    "kernels": {{"fp32_speedup": {speedup}}}}}"#
            ))
            .unwrap()
        };
        // A collapsed speedup on the current side is reported, never gated.
        let report = diff(&with_kernels(3.6), &with_kernels(0.5), &tol).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        let row = report
            .checks
            .iter()
            .find(|c| c.metric == "kernels.fp32_speedup")
            .expect("kernel row present");
        assert!(row.informational());
        // A reference without the block (pre-`--kernels` runs) skips the rows.
        let bare = summary(4000.0, 0.5, 1.0, 0.0);
        let report = diff(&bare, &with_kernels(3.6), &tol).unwrap();
        assert!(!report
            .checks
            .iter()
            .any(|c| c.metric.starts_with("kernels")));
    }

    #[test]
    fn endpoint_rows_are_informational_and_optional() {
        let tol = DiffTolerances::default();
        let with_endpoints = |topk: f64, similar: f64| {
            Value::parse(&format!(
                r#"{{"schema_version": {SCHEMA_VERSION}, "qps": 4000.0, "requests": 1000,
                    "shed": 0, "latency_ms": {{"p50": 0.5, "p99": 1.0}},
                    "endpoints": {{"topk": {{"requests": {topk}}},
                                   "similar_items": {{"requests": {similar}}}}}}}"#
            ))
            .unwrap()
        };
        // A wholly different traffic mix is reported, never gated.
        let report = diff(
            &with_endpoints(1000.0, 0.0),
            &with_endpoints(0.0, 1000.0),
            &tol,
        )
        .unwrap();
        assert!(!report.regressed(), "{}", report.render());
        let row = report
            .checks
            .iter()
            .find(|c| c.metric == "endpoints.topk")
            .expect("endpoint row present");
        assert!(row.informational());
        // Endpoints absent from either side (pre-v6 fixtures) skip rows.
        let bare = summary(4000.0, 0.5, 1.0, 0.0);
        let report = diff(&bare, &with_endpoints(1000.0, 0.0), &tol).unwrap();
        assert!(!report
            .checks
            .iter()
            .any(|c| c.metric.starts_with("endpoints")));
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_regression() {
        let good = summary(4000.0, 0.5, 1.0, 0.0);
        let old = Value::parse(
            r#"{"schema_version": 1, "qps": 4000.0, "requests": 1000,
                "shed": 0, "latency_ms": {"p50": 0.5, "p99": 1.0}}"#,
        )
        .unwrap();
        assert!(diff(&old, &good, &DiffTolerances::default()).is_err());
        let missing = Value::parse(r#"{"qps": 1.0}"#).unwrap();
        assert!(diff(&good, &missing, &DiffTolerances::default()).is_err());
    }

    #[test]
    fn committed_reference_diffs_clean_against_itself() {
        // The acceptance criterion's "exit zero against the committed
        // BENCH_serve.json", without re-running the bench: the committed
        // file must parse, carry the current schema, and self-diff clean.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_serve.json");
        let v = Value::parse(&text).expect("reference parses");
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_f64()),
            Some(SCHEMA_VERSION),
            "committed reference must carry the current schema_version"
        );
        let report = diff(&v, &v, &DiffTolerances::default()).unwrap();
        assert!(!report.regressed(), "{}", report.render());
    }
}
