//! The metric catalogue, the result line, and process-level probes.
//!
//! Every metric the benchmark can print is declared once in [`METRICS`]
//! with its unit and whether it belongs to the traced run. `BENCHMARK.json` at the repository root declares the
//! same names and units; a unit test keeps the two in step.

use std::fmt::Write as _;

/// The four workloads, each run in its own process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeScan,
    ServePublish,
    TrainAls,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeScan,
        Workload::ServePublish,
        Workload::TrainAls,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeScan => "serve-scan",
            Workload::ServePublish => "serve-publish",
            Workload::TrainAls => "train-als",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One declared metric. Every workload prints every metric of its kind:
/// the end-to-end set untraced, the per-layer set traced.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Printed by the traced run (`--trace 1`) rather than the untraced one.
    pub traced: bool,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        traced: false,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        traced: true,
    }
}

pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s"),
    // CPU time of the workload's timed operation: a request in the
    // closed loop (serve-hot, serve-scan), a publish (serve-publish), an
    // ALS epoch (train-als). Wall-clock latency is printed on stderr: on
    // this VM it follows host CPU steal (see README).
    e2e("op_cpu_ms", "ms"),
    // Served rankings against the exact scorer (bit-identical share on
    // the exact workloads, recall@10 on serve-publish); on train-als the
    // generator's noise floor over the test RMSE.
    e2e("quality", "fraction"),
    e2e("peak_rss_mb", "MiB"),
    layer("kernel.score_tile_gflops", "GFLOP/s"),
    layer("kernel.dot_i8_gbps", "GB/s"),
    layer("scorer.batch_ms", "ms"),
    layer("scorer.heap_share", "fraction"),
    layer("scorer.bytes_per_req", "bytes"),
    layer("shard.scatter_ms", "ms"),
    layer("shard.imbalance", "ratio"),
    layer("shard.build_s", "s"),
    layer("ann.index_build_s", "s"),
    layer("ann.quant_build_s", "s"),
    layer("cache.hit_ratio", "fraction"),
    layer("engine.batch_ms", "ms"),
    layer("engine.self_share", "fraction"),
    layer("engine.stage_cache_ms", "ms"),
    layer("engine.stage_foldin_ms", "ms"),
    layer("engine.stage_score_ms", "ms"),
    layer("engine.stage_merge_ms", "ms"),
    layer("engine.stage_respond_ms", "ms"),
    layer("engine.errors", "count"),
    layer("admission.batch_ms", "ms"),
    layer("admission.queue_wait_p50_ms", "ms"),
    layer("admission.mean_batch", "count"),
    layer("admission.age_close_share", "fraction"),
    layer("admission.shed_share", "fraction"),
    layer("registry.resident_mb", "MiB"),
    layer("registry.superseded_mb", "MiB"),
    layer("obs.trace_overhead", "ratio"),
    layer("gen.lateness_p50_ms", "ms"),
    layer("gen.lateness_p99_ms", "ms"),
    layer("als.hermitian_gflops", "GFLOP/s"),
    layer("als.solve_us_per_row", "us"),
    layer("als.bias_ms", "ms"),
    layer("als.cg_iters_mean", "count"),
];

/// The names every run prints, in catalogue order.
pub fn expected(traced: bool) -> Vec<&'static str> {
    METRICS
        .iter()
        .filter(|m| m.traced == traced)
        .map(|m| m.name)
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Checks that failed, one line each; empty means correct.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Fold another run's checks, counts and metrics into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.failures.extend(other.failures);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }

    /// Record a correctness check; a failing one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        eprintln!("check {}: {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            self.failures.push(what);
        }
    }

    /// The single result line: `correct`, `attempted`, `failed`, and the
    /// metrics with their units. Panics if the metric set differs from
    /// the catalogue's (a benchmark bug, not a program failure).
    pub fn to_json(&self, workload: Workload, traced: bool) -> String {
        let mut names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        let mut want = expected(traced);
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want, "metric set of {} drifted", workload.name());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        out.push_str("}}");
        out
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|(_, v)| v.is_finite())
    }
}

/// This VM's CPU ticks so far, all CPUs, from the `cpu` line of
/// `/proc/stat`: busy (user, nice, system, irq, softirq), stolen by the
/// host, and total.
pub fn cpu_ticks() -> (u64, u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    (
        at(0) + at(1) + at(2) + at(5) + at(6),
        at(7),
        f.iter().take(8).sum(),
    )
}

/// A reading of the CPU time charged to this process or thread, with the
/// VM's busy and stolen ticks at the same moment.
#[derive(Clone, Copy)]
pub struct CpuMark {
    charged: f64,
    busy: u64,
    steal: u64,
}

impl CpuMark {
    /// The whole process, exited threads included (`/proc/self/stat`,
    /// 10 ms ticks).
    pub fn process() -> CpuMark {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // utime and stime are the 12th and 13th fields after the
        // parenthesized command name.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: u64 = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|v| v.parse::<u64>().ok())
            .sum();
        CpuMark::with(ticks as f64 / 100.0)
    }

    /// The calling thread (first field of its `schedstat`, ns).
    pub fn thread() -> CpuMark {
        let ns = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
        CpuMark::with(ns.map_or(f64::NAN, |ns| ns as f64 * 1e-9))
    }

    fn with(charged: f64) -> CpuMark {
        let (busy, steal, _) = cpu_ticks();
        CpuMark {
            charged,
            busy,
            steal,
        }
    }

    /// CPU time run between `self` and `later` (the same kind of mark),
    /// seconds. The guest charges time the host stole to whichever task
    /// was running, so the charged time is scaled by the VM's
    /// busy / (busy + stolen) ticks over the interval.
    pub fn ran_until(&self, later: CpuMark) -> f64 {
        let busy = (later.busy - self.busy) as f64;
        let steal = (later.steal - self.steal) as f64;
        let ran = if busy + steal > 0.0 {
            busy / (busy + steal)
        } else {
            1.0
        };
        (later.charged - self.charged) * ran
    }
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = doc
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect();
        v.sort();
        v
    }

    fn catalogue(traced: bool) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = METRICS
            .iter()
            .filter(|m| m.traced == traced)
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), catalogue(false));
        assert_eq!(declared(&doc, "per_layer"), catalogue(true));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metric_names_are_unique_and_setup_is_end_to_end() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
        assert!(expected(false).contains(&"setup_s"));
    }

    #[test]
    fn result_line_carries_units_and_counts() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for name in expected(false) {
            o.put(name, 1.25);
        }
        let line = o.to_json(Workload::TrainAls, false);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").unwrap();
        let quality = m.get("quality").unwrap();
        assert_eq!(
            quality.get("unit").and_then(Value::as_str),
            Some("fraction")
        );
        assert_eq!(quality.get("value").and_then(Value::as_f64), Some(1.25));
    }
}
