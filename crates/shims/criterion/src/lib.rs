//! Vendored minimal work-alike shim for the slice of `criterion` this
//! workspace's benches use: `Criterion`, benchmark groups, `Bencher::iter`,
//! `BenchmarkId`, `Throughput`, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Measurement is deliberately simple — median of a fixed number of timed
//! batches, printed as one line per benchmark (with throughput when set).
//! No statistics, plots, or baselines; the benches exist to be runnable and
//! to give a usable order-of-magnitude number offline.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Prevent the optimizer from discarding a value (upstream re-export).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A benchmark identifier: a function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Just the parameter (used inside a named group).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            name: name.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { name }
    }
}

/// Throughput annotation for a group: rates are printed alongside times.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Times closures; handed to benchmark functions.
pub struct Bencher {
    /// Median per-iteration time of the last `iter` call.
    last: Duration,
}

impl Bencher {
    /// Measure `routine`, storing the median per-iteration time.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up.
        for _ in 0..3 {
            black_box(routine());
        }
        // Pick a batch size targeting ≥ ~1 ms per batch.
        let probe = Instant::now();
        black_box(routine());
        let once = probe.elapsed().max(Duration::from_nanos(50));
        let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
        let mut samples: Vec<Duration> = Vec::with_capacity(9);
        for _ in 0..9 {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            samples.push(start.elapsed() / batch);
        }
        samples.sort();
        self.last = samples[samples.len() / 2];
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Annotate per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// No-op (accepted for API compatibility).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// No-op (accepted for API compatibility).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            last: Duration::ZERO,
        };
        f(&mut b);
        self.report(&id.name, b.last);
    }

    /// Run one parameterized benchmark.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            last: Duration::ZERO,
        };
        f(&mut b, input);
        self.report(&id.name, b.last);
    }

    /// End the group (prints nothing extra; provided for API parity).
    pub fn finish(self) {}

    fn report(&self, bench: &str, time: Duration) {
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) if time > Duration::ZERO => {
                format!(
                    "  {:>10.1} MiB/s",
                    n as f64 / time.as_secs_f64() / (1 << 20) as f64
                )
            }
            Some(Throughput::Elements(n)) if time > Duration::ZERO => {
                format!("  {:>10.1} Kelem/s", n as f64 / time.as_secs_f64() / 1e3)
            }
            _ => String::new(),
        };
        println!("{}/{}: {:>12?}{rate}", self.name, bench, time);
    }
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _criterion: self,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group(name.to_string());
        group.bench_function("bench", f);
        group.finish();
        self
    }
}

/// Bundle benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_smoke() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.throughput(Throughput::Elements(100));
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::from_parameter(32), &32u64, |b, &n| {
            b.iter(|| (0..n).product::<u64>())
        });
        group.finish();
    }
}
