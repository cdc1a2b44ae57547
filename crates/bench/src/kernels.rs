//! Single-thread scoring-kernel microbenchmark, shared by the
//! `kernel_bench` binary and the `kernels` block of `serve_bench --json`.
//!
//! Times the register-blocked microkernels of [`cumf_numeric::kernel`]
//! against the scalar sequential-reduction dot they replaced, on one
//! synthetic catalog scan per kernel: `users` user vectors each scored
//! against all `n_items` rows of an `n_items × f` factor matrix. Every
//! kernel does the same nominal work — one `f`-long inner product per
//! user×item pair — so `items_per_sec` (scored rows per second, summed
//! over users) compares directly across kernels and precisions, and the
//! headline ratio falls out of it: [`KernelReport::fp32_speedup`], the
//! tiled FP32 kernel over the scalar baseline — the cost of the
//! determinism contract is paid back here or not at all.
//!
//! GB/s is **effective** bandwidth in the same sense as
//! `AdmissionReport::effective_gbps`: nominal factor bytes per scored
//! row (`f × width`) over wall time. The tiled kernels read each Θ row
//! once per [`kernel::TILE_USERS`] users, so their effective GB/s can
//! legitimately exceed DRAM bandwidth — register reuse is the point.
//! GFLOP/s uses the nominal `2·f` per scored row throughout.
//!
//! The `score_tile_batch` row runs the same FP32 kernel at the exact
//! scorer's shape instead: `ScoreConfig::default()`'s `user_chunk` (32)
//! users per call against each auto-sized Θ block (256 rows at f=100),
//! prefetching the following block as the scorer does, so Θ streams
//! from memory once per 32 users and the kernel's compute rate, not
//! DRAM, sets the time — the regime of a batched exact scan.
//!
//! The default [`KernelBenchConfig::reference`] shape is an FP32 matrix
//! of 768 Ki items × f=100 ≈ 307 MB, past the last-level cache of most
//! hosts, so there the per-pair and 4-user passes stream Θ from memory
//! the way a full catalog scan does. It is not past every one: a Xeon
//! VM that reports a 300 MiB (314.6 MB) L3 may hold the whole reference
//! in L3, so on such a host those rows measure L3, not DRAM, bandwidth.
//! Quick mode shrinks the catalog for CI smoke runs and makes no
//! throughput promises.

use cumf_numeric::dense;
use cumf_numeric::kernel;
use cumf_numeric::stats::XorShift64;
use cumf_serve::ScoreConfig;
use serde::Value;
use std::time::Instant;

/// Shape and effort of one microbenchmark run.
#[derive(Clone, Copy, Debug)]
pub struct KernelBenchConfig {
    /// Factor dimension (the paper's reference point is 100).
    pub f: usize,
    /// Catalog rows scanned per user.
    pub n_items: usize,
    /// User vectors scored per pass (every kernel scores all of them).
    pub users: usize,
    /// Timed repetitions per kernel; the fastest is reported.
    pub reps: usize,
    /// Synthetic-data seed.
    pub seed: u64,
}

impl KernelBenchConfig {
    /// The committed-reference shape: f=100, 768 Ki items (~307 MB of
    /// FP32 factors — bigger than most last-level caches, though not
    /// than a 300 MiB L3, which may hold it).
    pub fn reference() -> KernelBenchConfig {
        KernelBenchConfig {
            f: 100,
            n_items: 768 * 1024,
            users: 8,
            reps: 2,
            seed: 42,
        }
    }

    /// CI smoke shape: same kernels, a 32 Ki-item catalog that runs in
    /// well under a second. Shape-checking only — cache-resident, so the
    /// throughput ratios are not meaningful here.
    pub fn quick() -> KernelBenchConfig {
        KernelBenchConfig {
            f: 100,
            n_items: 32 * 1024,
            users: 8,
            reps: 2,
            seed: 42,
        }
    }

    /// Nominal FP32 factor bytes of the catalog this config scans.
    pub fn catalog_bytes(&self) -> u64 {
        (self.n_items * self.f * 4) as u64
    }
}

/// One timed kernel × precision point.
#[derive(Clone, Debug)]
pub struct KernelMeasurement {
    /// Kernel name (`scalar_dot`, `dot_lanes`, `score_tile`,
    /// `score_tile_batch`, `dot_i8_scaled`).
    pub kernel: &'static str,
    /// Factor precision the kernel streams (`fp32`, `int8`).
    pub precision: &'static str,
    /// Factor dimension of the run.
    pub f: usize,
    /// Seconds for the fastest full pass (all users × all items).
    pub secs: f64,
    /// Scored rows per second, summed over users.
    pub items_per_sec: f64,
    /// Effective bandwidth: nominal factor bytes per scored row over
    /// wall time (register reuse can push this past DRAM speed).
    pub gbps: f64,
    /// Nominal compute throughput: `2·f` FLOPs per scored row.
    pub gflops: f64,
}

impl KernelMeasurement {
    /// The measurement as a JSON object for `--json` summaries.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kernel".to_string(), Value::Str(self.kernel.to_string())),
            (
                "precision".to_string(),
                Value::Str(self.precision.to_string()),
            ),
            ("f".to_string(), Value::Num(self.f as f64)),
            ("secs".to_string(), Value::Num(self.secs)),
            ("items_per_sec".to_string(), Value::Num(self.items_per_sec)),
            ("gbps".to_string(), Value::Num(self.gbps)),
            ("gflops".to_string(), Value::Num(self.gflops)),
        ])
    }
}

/// The full microbenchmark result: one row per kernel, plus the config
/// that produced it.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// The shape that was run.
    pub config: KernelBenchConfig,
    /// One measurement per kernel, in fixed order (scalar baseline
    /// first).
    pub rows: Vec<KernelMeasurement>,
    /// The compilation of the scoring tile the `score_tile` rows ran
    /// ([`kernel::score_tile_compilation`]).
    pub compilation: &'static str,
    /// The compilation of the training side's Gram kernel on this host
    /// ([`kernel::syrk_compilation`]), which `get_hermitian` runs.
    pub gram_compilation: &'static str,
    /// The compilation of the publish side's k-means distance kernel
    /// ([`kernel::sq_dists_compilation`]), which `CentroidIndex::build`
    /// runs.
    pub dist_compilation: &'static str,
    /// The compilation of the int8 quantizer
    /// ([`kernel::quantize_i8_compilation`]), which
    /// `QuantizedFactors::build` runs.
    pub quant_compilation: &'static str,
}

impl KernelReport {
    /// Throughput of a kernel by name (scored rows per second).
    fn items_per_sec(&self, kernel: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.kernel == kernel)
            .map(|r| r.items_per_sec)
    }

    /// Tiled-FP32 (`score_tile`) throughput over the scalar sequential
    /// dot — the headline "the contract still vectorizes" ratio.
    pub fn fp32_speedup(&self) -> f64 {
        match (
            self.items_per_sec("score_tile"),
            self.items_per_sec("scalar_dot"),
        ) {
            (Some(tiled), Some(scalar)) if scalar > 0.0 => tiled / scalar,
            _ => 0.0,
        }
    }

    /// The report as the `kernels` JSON block shared by `kernel_bench
    /// --json` and `serve_bench --json`.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("f".to_string(), Value::Num(self.config.f as f64)),
            ("items".to_string(), Value::Num(self.config.n_items as f64)),
            ("users".to_string(), Value::Num(self.config.users as f64)),
            ("reps".to_string(), Value::Num(self.config.reps as f64)),
            (
                "catalog_bytes".to_string(),
                Value::Num(self.config.catalog_bytes() as f64),
            ),
            (
                "rows".to_string(),
                Value::Array(self.rows.iter().map(|r| r.to_value()).collect()),
            ),
            ("fp32_speedup".to_string(), Value::Num(self.fp32_speedup())),
            (
                "compilation".to_string(),
                Value::Str(self.compilation.to_string()),
            ),
            (
                "gram_compilation".to_string(),
                Value::Str(self.gram_compilation.to_string()),
            ),
            (
                "dist_compilation".to_string(),
                Value::Str(self.dist_compilation.to_string()),
            ),
            (
                "quant_compilation".to_string(),
                Value::Str(self.quant_compilation.to_string()),
            ),
        ])
    }

    /// Human-readable table of the run.
    pub fn render(&self) -> String {
        let header = format!(
            "{:<16} {:>6} {:>5} {:>12} {:>9} {:>9}\n",
            "kernel", "prec", "f", "items/s", "GB/s", "GFLOP/s"
        );
        let mut out = header.clone();
        out.push_str(&crate::rule(header.len() - 1));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:>6} {:>5} {:>12.3e} {:>9.2} {:>9.2}\n",
                r.kernel, r.precision, r.f, r.items_per_sec, r.gbps, r.gflops
            ));
        }
        out.push_str(&format!(
            "fp32 speedup (score_tile / scalar_dot): {:.2}x\n",
            self.fp32_speedup()
        ));
        out.push_str(&format!("score_tile compilation: {}\n", self.compilation));
        out.push_str(&format!("gram compilation: {}\n", self.gram_compilation));
        out.push_str(&format!(
            "k-means distance compilation: {}\n",
            self.dist_compilation
        ));
        out.push_str(&format!(
            "int8 quantizer compilation: {}\n",
            self.quant_compilation
        ));
        out
    }
}

/// Time `body` (one full pass) `reps` times after one warm-up pass and
/// return the fastest wall time in seconds.
fn fastest(reps: usize, mut body: impl FnMut()) -> f64 {
    body(); // warm-up: faults pages, primes caches
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Run the microbenchmark: every kernel scans the same synthetic
/// catalog, scalar baseline first. Single-threaded by construction.
pub fn run_kernel_bench(cfg: &KernelBenchConfig) -> KernelReport {
    let f = cfg.f;
    let n = cfg.n_items;
    let mut rng = XorShift64::new(cfg.seed);
    let mut gen =
        |len: usize| -> Vec<f32> { (0..len).map(|_| (rng.next_f32() - 0.5) * 0.2).collect() };
    let theta = gen(n * f);
    let users = gen(cfg.users * f);
    // Per-row symmetric int8 quantization, like `QuantizedFactors`.
    let mut theta_i8 = vec![0i8; n * f];
    let mut scales = vec![0.0f32; n];
    for v in 0..n {
        let row = &theta[v * f..(v + 1) * f];
        let max = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
        scales[v] = scale;
        for (dst, &x) in theta_i8[v * f..(v + 1) * f].iter_mut().zip(row) {
            *dst = (x / scale).round().clamp(-127.0, 127.0) as i8;
        }
    }

    let measure =
        |kernel: &'static str, precision: &'static str, width: usize, users: usize, secs: f64| {
            let rows_per_pass = (users * n) as f64;
            KernelMeasurement {
                kernel,
                precision,
                f,
                secs,
                items_per_sec: rows_per_pass / secs,
                gbps: rows_per_pass * (f * width) as f64 / secs / 1e9,
                gflops: rows_per_pass * (2 * f) as f64 / secs / 1e9,
            }
        };

    // Both tiled rows walk Θ in the serving scorer's auto-sized blocks.
    let scorer = ScoreConfig::default();
    let block = scorer.effective_block_items(f);
    let mut sink = vec![0.0f32; kernel::TILE_USERS * block];
    let mut rows = Vec::new();

    // Scalar baseline: the sequential-reduction dot the kernels replaced.
    let secs = fastest(cfg.reps, || {
        let mut acc = 0.0f32;
        for u in 0..cfg.users {
            let xu = &users[u * f..(u + 1) * f];
            for v in 0..n {
                acc += dense::dot(xu, &theta[v * f..(v + 1) * f]);
            }
        }
        std::hint::black_box(acc);
    });
    rows.push(measure("scalar_dot", "fp32", 4, cfg.users, secs));

    // Lane-blocked dot, one row pair at a time (the reference-path form).
    let secs = fastest(cfg.reps, || {
        let mut acc = 0.0f32;
        for u in 0..cfg.users {
            let xu = &users[u * f..(u + 1) * f];
            for v in 0..n {
                acc += kernel::dot_lanes(xu, &theta[v * f..(v + 1) * f]);
            }
        }
        std::hint::black_box(acc);
    });
    rows.push(measure("dot_lanes", "fp32", 4, cfg.users, secs));

    // Register-tiled FP32: TILE_USERS users share each Θ block, walked in
    // the scorer's block order.
    let secs = fastest(cfg.reps, || {
        let mut u0 = 0;
        while u0 < cfg.users {
            let cu = kernel::TILE_USERS.min(cfg.users - u0);
            let xs = &users[u0 * f..(u0 + cu) * f];
            let mut start = 0;
            while start < n {
                let len = block.min(n - start);
                kernel::score_tile(
                    xs,
                    cu,
                    &theta[start * f..(start + len) * f],
                    len,
                    f,
                    &mut sink,
                );
                start += len;
            }
            u0 += cu;
        }
        std::hint::black_box(sink[0]);
    });
    rows.push(measure("score_tile", "fp32", 4, cfg.users, secs));

    // The exact scorer's tiling: one chunk of `user_chunk` users against
    // each Θ block, so a Θ block is read once per chunk, with the
    // following block prefetched under it.
    let chunk = scorer.user_chunk;
    let batch_users = gen(chunk * f);
    let mut batch_sink = vec![0.0f32; chunk * block];
    let secs = fastest(cfg.reps, || {
        let mut blocks = theta.chunks(block * f).peekable();
        while let Some(rows) = blocks.next() {
            let next = blocks.peek().copied().unwrap_or_default();
            kernel::score_tile_prefetch(
                &batch_users,
                chunk,
                rows,
                rows.len() / f,
                f,
                &mut batch_sink,
                next,
            );
            std::hint::black_box(&batch_sink);
        }
    });
    rows.push(measure("score_tile_batch", "fp32", 4, chunk, secs));

    // Fused-dequant int8 scan (the approximate path's stage-2 kernel).
    let secs = fastest(cfg.reps, || {
        let mut acc = 0.0f32;
        for u in 0..cfg.users {
            let xu = &users[u * f..(u + 1) * f];
            for v in 0..n {
                acc += kernel::dot_i8_scaled(xu, &theta_i8[v * f..(v + 1) * f], scales[v]);
            }
        }
        std::hint::black_box(acc);
    });
    rows.push(measure("dot_i8_scaled", "int8", 1, cfg.users, secs));

    KernelReport {
        config: *cfg,
        rows,
        compilation: kernel::score_tile_compilation(),
        gram_compilation: kernel::syrk_compilation(),
        dist_compilation: kernel::sq_dists_compilation(),
        quant_compilation: kernel::quantize_i8_compilation(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_every_kernel_and_sane_ratios() {
        let mut cfg = KernelBenchConfig::quick();
        cfg.n_items = 512; // keep the unit test fast
        cfg.reps = 1;
        let report = run_kernel_bench(&cfg);
        let names: Vec<&str> = report.rows.iter().map(|r| r.kernel).collect();
        assert_eq!(
            names,
            [
                "scalar_dot",
                "dot_lanes",
                "score_tile",
                "score_tile_batch",
                "dot_i8_scaled"
            ]
        );
        for r in &report.rows {
            assert!(r.secs > 0.0 && r.items_per_sec > 0.0, "{}", r.kernel);
            assert!(r.gbps > 0.0 && r.gflops > 0.0, "{}", r.kernel);
        }
        assert!(report.fp32_speedup() > 0.0);
        let table = report.render();
        assert!(table.contains("score_tile_batch") && table.contains("fp32 speedup"));
    }

    #[test]
    fn json_block_carries_the_shape_ci_asserts() {
        let mut cfg = KernelBenchConfig::quick();
        cfg.n_items = 256;
        cfg.reps = 1;
        let v = run_kernel_bench(&cfg).to_value();
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(100.0));
        assert_eq!(v.get("items").and_then(Value::as_f64), Some(256.0));
        let rows = v.get("rows").and_then(Value::as_array).expect("rows");
        assert_eq!(rows.len(), 5);
        for row in rows {
            for key in [
                "kernel",
                "precision",
                "f",
                "items_per_sec",
                "gbps",
                "gflops",
            ] {
                assert!(row.get(key).is_some(), "row missing {key}");
            }
        }
        assert!(v.get("fp32_speedup").and_then(Value::as_f64).unwrap() > 0.0);
        // Each kernel's compilation, by its name in the kernel's table:
        // the last one this host can run, which its entry point runs.
        for (key, want) in [
            (
                "compilation",
                kernel::score_tile_compilations().last().map(|c| c.0),
            ),
            (
                "gram_compilation",
                kernel::syrk_compilations().last().map(|c| c.0),
            ),
            (
                "dist_compilation",
                kernel::sq_dists_compilations().last().map(|c| c.0),
            ),
            (
                "quant_compilation",
                kernel::quantize_i8_compilations().last().map(|c| c.0),
            ),
        ] {
            assert_eq!(v.get(key).and_then(Value::as_str), want, "{key}");
        }
        // The block must round-trip through the shim parser (CI reads it
        // back with python's json, which is stricter still).
        let text = v.to_json();
        assert!(
            Value::parse(&text).is_ok(),
            "kernels block must be valid JSON"
        );
    }

    #[test]
    fn bytes_scale_with_precision_width() {
        let mut cfg = KernelBenchConfig::quick();
        cfg.n_items = 256;
        cfg.reps = 1;
        let report = run_kernel_bench(&cfg);
        // Same rows/sec convention: for equal times int8 would stream a
        // quarter of the bytes; check the accounting (gbps/items_per_sec
        // ∝ width·f).
        for r in &report.rows {
            let width = match r.precision {
                "fp32" => 4.0,
                "int8" => 1.0,
                other => panic!("unknown precision {other}"),
            };
            let per_row = r.gbps * 1e9 / r.items_per_sec;
            assert!(
                (per_row - width * cfg.f as f64).abs() < 1e-6,
                "{}: {per_row} bytes/row",
                r.kernel
            );
        }
    }
}
