//! Criterion microbenchmarks of the solve step: exact Cholesky/LU vs.
//! truncated FP32 CG at the paper's f=100, and the whole per-row solve
//! with the default solver (`solve_row`: narrow `A_u` to FP16, widen it
//! once, then six CG iterations) — the FP16-storage CG — beside the
//! trainer's lane-batched form of it (`SolveBatch`: sixteen rows
//! narrowed, interleaved and solved as one 16-lane CG), reported per
//! row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cumf_als::kernels::solve::{solve_row, SolveBatch};
use cumf_als::SolverKind;
use cumf_numeric::cg::cg_solve;
use cumf_numeric::cholesky::cholesky_solve;
use cumf_numeric::lu::lu_solve;
use cumf_numeric::stats::XorShift64;
use cumf_numeric::sym::SymPacked;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn spd(f: usize, seed: u64) -> SymPacked {
    let mut rng = XorShift64::new(seed);
    let mut a = SymPacked::zeros(f);
    for _ in 0..f + 4 {
        let v: Vec<f32> = (0..f).map(|_| rng.next_f32() - 0.5).collect();
        a.syr(&v);
    }
    a.add_diagonal(1.0);
    a
}

fn bench_solvers(c: &mut Criterion) {
    let f = 100usize;
    let a = spd(f, 3);
    let dense = a.to_dense();
    let b: Vec<f32> = (0..f).map(|i| (i as f32 - 50.0) * 0.01).collect();

    let mut group = c.benchmark_group("solve_f100");
    group.bench_function(BenchmarkId::new("lu_fp32", f), |bch| {
        bch.iter(|| black_box(lu_solve(black_box(&dense), &b).unwrap()))
    });
    group.bench_function(BenchmarkId::new("cholesky_fp32", f), |bch| {
        bch.iter(|| black_box(cholesky_solve(black_box(&a), &b).unwrap()))
    });
    group.bench_function(BenchmarkId::new("cg6_fp32", f), |bch| {
        bch.iter(|| {
            let mut x = vec![0.0f32; f];
            black_box(cg_solve(black_box(&a), &mut x, &b, 6, 1e-4))
        })
    });
    let solver = SolverKind::cumf_default();
    group.bench_function(BenchmarkId::new("solve_row_cumf_default", f), |bch| {
        bch.iter(|| {
            let mut x = vec![0.0f32; f];
            black_box(solve_row(&solver, black_box(&a), &mut x, &b))
        })
    });
    group.finish();

    // Sixteen different systems, one per lane, solved as one batch.
    let systems: Vec<SymPacked> = (0..16).map(|k| spd(f, 10 + k)).collect();
    let mut batch = SolveBatch::new(&solver, f);
    let x0 = vec![0.0f32; f];
    let per_row = median_per_call(|| {
        for (k, a) in systems.iter().enumerate() {
            batch.push(k, black_box(a), &b, &x0);
        }
        batch.solve(|_, x, stats| {
            black_box((x[0], stats.iterations));
        });
    }) / 16;
    println!("solve_f100/solve_batch16_cumf_default/{f}: {per_row:>12?} per row");
}

/// Median time of one call of `routine` over nine timed batches of at
/// least a millisecond each, after a warm-up.
fn median_per_call(mut routine: impl FnMut()) -> Duration {
    for _ in 0..3 {
        routine();
    }
    let probe = Instant::now();
    routine();
    let once = probe.elapsed().max(Duration::from_nanos(50));
    let calls = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let mut samples: Vec<Duration> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                routine();
            }
            start.elapsed() / calls
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
