//! Criterion microbenchmarks of the solve step: exact Cholesky/LU vs.
//! truncated FP32 CG at the paper's f=100, and the trainer's whole
//! per-row solve (`solve_row` with the default solver: narrow `A_u` to
//! FP16, widen it once, then six CG iterations) — the FP16-storage CG.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cumf_als::kernels::solve::solve_row;
use cumf_als::SolverKind;
use cumf_numeric::cg::cg_solve;
use cumf_numeric::cholesky::cholesky_solve;
use cumf_numeric::lu::lu_solve;
use cumf_numeric::stats::XorShift64;
use cumf_numeric::sym::SymPacked;
use std::hint::black_box;

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
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
