//! Criterion microbenchmarks of the get_hermitian functional kernel:
//! the register-blocked rank-k kernel vs. the plain rank-1 reference
//! across f, and at the paper's f = 100, BIN = 32 the blocked kernel
//! beside the per-vector tiled rank-1 loop it replaced, in GFLOP/s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cumf_als::kernels::hermitian::{
    hermitian_row, hermitian_row_reference, tiled_rank1_update, HermitianShape,
};
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::stats::XorShift64;
use cumf_numeric::sym::{packed_len, SymPacked};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn features(rows: usize, f: usize, seed: u64) -> DenseMatrix {
    let mut rng = XorShift64::new(seed);
    let mut m = DenseMatrix::zeros(rows, f);
    m.fill_with(|| rng.next_f32() - 0.5);
    m
}

fn bench_hermitian(c: &mut Criterion) {
    let mut group = c.benchmark_group("get_hermitian_row");
    for &f in &[32usize, 100] {
        let feats = features(1000, f, 7);
        let cols: Vec<u32> = (0..200u32).map(|i| (i * 5) % 1000).collect();
        let shape = HermitianShape::paper(f);
        group.bench_with_input(BenchmarkId::new("blocked", f), &f, |b, _| {
            let mut staging = Vec::new();
            let mut acc = SymPacked::zeros(f);
            b.iter(|| {
                hermitian_row(
                    black_box(&cols),
                    &feats,
                    0.05,
                    &shape,
                    &mut staging,
                    &mut acc,
                );
                black_box(acc.get(0, 0))
            })
        });
        group.bench_with_input(BenchmarkId::new("reference_syr", f), &f, |b, _| {
            b.iter(|| black_box(hermitian_row_reference(black_box(&cols), &feats, 0.05, f)))
        });
    }
    group.finish();
}

/// The host `hermitian_row` before register blocking: stage each BIN
/// batch, then one [`tiled_rank1_update`] per staged vector.
fn hermitian_row_per_vector(
    cols: &[u32],
    features: &DenseMatrix,
    lambda: f32,
    shape: &HermitianShape,
    staging: &mut Vec<f32>,
    out: &mut SymPacked,
) {
    let f = shape.f;
    out.as_mut_slice().fill(0.0);
    for batch in cols.chunks(shape.bin) {
        staging.clear();
        for &v in batch {
            staging.extend_from_slice(features.row(v as usize));
        }
        for theta in staging.chunks_exact(f) {
            tiled_rank1_update(out.as_mut_slice(), theta, shape.tile);
        }
    }
    out.add_diagonal(lambda * cols.len() as f32);
}

/// Median per-call time of `routine` over nine timed batches of at least
/// a millisecond each (after a warm-up), and the GFLOP/s that makes.
fn gflops(label: &str, flops: f64, mut routine: impl FnMut()) {
    for _ in 0..3 {
        routine();
    }
    let probe = Instant::now();
    routine();
    let once = probe.elapsed().max(Duration::from_nanos(50));
    let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let mut samples: Vec<Duration> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                routine();
            }
            start.elapsed() / batch
        })
        .collect();
    samples.sort();
    let t = samples[samples.len() / 2];
    println!(
        "get_hermitian_gflops/{label}: {t:>12?}  {:>6.2} GFLOP/s",
        flops / t.as_secs_f64() / 1e9
    );
}

/// f = 100, BIN = 32 (`T` = 10 for the per-vector loop), 139 ratings —
/// the mean user-row length of the benchmark's Netflix replica
/// (332 823 training ratings over 2 400 users).
fn bench_blocked_vs_per_vector(_c: &mut Criterion) {
    let f = 100;
    let feats = features(1000, f, 9);
    let cols: Vec<u32> = (0..139u32).map(|i| (i * 7) % 1000).collect();
    let shape = HermitianShape::paper(f);
    let flops = 2.0 * cols.len() as f64 * packed_len(f) as f64;
    let mut staging = Vec::new();
    let mut acc = SymPacked::zeros(f);
    gflops("tiled_rank1_per_vector/100", flops, || {
        hermitian_row_per_vector(
            black_box(&cols),
            &feats,
            0.05,
            &shape,
            &mut staging,
            &mut acc,
        );
        black_box(acc.get(0, 0));
    });
    gflops("blocked/100", flops, || {
        hermitian_row(
            black_box(&cols),
            &feats,
            0.05,
            &shape,
            &mut staging,
            &mut acc,
        );
        black_box(acc.get(0, 0));
    });
}

criterion_group!(benches, bench_hermitian, bench_blocked_vs_per_vector);
criterion_main!(benches);
