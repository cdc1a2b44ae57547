//! Criterion microbenchmarks of the publish-time ANN builds at one
//! shard's shape under a two-shard publish of a 2^15-item catalog:
//! 2^14 rows × f = 100 scattered around 16 planted centres, k-means with
//! k = 32 (64 clusters split over two shards) and the default 10 Lloyd
//! iterations, plus the int8 blockwise copy of the same rows. The
//! `k = 64` row is the one-shard `register` shape (64 clusters over the
//! same rows). Every build at these shapes runs all 10 Lloyd passes: the
//! assignment never reaches a fixed point within the cap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::stats::XorShift64;
use cumf_serve::ann::{AnnParams, CentroidIndex, QuantizedFactors};
use std::hint::black_box;

const ROWS: usize = 1 << 14;
const F: usize = 100;
const PLANTED: usize = 16;
/// Clusters per shard: a two-shard publish, then the one-shard one.
const CLUSTERS: [usize; 2] = [32, 64];

/// Rows of uniform noise in ±0.3 around one of `PLANTED` centres drawn
/// in ±1, so k-means has structure to find.
fn planted_catalog(seed: u64) -> DenseMatrix {
    let mut rng = XorShift64::new(seed);
    let centres: Vec<f32> = (0..PLANTED * F)
        .map(|_| rng.next_f32() * 2.0 - 1.0)
        .collect();
    let mut theta = DenseMatrix::zeros(ROWS, F);
    for v in 0..ROWS {
        let c = rng.next_below(PLANTED);
        for (x, m) in theta
            .row_mut(v)
            .iter_mut()
            .zip(&centres[c * F..(c + 1) * F])
        {
            *x = m + 0.3 * (rng.next_f32() * 2.0 - 1.0);
        }
    }
    theta
}

fn bench_ann_build(c: &mut Criterion) {
    let theta = planted_catalog(7);
    let mut group = c.benchmark_group("ann_build_2^14xf100");
    for k in CLUSTERS {
        let params = AnnParams {
            k_clusters: k,
            ..AnnParams::default()
        };
        group.bench_function(BenchmarkId::new("centroid_index_k", k), |bch| {
            bch.iter(|| black_box(CentroidIndex::build(black_box(&theta), params)))
        });
    }
    group.bench_function("quantized_factors", |bch| {
        bch.iter(|| black_box(QuantizedFactors::build(black_box(&theta))))
    });
    group.finish();
}

criterion_group!(benches, bench_ann_build);
criterion_main!(benches);
