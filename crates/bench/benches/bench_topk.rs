//! Criterion microbenchmark of the exact scorer's heap drain at its
//! shape: 32 users × 256-item score tiles, 2^18 items per user (one
//! shard's pass over a 2^19-item catalog), k = 10, uniform scores.
//! Compares offering every score through `TopK::push` with draining each
//! tile row through `TopK::push_slice`.
//!
//! The tiles cycle through a pool of `POOL` distinct random tiles (1 MiB)
//! so the drain reads cache-resident scores, as it does after the kernel
//! writes a tile; the kernel itself is not timed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cumf_numeric::stats::XorShift64;
use cumf_serve::topk::TopK;
use std::hint::black_box;

const USERS: usize = 32;
const BLOCK: usize = 256;
const ITEMS: usize = 1 << 18;
const K: usize = 10;
const POOL: usize = 32;

/// Drain `ITEMS` scores per user, tile by tile, through `drain_row`.
fn drain(pool: &[f32], drain_row: impl Fn(&mut TopK, u32, &[f32])) -> Vec<TopK> {
    let mut heaps: Vec<TopK> = (0..USERS).map(|_| TopK::new(K)).collect();
    let tile_len = USERS * BLOCK;
    for (t, start) in (0..ITEMS).step_by(BLOCK).enumerate() {
        let tile = &pool[(t % POOL) * tile_len..][..tile_len];
        for (heap, row) in heaps.iter_mut().zip(tile.chunks_exact(BLOCK)) {
            drain_row(heap, start as u32, row);
        }
    }
    heaps
}

fn bench_topk(c: &mut Criterion) {
    let mut rng = XorShift64::new(11);
    let pool: Vec<f32> = (0..POOL * USERS * BLOCK).map(|_| rng.next_f32()).collect();
    let mut group = c.benchmark_group("topk_drain_32x2^18_k10");
    group.throughput(Throughput::Elements((USERS * ITEMS) as u64));
    group.bench_function("push_per_item", |bch| {
        bch.iter(|| {
            black_box(drain(black_box(&pool), |heap, first, row| {
                for (j, &s) in row.iter().enumerate() {
                    heap.push(first + j as u32, s);
                }
            }))
        })
    });
    group.bench_function("push_slice", |bch| {
        bch.iter(|| {
            black_box(drain(black_box(&pool), |heap, first, row| {
                heap.push_slice(first, row)
            }))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
