//! E10 (wall clock) — sorting: `D_sort` vs bitonic sort on the equal-sized
//! hypercube, and compare-split scaling in the per-node block size.
//!
//! The shape to check: `D_sort` trails the hypercube baseline by roughly
//! its communication-step ratio (→ 3× as `n` grows, experiment E7), since
//! wall time in the simulator is dominated by per-cycle work. `d_sort`
//! runs Algorithm 3's lane-slab body at one lane (rows cycles over `()`
//! machine state, DESIGN.md §10) while the hypercube baseline keeps the
//! moved-message form, so the ratio also carries the difference between
//! the two cycle forms (EXPERIMENTS.md §E32).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dc_core::run::Recording;
use dc_core::sort::dualcube::d_sort;
use dc_core::sort::hypercube::cube_bitonic_sort;
use dc_core::sort::large::d_sort_large;
use dc_core::sort::SortOrder;
use dc_topology::{Hypercube, RecDualCube, Topology};
use std::hint::black_box;

fn keys_for(count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(23))
        .collect()
}

fn bench_sort_vs_hypercube(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort/one-per-node");
    for n in [2u32, 4, 6] {
        let rec = RecDualCube::new(n);
        let q = Hypercube::new(2 * n - 1);
        let keys = keys_for(rec.num_nodes());
        group.throughput(Throughput::Elements(keys.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("D_sort", rec.num_nodes()),
            &keys,
            |b, k| b.iter(|| d_sort(&rec, black_box(k), SortOrder::Ascending, Recording::Off)),
        );
        group.bench_with_input(
            BenchmarkId::new("bitonic_Q", q.num_nodes()),
            &keys,
            |b, k| {
                b.iter(|| cube_bitonic_sort(&q, black_box(k), SortOrder::Ascending, Recording::Off))
            },
        );
    }
    group.finish();
}

fn bench_large_sort_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort/large-k");
    let rec = RecDualCube::new(3);
    for k in [1usize, 8, 64] {
        let keys = keys_for(rec.num_nodes() * k);
        group.throughput(Throughput::Elements(keys.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &keys, |b, kk| {
            b.iter(|| d_sort_large(&rec, black_box(kk), SortOrder::Ascending))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort_vs_hypercube, bench_large_sort_scaling);
criterion_main!(benches);
