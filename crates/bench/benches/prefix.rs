//! E10 (wall clock) — prefix computation: `D_prefix` vs `Cube_prefix` on
//! the equal-sized hypercube, the step-5 ablation, and the large-input
//! variant's scaling in `k`.
//!
//! Absolute times are host-dependent; the *shape* to check is that
//! `D_prefix` and the equal-sized `Cube_prefix` track each other (both do
//! `Θ(N log N)` simulated work) with the dual-cube slightly ahead on
//! rounds-dominated sizes, and that large-`k` cost grows linearly in `k`.
//! Both `d_prefix` and `cube_prefix` run their algorithm's lane-slab body
//! at one lane (rows cycles over `()` machine state, DESIGN.md §10), the
//! same body a served batch runs; EXPERIMENTS.md §E32 compares these legs
//! with the per-node bodies they replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{d_prefix, Step5Mode};
use dc_core::prefix::hypercube::cube_prefix;
use dc_core::prefix::large::d_prefix_large;
use dc_core::prefix::PrefixKind;
use dc_core::run::Recording;
use dc_topology::{DualCube, Hypercube, Topology};
use std::hint::black_box;

fn bench_prefix_vs_hypercube(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix/one-per-node");
    for n in [3u32, 5, 7] {
        let d = DualCube::new(n);
        let q = Hypercube::new(2 * n - 1);
        let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
        group.throughput(Throughput::Elements(d.num_nodes() as u64));
        group.bench_with_input(
            BenchmarkId::new("D_prefix", d.num_nodes()),
            &input,
            |b, inp| {
                b.iter(|| {
                    d_prefix(
                        &d,
                        black_box(inp),
                        PrefixKind::Inclusive,
                        Step5Mode::PaperFaithful,
                        Recording::Off,
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("Cube_prefix_Q", q.num_nodes()),
            &input,
            |b, inp| {
                b.iter(|| cube_prefix(&q, black_box(inp), PrefixKind::Inclusive, Recording::Off))
            },
        );
    }
    group.finish();
}

fn bench_step5_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix/step5-ablation");
    let d = DualCube::new(6);
    let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
    group.bench_function("paper-faithful (2n+1 comm)", |b| {
        b.iter(|| {
            d_prefix(
                &d,
                black_box(&input),
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                Recording::Off,
            )
        })
    });
    group.bench_function("local-fold (2n comm)", |b| {
        b.iter(|| {
            d_prefix(
                &d,
                black_box(&input),
                PrefixKind::Inclusive,
                Step5Mode::LocalFold,
                Recording::Off,
            )
        })
    });
    group.finish();
}

fn bench_large_prefix_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix/large-k");
    let d = DualCube::new(4);
    for k in [1usize, 16, 256] {
        let input: Vec<Sum> = (0..(d.num_nodes() * k) as i64).map(Sum).collect();
        group.throughput(Throughput::Elements(input.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &input, |b, inp| {
            b.iter(|| d_prefix_large(&d, black_box(inp), PrefixKind::Inclusive))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_prefix_vs_hypercube,
    bench_step5_ablation,
    bench_large_prefix_scaling
);
criterion_main!(benches);
