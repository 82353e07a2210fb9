//! Parallel execution backend A/B — sequential vs threaded machine
//! cycles for `d_prefix` and `d_sort` on the headline machine `D_8`
//! (32 768 nodes, the size the paper's introduction targets).
//!
//! Both backends produce bit-identical runs (pinned by
//! `tests/parallel_backend.rs`), so the only difference to measure is
//! wall-clock. Every leg additionally gets a `-nocache` twin with the
//! schedule capture-and-replay layer disabled (`replay: false` in the
//! leg's [`RunConfig`]), so the replay win is measured
//! in the same group as the backend win (replay-on vs `-nocache` is
//! pinned bit-identical by `tests/replay_determinism.rs`). Measured
//! ratios on the reference host are recorded in EXPERIMENTS.md §§E22–E24.

use criterion::{
    criterion_group, criterion_main, Bencher, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use dc_bench::harness::probe_cycle;
use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{d_prefix, Step5Mode};
use dc_core::prefix::PrefixKind;
use dc_core::run::RunConfig;
use dc_core::sort::dualcube::d_sort;
use dc_core::sort::SortOrder;
use dc_simulator::{ExecMode, JsonlSink, MemorySink};
use dc_topology::{DualCube, RecDualCube, Topology};
use std::hint::black_box;

/// The backends to A/B. `workers` is the worker count of the leg's
/// machines (`0` = the host's); the forced-4 leg makes the threaded
/// code path measurable even on a single-core host, where it quantifies
/// pure oversubscription overhead rather than speedup.
fn backends() -> [(&'static str, ExecMode, usize); 3] {
    [
        ("sequential", ExecMode::Sequential, 0),
        ("parallel", ExecMode::parallel(), 0),
        ("parallel-4-workers", ExecMode::parallel(), 4),
    ]
}

/// Replay A/B within a leg: the bare label runs with the schedule cache
/// (the production default), `-nocache` re-validates every cycle.
fn replay_legs() -> [(&'static str, bool); 2] {
    [("", true), ("-nocache", false)]
}

/// One leg per backend × replay setting, `D8/<backend>[-nocache]`, each
/// with the configuration its machines are built with:
/// `leg(b, name, config)`.
fn ab_legs(group: &mut BenchmarkGroup<'_>, mut leg: impl FnMut(&mut Bencher, &str, &RunConfig)) {
    for (label, exec, workers) in backends() {
        for (suffix, replay) in replay_legs() {
            let name = format!("{label}{suffix}");
            let config = RunConfig {
                exec,
                workers,
                replay,
                ..RunConfig::default()
            };
            group.bench_function(BenchmarkId::new("D8", &name), |b| leg(b, &name, &config));
        }
    }
}

fn bench_prefix_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/d_prefix");
    let d = DualCube::new(8); // 32 768 nodes
    let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
    group.throughput(Throughput::Elements(d.num_nodes() as u64));
    ab_legs(&mut group, |b, _, config| {
        b.iter(|| {
            let (kind, step5) = (PrefixKind::Inclusive, Step5Mode::PaperFaithful);
            d_prefix(&d, black_box(&input), kind, step5, config.clone())
        })
    });
    group.finish();
}

fn bench_sort_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/d_sort");
    group.sample_size(10);
    let rec = RecDualCube::new(8); // 32 768 nodes
    let keys: Vec<u64> = (0..rec.num_nodes() as u64)
        .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(11))
        .collect();
    group.throughput(Throughput::Elements(rec.num_nodes() as u64));
    ab_legs(&mut group, |b, _, config| {
        b.iter(|| d_sort(&rec, black_box(&keys), SortOrder::Ascending, config.clone()))
    });
    group.finish();
}

/// Pure per-cycle engine overhead, isolated from algorithm payload: the
/// §E24 probe cycle ([`probe_cycle`]: one keyed cross-edge pairwise
/// exchange carrying `()` plus a no-op compute step), on the headline
/// `D_8` machine. A single machine is reused across
/// iterations, so after the warm-up compiles the schedule this measures
/// exactly the steady-state cycle cost. On the bare legs the cycle
/// *replays* — plan evaluation, deviation self-check, delivery, no
/// sequential validation pass at all; the `-nocache` legs re-validate
/// every cycle (adjacency queries + conflict detection — parallelised on
/// the threaded legs, the §E23 sequential pass before that). The leg also
/// reports the machine's schedule hit/miss counters so a silently
/// cold cache cannot masquerade as a replay measurement. Numbers live in
/// EXPERIMENTS.md §§E23–E24.
fn bench_cycle_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/cycle_overhead");
    let d = DualCube::new(8); // 32 768 nodes
    group.throughput(Throughput::Elements(d.num_nodes() as u64));
    ab_legs(&mut group, |b, name, config| {
        let mut m = config.machine(&d, vec![0u8; d.num_nodes()]);
        // Warm cycles: size the scratch, spawn the pool workers on the
        // threaded legs, and (bare legs) compile + first-replay the
        // schedule, so iterations see only steady-state cost.
        for _ in 0..2 {
            probe_cycle(&mut m);
        }
        b.iter(|| probe_cycle(&mut m));
        let metrics = m.metrics();
        let (hits, misses) = (metrics.schedule_hits, metrics.schedule_misses);
        eprintln!("cycle_overhead/{name}: schedule_hits={hits} schedule_misses={misses}");
    });
    group.finish();
}

/// Observability tax on the steady-state cycle of
/// [`bench_cycle_overhead`] (sequential backend, replay on): recorder
/// off (the production default — one `Option` check per cycle, pinned
/// allocation-free by `tests/zero_alloc.rs`), a [`MemorySink`] ring
/// buffer, and a [`JsonlSink`] serialising every event into
/// `std::io::sink()` (serialisation cost without filesystem noise).
/// Numbers live in EXPERIMENTS.md §E25.
fn bench_recorder_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/recorder_overhead");
    let d = DualCube::new(8); // 32 768 nodes
    group.throughput(Throughput::Elements(d.num_nodes() as u64));
    type SinkMaker = fn() -> Option<dc_simulator::SharedSink>;
    let legs: [(&str, SinkMaker); 3] = [
        ("off", || None),
        ("memory-ring", || {
            Some(dc_simulator::obs::shared(MemorySink::ring(4096)))
        }),
        ("jsonl-devnull", || {
            Some(dc_simulator::obs::shared(JsonlSink::new(std::io::sink())))
        }),
    ];
    for (label, make_sink) in legs {
        let id = BenchmarkId::new("D8", label);
        group.bench_function(id, |b| {
            let config = RunConfig {
                exec: ExecMode::Sequential,
                recorder: make_sink(),
                ..RunConfig::default()
            };
            let mut m = config.machine(&d, vec![0u8; d.num_nodes()]);
            for _ in 0..2 {
                probe_cycle(&mut m);
            }
            b.iter(|| probe_cycle(&mut m));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_prefix_backends,
    bench_sort_backends,
    bench_cycle_overhead,
    bench_recorder_overhead
);
criterion_main!(benches);
