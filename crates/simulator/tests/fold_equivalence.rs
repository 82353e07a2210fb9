//! The fold form against the two cycles it fuses: one
//! [`Comm::fold_rows`](dc_simulator::Comm::fold_rows) round must leave
//! exactly what a [`Comm::rows`](dc_simulator::Comm::rows) cycle into a
//! landing slab followed by `compute_rows` leaves — the same rows, the
//! same `Metrics` field for field, the same space-time trace and the
//! same recorded events modulo timing — on both backends, replay on and
//! off, at 1, 4 and 16 shards, and at 1, 3 and 16 lanes.
//!
//! The program mixes a pairwise cluster-dimension round whose
//! travelling slab is folded too (Algorithm 1's round), the same on the
//! cross-edges (every pair straddles a shard boundary at `S ≥ 4`), and
//! a half-speaking, non-pairwise round reading a separate slab
//! (Algorithm 2's step 5), with scripted message drops armed. The
//! reference lands rows in a slab pre-filled with a sentinel, so its
//! fold sees `None` exactly where the fused fold does. `D_7` at 16
//! lanes (1 MiB slabs) drives the sequential pair walk; the smaller
//! runs drive the snapshot fold.
//!
//! Both programs also run on the naive reference machine
//! ([`RefMachine`]), which every configuration's slabs, counters and
//! trace must match.

use dc_simulator::obs::{self, MemorySink};
use dc_simulator::reference::{model_counters, Cycles, RefMachine};
use dc_simulator::{
    set_worker_threads, Event, ExecMode, FaultPlan, Machine, Metrics, ScheduleKey, TraceEntry,
    Travel,
};
use dc_topology::{Class, DualCube, Topology};

/// Forces the threaded code path regardless of machine size.
const FORCE_PARALLEL: ExecMode = ExecMode::Parallel { threshold: 1 };

/// A landing-slab value no fold produces: marks "nothing delivered".
const EMPTY: u64 = u64::MAX;

/// Pins the executor worker count, restoring the automatic count on drop
/// (also on assertion panic).
struct PinnedWorkers;

impl PinnedWorkers {
    fn pin(n: usize) -> Self {
        set_worker_threads(n);
        PinnedWorkers
    }
}

impl Drop for PinnedWorkers {
    fn drop(&mut self) {
        set_worker_threads(0);
    }
}

/// The pairwise round's fold: order-sensitive in both slabs, and a
/// missing message still changes the row, so a `None` in the wrong
/// place shows.
fn pair_fold(u: usize, [t, s]: [&mut [u64]; 2], msg: Option<&[u64]>) {
    match msg {
        Some(x) => {
            for ((t, s), x) in t.iter_mut().zip(s).zip(x) {
                *s = s.rotate_left(5) ^ x.wrapping_mul(3);
                *t = t.wrapping_mul(0x9E37_79B9).wrapping_add(*x ^ u as u64);
            }
        }
        None => t.iter_mut().for_each(|t| *t = t.wrapping_add(7)),
    }
}

/// The half-speaking round's fold: receivers mix in the message,
/// everyone mixes in its own row of the read slab.
fn read_fold(u: usize, [t]: [&mut [u64]; 1], [own]: [&[u64]; 1], msg: Option<&[u64]>) {
    for (k, (t, own)) in t.iter_mut().zip(own).enumerate() {
        let x = msg.map_or(0x55, |x| x[k]);
        *t = t.rotate_left(3) ^ x ^ own.wrapping_add(u as u64);
    }
}

/// What a run leaves: slabs, metrics, trace, normalized events.
type Outcome = (Vec<u64>, Vec<u64>, Metrics, Vec<TraceEntry>, Vec<Event>);

/// A landed row, or `None` where the sentinel says nothing arrived.
fn landed_row(x: &[u64]) -> Option<&[u64]> {
    (x[0] != EMPTY).then_some(x)
}

/// Runs the program on `m`, fused (`fused`) or as rows +
/// `compute_rows`, returning the `t` and `s` slabs.
fn program(m: &mut impl Cycles<()>, d: DualCube, fused: bool, k: usize) -> (Vec<u64>, Vec<u64>) {
    let nodes = d.num_nodes();
    m.set_fault_plan(
        FaultPlan::new()
            .message_drop(1, 3)
            .message_drop(4, 0)
            .message_drop(6, nodes - 1),
    );
    let mut t: Vec<u64> = (0..(nodes * k) as u64)
        .map(|x| x.wrapping_mul(0x2545_F491))
        .collect();
    let mut s: Vec<u64> = (0..(nodes * k) as u64).map(|x| x ^ 0xABCD).collect();
    let (mut landed, mut stage) = (vec![EMPTY; nodes * k], Vec::new());
    let cross = move |u| Some(d.cross_neighbor(u));
    for round in 0..3 {
        m.begin_phase(format!("round {round}"));
        for i in 0..d.cluster_dim() + 2 {
            let (key, plan): (ScheduleKey, Box<dyn Fn(usize) -> Option<usize> + Sync>) =
                if i < d.cluster_dim() {
                    (
                        ScheduleKey::Dim(i),
                        Box::new(move |u| Some(d.cluster_neighbor(u, i))),
                    )
                } else if i == d.cluster_dim() {
                    (ScheduleKey::Cross, Box::new(cross))
                } else {
                    let half = move |u| (d.class_of(u) == Class::One).then(|| d.cross_neighbor(u));
                    (ScheduleKey::Custom(0), Box::new(half))
                };
            let pairwise = i <= d.cluster_dim();
            if fused && pairwise {
                m.cycle(|c| {
                    c.fold_rows(
                        k,
                        |u, _| plan(u),
                        Travel::Folded(&mut stage),
                        [&mut t[..], &mut s[..]],
                        [],
                        |u, rows, [], msg| pair_fold(u, rows, msg),
                    )
                    .pairwise()
                    .keyed(key)
                });
            } else if fused {
                m.cycle(|c| {
                    c.fold_rows(
                        k,
                        |u, _| plan(u),
                        Travel::Read(&s[..]),
                        [&mut t[..]],
                        [&s[..]],
                        read_fold,
                    )
                    .keyed(key)
                });
            } else {
                landed.fill(EMPTY);
                let from = if pairwise { &t } else { &s };
                m.cycle(|c| {
                    let c = c.rows(k, |u, _| plan(u), [(&from[..], &mut landed[..])]);
                    if pairwise {
                        c.pairwise().keyed(key)
                    } else {
                        c.keyed(key)
                    }
                });
                if pairwise {
                    m.compute_rows(
                        k,
                        [&mut t[..], &mut s[..]],
                        [&landed[..]],
                        |u, rows, [x]| pair_fold(u, rows, landed_row(x)),
                    );
                } else {
                    m.compute_rows(k, [&mut t[..]], [&s[..], &landed[..]], |u, rows, [s, x]| {
                        read_fold(u, rows, [s], landed_row(x))
                    });
                }
            }
        }
    }
    (t, s)
}

/// Runs the program on the engine under one configuration.
fn run(fused: bool, exec: ExecMode, replay: bool, shards: usize, n: u32, k: usize) -> Outcome {
    let d = DualCube::new(n);
    let mut m = Machine::with_exec(&d, vec![(); d.num_nodes()], exec);
    m.set_schedule_replay(replay);
    m.set_shards(shards);
    m.enable_trace();
    let sink = obs::shared(MemorySink::new());
    m.record_into(sink.clone());
    let (t, s) = program(&mut m, d, fused, k);
    let trace = m.phased_trace().to_vec();
    let metrics = m.into_parts().1;
    let events = sink.lock().unwrap().events();
    (
        t,
        s,
        metrics,
        trace,
        events.iter().map(Event::normalized).collect(),
    )
}

/// Runs the program on the reference machine: slabs, counters, trace.
fn oracle(fused: bool, n: u32, k: usize) -> (Vec<u64>, Vec<u64>, Metrics, Vec<TraceEntry>) {
    let d = DualCube::new(n);
    let mut m = RefMachine::new(&d, vec![(); d.num_nodes()]);
    let (t, s) = program(&mut m, d, fused, k);
    let trace = m.phased_trace().to_vec();
    (t, s, m.into_parts().1, trace)
}

/// Every (backend, replay, workers, shards) configuration.
fn configs() -> Vec<(ExecMode, bool, usize, usize)> {
    vec![
        (ExecMode::Sequential, true, 0, 1),
        (ExecMode::Sequential, false, 0, 1),
        (FORCE_PARALLEL, true, 2, 1),
        (FORCE_PARALLEL, false, 2, 4),
        (FORCE_PARALLEL, true, 2, 4),
        (FORCE_PARALLEL, true, 4, 16),
        (FORCE_PARALLEL, false, 4, 16),
    ]
}

fn check(n: u32, k: usize, configs: &[(ExecMode, bool, usize, usize)]) {
    let want = oracle(true, n, k);
    assert_eq!(
        want,
        oracle(false, n, k),
        "D_{n} K={k}: the oracle's own rounds"
    );
    for &(exec, replay, workers, shards) in configs {
        let _pin = (workers > 0).then(|| PinnedWorkers::pin(workers));
        let case = format!("D_{n} K={k} {exec:?} replay={replay} workers={workers} S={shards}");
        let fused = run(true, exec, replay, shards, n, k);
        let reference = run(false, exec, replay, shards, n, k);
        assert_eq!(fused.0, reference.0, "t slab: {case}");
        assert_eq!(fused.1, reference.1, "s slab: {case}");
        assert_eq!(fused.2, reference.2, "metrics: {case}");
        assert_eq!(fused.3, reference.3, "trace: {case}");
        assert_eq!(fused.4, reference.4, "events: {case}");
        assert!(fused.2.dropped_messages > 0, "drops armed: {case}");
        let (t, s, metrics, trace) = &want;
        assert_eq!(&fused.0, t, "t slab against the reference machine: {case}");
        assert_eq!(&fused.1, s, "s slab against the reference machine: {case}");
        let counters = model_counters(&fused.2);
        assert_eq!(
            &counters, metrics,
            "metrics against the reference machine: {case}"
        );
        assert_eq!(
            &fused.3, trace,
            "trace against the reference machine: {case}"
        );
    }
}

#[test]
fn fold_rows_equals_rows_then_compute_rows_across_the_matrix() {
    for k in [1, 3, 16] {
        check(4, k, &configs());
    }
}

#[test]
fn pair_walk_equals_rows_then_compute_rows() {
    // 8192 nodes × 16 lanes × 8 bytes: 1 MiB slabs of 128-byte rows, so
    // the sequential backend walks pairs.
    check(7, 16, &configs()[..3]);
}
