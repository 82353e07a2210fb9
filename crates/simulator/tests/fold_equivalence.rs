//! The fold forms against the two cycles each fuses: one
//! [`Comm::fold_pairs`](dc_simulator::Comm::fold_pairs) or
//! [`Comm::fold_rows`](dc_simulator::Comm::fold_rows) round must leave
//! exactly what a [`Comm::rows`](dc_simulator::Comm::rows) cycle into a
//! landing slab followed by `compute_rows` leaves — the same rows, the
//! same `Metrics` field for field, the same space-time trace, the same
//! link report and the same recorded events modulo timing — on both
//! backends, replay on and off, at 1, 4 and 16 shards, and at 1, 3 and
//! 16 lanes.
//!
//! The program mixes pair folds whose travelling slab is folded too
//! (Algorithm 1's round) on a cluster dimension (a by-class flip) and
//! on the cross-edges (the top address bit: one block spanning the
//! machine, straddling every shard boundary at `S ≥ 4`), and a
//! half-speaking, non-pairwise round reading a separate slab
//! (Algorithm 2's step 5), with scripted message drops armed. The
//! reference lands rows in a slab pre-filled with a sentinel, so its
//! fold sees `None` exactly where the pair fold sees `got = false`.
//! `D_7` at 16 lanes runs 1 MiB slabs.
//!
//! Both programs also run on the naive reference machine
//! ([`RefMachine`]), which every configuration's slabs, counters and
//! trace must match.

use dc_simulator::obs::{self, MemorySink};
use dc_simulator::reference::{model_counters, Cycles, RefMachine};
use dc_simulator::{
    set_worker_threads, Event, ExecMode, FaultPlan, Flip, LinkReport, Machine, Metrics,
    ScheduleKey, TraceEntry,
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

/// The pairwise round's fold at one node: order-sensitive in both
/// slabs, and a missing message still changes the row, so a `None` in
/// the wrong place shows.
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

/// [`pair_fold`] at both ends of every pair of a run of `k`-lane rows,
/// each end reading the other's pre-cycle `t` row when its message
/// arrived. The third slab holds each node's id in every lane, so a
/// run's position names the nodes [`pair_fold`] mixes in.
fn pair_fold_both(
    k: usize,
    [lo_t, lo_s, lo_id]: [&mut [u64]; 3],
    [hi_t, hi_s, hi_id]: [&mut [u64]; 3],
    [lo_got, hi_got]: [bool; 2],
) {
    let lo = lo_t.chunks_exact_mut(k).zip(lo_s.chunks_exact_mut(k));
    let hi = hi_t.chunks_exact_mut(k).zip(hi_s.chunks_exact_mut(k));
    let ids = lo_id.chunks_exact(k).zip(hi_id.chunks_exact(k));
    for (((lo_t, lo_s), (hi_t, hi_s)), (lo, hi)) in lo.zip(hi).zip(ids) {
        let (from_lo, from_hi) = (lo_t.to_vec(), hi_t.to_vec());
        pair_fold(lo[0] as usize, [lo_t, lo_s], lo_got.then_some(&from_hi[..]));
        pair_fold(hi[0] as usize, [hi_t, hi_s], hi_got.then_some(&from_lo[..]));
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

/// What a run leaves: slabs, metrics, trace, normalized events, link
/// report.
type Outcome = (
    Vec<u64>,
    Vec<u64>,
    Metrics,
    Vec<TraceEntry>,
    Vec<Event>,
    Option<LinkReport>,
);

/// One round of the program: a pairwise cluster-dimension or cross-edge
/// round, or the half-speaking one.
#[derive(Clone, Copy)]
enum Round {
    Cluster(u32),
    Cross,
    Half,
}

/// Every cluster dimension, the cross-edges, then the half-speaking
/// round.
fn all_rounds(d: DualCube) -> Vec<Round> {
    let cluster = (0..d.cluster_dim()).map(Round::Cluster);
    cluster.chain([Round::Cross, Round::Half]).collect()
}

/// A landed row, or `None` where the sentinel says nothing arrived.
fn landed_row(x: &[u64]) -> Option<&[u64]> {
    (x[0] != EMPTY).then_some(x)
}

/// Runs `reps` sweeps of `rounds` on `m`, fused (`fused`) or as rows +
/// `compute_rows`, returning the `t` and `s` slabs.
fn program(
    m: &mut impl Cycles<()>,
    d: DualCube,
    fused: bool,
    k: usize,
    rounds: &[Round],
    reps: usize,
) -> (Vec<u64>, Vec<u64>) {
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
    let mut ids: Vec<u64> = (0..nodes as u64)
        .flat_map(|u| std::iter::repeat_n(u, k))
        .collect();
    let mut landed = vec![EMPTY; nodes * k];
    for rep in 0..reps {
        m.begin_phase(format!("round {rep}"));
        for &round in rounds {
            let (key, flip) = match round {
                Round::Cluster(i) => (
                    ScheduleKey::Dim(i),
                    Some(Flip::by_class(d.class_bit(), [i, d.cluster_dim() + i])),
                ),
                Round::Cross => (ScheduleKey::Cross, Some(Flip::uniform(d.class_bit()))),
                Round::Half => (ScheduleKey::Custom(0), None),
            };
            let pairwise = flip.is_some();
            let plan = |u| match flip {
                Some(flip) => Some(flip.partner(u)),
                None => (d.class_of(u) == Class::One).then(|| d.cross_neighbor(u)),
            };
            if let (true, Some(flip)) = (fused, flip) {
                m.cycle(|c| {
                    let slabs = [&mut t[..], &mut s[..], &mut ids[..]];
                    c.fold_pairs(k, flip, slabs, |lo, hi, got| pair_fold_both(k, lo, hi, got))
                        .keyed(key)
                });
            } else if fused {
                m.cycle(|c| {
                    c.fold_rows(k, |u, _| plan(u), &s[..], [&mut t[..]], [&s[..]], read_fold)
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
fn run(fused: bool, exec: ExecMode, replay: bool, shards: usize, case: Case) -> Outcome {
    let Case { n, k, rounds, reps } = case;
    let d = DualCube::new(n);
    let mut m = Machine::with_exec(&d, vec![(); d.num_nodes()], exec);
    m.set_schedule_replay(replay);
    m.set_shards(shards);
    m.enable_trace();
    let sink = obs::shared(MemorySink::new());
    m.record_into(sink.clone());
    let (t, s) = program(&mut m, d, fused, k, &rounds(d), reps);
    let trace = m.phased_trace().to_vec();
    let report = m.link_report();
    let metrics = m.into_parts().1;
    let events = sink.lock().unwrap().events();
    (
        t,
        s,
        metrics,
        trace,
        events.iter().map(Event::normalized).collect(),
        report,
    )
}

/// Runs the program on the reference machine: slabs, counters, trace.
fn oracle(fused: bool, case: Case) -> (Vec<u64>, Vec<u64>, Metrics, Vec<TraceEntry>) {
    let Case { n, k, rounds, reps } = case;
    let d = DualCube::new(n);
    let mut m = RefMachine::new(&d, vec![(); d.num_nodes()]);
    let (t, s) = program(&mut m, d, fused, k, &rounds(d), reps);
    let trace = m.phased_trace().to_vec();
    (t, s, m.into_parts().1, trace)
}

/// A program: `reps` sweeps of `rounds` on `D_n` at `k` lanes.
#[derive(Clone, Copy)]
struct Case {
    n: u32,
    k: usize,
    rounds: fn(DualCube) -> Vec<Round>,
    reps: usize,
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

fn check(case: Case, configs: &[(ExecMode, bool, usize, usize)]) {
    let (n, k) = (case.n, case.k);
    let want = oracle(true, case);
    assert_eq!(
        want,
        oracle(false, case),
        "D_{n} K={k}: the oracle's own rounds"
    );
    for &(exec, replay, workers, shards) in configs {
        let _pin = (workers > 0).then(|| PinnedWorkers::pin(workers));
        let case_name =
            format!("D_{n} K={k} {exec:?} replay={replay} workers={workers} S={shards}");
        let case_name = &case_name;
        let fused = run(true, exec, replay, shards, case);
        let reference = run(false, exec, replay, shards, case);
        assert_eq!(fused.0, reference.0, "t slab: {case_name}");
        assert_eq!(fused.1, reference.1, "s slab: {case_name}");
        assert_eq!(fused.2, reference.2, "metrics: {case_name}");
        assert_eq!(fused.3, reference.3, "trace: {case_name}");
        assert_eq!(fused.4, reference.4, "events: {case_name}");
        assert_eq!(fused.5, reference.5, "link report: {case_name}");
        assert!(fused.2.dropped_messages > 0, "drops armed: {case_name}");
        let (t, s, metrics, trace) = &want;
        assert_eq!(
            &fused.0, t,
            "t slab against the reference machine: {case_name}"
        );
        assert_eq!(
            &fused.1, s,
            "s slab against the reference machine: {case_name}"
        );
        let counters = model_counters(&fused.2);
        assert_eq!(
            &counters, metrics,
            "metrics against the reference machine: {case_name}"
        );
        assert_eq!(
            &fused.3, trace,
            "trace against the reference machine: {case_name}"
        );
    }
}

#[test]
fn fold_rows_equals_rows_then_compute_rows_across_the_matrix() {
    for k in [1, 3, 16] {
        let case = Case {
            n: 4,
            k,
            rounds: all_rounds,
            reps: 3,
        };
        check(case, &configs());
    }
}

#[test]
fn pair_walk_equals_rows_then_compute_rows() {
    // 8192 nodes × 16 lanes × 8 bytes: 1 MiB slabs of 128-byte rows.
    let case = Case {
        n: 7,
        k: 16,
        rounds: all_rounds,
        reps: 3,
    };
    check(case, &configs()[..3]);
}

#[test]
fn blocks_straddling_every_slot_fold_once() {
    // The top address bit is one block of the whole machine, so at 4
    // shards every block straddles two slots (and at 4 workers, three
    // slot boundaries fall inside it): the calling thread folds it.
    let case = Case {
        n: 4,
        k: 3,
        rounds: |_| vec![Round::Cross],
        reps: 7,
    };
    let straddling: Vec<_> = configs()
        .into_iter()
        .filter(|&(_, _, _, shards)| shards == 4)
        .chain([(FORCE_PARALLEL, true, 4, 4)])
        .collect();
    check(case, &straddling);
}
