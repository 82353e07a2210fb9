//! Shard determinism matrix: the sharded cycle engine must be
//! **bit-identical** to the naive reference machine
//! ([`RefMachine`]) and to itself at every shard count.
//!
//! `Machine::set_shards(1)` keeps one shard per machine, while
//! `S ∈ {4, 16}` partitions every hot table into the Section-4
//! recursion's contiguous ranges, with cross-shard claims staged through
//! per-slot exchange bins instead of atomics. None of that is allowed to
//! be observable: final states, metrics (message/word counters, schedule
//! hits/misses), space-time traces, link reports, and *error sites*
//! (which node a violation is blamed on) must match the sequential
//! one-slot run exactly across sequential × threaded backends, replay
//! on/off, single-lane and lane-batched cycles, and crash faults that
//! straddle a shard boundary — and states, counters, traces and error
//! sites must match [`RefMachine`]'s.

use dc_simulator::obs::{self, MemorySink};
use dc_simulator::reference::{Cycles, RefMachine};
use dc_simulator::{ExecMode, FaultPlan, Flip, Machine, ScheduleKey, SimError, TraceEntry};
use dc_topology::{DualCube, Topology};
use proptest::collection::vec;
use proptest::prelude::*;

/// Forces the threaded code path regardless of machine size.
const FORCE_PARALLEL: ExecMode = ExecMode::Parallel { threshold: 1 };

/// Every (backend, replay, workers, shards) configuration the matrix
/// runs. Shard counts only engage on the threaded backend (the
/// sequential rows pin the baseline).
fn configs() -> Vec<(ExecMode, bool, usize, usize)> {
    vec![
        (ExecMode::Sequential, false, 0, 1),
        (ExecMode::Sequential, true, 0, 1),
        (FORCE_PARALLEL, true, 2, 1),
        (FORCE_PARALLEL, false, 2, 4),
        (FORCE_PARALLEL, true, 2, 4),
        (FORCE_PARALLEL, true, 4, 4),
        (FORCE_PARALLEL, true, 2, 16),
        (FORCE_PARALLEL, false, 4, 16),
        (FORCE_PARALLEL, true, 4, 16),
    ]
}

/// What a run leaves that both machines produce: final states, the
/// space-time trace, and the message/word counters.
type Observed = (Vec<u64>, Vec<TraceEntry>, u64, u64);

/// One run of `scenario` on a fresh [`RefMachine`] over `D_n`.
fn oracle(n: u32, scenario: impl Fn(&mut RefMachine<'_, DualCube, u64>)) -> Observed {
    let d = DualCube::new(n);
    let mut m = RefMachine::new(&d, (0..d.num_nodes() as u64).collect());
    scenario(&mut m);
    let trace = m.phased_trace().to_vec();
    let (states, metrics) = m.into_parts();
    (states, trace, metrics.messages, metrics.message_words)
}

/// The engine run's [`Observed`] part.
fn observed(run: &(Vec<u64>, Vec<TraceEntry>, Option<obs::LinkReport>, u64, u64)) -> Observed {
    (run.0.clone(), run.1.clone(), run.3, run.4)
}

/// One run of `scenario` on a fresh machine under a configuration,
/// returning everything observable: final states, the space-time trace,
/// the link report, and the end-of-run metrics snapshot.
#[allow(clippy::type_complexity)]
fn run(
    mode: ExecMode,
    replay: bool,
    workers: usize,
    shards: usize,
    n: u32,
    scenario: impl Fn(&mut Machine<'_, DualCube, u64>),
) -> (
    Vec<u64>,
    Vec<dc_simulator::TraceEntry>,
    Option<obs::LinkReport>,
    u64,
    u64,
) {
    let d = DualCube::new(n);
    let mut m = Machine::with_exec(&d, (0..d.num_nodes() as u64).collect(), mode);
    m.set_workers(workers);
    m.set_schedule_replay(replay);
    m.set_shards(shards);
    m.enable_trace();
    m.record_into(obs::shared(MemorySink::ring(64)));
    scenario(&mut m);
    let trace = m.phased_trace().to_vec();
    let report = m.link_report();
    let (states, metrics) = m.into_parts();
    (
        states,
        trace,
        report,
        metrics.messages,
        metrics.message_words,
    )
}

/// Interprets one random byte as a machine operation, mixing every
/// sharded code path: keyed cross/dimension replays (cross-edges are
/// *always* shard-boundary traffic at `S ≥ 4`), unkeyed full-validation
/// exchanges, lane-batched keyed cycles (staged lanes, slab rows, and
/// exchange-and-fold rounds), compute steps, and phase boundaries.
fn step(m: &mut impl Cycles<u64>, d: &DualCube, op: u8, phase_no: &mut u32) {
    let dims = d.cluster_dim();
    let dim = (op >> 3) as u32 % dims;
    match op % 8 {
        0 => {
            m.cycle(|c| {
                c.message(
                    |u, &s| Some((d.cross_neighbor(u), s)),
                    |s, _, v: u64| *s = s.wrapping_mul(0x9E37_79B9).wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Cross)
            });
        }
        1 => {
            // Half-speaking keyed exchange on a cluster edge: the lower
            // endpoint speaks, structurally (never state-dependent, so
            // replay-on and replay-off runs see the same plan).
            m.cycle(|c| {
                c.message(
                    move |u, &s| {
                        let v = d.cluster_neighbor(u, dim);
                        (u < v).then_some((v, s))
                    },
                    |s, _, v| *s ^= v,
                )
                .keyed(ScheduleKey::Window { j: dim, hop: 0 })
            });
        }
        2 => {
            // Unkeyed: full sharded validation (claims + exchange bins)
            // every cycle.
            m.cycle(|c| {
                c.message(
                    |u, &s| Some((d.cross_neighbor(u), (s, 1u64))),
                    |s, _, v: (u64, u64)| *s = s.rotate_left(1).wrapping_add(v.0 + v.1),
                )
                .pairwise()
            });
        }
        3 => {
            m.compute(1 + (op % 3) as u64, |u, s| {
                *s = s.rotate_left((u % 13) as u32);
            });
        }
        4 => {
            let lanes = 2 + (op >> 6) as usize; // 2..=5
            m.cycle(|c| {
                c.lanes(
                    lanes,
                    &0u64,
                    |u, _| Some(d.cross_neighbor(u)),
                    |_, &s, window| {
                        for (k, w) in window.iter_mut().enumerate() {
                            *w = s.wrapping_add(k as u64);
                        }
                    },
                    |s, _, window| {
                        for w in window.iter() {
                            *s = s.rotate_left(3) ^ w;
                        }
                    },
                )
                .pairwise()
                .keyed(ScheduleKey::Cross)
            });
        }
        5 => {
            // Rows over a cross-shard keyed pattern: each node's state
            // spread over K lanes of a slab, moved along the cross-edges
            // into a second slab, then folded back in.
            let lanes = 1 + (op >> 6) as usize; // 1..=4
            let rows: Vec<u64> = m
                .states()
                .iter()
                .flat_map(|&s| (0..lanes as u64).map(move |k| s.wrapping_add(k)))
                .collect();
            let mut landed = vec![0u64; rows.len()];
            m.cycle(|c| {
                c.rows(
                    lanes,
                    |u, _| Some(d.cross_neighbor(u)),
                    [(&rows[..], &mut landed[..])],
                )
                .pairwise()
                .keyed(ScheduleKey::Cross)
            });
            m.setup(|u, s| {
                for w in &landed[u * lanes..(u + 1) * lanes] {
                    *s = s.rotate_left(3) ^ w;
                }
            });
        }
        6 => {
            // A pair fold over lane slabs, the travelling slab folded
            // too, on a cluster dimension (a by-class flip; class 1's
            // flip a shard bit at `S ≥ 4`) or the cross-edges (the top
            // bit, one block straddling every shard seam at `S ≥ 4`),
            // picked by bit 5, which neither `op % 8` nor `dim` reads
            // on `D_3`.
            let lanes = 1 + (op >> 6) as usize; // 1..=4
            let mut t: Vec<u64> = m
                .states()
                .iter()
                .flat_map(|&s| (0..lanes as u64).map(move |k| s.wrapping_add(k)))
                .collect();
            let (flip, key) = if op & 0x20 == 0 {
                let bits = [dim, d.cluster_dim() + dim];
                (Flip::by_class(d.class_bit(), bits), ScheduleKey::Dim(dim))
            } else {
                (Flip::uniform(d.class_bit()), ScheduleKey::Cross)
            };
            // Each node's id in every lane of its row: a run's position
            // names its nodes, for the fold to mix in.
            let mut ids: Vec<u64> = (0..m.states().len() as u64)
                .flat_map(|u| std::iter::repeat_n(u, lanes))
                .collect();
            m.cycle(|c| {
                let slabs = [&mut t[..], &mut ids[..]];
                c.fold_pairs(lanes, flip, slabs, |[l, lo], [h, hi], got| {
                    for ((l, h), (lo, hi)) in l.iter_mut().zip(h).zip(lo.iter().zip(&*hi)) {
                        let (a, b) = (*l, *h);
                        if got[0] {
                            *l = a.wrapping_mul(31).wrapping_add(b ^ lo);
                        }
                        if got[1] {
                            *h = b.wrapping_mul(31).wrapping_add(a ^ hi);
                        }
                    }
                })
                .keyed(key)
            });
            m.setup(|u, s| {
                for w in &t[u * lanes..(u + 1) * lanes] {
                    *s = s.rotate_left(3) ^ w;
                }
            });
        }
        _ => {
            *phase_no += 1;
            m.begin_phase(format!("phase {phase_no}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random programs over `D_3` (32 nodes — every shard at `S = 16`
    /// holds a two-node sliver, maximising seam traffic) produce
    /// identical states, traces, link reports, and counters at every
    /// shard count.
    #[test]
    fn sharded_runs_match_the_unsharded_reference(ops in vec(any::<u8>(), 1..32)) {
        fn program(m: &mut impl Cycles<u64>, ops: &[u8]) {
            let d = DualCube::new(3);
            let mut phase_no = 0;
            for &op in ops {
                step(m, &d, op, &mut phase_no);
            }
        }
        let baseline = run(ExecMode::Sequential, true, 0, 1, 3, |m| program(m, &ops));
        prop_assert_eq!(
            observed(&baseline), oracle(3, |m| program(m, &ops)),
            "the sequential run diverged from the reference machine"
        );
        let scenario = |m: &mut Machine<'_, DualCube, u64>| program(m, &ops);
        for (mode, replay, workers, shards) in configs() {
            let got = run(mode, replay, workers, shards, 3, scenario);
            prop_assert_eq!(
                &got.0, &baseline.0,
                "states diverged ({:?}, replay={}, workers={}, shards={})",
                mode, replay, workers, shards
            );
            prop_assert_eq!(
                &got.1, &baseline.1,
                "traces diverged ({:?}, replay={}, workers={}, shards={})",
                mode, replay, workers, shards
            );
            prop_assert_eq!(
                &got.2, &baseline.2,
                "link reports diverged ({:?}, replay={}, workers={}, shards={})",
                mode, replay, workers, shards
            );
            prop_assert_eq!(
                (got.3, got.4), (baseline.3, baseline.4),
                "message/word counters diverged ({:?}, replay={}, workers={}, shards={})",
                mode, replay, workers, shards
            );
        }
    }

    /// A receive conflict is blamed on the same `(node, first, second)`
    /// triple at every shard count, in every payload form (a moved
    /// message, `K ∈ {1, 3}` lanes, or `K ∈ {1, 3}` rows) and on the
    /// reference machine — the sharded validator's exchange bins must
    /// reproduce the walk in node order's error site even when the
    /// contested receiver sits in another shard than both senders.
    #[test]
    fn conflict_error_sites_match_across_shard_counts(target in 0usize..32, form in 0usize..5) {
        // Everyone sends to `target` (via illegal non-edges for most
        // senders — the lowest violation wins deterministically).
        let d = DualCube::new(3);
        fn fan_in_on(m: &mut impl Cycles<u64>, form: usize, target: usize) -> SimError {
            let n = m.states().len();
            let dst = |u: usize| (u != target).then_some(target);
            match form {
                0 => m.try_cycle(|c| {
                    c.message(|u, _| dst(u).map(|v| (v, u as u64)), |s, _, v: u64| {
                        *s = s.wrapping_add(v)
                    })
                }),
                1 | 2 => m.try_cycle(|c| {
                    c.lanes(2 * form - 1, &0u64, |u, _| dst(u), |u, _, w| w.fill(u as u64), |s, _, w| {
                        *s = s.wrapping_add(w[0])
                    })
                }),
                _ => {
                    let lanes = 2 * (form - 2) - 1;
                    let rows = vec![1u64; n * lanes];
                    let mut landed = vec![0u64; rows.len()];
                    let err = m.try_cycle(|c| c.rows(lanes, |u, _| dst(u), [(&rows[..], &mut landed[..])]));
                    assert!(landed.iter().all(|&v| v == 0), "a failed cycle wrote a row");
                    err
                }
            }
            .expect_err("fan-in to one node cannot be a matching")
        }
        let fan_in = |mode: ExecMode, workers: usize, shards: usize| {
            let mut m = Machine::with_exec(&d, vec![0u64; d.num_nodes()], mode);
            m.set_workers(workers);
            m.set_shards(shards);
            fan_in_on(&mut m, form, target)
        };
        let expect = fan_in(ExecMode::Sequential, 0, 1);
        let reference = fan_in_on(&mut RefMachine::new(&d, vec![0u64; d.num_nodes()]), form, target);
        prop_assert_eq!(&expect, &reference, "the reference machine blamed another site");
        if form > 0 {
            let mut m = Machine::with_exec(&d, vec![0u64; d.num_nodes()], ExecMode::Sequential);
            m.set_shards(1);
            let message = m
                .try_cycle(|c| {
                    c.message(|u, _| (u != target).then_some((target, u as u64)), |_, _, _| {})
                })
                .expect_err("fan-in to one node cannot be a matching");
            prop_assert_eq!(&expect, &message, "lane or row form diverged from the message form");
        }
        for (mode, _replay, workers, shards) in configs() {
            let got = fan_in(mode, workers, shards);
            prop_assert_eq!(
                format!("{got}"), format!("{expect}"),
                "error site diverged ({:?}, workers={}, shards={})", mode, workers, shards
            );
        }
    }
}

/// A scripted crash on a node whose cross-neighbor lives in another
/// shard: the post-crash violation must blame the same node, the fault
/// epoch must bump identically, and rerouted traffic must produce the
/// same states at every shard count. (At `S = 4` the class bit is a
/// shard-selector bit, so *every* cross pair straddles a boundary —
/// node 3's crash is seam-adjacent by construction.)
#[test]
fn boundary_crash_is_identical_across_shard_counts() {
    let n = 3u32;
    fn scenario(m: &mut impl Cycles<u64>) {
        let d = DualCube::new(3);
        m.set_fault_plan(FaultPlan::new().node_crash(2, 3));
        for _ in 0..2 {
            m.cycle(|c| {
                c.message(
                    |u, &s| Some((d.cross_neighbor(u), s)),
                    |s, _, v: u64| *s = s.wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Cross)
            });
        }
        // Node 3 is now dead: the old pattern must fail, blaming node 3.
        let err = m.try_cycle(|c| {
            c.message(
                |u, &s| Some((d.cross_neighbor(u), s)),
                |s, _, v: u64| *s = s.wrapping_add(v),
            )
            .pairwise()
            .keyed(ScheduleKey::Cross)
        });
        match err {
            Err(SimError::NodeFailed { node }) => assert_eq!(node, 3),
            other => panic!("expected NodeFailed for node 3, got {other:?}"),
        }
        // Reroute around the corpse and keep going under the new epoch.
        for _ in 0..2 {
            m.cycle(|c| {
                c.message(
                    |u, &s| {
                        let v = d.cross_neighbor(u);
                        (u != 3 && v != 3).then_some((v, s))
                    },
                    |s, _, v: u64| *s = s.wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Custom(7))
            });
        }
        m.compute(1, |_, s| *s = s.wrapping_add(1));
    }
    let baseline = run(ExecMode::Sequential, true, 0, 1, n, |m| scenario(m));
    assert_eq!(
        observed(&baseline),
        oracle(n, |m| scenario(m)),
        "the sequential run diverged from the reference machine"
    );
    for (mode, replay, workers, shards) in configs() {
        let got = run(mode, replay, workers, shards, n, |m| scenario(m));
        assert_eq!(
            got, baseline,
            "boundary-crash run diverged ({mode:?}, replay={replay}, workers={workers}, shards={shards})"
        );
    }
}
