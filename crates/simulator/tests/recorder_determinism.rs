//! Recorder determinism matrix: with a recorder installed, the event
//! stream a program emits must be **identical modulo timing** across
//! every execution configuration — sequential or threaded backend, any
//! worker count, schedule replay on or off.
//!
//! "Modulo timing" is [`Event::normalized`]: `at_ns`/`dur_ns` zeroed,
//! pool dispatch stats cleared, backend collapsed. Everything else —
//! sequence numbers, kinds, cycle indices, phase attribution, schedule
//! keys, fault epochs, message/word/drop counts — is part of the
//! simulated execution and must not depend on how the host ran it. The
//! one *intended* cross-configuration difference is the schedule-cache
//! disposition: a replay-enabled run reports `miss` then `hit` where a
//! replay-disabled run reports `bypass`, so comparisons across replay
//! settings additionally collapse the cache status of keyed cycles.
//!
//! The random-program and lane-batching matrices also hold every
//! configuration's states and counters to the naive reference machine
//! ([`RefMachine`]), which records no events.

use dc_simulator::obs::{self, CacheStatus, MemorySink};
use dc_simulator::reference::{model_counters, Cycles, RefMachine};
use dc_simulator::{
    set_worker_threads, with_default_exec, with_schedule_replay, Event, ExecMode, FaultKind,
    FaultPlan, Flip, Machine, Metrics, ScheduleKey,
};
use dc_topology::{Hypercube, Topology};
use proptest::collection::vec;
use proptest::prelude::*;

/// Forces the threaded code path regardless of machine size.
const FORCE_PARALLEL: ExecMode = ExecMode::Parallel { threshold: 1 };

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

/// Every (backend, replay, workers) configuration the matrix runs.
fn configs() -> Vec<(ExecMode, bool, usize)> {
    vec![
        (ExecMode::Sequential, false, 0),
        (ExecMode::Sequential, true, 0),
        (FORCE_PARALLEL, false, 2),
        (FORCE_PARALLEL, true, 2),
        (FORCE_PARALLEL, true, 4),
    ]
}

fn normalized(events: &[Event]) -> Vec<Event> {
    events.iter().map(Event::normalized).collect()
}

/// [`normalized`] with keyed cycles' cache status collapsed to one
/// canonical value, for comparisons across replay settings (hit/miss vs
/// bypass is the one legitimate difference).
fn cache_collapsed(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .map(|e| {
            let mut e = e.normalized();
            if let Event::Cycle(c) = &mut e {
                if c.key.is_some() {
                    c.cache = CacheStatus::Bypass;
                }
            }
            e
        })
        .collect()
}

/// Runs `scenario` on a fresh recorded machine under one configuration,
/// returning the emitted events, the end states and the counters a
/// [`RefMachine`] charges too.
fn record_run(
    mode: ExecMode,
    replay: bool,
    workers: usize,
    dim: u32,
    scenario: impl Fn(&mut Machine<'_, Hypercube, u64>),
) -> (Vec<Event>, Vec<u64>, Metrics) {
    with_default_exec(mode, || {
        with_schedule_replay(replay, || {
            let _pin = (workers > 0).then(|| PinnedWorkers::pin(workers));
            let q = Hypercube::new(dim);
            let mut m = Machine::new(&q, (0..q.num_nodes() as u64).collect());
            let sink = obs::shared(MemorySink::new());
            m.record_into(sink.clone());
            scenario(&mut m);
            let events = sink.lock().unwrap().events();
            let (states, metrics) = m.into_parts();
            (events, states, model_counters(&metrics))
        })
    })
}

/// Runs `scenario` on a fresh reference machine over `Q_dim`: end states
/// and counters.
fn oracle_run(
    dim: u32,
    scenario: impl Fn(&mut RefMachine<'_, Hypercube, u64>),
) -> (Vec<u64>, Metrics) {
    let q = Hypercube::new(dim);
    let mut m = RefMachine::new(&q, (0..q.num_nodes() as u64).collect());
    scenario(&mut m);
    m.into_parts()
}

/// Interprets one random byte as a machine operation. The mix covers
/// every emission site: keyed pairwise (compile + replay), keyed
/// half-speaking exchange, unkeyed pairwise, multi-step compute,
/// lane-batched keyed pairwise in both lane forms (sharing the `Dim`
/// keys with the single-lane op, so replay crosses between the forms),
/// a keyed half-speaking exchange-and-fold round or a keyed pair fold
/// (a communication and a computation event from one cycle; the pair
/// fold shares the `Dim` keys too), and phase boundaries.
fn step(m: &mut impl Cycles<u64>, op: u8, phase_no: &mut u32) {
    let dim = (op >> 3) as usize % 4;
    match op % 8 {
        0 => {
            m.cycle(|c| {
                c.message(
                    move |u, &s| Some((u ^ (1usize << dim), s)),
                    |s, _, v: u64| *s = s.wrapping_mul(0x9E37_79B9).wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(dim as u32))
            });
        }
        1 => {
            m.cycle(|c| {
                c.message(
                    move |u, &s| (u & (1usize << dim) == 0).then(|| (u | (1usize << dim), s)),
                    |s, _, v| *s ^= v,
                )
                .keyed(ScheduleKey::Window {
                    j: dim as u32,
                    hop: 0,
                })
            });
        }
        2 => {
            m.cycle(|c| {
                c.message(
                    move |u, &s| Some((u ^ (1usize << dim), (s, 1u64))),
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
                    move |u, _| Some(u ^ (1usize << dim)),
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
                .keyed(ScheduleKey::Dim(dim as u32))
            });
        }
        5 => {
            // Two slab pairs of K lanes, so events report 2K lanes.
            let lanes = 1 + (op >> 6) as usize; // 1..=4
            let rows: Vec<u64> = m
                .states()
                .iter()
                .flat_map(|&s| (0..lanes as u64).map(move |k| s.wrapping_add(k)))
                .collect();
            let (mut a, mut b) = (vec![0u64; rows.len()], vec![0u64; rows.len()]);
            m.cycle(|c| {
                c.rows(
                    lanes,
                    move |u, _| Some(u ^ (1usize << dim)),
                    [(&rows[..], &mut a[..]), (&rows[..], &mut b[..])],
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(dim as u32))
            });
            m.setup(|u, s| {
                let row = u * lanes..(u + 1) * lanes;
                for (x, y) in a[row.clone()].iter().zip(&b[row]) {
                    *s = s.rotate_left(3) ^ x ^ y.rotate_left(1);
                }
            });
        }
        6 => {
            let lanes = 1 + (op >> 6) as usize; // 1..=4
            let from: Vec<u64> = m
                .states()
                .iter()
                .flat_map(|&s| (0..lanes as u64).map(move |k| s ^ k))
                .collect();
            let mut t = vec![1u64; from.len()];
            if op & 0x20 == 0 {
                // The lower half of each `dim` pair sends its row of a
                // read-only slab; every node folds, receivers the message.
                m.cycle(|c| {
                    c.fold_rows(
                        lanes,
                        move |u, _| (u & (1usize << dim) == 0).then_some(u | (1usize << dim)),
                        &from[..],
                        [&mut t[..]],
                        [],
                        |_, [t], [], msg| {
                            for (k, t) in t.iter_mut().enumerate() {
                                *t = msg.map_or(2, |x| x[k].wrapping_add(3));
                            }
                        },
                    )
                    .keyed(ScheduleKey::Window {
                        j: dim as u32,
                        hop: 1,
                    })
                });
            } else {
                // A pair fold across `dim`, sharing the `Dim` key with
                // the single-lane, lane and row ops (bit 5 picks it;
                // neither `op % 8`, `dim` nor `lanes` reads it).
                t.copy_from_slice(&from);
                // Each node's id in every lane of its row: a run's
                // position names its nodes, for the fold to mix in.
                let mut ids: Vec<u64> = (0..m.states().len() as u64)
                    .flat_map(|u| std::iter::repeat_n(u, lanes))
                    .collect();
                m.cycle(|c| {
                    c.fold_pairs(
                        lanes,
                        Flip::uniform(dim as u32),
                        [&mut t[..], &mut ids[..]],
                        |[l, lo], [h, hi], got| {
                            let ids = lo.iter().zip(&*hi);
                            for ((l, h), (lo, hi)) in l.iter_mut().zip(h).zip(ids) {
                                let (a, b) = (*l, *h);
                                *l = if got[0] {
                                    a.wrapping_mul(31).wrapping_add(b ^ lo)
                                } else {
                                    a ^ 9
                                };
                                *h = if got[1] {
                                    b.wrapping_mul(31).wrapping_add(a ^ hi)
                                } else {
                                    b ^ 9
                                };
                            }
                        },
                    )
                    .keyed(ScheduleKey::Dim(dim as u32))
                });
            }
            m.setup(|u, s| {
                for w in &t[u * lanes..(u + 1) * lanes] {
                    *s = s.rotate_left(5) ^ w;
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random programs (with scripted message drops armed) emit the same
    /// event stream under every configuration.
    #[test]
    fn event_streams_identical_across_the_matrix(ops in vec(any::<u8>(), 1..40)) {
        fn program(m: &mut impl Cycles<u64>, ops: &[u8]) {
            m.set_fault_plan(FaultPlan::new().message_drop(2, 1).message_drop(5, 0));
            let mut phase_no = 0;
            for &op in ops {
                step(m, op, &mut phase_no);
            }
        }
        let scenario = |m: &mut Machine<'_, Hypercube, u64>| program(m, &ops);
        let baseline = record_run(ExecMode::Sequential, true, 0, 4, scenario);
        prop_assert!(!baseline.0.is_empty());
        let (states, metrics) = oracle_run(4, |m| program(m, &ops));
        prop_assert_eq!(&baseline.1, &states, "states diverged from the reference machine");
        prop_assert_eq!(&baseline.2, &metrics, "counters diverged from the reference machine");
        for (mode, replay, workers) in configs() {
            let got = record_run(mode, replay, workers, 4, scenario);
            prop_assert_eq!(
                &got.1, &baseline.1,
                "states diverged ({:?}, replay={}, workers={})", mode, replay, workers
            );
            prop_assert_eq!(
                &got.2, &baseline.2,
                "counters diverged ({:?}, replay={}, workers={})", mode, replay, workers
            );
            if replay {
                prop_assert_eq!(
                    normalized(&got.0), normalized(&baseline.0),
                    "events diverged ({:?}, replay={}, workers={})", mode, replay, workers
                );
            } else {
                prop_assert_eq!(
                    cache_collapsed(&got.0), cache_collapsed(&baseline.0),
                    "events diverged ({:?}, replay={}, workers={})", mode, replay, workers
                );
            }
        }
    }
}

/// A crash mid-program: post-crash cycles carry the bumped fault epoch,
/// failed cycles emit nothing, and the whole stream is identical across
/// the matrix.
#[test]
fn fault_epoch_surfaces_identically_in_events() {
    let scenario = |m: &mut Machine<'_, Hypercube, u64>| {
        m.begin_phase("pre-fault");
        for _ in 0..2 {
            m.cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s = s.wrapping_add(v))
                    .pairwise()
                    .keyed(ScheduleKey::Dim(0))
            });
        }
        m.inject_fault(FaultKind::NodeCrash { node: 3 });
        m.begin_phase("post-fault");
        // The old pattern now touches the corpse: the failed attempt must
        // emit no event.
        let err = m.try_cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s = s.wrapping_add(v))
                .pairwise()
                .keyed(ScheduleKey::Dim(0))
        });
        assert!(err.is_err());
        // Rerouted traffic avoiding node 3 flows under the new epoch.
        for _ in 0..2 {
            m.cycle(|c| {
                c.message(
                    |u, &s| (u < 2).then_some((u ^ 1, s)),
                    |s, _, v| *s = s.wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Custom(1))
            });
        }
        m.compute(1, |_, s| *s = s.wrapping_add(1));
    };
    let baseline = record_run(ExecMode::Sequential, true, 0, 3, scenario);
    let epochs: Vec<(u64, u64)> = baseline
        .0
        .iter()
        .filter_map(|e| match e {
            Event::Cycle(c) => Some((c.fault_epoch, c.messages)),
            Event::Phase(_) => None,
        })
        .collect();
    // Two pre-fault cycles at epoch 0, then two rerouted + one compute at
    // epoch 1 (the failed attempt emitted nothing).
    assert_eq!(epochs, vec![(0, 8), (0, 8), (1, 2), (1, 2), (1, 0)]);
    for (mode, replay, workers) in configs() {
        let got = record_run(mode, replay, workers, 3, scenario);
        assert_eq!(got.1, baseline.1, "states diverged");
        let (want, have) = if replay {
            (normalized(&baseline.0), normalized(&got.0))
        } else {
            (cache_collapsed(&baseline.0), cache_collapsed(&got.0))
        };
        assert_eq!(
            have, want,
            "events diverged ({mode:?}, replay={replay}, workers={workers})"
        );
    }
}

/// Scripted message drops must be **excluded** from the per-link
/// [`LinkReport`](dc_simulator::obs::LinkReport) counters — a dropped
/// message never traverses its link — and identically so on the
/// sequential and threaded backends, with and without replay, for both
/// single-lane and lane-batched cycles (the satellite audit of
/// `MessageDrop` vs. per-link accounting).
#[test]
fn message_drops_excluded_from_link_report_across_matrix() {
    let scenario = |m: &mut Machine<'_, Hypercube, u64>| {
        // Cycle 0: drop the delivery into node 1. Cycle 1: drop into 0.
        // Cycles 2+ run clean (replay path after compile at cycle 0).
        m.set_fault_plan(FaultPlan::new().message_drop(0, 1).message_drop(1, 0));
        for _ in 0..3 {
            m.cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s = s.wrapping_add(v))
                    .pairwise()
                    .keyed(ScheduleKey::Dim(0))
            });
        }
        // A lane-batched cycle under the same key: 3 lanes per message,
        // so each undropped message adds 3 words to its link.
        m.cycle(|c| {
            c.lanes(
                3,
                &0u64,
                |u, _| Some(u ^ 1),
                |_, &s, window| window.fill(s),
                |s, _, window| *s = s.wrapping_add(window[0]),
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(0))
        });
    };
    let q = Hypercube::new(2);
    let (baseline_report, baseline_events) = with_default_exec(ExecMode::Sequential, || {
        with_schedule_replay(true, || {
            let mut m = Machine::new(&q, (0..4u64).collect());
            let sink = obs::shared(MemorySink::new());
            m.record_into(sink.clone());
            scenario(&mut m);
            let report = m.link_report().expect("recording is on");
            let events = sink.lock().unwrap().events();
            (report, events)
        })
    });
    // 4 nodes over dimension-0 links: 4 messages/cycle when clean. Cycles
    // 0 and 1 each lose one; the lane cycle carries 4 messages × 3 words.
    // Dropped messages contribute to *no* counter.
    assert_eq!(baseline_report.cube_links, 2);
    assert_eq!(baseline_report.cube_messages, 3 + 3 + 4 + 4);
    assert_eq!(baseline_report.cube_words, 3 + 3 + 4 + 4 * 3);
    assert_eq!(baseline_report.cross_links, 0);
    let dropped: u64 = baseline_events
        .iter()
        .filter_map(|e| match e {
            Event::Cycle(c) => Some(c.dropped),
            Event::Phase(_) => None,
        })
        .sum();
    assert_eq!(dropped, 2);
    for (mode, replay, workers) in configs() {
        let report = with_default_exec(mode, || {
            with_schedule_replay(replay, || {
                let _pin = (workers > 0).then(|| PinnedWorkers::pin(workers));
                let mut m = Machine::new(&q, (0..4u64).collect());
                m.record_into(obs::shared(MemorySink::new()));
                scenario(&mut m);
                m.link_report().expect("recording is on")
            })
        });
        assert_eq!(
            report, baseline_report,
            "link report diverged ({mode:?}, replay={replay}, workers={workers})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A K-lane batched run is bit-identical to K independent single-lane
    /// runs, under every (backend, replay, workers) configuration and in
    /// both lane forms (staged lanes, and slab rows with a row compute
    /// phase) — the lane determinism contract of DESIGN.md §10 — and each
    /// run's states and counters equal the reference machine's.
    #[test]
    fn lane_batched_equals_k_single_lane_runs(
        lanes in 1usize..=5,
        sweeps in 1usize..=3,
        seed: u64,
    ) {
        let dim = 3u32;
        let q = Hypercube::new(dim);
        let n = q.num_nodes();
        let init = |k: usize, u: usize| {
            seed.wrapping_mul(k as u64 + 1).wrapping_add((u as u64) << 7)
        };
        fn single(m: &mut impl Cycles<u64>, dim: u32, sweeps: usize) {
            for _ in 0..sweeps {
                for d in 0..dim {
                    m.cycle(|c| c.message(move |u, &s| Some((u ^ (1usize << d), s)), |s, _, v| *s = s.rotate_left(5).wrapping_add(v)).pairwise().keyed(ScheduleKey::Dim(d)));
                }
            }
        }
        fn batched(m: &mut impl Cycles<Vec<u64>>, dim: u32, sweeps: usize, lanes: usize) {
            for _ in 0..sweeps {
                for d in 0..dim {
                    m.cycle(|c| c.lanes(lanes, &0u64, move |u, _| Some(u ^ (1usize << d)), |_, s, window| window.clone_from_slice(s), |s, _, window| {
                            for (x, w) in s.iter_mut().zip(window) {
                                *x = x.rotate_left(5).wrapping_add(*w);
                            }
                        }).pairwise().keyed(ScheduleKey::Dim(d)));
                }
            }
        }
        fn rows(m: &mut impl Cycles<()>, dim: u32, sweeps: usize, lanes: usize, cur: &mut [u64]) {
            let mut temp = vec![0u64; cur.len()];
            for _ in 0..sweeps {
                for d in 0..dim {
                    m.cycle(|c| c.rows(lanes, move |u, _| Some(u ^ (1usize << d)), [(&cur[..], &mut temp[..])]).pairwise().keyed(ScheduleKey::Dim(d)));
                    m.compute_rows(lanes, [&mut cur[..]], [&temp[..]], |_, [x], [w]| {
                        for (x, w) in x.iter_mut().zip(w) {
                            *x = x.rotate_left(5).wrapping_add(*w);
                        }
                    });
                }
            }
        }
        let batched_init = || -> Vec<Vec<u64>> {
            (0..n).map(|u| (0..lanes).map(|k| init(k, u)).collect()).collect()
        };
        let rows_init = || -> Vec<u64> {
            (0..n).flat_map(|u| (0..lanes).map(move |k| init(k, u))).collect()
        };
        // Reference: K single-lane machines, sequential with replay.
        let singles: Vec<Vec<u64>> = (0..lanes)
            .map(|k| {
                with_default_exec(ExecMode::Sequential, || {
                    with_schedule_replay(true, || {
                        let mut m = Machine::new(&q, (0..n).map(|u| init(k, u)).collect());
                        single(&mut m, dim, sweeps);
                        m.into_parts().0
                    })
                })
            })
            .collect();
        for (k, want) in singles.iter().enumerate() {
            let mut m = RefMachine::new(&q, (0..n).map(|u| init(k, u)).collect());
            single(&mut m, dim, sweeps);
            prop_assert_eq!(m.states(), &want[..], "single lane {} against the reference machine", k);
        }
        let mut oracle = RefMachine::new(&q, batched_init());
        batched(&mut oracle, dim, sweeps, lanes);
        let oracle_batched = oracle.into_parts();
        let mut oracle = RefMachine::new(&q, vec![(); n]);
        let mut cur = rows_init();
        rows(&mut oracle, dim, sweeps, lanes, &mut cur);
        let oracle_rows = (cur, oracle.into_parts().1);
        for (mode, replay, workers) in configs() {
            let (batched, batched_metrics) = with_default_exec(mode, || {
                with_schedule_replay(replay, || {
                    let _pin = (workers > 0).then(|| PinnedWorkers::pin(workers));
                    let mut m = Machine::new(&q, batched_init());
                    batched(&mut m, dim, sweeps, lanes);
                    m.into_parts()
                })
            });
            let (rows, rows_metrics) = with_default_exec(mode, || {
                with_schedule_replay(replay, || {
                    let _pin = (workers > 0).then(|| PinnedWorkers::pin(workers));
                    let mut cur = rows_init();
                    let mut m = Machine::new(&q, vec![(); n]);
                    rows(&mut m, dim, sweeps, lanes, &mut cur);
                    (cur, m.into_parts().1)
                })
            });
            prop_assert_eq!(
                (&batched, model_counters(&batched_metrics)),
                (&oracle_batched.0, oracle_batched.1.clone()),
                "lanes against the reference machine ({:?}, replay={}, workers={})",
                mode, replay, workers
            );
            prop_assert_eq!(
                (&rows, model_counters(&rows_metrics)),
                (&oracle_rows.0, oracle_rows.1.clone()),
                "rows against the reference machine ({:?}, replay={}, workers={})",
                mode, replay, workers
            );
            for (k, single) in singles.iter().enumerate() {
                let lane_k: Vec<u64> = batched.iter().map(|s| s[k]).collect();
                prop_assert_eq!(
                    &lane_k, single,
                    "lane {} diverged ({:?}, replay={}, workers={})",
                    k, mode, replay, workers
                );
                let row_k: Vec<u64> = rows.iter().skip(k).step_by(lanes).copied().collect();
                prop_assert_eq!(
                    &row_k, single,
                    "row lane {} diverged ({:?}, replay={}, workers={})",
                    k, mode, replay, workers
                );
            }
        }
    }
}

/// The Perfetto export of a recorded run is structurally stable across
/// backends: same number of phase-duration events and cycle instants.
#[test]
fn perfetto_export_is_well_formed_on_both_backends() {
    let scenario = |m: &mut Machine<'_, Hypercube, u64>| {
        m.begin_phase("sweep 1");
        for dim in 0..3usize {
            m.cycle(|c| {
                c.message(
                    move |u, &s| Some((u ^ (1usize << dim), s)),
                    |s, _, v| *s = s.wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(dim as u32))
            });
        }
        m.begin_phase("sweep 2");
        m.compute(2, |_, s| *s = s.wrapping_mul(3));
    };
    for (mode, replay, workers) in configs() {
        let (events, ..) = record_run(mode, replay, workers, 3, scenario);
        let json = obs::export_perfetto(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}\n") || json.ends_with("]}"));
        let durations = json.matches("\"ph\":\"X\"").count();
        let instants = json.matches("\"ph\":\"i\"").count();
        assert_eq!(
            durations, 2,
            "one duration event per phase ({mode:?}, replay={replay}, workers={workers})"
        );
        assert_eq!(instants, 4, "one instant per cycle event");
    }
}
