//! Schedule capture-and-replay determinism: a machine replaying compiled
//! schedules must be *observationally identical* — same end states, same
//! [`Metrics`] (modulo the cache's own hit/miss counters), same message
//! trace, same [`SimError`] on bad plans — to one that validates every
//! cycle, under every backend and worker count, including worker-count
//! changes mid-run. The property tests drive random interleavings of
//! keyed pairwise, keyed exchange, and compute cycles; the `D_8` tests
//! (`#[ignore]`d — run with `cargo test --release -- --ignored`) pin the
//! same equivalence for the paper algorithms at headline scale.
//!
//! The adversarial tests pin the anti-laundering contract: a keyed plan
//! that deviates from its compiled schedule is rejected with
//! [`SimError::ScheduleDeviation`], never silently replayed, and an
//! illegal plan probed through a keyed `try_*` entry point reports the
//! exact error full validation would.

use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{batched_d_prefix_reusing, d_prefix, Step5Mode};
use dc_core::prefix::{sequential_prefix, PrefixKind};
use dc_core::run::Recording;
use dc_core::sort::dualcube::{batched_d_sort_reusing, d_sort};
use dc_core::sort::SortOrder;
use dc_simulator::{
    set_worker_threads, with_default_exec, with_schedule_replay, ExecMode, Machine, Metrics,
    ScheduleBank, ScheduleKey, SimError,
};
use dc_topology::{DualCube, Hypercube, RecDualCube, Topology};
use proptest::collection::vec;
use proptest::prelude::*;

mod support;
use support::sort_network_model;

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

/// Replay-on and replay-off runs legitimately differ in the cache's own
/// hit/miss counters (which participate in `Metrics` equality); scrub them
/// so the comparison covers everything else.
fn scrubbed(mut m: Metrics) -> Metrics {
    m.schedule_hits = 0;
    m.schedule_misses = 0;
    m
}

/// Runs a random program of keyed pairwise / keyed exchange / compute
/// cycles (op codes from `ops`) on `Q_m` and returns every observable:
/// end states, scrubbed metrics, full trace. `switch` changes the worker
/// count mid-program, proving replay determinism is insensitive to
/// resizes between cycles.
type ProgramRun = (Vec<u64>, Metrics, Vec<(Option<u32>, Vec<(usize, usize)>)>);

fn keyed_program(
    q: &Hypercube,
    ops: &[u8],
    exec: ExecMode,
    replay: bool,
    switch: Option<(usize, usize)>,
) -> ProgramRun {
    with_schedule_replay(replay, || {
        let mut m = Machine::with_exec(q, (0..q.num_nodes() as u64).collect::<Vec<_>>(), exec);
        m.enable_trace();
        for (cycle, &op) in ops.iter().enumerate() {
            if let Some((at, workers)) = switch {
                if cycle == at {
                    set_worker_threads(workers);
                }
            }
            let dim = (op as u32 / 3) % q.dim();
            match op % 3 {
                0 => {
                    m.cycle(|c| {
                        c.message(
                            move |u, &s| Some((u ^ (1usize << dim), s)),
                            |s, _, v: u64| *s = s.wrapping_mul(0x9E37_79B9).wrapping_add(v),
                        )
                        .pairwise()
                        .keyed(ScheduleKey::Dim(dim))
                    });
                }
                1 => {
                    // Half-speaking exchange: the dim-low half sends up.
                    m.cycle(|c| {
                        c.message(
                            move |u, &s| {
                                (u & (1usize << dim) == 0).then(|| (u | (1usize << dim), s))
                            },
                            |s, _, v| *s ^= v,
                        )
                        .keyed(ScheduleKey::Window { j: dim, hop: 0 })
                    });
                }
                _ => {
                    m.compute(1, |u, s| *s = s.rotate_left((u % 13) as u32));
                }
            }
        }
        let trace = m.phased_trace().to_vec();
        let (states, metrics) = m.into_parts();
        (states, scrubbed(metrics), trace)
    })
}

proptest! {
    /// Random keyed interleavings: replayed cycles are bit-identical to
    /// validate-every-cycle, on both backends, with a worker-count change
    /// in the middle of the threaded leg.
    #[test]
    fn keyed_interleavings_replay_bit_identically(
        ops in vec(any::<u8>(), 1..48),
        m in 2u32..=5,
        switch_at in 0usize..48,
        switch_to in 1usize..=4,
    ) {
        let q = Hypercube::new(m);
        let reference = keyed_program(&q, &ops, ExecMode::Sequential, false, None);

        let seq_replay = keyed_program(&q, &ops, ExecMode::Sequential, true, None);
        prop_assert_eq!(&reference, &seq_replay, "sequential replay diverged");

        let workers = PinnedWorkers::pin(4);
        let par_off = keyed_program(&q, &ops, FORCE_PARALLEL, false, None);
        prop_assert_eq!(&reference, &par_off, "parallel validation diverged");
        let par_replay = keyed_program(
            &q,
            &ops,
            FORCE_PARALLEL,
            true,
            Some((switch_at, switch_to)),
        );
        drop(workers);
        prop_assert_eq!(&reference, &par_replay, "parallel replay diverged");
    }

    /// Illegal plans probed through keyed `try_*` entry points (fresh key
    /// = compile path) report the exact error sequential full validation
    /// does — at any backend and worker count, with the cache on or off —
    /// and leave the machine untouched.
    #[test]
    fn keyed_error_probes_match_full_validation(
        seed: u64,
        m in 2u32..=4,
    ) {
        let q = Hypercube::new(m);
        let n = q.num_nodes();
        let mut x = seed | 1;
        let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        // Arbitrary destinations: self-messages, non-edges, and conflicts
        // all arise at random positions; the last node messaging itself
        // guarantees at least one violation without fixing which one is
        // reported first.
        let dst: Vec<usize> = (0..n)
            .map(|u| if u == n - 1 { u } else { next() as usize % n })
            .collect();
        let probe = |exec: ExecMode, replay: bool, keyed: bool| {
            with_schedule_replay(replay, || {
                let init: Vec<u64> = (0..n as u64).collect();
                let mut mach = Machine::with_exec(&q, init.clone(), exec);
                let r = if keyed {
                    mach.try_cycle(|c| c.message(|u, _| Some((dst[u], ())), |_, _, ()| {}).keyed(ScheduleKey::Custom(7)))
                } else {
                    mach.try_cycle(|c| c.message(|u, _| Some((dst[u], ())), |_, _, ()| {}))
                };
                let err = r.expect_err("plan contains a violation");
                assert_eq!(mach.states(), &init[..], "failed cycle mutated states");
                assert_eq!(mach.metrics().comm_steps, 0, "failed cycle was charged");
                err
            })
        };
        let reference = probe(ExecMode::Sequential, false, false);
        prop_assert_eq!(reference, probe(ExecMode::Sequential, true, true));
        prop_assert_eq!(reference, probe(ExecMode::Sequential, false, true));
        let workers = PinnedWorkers::pin(4);
        prop_assert_eq!(reference, probe(FORCE_PARALLEL, false, false));
        prop_assert_eq!(reference, probe(FORCE_PARALLEL, true, true));
        drop(workers);
    }
}

/// A keyed plan that deviates from its compiled schedule is rejected with
/// `ScheduleDeviation` — the cache can never be used to launder an
/// unvalidated pattern — while the identical call on a replay-off machine
/// (where the plan is re-validated in full) succeeds, proving the
/// deviating plan was legal and the rejection really is the cache's
/// capture contract, not ordinary validation.
#[test]
fn deviating_keyed_plan_is_rejected_not_laundered() {
    let q = Hypercube::new(4);
    let key = ScheduleKey::Dim(0);
    let legal_elsewhere = |u: usize, _s: &u64| Some((u ^ 2, u as u64));

    with_schedule_replay(true, || {
        let mut m = Machine::new(&q, vec![0u64; q.num_nodes()]);
        // Compile the dim-0 pattern under the key.
        m.cycle(|c| {
            c.message(|u, _| Some((u ^ 1, u as u64)), |s, _, v| *s = v)
                .keyed(key)
        });
        let before = m.states().to_vec();
        // Same key, different (but legal) pattern: must error, not replay.
        let err = m
            .try_cycle(|c| c.message(legal_elsewhere, |s, _, v| *s = v).keyed(key))
            .expect_err("deviating plan slipped through replay");
        assert_eq!(err, SimError::ScheduleDeviation { key, node: 0 });
        assert_eq!(m.states(), &before[..], "rejected cycle mutated states");
    });

    with_schedule_replay(false, || {
        let mut m = Machine::new(&q, vec![0u64; q.num_nodes()]);
        m.cycle(|c| {
            c.message(|u, _| Some((u ^ 1, u as u64)), |s, _, v| *s = v)
                .keyed(key)
        });
        let delivered = m
            .try_cycle(|c| c.message(legal_elsewhere, |s, _, v| *s = v).keyed(key))
            .expect("the deviating plan is legal under full validation");
        assert_eq!(delivered, q.num_nodes());
    });
}

/// The paper algorithms end-to-end: replay on vs off must agree on every
/// observable, on both backends. (Small machines here; `D_8` below.)
#[test]
fn paper_algorithms_agree_replay_on_vs_off() {
    let d = DualCube::new(3);
    let input: Vec<Sum> = (0..d.num_nodes() as i64).map(|x| Sum(3 * x - 7)).collect();
    let rec = RecDualCube::new(3);
    let keys: Vec<u64> = (0..rec.num_nodes() as u64)
        .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D) % 97)
        .collect();
    for exec in [ExecMode::Sequential, FORCE_PARALLEL] {
        let workers = PinnedWorkers::pin(if exec == ExecMode::Sequential { 0 } else { 4 });
        let (p_on, s_on, p_off, s_off) = with_default_exec(exec, || {
            let run = |replay| {
                with_schedule_replay(replay, || {
                    let p = d_prefix(
                        &d,
                        &input,
                        PrefixKind::Inclusive,
                        Step5Mode::PaperFaithful,
                        Recording::Trace,
                    );
                    let s = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Trace);
                    (
                        (p.prefixes, scrubbed(p.metrics), p.trace),
                        (s.output, scrubbed(s.metrics), s.trace),
                    )
                })
            };
            let (p_on, s_on) = run(true);
            let (p_off, s_off) = run(false);
            (p_on, s_on, p_off, s_off)
        });
        drop(workers);
        assert_eq!(p_on, p_off, "d_prefix diverged under {exec:?}");
        assert_eq!(s_on, s_off, "d_sort diverged under {exec:?}");
    }
}

/// The two paths `dc-serve` runs, `batched_d_prefix_reusing` and
/// `batched_d_sort_reusing`, at K ∈ {1, 3, 16}: sequential and threaded
/// (4 pinned workers), replay on and off, each on a cold bank and then
/// the same bank warm. Every lane must equal a single-lane run on its
/// input and an oracle that does not run on the machine
/// (`sequential_prefix`, and the plain-array model of Algorithm 3's
/// network); the scrubbed metrics must agree across all configurations
/// and equal a single run's, with `message_words` scaled by K.
#[test]
fn batched_paper_algorithms_agree_replay_on_vs_off() {
    batched_agree_replay_on_vs_off(3, [ExecMode::Sequential, FORCE_PARALLEL]);
}

/// [`batched_paper_algorithms_agree_replay_on_vs_off`] on `D_n` under the
/// two backends in `execs` (the threaded one with 4 pinned workers).
fn batched_agree_replay_on_vs_off(n: u32, execs: [ExecMode; 2]) {
    let d = DualCube::new(n);
    let rec = RecDualCube::new(n);
    let n = d.num_nodes() as i64;
    // A distinct input per lane, so a lane mix-up cannot cancel out.
    let raw: Vec<Vec<i64>> = (0..16)
        .map(|k| (0..n).map(|x| (x * 37 + k * 101) % 113 - 50).collect())
        .collect();
    let sums = |lane: &[i64]| lane.iter().copied().map(Sum).collect::<Vec<_>>();
    let single = with_default_exec(ExecMode::Sequential, || {
        raw.iter()
            .map(|lane| {
                let p = d_prefix(
                    &d,
                    &sums(lane),
                    PrefixKind::Inclusive,
                    Step5Mode::PaperFaithful,
                    Recording::Off,
                );
                let s = d_sort(&rec, lane, SortOrder::Ascending, Recording::Off);
                ((p.prefixes, p.metrics), (s.output, s.metrics))
            })
            .collect::<Vec<_>>()
    });
    let oracles: Vec<(Vec<Sum>, Vec<i64>)> = raw
        .iter()
        .map(|lane| {
            (
                sequential_prefix(&sums(lane), PrefixKind::Inclusive),
                sort_network_model(lane, rec.n(), SortOrder::Ascending.tag()),
            )
        })
        .collect();
    for lanes in [1usize, 3, 16] {
        let inputs: Vec<Vec<Sum>> = raw[..lanes].iter().map(|l| sums(l)).collect();
        let keys = &raw[..lanes];
        let mut seen: Option<(Metrics, Metrics)> = None;
        for exec in execs {
            let workers = PinnedWorkers::pin(if exec == ExecMode::Sequential { 0 } else { 4 });
            for replay in [true, false] {
                let runs = with_default_exec(exec, || {
                    with_schedule_replay(replay, || {
                        let (mut prefix_bank, mut sort_bank) =
                            (ScheduleBank::new(), ScheduleBank::new());
                        [(); 2].map(|()| {
                            let p = batched_d_prefix_reusing(
                                &d,
                                &inputs,
                                PrefixKind::Inclusive,
                                Step5Mode::PaperFaithful,
                                exec,
                                &mut prefix_bank,
                            );
                            let s = batched_d_sort_reusing(
                                &rec,
                                keys,
                                SortOrder::Ascending,
                                exec,
                                &mut sort_bank,
                            );
                            (p, s)
                        })
                    })
                });
                for (p, s) in runs {
                    for (k, ((prefixes, _), (sorted, _))) in single[..lanes].iter().enumerate() {
                        assert_eq!(
                            &p.prefixes[k], prefixes,
                            "prefix lane {k} of {lanes} ({exec:?}, replay={replay})"
                        );
                        assert_eq!(
                            &s.outputs[k], sorted,
                            "sort lane {k} of {lanes} ({exec:?}, replay={replay})"
                        );
                    }
                    for (k, (prefixes, sorted)) in oracles[..lanes].iter().enumerate() {
                        assert_eq!(
                            &p.prefixes[k], prefixes,
                            "prefix lane {k} of {lanes} vs oracle ({exec:?}, replay={replay})"
                        );
                        assert_eq!(
                            &s.outputs[k], sorted,
                            "sort lane {k} of {lanes} vs network model ({exec:?}, replay={replay})"
                        );
                    }
                    let metrics = (scrubbed(p.metrics), scrubbed(s.metrics));
                    match &seen {
                        None => seen = Some(metrics),
                        Some(first) => assert_eq!(
                            first, &metrics,
                            "K={lanes} metrics diverged ({exec:?}, replay={replay})"
                        ),
                    }
                }
            }
            drop(workers);
        }
        let (prefix, sort) = seen.expect("every configuration ran");
        let ((_, prefix_one), (_, sort_one)) = &single[0];
        for (batched, one) in [(prefix, prefix_one), (sort, sort_one)] {
            assert_eq!(batched.comm_steps, one.comm_steps, "K={lanes}");
            assert_eq!(batched.comp_steps, one.comp_steps, "K={lanes}");
            assert_eq!(batched.messages, one.messages, "K={lanes}");
            assert_eq!(
                batched.message_words,
                lanes as u64 * one.message_words,
                "K={lanes}"
            );
        }
    }
}

#[test]
#[ignore = "large; run with --release -- --ignored"]
fn d8_prefix_replay_agrees_with_validation() {
    let d = DualCube::new(8);
    assert_eq!(d.num_nodes(), 32_768);
    let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
    let run = |exec, replay| {
        with_default_exec(exec, || {
            with_schedule_replay(replay, || {
                let r = d_prefix(
                    &d,
                    &input,
                    PrefixKind::Inclusive,
                    Step5Mode::PaperFaithful,
                    Recording::Off,
                );
                (r.prefixes, scrubbed(r.metrics))
            })
        })
    };
    let reference = run(ExecMode::Sequential, false);
    assert_eq!(reference, run(ExecMode::Sequential, true));
    let workers = PinnedWorkers::pin(4);
    assert_eq!(reference, run(ExecMode::parallel(), false));
    assert_eq!(reference, run(ExecMode::parallel(), true));
    drop(workers);
}

#[test]
#[ignore = "large; run with --release -- --ignored"]
fn d8_sort_replay_agrees_with_validation() {
    let rec = RecDualCube::new(8);
    assert_eq!(rec.num_nodes(), 32_768);
    let keys: Vec<u64> = (0..rec.num_nodes() as u64)
        .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(11))
        .collect();
    let run = |exec, replay| {
        with_default_exec(exec, || {
            with_schedule_replay(replay, || {
                let r = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
                (r.output, scrubbed(r.metrics))
            })
        })
    };
    let reference = run(ExecMode::Sequential, false);
    assert!(SortOrder::Ascending.is_sorted(&reference.0));
    assert_eq!(reference, run(ExecMode::Sequential, true));
    let workers = PinnedWorkers::pin(4);
    assert_eq!(reference, run(ExecMode::parallel(), false));
    assert_eq!(reference, run(ExecMode::parallel(), true));
    drop(workers);
}

#[test]
#[ignore = "large; run with --release -- --ignored"]
fn d8_batched_replay_agrees_with_validation() {
    batched_agree_replay_on_vs_off(8, [ExecMode::Sequential, ExecMode::parallel()]);
}
