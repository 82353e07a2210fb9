//! Fault-injection matrix: the fault layer must behave *identically*
//! across every execution configuration — sequential or threaded backend,
//! schedule replay on or off, any worker count.
//!
//! The adversarial centrepiece pins the tentpole guarantee: a schedule
//! compiled **before** a fault is never replayed **after** it. A crash or
//! link cut bumps the machine's fault epoch, making every older compiled
//! schedule invisible; the next keyed cycle either recompiles (and
//! re-validates against the damage, failing with [`SimError::NodeFailed`]
//! / [`SimError::LinkDown`] if the pattern touches it) or succeeds afresh
//! with a legal rerouted plan. Either way the outcome — error value,
//! delivered counts, end states, fault metrics — is bit-identical on both
//! backends, with and without replay, and equal to the naive reference
//! machine's ([`RefMachine`]).

use dc_simulator::reference::{Cycles, RefMachine};
use dc_simulator::{
    set_worker_threads, with_default_exec, with_schedule_replay, ExecMode, FaultKind, FaultPlan,
    Machine, ScheduleKey, SimError,
};
use dc_topology::{Hypercube, Topology};
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

/// Observable outcome of one scenario run, compared across the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    cycles: Vec<Result<usize, SimError>>,
    states: Vec<u64>,
    comm_steps: u64,
    messages: u64,
    dropped: u64,
}

fn run_scenario(
    mode: ExecMode,
    replay: bool,
    workers: usize,
    scenario: impl Fn(&mut Machine<'_, Hypercube, u64>) -> Vec<Result<usize, SimError>>,
) -> Outcome {
    with_default_exec(mode, || {
        with_schedule_replay(replay, || {
            let _pin = (workers > 0).then(|| PinnedWorkers::pin(workers));
            let q = Hypercube::new(3);
            let mut m = Machine::new(&q, (0..q.num_nodes() as u64).collect());
            let cycles = scenario(&mut m);
            let (states, metrics) = m.into_parts();
            Outcome {
                cycles,
                states,
                comm_steps: metrics.comm_steps,
                messages: metrics.messages,
                dropped: metrics.dropped_messages,
            }
        })
    })
}

/// One run of the scenario on the reference machine.
fn run_oracle(
    scenario: impl Fn(&mut RefMachine<'_, Hypercube, u64>) -> Vec<Result<usize, SimError>>,
) -> Outcome {
    let q = Hypercube::new(3);
    let mut m = RefMachine::new(&q, (0..q.num_nodes() as u64).collect());
    let cycles = scenario(&mut m);
    let (states, metrics) = m.into_parts();
    Outcome {
        cycles,
        states,
        comm_steps: metrics.comm_steps,
        messages: metrics.messages,
        dropped: metrics.dropped_messages,
    }
}

/// Asserts the scenario's outcome is identical across the whole matrix
/// and to the reference machine's (`oracle` is the same scenario on a
/// [`RefMachine`]), and returns the (sequential, replay-off) baseline.
fn assert_matrix_identical(
    scenario: impl Fn(&mut Machine<'_, Hypercube, u64>) -> Vec<Result<usize, SimError>>,
    oracle: impl Fn(&mut RefMachine<'_, Hypercube, u64>) -> Vec<Result<usize, SimError>>,
) -> Outcome {
    let baseline = run_scenario(ExecMode::Sequential, false, 0, &scenario);
    assert_eq!(
        run_oracle(oracle),
        baseline,
        "the reference machine diverged"
    );
    for (mode, replay, workers) in configs() {
        let got = run_scenario(mode, replay, workers, &scenario);
        assert_eq!(
            got, baseline,
            "config ({mode:?}, replay={replay}, workers={workers}) diverged"
        );
    }
    baseline
}

/// [`assert_matrix_identical`] on one scenario body over `m`, run on the
/// engine and on the reference machine.
macro_rules! matrix {
    (|$m:ident| $body:expr) => {
        assert_matrix_identical(|$m| $body, |$m| $body)
    };
}

fn dim_swap(m: &mut impl Cycles<u64>, dim: usize) -> Result<usize, SimError> {
    m.try_cycle(|c| {
        c.message(move |u, &s| Some((u ^ (1 << dim), s)), |s, _, v| *s = v)
            .pairwise()
            .keyed(ScheduleKey::Dim(dim as u32))
    })
}

/// THE adversarial test: a schedule compiled pre-fault is never replayed
/// post-fault. Warm the dim-0 and dim-2 schedules, crash node 3 and cut
/// link {0,4}, then re-issue the same plans: the epoch bump forces a
/// recompile whose validation reports the damage — `NodeFailed` for the
/// crash (lowest offending sender 2, whose receiver is the corpse),
/// `LinkDown {0,4}` for the cut — identically on every backend, with and
/// without replay. A replayed stale schedule would instead deliver
/// through the corpse and succeed.
#[test]
fn pre_fault_schedule_never_replayed_after_the_fault() {
    let outcome = matrix!(|m| {
        let mut log = Vec::new();
        // Warm both patterns: compile cycle + replay cycles.
        for _ in 0..3 {
            log.push(dim_swap(m, 0));
            log.push(dim_swap(m, 2));
        }
        m.inject_fault(FaultKind::NodeCrash { node: 3 });
        log.push(dim_swap(m, 0)); // sender 2 → corpse 3
        m.inject_fault(FaultKind::LinkDown { a: 0, b: 4 });
        log.push(dim_swap(m, 2)); // sender 0 → 4 over the cut link
        log
    });
    for c in &outcome.cycles[..6] {
        assert!(c.is_ok(), "pre-fault cycles are legal: {c:?}");
    }
    assert_eq!(outcome.cycles[6], Err(SimError::NodeFailed { node: 3 }));
    assert_eq!(
        outcome.cycles[7],
        Err(SimError::LinkDown { src: 0, dst: 4 })
    );
    // Failed cycles are not applied and not counted.
    assert_eq!(outcome.comm_steps, 6);
    assert_eq!(outcome.messages, 48);
}

/// The recompile arm: after the epoch bump, a *legal* rerouted plan under
/// the same key succeeds (fresh compile against the new fault state) —
/// the stale entry is evicted, not replayed, and the healthy survivors
/// still swap.
#[test]
fn epoch_bump_recompiles_a_rerouted_plan_under_the_same_key() {
    let outcome = matrix!(|m| {
        let mut log = Vec::new();
        for _ in 0..2 {
            log.push(dim_swap(m, 0));
        }
        m.inject_fault(FaultKind::NodeCrash { node: 3 });
        // Same key, rerouted plan: the corpse and its partner sit out.
        log.push(m.try_cycle(|c| {
            c.message(
                |u, &s| (u != 2 && u != 3).then_some((u ^ 1, s)),
                |s, _, v| *s = v,
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(0))
        }));
        // And the rerouted pattern replays fine afterwards.
        log.push(m.try_cycle(|c| {
            c.message(
                |u, &s| (u != 2 && u != 3).then_some((u ^ 1, s)),
                |s, _, v| *s = v,
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(0))
        }));
        log
    });
    assert_eq!(outcome.cycles[2], Ok(6), "six survivors still swap");
    assert_eq!(outcome.cycles[3], Ok(6));
    // Two full swaps cancel; then two reduced swaps cancel — but the
    // corpse pair swapped only in the full cycles, so states are the
    // identity permutation again.
    assert_eq!(outcome.states, (0..8).collect::<Vec<u64>>());
}

/// Scripted faults land on their cycle boundary in every configuration:
/// cycles before `at_cycle` replay cleanly, the boundary cycle recompiles
/// and reports the crash.
#[test]
fn scripted_crash_fires_at_its_boundary_in_every_config() {
    let outcome = matrix!(|m| {
        m.set_fault_plan(FaultPlan::new().node_crash(2, 5));
        (0..4).map(|_| dim_swap(m, 1)).collect()
    });
    assert_eq!(outcome.cycles[0], Ok(8));
    assert_eq!(outcome.cycles[1], Ok(8));
    // Lowest offending sender is 5 itself (senders 0..4 are clean pairs
    // only if their partners live: 5's partner is 7... sender 5 fails as src).
    assert_eq!(outcome.cycles[2], Err(SimError::NodeFailed { node: 5 }));
    assert_eq!(outcome.cycles[3], Err(SimError::NodeFailed { node: 5 }));
    assert_eq!(outcome.comm_steps, 2);
}

/// Message drops are transient: they spoil exactly their cycle's
/// deliveries (counted, excluded from `messages`), do not bump the epoch,
/// and the next cycle replays the compiled schedule unharmed — all
/// bit-identically across the matrix.
#[test]
fn scripted_drop_spoils_one_cycle_and_replay_continues() {
    let outcome = matrix!(|m| {
        m.set_fault_plan(FaultPlan::new().message_drop(1, 6));
        (0..3).map(|_| dim_swap(m, 0)).collect()
    });
    assert_eq!(outcome.cycles[0], Ok(8));
    assert_eq!(outcome.cycles[1], Ok(7), "node 6's delivery vanished");
    assert_eq!(outcome.cycles[2], Ok(8), "drop cleared, replay resumed");
    assert_eq!(outcome.dropped, 1);
    assert_eq!(outcome.messages, 23);
    // Swap 1 leaves node u holding u^1; swap 2 undoes it everywhere
    // except node 6, whose incoming copy of 6 was dropped (it keeps 7);
    // swap 3 then gives node 6 node 7's value (7) and node 7 node 6's
    // stale 7 — the lost word is visibly duplicated, never resurrected.
    assert_eq!(outcome.states, vec![1, 0, 3, 2, 5, 4, 7, 7]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any scripted fault plan (random crashes, cuts, and drops on random
    /// cycles) produces bit-identical cycle outcomes, end states, and
    /// fault metrics across every backend × replay × worker configuration.
    #[test]
    fn random_fault_plans_are_config_invariant(
        seed: u64,
        crashes in proptest::collection::vec((0u64..6, 0usize..8), 0..3),
        cuts in proptest::collection::vec((0u64..6, 0usize..8, 0u32..3), 0..3),
        drops in proptest::collection::vec((0u64..6, 0usize..8), 0..4),
        dims in proptest::collection::vec(0usize..3, 1..8),
    ) {
        let mut plan = FaultPlan::new();
        for &(cycle, node) in &crashes {
            plan = plan.node_crash(cycle, node);
        }
        for &(cycle, node, dim) in &cuts {
            plan = plan.link_down(cycle, node, node ^ (1 << dim));
        }
        for &(cycle, node) in &drops {
            plan = plan.message_drop(cycle, node);
        }
        let _ = seed;
        fn program(m: &mut impl Cycles<u64>, plan: &FaultPlan, dims: &[usize]) -> Vec<Result<usize, SimError>> {
            m.set_fault_plan(plan.clone());
            dims.iter().map(|&d| dim_swap(m, d)).collect()
        }
        let scenario = |m: &mut Machine<'_, Hypercube, u64>| program(m, &plan, &dims);
        let baseline = run_scenario(ExecMode::Sequential, false, 0, scenario);
        prop_assert_eq!(
            &run_oracle(|m| program(m, &plan, &dims)), &baseline,
            "the reference machine diverged"
        );
        for (mode, replay, workers) in configs() {
            let got = run_scenario(mode, replay, workers, scenario);
            prop_assert_eq!(
                &got, &baseline,
                "config ({:?}, replay={}, workers={}) diverged", mode, replay, workers
            );
        }
    }
}
