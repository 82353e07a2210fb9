//! The blocked sweep and the row order.
//!
//! A [`Machine::try_sweep`] whose rounds all replay by flip equality
//! walks the rows one block at a time through every round. It must leave
//! exactly what the same rounds leave as separate
//! [`Comm::fold_pairs`](dc_simulator::Comm::fold_pairs) cycles — the same
//! slabs, `Metrics` field for field, space-time trace, link report and
//! recorded events modulo timing — and what the naive reference machine
//! ([`RefMachine`], whose sweep is those cycles) leaves. The matrix runs
//! both backends at 1, 4 and 16 shards, 1, 3 and 16 lanes, in node order
//! and in the dual-cube's data order, fault-free, with message drops
//! armed (the sweep falls back to cycles, whose folds see cut runs), and
//! with a crash due inside a sweep (it falls back and reports the same
//! `SimError` at the same node). Recorded runs walk round by round, so
//! each configuration runs both unrecorded and recorded.
//!
//! The row-order tests pin that a program under the data order is its
//! node-order run with rows permuted by `DualCube::linear_index`, on both
//! machines; that a pair fold sees whole half-blocks as runs, cut only
//! at dropped receivers; and that the blocked walk runs every round on
//! one cluster before the next.

use dc_simulator::obs::{self, MemorySink};
use dc_simulator::reference::{model_counters, Cycles, RefMachine};
use dc_simulator::{
    Event, ExecMode, FaultPlan, Flip, LinkReport, Machine, Metrics, RowOrder, ScheduleKey,
    SimError, TraceEntry,
};
use dc_topology::{DualCube, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Forces the threaded code path regardless of machine size.
const FORCE_PARALLEL: ExecMode = ExecMode::Parallel { threshold: 1 };

/// The data order of `D_n`: rows are `DualCube::linear_index`.
fn data_order(d: &DualCube) -> RowOrder {
    RowOrder::swap_class_fields(d.cluster_dim())
}

/// The pair fold on runs of `t`, `s` and id rows: order-sensitive in
/// both written slabs, each end mixes in its own id and reads of the
/// other only its `t`, and only when it arrived; a missing message
/// still changes the row, so a flag in the wrong place shows.
fn mix(
    [lo_t, lo_s, lo_id]: [&mut [u64]; 3],
    [hi_t, hi_s, hi_id]: [&mut [u64]; 3],
    [lo_got, hi_got]: [bool; 2],
) {
    let ends = lo_t.iter_mut().zip(lo_s).zip(hi_t.iter_mut().zip(hi_s));
    for (((lt, ls), (ht, hs)), (lo, hi)) in ends.zip(lo_id.iter().zip(&*hi_id)) {
        let (a, b) = (*lt, *ht);
        if lo_got {
            *ls = ls.rotate_left(5) ^ b;
            *lt = a.wrapping_mul(0x9E37_79B9).wrapping_add(b ^ lo);
        } else {
            *lt = a.wrapping_add(7);
        }
        if hi_got {
            *hs = hs.rotate_left(5) ^ a;
            *ht = b.wrapping_mul(0x9E37_79B9).wrapping_add(a ^ hi);
        } else {
            *ht = b.wrapping_add(7);
        }
    }
}

/// The `t`, `s` and id slabs of `D_n` at `k` lanes, node `u`'s values
/// in row `order.row(u)`: the same node-indexed data in every order.
fn slabs(d: &DualCube, k: usize, order: RowOrder) -> [Vec<u64>; 3] {
    let n = d.num_nodes();
    let mut slabs = [vec![0u64; n * k], vec![0u64; n * k], vec![0u64; n * k]];
    for u in 0..n {
        let row = order.row(u) * k;
        for j in 0..k {
            let x = (u * k + j) as u64;
            slabs[0][row + j] = x.wrapping_mul(0x2545_F491);
            slabs[1][row + j] = x ^ 0xABCD;
            slabs[2][row + j] = u as u64;
        }
    }
    slabs
}

/// Node-indexed values of a slab laid out in `order`.
fn by_node(slab: &[u64], k: usize, order: RowOrder) -> Vec<u64> {
    let n = slab.len() / k;
    (0..n)
        .flat_map(|u| slab[order.row(u) * k..][..k].iter().copied())
        .collect()
}

/// The cluster-dimension rounds of `D_n`, keyed as Algorithm 2 keys them.
fn cluster_rounds(d: &DualCube) -> Vec<(ScheduleKey, Flip)> {
    let w = d.cluster_dim();
    (0..w)
        .map(|i| {
            let flip = Flip::by_class(d.class_bit(), [i, w + i]);
            (ScheduleKey::Dim(i), flip)
        })
        .collect()
}

/// Which faults a case arms.
#[derive(Clone, Copy, Debug)]
enum Faults {
    None,
    /// Drops inside the first and the last sweep: those sweeps fall back
    /// to cycles, whose folds see runs cut at the dropped receivers.
    Drops,
    /// A crash due at the third round of the second sweep: that sweep
    /// falls back, and its third round fails.
    Crash,
}

/// One program: `reps` sweeps of every cluster dimension of `D_n` at `k`
/// lanes, each followed by a cross-edge fold round.
#[derive(Clone, Copy, Debug)]
struct Case {
    n: u32,
    k: usize,
    data: bool,
    faults: Faults,
    reps: usize,
}

impl Case {
    fn order(&self, d: &DualCube) -> RowOrder {
        if self.data {
            data_order(d)
        } else {
            RowOrder::NODE
        }
    }

    fn plan(&self, d: &DualCube) -> FaultPlan {
        let n = d.num_nodes();
        let per_rep = d.cluster_dim() as u64 + 1;
        match self.faults {
            Faults::None => FaultPlan::new(),
            Faults::Drops => FaultPlan::new()
                .message_drop(1, 3)
                .message_drop(1, n / 2 + 5)
                .message_drop(per_rep * (self.reps as u64 - 1), n - 1),
            Faults::Crash => FaultPlan::new().node_crash(per_rep + 2, n / 2 + 9),
        }
    }
}

/// What a program leaves: its first error (if any) and its slabs, read
/// by node.
type Run = (Result<(), SimError>, [Vec<u64>; 3]);

/// Runs `case` on `m`, each sweep as one [`Cycles::try_sweep`] call
/// (`swept`) or as its rounds' separate pair-fold cycles.
fn program(m: &mut impl Cycles<()>, d: &DualCube, case: Case, swept: bool) -> Run {
    let (k, order) = (case.k, case.order(d));
    m.set_row_order(order);
    m.set_fault_plan(case.plan(d));
    let mut slabs = slabs(d, k, order);
    let result = (0..case.reps).try_for_each(|rep| {
        m.begin_phase(format!("sweep {rep}"));
        sweep_and_cross(m, d, k, swept, &mut slabs)
    });
    (result, slabs.map(|slab| by_node(&slab, k, order)))
}

/// One sweep of every cluster dimension, then a cross-edge round in
/// which every node folds its cross neighbour's `s` row into its `t`.
fn sweep_and_cross(
    m: &mut impl Cycles<()>,
    d: &DualCube,
    k: usize,
    swept: bool,
    [t, s, ids]: &mut [Vec<u64>; 3],
) -> Result<(), SimError> {
    let rounds = cluster_rounds(d);
    if swept {
        m.try_sweep(k, &rounds, [&mut t[..], &mut s[..], &mut ids[..]], mix)?;
    } else {
        for &(key, flip) in &rounds {
            m.try_cycle(|c| {
                c.fold_pairs(k, flip, [&mut t[..], &mut s[..], &mut ids[..]], mix)
                    .keyed(key)
            })?;
        }
    }
    m.try_cycle(|c| {
        c.fold_rows(
            k,
            |u, _| Some(d.cross_neighbor(u)),
            &s[..],
            [&mut t[..]],
            [],
            |u, [t], [], msg| {
                for (t, x) in t.iter_mut().zip(msg.into_iter().flatten()) {
                    *t = t.rotate_left(3) ^ x.wrapping_add(u as u64);
                }
            },
        )
        .pairwise()
        .keyed(ScheduleKey::Cross)
    })?;
    Ok(())
}

/// One engine run: the program's result and slabs, metrics, trace, and
/// (recorded) normalized events and link report.
type Engine = (
    Run,
    Metrics,
    Vec<TraceEntry>,
    Vec<Event>,
    Option<LinkReport>,
);

fn engine(case: Case, config: Config, swept: bool, recorded: bool) -> Engine {
    let Config {
        exec,
        replay,
        workers,
        shards,
    } = config;
    let d = DualCube::new(case.n);
    let mut m = Machine::with_exec(&d, vec![(); d.num_nodes()], exec);
    m.set_workers(workers);
    m.set_schedule_replay(replay);
    m.set_shards(shards);
    m.enable_trace();
    let sink = obs::shared(MemorySink::new());
    if recorded {
        m.record_into(sink.clone());
    }
    let run = program(&mut m, &d, case, swept);
    let trace = m.phased_trace().to_vec();
    let report = m.link_report();
    let metrics = m.into_parts().1;
    let events = sink.lock().unwrap().events();
    let events = events.iter().map(Event::normalized).collect();
    (run, metrics, trace, events, report)
}

/// The reference machine's run: result, slabs, counters, trace.
fn oracle(case: Case) -> (Run, Metrics, Vec<TraceEntry>) {
    let d = DualCube::new(case.n);
    let mut m = RefMachine::new(&d, vec![(); d.num_nodes()]);
    let run = program(&mut m, &d, case, true);
    let trace = m.phased_trace().to_vec();
    (run, m.into_parts().1, trace)
}

/// One engine configuration.
#[derive(Clone, Copy, Debug)]
struct Config {
    exec: ExecMode,
    replay: bool,
    workers: usize,
    shards: usize,
}

/// Both backends at 1, 4 and 16 shards, and replay off.
fn configs() -> Vec<Config> {
    let c = |exec, replay, workers, shards| Config {
        exec,
        replay,
        workers,
        shards,
    };
    vec![
        c(ExecMode::Sequential, true, 0, 1),
        c(ExecMode::Sequential, true, 0, 4),
        c(ExecMode::Sequential, true, 0, 16),
        c(FORCE_PARALLEL, true, 2, 1),
        c(FORCE_PARALLEL, true, 2, 4),
        c(FORCE_PARALLEL, true, 4, 16),
        c(ExecMode::Sequential, false, 0, 1),
    ]
}

fn check(case: Case, configs: &[Config]) {
    let (want, want_counters, want_trace) = oracle(case);
    match case.faults {
        Faults::Crash => assert!(
            matches!(want.0, Err(SimError::NodeFailed { .. })),
            "{case:?}: the crash fails a round: {:?}",
            want.0
        ),
        _ => assert_eq!(want.0, Ok(()), "{case:?}"),
    }
    for &config in configs {
        for recorded in [false, true] {
            let name = format!("{case:?} {config:?} recorded={recorded}");
            let swept = engine(case, config, true, recorded);
            let cycles = engine(case, config, false, recorded);
            assert_eq!(swept.0, cycles.0, "result and slabs: {name}");
            assert_eq!(swept.1, cycles.1, "metrics: {name}");
            assert_eq!(swept.2, cycles.2, "trace: {name}");
            assert_eq!(swept.3, cycles.3, "events: {name}");
            assert_eq!(swept.4, cycles.4, "link report: {name}");
            assert_eq!(swept.0, want, "against the reference machine: {name}");
            assert_eq!(
                model_counters(&swept.1),
                want_counters,
                "metrics against the reference machine: {name}"
            );
            assert_eq!(
                swept.2, want_trace,
                "trace against the reference machine: {name}"
            );
            if let Faults::Drops = case.faults {
                assert!(swept.1.dropped_messages > 0, "drops armed: {name}");
            }
        }
    }
}

#[test]
fn sweeps_equal_their_rounds_across_the_matrix() {
    for data in [false, true] {
        for k in [1, 3, 16] {
            for faults in [Faults::None, Faults::Drops, Faults::Crash] {
                let case = Case {
                    n: 4,
                    k,
                    data,
                    faults,
                    reps: 3,
                };
                check(case, &configs());
            }
        }
    }
}

#[test]
fn large_blocked_sweeps_equal_their_rounds() {
    // 8192 nodes × 16 lanes × 8 bytes: 1 MiB slabs of 128-byte rows, and
    // 64-row clusters, which the data-order sweep walks one at a time.
    for data in [false, true] {
        let case = Case {
            n: 7,
            k: 16,
            data,
            faults: Faults::None,
            reps: 3,
        };
        check(case, &[configs()[0], configs()[4]]);
    }
}

/// The rows of the first low end of every fold call a sweep made, in
/// call order, and the length of its runs.
type Calls = Vec<(usize, usize)>;

/// Runs two sweeps of `D_n`'s cluster rounds at `k` lanes on the
/// sequential backend (the first compiles, the second may walk blocks)
/// and returns the second's fold calls.
fn second_sweep_calls(n: u32, k: usize, order: RowOrder, swept: bool) -> Calls {
    let d = DualCube::new(n);
    let mut m = Machine::with_exec(&d, vec![(); d.num_nodes()], ExecMode::Sequential);
    m.set_row_order(order);
    let [mut t, mut s, mut ids] = slabs(&d, k, order);
    let rounds = cluster_rounds(&d);
    let calls = Mutex::new(Vec::new());
    let fold = |lo: [&mut [u64]; 3], hi: [&mut [u64]; 3], got| {
        let row = order.row(lo[2][0] as usize);
        calls.lock().unwrap().push((row, lo[0].len()));
        mix(lo, hi, got);
    };
    for _ in 0..2 {
        calls.lock().unwrap().clear();
        let slabs = [&mut t[..], &mut s[..], &mut ids[..]];
        if swept {
            m.sweep(k, &rounds, slabs, fold);
        } else {
            let [t, s, ids] = slabs;
            for &(key, flip) in &rounds {
                m.cycle(|c| {
                    c.fold_pairs(k, flip, [&mut *t, &mut *s, &mut *ids], fold)
                        .keyed(key)
                });
            }
        }
    }
    calls.into_inner().unwrap()
}

/// Whether the calls visit `rows`-row blocks in order: every call of a
/// block before any call of the next.
fn blockwise(calls: &[(usize, usize)], rows: usize) -> bool {
    calls.windows(2).all(|w| w[0].0 / rows <= w[1].0 / rows)
}

#[test]
fn data_order_sweeps_walk_one_cluster_at_a_time() {
    let (n, k) = (7, 16);
    let d = DualCube::new(n);
    let cluster = d.cluster_size();
    let calls = second_sweep_calls(n, k, data_order(&d), true);
    // One call per half-block of each round: 32 + 16 + … + 1 per cluster.
    assert_eq!(calls.len(), (cluster - 1) * d.num_nodes() / cluster);
    assert!(
        blockwise(&calls, cluster),
        "a cluster's rounds interleave with another's"
    );
    // Every run is a whole half-block of its round.
    for w in calls.chunks(cluster - 1) {
        let halves: Vec<usize> = w.iter().map(|&(_, len)| len / k).collect();
        let want: Vec<usize> = (0..n - 1)
            .flat_map(|i| std::iter::repeat_n(1 << i, cluster >> (i + 1)))
            .collect();
        assert_eq!(halves, want);
    }
    // The same rounds as separate cycles sweep the whole machine per
    // round, and in node order a class-1 cluster's rows are strided, so
    // only class 0 walks cluster by cluster.
    let cycles = second_sweep_calls(n, k, data_order(&d), false);
    assert!(!blockwise(&cycles, cluster));
    let node = second_sweep_calls(n, k, RowOrder::NODE, true);
    let (class0, class1): (Vec<_>, Vec<_>) =
        node.iter().partition(|&&(row, _)| row < d.num_nodes() / 2);
    assert!(blockwise(&class0, cluster));
    assert!(!blockwise(&class1, cluster));
}

#[test]
fn pair_folds_see_half_blocks_cut_only_at_dropped_receivers() {
    let (n, k) = (3, 2);
    let d = DualCube::new(n);
    let nodes = d.num_nodes();
    for data in [false, true] {
        let order = if data { data_order(&d) } else { RowOrder::NODE };
        for (i, drops) in [(0, vec![]), (1, vec![5, 6, 7, 21]), (0, vec![16, 30])] {
            let mut m = Machine::with_exec(&d, vec![(); nodes], ExecMode::Sequential);
            m.set_row_order(order);
            let plan = drops
                .iter()
                .fold(FaultPlan::new(), |p, &u| p.message_drop(0, u));
            m.set_fault_plan(plan);
            let [mut t, mut s, mut ids] = slabs(&d, k, order);
            let calls = Mutex::new(Vec::new());
            let flip = Flip::by_class(d.class_bit(), [i, d.cluster_dim() + i]);
            m.cycle(|c| {
                c.fold_pairs(
                    k,
                    flip,
                    [&mut t[..], &mut s[..], &mut ids[..]],
                    |lo, hi, got| {
                        let pairs: Vec<(usize, usize)> = lo[2]
                            .iter()
                            .zip(&*hi[2])
                            .step_by(k)
                            .map(|(&l, &h)| (l as usize, h as usize))
                            .collect();
                        calls.lock().unwrap().push((pairs, got));
                        mix(lo, hi, got);
                    },
                )
            });
            let calls = calls.into_inner().unwrap();
            let case = format!("data={data} bit {i} drops {drops:?}");
            // The flipped bit's value in row space: bit `i` in class 0,
            // and in class 1 bit `n−1+i` in node order, `i` in data order.
            let half = |u: usize| {
                let class1 = u >= nodes / 2;
                1usize
                    << if class1 && !data {
                        d.cluster_dim() + i
                    } else {
                        i
                    }
            };
            let got = |u| !drops.contains(&u);
            let mut seen = Vec::new();
            for (run, flags) in &calls {
                for &(lo, hi) in run {
                    assert_eq!(flip.partner(lo), hi, "{case}");
                    assert_eq!(*flags, [got(lo), got(hi)], "{case}: pair ({lo}, {hi})");
                    seen.push(lo);
                }
                if drops.is_empty() {
                    assert_eq!(run.len(), half(run[0].0), "{case}: a whole half-block");
                }
            }
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), nodes / 2, "{case}: every pair folds once");
            // Runs are maximal: two runs of the same half-block differ in
            // their flags.
            for w in calls.windows(2) {
                let (a, b) = (&w[0], &w[1]);
                let block = |run: &[(usize, usize)]| {
                    let lo = run[0].0;
                    (lo >= nodes / 2, order.row(lo) / (2 * half(lo)))
                };
                if block(&a.0) == block(&b.0) {
                    assert_ne!(a.1, b.1, "{case}: a run was cut between equal flags");
                }
            }
        }
    }
}

/// A program over every row form under `order`: a cross-edge row move
/// into a landing slab, a half-speaking fold, a pair fold and a sweep,
/// and a compute phase. Returns every slab by node.
fn row_program(m: &mut impl Cycles<()>, d: &DualCube, order: RowOrder) -> [Vec<u64>; 4] {
    let k = 2;
    m.set_row_order(order);
    m.set_fault_plan(FaultPlan::new().message_drop(2, 6).message_drop(4, 40));
    let [mut t, mut s, mut ids] = slabs(d, k, order);
    let mut landed = vec![0u64; t.len()];
    for _ in 0..2 {
        m.cycle(|c| {
            c.rows(
                k,
                |u, _| Some(d.cross_neighbor(u)),
                [(&t[..], &mut landed[..])],
            )
            .pairwise()
            .keyed(ScheduleKey::Cross)
        });
        m.cycle(|c| {
            c.fold_rows(
                k,
                |u, _| (u % 3 == 0).then(|| d.cluster_neighbor(u, 1)),
                &landed[..],
                [&mut s[..]],
                [&t[..]],
                |u, [s], [t], msg| {
                    for ((s, t), x) in s.iter_mut().zip(t).zip(msg.into_iter().flatten()) {
                        *s = s.rotate_left(7) ^ t ^ x ^ u as u64;
                    }
                },
            )
        });
        let flip = Flip::by_class(d.class_bit(), [2, d.cluster_dim() + 2]);
        m.cycle(|c| c.fold_pairs(k, flip, [&mut t[..], &mut s[..], &mut ids[..]], mix));
        m.sweep(
            k,
            &cluster_rounds(d),
            [&mut t[..], &mut s[..], &mut ids[..]],
            mix,
        );
        m.compute_rows(k, [&mut t[..]], [&landed[..]], |u, [t], [x]| {
            for (t, x) in t.iter_mut().zip(x) {
                *t = t.wrapping_add(x ^ u as u64);
            }
        });
    }
    [t, s, ids, landed].map(|slab| by_node(&slab, k, order))
}

#[test]
fn data_order_runs_are_node_order_runs_with_rows_permuted() {
    for n in 1..=6 {
        let d = DualCube::new(n);
        let order = data_order(&d);
        for u in 0..d.num_nodes() {
            assert_eq!(order.row(u), d.linear_index(u), "D_{n} node {u}");
            assert_eq!(order.row(order.row(u)), u, "an involution");
        }
    }
    let d = DualCube::new(4);
    let nodes = d.num_nodes();
    let engine = |order| {
        let mut m = Machine::new(&d, vec![(); nodes]);
        m.enable_trace();
        let slabs = row_program(&mut m, &d, order);
        let trace = m.phased_trace().to_vec();
        (slabs, m.into_parts().1, trace)
    };
    let reference = |order| {
        let mut m = RefMachine::new(&d, vec![(); nodes]);
        let slabs = row_program(&mut m, &d, order);
        let trace = m.phased_trace().to_vec();
        (slabs, m.into_parts().1, trace)
    };
    let node = engine(RowOrder::NODE);
    let data = engine(data_order(&d));
    assert_eq!(
        node, data,
        "by node, the data-order run is the node-order run"
    );
    assert!(node.1.dropped_messages > 0, "drops armed");
    for order in [RowOrder::NODE, data_order(&d)] {
        let (slabs, metrics, trace) = reference(order);
        assert_eq!(slabs, node.0, "reference machine, {order:?}");
        assert_eq!(
            metrics,
            model_counters(&node.1),
            "reference machine, {order:?}"
        );
        assert_eq!(trace, node.2, "reference machine, {order:?}");
    }
}

#[test]
fn class_bit_pair_folds_under_the_swap_panic_before_charging() {
    /// Returns the communication steps charged after both panics.
    fn probe(m: &mut impl Cycles<()>, d: &DualCube) -> u64 {
        m.set_row_order(data_order(d));
        let nodes = d.num_nodes();
        let mut t: Vec<u64> = (0..nodes as u64).collect();
        let cross = Flip::uniform(d.class_bit());
        let cycle = catch_unwind(AssertUnwindSafe(|| {
            m.cycle(|c| c.fold_pairs(1, cross, [&mut t[..]], |_, _, _| {}));
        }));
        assert!(cycle.is_err(), "a class-bit pair fold under the swap ran");
        assert_eq!(m.metrics().comm_steps, 0, "the panicking cycle charged");
        let rounds = [cluster_rounds(d)[0], (ScheduleKey::Cross, cross)];
        let sweep = catch_unwind(AssertUnwindSafe(|| {
            m.sweep(1, &rounds, [&mut t[..]], |_, _, _| {});
        }));
        assert!(sweep.is_err(), "a sweep with a class-bit round ran");
        m.metrics().comm_steps
    }
    let d = DualCube::new(3);
    let nodes = d.num_nodes();
    let mut engine = Machine::new(&d, vec![(); nodes]);
    engine.enable_trace();
    // Both machines check every round of a sweep before they run any, so
    // nothing is charged and nothing is folded.
    assert_eq!(probe(&mut engine, &d), 0);
    assert!(engine.phased_trace().is_empty());
    let mut oracle = RefMachine::new(&d, vec![(); nodes]);
    assert_eq!(probe(&mut oracle, &d), 0);
    assert!(oracle.phased_trace().is_empty());
    // In node order the same cross fold is a bit flip.
    engine.set_row_order(RowOrder::NODE);
    let mut t = vec![0u64; nodes];
    engine.cycle(|c| c.fold_pairs(1, Flip::uniform(4), [&mut t[..]], |_, _, _| {}));
    assert_eq!(engine.metrics().comm_steps, 1);
}
