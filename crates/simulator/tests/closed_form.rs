//! Matchings proved legal in closed form against the node-by-node
//! verdict of the reference machine.
//!
//! Every matching a [`Flip`] can name on `Q_1 … Q_10` and `D_1 … D_6`:
//! a uniform flip of each bit (one past the machine included), and each
//! class either silent or flipping each bit up to the class bit. A
//! matching the construction rules out (one class crossing while the
//! other flips a bit inside its class) must panic there. Each runs as
//! two cycles, pairwise or not, as a row move ([`Comm::rows_on`]), a
//! fold ([`Comm::fold_rows_on`]) or, when every class sends, a pair fold
//! ([`Comm::fold_pairs`]), in node order and, on a dual-cube, in data
//! order. The first cycle runs on a sound machine; faults drawn from a
//! fixed seed (crashes, cuts of links the matching uses, drops) arm at
//! the second's boundary. The engine runs it unkeyed (closed form every
//! cycle), keyed (closed form on the miss; a replay by flip equality,
//! or a second miss after a crash or cut evicts the schedule) and with
//! replay off (node by node). Every run's per-cycle verdict (delivered
//! count, or `SimError` and the node it blames), slabs, counters and
//! trace must equal [`RefMachine`]'s.
//!
//! [`Comm::rows_on`]: dc_simulator::Comm::rows_on
//! [`Comm::fold_rows_on`]: dc_simulator::Comm::fold_rows_on
//! [`Comm::fold_pairs`]: dc_simulator::Comm::fold_pairs

use dc_simulator::reference::{model_counters, Cycles, RefMachine};
use dc_simulator::{
    Comm, ExecMode, FaultPlan, Flip, Machine, Metrics, RowOrder, ScheduleKey, SimError, TraceEntry,
};
use dc_topology::{DualCube, Hypercube, NodeId, Topology};
use std::panic::catch_unwind;

/// Lanes per row.
const K: usize = 2;

/// How a cycle moves its rows.
#[derive(Clone, Copy, Debug)]
enum Form {
    Rows,
    Fold,
    Pairs,
}

/// One run: each cycle's verdict, the slabs, the counters both machines
/// charge, and the trace.
type Outcome = (
    Vec<Result<usize, SimError>>,
    [Vec<u64>; 3],
    Metrics,
    Vec<TraceEntry>,
);

/// One case of the matrix.
#[derive(Clone, Copy, Debug)]
struct Case {
    flip: Flip,
    form: Form,
    pairwise: bool,
    order: RowOrder,
    key: Option<ScheduleKey>,
}

fn finish<F>(c: Comm<(), F>, case: Case) -> Comm<(), F> {
    let c = if case.pairwise { c.pairwise() } else { c };
    match case.key {
        Some(key) => c.keyed(key),
        None => c,
    }
}

/// Two cycles of `case` on `m`, `faults` armed, stopping at the first
/// error.
fn program(m: &mut impl Cycles<()>, case: Case, faults: &FaultPlan) -> Outcome {
    m.set_row_order(case.order);
    m.set_fault_plan(faults.clone());
    let n = m.states().len();
    let slab = |seed: u64| -> Vec<u64> {
        (0..(n * K) as u64)
            .map(|x| x.wrapping_mul(0x9E37_79B9).wrapping_add(seed))
            .collect()
    };
    let [mut a, mut b, read] = [slab(1), slab(2), slab(3)];
    let mut verdicts = Vec::new();
    for _ in 0..2 {
        let result = match case.form {
            Form::Rows => {
                m.try_cycle(|c| finish(c.rows_on(K, case.flip, [(&a[..], &mut b[..])]), case))
            }
            Form::Fold => m.try_cycle(|c| {
                let fold =
                    |u: NodeId, [t]: [&mut [u64]; 1], [r]: [&[u64]; 1], msg: Option<&[u64]>| {
                        for (j, t) in t.iter_mut().enumerate() {
                            let x = msg.map_or(7, |m| m[j] ^ u as u64);
                            *t = t.wrapping_mul(31).wrapping_add(x).wrapping_add(r[j]);
                        }
                    };
                finish(
                    c.fold_rows_on(K, case.flip, &a[..], [&mut b[..]], [&read[..]], fold),
                    case,
                )
            }),
            Form::Pairs => m.try_cycle(|c| {
                let fold = |[lo]: [&mut [u64]; 1], [hi]: [&mut [u64]; 1], got: [bool; 2]| {
                    for (l, h) in lo.iter_mut().zip(hi) {
                        let (x, y) = (*l, *h);
                        *l = if got[0] {
                            x.wrapping_mul(3).wrapping_add(y)
                        } else {
                            x ^ 1
                        };
                        *h = if got[1] {
                            y.wrapping_mul(5).wrapping_add(x)
                        } else {
                            y ^ 2
                        };
                    }
                };
                finish(c.fold_pairs(K, case.flip, [&mut a[..]], fold), case)
            }),
        };
        let failed = result.is_err();
        verdicts.push(result);
        if failed {
            break;
        }
    }
    let counters = model_counters(m.metrics());
    (verdicts, [a, b, read], counters, m.phased_trace().to_vec())
}

/// splitmix64, for seed-stable fault sets.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The faults of scenario `which`, armed at the second cycle: none,
/// drops, a crash and a drop, or a cut of a link the matching uses and
/// a crash.
fn faults(which: u64, seed: u64, n: usize, flip: Flip) -> FaultPlan {
    let node = |i: u64| (mix(seed ^ i) % n as u64) as NodeId;
    let plan = FaultPlan::new();
    match which {
        0 => plan,
        1 => plan.message_drop(1, node(1)).message_drop(1, node(2)),
        2 => plan.node_crash(1, node(3)).message_drop(1, node(4)),
        _ => {
            let u = node(5);
            let plan = plan.node_crash(1, node(6));
            match flip.target(u).filter(|&v| v < n) {
                Some(v) => plan.link_down(1, u, v),
                None => plan,
            }
        }
    }
}

/// Whether `Flip::gated(top, bits)` must be refused: one class crosses
/// while the other flips a bit inside its class.
fn refused(top: u32, bits: [Option<u32>; 2]) -> bool {
    let crosses = bits.map(|b| b == Some(top));
    let inside = bits.map(|b| b.is_some_and(|b| b < top));
    crosses[0] && inside[1] || crosses[1] && inside[0]
}

/// Every flip on a machine of `2^bits` nodes that its construction
/// accepts.
fn flips(bits: u32) -> Vec<Flip> {
    let top = bits - 1;
    let choices: Vec<Option<u32>> = std::iter::once(None).chain((0..=top).map(Some)).collect();
    let gated = choices
        .iter()
        .flat_map(|&c0| choices.iter().map(move |&c1| [c0, c1]));
    (0..=bits)
        .map(Flip::uniform)
        .chain(
            gated
                .filter(|&bits| !refused(top, bits))
                .map(|bits| Flip::gated(top, bits)),
        )
        .collect()
}

/// Runs every matching of `topo` through the matrix.
fn check<T: Topology + Sync>(topo: &T, orders: &[RowOrder]) {
    let n = topo.num_nodes();
    let bits = n.trailing_zeros();
    for (i, &flip) in flips(bits).iter().enumerate() {
        for pairwise in [false, true] {
            let seed = mix(((bits as u64) << 32) ^ (i as u64) << 1 ^ pairwise as u64);
            let total = flip.target(0).is_some() && flip.target(n - 1).is_some();
            let form = match seed % 3 {
                0 if total => Form::Pairs,
                1 => Form::Fold,
                _ => Form::Rows,
            };
            // A pair fold under a swap must flip a row bit, not the class.
            let order = orders[(seed >> 8) as usize % orders.len()];
            let order = match form {
                Form::Pairs if flip.target(0) == Some(n / 2) => RowOrder::NODE,
                _ => order,
            };
            let plan = faults((seed >> 16) % 4, seed, n, flip);
            let mut case = Case {
                flip,
                form,
                pairwise,
                order,
                key: None,
            };
            let want = program(&mut RefMachine::new(topo, vec![(); n]), case, &plan);
            for (key, replay) in [
                (None, true),
                (Some(ScheduleKey::Custom(3)), true),
                (Some(ScheduleKey::Custom(3)), false),
            ] {
                case.key = key;
                let mut m = Machine::with_exec(topo, vec![(); n], ExecMode::Sequential);
                m.set_schedule_replay(replay);
                m.enable_trace();
                let got = program(&mut m, case, &plan);
                assert_eq!(
                    got.0,
                    want.0,
                    "verdicts: {} {case:?} replay={replay} {plan:?}",
                    topo.name()
                );
                assert_eq!(
                    got,
                    want,
                    "{} {case:?} replay={replay} {plan:?}",
                    topo.name()
                );
            }
        }
    }
}

#[test]
fn hypercube_matchings_match_the_reference_machine() {
    for m in 1..=10 {
        check(&Hypercube::new(m), &[RowOrder::NODE]);
    }
}

#[test]
fn dual_cube_matchings_match_the_reference_machine() {
    for n in 1..=6 {
        let d = DualCube::new(n);
        check(
            &d,
            &[RowOrder::NODE, RowOrder::swap_class_fields(d.cluster_dim())],
        );
    }
}

/// The threaded backend walks the same matchings over its dispatch
/// slots; one size each, every matching, at 4 workers and 16 shards.
#[test]
fn threaded_closed_form_cycles_match_the_reference_machine() {
    let d = DualCube::new(4);
    let n = d.num_nodes();
    let data = RowOrder::swap_class_fields(d.cluster_dim());
    for (i, &flip) in flips(n.trailing_zeros()).iter().enumerate() {
        for order in [RowOrder::NODE, data] {
            let plan = faults(i as u64 % 4, i as u64, n, flip);
            let mut case = Case {
                flip,
                form: if i % 2 == 0 { Form::Rows } else { Form::Fold },
                pairwise: false,
                order,
                key: None,
            };
            let want = program(&mut RefMachine::new(&d, vec![(); n]), case, &plan);
            for key in [None, Some(ScheduleKey::Cross)] {
                case.key = key;
                let mut m =
                    Machine::with_exec(&d, vec![(); n], ExecMode::Parallel { threshold: 1 });
                m.set_workers(4);
                m.set_shards(16);
                m.enable_trace();
                let got = program(&mut m, case, &plan);
                assert_eq!(got, want, "{case:?} {plan:?}");
            }
        }
    }
}

/// Asking a one-way matching to be pairwise fails as the node-by-node
/// check does: `AsymmetricPair` at the lowest sender.
#[test]
fn a_one_way_matching_is_not_pairwise() {
    let d = DualCube::new(3);
    let n = d.num_nodes();
    let step5 = Flip::gated(d.class_bit(), [None, Some(d.class_bit())]);
    let (t, mut got) = (vec![1u64; n], vec![0u64; n]);
    let mut m = Machine::new(&d, vec![(); n]);
    let err = m
        .try_cycle(|c| {
            c.rows_on(1, step5, [(&t[..], &mut got[..])])
                .pairwise()
                .keyed(ScheduleKey::Custom(0))
        })
        .unwrap_err();
    assert_eq!(err, SimError::AsymmetricPair { a: n / 2, b: 0 });
    assert_eq!((m.metrics().comm_steps, m.compiled_schedules()), (0, 0));
}

/// The construction refuses exactly the maps under which a node could
/// receive twice.
#[test]
fn flips_that_would_receive_twice_are_refused() {
    let top = 4;
    for bits in [[Some(top), Some(1)], [Some(0), Some(top)]] {
        assert!(refused(top, bits));
        assert!(catch_unwind(|| Flip::gated(top, bits)).is_err(), "{bits:?}");
    }
    for bits in [
        [Some(top), None],
        [None, Some(top)],
        [Some(top); 2],
        [Some(1), Some(3)],
        [None; 2],
    ] {
        assert!(!refused(top, bits));
        Flip::gated(top, bits);
    }
    assert!(catch_unwind(|| Flip::gated(top, [Some(top + 1), None])).is_err());
}
