//! Random illegal plans against the reference machine.
//!
//! One cycle on `D_3` or `D_4` in which each node's destination is its
//! partner in a legal base matching (the cross-edges or one cluster
//! dimension) unless the case perturbs it to silence, a random
//! neighbour, a non-neighbour, itself, or an id past the machine; with
//! crashes of random nodes' destinations and cuts of the links random
//! nodes send over, armed at the cycle's boundary; pairwise
//! on or off; in every payload form (a moved message, and lanes, rows
//! and a fold at `K ∈ {1, 3}`). The engine's outcome — the `SimError`
//! and where it is blamed, or the delivered count, states, slabs,
//! counters and trace — must equal the naive [`RefMachine`]'s on the
//! sequential backend and on the threaded one at `S ∈ {1, 4, 16}`
//! shards and 2 or 4 workers; a failed cycle must leave states, slabs
//! and `Metrics` as they were.
//!
//! Pair folds, whose matching is a flip rather than a plan, run their
//! own matrix (drops, crashes and cut flip edges, keyed or not), and a
//! fold that reads more of its partner than its message carried must
//! disagree with the reference machine.

use dc_simulator::reference::{model_counters, Cycles, RefMachine};
use dc_simulator::{ExecMode, FaultPlan, Flip, Machine, Metrics, SimError, TraceEntry};
use dc_topology::{DualCube, NodeId, Topology};
use proptest::collection::vec;
use proptest::prelude::*;
use std::iter::repeat_n;

/// Forces the threaded code path regardless of machine size.
const FORCE_PARALLEL: ExecMode = ExecMode::Parallel { threshold: 1 };

/// A cycle's payload form.
#[derive(Clone, Copy, Debug)]
enum Form {
    Message,
    Lanes(usize),
    Rows(usize),
    Fold(usize),
}

const FORMS: [Form; 7] = [
    Form::Message,
    Form::Lanes(1),
    Form::Lanes(3),
    Form::Rows(1),
    Form::Rows(3),
    Form::Fold(1),
    Form::Fold(3),
];

/// What one cycle leaves: its result, the states, the form's slab, the
/// counters both machines charge, and the trace.
type Outcome = (
    Result<usize, SimError>,
    Vec<u64>,
    Vec<u64>,
    Metrics,
    Vec<TraceEntry>,
);

fn initial_states(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|u| u.wrapping_mul(0x9E37_79B9) ^ 0x5A)
        .collect()
}

/// Runs the one cycle on `m` (faults armed at its boundary) and returns
/// its outcome, after checking that a failed cycle changed no state, no
/// slab and no counter.
fn attempt(
    m: &mut impl Cycles<u64>,
    form: Form,
    pairwise: bool,
    dst: &[Option<NodeId>],
    faults: &FaultPlan,
) -> Outcome {
    m.set_fault_plan(faults.clone());
    let n = dst.len();
    let plan = |u: NodeId| dst[u];
    let (result, slab, untouched) = match form {
        Form::Message => {
            let result = m.try_cycle(|c| {
                let c = c.message(
                    |u, &s| plan(u).map(|v| (v, s ^ u as u64)),
                    |s, src, v: u64| *s = s.wrapping_mul(31).wrapping_add(v ^ src as u64),
                );
                if pairwise {
                    c.pairwise()
                } else {
                    c
                }
            });
            (result, Vec::new(), Vec::new())
        }
        Form::Lanes(k) => {
            let result = m.try_cycle(|c| {
                let c = c.lanes(
                    k,
                    &0u64,
                    |u, _| plan(u),
                    |u, &s, w| {
                        for (j, w) in w.iter_mut().enumerate() {
                            *w = s.wrapping_add((u * k + j) as u64);
                        }
                    },
                    |s, src, w| {
                        for x in w.iter() {
                            *s = s.rotate_left(7) ^ x ^ src as u64;
                        }
                    },
                );
                if pairwise {
                    c.pairwise()
                } else {
                    c
                }
            });
            (result, Vec::new(), Vec::new())
        }
        Form::Rows(k) => {
            let from: Vec<u64> = (0..(n * k) as u64).map(|x| x * 3 + 1).collect();
            let mut landed = vec![0u64; n * k];
            let result = m.try_cycle(|c| {
                let c = c.rows(k, |u, _| plan(u), [(&from[..], &mut landed[..])]);
                if pairwise {
                    c.pairwise()
                } else {
                    c
                }
            });
            (result, landed, vec![0u64; n * k])
        }
        Form::Fold(k) => {
            let from: Vec<u64> = (0..(n * k) as u64).map(|x| x * 5 + 2).collect();
            let mut t = from.clone();
            let fold = |u: NodeId, [t]: [&mut [u64]; 1], []: [&[u64]; 0], msg: Option<&[u64]>| {
                for (j, t) in t.iter_mut().enumerate() {
                    *t = match msg {
                        Some(x) => t.wrapping_mul(31).wrapping_add(x[j] ^ u as u64),
                        None => t.wrapping_add(7),
                    };
                }
            };
            let to = |u: NodeId, _: &u64| plan(u);
            let result = m.try_cycle(|c| {
                let c = c.fold_rows(k, to, &from[..], [&mut t[..]], [], fold);
                if pairwise {
                    c.pairwise()
                } else {
                    c
                }
            });
            (result, t, from)
        }
    };
    if result.is_err() {
        assert_eq!(slab, untouched, "a failed cycle wrote a row");
        assert_eq!(
            m.states(),
            initial_states(n),
            "a failed cycle changed a state"
        );
        assert_eq!(
            m.metrics(),
            &Metrics::default(),
            "a failed cycle was charged"
        );
    }
    (
        result,
        m.states().to_vec(),
        slab,
        model_counters(m.metrics()),
        m.phased_trace().to_vec(),
    )
}

/// Node `u`'s destination: its base-matching partner, or — when the case
/// perturbs it — silence, a random neighbour, a non-neighbour, itself,
/// or an id past the machine.
fn destination(d: &DualCube, u: NodeId, base: u8, w: u16, perturb: u16) -> Option<NodeId> {
    let n = d.num_nodes();
    let p = w % 64;
    if p >= perturb {
        return Some(match base as u32 % (d.cluster_dim() + 1) {
            0 => d.cross_neighbor(u),
            j => d.cluster_neighbor(u, j - 1),
        });
    }
    let sel = (w / 64) as usize;
    match p % 5 {
        0 => None,
        1 => {
            let nbrs = d.neighbors(u);
            Some(nbrs[sel % nbrs.len()])
        }
        2 => (0..n)
            .map(|i| (sel + i) % n)
            .find(|&v| v != u && !d.is_edge(u, v)),
        3 => Some(u),
        _ => Some(n + sel % 5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_illegal_plans_match_the_reference_machine(
        dim in 3u32..=4,
        base: u8,
        rate in 0usize..4,
        picks in vec(any::<u16>(), 128..129),
        crashes in vec(any::<u16>(), 0..2),
        cuts in vec((any::<u16>(), any::<u16>()), 0..2),
        pairwise: bool,
        form in 0usize..FORMS.len(),
    ) {
        let d = DualCube::new(dim);
        let n = d.num_nodes();
        let form = FORMS[form];
        // Out of 64: perturb no node, about one, a few, or many.
        let perturb = [0u16, 1, 3, 12][rate];
        let dst: Vec<Option<NodeId>> = (0..n)
            .map(|u| destination(&d, u, base, picks[u], perturb))
            .collect();
        // Crashes and cuts aim at the plan: a crash takes down a random
        // node's destination, a cut the link a random node sends over,
        // so a sender can fail several checks at once.
        let mut faults = FaultPlan::new();
        for &c in &crashes {
            let u = c as usize % n;
            faults = faults.node_crash(0, dst[u].filter(|&v| v < n).unwrap_or(u));
        }
        for &(a, b) in &cuts {
            let a = a as usize % n;
            let nbrs = d.neighbors(a);
            let b = dst[a].filter(|v| nbrs.contains(v)).unwrap_or(nbrs[b as usize % nbrs.len()]);
            faults = faults.link_down(0, a, b);
        }
        let before = initial_states(n);
        let want = attempt(&mut RefMachine::new(&d, before.clone()), form, pairwise, &dst, &faults);
        let mut configs = vec![(ExecMode::Sequential, 1, 0)];
        for shards in [1, 4, 16] {
            for workers in [2, 4] {
                configs.push((FORCE_PARALLEL, shards, workers));
            }
        }
        for (exec, shards, workers) in configs {
            let mut m = Machine::with_exec(&d, before.clone(), exec);
            m.set_workers(workers);
            m.set_shards(shards);
            m.enable_trace();
            let got = attempt(&mut m, form, pairwise, &dst, &faults);
            prop_assert_eq!(
                &got, &want,
                "{:?}, pairwise={}, {:?}, S={}, workers={}", form, pairwise, exec, shards, workers
            );
        }
    }
}

/// What [`pair_fold_run`] leaves: every cycle's result, the two slabs,
/// the counters both machines charge, and the trace.
type PairOutcome = (
    Vec<Result<usize, SimError>>,
    Vec<u64>,
    Vec<u64>,
    Metrics,
    Vec<TraceEntry>,
);

/// Four pair folds (keyed or not) along a base flip — the cross-edges
/// (the top bit) or one cluster dimension (by class) — with message
/// drops armed and, from the third cycle on, crashed nodes and cut flip
/// edges: every cycle's result (or the error and where it is blamed),
/// the slabs, counters and trace must equal the reference machine's on
/// every configuration.
fn pair_fold_run(
    m: &mut impl Cycles<u64>,
    flip: Flip,
    k: usize,
    keyed: bool,
    faults: &FaultPlan,
) -> PairOutcome {
    m.set_fault_plan(faults.clone());
    let n = m.states().len();
    let mut t: Vec<u64> = (0..(n * k) as u64)
        .map(|x| x.wrapping_mul(0x2545_F491))
        .collect();
    let mut s: Vec<u64> = (0..(n * k) as u64).map(|x| x ^ 0xABCD).collect();
    // Each node's id in every lane of its row: a run's position names
    // its nodes, for the fold to mix in.
    let mut ids: Vec<u64> = (0..n as u64).flat_map(|u| repeat_n(u, k)).collect();
    let fold = |[lt, ls, lo]: [&mut [u64]; 3], [ht, hs, hi]: [&mut [u64]; 3], got: [bool; 2]| {
        let pairs = lt.iter_mut().zip(ls).zip(ht.iter_mut().zip(hs));
        for (((lt, ls), (ht, hs)), (lo, hi)) in pairs.zip(lo.iter().zip(&*hi)) {
            let (a, b) = (*lt, *ht);
            if got[0] {
                *ls = ls.rotate_left(5) ^ b;
                *lt = a.wrapping_mul(31).wrapping_add(b ^ lo);
            } else {
                *lt = a.wrapping_add(7);
            }
            if got[1] {
                *hs = hs.rotate_left(5) ^ a;
                *ht = b.wrapping_mul(31).wrapping_add(a ^ hi);
            } else {
                *ht = b.wrapping_add(7);
            }
        }
    };
    let results = (0..4)
        .map(|_| {
            m.try_cycle(|c| {
                let c = c.fold_pairs(k, flip, [&mut t[..], &mut s[..], &mut ids[..]], fold);
                if keyed {
                    c.keyed(dc_simulator::ScheduleKey::Custom(5))
                } else {
                    c
                }
            })
        })
        .collect();
    let counters = model_counters(m.metrics());
    (results, t, s, counters, m.phased_trace().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pair_folds_under_faults_match_the_reference_machine(
        dim in 3u32..=4,
        base: u8,
        k in 1usize..=3,
        crashes in vec(any::<u16>(), 0..2),
        cuts in vec(any::<u16>(), 0..2),
        drops in vec((0u64..4, any::<u16>()), 0..3),
        keyed: bool,
    ) {
        let d = DualCube::new(dim);
        let n = d.num_nodes();
        let flip = match base as u32 % (d.cluster_dim() + 1) {
            0 => Flip::uniform(d.class_bit()),
            j => Flip::by_class(d.class_bit(), [j - 1, d.cluster_dim() + j - 1]),
        };
        let mut faults = FaultPlan::new();
        for &(at, u) in &drops {
            faults = faults.message_drop(at, u as usize % n);
        }
        for &c in &crashes {
            faults = faults.node_crash(2, c as usize % n);
        }
        for &c in &cuts {
            let u = c as usize % n;
            faults = faults.link_down(2, u, flip.partner(u));
        }
        let want = pair_fold_run(&mut RefMachine::new(&d, vec![0; n]), flip, k, keyed, &faults);
        let mut configs = vec![(ExecMode::Sequential, 1, 0)];
        for shards in [1, 4, 16] {
            for workers in [2, 4] {
                configs.push((FORCE_PARALLEL, shards, workers));
            }
        }
        for (exec, shards, workers) in configs {
            let mut m = Machine::with_exec(&d, vec![0; n], exec);
            m.set_workers(workers);
            m.set_shards(shards);
            m.enable_trace();
            let got = pair_fold_run(&mut m, flip, k, keyed, &faults);
            prop_assert_eq!(
                &got, &want,
                "{:?}, keyed={}, {:?}, S={}, workers={}", flip, keyed, exec, shards, workers
            );
        }
    }
}

/// A pair fold must give each end only what its message carries: the
/// partner's row of the first slab, and only when it arrived. A fold
/// that also reads the partner's second slab, or reads the first-slab
/// row of a dropped message, reads rows the reference machine replaced
/// with the node's own, so the engine and the oracle disagree — the
/// oracle catches the leak.
#[test]
fn pair_fold_reading_past_its_message_diverges_from_the_reference_machine() {
    fn run(m: &mut impl Cycles<u64>, leak: usize) -> (Vec<u64>, Vec<u64>) {
        // Cluster dimension 0 of `D_3`; node 5's message is lost, and 5
        // is the high end of the pair {4, 5}.
        let flip = Flip::by_class(4, [0, 2]);
        m.set_fault_plan(FaultPlan::new().message_drop(0, 5));
        let n = m.states().len();
        let mut t: Vec<u64> = (0..n as u64).map(|x| x * 7 + 1).collect();
        let mut s: Vec<u64> = (0..n as u64).map(|x| x * 11 + 3).collect();
        m.cycle(|c| {
            c.fold_pairs(
                1,
                flip,
                [&mut t[..], &mut s[..]],
                |[lt, ls], [ht, hs], got| {
                    let pairs = lt.iter_mut().zip(&*ls).zip(ht.iter_mut().zip(&*hs));
                    for ((lt, &sa), (ht, &sb)) in pairs {
                        let (a, b) = (*lt, *ht);
                        match leak {
                            // Honest: each end reads the other's `t` when
                            // it got it.
                            0 => {
                                *lt = if got[0] { a + b } else { a };
                                *ht = if got[1] { a + b } else { b };
                            }
                            // Reads the partner's `s`, which never travels.
                            1 => {
                                *lt = if got[0] { a + b + sb } else { a };
                                *ht = if got[1] { a + b + sa } else { b };
                            }
                            // Reads the partner's `t` even where it was
                            // dropped.
                            _ => {
                                *lt = a + b;
                                *ht = a + b;
                            }
                        }
                    }
                },
            )
        });
        (t, s)
    }
    let d = DualCube::new(3);
    let n = d.num_nodes();
    for leak in 0..3 {
        let engine = run(&mut Machine::new(&d, vec![0; n]), leak);
        let oracle = run(&mut RefMachine::new(&d, vec![0; n]), leak);
        if leak == 0 {
            assert_eq!(engine, oracle, "the honest fold");
        } else {
            assert_ne!(engine, oracle, "leak {leak} went unseen");
        }
    }
}
