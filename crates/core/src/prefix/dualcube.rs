//! Algorithm 2 — `D_prefix(D_n)`: parallel prefix on the dual-cube in
//! `2n+1` communication and `2n` computation steps (Theorem 1).
//!
//! ## Data layout
//!
//! Node `u` holds `c[lin(u)]` where `lin` is
//! [`dc_topology::DualCube::linear_index`]: the identity for class-0 nodes
//! and the two `(n−1)`-bit fields swapped for class-1 nodes, so that the
//! indices held inside every cluster are consecutive, ordered by node id.
//! All class-0 data precedes all class-1 data.
//!
//! ## The five steps
//!
//! 1. `Cube_prefix` inside every cluster simultaneously (`n−1` comm/comp):
//!    afterwards `t` = own-cluster total, `s` = within-cluster prefix.
//! 2. Exchange `t` over the cross-edges (1 comm). A class-1 node at
//!    position `i` of its cluster now holds the total of class-0 cluster
//!    `i`, and vice versa.
//! 3. *Diminished* `Cube_prefix` inside every cluster over the received
//!    totals (`n−1` comm/comp): afterwards `s′[u]` = combined totals of
//!    the other-class clusters preceding the one `u`'s cross-neighbour
//!    lives in, and `t′[u]` = the other class's grand total.
//! 4. Exchange `s′` over the cross-edges and fold it in on the left
//!    (1 comm + 1 comp): class-0 nodes now hold their final prefix;
//!    class-1 nodes hold their prefix *within the class-1 block*.
//! 5. Class-1 nodes still lack the class-0 grand total — which each of
//!    them already computed in step 3 as its own `t′` (its step-3 scan ran
//!    over the class-0 cluster totals). The paper nonetheless schedules a
//!    cross-edge transfer of `t′` here and counts `T_comm = 2(n−1)+3`;
//!    [`Step5Mode::PaperFaithful`] performs that round (class-1 sends `t′`
//!    to its class-0 neighbour, which discards it) so measured counts
//!    equal the theorem's, while [`Step5Mode::LocalFold`] performs the
//!    purely local update and saves one communication step — the ablation
//!    of experiment E11. Both modes then fold `t′` in on the left at
//!    class-1 nodes (1 comp).
//!
//! ## One body
//!
//! The five steps are written once, over lane slabs: each paper variable
//! (`t`, `s`, `t′`, `s′`, and a landing buffer) is one `n × K` slab whose
//! row `u` holds node `u`'s K lanes, every exchange moves rows along the
//! step's matching ([`dc_simulator::Comm::rows`]), and every fold runs
//! over rows ([`Machine::compute_rows`]). [`d_prefix`] is the body's
//! one-lane call and [`batched_d_prefix_reusing`] its K-lane call; the
//! Figure 3 panels come from an observer the body calls at each step
//! boundary.

use crate::ops::Monoid;
use crate::prefix::hypercube::ascend_rows;
use crate::prefix::PrefixKind;
use crate::run::{lane_outputs, lane_slab, PhaseSnapshot, Recording};
use dc_simulator::{ExecMode, Machine, Metrics, ScheduleBank, ScheduleKey};
use dc_topology::{bits::bit, Class, DualCube, Topology};

/// How to realise step 5 of Algorithm 2 (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Step5Mode {
    /// Perform the paper's cross-edge round, reproducing `T_comm = 2n+1`
    /// exactly.
    #[default]
    PaperFaithful,
    /// Fold the locally available `t′` without communicating
    /// (`T_comm = 2n`). Results are identical; only the step count
    /// changes.
    LocalFold,
}

/// One node's Algorithm 2 variables at a step boundary: an entry of a
/// Figure 3 panel ([`DPrefixRun::phases`]).
#[derive(Debug, Clone)]
pub struct DPrefixView<M> {
    /// The node's input value `c`.
    pub c: M,
    /// Cluster total (step 1), as in `Cube_prefix`.
    pub t: M,
    /// Running prefix; after step 5 this is the node's final answer.
    pub s: M,
    /// Step-3 total `t′`: the other class's grand total.
    pub t2: M,
    /// Step-3 diminished prefix `s′` over other-class cluster totals.
    pub s2: M,
}

/// Result of a [`d_prefix`] run.
#[derive(Debug, Clone)]
pub struct DPrefixRun<M> {
    /// `s[i]` for every data index `i` (i.e. re-ordered from node order to
    /// [`DualCube::linear_index`] order).
    pub prefixes: Vec<M>,
    /// Step counts; with [`Step5Mode::PaperFaithful`] exactly `2n+1` comm
    /// and `2n` comp (asserted by the integration tests for all tested
    /// `n`).
    pub metrics: Metrics,
    /// Optional snapshots after each of the five steps (plus the initial
    /// distribution), in data-index order — the six panels of Figure 3.
    pub phases: Vec<PhaseSnapshot<DPrefixView<M>>>,
    /// Space-time trace (under [`Recording::Trace`]): per communication
    /// cycle, the delivered `(src, dst)` messages, in node ids.
    pub trace: Vec<Vec<(usize, usize)>>,
}

/// Runs Algorithm 2 on `D_n` with one input value per node, in data-index
/// order (`input[i]` is placed on the node whose
/// [`DualCube::linear_index`] is `i`): the one-lane call of the body
/// [`batched_d_prefix_reusing`] runs. The machine is built here with
/// [`Machine::new`], so the default backend, the ambient recorder and
/// the replay default apply. Under [`Recording::Phases`] the body's
/// observer keeps the six Figure 3 panels; [`Recording::Trace`] also
/// keeps every cycle's messages.
///
/// ```
/// use dc_core::prefix::{dualcube::{d_prefix, Step5Mode}, PrefixKind};
/// use dc_core::ops::Sum;
/// use dc_core::run::Recording;
/// use dc_topology::DualCube;
///
/// let d = DualCube::new(3); // 32 nodes
/// let input: Vec<Sum> = vec![Sum(1); 32];
/// let run = d_prefix(&d, &input, PrefixKind::Inclusive,
///                    Step5Mode::PaperFaithful, Recording::Off);
/// assert_eq!(run.prefixes.iter().map(|s| s.0).collect::<Vec<_>>(),
///            (1..=32).collect::<Vec<_>>());
/// assert_eq!(run.metrics.comm_steps, 2 * 3 + 1); // Theorem 1: 2n+1
/// assert_eq!(run.metrics.comp_steps, 2 * 3);     // Theorem 1: 2n
/// ```
pub fn d_prefix<M: Monoid>(
    d: &DualCube,
    input: &[M],
    kind: PrefixKind,
    step5: Step5Mode,
    recording: Recording,
) -> DPrefixRun<M> {
    assert_eq!(
        input.len(),
        d.num_nodes(),
        "need one input value per node of {}",
        d.name()
    );
    let mut machine = Machine::new(d, vec![(); d.num_nodes()]);
    if recording.tracing() {
        machine.enable_trace();
    }
    let mut phases = Vec::new();
    let s = d_prefix_body(
        &mut machine,
        &[input],
        kind,
        step5,
        &mut |label, [t, s, t2, s2]| {
            if recording.enabled() {
                let view = |(i, c): (usize, &M)| {
                    let u = d.from_linear_index(i);
                    DPrefixView {
                        c: c.clone(),
                        t: t[u].clone(),
                        s: s[u].clone(),
                        t2: t2[u].clone(),
                        s2: s2[u].clone(),
                    }
                };
                phases.push(PhaseSnapshot {
                    label: label.to_string(),
                    values: input.iter().enumerate().map(view).collect(),
                });
            }
        },
    );
    let trace = machine
        .phased_trace()
        .iter()
        .map(|(_, msgs)| msgs.clone())
        .collect();
    DPrefixRun {
        prefixes: (0..s.len())
            .map(|i| s[d.from_linear_index(i)].clone())
            .collect(),
        metrics: machine.into_parts().1,
        phases,
        trace,
    }
}

/// Result of a [`batched_d_prefix`] run.
#[derive(Debug, Clone)]
pub struct BatchedDPrefixRun<M> {
    /// `prefixes[k][i]` — instance `k`'s prefix at data index `i`; each
    /// inner vector equals the `prefixes` of a single-lane [`d_prefix`]
    /// run on `inputs[k]`.
    pub prefixes: Vec<Vec<M>>,
    /// Step counts: identical to a single-lane run (`2n+1` comm, `2n`
    /// comp under [`Step5Mode::PaperFaithful`]) — the whole batch shares
    /// one schedule per cycle — with `message_words` scaled by K.
    pub metrics: Metrics,
}

/// Runs K independent instances of Algorithm 2 on lane slabs: `inputs[k]`
/// is instance `k`'s input in data-index order. It is the body
/// [`d_prefix`] runs at K = 1 (see the module docs), so lane `k` equals
/// a [`d_prefix`] run on `inputs[k]`.
pub fn batched_d_prefix<M: Monoid>(
    d: &DualCube,
    inputs: &[Vec<M>],
    kind: PrefixKind,
    step5: Step5Mode,
) -> BatchedDPrefixRun<M> {
    batched_d_prefix_reusing(
        d,
        inputs,
        kind,
        step5,
        ExecMode::default(),
        &mut ScheduleBank::new(),
    )
}

/// [`batched_d_prefix`] with an explicit backend and a [`ScheduleBank`]:
/// the machine adopts the bank's compiled schedules before its first
/// cycle and donates them back (plus anything newly compiled) when the
/// run ends. A serving fleet draining a request queue therefore
/// validates each communication pattern once ever, not once per
/// request; because compiled schedules are destination-only, a bank
/// warmed at one lane count serves any other. Results are bit-identical
/// to [`batched_d_prefix`]; only `schedule_misses` and wall-clock
/// differ. A call allocates a fixed number of buffers (the five slabs
/// and the K outputs), whatever the machine size.
pub fn batched_d_prefix_reusing<M: Monoid>(
    d: &DualCube,
    inputs: &[Vec<M>],
    kind: PrefixKind,
    step5: Step5Mode,
    exec: ExecMode,
    bank: &mut ScheduleBank,
) -> BatchedDPrefixRun<M> {
    let lanes = inputs.len();
    assert!(lanes > 0, "a batched prefix needs at least one instance");
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            input.len(),
            d.num_nodes(),
            "instance {k}: need one input value per node of {}",
            d.name()
        );
    }
    let mut machine = Machine::with_exec(d, vec![(); d.num_nodes()], exec);
    machine.adopt_schedules(bank);
    let s = d_prefix_body(&mut machine, inputs, kind, step5, &mut |_, _| {});
    machine.donate_schedules(bank);
    BatchedDPrefixRun {
        // Data index i lives on node lin⁻¹(i).
        prefixes: lane_outputs(&s, lanes, |i| d.from_linear_index(i)),
        metrics: machine.into_parts().1,
    }
}

/// Algorithm 2's variables at a step boundary, one `n × K` slab each:
/// `[t, s, t′, s′]`.
type Panel<'a, M> = [&'a [M]; 4];

/// Algorithm 2 on `K = inputs.len()` lanes (the module docs' five
/// steps), returning the final `s` slab. `observe` sees the panel before
/// step 1 and after each step, labelled as Figure 3's panels (a)–(f).
fn d_prefix_body<M: Monoid>(
    machine: &mut Machine<'_, DualCube, ()>,
    inputs: &[impl AsRef<[M]>],
    kind: PrefixKind,
    step5: Step5Mode,
    observe: &mut impl FnMut(&str, Panel<'_, M>),
) -> Vec<M> {
    let (d, lanes) = (machine.topology(), inputs.len());
    // Node u holds c[lin(u)] in every lane.
    let mut t = lane_slab(inputs, |u| d.linear_index(u));
    let mut s = match kind {
        PrefixKind::Inclusive => t.clone(),
        PrefixKind::Diminished => vec![M::identity(); t.len()],
    };
    let mut t2 = vec![M::identity(); t.len()];
    let mut s2 = vec![M::identity(); t.len()];
    let mut temp = vec![M::identity(); t.len()];
    // Steps 1 and 3 sweep the cluster dimensions. Within a cluster, data
    // indices follow node ids, so Algorithm 1's "if u > ū_i" becomes
    // "bit i of the node id is set".
    let neighbor = |i| move |u| d.cluster_neighbor(u, i);
    let high = |i| move |u| bit(d.node_id(u), i);
    observe("(a) original data distribution", [&t, &s, &t2, &s2]);

    // Step 1: Cube_prefix inside every cluster (over c, requested kind).
    machine.begin_phase("step 1: Cube_prefix inside clusters");
    for i in 0..d.cluster_dim() {
        let slabs = [&mut t[..], &mut s[..], &mut temp[..]];
        ascend_rows(machine, lanes, i, neighbor(i), high(i), slabs);
    }
    observe("(b) prefix inside cluster (t, s)", [&t, &s, &t2, &s2]);

    // Step 2: exchange cluster totals over the cross-edges, straight into
    // t′ (s′ starts at the identity). Step 4 replays the same pattern.
    machine.begin_phase("step 2: exchange totals via cross-edges");
    machine.cycle(|c| {
        c.rows(
            lanes,
            |u, _| Some(d.cross_neighbor(u)),
            [(&t[..], &mut t2[..])],
        )
        .pairwise()
        .keyed(ScheduleKey::Cross)
    });
    observe("(c) exchange t via cross-edge", [&t, &s, &t2, &s2]);

    // Step 3: diminished Cube_prefix over the received totals (replaying
    // the schedules step 1 compiled).
    machine.begin_phase("step 3: Cube_prefix over received totals");
    for i in 0..d.cluster_dim() {
        let slabs = [&mut t2[..], &mut s2[..], &mut temp[..]];
        ascend_rows(machine, lanes, i, neighbor(i), high(i), slabs);
    }
    observe("(d) prefix inside cluster (t', s')", [&t, &s, &t2, &s2]);

    // Step 4: exchange s′ and fold it in on the left everywhere.
    machine.begin_phase("step 4: exchange s' and combine");
    machine.cycle(|c| {
        c.rows(
            lanes,
            |u, _| Some(d.cross_neighbor(u)),
            [(&s2[..], &mut temp[..])],
        )
        .pairwise()
        .keyed(ScheduleKey::Cross)
    });
    machine.compute_rows(lanes, [&mut s[..]], [&temp[..]], |_, [s], [temp]| {
        for (s, x) in s.iter_mut().zip(temp) {
            *s = x.combine(s);
        }
    });
    observe("(e) get s' and prefix one time", [&t, &s, &t2, &s2]);

    // Step 5: class-1 nodes fold in the class-0 grand total (their own
    // t′). PaperFaithful additionally spends the cross-edge round the
    // theorem's arithmetic counts.
    machine.begin_phase("step 5: class-1 folds in class-0 grand total");
    if step5 == Step5Mode::PaperFaithful {
        // The delivered values are the receivers' own class's grand
        // totals, landing in the spent buffer — unused (see the module
        // docs).
        machine.cycle(|c| {
            c.rows(
                lanes,
                |u, _| (d.class_of(u) == Class::One).then(|| d.cross_neighbor(u)),
                [(&t2[..], &mut temp[..])],
            )
            .keyed(ScheduleKey::Custom(0))
        });
    }
    machine.compute_rows(lanes, [&mut s[..]], [&t2[..]], |u, [s], [t2]| {
        if d.class_of(u) == Class::One {
            for (s, x) in s.iter_mut().zip(t2) {
                *s = x.combine(s);
            }
        }
    });
    observe("(f) final result", [&t, &s, &t2, &s2]);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Mat2, Sum};
    use crate::prefix::sequential_prefix;
    use proptest::prelude::*;

    fn letters(count: usize) -> Vec<Concat> {
        (0..count)
            .map(|i| {
                let c = char::from_u32('A' as u32 + (i as u32 % 58)).unwrap();
                Concat(format!("{c}"))
            })
            .collect()
    }

    #[test]
    fn prefix_sums_of_ones_match_figure_three() {
        // Figure 3: Prefix_sum([1,1,…,1]) = [1,2,…,32] on D_3.
        let d = DualCube::new(3);
        let input = vec![Sum(1); 32];
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
        assert_eq!(
            run.prefixes.iter().map(|s| s.0).collect::<Vec<_>>(),
            (1..=32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn theorem_one_step_counts() {
        for n in 1..=6 {
            let d = DualCube::new(n);
            let input = vec![Sum(2); d.num_nodes()];
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                Recording::Off,
            );
            assert_eq!(
                run.metrics.comm_steps,
                crate::theory::prefix_comm(n),
                "comm n={n}"
            );
            assert_eq!(
                run.metrics.comp_steps,
                crate::theory::prefix_comp(n),
                "comp n={n}"
            );
        }
    }

    #[test]
    fn local_fold_saves_exactly_one_comm_step() {
        let d = DualCube::new(4);
        let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
        let faithful = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
        let local = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::LocalFold,
            Recording::Off,
        );
        assert_eq!(local.prefixes, faithful.prefixes);
        assert_eq!(local.metrics.comm_steps + 1, faithful.metrics.comm_steps);
        assert_eq!(local.metrics.comp_steps, faithful.metrics.comp_steps);
    }

    #[test]
    fn noncommutative_concat_matches_reference() {
        for n in 1..=4 {
            let d = DualCube::new(n);
            let input = letters(d.num_nodes());
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                Recording::Off,
            );
            assert_eq!(
                run.prefixes,
                sequential_prefix(&input, PrefixKind::Inclusive),
                "n={n}"
            );
        }
    }

    #[test]
    fn diminished_matches_reference() {
        for n in 2..=4 {
            let d = DualCube::new(n);
            let input = letters(d.num_nodes());
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Diminished,
                Step5Mode::PaperFaithful,
                Recording::Off,
            );
            assert_eq!(
                run.prefixes,
                sequential_prefix(&input, PrefixKind::Diminished),
                "n={n}"
            );
        }
    }

    #[test]
    fn recording_produces_six_figure_panels() {
        let d = DualCube::new(3);
        let input = vec![Sum(1); 32];
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Phases,
        );
        let labels: Vec<&str> = run.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels.len(), 6);
        assert!(labels[0].starts_with("(a)"));
        assert!(labels[5].starts_with("(f)"));
        // Panel (b): inside-cluster prefix of all-ones counts 1..=4 within
        // each of D_3's 4-node clusters.
        let b = &run.phases[1];
        for (i, v) in b.values.iter().enumerate() {
            assert_eq!(v.s.0, (i % 4 + 1) as i64, "panel (b) index {i}");
            assert_eq!(v.t.0, 4);
        }
        // Panel (f) s equals the final output.
        for (i, v) in run.phases[5].values.iter().enumerate() {
            assert_eq!(v.s.0, (i + 1) as i64);
        }
    }

    #[test]
    fn step3_t2_is_other_class_grand_total() {
        let d = DualCube::new(3);
        // Class-0 block holds 1s (total 16), class-1 block holds 2s (total 32).
        let mut input = vec![Sum(1); 16];
        input.extend(vec![Sum(2); 16]);
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Phases,
        );
        let after3 = run
            .phases
            .iter()
            .find(|p| p.label.starts_with("(d)"))
            .unwrap();
        for (i, v) in after3.values.iter().enumerate() {
            let expected = if i < 16 { 32 } else { 16 }; // other class's total
            assert_eq!(v.t2.0, expected, "index {i}");
        }
    }

    #[test]
    fn works_on_degenerate_d1() {
        let d = DualCube::new(1);
        let input = vec![Sum(5), Sum(7)];
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
        assert_eq!(run.prefixes, vec![Sum(5), Sum(12)]);
    }

    #[test]
    #[should_panic(expected = "one input value per node")]
    fn wrong_input_length_rejected() {
        d_prefix(
            &DualCube::new(2),
            &[Sum(1); 3],
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
    }

    #[test]
    fn batched_noncommutative_lanes_match_single_runs() {
        // Concat is order-sensitive, so a lane mix-up or a fold on the
        // wrong side shows; both kinds and both step-5 modes.
        for n in 1..=4 {
            let d = DualCube::new(n);
            let inputs: Vec<Vec<Concat>> = (0..3)
                .map(|k| letters(d.num_nodes() + k).split_off(k))
                .collect();
            for kind in [PrefixKind::Inclusive, PrefixKind::Diminished] {
                for step5 in [Step5Mode::PaperFaithful, Step5Mode::LocalFold] {
                    let batch = batched_d_prefix(&d, &inputs, kind, step5);
                    for (k, input) in inputs.iter().enumerate() {
                        let single = d_prefix(&d, input, kind, step5, Recording::Off);
                        assert_eq!(batch.prefixes[k], single.prefixes, "n={n} lane {k}");
                        assert_eq!(
                            batch.prefixes[k],
                            sequential_prefix(input, kind),
                            "n={n} lane {k} vs reference"
                        );
                        if k == 0 {
                            let (b, s) = (&batch.metrics, &single.metrics);
                            assert_eq!(b.comm_steps, s.comm_steps, "n={n}");
                            assert_eq!(b.comp_steps, s.comp_steps, "n={n}");
                            assert_eq!(b.messages, s.messages, "n={n}");
                            assert_eq!(b.message_words, 3 * s.message_words, "n={n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_bank_reuse_is_bit_identical_and_skips_revalidation() {
        let d = DualCube::new(3);
        let inputs: Vec<Vec<Sum>> = (0..4)
            .map(|k| (0..d.num_nodes() as i64).map(|i| Sum(i * 7 - k)).collect())
            .collect();
        let baseline =
            batched_d_prefix(&d, &inputs, PrefixKind::Inclusive, Step5Mode::PaperFaithful);

        let mut bank = ScheduleBank::new();
        let first = batched_d_prefix_reusing(
            &d,
            &inputs,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            ExecMode::Sequential,
            &mut bank,
        );
        assert_eq!(first.prefixes, baseline.prefixes);
        assert!(first.metrics.schedule_misses > 0, "cold run compiles");

        // Second run adopts the warm bank: zero compilations, every cycle
        // a replay, answers unchanged. Schedules are destination-only, so
        // the warm bank serves a different lane count too.
        let second = batched_d_prefix_reusing(
            &d,
            &inputs[..2],
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            ExecMode::Sequential,
            &mut bank,
        );
        assert_eq!(second.prefixes, baseline.prefixes[..2]);
        assert_eq!(
            second.metrics.schedule_misses, 0,
            "warm run revalidates nothing"
        );
        assert_eq!(
            second.metrics.schedule_hits,
            first.metrics.schedule_hits + first.metrics.schedule_misses
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn matches_reference_on_random_matrices(n in 1u32..=4, seed: u64) {
            let d = DualCube::new(n);
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 13) as i64 - 6
            };
            let input: Vec<Mat2> = (0..d.num_nodes())
                .map(|_| Mat2([[next(), next()], [next(), next()]]))
                .collect();
            let run = d_prefix(&d, &input, PrefixKind::Inclusive, Step5Mode::LocalFold, Recording::Off);
            prop_assert_eq!(run.prefixes, sequential_prefix(&input, PrefixKind::Inclusive));
        }
    }
}
