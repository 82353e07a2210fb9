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
//! The slabs are laid out the same way: row `i` of every slab holds
//! data index `i`, that is node `lin⁻¹(i)`. The body sets the machine's
//! [`RowOrder`] to the swap `lin` is
//! ([`RowOrder::swap_class_fields`]`(n−1)`), so the row forms find each
//! node's row through it, while matchings, keys, compiled schedules,
//! traces and faults stay in node ids. In this order every cluster is
//! `2^(n−1)` consecutive rows, and cluster dimension `i` flips row bit
//! `i` in both classes; the cross-edge pairs row `(0, a, b)` with row
//! `(1, b, a)`, a `2^(n−1) × 2^(n−1)` block transpose of rows. Loading
//! the inputs and reading the outputs are plain transposes with no
//! permutation. In node order a class-1 cluster's rows would lie
//! `2^(n−1)` rows apart, so every ascend round would stream the whole
//! slab through the cache (DESIGN.md §10).
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
//! (`t`, `s`, `t′` and `s′`) is one `n × K` slab whose row `i` holds data
//! index `i`'s K lanes. Every exchange-and-combine round is one fold
//! cycle, so no slab holds landed rows: steps 1 and 3 are each one sweep
//! of the `n−1` ascend rounds ([`Machine::sweep`]), each round folding
//! every pair of a cluster dimension once, in place, by the pair-fold
//! form ([`dc_simulator::Comm::fold_pairs`] on a by-class
//! [`dc_simulator::Flip`]: bit `i` of a class-0 node, bit `n−1+i` of a
//! class-1 node); once the rounds replay, the sweep runs all of them on
//! one cluster, while its rows sit in cache, before the next cluster.
//! Steps 4 and the paper's step 5 fold each node's sender's row in where
//! it lies ([`dc_simulator::Comm::fold_rows`]); step 2 moves rows
//! straight into `t′` ([`dc_simulator::Comm::rows`]), and the local
//! step 5 folds over rows ([`Machine::compute_rows`]). The slabs form
//! one
//! [`PrefixSlabs`] set: [`d_prefix`] and [`batched_d_prefix_reusing`]
//! run the body on a fresh set (one lane and K lanes), and
//! [`batched_d_prefix_in_place`] on a set its caller keeps from batch to
//! batch. The Figure 3 panels come from an observer the body calls at
//! each step boundary.

use crate::ops::Monoid;
use crate::prefix::hypercube::ascend_fold;
use crate::prefix::PrefixKind;
use crate::run::{
    lane_outputs, lane_outputs_into, lane_slab_into, refill, PhaseSnapshot, RunConfig,
};
use dc_simulator::{Flip, Machine, Metrics, RowOrder, ScheduleBank, ScheduleKey};
use dc_topology::{Class, DualCube, Topology};

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
    /// Space-time trace (under `Recording::Trace`): per communication
    /// cycle, the delivered `(src, dst)` messages, in node ids.
    pub trace: Vec<Vec<(usize, usize)>>,
}

/// Runs Algorithm 2 on `D_n` with one input value per node, in data-index
/// order (`input[i]` is placed on the node whose
/// [`DualCube::linear_index`] is `i`): the one-lane call of the body
/// [`batched_d_prefix_reusing`] runs, on the machine `run` configures.
/// Under [`Recording::Phases`](crate::run::Recording) the body's observer
/// keeps the six Figure 3 panels; `Recording::Trace` also keeps every
/// cycle's messages.
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
    run: impl Into<RunConfig>,
) -> DPrefixRun<M> {
    assert_eq!(
        input.len(),
        d.num_nodes(),
        "need one input value per node of {}",
        d.name()
    );
    let run = run.into();
    let recording = run.recording;
    let mut machine = run.machine(d, vec![(); d.num_nodes()]);
    if recording.tracing() {
        machine.enable_trace();
    }
    let mut phases = Vec::new();
    let mut slabs = PrefixSlabs::default();
    slabs.load(d, &[input], M::clone);
    d_prefix_body(
        &mut machine,
        &mut slabs,
        kind,
        step5,
        &mut |label, [t, s, t2, s2]| {
            if recording.enabled() {
                let view = |(i, c): (usize, &M)| DPrefixView {
                    c: c.clone(),
                    t: t[i].clone(),
                    s: s[i].clone(),
                    t2: t2[i].clone(),
                    s2: s2[i].clone(),
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
        prefixes: slabs.s,
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
        RunConfig::default(),
        &mut ScheduleBank::new(),
    )
}

/// [`batched_d_prefix`] with an explicit [`RunConfig`] and a [`ScheduleBank`]:
/// the machine adopts the bank's compiled schedules before its first
/// cycle and donates them back (plus anything newly compiled) when the
/// run ends. A serving fleet draining a request queue therefore
/// validates each communication pattern once ever, not once per
/// request; because compiled schedules are destination-only, a bank
/// warmed at one lane count serves any other. Results are bit-identical
/// to [`batched_d_prefix`]; only `schedule_misses` and wall-clock
/// differ. A call allocates a fixed number of buffers (a fresh
/// [`PrefixSlabs`] set and the K outputs), whatever the machine size;
/// [`batched_d_prefix_in_place`] allocates neither.
pub fn batched_d_prefix_reusing<M: Monoid>(
    d: &DualCube,
    inputs: &[Vec<M>],
    kind: PrefixKind,
    step5: Step5Mode,
    run: impl Into<RunConfig>,
    bank: &mut ScheduleBank,
) -> BatchedDPrefixRun<M> {
    let mut slabs = PrefixSlabs::default();
    slabs.load(d, inputs, M::clone);
    let metrics = run_batch(d, &mut slabs, kind, step5, &run.into(), bank);
    BatchedDPrefixRun {
        prefixes: lane_outputs(&slabs.s, inputs.len()),
        metrics,
    }
}

/// [`batched_d_prefix_reusing`] in place, on a slab set the caller keeps:
/// lane `k`'s input is `lanes[k]` (data-index order), and on return
/// `lanes[k]` holds that instance's prefixes. Values enter the slabs
/// through `M::from` and leave through `Into<X>` inside the two
/// transposes, so `i64` lanes run a [`Sum`](crate::ops::Sum) prefix with
/// no separate conversion pass. Results and [`Metrics`] equal
/// [`batched_d_prefix_reusing`]'s on the same inputs.
///
/// A warm call — a bank that has seen the shape, a set that has run a
/// batch at least as large — allocates no buffer that grows with the
/// lanes: the machine's per-node sender table is the one buffer sized by
/// the machine that it still allocates.
///
/// ```
/// use dc_core::ops::Sum;
/// use dc_core::prefix::dualcube::{batched_d_prefix_in_place, PrefixSlabs, Step5Mode};
/// use dc_core::prefix::PrefixKind;
/// use dc_simulator::{ExecMode, ScheduleBank};
/// use dc_topology::DualCube;
///
/// let d = DualCube::new(2); // 8 nodes
/// let (mut bank, mut slabs) = (ScheduleBank::new(), PrefixSlabs::<Sum>::default());
/// let mut lanes = vec![vec![1i64; 8], (1..=8).collect()];
/// let metrics = batched_d_prefix_in_place(&d, &mut lanes, PrefixKind::Inclusive,
///     Step5Mode::PaperFaithful, ExecMode::Sequential, &mut bank, &mut slabs);
/// assert_eq!(lanes[0], (1..=8).collect::<Vec<i64>>());
/// assert_eq!(lanes[1], [1, 3, 6, 10, 15, 21, 28, 36]);
/// assert_eq!(metrics.comm_steps, 2 * 2 + 1); // Theorem 1, shared by both lanes
/// ```
pub fn batched_d_prefix_in_place<X: Clone, M: Monoid + From<X> + Into<X>>(
    d: &DualCube,
    lanes: &mut [Vec<X>],
    kind: PrefixKind,
    step5: Step5Mode,
    run: impl Into<RunConfig>,
    bank: &mut ScheduleBank,
    slabs: &mut PrefixSlabs<M>,
) -> Metrics {
    slabs.load(d, lanes, |x| M::from(x.clone()));
    let metrics = run_batch(d, slabs, kind, step5, &run.into(), bank);
    lane_outputs_into(&slabs.s, lanes, |s| s.clone().into());
    metrics
}

/// Runs the body over a loaded set on a machine configured by `run` that
/// adopts `bank`'s schedules first and donates them back after.
fn run_batch<M: Monoid>(
    d: &DualCube,
    slabs: &mut PrefixSlabs<M>,
    kind: PrefixKind,
    step5: Step5Mode,
    run: &RunConfig,
    bank: &mut ScheduleBank,
) -> Metrics {
    let mut machine = run.machine(d, vec![(); d.num_nodes()]);
    machine.adopt_schedules(bank);
    d_prefix_body(&mut machine, slabs, kind, step5, &mut |_, _| {});
    machine.donate_schedules(bank);
    machine.into_parts().1
}

/// Algorithm 2's lane slabs — `t`, `s`, `t′` and `s′`, one `n × K` slab
/// each, row `i` holding data index `i`'s K lanes (see the module docs'
/// data layout) — as one set a caller can keep from batch to batch
/// ([`batched_d_prefix_in_place`]). A set starts empty. Every run
/// re-initialises the slabs a step reads before writing the way a fresh
/// set starts, and sizes `t′`, which step 2 writes in full before any
/// step reads it, so a reused set gives a fresh call's answers; it keeps
/// the capacity of the largest batch it has run.
#[derive(Debug)]
pub struct PrefixSlabs<M> {
    lanes: usize,
    t: Vec<M>,
    s: Vec<M>,
    t2: Vec<M>,
    s2: Vec<M>,
}

impl<M> Default for PrefixSlabs<M> {
    fn default() -> Self {
        PrefixSlabs {
            lanes: 0,
            t: Vec::new(),
            s: Vec::new(),
            t2: Vec::new(),
            s2: Vec::new(),
        }
    }
}

impl<M: Monoid> PrefixSlabs<M> {
    /// Loads `t` with the `K = inputs.len()` instances, `convert`ing each
    /// value: row `i` holds `c[i]` in every lane.
    fn load<X>(&mut self, d: &DualCube, inputs: &[impl AsRef<[X]>], convert: impl Fn(&X) -> M) {
        assert!(
            !inputs.is_empty(),
            "a batched prefix needs at least one instance"
        );
        for (k, input) in inputs.iter().enumerate() {
            assert_eq!(
                input.as_ref().len(),
                d.num_nodes(),
                "instance {k}: need one input value per node of {}",
                d.name()
            );
        }
        self.lanes = inputs.len();
        lane_slab_into(&mut self.t, inputs, convert);
    }
}

/// Algorithm 2's variables at a step boundary, one `n × K` slab each:
/// `[t, s, t′, s′]`.
type Panel<'a, M> = [&'a [M]; 4];

/// Algorithm 2 on the K lanes of a loaded set (the module docs' five
/// steps), leaving the final prefixes in its `s` slab. `observe` sees
/// the panel before step 1 and after each step, labelled as Figure 3's
/// panels (a)–(f).
fn d_prefix_body<M: Monoid>(
    machine: &mut Machine<'_, DualCube, ()>,
    slabs: &mut PrefixSlabs<M>,
    kind: PrefixKind,
    step5: Step5Mode,
    observe: &mut impl FnMut(&str, Panel<'_, M>),
) {
    let d = machine.topology();
    let PrefixSlabs {
        lanes,
        t,
        s,
        t2,
        s2,
    } = slabs;
    let (lanes, len) = (*lanes, t.len());
    // The caller loaded t; s and s′ start as in a fresh set, whatever an
    // earlier batch left in them. t′ is only sized: step 2's pairwise
    // cross exchange writes every row of it, and no machine that runs
    // this body carries a fault plan, so no dropped message can leave a
    // stale row (a fresh set still starts at the identity).
    match kind {
        PrefixKind::Inclusive => s.clone_from(t),
        PrefixKind::Diminished => refill(s, len, M::identity()),
    }
    refill(s2, len, M::identity());
    t2.resize(len, M::identity());
    // Rows are data indices: row lin(u) holds node u.
    machine.set_row_order(RowOrder::swap_class_fields(d.cluster_dim()));
    // Steps 1 and 3 sweep the cluster dimensions: cluster dimension i
    // flips bit i of the node-id field, raw bit i in class 0 and raw bit
    // n−1+i in class 1 (bit i of the row in both). Within a cluster,
    // data indices follow node ids, so Algorithm 1's "if u > ū_i" is
    // "the flipped bit is set": the pair's high end. The rounds sit in
    // a fixed array, so a warm call allocates nothing for them.
    let mut rounds = [(ScheduleKey::Dim(0), Flip::uniform(0)); usize::BITS as usize];
    let rounds = &mut rounds[..d.cluster_dim() as usize];
    for (i, round) in (0..).zip(rounds.iter_mut()) {
        *round = (
            ScheduleKey::Dim(i),
            Flip::by_class(d.class_bit(), [i, d.cluster_dim() + i]),
        );
    }
    observe("(a) original data distribution", [t, s, t2, s2]);

    // Step 1: Cube_prefix inside every cluster (over c, requested kind).
    machine.begin_phase("step 1: Cube_prefix inside clusters");
    machine.sweep(lanes, rounds, [&mut t[..], &mut s[..]], ascend_fold);
    observe("(b) prefix inside cluster (t, s)", [t, s, t2, s2]);

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
    observe("(c) exchange t via cross-edge", [t, s, t2, s2]);

    // Step 3: diminished Cube_prefix over the received totals (replaying
    // the schedules step 1 compiled).
    machine.begin_phase("step 3: Cube_prefix over received totals");
    machine.sweep(lanes, rounds, [&mut t2[..], &mut s2[..]], ascend_fold);
    observe("(d) prefix inside cluster (t', s')", [t, s, t2, s2]);

    // Step 4: exchange s′ and fold the cross-neighbour's in on the left
    // everywhere, as it lands.
    machine.begin_phase("step 4: exchange s' and combine");
    machine.cycle(|c| {
        c.fold_rows(
            lanes,
            |u, _| Some(d.cross_neighbor(u)),
            &s2[..],
            [&mut s[..]],
            [],
            |_, [s], [], their_s2| {
                let Some(x) = their_s2 else { return };
                for (s, x) in s.iter_mut().zip(x) {
                    *s = x.combine(s);
                }
            },
        )
        .pairwise()
        .keyed(ScheduleKey::Cross)
    });
    observe("(e) get s' and prefix one time", [t, s, t2, s2]);

    // Step 5: class-1 nodes fold in the class-0 grand total (their own
    // t′). PaperFaithful folds it in the cross-edge round the theorem's
    // arithmetic counts: the class-0 receivers ignore the delivered
    // value, their own class's grand total (see the module docs).
    machine.begin_phase("step 5: class-1 folds in class-0 grand total");
    let class1_fold = |u, [s]: [&mut [M]; 1], [t2]: [&[M]; 1]| {
        if d.class_of(u) == Class::One {
            for (s, x) in s.iter_mut().zip(t2) {
                *s = x.combine(s);
            }
        }
    };
    if step5 == Step5Mode::PaperFaithful {
        machine.cycle(|c| {
            c.fold_rows(
                lanes,
                |u, _| (d.class_of(u) == Class::One).then(|| d.cross_neighbor(u)),
                &t2[..],
                [&mut s[..]],
                [&t2[..]],
                |u, s, t2, _| class1_fold(u, s, t2),
            )
            .keyed(ScheduleKey::Custom(0))
        });
    } else {
        machine.compute_rows(lanes, [&mut s[..]], [&t2[..]], class1_fold);
    }
    observe("(f) final result", [t, s, t2, s2]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Mat2, Sum};
    use crate::prefix::sequential_prefix;
    use crate::run::Recording;
    use dc_simulator::ExecMode;
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

    #[test]
    fn reused_slab_set_gives_a_fresh_calls_answers() {
        // One set carried through a wide, a narrow and a one-lane batch
        // on two machine sizes, for both kinds and both step-5 modes.
        // Concat is order-sensitive and its identity is empty, so a scan
        // that starts from an earlier batch's rows (s′, or s in a
        // diminished scan, not reset to the identity) shows.
        let mut slabs = PrefixSlabs::<Concat>::default();
        for kind in [PrefixKind::Inclusive, PrefixKind::Diminished] {
            for step5 in [Step5Mode::PaperFaithful, Step5Mode::LocalFold] {
                for (n, lanes) in [(4, 16), (3, 3), (4, 1)] {
                    let d = DualCube::new(n);
                    let inputs: Vec<Vec<Concat>> = (0..lanes)
                        .map(|k| letters(d.num_nodes() + k).split_off(k))
                        .collect();
                    let fresh = batched_d_prefix_reusing(
                        &d,
                        &inputs,
                        kind,
                        step5,
                        ExecMode::Sequential,
                        &mut ScheduleBank::new(),
                    );
                    let mut values = inputs.clone();
                    let metrics = batched_d_prefix_in_place(
                        &d,
                        &mut values,
                        kind,
                        step5,
                        ExecMode::Sequential,
                        &mut ScheduleBank::new(),
                        &mut slabs,
                    );
                    let case = format!("{kind:?} {step5:?} n={n} K={lanes}");
                    assert_eq!(metrics, fresh.metrics, "{case}");
                    assert_eq!(
                        batched_d_prefix(&d, &inputs, kind, step5).prefixes,
                        fresh.prefixes,
                        "{case}"
                    );
                    for (k, input) in inputs.iter().enumerate() {
                        assert_eq!(values[k], fresh.prefixes[k], "{case} lane {k}");
                        assert_eq!(
                            values[k],
                            sequential_prefix(input, kind),
                            "{case} lane {k} vs reference"
                        );
                    }
                }
            }
        }
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
