//! A naive reference machine: the oracle the cycle engine is tested
//! against.
//!
//! [`RefMachine`] runs the same [`Comm`] descriptors (every payload
//! form), computation phases and [`FaultPlan`]s as
//! [`Machine`](crate::Machine), with none
//! of the engine's machinery: no scratch buffers, dispatch slots, shards,
//! staging slab, threads, schedule cache or recorder. Each communication
//! cycle plans every node, checks the plans in the documented order,
//! collects the validated messages in a `BTreeMap` inbox keyed by
//! receiver, and delivers from it. Keys are ignored, so every cycle is
//! validated in full: a program whose keyed cycles never deviate runs
//! exactly as on the engine, while a deviation the engine reports as
//! [`SimError::ScheduleDeviation`] surfaces here as whatever the full
//! check finds (or as a legal cycle).
//!
//! The validation order (DESIGN.md §7): a [`Comm::pairwise`] cycle first
//! checks symmetry in node order ([`SimError::OutOfRange`] for a partner
//! past the machine, else [`SimError::AsymmetricPair`]); then each sender
//! in node order is checked for a destination out of range, a message to
//! itself, a failed source or destination, a non-neighbour, a downed
//! link, and last a receive conflict with a lower sender. The first
//! failure is the cycle's error, and a failed cycle changes nothing.
//!
//! Faults apply as on the engine: a plan's events at the
//! communication-cycle boundary they name, before the cycle is planned;
//! crashed nodes are skipped by computation phases and folds; a message
//! to a node with an armed drop is validated, traced and lost, and the
//! drop is spent by the next cycle that succeeds.
//!
//! A pair fold ([`Comm::fold_pairs`]) runs its fold once per node, on
//! runs of one pair, rather than once per run of pairs: each node folds
//! as the `lo` or `hi` end against a copy of its partner that holds only
//! what the node's message carried (the partner's row of the first
//! slab, when it arrived) and the node's own rows everywhere else, and
//! only the node's own result is kept. A fold that reads more of its
//! partner than the message then gives a different answer here than on
//! the engine. A sweep ([`Cycles::try_sweep`]) checks every round's
//! flip first, as the engine does, and then runs its rounds as separate
//! pair-fold cycles.
//!
//! Rows follow the machine's [`RowOrder`] (set with
//! [`Cycles::set_row_order`]): node `u`'s row of every slab is
//! `order.row(u)`, looked up per node.
//!
//! [`Cycles`] is the interface both machines share, so one program body,
//! generic over `impl Cycles<S>`, drives either; [`model_counters`] is
//! the part of [`Metrics`] both charge.

use crate::comm::form::{check_pairs, Form};
use crate::comm::{Comm, Flip, FoldPairs, FoldRows, Lanes, Message, Payload, RowOrder, Rows};
use crate::error::SimError;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::machine::TraceEntry;
use crate::metrics::{LinkUtil, Metrics};
use crate::schedule::ScheduleKey;
use dc_topology::{NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// The validated messages of one cycle: receiver → (sender, message).
type Inbox<M> = BTreeMap<NodeId, (NodeId, M)>;

/// A deliberately naive synchronous machine with
/// [`Machine`](crate::Machine)'s semantics (see the [module docs](self));
/// driven through [`Cycles`]. It always records the space-time trace.
pub struct RefMachine<'t, T: Topology + ?Sized, S> {
    topo: &'t T,
    states: Vec<S>,
    metrics: Metrics,
    trace: Vec<TraceEntry>,
    /// Scripted fault events not yet applied.
    pending: Vec<FaultEvent>,
    failed: BTreeSet<NodeId>,
    /// Downed links, endpoint-normalised (`a < b`).
    down: BTreeSet<(NodeId, NodeId)>,
    /// Receivers whose messages the next successful cycle loses.
    drops: BTreeSet<NodeId>,
    /// Which slab row holds each node.
    order: RowOrder,
}

impl<'t, T: Topology + ?Sized, S> RefMachine<'t, T, S> {
    /// A machine with one initial state per node of `topo`.
    ///
    /// Panics unless `states.len() == topo.num_nodes()`.
    pub fn new(topo: &'t T, states: Vec<S>) -> Self {
        assert_eq!(states.len(), topo.num_nodes(), "need one state per node");
        RefMachine {
            topo,
            states,
            metrics: Metrics::new(),
            trace: Vec::new(),
            pending: Vec::new(),
            failed: BTreeSet::new(),
            down: BTreeSet::new(),
            drops: BTreeSet::new(),
            order: RowOrder::NODE,
        }
    }

    /// Consumes the machine, returning final states and metrics.
    pub fn into_parts(self) -> (Vec<S>, Metrics) {
        (self.states, self.metrics)
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        let n = self.states.len();
        match kind {
            FaultKind::NodeCrash { node } if node < n => {
                self.failed.insert(node);
            }
            FaultKind::LinkDown { a, b } if a < n && b < n && a != b => {
                self.down.insert((a.min(b), a.max(b)));
            }
            FaultKind::MessageDrop { dst } if dst < n => {
                self.drops.insert(dst);
            }
            _ => panic!("fault event {kind} out of range"),
        }
    }

    /// The error of sender `src`'s message to `dst`, if any, in the
    /// documented order; `inbox` holds the lower senders' messages.
    fn check<M>(&self, src: NodeId, dst: NodeId, inbox: &Inbox<M>) -> Option<SimError> {
        let n = self.states.len();
        Some(if dst >= n {
            SimError::OutOfRange {
                node: dst,
                num_nodes: n,
            }
        } else if dst == src {
            SimError::SelfMessage { node: src }
        } else if self.failed.contains(&src) {
            SimError::NodeFailed { node: src }
        } else if self.failed.contains(&dst) {
            SimError::NodeFailed { node: dst }
        } else if !self.topo.is_edge(src, dst) {
            SimError::NotAdjacent { src, dst }
        } else if self.down.contains(&(src.min(dst), src.max(dst))) {
            SimError::LinkDown { src, dst }
        } else if let Some(&(first_src, _)) = inbox.get(&dst) {
            SimError::RecvConflict {
                node: dst,
                first_src,
                second_src: src,
            }
        } else {
            return None;
        })
    }
}

/// The calls a program makes of a machine, shared by
/// [`Machine`](crate::Machine) and [`RefMachine`] so one program body
/// runs on both. Each method is the `Machine` method of the same name.
#[allow(missing_docs)]
pub trait Cycles<S> {
    fn try_cycle<F: Payload<S>>(
        &mut self,
        comm: impl FnOnce(Comm<S>) -> Comm<S, F>,
    ) -> Result<usize, SimError>;
    #[track_caller]
    fn cycle<F: Payload<S>>(&mut self, comm: impl FnOnce(Comm<S>) -> Comm<S, F>) -> usize {
        match self.try_cycle(comm) {
            Ok(count) => count,
            Err(e) => panic!("communication-model violation: {e}"),
        }
    }
    fn compute(&mut self, steps: u64, f: impl Fn(NodeId, &mut S) + Sync);
    fn compute_counted(&mut self, steps: u64, element_ops: u64, f: impl Fn(NodeId, &mut S) + Sync);
    fn compute_rows<V: Send + Sync, const W: usize, const R: usize>(
        &mut self,
        width: usize,
        rows: [&mut [V]; W],
        read: [&[V]; R],
        f: impl Fn(NodeId, [&mut [V]; W], [&[V]; R]) + Sync,
    );
    /// Checks every round's flip before the first round runs, raising
    /// the panic [`Comm::fold_pairs`] raises, so a sweep with an invalid
    /// round charges nothing.
    fn try_sweep<V, const W: usize>(
        &mut self,
        width: usize,
        rounds: &[(ScheduleKey, Flip)],
        rows: [&mut [V]; W],
        fold: impl Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
    ) -> Result<(), SimError>
    where
        V: Clone + Send + Sync;
    #[track_caller]
    fn sweep<V, const W: usize>(
        &mut self,
        width: usize,
        rounds: &[(ScheduleKey, Flip)],
        rows: [&mut [V]; W],
        fold: impl Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
    ) where
        V: Clone + Send + Sync,
    {
        if let Err(e) = self.try_sweep(width, rounds, rows, fold) {
            panic!("communication-model violation: {e}");
        }
    }
    fn setup(&mut self, f: impl Fn(NodeId, &mut S) + Sync);
    fn set_row_order(&mut self, order: RowOrder);
    fn begin_phase(&mut self, label: impl Into<String>);
    fn set_fault_plan(&mut self, plan: FaultPlan);
    fn inject_fault(&mut self, kind: FaultKind);
    fn states(&self) -> &[S];
    fn metrics(&self) -> &Metrics;
    fn phased_trace(&self) -> &[TraceEntry];
}

impl<T: Topology + ?Sized, S> Cycles<S> for RefMachine<'_, T, S> {
    fn try_cycle<F: Payload<S>>(
        &mut self,
        comm: impl FnOnce(Comm<S>) -> Comm<S, F>,
    ) -> Result<usize, SimError> {
        let mut comm = comm(Comm::blank());
        comm.form.check(self.states.len(), self.order);
        let now = self.metrics.comm_steps;
        let (due, later) = self.pending.iter().partition(|e| e.at_cycle <= now);
        self.pending = later;
        for e in due {
            self.apply_fault(e.kind);
        }
        let n = self.states.len();
        let form = &mut comm.form;
        let plans: Vec<_> = (0..n).map(|u| form.plan(u, &self.states[u])).collect();
        if comm.pairwise {
            for (u, p) in plans.iter().enumerate() {
                match p {
                    Some((v, _)) if *v >= n => {
                        return Err(SimError::OutOfRange {
                            node: *v,
                            num_nodes: n,
                        });
                    }
                    Some((v, _)) if !matches!(plans[*v], Some((back, _)) if back == u) => {
                        return Err(SimError::AsymmetricPair { a: u, b: *v });
                    }
                    _ => {}
                }
            }
        }
        let mut inbox = Inbox::new();
        for (src, p) in plans.into_iter().enumerate() {
            if let Some((dst, msg)) = p {
                if let Some(e) = self.check(src, dst, &inbox) {
                    return Err(e);
                }
                inbox.insert(dst, (src, msg));
            }
        }
        let mut pairs: Vec<_> = inbox.iter().map(|(&dst, &(src, _))| (src, dst)).collect();
        pairs.sort_unstable();
        let phase = self.metrics.phases.len().checked_sub(1).map(|i| i as u32);
        self.trace.push((phase, pairs));
        let before = inbox.len();
        inbox.retain(|dst, _| !self.drops.contains(dst));
        self.drops.clear();
        let dropped = (before - inbox.len()) as u64;
        let delivered = inbox.len();
        let words = inbox.values().map(|(_, msg)| form.words(msg)).sum();
        form.deliver_naive(&mut self.states, inbox, &self.failed, self.order);
        self.metrics.record_comm_words(delivered as u64, words);
        self.metrics.dropped_messages += dropped;
        if F::FOLDS {
            self.metrics.record_comp(1, n as u64);
        }
        Ok(delivered)
    }

    fn compute(&mut self, steps: u64, f: impl Fn(NodeId, &mut S) + Sync) {
        let ops = steps * self.states.len() as u64;
        self.compute_counted(steps, ops, f);
    }

    fn compute_counted(&mut self, steps: u64, element_ops: u64, f: impl Fn(NodeId, &mut S) + Sync) {
        for (u, s) in self.states.iter_mut().enumerate() {
            if !self.failed.contains(&u) {
                f(u, s);
            }
        }
        self.metrics.record_comp(steps, element_ops);
    }

    fn compute_rows<V: Send + Sync, const W: usize, const R: usize>(
        &mut self,
        width: usize,
        mut rows: [&mut [V]; W],
        read: [&[V]; R],
        f: impl Fn(NodeId, [&mut [V]; W], [&[V]; R]) + Sync,
    ) {
        let n = self.states.len();
        assert!(width > 0, "a row compute phase needs at least one lane");
        check_slabs(width, n, rows.iter().map(|r| &**r).chain(read));
        for u in (0..n).filter(|u| !self.failed.contains(u)) {
            let r = self.order.row(u);
            let at = r * width..(r + 1) * width;
            f(
                u,
                rows.each_mut().map(|r| &mut r[at.clone()]),
                read.map(|r| &r[at.clone()]),
            );
        }
        self.metrics.record_comp(1, n as u64);
    }

    /// The rounds as separate [`Comm::fold_pairs`] cycles, which is what
    /// the machine's blocked walk must equal.
    fn try_sweep<V, const W: usize>(
        &mut self,
        width: usize,
        rounds: &[(ScheduleKey, Flip)],
        mut rows: [&mut [V]; W],
        fold: impl Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
    ) -> Result<(), SimError>
    where
        V: Clone + Send + Sync,
    {
        for &(_, flip) in rounds {
            check_pairs(flip, self.states.len(), self.order);
        }
        for &(key, flip) in rounds {
            let rows = rows.each_mut().map(|r| &mut **r);
            self.try_cycle(|c| c.fold_pairs(width, flip, rows, &fold).keyed(key))?;
        }
        Ok(())
    }

    fn setup(&mut self, f: impl Fn(NodeId, &mut S) + Sync) {
        for (u, s) in self.states.iter_mut().enumerate() {
            f(u, s);
        }
    }

    fn set_row_order(&mut self, order: RowOrder) {
        order.check(self.states.len());
        self.order = order;
    }

    fn begin_phase(&mut self, label: impl Into<String>) {
        self.metrics.begin_phase(label);
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        let n = self.states.len();
        for e in plan.events() {
            let ok = match e.kind {
                FaultKind::NodeCrash { node } => node < n,
                FaultKind::LinkDown { a, b } => a < n && b < n,
                FaultKind::MessageDrop { dst } => dst < n,
            };
            assert!(ok, "fault event {} out of range", e.kind);
        }
        self.pending.extend_from_slice(plan.events());
    }

    fn inject_fault(&mut self, kind: FaultKind) {
        self.apply_fault(kind);
    }

    fn states(&self) -> &[S] {
        &self.states
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn phased_trace(&self) -> &[TraceEntry] {
        &self.trace
    }
}

/// `metrics` without what only the engine counts — the schedule cache's
/// hits and misses, and the link utilization a recorder adds: the
/// counters a [`RefMachine`] charges.
pub fn model_counters(metrics: &Metrics) -> Metrics {
    Metrics {
        schedule_hits: 0,
        schedule_misses: 0,
        link_util: LinkUtil::default(),
        ..metrics.clone()
    }
}

/// Panics unless every slab holds `width` values for each of `n` nodes.
fn check_slabs<'s, V: 's>(width: usize, n: usize, mut slabs: impl Iterator<Item = &'s [V]>) {
    assert!(
        slabs.all(|s| s.len() == n * width),
        "every row slab must hold {width} values per node of {n}"
    );
}

/// Row `r` of a slab of `width` values per node.
fn row<V>(slab: &[V], r: usize, width: usize) -> &[V] {
    &slab[r * width..(r + 1) * width]
}

mod naive {
    use super::*;

    /// The reference machine's delivery of a validated cycle: every
    /// message of `inbox` reaches its receiver, read from the pre-cycle
    /// states or slabs; a fold runs at every node not in `failed`; node
    /// `u`'s rows are row `order.row(u)` of each slab.
    pub trait Naive<S>: Form<S> {
        /// Delivers `inbox` (receiver → sender, message).
        fn deliver_naive(
            &mut self,
            states: &mut [S],
            inbox: Inbox<Self::Msg>,
            failed: &BTreeSet<NodeId>,
            order: RowOrder,
        );
    }

    impl<S, M, P, D, W> Naive<S> for Message<M, P, D, W>
    where
        Self: Form<S, Msg = M>,
        D: Fn(&mut S, NodeId, M),
    {
        fn deliver_naive(
            &mut self,
            states: &mut [S],
            inbox: Inbox<M>,
            _: &BTreeSet<NodeId>,
            _: RowOrder,
        ) {
            for (dst, (src, msg)) in inbox {
                (self.deliver)(&mut states[dst], src, msg);
            }
        }
    }

    impl<S, V: Clone, P, Fi, D> Naive<S> for Lanes<'_, V, P, Fi, D>
    where
        Self: Form<S, Msg = ()>,
        Fi: Fn(NodeId, &S, &mut [V]),
        D: Fn(&mut S, NodeId, &mut [V]),
    {
        fn deliver_naive(
            &mut self,
            states: &mut [S],
            inbox: Inbox<()>,
            _: &BTreeSet<NodeId>,
            _: RowOrder,
        ) {
            let windows: Vec<_> = inbox
                .into_iter()
                .map(|(dst, (src, ()))| {
                    let mut window = vec![self.seed.clone(); self.lanes];
                    (self.fill)(src, &states[src], &mut window);
                    (dst, src, window)
                })
                .collect();
            for (dst, src, mut window) in windows {
                (self.deliver)(&mut states[dst], src, &mut window);
            }
        }
    }

    impl<S, V: Clone, P, const N: usize> Naive<S> for Rows<'_, V, P, N>
    where
        Self: Form<S, Msg = ()>,
    {
        fn deliver_naive(
            &mut self,
            states: &mut [S],
            inbox: Inbox<()>,
            _: &BTreeSet<NodeId>,
            order: RowOrder,
        ) {
            let (width, n) = (self.width, states.len());
            let slabs = self.pairs.iter().flat_map(|(s, d)| [*s, &**d]);
            check_slabs(width, n, slabs);
            for (source, dest) in &mut self.pairs {
                for (&dst, &(src, ())) in &inbox {
                    let to = order.row(dst);
                    dest[to * width..(to + 1) * width].clone_from_slice(row(
                        source,
                        order.row(src),
                        width,
                    ));
                }
            }
        }
    }

    impl<S, V: Clone, P, Fo, const W: usize, const R: usize> Naive<S> for FoldRows<'_, V, P, Fo, W, R>
    where
        Self: Form<S, Msg = ()>,
        Fo: Fn(NodeId, [&mut [V]; W], [&[V]; R], Option<&[V]>),
    {
        fn deliver_naive(
            &mut self,
            states: &mut [S],
            inbox: Inbox<()>,
            failed: &BTreeSet<NodeId>,
            order: RowOrder,
        ) {
            let (width, n) = (self.width, states.len());
            let FoldRows {
                from,
                rows,
                read,
                fold,
                ..
            } = self;
            let slabs = rows.iter().map(|r| &**r).chain(read.iter().copied());
            check_slabs(width, n, slabs.chain([*from]));
            for u in (0..n).filter(|u| !failed.contains(u)) {
                let r = order.row(u);
                let at = r * width..(r + 1) * width;
                let msg = inbox
                    .get(&u)
                    .map(|&(src, ())| row(from, order.row(src), width));
                fold(
                    u,
                    rows.each_mut().map(|r| &mut r[at.clone()]),
                    read.map(|r| &r[at.clone()]),
                    msg,
                );
            }
        }
    }

    impl<S, V: Clone, Fo, const W: usize> Naive<S> for FoldPairs<'_, V, Fo, W>
    where
        Self: Form<S, Msg = ()>,
        Fo: Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]),
    {
        /// Every node folds on its own, as `lo` or `hi` of a run of one
        /// pair, against a copy of its partner built from its own
        /// pre-cycle rows, with the partner's first-slab row in place
        /// only when the message arrived (see the [module docs](super)).
        fn deliver_naive(
            &mut self,
            states: &mut [S],
            inbox: Inbox<()>,
            _: &BTreeSet<NodeId>,
            order: RowOrder,
        ) {
            let (width, n) = (self.width, states.len());
            check_slabs(width, n, self.rows.iter().map(|r| &**r));
            let before: Vec<Vec<V>> = self.rows.iter().map(|r| r.to_vec()).collect();
            let own = |u| -> [Vec<V>; W] {
                std::array::from_fn(|k| row(&before[k], order.row(u), width).to_vec())
            };
            for u in 0..n {
                let v = self.flip.partner(u);
                let got = inbox.contains_key(&u);
                let mut near = own(u);
                let mut far = own(u);
                if got {
                    far[0] = row(&before[0], order.row(v), width).to_vec();
                }
                let (lo, hi) = (u.min(v), u.max(v));
                let flags = [inbox.contains_key(&lo), inbox.contains_key(&hi)];
                let (lo_rows, hi_rows) = if u == lo {
                    (&mut near, &mut far)
                } else {
                    (&mut far, &mut near)
                };
                (self.fold)(
                    lo_rows.each_mut().map(|r| &mut r[..]),
                    hi_rows.each_mut().map(|r| &mut r[..]),
                    flags,
                );
                let at = order.row(u) * width;
                for (slab, kept) in self.rows.iter_mut().zip(&near) {
                    slab[at..at + width].clone_from_slice(kept);
                }
            }
        }
    }
}

pub(crate) use naive::Naive;
