//! Scripted fault injection for the cycle engine.
//!
//! The paper's model assumes a pristine network, but the dual-cube
//! literature it builds on (Lee & Hayes' fault-tolerant communication
//! scheme, the κ(D_n) = n connectivity results) is about surviving
//! failures. A [`FaultPlan`] scripts *when* things break — node crashes,
//! link cuts, transient message drops — on the machine's communication
//! cycle timeline, and [`crate::Machine::set_fault_plan`] arms it:
//!
//! * **Node crash** ([`FaultKind::NodeCrash`]): from its cycle on, the
//!   node neither sends nor receives (any plan touching it fails the
//!   cycle with [`SimError::NodeFailed`](crate::SimError::NodeFailed))
//!   and its state is frozen — computation phases skip it.
//! * **Link down** ([`FaultKind::LinkDown`]): the edge stays in the
//!   topology but refuses traffic; a plan routing a message across it
//!   fails with [`SimError::LinkDown`](crate::SimError::LinkDown).
//! * **Message drop** ([`FaultKind::MessageDrop`]): *transient* loss —
//!   every message addressed to the named node in the event's cycle is
//!   silently discarded after validation (the cycle still succeeds; the
//!   sender cannot tell). Counted in
//!   [`Metrics::dropped_messages`](crate::Metrics::dropped_messages).
//!
//! Events apply at **communication-cycle boundaries**: before the cycle
//! whose 0-based index (the machine's
//! [`comm_steps`](crate::Metrics::comm_steps) so far) reaches
//! `at_cycle`, deterministically on every backend and worker count.
//!
//! # Faults and the schedule cache: the epoch rule
//!
//! Crashes and link cuts change which communication patterns are legal,
//! so each one bumps the machine's monotonically increasing **fault
//! epoch**. Compiled schedules are stamped with the epoch they were
//! validated under, and the cache refuses to serve a schedule from an
//! older epoch: the next keyed cycle *recompiles* under full validation
//! (surfacing [`NodeFailed`](crate::SimError::NodeFailed) /
//! [`LinkDown`](crate::SimError::LinkDown) if the pattern is now
//! illegal) instead of replaying a pattern whose legality proof is
//! stale. Message drops are transient and do not bump the epoch — a
//! replayed cycle simply loses the dropped deliveries.

use dc_topology::NodeId;
use std::fmt;

/// What breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Node `node` crashes: it stops sending, receiving, and computing,
    /// and its state freezes. Permanent; bumps the fault epoch.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// The link `{a, b}` goes down in both directions. Permanent; bumps
    /// the fault epoch.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Every message addressed to `dst` in the event's cycle is lost
    /// in flight. Transient (one cycle); does **not** bump the epoch.
    MessageDrop {
        /// The receiver whose inbound messages are dropped.
        dst: NodeId,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::NodeCrash { node } => write!(f, "node {node} crashes"),
            FaultKind::LinkDown { a, b } => write!(f, "link {{{a}, {b}}} goes down"),
            FaultKind::MessageDrop { dst } => write!(f, "messages to {dst} dropped"),
        }
    }
}

/// One scripted fault, applied at a communication-cycle boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// 0-based communication-cycle index at whose boundary the fault
    /// takes effect (i.e. before the cycle that would be the machine's
    /// `at_cycle`-th communication step runs).
    pub at_cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic script of fault events on the communication-cycle
/// timeline. Build one with the chainable constructors and arm it with
/// [`crate::Machine::set_fault_plan`]; the same plan against the same
/// program produces bit-identical behaviour on every backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a node crash at the given cycle boundary.
    pub fn node_crash(mut self, at_cycle: u64, node: NodeId) -> Self {
        self.events.push(FaultEvent {
            at_cycle,
            kind: FaultKind::NodeCrash { node },
        });
        self
    }

    /// Adds a link cut at the given cycle boundary.
    pub fn link_down(mut self, at_cycle: u64, a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "a link needs two distinct endpoints");
        self.events.push(FaultEvent {
            at_cycle,
            kind: FaultKind::LinkDown { a, b },
        });
        self
    }

    /// Adds a one-cycle message drop: messages addressed to `dst` in
    /// communication cycle `at_cycle` are lost.
    pub fn message_drop(mut self, at_cycle: u64, dst: NodeId) -> Self {
        self.events.push(FaultEvent {
            at_cycle,
            kind: FaultKind::MessageDrop { dst },
        });
        self
    }

    /// `count` distinct node crashes at seed-deterministic cycles in
    /// `cycle_window` and seed-deterministic distinct victims below
    /// `num_nodes` — the scripted-random scenario generator the fault
    /// experiments and proptests share. Same inputs ⇒ same plan, on any
    /// host.
    ///
    /// Panics if `count > num_nodes` or the window is empty.
    pub fn random_crashes(
        seed: u64,
        count: usize,
        num_nodes: usize,
        cycle_window: std::ops::Range<u64>,
    ) -> Self {
        assert!(count <= num_nodes, "cannot crash more nodes than exist");
        assert!(!cycle_window.is_empty(), "empty fault window");
        let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            // splitmix64: tiny, seed-stable, no external dependency.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let span = cycle_window.end - cycle_window.start;
        let mut victims: Vec<NodeId> = Vec::with_capacity(count);
        let mut plan = FaultPlan::new();
        while victims.len() < count {
            let node = (next() % num_nodes as u64) as NodeId;
            if victims.contains(&node) {
                continue;
            }
            victims.push(node);
            let at_cycle = cycle_window.start + next() % span;
            plan = plan.node_crash(at_cycle, node);
        }
        plan
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The machine's live fault state: armed events plus the accumulated
/// damage. Owned by the machine; applied at communication-cycle
/// boundaries. Cloning a machine clones its fault state (damage and
/// pending script alike) — a clone continues the same scenario.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Pending scripted events, sorted by `at_cycle` (stable, so
    /// same-cycle events apply in insertion order); `next` indexes the
    /// first unapplied one.
    pending: Vec<FaultEvent>,
    next: usize,
    /// Crash mask, packed 64 nodes per word (bit `u & 63` of word
    /// `u >> 6`) — 128 KiB for the 8M-node D_12 where a `Vec<bool>` costs
    /// 8 MiB. Lazily allocated on the first crash, so fault-free machines
    /// pay nothing.
    failed: Vec<u64>,
    any_failed: bool,
    /// The crashed nodes, in the order they crashed: the list a matching
    /// cycle's closed-form validation walks instead of the mask.
    crashed: Vec<NodeId>,
    /// Downed links, endpoint-normalised (`a < b`). A handful at most;
    /// linear scan.
    links: Vec<(NodeId, NodeId)>,
    /// Receivers whose inbound messages drop in the cycle about to run.
    /// Cleared when a cycle completes (kept armed across a *failed*
    /// cycle, so an erroring probe does not eat the drop).
    drops: Vec<NodeId>,
    /// Monotonically increasing epoch: bumped by every crash and link
    /// cut (never by drops). The schedule cache mirrors it.
    epoch: u64,
}

impl FaultState {
    pub(crate) const fn new() -> Self {
        FaultState {
            pending: Vec::new(),
            next: 0,
            failed: Vec::new(),
            any_failed: false,
            crashed: Vec::new(),
            links: Vec::new(),
            drops: Vec::new(),
            epoch: 0,
        }
    }

    /// Arms `plan`'s events (merged with whatever is still pending,
    /// re-sorted stably by cycle). `num_nodes` validates ids up front.
    pub(crate) fn arm(&mut self, plan: FaultPlan, num_nodes: usize) {
        for e in plan.events() {
            let ok = match e.kind {
                FaultKind::NodeCrash { node } => node < num_nodes,
                FaultKind::LinkDown { a, b } => a < num_nodes && b < num_nodes,
                FaultKind::MessageDrop { dst } => dst < num_nodes,
            };
            assert!(ok, "fault event {} out of range", e.kind);
        }
        self.pending.drain(..self.next);
        self.next = 0;
        self.pending.extend(plan.events.iter().copied());
        self.pending.sort_by_key(|e| e.at_cycle);
    }

    /// Applies one fault immediately. Returns whether the epoch bumped.
    pub(crate) fn apply(&mut self, kind: FaultKind, num_nodes: usize) -> bool {
        match kind {
            FaultKind::NodeCrash { node } => {
                assert!(node < num_nodes, "fault event {kind} out of range");
                let words = num_nodes.div_ceil(64);
                if self.failed.len() != words {
                    self.failed.resize(words, 0);
                }
                let bit = 1u64 << (node & 63);
                if self.failed[node >> 6] & bit == 0 {
                    self.failed[node >> 6] |= bit;
                    self.any_failed = true;
                    self.crashed.push(node);
                    self.epoch += 1;
                    return true;
                }
                false
            }
            FaultKind::LinkDown { a, b } => {
                assert!(
                    a < num_nodes && b < num_nodes && a != b,
                    "fault event {kind} out of range"
                );
                let key = (a.min(b), a.max(b));
                if !self.links.contains(&key) {
                    self.links.push(key);
                    self.epoch += 1;
                    return true;
                }
                false
            }
            FaultKind::MessageDrop { dst } => {
                assert!(dst < num_nodes, "fault event {kind} out of range");
                if !self.drops.contains(&dst) {
                    self.drops.push(dst);
                }
                false
            }
        }
    }

    /// Applies every pending event whose `at_cycle` has been reached
    /// (`now` = communication cycles completed so far). Idempotent per
    /// boundary; allocation-free when nothing is pending. Returns
    /// whether the epoch bumped.
    pub(crate) fn advance(&mut self, now: u64, num_nodes: usize) -> bool {
        let mut bumped = false;
        while let Some(e) = self.pending.get(self.next) {
            if e.at_cycle > now {
                break;
            }
            let kind = e.kind;
            self.next += 1;
            bumped |= self.apply(kind, num_nodes);
        }
        bumped
    }

    #[inline]
    pub(crate) fn is_failed(&self, u: NodeId) -> bool {
        self.any_failed && self.failed[u >> 6] >> (u & 63) & 1 == 1
    }

    #[inline]
    pub(crate) fn any_failed(&self) -> bool {
        self.any_failed
    }

    /// Ids of the crashed nodes so far, ascending (empty until the first
    /// crash).
    pub(crate) fn failed_nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.crashed.clone();
        nodes.sort_unstable();
        nodes
    }

    /// The crashed nodes, in the order they crashed.
    pub(crate) fn crashed(&self) -> &[NodeId] {
        &self.crashed
    }

    #[inline]
    pub(crate) fn link_is_down(&self, u: NodeId, v: NodeId) -> bool {
        !self.links.is_empty() && self.links.contains(&(u.min(v), u.max(v)))
    }

    pub(crate) fn links_down(&self) -> &[(NodeId, NodeId)] {
        &self.links
    }

    #[inline]
    pub(crate) fn has_drops(&self) -> bool {
        !self.drops.is_empty()
    }

    #[inline]
    pub(crate) fn dropped(&self, dst: NodeId) -> bool {
        self.drops.contains(&dst)
    }

    /// The receivers whose messages the cycle about to run loses.
    pub(crate) fn drops(&self) -> &[NodeId] {
        &self.drops
    }

    /// Whether no scripted event is due before communication cycle
    /// `end`: every pending event names `end` or later.
    pub(crate) fn quiet_before(&self, end: u64) -> bool {
        self.pending
            .get(self.next)
            .is_none_or(|e| e.at_cycle >= end)
    }

    /// Disarms the one-cycle drops after a cycle actually ran.
    pub(crate) fn clear_drops(&mut self) {
        self.drops.clear();
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_script_events_in_order() {
        let plan = FaultPlan::new()
            .node_crash(3, 1)
            .link_down(5, 0, 2)
            .message_drop(1, 4);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.events()[0].kind, FaultKind::NodeCrash { node: 1 });
        assert_eq!(plan.events()[2].at_cycle, 1);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn random_crashes_are_seed_deterministic_and_distinct() {
        let a = FaultPlan::random_crashes(42, 5, 32, 0..10);
        let b = FaultPlan::random_crashes(42, 5, 32, 0..10);
        assert_eq!(a, b);
        let c = FaultPlan::random_crashes(43, 5, 32, 0..10);
        assert_ne!(a, c, "different seeds should give different plans");
        let mut victims: Vec<_> = a
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::NodeCrash { node } => node,
                other => panic!("unexpected event {other}"),
            })
            .collect();
        assert!(a.events().iter().all(|e| e.at_cycle < 10));
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 5, "victims must be distinct");
    }

    #[test]
    fn state_advances_on_the_cycle_timeline() {
        let mut st = FaultState::new();
        st.arm(
            FaultPlan::new()
                .node_crash(2, 3)
                .link_down(4, 0, 1)
                .message_drop(2, 5),
            8,
        );
        assert!(!st.advance(0, 8));
        assert!(!st.is_failed(3));
        // Boundary 2: the crash applies (epoch bumps) and the drop arms.
        assert!(st.advance(2, 8));
        assert!(st.is_failed(3));
        assert!(st.dropped(5));
        assert_eq!(st.epoch(), 1);
        st.clear_drops();
        assert!(!st.dropped(5));
        // Boundary 4: the link cut.
        assert!(st.advance(4, 8));
        assert!(st.link_is_down(1, 0), "normalised either way round");
        assert_eq!(st.epoch(), 2);
        // Nothing left: advancing further is a no-op.
        assert!(!st.advance(100, 8));
        assert_eq!(st.epoch(), 2);
    }

    #[test]
    fn duplicate_damage_does_not_rebump_the_epoch() {
        let mut st = FaultState::new();
        assert!(st.apply(FaultKind::NodeCrash { node: 1 }, 4));
        assert!(!st.apply(FaultKind::NodeCrash { node: 1 }, 4));
        assert!(st.apply(FaultKind::LinkDown { a: 2, b: 3 }, 4));
        assert!(!st.apply(FaultKind::LinkDown { a: 3, b: 2 }, 4));
        assert_eq!(st.epoch(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_event_rejected() {
        let mut st = FaultState::new();
        st.arm(FaultPlan::new().node_crash(0, 99), 8);
    }
}
