//! # dc-simulator — a synchronous 1-port multicomputer simulator
//!
//! The substrate the paper lacks: both theorems of *Prefix Computation and
//! Sorting in Dual-Cube* (Li, Peng & Chu, ICPP 2008) state step counts
//! under a synchronous, **1-port, bidirectional-channel** communication
//! model ("each node can send and receive at most one message in one clock
//! cycle"), but the paper reports no implementation — "do some simulations
//! and empirical analysis" is its future work. This crate is that
//! simulator.
//!
//! A [`Machine`] holds one state value per node of a
//! [`dc_topology::Topology`] and advances through:
//!
//! * **communication cycles** ([`Machine::try_cycle`] /
//!   [`Machine::cycle`], described by a [`Comm`]) — validated every
//!   cycle: messages must travel along edges, and no node may send or
//!   receive more than one message, so every reported `T_comm` is
//!   simultaneously a machine-checked proof that the algorithm's schedule
//!   is legal under the paper's model. One primitive covers every cycle
//!   the algorithms run: a [`Comm`] moves one message per sender, or `K`
//!   lane values per sender between caller-owned lane slabs (lane-batched
//!   runs, with [`Machine::compute_rows`] as their computation phase),
//!   optionally requires a symmetric matching, and optionally names its
//!   pattern (see the [`comm`] module docs);
//! * **computation cycles** ([`Machine::compute`]) — O(1) local work per
//!   node per cycle, the unit of the theorems' `T_comp`.
//!
//! [`Metrics`] accumulates both counts (plus total messages and
//! fine-grained element-operation counts) with optional per-phase
//! breakdowns used by the worked-example experiments.
//!
//! Fixed communication patterns — the common case in the paper's
//! ascend/descend algorithms — can be named with a [`ScheduleKey`]
//! ([`Comm::keyed`]): the first cycle under a key validates and compiles
//! the pattern, later cycles replay it without the sequential validation
//! pass while still detecting (and rejecting) any deviation.
//! See the [`schedule`] module docs for why replay cannot weaken the
//! model checking.
//!
//! Faults are first-class: a [`FaultPlan`] scripts seed-deterministic
//! node crashes, link cuts, and message drops on the cycle timeline
//! ([`Machine::set_fault_plan`]), surfacing as [`SimError::NodeFailed`] /
//! [`SimError::LinkDown`] when a schedule touches the damage; each crash
//! or cut bumps a *fault epoch* that invalidates every compiled schedule,
//! so replay can never outlive the fault state that validated it. See the
//! [`fault`] module docs.
//!
//! [`reference::RefMachine`] is a deliberately naive machine with the
//! same semantics — no scratch, shards, threads or schedule cache — that
//! the determinism tests hold every backend, shard count and replay
//! setting to. See the [`reference`](mod@reference) module docs.
//!
//! Observability is opt-in and zero-cost when off: installing a recorder
//! ([`Machine::record_into`], or [`with_recording`] around code that
//! builds machines internally) streams one structured [`Event`] per
//! phase and per cycle into a pluggable [`Sink`], with per-link
//! utilization counters and a Perfetto trace exporter on top. See the
//! [`obs`] module docs.

#![warn(missing_docs)]
// `deny`, not `forbid`: the persistent worker pool (`parallel::pool`) is
// the one module allowed to opt back in with `#[allow(unsafe_code)]` —
// keeping threads parked across fork-join rounds requires erasing the
// job's borrow lifetime, the pattern `std::thread::scope` encapsulates
// (and which made the previous spawn-per-phase backend fully safe, at the
// cost of ~0.3–0.5 ms of thread spawn/join per cycle; EXPERIMENTS.md
// §E22/§E23). Everything outside that module remains unsafe-free.
#![deny(unsafe_code)]

pub mod comm;
mod error;
pub mod fault;
mod machine;
mod metrics;
pub mod obs;
pub mod parallel;
pub mod reference;
pub mod router;
pub mod schedule;

pub use comm::{Comm, Flip, Payload, RowOrder};
pub use error::SimError;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use machine::{Machine, TraceEntry};
pub use metrics::{LinkUtil, Metrics, PhaseMetrics};
pub use obs::{
    with_recording, CycleEvent, Event, JsonlSink, LinkReport, MemorySink, PhaseEvent, Recorder,
    SharedSink, Sink,
};
pub use parallel::{set_worker_threads, with_default_exec, ExecMode};
pub use schedule::{with_schedule_replay, ScheduleBank, ScheduleKey};
