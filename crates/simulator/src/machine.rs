//! The synchronous multicomputer: one state per node, stepped through
//! communication and computation cycles under 1-port validation.

use crate::comm::form::{walk_rounds, Ctx};
use crate::comm::{with_rows, Comm, Flip, Payload, RowOrder};
use crate::error::SimError;
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::metrics::LinkUtil;
use crate::metrics::Metrics;
use crate::obs::{
    Backend, CacheStatus, CycleEvent, CycleKind, Event, LinkReport, PhaseEvent, PoolDispatchStats,
    Recorder, SharedSink,
};
use crate::parallel::{
    par_lane_reduce_bounds, par_range_reduce, par_rows_bounds, par_slab_reduce, ExecMode,
};
use crate::reference::Cycles;
use crate::schedule::{
    AcctPlan, CompiledSchedule, ScheduleBank, ScheduleCache, ScheduleKey, NO_SRC, SENDS_BIT,
};
use dc_topology::{NodeId, ShardMap, Topology};
use std::any::Any;
use std::fmt;
use std::time::Instant;

/// A reusable, type-erased `Vec<E>`: one allocation that survives across
/// cycles for as long as the element type `E` stays the same (the steady
/// state of every cycle loop). A cycle with a new element type swaps in a
/// fresh vector; the old one is dropped. The plan slab instantiates it at
/// `E = Option<(NodeId, Msg)>`; the staging slab at the payload form's
/// slot type — one `Inbox<M>` per node for a moved message, `K` lane
/// values per node for lanes (SoA layout: lane `k` of every node sits at
/// a fixed offset inside its window, so the K-wide compute folds
/// vectorize). Sources travel separately in the dense `u32`
/// `Scratch::srcs` table, so small-`M` payload slots stop paying a
/// `usize` source plus its padding.
struct TypedSlot(Option<Box<dyn Any + Send>>);

impl TypedSlot {
    const fn new() -> Self {
        TypedSlot(None)
    }

    /// The buffer for element type `E`, contents as the last cycle of the
    /// same type left them. Allocates only on first use or when `E`
    /// changed since the previous cycle.
    fn typed<E: Send + Sync + 'static>(&mut self) -> &mut Vec<E> {
        let fresh = match &self.0 {
            Some(b) => !b.is::<Vec<E>>(),
            None => true,
        };
        if fresh {
            self.0 = Some(Box::new(Vec::<E>::new()));
        }
        self.0
            .as_mut()
            .expect("slot populated above")
            .downcast_mut()
            .expect("slot typed above")
    }

    /// The staging slab for slot type `E` at length `len`, **contents
    /// preserved** when the type and length already match, else rebuilt
    /// from `fresh` slots. Skipping the per-cycle prefill is sound for
    /// both payload forms: a message slab stays all-empty between cycles
    /// (delivery takes every staged slot; failed cycles discard theirs),
    /// and stale lane windows are gated off by `Scratch::srcs` — a
    /// staged window is always fully overwritten by `fill` first. That
    /// is the difference between a replayed cycle doing two passes over
    /// the slab and three.
    fn staging<E: Send + Sync + 'static>(
        &mut self,
        len: usize,
        fresh: impl FnMut() -> E,
    ) -> &mut Vec<E> {
        let v = self.typed::<E>();
        if v.len() != len {
            v.clear();
            v.resize_with(len, fresh);
        }
        v
    }
}

/// Per-cycle scratch buffers owned by the machine so that a steady-state
/// cycle performs **zero heap allocations**: the dispatch bounds, the
/// plan slab, the validation passes' plain-`u32` claim table with its
/// exchange bins, the sender table and the staging slab are all reused
/// across cycles (pinned by the counting-allocator test in
/// `tests/zero_alloc.rs`), on both backends — the sequential one is the
/// same engine run over one dispatch slot. Purely transient — contents
/// never survive past the cycle that filled them, so cloning a machine
/// starts the clone with empty scratch and equality/trace semantics are
/// unaffected.
struct Scratch {
    /// The validation passes' claim table: `claims[dst]` = lowest
    /// locally-valid sender targeting `dst` this cycle ([`NO_SRC`] =
    /// none). `u32` — node ids fit by the [`Machine::new`] construction
    /// bound, and halving the table keeps D_10+ validation inside cache.
    /// Plain, **not** atomic: each dispatch slot owns a contiguous node
    /// range and claims only inside it; claims on another slot's range
    /// travel through [`ExchangeRow`] bins instead of `fetch_min`
    /// contention.
    claims: Vec<u32>,
    /// The dispatch bounds of the current pass (slot `k` owns nodes
    /// `bounds[k]..bounds[k+1]`): `[0, n]` on the sequential backend,
    /// else the shard map's slots for the worker count (≤ 33 entries —
    /// the rebuild is noise, the reuse keeps it allocation-free).
    bounds: Vec<usize>,
    /// Per-slot staging rows for claims on another slot's range
    /// (`exchange[k]` is written only by dispatch slot `k` during pass A
    /// and drained read-only during pass B). Bins keep their capacity
    /// across cycles.
    exchange: Vec<ExchangeRow>,
    /// Plan-phase output slots (`Option<(NodeId, Msg)>` per node), keyed
    /// by the payload form's plan message type. Kept at length `n`
    /// between cycles: the plan pass overwrites every slot, and delivery
    /// takes every message it stages.
    plans: TypedSlot,
    /// The sender table of the deliver phase: `srcs[dst]` is the node
    /// whose message was staged for `dst` this cycle, [`NO_SRC`] when
    /// nothing was staged.
    srcs: Vec<u32>,
    /// The staging slab: `width` slots per node, keyed by the payload
    /// form's slot type (see [`TypedSlot`]).
    stage: TypedSlot,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            claims: Vec::new(),
            bounds: Vec::new(),
            exchange: Vec::new(),
            plans: TypedSlot::new(),
            srcs: Vec::new(),
            stage: TypedSlot::new(),
        }
    }
}

/// One dispatch slot's SPSC staging area for **cross-slot claims**
/// during validation. In pass A slot `k` appends the `(src, dst)` pairs
/// whose destination lives outside its own node range to
/// `bins[slot_of(dst)]` (single producer); in pass B the
/// destination slot drains every row's bin for itself (single consumer,
/// min-merging into its own claim range). No atomics anywhere — the
/// fork-join barrier between the passes is the only synchronisation.
/// Rows and bins keep their capacity across cycles, so the steady state
/// stays allocation-free.
#[derive(Default)]
struct ExchangeRow {
    bins: Vec<Vec<(u32, u32)>>,
}

impl fmt::Debug for Scratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Scratch { .. }")
    }
}

impl Clone for Scratch {
    /// Scratch is transient per-cycle storage; a cloned machine starts
    /// with fresh (empty) buffers.
    fn clone(&self) -> Self {
        Scratch::new()
    }
}

/// Chunk-local accumulator of the deterministic validation / replay
/// reductions: message counters plus the lowest-index violation seen.
/// `Copy` so the per-slot results live in a stack array — the reductions
/// stay allocation-free.
#[derive(Clone, Copy)]
struct CycleAcc {
    delivered: usize,
    words: u64,
    /// Lowest-index violation in this chunk, as `(node index, error)`.
    violation: Option<(usize, SimError)>,
}

impl CycleAcc {
    const EMPTY: CycleAcc = CycleAcc {
        delivered: 0,
        words: 0,
        violation: None,
    };

    /// Records a violation at `index` unless one at a lower (or equal)
    /// index is already held.
    fn violate(&mut self, index: usize, err: SimError) {
        match self.violation {
            Some((held, _)) if held <= index => {}
            _ => self.violation = Some((index, err)),
        }
    }

    /// Fold for the slot-order reduction: counters sum; the
    /// lowest-index violation wins, and on an index tie the **left**
    /// operand's error wins — left is always the earlier slot, or the
    /// earlier validation pass (pass A before pass C, so a sender's
    /// local check outranks a conflict blamed on it, mirroring the
    /// documented per-sender check order).
    fn merge(self, other: CycleAcc) -> CycleAcc {
        let violation = match (self.violation, other.violation) {
            (Some((a, _)), Some((b, _))) => {
                if a <= b {
                    self.violation
                } else {
                    other.violation
                }
            }
            (Some(_), None) => self.violation,
            (None, v) => v,
        };
        CycleAcc {
            delivered: self.delivered + other.delivered,
            words: self.words + other.words,
            violation,
        }
    }
}

/// Observability context threaded from a cycle's public entry point down
/// to the emission site: which [`ScheduleKey`] named the cycle (if any),
/// how the schedule cache treated it, and the wall-clock start captured
/// at the entry point (`None` whenever no recorder is installed, so the
/// disabled path never reads the clock).
#[derive(Clone, Copy)]
struct ObsCtx {
    key: Option<ScheduleKey>,
    cache: CacheStatus,
    start: Option<Instant>,
}

impl ObsCtx {
    fn unkeyed(start: Option<Instant>) -> Self {
        ObsCtx {
            key: None,
            cache: CacheStatus::Unkeyed,
            start,
        }
    }
}

/// One space-time trace entry ([`Machine::phased_trace`]): the index of
/// the metrics phase open when the cycle ran (`None` before the first
/// [`Machine::begin_phase`]) and the `(src, dst)` pairs the cycle
/// delivered.
pub type TraceEntry = (Option<u32>, Vec<(NodeId, NodeId)>);

/// A synchronous message-passing machine over a [`Topology`].
///
/// Algorithms drive the machine through two primitives:
///
/// * [`Machine::try_cycle`] / [`Machine::cycle`] — one communication
///   cycle, described by a [`Comm`]: every node may send one message to
///   one neighbour; the machine validates adjacency and the 1-port
///   constraint (≤1 send, ≤1 receive per node per cycle) before
///   delivering. The descriptor picks the payload form — one moved
///   message per sender, or `K` lane values per sender for lane-batched
///   runs (rows of caller-owned slabs, [`Comm::rows`]) — and optionally
///   requires a symmetric matching ([`Comm::pairwise`], e.g. one
///   dimension of an ascend/descend algorithm) and names the pattern
///   ([`Comm::keyed`]). See the [`crate::comm`] module docs.
/// * [`Machine::compute`] — one computation phase of local work per node,
///   charged as one or more computation cycles ([`Machine::compute_rows`]
///   is the same phase over lane slabs).
///
/// The node-local closures receive only the node's own id and state — the
/// same information a real SPMD process would have — which keeps simulated
/// algorithms honest about what must travel in messages.
///
/// # Keyed cycles: compiled schedules
///
/// The paper's algorithms run *fixed, data-oblivious* communication
/// patterns, repeated across hundreds of cycles. A keyed cycle
/// ([`Comm::keyed`]) names its pattern with a [`ScheduleKey`]: the first
/// cycle under a key runs full validation and compiles the matching;
/// later cycles **replay** it, skipping adjacency queries, the
/// receive-conflict table, and the pairwise symmetry pre-check. Replay
/// still re-evaluates every node's plan against the compiled pattern and
/// rejects any deviation with [`SimError::ScheduleDeviation`], so a key
/// can never launder an invalid schedule — see the [`crate::schedule`]
/// module docs. The one exception needs no evaluation: a pair fold
/// ([`Comm::fold_pairs`]) whose [`Flip`](crate::Flip) equals the one
/// the schedule was compiled with is that matching by construction.
/// Every payload form shares one keyed dispatcher, one full-cycle path
/// and one replay path, monomorphised per form.
///
/// # Execution backend
///
/// Each cycle's per-node work runs over the machine's *dispatch bounds*:
/// ascending node ranges, one per dispatch slot. Under the default
/// [`ExecMode::parallel`], a machine with at least
/// [`crate::parallel::PAR_THRESHOLD`] nodes gets the shard-aligned slots
/// of its shard map, one per host worker; smaller machines, and any
/// machine under [`ExecMode::Sequential`], get the one slot `[0, n]`,
/// which every pass runs inline. The sequential backend is the same
/// engine with one slot. An unkeyed communication cycle splits into
/// three phases:
///
/// 1. **plan** — `plan(u, &state)` for every node, read-only;
/// 2. **validate** — the 1-port matching check, as claim passes over the
///    slots: local checks plus a plain-`u32` lowest-sender claim per
///    receiver (a second claimant in the receiver's own slot is a
///    conflict on the spot; claims on another slot's range are staged in
///    exchange bins), then, only when a bin was staged, a drain of the
///    bins and a conflict pass. Their lowest-node-index violation
///    reduction is the first violation in node order at any worker or
///    shard count, and one slot walks the plans once;
/// 3. **deliver** — receiver-driven: since a validated cycle delivers at
///    most one message per node, messages are staged into a per-node
///    window and each slot mutates only its own nodes' states (a
///    one-slot cycle delivers a moved message straight from the plan
///    slab, in sender order).
///
/// A keyed *replay* cycle collapses plan + validate into one pass (each
/// receiver evaluates its compiled sender's plan straight into its own
/// window) followed by deliver; a pair fold replayed by flip equality
/// skips that pass too and folds straight away.
///
/// Simulated metrics never depend on the backend; the threaded backend is
/// observationally identical and only changes wall-clock time. The naive
/// [`crate::reference::RefMachine`] is the oracle the determinism tests
/// hold both backends to.
///
/// # Fault injection
///
/// [`Machine::set_fault_plan`] arms a scripted [`FaultPlan`] (and
/// [`Machine::inject_fault`] applies one fault immediately): node
/// crashes and link cuts make any cycle whose plan touches the damage
/// fail with [`SimError::NodeFailed`] / [`SimError::LinkDown`] — and
/// bump the machine's *fault epoch*, invalidating every compiled
/// schedule so a pre-fault pattern is recompiled under full validation
/// instead of replayed (see the [`crate::fault`] module docs). Scripted
/// message drops silently lose one cycle's deliveries to a node
/// (counted in [`Metrics::dropped_messages`]). Crashed nodes' states
/// freeze: computation phases skip them. Fault handling is
/// deterministic on every backend; a fault-free machine pays only a
/// couple of flag checks per cycle.
///
/// ```
/// use dc_simulator::Machine;
/// use dc_topology::Hypercube;
///
/// // All-reduce (sum) on Q_3 by dimension sweeps.
/// let q = Hypercube::new(3);
/// let mut m = Machine::new(&q, (0..8u64).collect::<Vec<_>>());
/// for i in 0..3 {
///     m.cycle(|c| {
///         c.message(|u, &s| Some((u ^ (1 << i), s)), |s, _, other| *s += other)
///             .pairwise()
///     });
///     m.compute(1, |_, _| {});
/// }
/// assert!(m.states().iter().all(|&s| s == 28));
/// assert_eq!(m.metrics().comm_steps, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Machine<'t, T: Topology + ?Sized, S> {
    topo: &'t T,
    states: Vec<S>,
    metrics: Metrics,
    trace: Option<Vec<TraceEntry>>,
    exec: ExecMode,
    scratch: Scratch,
    schedules: ScheduleCache,
    replay: bool,
    faults: FaultState,
    recorder: Option<Recorder>,
    /// Cached [`Topology::max_ports`] — the stride of the recorder's flat
    /// port-indexed link table. Computed at most once per machine, and
    /// only on the first recorded delivery (the trait's default sweeps
    /// the whole graph, so unrecorded runs never pay it).
    link_ports: Option<u32>,
    /// Requested worker count; see [`Machine::set_workers`].
    workers: usize,
    /// Requested shard count (`0` = derive from the worker count). See
    /// [`Machine::set_shards`].
    shard_req: usize,
    /// The resolved shard map — sticky once computed (like `link_ports`)
    /// so the partition, and with it every first-touch allocation and
    /// worker affinity, stays fixed for the life of the machine.
    shard_map: Option<ShardMap>,
    /// Which slab row holds each node in the row forms. See
    /// [`Machine::set_row_order`].
    order: RowOrder,
}

/// The flat link-table slot of the undirected link `{src, dst}`:
/// `min · ports + port_of(min, max)` — dense, collision-free (ports are
/// injective per endpoint), and computed with two integer ops plus one
/// closed-form port lookup instead of the hash-map probe the recorder's
/// old keyed rollup paid per message (§E25's ~28 ns/msg tax).
#[inline]
fn link_slot<T: Topology + ?Sized>(topo: &T, ports: u32, src: NodeId, dst: NodeId) -> usize {
    let (a, b) = if src < dst { (src, dst) } else { (dst, src) };
    let port = topo
        .port_of(a, b)
        .expect("validated delivery runs along a live edge");
    a * ports as usize + port as usize
}

/// Flushes one compiled schedule's deferred replay accounting (see
/// `schedule::AcctPlan`) into the recorder's link table: per-dst counts
/// map through the compiled pattern to link slots — one `link_slot`
/// resolution per *touched receiver per flush*, not per message per
/// cycle. Free function so the machine can destructure its fields
/// (recorder, schedule cache, topology) without aliasing.
fn flush_acct_into<T: Topology + ?Sized>(
    topo: &T,
    ports: u32,
    rec: &mut Recorder,
    enc: &[u32],
    acct: &mut AcctPlan,
) {
    if !acct.dirty {
        return;
    }
    for (dst, &m) in acct.msgs.iter().enumerate() {
        if m > 0 {
            let src = (enc[dst] & NO_SRC) as usize;
            let slot = link_slot(topo, ports, src, dst);
            rec.record_link_bulk(slot, m as u64, acct.words[dst], acct.is_cross(dst));
        }
    }
    acct.reset_counts();
}

/// The plan pass over one dispatch slot: `part[i]` becomes the plan of
/// node `start + i`, whose state is `states[i]`.
fn plan_range<S, F: Payload<S>>(
    form: &F,
    states: &[S],
    start: usize,
    part: &mut [Option<(NodeId, F::Msg)>],
) {
    for ((slot, s), u) in part.iter_mut().zip(states).zip(start..) {
        *slot = form.plan(u, s);
    }
}

/// The first pairwise-symmetry violation among the senders in `nodes`:
/// a destination past the machine, or one that does not send back.
fn asymmetry_in<M>(
    plans: &[Option<(NodeId, M)>],
    nodes: std::ops::Range<usize>,
) -> Option<(usize, SimError)> {
    let n = plans.len();
    for u in nodes {
        if let Some((v, _)) = plans[u] {
            if v >= n {
                let e = SimError::OutOfRange {
                    node: v,
                    num_nodes: n,
                };
                return Some((u, e));
            } else if !matches!(plans[v], Some((back, _)) if back == u) {
                return Some((u, SimError::AsymmetricPair { a: u, b: v }));
            }
        }
    }
    None
}

/// Validation pass A over the dispatch slot whose node range starts at
/// `start` and whose claim cells are `chunk` (see `Machine::validate`):
/// resets the cells and the slot's exchange `row`, then walks the
/// slot's senders in node order, stopping at the first violation. A
/// locally valid sender claims its receiver's cell when the receiver is
/// in range (a held cell is a receive conflict), else stages the claim
/// in the bin of the receiver's slot. A separate function, not a
/// closure body, so the tables arrive as arguments the walk may assume
/// unaliased.
#[allow(clippy::too_many_arguments)]
fn claim_range<T: Topology + ?Sized, M>(
    topo: &T,
    faults: &FaultState,
    plans: &[Option<(NodeId, M)>],
    words: &impl Fn(&M) -> u64,
    bounds: &[usize],
    start: usize,
    chunk: &mut [u32],
    row: &mut ExchangeRow,
) -> CycleAcc {
    let n = plans.len();
    chunk.fill(NO_SRC);
    for bin in row.bins.iter_mut() {
        bin.clear();
    }
    let mut acc = CycleAcc::EMPTY;
    let end = start + chunk.len();
    for (p, src) in plans[start..end].iter().zip(start..) {
        let Some((dst, msg)) = p else {
            continue;
        };
        let dst = *dst;
        // The position-independent checks, in the documented order.
        let local = if dst >= n {
            Some(SimError::OutOfRange {
                node: dst,
                num_nodes: n,
            })
        } else if dst == src {
            Some(SimError::SelfMessage { node: src })
        } else if faults.is_failed(src) {
            Some(SimError::NodeFailed { node: src })
        } else if faults.is_failed(dst) {
            Some(SimError::NodeFailed { node: dst })
        } else if !topo.is_edge(src, dst) {
            Some(SimError::NotAdjacent { src, dst })
        } else if faults.link_is_down(src, dst) {
            Some(SimError::LinkDown { src, dst })
        } else {
            None
        };
        if let Some(e) = local {
            acc.violate(src, e);
            break;
        }
        // `src < n < NO_SRC` by the construction bound, so packed claims
        // order exactly like node ids.
        match chunk.get_mut(dst.wrapping_sub(start)) {
            Some(c) if *c != NO_SRC => {
                let first_src = *c as usize;
                let e = SimError::RecvConflict {
                    node: dst,
                    first_src,
                    second_src: src,
                };
                acc.violate(src, e);
                break;
            }
            Some(c) => *c = src as u32,
            None => {
                let dst_slot = bounds.partition_point(|&b| b <= dst) - 1;
                row.bins[dst_slot].push((src as u32, dst as u32));
            }
        }
        acc.delivered += 1;
        acc.words += words(msg);
    }
    acc
}

/// Validation pass C over the senders in `nodes`: the first whose
/// receiver's claim cell names another sender.
fn conflict_in<M>(
    plans: &[Option<(NodeId, M)>],
    claims: &[u32],
    nodes: std::ops::Range<usize>,
) -> Option<(usize, SimError)> {
    let n = plans.len();
    for (p, src) in plans[nodes.clone()].iter().zip(nodes) {
        if let Some((dst, _)) = *p {
            if dst < n && dst != src && claims[dst] as usize != src {
                let e = SimError::RecvConflict {
                    node: dst,
                    first_src: claims[dst] as usize,
                    second_src: src,
                };
                return Some((src, e));
            }
        }
    }
    None
}

impl<'t, T: Topology + ?Sized + Sync, S> Machine<'t, T, S> {
    /// Creates a machine with one initial state per node, under the
    /// default [`ExecMode`] (parallel above the size threshold), the
    /// host's worker count, replay on and no recorder.
    ///
    /// Panics unless `states.len() == topo.num_nodes()`.
    pub fn new(topo: &'t T, states: Vec<S>) -> Self {
        assert_eq!(
            states.len(),
            topo.num_nodes(),
            "need exactly one state per node of {}",
            topo.name()
        );
        // Node ids are packed into `u32` machine-wide (compiled
        // schedules, the split inbox's source array, claim tables), with
        // the top bit reserved for schedule flags: 2^31 − 1 nodes is the
        // hard ceiling, far above D_12's 8.4M.
        assert!(
            states.len() < NO_SRC as usize,
            "{} has {} nodes; this machine packs node ids into u32 and \
             supports at most {} nodes",
            topo.name(),
            states.len(),
            NO_SRC - 1
        );
        Machine {
            topo,
            states,
            metrics: Metrics::new(),
            trace: None,
            exec: ExecMode::default(),
            scratch: Scratch::new(),
            schedules: ScheduleCache::new(),
            replay: true,
            faults: FaultState::new(),
            recorder: None,
            link_ports: None,
            workers: 0,
            shard_req: 0,
            shard_map: None,
            order: RowOrder::NODE,
        }
    }

    /// Sets which row of a caller-owned lane slab holds each node in
    /// every later row cycle ([`Comm::rows`], [`Comm::fold_rows`],
    /// [`Comm::fold_pairs`], [`Machine::sweep`]) and
    /// [`Machine::compute_rows`]: node `u`'s row becomes
    /// `order.row(u)`. Plans, matchings, keys, compiled schedules,
    /// traces, events and faults stay in node ids, so a program run under
    /// an order leaves the slabs of its node-order run with their rows
    /// permuted by the order, and everything else as it was. The
    /// default is [`RowOrder::NODE`].
    ///
    /// ```
    /// use dc_simulator::{Machine, RowOrder};
    /// use dc_topology::DualCube;
    ///
    /// let d = DualCube::new(2); // 8 nodes: class bit 2, 1-bit fields
    /// let mut m = Machine::new(&d, vec![(); 8]);
    /// m.set_row_order(RowOrder::swap_class_fields(1));
    /// // Node 5 (class 1, fields 0 and 1) sits in row 6.
    /// let mut rows = vec![0u64; 8];
    /// m.compute_rows(1, [&mut rows[..]], [], |u, [row], []| row[0] = u as u64);
    /// assert_eq!(rows, [0, 1, 2, 3, 4, 6, 5, 7]);
    /// ```
    ///
    /// # Panics
    ///
    /// If the order does not fit the machine (a swap's class bit must be
    /// the top address bit).
    pub fn set_row_order(&mut self, order: RowOrder) {
        order.check(self.states.len());
        self.order = order;
    }

    /// The flat link-table stride, computed lazily (only recorded cycles
    /// call this). `max(1)` so degenerate single-node topologies still
    /// index safely. Also the recorder's cue to segment its link table
    /// along the shard map (one segment per shard's min-endpoint slot
    /// range), so segment allocation is first-touch per shard.
    fn link_ports(&mut self) -> u32 {
        let p = match self.link_ports {
            Some(p) => p,
            None => {
                let p = self.topo.max_ports().max(1);
                self.link_ports = Some(p);
                p
            }
        };
        let chunk = self.shard_map().chunk();
        if let Some(rec) = self.recorder.as_mut() {
            rec.configure_links(chunk.saturating_mul(p as usize));
        }
        p
    }

    /// Sets the shard count for the sharded cycle engine: `0` derives it
    /// from the worker count (the default), otherwise `count` must be 1
    /// or a power of 4 — the paper's Section-4 recursion splits `D_n`
    /// into four `D_(n-1)` copies per level, and the shard map keys off
    /// the same top address bits (see `dc_topology::ShardMap`).
    ///
    /// Sharding is an execution-layout knob like [`Machine::set_exec`]:
    /// states, metrics, traces, and error reports are bit-identical at
    /// every `S` (pinned by `tests/shard_determinism.rs`); only memory
    /// locality and wall-clock change. Takes effect from the next cycle;
    /// the map resolves once and then stays fixed for the machine's life.
    pub fn set_shards(&mut self, count: usize) {
        assert!(
            count == 0 || (count.is_power_of_two() && count.trailing_zeros().is_multiple_of(2)),
            "shard count must be 0 (auto), 1, or a power of 4, got {count}"
        );
        self.shard_req = count;
        self.shard_map = None;
    }

    /// The shard count: the sticky resolved value once a cycle (or
    /// `Machine::shard_map`) has pinned the map, otherwise the value
    /// auto mode *would* resolve to right now. A plain getter — shared
    /// references (fleet introspection, report builders) can ask without
    /// mutating the machine; resolution itself still happens lazily on
    /// the first cycle.
    pub fn shards(&self) -> usize {
        match self.shard_map {
            Some(map) => map.count(),
            None => self.resolve_shard_count(),
        }
    }

    /// The shard count the next [`Machine::shard_map`] resolution will
    /// pick: the requested count, or — in auto mode — the smallest power
    /// of 4 covering the machine's worker count (capped at 64), so every
    /// worker can own at least one whole shard. Pure: reads, never
    /// caches.
    fn resolve_shard_count(&self) -> usize {
        match self.shard_req {
            0 => {
                let workers = self.workers();
                let mut s = 1usize;
                while s < workers && s < 64 {
                    s *= 4;
                }
                s
            }
            c => c,
        }
    }

    /// The machine's shard map, resolved on first use and sticky after
    /// (see [`Machine::resolve_shard_count`] for the auto-mode rule).
    fn shard_map(&mut self) -> ShardMap {
        match self.shard_map {
            Some(map) => map,
            None => {
                let map = ShardMap::new(self.states.len(), self.resolve_shard_count());
                self.shard_map = Some(map);
                map
            }
        }
    }

    /// Whether cycles run on the threaded backend.
    fn threaded(&self) -> bool {
        self.exec.is_parallel_for(self.states.len()) && self.workers() > 1
    }

    /// Rebuilds `scratch.bounds`, the dispatch slots of the next pass:
    /// the shard map's slots for the machine's worker count on the
    /// threaded backend, else the one slot `[0, n]`. Besides labelling
    /// events, this is the only place the backend is read.
    fn dispatch_bounds(&mut self) {
        if self.threaded() {
            let map = self.shard_map();
            map.slot_bounds_into(self.workers(), &mut self.scratch.bounds);
        } else {
            self.scratch.bounds.clear();
            self.scratch.bounds.extend([0, self.states.len()]);
        }
    }

    /// [`Machine::new`] with an explicit execution backend.
    pub fn with_exec(topo: &'t T, states: Vec<S>, exec: ExecMode) -> Self {
        let mut m = Machine::new(topo, states);
        m.exec = exec;
        m
    }

    /// The current execution backend.
    pub fn exec(&self) -> ExecMode {
        self.exec
    }

    /// Switches the execution backend. Takes effect from the next cycle;
    /// results and metrics are identical under every mode (the backends
    /// are observationally equivalent — see the determinism tests).
    pub fn set_exec(&mut self, exec: ExecMode) {
        self.exec = exec;
    }

    /// The threaded backend's worker count: the one set with
    /// [`Machine::set_workers`], or the host's when that is `0`.
    pub fn workers(&self) -> usize {
        match self.workers {
            0 => crate::parallel::available_threads(),
            n => n,
        }
    }

    /// Sets how many dispatch slots the threaded backend splits each pass
    /// into, from the next cycle (`0`, the default, takes the host's
    /// count; capped at 32); automatic sharding derives its count from
    /// it. Like the backend it changes wall-clock, never results, and
    /// `n > 1` on a single-core host still drives the cross-thread paths.
    pub fn set_workers(&mut self, n: usize) {
        self.workers = n.min(crate::parallel::MAX_THREADS);
    }

    /// Whether keyed cycles use the schedule cache (see
    /// [`Machine::set_schedule_replay`]).
    pub fn schedule_replay(&self) -> bool {
        self.replay
    }

    /// Enables or disables schedule capture-and-replay for keyed cycles
    /// ([`Comm::keyed`]). Off, every keyed cycle takes the full
    /// validate-every-cycle path (the A/B baseline); results, traces, and
    /// step metrics are identical either way — only wall-clock and the
    /// [`Metrics::schedule_hits`] / [`Metrics::schedule_misses`]
    /// observability counters differ. Enabled by default.
    pub fn set_schedule_replay(&mut self, enabled: bool) {
        self.replay = enabled;
    }

    /// Number of compiled schedules currently cached.
    pub fn compiled_schedules(&self) -> usize {
        self.schedules.len()
    }

    /// Drops every compiled schedule. The next cycle under each key
    /// recompiles (and counts a [`Metrics::schedule_misses`]). Never
    /// needed for correctness — replay re-checks the pattern every cycle
    /// — but useful to re-measure cold-cache behaviour.
    pub fn clear_schedules(&mut self) {
        self.flush_deferred_links();
        self.schedules.clear();
    }

    /// Installs the compiled schedules of a [`ScheduleBank`] into this
    /// machine, so its keyed cycles replay patterns a *previous* machine
    /// over the same topology validated — the serving fleet's way of
    /// keeping schedule warmth across requests whose state types differ.
    /// The bank is drained; [`Machine::donate_schedules`] refills it when
    /// this machine's run ends.
    ///
    /// Panics if the bank was warmed on a different node count, if this
    /// machine has already compiled schedules of its own (merge order
    /// would be ambiguous — adopt before the first keyed cycle), or if
    /// its fault epoch has moved (banks carry fault-free compilations
    /// only; epoch numbering is per-machine). Adopting a bank from a
    /// different same-sized topology cannot corrupt results — replay
    /// re-checks the pattern every cycle and deviations fail the cycle —
    /// but the per-link accounting classification assumes the compiling
    /// topology, so keep one bank per topology.
    pub fn adopt_schedules(&mut self, bank: &mut ScheduleBank) {
        if bank.entries.is_empty() {
            return;
        }
        assert_eq!(
            bank.nodes,
            self.states.len(),
            "schedule bank was warmed on {} nodes but this machine has {}",
            bank.nodes,
            self.states.len()
        );
        assert_eq!(
            self.faults.epoch(),
            0,
            "schedule banks only serve machines whose fault epoch is 0"
        );
        assert_eq!(
            self.schedules.len(),
            0,
            "adopt a schedule bank before the machine compiles its own schedules"
        );
        self.schedules
            .install_entries(std::mem::take(&mut bank.entries));
    }

    /// Moves this machine's compiled schedules into `bank` (replacing the
    /// bank's contents — the machine's set is a superset of anything it
    /// adopted, since entries are only ever added within an epoch), after
    /// flushing their deferred accounting into the live recorder so no
    /// pending counts leave the machine. The machine's cache is left
    /// empty; the machine itself remains usable (later keyed cycles
    /// simply recompile).
    ///
    /// Panics if the machine's fault epoch has moved — post-fault
    /// schedules are meaningless to other machines (see
    /// [`ScheduleBank`]).
    pub fn donate_schedules(&mut self, bank: &mut ScheduleBank) {
        assert_eq!(
            self.faults.epoch(),
            0,
            "schedule banks only accept fault-free (epoch-0) compilations"
        );
        self.flush_deferred_links();
        let entries = self.schedules.take_entries();
        if entries.is_empty() {
            return;
        }
        bank.entries = entries;
        bank.nodes = self.states.len();
    }

    /// Drains every schedule's deferred replay accounting into the live
    /// recorder's link table (no-op without one). Called wherever a
    /// schedule — or the recorder — is about to leave the machine.
    fn flush_deferred_links(&mut self) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        // Deferred counts only accumulate on recorded replays, which
        // resolve `link_ports` first — so `None` here means no counts.
        let Some(ports) = self.link_ports else {
            return;
        };
        let topo = self.topo;
        for entry in self.schedules.entries_mut() {
            let CompiledSchedule { enc, acct, .. } = entry;
            if let Some(acct) = acct.as_deref_mut() {
                flush_acct_into(topo, ports, rec, enc, acct);
            }
        }
    }

    /// Flushes one schedule's deferred accounting right before the entry
    /// is dropped — the stale-epoch eviction path of the epoch sweep.
    fn flush_retired(&mut self, mut evicted: CompiledSchedule) {
        let CompiledSchedule { enc, acct, .. } = &mut evicted;
        let Some(acct) = acct.as_deref_mut() else {
            return;
        };
        if !acct.dirty || self.recorder.is_none() {
            return;
        }
        let ports = self.link_ports();
        let topo = self.topo;
        if let Some(rec) = self.recorder.as_mut() {
            flush_acct_into(topo, ports, rec, enc, acct);
        }
    }

    /// Arms a scripted [`FaultPlan`]: its events apply at the
    /// communication-cycle boundaries they name (merging with any
    /// still-pending events from earlier plans). See the
    /// [`crate::fault`] module docs for the semantics of each
    /// [`FaultKind`]. Panics if an event names an out-of-range node.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults.arm(plan, self.states.len());
    }

    /// Applies one fault immediately (between cycles), without waiting
    /// for a scripted boundary. A crash or link cut bumps the fault
    /// epoch, invalidating every compiled schedule; a message drop arms
    /// for the next communication cycle only.
    pub fn inject_fault(&mut self, kind: FaultKind) {
        if self.faults.apply(kind, self.states.len()) {
            self.sync_schedule_epoch();
        }
    }

    /// Moves the schedule cache to the fault state's epoch, physically
    /// evicting every schedule compiled under the old one and flushing
    /// each dead entry's pending deferred accounting into the recorder
    /// first. Keeping the sweep here (not in `ScheduleCache`) is what
    /// lets the evicted entries meet the recorder before they drop.
    fn sync_schedule_epoch(&mut self) {
        for dead in self.schedules.set_epoch(self.faults.epoch()) {
            self.flush_retired(dead);
        }
    }

    /// The machine's current fault epoch: 0 until the first crash or
    /// link cut, +1 for each one since. Compiled schedules from earlier
    /// epochs are never replayed (see [`crate::fault`]).
    pub fn fault_epoch(&self) -> u64 {
        self.faults.epoch()
    }

    /// Whether node `u` has crashed (by script or injection).
    pub fn is_failed(&self, u: NodeId) -> bool {
        self.faults.is_failed(u)
    }

    /// Ids of the nodes that have crashed so far, ascending.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.faults.failed_nodes()
    }

    /// The links taken down so far, endpoint-normalised (`a < b`).
    pub fn links_down(&self) -> &[(NodeId, NodeId)] {
        self.faults.links_down()
    }

    /// Applies scripted fault events due at this communication-cycle
    /// boundary (the machine's completed `comm_steps` is the index of
    /// the cycle about to run) and syncs the schedule cache's epoch.
    /// Idempotent per boundary — events are consumed — and free when
    /// nothing is pending.
    fn advance_faults(&mut self) {
        if self
            .faults
            .advance(self.metrics.comm_steps, self.states.len())
        {
            self.sync_schedule_epoch();
        }
    }

    /// Starts recording a space-time trace: each subsequent communication
    /// cycle appends the list of `(src, dst)` messages it delivered,
    /// tagged with the metrics phase active when the cycle ran.
    /// Costly for big machines; meant for the worked-example diagrams.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded space-time trace: one entry per communication cycle
    /// (empty unless [`Machine::enable_trace`] was called before the
    /// cycles ran). Each entry is `(phase, messages)` where `phase`
    /// indexes into [`Metrics::phases`] — the phase open when the cycle
    /// ran, or `None` for cycles before the first
    /// [`Machine::begin_phase`].
    pub fn phased_trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Installs a recorder: every subsequent phase boundary and cycle
    /// emits one structured [`Event`] into `sink`, and per-link
    /// utilization counters start accumulating (see the [`crate::obs`]
    /// module docs). Replaces any previously installed recorder (whose
    /// pending deferred accounting is flushed into it first, so the old
    /// recorder leaves complete).
    pub fn record_into(&mut self, sink: SharedSink) {
        self.flush_deferred_links();
        self.recorder = Some(Recorder::new(sink));
    }

    /// Whether a recorder is currently installed (via
    /// [`Machine::record_into`]).
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Uninstalls the recorder and returns it, so callers can still ask
    /// the detached recorder for its [`Recorder::link_report`]. Any
    /// deferred replay accounting is flushed into it first, so the
    /// detached report is complete. Returns `None` if no recorder was
    /// installed.
    pub fn stop_recording(&mut self) -> Option<Recorder> {
        self.flush_deferred_links();
        self.recorder.take()
    }

    /// The per-link utilization report accumulated so far, or `None` if
    /// no recorder is installed (link accounting only runs while
    /// recording — see [`crate::obs::LinkReport`]). Not-yet-flushed
    /// deferred replay accounting is overlaid on a temporary copy, so
    /// the report is exact at any observation point without mutating
    /// the machine.
    pub fn link_report(&self) -> Option<LinkReport> {
        let rec = self.recorder.as_ref()?;
        let Some(ports) = self.link_ports else {
            return Some(rec.link_report());
        };
        let topo = self.topo;
        Some(rec.link_report_with(|add| {
            for entry in self.schedules.entries() {
                if let Some(acct) = entry.acct.as_deref() {
                    if !acct.dirty {
                        continue;
                    }
                    for (dst, &m) in acct.msgs.iter().enumerate() {
                        if m > 0 {
                            let src = (entry.enc[dst] & NO_SRC) as usize;
                            let slot = link_slot(topo, ports, src, dst);
                            add(slot, m as u64, acct.words[dst], acct.is_cross(dst));
                        }
                    }
                }
            }
        }))
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'t T {
        self.topo
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.states.len()
    }

    /// Immutable view of all node states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of all node states (for out-of-band setup only; does
    /// not count as simulated work).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Consumes the machine, returning final states and metrics.
    pub fn into_parts(self) -> (Vec<S>, Metrics) {
        (self.states, self.metrics)
    }

    /// Accumulated step counts.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Opens a labelled metrics phase (see [`Metrics::begin_phase`]).
    /// With a recorder installed, also emits a [`Event::Phase`] marker
    /// carrying the new phase's index and label.
    pub fn begin_phase(&mut self, label: impl Into<String>) {
        let label = label.into();
        if let Some(rec) = self.recorder.as_mut() {
            let event = Event::Phase(PhaseEvent {
                seq: rec.next_seq(),
                index: self.metrics.phases.len() as u32,
                label: label.clone(),
                at_ns: rec.now_ns(),
            });
            rec.send(&event);
        }
        self.metrics.begin_phase(label);
    }

    /// The index (into [`Metrics::phases`]) of the currently open phase,
    /// or `None` before the first [`Machine::begin_phase`].
    fn current_phase(&self) -> Option<u32> {
        self.metrics.phases.len().checked_sub(1).map(|i| i as u32)
    }

    /// Entry-point half of cycle observability: with no recorder this is
    /// a single `Option` check (no clock read, no allocation — the
    /// zero-cost-when-off contract). With one, it drains any pool
    /// dispatch stats left over from out-of-band work so the cycle's
    /// event sees only its own dispatches, and captures the start time.
    fn obs_cycle_start(&self) -> Option<Instant> {
        self.recorder.as_ref()?;
        let _ = crate::parallel::take_dispatch_stats();
        Some(Instant::now())
    }

    /// The backend label of recorded events.
    fn backend(&self) -> Backend {
        if self.threaded() {
            Backend::Threaded {
                workers: self.workers(),
            }
        } else {
            Backend::Sequential
        }
    }

    /// Emits the [`Event::Cycle`] for a communication cycle that just
    /// charged its metrics. No-op without a recorder.
    fn emit_comm(&mut self, obs: ObsCtx, messages: u64, words: u64, dropped: u64, lanes: u32) {
        if self.recorder.is_none() {
            return;
        }
        let backend = self.backend();
        let phase = self.current_phase();
        let fault_epoch = self.faults.epoch();
        let cycle = self.metrics.comm_steps - 1;
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let (dispatches, queue_ns, exec_ns) = crate::parallel::take_dispatch_stats();
        let event = Event::Cycle(CycleEvent {
            seq: rec.next_seq(),
            kind: CycleKind::Comm,
            cycle,
            steps: 1,
            phase,
            key: obs.key,
            cache: obs.cache,
            fault_epoch,
            messages,
            words,
            dropped,
            lanes,
            ops: 0,
            backend,
            at_ns: rec.now_ns(),
            dur_ns: obs
                .start
                .map(|t| t.elapsed().as_nanos() as u64)
                .unwrap_or(0),
            pool: (dispatches > 0).then_some(PoolDispatchStats {
                dispatches,
                queue_ns,
                exec_ns,
            }),
        });
        rec.send(&event);
    }

    /// Emits the [`Event::Cycle`] for a computation phase that just
    /// charged `steps` cycles and `ops` element operations. No-op
    /// without a recorder.
    fn emit_comp(&mut self, start: Option<Instant>, steps: u64, ops: u64) {
        if self.recorder.is_none() {
            return;
        }
        let backend = self.backend();
        let phase = self.current_phase();
        let fault_epoch = self.faults.epoch();
        let cycle = self.metrics.comp_steps - steps;
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let (dispatches, queue_ns, exec_ns) = crate::parallel::take_dispatch_stats();
        let event = Event::Cycle(CycleEvent {
            seq: rec.next_seq(),
            kind: CycleKind::Comp,
            cycle,
            steps,
            phase,
            key: None,
            cache: CacheStatus::Unkeyed,
            fault_epoch,
            messages: 0,
            words: 0,
            dropped: 0,
            lanes: 1,
            ops,
            backend,
            at_ns: rec.now_ns(),
            dur_ns: start.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
            pool: (dispatches > 0).then_some(PoolDispatchStats {
                dispatches,
                queue_ns,
                exec_ns,
            }),
        });
        rec.send(&event);
    }

    /// One communication cycle, described by the [`Comm`] that `comm`
    /// builds from the blank descriptor it is handed — a payload form
    /// ([`Comm::message`] or [`Comm::lanes`]), optionally
    /// [`Comm::pairwise`] and [`Comm::keyed`]; see the [`crate::comm`]
    /// module docs. Returns the number of messages delivered.
    ///
    /// Steady-state cycles are **allocation-free** (with tracing off): the
    /// plan, validation, and staging buffers live in machine-owned scratch
    /// storage and are reused across cycles, so a cycle loop touches the
    /// heap only on its first iteration, on a keyed cycle's compile, or
    /// when the payload type changes between cycles.
    ///
    /// # Errors
    ///
    /// Any violation of the 1-port synchronous model. A pairwise cycle
    /// first checks symmetry, in node order, over the whole matching
    /// ([`SimError::AsymmetricPair`], or [`SimError::OutOfRange`] for a
    /// partner past the machine). Then each sender in node order is
    /// checked for an id out of range, a message to itself, a failed
    /// endpoint, a non-neighbour, a downed link, and last a second
    /// message converging on its receiver. A keyed cycle replaying its
    /// compiled schedule instead fails with
    /// [`SimError::ScheduleDeviation`] for the lowest node whose plan
    /// left the pattern. Reports are identical on every backend, worker
    /// count and shard count. On error the cycle is *not* applied and no
    /// step is counted, so a test can probe illegal schedules without
    /// corrupting the machine.
    ///
    /// A [`Comm::fold_rows`] or [`Comm::fold_pairs`] cycle that succeeds
    /// is also charged the computation step its delivery ran (see
    /// there).
    ///
    /// # Panics
    ///
    /// If a [`Comm::fold_pairs`] cycle's by-class
    /// [`Flip`](crate::Flip) selects its class by a bit other than the
    /// top address bit, or its flip is not a bit flip of rows under the
    /// machine's [`RowOrder`]; nothing is charged first.
    pub fn try_cycle<F: Payload<S>>(
        &mut self,
        comm: impl FnOnce(Comm<S>) -> Comm<S, F>,
    ) -> Result<usize, SimError>
    where
        S: Send + Sync,
    {
        let mut comm = comm(Comm::blank());
        if let Some((flip, _)) = comm.form.flip() {
            self.check_flip(flip);
        }
        let delivered = self.run_comm(&mut comm)?;
        if F::FOLDS {
            // The fold ran inside the delivery; its computation step
            // follows the cycle's, as `compute_rows` after a rows cycle
            // would. Its event carries no duration of its own: the
            // cycle's covers the fold.
            let (start, ops) = (self.obs_cycle_start(), self.states.len() as u64);
            self.metrics.record_comp(1, ops);
            self.emit_comp(start, 1, ops);
        }
        Ok(delivered)
    }

    /// The communication half of [`Machine::try_cycle`]: due faults, then
    /// the keyed dispatch to the full or the replay path.
    fn run_comm<F: Payload<S>>(&mut self, comm: &mut Comm<S, F>) -> Result<usize, SimError>
    where
        S: Send + Sync,
    {
        let start = self.obs_cycle_start();
        // Apply due fault events *before* consulting the cache: a crash
        // at this boundary bumps the epoch and must veto the replay.
        self.advance_faults();
        let Some(key) = comm.key else {
            return self.full_cycle(&mut comm.form, comm.pairwise, None, ObsCtx::unkeyed(start));
        };
        let obs = |cache| ObsCtx {
            key: Some(key),
            cache,
            start,
        };
        if !self.replay {
            return self.full_cycle(
                &mut comm.form,
                comm.pairwise,
                None,
                obs(CacheStatus::Bypass),
            );
        }
        if let Some(compiled) = self.schedules.get(key).map(|s| s.flip) {
            // A pair fold whose flip equals the compiled one is the
            // compiled matching by construction; anything else proves
            // it node by node.
            let result = match comm.form.flip() {
                Some((flip, words)) if compiled == Some(flip) => {
                    self.flip_cycle(key, words, &mut comm.form, obs(CacheStatus::Hit))
                }
                _ => self.replay_cycle(key, &mut comm.form, obs(CacheStatus::Hit)),
            };
            if result.is_ok() {
                self.metrics.schedule_hits += 1;
            }
            result
        } else {
            let result = self.full_cycle(
                &mut comm.form,
                comm.pairwise,
                Some(key),
                obs(CacheStatus::Miss),
            );
            if result.is_ok() {
                self.metrics.schedule_misses += 1;
            }
            result
        }
    }

    /// [`Machine::try_cycle`] that panics on a model violation — the form
    /// algorithm implementations use, since their schedules are supposed
    /// to be legal by construction.
    ///
    /// ```
    /// use dc_simulator::{Machine, ScheduleKey};
    /// use dc_topology::Hypercube;
    ///
    /// let q = Hypercube::new(3);
    /// let mut m = Machine::new(&q, (0..8u64).collect::<Vec<_>>());
    /// for sweep in 0..2 {
    ///     for i in 0..3u32 {
    ///         m.cycle(|c| {
    ///             c.message(move |u, &s| Some((u ^ (1 << i), s)), |s, _, v| *s += v)
    ///                 .pairwise()
    ///                 .keyed(ScheduleKey::Dim(i))
    ///         });
    ///     }
    /// }
    /// // The second sweep replayed the three patterns the first compiled.
    /// assert_eq!(m.metrics().schedule_misses, 3);
    /// assert_eq!(m.metrics().schedule_hits, 3);
    /// ```
    #[track_caller]
    pub fn cycle<F: Payload<S>>(&mut self, comm: impl FnOnce(Comm<S>) -> Comm<S, F>) -> usize
    where
        S: Send + Sync,
    {
        match self.try_cycle(comm) {
            Ok(count) => count,
            Err(e) => panic!("communication-model violation: {e}"),
        }
    }

    /// Runs `rounds` pair-fold rounds over one set of slabs with one
    /// fold, in order: round `(key, flip)` is the cycle
    /// `c.fold_pairs(width, flip, rows, &fold).keyed(key)` (see
    /// [`Comm::fold_pairs`]), and each is charged, traced and recorded
    /// exactly as that cycle is: one communication step, one computation
    /// step, the same words, and a schedule hit or miss.
    ///
    /// When every round would replay by flip equality and no fault can
    /// change between rounds (no armed drop, no fault-plan event due
    /// inside the sweep), and no recorder is installed, the machine walks
    /// the rows one **block** at a time through all rounds: a block is
    /// the smallest aligned row range closed under every round's flip,
    /// so blocks never exchange a value, and each stays in cache while
    /// its rounds run. Under the dual-cube's data order
    /// ([`RowOrder::swap_class_fields`]) a sweep of cluster dimensions
    /// walks one cluster at a time; in node order a class-1 cluster is
    /// strided, so class 1's block is its whole half; on a hypercube a
    /// sweep of every dimension is one block. On the threaded backend
    /// each dispatch slot walks the blocks inside its own rows, and
    /// blocks straddling two slots walk afterwards on the calling
    /// thread. Otherwise — a compile, a replay by plan, replay off, a
    /// drop or a due fault, or a recorded run, whose cycles each keep
    /// their own event and duration — the rounds run as separate cycles,
    /// with their validation and errors.
    ///
    /// ```
    /// use dc_simulator::{Flip, Machine, ScheduleKey};
    /// use dc_topology::Hypercube;
    ///
    /// // All-reduce on Q_3 as one sweep of its three dimensions.
    /// let q = Hypercube::new(3);
    /// let mut m = Machine::new(&q, vec![(); 8]);
    /// let rounds = [0, 1, 2].map(|i| (ScheduleKey::Dim(i), Flip::uniform(i)));
    /// let mut t: Vec<u64> = (0..8).collect();
    /// for _ in 0..2 {
    ///     // The first sweep compiles its rounds; the second walks blocks.
    ///     m.sweep(1, &rounds, [&mut t[..]], |[lo], [hi], _| {
    ///         for (lo, hi) in lo.iter_mut().zip(hi) {
    ///             *hi += *lo;
    ///             *lo = *hi;
    ///         }
    ///     });
    /// }
    /// assert_eq!(t, [8 * 28; 8]);
    /// assert_eq!((m.metrics().comm_steps, m.metrics().comp_steps), (6, 6));
    /// assert_eq!((m.metrics().schedule_misses, m.metrics().schedule_hits), (3, 3));
    /// ```
    ///
    /// # Errors
    ///
    /// The first failing round's [`SimError`], as its cycle reports it;
    /// the rounds before it stay applied, and none after it runs.
    ///
    /// # Panics
    ///
    /// As [`Comm::fold_pairs`] does, for any round, before anything is
    /// charged.
    pub fn try_sweep<V, Fo, const W: usize>(
        &mut self,
        width: usize,
        rounds: &[(ScheduleKey, Flip)],
        mut rows: [&mut [V]; W],
        fold: Fo,
    ) -> Result<(), SimError>
    where
        S: Send + Sync,
        V: Clone + Send + Sync,
        Fo: Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
    {
        for &(_, flip) in rounds {
            self.check_flip(flip);
        }
        self.advance_faults();
        if !self.sweeps_blocks(rounds) {
            for &(key, flip) in rounds {
                let rows = rows.each_mut().map(|r| &mut **r);
                self.try_cycle(|c| c.fold_pairs(width, flip, rows, &fold).keyed(key))?;
            }
            return Ok(());
        }
        let n = self.states.len();
        assert!(width > 0 && W > 0, "a pair fold needs a lane and a slab");
        assert!(
            rows.iter().all(|r| r.len() == n * width),
            "every row slab must hold {width} values per node of {n}"
        );
        for &(key, _) in rounds {
            self.charge_blocked_round(key, width as u64);
        }
        self.dispatch_bounds();
        let order = self.order;
        let flip = |r: usize| order.flip(rounds[r].1);
        let all_got = None::<&fn(usize) -> bool>;
        let (bounds, count) = (&self.scratch.bounds[..], rounds.len());
        walk_rounds(bounds, width, &mut rows, count, &flip, all_got, &fold);
        Ok(())
    }

    /// [`Machine::try_sweep`] that panics on a model violation, as
    /// [`Machine::cycle`] does.
    #[track_caller]
    pub fn sweep<V, Fo, const W: usize>(
        &mut self,
        width: usize,
        rounds: &[(ScheduleKey, Flip)],
        rows: [&mut [V]; W],
        fold: Fo,
    ) where
        S: Send + Sync,
        V: Clone + Send + Sync,
        Fo: Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
    {
        if let Err(e) = self.try_sweep(width, rounds, rows, fold) {
            panic!("communication-model violation: {e}");
        }
    }

    /// Panics unless `flip` fits the machine: a by-class flip's class
    /// bit is the top address bit, and the flip is a bit flip of rows
    /// under the machine's order.
    fn check_flip(&self, flip: Flip) {
        flip.check(self.states.len());
        self.order.flip(flip);
    }

    /// Whether [`Machine::try_sweep`] may walk `rounds` block by block:
    /// every round replays by flip equality, nothing can change the
    /// faults before the last round, and no recorder wants each cycle's
    /// own event.
    fn sweeps_blocks(&self, rounds: &[(ScheduleKey, Flip)]) -> bool {
        let end = self.metrics.comm_steps + rounds.len() as u64;
        self.replay
            && self.recorder.is_none()
            && !self.faults.has_drops()
            && self.faults.quiet_before(end)
            && rounds.iter().all(|&(key, flip)| {
                self.schedules
                    .get(key)
                    .is_some_and(|s| s.flip == Some(flip))
            })
    }

    /// Charges one round of a blocked sweep as its cycle would be
    /// charged: a replay by flip equality in which every node sends and
    /// receives `words` words (no drop is armed), then the fold's
    /// computation step. No recorder is installed, so no event is due.
    fn charge_blocked_round(&mut self, key: ScheduleKey, words: u64) {
        let n = self.states.len() as u64;
        let sched = self
            .schedules
            .get(key)
            .expect("the sweep checked the cache");
        if let Some(trace) = self.trace.as_mut() {
            let phase = self.metrics.phases.len().checked_sub(1).map(|i| i as u32);
            trace.push((phase, sched.trace_pairs()));
        }
        self.metrics.record_comm_words(n, n * words);
        self.metrics.schedule_hits += 1;
        self.metrics.record_comp(1, n);
    }

    /// `cycle(|c| c.lanes(lanes, seed, pair, fill, deliver).pairwise().keyed(key))`,
    /// kept by name for the repository benchmark's probes
    /// (`perfbench/src/probe.rs`). New code calls [`Machine::cycle`].
    #[track_caller]
    pub fn pairwise_lanes_keyed<V: Clone + Send + Sync + 'static>(
        &mut self,
        key: ScheduleKey,
        lanes: usize,
        seed: &V,
        pair: impl Fn(NodeId, &S) -> Option<NodeId> + Sync,
        fill: impl Fn(NodeId, &S, &mut [V]) + Sync,
        deliver: impl Fn(&mut S, NodeId, &mut [V]) + Sync,
    ) -> usize
    where
        S: Send + Sync,
    {
        self.cycle(|c| {
            c.lanes(lanes, seed, pair, fill, deliver)
                .pairwise()
                .keyed(key)
        })
    }

    /// `cycle(|c| c.lanes(lanes, seed, plan, fill, deliver).keyed(key))`,
    /// kept by name for the repository benchmark's probes
    /// (`perfbench/src/probe.rs`). New code calls [`Machine::cycle`].
    #[track_caller]
    pub fn exchange_lanes_keyed<V: Clone + Send + Sync + 'static>(
        &mut self,
        key: ScheduleKey,
        lanes: usize,
        seed: &V,
        plan: impl Fn(NodeId, &S) -> Option<NodeId> + Sync,
        fill: impl Fn(NodeId, &S, &mut [V]) + Sync,
        deliver: impl Fn(&mut S, NodeId, &mut [V]) + Sync,
    ) -> usize
    where
        S: Send + Sync,
    {
        self.cycle(|c| c.lanes(lanes, seed, plan, fill, deliver).keyed(key))
    }

    /// The full (non-replay) cycle of any payload form: plan, validate,
    /// optionally compile the pattern under `capture`, stage, deliver.
    /// The compiled pattern holds destinations only, so every form shares
    /// the schedule cache.
    fn full_cycle<F: Payload<S>>(
        &mut self,
        form: &mut F,
        pairwise: bool,
        capture: Option<ScheduleKey>,
        obs: ObsCtx,
    ) -> Result<usize, SimError>
    where
        S: Send + Sync,
    {
        let n = self.states.len();
        let width = form.width();
        let record_links = self.recorder.is_some();
        // Resolve the flat link-table stride and the dispatch bounds
        // before scratch is borrowed field by field below (lazy:
        // unrecorded machines never compute the stride).
        let ports = if record_links { self.link_ports() } else { 0 };
        self.dispatch_bounds();
        let bounds = &self.scratch.bounds[..];
        let one_slot = bounds.len() == 2;

        // Phase 1 — plan: read-only over the states, one slot per node,
        // written into the reusable scratch buffer. A lane plan carries
        // destinations only: payloads go straight into the lane windows
        // after validation. The claim table is reset slot-locally inside
        // validation pass A, so the plan pass stays a pure read of the
        // states.
        let plans = self.scratch.plans.typed::<Option<(NodeId, F::Msg)>>();
        if plans.len() != n {
            plans.clear();
            plans.resize_with(n, || None);
        }
        let states = &self.states[..];
        par_rows_bounds(bounds, 1, [&mut plans[..]], &|nodes, [part]| {
            plan_range(&*form, &states[nodes.clone()], nodes.start, part);
        });

        // Phase 2 — validate the cycle before touching any state. A
        // pairwise cycle first checks symmetry on the planned
        // destinations, so its error is precise (the 1-port checks would
        // report an asymmetric pair as a receive conflict or not at
        // all). The claim passes then report the lowest-index violation,
        // the first one in node order (see the doc of `validate`).
        let mut acc = CycleAcc::EMPTY;
        if pairwise {
            acc = Self::check_symmetry(plans, bounds);
        }
        if acc.violation.is_none() {
            acc = Self::validate(
                self.topo,
                plans,
                &mut self.scratch.claims,
                &mut self.scratch.exchange,
                bounds,
                &self.faults,
                &|msg| form.words(msg),
            );
        }
        if let Some((_, e)) = acc.violation {
            // Drop the undelivered messages eagerly rather than letting
            // them linger in scratch until the next cycle overwrites it.
            plans.clear();
            return Err(e);
        }
        if let Some(trace) = self.trace.as_mut() {
            let phase = self.metrics.phases.len().checked_sub(1).map(|i| i as u32);
            trace.push((
                phase,
                plans
                    .iter()
                    .enumerate()
                    .filter_map(|(src, p)| p.as_ref().map(|&(dst, _)| (src, dst)))
                    .collect(),
            ));
        }

        // Compile the validated pattern before delivery consumes the
        // plans (only on a keyed cycle's first sighting — the one place
        // a steady-state cycle is allowed to allocate).
        let compiled = capture.map(|key| {
            // Construction already bounds node counts below `NO_SRC`.
            debug_assert!(n < NO_SRC as usize);
            let mut enc = vec![NO_SRC; n];
            for (src, p) in plans.iter().enumerate() {
                if let Some((dst, _)) = p {
                    enc[src] |= SENDS_BIT;
                    enc[*dst] = (enc[*dst] & SENDS_BIT) | src as u32;
                }
            }
            CompiledSchedule {
                key,
                enc,
                flip: form.flip().map(|(flip, _)| flip),
                delivered: acc.delivered,
                epoch: self.faults.epoch(),
                acct: None,
            }
        });

        // Phase 3 — stage, then deliver. Staging runs on this thread in
        // sender order: it moves each message (or fills each lane window
        // from its sender's *pre-cycle* state — states are only read
        // here) into the receiver's window of the staging slab and
        // records the sender in `srcs`. Messages to a node with an armed
        // drop are lost here — after validation (the sender cannot tell)
        // but before delivery, excluded from the delivered/words
        // counters. The compiled pattern above keeps the *full*
        // matching: drops are transient, schedules are not. The validated
        // matching stages at most one message per receiver, so delivery
        // then runs receiver-driven, each slot mutating only its own
        // nodes' states and windows. A planned message was already
        // computed from its sender's pre-cycle state, so a one-slot cycle
        // delivers it right here in sender order and skips the slab
        // passes (lanes cannot: a later `fill` must not see a state an
        // earlier delivery changed). Rows stage nothing: the sender
        // table is all their delivery needs. A pair fold's delivery does
        // not read the table, so its cycle leaves it as it was.
        let drops_active = self.faults.has_drops();
        let mut dropped = 0u64;
        let mut dropped_words = 0u64;
        let srcs = &mut self.scratch.srcs;
        let mut slab = None;
        if !(one_slot && F::PLANNED) {
            if F::SENDERS {
                srcs.clear();
                srcs.resize(n, NO_SRC);
            }
            slab = Some(self.scratch.stage.staging(n * width, || form.fresh()));
        }
        for (src, p) in plans.iter_mut().enumerate() {
            let Some((dst, msg)) = p.take() else {
                continue;
            };
            if drops_active && self.faults.dropped(dst) {
                dropped += 1;
                dropped_words += form.words(&msg);
                continue;
            }
            // Link accounting (simulated utilization, not wall-clock)
            // runs only while a recorder is installed — the `false`
            // branch keeps the common path to one boolean test per
            // delivered message.
            if record_links {
                let w = form.words(&msg);
                let cross = self.topo.is_cross_edge(src, dst);
                self.metrics.link_util.record(cross, w);
                let slot = link_slot(self.topo, ports, src, dst);
                if let Some(rec) = self.recorder.as_mut() {
                    rec.record_link(slot, w, cross);
                }
            }
            match slab.as_deref_mut() {
                Some(slab) => {
                    let window = &mut slab[dst * width..(dst + 1) * width];
                    form.stage(src, &self.states[src], msg, window);
                    if F::SENDERS {
                        srcs[dst] = src as u32;
                    }
                }
                None => form.deliver_planned(&mut self.states[dst], src, msg),
            }
        }
        if let Some(slab) = slab {
            let ctx = Ctx {
                bounds,
                faults: &self.faults,
                order: self.order,
            };
            form.deliver(&mut self.states, srcs, slab, ctx);
        }
        let delivered = acc.delivered as u64 - dropped;
        let words = acc.words - dropped_words;
        self.metrics.record_comm_words(delivered, words);
        self.metrics.dropped_messages += dropped;
        if drops_active {
            self.faults.clear_drops();
        }
        if let Some(c) = compiled {
            // No eviction to handle: stale same-key entries cannot exist
            // (the epoch sweep in `sync_schedule_epoch` removed them
            // before this cycle consulted the cache).
            self.schedules.insert(c);
        }
        self.emit_comm(obs, delivered, words, dropped, form.lanes());
        Ok(delivered as usize)
    }

    /// The pairwise symmetry pre-check, on the destinations already in
    /// the plan slab: every sender's destination must send back to it.
    /// Pure reads of the shared slab, each slot stopping at its first
    /// violation, reduced to the lowest-index one — the first in node
    /// order.
    fn check_symmetry<M: Sync>(plans: &[Option<(NodeId, M)>], bounds: &[usize]) -> CycleAcc {
        let check = |nodes, acc: &mut CycleAcc| {
            if let Some((u, e)) = asymmetry_in(plans, nodes) {
                acc.violate(u, e);
            }
        };
        par_range_reduce(bounds, CycleAcc::EMPTY, &check, CycleAcc::merge)
    }

    /// The 1-port validation: claim passes over the dispatch slots with
    /// **no atomics** anywhere.
    ///
    /// **Pass A (local checks + slot-local claims).** Each dispatch slot
    /// owns an ascending node range (shard-aligned on the threaded
    /// backend, see `ShardMap::slot_bounds_into`; `[0, n]` on the
    /// sequential one): it resets its own claim range, clears its own
    /// exchange row, then checks its senders in node order — out-of-range
    /// → self-message → failed endpoint → non-adjacent → downed link (all
    /// position-independent). A locally *valid* sender whose receiver
    /// lives in the same range claims the plain claim cell, or, when the
    /// cell is already held, reports a receive conflict naming the holder
    /// as `first_src`; a receiver in another range is staged as `(src,
    /// dst)` into the owning row's bin for the destination slot (single
    /// producer). A slot stops at its first violation.
    /// **Pass B (drain)**, only when pass A staged a bin: each slot
    /// drains every row's bin addressed to it (single consumer) and
    /// min-merges into its own claim range, so `claims[dst]` holds the
    /// lowest claimant of `dst` that pass A walked.
    /// **Pass C (conflicts)**, only when pass B ran: each slot reports its
    /// first sender whose claim cell names someone else. Every pass
    /// reduces the lowest-sender-index violation (counters summing
    /// alongside), folded in slot order, and pass A's result merges
    /// before pass C's.
    ///
    /// Why this is the first violation `V` in node order at any slot
    /// count, with `first_src` the lowest sender into the contested
    /// receiver and `second_src` the second-lowest: every report is at an
    /// index of at least `V` — a local violation or a real conflict, or a
    /// sender past its slot's stop (it never claimed), whose pass-C report
    /// sits above that slot's own. The slot holding `V` walks up to `V`,
    /// so a local violation at `V` is found, and outranks a pass-C report
    /// at the same index by the merge order. If `V` is a receive
    /// conflict, its receiver's two lowest claimants, both at most `V`,
    /// were walked and claimed: if both share the receiver's range, pass
    /// A reports `V` naming the right holder; otherwise a bin was staged,
    /// pass B's cell holds the lowest claimant, and pass C reports `V`
    /// correctly. A pass-A report that names the wrong `first_src` needs a
    /// lower claimant in another range, so it sits above `V`. Without a
    /// staged bin every claim stayed in its receiver's range and pass A
    /// saw every conflict, so one slot walks the plans once and stops at
    /// the first violation, like a walk in node order.
    fn validate<M: Send + Sync + 'static>(
        topo: &T,
        plans: &[Option<(NodeId, M)>],
        claims: &mut Vec<u32>,
        exchange: &mut Vec<ExchangeRow>,
        bounds: &[usize],
        faults: &FaultState,
        words: &(impl Fn(&M) -> u64 + Sync),
    ) -> CycleAcc {
        let n = plans.len();
        let slots = bounds.len() - 1;
        if claims.len() != n {
            claims.clear();
            claims.resize(n, NO_SRC);
        }
        if exchange.len() != slots {
            exchange.resize_with(slots, ExchangeRow::default);
        }
        for row in exchange.iter_mut() {
            if row.bins.len() != slots {
                row.bins.resize_with(slots, Vec::new);
            }
        }
        let local = par_slab_reduce(
            bounds,
            claims.as_mut_slice(),
            exchange.as_mut_slice(),
            CycleAcc::EMPTY,
            &|_slot, start, chunk, row, acc| {
                *acc = acc.merge(claim_range(
                    topo, faults, plans, words, bounds, start, chunk, row,
                ));
            },
            CycleAcc::merge,
        );
        if exchange
            .iter()
            .all(|row| row.bins.iter().all(|b| b.is_empty()))
        {
            return local;
        }
        // The rows are read-only here (captured shared); the per-slot
        // slabs are unit placeholders since each slot's exclusive write
        // target is its claim range.
        let rows: &[ExchangeRow] = exchange;
        let mut units = [(); 32];
        par_slab_reduce(
            bounds,
            claims.as_mut_slice(),
            &mut units[..slots],
            (),
            &|slot, start, chunk, _unit, _acc| {
                for row in rows {
                    for &(src, dst) in &row.bins[slot] {
                        let c = &mut chunk[dst as usize - start];
                        if src < *c {
                            *c = src;
                        }
                    }
                }
            },
            |(), ()| (),
        );
        let claims: &[u32] = claims;
        let conflicts = par_range_reduce(
            bounds,
            CycleAcc::EMPTY,
            &|nodes, acc| {
                if let Some((src, e)) = conflict_in(plans, claims, nodes) {
                    acc.violate(src, e);
                }
            },
            CycleAcc::merge,
        );
        local.merge(conflicts)
    }

    /// Readies a recorded replay of `key`'s schedule for deferred link
    /// accounting: resolves the link-table stride eagerly (the deferred
    /// flush helpers treat an unresolved stride as "no counts pending"),
    /// and attaches the deferred-accounting plan on the schedule's first
    /// recorded replay. The cross-edge bitset is schedule-determined, so
    /// it is computed once here and no replay calls into the topology.
    fn prepare_deferred_links(&mut self, key: ScheduleKey) {
        self.link_ports();
        let n = self.states.len();
        let topo = self.topo;
        let sched = self
            .schedules
            .get_mut(key)
            .expect("caller checked the cache");
        if sched.acct.is_none() {
            let mut acct = Box::new(AcctPlan::new(n));
            for (dst, &e) in sched.enc.iter().enumerate() {
                let src = (e & NO_SRC) as usize;
                if src != NO_SRC as usize && topo.is_cross_edge(src, dst) {
                    acct.set_cross(dst);
                }
            }
            sched.acct = Some(acct);
        }
    }

    /// A keyed pair fold whose [`Flip`](crate::Flip) equals the one its
    /// schedule was compiled with: the compile validated exactly this
    /// matching, so no node's plan is evaluated and no sender table is
    /// filled. Every node sends (a flip pairs them all) and receives
    /// `words` words, unless an armed drop loses its message; crashes
    /// and link cuts evict the schedule before a cycle gets here, so
    /// every node is live. The form then folds each pair once
    /// ([`Form::deliver_flip`]), and the cycle is charged, traced and
    /// recorded as a replay of the same schedule.
    ///
    /// [`Form::deliver_flip`]: crate::comm::form::Form::deliver_flip
    fn flip_cycle<F: Payload<S>>(
        &mut self,
        key: ScheduleKey,
        words: u64,
        form: &mut F,
        obs: ObsCtx,
    ) -> Result<usize, SimError>
    where
        S: Send + Sync,
    {
        let n = self.states.len();
        let record_links = self.recorder.is_some();
        if record_links {
            self.prepare_deferred_links(key);
        }
        self.dispatch_bounds();
        let sched = self
            .schedules
            .get_mut(key)
            .expect("caller checked the cache");
        debug_assert!(
            !self.faults.any_failed(),
            "a flip schedule outlived a crash"
        );
        let faults = &self.faults;
        let drops_active = faults.has_drops();
        let received = |u: &NodeId| !(drops_active && faults.dropped(*u));
        let delivered = if drops_active {
            (0..n).filter(received).count()
        } else {
            n
        };
        if let Some(trace) = self.trace.as_mut() {
            let phase = self.metrics.phases.len().checked_sub(1).map(|i| i as u32);
            trace.push((phase, sched.trace_pairs()));
        }
        // Deferred link accounting, as a replay does it: one message of
        // `words` words into every receiver whose message was not lost.
        if record_links {
            let acct = sched.acct.as_deref_mut().expect("attached above");
            let mut util = LinkUtil::default();
            for dst in (0..n).filter(received) {
                acct.msgs[dst] += 1;
                acct.words[dst] += words;
                util.record(acct.is_cross(dst), words);
            }
            acct.dirty = true;
            self.metrics.link_util.add_bulk(util);
        }
        let ctx = Ctx {
            bounds: &self.scratch.bounds,
            faults: &self.faults,
            order: self.order,
        };
        form.deliver_flip(ctx);
        let dropped = (sched.delivered - delivered) as u64;
        let words = delivered as u64 * words;
        self.metrics.record_comm_words(delivered as u64, words);
        self.metrics.dropped_messages += dropped;
        if drops_active {
            self.faults.clear_drops();
        }
        self.emit_comm(obs, delivered as u64, words, dropped, form.lanes());
        Ok(delivered)
    }

    /// A keyed cycle of any payload form served from the cache: one
    /// fused plan+verify+stage pass, then deliver. Each receiver `u`
    /// evaluates its compiled sender's plan and stages the message
    /// straight into `u`'s own window (so the pass parallelises with zero
    /// cross-chunk writes); nodes the schedule says are silent evaluate
    /// their own plan and check it still is silent. Every node's plan is
    /// thus evaluated exactly once — same as the full path — and any
    /// deviation from the compiled pattern fails the cycle
    /// deterministically before any state is touched.
    fn replay_cycle<F: Payload<S>>(
        &mut self,
        key: ScheduleKey,
        form: &mut F,
        obs: ObsCtx,
    ) -> Result<usize, SimError>
    where
        S: Send + Sync,
    {
        let n = self.states.len();
        let width = form.width();
        let record_links = self.recorder.is_some();
        if record_links {
            self.prepare_deferred_links(key);
        }
        self.dispatch_bounds();
        let sched = self
            .schedules
            .get_mut(key)
            .expect("caller checked the cache");
        let sched_delivered = sched.delivered;
        // The sender table: `srcs[u]` carries the packed sender (`NO_SRC`
        // = silent), written unconditionally by every receiver's fused
        // pass, so stale values never leak across cycles (and the table
        // needs no per-cycle clearing — only the length matters).
        let srcs = &mut self.scratch.srcs;
        srcs.resize(n, NO_SRC);
        let slab = self.scratch.stage.staging(n * width, || form.fresh());
        let states = &self.states;
        let faults = &self.faults;
        // Crashes and link cuts bump the epoch, which evicts the
        // schedule before we get here — so a replayed pattern is legal
        // by construction and only *drops* (transient, no bump) need
        // handling: the dropped message is validated but never staged.
        let drops_active = faults.has_drops();
        let enc = &sched.enc[..];
        let eval = |u: usize, src_slot: &mut u32, window: &mut [F::Slot], acc: &mut CycleAcc| {
            *src_slot = NO_SRC;
            let e = enc[u];
            let src = (e & NO_SRC) as usize;
            if src != NO_SRC as usize {
                match form.plan(src, &states[src]) {
                    Some((dst, msg)) if dst == u => {
                        if drops_active && faults.dropped(u) {
                            // Lost in flight; counted after the pass.
                        } else {
                            acc.delivered += 1;
                            acc.words += form.words(&msg);
                            form.stage(src, &states[src], msg, window);
                            *src_slot = src as u32;
                        }
                    }
                    _ => acc.violate(src, SimError::ScheduleDeviation { key, node: src }),
                }
            }
            if e & SENDS_BIT == 0 && form.plan(u, &states[u]).is_some() {
                acc.violate(u, SimError::ScheduleDeviation { key, node: u });
            }
        };
        let acc = par_lane_reduce_bounds(
            &self.scratch.bounds,
            srcs,
            width,
            slab,
            CycleAcc::EMPTY,
            &eval,
            CycleAcc::merge,
        );
        if let Some((_, e)) = acc.violation {
            // The deviating cycle is not applied: delivery never runs
            // (so no row moves), and whatever the pass staged is dropped
            // (a message slab returns to all-empty; stale lane windows
            // are gated off by the next cycle's own staging).
            form.discard(slab);
            return Err(e);
        }
        if let Some(trace) = self.trace.as_mut() {
            let phase = self.metrics.phases.len().checked_sub(1).map(|i| i as u32);
            trace.push((phase, sched.trace_pairs()));
        }
        // Deferred link accounting over the staged senders (one per
        // delivered message — drops were excluded during the fused pass).
        // Replay schedules are fixed, so the per-dst counts accumulate in
        // the schedule's `AcctPlan` and resolve to link slots only at the
        // flush points; the cycle itself pays two plain increments and a
        // precomputed cross bit per message — no `port_of` resolution.
        if record_links {
            let acct = sched.acct.as_deref_mut().expect("attached above");
            let mut util = LinkUtil::default();
            for (dst, (&src, window)) in srcs.iter().zip(slab.chunks_exact(width)).enumerate() {
                if src != NO_SRC {
                    let w = form.staged_words(window);
                    acct.msgs[dst] += 1;
                    acct.words[dst] += w;
                    util.record(acct.is_cross(dst), w);
                }
            }
            acct.dirty = true;
            self.metrics.link_util.add_bulk(util);
        }
        let ctx = Ctx {
            bounds: &self.scratch.bounds,
            faults: &self.faults,
            order: self.order,
        };
        form.deliver(&mut self.states, srcs, slab, ctx);
        let delivered = acc.delivered;
        let dropped = (sched_delivered - delivered) as u64;
        self.metrics.record_comm_words(delivered as u64, acc.words);
        self.metrics.dropped_messages += dropped;
        if drops_active {
            self.faults.clear_drops();
        }
        self.emit_comm(obs, delivered as u64, acc.words, dropped, form.lanes());
        Ok(delivered)
    }

    /// Runs `f` once per node, over the dispatch bounds. With
    /// `respect_faults`, crashed nodes are skipped — their states are
    /// frozen at the moment of the crash (computation phases honour
    /// this; out-of-band [`Machine::setup`] does not).
    fn apply(&mut self, f: impl Fn(NodeId, &mut S) + Sync, respect_faults: bool)
    where
        S: Send,
    {
        self.dispatch_bounds();
        let faults = &self.faults;
        let frozen = respect_faults && faults.any_failed();
        let states = &mut self.states[..];
        par_rows_bounds(&self.scratch.bounds, 1, [states], &|nodes, [part]| {
            for (u, s) in nodes.zip(part) {
                if !(frozen && faults.is_failed(u)) {
                    f(u, s);
                }
            }
        });
    }

    /// One local computation **phase**, charged as `steps` computation
    /// cycles.
    ///
    /// `f` is invoked **exactly once** per node regardless of `steps`:
    /// `steps` is the simulated *duration* of the phase (a node-local
    /// computation that the cost model prices at `steps` cycles, e.g. a
    /// `k`-element local merge), not a repetition count. Algorithms whose
    /// per-cycle work really does differ cycle-to-cycle issue one
    /// `compute(1, …)` per cycle. This single-invocation semantics is
    /// pinned by the `compute_invokes_f_once_regardless_of_steps`
    /// regression test.
    ///
    /// `steps × num_nodes` element operations are charged to the
    /// fine-grained counter (nodes that do nothing this phase are the
    /// caller's business — the *step* cost is global, per the synchronous
    /// model); use [`Machine::compute_counted`] to charge a precise
    /// operation count.
    pub fn compute(&mut self, steps: u64, f: impl Fn(NodeId, &mut S) + Sync)
    where
        S: Send,
    {
        let start = self.obs_cycle_start();
        let ops = steps * self.states.len() as u64;
        self.apply(f, true);
        self.metrics.record_comp(steps, ops);
        self.emit_comp(start, steps, ops);
    }

    /// Like [`Machine::compute`] but charges exactly `element_ops` total
    /// operations (for phases where only a subset of nodes works). As
    /// with [`Machine::compute`], `f` runs exactly once per node.
    pub fn compute_counted(
        &mut self,
        steps: u64,
        element_ops: u64,
        f: impl Fn(NodeId, &mut S) + Sync,
    ) where
        S: Send,
    {
        let start = self.obs_cycle_start();
        self.apply(f, true);
        self.metrics.record_comp(steps, element_ops);
        self.emit_comp(start, steps, element_ops);
    }

    /// One local computation cycle over lane slabs, charged like
    /// `compute(1, …)`: one computation step and `num_nodes` element
    /// operations. Every slab holds `width` values per node (node `u`'s
    /// row at `slab[r*width..(r+1)*width]` for `r` = its row under the
    /// machine's [`RowOrder`], the layout of [`Comm::rows`]); `f(u,
    /// rows, read)` runs exactly once per live node with `u`'s rows of
    /// the `W` written slabs and of the `R` read ones. Crashed nodes are
    /// skipped, so their rows freeze. The written slabs split by the
    /// dispatch bounds, so each worker folds its own contiguous rows.
    ///
    /// ```
    /// use dc_simulator::Machine;
    /// use dc_topology::Hypercube;
    ///
    /// let q = Hypercube::new(1);
    /// let mut m = Machine::new(&q, vec![(); 2]);
    /// let mut t = vec![1u64, 2, 3, 4]; // two lanes per node
    /// let temp = vec![10u64, 20, 30, 40];
    /// m.compute_rows(2, [&mut t[..]], [&temp[..]], |_, [t], [temp]| {
    ///     for (t, x) in t.iter_mut().zip(temp) {
    ///         *t += x;
    ///     }
    /// });
    /// assert_eq!(t, [11, 22, 33, 44]);
    /// assert_eq!(m.metrics().comp_steps, 1);
    /// ```
    ///
    /// # Panics
    ///
    /// If `width` is 0, or a slab does not hold `width` values per node.
    pub fn compute_rows<V, const W: usize, const R: usize>(
        &mut self,
        width: usize,
        rows: [&mut [V]; W],
        read: [&[V]; R],
        f: impl Fn(NodeId, [&mut [V]; W], [&[V]; R]) + Sync,
    ) where
        V: Send + Sync,
    {
        let n = self.states.len();
        assert!(width > 0, "a row compute phase needs at least one lane");
        assert!(
            rows.iter().all(|r| r.len() == n * width) && read.iter().all(|r| r.len() == n * width),
            "every row slab must hold {width} values per node of {n}"
        );
        let start = self.obs_cycle_start();
        self.dispatch_bounds();
        let faults = &self.faults;
        let frozen = faults.any_failed();
        // One row iterator per slab, advanced in step: no slab is
        // re-sliced per row.
        with_rows!(self.order, |row| {
            let fold = |rows_at: std::ops::Range<usize>, rows: [&mut [V]; W]| {
                let mut rows = rows.map(|r| r.chunks_exact_mut(width));
                let mut read = read.map(|r| r[rows_at.start * width..].chunks_exact(width));
                for r in rows_at {
                    let mine = rows.each_mut().map(|r| r.next().expect("one row per node"));
                    let theirs = read.each_mut().map(|r| r.next().expect("one row per node"));
                    let u = row(r);
                    if !(frozen && faults.is_failed(u)) {
                        f(u, mine, theirs);
                    }
                }
            };
            par_rows_bounds(&self.scratch.bounds, width, rows, &fold)
        });
        self.metrics.record_comp(1, n as u64);
        self.emit_comp(start, 1, n as u64);
    }

    /// Applies `f` to every node *without* charging any simulated cost —
    /// for initial data placement and final result collection, which the
    /// paper's step counts exclude.
    pub fn setup(&mut self, f: impl Fn(NodeId, &mut S) + Sync)
    where
        S: Send,
    {
        self.apply(f, false);
    }
}

/// The engine's side of the interface it shares with the reference
/// machine.
impl<T: Topology + ?Sized + Sync, S: Send + Sync> Cycles<S> for Machine<'_, T, S> {
    fn try_cycle<F: Payload<S>>(
        &mut self,
        comm: impl FnOnce(Comm<S>) -> Comm<S, F>,
    ) -> Result<usize, SimError> {
        Machine::try_cycle(self, comm)
    }

    fn compute(&mut self, steps: u64, f: impl Fn(NodeId, &mut S) + Sync) {
        Machine::compute(self, steps, f);
    }

    fn compute_counted(&mut self, steps: u64, element_ops: u64, f: impl Fn(NodeId, &mut S) + Sync) {
        Machine::compute_counted(self, steps, element_ops, f);
    }

    fn compute_rows<V: Send + Sync, const W: usize, const R: usize>(
        &mut self,
        width: usize,
        rows: [&mut [V]; W],
        read: [&[V]; R],
        f: impl Fn(NodeId, [&mut [V]; W], [&[V]; R]) + Sync,
    ) {
        Machine::compute_rows(self, width, rows, read, f);
    }

    fn try_sweep<V, const W: usize>(
        &mut self,
        width: usize,
        rounds: &[(ScheduleKey, Flip)],
        rows: [&mut [V]; W],
        fold: impl Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
    ) -> Result<(), SimError>
    where
        V: Clone + Send + Sync,
    {
        Machine::try_sweep(self, width, rounds, rows, fold)
    }

    fn setup(&mut self, f: impl Fn(NodeId, &mut S) + Sync) {
        Machine::setup(self, f);
    }

    fn set_row_order(&mut self, order: RowOrder) {
        Machine::set_row_order(self, order);
    }

    fn begin_phase(&mut self, label: impl Into<String>) {
        Machine::begin_phase(self, label);
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        Machine::set_fault_plan(self, plan);
    }

    fn inject_fault(&mut self, kind: FaultKind) {
        Machine::inject_fault(self, kind);
    }

    fn states(&self) -> &[S] {
        Machine::states(self)
    }

    fn metrics(&self) -> &Metrics {
        Machine::metrics(self)
    }

    fn phased_trace(&self) -> &[TraceEntry] {
        Machine::phased_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Flip;
    use crate::parallel::PAR_THRESHOLD;
    use crate::reference::{model_counters, Cycles, RefMachine};
    use dc_topology::Hypercube;

    /// A program's outcome on either machine: states, the counters both
    /// machines charge, and the space-time trace.
    fn outcome<S: Clone>(m: &impl Cycles<S>) -> (Vec<S>, Metrics, Vec<TraceEntry>) {
        (
            m.states().to_vec(),
            model_counters(m.metrics()),
            m.phased_trace().to_vec(),
        )
    }

    fn machine(dim: u32) -> Machine<'static, Hypercube, u64> {
        // Leak a tiny topology to get a 'static reference in tests.
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(dim)));
        let n = topo.num_nodes();
        Machine::new(topo, (0..n as u64).collect())
    }

    #[test]
    fn exchange_delivers_and_counts() {
        let mut m = machine(2);
        // Everyone sends its value across dimension 0.
        let delivered = m.cycle(|c| c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v));
        assert_eq!(delivered, 4);
        assert_eq!(m.states(), &[1, 1, 5, 5]);
        assert_eq!(m.metrics().comm_steps, 1);
        assert_eq!(m.metrics().messages, 4);
    }

    #[test]
    fn non_adjacent_send_rejected() {
        let mut m = machine(2);
        let err = m
            .try_cycle(|c| {
                c.message(
                    |u, &s| if u == 0 { Some((3, s)) } else { None },
                    |_, _, _: u64| {},
                )
            })
            .unwrap_err();
        assert_eq!(err, SimError::NotAdjacent { src: 0, dst: 3 });
        // Machine untouched, no step counted.
        assert_eq!(m.metrics().comm_steps, 0);
        assert_eq!(m.states(), &[0, 1, 2, 3]);
    }

    #[test]
    fn recv_conflict_rejected() {
        let mut m = machine(2);
        // Nodes 1 and 2 both send to node 0 (a neighbour of both in Q_2).
        let err = m
            .try_cycle(|c| {
                c.message(
                    |u, &s| match u {
                        1 => Some((0, s)),
                        2 => Some((0, s)),
                        _ => None,
                    },
                    |_, _, _: u64| {},
                )
            })
            .unwrap_err();
        match err {
            SimError::RecvConflict { node, .. } => assert_eq!(node, 0),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn self_message_rejected() {
        let mut m = machine(2);
        let err = m
            .try_cycle(|c| {
                c.message(
                    |u, &s| if u == 1 { Some((1, s)) } else { None },
                    |_, _, _: u64| {},
                )
            })
            .unwrap_err();
        assert_eq!(err, SimError::SelfMessage { node: 1 });
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = machine(2);
        let err = m
            .try_cycle(|c| {
                c.message(
                    |u, &s| if u == 0 { Some((9, s)) } else { None },
                    |_, _, _: u64| {},
                )
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::OutOfRange {
                node: 9,
                num_nodes: 4
            }
        );
    }

    #[test]
    fn asymmetric_pair_rejected() {
        let mut m = machine(2);
        let err = m
            .try_cycle(|c| {
                c.message(|u, &s| (u == 0).then_some((1, s)), |_, _, _| {})
                    .pairwise()
            })
            .unwrap_err();
        assert_eq!(err, SimError::AsymmetricPair { a: 0, b: 1 });
    }

    #[test]
    #[should_panic(expected = "communication-model violation")]
    fn exchange_panics_on_violation() {
        let mut m = machine(2);
        m.cycle(|c| {
            c.message(
                |u, &s| if u == 0 { Some((3, s)) } else { None },
                |_, _, _: u64| {},
            )
        });
    }

    #[test]
    fn pairwise_swaps_values() {
        let mut m = machine(3);
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 0b100, s)), |s, _, v| *s = v)
                .pairwise()
        });
        assert_eq!(m.states(), &[4, 5, 6, 7, 0, 1, 2, 3]);
        assert_eq!(m.metrics().comm_steps, 1);
        assert_eq!(m.metrics().messages, 8);
    }

    #[test]
    fn partial_matching_allowed() {
        let mut m = machine(2);
        // Only the pair {0, 1} exchanges.
        let count = m.cycle(|c| {
            c.message(|u, &s| (u < 2).then_some((u ^ 1, s)), |s, _, v| *s = v)
                .pairwise()
        });
        assert_eq!(count, 2);
        assert_eq!(m.states(), &[1, 0, 2, 3]);
    }

    #[test]
    fn keyed_pairwise_compiles_then_replays_identically() {
        let mut plain = machine(3);
        let mut keyed = machine(3);
        plain.enable_trace();
        keyed.enable_trace();
        for _ in 0..4 {
            plain.cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                    .pairwise()
            });
            keyed.cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                    .pairwise()
                    .keyed(ScheduleKey::Dim(0))
            });
        }
        assert_eq!(plain.states(), keyed.states());
        assert_eq!(plain.phased_trace(), keyed.phased_trace());
        assert_eq!(plain.metrics().comm_steps, keyed.metrics().comm_steps);
        assert_eq!(plain.metrics().messages, keyed.metrics().messages);
        assert_eq!(plain.metrics().message_words, keyed.metrics().message_words);
        assert_eq!(keyed.metrics().schedule_misses, 1);
        assert_eq!(keyed.metrics().schedule_hits, 3);
        assert_eq!(keyed.compiled_schedules(), 1);
    }

    #[test]
    fn keyed_exchange_partial_pattern_replays() {
        // A one-way, partial exchange (only node 0 speaks) exercises the
        // silent-node self-check of the replay pass.
        let mut m = machine(2);
        for round in 0..3u64 {
            let delivered = m.cycle(|c| {
                c.message(|u, &s| (u == 0).then_some((1, s)), |s, _, v| *s += v)
                    .keyed(ScheduleKey::Custom(7))
            });
            assert_eq!(delivered, 1, "round {round}");
        }
        assert_eq!(m.metrics().schedule_misses, 1);
        assert_eq!(m.metrics().schedule_hits, 2);
        assert_eq!(m.metrics().messages, 3);
    }

    #[test]
    fn deviating_replay_rejected_and_machine_untouched() {
        let mut m = machine(2);
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s = v)
                .pairwise()
                .keyed(ScheduleKey::Cross)
        });
        let before = m.states().to_vec();
        let comm = m.metrics().comm_steps;
        // Same key, different pattern: nodes pair across dim 1 instead.
        let err = m
            .try_cycle(|c| {
                c.message(|u, &s| Some((u ^ 2, s)), |s, _, v| *s = v)
                    .pairwise()
                    .keyed(ScheduleKey::Cross)
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ScheduleDeviation {
                key: ScheduleKey::Cross,
                node: 0
            }
        );
        assert_eq!(m.states(), &before[..], "deviating cycle must not apply");
        assert_eq!(m.metrics().comm_steps, comm, "no step charged");
        assert_eq!(m.metrics().schedule_hits, 0);
        // The compiled schedule is still intact and replayable.
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s = v)
                .pairwise()
                .keyed(ScheduleKey::Cross)
        });
        assert_eq!(m.metrics().schedule_hits, 1);
    }

    #[test]
    fn newly_speaking_node_rejected_on_replay() {
        let mut m = machine(2);
        // Compile: only {0, 1} exchange.
        m.cycle(|c| {
            c.message(|u, &s| (u < 2).then_some((u ^ 1, s)), |s, _, v| *s = v)
                .pairwise()
                .keyed(ScheduleKey::Custom(1))
        });
        // Replay with node 2 and 3 joining in: deviation at node 2.
        let err = m
            .try_cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s = v)
                    .pairwise()
                    .keyed(ScheduleKey::Custom(1))
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ScheduleDeviation {
                key: ScheduleKey::Custom(1),
                node: 2
            }
        );
    }

    #[test]
    fn replay_disabled_machine_never_caches() {
        let mut m = machine(2);
        m.set_schedule_replay(false);
        assert!(!m.schedule_replay());
        for _ in 0..3 {
            m.cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                    .pairwise()
                    .keyed(ScheduleKey::Cross)
            });
        }
        assert_eq!(m.compiled_schedules(), 0);
        assert_eq!(m.metrics().schedule_hits, 0);
        assert_eq!(m.metrics().schedule_misses, 0);
        assert_eq!(m.metrics().comm_steps, 3);
    }

    #[test]
    fn clear_schedules_forces_recompile() {
        let mut m = machine(2);
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
                .keyed(ScheduleKey::Cross)
        });
        assert_eq!(m.compiled_schedules(), 1);
        m.clear_schedules();
        assert_eq!(m.compiled_schedules(), 0);
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
                .keyed(ScheduleKey::Cross)
        });
        assert_eq!(m.metrics().schedule_misses, 2);
    }

    #[test]
    fn schedule_bank_round_trip_skips_recompilation() {
        let mut bank = ScheduleBank::new();
        assert!(bank.is_empty());
        // First "request": compiles two keys, donates them.
        let mut a = machine(2);
        for key in [ScheduleKey::Cross, ScheduleKey::Custom(7)] {
            for _ in 0..2 {
                a.cycle(|c| {
                    c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                        .pairwise()
                        .keyed(key)
                });
            }
        }
        assert_eq!(a.metrics().schedule_misses, 2);
        a.donate_schedules(&mut bank);
        assert_eq!(bank.len(), 2);
        assert_eq!(a.compiled_schedules(), 0, "donation drains the machine");
        // Second "request", fresh machine (even a different state type
        // would do — schedules are destination-only): adopts and replays
        // from the first cycle, zero misses.
        let mut b = machine(2);
        b.adopt_schedules(&mut bank);
        assert!(bank.is_empty(), "adoption drains the bank");
        for key in [ScheduleKey::Cross, ScheduleKey::Custom(7)] {
            b.cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                    .pairwise()
                    .keyed(key)
            });
        }
        assert_eq!(b.metrics().schedule_misses, 0, "warm bank: no recompiles");
        assert_eq!(b.metrics().schedule_hits, 2);
        // And a third key extends the set before donating back.
        b.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
                .keyed(ScheduleKey::Dim(0))
        });
        b.donate_schedules(&mut bank);
        assert_eq!(bank.len(), 3);
    }

    #[test]
    #[should_panic(expected = "warmed on")]
    fn schedule_bank_rejects_mismatched_node_count() {
        let mut bank = ScheduleBank::new();
        let mut a = machine(2);
        a.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
                .keyed(ScheduleKey::Cross)
        });
        a.donate_schedules(&mut bank);
        let mut b = machine(3); // 8 nodes, bank warmed on 4
        b.adopt_schedules(&mut bank);
    }

    #[test]
    #[should_panic(expected = "fault epoch is 0")]
    fn schedule_bank_refuses_faulted_adopter() {
        let mut bank = ScheduleBank::new();
        let mut a = machine(2);
        a.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
                .keyed(ScheduleKey::Cross)
        });
        a.donate_schedules(&mut bank);
        let mut b = machine(2);
        b.inject_fault(FaultKind::NodeCrash { node: 3 });
        b.adopt_schedules(&mut bank);
    }

    #[test]
    fn keyed_try_probe_errors_identically_on_compile_cycle() {
        // The compile cycle runs full validation, so an illegal keyed
        // plan reports exactly the unkeyed error.
        let mut keyed = machine(2);
        let mut plain = machine(2);
        let plan = |u: usize, &s: &u64| if u == 0 { Some((3, s)) } else { None };
        let a = keyed
            .try_cycle(|c| {
                c.message(plan, |_, _, _: u64| {})
                    .keyed(ScheduleKey::Custom(9))
            })
            .unwrap_err();
        let b = plain
            .try_cycle(|c| c.message(plan, |_, _, _: u64| {}))
            .unwrap_err();
        assert_eq!(a, b);
        // The failed cycle compiled nothing.
        assert_eq!(keyed.compiled_schedules(), 0);
    }

    #[test]
    fn compute_counts_steps_and_ops() {
        let mut m = machine(2);
        m.compute(1, |_, s| *s *= 2);
        assert_eq!(m.states(), &[0, 2, 4, 6]);
        assert_eq!(m.metrics().comp_steps, 1);
        assert_eq!(m.metrics().element_ops, 4);
        m.compute_counted(1, 2, |u, s| {
            if u < 2 {
                *s += 1
            }
        });
        assert_eq!(m.metrics().comp_steps, 2);
        assert_eq!(m.metrics().element_ops, 6);
    }

    /// Pins the documented `compute` semantics: `steps` is the charged
    /// duration of ONE invocation of `f` per node, never a repetition
    /// count (the seed version's docs were ambiguous on this).
    #[test]
    fn compute_invokes_f_once_regardless_of_steps() {
        let mut m = machine(2);
        m.compute(5, |_, s| *s += 1);
        // One invocation per node…
        assert_eq!(m.states(), &[1, 2, 3, 4]);
        // …but five cycles (and 5 × 4 element ops) charged.
        assert_eq!(m.metrics().comp_steps, 5);
        assert_eq!(m.metrics().element_ops, 20);
        m.compute_counted(3, 7, |_, s| *s += 10);
        assert_eq!(m.states(), &[11, 12, 13, 14]);
        assert_eq!(m.metrics().comp_steps, 8);
        assert_eq!(m.metrics().element_ops, 27);
    }

    #[test]
    fn setup_is_free() {
        let mut m = machine(2);
        m.setup(|u, s| *s = u as u64 * 10);
        assert_eq!(m.metrics().comp_steps, 0);
        assert_eq!(m.states(), &[0, 10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "one state per node")]
    fn wrong_state_count_rejected() {
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(2)));
        let _ = Machine::new(topo, vec![0u8; 3]);
    }

    #[test]
    fn exec_mode_is_configurable_and_defaults_to_parallel() {
        let mut m = machine(2);
        assert_eq!(m.exec(), ExecMode::parallel());
        m.set_exec(ExecMode::Sequential);
        assert_eq!(m.exec(), ExecMode::Sequential);
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(1)));
        let m = Machine::with_exec(topo, vec![0u8; 2], ExecMode::Parallel { threshold: 1 });
        assert_eq!(m.exec(), ExecMode::Parallel { threshold: 1 });
    }

    /// A machine big enough to clear PAR_THRESHOLD must produce identical
    /// states, metrics, and traces on both backends (Q_13 = 8192 nodes),
    /// and the reference machine's.
    #[test]
    fn parallel_backend_matches_sequential_on_large_machine() {
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(13)));
        let n = topo.num_nodes();
        assert!(n >= PAR_THRESHOLD);
        fn program(m: &mut impl Cycles<u64>) {
            for i in 0..13 {
                m.cycle(|c| {
                    c.message(|u, &s| Some((u ^ (1 << i), s)), |s, _, v| *s += v)
                        .pairwise()
                });
                m.compute(1, |u, s| *s = s.wrapping_add(u as u64));
            }
        }
        let run = |exec: ExecMode, workers: usize| {
            let mut m = Machine::with_exec(topo, (0..n as u64).collect(), exec);
            m.set_workers(workers);
            m.enable_trace();
            program(&mut m);
            let trace = m.phased_trace().to_vec();
            let (states, metrics) = m.into_parts();
            (states, metrics, trace)
        };
        let seq = run(ExecMode::Sequential, 0);
        // 4 workers, so the threaded path is exercised even on a
        // single-core host (the backend is deterministic at any count).
        let par = run(ExecMode::parallel(), 4);
        assert_eq!(seq.0, par.0, "states");
        assert_eq!(seq.1, par.1, "metrics");
        assert_eq!(seq.2, par.2, "traces");
        let mut oracle = RefMachine::new(topo, (0..n as u64).collect());
        program(&mut oracle);
        assert_eq!(
            (seq.0, model_counters(&seq.1), seq.2),
            outcome(&oracle),
            "reference machine"
        );
    }

    /// Keyed replay on the threaded backend must match the sequential
    /// validate-every-cycle run and the reference machine bit-for-bit
    /// (Q_13 clears PAR_THRESHOLD).
    #[test]
    fn keyed_replay_matches_across_backends_on_large_machine() {
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(13)));
        let n = topo.num_nodes();
        fn program(m: &mut impl Cycles<u64>) {
            for sweep in 0..3 {
                for i in 0..13u32 {
                    m.cycle(|c| {
                        c.message(
                            move |u, &s| Some((u ^ (1usize << i), s)),
                            move |s, _, v| *s = s.wrapping_mul(31).wrapping_add(v + sweep),
                        )
                        .pairwise()
                        .keyed(ScheduleKey::Dim(i))
                    });
                }
            }
        }
        let run = |exec: ExecMode, replay: bool| {
            let mut m = Machine::with_exec(topo, (0..n as u64).collect(), exec);
            m.set_workers(4);
            m.set_schedule_replay(replay);
            m.enable_trace();
            program(&mut m);
            // The observability counters are the one intended difference
            // between the replay-on and replay-off legs.
            outcome(&m)
        };
        let baseline = run(ExecMode::Sequential, false);
        let mut oracle = RefMachine::new(topo, (0..n as u64).collect());
        program(&mut oracle);
        assert_eq!(baseline, outcome(&oracle), "reference machine");
        let seq_replay = run(ExecMode::Sequential, true);
        assert_eq!(baseline, seq_replay, "sequential replay");
        let par_replay = run(ExecMode::parallel(), true);
        let par_baseline = run(ExecMode::parallel(), false);
        assert_eq!(baseline, par_replay, "threaded replay");
        assert_eq!(baseline, par_baseline, "threaded validate-every-cycle");
    }

    /// A cycle's payload form, as one more input to the error-semantics
    /// probes: a moved message, `K` lanes per message, `K`-lane rows, or
    /// a `K`-lane fold (its travelling slab folded on a pairwise cycle,
    /// read-only otherwise).
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

    /// One cycle in `form` where node `u` sends to `dst(u)` (its own id
    /// as the payload), requiring a symmetric matching when `pairwise`.
    fn try_form(
        m: &mut impl Cycles<u64>,
        form: Form,
        pairwise: bool,
        dst: impl Fn(NodeId) -> Option<NodeId> + Sync,
    ) -> Result<usize, SimError> {
        match form {
            Form::Message => m.try_cycle(|c| {
                let c = c.message(|u, _| dst(u).map(|v| (v, u as u64)), |_, _, _| {});
                if pairwise {
                    c.pairwise()
                } else {
                    c
                }
            }),
            Form::Lanes(k) => m.try_cycle(|c| {
                let c = c.lanes(
                    k,
                    &0,
                    |u, _| dst(u),
                    |u, _, w| w.fill(u as u64),
                    |_, _, _| {},
                );
                if pairwise {
                    c.pairwise()
                } else {
                    c
                }
            }),
            Form::Rows(k) => {
                let n = m.states().len();
                let rows: Vec<u64> = (0..n * k).map(|i| (i / k) as u64).collect();
                let mut landed = vec![0u64; n * k];
                let result = m.try_cycle(|c| {
                    let c = c.rows(k, |u, _| dst(u), [(&rows[..], &mut landed[..])]);
                    if pairwise {
                        c.pairwise()
                    } else {
                        c
                    }
                });
                if result.is_err() {
                    assert!(landed.iter().all(|&v| v == 0), "a failed cycle wrote a row");
                }
                result
            }
            Form::Fold(k) => {
                let n = m.states().len();
                let from: Vec<u64> = (0..n * k).map(|i| (i / k) as u64 + 1).collect();
                let mut t = from.clone();
                let result = m.try_cycle(|c| {
                    let c = c.fold_rows(
                        k,
                        |u, _| dst(u),
                        &from[..],
                        [&mut t[..]],
                        [],
                        |_, [t], [], msg| {
                            for (t, x) in t.iter_mut().zip(msg.into_iter().flatten()) {
                                *t += x;
                            }
                        },
                    );
                    if pairwise {
                        c.pairwise()
                    } else {
                        c
                    }
                });
                if result.is_err() {
                    assert_eq!(t, from, "a failed cycle folded a row");
                    assert_eq!(m.metrics().comp_steps, 0, "a failed cycle charged its fold");
                }
                result
            }
        }
    }

    /// Model violations must be reported identically (same variant, same
    /// nodes) by both backends, every payload form and the reference
    /// machine, with the machine left untouched.
    #[test]
    fn parallel_backend_error_semantics_bit_identical() {
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(13)));
        let n = topo.num_nodes();
        fn probe(m: &mut impl Cycles<u64>, form: Form, case: usize) -> SimError {
            let n = m.states().len();
            let result = match case {
                // Every node sends to node u|1 across dim 0: odd nodes
                // self-send (caught first at node 1), and pairs collide —
                // the backends must agree on which violation is surfaced.
                0 => try_form(m, form, false, |u| Some(u | 1)),
                // Node 4097 sits out of a dim-0 matching, so its partner
                // 4096 is left unpaired.
                1 => try_form(m, form, true, |u| (u != 4097).then_some(u ^ 1)),
                // The upper half sends two dimensions away.
                2 => try_form(m, form, false, |u| (u >= n / 2).then_some(u ^ 3)),
                // A full dim-0 exchange through a crashed node.
                _ => {
                    m.inject_fault(FaultKind::NodeCrash { node: 5000 });
                    try_form(m, form, true, |u| Some(u ^ 1))
                }
            };
            assert_eq!(m.metrics().comm_steps, 0);
            assert!(m.states().iter().all(|&s| s == 0), "machine untouched");
            result.unwrap_err()
        }
        let engine = |exec, form, case| {
            let mut m = Machine::with_exec(topo, vec![0u64; n], exec);
            m.set_workers(4);
            probe(&mut m, form, case)
        };
        let expected = [
            SimError::SelfMessage { node: 1 },
            SimError::AsymmetricPair { a: 4096, b: 4097 },
            SimError::NotAdjacent {
                src: n / 2,
                dst: n / 2 + 3,
            },
            SimError::NodeFailed { node: 5000 },
        ];
        for (case, want) in expected.into_iter().enumerate() {
            for form in FORMS {
                let seq = engine(ExecMode::Sequential, form, case);
                let par = engine(ExecMode::parallel(), form, case);
                let oracle = probe(&mut RefMachine::new(topo, vec![0u64; n]), form, case);
                assert_eq!(seq, want, "case {case}, {form:?}, sequential");
                assert_eq!(par, want, "case {case}, {form:?}, threaded");
                assert_eq!(oracle, want, "case {case}, {form:?}, reference machine");
            }
        }
    }

    #[test]
    fn crashed_node_rejects_sends_in_both_directions() {
        let mut m = machine(2);
        m.inject_fault(FaultKind::NodeCrash { node: 1 });
        assert!(m.is_failed(1));
        assert_eq!(m.failed_nodes(), vec![1]);
        assert_eq!(m.fault_epoch(), 1);
        // 1 as sender: NodeFailed{1} (node 0 stays silent).
        let err = m
            .try_cycle(|c| c.message(|u, &s| (u == 1).then_some((0, s)), |_, _, _: u64| {}))
            .unwrap_err();
        assert_eq!(err, SimError::NodeFailed { node: 1 });
        // 1 as receiver: also NodeFailed{1}.
        let err = m
            .try_cycle(|c| c.message(|u, &s| (u == 0).then_some((1, s)), |_, _, _: u64| {}))
            .unwrap_err();
        assert_eq!(err, SimError::NodeFailed { node: 1 });
        // Machine untouched, no cycle charged.
        assert_eq!(m.metrics().comm_steps, 0);
        // Traffic avoiding node 1 still flows.
        let n =
            m.try_cycle(|c| c.message(|u, &s| (u == 2).then_some((3, s)), |s, _, v: u64| *s += v));
        assert_eq!(n, Ok(1));
    }

    #[test]
    fn downed_link_refuses_traffic_but_endpoints_live() {
        let mut m = machine(2);
        m.inject_fault(FaultKind::LinkDown { a: 0, b: 1 });
        assert_eq!(m.links_down(), &[(0, 1)]);
        let err = m
            .try_cycle(|c| c.message(|u, &s| (u == 1).then_some((0, s)), |_, _, _: u64| {}))
            .unwrap_err();
        assert_eq!(err, SimError::LinkDown { src: 1, dst: 0 });
        // Both endpoints still talk over their other links.
        let n = m.try_cycle(|c| {
            c.message(|u, &s| Some((u ^ 2, s)), |s, _, v| *s += v)
                .pairwise()
        });
        assert_eq!(n, Ok(4));
    }

    #[test]
    fn crashed_node_state_frozen_through_compute() {
        let mut m = machine(2);
        m.inject_fault(FaultKind::NodeCrash { node: 2 });
        m.compute(1, |_, s| *s += 100);
        assert_eq!(m.states(), &[100, 101, 2, 103], "node 2 frozen");
        // Setup is out-of-band and ignores the crash.
        m.setup(|_, s| *s = 0);
        assert_eq!(m.states(), &[0, 0, 0, 0]);
    }

    #[test]
    fn scripted_message_drop_loses_one_cycles_deliveries() {
        let mut m = machine(2);
        m.set_fault_plan(FaultPlan::new().message_drop(1, 0));
        // Cycle 0: no drop armed yet.
        let n = m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
        });
        assert_eq!(n, 4);
        // Cycle 1: messages to node 0 vanish; everyone else delivers.
        let n = m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
        });
        assert_eq!(n, 3);
        assert_eq!(m.metrics().dropped_messages, 1);
        // Cycle 2: transient — back to full delivery.
        let n = m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
        });
        assert_eq!(n, 4);
        assert_eq!(m.metrics().messages, 11);
        assert_eq!(m.metrics().comm_steps, 3);
        assert_eq!(m.fault_epoch(), 0, "drops never bump the epoch");
    }

    /// The tentpole's latent-bug fix: a schedule compiled pre-fault must
    /// not be replayed post-fault. The crash bumps the epoch, the next
    /// keyed cycle takes the recompile path, and full validation rejects
    /// the now-illegal pattern with `NodeFailed` (not a stale replay, and
    /// not a `ScheduleDeviation`).
    #[test]
    fn fault_epoch_invalidates_compiled_schedule() {
        let mut m = machine(2);
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
                .keyed(ScheduleKey::Dim(0))
        });
        assert_eq!(m.metrics().schedule_misses, 1);
        assert_eq!(m.compiled_schedules(), 1);
        m.inject_fault(FaultKind::NodeCrash { node: 3 });
        assert_eq!(m.compiled_schedules(), 0, "epoch bump evicts the entry");
        let err = m
            .try_cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                    .pairwise()
                    .keyed(ScheduleKey::Dim(0))
            })
            .unwrap_err();
        // Lowest offending sender is 2, whose receiver 3 is the corpse.
        assert_eq!(err, SimError::NodeFailed { node: 3 });
        assert_eq!(m.metrics().schedule_hits, 0, "never replayed post-fault");
        // A rerouted pattern that avoids node 3 recompiles under the new
        // epoch and replays thereafter.
        for _ in 0..2 {
            m.cycle(|c| {
                c.message(|u, &s| (u < 2).then_some((u ^ 1, s)), |s, _, v| *s += v)
                    .pairwise()
                    .keyed(ScheduleKey::Dim(0))
            });
        }
        assert_eq!(m.metrics().schedule_misses, 2);
        assert_eq!(m.metrics().schedule_hits, 1);
    }

    /// Scripted faults land at their cycle boundary even when every cycle
    /// is a keyed replay — the boundary check runs before the cache is
    /// consulted.
    #[test]
    fn scripted_crash_vetoes_replay_at_its_boundary() {
        let mut m = machine(2);
        m.set_fault_plan(FaultPlan::new().node_crash(2, 0));
        let run = |m: &mut Machine<'static, Hypercube, u64>| {
            m.try_cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                    .pairwise()
                    .keyed(ScheduleKey::Cross)
            })
        };
        assert!(run(&mut m).is_ok(), "cycle 0 compiles");
        assert!(run(&mut m).is_ok(), "cycle 1 replays");
        assert_eq!(m.metrics().schedule_hits, 1);
        let err = run(&mut m).unwrap_err();
        assert_eq!(err, SimError::NodeFailed { node: 0 });
        assert_eq!(m.fault_epoch(), 1);
        assert_eq!(
            m.metrics().schedule_hits,
            1,
            "the pre-fault schedule must not serve the post-fault cycle"
        );
    }

    /// A pure receive-conflict (no local violations): every backend and
    /// worker count must finger the second-lowest sender and name the
    /// lowest as `first_src`, like the reference machine's walk in node
    /// order. Two fan-ins:
    ///
    /// * nodes 8, 512 and 2048 all target node 0 (dims 3, 9 and 11):
    ///   every claimant sits in a later slot than the receiver, or in its
    ///   own;
    /// * nodes 0, 4097 and 4098 all target node 4096 (dims 12, 0 and 1):
    ///   at 2, 3, 4 and 7 workers the lowest claimant sits in an earlier
    ///   slot than the receiver, while the two higher ones share its
    ///   slot, so validation pass A sees 4098 collide with 4097 and names
    ///   the wrong `first_src` — the conflict pass must outrank it.
    #[test]
    fn parallel_conflict_attribution_matches_sequential() {
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(13)));
        let n = topo.num_nodes();
        type FanIn = fn(NodeId) -> Option<NodeId>;
        let cases: [(FanIn, SimError); 2] = [
            (
                |u| matches!(u, 8 | 512 | 2048).then_some(0),
                SimError::RecvConflict {
                    node: 0,
                    first_src: 8,
                    second_src: 512,
                },
            ),
            (
                |u| matches!(u, 0 | 4097 | 4098).then_some(4096),
                SimError::RecvConflict {
                    node: 4096,
                    first_src: 0,
                    second_src: 4097,
                },
            ),
        ];
        for (dst, want) in cases {
            for form in FORMS {
                let mut oracle = RefMachine::new(topo, vec![0u64; n]);
                let got = try_form(&mut oracle, form, false, dst).unwrap_err();
                assert_eq!(got, want, "{form:?}, reference machine");
                let probe = |exec, workers| {
                    let mut m = Machine::with_exec(topo, vec![0u64; n], exec);
                    m.set_workers(workers);
                    try_form(&mut m, form, false, dst).unwrap_err()
                };
                assert_eq!(probe(ExecMode::Sequential, 0), want, "{form:?}, sequential");
                for workers in [2, 3, 4, 7] {
                    assert_eq!(
                        probe(ExecMode::parallel(), workers),
                        want,
                        "{form:?} at {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn phased_trace_attributes_cycles_to_their_phases() {
        let mut m = machine(2);
        m.enable_trace();
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
        });
        m.begin_phase("a");
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 2, s)), |s, _, v| *s += v)
                .pairwise()
        });
        m.begin_phase("b");
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
        });
        let phases: Vec<Option<u32>> = m.phased_trace().iter().map(|(p, _)| *p).collect();
        assert_eq!(phases, vec![None, Some(0), Some(1)]);
        assert_eq!(
            m.phased_trace()[0].1,
            vec![(0, 1), (1, 0), (2, 3), (3, 2)],
            "message pairs are recorded in sender order"
        );
    }

    #[test]
    fn recorder_streams_phase_and_cycle_events() {
        let _guard = crate::obs::test_recorder_guard();
        let mut m = machine(2);
        let sink = crate::obs::shared(crate::obs::MemorySink::new());
        m.record_into(sink.clone());
        assert!(m.is_recording());
        m.begin_phase("sweep");
        for _ in 0..2 {
            m.cycle(|c| {
                c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                    .pairwise()
                    .keyed(ScheduleKey::Dim(0))
            });
        }
        m.compute(2, |_, s| *s += 1);
        // A failed cycle emits nothing (it charges no step either).
        let before = sink.lock().unwrap().len();
        let _ = m
            .try_cycle(|c| c.message(|u, &s| (u == 0).then_some((3, s)), |_, _, _: u64| {}))
            .unwrap_err();
        assert_eq!(
            sink.lock().unwrap().len(),
            before,
            "failed cycles emit no event"
        );
        let report = m.link_report().expect("recording is on");
        assert_eq!(report.cross_links, 0, "hypercubes have no cross edges");
        assert_eq!(report.cube_messages, 8);
        assert_eq!(m.metrics().link_util.cube_messages, 8);
        assert_eq!(m.metrics().link_util.cross_messages, 0);
        assert!(m.stop_recording().is_some());
        assert!(!m.is_recording());
        let events = sink.lock().unwrap().events();
        assert_eq!(events.len(), 4);
        match &events[0] {
            crate::obs::Event::Phase(p) => {
                assert_eq!(p.index, 0);
                assert_eq!(p.label, "sweep");
            }
            other => panic!("expected a phase event, got {other:?}"),
        }
        let cycle = |e: &crate::obs::Event| match e {
            crate::obs::Event::Cycle(c) => c.clone(),
            other => panic!("expected a cycle event, got {other:?}"),
        };
        let c1 = cycle(&events[1]);
        assert_eq!(c1.kind, CycleKind::Comm);
        assert_eq!(c1.cycle, 0);
        assert_eq!(c1.key, Some(ScheduleKey::Dim(0)));
        assert_eq!(c1.cache, CacheStatus::Miss);
        assert_eq!(c1.phase, Some(0));
        assert_eq!(c1.messages, 4);
        assert_eq!(c1.words, 4);
        let c2 = cycle(&events[2]);
        assert_eq!(c2.cache, CacheStatus::Hit, "second keyed cycle replays");
        assert_eq!(c2.cycle, 1);
        assert_eq!(c2.messages, 4);
        let c3 = cycle(&events[3]);
        assert_eq!(c3.kind, CycleKind::Comp);
        assert_eq!(c3.cycle, 0);
        assert_eq!(c3.steps, 2);
        assert_eq!(c3.ops, 8);
        assert!(events
            .iter()
            .map(|e| match e {
                crate::obs::Event::Phase(p) => p.seq,
                crate::obs::Event::Cycle(c) => c.seq,
            })
            .eq(0..4));
    }

    /// One K-lane batched run must be bit-identical, lane by lane, to K
    /// independent single-lane runs over the same keyed schedule — the
    /// core lane-batching contract (compile cycle AND replay cycles).
    #[test]
    fn lane_batched_pairwise_matches_k_single_lane_runs() {
        const K: usize = 4;
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(3)));
        let n = topo.num_nodes();
        let singles: Vec<Vec<u64>> = (0..K)
            .map(|k| {
                let mut m = Machine::new(topo, (0..n as u64).map(|u| u + 100 * k as u64).collect());
                for _ in 0..2 {
                    for i in 0..3 {
                        m.cycle(|c| {
                            c.message(
                                move |u, &s| Some((u ^ (1usize << i), s)),
                                |s, _, v| *s = s.wrapping_mul(31).wrapping_add(v),
                            )
                            .pairwise()
                            .keyed(ScheduleKey::Dim(i))
                        });
                    }
                }
                m.into_parts().0
            })
            .collect();
        let init: Vec<Vec<u64>> = (0..n as u64)
            .map(|u| (0..K as u64).map(|k| u + 100 * k).collect())
            .collect();
        let mut m = Machine::new(topo, init);
        for _ in 0..2 {
            for i in 0..3 {
                m.cycle(|c| {
                    c.lanes(
                        K,
                        &0u64,
                        move |u, _| Some(u ^ (1usize << i)),
                        |_, s, w| w.copy_from_slice(s),
                        |s, _, w| {
                            for (x, v) in s.iter_mut().zip(w.iter()) {
                                *x = x.wrapping_mul(31).wrapping_add(*v);
                            }
                        },
                    )
                    .pairwise()
                    .keyed(ScheduleKey::Dim(i))
                });
            }
        }
        for (u, state) in m.states().iter().enumerate() {
            for (k, single) in singles.iter().enumerate() {
                assert_eq!(state[k], single[u], "node {u} lane {k}");
            }
        }
        // One schedule compile + replay per key, K words per message.
        assert_eq!(m.metrics().schedule_misses, 3);
        assert_eq!(m.metrics().schedule_hits, 3);
        assert_eq!(m.metrics().messages, 6 * n as u64);
        assert_eq!(m.metrics().message_words, 6 * n as u64 * K as u64);
    }

    /// Lane cycles share the schedule cache with their single-lane
    /// counterparts: the compiled pattern encodes destinations only.
    #[test]
    fn lane_replay_shares_cache_with_single_lane_cycles() {
        let mut m = machine(2);
        m.cycle(|c| {
            c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v)
                .pairwise()
                .keyed(ScheduleKey::Dim(0))
        });
        assert_eq!(m.metrics().schedule_misses, 1);
        m.cycle(|c| {
            c.lanes(
                2,
                &0u64,
                |u, _| Some(u ^ 1),
                |_, &s, w| w.fill(s),
                |s, _, w| *s += w[0] + w[1],
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(0))
        });
        assert_eq!(m.metrics().schedule_hits, 1);
        assert_eq!(m.metrics().schedule_misses, 1);
    }

    #[test]
    fn lane_replay_deviation_rejected_and_machine_untouched() {
        let mut m = machine(2);
        m.cycle(|c| {
            c.lanes(
                2,
                &0u64,
                |u, _| (u == 0).then_some(1),
                |_, &s, w| w.fill(s),
                |s, _, w| *s += w[0] + w[1],
            )
            .keyed(ScheduleKey::Custom(3))
        });
        let before = m.states().to_vec();
        let comm = m.metrics().comm_steps;
        let err = m
            .try_cycle(|c| {
                c.lanes(
                    2,
                    &0u64,
                    |u, _| (u == 1).then_some(0),
                    |_, &s, w| w.fill(s),
                    |s, _, w| *s += w[0] + w[1],
                )
                .keyed(ScheduleKey::Custom(3))
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ScheduleDeviation {
                key: ScheduleKey::Custom(3),
                node: 0
            }
        );
        assert_eq!(m.states(), &before[..], "deviating cycle must not apply");
        assert_eq!(m.metrics().comm_steps, comm, "no step charged");
    }

    /// A scripted drop under lanes loses ONE message (all K lanes of
    /// it): counters charge per message and K words per message.
    #[test]
    fn lane_message_drop_counts_one_message_k_words() {
        let mut m = machine(2);
        m.set_fault_plan(FaultPlan::new().message_drop(0, 0));
        let delivered = m
            .try_cycle(|c| {
                c.lanes(
                    4,
                    &0u64,
                    |u, _| Some(u ^ 1),
                    |_, &s, w| w.fill(s),
                    |s, _, w| *s += w.iter().sum::<u64>(),
                )
                .pairwise()
            })
            .unwrap();
        assert_eq!(delivered, 3, "the drop loses node 0's inbound message");
        assert_eq!(m.metrics().dropped_messages, 1);
        assert_eq!(m.metrics().messages, 3);
        assert_eq!(m.metrics().message_words, 12);
    }

    /// Recorded lane cycles charge `lanes` words per delivered message
    /// into both metrics and the per-link counters, stamp the lane count
    /// on their [`CycleEvent`], and absorb across runs without double- or
    /// under-counting.
    #[test]
    fn recorded_lane_cycles_scale_link_accounting_by_lane_count() {
        let _guard = crate::obs::test_recorder_guard();
        const K: usize = 4;
        let run_once = || {
            let mut m = machine(2);
            let sink = crate::obs::shared(crate::obs::MemorySink::new());
            m.record_into(sink.clone());
            // One compile + one replay cycle under the same key.
            for _ in 0..2 {
                m.cycle(|c| {
                    c.lanes(
                        K,
                        &0u64,
                        |u, _| Some(u ^ 1),
                        |_, &s, w| w.fill(s),
                        |s, _, w| *s += w[0],
                    )
                    .pairwise()
                    .keyed(ScheduleKey::Dim(0))
                });
            }
            let events = sink.lock().unwrap().events();
            for e in &events {
                if let crate::obs::Event::Cycle(c) = e {
                    assert_eq!(c.lanes, K as u32, "lane count stamped on the event");
                    assert_eq!(c.words, c.messages * K as u64);
                }
            }
            m.into_parts().1
        };
        let a = run_once();
        assert_eq!(a.messages, 8, "4 nodes x 2 cycles");
        assert_eq!(a.message_words, 8 * K as u64);
        assert_eq!(a.link_util.cube_messages, 8);
        assert_eq!(a.link_util.cube_words, 8 * K as u64);
        // Absorbing a second identical run doubles everything exactly.
        let mut total = a.clone();
        total.absorb(&run_once());
        assert_eq!(total.messages, 16);
        assert_eq!(total.message_words, 16 * K as u64);
        assert_eq!(total.link_util.cube_words, 16 * K as u64);
    }

    /// Rows move along the matching between separate slabs: row `src`
    /// of each source slab lands in row `u` of its destination slab, a
    /// message is charged `K × pairs` words, and a replay moves the same
    /// rows the compile cycle did.
    #[test]
    fn rows_move_along_the_matching_and_replay_identically() {
        const K: usize = 3;
        let q = Hypercube::new(2);
        let mut m = Machine::new(&q, vec![(); 4]);
        let a: Vec<u64> = (0..4 * K as u64).collect();
        let b: Vec<u64> = a.iter().map(|v| 100 + v).collect();
        for _ in 0..2 {
            let (mut a2, mut b2) = (vec![0; 4 * K], vec![0; 4 * K]);
            m.cycle(|c| {
                c.rows(
                    K,
                    |u, _| Some(u ^ 2),
                    [(&a[..], &mut a2[..]), (&b[..], &mut b2[..])],
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(1))
            });
            for u in 0..4 {
                let from = (u ^ 2) * K;
                assert_eq!(a2[u * K..(u + 1) * K], a[from..from + K], "row {u}");
                assert_eq!(b2[u * K..(u + 1) * K], b[from..from + K], "row {u}");
            }
        }
        let metrics = m.metrics();
        assert_eq!((metrics.schedule_misses, metrics.schedule_hits), (1, 1));
        assert_eq!(metrics.messages, 8);
        assert_eq!(metrics.message_words, 8 * 2 * K as u64);
    }

    /// A rows replay whose plan left its compiled pattern fails with the
    /// deviation error before any row moves, and charges nothing.
    #[test]
    fn rows_replay_deviation_writes_no_row() {
        let q = Hypercube::new(3);
        let mut m = Machine::new(&q, vec![(); 8]);
        let rows: Vec<u64> = (1..=8).collect();
        let mut landed = vec![0u64; 8];
        m.cycle(|c| {
            c.rows(1, |u, _| Some(u ^ 1), [(&rows[..], &mut landed[..])])
                .keyed(ScheduleKey::Custom(3))
        });
        let before = landed.clone();
        let mut fresh = [0u64; 8];
        let err = m
            .try_cycle(|c| {
                c.rows(1, |u, _| Some(u ^ 2), [(&rows[..], &mut fresh[..])])
                    .keyed(ScheduleKey::Custom(3))
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ScheduleDeviation {
                key: ScheduleKey::Custom(3),
                node: 0
            }
        );
        assert!(
            fresh.iter().all(|&v| v == 0),
            "the failed replay wrote a row"
        );
        assert_eq!(landed, before);
        assert_eq!(m.metrics().comm_steps, 1);
        assert_eq!(m.metrics().message_words, 8);
    }

    /// A dropped message leaves its receiver's row as it was and counts
    /// one dropped message; the others deliver `K` words each.
    #[test]
    fn rows_message_drop_leaves_the_receivers_row() {
        let q = Hypercube::new(2);
        let mut m = Machine::new(&q, vec![(); 4]);
        m.set_fault_plan(FaultPlan::new().message_drop(0, 0));
        let rows: Vec<u64> = (0..8).collect();
        let mut landed = vec![99u64; 8];
        let delivered = m
            .try_cycle(|c| {
                c.rows(2, |u, _| Some(u ^ 1), [(&rows[..], &mut landed[..])])
                    .pairwise()
            })
            .unwrap();
        assert_eq!(delivered, 3, "the drop loses node 0's inbound message");
        assert_eq!(landed, [99, 99, 0, 1, 6, 7, 4, 5]);
        assert_eq!(m.metrics().dropped_messages, 1);
        assert_eq!(m.metrics().message_words, 3 * 2);
    }

    /// The row compute phase runs once per live node over its own rows,
    /// freezes crashed nodes' rows, and charges what `compute(1, …)`
    /// charges.
    #[test]
    fn compute_rows_folds_live_rows_and_freezes_crashed_ones() {
        let q = Hypercube::new(2);
        let mut m = Machine::new(&q, vec![(); 4]);
        m.inject_fault(FaultKind::NodeCrash { node: 2 });
        let mut t: Vec<u64> = (0..8).collect();
        let add: Vec<u64> = vec![10; 8];
        m.compute_rows(2, [&mut t[..]], [&add[..]], |u, [t], [add]| {
            for (t, a) in t.iter_mut().zip(add) {
                *t += a + u as u64;
            }
        });
        assert_eq!(t, [10, 11, 13, 14, 4, 5, 19, 20]);
        assert_eq!(m.metrics().comp_steps, 1);
        assert_eq!(m.metrics().element_ops, 4);
    }

    /// A fold cycle folds each live node's sender row, read in place
    /// from the travelling slab as it was before the cycle, charges one
    /// communication and one computation step, and replays the same.
    #[test]
    fn fold_rows_folds_pre_cycle_rows_and_charges_both_steps() {
        const K: usize = 2;
        let q = Hypercube::new(2);
        let mut m = Machine::new(&q, vec![(); 4]);
        let mut t: Vec<u64> = (0..4 * K as u64).collect();
        let mut s = [0u64; 4 * K];
        for round in 0..2 {
            let before = t.clone();
            m.cycle(|c| {
                c.fold_rows(
                    K,
                    |u, _| Some(u ^ 2),
                    &before[..],
                    [&mut t[..], &mut s[..]],
                    [],
                    |_, [t, s], [], msg| {
                        for ((t, s), x) in t.iter_mut().zip(s).zip(msg.expect("all pair up")) {
                            *s = *t;
                            *t = 10 * *t + x;
                        }
                    },
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(1))
            });
            for u in 0..4 {
                for k in 0..K {
                    let (mine, theirs) = (before[u * K + k], before[(u ^ 2) * K + k]);
                    assert_eq!(t[u * K + k], 10 * mine + theirs, "round {round} row {u}");
                    assert_eq!(s[u * K + k], mine, "round {round} row {u}");
                }
            }
        }
        let metrics = m.metrics();
        assert_eq!((metrics.comm_steps, metrics.comp_steps), (2, 2));
        assert_eq!((metrics.schedule_misses, metrics.schedule_hits), (1, 1));
        assert_eq!(metrics.element_ops, 2 * 4);
        assert_eq!(metrics.message_words, 2 * 4 * K as u64);
    }

    /// The ascend-shaped pair fold on runs of `t` and `s`: each end
    /// keeps its pre-cycle `t` in `s` and folds the other end's
    /// pre-cycle `t` in.
    fn swap_fold([lt, ls]: [&mut [u64]; 2], [ht, hs]: [&mut [u64]; 2], got: [bool; 2]) {
        for (((lt, ls), ht), hs) in lt.iter_mut().zip(ls).zip(ht).zip(hs) {
            let (a, b) = (*lt, *ht);
            *ls = a;
            *hs = b;
            *lt = if got[0] { 10 * a + b } else { a + 1000 };
            *ht = if got[1] { 10 * b + a } else { b + 1000 };
        }
    }

    /// A pair fold folds both ends of every pair in place from their
    /// pre-cycle rows, on a uniform and on a by-class flip, charges one
    /// communication and one computation step, and replays the same
    /// (the replay by flip equality included).
    #[test]
    fn fold_pairs_fold_both_ends_in_place_and_charge_both_steps() {
        const K: usize = 2;
        let q = Hypercube::new(3);
        // Q_3's top bit splits it into halves: the low half flips bit 0,
        // the high half bit 1.
        for flip in [Flip::uniform(1), Flip::by_class(2, [0, 1])] {
            let partner = |u: usize| flip.partner(u);
            assert!((0..8).all(|u| partner(partner(u)) == u && partner(u) != u));
            let mut m = Machine::new(&q, vec![(); 8]);
            let mut t: Vec<u64> = (0..8 * K as u64).collect();
            let mut s = [0u64; 8 * K];
            for round in 0..3 {
                let before = t.clone();
                m.cycle(|c| {
                    c.fold_pairs(K, flip, [&mut t[..], &mut s[..]], swap_fold)
                        .keyed(ScheduleKey::Dim(1))
                });
                for u in 0..8 {
                    for k in 0..K {
                        let (mine, theirs) = (before[u * K + k], before[partner(u) * K + k]);
                        let case = format!("{flip:?} round {round} row {u}");
                        assert_eq!(t[u * K + k], 10 * mine + theirs, "{case}");
                        assert_eq!(s[u * K + k], mine, "{case}");
                    }
                }
            }
            let metrics = m.metrics();
            assert_eq!((metrics.comm_steps, metrics.comp_steps), (3, 3));
            assert_eq!((metrics.schedule_misses, metrics.schedule_hits), (1, 2));
            assert_eq!((metrics.messages, metrics.element_ops), (3 * 8, 3 * 8));
            assert_eq!(metrics.message_words, 3 * 8 * K as u64);
        }
    }

    /// A dropped message reaches its fold as `None` and is counted as a
    /// rows cycle counts it: one dropped message, its `K` words not
    /// charged.
    #[test]
    fn fold_rows_message_drop_reaches_the_fold_as_none() {
        let q = Hypercube::new(2);
        let mut m = Machine::new(&q, vec![(); 4]);
        m.set_fault_plan(FaultPlan::new().message_drop(0, 0));
        let from: Vec<u64> = (0..8).collect();
        let mut t = vec![100u64; 8];
        let delivered = m
            .try_cycle(|c| {
                c.fold_rows(
                    2,
                    |u, _| Some(u ^ 1),
                    &from[..],
                    [&mut t[..]],
                    [],
                    |_, [t], [], msg| match msg {
                        Some(x) => t.copy_from_slice(x),
                        None => t.fill(99),
                    },
                )
                .pairwise()
            })
            .unwrap();
        assert_eq!(delivered, 3, "the drop loses node 0's inbound message");
        assert_eq!(t, [99, 99, 0, 1, 6, 7, 4, 5]);
        let metrics = m.metrics();
        assert_eq!(metrics.dropped_messages, 1);
        assert_eq!(metrics.message_words, 3 * 2);
        assert_eq!((metrics.comm_steps, metrics.comp_steps), (1, 1));
    }

    /// Armed drops reach a pair fold as `got = false` at the receiving
    /// end, on the compile cycle and on a replay by flip equality, and
    /// are counted as a rows cycle counts them.
    #[test]
    fn fold_pairs_message_drops_reach_the_fold_as_not_got() {
        const K: usize = 2;
        let q = Hypercube::new(2);
        let mut m = Machine::new(&q, vec![(); 4]);
        let mut rows = Machine::new(&q, vec![(); 4]);
        let plan = FaultPlan::new().message_drop(0, 0).message_drop(1, 3);
        m.set_fault_plan(plan.clone());
        rows.set_fault_plan(plan);
        let mut t: Vec<u64> = (0..4 * K as u64).collect();
        let mut s = [0u64; 4 * K];
        for (cycle, lost) in [(0, 0), (1, 3)] {
            let before = t.clone();
            let delivered = m.cycle(|c| {
                c.fold_pairs(K, Flip::uniform(0), [&mut t[..], &mut s[..]], swap_fold)
                    .keyed(ScheduleKey::Dim(0))
            });
            let mut landed = [0u64; 4 * K];
            let counted = rows.cycle(|c| {
                c.rows(K, |u, _| Some(u ^ 1), [(&before[..], &mut landed[..])])
                    .pairwise()
                    .keyed(ScheduleKey::Dim(0))
            });
            assert_eq!(delivered, 3, "cycle {cycle}");
            assert_eq!(delivered, counted, "cycle {cycle}");
            for u in 0..4 {
                for k in 0..K {
                    let (mine, theirs) = (before[u * K + k], before[(u ^ 1) * K + k]);
                    let want = if u == lost {
                        mine + 1000
                    } else {
                        10 * mine + theirs
                    };
                    assert_eq!(t[u * K + k], want, "cycle {cycle} row {u}");
                }
            }
        }
        let (folded, moved) = (m.metrics(), rows.metrics());
        assert_eq!(folded.dropped_messages, 2);
        assert_eq!(
            (
                folded.messages,
                folded.message_words,
                folded.dropped_messages
            ),
            (moved.messages, moved.message_words, moved.dropped_messages)
        );
        assert_eq!((folded.schedule_misses, folded.schedule_hits), (1, 1));
    }

    /// A keyed pair fold whose flip differs from the one compiled under
    /// its key fails with the deviation the per-node replay names — the
    /// same a rows cycle with that plan gets — and leaves the slabs and
    /// the metrics untouched.
    #[test]
    fn pair_fold_with_another_flip_deviates_and_changes_nothing() {
        let q = Hypercube::new(3);
        let key = ScheduleKey::Dim(0);
        let mut m = Machine::new(&q, vec![(); 8]);
        let mut t: Vec<u64> = (0..8).collect();
        let mut s = [0u64; 8];
        m.cycle(|c| {
            c.fold_pairs(1, Flip::uniform(0), [&mut t[..], &mut s[..]], swap_fold)
                .keyed(key)
        });
        let (t0, s0, metrics) = (t.clone(), s, m.metrics().clone());
        for flip in [Flip::uniform(1), Flip::by_class(2, [0, 1])] {
            let err = m
                .try_cycle(|c| {
                    c.fold_pairs(1, flip, [&mut t[..], &mut s[..]], swap_fold)
                        .keyed(key)
                })
                .unwrap_err();
            let mut rows = Machine::new(&q, vec![(); 8]);
            let (from, mut landed) = (vec![0u64; 8], vec![0u64; 8]);
            rows.cycle(|c| {
                c.rows(1, |u, _| Some(u ^ 1), [(&from[..], &mut landed[..])])
                    .keyed(key)
            });
            let want = rows
                .try_cycle(|c| {
                    c.rows(
                        1,
                        |u, _| Some(flip.partner(u)),
                        [(&from[..], &mut landed[..])],
                    )
                    .keyed(key)
                })
                .unwrap_err();
            assert!(matches!(err, SimError::ScheduleDeviation { .. }), "{err}");
            assert_eq!(err, want, "{flip:?}");
            assert_eq!((&t, &s), (&t0, &s0), "a deviating cycle folded a row");
            assert_eq!(m.metrics(), &metrics, "a deviating cycle charged");
        }
        // The compiled flip still replays.
        m.cycle(|c| {
            c.fold_pairs(1, Flip::uniform(0), [&mut t[..], &mut s[..]], swap_fold)
                .keyed(key)
        });
        assert_eq!(m.metrics().schedule_hits, 1);
    }

    /// One schedule cache serves both plan kinds: a schedule a
    /// closure-planned rows cycle compiled replays an equal flip's pair
    /// fold (node by node), and one a pair fold compiled replays the
    /// rows cycle; every result equals the unkeyed run's.
    #[test]
    fn closure_and_flip_schedules_serve_each_other() {
        let q = Hypercube::new(3);
        let key = ScheduleKey::Dim(2);
        let flip = Flip::uniform(2);
        let run = |fold_first: bool, keyed: bool| {
            let mut m = Machine::new(&q, vec![(); 8]);
            m.enable_trace();
            let mut t: Vec<u64> = (0..8).map(|u| u * 3 + 1).collect();
            let mut s = vec![0u64; 8];
            let mut landed = vec![0u64; 8];
            for fold in [fold_first, !fold_first, fold_first, !fold_first] {
                if fold {
                    m.cycle(|c| {
                        let c = c.fold_pairs(1, flip, [&mut t[..], &mut s[..]], swap_fold);
                        if keyed {
                            c.keyed(key)
                        } else {
                            c
                        }
                    });
                } else {
                    m.cycle(|c| {
                        let c = c
                            .rows(1, |u, _| Some(u ^ 4), [(&t[..], &mut landed[..])])
                            .pairwise();
                        if keyed {
                            c.keyed(key)
                        } else {
                            c
                        }
                    });
                }
            }
            let metrics = m.metrics().clone();
            (t, s, landed, m.phased_trace().to_vec(), metrics)
        };
        for fold_first in [false, true] {
            let plain = run(fold_first, false);
            let keyed = run(fold_first, true);
            assert_eq!(keyed.4.schedule_misses, 1, "fold first: {fold_first}");
            assert_eq!(keyed.4.schedule_hits, 3, "fold first: {fold_first}");
            assert_eq!(model_counters(&keyed.4), model_counters(&plain.4));
            assert_eq!(
                (keyed.0, keyed.1, keyed.2, keyed.3),
                (plain.0, plain.1, plain.2, plain.3)
            );
        }
    }

    /// A crash after a pair fold compiled bumps the epoch, so the next
    /// cycle under the key recompiles, and full validation blames the
    /// node a closure plan of the same matching is blamed on.
    #[test]
    fn crash_after_compile_recompiles_a_pair_fold() {
        let q = Hypercube::new(3);
        let key = ScheduleKey::Dim(0);
        let mut m = Machine::new(&q, vec![(); 8]);
        let mut t: Vec<u64> = (0..8).collect();
        let mut s = [0u64; 8];
        m.cycle(|c| {
            c.fold_pairs(1, Flip::uniform(0), [&mut t[..], &mut s[..]], swap_fold)
                .keyed(key)
        });
        m.inject_fault(FaultKind::NodeCrash { node: 5 });
        let (t0, comm) = (t.clone(), m.metrics().comm_steps);
        let err = m
            .try_cycle(|c| {
                c.fold_pairs(1, Flip::uniform(0), [&mut t[..], &mut s[..]], swap_fold)
                    .keyed(key)
            })
            .unwrap_err();
        let mut closure = Machine::new(&q, vec![(); 8]);
        closure.inject_fault(FaultKind::NodeCrash { node: 5 });
        let (from, mut landed) = (vec![0u64; 8], vec![0u64; 8]);
        let want = closure
            .try_cycle(|c| {
                c.rows(1, |u, _| Some(u ^ 1), [(&from[..], &mut landed[..])])
                    .pairwise()
                    .keyed(key)
            })
            .unwrap_err();
        assert_eq!(err, SimError::NodeFailed { node: 5 });
        assert_eq!(err, want);
        assert_eq!(t, t0, "a failed cycle folded a row");
        assert_eq!(m.metrics().comm_steps, comm);
        assert_eq!(m.metrics().schedule_hits, 0, "never replayed post-fault");
    }

    /// A by-class flip's class bit must be the machine's top address
    /// bit, so each class is one half of the machine.
    #[test]
    #[should_panic(expected = "top address bit")]
    fn by_class_flip_needs_the_top_address_bit() {
        let q = Hypercube::new(4);
        let mut m = Machine::new(&q, vec![(); 16]);
        let mut t = [0u8; 16];
        m.cycle(|c| c.fold_pairs(1, Flip::by_class(2, [0, 1]), [&mut t[..]], |_, _, _| {}));
    }

    /// A fold skips a crashed node, so its rows freeze, and a silent
    /// live node folds with `None`.
    #[test]
    fn fold_rows_freezes_crashed_nodes() {
        let q = Hypercube::new(2);
        let mut m = Machine::new(&q, vec![(); 4]);
        m.inject_fault(FaultKind::NodeCrash { node: 3 });
        let from: Vec<u64> = vec![5; 4];
        let mut t: Vec<u64> = vec![1; 4];
        m.cycle(|c| {
            c.fold_rows(
                1,
                |u, _| (u < 2).then_some(u ^ 1),
                &from[..],
                [&mut t[..]],
                [],
                |_, [t], [], msg| t[0] += msg.map_or(100, |x| x[0]),
            )
        });
        assert_eq!(t, [6, 6, 101, 1]);
        assert_eq!(m.metrics().element_ops, 4);
    }

    /// Recorded rows cycles stamp `K × pairs` lanes on their events and
    /// charge that many words per message to the link counters.
    #[test]
    fn recorded_rows_cycles_report_k_times_pairs_lanes() {
        let _guard = crate::obs::test_recorder_guard();
        const K: usize = 3;
        let q = Hypercube::new(2);
        let mut m = Machine::new(&q, vec![(); 4]);
        let sink = crate::obs::shared(crate::obs::MemorySink::new());
        m.record_into(sink.clone());
        let (a, b) = (vec![1u64; 4 * K], vec![2u64; 4 * K]);
        for _ in 0..2 {
            let (mut a2, mut b2) = (vec![0; 4 * K], vec![0; 4 * K]);
            m.cycle(|c| {
                c.rows(
                    K,
                    |u, _| Some(u ^ 1),
                    [(&a[..], &mut a2[..]), (&b[..], &mut b2[..])],
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(0))
            });
        }
        let events = sink.lock().unwrap().events();
        assert_eq!(events.len(), 2);
        for e in &events {
            if let crate::obs::Event::Cycle(c) = e {
                assert_eq!(c.lanes, 2 * K as u32);
                assert_eq!(c.words, c.messages * 2 * K as u64);
            }
        }
        let report = m.link_report().expect("recording");
        assert_eq!(report.cube_messages, 8);
        assert_eq!(report.cube_words, 8 * 2 * K as u64);
        assert_eq!(m.metrics().link_util.cube_words, 8 * 2 * K as u64);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_row_width_rejected() {
        let q = Hypercube::new(1);
        let mut m = Machine::new(&q, vec![(); 2]);
        let (a, mut b) = (vec![0u8; 2], vec![0u8; 2]);
        m.cycle(|c| c.rows(0, |u, _| Some(u ^ 1), [(&a[..], &mut b[..])]));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_width_row_compute_rejected() {
        let q = Hypercube::new(1);
        let mut m = Machine::new(&q, vec![(); 2]);
        let mut t: Vec<u8> = Vec::new();
        m.compute_rows(0, [&mut t[..]], [], |_, _, []| {});
    }

    #[test]
    #[should_panic(expected = "values per node")]
    fn short_row_slab_rejected() {
        let q = Hypercube::new(1);
        let mut m = Machine::new(&q, vec![(); 2]);
        let (a, mut b) = (vec![0u8; 4], vec![0u8; 3]);
        m.cycle(|c| c.rows(2, |u, _| Some(u ^ 1), [(&a[..], &mut b[..])]));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let mut m = machine(2);
        let _ = m.try_cycle(|c| {
            c.lanes(
                0,
                &0u64,
                |_, _| None::<usize>,
                |_, _, _: &mut [u64]| {},
                |_, _, _| {},
            )
        });
    }

    /// Lane cycles are deterministic across backends, worker counts, and
    /// replay settings (Q_13 clears PAR_THRESHOLD so the threaded legs
    /// really dispatch on the pool).
    #[test]
    fn lane_cycles_match_across_backends_and_replay() {
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(13)));
        let n = topo.num_nodes();
        const K: usize = 3;
        let init = || {
            (0..n as u64)
                .map(|u| vec![u, u.wrapping_mul(7), u ^ 0x55])
                .collect()
        };
        fn program(m: &mut impl Cycles<Vec<u64>>) {
            for _ in 0..3 {
                for i in 0..4u32 {
                    m.cycle(|c| {
                        c.lanes(
                            K,
                            &0u64,
                            move |u, _| Some(u ^ (1usize << i)),
                            |_, s, w| w.copy_from_slice(s),
                            |s, _, w| {
                                for (x, v) in s.iter_mut().zip(w.iter()) {
                                    *x = x.wrapping_mul(5).wrapping_add(*v);
                                }
                            },
                        )
                        .pairwise()
                        .keyed(ScheduleKey::Dim(i))
                    });
                }
            }
        }
        let run = |exec: ExecMode, replay: bool, workers: usize| {
            let mut m = Machine::with_exec(topo, init(), exec);
            m.set_workers(workers);
            m.set_schedule_replay(replay);
            m.enable_trace();
            program(&mut m);
            outcome(&m)
        };
        let baseline = run(ExecMode::Sequential, false, 0);
        let mut oracle = RefMachine::new(topo, init());
        program(&mut oracle);
        assert_eq!(baseline, outcome(&oracle), "reference machine");
        assert_eq!(
            baseline,
            run(ExecMode::Sequential, true, 0),
            "sequential replay"
        );
        for workers in [2usize, 4] {
            assert_eq!(
                baseline,
                run(ExecMode::parallel(), true, workers),
                "threaded replay at {workers} workers"
            );
            assert_eq!(
                baseline,
                run(ExecMode::parallel(), false, workers),
                "threaded validate-every-cycle at {workers} workers"
            );
        }
    }

    /// The rows form on a machine past the parallel threshold: the same
    /// slabs after the same cycles on both backends, replay on or off,
    /// at 2 and 4 workers, and equal to the lanes form's per-node states
    /// for the same fold.
    #[test]
    fn rows_cycles_match_across_backends_replay_and_the_lane_form() {
        let topo: &'static Hypercube = Box::leak(Box::new(Hypercube::new(13)));
        let n = topo.num_nodes();
        const K: usize = 3;
        fn init(u: u64) -> [u64; K] {
            [u, u.wrapping_mul(7), u ^ 0x55]
        }
        /// The rounds on `m`, returning the final value slab.
        fn program(m: &mut impl Cycles<()>) -> Vec<u64> {
            let n = m.states().len();
            let mut cur: Vec<u64> = (0..n as u64).flat_map(init).collect();
            let mut temp = vec![0u64; n * K];
            for _ in 0..3 {
                for i in 0..4u32 {
                    m.cycle(|c| {
                        c.rows(
                            K,
                            move |u, _| Some(u ^ (1usize << i)),
                            [(&cur[..], &mut temp[..])],
                        )
                        .pairwise()
                        .keyed(ScheduleKey::Dim(i))
                    });
                    m.compute_rows(K, [&mut cur[..]], [&temp[..]], |_, [x], [v]| {
                        for (x, v) in x.iter_mut().zip(v) {
                            *x = x.wrapping_mul(5).wrapping_add(*v);
                        }
                    });
                }
            }
            cur
        }
        let run = |exec: ExecMode, replay: bool, workers: usize| {
            let mut m = Machine::with_exec(topo, vec![(); n], exec);
            m.set_workers(workers);
            m.set_schedule_replay(replay);
            m.enable_trace();
            let cur = program(&mut m);
            (cur, outcome(&m))
        };
        let baseline = run(ExecMode::Sequential, false, 0);
        let mut oracle = RefMachine::new(topo, vec![(); n]);
        let cur = program(&mut oracle);
        assert_eq!(baseline, (cur, outcome(&oracle)), "reference machine");
        let mut lanes = Machine::with_exec(
            topo,
            (0..n as u64).map(|u| init(u).to_vec()).collect(),
            ExecMode::Sequential,
        );
        for _ in 0..3 {
            for i in 0..4u32 {
                lanes.cycle(|c| {
                    c.lanes(
                        K,
                        &0u64,
                        move |u, _| Some(u ^ (1usize << i)),
                        |_, s, w| w.copy_from_slice(s),
                        |s, _, w| {
                            for (x, v) in s.iter_mut().zip(w.iter()) {
                                *x = x.wrapping_mul(5).wrapping_add(*v);
                            }
                        },
                    )
                    .pairwise()
                });
            }
        }
        let (cur, (_, counters, _)) = &baseline;
        assert_eq!(*cur, lanes.states().concat(), "rows vs lanes");
        assert_eq!(counters.message_words, lanes.metrics().message_words);
        assert_eq!(
            baseline,
            run(ExecMode::Sequential, true, 0),
            "sequential replay"
        );
        for workers in [2usize, 4] {
            assert_eq!(
                baseline,
                run(ExecMode::parallel(), true, workers),
                "threaded replay at {workers} workers"
            );
            assert_eq!(
                baseline,
                run(ExecMode::parallel(), false, workers),
                "threaded validate-every-cycle at {workers} workers"
            );
        }
    }

    /// Node ids are packed into `u32` everywhere (compiled schedules,
    /// the split inbox's source array, claim tables); a topology past
    /// the 2³¹ − 1 ceiling must be rejected at construction, before any
    /// per-node structure is sized. States are zero-sized so the `Vec`
    /// never actually allocates 2³¹ elements.
    #[test]
    #[should_panic(expected = "packs node ids into u32")]
    fn construction_rejects_topologies_past_the_u32_ceiling() {
        struct Huge;
        impl Topology for Huge {
            fn num_nodes(&self) -> usize {
                1 << 31
            }
            fn neighbors_into(&self, _u: NodeId, out: &mut Vec<NodeId>) {
                out.clear();
            }
            fn name(&self) -> String {
                "Huge(2^31)".into()
            }
        }
        static HUGE: Huge = Huge;
        let _ = Machine::new(&HUGE, vec![(); 1 << 31]);
    }
}
