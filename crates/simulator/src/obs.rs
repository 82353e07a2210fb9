//! Structured cycle-event tracing: a zero-cost-when-off observability
//! layer for the simulator.
//!
//! The paper's theorems are statements about *per-phase* step counts
//! (Theorem 1 splits `D_prefix`'s `2n+1` communication steps across five
//! named phases), but aggregate [`Metrics`] counters cannot show where
//! cycles, wall-clock time, or link traffic actually go. This module adds
//! an event stream: a [`Recorder`] installed on a
//! [`Machine`](crate::Machine) emits one [`Event`] per labelled phase and
//! per executed cycle — carrying the cycle kind, the active phase, the
//! [`ScheduleKey`] and cache disposition, the fault epoch, the backend
//! and its worker count, message/word counts, and a wall-clock duration
//! measured around the dispatch — into a pluggable [`Sink`]. Two sinks
//! ship: [`MemorySink`] (optionally a bounded ring) for tests and tools,
//! and [`JsonlSink`] for streaming one JSON object per line. The
//! [`export_perfetto`] function converts a recorded stream into Chrome
//! trace-event JSON (phases become duration events, cycles become
//! instants) that opens directly in `ui.perfetto.dev`.
//!
//! # Cost model
//!
//! *Recorder off* (the default): the hot path performs one
//! `Option::is_none` check per cycle and **zero** allocations or clock
//! reads — pinned by `tests/zero_alloc.rs` and the `cycle_overhead`
//! bench. The worker pool's per-dispatch timing is additionally gated on
//! a process-global recorder count, so an idle process never calls
//! `Instant::now` in the fork-join path at all.
//!
//! *Recorder on*: each cycle costs two clock reads, an event allocation,
//! and a sink lock; link-utilization accounting adds one
//! [`Topology::is_cross_edge`](dc_topology::Topology::is_cross_edge)
//! query per delivered message. Overheads are measured in
//! EXPERIMENTS.md §E25.
//!
//! # Determinism
//!
//! Sequential and parallel backends emit **identical** event streams
//! modulo the timing fields ([`CycleEvent::at_ns`],
//! [`CycleEvent::dur_ns`], [`CycleEvent::pool`], and
//! [`CycleEvent::backend`] itself) — compare streams with
//! [`Event::normalized`]. The `recorder_determinism` integration test
//! pins this across backends × replay settings.

use crate::metrics::Metrics;
use crate::schedule::ScheduleKey;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which kind of synchronous cycle a [`CycleEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleKind {
    /// A communication cycle (one validated 1-port message exchange).
    Comm,
    /// One or more computation cycles charged together by
    /// [`Machine::compute`](crate::Machine::compute).
    Comp,
}

impl CycleKind {
    fn as_str(self) -> &'static str {
        match self {
            CycleKind::Comm => "comm",
            CycleKind::Comp => "comp",
        }
    }
}

/// How a communication cycle interacted with the schedule cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// The cycle ran through an unkeyed entry point; nothing to cache.
    Unkeyed,
    /// The cycle was keyed but the machine has schedule replay disabled
    /// (see [`Machine::set_schedule_replay`](crate::Machine::set_schedule_replay)),
    /// so it ran full validation without touching the cache.
    Bypass,
    /// First sight of the key (in this fault epoch): the cycle ran full
    /// validation and compiled its schedule.
    Miss,
    /// The cycle replayed a previously compiled schedule.
    Hit,
}

impl CacheStatus {
    fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Unkeyed => "unkeyed",
            CacheStatus::Bypass => "bypass",
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
        }
    }
}

/// Which execution backend ran the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The in-thread sequential backend.
    Sequential,
    /// The persistent worker pool.
    Threaded {
        /// The machine's worker count: the dispatch slots of this cycle's
        /// passes (see [`Machine::set_workers`](crate::Machine::set_workers)).
        workers: usize,
    },
}

/// Per-cycle timing totals reported by the worker pool: how long the
/// cycle's fork-join dispatches spent publishing work versus executing
/// it. Only populated while a recorder is installed (the pool's clock
/// reads are gated on a process-global recorder count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolDispatchStats {
    /// Fork-join dispatches issued during the cycle (plan, validation,
    /// delivery, … phases each dispatch once).
    pub dispatches: u64,
    /// Total nanoseconds from dispatch entry to the job being published
    /// to the workers (resize + publish cost).
    pub queue_ns: u64,
    /// Total nanoseconds from publication to the last worker clearing
    /// the join barrier.
    pub exec_ns: u64,
}

/// One labelled phase opening, emitted by
/// [`Machine::begin_phase`](crate::Machine::begin_phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Position of this event in its recorder's stream (0-based).
    pub seq: u64,
    /// Index of the phase in [`Metrics::phases`].
    pub index: u32,
    /// The phase label, exactly as passed to `begin_phase`.
    pub label: String,
    /// Nanoseconds since the recorder was installed.
    pub at_ns: u64,
}

/// One executed cycle. Emitted after the cycle commits — failed cycles
/// (validation errors, fault hits) emit nothing, mirroring the machine's
/// "errors charge no step" contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleEvent {
    /// Position of this event in its recorder's stream (0-based).
    pub seq: u64,
    /// Communication or computation.
    pub kind: CycleKind,
    /// Kind-relative cycle index: the value of
    /// [`Metrics::comm_steps`] / [`Metrics::comp_steps`] *before* this
    /// event's cycles were charged.
    pub cycle: u64,
    /// Cycles charged by this event (always 1 for `Comm`; the `steps`
    /// argument for `Comp`).
    pub steps: u64,
    /// Index into [`Metrics::phases`] of the phase active when the cycle
    /// ran, or `None` before the first `begin_phase`.
    pub phase: Option<u32>,
    /// The schedule key, for keyed communication cycles.
    pub key: Option<ScheduleKey>,
    /// Schedule-cache disposition of the cycle.
    pub cache: CacheStatus,
    /// The machine's fault epoch when the cycle ran.
    pub fault_epoch: u64,
    /// Messages delivered (drops excluded), `0` for `Comp`.
    pub messages: u64,
    /// Payload words delivered (drops excluded), `0` for `Comp`.
    pub words: u64,
    /// Messages lost to scripted drops this cycle.
    pub dropped: u64,
    /// Payload lanes carried per message: `1` for ordinary cycles (and
    /// `Comp` events), `K` for lane-batched communication cycles —
    /// `words = lanes × messages` for full-lane cycles.
    pub lanes: u32,
    /// Element operations charged, `0` for `Comm`.
    pub ops: u64,
    /// Backend that executed the cycle.
    pub backend: Backend,
    /// Nanoseconds since the recorder was installed, taken at emission.
    pub at_ns: u64,
    /// Wall-clock nanoseconds measured around the whole cycle dispatch.
    pub dur_ns: u64,
    /// Worker-pool dispatch timing, when the cycle used the pool.
    pub pool: Option<PoolDispatchStats>,
}

/// A recorded event: a phase opening or an executed cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// See [`PhaseEvent`].
    Phase(PhaseEvent),
    /// See [`CycleEvent`].
    Cycle(CycleEvent),
}

impl Event {
    /// This event with every timing-dependent field zeroed: `at_ns`,
    /// `dur_ns`, and the pool stats cleared, and the backend collapsed
    /// to [`Backend::Sequential`]. Two runs of the same program emit
    /// streams whose normalized forms are equal regardless of backend,
    /// worker count, or wall-clock — the determinism tests compare
    /// exactly this.
    pub fn normalized(&self) -> Event {
        match self {
            Event::Phase(p) => Event::Phase(PhaseEvent {
                at_ns: 0,
                ..p.clone()
            }),
            Event::Cycle(c) => Event::Cycle(CycleEvent {
                at_ns: 0,
                dur_ns: 0,
                pool: None,
                backend: Backend::Sequential,
                ..c.clone()
            }),
        }
    }
}

/// Receives recorded events. Implementations must be cheap per call —
/// the recorder holds a lock across [`Sink::record`].
///
/// `Send` is a supertrait so one sink can be shared by the recorders of
/// several machines (cloned ones, or those one configuration builds) on
/// any thread.
pub trait Sink: Send {
    /// Accepts one event. Errors (e.g. a full pipe under [`JsonlSink`])
    /// are the sink's problem; observability must never fail the run.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output. Default: no-op.
    fn flush(&mut self) {}
}

/// A shareable handle to a sink: the machines' recorders and the caller
/// inspecting results all hold clones of the same `Arc`.
pub type SharedSink = Arc<Mutex<dyn Sink>>;

/// Wraps a sink in the shared handle the recorder APIs take.
pub fn shared<S: Sink + 'static>(sink: S) -> Arc<Mutex<S>> {
    Arc::new(Mutex::new(sink))
}

/// An in-memory sink: unbounded by default, or a fixed-capacity ring
/// ([`MemorySink::ring`]) that keeps only the newest events. The test
/// and CLI workhorse.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: VecDeque<Event>,
    cap: Option<usize>,
    evicted: u64,
}

impl MemorySink {
    /// An unbounded memory sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A ring buffer keeping the most recent `cap` events; older events
    /// are evicted (and counted in [`MemorySink::evicted`]).
    pub fn ring(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        MemorySink {
            events: VecDeque::with_capacity(cap),
            cap: Some(cap),
            evicted: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring bound (0 for unbounded sinks).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        if let Some(cap) = self.cap {
            if self.events.len() == cap {
                self.events.pop_front();
                self.evicted += 1;
            }
        }
        self.events.push_back(event.clone());
    }
}

/// A streaming sink writing one JSON object per event, one per line
/// (JSON Lines). Write errors are swallowed — observability must never
/// fail the run — but stop incrementing [`JsonlSink::lines`], so tests
/// can detect a dead writer.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    lines: u64,
}

impl JsonlSink {
    /// Streams events to `out`.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        JsonlSink {
            out: Box::new(out),
            lines: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .finish_non_exhaustive()
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        let mut line = event_to_json(event);
        line.push('\n');
        if self.out.write_all(line.as_bytes()).is_ok() {
            self.lines += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Per-link traffic counters kept by the recorder. Stored in a flat
/// port-indexed table (slot `min(a,b) · max_ports + port_of(min, max)`,
/// computed by the machine), so the per-message accounting path is one
/// bounds-checked index instead of a hash-map probe — the §E25 ~28 ns/msg
/// tax. A slot with `messages == 0` is an untouched link and is skipped
/// by the rollup.
#[derive(Debug, Clone, Copy, Default)]
struct LinkCounter {
    messages: u64,
    words: u64,
    cross: bool,
}

/// The recorder's link-counter store: the flat port-indexed slot space
/// split into fixed-size **segments** allocated on first touch.
///
/// A single flat `Vec` indexed by `min · max_ports + port` must grow to
/// the highest slot touched — at `D_12` (8.4 M nodes × 13 ports) that is
/// GB-scale before the run records a single event, even when the run
/// only ever touches a thin band of links. Segmenting the slot space
/// (the machine configures `seg_slots = shard_chunk · max_ports`, so one
/// segment holds exactly the links whose **min endpoint** lives in one
/// shard) makes allocation proportional to the shards actually traffic-
/// carrying, and makes each segment's first touch happen on the worker
/// that owns the shard — first-touch locality for the sharded engine.
///
/// Unconfigured (`seg_slots == 0`) the table degenerates to the old
/// single growing segment, which standalone recorders (no machine
/// attached) still use. Slot order is preserved either way: iterating
/// segments in order then slots in order visits the global slot space
/// ascending, so reports are bit-identical to the flat layout.
#[derive(Debug, Clone, Default)]
struct LinkTable {
    /// Slots per segment; `0` = unsegmented single-segment fallback.
    seg_slots: usize,
    /// `segs[s]` covers global slots `[s · seg_slots, (s+1) · seg_slots)`,
    /// grown lazily to the highest local slot touched.
    segs: Vec<Vec<LinkCounter>>,
}

impl LinkTable {
    /// Whether no counter has been touched yet (configuration window).
    fn is_untouched(&self) -> bool {
        self.segs.iter().all(|s| s.is_empty())
    }

    /// Sets the segment width. Only effective while the table is
    /// untouched — re-bucketing live counters is never worth it, and the
    /// totals are layout-independent anyway.
    fn configure(&mut self, seg_slots: usize) {
        if seg_slots > 0 && self.seg_slots != seg_slots && self.is_untouched() {
            self.seg_slots = seg_slots;
            self.segs.clear();
        }
    }

    /// Folds `messages`/`words` into `slot`'s counter, growing the
    /// owning segment (and the segment directory) on first touch.
    #[inline]
    fn add(&mut self, slot: usize, messages: u64, words: u64, cross: bool) {
        // `checked_div` gates the unsegmented fallback (`seg_slots == 0`).
        let (seg, local) = match slot.checked_div(self.seg_slots) {
            Some(seg) => (seg, slot % self.seg_slots),
            None => (0, slot),
        };
        if self.segs.len() <= seg {
            self.segs.resize(seg + 1, Vec::new());
        }
        let s = &mut self.segs[seg];
        if s.len() <= local {
            s.resize(local + 1, LinkCounter::default());
        }
        let c = &mut s[local];
        c.messages += messages;
        c.words += words;
        c.cross = cross;
    }

    /// Every allocated counter in ascending global-slot order.
    fn counters(&self) -> impl Iterator<Item = &LinkCounter> {
        self.segs.iter().flat_map(|s| s.iter())
    }

    /// Rolls the counters up into the cross-vs-cube utilization report.
    fn report(&self) -> LinkReport {
        let mut r = LinkReport::default();
        for c in self.counters().filter(|c| c.messages > 0) {
            let bucket = (63 - c.messages.leading_zeros()) as usize; // ⌊log₂⌋; messages ≥ 1
            if c.cross {
                r.cross_links += 1;
                r.cross_messages += c.messages;
                r.cross_words += c.words;
                if r.cross_hist.len() <= bucket {
                    r.cross_hist.resize(bucket + 1, 0);
                }
                r.cross_hist[bucket] += 1;
            } else {
                r.cube_links += 1;
                r.cube_messages += c.messages;
                r.cube_words += c.words;
                if r.cube_hist.len() <= bucket {
                    r.cube_hist.resize(bucket + 1, 0);
                }
                r.cube_hist[bucket] += 1;
            }
        }
        r
    }
}

/// Cross-edge vs. cube-edge utilization rollup of a recorded run's
/// per-link send counters (see [`Recorder::link_report`]).
///
/// The histograms bucket links by message count: `hist[b]` is the number
/// of links that carried `c` messages with `⌊log₂ c⌋ = b`. Dual-cube
/// cross edges are the scarce resource (one per node, versus `n−1`
/// cluster edges), so a skewed cross histogram is the first thing to
/// look at when a run is slower than its step counts predict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkReport {
    /// Distinct cross links that carried at least one message.
    pub cross_links: usize,
    /// Distinct cube (non-cross) links that carried at least one message.
    pub cube_links: usize,
    /// Total messages over cross links.
    pub cross_messages: u64,
    /// Total messages over cube links.
    pub cube_messages: u64,
    /// Total payload words over cross links.
    pub cross_words: u64,
    /// Total payload words over cube links.
    pub cube_words: u64,
    /// log₂ histogram of per-cross-link message counts.
    pub cross_hist: Vec<usize>,
    /// log₂ histogram of per-cube-link message counts.
    pub cube_hist: Vec<usize>,
}

/// Process-global count of live recorders; gates the worker pool's
/// per-dispatch clock reads so a recorder-free process never pays for
/// them.
static RECORDERS: AtomicUsize = AtomicUsize::new(0);

/// Whether any recorder is live in the process (so the pool should
/// measure dispatch timing).
pub(crate) fn pool_timing_active() -> bool {
    RECORDERS.load(Ordering::Relaxed) > 0
}

/// Serialises unit tests that create recorders or assert on the
/// process-global recorder count — they share one process and would
/// otherwise race.
#[cfg(test)]
pub(crate) fn test_recorder_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The event source installed on a [`Machine`](crate::Machine): stamps
/// events with a sequence number and a monotonic clock, forwards them to
/// its [`Sink`], and keeps the per-link send counters behind
/// [`Recorder::link_report`].
///
/// Cloning a recorder (e.g. by cloning a machine) shares the sink and
/// snapshots the link counters; both clones keep emitting into the same
/// stream.
pub struct Recorder {
    sink: SharedSink,
    origin: Instant,
    seq: u64,
    /// Segmented port-indexed per-link counters (see [`LinkTable`]);
    /// segments allocate on first touch, so the footprint follows the
    /// links the run actually uses, never `num_nodes · max_ports`.
    links: LinkTable,
}

impl Recorder {
    /// A recorder emitting into `sink`, with its clock origin at now.
    pub fn new(sink: SharedSink) -> Self {
        RECORDERS.fetch_add(1, Ordering::SeqCst);
        Recorder {
            sink,
            origin: Instant::now(),
            seq: 0,
            links: LinkTable::default(),
        }
    }

    /// Sets the link table's segment width (the machine passes
    /// `shard_chunk · max_ports`, aligning segment ownership with its
    /// shard map). Only effective before the first counter is touched.
    pub(crate) fn configure_links(&mut self, seg_slots: usize) {
        self.links.configure(seg_slots);
    }

    pub(crate) fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub(crate) fn send(&self, event: &Event) {
        self.sink
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(event);
    }

    /// Counts one delivered message of `words` payload on the link whose
    /// flat table slot is `slot` (the machine computes
    /// `min · max_ports + port_of(min, max)` from the endpoints, so each
    /// undirected link lands in exactly one slot regardless of message
    /// direction). The table grows geometrically via `Vec::resize`, so
    /// steady-state recording never reallocates once the run's highest
    /// slot has been touched.
    pub(crate) fn record_link(&mut self, slot: usize, words: u64, cross: bool) {
        self.links.add(slot, 1, words, cross);
    }

    /// Folds a whole batch of messages into one link slot at once — the
    /// flush path of the machine's deferred replay accounting (see
    /// `schedule::AcctPlan`).
    pub(crate) fn record_link_bulk(&mut self, slot: usize, messages: u64, words: u64, cross: bool) {
        self.links.add(slot, messages, words, cross);
    }

    /// Number of distinct links that carried at least one message.
    fn touched_links(&self) -> usize {
        self.links.counters().filter(|c| c.messages > 0).count()
    }

    /// Rolls the per-link counters up into the cross-vs-cube utilization
    /// report.
    pub fn link_report(&self) -> LinkReport {
        self.links.report()
    }

    /// [`Recorder::link_report`] with not-yet-flushed deferred counts
    /// overlaid: `feed` is handed a `add(slot, messages, words, cross)`
    /// callback and may fold in any pending per-link deltas; the report
    /// is computed from a temporary copy, leaving the live table (and
    /// the pending deltas) untouched. This keeps `Machine::link_report`
    /// a `&self` observation even while replay accounting is deferred.
    pub(crate) fn link_report_with<F>(&self, feed: F) -> LinkReport
    where
        F: FnOnce(&mut dyn FnMut(usize, u64, u64, bool)),
    {
        let mut table = self.links.clone();
        feed(&mut |slot, messages, words, cross| table.add(slot, messages, words, cross));
        table.report()
    }
}

impl Clone for Recorder {
    fn clone(&self) -> Self {
        RECORDERS.fetch_add(1, Ordering::SeqCst);
        Recorder {
            sink: Arc::clone(&self.sink),
            origin: self.origin,
            seq: self.seq,
            links: self.links.clone(),
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        RECORDERS.fetch_sub(1, Ordering::SeqCst);
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("seq", &self.seq)
            .field("links", &self.touched_links())
            .finish_non_exhaustive()
    }
}

// --- JSON emission (hand-rolled; the build is offline and serde-free) ---

/// Appends `s` JSON-escaped (without surrounding quotes) to `out`.
fn push_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, val: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    push_escaped(out, val);
    out.push('"');
}

/// One event as a single-line JSON object — the [`JsonlSink`] wire
/// format. Phase events carry `"type":"phase"`, cycle events
/// `"type":"cycle"`; optional fields (`phase`, `key`, `pool`) are
/// `null` when absent.
pub fn event_to_json(event: &Event) -> String {
    let mut s = String::with_capacity(192);
    match event {
        Event::Phase(p) => {
            s.push('{');
            push_str_field(&mut s, "type", "phase");
            s.push_str(&format!(",\"seq\":{},\"index\":{},", p.seq, p.index));
            push_str_field(&mut s, "label", &p.label);
            s.push_str(&format!(",\"at_ns\":{}}}", p.at_ns));
        }
        Event::Cycle(c) => {
            s.push('{');
            push_str_field(&mut s, "type", "cycle");
            s.push_str(&format!(",\"seq\":{},", c.seq));
            push_str_field(&mut s, "kind", c.kind.as_str());
            s.push_str(&format!(",\"cycle\":{},\"steps\":{}", c.cycle, c.steps));
            match c.phase {
                Some(i) => s.push_str(&format!(",\"phase\":{i}")),
                None => s.push_str(",\"phase\":null"),
            }
            match c.key {
                Some(k) => {
                    s.push(',');
                    push_str_field(&mut s, "key", &k.to_string());
                }
                None => s.push_str(",\"key\":null"),
            }
            s.push(',');
            push_str_field(&mut s, "cache", c.cache.as_str());
            s.push_str(&format!(
                ",\"fault_epoch\":{},\"messages\":{},\"words\":{},\"dropped\":{},\"lanes\":{},\"ops\":{}",
                c.fault_epoch, c.messages, c.words, c.dropped, c.lanes, c.ops
            ));
            let backend = match c.backend {
                Backend::Sequential => "sequential".to_string(),
                Backend::Threaded { workers } => format!("threaded({workers})"),
            };
            s.push(',');
            push_str_field(&mut s, "backend", &backend);
            s.push_str(&format!(",\"at_ns\":{},\"dur_ns\":{}", c.at_ns, c.dur_ns));
            match c.pool {
                Some(p) => s.push_str(&format!(
                    ",\"pool\":{{\"dispatches\":{},\"queue_ns\":{},\"exec_ns\":{}}}}}",
                    p.dispatches, p.queue_ns, p.exec_ns
                )),
                None => s.push_str(",\"pool\":null}"),
            }
        }
    }
    s
}

/// Formats nanoseconds as fractional microseconds (Chrome trace `ts`
/// unit) without going through floats.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Converts a recorded event stream to Chrome/Perfetto trace-event JSON.
///
/// Phases become `"X"` (complete) duration events on tid 0 — each phase
/// runs until the next phase opens, the last until the final recorded
/// event. Cycles become `"i"` (instant) events on tid 1 whose `args`
/// carry the schedule key, cache disposition, fault epoch, message and
/// word counts, and the measured dispatch duration. The result opens
/// directly in `ui.perfetto.dev` (or `chrome://tracing`).
pub fn export_perfetto(events: &[Event]) -> String {
    let last_ns = events
        .iter()
        .map(|e| match e {
            Event::Phase(p) => p.at_ns,
            Event::Cycle(c) => c.at_ns,
        })
        .max()
        .unwrap_or(0);
    // End of phase i = start of the next phase event in the stream.
    let phase_starts: Vec<(usize, u64)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            Event::Phase(p) => Some((i, p.at_ns)),
            _ => None,
        })
        .collect();

    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\
         \"args\":{\"name\":\"phases\"}},\
         {\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\
         \"args\":{\"name\":\"cycles\"}}",
    );
    for (i, event) in events.iter().enumerate() {
        out.push(',');
        match event {
            Event::Phase(p) => {
                let end = phase_starts
                    .iter()
                    .find(|&&(pos, _)| pos > i)
                    .map(|&(_, ns)| ns)
                    .unwrap_or(last_ns);
                out.push_str("{\"ph\":\"X\",\"pid\":0,\"tid\":0,");
                push_str_field(&mut out, "name", &p.label);
                out.push_str(&format!(
                    ",\"cat\":\"phase\",\"ts\":{},\"dur\":{},\"args\":{{\"index\":{}}}}}",
                    us(p.at_ns),
                    us(end.saturating_sub(p.at_ns)),
                    p.index
                ));
            }
            Event::Cycle(c) => {
                out.push_str("{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"s\":\"t\",");
                push_str_field(&mut out, "name", c.kind.as_str());
                out.push_str(&format!(
                    ",\"cat\":\"cycle\",\"ts\":{},\"args\":{{",
                    us(c.at_ns)
                ));
                out.push_str(&format!("\"cycle\":{},\"steps\":{},", c.cycle, c.steps));
                let key = c.key.map(|k| k.to_string()).unwrap_or_default();
                push_str_field(&mut out, "key", &key);
                out.push(',');
                push_str_field(&mut out, "cache", c.cache.as_str());
                out.push_str(&format!(
                    ",\"fault_epoch\":{},\"messages\":{},\"words\":{},\"dropped\":{},\
                     \"lanes\":{},\"ops\":{},\"dur_ns\":{}}}}}",
                    c.fault_epoch, c.messages, c.words, c.dropped, c.lanes, c.ops, c.dur_ns
                ));
            }
        }
    }
    out.push_str("]}");
    out
}

/// A [`Metrics`] value as a single-line JSON object — the CLI's
/// `--metrics-json` output. Counters, the link-utilization rollup, and
/// the per-phase breakdown are all included.
pub fn metrics_json(m: &Metrics) -> String {
    let mut s = String::with_capacity(256);
    s.push_str(&format!(
        "{{\"comm_steps\":{},\"comp_steps\":{},\"messages\":{},\"message_words\":{},\
         \"element_ops\":{},\"schedule_hits\":{},\"schedule_misses\":{},\"retries\":{},\
         \"dropped_messages\":{},\"dilation_hops\":{}",
        m.comm_steps,
        m.comp_steps,
        m.messages,
        m.message_words,
        m.element_ops,
        m.schedule_hits,
        m.schedule_misses,
        m.retries,
        m.dropped_messages,
        m.dilation_hops
    ));
    s.push_str(&format!(
        ",\"link_util\":{{\"cross_messages\":{},\"cross_words\":{},\
         \"cube_messages\":{},\"cube_words\":{}}}",
        m.link_util.cross_messages,
        m.link_util.cross_words,
        m.link_util.cube_messages,
        m.link_util.cube_words
    ));
    s.push_str(",\"phases\":[");
    for (i, p) in m.phases.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        push_str_field(&mut s, "label", &p.label);
        s.push_str(&format!(
            ",\"comm_steps\":{},\"comp_steps\":{},\"messages\":{},\
             \"message_words\":{},\"element_ops\":{}}}",
            p.comm_steps, p.comp_steps, p.messages, p.message_words, p.element_ops
        ));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(seq: u64) -> Event {
        Event::Cycle(CycleEvent {
            seq,
            kind: CycleKind::Comm,
            cycle: seq,
            steps: 1,
            phase: Some(0),
            key: Some(ScheduleKey::Dim(2)),
            cache: CacheStatus::Hit,
            fault_epoch: 0,
            messages: 8,
            words: 8,
            dropped: 0,
            lanes: 1,
            ops: 0,
            backend: Backend::Threaded { workers: 4 },
            at_ns: 100 * seq,
            dur_ns: 42,
            pool: Some(PoolDispatchStats {
                dispatches: 3,
                queue_ns: 10,
                exec_ns: 30,
            }),
        })
    }

    #[test]
    fn ring_keeps_newest() {
        let mut sink = MemorySink::ring(2);
        for i in 0..5 {
            sink.record(&cycle(i));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.evicted(), 3);
        let kept: Vec<u64> = sink
            .events()
            .iter()
            .map(|e| match e {
                Event::Cycle(c) => c.seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn jsonl_counts_lines_and_escapes() {
        let buf: Vec<u8> = Vec::new();
        let shared_buf = Arc::new(Mutex::new(buf));
        struct Tee(Arc<Mutex<Vec<u8>>>);
        impl Write for Tee {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Tee(Arc::clone(&shared_buf)));
        sink.record(&Event::Phase(PhaseEvent {
            seq: 0,
            index: 0,
            label: "step \"1\": weird\nlabel".into(),
            at_ns: 5,
        }));
        sink.record(&cycle(1));
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(shared_buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\\\"1\\\""), "quotes must be escaped: {text}");
        assert!(text.contains("\\n"), "newlines must be escaped");
        assert!(text.contains("\"key\":\"dim(2)\""));
        assert!(text.contains("\"cache\":\"hit\""));
        assert!(text.contains("\"backend\":\"threaded(4)\""));
    }

    #[test]
    fn normalization_zeroes_only_timing() {
        let e = cycle(7);
        let n = e.normalized();
        match (&e, &n) {
            (Event::Cycle(orig), Event::Cycle(norm)) => {
                assert_eq!(norm.at_ns, 0);
                assert_eq!(norm.dur_ns, 0);
                assert_eq!(norm.pool, None);
                assert_eq!(norm.backend, Backend::Sequential);
                assert_eq!(norm.seq, orig.seq);
                assert_eq!(norm.messages, orig.messages);
                assert_eq!(norm.cache, orig.cache);
                assert_eq!(norm.key, orig.key);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn perfetto_phases_span_until_next_phase() {
        let events = vec![
            Event::Phase(PhaseEvent {
                seq: 0,
                index: 0,
                label: "a".into(),
                at_ns: 1_000,
            }),
            cycle(1),
            Event::Phase(PhaseEvent {
                seq: 2,
                index: 1,
                label: "b".into(),
                at_ns: 5_000,
            }),
            cycle(3),
        ];
        let json = export_perfetto(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Phase "a" spans 1µs → 5µs (dur 4µs); "b" runs to the last event.
        assert!(json.contains("\"name\":\"a\""), "{json}");
        assert!(json.contains("\"ts\":1.000,\"dur\":4.000"), "{json}");
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"cache\":\"hit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
    }

    #[test]
    fn link_report_separates_cross_and_cube() {
        let _guard = test_recorder_guard();
        let sink: SharedSink = shared(MemorySink::new());
        let mut rec = Recorder::new(sink);
        // Slots are flat port-indexed link ids: both directions of an
        // undirected link map to the same slot (the machine's job).
        for _ in 0..4 {
            rec.record_link(3, 2, false);
        }
        rec.record_link(3, 2, false); // same undirected link, other direction
        rec.record_link(17, 1, true);
        let r = rec.link_report();
        assert_eq!(r.cube_links, 1);
        assert_eq!(r.cube_messages, 5);
        assert_eq!(r.cube_words, 10);
        assert_eq!(r.cross_links, 1);
        assert_eq!(r.cross_messages, 1);
        // 5 messages → bucket ⌊log₂5⌋ = 2; 1 message → bucket 0.
        assert_eq!(r.cube_hist, vec![0, 0, 1]);
        assert_eq!(r.cross_hist, vec![1]);
    }

    #[test]
    fn recorder_count_gates_pool_timing() {
        let _guard = test_recorder_guard();
        assert!(!pool_timing_active());
        let sink: SharedSink = shared(MemorySink::new());
        let rec = Recorder::new(Arc::clone(&sink));
        assert!(pool_timing_active());
        let rec2 = rec.clone();
        drop(rec);
        assert!(pool_timing_active(), "clone keeps the count live");
        drop(rec2);
        assert!(!pool_timing_active());
    }
}
