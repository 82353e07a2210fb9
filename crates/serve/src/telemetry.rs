//! Live serving telemetry: a lock-free stats registry, mergeable
//! latency histograms, and a background snapshot sampler.
//!
//! Until this module existed the fleet was a black box between
//! [`Server::start`](crate::Server::start) and the one
//! [`ServiceReport`](crate::ServiceReport) that
//! [`shutdown`](crate::Server::shutdown) returns. Under sustained load
//! an operator needs to *watch* the service: queue depth, rejection
//! causes, and latency quantiles, while the run is in flight. The
//! pieces:
//!
//! * [`StatsRegistry`] — per-worker sharded counters plus fleet-level
//!   gauges, all relaxed atomics. Workers touch only their own
//!   cache-line-aligned shard, so recording is wait-free and the hot
//!   path never takes a lock or calls the allocator (pinned by the
//!   `zero_alloc` suite). Reading is a lock-free sweep over the shards.
//! * [`Histogram`] — deterministic log₂-bucketed latency histogram
//!   (16 linear sub-buckets per octave, so quantiles carry at most one
//!   sub-bucket of relative error, ≤ 1/16). Merging per-worker
//!   histograms is exact and order-independent: the merge of shards is
//!   bit-identical to one histogram fed the concatenated samples. This
//!   replaces the unbounded `Vec<Duration>` the report used to carry —
//!   a million served requests cost the same fixed 8 KiB of buckets.
//! * [`StatsSnapshot`] — one consistent-enough read of the registry
//!   (counters are sampled per shard without a barrier, so a snapshot
//!   taken mid-request may be ahead or behind by the request in
//!   flight; the final snapshot after shutdown is exact and is, by
//!   construction, the `ServiceReport`'s source of truth). Exports as
//!   a JSONL time-series line or a Prometheus text-exposition page.
//! * The sampler — a background thread that snapshots every
//!   `--stats-every` milliseconds and writes the series to a file
//!   (JSONL appends; Prometheus rewrites the file each tick, the
//!   node-exporter textfile-collector convention), plus one final
//!   sample at shutdown so the tail of the file always equals the
//!   shutdown report.
//!
//! ## Quick start
//!
//! This is the README's live-stats example, compiled as a doctest so
//! the two cannot drift:
//!
//! ```
//! use dc_serve::{OpKind, Payload, Request, Server, ServerConfig, Shape, SnapshotFormat};
//! use std::time::Duration;
//!
//! let mut server = Server::start(ServerConfig::default().workers(2).max_lanes(8));
//! // Sample every 20 ms; sinks can be files (`sample_stats_to_file`) or writers.
//! server.sample_stats(
//!     Duration::from_millis(20),
//!     SnapshotFormat::Jsonl,
//!     Box::new(std::io::sink()),
//! );
//! let shape = Shape { op: OpKind::PrefixSum, n: 3 };
//! for seed in 0..4 {
//!     server
//!         .call(Request { shape, payload: Payload::Seeded(seed) })
//!         .expect("admitted");
//! }
//! let live = server.stats(); // poll any time, lock-free
//! assert_eq!(live.served, 4);
//! assert_eq!(live.latency.count(), 4);
//!
//! let report = server.shutdown(); // stops the sampler after a final snapshot
//! assert_eq!(report.served, live.served);
//! assert_eq!(report.latency_quantile(0.5), report.latency.quantile(0.5));
//! ```

use crate::request::Rejected;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Linear sub-buckets per power-of-two octave, as a bit count: 2⁴ = 16
/// sub-buckets, so a bucket's width is at most 1/16 of its lower bound.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: values below [`SUBS`] get exact unit buckets
/// (group 0, of which only the first [`SUBS`] slots are used); every
/// octave above contributes [`SUBS`] buckets, up to the top bit of
/// `u64` nanoseconds (bit 63 → group 60) — so 61 groups in all.
const NBUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// Bucket index of a nanosecond value. Values below [`SUBS`] are exact;
/// larger values land in bucket `group·16 + sub` where `group` counts
/// octaves above the sub-bucket resolution and `sub` is the next
/// [`SUB_BITS`] bits below the leading one.
fn bucket_index(ns: u64) -> usize {
    if ns < SUBS as u64 {
        return ns as usize;
    }
    let top = 63 - ns.leading_zeros(); // >= SUB_BITS
    let group = (top - SUB_BITS + 1) as usize;
    let sub = ((ns >> (top - SUB_BITS)) as usize) & (SUBS - 1);
    group * SUBS + sub
}

/// Inclusive upper bound of a bucket — the representative value
/// quantile queries report. Within one bucket the true sample is at
/// most one bucket width below this, i.e. the relative error is
/// bounded by `1/16`.
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let group = (idx / SUBS) as u32;
    let sub = (idx % SUBS) as u64;
    let width = 1u64 << (group - 1);
    ((SUBS as u64 + sub) << (group - 1)) + width - 1
}

/// A mergeable, deterministically log₂-bucketed latency histogram.
///
/// Fixed size (≈ 8 KiB of buckets) regardless of sample count, with
/// 16 linear sub-buckets per octave so [`Histogram::quantile`] keeps
/// nearest-rank semantics to within one bucket's relative error
/// (≤ 1/16). Merging is exact: bucket counts add, so merging any
/// partition of a sample set — in any order — is bit-identical to one
/// histogram fed the whole set.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64]>,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// `Debug` prints the summary, not 976 bucket counts — the buckets are
/// an implementation detail and would flood assertion output.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("p50", &self.quantile(0.5))
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0u64; NBUCKETS].into_boxed_slice(),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one sample. Durations past `u64` nanoseconds (585 years)
    /// saturate into the top bucket.
    pub fn record(&mut self, sample: Duration) {
        let ns = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds another histogram's samples into this one. Exact: the
    /// result is bit-identical to having recorded both sample sets
    /// into one histogram, in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded sample (exact, not bucketed). Zero when empty.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Smallest recorded sample (exact, not bucketed). Zero when empty.
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min_ns)
        }
    }

    /// Mean of the recorded samples (exact sum over exact count).
    pub fn mean(&self) -> Duration {
        self.sum_ns
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// The `q`-quantile sample, nearest-rank over the buckets: the
    /// reported value is the upper bound of the bucket holding the
    /// rank-`⌈q·count⌉` sample, clamped to the exact maximum — so it
    /// overshoots the exact nearest-rank answer by at most 1/16
    /// relative (pinned by the `quantile_error_bound` test). Zero
    /// before any sample.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Duration::from_nanos(bucket_upper(idx).min(self.max_ns));
            }
        }
        self.max()
    }

    /// The summary object the snapshot exporters embed:
    /// `{"count":…,"p50_us":…,…}`. Microsecond floats, one decimal.
    pub fn summary_json(&self) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        format!(
            "{{\"count\":{},\"p50_us\":{:.1},\"p90_us\":{:.1},\"p95_us\":{:.1},\
             \"p99_us\":{:.1},\"max_us\":{:.1},\"mean_us\":{:.1}}}",
            self.count,
            us(self.quantile(0.50)),
            us(self.quantile(0.90)),
            us(self.quantile(0.95)),
            us(self.quantile(0.99)),
            us(self.max()),
            us(self.mean()),
        )
    }
}

/// The atomic twin of [`Histogram`], owned by one worker shard and
/// readable while being written (relaxed per-bucket loads; the
/// [`StatsRegistry`] snapshot documents the consistency contract).
struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            counts: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, sample: Duration) {
        let ns = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn load(&self) -> Histogram {
        let mut h = Histogram::new();
        for (slot, bucket) in h.counts.iter_mut().zip(self.counts.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum_ns = self.sum_ns.load(Ordering::Relaxed);
        h.min_ns = self.min_ns.load(Ordering::Relaxed);
        h.max_ns = self.max_ns.load(Ordering::Relaxed);
        h
    }
}

/// Requests refused at admission, broken out by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectedCounts {
    /// [`Rejected::QueueFull`] — the admission bound held.
    pub queue_full: u64,
    /// [`Rejected::BadShape`] — `n` outside the accepted range.
    pub bad_shape: u64,
    /// [`Rejected::WrongLength`] — explicit payload of the wrong size.
    pub wrong_length: u64,
    /// [`Rejected::ShuttingDown`] — submitted after shutdown began.
    pub shutting_down: u64,
}

impl RejectedCounts {
    /// Sum over every cause.
    pub fn total(&self) -> u64 {
        self.queue_full + self.bad_shape + self.wrong_length + self.shutting_down
    }

    /// The breakdown object the exporters embed:
    /// `{"queue_full":…,"bad_shape":…,…}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queue_full\":{},\"bad_shape\":{},\"wrong_length\":{},\"shutting_down\":{}}}",
            self.queue_full, self.bad_shape, self.wrong_length, self.shutting_down
        )
    }
}

/// One worker's shard of the registry: cache-line-aligned so two
/// workers bumping their own counters never write the same line.
#[repr(align(128))]
struct WorkerShard {
    served: AtomicU64,
    batches: AtomicU64,
    lanes: AtomicU64,
    schedule_hits: AtomicU64,
    schedule_misses: AtomicU64,
    busy: AtomicBool,
    latency: AtomicHistogram,
}

impl WorkerShard {
    fn new() -> Self {
        WorkerShard {
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            lanes: AtomicU64::new(0),
            schedule_hits: AtomicU64::new(0),
            schedule_misses: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            latency: AtomicHistogram::new(),
        }
    }
}

/// One worker's contribution to a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Requests this worker served to completion.
    pub served: u64,
    /// Machine runs this worker executed.
    pub batches: u64,
    /// Sum of this worker's batch widths.
    pub lanes: u64,
    /// Keyed cycles served from a compiled schedule.
    pub schedule_hits: u64,
    /// Keyed cycles that compiled their schedule.
    pub schedule_misses: u64,
    /// Whether the worker held a batch when the snapshot was taken.
    pub busy: bool,
    /// This worker's end-to-end latency samples.
    pub latency: Histogram,
}

/// The lock-free heart of the telemetry subsystem.
///
/// Writers are wait-free: each worker owns a cache-line-aligned shard
/// of relaxed atomics and never touches another worker's line; the
/// admission side (rejections, queue depth, in-flight gauge) is a
/// handful of fleet-level atomics. No lock, no allocation — recording
/// costs a few uncontended atomic adds, which is why the registry is
/// always on (there is no "telemetry mode": the §E29 throughput gate
/// doubles as the proof the tax is in the noise, and the sampler is
/// the only optional piece).
pub struct StatsRegistry {
    workers: Box<[WorkerShard]>,
    rejected_queue_full: AtomicU64,
    rejected_bad_shape: AtomicU64,
    rejected_wrong_length: AtomicU64,
    rejected_shutting_down: AtomicU64,
    queue_depth: AtomicU64,
    in_flight_requests: AtomicU64,
    started: Instant,
}

impl fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StatsRegistry")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl StatsRegistry {
    /// A registry for a fleet of `workers` (shards are fixed at
    /// construction; worker indices are `0..workers`).
    pub fn new(workers: usize) -> Self {
        StatsRegistry {
            workers: (0..workers.max(1)).map(|_| WorkerShard::new()).collect(),
            rejected_queue_full: AtomicU64::new(0),
            rejected_bad_shape: AtomicU64::new(0),
            rejected_wrong_length: AtomicU64::new(0),
            rejected_shutting_down: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            in_flight_requests: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Fleet size this registry was built for.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Records one machine run by worker `worker`: a batch of `lanes`
    /// requests whose run reported `schedule_hits`/`schedule_misses`.
    pub fn record_run(&self, worker: usize, lanes: u64, schedule_hits: u64, schedule_misses: u64) {
        let shard = &self.workers[worker];
        shard.batches.fetch_add(1, Ordering::Relaxed);
        shard.lanes.fetch_add(lanes, Ordering::Relaxed);
        shard
            .schedule_hits
            .fetch_add(schedule_hits, Ordering::Relaxed);
        shard
            .schedule_misses
            .fetch_add(schedule_misses, Ordering::Relaxed);
    }

    /// Records one completed request on worker `worker` with its
    /// end-to-end (queueing + service) latency.
    pub fn record_served(&self, worker: usize, latency: Duration) {
        let shard = &self.workers[worker];
        shard.served.fetch_add(1, Ordering::Relaxed);
        shard.latency.record(latency);
    }

    /// Marks worker `worker` as holding (or done with) a batch — the
    /// in-flight-batches gauge.
    pub fn set_worker_busy(&self, worker: usize, busy: bool) {
        self.workers[worker].busy.store(busy, Ordering::Relaxed);
    }

    /// Counts one admission refusal under its cause.
    pub fn count_rejected(&self, cause: &Rejected) {
        let counter = match cause {
            Rejected::QueueFull { .. } => &self.rejected_queue_full,
            Rejected::BadShape { .. } => &self.rejected_bad_shape,
            Rejected::WrongLength { .. } => &self.rejected_wrong_length,
            Rejected::ShuttingDown => &self.rejected_shutting_down,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the queue-depth gauge (the admission queue publishes its
    /// length here after every push and drain).
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Counts one admitted request into the in-flight gauge.
    pub fn request_admitted(&self) {
        self.in_flight_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Retires one admitted request from the in-flight gauge (called
    /// when its completion slot is fulfilled, whether or not the
    /// ticket is still held).
    pub fn request_done(&self) {
        self.in_flight_requests.fetch_sub(1, Ordering::Relaxed);
    }

    /// Admission refusals so far, by cause.
    pub fn rejected(&self) -> RejectedCounts {
        RejectedCounts {
            queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            bad_shape: self.rejected_bad_shape.load(Ordering::Relaxed),
            wrong_length: self.rejected_wrong_length.load(Ordering::Relaxed),
            shutting_down: self.rejected_shutting_down.load(Ordering::Relaxed),
        }
    }

    /// One read of everything: per-shard counters summed, per-worker
    /// histograms merged. Lock-free; a snapshot taken while traffic is
    /// in flight may split a request across two samples (counters are
    /// read without a barrier), which a time series tolerates. A
    /// snapshot taken after the fleet has been joined is exact.
    pub fn snapshot(&self) -> StatsSnapshot {
        let per_worker: Vec<WorkerSnapshot> = self
            .workers
            .iter()
            .map(|w| WorkerSnapshot {
                served: w.served.load(Ordering::Relaxed),
                batches: w.batches.load(Ordering::Relaxed),
                lanes: w.lanes.load(Ordering::Relaxed),
                schedule_hits: w.schedule_hits.load(Ordering::Relaxed),
                schedule_misses: w.schedule_misses.load(Ordering::Relaxed),
                busy: w.busy.load(Ordering::Relaxed),
                latency: w.latency.load(),
            })
            .collect();
        let mut latency = Histogram::new();
        for w in &per_worker {
            latency.merge(&w.latency);
        }
        StatsSnapshot {
            uptime: self.started.elapsed(),
            served: per_worker.iter().map(|w| w.served).sum(),
            batches: per_worker.iter().map(|w| w.batches).sum(),
            lanes: per_worker.iter().map(|w| w.lanes).sum(),
            schedule_hits: per_worker.iter().map(|w| w.schedule_hits).sum(),
            schedule_misses: per_worker.iter().map(|w| w.schedule_misses).sum(),
            in_flight_batches: per_worker.iter().filter(|w| w.busy).count() as u64,
            rejected: self.rejected(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            in_flight_requests: self.in_flight_requests.load(Ordering::Relaxed),
            latency,
            per_worker,
        }
    }
}

/// One sample of the whole service, in the schema every exporter (the
/// sampler's JSONL lines, the Prometheus page, `bench_serve`'s leg
/// snapshots, and the shutdown [`ServiceReport`](crate::ServiceReport))
/// shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Time since the registry (= server) started.
    pub uptime: Duration,
    /// Requests served to completion, fleet-wide.
    pub served: u64,
    /// Machine runs executed, fleet-wide.
    pub batches: u64,
    /// Sum of batch widths, fleet-wide.
    pub lanes: u64,
    /// Keyed cycles served from a compiled schedule.
    pub schedule_hits: u64,
    /// Keyed cycles that compiled their schedule.
    pub schedule_misses: u64,
    /// Admission refusals, by cause.
    pub rejected: RejectedCounts,
    /// Requests admitted but not yet picked up (gauge).
    pub queue_depth: u64,
    /// Requests admitted but not yet completed (gauge).
    pub in_flight_requests: u64,
    /// Workers currently holding a batch (gauge).
    pub in_flight_batches: u64,
    /// End-to-end latency over every served request, fleet-merged.
    pub latency: Histogram,
    /// The per-worker breakdown the fleet totals were summed from.
    pub per_worker: Vec<WorkerSnapshot>,
}

impl StatsSnapshot {
    /// One JSONL time-series line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"uptime_ms\":{:.1},\"workers\":{},\"served\":{},\"batches\":{},\
             \"lanes\":{},\"schedule_hits\":{},\"schedule_misses\":{},\
             \"rejected_total\":{},\"rejected\":{},\"queue_depth\":{},\
             \"in_flight_requests\":{},\"in_flight_batches\":{},\"latency\":{}}}",
            self.uptime.as_secs_f64() * 1e3,
            self.per_worker.len(),
            self.served,
            self.batches,
            self.lanes,
            self.schedule_hits,
            self.schedule_misses,
            self.rejected.total(),
            self.rejected.to_json(),
            self.queue_depth,
            self.in_flight_requests,
            self.in_flight_batches,
            self.latency.summary_json(),
        )
    }

    /// A Prometheus text-exposition page: counters for served /
    /// batches / lanes / schedule cache / rejections-by-cause, gauges
    /// for the queue and in-flight work, and the latency distribution
    /// as a summary (quantiles + sum + count).
    pub fn to_prometheus(&self) -> String {
        let mut page = String::with_capacity(1536);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(page, "# HELP {name} {help}");
            let _ = writeln!(page, "# TYPE {name} counter");
            let _ = writeln!(page, "{name} {value}");
        };
        counter(
            "dc_serve_served_total",
            "Requests served to completion.",
            self.served,
        );
        counter(
            "dc_serve_batches_total",
            "Machine runs executed.",
            self.batches,
        );
        counter(
            "dc_serve_lanes_total",
            "Sum of batch widths (served requests ride one lane each).",
            self.lanes,
        );
        counter(
            "dc_serve_schedule_hits_total",
            "Keyed cycles served from a compiled schedule.",
            self.schedule_hits,
        );
        counter(
            "dc_serve_schedule_misses_total",
            "Keyed cycles that compiled their schedule.",
            self.schedule_misses,
        );
        let _ = writeln!(
            page,
            "# HELP dc_serve_rejected_total Requests refused at admission, by cause."
        );
        let _ = writeln!(page, "# TYPE dc_serve_rejected_total counter");
        for (cause, value) in [
            ("queue_full", self.rejected.queue_full),
            ("bad_shape", self.rejected.bad_shape),
            ("wrong_length", self.rejected.wrong_length),
            ("shutting_down", self.rejected.shutting_down),
        ] {
            let _ = writeln!(page, "dc_serve_rejected_total{{cause=\"{cause}\"}} {value}");
        }
        let mut gauge = |name: &str, help: &str, value: f64| {
            let _ = writeln!(page, "# HELP {name} {help}");
            let _ = writeln!(page, "# TYPE {name} gauge");
            let _ = writeln!(page, "{name} {value}");
        };
        gauge(
            "dc_serve_queue_depth",
            "Requests admitted but not yet picked up.",
            self.queue_depth as f64,
        );
        gauge(
            "dc_serve_in_flight_requests",
            "Requests admitted but not yet completed.",
            self.in_flight_requests as f64,
        );
        gauge(
            "dc_serve_in_flight_batches",
            "Workers currently holding a batch.",
            self.in_flight_batches as f64,
        );
        gauge(
            "dc_serve_workers",
            "Fleet size.",
            self.per_worker.len() as f64,
        );
        gauge(
            "dc_serve_uptime_seconds",
            "Time since the server started.",
            self.uptime.as_secs_f64(),
        );
        let _ = writeln!(
            page,
            "# HELP dc_serve_latency_seconds End-to-end request latency (queueing + service)."
        );
        let _ = writeln!(page, "# TYPE dc_serve_latency_seconds summary");
        for q in [0.5, 0.9, 0.95, 0.99] {
            let _ = writeln!(
                page,
                "dc_serve_latency_seconds{{quantile=\"{q}\"}} {}",
                self.latency.quantile(q).as_secs_f64()
            );
        }
        let _ = writeln!(
            page,
            "dc_serve_latency_seconds_sum {}",
            Duration::from_nanos(self.latency.sum_ns).as_secs_f64()
        );
        let _ = writeln!(
            page,
            "dc_serve_latency_seconds_count {}",
            self.latency.count
        );
        page
    }
}

/// Export format of the snapshot sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// One JSON object per sample, one per line, appended — a time
    /// series a notebook can replay.
    Jsonl,
    /// Prometheus text exposition. To a file the page is rewritten
    /// each tick (the textfile-collector convention: the file always
    /// holds the latest scrape); to a writer, pages are appended
    /// separated by a blank line.
    Prometheus,
}

/// Where the sampler writes.
enum SamplerTarget {
    Writer(Box<dyn Write + Send>),
    File(PathBuf),
}

/// The background snapshot thread. Owned by the
/// [`Server`](crate::Server); stopped (with one final sample) when the
/// server shuts down, so the last line / final page always matches the
/// shutdown [`ServiceReport`](crate::ServiceReport) exactly.
pub(crate) struct Sampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: JoinHandle<io::Result<()>>,
}

impl Sampler {
    /// Starts sampling `registry` every `every` into `target`.
    fn spawn(
        registry: Arc<StatsRegistry>,
        every: Duration,
        format: SnapshotFormat,
        mut target: SamplerTarget,
    ) -> Sampler {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let every = every.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("dc-serve-sampler".into())
            .spawn(move || {
                let (lock, cvar) = &*thread_stop;
                let mut result = Ok(());
                let mut stopped = lock.lock().expect("sampler lock");
                loop {
                    if *stopped {
                        break;
                    }
                    let (guard, timeout) = cvar.wait_timeout(stopped, every).expect("sampler lock");
                    stopped = guard;
                    if timeout.timed_out() && result.is_ok() {
                        result = emit(&registry, format, &mut target);
                    }
                }
                drop(stopped);
                // The final sample: taken after the fleet is joined
                // (shutdown stops the sampler last), so it is exact.
                if result.is_ok() {
                    result = emit(&registry, format, &mut target);
                }
                if let SamplerTarget::Writer(w) = &mut target {
                    if result.is_ok() {
                        result = w.flush();
                    }
                }
                result
            })
            .expect("spawn sampler thread");
        Sampler { stop, handle }
    }

    pub(crate) fn to_writer(
        registry: Arc<StatsRegistry>,
        every: Duration,
        format: SnapshotFormat,
        out: Box<dyn Write + Send>,
    ) -> Sampler {
        Sampler::spawn(registry, every, format, SamplerTarget::Writer(out))
    }

    pub(crate) fn to_file(
        registry: Arc<StatsRegistry>,
        every: Duration,
        format: SnapshotFormat,
        path: &Path,
    ) -> io::Result<Sampler> {
        // Create (truncating any stale series) up front so a bad path
        // fails at attach time, not minutes into the run.
        std::fs::File::create(path)?;
        Ok(Sampler::spawn(
            registry,
            every,
            format,
            SamplerTarget::File(path.to_path_buf()),
        ))
    }

    /// Signals the thread, waits for its final sample, and returns any
    /// write error the series hit (or that the thread panicked).
    pub(crate) fn stop(self) -> io::Result<()> {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cvar.notify_all();
        self.handle
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("sampler thread panicked")))
    }
}

/// Writes one sample to the target in the chosen format.
fn emit(
    registry: &StatsRegistry,
    format: SnapshotFormat,
    target: &mut SamplerTarget,
) -> io::Result<()> {
    let snapshot = registry.snapshot();
    match (format, target) {
        (SnapshotFormat::Jsonl, SamplerTarget::Writer(w)) => {
            writeln!(w, "{}", snapshot.to_jsonl())
        }
        (SnapshotFormat::Prometheus, SamplerTarget::Writer(w)) => {
            writeln!(w, "{}", snapshot.to_prometheus())
        }
        (SnapshotFormat::Jsonl, SamplerTarget::File(path)) => {
            let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
            writeln!(f, "{}", snapshot.to_jsonl())
        }
        (SnapshotFormat::Prometheus, SamplerTarget::File(path)) => {
            std::fs::write(path, snapshot.to_prometheus())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_axis() {
        // Indices are monotone, contiguous at octave boundaries, and
        // invert to an upper bound that sits in their own bucket.
        let mut last = 0usize;
        for ns in 0..(1u64 << 12) {
            let idx = bucket_index(ns);
            assert!(idx == last || idx == last + 1, "gap at {ns}");
            last = idx;
            assert!(bucket_upper(idx) >= ns, "upper below member at {ns}");
            assert_eq!(
                bucket_index(bucket_upper(idx)),
                idx,
                "upper escaped at {ns}"
            );
        }
        for shift in 4..63 {
            for v in [
                1u64 << shift,
                (1u64 << shift) + 1,
                (1u64 << (shift + 1)) - 1,
            ] {
                let idx = bucket_index(v);
                assert!(idx < NBUCKETS);
                let upper = bucket_upper(idx);
                assert!(upper >= v);
                assert_eq!(bucket_index(upper), idx);
                // Bucket width ≤ lower-bound / 16: the error contract.
                assert!(upper - v < (v >> SUB_BITS).max(1) + (1 << (idx / SUBS - 1)));
            }
        }
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        for ms in [5u64, 10, 10, 200] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), Duration::from_millis(200));
        assert_eq!(h.min(), Duration::from_millis(5));
        // p100 is clamped to the exact max.
        assert_eq!(h.quantile(1.0), Duration::from_millis(200));
        // p50 (rank 2 of 4) is the 10 ms sample, within bucket error.
        let p50 = h.quantile(0.5);
        let exact = Duration::from_millis(10);
        assert!(p50 >= exact && p50 <= exact + exact / 16, "{p50:?}");
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let samples: Vec<Duration> = (1..=1000u64)
            .map(|i| Duration::from_nanos(i * i * 37 % 5_000_000))
            .collect();
        let mut whole = Histogram::new();
        for s in &samples {
            whole.record(*s);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for (i, s) in samples.iter().enumerate() {
            [&mut a, &mut b, &mut c][i % 3].record(*s);
        }
        let mut abc = Histogram::new();
        abc.merge(&a);
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = Histogram::new();
        cba.merge(&c);
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, whole);
        assert_eq!(cba, whole);
    }

    #[test]
    fn registry_snapshot_sums_shards() {
        let r = StatsRegistry::new(3);
        r.record_run(0, 4, 9, 1);
        r.record_run(2, 2, 5, 0);
        for _ in 0..4 {
            r.record_served(0, Duration::from_millis(3));
        }
        for _ in 0..2 {
            r.record_served(2, Duration::from_millis(7));
        }
        r.count_rejected(&Rejected::QueueFull { capacity: 8 });
        r.count_rejected(&Rejected::BadShape { n: 0 });
        r.set_queue_depth(5);
        r.request_admitted();
        r.set_worker_busy(2, true);
        let s = r.snapshot();
        assert_eq!(s.served, 6);
        assert_eq!(s.batches, 2);
        assert_eq!(s.lanes, 6);
        assert_eq!(s.schedule_hits, 14);
        assert_eq!(s.schedule_misses, 1);
        assert_eq!(s.rejected.queue_full, 1);
        assert_eq!(s.rejected.bad_shape, 1);
        assert_eq!(s.rejected.total(), 2);
        assert_eq!(s.queue_depth, 5);
        assert_eq!(s.in_flight_requests, 1);
        assert_eq!(s.in_flight_batches, 1);
        assert_eq!(s.latency.count(), 6);
        assert_eq!(s.per_worker.len(), 3);
        assert_eq!(s.per_worker[1].served, 0);
        // The fleet histogram is exactly the merge of the shards.
        let mut merged = Histogram::new();
        for w in &s.per_worker {
            merged.merge(&w.latency);
        }
        assert_eq!(merged, s.latency);
    }

    #[test]
    fn exporters_emit_the_shared_schema() {
        let r = StatsRegistry::new(2);
        r.record_run(0, 3, 7, 2);
        for _ in 0..3 {
            r.record_served(0, Duration::from_millis(4));
        }
        r.count_rejected(&Rejected::ShuttingDown);
        let s = r.snapshot();
        let line = s.to_jsonl();
        for needle in [
            "\"served\":3",
            "\"batches\":1",
            "\"lanes\":3",
            "\"schedule_hits\":7",
            "\"schedule_misses\":2",
            "\"rejected_total\":1",
            "\"shutting_down\":1",
            "\"queue_depth\":0",
            "\"latency\":{\"count\":3",
        ] {
            assert!(line.contains(needle), "{needle} missing from {line}");
        }
        let page = s.to_prometheus();
        for needle in [
            "# TYPE dc_serve_served_total counter",
            "dc_serve_served_total 3",
            "dc_serve_rejected_total{cause=\"shutting_down\"} 1",
            "# TYPE dc_serve_queue_depth gauge",
            "# TYPE dc_serve_latency_seconds summary",
            "dc_serve_latency_seconds_count 3",
        ] {
            assert!(page.contains(needle), "{needle} missing from {page}");
        }
    }
}
