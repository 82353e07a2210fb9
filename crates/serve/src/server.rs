//! The server: admission control at the front, a warm worker fleet at
//! the back.
//!
//! Each worker owns one [`ScheduleBank`] per request [`Shape`] it has
//! ever served. A batch builds its machine, **adopts** the shape's bank
//! before the first cycle, and **donates** the compiled schedules back
//! when the run ends — so the expensive part of the simulator's model
//! checking (validating a communication pattern against the 1-port
//! rules) happens once per `(worker, shape, pattern)` for the life of
//! the server, not once per request. Batched cycles are bit-identical
//! to their single-run counterparts and replay still deviation-checks
//! every cycle, so warmth changes wall-clock and `schedule_misses`,
//! never results.
//!
//! Each worker also owns one lane-slab set per algorithm
//! ([`PrefixSlabs`], [`SortSlabs`]) and runs prefix and sort batches in
//! place: the requests' `i64` vectors go into the slabs with one strided
//! copy and the answers come back into the same vectors, which become
//! the responses' outputs. A warm batch therefore allocates nothing that
//! grows with the machine but the machine's own sender table.
//!
//! Every server carries a [`StatsRegistry`]: workers tally into their
//! own cache-line-aligned shards, admission counts rejections by
//! cause, and [`Server::stats`] reads a consistent-enough
//! [`StatsSnapshot`] at any moment without stopping traffic. An
//! optional background sampler ([`Server::sample_stats`]) turns those
//! snapshots into a JSONL time series or a Prometheus page; the
//! shutdown [`ServiceReport`] is built from the registry's final
//! snapshot, so the live series and the report can never disagree.

use crate::batch::{Pending, QueueState};
use crate::report::ServiceReport;
use crate::request::{seeded_values, OpKind, Payload, Rejected, Request, Response, Shape};
use crate::telemetry::{Sampler, SnapshotFormat, StatsRegistry, StatsSnapshot};
use crate::ticket::{Slot, Ticket};
use dc_core::collectives::allreduce::allreduce_reusing;
use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{batched_d_prefix_in_place, PrefixSlabs, Step5Mode};
use dc_core::prefix::PrefixKind;
use dc_core::sort::dualcube::{batched_d_sort_in_place, SortSlabs};
use dc_core::sort::SortOrder;
use dc_simulator::{ExecMode, Metrics, ScheduleBank};
use dc_topology::{DualCube, RecDualCube};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of a [`Server`], builder-style.
///
/// ```
/// use dc_serve::ServerConfig;
/// let cfg = ServerConfig::default().workers(4).max_lanes(8);
/// assert_eq!(cfg.workers, 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Fleet size: worker threads, each with its own schedule banks.
    pub workers: usize,
    /// Widest batch one worker grabs — the K of the underlying payload
    /// lanes.
    pub max_lanes: usize,
    /// Admission bound: requests queued but unserved before
    /// [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Backend for each batch's machine cycles, passed to every run that
    /// builds one. Each machine keeps its own backend, so workers share
    /// no setting and never serialise on one.
    pub exec: ExecMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            max_lanes: 16,
            queue_capacity: 1024,
            exec: ExecMode::Sequential,
        }
    }
}

impl ServerConfig {
    /// Sets the fleet size (minimum 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the widest batch (minimum 1).
    pub fn max_lanes(mut self, max_lanes: usize) -> Self {
        self.max_lanes = max_lanes.max(1);
        self
    }

    /// Sets the admission bound (minimum 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the cycle backend for every worker's machines.
    pub fn exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }
}

struct Shared {
    state: Mutex<QueueState>,
    work_ready: Condvar,
    capacity: usize,
    stats: Arc<StatsRegistry>,
}

/// A running serving frontend over the dual-cube engine.
///
/// [`Server::shutdown`] returns the final [`ServiceReport`]. Dropping a
/// server without it still closes admission, drains and joins the
/// fleet (so tickets already admitted resolve), and stops the sampler:
/// no thread outlives the server.
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<Metrics>>,
    sampler: Option<Sampler>,
}

impl Server {
    /// Starts the worker fleet and opens admission.
    pub fn start(config: ServerConfig) -> Server {
        let workers = config.workers.max(1);
        let stats = Arc::new(StatsRegistry::new(workers));
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::new(Arc::clone(&stats))),
            work_ready: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            stats,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i, config.max_lanes.max(1), config.exec))
                    .expect("spawn worker thread")
            })
            .collect();
        Server {
            shared,
            handles,
            sampler: None,
        }
    }

    /// Admits one request, returning a [`Ticket`] to wait on — or a
    /// [`Rejected`] immediately, without blocking, if the request is
    /// malformed or the queue is at capacity (open-loop callers shed
    /// load here).
    pub fn submit(&self, request: Request) -> Result<Ticket, Rejected> {
        let shape = request.shape;
        let admission = shape.validate().and_then(|()| {
            let nodes = shape.num_nodes();
            match request.payload {
                Payload::Values(values) if values.len() == nodes => Ok(values),
                Payload::Values(values) => Err(Rejected::WrongLength {
                    expected: nodes,
                    got: values.len(),
                }),
                Payload::Seeded(seed) => Ok(seeded_values(seed, nodes)),
            }
        });
        let values = match admission {
            Ok(values) => values,
            Err(rejection) => {
                // Malformed before it ever reaches the queue: counted
                // here (the queue counts its own refusals in `push`).
                self.shared.stats.count_rejected(&rejection);
                return Err(rejection);
            }
        };
        let slot = Arc::new(Slot::tracked(Arc::clone(&self.shared.stats)));
        let mut state = self.shared.state.lock().expect("queue lock");
        state.push(shape, values, Arc::clone(&slot), self.shared.capacity)?;
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(Ticket { slot })
    }

    /// Closed-loop convenience: submit and block for the response.
    pub fn call(&self, request: Request) -> Result<Response, Rejected> {
        Ok(self.submit(request)?.wait())
    }

    /// Requests currently admitted but unserved.
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().expect("queue lock").len()
    }

    /// One lock-free read of the live telemetry: fleet counters,
    /// rejection causes, queue/in-flight gauges, and the merged latency
    /// histogram. Safe to call from any thread at any rate; traffic is
    /// never paused (see [`StatsRegistry::snapshot`] for the
    /// consistency contract).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Attaches a background sampler that snapshots the registry every
    /// `every` and writes each sample to `out` in `format` (JSONL lines
    /// or Prometheus pages). One final sample is written at shutdown,
    /// after the fleet is joined — so the tail of the stream always
    /// equals the shutdown [`ServiceReport`] exactly. Attaching again
    /// replaces the previous sampler (its stream is finalised first).
    pub fn sample_stats(
        &mut self,
        every: Duration,
        format: SnapshotFormat,
        out: Box<dyn Write + Send>,
    ) {
        self.replace_sampler(Sampler::to_writer(
            Arc::clone(&self.shared.stats),
            every,
            format,
            out,
        ));
    }

    /// File-backed [`sample_stats`](Self::sample_stats): JSONL appends
    /// to `path` (truncated at attach), Prometheus rewrites `path`
    /// whole each tick — the textfile-collector convention, so the
    /// file always holds one complete, latest page. Fails fast if the
    /// path cannot be created.
    pub fn sample_stats_to_file(
        &mut self,
        every: Duration,
        format: SnapshotFormat,
        path: &Path,
    ) -> io::Result<()> {
        let sampler = Sampler::to_file(Arc::clone(&self.shared.stats), every, format, path)?;
        self.replace_sampler(sampler);
        Ok(())
    }

    fn replace_sampler(&mut self, sampler: Sampler) {
        if let Some(previous) = self.sampler.replace(sampler) {
            if let Err(err) = previous.stop() {
                eprintln!("dc-serve: replaced stats sampler had failed: {err}");
            }
        }
    }

    /// Closes admission and wakes every worker. Each drains the queue
    /// dry before it leaves, so every admitted request still runs.
    fn close_admission(&self) {
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.shutdown = true;
        drop(state);
        self.shared.work_ready.notify_all();
    }

    /// Stops the sampler, if one is attached, logging a failed series.
    /// Called only after the fleet is joined: the final sample then sees
    /// exactly the totals the report carries.
    fn stop_sampler(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            if let Err(err) = sampler.stop() {
                eprintln!("dc-serve: stats sampler failed: {err}");
            }
        }
    }

    /// Closes admission, drains every already-admitted request, joins
    /// the fleet, and returns the [`ServiceReport`] built from the
    /// registry's final snapshot.
    pub fn shutdown(mut self) -> ServiceReport {
        self.close_admission();
        let mut metrics = Metrics::new();
        for handle in self.handles.drain(..) {
            metrics.absorb(&handle.join().expect("worker panicked"));
        }
        self.stop_sampler();
        ServiceReport::from_snapshot(self.shared.stats.snapshot(), metrics)
    }
}

impl Drop for Server {
    /// The shutdown sequence without the report, for a server dropped
    /// without [`Server::shutdown`] (which leaves nothing to do here): a
    /// worker that panicked or a failed sampler is logged, not raised.
    fn drop(&mut self) {
        if self.handles.is_empty() && self.sampler.is_none() {
            return;
        }
        self.close_admission();
        for handle in self.handles.drain(..) {
            if handle.join().is_err() {
                eprintln!("dc-serve: a worker panicked before the server was dropped");
            }
        }
        self.stop_sampler();
    }
}

/// What a worker keeps from batch to batch: one schedule bank per shape
/// it has served, and one lane-slab set per algorithm. The sets are not
/// per shape: a worker runs one batch at a time, so each set serves
/// every shape of its algorithm in turn, while per-shape sets would keep
/// every shape's slabs resident. A set keeps the capacity of the largest
/// batch it has run, as the banks keep every shape's schedules.
#[derive(Default)]
struct Warm {
    banks: HashMap<Shape, ScheduleBank>,
    prefix: PrefixSlabs<Sum>,
    sort: SortSlabs<i64>,
}

/// One worker: grab the oldest-head batch, serve it on a machine warmed
/// from this worker's bank for the shape and on its slab sets, repeat
/// until shutdown drains the queue dry. Counters stream into the
/// worker's registry shard as the traffic flows; only the engine
/// [`Metrics`] rollup rides the join.
fn worker_loop(shared: &Shared, worker: usize, max_lanes: usize, exec: ExecMode) -> Metrics {
    let mut warm = Warm::default();
    let mut rollup = Metrics::new();
    loop {
        let grabbed = {
            let mut state = shared.state.lock().expect("queue lock");
            loop {
                if let Some(batch) = state.take_batch(max_lanes) {
                    break Some(batch);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.work_ready.wait(state).expect("queue lock");
            }
        };
        let Some((shape, batch)) = grabbed else {
            return rollup;
        };
        shared.stats.set_worker_busy(worker, true);
        serve_batch(
            shape,
            batch,
            exec,
            &mut warm,
            &shared.stats,
            worker,
            &mut rollup,
        );
        shared.stats.set_worker_busy(worker, false);
    }
}

/// Runs one grabbed batch and fulfils its tickets. Lane-capable ops
/// ride all requests on one machine run, in place: each request's
/// `values` vector is its lane's input and comes back as its response's
/// output. All-reduce (no lane variant) runs per request, still through
/// the warm bank, and counts one "batch" per run so `batches` always
/// means machine runs.
fn serve_batch(
    shape: Shape,
    batch: Vec<Pending>,
    exec: ExecMode,
    warm: &mut Warm,
    stats: &StatsRegistry,
    worker: usize,
    rollup: &mut Metrics,
) {
    let picked_up = Instant::now();
    let bank = warm.banks.entry(shape).or_default();
    if shape.op == OpKind::AllReduceSum {
        let d = DualCube::new(shape.n);
        for mut pending in batch {
            // Same size and alignment: the collect reuses the allocation.
            let values: Vec<Sum> = std::mem::take(&mut pending.values)
                .into_iter()
                .map(Sum)
                .collect();
            let started = Instant::now();
            let run = allreduce_reusing(&d, &values, exec, bank);
            stats.record_run(
                worker,
                1,
                run.metrics.schedule_hits,
                run.metrics.schedule_misses,
            );
            rollup.absorb(&run.metrics);
            finish(
                pending,
                vec![run.values[0].0],
                1,
                run.metrics,
                started,
                stats,
                worker,
            );
        }
        return;
    }

    let lanes = batch.len();
    let mut values = Vec::with_capacity(lanes);
    let mut waiters = Vec::with_capacity(lanes);
    for mut pending in batch {
        values.push(std::mem::take(&mut pending.values));
        waiters.push(pending);
    }

    let metrics = match shape.op {
        OpKind::PrefixSum => batched_d_prefix_in_place(
            &DualCube::new(shape.n),
            &mut values,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            exec,
            bank,
            &mut warm.prefix,
        ),
        OpKind::SortI64 => batched_d_sort_in_place(
            &RecDualCube::new(shape.n),
            &mut values,
            SortOrder::Ascending,
            exec,
            bank,
            &mut warm.sort,
        ),
        OpKind::AllReduceSum => unreachable!("handled above"),
    };
    stats.record_run(
        worker,
        lanes as u64,
        metrics.schedule_hits,
        metrics.schedule_misses,
    );
    rollup.absorb(&metrics);
    for (pending, output) in waiters.into_iter().zip(values) {
        finish(
            pending,
            output,
            lanes,
            metrics.clone(),
            picked_up,
            stats,
            worker,
        );
    }
}

/// Stamps, fulfils, and tallies one completed request. The caller has
/// already recorded the machine run (batches, lanes, schedule cache)
/// exactly once, so service totals count executed cycles, not lane
/// copies; here each rider gets its own response copy and its latency
/// sample — recorded *before* the slot is fulfilled, so a caller whose
/// `wait()` returns always finds its request already counted.
fn finish(
    pending: Pending,
    output: Vec<i64>,
    lanes: usize,
    metrics: Metrics,
    picked_up: Instant,
    stats: &StatsRegistry,
    worker: usize,
) {
    let response = Response {
        output,
        lanes,
        queued: picked_up.duration_since(pending.enqueued),
        service: picked_up.elapsed(),
        metrics,
    };
    stats.record_served(worker, response.latency());
    pending.slot.fulfil(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;

    /// A sampler target whose buffer the test keeps a handle on.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("buffer lock").extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn dropping_a_server_releases_its_threads() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut server = Server::start(ServerConfig::default().workers(2));
        server.sample_stats(
            Duration::from_millis(1),
            SnapshotFormat::Jsonl,
            Box::new(SharedBuf(Arc::clone(&buf))),
        );
        let shape = Shape {
            op: OpKind::PrefixSum,
            n: 2,
        };
        let ticket = server
            .submit(Request {
                shape,
                payload: Payload::Seeded(7),
            })
            .expect("admitted");
        let shared: Weak<Shared> = Arc::downgrade(&server.shared);
        drop(server);
        assert!(
            shared.upgrade().is_none(),
            "a worker outlived the server and still holds its state"
        );
        assert_eq!(
            Arc::strong_count(&buf),
            1,
            "the sampler outlived the server and still holds its writer"
        );
        // The request admitted before the drop still resolved.
        assert_eq!(ticket.wait().output.len(), shape.num_nodes());
        assert!(!buf.lock().expect("buffer lock").is_empty());
    }
}
