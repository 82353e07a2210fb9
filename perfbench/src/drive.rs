//! Drives one workload against an in-process server from the calling
//! thread alone.
//!
//! The server runs one worker on the sequential backend with no stats
//! sampler, so with this driver the process runs two threads. Set-up is
//! timed separately; the timed phase follows a warm-up and is cut into
//! segments, which the traced run alternates between untraced and
//! traced.

use crate::stats;
use crate::trace::Tracer;
use crate::workload::{job, verify, Check, Drive, Job, Rng, Spec, MAX_LANES};
use dc_serve::{
    Payload, Rejected, Request, Response, Server, ServerConfig, Shape, StatsSnapshot, Ticket,
};
use dc_simulator::ExecMode;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Sleep slice of the open-loop driver between polls for completions.
/// Polling is the only way to watch many tickets from one thread; a
/// spinning driver would compete with the worker for the second core,
/// and a shorter slice costs more driver CPU per request.
const POLL: Duration = Duration::from_micros(500);

/// Payload streams: timed and warm-up requests count up from 0, set-up
/// requests live far above them, and the arrival and shape draws use
/// streams of their own.
const SETUP_STREAM: u64 = 1 << 62;
const ARRIVAL_STREAM: u64 = u64::MAX;
const SHAPE_STREAM: u64 = u64::MAX - 1;

/// The server every workload runs against.
pub fn server_config() -> ServerConfig {
    ServerConfig::default()
        .workers(1)
        .max_lanes(MAX_LANES)
        .exec(ExecMode::Sequential)
}

/// Requests attempted over the whole run and the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                false
            }
        }
    }
}

fn request(shape: Shape, values: Vec<i64>) -> Request {
    Request {
        shape,
        payload: Payload::Values(values),
    }
}

/// What set-up produced: the warm server the timed phase uses, every
/// set-up time, and the schedule misses of the last set-up.
pub struct SetUp {
    pub server: Server,
    pub secs: Vec<f64>,
    pub cold_misses: u64,
}

/// Starts a server and serves one cold request of every shape in the
/// mix, `reps` times; every server but the last is shut down. Only
/// `Server::start` and the cold requests are timed: payloads are built
/// before and checked after.
pub fn set_up(spec: &Spec, seed: u64, reps: usize, tally: &mut Tally) -> SetUp {
    let mut secs = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let jobs: Vec<Job> = spec
            .mix
            .iter()
            .enumerate()
            .map(|(i, &(shape, _))| job(seed, SETUP_STREAM + (rep * 64 + i) as u64, shape))
            .collect();
        let mut checks = Vec::with_capacity(jobs.len());
        let mut requests = Vec::with_capacity(jobs.len());
        for j in jobs {
            checks.push((j.shape, j.check));
            requests.push(request(j.shape, j.values));
        }

        let start = Instant::now();
        let server = Server::start(server_config());
        let tickets: Vec<Result<Ticket, Rejected>> =
            requests.into_iter().map(|r| server.submit(r)).collect();
        let responses: Vec<Result<Response, Rejected>> =
            tickets.into_iter().map(|t| t.map(Ticket::wait)).collect();
        secs.push(start.elapsed().as_secs_f64());

        let mut misses = 0;
        for ((shape, check), response) in checks.iter().zip(responses) {
            let result = match response {
                Ok(r) => {
                    misses += r.metrics.schedule_misses;
                    verify(*shape, check, &r, false)
                }
                Err(e) => Err(format!("set-up request refused: {e}")),
            };
            tally.record(result.map_err(|e| format!("set-up {shape:?}: {e}")));
        }
        if rep + 1 == reps {
            kept = Some((server, misses));
        } else {
            server.shutdown();
        }
    }
    let (server, cold_misses) = kept.expect("at least one set-up");
    SetUp {
        server,
        secs,
        cold_misses,
    }
}

/// How long to warm up and how to cut the timed phase.
#[derive(Debug, Clone)]
pub struct Plan {
    pub warm_up: Duration,
    pub segment: Duration,
    /// One entry per segment: whether its requests are traced.
    pub traced: Vec<bool>,
}

/// One segment of the timed phase, as it actually ran.
#[derive(Debug, Clone)]
pub struct Segment {
    pub traced: bool,
    pub start: Instant,
    pub end: Instant,
    pub cpu_s: f64,
    /// Verified responses the driver saw during the segment.
    pub ok_seen: u64,
    pub max_threads: u64,
    /// Host CPU time stolen by other guests and total host CPU time over
    /// the segment, in 1/100 s.
    pub steal: (u64, u64),
}

impl Segment {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One request sent during the timed phase.
#[derive(Debug, Clone)]
pub struct Rec {
    /// Segment the request was sent in.
    pub seg: usize,
    /// How late the driver sent it: after its due time (open loop) or
    /// after the completion that freed its slot (closed loop).
    pub lag: Duration,
    /// From the due time (open) or the submit call (closed) until the
    /// driver saw a verified response; `None` if refused or wrong.
    pub latency: Option<Duration>,
    pub service: Duration,
    pub lanes: usize,
    pub comm_steps: u64,
}

/// Everything the timed phase measured.
pub struct Measured {
    pub segments: Vec<Segment>,
    pub recs: Vec<Rec>,
    /// Server counters at the start and the end of the timed phase.
    pub before: StatsSnapshot,
    pub after: StatsSnapshot,
}

struct Meta {
    shape: Shape,
    check: Check,
    /// Origin of the request's latency.
    origin: Instant,
    sent: Instant,
    admitted: Instant,
    lag: Duration,
    seg: Option<usize>,
}

struct Flight {
    ticket: Ticket,
    meta: Meta,
}

struct Driver<'a> {
    server: &'a Server,
    spec: &'a Spec,
    seed: u64,
    plan: &'a Plan,
    tracer: &'a mut Tracer,
    tally: &'a mut Tally,
    shapes: Rng,
    next_index: u64,
    timed_start: Option<Instant>,
    open_seg: Option<Segment>,
    segments: Vec<Segment>,
    recs: Vec<Rec>,
    before: Option<StatsSnapshot>,
    after: Option<StatsSnapshot>,
}

/// Runs the warm-up and the timed phase of `spec` on a warm server, then
/// waits for every request still in flight.
pub fn measure(
    server: &Server,
    spec: &Spec,
    seed: u64,
    plan: &Plan,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Measured {
    let mut d = Driver {
        server,
        spec,
        seed,
        plan,
        tracer,
        tally,
        shapes: Rng::stream(seed, SHAPE_STREAM),
        next_index: 0,
        timed_start: None,
        open_seg: None,
        segments: Vec::with_capacity(plan.traced.len()),
        recs: Vec::with_capacity(1 << 16),
        before: None,
        after: None,
    };
    let begin = Instant::now();
    match spec.drive {
        Drive::Closed { outstanding } => d.closed(begin, outstanding),
        Drive::Open { rate_rps } => d.open(begin, rate_rps),
    }
    Measured {
        segments: d.segments,
        recs: d.recs,
        before: d.before.expect("the timed phase started"),
        after: d.after.expect("the timed phase ended"),
    }
}

impl Driver<'_> {
    fn next_job(&mut self) -> Job {
        let total: u32 = self.spec.mix.iter().map(|m| m.1).sum();
        let mut pick = (self.shapes.unit() * f64::from(total)) as u32;
        let shape = self
            .spec
            .mix
            .iter()
            .find(|&&(_, w)| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .map_or(self.spec.mix[0].0, |m| m.0);
        let j = job(self.seed, self.next_index, shape);
        self.next_index += 1;
        j
    }

    /// Opens and closes segments as time passes. Returns false once the
    /// timed phase is over and no more requests should be sent.
    fn tick(&mut self, begin: Instant) -> bool {
        let now = Instant::now();
        let Some(timed_start) = self.timed_start else {
            if now >= begin + self.plan.warm_up {
                self.timed_start = Some(now);
                self.before = Some(self.server.stats());
                self.open_segment(now);
            }
            return true;
        };
        let Some(seg) = &self.open_seg else {
            return false;
        };
        let index = self.segments.len();
        if now < timed_start + self.plan.segment * (index as u32 + 1) {
            return true;
        }
        let mut seg = seg.clone();
        seg.end = now;
        seg.cpu_s = stats::cpu_seconds() - seg.cpu_s;
        seg.max_threads = seg.max_threads.max(stats::threads());
        let (stolen, total) = stats::host_ticks();
        seg.steal = (stolen - seg.steal.0, total - seg.steal.1);
        self.segments.push(seg);
        self.open_seg = None;
        if self.segments.len() < self.plan.traced.len() {
            self.open_segment(now);
            true
        } else {
            // Before the drain, whose last batches may run part-full.
            self.after = Some(self.server.stats());
            false
        }
    }

    fn open_segment(&mut self, now: Instant) {
        self.open_seg = Some(Segment {
            traced: self.plan.traced[self.segments.len()],
            start: now,
            end: now,
            cpu_s: stats::cpu_seconds(),
            ok_seen: 0,
            max_threads: stats::threads(),
            steal: stats::host_ticks(),
        });
    }

    /// The segment, open or closed, whose span holds `t`.
    fn segment_at(&mut self, t: Instant) -> Option<&mut Segment> {
        if self.open_seg.as_ref().is_some_and(|s| t >= s.start) {
            return self.open_seg.as_mut();
        }
        self.segments
            .iter_mut()
            .rev()
            .find(|s| s.start <= t && t < s.end)
    }

    fn current_segment(&self) -> Option<usize> {
        self.open_seg.as_ref().map(|_| self.segments.len())
    }

    fn traced(&self, seg: Option<usize>) -> bool {
        seg.is_some_and(|i| self.plan.traced[i])
    }

    /// Submits `job`, whose latency counts from `origin`. A refused
    /// request fails at once.
    fn send(&mut self, job: Job, due: Instant, closed: bool, inflight: &mut impl Extend<Flight>) {
        let seg = self.current_segment();
        let sent = Instant::now();
        let submitted = self.server.submit(request(job.shape, job.values));
        let admitted = Instant::now();
        let meta = Meta {
            shape: job.shape,
            check: job.check,
            origin: if closed { sent } else { due },
            sent,
            admitted,
            lag: sent.saturating_duration_since(due),
            seg,
        };
        match submitted {
            Ok(ticket) => inflight.extend([Flight { ticket, meta }]),
            Err(e) => self.complete(meta, Err(format!("refused: {e}")), admitted),
        }
    }

    /// Checks one response the driver saw at `seen`, and records it.
    fn complete(&mut self, meta: Meta, response: Result<Response, String>, seen: Instant) {
        let checking = Instant::now();
        let result = match &response {
            Ok(r) => verify(meta.shape, &meta.check, r, true),
            Err(e) => Err(e.clone()),
        };
        let ok = self
            .tally
            .record(result.map_err(|e| format!("{:?}: {e}", meta.shape)));
        let checked = Instant::now();
        if ok {
            if let Some(seg) = self.segment_at(seen) {
                seg.ok_seen += 1;
            }
        }
        let traced = self.traced(meta.seg);
        if traced {
            self.tracer.record(0, "driver.verify", checking, checked);
        }
        let Some(seg) = meta.seg else {
            return;
        };
        let (queued, service, lanes, comm_steps) = match &response {
            Ok(r) => (r.queued, r.service, r.lanes, r.metrics.comm_steps),
            Err(_) => (Duration::ZERO, Duration::ZERO, 0, 0),
        };
        if traced {
            self.trace_request(&meta, queued, service, seen, response.is_ok());
        }
        self.recs.push(Rec {
            seg,
            lag: meta.lag,
            latency: ok.then(|| seen - meta.origin),
            service,
            lanes,
            comm_steps,
        });
    }

    /// The request span and its children. Queue and service come from the
    /// response's own stamps and are placed after the submit call; the
    /// hand-off is what is left until the driver saw the response.
    fn trace_request(
        &mut self,
        meta: &Meta,
        queued: Duration,
        service: Duration,
        seen: Instant,
        served: bool,
    ) {
        let t = &mut *self.tracer;
        let req = t.record(0, "request", meta.origin, seen);
        if meta.origin < meta.sent {
            t.record(req, "driver.lag", meta.origin, meta.sent);
        }
        t.record(req, "serve.submit", meta.sent, meta.admitted);
        if served {
            let picked = meta.admitted + queued;
            let done = picked + service;
            t.record(req, "serve.queue", meta.admitted, picked);
            t.record(req, "serve.service", picked, done);
            t.record(req, "serve.handoff", done, seen);
        }
    }

    /// Keeps `outstanding` requests in flight. Seeing a completion and
    /// refilling its slot from a payload built in advance come first;
    /// checking responses and building payloads wait until the oldest
    /// request is still running, one unit at a time, so they delay a
    /// completion the driver sees by one unit at most.
    fn closed(&mut self, begin: Instant, outstanding: usize) {
        let mut ready: VecDeque<Job> = (0..outstanding).map(|_| self.next_job()).collect();
        let mut inflight: VecDeque<Flight> = VecDeque::with_capacity(outstanding);
        let start = Instant::now();
        while let Some(j) = ready.pop_front() {
            self.send(j, start, true, &mut inflight);
        }
        let mut seen: VecDeque<(Meta, Response, Instant)> = VecDeque::with_capacity(outstanding);
        let mut sending = true;
        while !inflight.is_empty() || !seen.is_empty() {
            let idle = seen.is_empty() && (!sending || ready.len() >= outstanding);
            let done = match inflight.front().map(|f| f.ticket.try_take()) {
                Some(Some(r)) => inflight.pop_front().map(|f| (f.meta, r)),
                Some(None) if idle => inflight.pop_front().map(|f| (f.meta, f.ticket.wait())),
                _ => None,
            };
            if let Some((meta, r)) = done {
                let at = Instant::now();
                sending = sending && self.tick(begin);
                if sending {
                    let job = ready.pop_front().unwrap_or_else(|| self.next_job());
                    self.send(job, at, true, &mut inflight);
                }
                seen.push_back((meta, r, at));
            } else if let Some((meta, r, at)) = seen.pop_front() {
                self.complete(meta, Ok(r), at);
            } else if sending && ready.len() < outstanding {
                ready.push_back(self.next_job());
            }
        }
    }

    /// Sends on a seeded Poisson schedule. Between sends the driver takes
    /// completed tickets, then checks them one at a time, and sleeps when
    /// it has nothing to do.
    fn open(&mut self, begin: Instant, rate_rps: f64) {
        let mut arrivals = Rng::stream(self.seed, ARRIVAL_STREAM);
        let mut gap = move || Duration::from_secs_f64(-(1.0 - arrivals.unit()).ln() / rate_rps);
        let mut due = begin + gap();
        let mut next = self.next_job();
        let mut inflight: Vec<Flight> = Vec::with_capacity(256);
        let mut seen: VecDeque<(Meta, Response, Instant)> = VecDeque::with_capacity(256);
        let mut deadline = None;
        while !inflight.is_empty() || !seen.is_empty() || deadline.is_none() {
            let now = Instant::now();
            if deadline.is_none() {
                if !self.tick(begin) {
                    deadline = Some(now + Duration::from_secs(60));
                } else if now >= due {
                    self.send(next, due, false, &mut inflight);
                    due += gap();
                    next = self.next_job();
                    continue;
                }
            }
            if take_done(&mut inflight, &mut seen) {
                continue;
            }
            if let Some((meta, r, at)) = seen.pop_front() {
                self.complete(meta, Ok(r), at);
                continue;
            }
            if deadline.is_some_and(|d| now >= d) {
                for f in inflight.drain(..) {
                    let e = "no response within 60 s of the timed phase's end".to_string();
                    self.complete(f.meta, Err(e), now);
                }
                break;
            }
            let wake = if deadline.is_none() { due } else { now + POLL };
            std::thread::sleep(wake.saturating_duration_since(now).min(POLL));
        }
    }
}

/// Moves every completed ticket to `seen`, stamped with the moment the
/// driver saw it; true if there was one.
fn take_done(inflight: &mut Vec<Flight>, seen: &mut VecDeque<(Meta, Response, Instant)>) -> bool {
    let before = seen.len();
    let mut i = 0;
    while i < inflight.len() {
        if let Some(r) = inflight[i].ticket.try_take() {
            let f = inflight.swap_remove(i);
            seen.push_back((f.meta, r, Instant::now()));
        } else {
            i += 1;
        }
    }
    seen.len() > before
}
