//! The traced run's engine-direct legs, simulator and topology probes,
//! and the ledger derived from them.
//!
//! Every leg calls a public function of `dc-core`, `dc-simulator`,
//! `dc-topology` or `dc-serve` with `ExecMode::Sequential` passed
//! explicitly (the process default goes threaded above 4 096 nodes),
//! times the call as a span named after the metric it feeds, and checks
//! what the call returned. The legs do not depend on the workload, so
//! every traced run prints the same per-layer set.
//!
//! The ledger sets probe times times exact step counts against the whole
//! engine call, and the engine call against the served batch. The host's
//! speed drifts by more than the smaller terms, so each term is measured
//! in pairs on the same inputs, back to back, and the ledger reports the
//! median of the per-pair differences.

use crate::drive::{server_config, Tally};
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{job, shape_tag, verify, Job, MAX_LANES, WORKLOADS};
use dc_core::collectives::allreduce::allreduce_reusing;
use dc_core::emulate::{batched_emu_machine, exchange_dim_lanes, BatchedEmuState};
use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{batched_d_prefix_reusing, Step5Mode};
use dc_core::prefix::PrefixKind;
use dc_core::sort::dualcube::batched_d_sort_reusing;
use dc_core::sort::SortOrder;
use dc_serve::{OpKind, Payload, Request, Response, Server, Shape, Ticket};
use dc_simulator::{ExecMode, Machine, Metrics as StepMetrics, ScheduleBank, ScheduleKey};
use dc_topology::bits::bit;
use dc_topology::{Class, DualCube, RecDualCube, Topology};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Payload streams of the probes, apart from every request stream.
const PROBE_STREAM: u64 = 1 << 61;

const PREFIX_D8: Shape = Shape {
    op: OpKind::PrefixSum,
    n: 8,
};
const SORT_D6: Shape = Shape {
    op: OpKind::SortI64,
    n: 6,
};

/// Algorithm 2 on D_8 takes 17 communication and 16 computation steps;
/// Algorithm 3 on D_6 takes 176 communication steps.
const PREFIX_D8_COMM: u64 = 17;
const PREFIX_D8_COMP: f64 = 16.0;
const SORT_D6_COMM: u64 = 176;

struct Probe<'a> {
    seed: u64,
    reps: usize,
    next: u64,
    tracer: &'a mut Tracer,
    tally: &'a mut Tally,
}

/// Runs every probe `reps` times and appends the per-layer metrics they
/// feed, the ledger included.
pub fn run(seed: u64, reps: usize, tracer: &mut Tracer, tally: &mut Tally, out: &mut Metrics) {
    let mut p = Probe {
        seed,
        reps,
        next: PROBE_STREAM,
        tracer,
        tally,
    };
    // The engine legs run on a thread of their own, as a server worker
    // runs batches: the allocator serves each thread from its own arena,
    // and the main thread's arena returns freed memory to the system
    // after every large call, so there each call would pay thousands of
    // page faults a worker does not. The calling thread waits, so the
    // process still runs two threads.
    let mut d8_bank = ScheduleBank::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut d6_bank = ScheduleBank::new();
            p.compile_pairs("core.prefix.d8", PREFIX_D8, &mut d8_bank);
            p.warm_k1("core.prefix.d8.k1", PREFIX_D8, &mut d8_bank);
            p.ledger_d8(&mut d8_bank);
            p.compile_pairs("core.sort.d6", SORT_D6, &mut d6_bank);
            p.ledger_d6(&mut d6_bank);
            for (shape, _) in mixed_shapes() {
                let mut bank = ScheduleBank::new();
                let name = format!("core.mixed.{}.k1", shape_tag(shape));
                p.warm_k1(&name, shape, &mut bank);
            }
            p.cold_cycles(&d8_bank);
            p.topo_d8();
        })
        .join()
        .expect("probe thread panicked");
    });
    p.serve_vs_core_d8(&mut d8_bank);

    let ms = |name: &str| median(p.tracer.durations_ns(name)) / 1e6;
    let us = |name: &str| median(p.tracer.durations_ns(name)) / 1e3;
    // Per-pair combinations of spans recorded in step, in milliseconds.
    let paired = |names: &[&str], f: &dyn Fn(&[f64]) -> f64| {
        let series: Vec<Vec<f64>> = names.iter().map(|n| p.tracer.durations_ns(n)).collect();
        let pairs = series.iter().map(Vec::len).min().unwrap_or(0);
        median(
            (0..pairs)
                .map(|i| f(&series.iter().map(|s| s[i] / 1e6).collect::<Vec<_>>()))
                .collect(),
        )
    };

    out.push("core.prefix.d8.k16_ms", ms("core.prefix.d8.k16"), "ms");
    out.push("core.prefix.d8.k1_ms", ms("core.prefix.d8.k1"), "ms");
    out.push("core.sort.d6.k16_ms", ms("core.sort.d6.k16"), "ms");
    for (shape, _) in mixed_shapes() {
        let name = format!("core.mixed.{}.k1", shape_tag(shape));
        out.push(format!("{name}_ms"), ms(&name), "ms");
    }
    for stem in ["core.prefix.d8", "core.sort.d6"] {
        let (cold, warm) = (format!("{stem}.k1.cold"), format!("{stem}.k1.warm"));
        out.push(
            format!("{stem}.compile_ms"),
            paired(&[&cold, &warm], &|t| t[0] - t[1]),
            "ms",
        );
    }

    let comm = PREFIX_D8_COMM as f64;
    out.push(
        "sim.replay_cycle_us.d8_k16",
        us("sim.replay_cycles.d8_k16") / comm,
        "us",
    );
    out.push(
        "sim.replay_cycle_us.d8_k1",
        us("sim.replay_cycles.d8_k1") / comm,
        "us",
    );
    out.push(
        "sim.compute_step_us.d8_k16",
        us("sim.compute_step.d8_k16"),
        "us",
    );
    out.push(
        "sim.emu_cycle_us.d6_k16",
        us("sim.emu_sort_rounds.d6_k16") / SORT_D6_COMM as f64,
        "us",
    );
    out.push("sim.compile_cycle_us.d8", us("sim.compile_cycle.d8"), "us");
    out.push("sim.compile_cycle_us.d6", us("sim.compile_cycle.d6"), "us");
    out.push(
        "sim.machine_build_ms.d8_k16",
        ms("sim.machine_build.d8_k16"),
        "ms",
    );
    out.push("sim.adopt_donate_us.d8", us("sim.adopt_donate.d8"), "us");

    let nodes = DualCube::new(8).num_nodes() as f64;
    out.push(
        "topo.linear_index_ns",
        us("topo.linear_index.d8") * 1e3 / nodes,
        "ns",
    );
    out.push(
        "topo.neighbor_ns",
        us("topo.neighbor.d8") * 1e3 / (nodes * 8.0),
        "ns",
    );

    let d8 = [
        "core.prefix.d8.k16",
        "sim.machine_build.d8_k16",
        "sim.replay_cycles.d8_k16",
        "sim.compute_step.d8_k16",
    ];
    let cycles = |t: &[f64]| t[2] + PREFIX_D8_COMP * t[3];
    out.push("ledger.prefix_d8.cycles_ms", paired(&d8, &cycles), "ms");
    out.push("ledger.prefix_d8.build_ms", paired(&d8, &|t| t[1]), "ms");
    out.push(
        "ledger.prefix_d8.unattributed_ms",
        paired(&d8, &|t| t[0] - t[1] - cycles(t)),
        "ms",
    );
    out.push(
        "ledger.prefix_d8.serve_overhead_ms",
        paired(
            &["serve.batch_service.d8_k16", "core.prefix.d8.k16.paired"],
            &|t| t[0] - t[1],
        ),
        "ms",
    );
    let d6 = ["core.sort.d6.k16", "sim.emu_sort_rounds.d6_k16"];
    out.push("ledger.sort_d6.cycles_ms", paired(&d6, &|t| t[1]), "ms");
    out.push(
        "ledger.sort_d6.unattributed_ms",
        paired(&d6, &|t| t[0] - t[1]),
        "ms",
    );
}

/// The shapes of the mixed workload.
fn mixed_shapes() -> impl Iterator<Item = (Shape, u32)> {
    WORKLOADS
        .iter()
        .find(|w| w.name == "mixed-open")
        .expect("mixed-open is defined")
        .mix
        .iter()
        .copied()
}

/// Typed inputs of one engine call, built before the call is timed.
enum Inputs {
    Prefix(DualCube, Vec<Vec<Sum>>),
    Sort(RecDualCube, Vec<Vec<i64>>),
    AllReduce(DualCube, Vec<Sum>),
}

impl Inputs {
    fn new(shape: Shape, jobs: &[Job]) -> Inputs {
        let sums = |j: &Job| j.values.iter().copied().map(Sum).collect::<Vec<_>>();
        match shape.op {
            OpKind::PrefixSum => {
                Inputs::Prefix(DualCube::new(shape.n), jobs.iter().map(sums).collect())
            }
            OpKind::SortI64 => Inputs::Sort(
                RecDualCube::new(shape.n),
                jobs.iter().map(|j| j.values.clone()).collect(),
            ),
            OpKind::AllReduceSum => Inputs::AllReduce(DualCube::new(shape.n), sums(&jobs[0])),
        }
    }

    /// The engine call, timed as span `name`; outputs per lane.
    fn call(
        &self,
        bank: &mut ScheduleBank,
        tracer: &mut Tracer,
        name: &str,
    ) -> (Vec<Vec<i64>>, StepMetrics) {
        let seq = ExecMode::Sequential;
        match self {
            Inputs::Prefix(d, inputs) => {
                let run = tracer.time(name.to_owned(), || {
                    batched_d_prefix_reusing(
                        d,
                        inputs,
                        PrefixKind::Inclusive,
                        Step5Mode::PaperFaithful,
                        seq,
                        bank,
                    )
                });
                let out = run
                    .prefixes
                    .into_iter()
                    .map(|l| l.into_iter().map(|s| s.0).collect())
                    .collect();
                (out, run.metrics)
            }
            Inputs::Sort(rec, keys) => {
                let run = tracer.time(name.to_owned(), || {
                    batched_d_sort_reusing(rec, keys, SortOrder::Ascending, seq, bank)
                });
                (run.outputs, run.metrics)
            }
            Inputs::AllReduce(d, values) => {
                let run = tracer.time(name.to_owned(), || allreduce_reusing(d, values, seq, bank));
                (vec![vec![run.values[0].0]], run.metrics)
            }
        }
    }
}

impl Probe<'_> {
    fn jobs(&mut self, shape: Shape, lanes: usize) -> Vec<Job> {
        let start = self.next;
        self.next += lanes as u64;
        (start..self.next)
            .map(|i| job(self.seed, i, shape))
            .collect()
    }

    /// Runs `jobs` through the engine as span `name` and checks each lane
    /// as the server would check a response.
    fn call(&mut self, name: &str, jobs: &[Job], bank: &mut ScheduleBank, warm: bool) {
        let shape = jobs[0].shape;
        let (outputs, metrics) = Inputs::new(shape, jobs).call(bank, self.tracer, name);
        for (j, output) in jobs.iter().zip(outputs) {
            let response = Response {
                output,
                lanes: jobs.len(),
                metrics: metrics.clone(),
                queued: Duration::ZERO,
                service: Duration::ZERO,
            };
            let result = verify(shape, &j.check, &response, warm);
            self.tally
                .record(result.map_err(|e| format!("{name}: {e}")));
        }
    }

    fn count(&mut self, what: &str, ok: bool) {
        self.tally
            .record(ok.then_some(()).ok_or_else(|| format!("{what} is off")));
    }

    /// Pairs of K=1 runs on one input, first on an empty bank
    /// (`<stem>.k1.cold`), then on `bank` once it is warm
    /// (`<stem>.k1.warm`): each pair's difference is the compile cost.
    fn compile_pairs(&mut self, stem: &str, shape: Shape, bank: &mut ScheduleBank) {
        let warm_up = self.jobs(shape, 1);
        self.call("core.warm_up", &warm_up, bank, false);
        for _ in 0..self.reps {
            let jobs = self.jobs(shape, 1);
            self.call(
                &format!("{stem}.k1.cold"),
                &jobs,
                &mut ScheduleBank::new(),
                false,
            );
            self.call(&format!("{stem}.k1.warm"), &jobs, bank, true);
        }
    }

    /// Warm K=1 runs of `shape` as span `name`.
    fn warm_k1(&mut self, name: &str, shape: Shape, bank: &mut ScheduleBank) {
        let warm_up = self.jobs(shape, 1);
        self.call("core.warm_up", &warm_up, bank, false);
        for _ in 0..self.reps {
            let jobs = self.jobs(shape, 1);
            self.call(name, &jobs, bank, true);
        }
    }

    /// Each repetition runs 16 D_8 prefixes through the engine, then the
    /// same inputs through a probe machine: its state and machine build,
    /// Algorithm 2's 17 communication cycles replayed from `bank`, and one
    /// compute step. Then the 17 cycles at K=1.
    fn ledger_d8(&mut self, bank: &mut ScheduleBank) {
        let d = DualCube::new(8);
        for lanes in [MAX_LANES, 1] {
            for _ in 0..self.reps {
                let jobs = self.jobs(PREFIX_D8, lanes);
                if lanes == MAX_LANES {
                    self.call("core.prefix.d8.k16", &jobs, bank, true);
                }
                let values: Vec<Vec<i64>> = jobs.into_iter().map(|j| j.values).collect();
                let name = format!("sim.machine_build.d8_k{lanes}");
                let mut m = self.tracer.time(name, || lane_machine(&d, &values));
                m.adopt_schedules(bank);
                let name = format!("sim.replay_cycles.d8_k{lanes}");
                self.tracer.time(name, || prefix_cycles(&d, &mut m, lanes));
                if lanes == MAX_LANES {
                    self.tracer.time("sim.compute_step.d8_k16", || {
                        m.compute(1, |u, st| {
                            let high = bit(d.node_id(u), 0);
                            for k in 0..st.t.len() {
                                let v = st.temp[k];
                                if high {
                                    st.s[k] = st.s[k].wrapping_add(v);
                                }
                                st.t[k] = st.t[k].wrapping_add(v);
                            }
                        })
                    });
                }
                m.donate_schedules(bank);
                let counts = m.metrics();
                self.count(
                    "probe replay of Algorithm 2's cycles",
                    counts.comm_steps == PREFIX_D8_COMM && counts.schedule_misses == 0,
                );
            }
        }
    }

    /// Each repetition sorts 16 D_6 key sets through the engine, then the
    /// same keys through Algorithm 3's rounds of `exchange_dim_lanes` on a
    /// machine replaying from `bank`.
    fn ledger_d6(&mut self, bank: &mut ScheduleBank) {
        let rec = RecDualCube::new(6);
        for _ in 0..self.reps {
            let jobs = self.jobs(SORT_D6, MAX_LANES);
            self.call("core.sort.d6.k16", &jobs, bank, true);
            let per_node: Vec<Vec<i64>> = (0..rec.num_nodes())
                .map(|r| jobs.iter().map(|j| j.values[r]).collect())
                .collect();
            let mut m = batched_emu_machine(&rec, per_node, &0);
            m.set_exec(ExecMode::Sequential);
            m.adopt_schedules(bank);
            self.tracer
                .time("sim.emu_sort_rounds.d6_k16", || sort_rounds(&rec, &mut m));
            m.donate_schedules(bank);
            let counts = m.metrics();
            let sorted = (0..MAX_LANES).all(|k| {
                m.states()
                    .windows(2)
                    .all(|w| w[0].values[k] <= w[1].values[k])
            });
            self.count(
                "probe replay of Algorithm 3's rounds",
                sorted && counts.comm_steps == SORT_D6_COMM && counts.schedule_misses == 0,
            );
        }
    }

    /// The first keyed cycle on a fresh machine, which compiles its
    /// schedule, on D_8 and on D_6; and adopting plus donating a warm
    /// D_8 bank.
    fn cold_cycles(&mut self, d8_bank: &ScheduleBank) {
        let d = DualCube::new(8);
        let rec = RecDualCube::new(6);
        let mut bank = ScheduleBank::new();
        for _ in 0..self.reps {
            let mut m = lane_machine(&d, &[vec![0; d.num_nodes()]]);
            self.tracer.time("sim.compile_cycle.d8", || {
                m.pairwise_lanes_keyed(
                    ScheduleKey::Dim(0),
                    1,
                    &0,
                    |u, _| Some(d.cluster_neighbor(u, 0)),
                    fill,
                    deliver,
                )
            });
            self.count("first D_8 cycle", m.metrics().schedule_misses == 1);

            let states = (0..rec.num_nodes())
                .map(|_| LaneState::new(vec![0]))
                .collect();
            let mut m = Machine::with_exec(&rec, states, ExecMode::Sequential);
            self.tracer.time("sim.compile_cycle.d6", || {
                m.pairwise_lanes_keyed(ScheduleKey::Cross, 1, &0, |r, _| Some(r ^ 1), fill, deliver)
            });
            self.count("first D_6 cycle", m.metrics().schedule_misses == 1);
        }
        // A bank as full as a served D_8 prefix leaves it.
        let mut warmer = lane_machine(&d, &[vec![0; d.num_nodes()]]);
        prefix_cycles(&d, &mut warmer, 1);
        warmer.donate_schedules(&mut bank);
        self.count("probe bank size", bank.len() == d8_bank.len());
        for _ in 0..self.reps {
            let mut m = lane_machine(&d, &[]);
            self.tracer.time("sim.adopt_donate.d8", || {
                m.adopt_schedules(&mut bank);
                m.donate_schedules(&mut bank);
            });
        }
    }

    /// `linear_index` and the neighbour functions over every node of D_8.
    fn topo_d8(&mut self) {
        let d = DualCube::new(8);
        let nodes = d.num_nodes();
        for _ in 0..self.reps {
            self.tracer.time("topo.linear_index.d8", || {
                let mut acc = 0usize;
                for u in 0..nodes {
                    acc = acc.wrapping_add(d.linear_index(black_box(u)));
                }
                black_box(acc)
            });
            self.tracer.time("topo.neighbor.d8", || {
                let mut acc = 0usize;
                for u in 0..nodes {
                    let u = black_box(u);
                    acc ^= d.cross_neighbor(u);
                    for i in 0..d.cluster_dim() {
                        acc ^= d.cluster_neighbor(u, i);
                    }
                }
                black_box(acc)
            });
        }
    }

    /// Pairs of one full 16-lane D_8 batch through a fresh, warmed server
    /// (its service time, as the last rider's `Response.service` reports
    /// it) and the same inputs through the engine call on a helper thread:
    /// each pair's difference is what serving adds to the call. A server
    /// per pair keeps the process at two threads.
    fn serve_vs_core_d8(&mut self, bank: &mut ScheduleBank) {
        for _ in 0..self.reps {
            let cold = self.jobs(PREFIX_D8, 1).remove(0);
            let jobs = self.jobs(PREFIX_D8, MAX_LANES);
            let server = Server::start(server_config());
            let submit = |j: &Job| {
                server.submit(Request {
                    shape: PREFIX_D8,
                    payload: Payload::Values(j.values.clone()),
                })
            };
            // The batch queues while the worker compiles the cold request,
            // so the worker then takes all of it at once.
            let first = submit(&cold);
            while server.queue_len() > 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
            let start = Instant::now();
            let tickets: Vec<_> = jobs.iter().map(submit).collect();
            self.settle(&cold, first.map(Ticket::wait), false);
            let mut service = Duration::ZERO;
            let mut one_batch = true;
            for (j, t) in jobs.iter().zip(tickets) {
                let r = t.map(Ticket::wait);
                if let Ok(r) = &r {
                    service = service.max(r.service);
                    one_batch &= r.lanes == MAX_LANES;
                }
                self.settle(j, r, true);
            }
            server.shutdown();
            if !one_batch {
                // The driver was held up past the cold request and the
                // worker split the batch: no pair this time.
                continue;
            }
            self.tracer
                .record(0, "serve.batch_service.d8_k16", start, start + service);
            std::thread::scope(|s| {
                s.spawn(|| self.call("core.prefix.d8.k16.paired", &jobs, bank, true))
                    .join()
                    .expect("probe thread panicked")
            });
        }
    }

    fn settle<E: ToString>(&mut self, j: &Job, response: Result<Response, E>, warm: bool) {
        let result = response
            .map_err(|e| e.to_string())
            .and_then(|r| verify(j.shape, &j.check, &r, warm));
        self.tally
            .record(result.map_err(|e| format!("serve probe: {e}")));
    }
}

/// Per-node state of the probe machines: Algorithm 2's five variables,
/// one lane each per instance.
struct LaneState {
    t: Vec<i64>,
    s: Vec<i64>,
    t2: Vec<i64>,
    s2: Vec<i64>,
    temp: Vec<i64>,
}

impl LaneState {
    fn new(c: Vec<i64>) -> LaneState {
        let lanes = c.len();
        LaneState {
            s: c.clone(),
            t: c,
            t2: vec![0; lanes],
            s2: vec![0; lanes],
            temp: vec![0; lanes],
        }
    }
}

/// Places instance `k`'s value for data index `linear_index(u)` in lane
/// `k` of node `u`, as Algorithm 2's state build does.
fn lane_machine<'t>(d: &'t DualCube, inputs: &[Vec<i64>]) -> Machine<'t, DualCube, LaneState> {
    let states = (0..d.num_nodes())
        .map(|u| LaneState::new(inputs.iter().map(|inp| inp[d.linear_index(u)]).collect()))
        .collect();
    Machine::with_exec(d, states, ExecMode::Sequential)
}

fn fill(_: usize, st: &LaneState, window: &mut [i64]) {
    window.copy_from_slice(&st.t);
}

fn deliver(st: &mut LaneState, _: usize, window: &mut [i64]) {
    st.temp.copy_from_slice(window);
}

/// The 17 communication cycles of Algorithm 2 on D_n, under the keys the
/// algorithm uses: two cluster sweeps each followed by a cross-edge
/// exchange, then step 5's one-way send.
fn prefix_cycles(d: &DualCube, m: &mut Machine<'_, DualCube, LaneState>, lanes: usize) {
    for _ in 0..2 {
        for i in 0..d.cluster_dim() {
            m.pairwise_lanes_keyed(
                ScheduleKey::Dim(i),
                lanes,
                &0,
                |u, _| Some(d.cluster_neighbor(u, i)),
                fill,
                deliver,
            );
        }
        m.pairwise_lanes_keyed(
            ScheduleKey::Cross,
            lanes,
            &0,
            |u, _| Some(d.cross_neighbor(u)),
            fill,
            deliver,
        );
    }
    m.exchange_lanes_keyed(
        ScheduleKey::Custom(0),
        lanes,
        &0,
        |u, _| (d.class_of(u) == Class::One).then(|| d.cross_neighbor(u)),
        |_, st, w| w.copy_from_slice(&st.t2),
        |st, _, w| st.s2.copy_from_slice(w),
    );
}

/// Algorithm 3's compare-exchange rounds, in its order, ascending.
fn sort_rounds(rec: &RecDualCube, m: &mut Machine<'_, RecDualCube, BatchedEmuState<i64>>) {
    let n = rec.n();
    let round = |m: &mut Machine<'_, RecDualCube, _>,
                 j: u32,
                 descending: &(dyn Fn(usize) -> bool + Sync)| {
        exchange_dim_lanes(m, j, MAX_LANES, &0, |r, own: &i64, other: &i64| {
            let keep_min = bit(r, j) == descending(r);
            if keep_min == (own <= other) {
                *own
            } else {
                *other
            }
        });
    };
    for level in 1..=n {
        let top = 2 * level - 2;
        if level >= 2 {
            for j in (0..top).rev() {
                round(m, j, &|r| bit(r, top));
            }
        }
        for j in (0..=top).rev() {
            round(m, j, &|r| {
                if level == n {
                    SortOrder::Ascending.tag()
                } else {
                    bit(r, 2 * level - 1)
                }
            });
        }
    }
}
