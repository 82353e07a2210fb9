//! Command implementations: each returns the text to print, so the whole
//! surface is unit-testable without capturing stdout.

use crate::args::{
    Command, DiagramKind, OpKind, ServeOp, SortAlgo, StatsFormat, TraceFormat, HELP,
};
use dc_core::apps::radix_sort;
use dc_core::collectives::broadcast;
use dc_core::ops::{Concat, Max, Sum};
use dc_core::prefix::dualcube::{batched_d_prefix, d_prefix, Step5Mode};
use dc_core::prefix::large::d_prefix_large;
use dc_core::prefix::PrefixKind;
use dc_core::run::{Recording, RunConfig};
use dc_core::sort::dualcube::{batched_d_sort, d_sort};
use dc_core::sort::hypercube::cube_bitonic_sort;
use dc_core::sort::ring::ring_sort;
use dc_core::sort::SortOrder;
use dc_core::theory;
use dc_topology::bits::to_binary;
use dc_topology::{graph, properties, DualCube, Hypercube, RecDualCube, Routed, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Executes a parsed command, returning its output text.
pub fn run(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(HELP.to_string()),
        Command::Info { n } => info(n),
        Command::Route { n, src, dst } => route(n, src, dst),
        Command::Prefix {
            n,
            k,
            lanes,
            op,
            seed,
            metrics_json,
        } => prefix(n, k, lanes, op, seed, metrics_json),
        Command::Sort {
            n,
            algo,
            lanes,
            seed,
            metrics_json,
        } => sort(n, algo, lanes, seed, metrics_json),
        Command::Broadcast {
            n,
            root,
            metrics_json,
        } => bcast(n, root, metrics_json),
        Command::Trace {
            which,
            n,
            out,
            format,
        } => trace_cmd(n, which, out, format),
        Command::Serve {
            n,
            op,
            requests,
            workers,
            lanes,
            seed,
            metrics_json,
            stats_every,
            stats_out,
            stats_format,
        } => serve(
            n,
            op,
            requests,
            workers,
            lanes,
            seed,
            metrics_json,
            stats_every,
            stats_out,
            stats_format,
        ),
        Command::Experiments { ids } => experiments(&ids),
        Command::Diagram { n, which } => diagram(n, which),
        Command::Hamiltonian { n } => hamiltonian(n),
        Command::Dot { n } => dot(n),
    }
}

fn check_n(n: u32) -> Result<DualCube, String> {
    if (1..=10).contains(&n) {
        Ok(DualCube::new(n))
    } else {
        Err(format!("n must be in 1..=10, got {n}"))
    }
}

fn info(n: u32) -> Result<String, String> {
    let d = check_n(n)?;
    let mut out = String::new();
    writeln!(
        out,
        "{}: {} nodes, {} links, degree {}, diameter {}",
        d.name(),
        d.num_nodes(),
        d.num_edges(),
        d.degree(0),
        d.diameter_formula()
    )
    .unwrap();
    writeln!(
        out,
        "{} clusters per class, each a Q_{} of {} nodes",
        d.clusters_per_class(),
        d.cluster_dim(),
        d.cluster_size()
    )
    .unwrap();
    let same_size = properties::hypercube_row(2 * n - 1);
    writeln!(
        out,
        "equal-sized hypercube: {} at degree {} (dual-cube saves {} links/node for +1 diameter)",
        same_size.name,
        same_size.degree,
        same_size.degree - n as usize
    )
    .unwrap();
    if d.num_nodes() <= 1 << 13 {
        writeln!(
            out,
            "BFS-verified diameter: {}",
            graph::diameter_vertex_transitive(&d)
        )
        .unwrap();
    }
    writeln!(
        out,
        "theorem costs: prefix {} comm / {} comp; sort {} comm / {} comp",
        theory::prefix_comm(n),
        theory::prefix_comp(n),
        theory::sort_comm_exact(n),
        theory::sort_comp_exact(n)
    )
    .unwrap();
    Ok(out)
}

fn route(n: u32, src: usize, dst: usize) -> Result<String, String> {
    let d = check_n(n)?;
    if src >= d.num_nodes() || dst >= d.num_nodes() {
        return Err(format!("node ids must be < {}", d.num_nodes()));
    }
    let path = d.route(src, dst);
    let bits = d.address_bits();
    let mut out = format!(
        "route {src} → {dst}: {} hops (Hamming {}, formula {})\n",
        path.len() - 1,
        (src ^ dst).count_ones(),
        d.distance_formula(src, dst)
    );
    for w in path.windows(2) {
        let kind = if d.class_of(w[0]) != d.class_of(w[1]) {
            "cross"
        } else {
            "cluster"
        };
        writeln!(
            out,
            "  {} → {}  ({kind})",
            to_binary(w[0], bits),
            to_binary(w[1], bits)
        )
        .unwrap();
    }
    Ok(out)
}

fn prefix(
    n: u32,
    k: usize,
    lanes: usize,
    op: OpKind,
    seed: u64,
    metrics_json: bool,
) -> Result<String, String> {
    let d = check_n(n)?;
    if k == 0 || k > 4096 {
        return Err("--k must be in 1..=4096".into());
    }
    if lanes > 1 {
        return prefix_lanes(&d, n, k, lanes, op, seed, metrics_json);
    }
    let total = d.num_nodes() * k;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let (first, last, metrics) = match op {
        OpKind::Sum => {
            let input: Vec<Sum> = (0..total).map(|_| Sum(rng.gen_range(0..100))).collect();
            let run = d_prefix_large(&d, &input, PrefixKind::Inclusive);
            (
                format!("{:?}", run.prefixes.first().map(|s| s.0)),
                format!("{:?}", run.prefixes.last().map(|s| s.0)),
                run.metrics,
            )
        }
        OpKind::Max => {
            let input: Vec<Max> = (0..total).map(|_| Max(rng.gen_range(0..1000))).collect();
            let run = d_prefix_large(&d, &input, PrefixKind::Inclusive);
            (
                format!("{:?}", run.prefixes.first().map(|s| s.0)),
                format!("{:?}", run.prefixes.last().map(|s| s.0)),
                run.metrics,
            )
        }
        OpKind::Concat => {
            if k != 1 {
                return Err("--op concat supports only --k 1".into());
            }
            let input: Vec<Concat> = (0..total)
                .map(|i| Concat(((b'a' + (i % 26) as u8) as char).to_string()))
                .collect();
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                Recording::Off,
            );
            (
                format!("{:?}", run.prefixes.first().map(|s| s.0.clone())),
                format!("{:?}", run.prefixes.last().map(|s| s.0.clone())),
                run.metrics,
            )
        }
    };
    writeln!(
        out,
        "D_prefix on {} ({} items, {k}/node, op {op:?}):",
        d.name(),
        total
    )
    .unwrap();
    writeln!(out, "  s[0] = {first}, s[{}] = {last}", total - 1).unwrap();
    writeln!(
        out,
        "  {} comm steps (Theorem 1: {}), {} comp steps",
        metrics.comm_steps,
        theory::prefix_comm(n),
        metrics.comp_steps
    )
    .unwrap();
    if metrics_json {
        writeln!(out, "{}", dc_simulator::obs::metrics_json(&metrics)).unwrap();
    }
    Ok(out)
}

/// `--lanes L` variant of [`prefix`]: L independent instances advance
/// through one schedule lookup / validation / delivery sweep per cycle
/// via [`batched_d_prefix`]. Lane batching carries one value per node,
/// so it composes with `--k 1` only.
fn prefix_lanes(
    d: &DualCube,
    n: u32,
    k: usize,
    lanes: usize,
    op: OpKind,
    seed: u64,
    metrics_json: bool,
) -> Result<String, String> {
    if k != 1 {
        return Err("--lanes supports only --k 1 (one value per node per lane)".into());
    }
    if lanes > 4096 {
        return Err("--lanes must be in 1..=4096".into());
    }
    let nodes = d.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let (first, last, metrics) = match op {
        OpKind::Sum => {
            let inputs: Vec<Vec<Sum>> = (0..lanes)
                .map(|_| (0..nodes).map(|_| Sum(rng.gen_range(0..100))).collect())
                .collect();
            let run = batched_d_prefix(d, &inputs, PrefixKind::Inclusive, Step5Mode::PaperFaithful);
            (
                format!("{:?}", run.prefixes[0].first().map(|s| s.0)),
                format!("{:?}", run.prefixes[lanes - 1].last().map(|s| s.0)),
                run.metrics,
            )
        }
        OpKind::Max => {
            let inputs: Vec<Vec<Max>> = (0..lanes)
                .map(|_| (0..nodes).map(|_| Max(rng.gen_range(0..1000))).collect())
                .collect();
            let run = batched_d_prefix(d, &inputs, PrefixKind::Inclusive, Step5Mode::PaperFaithful);
            (
                format!("{:?}", run.prefixes[0].first().map(|s| s.0)),
                format!("{:?}", run.prefixes[lanes - 1].last().map(|s| s.0)),
                run.metrics,
            )
        }
        OpKind::Concat => {
            let inputs: Vec<Vec<Concat>> = (0..lanes)
                .map(|lane| {
                    (0..nodes)
                        .map(|i| Concat(((b'a' + ((i + lane) % 26) as u8) as char).to_string()))
                        .collect()
                })
                .collect();
            let run = batched_d_prefix(d, &inputs, PrefixKind::Inclusive, Step5Mode::PaperFaithful);
            (
                format!("{:?}", run.prefixes[0].first().map(|s| s.0.clone())),
                format!("{:?}", run.prefixes[lanes - 1].last().map(|s| s.0.clone())),
                run.metrics,
            )
        }
    };
    let mut out = String::new();
    writeln!(
        out,
        "D_prefix on {} ({lanes} lanes × {nodes} items, op {op:?}, one shared schedule):",
        d.name()
    )
    .unwrap();
    writeln!(
        out,
        "  lane 0: s[0] = {first}; lane {}: s[{}] = {last}",
        lanes - 1,
        nodes - 1
    )
    .unwrap();
    writeln!(
        out,
        "  {} comm steps (Theorem 1: {}), {} comp steps — amortised over {lanes} lanes ({} words / {} messages)",
        metrics.comm_steps,
        theory::prefix_comm(n),
        metrics.comp_steps,
        metrics.message_words,
        metrics.messages
    )
    .unwrap();
    if metrics_json {
        writeln!(out, "{}", dc_simulator::obs::metrics_json(&metrics)).unwrap();
    }
    Ok(out)
}

fn sort(
    n: u32,
    algo: SortAlgo,
    lanes: usize,
    seed: u64,
    metrics_json: bool,
) -> Result<String, String> {
    let d = check_n(n)?;
    if n < 2 && matches!(algo, SortAlgo::Ring) {
        return Err("ring sort needs n ≥ 2 (D_1 has no Hamiltonian cycle)".into());
    }
    if lanes > 1 {
        return sort_lanes(&d, n, algo, lanes, seed, metrics_json);
    }
    let nodes = d.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..nodes).map(|_| rng.gen_range(0..100_000)).collect();
    let mut expect = keys.clone();
    expect.sort();
    let (name, output, metrics) = match algo {
        SortAlgo::Bitonic => {
            let rec = RecDualCube::new(n);
            let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
            ("D_sort (Algorithm 3)", run.output, run.metrics)
        }
        SortAlgo::Radix => {
            let run = radix_sort(&d, &keys, 17);
            ("radix sort (scan-based)", run.output, run.metrics)
        }
        SortAlgo::Ring => {
            let rec = RecDualCube::new(n);
            let run = ring_sort(&rec, &keys, SortOrder::Ascending);
            (
                "odd-even transposition on embedded ring",
                run.output,
                run.metrics,
            )
        }
        SortAlgo::Hypercube => {
            let q = Hypercube::new(2 * n - 1);
            let run = cube_bitonic_sort(&q, &keys, SortOrder::Ascending, Recording::Off);
            (
                "bitonic sort on equal-sized hypercube",
                run.output,
                run.metrics,
            )
        }
    };
    if output != expect {
        return Err(format!(
            "{name} produced an unsorted result — this is a bug"
        ));
    }
    let mut out = String::new();
    writeln!(out, "{name} on {} ({nodes} keys, seed {seed}):", d.name()).unwrap();
    writeln!(
        out,
        "  min {} … max {} ✓ sorted",
        expect[0],
        expect[nodes - 1]
    )
    .unwrap();
    writeln!(
        out,
        "  {} comm steps, {} comparison steps (Theorem 2 exact for D_sort: {} / {})",
        metrics.comm_steps,
        metrics.comp_steps,
        theory::sort_comm_exact(n),
        theory::sort_comp_exact(n)
    )
    .unwrap();
    if metrics_json {
        writeln!(out, "{}", dc_simulator::obs::metrics_json(&metrics)).unwrap();
    }
    Ok(out)
}

/// `--lanes L` variant of [`sort`]: L independent key sets ride one
/// compiled schedule per compare-exchange cycle via [`batched_d_sort`].
/// Only Algorithm 3 has a lane-batched form — the other algorithms are
/// baselines and stay single-instance.
fn sort_lanes(
    d: &DualCube,
    n: u32,
    algo: SortAlgo,
    lanes: usize,
    seed: u64,
    metrics_json: bool,
) -> Result<String, String> {
    if !matches!(algo, SortAlgo::Bitonic) {
        return Err("--lanes supports only --algo bitonic (D_sort)".into());
    }
    if lanes > 4096 {
        return Err("--lanes must be in 1..=4096".into());
    }
    let nodes = d.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<Vec<u64>> = (0..lanes)
        .map(|_| (0..nodes).map(|_| rng.gen_range(0..100_000)).collect())
        .collect();
    let rec = RecDualCube::new(n);
    let run = batched_d_sort(&rec, &keys, SortOrder::Ascending);
    for (k, (input, output)) in keys.iter().zip(&run.outputs).enumerate() {
        let mut expect = input.clone();
        expect.sort();
        if output != &expect {
            return Err(format!(
                "D_sort lane {k} produced an unsorted result — this is a bug"
            ));
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "D_sort (Algorithm 3) on {} ({lanes} lanes × {nodes} keys, seed {seed}, one shared schedule):",
        d.name()
    )
    .unwrap();
    writeln!(out, "  all {lanes} lanes ✓ sorted").unwrap();
    writeln!(
        out,
        "  {} comm steps, {} comparison steps (Theorem 2 exact: {} / {}) — amortised over {lanes} lanes ({} words / {} messages)",
        run.metrics.comm_steps,
        run.metrics.comp_steps,
        theory::sort_comm_exact(n),
        theory::sort_comp_exact(n),
        run.metrics.message_words,
        run.metrics.messages
    )
    .unwrap();
    if metrics_json {
        writeln!(out, "{}", dc_simulator::obs::metrics_json(&run.metrics)).unwrap();
    }
    Ok(out)
}

fn bcast(n: u32, root: usize, metrics_json: bool) -> Result<String, String> {
    let d = check_n(n)?;
    if root >= d.num_nodes() {
        return Err(format!("root must be < {}", d.num_nodes()));
    }
    let run = broadcast(&d, root, root as u64);
    if !run.values.iter().all(|&v| v == root as u64) {
        return Err("broadcast failed to reach every node — this is a bug".into());
    }
    let mut out = format!(
        "broadcast from node {root} on {}: reached all {} nodes in {} steps (diameter {})\n",
        d.name(),
        d.num_nodes(),
        run.metrics.comm_steps,
        d.diameter_formula()
    );
    if metrics_json {
        writeln!(out, "{}", dc_simulator::obs::metrics_json(&run.metrics)).unwrap();
    }
    Ok(out)
}

/// Runs a canonical prefix/sort workload with a recorder installed and
/// exports the event stream (Perfetto trace JSON or JSONL). With
/// `--out` the payload is written to disk and a one-line summary is
/// printed; otherwise the payload itself goes to stdout.
/// `serve`: push a seeded same-shape workload through the dc-serve
/// frontend — open-loop submit, then wait on every ticket — and report
/// what the service did. The demo counterpart of `bench_serve` (which
/// owns the measurement protocol); this one is for poking at batching
/// and warmth interactively.
#[allow(clippy::too_many_arguments)] // mirrors the subcommand's flag list
fn serve(
    n: u32,
    op: ServeOp,
    requests: u64,
    workers: usize,
    lanes: usize,
    seed: u64,
    metrics_json: bool,
    stats_every: Option<u64>,
    stats_out: Option<String>,
    stats_format: StatsFormat,
) -> Result<String, String> {
    use dc_serve::{Payload, Request, Server, ServerConfig, Shape, SnapshotFormat};
    check_n(n)?;
    if requests > 100_000 {
        return Err("--requests must be in 1..=100000".into());
    }
    let shape = Shape {
        op: match op {
            ServeOp::Prefix => dc_serve::OpKind::PrefixSum,
            ServeOp::Sort => dc_serve::OpKind::SortI64,
            ServeOp::Allreduce => dc_serve::OpKind::AllReduceSum,
        },
        n,
    };
    let mut server = Server::start(
        ServerConfig::default()
            .workers(workers)
            .max_lanes(lanes)
            .queue_capacity(requests as usize),
    );
    if let Some(every_ms) = stats_every {
        let every = std::time::Duration::from_millis(every_ms);
        let format = match stats_format {
            StatsFormat::Jsonl => SnapshotFormat::Jsonl,
            StatsFormat::Prom => SnapshotFormat::Prometheus,
        };
        match &stats_out {
            Some(path) => server
                .sample_stats_to_file(every, format, std::path::Path::new(path))
                .map_err(|e| format!("cannot write --stats-out {path}: {e}"))?,
            None => server.sample_stats(every, format, Box::new(std::io::stdout())),
        }
    }
    let start = std::time::Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            server
                .submit(Request {
                    shape,
                    payload: Payload::Seeded(seed.wrapping_add(i)),
                })
                .map_err(|e| format!("request {i} rejected: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut max_lanes_seen = 0;
    for ticket in tickets {
        max_lanes_seen = max_lanes_seen.max(ticket.wait().lanes);
    }
    let elapsed = start.elapsed();
    let report = server.shutdown();

    let mut out = String::new();
    writeln!(
        out,
        "served {} {} requests on D_{n} ({} nodes/request) in {:.3} s — {:.1} req/s",
        report.served,
        shape.op.name(),
        shape.num_nodes(),
        elapsed.as_secs_f64(),
        report.served as f64 / elapsed.as_secs_f64()
    )
    .unwrap();
    writeln!(
        out,
        "  fleet: {workers} workers, {} machine runs, mean {:.1} lanes/run (widest batch {max_lanes_seen})",
        report.batches,
        report.mean_lanes()
    )
    .unwrap();
    writeln!(
        out,
        "  latency: p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
        report.latency_quantile(0.50).as_secs_f64() * 1e3,
        report.latency_quantile(0.95).as_secs_f64() * 1e3,
        report.latency_quantile(0.99).as_secs_f64() * 1e3
    )
    .unwrap();
    writeln!(
        out,
        "  schedules: {} compiled, {} replayed (warm banks make repeats free)",
        report.metrics.schedule_misses, report.metrics.schedule_hits
    )
    .unwrap();
    if report.rejected > 0 {
        let causes = &report.rejected_by_cause;
        writeln!(
            out,
            "  rejected: {} (queue_full {}, bad_shape {}, wrong_length {}, shutting_down {})",
            report.rejected,
            causes.queue_full,
            causes.bad_shape,
            causes.wrong_length,
            causes.shutting_down
        )
        .unwrap();
    }
    if let (Some(every_ms), Some(path)) = (stats_every, &stats_out) {
        writeln!(out, "  stats: sampled every {every_ms} ms into {path}").unwrap();
    }
    if metrics_json {
        // The full service JSON: counters, rejected-by-cause breakdown,
        // latency summary, and the engine metrics nested inside.
        writeln!(out, "{}", report.to_json()).unwrap();
    }
    Ok(out)
}

fn trace_cmd(
    n: u32,
    which: DiagramKind,
    out_path: Option<String>,
    format: TraceFormat,
) -> Result<String, String> {
    if !(1..=8).contains(&n) {
        return Err("trace supports n in 1..=8".into());
    }
    let sink = dc_simulator::obs::shared(dc_simulator::MemorySink::new());
    let config = RunConfig {
        recorder: Some(sink.clone()),
        ..RunConfig::default()
    };
    let (name, metrics) = match which {
        DiagramKind::Prefix => {
            let d = DualCube::new(n);
            let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                config,
            );
            (format!("D_prefix on {}", d.name()), run.metrics)
        }
        DiagramKind::Sort => {
            let rec = RecDualCube::new(n);
            let keys: Vec<u32> = (0..rec.num_nodes() as u32).rev().collect();
            let run = d_sort(&rec, &keys, SortOrder::Ascending, config);
            (format!("D_sort on {}", rec.name()), run.metrics)
        }
    };
    let events = sink.lock().unwrap().events();
    let payload = match format {
        TraceFormat::Perfetto => dc_simulator::obs::export_perfetto(&events),
        TraceFormat::Jsonl => {
            let mut s = String::new();
            for e in &events {
                s.push_str(&dc_simulator::obs::event_to_json(e));
                s.push('\n');
            }
            s
        }
    };
    match out_path {
        Some(path) => {
            std::fs::write(&path, &payload).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!(
                "{name}: recorded {} events ({} comm / {} comp steps) → {path}\n",
                events.len(),
                metrics.comm_steps,
                metrics.comp_steps
            ))
        }
        None => Ok(payload),
    }
}

fn diagram(n: u32, which: DiagramKind) -> Result<String, String> {
    if !(1..=4).contains(&n) {
        return Err("diagrams are readable for n in 1..=4".into());
    }
    let mut out = String::new();
    match which {
        DiagramKind::Prefix => {
            let d = check_n(n)?;
            let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                Recording::Trace,
            );
            writeln!(
                out,
                "D_prefix on {} — {} cycles (Theorem 1: {}):\n",
                d.name(),
                run.trace.len(),
                theory::prefix_comm(n)
            )
            .unwrap();
            out.push_str(&dc_bench::spacetime::render(&run.trace, d.num_nodes(), 1));
        }
        DiagramKind::Sort => {
            let rec = RecDualCube::new(n);
            let keys: Vec<u32> = (0..rec.num_nodes() as u32).rev().collect();
            let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Trace);
            writeln!(
                out,
                "D_sort on {} — {} cycles (6n²−7n+2 = {}):\n",
                rec.name(),
                run.trace.len(),
                theory::sort_comm_exact(n)
            )
            .unwrap();
            out.push_str(&dc_bench::spacetime::render(&run.trace, rec.num_nodes(), 1));
        }
    }
    Ok(out)
}

fn hamiltonian(n: u32) -> Result<String, String> {
    if !(2..=8).contains(&n) {
        return Err("hamiltonian needs n in 2..=8 (D_1 = K_2 has no cycle)".into());
    }
    let cycle = dc_topology::hamiltonian::hamiltonian_cycle(n);
    let d = check_n(n)?;
    let mut out = format!(
        "Hamiltonian cycle of {} ({} nodes — a dilation-1 ring embedding):\n",
        d.name(),
        cycle.len()
    );
    for chunk in cycle.chunks(16) {
        writeln!(
            out,
            "  {}",
            chunk
                .iter()
                .map(|u| u.to_string())
                .collect::<Vec<_>>()
                .join(" → ")
        )
        .unwrap();
    }
    writeln!(out, "  → back to {}", cycle[0]).unwrap();
    Ok(out)
}

fn dot(n: u32) -> Result<String, String> {
    if !(1..=4).contains(&n) {
        return Err("dot output is useful for n in 1..=4".into());
    }
    let d = check_n(n)?;
    Ok(graph::to_dot(&d, |u| match d.class_of(u) {
        dc_topology::Class::Zero => format!("label=\"{u}\", style=filled, fillcolor=lightblue"),
        dc_topology::Class::One => format!("label=\"{u}\", style=filled, fillcolor=lightsalmon"),
    }))
}

fn experiments(ids: &[String]) -> Result<String, String> {
    let all = dc_bench::experiments::all();
    let mut out = String::new();
    let wanted: Vec<&dc_bench::experiments::Experiment> = if ids.is_empty() {
        all.iter().collect()
    } else {
        let mut sel = Vec::new();
        for id in ids {
            match all.iter().find(|(eid, _, _)| eid.eq_ignore_ascii_case(id)) {
                Some(e) => sel.push(e),
                None => {
                    return Err(format!(
                        "unknown experiment {id:?}; known: {}",
                        all.iter()
                            .map(|(i, _, _)| *i)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                }
            }
        }
        sel
    };
    for (id, title, report) in wanted {
        writeln!(out, "## {id} — {title}\n\n{}", report()).unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn exec(s: &str) -> Result<String, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        run(parse(&args).map_err(|e| e.to_string())?)
    }

    #[test]
    fn info_reports_topology() {
        let out = exec("info 3").unwrap();
        assert!(out.contains("32 nodes"));
        assert!(out.contains("diameter 6"));
        assert!(out.contains("prefix 7 comm"));
    }

    #[test]
    fn route_prints_hops() {
        let out = exec("route 3 0 31").unwrap();
        assert!(out.contains("hops"));
        assert!(out.contains("cross"));
    }

    #[test]
    fn prefix_runs_all_ops() {
        assert!(exec("prefix 3").unwrap().contains("Theorem 1: 7"));
        assert!(exec("prefix 3 --op max").unwrap().contains("comm steps"));
        assert!(exec("prefix 2 --op concat").unwrap().contains("abcdefgh"));
        assert!(exec("prefix 3 --k 4").unwrap().contains("128 items"));
    }

    #[test]
    fn sort_runs_all_algorithms() {
        for algo in ["bitonic", "radix", "ring", "hypercube"] {
            let out = exec(&format!("sort 3 --algo {algo}")).unwrap();
            assert!(out.contains("✓ sorted"), "{algo}: {out}");
        }
    }

    #[test]
    fn serve_reports_throughput_for_every_op() {
        for op in ["prefix", "sort", "allreduce"] {
            let out = exec(&format!("serve 2 --op {op} --requests 12 --lanes 4")).unwrap();
            assert!(out.contains("served 12"), "{op}: {out}");
            assert!(out.contains("req/s"), "{op}: {out}");
            assert!(out.contains("p99"), "{op}: {out}");
            assert!(out.contains("compiled"), "{op}: {out}");
        }
        let json = exec("serve 2 --requests 3 --metrics-json").unwrap();
        assert!(json.contains("\"comm_steps\""), "{json}");
        // --metrics-json now carries the full service object, including
        // the rejected-by-cause breakdown.
        assert!(json.contains("\"rejected_by_cause\""), "{json}");
        assert!(json.contains("\"queue_full\":0"), "{json}");
        assert!(exec("serve 99").is_err());
    }

    #[test]
    fn serve_stats_every_streams_snapshots() {
        let dir = std::env::temp_dir().join("dc-cli-stats-test");
        std::fs::create_dir_all(&dir).unwrap();

        // JSONL: a time series whose final line is the shutdown totals.
        let jsonl = dir.join("stats.jsonl");
        let out = exec(&format!(
            "serve 2 --requests 12 --lanes 4 --stats-every 1 --stats-out {}",
            jsonl.display()
        ))
        .unwrap();
        assert!(out.contains("stats: sampled every 1 ms"), "{out}");
        let series = std::fs::read_to_string(&jsonl).unwrap();
        let last = series.lines().last().expect("at least the final sample");
        assert!(last.starts_with("{\"uptime_ms\":"), "{last}");
        assert!(last.contains("\"served\":12"), "{last}");
        assert!(last.contains("\"rejected_total\":0"), "{last}");

        // Prometheus: the file holds one complete latest page.
        let prom = dir.join("stats.prom");
        exec(&format!(
            "serve 2 --op sort --requests 6 --stats-every 1 --stats-out {} --stats-format prom",
            prom.display()
        ))
        .unwrap();
        let page = std::fs::read_to_string(&prom).unwrap();
        assert!(page.contains("dc_serve_served_total 6"), "{page}");
        assert!(
            page.contains("dc_serve_rejected_total{cause=\"queue_full\"} 0"),
            "{page}"
        );
        assert!(
            page.contains("# TYPE dc_serve_latency_seconds summary"),
            "{page}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefix_lanes_share_one_schedule() {
        let out = exec("prefix 3 --lanes 4").unwrap();
        assert!(out.contains("4 lanes × 32 items"), "{out}");
        assert!(out.contains("Theorem 1: 7"), "{out}");
        // Lane-batched step counts match a single run; words scale by 4.
        let single = exec("prefix 3 --metrics-json").unwrap();
        let batched = exec("prefix 3 --lanes 4 --metrics-json").unwrap();
        let steps = |s: &str| {
            let json = s.lines().last().unwrap().to_string();
            json.split("\"messages\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        assert_eq!(steps(&single), steps(&batched), "same message count");
        assert!(batched.contains("amortised over 4 lanes"), "{batched}");
        assert!(exec("prefix 3 --lanes 4 --op concat").is_ok());
        assert!(exec("prefix 3 --lanes 4 --k 2").is_err());
    }

    #[test]
    fn sort_lanes_all_sorted() {
        let out = exec("sort 3 --lanes 4").unwrap();
        assert!(out.contains("all 4 lanes ✓ sorted"), "{out}");
        assert!(out.contains("amortised over 4 lanes"), "{out}");
        assert!(exec("sort 3 --lanes 4 --algo radix").is_err());
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let out = exec("broadcast 3 17").unwrap();
        assert!(out.contains("reached all 32 nodes in 6 steps"));
    }

    #[test]
    fn experiments_selects_by_id() {
        let out = exec("experiments E1").unwrap();
        assert!(out.contains("Figure 1"));
        assert!(!out.contains("Theorem 2:"));
        assert!(exec("experiments E99").is_err());
    }

    #[test]
    fn metrics_json_appends_machine_readable_line() {
        let out = exec("prefix 2 --metrics-json").unwrap();
        let json = out.lines().last().unwrap();
        assert!(json.starts_with("{\"comm_steps\":"), "{json}");
        assert!(json.contains("\"link_util\":"), "{json}");
        assert!(json.contains("\"phases\":["), "{json}");
        assert!(exec("sort 2 --metrics-json")
            .unwrap()
            .lines()
            .last()
            .unwrap()
            .contains("\"comp_steps\""));
        assert!(exec("broadcast 2 0 --metrics-json")
            .unwrap()
            .contains("\"comm_steps\""));
    }

    #[test]
    fn trace_exports_perfetto_and_jsonl() {
        let perfetto = exec("trace prefix --n 2").unwrap();
        assert!(perfetto.starts_with("{\"traceEvents\":["), "{perfetto}");
        assert!(perfetto.contains("\"ph\":\"X\""), "has phase durations");
        assert!(perfetto.contains("\"ph\":\"i\""), "has cycle instants");

        let jsonl = exec("trace sort --n 2 --format jsonl").unwrap();
        assert!(jsonl.lines().count() > 4);
        assert!(jsonl.contains("\"type\":\"cycle\""), "{jsonl}");
        assert!(jsonl.contains("\"type\":\"phase\""), "{jsonl}");

        assert!(exec("trace prefix --n 99").is_err());
    }

    #[test]
    fn trace_writes_out_file() {
        let path = std::env::temp_dir().join("dc-cli-trace-test.perfetto.json");
        let path_str = path.to_str().unwrap().to_string();
        let out = exec(&format!("trace prefix --n 2 --out {path_str}")).unwrap();
        assert!(out.contains("recorded"), "{out}");
        assert!(out.contains(&path_str));
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("{\"traceEvents\":["));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(exec("info 77").unwrap_err().contains("1..=10"));
        assert!(exec("route 2 0 99").unwrap_err().contains("node ids"));
        assert!(exec("broadcast 2 999").unwrap_err().contains("root"));
        assert!(exec("prefix 2 --op concat --k 3").is_err());
    }

    #[test]
    fn help_covers_all_commands() {
        let out = exec("help").unwrap();
        for c in [
            "info",
            "route",
            "prefix",
            "sort",
            "broadcast",
            "experiments",
            "trace",
            "--metrics-json",
        ] {
            assert!(out.contains(c), "{c}");
        }
    }
}
