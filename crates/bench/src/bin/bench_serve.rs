//! Serving-throughput bench: requests/sec and latency percentiles for
//! the dc-serve frontend on the §E24 reference machine size
//! (`D_8` = 32 768 nodes, prefix-sum requests, sequential cycle
//! backend).
//!
//! Three legs:
//!
//! * **single** — closed loop, 1 client, `max_lanes = 1`: the
//!   one-request-at-a-time baseline every serving claim is judged
//!   against;
//! * **batched** — closed loop, many clients, `max_lanes = K`: clients
//!   keep the admission queue deep enough that the shape batcher packs
//!   every machine run, so the schedule sweep amortises across K
//!   requests;
//! * **open** — open loop at ~70 % of the measured batched throughput:
//!   latency under load with headroom, the operating point a service
//!   would actually run at (tickets are collected and awaited, so the
//!   leg also exercises the submit/wait split).
//!
//! Protocol: the harness's run median ([`median_run`]) — each leg runs
//! `--runs` times on a fresh server and the reported leg is the run with
//! the **median throughput**; its service report supplies the
//! p50/p95/p99 latencies, so throughput and latency come from the same
//! run rather than a mongrel of several.
//!
//! Output: a human table on stdout and JSON at `--out` (default
//! `BENCH_serve.json`) — gated by `bench_compare` in CI's serve smoke
//! (the serve contract holds the batched-vs-single ratio) and recorded
//! in EXPERIMENTS.md §E29.
//!
//! Flags: `--runs R` (default 7), `--requests Q` (default 64, per
//! run per leg), `--n N` (default 8), `--clients C` (default 32),
//! `--lanes K` (default 16), `--out PATH`, `--stats-every MS`
//! (default 0 = sampler off; nonzero attaches the live-telemetry
//! sampler to a null sink, the telemetry-on arm of EXPERIMENTS.md
//! §E30 — the registry itself is always on and is part of every
//! number this bench has ever reported).

use dc_bench::harness::{flag, median_run, write_snapshot};
use dc_serve::{
    OpKind, Payload, Request, Server, ServerConfig, ServiceReport, Shape, SnapshotFormat,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct Leg {
    name: &'static str,
    clients: usize,
    max_lanes: usize,
    rps: f64,
    target_rps: Option<f64>,
    report: ServiceReport,
}

fn main() {
    let runs: usize = flag("--runs", 7);
    let requests: u64 = flag("--requests", 64);
    let n: u32 = flag("--n", 8);
    let clients: usize = flag("--clients", 32);
    let lanes: usize = flag("--lanes", 16);
    let out_path: String = flag("--out", "BENCH_serve.json".into());
    let stats_every: u64 = flag("--stats-every", 0);
    let sampler = (stats_every > 0).then(|| Duration::from_millis(stats_every));
    assert!(requests >= 1, "need at least one request");

    let shape = Shape {
        op: OpKind::PrefixSum,
        n,
    };
    println!(
        "serve bench on D_{n} ({} nodes), {} requests/leg, median of {runs} runs",
        shape.num_nodes(),
        requests
    );

    if let Some(every) = sampler {
        println!("live-stats sampler attached, one snapshot per {every:?} (telemetry-on arm)");
    }
    // Each leg is its median-throughput run, printed as it lands.
    let leg = |run: &dyn Fn() -> Leg| {
        let leg = median_run(runs, run, |leg: &Leg| leg.rps);
        let r = &leg.report;
        println!(
            "{:>8}: {:>8.1} req/s  lanes {:>5.1}  p50 {:>8.0} µs  p95 {:>8.0} µs  \
             p99 {:>8.0} µs  ({} batches, {} misses, {} hits)",
            leg.name,
            leg.rps,
            r.mean_lanes(),
            micros(r.latency_quantile(0.50)),
            micros(r.latency_quantile(0.95)),
            micros(r.latency_quantile(0.99)),
            r.batches,
            r.metrics.schedule_misses,
            r.metrics.schedule_hits,
        );
        leg
    };
    let single = leg(&|| closed_loop(shape, requests, 1, 1, sampler));
    let batched = leg(&|| closed_loop(shape, requests, clients, lanes, sampler));
    // Open loop at ~70 % of the batched capacity: enough load for the
    // batcher to matter, enough headroom that the queue stays shallow.
    let target = batched.rps * 0.7;
    let open = leg(&|| open_loop(shape, requests, lanes, target, sampler));

    let ratio = batched.rps / single.rps;
    println!("batched vs single: {ratio:.2}× requests/sec");

    let head = format!(
        "\"bench\":\"serve/throughput\",\"topology\":\"D_{n}\",\"nodes\":{},\
         \"op\":\"{}\",\"workers\":1,\"backend\":\"sequential\",\
         \"protocol\":\"median-throughput run of {runs} x {requests} requests per leg\",\
         \"batched_vs_single_rps\":{ratio:.4}",
        shape.num_nodes(),
        shape.op.name()
    );
    let legs: Vec<String> = [&single, &batched, &open]
        .into_iter()
        .map(|leg| {
            let r = &leg.report;
            format!(
                "{{\"leg\":\"{}\",\"clients\":{},\"max_lanes\":{},\"rps\":{:.3},\
                 \"target_rps\":{},\"served\":{},\"rejected\":{},\"rejected_by_cause\":{},\
                 \"batches\":{},\"mean_lanes\":{:.3},\"p50_us\":{:.1},\"p95_us\":{:.1},\
                 \"p99_us\":{:.1},\"schedule_misses\":{},\"schedule_hits\":{},\"latency\":{}}}",
                leg.name,
                leg.clients,
                leg.max_lanes,
                leg.rps,
                leg.target_rps.map_or("null".into(), |t| format!("{t:.3}")),
                r.served,
                r.rejected,
                r.rejected_by_cause.to_json(),
                r.batches,
                r.mean_lanes(),
                micros(r.latency_quantile(0.50)),
                micros(r.latency_quantile(0.95)),
                micros(r.latency_quantile(0.99)),
                r.metrics.schedule_misses,
                r.metrics.schedule_hits,
                r.latency.summary_json(),
            )
        })
        .collect();
    write_snapshot(&out_path, &head, &legs);
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The telemetry-on arm (§E30): snapshots stream to a null sink, so the
/// measured tax is snapshot + serialisation, not disk.
fn attach_sampler(server: &mut Server, sampler: Option<Duration>) {
    if let Some(every) = sampler {
        server.sample_stats(every, SnapshotFormat::Jsonl, Box::new(std::io::sink()));
    }
}

/// Closed loop: `clients` threads issue seeded requests back-to-back
/// until `requests` have been admitted; throughput is wall-clock over
/// the whole drain.
fn closed_loop(
    shape: Shape,
    requests: u64,
    clients: usize,
    max_lanes: usize,
    sampler: Option<Duration>,
) -> Leg {
    let mut server = Server::start(
        ServerConfig::default()
            .workers(1)
            .max_lanes(max_lanes)
            .queue_capacity(requests as usize + clients),
    );
    attach_sampler(&mut server, sampler);
    let issued = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let i = issued.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    break;
                }
                let response = server
                    .call(Request {
                        shape,
                        payload: Payload::Seeded(i),
                    })
                    .expect("queue sized for the whole workload");
                assert_eq!(response.output.len(), shape.num_nodes());
            });
        }
    });
    let elapsed = start.elapsed();
    let report = server.shutdown();
    assert_eq!(report.served, requests);
    Leg {
        name: if clients == 1 && max_lanes == 1 {
            "single"
        } else {
            "batched"
        },
        clients,
        max_lanes,
        rps: requests as f64 / elapsed.as_secs_f64(),
        target_rps: None,
        report,
    }
}

/// Open loop: one dispatcher submits on a fixed timer and collects
/// tickets; throughput is what the fleet actually sustained.
fn open_loop(
    shape: Shape,
    requests: u64,
    max_lanes: usize,
    target_rps: f64,
    sampler: Option<Duration>,
) -> Leg {
    let mut server = Server::start(
        ServerConfig::default()
            .workers(1)
            .max_lanes(max_lanes)
            .queue_capacity(requests as usize),
    );
    attach_sampler(&mut server, sampler);
    let interval = Duration::from_secs_f64(1.0 / target_rps.max(1e-6));
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(requests as usize);
    for i in 0..requests {
        let due = interval * i as u32;
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        match server.submit(Request {
            shape,
            payload: Payload::Seeded(i),
        }) {
            Ok(ticket) => tickets.push(ticket),
            Err(rejection) => panic!("open loop at 70% capacity must not shed: {rejection}"),
        }
    }
    for ticket in tickets {
        ticket.wait();
    }
    let elapsed = start.elapsed();
    let report = server.shutdown();
    Leg {
        name: "open",
        clients: 1,
        max_lanes,
        rps: report.served as f64 / elapsed.as_secs_f64(),
        target_rps: Some(target_rps),
        report,
    }
}
