//! The repository's benchmark: one named workload against an in-process
//! `dc-serve` server, every response checked, one JSON result line.
//!
//! ```text
//! dc-perfbench --workload <prefix-d8|sort-d6|mixed-open> --seed <n>
//!              --seconds <s> --trace <0|1>
//! dc-perfbench --smoke [--seed <n>] [--seconds <s>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans on alternate segments, then the engine-direct and
//! simulator probes, and prints the per-layer metrics. `--smoke` runs
//! every workload both ways, briefly, and fails unless every metric has a
//! value and every response verified. See README.md for the metric
//! definitions.
//!
//! Exit codes: 0 with a result line; 2 for bad arguments; 3 for a run
//! whose measurement is invalid (generator lag, thread count, too few
//! samples), which prints no result.

mod drive;
mod probe;
mod report;
mod stats;
mod trace;
mod workload;

use drive::{Plan, Tally};
use report::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Spec, WORKLOADS};

/// A segment whose p99 send lag exceeds this measured the driver, not the
/// program: on a contended host a segment's p99 lag reached 29 ms.
const LAG_LIMIT_MS: f64 = 50.0;
/// Timed-phase segments; the traced run alternates them untraced and
/// traced, starting and ending untraced.
const SEGMENTS: usize = 3;
/// The driver plus the server's one worker.
const MAX_THREADS: u64 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Repetitions of every probe in the traced run.
const PROBE_REPS: usize = 7;
/// Latency samples a run needs, so that p99 (printed by the traced run)
/// has at least ten beyond it.
const MIN_SAMPLES: usize = 1000;

const USAGE: &str = "usage: dc-perfbench --workload <prefix-d8|sort-d6|mixed-open> --seed <n> --seconds <s> --trace <0|1>\n       dc-perfbench --smoke [--seed <n>] [--seconds <s>]";

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !parsed.smoke && (parsed.workload.is_none() || parsed.seconds <= 0.0) {
        return Err("--workload and a positive --seconds are required".into());
    }
    Ok(parsed)
}

struct Outcome {
    tally: Tally,
    metrics: Metrics,
}

impl Outcome {
    fn line(&self) -> String {
        let t = &self.tally;
        report::result_line(t.failed == 0, t.attempted, t.failed, &self.metrics)
    }
}

/// One run of `spec`. `Err` means the measurement itself is invalid.
fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(Instant::now());
    let mut tally = Tally::default();
    let set_up = drive::set_up(spec, seed, if smoke { 2 } else { SETUP_REPS }, &mut tally);
    let plan = Plan {
        warm_up: Duration::from_secs_f64(if smoke { 0.2 } else { 1.0 }),
        segment: Duration::from_secs_f64(seconds / SEGMENTS as f64),
        traced: (0..SEGMENTS).map(|i| traced && i % 2 == 1).collect(),
    };
    let measured = drive::measure(&set_up.server, spec, seed, &plan, &mut tracer, &mut tally);
    let service = set_up.server.shutdown();

    let threads = measured
        .segments
        .iter()
        .map(|s| s.max_threads)
        .max()
        .unwrap_or(0);
    if threads > MAX_THREADS {
        return Err(format!(
            "the process ran {threads} threads while measuring, not {MAX_THREADS}"
        ));
    }
    let lags = report::lag_p99_ms(&measured);
    let valid: Vec<bool> = lags.iter().map(|&l| l <= LAG_LIMIT_MS).collect();
    for (i, seg) in measured.segments.iter().enumerate() {
        eprintln!(
            "{} segment {i}: {:.2} s, {} verified, {:.1} CPU ms, {:.1}% stolen, lag p99 {:.2} ms, traced {}",
            spec.name,
            seg.secs(),
            seg.ok_seen,
            seg.cpu_s * 1e3,
            100.0 * seg.steal.0 as f64 / seg.steal.1.max(1) as f64,
            lags[i],
            seg.traced,
        );
    }
    let usable = |t: bool| (0..SEGMENTS).any(|i| valid[i] && plan.traced[i] == t);
    if 2 * valid.iter().filter(|v| !**v).count() > SEGMENTS
        || !usable(false)
        || (traced && !usable(true))
    {
        return Err(format!(
            "send lag p99 above {LAG_LIMIT_MS} ms in too many segments ({valid:?})"
        ));
    }

    let mut metrics = Metrics::default();
    if traced {
        report::serve_layers(
            &measured,
            &valid,
            &tracer,
            &service,
            set_up.cold_misses,
            &mut metrics,
        );
        probe::run(
            seed,
            if smoke { 2 } else { PROBE_REPS },
            &mut tracer,
            &mut tally,
            &mut metrics,
        );
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/traces"))
            .join(format!("{}-seed{seed}.jsonl", spec.name));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("{} spans written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    } else {
        let samples = report::end_to_end(&measured, &valid, &set_up.secs, &mut metrics);
        eprintln!("{}: {samples} latency samples", spec.name);
        if !smoke && samples < MIN_SAMPLES {
            return Err(format!(
                "{samples} latency samples; p99 needs {MIN_SAMPLES}"
            ));
        }
    }
    for e in &tally.errors {
        eprintln!("failed: {e}");
    }
    Ok(Outcome { tally, metrics })
}

/// Every workload, untraced then traced, briefly.
fn smoke(seed: u64, seconds: f64) -> Result<(), String> {
    for spec in &WORKLOADS {
        for traced in [false, true] {
            let outcome = run(spec, seed, seconds, traced, true)?;
            println!("# {} --trace {}", spec.name, u8::from(traced));
            println!("{}", outcome.line());
            let what = format!("{} trace {}", spec.name, u8::from(traced));
            report::all_finite(&outcome.metrics).map_err(|e| format!("{what}: {e}"))?;
            if outcome.tally.failed > 0 {
                return Err(format!("{what}: {} requests failed", outcome.tally.failed));
            }
            if !traced && report::ok_frac(&outcome.metrics) != Some(1.0) {
                return Err(format!("{what}: ok_frac is not 1"));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        let seconds = if args.seconds > 0.0 {
            args.seconds
        } else {
            1.0
        };
        return match smoke(args.seed, seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let spec = args.workload.expect("checked by parse");
    match run(spec, args.seed, args.seconds, args.trace, false) {
        Ok(outcome) => {
            println!("{}", outcome.line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("invalid run: {e}");
            ExitCode::from(3)
        }
    }
}
