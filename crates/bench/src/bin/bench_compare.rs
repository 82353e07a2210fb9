//! The perf gate: diff a fresh `BENCH_<topic>.json` against the
//! committed baseline, then hold it to its bench's contract.
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json>
//! bench_compare <fresh.json>
//! ```
//!
//! The rules live in `dc_bench::compare`: counters exact under an
//! identical protocol, wall-clock metrics within a fixed ±50 % band and
//! host-independent ratios within a fixed ±35 % band, all directional so
//! improvements never fail; then every rule of the bench's contract
//! (`compare::CONTRACTS`). With one file there is no baseline to diff,
//! and the contract of a run without one applies (the threaded scale
//! sweep, EXPERIMENTS.md §E28). Exit status 0 on pass, 1 on a regression
//! or a broken rule, 2 on usage or parse errors.

use dc_bench::compare::{compare, contract, Status};
use dc_bench::json::{parse, Value};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let help = args.iter().any(|a| a == "--help" || a == "-h");
    if help || !(1..=2).contains(&args.len()) || args.iter().any(|a| a.starts_with('-')) {
        println!("usage: bench_compare [<baseline.json>] <fresh.json>");
        return if help {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }
    let baseline = (args.len() == 2).then(|| args[0].as_str());
    match gate(baseline, &args[args.len() - 1]) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Prints every finding and rule; `Ok(passed)`, or `Err` on a file that
/// cannot be read, benches that differ, or a bench with no contract.
fn gate(baseline_path: Option<&str>, fresh_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let fresh = load(fresh_path)?;
    let bench = fresh.get("bench").and_then(Value::as_str).unwrap_or("");
    let with = if baseline_path.is_some() {
        "with"
    } else {
        "without"
    };
    let contract = contract(bench, baseline_path.is_some()).ok_or_else(|| {
        format!("{fresh_path}: no contract for bench {bench:?} {with} a baseline")
    })?;
    let mut failed = 0;
    if let Some(baseline_path) = baseline_path {
        let baseline = load(baseline_path)?;
        if baseline.get("bench") != fresh.get("bench") {
            let tags = (baseline.get("bench"), fresh.get("bench"));
            return Err(format!("refusing to compare different benches: {tags:?}"));
        }
        let result = compare(&baseline, &fresh);
        result.findings.iter().for_each(|f| println!("{f}"));
        let count = |s| result.findings.iter().filter(|f| f.status == s).count();
        let skipped = if result.counters_exact {
            ""
        } else {
            " (protocols differ: counters not gated)"
        };
        println!(
            "bench_compare {baseline_path} vs {fresh_path}: {} ok, {} failed, {} skipped{skipped}",
            count(Status::Ok),
            count(Status::Fail),
            count(Status::Skip)
        );
        failed += count(Status::Fail);
    }
    for rule in contract.rules {
        let (holds, read) = rule.check(&fresh);
        let tag = if holds { "ok  " } else { "FAIL" };
        println!("{tag}  contract {:<56} {read}", rule.to_string());
        failed += usize::from(!holds);
    }
    if failed == 0 {
        println!("PASS: within the noise bands, and the contract holds");
    } else {
        println!("FAIL: {failed} regression(s) beyond the bands or broken contract rule(s)");
    }
    Ok(failed == 0)
}
