//! The perf gate: diff a fresh `BENCH_<topic>.json` against the
//! committed baseline with per-metric, noise-tolerant thresholds, and
//! hold the fresh snapshot to its bench's [`Contract`].
//!
//! The committed snapshots follow the §E24 seven-run-median protocol,
//! which tames scheduler noise but not hardware differences — so one
//! tolerance cannot fit every field. Each numeric leaf is classified by
//! its key:
//!
//! * **counters** (`served`, `rejected`, `schedule_misses`, …) are
//!   deterministic for a given protocol: compared **exactly**, but only
//!   when both files ran the same protocol (the `protocol` strings
//!   match); otherwise they are reported and skipped.
//! * **wall-clock** metrics (`rps`, `*_us`, `*_ns`, `*_kb`) move with
//!   the host: compared within the wide [`WALL_BAND`] (±50 %),
//!   directionally — throughput may not drop below, latency may not
//!   rise above.
//! * **ratio** metrics (`batched_vs_single_rps`, `scale_ratio`,
//!   `per_instance_vs_*`) divide out the host and are the real
//!   regression signal: compared within the tighter [`RATIO_BAND`]
//!   (±35 %), also directionally.
//! * **shape-dependent** tallies (`batches`, `schedule_hits`,
//!   `mean_lanes`, `target_rps`) vary with thread timing even under a
//!   fixed protocol: reported, never gating.
//!
//! Legs are matched by identity (`leg` name, `topology`, or `lanes`
//! count), not position, so reordering a baseline is not a regression.
//!
//! The bands compare two runs; a [`Contract`] holds the fresh run to
//! fixed bounds whatever its baseline says (EXPERIMENTS.md §E26–§E29).
//! Each bench's contract is written once, in [`CONTRACTS`], so
//! re-recording a baseline cannot drop it, and a run with no committed
//! baseline (the threaded scale sweep) is held to its own.

use crate::json::Value;
use std::fmt;

/// How one metric key is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Deterministic under a fixed protocol — exact match required
    /// (when protocols match).
    Counter,
    /// Wall-clock, higher is better (throughput).
    HigherWall,
    /// Wall-clock, lower is better (latency, footprint).
    LowerWall,
    /// Host-independent ratio, higher is better.
    HigherRatio,
    /// Host-independent ratio, lower is better.
    LowerRatio,
    /// Reported but never gating.
    Info,
}

/// Classifies a metric key. Unknown numeric keys default to [`Kind::Info`]
/// — a new field never breaks the gate until it is classified here.
pub fn kind_of(key: &str) -> Kind {
    match key {
        "served" | "rejected" | "rejected_total" | "schedule_misses" | "count" | "queue_full"
        | "bad_shape" | "wrong_length" | "shutting_down" | "nodes" | "workers" | "shards"
        | "clients" | "max_lanes" | "lanes" => Kind::Counter,
        "rps" => Kind::HigherWall,
        "batched_vs_single_rps" => Kind::HigherRatio,
        "scale_ratio" | "per_instance_vs_single" | "per_instance_vs_e24_probe" => Kind::LowerRatio,
        "batches" | "schedule_hits" | "mean_lanes" | "target_rps" | "uptime_ms" | "queue_depth"
        | "in_flight_requests" | "in_flight_batches" => Kind::Info,
        _ if key.ends_with("_us") || key.ends_with("_ns") || key.ends_with("_kb") => {
            Kind::LowerWall
        }
        _ => Kind::Info,
    }
}

/// Verdict on one compared leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within threshold (or exact, for counters).
    Ok,
    /// Regressed beyond its threshold — the gate fails.
    Fail,
    /// Reported only (info metric, counter under a changed protocol,
    /// zero baseline, or a leg present in just one file).
    Skip,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Dotted path to the leaf, legs keyed by identity
    /// (e.g. `legs[batched].rps`).
    pub path: String,
    /// Baseline value.
    pub base: f64,
    /// Fresh value.
    pub fresh: f64,
    /// How it was judged.
    pub kind: Kind,
    /// The verdict.
    pub status: Status,
    /// Human-readable detail (threshold applied, or why skipped).
    pub note: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.status {
            Status::Ok => "ok  ",
            Status::Fail => "FAIL",
            Status::Skip => "skip",
        };
        write!(
            f,
            "{tag}  {:<44} {:>12.3} -> {:>12.3}  {}",
            self.path, self.base, self.fresh, self.note
        )
    }
}

/// Relative band for wall-clock metrics: ±50 %, the container noise
/// EXPERIMENTS.md §E24 documents.
pub const WALL_BAND: f64 = 0.50;

/// Relative band for host-independent ratios: ±35 %.
pub const RATIO_BAND: f64 = 0.35;

/// The whole diff of one baseline/fresh pair.
#[derive(Debug)]
pub struct Comparison {
    /// Every compared (or skipped) leaf, in walk order.
    pub findings: Vec<Finding>,
    /// Whether counters were compared exactly (same `protocol` string
    /// in both files) or downgraded to skips.
    pub counters_exact: bool,
}

impl Comparison {
    /// Findings that failed their threshold.
    pub fn failures(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.status == Status::Fail)
    }

    /// True when nothing regressed.
    pub fn passed(&self) -> bool {
        self.failures().next().is_none()
    }
}

/// Diffs `fresh` against `base` within [`WALL_BAND`] and [`RATIO_BAND`].
pub fn compare(base: &Value, fresh: &Value) -> Comparison {
    let protocol = |v: &Value| v.get("protocol").and_then(|p| p.as_str()).map(String::from);
    let counters_exact = protocol(base).is_some() && protocol(base) == protocol(fresh);
    let mut findings = Vec::new();
    walk(base, fresh, "", counters_exact, &mut findings);
    Comparison {
        findings,
        counters_exact,
    }
}

fn walk(base: &Value, fresh: &Value, path: &str, counters_exact: bool, out: &mut Vec<Finding>) {
    match (base, fresh) {
        (Value::Obj(b), Value::Obj(_)) => {
            for (key, bval) in b {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                match fresh.get(key) {
                    Some(fval) => walk(bval, fval, &sub, counters_exact, out),
                    None => {
                        if bval.as_f64().is_some() {
                            out.push(Finding {
                                path: sub,
                                base: bval.as_f64().unwrap_or(f64::NAN),
                                fresh: f64::NAN,
                                kind: kind_of(key),
                                status: Status::Skip,
                                note: "missing from fresh snapshot".into(),
                            });
                        }
                    }
                }
            }
        }
        (Value::Arr(b), Value::Arr(f)) => {
            // Legs are matched by identity, not position.
            let fresh = labelled(f);
            for (label, bleg) in labelled(b) {
                let sub = format!("{path}[{label}]");
                match fresh.iter().find(|(id, _)| *id == label) {
                    Some((_, fleg)) => walk(bleg, fleg, &sub, counters_exact, out),
                    None => out.push(Finding {
                        path: sub,
                        base: f64::NAN,
                        fresh: f64::NAN,
                        kind: Kind::Info,
                        status: Status::Skip,
                        note: "leg missing from fresh snapshot".into(),
                    }),
                }
            }
        }
        (Value::Num(b), Value::Num(f)) => {
            let key = path.rsplit('.').next().unwrap_or(path);
            out.push(judge(path, key, *b, *f, counters_exact));
        }
        // Strings/bools/nulls and type mismatches are identity context
        // (bench tag, protocol line), not metrics — nothing to gate.
        _ => {}
    }
}

fn judge(path: &str, key: &str, base: f64, fresh: f64, exact: bool) -> Finding {
    let kind = kind_of(key);
    let finding = |status, note| Finding {
        path: path.to_string(),
        base,
        fresh,
        kind,
        status,
        note,
    };
    let delta_pct = if base != 0.0 {
        (fresh - base) / base.abs() * 100.0
    } else {
        0.0
    };
    match kind {
        Kind::Info => finding(Status::Skip, format!("info ({delta_pct:+.1}%)")),
        Kind::Counter => {
            if !exact {
                finding(Status::Skip, "counter; protocols differ".into())
            } else if base == fresh {
                finding(Status::Ok, "exact".into())
            } else {
                finding(
                    Status::Fail,
                    "counter changed under an identical protocol".into(),
                )
            }
        }
        Kind::HigherWall | Kind::LowerWall | Kind::HigherRatio | Kind::LowerRatio => {
            if base == 0.0 {
                return finding(Status::Skip, "zero baseline".into());
            }
            let (band, class) = match kind {
                Kind::HigherWall | Kind::LowerWall => (WALL_BAND, "wall"),
                _ => (RATIO_BAND, "ratio"),
            };
            let higher_better = matches!(kind, Kind::HigherWall | Kind::HigherRatio);
            let regressed = if higher_better {
                fresh < base * (1.0 - band)
            } else {
                fresh > base * (1.0 + band)
            };
            let note = format!("{delta_pct:+.1}% ({class} ±{:.0}%)", band * 100.0);
            if regressed {
                finding(Status::Fail, note)
            } else {
                finding(Status::Ok, note)
            }
        }
    }
}

/// Legs under their identity labels: the `leg`, `topology` or `lanes`
/// member that the first leg has (a number written as `16`), else the
/// position.
fn labelled(legs: &[Value]) -> Vec<(String, &Value)> {
    let key = ["leg", "topology", "lanes"]
        .into_iter()
        .find(|k| legs.first().is_some_and(|leg| leg.get(k).is_some()));
    let label = |i: usize, leg: &Value| match key.and_then(|k| leg.get(k)) {
        Some(Value::Str(id)) => id.clone(),
        Some(id) => id.as_f64().unwrap_or(f64::NAN).to_string(),
        None => i.to_string(),
    };
    legs.iter()
        .enumerate()
        .map(|(i, leg)| (label(i, leg), leg))
        .collect()
}

/// A snapshot's legs, [`labelled`].
fn legs_of(doc: &Value) -> Vec<(String, &Value)> {
    labelled(doc.get("legs").and_then(Value::as_arr).unwrap_or(&[]))
}

/// The values at a [`Rule`]'s path, each under its own path; `None`
/// where the leg or member is missing.
fn lookup<'a>(doc: &'a Value, path: &str) -> Vec<(String, Option<&'a Value>)> {
    let Some((id, key)) = path.strip_prefix("legs[").and_then(|p| p.split_once("].")) else {
        return vec![(path.to_string(), doc.get(path))];
    };
    let legs = legs_of(doc);
    let read = |(label, leg): &(String, &'a Value)| (format!("legs[{label}].{key}"), leg.get(key));
    match id {
        "*" => legs.iter().map(read).collect(),
        _ => match legs.iter().find(|(label, _)| label == id) {
            Some(leg) => vec![read(leg)],
            None => vec![(path.to_string(), None)],
        },
    }
}

/// `path = value` for each value read.
fn show(read: &[(String, Option<&Value>)]) -> String {
    let one = |(path, value): &(String, Option<&Value>)| match value {
        Some(Value::Num(x)) => format!("{path} = {x}"),
        Some(Value::Str(s)) => format!("{path} = {s:?}"),
        Some(other) => format!("{path} = {other:?}"),
        None => format!("{path} missing"),
    };
    read.iter().map(one).collect::<Vec<_>>().join(", ")
}

/// One assertion of a [`Contract`], on the fresh snapshot alone. A path
/// names a top-level member (`scale_ratio`), one leg's
/// (`legs[D_8].per_msg_ns`) or every leg's (`legs[*].rejected`); a
/// missing leg or member breaks the rule.
#[derive(Clone, Copy)]
pub enum Rule {
    /// The legs are exactly these (`true`), or include them.
    Legs(&'static [&'static str], bool),
    /// Every number at the path compares (`<=`, `>=` or `==`) with the bound.
    Cmp(&'static str, &'static str, f64),
    /// The number at the path lies strictly between the bounds.
    Between(&'static str, f64, f64),
    /// In every leg, these members never decrease.
    Ascending(&'static [&'static str]),
    /// The numbers at the two paths are equal.
    Same(&'static str, &'static str),
    /// The string at the path starts with the prefix.
    StartsWith(&'static str, &'static str),
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Rule::Legs(ids, exact) => {
                let verb = if exact { "are" } else { "include" };
                write!(f, "legs {verb} {{{}}}", ids.join(", "))
            }
            Rule::Cmp(path, op, bound) => write!(f, "{path} {op} {bound}"),
            Rule::Between(path, lo, hi) => write!(f, "{lo} < {path} < {hi}"),
            Rule::Ascending(keys) => write!(f, "legs[*]: {}", keys.join(" <= ")),
            Rule::Same(a, b) => write!(f, "{a} == {b}"),
            Rule::StartsWith(path, prefix) => write!(f, "{path} starts with {prefix:?}"),
        }
    }
}

impl Rule {
    /// Whether `doc` meets the rule, and what the rule read.
    pub fn check(&self, doc: &Value) -> (bool, String) {
        // Every value at `path` passes `ok`.
        let each = |path, ok: &dyn Fn(&Value) -> bool| {
            let read = lookup(doc, path);
            (read.iter().all(|(_, v)| v.is_some_and(ok)), show(&read))
        };
        let num = |v: &Value, ok: &dyn Fn(f64) -> bool| v.as_f64().is_some_and(ok);
        match *self {
            Rule::Legs(ids, exact) => {
                let have: Vec<String> = legs_of(doc).into_iter().map(|(id, _)| id).collect();
                let present = ids.iter().all(|id| have.iter().any(|h| h == id));
                let extra = have.iter().any(|h| !ids.contains(&h.as_str()));
                (
                    present && !(exact && extra),
                    format!("legs {{{}}}", have.join(", ")),
                )
            }
            Rule::Cmp(path, op, b) => each(path, &|v| match op {
                "<=" => num(v, &|x| x <= b),
                ">=" => num(v, &|x| x >= b),
                "==" => num(v, &|x| x == b),
                _ => panic!("{self}: no such comparison"),
            }),
            Rule::Between(path, lo, hi) => each(path, &|v| num(v, &|x| lo < x && x < hi)),
            Rule::Ascending(keys) => {
                let columns: Vec<_> = keys
                    .iter()
                    .map(|k| lookup(doc, &format!("legs[*].{k}")))
                    .collect();
                let x = |r: &(String, Option<&Value>)| r.1.and_then(Value::as_f64);
                let le = |(a, b)| matches!((x(a), x(b)), (Some(a), Some(b)) if a <= b);
                let holds = columns.windows(2).all(|w| w[0].iter().zip(&w[1]).all(le));
                let by_leg =
                    (0..columns[0].len()).flat_map(|i| columns.iter().map(move |c| c[i].clone()));
                (holds, show(&by_leg.collect::<Vec<_>>()))
            }
            Rule::Same(a, b) => {
                let read = [lookup(doc, a), lookup(doc, b)].concat();
                let same = read[0].1.and_then(Value::as_f64).is_some() && read[0].1 == read[1].1;
                (same, show(&read))
            }
            Rule::StartsWith(path, prefix) => {
                each(path, &|v| v.as_str().is_some_and(|s| s.starts_with(prefix)))
            }
        }
    }
}

/// The fixed bounds a bench's fresh snapshots must meet, whatever their
/// baseline says.
pub struct Contract {
    /// The snapshots' `bench` tag.
    pub bench: &'static str,
    /// Whether its runs have a committed baseline too. The threaded scale
    /// sweep has none, and a contract of its own.
    pub baseline: bool,
    /// The assertions.
    pub rules: &'static [Rule],
}

/// Every bench's contract: all the perf assertions CI makes.
pub const CONTRACTS: &[Contract] = &[
    // EXPERIMENTS.md §E26: at K = 16 a lane instance costs at most half a
    // single-lane cycle.
    Contract {
        bench: "backend/lane_rows",
        baseline: true,
        rules: &[
            Rule::Legs(&["1", "4", "16", "64"], true),
            Rule::Cmp("legs[16].per_instance_vs_single", "<=", 0.5),
        ],
    },
    // §E29: packing K = 16 same-shape requests into one machine run at
    // least doubles one-at-a-time throughput on D_8, nothing is shed, and
    // warm banks compile each pattern once.
    Contract {
        bench: "serve/throughput",
        baseline: true,
        rules: &[
            Rule::Legs(&["single", "batched", "open"], false),
            Rule::Cmp("batched_vs_single_rps", ">=", 2.0),
            Rule::Cmp("legs[*].rejected", "==", 0.0),
            Rule::Ascending(&["p50_us", "p95_us", "p99_us"]),
            Rule::Same(
                "legs[batched].schedule_misses",
                "legs[single].schedule_misses",
            ),
        ],
    },
    // §E27: the whole recorded D_8 path costs less per message than the
    // old hash-map accounting alone (§E25, ~28 ns), and the D_9 sweep's
    // peak RSS stays under 1 GiB.
    Contract {
        bench: "backend/scale",
        baseline: true,
        rules: &[
            Rule::Legs(&["D_8", "D_9"], false),
            Rule::Cmp("legs[D_8].per_msg_ns", "<=", 28.0),
            Rule::Between("legs[D_9].vm_hwm_kb", 0.0, 1_048_576.0),
        ],
    },
    // §E28, the threaded sweep: on the sharded engine the per-message cost
    // stays roughly flat from D_8 to D_10, not §E27's unsharded 1.51x.
    Contract {
        bench: "backend/scale",
        baseline: false,
        rules: &[
            Rule::StartsWith("backend", "threaded"),
            Rule::Cmp("scale_ratio", "<=", 1.15),
            Rule::Cmp("legs[D_10].shards", ">=", 4.0),
        ],
    },
];

/// The contract for snapshots tagged `bench`, run with or without a
/// committed baseline.
pub fn contract(bench: &str, baseline: bool) -> Option<&'static Contract> {
    let mut contracts = CONTRACTS.iter();
    contracts.find(|c| c.bench == bench && c.baseline == baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const PROTO: &str = "median of 7 x 64";

    fn snap(rps: f64, p99: f64, served: u64, ratio: f64, proto: &str) -> Value {
        parse(&format!(
            r#"{{"bench":"serve/throughput","protocol":"{proto}",
                "batched_vs_single_rps":{ratio},
                "legs":[{{"leg":"batched","rps":{rps},"p99_us":{p99},"served":{served},
                          "batches":4,"mean_lanes":16.0}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = snap(230.0, 139_000.0, 64, 6.1, PROTO);
        let cmp = compare(&base, &base);
        assert!(cmp.passed(), "{:#?}", cmp.findings);
        assert!(cmp.counters_exact);
        // Info metrics are reported but skipped.
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.path.ends_with("mean_lanes") && f.status == Status::Skip));
    }

    #[test]
    fn wall_noise_within_band_passes_beyond_fails() {
        let base = snap(230.0, 139_000.0, 64, 6.1, PROTO);
        // −30 % throughput, +30 % latency: inside the ±50 % wall band.
        let noisy = snap(161.0, 180_700.0, 64, 6.1, PROTO);
        assert!(compare(&base, &noisy).passed());
        // −60 % throughput: outside it.
        let slow = snap(92.0, 139_000.0, 64, 6.1, PROTO);
        let cmp = compare(&base, &slow);
        let fails: Vec<_> = cmp.failures().map(|f| f.path.clone()).collect();
        assert_eq!(fails, vec!["legs[batched].rps"]);
    }

    #[test]
    fn wall_direction_matters() {
        let base = snap(230.0, 139_000.0, 64, 6.1, PROTO);
        // Faster and lower-latency than baseline: an improvement, not a
        // regression — passes however large the delta.
        let better = snap(900.0, 10_000.0, 64, 6.1, PROTO);
        assert!(compare(&base, &better).passed());
        // +60 % latency regresses even with throughput intact.
        let laggy = snap(230.0, 225_000.0, 64, 6.1, PROTO);
        assert!(!compare(&base, &laggy).passed());
    }

    #[test]
    fn ratios_use_the_tight_band() {
        let base = snap(230.0, 139_000.0, 64, 6.1, PROTO);
        // Ratio −40 %: within wall noise but outside the ±35 % ratio band.
        let flat = snap(230.0, 139_000.0, 64, 3.6, PROTO);
        let cmp = compare(&base, &flat);
        let fails: Vec<_> = cmp.failures().map(|f| f.path.clone()).collect();
        assert_eq!(fails, vec!["batched_vs_single_rps"]);
    }

    #[test]
    fn counters_are_exact_only_under_the_same_protocol() {
        let base = snap(230.0, 139_000.0, 64, 6.1, PROTO);
        let drifted = snap(230.0, 139_000.0, 63, 6.1, PROTO);
        let cmp = compare(&base, &drifted);
        assert!(cmp.failures().any(|f| f.path.ends_with("served")));
        // A different protocol (smoke run) downgrades counters to skips.
        let smoke = snap(230.0, 139_000.0, 32, 6.1, "median of 3 x 32");
        let cmp = compare(&base, &smoke);
        assert!(!cmp.counters_exact);
        assert!(cmp.passed(), "{:#?}", cmp.findings);
    }

    #[test]
    fn legs_match_by_identity_not_position() {
        let base =
            parse(r#"{"protocol":"p","legs":[{"leg":"a","rps":100.0},{"leg":"b","rps":200.0}]}"#)
                .unwrap();
        let reordered =
            parse(r#"{"protocol":"p","legs":[{"leg":"b","rps":200.0},{"leg":"a","rps":100.0}]}"#)
                .unwrap();
        assert!(compare(&base, &reordered).passed());
        let missing = parse(r#"{"protocol":"p","legs":[{"leg":"a","rps":100.0}]}"#).unwrap();
        let cmp = compare(&base, &missing);
        assert!(cmp.passed(), "missing leg is a skip, not a failure");
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.path == "legs[b]" && f.status == Status::Skip));
    }

    #[test]
    fn real_baselines_self_compare_clean() {
        for name in ["BENCH_serve.json", "BENCH_scale.json", "BENCH_lanes.json"] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string() + "/" + name;
            let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let cmp = compare(&doc, &doc);
            assert!(cmp.passed(), "{name}: {:#?}", cmp.findings);
            assert!(cmp.counters_exact, "{name} carries a protocol line");
            assert!(
                cmp.findings
                    .iter()
                    .filter(|f| f.status == Status::Ok)
                    .count()
                    >= 6,
                "{name}: the gate actually compared something"
            );
            // Every committed baseline meets the contract of its bench.
            let bench = doc.get("bench").and_then(Value::as_str).unwrap();
            for rule in contract(bench, true).unwrap().rules {
                assert!(
                    rule.check(&doc).0,
                    "{name}: {rule} ({})",
                    rule.check(&doc).1
                );
            }
        }
    }

    // Conforming snapshots, one per contract, cut down to what the
    // contracts read.
    const LANES: &str = r#"{"bench":"backend/lane_rows","legs":[
        {"lanes":1,"per_instance_vs_single":1.0},{"lanes":4,"per_instance_vs_single":0.31},
        {"lanes":16,"per_instance_vs_single":0.16},{"lanes":64,"per_instance_vs_single":0.15}]}"#;
    const SERVE: &str = r#"{"bench":"serve/throughput","batched_vs_single_rps":5.6,"legs":[
        {"leg":"single","rejected":0,"p50_us":25.0,"p95_us":30.0,"p99_us":33.0,"schedule_misses":9},
        {"leg":"batched","rejected":0,"p50_us":134.0,"p95_us":155.0,"p99_us":155.0,"schedule_misses":9},
        {"leg":"open","rejected":0,"p50_us":60.0,"p95_us":83.0,"p99_us":88.0,"schedule_misses":9}]}"#;
    const SCALE: &str = r#"{"bench":"backend/scale","backend":"sequential","legs":[
        {"topology":"D_8","per_msg_ns":4.79,"vm_hwm_kb":7156},
        {"topology":"D_9","per_msg_ns":5.16,"vm_hwm_kb":23796}]}"#;
    const SHARDED: &str = r#"{"bench":"backend/scale","backend":"threaded(2)","scale_ratio":0.74,
        "legs":[{"topology":"D_8","shards":4},{"topology":"D_10","shards":16}]}"#;

    /// The rules of the contract for `doc` (run with or without a
    /// baseline) that `doc` with its first `from` replaced by `to`
    /// breaks; `doc` itself must break none.
    fn broken_by(doc: &str, baseline: bool, from: &str, to: &str) -> Vec<String> {
        let breaks = |doc: &str| {
            let doc = parse(doc).unwrap();
            let bench = doc.get("bench").and_then(Value::as_str).unwrap();
            let rules = contract(bench, baseline).unwrap().rules.iter();
            rules
                .filter(|rule| !rule.check(&doc).0)
                .map(Rule::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(breaks(doc), Vec::<String>::new());
        assert!(doc.contains(from), "{from} is not in the snapshot");
        breaks(&doc.replacen(from, to, 1))
    }

    #[test]
    fn lanes_contract_wants_exactly_the_four_lane_counts() {
        let broken = broken_by(LANES, true, r#""lanes":64"#, r#""lanes":32"#);
        assert_eq!(broken, ["legs are {1, 4, 16, 64}"]);
    }

    #[test]
    fn lanes_contract_caps_the_k16_per_instance_ratio() {
        let broken = broken_by(LANES, true, "0.16", "0.51");
        assert_eq!(broken, ["legs[16].per_instance_vs_single <= 0.5"]);
    }

    #[test]
    fn serve_contract_wants_the_three_legs() {
        let broken = broken_by(SERVE, true, r#""leg":"open""#, r#""leg":"opened""#);
        assert_eq!(broken, ["legs include {single, batched, open}"]);
    }

    #[test]
    fn serve_contract_wants_batching_to_double_throughput() {
        let broken = broken_by(SERVE, true, "5.6", "1.99");
        assert_eq!(broken, ["batched_vs_single_rps >= 2"]);
    }

    #[test]
    fn serve_contract_sheds_nothing() {
        let broken = broken_by(SERVE, true, r#""rejected":0"#, r#""rejected":1"#);
        assert_eq!(broken, ["legs[*].rejected == 0"]);
    }

    #[test]
    fn serve_contract_orders_the_latency_quantiles() {
        let broken = broken_by(SERVE, true, "30.0", "40.0");
        assert_eq!(broken, ["legs[*]: p50_us <= p95_us <= p99_us"]);
    }

    #[test]
    fn serve_contract_compiles_each_pattern_once() {
        let broken = broken_by(
            SERVE,
            true,
            r#""schedule_misses":9"#,
            r#""schedule_misses":10"#,
        );
        assert_eq!(
            broken,
            ["legs[batched].schedule_misses == legs[single].schedule_misses"]
        );
    }

    #[test]
    fn scale_contract_wants_the_d8_and_d9_legs() {
        // The D_9 bound reads the missing leg, so it breaks too.
        let broken = broken_by(SCALE, true, r#""D_9""#, r#""D_10""#);
        assert_eq!(
            broken,
            [
                "legs include {D_8, D_9}",
                "0 < legs[D_9].vm_hwm_kb < 1048576"
            ]
        );
    }

    #[test]
    fn scale_contract_caps_the_recorded_d8_message_cost() {
        let broken = broken_by(SCALE, true, "4.79", "28.5");
        assert_eq!(broken, ["legs[D_8].per_msg_ns <= 28"]);
    }

    #[test]
    fn scale_contract_bounds_the_d9_peak_rss() {
        for bad in ["0", "1048576"] {
            let broken = broken_by(SCALE, true, "23796", bad);
            assert_eq!(broken, ["0 < legs[D_9].vm_hwm_kb < 1048576"]);
        }
    }

    #[test]
    fn sharded_contract_wants_the_threaded_backend() {
        let broken = broken_by(SHARDED, false, "threaded(2)", "sequential");
        assert_eq!(broken, [r#"backend starts with "threaded""#]);
    }

    #[test]
    fn sharded_contract_caps_the_scale_ratio() {
        let broken = broken_by(SHARDED, false, "0.74", "1.16");
        assert_eq!(broken, ["scale_ratio <= 1.15"]);
    }

    #[test]
    fn sharded_contract_wants_four_shards_at_d10() {
        let broken = broken_by(SHARDED, false, r#""shards":16"#, r#""shards":1"#);
        assert_eq!(broken, ["legs[D_10].shards >= 4"]);
    }

    #[test]
    fn a_run_without_a_baseline_is_held_to_its_own_contract() {
        // The sequential smoke is not the threaded sweep.
        let scale = parse(SCALE).unwrap();
        let threaded = contract("backend/scale", false).unwrap().rules[0];
        assert!(!threaded.check(&scale).0, "{}", threaded.check(&scale).1);
        assert!(contract("serve/throughput", false).is_none());
        assert!(contract("backend/lane_overhead", true).is_none());
    }
}
