//! Hand-rolled argument parsing (the approved dependency set has no CLI
//! crate; the grammar is small enough that a typed parser with tests is
//! simpler than pulling one in).

use std::fmt;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `info <n>` — topology properties of `D_n` and its comparators.
    Info { n: u32 },
    /// `route <n> <src> <dst>` — shortest path in `D_n`.
    Route { n: u32, src: usize, dst: usize },
    /// `prefix <n> [--k K] [--lanes L] [--op sum|max|concat] [--seed S]
    /// [--metrics-json]`.
    Prefix {
        n: u32,
        k: usize,
        lanes: usize,
        op: OpKind,
        seed: u64,
        metrics_json: bool,
    },
    /// `sort <n> [--algo bitonic|radix|ring|hypercube] [--lanes L]
    /// [--seed S] [--metrics-json]`.
    Sort {
        n: u32,
        algo: SortAlgo,
        lanes: usize,
        seed: u64,
        metrics_json: bool,
    },
    /// `broadcast <n> <root> [--metrics-json]`.
    Broadcast {
        n: u32,
        root: usize,
        metrics_json: bool,
    },
    /// `trace <prefix|sort> [--n N] [--out FILE] [--format perfetto|jsonl]`
    /// — record a run's cycle events and export them.
    Trace {
        which: DiagramKind,
        n: u32,
        out: Option<String>,
        format: TraceFormat,
    },
    /// `serve <n> [--requests R] [--workers W] [--lanes L]
    /// [--op prefix|sort|allreduce] [--seed S] [--metrics-json]
    /// [--stats-every MS [--stats-out FILE] [--stats-format jsonl|prom]]`
    /// — push a seeded workload through the dc-serve frontend and report
    /// throughput and latency, optionally streaming live telemetry
    /// snapshots while the run is in flight.
    Serve {
        n: u32,
        op: ServeOp,
        requests: u64,
        workers: usize,
        lanes: usize,
        seed: u64,
        metrics_json: bool,
        /// Sampling period in milliseconds; `None` leaves the sampler off.
        stats_every: Option<u64>,
        /// Snapshot sink; `None` streams to stdout.
        stats_out: Option<String>,
        stats_format: StatsFormat,
    },
    /// `experiments [id…]` — print experiment reports (all by default).
    Experiments { ids: Vec<String> },
    /// `diagram <n> <prefix|sort>` — space-time diagram of a schedule.
    Diagram { n: u32, which: DiagramKind },
    /// `hamiltonian <n>` — the dilation-1 ring embedding.
    Hamiltonian { n: u32 },
    /// `dot <n>` — Graphviz source for `D_n` (classes coloured).
    Dot { n: u32 },
    /// `help`.
    Help,
}

/// Which schedule to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagramKind {
    /// `D_prefix` (Algorithm 2).
    Prefix,
    /// `D_sort` (Algorithm 3).
    Sort,
}

/// Export format for the `trace` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome/Perfetto trace-event JSON (open in ui.perfetto.dev).
    Perfetto,
    /// One JSON object per event, one per line.
    Jsonl,
}

/// Prefix operator choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Integer addition.
    Sum,
    /// Integer maximum.
    Max,
    /// String concatenation (non-commutative demo).
    Concat,
}

/// Live-stats export format for the `serve` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// One JSON snapshot per line — a replayable time series.
    Jsonl,
    /// Prometheus text exposition (node-exporter textfile convention).
    Prom,
}

/// Operations the `serve` subcommand can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Inclusive prefix sums (Algorithm 2).
    Prefix,
    /// Ascending key sort (Algorithm 3).
    Sort,
    /// Global-sum all-reduce.
    Allreduce,
}

/// Sorting algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortAlgo {
    /// Algorithm 3 (`D_sort`).
    Bitonic,
    /// Scan-based radix sort.
    Radix,
    /// Odd-even transposition on the embedded ring.
    Ring,
    /// Bitonic sort on the equal-sized hypercube (baseline).
    Hypercube,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn req<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, ParseError> {
    args.get(i)
        .ok_or_else(|| ParseError(format!("missing {what}")))?
        .parse()
        .map_err(|_| ParseError(format!("invalid {what}: {:?}", args[i])))
}

fn flag(args: &[String], name: &str) -> Result<Option<String>, ParseError> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it
                .next()
                .cloned()
                .map(Some)
                .ok_or_else(|| ParseError(format!("{name} requires a value")));
        }
    }
    Ok(None)
}

/// A value-less switch: present or absent.
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `--lanes L`: independent instances batched through one schedule
/// (default 1; zero is rejected here so commands can assume `lanes >= 1`).
fn parse_lanes(args: &[String]) -> Result<usize, ParseError> {
    let lanes = flag(args, "--lanes")?
        .map(|v| {
            v.parse()
                .map_err(|_| ParseError(format!("invalid --lanes: {v}")))
        })
        .transpose()?
        .unwrap_or(1usize);
    if lanes == 0 {
        return Err(ParseError("--lanes must be at least 1".into()));
    }
    Ok(lanes)
}

/// Rejects any argument of `args` (a subcommand and its arguments)
/// that the subcommand does not define: more than `positionals`
/// positional arguments, or a `--flag` that is neither a value-taking
/// flag in `flags` (whose value is skipped) nor a bare switch in
/// `switches`. The error names the offending argument.
fn expect_only(
    args: &[String],
    positionals: usize,
    flags: &[&str],
    switches: &[&str],
) -> Result<(), ParseError> {
    let cmd = &args[0];
    let mut seen = 0;
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        if a.starts_with("--") {
            if flags.contains(&a.as_str()) {
                rest.next();
            } else if !switches.contains(&a.as_str()) {
                return Err(ParseError(format!("unknown flag {a:?} for `{cmd}`")));
            }
        } else {
            seen += 1;
            if seen > positionals {
                return Err(ParseError(format!("unexpected argument {a:?} for `{cmd}`")));
            }
        }
    }
    Ok(())
}

/// Parses the argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            expect_only(args, 0, &[], &[])?;
            Ok(Command::Help)
        }
        "info" => {
            expect_only(args, 1, &[], &[])?;
            Ok(Command::Info {
                n: req(args, 1, "n")?,
            })
        }
        "route" => {
            expect_only(args, 3, &[], &[])?;
            Ok(Command::Route {
                n: req(args, 1, "n")?,
                src: req(args, 2, "src")?,
                dst: req(args, 3, "dst")?,
            })
        }
        "prefix" => {
            expect_only(
                args,
                1,
                &["--k", "--lanes", "--op", "--seed"],
                &["--metrics-json"],
            )?;
            let n = req(args, 1, "n")?;
            let k = flag(args, "--k")?
                .map(|v| {
                    v.parse()
                        .map_err(|_| ParseError(format!("invalid --k: {v}")))
                })
                .transpose()?
                .unwrap_or(1);
            let lanes = parse_lanes(args)?;
            let op = match flag(args, "--op")?.as_deref() {
                None | Some("sum") => OpKind::Sum,
                Some("max") => OpKind::Max,
                Some("concat") => OpKind::Concat,
                Some(other) => return Err(ParseError(format!("unknown --op: {other}"))),
            };
            let seed = flag(args, "--seed")?
                .map(|v| {
                    v.parse()
                        .map_err(|_| ParseError(format!("invalid --seed: {v}")))
                })
                .transpose()?
                .unwrap_or(2008);
            Ok(Command::Prefix {
                n,
                k,
                lanes,
                op,
                seed,
                metrics_json: switch(args, "--metrics-json"),
            })
        }
        "sort" => {
            expect_only(
                args,
                1,
                &["--algo", "--lanes", "--seed"],
                &["--metrics-json"],
            )?;
            let n = req(args, 1, "n")?;
            let algo = match flag(args, "--algo")?.as_deref() {
                None | Some("bitonic") => SortAlgo::Bitonic,
                Some("radix") => SortAlgo::Radix,
                Some("ring") => SortAlgo::Ring,
                Some("hypercube") => SortAlgo::Hypercube,
                Some(other) => return Err(ParseError(format!("unknown --algo: {other}"))),
            };
            let lanes = parse_lanes(args)?;
            let seed = flag(args, "--seed")?
                .map(|v| {
                    v.parse()
                        .map_err(|_| ParseError(format!("invalid --seed: {v}")))
                })
                .transpose()?
                .unwrap_or(2008);
            Ok(Command::Sort {
                n,
                algo,
                lanes,
                seed,
                metrics_json: switch(args, "--metrics-json"),
            })
        }
        "broadcast" => {
            expect_only(args, 2, &[], &["--metrics-json"])?;
            Ok(Command::Broadcast {
                n: req(args, 1, "n")?,
                root: req(args, 2, "root")?,
                metrics_json: switch(args, "--metrics-json"),
            })
        }
        "trace" => {
            expect_only(args, 1, &["--n", "--out", "--format"], &[])?;
            let which = match args.get(1).map(String::as_str) {
                Some("prefix") => DiagramKind::Prefix,
                Some("sort") => DiagramKind::Sort,
                Some(other) => return Err(ParseError(format!("unknown trace target {other:?}"))),
                None => return Err(ParseError("trace needs <prefix|sort>".into())),
            };
            let n = flag(args, "--n")?
                .map(|v| {
                    v.parse()
                        .map_err(|_| ParseError(format!("invalid --n: {v}")))
                })
                .transpose()?
                .unwrap_or(6);
            let format = match flag(args, "--format")?.as_deref() {
                None | Some("perfetto") => TraceFormat::Perfetto,
                Some("jsonl") => TraceFormat::Jsonl,
                Some(other) => return Err(ParseError(format!("unknown --format: {other}"))),
            };
            Ok(Command::Trace {
                which,
                n,
                out: flag(args, "--out")?,
                format,
            })
        }
        "serve" => {
            expect_only(
                args,
                1,
                &[
                    "--op",
                    "--requests",
                    "--workers",
                    "--lanes",
                    "--seed",
                    "--stats-every",
                    "--stats-out",
                    "--stats-format",
                ],
                &["--metrics-json"],
            )?;
            let n = req(args, 1, "n")?;
            let op = match flag(args, "--op")?.as_deref() {
                None | Some("prefix") => ServeOp::Prefix,
                Some("sort") => ServeOp::Sort,
                Some("allreduce") => ServeOp::Allreduce,
                Some(other) => return Err(ParseError(format!("unknown --op: {other}"))),
            };
            let numeric = |name: &str, default: u64| -> Result<u64, ParseError> {
                flag(args, name)?
                    .map(|v| {
                        v.parse()
                            .map_err(|_| ParseError(format!("invalid {name}: {v}")))
                    })
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            let requests = numeric("--requests", 32)?;
            let workers = numeric("--workers", 2)?.max(1) as usize;
            let lanes = parse_lanes(args)?;
            let seed = numeric("--seed", 2008)?;
            if requests == 0 {
                return Err(ParseError("--requests must be at least 1".into()));
            }
            let stats_every = flag(args, "--stats-every")?
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| ParseError(format!("invalid --stats-every: {v}")))
                })
                .transpose()?;
            if stats_every == Some(0) {
                return Err(ParseError("--stats-every must be at least 1 ms".into()));
            }
            let stats_out = flag(args, "--stats-out")?;
            let stats_format = match flag(args, "--stats-format")?.as_deref() {
                None | Some("jsonl") => StatsFormat::Jsonl,
                Some("prom") => StatsFormat::Prom,
                Some(other) => return Err(ParseError(format!("unknown --stats-format: {other}"))),
            };
            if stats_every.is_none()
                && (stats_out.is_some() || flag(args, "--stats-format")?.is_some())
            {
                return Err(ParseError(
                    "--stats-out/--stats-format need --stats-every <ms>".into(),
                ));
            }
            Ok(Command::Serve {
                n,
                op,
                requests,
                workers,
                lanes,
                seed,
                metrics_json: switch(args, "--metrics-json"),
                stats_every,
                stats_out,
                stats_format,
            })
        }
        "experiments" => {
            expect_only(args, usize::MAX, &[], &[])?;
            Ok(Command::Experiments {
                ids: args[1..].to_vec(),
            })
        }
        "diagram" => {
            expect_only(args, 2, &[], &[])?;
            let n = req(args, 1, "n")?;
            let which = match args.get(2).map(String::as_str) {
                Some("prefix") | None => DiagramKind::Prefix,
                Some("sort") => DiagramKind::Sort,
                Some(other) => return Err(ParseError(format!("unknown diagram {other:?}"))),
            };
            Ok(Command::Diagram { n, which })
        }
        "hamiltonian" => {
            expect_only(args, 1, &[], &[])?;
            Ok(Command::Hamiltonian {
                n: req(args, 1, "n")?,
            })
        }
        "dot" => {
            expect_only(args, 1, &[], &[])?;
            Ok(Command::Dot {
                n: req(args, 1, "n")?,
            })
        }
        other => Err(ParseError(format!(
            "unknown command {other:?}; try `dual-cube help`"
        ))),
    }
}

/// The help text.
pub const HELP: &str = "\
dual-cube — Prefix Computation and Sorting in Dual-Cube (ICPP 2008), reproduced

USAGE:
  dual-cube info <n>                          topology properties of D_n
  dual-cube route <n> <src> <dst>             shortest path in D_n
  dual-cube prefix <n> [--k K] [--lanes L] [--op sum|max|concat] [--seed S] [--metrics-json]
                                              run D_prefix (K values/node;
                                              L instances share one schedule)
  dual-cube sort <n> [--algo bitonic|radix|ring|hypercube] [--lanes L] [--seed S] [--metrics-json]
                                              run a network sort (L bitonic
                                              instances share one schedule)
  dual-cube broadcast <n> <root> [--metrics-json]
                                              broadcast from a root node
  dual-cube serve <n> [--requests R] [--workers W] [--lanes L] [--op prefix|sort|allreduce]
                      [--seed S] [--metrics-json]
                      [--stats-every MS [--stats-out FILE] [--stats-format jsonl|prom]]
                                              push R seeded requests through the
                                              dc-serve frontend (W warm workers,
                                              batches up to L lanes wide) and
                                              report throughput and latency;
                                              --stats-every streams live telemetry
                                              snapshots (JSONL time series or a
                                              Prometheus page) to --stats-out or
                                              stdout while the run is in flight
  dual-cube experiments [E1 E4 …]             print experiment reports
  dual-cube diagram <n> [prefix|sort]         space-time diagram of a schedule
  dual-cube trace <prefix|sort> [--n N] [--out FILE] [--format perfetto|jsonl]
                                              record a run's cycle events and
                                              export them (default: Perfetto
                                              JSON for ui.perfetto.dev)
  dual-cube hamiltonian <n>                   the dilation-1 ring embedding
  dual-cube dot <n>                           Graphviz source for D_n
  dual-cube help                              this text
";

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Command, ParseError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(p("info 3"), Ok(Command::Info { n: 3 }));
        assert_eq!(
            p("route 3 0 31"),
            Ok(Command::Route {
                n: 3,
                src: 0,
                dst: 31
            })
        );
        assert_eq!(
            p("broadcast 2 5"),
            Ok(Command::Broadcast {
                n: 2,
                root: 5,
                metrics_json: false
            })
        );
        assert_eq!(
            p("broadcast 2 5 --metrics-json"),
            Ok(Command::Broadcast {
                n: 2,
                root: 5,
                metrics_json: true
            })
        );
        assert_eq!(p("help"), Ok(Command::Help));
        assert_eq!(p(""), Ok(Command::Help));
    }

    #[test]
    fn parses_prefix_flags_in_any_order() {
        assert_eq!(
            p("prefix 4 --op max --k 8 --seed 1"),
            Ok(Command::Prefix {
                n: 4,
                k: 8,
                lanes: 1,
                op: OpKind::Max,
                seed: 1,
                metrics_json: false
            })
        );
        assert_eq!(
            p("prefix 4 --metrics-json --k 2"),
            Ok(Command::Prefix {
                n: 4,
                k: 2,
                lanes: 1,
                op: OpKind::Sum,
                seed: 2008,
                metrics_json: true
            })
        );
        assert_eq!(
            p("prefix 4"),
            Ok(Command::Prefix {
                n: 4,
                k: 1,
                lanes: 1,
                op: OpKind::Sum,
                seed: 2008,
                metrics_json: false
            })
        );
    }

    #[test]
    fn parses_lanes() {
        assert_eq!(
            p("prefix 4 --lanes 16"),
            Ok(Command::Prefix {
                n: 4,
                k: 1,
                lanes: 16,
                op: OpKind::Sum,
                seed: 2008,
                metrics_json: false
            })
        );
        assert_eq!(
            p("sort 3 --lanes 4 --seed 7"),
            Ok(Command::Sort {
                n: 3,
                algo: SortAlgo::Bitonic,
                lanes: 4,
                seed: 7,
                metrics_json: false
            })
        );
        assert!(p("prefix 4 --lanes 0").is_err());
        assert!(p("sort 3 --lanes many").is_err());
        assert!(p("prefix 4 --lanes").is_err());
    }

    #[test]
    fn parses_sort_algos() {
        for (s, a) in [
            ("bitonic", SortAlgo::Bitonic),
            ("radix", SortAlgo::Radix),
            ("ring", SortAlgo::Ring),
            ("hypercube", SortAlgo::Hypercube),
        ] {
            assert_eq!(
                p(&format!("sort 3 --algo {s}")),
                Ok(Command::Sort {
                    n: 3,
                    algo: a,
                    lanes: 1,
                    seed: 2008,
                    metrics_json: false
                })
            );
        }
    }

    #[test]
    fn parses_diagram_and_hamiltonian() {
        assert_eq!(
            p("diagram 3"),
            Ok(Command::Diagram {
                n: 3,
                which: DiagramKind::Prefix
            })
        );
        assert_eq!(
            p("diagram 2 sort"),
            Ok(Command::Diagram {
                n: 2,
                which: DiagramKind::Sort
            })
        );
        assert!(p("diagram 2 pie").is_err());
        assert_eq!(p("hamiltonian 4"), Ok(Command::Hamiltonian { n: 4 }));
        assert_eq!(p("dot 2"), Ok(Command::Dot { n: 2 }));
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            p("serve 4"),
            Ok(Command::Serve {
                n: 4,
                op: ServeOp::Prefix,
                requests: 32,
                workers: 2,
                lanes: 1,
                seed: 2008,
                metrics_json: false,
                stats_every: None,
                stats_out: None,
                stats_format: StatsFormat::Jsonl
            })
        );
        assert_eq!(
            p("serve 3 --op sort --requests 100 --workers 4 --lanes 8 --seed 5 --metrics-json"),
            Ok(Command::Serve {
                n: 3,
                op: ServeOp::Sort,
                requests: 100,
                workers: 4,
                lanes: 8,
                seed: 5,
                metrics_json: true,
                stats_every: None,
                stats_out: None,
                stats_format: StatsFormat::Jsonl
            })
        );
        assert_eq!(
            p("serve 2 --op allreduce").map(|c| match c {
                Command::Serve { op, .. } => op,
                _ => unreachable!(),
            }),
            Ok(ServeOp::Allreduce)
        );
        assert!(p("serve").is_err());
        assert!(p("serve 3 --op pie").is_err());
        assert!(p("serve 3 --requests 0").is_err());
        assert!(p("serve 3 --lanes 0").is_err());
    }

    #[test]
    fn parses_serve_stats_flags() {
        assert_eq!(
            p("serve 4 --stats-every 50 --stats-out stats.jsonl"),
            Ok(Command::Serve {
                n: 4,
                op: ServeOp::Prefix,
                requests: 32,
                workers: 2,
                lanes: 1,
                seed: 2008,
                metrics_json: false,
                stats_every: Some(50),
                stats_out: Some("stats.jsonl".into()),
                stats_format: StatsFormat::Jsonl
            })
        );
        assert_eq!(
            p("serve 4 --stats-every 100 --stats-out m.prom --stats-format prom").map(|c| {
                match c {
                    Command::Serve { stats_format, .. } => stats_format,
                    _ => unreachable!(),
                }
            }),
            Ok(StatsFormat::Prom)
        );
        // The sampler flag enables the others.
        assert!(p("serve 4 --stats-out stats.jsonl").is_err());
        assert!(p("serve 4 --stats-format prom").is_err());
        assert!(p("serve 4 --stats-every 0").is_err());
        assert!(p("serve 4 --stats-every soon").is_err());
        assert!(p("serve 4 --stats-every 50 --stats-format xml").is_err());
    }

    #[test]
    fn experiments_take_optional_ids() {
        assert_eq!(p("experiments"), Ok(Command::Experiments { ids: vec![] }));
        assert_eq!(
            p("experiments E1 E4"),
            Ok(Command::Experiments {
                ids: vec!["E1".into(), "E4".into()]
            })
        );
    }

    #[test]
    fn parses_trace() {
        assert_eq!(
            p("trace prefix --n 8 --out run.perfetto.json"),
            Ok(Command::Trace {
                which: DiagramKind::Prefix,
                n: 8,
                out: Some("run.perfetto.json".into()),
                format: TraceFormat::Perfetto
            })
        );
        assert_eq!(
            p("trace sort --format jsonl"),
            Ok(Command::Trace {
                which: DiagramKind::Sort,
                n: 6,
                out: None,
                format: TraceFormat::Jsonl
            })
        );
        assert!(p("trace").is_err());
        assert!(p("trace pie").is_err());
        assert!(p("trace prefix --format xml").is_err());
        assert!(p("trace prefix --n nope").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(p("explode 3").is_err());
        assert!(p("info").is_err());
        assert!(p("info many").is_err());
        assert!(p("prefix 3 --op frobnicate").is_err());
        assert!(p("sort 3 --algo quantum").is_err());
        assert!(p("prefix 3 --k").is_err());
        // Every subcommand rejects arguments it does not define, naming
        // the first one it cannot place.
        for (line, culprit) in [
            ("prefix 3 --lane 4", "--lane"),
            ("info 3 --bogus extra", "--bogus"),
            ("info 3 extra", "extra"),
            ("serve 3 --worker 4", "--worker"),
        ] {
            match p(line) {
                Err(ParseError(msg)) => assert!(msg.contains(culprit), "{line}: {msg}"),
                Ok(cmd) => panic!("{line} parsed as {cmd:?}"),
            }
        }
    }
}
