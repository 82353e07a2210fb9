//! Scale sweep: per-message delivery + accounting cost and peak RSS
//! across `D_8` → `D_12` (32 768 → 8 388 608 nodes), the growth band the
//! split-inbox layout, the segmented link table and the sharded cycle
//! engine were built for.
//!
//! Protocol (the seven-run-median discipline from EXPERIMENTS.md §E24):
//! each leg times `--cycles` steady-state keyed cross-edge probe cycles
//! after a two-cycle warm-up, repeated `--runs` times on a fresh
//! machine; the reported figure is the **median** of the per-run mean
//! cycle times. Every leg runs twice — recorder off (pure delivery)
//! and recorder on (delivery + deferred per-link accounting through the
//! schedule's `AcctPlan` into the segmented link table) — so the
//! *accounting tax* §E25 diagnosed (~28 ns/msg through the old hash-map
//! counters, ~14 ns/msg through the eager flat table at `D_10`) is
//! measured directly as the difference. The cross probe delivers exactly
//! one message per node per cycle, so per-message figures are
//! `cycle_µs × 1000 / N`.
//!
//! The sweep also emits `scale_ratio` — the largest leg's recorded
//! per-message cost over the smallest leg's — the §E28 locality gate:
//! per-message cost must stay roughly flat as the machine grows, instead
//! of climbing the cache-miss cliff §E27 measured (1.51× from `D_8` to
//! `D_10` under eager accounting).
//!
//! Peak RSS is sampled from `/proc/self/status` `VmHWM` after each leg.
//! The counter is a process-wide high-water mark, so legs must run (and
//! be read) smallest-first; the `D_10`+ snapshots are the memory-ceiling
//! figures EXPERIMENTS.md §E27/§E28 track. `--max-n 11` / `--max-n 12`
//! extend the sweep to the multi-million-node legs (CI's large job runs
//! `D_11`; `D_12` needs ~2 GiB spare RSS).
//!
//! Output: a human table on stdout and machine-readable JSON at `--out`
//! (default `BENCH_scale.json`) — consumed by CI's scale smoke, which
//! gates the `D_8` recorded per-message cost at the §E25 tax level and
//! the sweep's `scale_ratio` at the §E28 level.
//!
//! Flags: `--runs R` (default 7), `--cycles C` (default 50),
//! `--min-n N` (default 8), `--max-n N` (default 10), `--threads T`
//! (default 0 = sequential backend; `T ≥ 2` pins the worker pool and
//! switches the probe to the threaded sharded engine), `--shards S`
//! (default 0 = auto; must be 1 or a power of 4), `--out PATH`.

use dc_simulator::obs::shared;
use dc_simulator::{set_worker_threads, ExecMode, Machine, MemorySink, ScheduleKey};
use dc_topology::{DualCube, Topology};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let runs: usize = flag("--runs").map_or(7, |v| v.parse().expect("--runs"));
    let cycles: u32 = flag("--cycles").map_or(50, |v| v.parse().expect("--cycles"));
    let min_n: u32 = flag("--min-n").map_or(8, |v| v.parse().expect("--min-n"));
    let max_n: u32 = flag("--max-n").map_or(10, |v| v.parse().expect("--max-n"));
    let threads: usize = flag("--threads").map_or(0, |v| v.parse().expect("--threads"));
    let shards: usize = flag("--shards").map_or(0, |v| v.parse().expect("--shards"));
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_scale.json".into());
    assert!(runs >= 1 && cycles >= 1, "need at least one run and cycle");
    assert!((2..=12).contains(&min_n) && min_n <= max_n && max_n <= 12);

    let cfg = SweepConfig {
        runs,
        cycles,
        threads,
        shards,
    };
    if threads > 0 {
        set_worker_threads(threads);
    }
    let backend = if threads > 0 {
        format!("threaded({threads})")
    } else {
        "sequential".into()
    };
    println!(
        "scale sweep D_{min_n}..D_{max_n}: median of {runs} runs × {cycles} \
         steady-state cycles, {backend} backend, replay on"
    );
    println!(
        "{:>5} {:>9} {:>7} {:>12} {:>14} {:>11} {:>13} {:>11}",
        "topo",
        "nodes",
        "shards",
        "cycle (µs)",
        "recorded (µs)",
        "msg (ns)",
        "acct (ns/msg)",
        "VmHWM (MB)"
    );

    let mut legs = Vec::new();
    for n in min_n..=max_n {
        let d = DualCube::new(n);
        let nodes = d.num_nodes();
        let (plain_us, leg_shards) = median_cycle_us(&d, &cfg, false);
        let (recorded_us, _) = median_cycle_us(&d, &cfg, true);
        let per_msg_ns = recorded_us * 1e3 / nodes as f64;
        let acct_ns = (recorded_us - plain_us) * 1e3 / nodes as f64;
        let hwm_kb = vm_hwm_kb();
        println!(
            "{:>5} {nodes:>9} {leg_shards:>7} {plain_us:>12.1} {recorded_us:>14.1} \
             {per_msg_ns:>11.2} {acct_ns:>13.2} {:>11.1}",
            format!("D_{n}"),
            hwm_kb as f64 / 1024.0
        );
        legs.push((
            n,
            nodes,
            leg_shards,
            plain_us,
            recorded_us,
            per_msg_ns,
            acct_ns,
            hwm_kb,
        ));
    }
    // The §E28 locality figure: largest over smallest recorded
    // per-message cost. 1.0 = perfectly flat scaling.
    let scale_ratio = legs.last().expect("min_n <= max_n").5 / legs[0].5;
    println!("scale_ratio (per-msg D_{max_n}/D_{min_n}): {scale_ratio:.4}");

    let mut json = String::new();
    write!(
        json,
        "{{\"bench\":\"backend/scale\",\"backend\":\"{backend}\",\"replay\":true,\
         \"protocol\":\"median of {runs} runs x {cycles} steady-state cycles, 2 warm-up; \
         one cross-edge message per node per cycle\",\"scale_ratio\":{scale_ratio:.4},\
         \"legs\":["
    )
    .unwrap();
    for (i, &(n, nodes, leg_shards, plain_us, recorded_us, per_msg_ns, acct_ns, hwm_kb)) in
        legs.iter().enumerate()
    {
        if i > 0 {
            json.push(',');
        }
        write!(
            json,
            "{{\"topology\":\"D_{n}\",\"nodes\":{nodes},\"shards\":{leg_shards},\
             \"cycle_us\":{plain_us:.3},\
             \"recorded_cycle_us\":{recorded_us:.3},\"per_msg_ns\":{per_msg_ns:.4},\
             \"accounting_ns_per_msg\":{acct_ns:.4},\"vm_hwm_kb\":{hwm_kb}}}"
        )
        .unwrap();
    }
    json.push_str("]}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}

/// One sweep's fixed knobs, shared by every leg.
struct SweepConfig {
    runs: usize,
    cycles: u32,
    /// `0` = sequential backend; otherwise the pinned worker count.
    threads: usize,
    /// `0` = auto shard count (smallest power of 4 covering the workers).
    shards: usize,
}

/// Median over `runs` fresh machines of the mean steady-state cycle
/// time, in µs, plus the resolved shard count. The probe is the §E24
/// reference cycle: one keyed, pairwise cross-edge exchange of
/// `()` plus a no-op compute step — pure delivery machinery, no
/// algorithm payload. With `recorded`, a ring-buffered memory sink is
/// installed so every cycle also pays event construction and the
/// deferred replay accounting.
fn median_cycle_us(d: &DualCube, cfg: &SweepConfig, recorded: bool) -> (f64, usize) {
    let exec = if cfg.threads > 0 {
        ExecMode::parallel()
    } else {
        ExecMode::Sequential
    };
    let mut resolved_shards = 1;
    let mut per_run: Vec<f64> = (0..cfg.runs)
        .map(|_| {
            let mut m = Machine::with_exec(d, vec![0u64; d.num_nodes()], exec);
            m.set_shards(cfg.shards);
            resolved_shards = m.shards();
            if recorded {
                m.record_into(shared(MemorySink::ring(64)));
            }
            let probe = |m: &mut Machine<'_, DualCube, u64>| {
                m.cycle(|c| {
                    c.message(|u, _| Some((d.cross_neighbor(u), ())), |_, _, ()| {})
                        .pairwise()
                        .keyed(ScheduleKey::Cross)
                });
                m.compute(1, |_, _| {});
            };
            for _ in 0..2 {
                probe(&mut m); // compile + first replay size every buffer
            }
            let start = Instant::now();
            for _ in 0..cfg.cycles {
                probe(&mut m);
            }
            let elapsed = start.elapsed();
            let metrics = m.metrics();
            assert_eq!(metrics.schedule_misses, 1, "exactly one compile");
            assert_eq!(metrics.schedule_hits as u64, 1 + cfg.cycles as u64);
            elapsed.as_secs_f64() * 1e6 / cfg.cycles as f64
        })
        .collect();
    per_run.sort_by(|a, b| a.total_cmp(b));
    (per_run[per_run.len() / 2], resolved_shards)
}

/// The process's peak resident set (`VmHWM`) in KiB, from
/// `/proc/self/status`; 0 where procfs is unavailable (non-Linux).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}
