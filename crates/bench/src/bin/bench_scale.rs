//! Scale sweep: per-message delivery + accounting cost and peak RSS
//! across `D_8` → `D_12` (32 768 → 8 388 608 nodes), the growth band the
//! split-inbox layout, the segmented link table and the sharded cycle
//! engine were built for.
//!
//! Protocol (the harness's, [`median_cycle_us`]): each leg times
//! `--cycles` steady-state §E24 probe cycles ([`probe_cycle`], a keyed
//! cross-edge exchange of `()`) after a two-cycle warm-up, repeated
//! `--runs` times on a fresh machine; the reported figure is the
//! **median** of the per-run mean cycle times. Every leg runs twice —
//! recorder off (pure delivery) and recorder on (delivery + deferred
//! per-link accounting through the schedule's `AcctPlan` into the
//! segmented link table) — so the *accounting tax* §E25 diagnosed
//! (~28 ns/msg through the old hash-map counters, ~14 ns/msg through
//! the eager flat table at `D_10`) is measured directly as the
//! difference. The cross probe delivers exactly
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
//! (default `BENCH_scale.json`) — which `bench_compare` gates: CI's
//! sequential smoke against the committed baseline and the scale
//! contract (the `D_8` recorded per-message cost at the §E25 tax level),
//! and its threaded `D_10` sweep against the sharded contract (the
//! sweep's `scale_ratio` at the §E28 level).
//!
//! Flags: `--runs R` (default 7), `--cycles C` (default 50),
//! `--min-n N` (default 8), `--max-n N` (default 10), `--threads T`
//! (default 0 = sequential backend; `T ≥ 2` gives each machine `T`
//! workers and switches the probe to the threaded sharded engine), `--shards S`
//! (default 0 = auto; must be 1 or a power of 4), `--out PATH`.

use dc_bench::harness::{flag, median_cycle_us, probe_cycle, write_snapshot};
use dc_simulator::obs::shared;
use dc_simulator::{ExecMode, Machine, MemorySink};
use dc_topology::{DualCube, Topology};

fn main() {
    let runs: usize = flag("--runs", 7);
    let cycles: u32 = flag("--cycles", 50);
    let min_n: u32 = flag("--min-n", 8);
    let max_n: u32 = flag("--max-n", 10);
    let threads: usize = flag("--threads", 0);
    let shards: usize = flag("--shards", 0);
    let out_path: String = flag("--out", "BENCH_scale.json".into());
    assert!((2..=12).contains(&min_n) && min_n <= max_n && max_n <= 12);

    let (exec, backend) = if threads > 0 {
        (ExecMode::parallel(), format!("threaded({threads})"))
    } else {
        (ExecMode::Sequential, "sequential".into())
    };
    println!(
        "scale sweep D_{min_n}..D_{max_n}: median of {runs} runs × {cycles} \
         steady-state cycles, {backend} backend, replay on"
    );
    println!(
        " topo     nodes  shards   cycle (µs)  recorded (µs)    msg (ns) acct (ns/msg)  VmHWM (MB)"
    );

    let mut legs = Vec::new();
    let mut per_msg = Vec::new();
    for n in min_n..=max_n {
        let d = DualCube::new(n);
        let nodes = d.num_nodes();
        // The §E24 probe on fresh machines of this leg's backend and
        // shard count; with `recorded`, a ring-buffered memory sink is
        // installed, so every cycle also pays event construction and the
        // deferred replay accounting.
        let mut leg_shards = 1;
        let mut median_us = |recorded: bool| {
            let fresh = || {
                let mut m = Machine::with_exec(&d, vec![0u64; nodes], exec);
                m.set_workers(threads);
                m.set_shards(shards);
                leg_shards = m.shards();
                if recorded {
                    m.record_into(shared(MemorySink::ring(64)));
                }
                m
            };
            median_cycle_us(runs, cycles, fresh, |m| _ = probe_cycle(m))
        };
        let plain_us = median_us(false);
        let recorded_us = median_us(true);
        let per_msg_ns = recorded_us * 1e3 / nodes as f64;
        let acct_ns = (recorded_us - plain_us) * 1e3 / nodes as f64;
        let hwm_kb = vm_hwm_kb();
        println!(
            "{:>5} {nodes:>9} {leg_shards:>7} {plain_us:>12.1} {recorded_us:>14.1} \
             {per_msg_ns:>11.2} {acct_ns:>13.2} {:>11.1}",
            format!("D_{n}"),
            hwm_kb as f64 / 1024.0
        );
        per_msg.push(per_msg_ns);
        legs.push(format!(
            "{{\"topology\":\"D_{n}\",\"nodes\":{nodes},\"shards\":{leg_shards},\
             \"cycle_us\":{plain_us:.3},\
             \"recorded_cycle_us\":{recorded_us:.3},\"per_msg_ns\":{per_msg_ns:.4},\
             \"accounting_ns_per_msg\":{acct_ns:.4},\"vm_hwm_kb\":{hwm_kb}}}"
        ));
    }
    // The §E28 locality figure: largest over smallest recorded
    // per-message cost. 1.0 = perfectly flat scaling.
    let scale_ratio = per_msg[per_msg.len() - 1] / per_msg[0];
    println!("scale_ratio (per-msg D_{max_n}/D_{min_n}): {scale_ratio:.4}");

    let head = format!(
        "\"bench\":\"backend/scale\",\"backend\":\"{backend}\",\"replay\":true,\
         \"protocol\":\"median of {runs} runs x {cycles} steady-state cycles, 2 warm-up; \
         one cross-edge message per node per cycle\",\"scale_ratio\":{scale_ratio:.4}"
    );
    write_snapshot(&out_path, &head, &legs);
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
