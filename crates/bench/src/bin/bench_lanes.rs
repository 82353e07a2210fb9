//! Lane-sweep bench: per-cycle cost of lane-batched steady-state cycles
//! for K ∈ {1, 4, 16, 64}, on the §E24 reference configuration
//! (`D_8` = 32 768 nodes, sequential backend, schedule replay on).
//!
//! Each leg times the form the served paths run (DESIGN.md §10): one
//! keyed pairwise cross-edge [`Comm::rows`](dc_simulator::Comm::rows)
//! cycle that lands every node's K `u64` lanes in its partner's row,
//! then a `compute_rows` step that folds the landed row into the node's
//! own. The protocol is the harness's ([`median_cycle_us`]): 200
//! steady-state cycles per run after a two-cycle warm-up, 7 fresh
//! machines per leg, the median of the per-run means. The §E24 probe
//! cycle ([`probe_cycle`], no payload) is re-measured in the same
//! invocation as the single-instance reference.
//!
//! Output: a human table on stdout and a machine-readable JSON document
//! at `--out` (default `BENCH_lanes.json`, the committed baseline; CI's
//! smoke writes `BENCH_lanes_fresh.json` and gates it with
//! `bench_compare`) — see EXPERIMENTS.md §E26 and §E38.
//!
//! Flags: `--runs R` (default 7), `--cycles C` (default 200),
//! `--n N` (dual-cube parameter, default 8), `--out PATH`.

use dc_bench::harness::{flag, median_cycle_us, probe_cycle, write_snapshot};
use dc_simulator::{ExecMode, Machine, ScheduleKey};
use dc_topology::{DualCube, Topology};

const LANE_SWEEP: [usize; 4] = [1, 4, 16, 64];

fn main() {
    let runs: usize = flag("--runs", 7);
    let cycles: u32 = flag("--cycles", 200);
    let n: u32 = flag("--n", 8);
    let out_path: String = flag("--out", "BENCH_lanes.json".into());

    let d = DualCube::new(n);
    let nodes = d.num_nodes();
    let fresh = || Machine::with_exec(&d, vec![(); nodes], ExecMode::Sequential);
    println!(
        "lane sweep on {} ({nodes} nodes): median of {runs} runs × {cycles} steady-state cycles",
        d.name()
    );

    let e24_baseline = median_cycle_us(runs, cycles, fresh, |m| _ = probe_cycle(m));
    println!("§E24-shape single-instance probe cycle: {e24_baseline:.1} µs");

    let legs: Vec<(usize, f64)> = LANE_SWEEP
        .into_iter()
        .map(|lanes| {
            let (mut own, mut landed) = (vec![0u64; nodes * lanes], vec![0u64; nodes * lanes]);
            let cycle_us = median_cycle_us(runs, cycles, fresh, |m| {
                row_cycle(m, lanes, &mut own, &mut landed)
            });
            (lanes, cycle_us)
        })
        .collect();

    let single = legs[0].1;
    println!(" lanes     cycle (µs)  per-instance (µs)     vs K=1 cycle");
    let legs: Vec<String> = legs
        .iter()
        .map(|&(lanes, cycle_us)| {
            let per_instance_us = cycle_us / lanes as f64;
            let vs_single = per_instance_us / single;
            println!("{lanes:>6} {cycle_us:>14.1} {per_instance_us:>18.2} {vs_single:>15.2}×");
            format!(
                "{{\"lanes\":{lanes},\"cycle_us\":{cycle_us:.3},\
                 \"per_instance_us\":{per_instance_us:.3},\
                 \"per_instance_vs_single\":{vs_single:.4},\
                 \"per_instance_vs_e24_probe\":{:.4}}}",
                per_instance_us / e24_baseline
            )
        })
        .collect();
    let head = format!(
        "\"bench\":\"backend/lane_rows\",\"topology\":\"{}\",\"nodes\":{nodes},\
         \"backend\":\"sequential\",\"replay\":true,\
         \"protocol\":\"median of {runs} runs x {cycles} steady-state cycles, 2 warm-up\",\
         \"e24_probe_cycle_us\":{e24_baseline:.3},\"single_lane_cycle_us\":{single:.3}",
        d.name()
    );
    write_snapshot(&out_path, &head, &legs);
}

/// One steady-state lane-batched cycle: a keyed pairwise cross-edge
/// rows cycle moving each node's K lanes of `own` into its partner's
/// row of `landed`, then one step folding `landed` into `own`.
fn row_cycle(m: &mut Machine<'_, DualCube, ()>, lanes: usize, own: &mut [u64], landed: &mut [u64]) {
    let d = m.topology();
    m.cycle(|c| {
        c.rows(
            lanes,
            |u, _| Some(d.cross_neighbor(u)),
            [(&*own, &mut *landed)],
        )
        .pairwise()
        .keyed(ScheduleKey::Cross)
    });
    m.compute_rows(lanes, [own], [&*landed], |_, [own], [landed]| {
        for (o, l) in own.iter_mut().zip(landed) {
            *o = o.wrapping_add(*l);
        }
    });
}
