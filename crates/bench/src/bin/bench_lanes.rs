//! Lane-sweep bench: per-cycle cost of lane-batched steady-state cycles
//! for K ∈ {1, 4, 16, 64}, on the §E24 reference configuration
//! (`D_8` = 32 768 nodes, sequential backend, schedule replay on).
//!
//! Protocol (the seven-run-median discipline from EXPERIMENTS.md §E24's
//! triage note): each leg times `--cycles` steady-state cycles after a
//! two-cycle warm-up, repeated `--runs` times on a fresh machine; the
//! reported figure is the **median** of the per-run mean cycle times, so
//! a single noisy invocation on a shared container cannot move the
//! result. The cycle is the lane analog of the §E24 probe: one keyed
//! pairwise cross-edge lane exchange (`Comm::lanes`) carrying K `u64` lanes
//! plus a no-op compute step.
//!
//! Output: a human table on stdout and a machine-readable JSON document
//! at `--out` (default `BENCH_lanes.json`, the committed baseline; CI's
//! smoke writes `BENCH_lanes_fresh.json` and gates it against the
//! baseline with `bench_compare`) — see EXPERIMENTS.md §E26.
//!
//! Flags: `--runs R` (default 7), `--cycles C` (default 200),
//! `--n N` (dual-cube parameter, default 8), `--out PATH`.

use dc_simulator::{ExecMode, Machine, ScheduleKey};
use dc_topology::{DualCube, Topology};
use std::fmt::Write as _;
use std::time::Instant;

const LANE_SWEEP: [usize; 4] = [1, 4, 16, 64];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let runs: usize = flag("--runs").map_or(7, |v| v.parse().expect("--runs"));
    let cycles: u32 = flag("--cycles").map_or(200, |v| v.parse().expect("--cycles"));
    let n: u32 = flag("--n").map_or(8, |v| v.parse().expect("--n"));
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_lanes.json".into());
    assert!(runs >= 1 && cycles >= 1, "need at least one run and cycle");

    let d = DualCube::new(n);
    println!(
        "lane sweep on {} ({} nodes): median of {runs} runs × {cycles} steady-state cycles",
        d.name(),
        d.num_nodes()
    );

    // Same-host §E24 reference: the single-instance probe cycle (keyed
    // cross-edge exchange of `()`, no lanes) the acceptance ratio is
    // judged against.
    let mut baseline_us: Vec<f64> = (0..runs)
        .map(|_| {
            let mut m = Machine::with_exec(&d, vec![0u64; d.num_nodes()], ExecMode::Sequential);
            let probe = |m: &mut Machine<'_, DualCube, u64>| {
                m.cycle(|c| {
                    c.message(|u, _| Some((d.cross_neighbor(u), ())), |_, _, ()| {})
                        .pairwise()
                        .keyed(ScheduleKey::Cross)
                });
                m.compute(1, |_, _| {});
            };
            for _ in 0..2 {
                probe(&mut m);
            }
            let start = Instant::now();
            for _ in 0..cycles {
                probe(&mut m);
            }
            start.elapsed().as_secs_f64() * 1e6 / cycles as f64
        })
        .collect();
    baseline_us.sort_by(|a, b| a.total_cmp(b));
    let e24_baseline = baseline_us[baseline_us.len() / 2];
    println!("§E24-shape single-instance probe cycle: {e24_baseline:.1} µs");

    let mut legs = Vec::new();
    for lanes in LANE_SWEEP {
        let mut per_run_us: Vec<f64> = (0..runs)
            .map(|_| {
                let mut m = Machine::with_exec(&d, vec![0u64; d.num_nodes()], ExecMode::Sequential);
                for _ in 0..2 {
                    lane_cycle(&mut m, &d, lanes); // compile + first replay
                }
                let start = Instant::now();
                for _ in 0..cycles {
                    lane_cycle(&mut m, &d, lanes);
                }
                let elapsed = start.elapsed();
                let metrics = m.metrics();
                assert_eq!(
                    metrics.schedule_misses, 1,
                    "K={lanes}: exactly one compile, the rest replays"
                );
                assert_eq!(metrics.schedule_hits as u64, 1 + cycles as u64);
                elapsed.as_secs_f64() * 1e6 / cycles as f64
            })
            .collect();
        per_run_us.sort_by(|a, b| a.total_cmp(b));
        let median = per_run_us[per_run_us.len() / 2];
        legs.push((lanes, median, median / lanes as f64));
    }

    let single = legs[0].1;
    println!(
        "{:>6} {:>14} {:>18} {:>16}",
        "lanes", "cycle (µs)", "per-instance (µs)", "vs K=1 cycle"
    );
    for &(lanes, cycle_us, per_instance_us) in &legs {
        println!(
            "{lanes:>6} {cycle_us:>14.1} {per_instance_us:>18.2} {:>15.2}×",
            per_instance_us / single
        );
    }

    let mut json = String::new();
    write!(
        json,
        "{{\"bench\":\"backend/lane_overhead\",\"topology\":\"{}\",\"nodes\":{},\
         \"backend\":\"sequential\",\"replay\":true,\
         \"protocol\":\"median of {runs} runs x {cycles} steady-state cycles, 2 warm-up\",\
         \"e24_probe_cycle_us\":{e24_baseline:.3},\
         \"single_lane_cycle_us\":{single:.3},\"legs\":[",
        d.name(),
        d.num_nodes()
    )
    .unwrap();
    for (i, &(lanes, cycle_us, per_instance_us)) in legs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        write!(
            json,
            "{{\"lanes\":{lanes},\"cycle_us\":{cycle_us:.3},\
             \"per_instance_us\":{per_instance_us:.3},\
             \"per_instance_vs_single\":{:.4},\
             \"per_instance_vs_e24_probe\":{:.4}}}",
            per_instance_us / single,
            per_instance_us / e24_baseline
        )
        .unwrap();
    }
    json.push_str("]}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}

/// One steady-state lane-batched cycle: keyed cross-edge exchange of K
/// `u64` lanes plus a no-op compute step.
fn lane_cycle(m: &mut Machine<'_, DualCube, u64>, d: &DualCube, lanes: usize) {
    m.cycle(|c| {
        c.lanes(
            lanes,
            &0u64,
            |u, _| Some(d.cross_neighbor(u)),
            |_, &s, window| window.fill(s),
            |s, _, window| {
                for w in window.iter() {
                    *s = s.wrapping_add(*w);
                }
            },
        )
        .pairwise()
        .keyed(ScheduleKey::Cross)
    });
    m.compute(1, |_, _| {});
}
