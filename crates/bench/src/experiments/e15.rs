//! E15 — fault tolerance (the paper's reference-\[4\] lineage): behaviour of
//! the dual-cube under random node failures.
//!
//! Three measurements over seeded random fault sets:
//!
//! * **connectivity** — fraction of trials in which the survivors remain
//!   connected, as the fault count passes the κ−1 guarantee (`D_4`,
//!   128 nodes, κ = 4);
//! * **dilation** — among connected trials, the worst stretch of
//!   survivor-graph shortest paths over the fault-free distance formula,
//!   sampled across node pairs;
//! * **FT-prefix overhead** — running [`dc_core::fault::ft_d_prefix`]
//!   under the same random crashes (plus scripted message drops): step
//!   dilation over Theorem 1's fault-free `2n+1`, and the retry cost of
//!   surviving lossy cycles.

use crate::table::Table;
use dc_core::fault::ft_d_prefix;
use dc_core::ops::Sum;
use dc_core::prefix::PrefixKind;
use dc_core::run::RunConfig;
use dc_core::theory;
use dc_simulator::FaultPlan;
use dc_topology::faulty::Faulty;
use dc_topology::{graph, DualCube, Routed, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Renders the E15 report.
pub fn report() -> String {
    let n = 4u32;
    let d = DualCube::new(n);
    let trials = 40;
    let mut out = format!(
        "### Random node failures on {} ({} nodes, κ = n = {n}; {trials} seeded trials per row)\n\n",
        d.name(),
        d.num_nodes()
    );
    let mut t = Table::new([
        "faults",
        "connected trials",
        "worst dilation (connected trials)",
        "guarantee",
    ]);
    for faults in [1usize, 3, 6, 12, 24, 48] {
        let mut connected = 0usize;
        let mut worst_dilation = 0.0f64;
        for trial in 0..trials {
            let mut ids: Vec<usize> = (0..d.num_nodes()).collect();
            ids.shuffle(&mut StdRng::seed_from_u64((faults * 1000 + trial) as u64));
            let f = Faulty::new(d, &ids[..faults]);
            // `survivors_connected` is vacuously true with zero survivors;
            // `all_failed` is the explicit signal for that degenerate case.
            // No row here kills all 128 nodes, so it must never fire.
            assert!(
                !f.all_failed(),
                "fault set wiped out every node; connectivity is vacuous"
            );
            if !f.survivors_connected() {
                continue;
            }
            connected += 1;
            // Sample pairs among survivors and compare against the
            // fault-free distance.
            let survivors = f.survivors();
            let src = survivors[0];
            let dist = graph::bfs_distances(&f, src);
            for &v in survivors.iter().step_by(7).skip(1) {
                let fault_free = d.distance(src, v).max(1);
                let dilation = dist[v] as f64 / fault_free as f64;
                worst_dilation = worst_dilation.max(dilation);
            }
        }
        t.row([
            faults.to_string(),
            format!("{connected}/{trials}"),
            if connected > 0 {
                format!("{worst_dilation:.2}×")
            } else {
                "—".into()
            },
            if faults < n as usize {
                "κ guarantees connectivity".to_string()
            } else {
                "beyond κ−1: probabilistic".to_string()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nBelow κ = n faults, connectivity is guaranteed (Menger; verified \
         exhaustively for D_3 in the test suite) — and in practice random fault \
         sets far beyond the worst-case bound still leave the network connected \
         with modest path dilation, the behaviour fault-tolerant-routing schemes \
         for the dual-cube rely on.\n",
    );
    out.push_str(&ft_prefix_report());
    out
}

/// The FT-prefix overhead section: what rerouting around the damage costs
/// in steps (dilation over Theorem 1's `2n+1`) and in retries (when cycles
/// are additionally lossy).
fn ft_prefix_report() -> String {
    let n = 3u32;
    let d = DualCube::new(n);
    let trials = 20;
    let baseline = theory::prefix_comm(n);
    let input: Vec<Sum> = (1..=d.num_nodes() as i64).map(Sum).collect();
    let config = RunConfig::default();
    let mut out = format!(
        "\n### FT-prefix on {} under the same random crashes \
         (fault-free D_prefix: {baseline} comm steps; {trials} seeded trials per row)\n\n",
        d.name()
    );
    let mut t = Table::new([
        "crashes",
        "+drops",
        "complete trials",
        "worst dilation (steps)",
        "mean retries",
    ]);
    for (faults, drops) in [(1usize, 0u32), (2, 0), (2, 3), (4, 0), (8, 3)] {
        let mut complete = 0usize;
        let mut worst_dilation = 0u64;
        let mut total_retries = 0u64;
        for trial in 0..trials {
            let mut ids: Vec<usize> = (0..d.num_nodes()).collect();
            ids.shuffle(&mut StdRng::seed_from_u64((faults * 1000 + trial) as u64));
            let mut plan = FaultPlan::new();
            for &v in &ids[..faults] {
                plan = plan.node_crash(0, v);
            }
            // Scripted drops target early-cycle receivers among the
            // survivors, forcing the gather rounds to retry.
            for (k, &v) in ids[faults..].iter().take(drops as usize).enumerate() {
                plan = plan.message_drop(k as u64, v);
            }
            let run = ft_d_prefix(&d, &input, PrefixKind::Inclusive, &plan, config.clone());
            assert!(!run.report.all_failed, "{faults} crashes cannot kill D_{n}");
            if run.report.guaranteed {
                assert!(
                    run.report.complete,
                    "below κ the run must reach every survivor"
                );
            }
            if run.report.complete {
                complete += 1;
                worst_dilation = worst_dilation.max(run.metrics.dilation_hops);
                total_retries += run.metrics.retries;
            }
        }
        t.row([
            faults.to_string(),
            drops.to_string(),
            format!("{complete}/{trials}"),
            format!("+{worst_dilation}"),
            format!("{:.2}", total_retries as f64 / trials as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe gather–scan–scatter schedule trades Theorem 1's step-optimality \
         for legality on the damaged machine: every cycle is still a validated \
         1-port matching, crashes below κ never cost completeness, and scripted \
         message drops cost only retried cycles — the overhead the paper's \
         fault-oblivious `D_prefix` cannot pay at all (one crash aborts it).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn guaranteed_rows_are_fully_connected() {
        let r = super::report();
        // Fault counts below κ = 4 must show 40/40 connected.
        let stripped = r.replace(' ', "");
        for f in [1, 3] {
            assert!(
                stripped.contains(&format!("|{f}|40/40|")),
                "fault count {f} not fully connected:\n{r}"
            );
        }
    }

    #[test]
    fn ft_prefix_rows_below_kappa_are_complete() {
        let r = super::ft_prefix_report();
        let stripped = r.replace(' ', "");
        // κ(D_3) = 3: the 1- and 2-crash rows must complete every trial,
        // with or without scripted drops.
        for row in ["|1|0|20/20|", "|2|0|20/20|", "|2|3|20/20|"] {
            assert!(stripped.contains(row), "missing {row}:\n{r}");
        }
        // The lossy row must actually have exercised the retry path.
        assert!(
            stripped.contains("meanretries"),
            "retry column missing:\n{r}"
        );
    }
}
