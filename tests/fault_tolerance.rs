//! Fault-tolerant collectives vs the Menger guarantee: for **any** fault
//! set below κ(D_n) = n — node crashes, link cuts, or both — the
//! fault-aware `ft_d_prefix` / `ft_broadcast` must reach every survivor
//! and produce results **bit-identical** to a fault-free computation over
//! the surviving inputs, on both execution backends, with schedule replay
//! on and off. Scripted message drops on top must change nothing but the
//! retry counters.
//!
//! The non-commutative monoid (string concatenation) makes ordering bugs
//! unhideable: a survivor folded in the wrong position changes the bytes.

use dc_core::fault::ft_broadcast;
use dc_core::fault::ft_d_prefix;
use dc_core::ops::{Concat, Sum};
use dc_core::prefix::{sequential_prefix, PrefixKind};
use dc_core::run::RunConfig;
use dc_simulator::{ExecMode, FaultPlan};
use dc_topology::{connectivity, DualCube, Topology};
use proptest::prelude::*;

const FORCE_PARALLEL: ExecMode = ExecMode::Parallel { threshold: 1 };

/// Both backends, replay off and on; 2 workers, so the threaded cases
/// thread on any host.
fn configs() -> Vec<RunConfig> {
    let config = |exec, replay| RunConfig {
        exec,
        workers: 2,
        replay,
        ..RunConfig::default()
    };
    vec![
        config(ExecMode::Sequential, false),
        config(ExecMode::Sequential, true),
        config(FORCE_PARALLEL, false),
        config(FORCE_PARALLEL, true),
    ]
}

/// Expected FT-prefix: [`sequential_prefix`] over the surviving sequence
/// (linear order, crashed positions excised), scattered back to the
/// surviving positions; `None` on the dead ones.
fn expected_prefixes(
    d: &DualCube,
    input: &[Concat],
    kind: PrefixKind,
    crashed: &[usize],
) -> Vec<Option<Concat>> {
    // Position p belongs to the node u with linear_index(u) == p.
    let mut owner = vec![0usize; d.num_nodes()];
    for u in 0..d.num_nodes() {
        owner[d.linear_index(u)] = u;
    }
    let live: Vec<usize> = (0..d.num_nodes())
        .filter(|&p| !crashed.contains(&owner[p]))
        .collect();
    let survivors: Vec<Concat> = live.iter().map(|&p| input[p].clone()).collect();
    let scanned = sequential_prefix(&survivors, kind);
    let mut out = vec![None; d.num_nodes()];
    for (k, &p) in live.iter().enumerate() {
        out[p] = Some(scanned[k].clone());
    }
    out
}

/// Draws a fault set of total size < κ(D_n) = n: `crashes` distinct
/// nodes and `cuts` distinct edges (encoded as (node, port) picks).
fn small_fault_plan(
    d: &DualCube,
    picks: &[(usize, usize)],
    crashes: usize,
) -> (FaultPlan, Vec<usize>) {
    let mut plan = FaultPlan::new();
    let mut crashed = Vec::new();
    let mut cut = Vec::new();
    for (i, &(node, port)) in picks.iter().enumerate() {
        let u = node % d.num_nodes();
        if i < crashes {
            if !crashed.contains(&u) {
                crashed.push(u);
                plan = plan.node_crash(0, u);
            }
        } else {
            let nbrs = d.neighbors(u);
            let v = nbrs[port % nbrs.len()];
            let key = (u.min(v), u.max(v));
            if !cut.contains(&key) {
                cut.push(key);
                plan = plan.link_down(0, key.0, key.1);
            }
        }
    }
    (plan, crashed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// THE acceptance property: for every n ≤ 4 and every random fault
    /// set with |F| < κ(D_n) (mixing crashes and link cuts), FT-prefix
    /// reaches all survivors and matches the fault-free scan over the
    /// surviving sequence bit-for-bit — across the full backend × replay
    /// matrix.
    #[test]
    fn ft_prefix_below_kappa_matches_fault_free_on_survivors(
        n in 2u32..=4,
        picks in proptest::collection::vec((0usize..200, 0usize..8), 0..4),
        crashes in 0usize..4,
        inclusive: bool,
    ) {
        let d = DualCube::new(n);
        let kappa = connectivity::vertex_connectivity(&d);
        prop_assert_eq!(kappa, n as usize, "κ(D_n) = n");
        let picks = &picks[..picks.len().min(kappa - 1)];
        let crashes = crashes.min(picks.len());
        let (plan, crashed) = small_fault_plan(&d, picks, crashes);
        let kind = if inclusive { PrefixKind::Inclusive } else { PrefixKind::Diminished };
        let input: Vec<Concat> = (0..d.num_nodes())
            .map(|i| Concat(format!("{i}.")))
            .collect();
        let expect = expected_prefixes(&d, &input, kind, &crashed);
        for config in configs() {
            let name = format!("{:?}, replay={}", config.exec, config.replay);
            let run = ft_d_prefix(&d, &input, kind, &plan, config);
            prop_assert!(run.report.guaranteed, "|F| < κ");
            prop_assert!(run.report.complete, "guaranteed ⇒ every survivor reached");
            prop_assert_eq!(run.metrics.retries, 0, "no drops scripted");
            prop_assert_eq!(
                &run.prefixes, &expect,
                "({}) diverged from fault-free-on-survivors", name
            );
        }
    }

    /// Same property for broadcast: below κ every survivor receives the
    /// value, identically across the matrix.
    #[test]
    fn ft_broadcast_below_kappa_reaches_every_survivor(
        n in 2u32..=4,
        picks in proptest::collection::vec((0usize..200, 0usize..8), 0..4),
        crashes in 0usize..4,
        root_pick in 0usize..200,
    ) {
        let d = DualCube::new(n);
        let kappa = n as usize;
        let picks = &picks[..picks.len().min(kappa - 1)];
        let crashes = crashes.min(picks.len());
        let (plan, crashed) = small_fault_plan(&d, picks, crashes);
        let root = (0..d.num_nodes())
            .map(|u| (u + root_pick) % d.num_nodes())
            .find(|u| !crashed.contains(u))
            .unwrap();
        for config in configs() {
            let run = ft_broadcast(&d, root, 0xBEEFu16, &plan, config);
            prop_assert!(run.report.guaranteed && run.report.complete);
            for u in 0..d.num_nodes() {
                if crashed.contains(&u) {
                    prop_assert_eq!(run.values[u], None, "corpse {} got data", u);
                } else {
                    prop_assert_eq!(run.values[u], Some(0xBEEF), "survivor {} missed", u);
                }
            }
        }
    }

    /// Lossy cycles change nothing but the retry counters: with random
    /// scripted message drops stacked on top of a sub-κ crash set, the
    /// results stay bit-identical to the drop-free run and every drop is
    /// paid for by exactly one retried round.
    #[test]
    fn scripted_drops_cost_retries_but_never_correctness(
        n in 2u32..=3,
        crash_pick in 0usize..200,
        drops in proptest::collection::vec((0u64..12, 0usize..200), 0..5),
    ) {
        let d = DualCube::new(n);
        let crash = crash_pick % d.num_nodes();
        let mut plan = FaultPlan::new().node_crash(0, crash);
        let clean_plan = plan.clone();
        for &(cycle, node) in &drops {
            let victim = node % d.num_nodes();
            if victim != crash {
                plan = plan.message_drop(cycle, victim);
            }
        }
        let input: Vec<Sum> = (1..=d.num_nodes() as i64).map(Sum).collect();
        let clean = ft_d_prefix(&d, &input, PrefixKind::Inclusive, &clean_plan, RunConfig::default());
        for config in configs() {
            let lossy = ft_d_prefix(&d, &input, PrefixKind::Inclusive, &plan, config);
            prop_assert!(lossy.report.complete);
            prop_assert_eq!(&lossy.prefixes, &clean.prefixes);
            prop_assert_eq!(lossy.metrics.retries, lossy.metrics.dropped_messages);
            prop_assert_eq!(
                lossy.metrics.comm_steps,
                clean.metrics.comm_steps + lossy.metrics.retries,
                "each retry re-runs exactly one round"
            );
        }
    }
}

/// The README's fault-injection example, kept honest.
#[test]
fn readme_fault_injection_example() {
    let d = DualCube::new(3); // κ(D_3) = 3
    let input: Vec<Sum> = (1..=32).map(Sum).collect();
    let plan = FaultPlan::new()
        .node_crash(0, 7)
        .link_down(0, 0, 16)
        .message_drop(2, 3);
    let run = ft_d_prefix(
        &d,
        &input,
        PrefixKind::Inclusive,
        &plan,
        RunConfig::default(),
    );
    assert!(run.report.guaranteed && run.report.complete);
    assert!(run.prefixes[d.linear_index(7)].is_none());
    assert_eq!(run.metrics.retries, run.metrics.dropped_messages);
}

/// Exhaustive (not sampled) single-fault sweep on D_2: every possible
/// crash and every possible cut, every prefix kind — all bit-identical
/// to fault-free-on-survivors. κ(D_2) = 2, so |F| = 1 is the whole
/// guaranteed regime.
#[test]
fn d2_single_fault_exhaustive() {
    let d = DualCube::new(2);
    let input: Vec<Concat> = (0..8)
        .map(|i| Concat(char::from(b'a' + i as u8).to_string()))
        .collect();
    for kind in [PrefixKind::Inclusive, PrefixKind::Diminished] {
        for victim in 0..d.num_nodes() {
            let plan = FaultPlan::new().node_crash(0, victim);
            let run = ft_d_prefix(&d, &input, kind, &plan, RunConfig::default());
            assert!(run.report.complete, "crash {victim}");
            assert_eq!(run.prefixes, expected_prefixes(&d, &input, kind, &[victim]));
        }
        for u in 0..d.num_nodes() {
            for v in d.neighbors(u) {
                if u < v {
                    let plan = FaultPlan::new().link_down(0, u, v);
                    let run = ft_d_prefix(&d, &input, kind, &plan, RunConfig::default());
                    assert!(run.report.complete, "cut {{{u},{v}}}");
                    assert_eq!(run.prefixes, expected_prefixes(&d, &input, kind, &[]));
                }
            }
        }
    }
}
