//! Fault-tolerant collectives: broadcast and prefix that reroute around
//! failures over the survivor graph, degrading gracefully past κ.
//!
//! The paper's schedules are *fault-oblivious*: `D_prefix`'s 2n+1-step
//! program and the 2n-step broadcast assume every node and link of `D_n`
//! answers. The dual-cube literature the paper builds on (Lee & Hayes'
//! fault-tolerant communication scheme; the κ(D_n) = n connectivity
//! results, computed exactly in `dc_topology::connectivity`) asks what
//! survives when they don't. This module answers with *fault-aware*
//! variants:
//!
//! * [`ft_broadcast`] — one-to-all over a BFS spanning tree of the
//!   **survivor graph** (the [`Faulty`] view of `D_n`), serialising
//!   same-parent children so every cycle is a legal 1-port matching.
//! * [`ft_d_prefix`] — prefix over the surviving inputs by a
//!   gather–scan–scatter on the same tree: convergecast the
//!   `(position, value)` bags to the root, scan them in
//!   [`DualCube::linear_index`] order, and flood the results back down.
//!
//! Both run on the *fault-free* `D_n` machine with the damage injected
//! into the simulator ([`Machine::inject_fault`]) — so every cycle the
//! schedule runs is re-validated against the fault state, and a schedule
//! that touched a corpse would fail the run rather than quietly succeed.
//! Scripted **message drops** are survived by retrying the spoiled cycle
//! (counted in [`Metrics::retries`]); the extra steps faults force are
//! reported as [`Metrics::dilation_hops`] over the fault-free baseline.
//!
//! # The κ bound, and what "graceful" means past it
//!
//! By Menger's theorem, fewer than κ(D_n) = n node faults leave the
//! survivor graph connected: every survivor is reached and the result is
//! **bit-identical to a fault-free run over the surviving inputs** (the
//! proptests in `tests/fault_tolerance.rs` pin this for every |F| < κ on
//! small machines). At or past κ the graph may shatter; instead of
//! panicking, both algorithms serve the component containing their root
//! and report the shortfall in [`FtReport`] — unreached nodes simply
//! keep `None`.

use crate::ops::Monoid;
use crate::prefix::{sequential_prefix, PrefixKind};
use crate::run::RunConfig;
use crate::theory;
use dc_simulator::{FaultKind, FaultPlan, Machine, Metrics};
use dc_topology::faulty::Faulty;
use dc_topology::{connectivity, graph, DualCube, NodeId, Topology};

/// How a fault-tolerant run coped: the damage, the guarantee that did
/// (or did not) apply, and the coverage actually achieved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtReport {
    /// Exact vertex connectivity κ of the fault-free topology
    /// ([`connectivity::vertex_connectivity`]; = n for `D_n`).
    pub kappa: usize,
    /// Crashed nodes, ascending.
    pub failed_nodes: Vec<NodeId>,
    /// Downed links, endpoint-normalised.
    pub failed_links: Vec<(NodeId, NodeId)>,
    /// Whether the Menger guarantee applied: total faults (node + link)
    /// below κ ⇒ the survivor graph is connected and the run is
    /// complete.
    pub guaranteed: bool,
    /// Every node crashed — the degenerate case [`Faulty::all_failed`]
    /// signals explicitly (there is nobody to compute anything).
    pub all_failed: bool,
    /// Surviving (non-crashed) nodes.
    pub survivors: usize,
    /// Survivors the algorithm actually reached from its root.
    pub reached: usize,
    /// `reached == survivors` (and somebody survived): no survivor was
    /// cut off. Always true when `guaranteed`.
    pub complete: bool,
}

/// Splits a [`FaultPlan`] into pre-existing damage (crashes and link
/// cuts, which the fault-*aware* algorithms route around from the start)
/// and the transient message drops, which stay scripted on the cycle
/// timeline and are survived by retry.
fn split_plan(plan: &FaultPlan) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>, FaultPlan) {
    let mut crashes: Vec<NodeId> = Vec::new();
    let mut links: Vec<(NodeId, NodeId)> = Vec::new();
    let mut drops = FaultPlan::new();
    for e in plan.events() {
        match e.kind {
            FaultKind::NodeCrash { node } => {
                if !crashes.contains(&node) {
                    crashes.push(node);
                }
            }
            FaultKind::LinkDown { a, b } => {
                let key = (a.min(b), a.max(b));
                if !links.contains(&key) {
                    links.push(key);
                }
            }
            FaultKind::MessageDrop { dst } => {
                drops = drops.message_drop(e.at_cycle, dst);
            }
        }
    }
    crashes.sort_unstable();
    (crashes, links, drops)
}

/// A 1-port-legal schedule over a BFS spanning tree of the survivor
/// graph: `rounds[r]` is a set of `(parent, child)` tree edges forming a
/// matching (every parent speaks to at most one child per round, every
/// child has one parent), ordered root-outward. Running the rounds
/// forward floods the tree; running them backward convergecasts it.
struct SurvivorTree {
    reached: Vec<bool>,
    num_reached: usize,
    rounds: Vec<Vec<(NodeId, NodeId)>>,
}

impl SurvivorTree {
    /// BFS tree of `faulty` rooted at `root`, children visited in
    /// ascending id order (deterministic on every host). The k-th child
    /// of every parent at depth ℓ shares a round, so a round's senders
    /// and receivers are all distinct.
    fn build(faulty: &Faulty<DualCube>, root: NodeId) -> Self {
        let n = faulty.num_nodes();
        let dist = graph::bfs_distances(faulty, root);
        let reached: Vec<bool> = dist.iter().map(|&d| d != u32::MAX).collect();
        let num_reached = reached.iter().filter(|&&r| r).count();
        // children[p] in ascending child id (neighbour order is already
        // ascending for the dual-cube, but do not rely on it).
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut nbrs = Vec::new();
        let mut max_depth = 0;
        for v in 0..n {
            if v == root || !reached[v] {
                continue;
            }
            max_depth = max_depth.max(dist[v]);
            faulty.neighbors_into(v, &mut nbrs);
            let parent = nbrs
                .iter()
                .copied()
                .filter(|&p| dist[p] + 1 == dist[v])
                .min()
                .expect("a reached non-root node has a BFS predecessor");
            children[parent].push(v);
        }
        for c in &mut children {
            c.sort_unstable();
        }
        let mut rounds = Vec::new();
        for depth in 0..max_depth {
            let parents: Vec<NodeId> = (0..n)
                .filter(|&p| reached[p] && dist[p] == depth && !children[p].is_empty())
                .collect();
            let widest = parents
                .iter()
                .map(|&p| children[p].len())
                .max()
                .unwrap_or(0);
            for k in 0..widest {
                let round: Vec<(NodeId, NodeId)> = parents
                    .iter()
                    .filter_map(|&p| children[p].get(k).map(|&c| (p, c)))
                    .collect();
                rounds.push(round);
            }
        }
        SurvivorTree {
            reached,
            num_reached,
            rounds,
        }
    }
}

/// Runs one tree round's matching on `machine`, retrying until no
/// message of the round is lost to a scripted drop. Returns the number
/// of retries spent. `down` selects the direction: parent→child
/// (flood) or child→parent (convergecast).
fn run_round<S, M>(
    machine: &mut Machine<'_, DualCube, S>,
    dest_of: &mut [Option<NodeId>],
    round: &[(NodeId, NodeId)],
    down: bool,
    plan_msg: impl Fn(NodeId, &S) -> M + Sync,
    deliver: impl Fn(&mut S, NodeId, M) + Sync,
    words: impl Fn(&M) -> u64 + Sync,
) -> u64
where
    S: Send + Sync,
    M: Send + Sync + 'static,
{
    dest_of.iter_mut().for_each(|d| *d = None);
    for &(p, c) in round {
        let (src, dst) = if down { (p, c) } else { (c, p) };
        dest_of[src] = Some(dst);
    }
    let mut retries = 0;
    loop {
        let dropped_before = machine.metrics().dropped_messages;
        let dest_of = &*dest_of;
        machine.cycle(|c| {
            c.message(
                |u, st| dest_of[u].map(|dst| (dst, plan_msg(u, st))),
                &deliver,
            )
            .words(&words)
        });
        if machine.metrics().dropped_messages == dropped_before {
            return retries;
        }
        // A drop spoiled the round for at least one edge: re-issue the
        // whole matching. Receivers must therefore tolerate duplicate
        // delivery (both collectives here overwrite, so they do).
        retries += 1;
    }
}

/// Shared setup: survey the damage, pick the survivor graph, and stamp
/// the machine-facing fault state. Returns the faulty view and a report
/// template (coverage fields filled by the caller).
fn survey(
    d: &DualCube,
    crashes: &[NodeId],
    links: &[(NodeId, NodeId)],
) -> (Faulty<DualCube>, FtReport) {
    let faulty = Faulty::with_link_faults(*d, crashes, links);
    let kappa = connectivity::vertex_connectivity(d);
    let report = FtReport {
        kappa,
        failed_nodes: crashes.to_vec(),
        failed_links: faulty.failed_links().to_vec(),
        guaranteed: crashes.len() + links.len() < kappa,
        all_failed: faulty.all_failed(),
        survivors: d.num_nodes() - faulty.num_failed(),
        reached: 0,
        complete: false,
    };
    (faulty, report)
}

/// Injects the surveyed damage into the simulator machine and arms the
/// transient drops, so the machine re-validates every cycle against the
/// same fault state the schedule was planned around.
fn arm_machine<S>(
    machine: &mut Machine<'_, DualCube, S>,
    crashes: &[NodeId],
    links: &[(NodeId, NodeId)],
    drops: FaultPlan,
) {
    for &node in crashes {
        machine.inject_fault(FaultKind::NodeCrash { node });
    }
    for &(a, b) in links {
        machine.inject_fault(FaultKind::LinkDown { a, b });
    }
    machine.set_fault_plan(drops);
}

/// Result of a [`ft_broadcast`].
#[derive(Debug, Clone)]
pub struct FtBroadcastRun<V> {
    /// Per node: the value if the broadcast reached it, `None` on
    /// crashed or cut-off nodes.
    pub values: Vec<Option<V>>,
    /// Steps, retries, drops, and dilation over the fault-free 2n.
    pub metrics: Metrics,
    /// Damage survey and coverage.
    pub report: FtReport,
}

/// Broadcasts `value` from `root` to every *reachable* survivor of `d`
/// under `plan`, rerouting over the survivor graph, on the machine `run` configures.
///
/// Crashes and link cuts in `plan` are treated as pre-existing damage
/// (the fault-aware schedule routes around them from cycle 0); message
/// drops stay on their scripted cycles and are survived by retry. With
/// fewer than κ(D_n) faults, every survivor is reached
/// ([`FtReport::guaranteed`]); with more, the run degrades gracefully to
/// the root's component — including a dead root or all nodes failed,
/// which yield an empty run rather than a panic.
///
/// ```
/// use dc_core::fault::ft_broadcast;
/// use dc_core::run::RunConfig;
/// use dc_simulator::FaultPlan;
/// use dc_topology::DualCube;
///
/// let d = DualCube::new(2); // κ(D_2) = 2: one fault is survivable
/// let plan = FaultPlan::new().node_crash(0, 5);
/// let run = ft_broadcast(&d, 0, "hello", &plan, RunConfig::default());
/// assert!(run.report.guaranteed && run.report.complete);
/// assert_eq!(run.values.iter().filter(|v| v.is_some()).count(), 7);
/// assert!(run.values[5].is_none());
/// ```
pub fn ft_broadcast<V: Clone + Send + Sync + 'static>(
    d: &DualCube,
    root: NodeId,
    value: V,
    plan: &FaultPlan,
    run: impl Into<RunConfig>,
) -> FtBroadcastRun<V> {
    assert!(root < d.num_nodes(), "root {root} out of range");
    let (crashes, links, drops) = split_plan(plan);
    let (faulty, mut report) = survey(d, &crashes, &links);

    if faulty.is_failed(root) {
        // The source died before it could say anything: nothing to do.
        return FtBroadcastRun {
            values: vec![None; d.num_nodes()],
            metrics: Metrics::new(),
            report,
        };
    }
    let tree = SurvivorTree::build(&faulty, root);
    report.reached = tree.num_reached;
    report.complete = report.survivors > 0 && tree.num_reached == report.survivors;

    let mut states: Vec<Option<V>> = vec![None; d.num_nodes()];
    states[root] = Some(value);
    let mut machine = run.into().machine(d, states);
    arm_machine(&mut machine, &crashes, &links, drops);

    let mut dest_of = vec![None; d.num_nodes()];
    let mut retries = 0;
    for round in &tree.rounds {
        retries += run_round(
            &mut machine,
            &mut dest_of,
            round,
            true,
            |_, st: &Option<V>| st.clone().expect("flood order: parent already holds it"),
            |st, _, v| *st = Some(v),
            |_| 1,
        );
    }

    let (values, mut metrics) = machine.into_parts();
    metrics.retries = retries;
    metrics.dilation_hops = metrics
        .comm_steps
        .saturating_sub(theory::collective_comm(d.n()));
    FtBroadcastRun {
        values,
        metrics,
        report,
    }
}

/// Per-node state of [`ft_d_prefix`]: the node's own `(position, value)`
/// contribution, the bag convergecast from its subtree, and the full
/// result list on its way back down.
#[derive(Debug, Clone)]
struct FtPrefixState<M> {
    /// This node's contribution, keyed by `linear_index` — taken (not
    /// cloned) when the bag is sent upward.
    bag: Vec<(usize, M)>,
    /// The scanned results, flooding down the tree.
    results: Vec<(usize, M)>,
}

/// Result of a [`ft_d_prefix`].
#[derive(Debug, Clone)]
pub struct FtPrefixRun<M> {
    /// `prefixes[i]`, indexed like [`crate::prefix::dualcube::d_prefix`]
    /// by [`DualCube::linear_index`]: the prefix over the *surviving*
    /// inputs at positions ≤ i, or `None` where the node crashed or was
    /// cut off.
    pub prefixes: Vec<Option<M>>,
    /// Steps, retries, drops, and dilation over the fault-free 2n+1.
    pub metrics: Metrics,
    /// Damage survey and coverage.
    pub report: FtReport,
}

/// Prefix computation over the survivors of `d` under `plan`, on the
/// machine `run` configures.
///
/// The crashed nodes' inputs are lost with them (the machine model has
/// no stable storage), so the computation is the prefix of the
/// **surviving** sequence: at each reached survivor `u`,
/// `prefixes[lin(u)] = ⊕ { input[lin(v)] : v survives ∧ reached ∧
/// lin(v) ≤ lin(u) }` (`Diminished` excludes `u`'s own term) — exactly
/// [`sequential_prefix`] applied to the survivors in linear order, which
/// the proptests pin bit-for-bit for every fault set below κ.
///
/// The schedule is a gather–scan–scatter over the survivor-graph BFS
/// tree rooted at the lowest-id survivor: convergecast the bags up
/// (deepest rounds first), scan once at the root (charged as `reached`
/// computation steps — the root walks the whole sequence), then flood
/// the result list down the same tree. Not step-optimal — the point is
/// that it is *legal* (every cycle a validated 1-port matching on the
/// damaged machine) and *correct*; the price over the fault-free 2n+1
/// is reported as [`Metrics::dilation_hops`] and measured in E15.
pub fn ft_d_prefix<M: Monoid>(
    d: &DualCube,
    input: &[M],
    kind: PrefixKind,
    plan: &FaultPlan,
    run: impl Into<RunConfig>,
) -> FtPrefixRun<M> {
    assert_eq!(
        input.len(),
        d.num_nodes(),
        "need one input value per node of {}",
        d.name()
    );
    let (crashes, links, drops) = split_plan(plan);
    let (faulty, mut report) = survey(d, &crashes, &links);

    let Some(root) = (0..d.num_nodes()).find(|&u| !faulty.is_failed(u)) else {
        // Everyone crashed: report it instead of panicking.
        return FtPrefixRun {
            prefixes: vec![None; d.num_nodes()],
            metrics: Metrics::new(),
            report,
        };
    };
    let tree = SurvivorTree::build(&faulty, root);
    report.reached = tree.num_reached;
    report.complete = tree.num_reached == report.survivors;

    // Place input[lin(u)] on node u, as d_prefix does.
    let states: Vec<FtPrefixState<M>> = (0..d.num_nodes())
        .map(|u| FtPrefixState {
            bag: vec![(d.linear_index(u), input[d.linear_index(u)].clone())],
            results: Vec::new(),
        })
        .collect();
    let mut machine = run.into().machine(d, states);
    arm_machine(&mut machine, &crashes, &links, drops);

    let mut dest_of = vec![None; d.num_nodes()];
    let mut retries = 0;

    // Phase 1 — convergecast: deepest rounds first, each child hands its
    // whole bag to its parent. A retried round resends the same bag
    // (the sender keeps it until the cycle sticks), and the receiver
    // deduplicates by position, so drops cannot double-count.
    machine.begin_phase("gather: convergecast bags to root");
    for round in tree.rounds.iter().rev() {
        retries += run_round(
            &mut machine,
            &mut dest_of,
            round,
            false,
            |_, st: &FtPrefixState<M>| st.bag.clone(),
            |st, _, bag: Vec<(usize, M)>| {
                for (pos, v) in bag {
                    if !st.bag.iter().any(|(p, _)| *p == pos) {
                        st.bag.push((pos, v));
                    }
                }
            },
            |bag| bag.iter().map(|(_, v)| v.words()).sum(),
        );
    }

    // Phase 2 — scan at the root: sort the gathered bag into linear
    // order and run the sequential reference over it. Charged as one
    // computation phase of `reached` steps (the root walks the whole
    // surviving sequence; everyone else idles — the synchronous model
    // charges the makespan).
    machine.begin_phase("scan: sequential prefix at root");
    let reached = tree.num_reached as u64;
    machine.compute_counted(reached, reached, |u, st| {
        if u == root {
            st.bag.sort_unstable_by_key(|(pos, _)| *pos);
            let values: Vec<M> = st.bag.iter().map(|(_, v)| v.clone()).collect();
            let scanned = sequential_prefix(&values, kind);
            st.results = st.bag.iter().map(|(pos, _)| *pos).zip(scanned).collect();
        }
    });

    // Phase 3 — scatter: flood the full result list back down the tree.
    machine.begin_phase("scatter: flood results down the tree");
    for round in &tree.rounds {
        retries += run_round(
            &mut machine,
            &mut dest_of,
            round,
            true,
            |_, st: &FtPrefixState<M>| st.results.clone(),
            |st, _, results: Vec<(usize, M)>| st.results = results,
            |results| results.iter().map(|(_, v)| v.words()).sum(),
        );
    }

    let (states, mut metrics) = machine.into_parts();
    metrics.retries = retries;
    metrics.dilation_hops = metrics
        .comm_steps
        .saturating_sub(theory::prefix_comm(d.n()));
    let mut prefixes: Vec<Option<M>> = vec![None; d.num_nodes()];
    for (u, st) in states.into_iter().enumerate() {
        if !tree.reached[u] {
            continue;
        }
        let lin = d.linear_index(u);
        if let Some((_, v)) = st.results.iter().find(|(pos, _)| *pos == lin) {
            prefixes[lin] = Some(v.clone());
        }
    }
    FtPrefixRun {
        prefixes,
        metrics,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Sum};

    #[test]
    fn ft_broadcast_no_faults_reaches_everyone() {
        let d = DualCube::new(2);
        let run = ft_broadcast(&d, 3, 42u32, &FaultPlan::new(), RunConfig::default());
        assert!(run.values.iter().all(|v| *v == Some(42)));
        assert!(run.report.complete && run.report.guaranteed);
        assert_eq!(run.report.kappa, 2);
        assert_eq!(run.metrics.retries, 0);
    }

    #[test]
    fn ft_broadcast_routes_around_a_crash() {
        let d = DualCube::new(2);
        for victim in 0..d.num_nodes() {
            for root in 0..d.num_nodes() {
                if root == victim {
                    continue;
                }
                let plan = FaultPlan::new().node_crash(0, victim);
                let run = ft_broadcast(&d, root, 7u8, &plan, RunConfig::default());
                assert!(run.report.complete, "root {root}, victim {victim}");
                for (u, v) in run.values.iter().enumerate() {
                    if u == victim {
                        assert!(v.is_none());
                    } else {
                        assert_eq!(*v, Some(7), "node {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn ft_broadcast_survives_scripted_drops_with_retries() {
        let d = DualCube::new(2);
        // Drop messages to two different nodes in the first cycles.
        let plan = FaultPlan::new().message_drop(0, 1).message_drop(1, 2);
        let run = ft_broadcast(&d, 0, 9u8, &plan, RunConfig::default());
        assert!(run.report.complete);
        assert!(
            run.values.iter().all(|v| *v == Some(9)),
            "retries must repair dropped deliveries"
        );
        assert!(run.metrics.retries >= 1);
        assert_eq!(run.metrics.retries, run.metrics.dropped_messages);
    }

    #[test]
    fn ft_broadcast_degrades_gracefully_when_root_dies() {
        let d = DualCube::new(2);
        let run = ft_broadcast(
            &d,
            4,
            1u8,
            &FaultPlan::new().node_crash(0, 4),
            RunConfig::default(),
        );
        assert!(run.values.iter().all(Option::is_none));
        assert!(!run.report.complete);
        assert_eq!(run.report.reached, 0);
    }

    #[test]
    fn ft_broadcast_past_kappa_serves_the_roots_component() {
        // Isolate node 0 by crashing its whole neighbourhood (= κ faults):
        // not guaranteed, but everyone in the big component is served.
        let d = DualCube::new(2);
        let nbrs = d.neighbors(0);
        let mut plan = FaultPlan::new();
        for &v in &nbrs {
            plan = plan.node_crash(0, v);
        }
        let root = (1..d.num_nodes()).find(|u| !nbrs.contains(u)).unwrap();
        let run = ft_broadcast(&d, root, 5u8, &plan, RunConfig::default());
        assert!(!run.report.guaranteed);
        assert!(!run.report.complete, "node 0 is cut off");
        assert_eq!(run.report.survivors - run.report.reached, 1);
        assert!(run.values[0].is_none());
        let served = run.values.iter().filter(|v| v.is_some()).count();
        assert_eq!(served, run.report.reached);
    }

    #[test]
    fn ft_prefix_no_faults_matches_sequential() {
        let d = DualCube::new(2);
        let input: Vec<Sum> = (1..=8).map(Sum).collect();
        let run = ft_d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            &FaultPlan::new(),
            RunConfig::default(),
        );
        let expect = sequential_prefix(&input, PrefixKind::Inclusive);
        for (i, p) in run.prefixes.iter().enumerate() {
            assert_eq!(p.as_ref().unwrap().0, expect[i].0, "position {i}");
        }
        assert!(run.report.complete);
        assert_eq!(run.metrics.retries, 0);
    }

    #[test]
    fn ft_prefix_skips_crashed_inputs_and_keeps_order() {
        // Non-commutative monoid: ordering bugs cannot hide.
        let d = DualCube::new(2);
        let input: Vec<Concat> = (0..8)
            .map(|i| Concat(char::from(b'a' + i as u8).to_string()))
            .collect();
        // Crash the node holding linear position 2.
        let victim = (0..8).find(|&u| d.linear_index(u) == 2).unwrap();
        let plan = FaultPlan::new().node_crash(0, victim);
        let run = ft_d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            &plan,
            RunConfig::default(),
        );
        assert!(run.report.complete);
        assert!(run.prefixes[2].is_none(), "the corpse gets no result");
        // Survivor sequence: a b d e f g h (c lost with its node).
        assert_eq!(run.prefixes[1].as_ref().unwrap().0, "ab");
        assert_eq!(run.prefixes[3].as_ref().unwrap().0, "abd");
        assert_eq!(run.prefixes[7].as_ref().unwrap().0, "abdefgh");
    }

    #[test]
    fn ft_prefix_diminished_variant() {
        let d = DualCube::new(2);
        let input: Vec<Sum> = (1..=8).map(Sum).collect();
        let plan = FaultPlan::new().node_crash(0, 3);
        let run = ft_d_prefix(
            &d,
            &input,
            PrefixKind::Diminished,
            &plan,
            RunConfig::default(),
        );
        let lost = d.linear_index(3);
        let survivors: Vec<Sum> = (0..8).filter(|&i| i != lost).map(|i| input[i]).collect();
        let expect = sequential_prefix(&survivors, PrefixKind::Diminished);
        let mut k = 0;
        for i in 0..8 {
            if i == lost {
                assert!(run.prefixes[i].is_none());
            } else {
                assert_eq!(run.prefixes[i].as_ref().unwrap().0, expect[k].0, "pos {i}");
                k += 1;
            }
        }
    }

    #[test]
    fn ft_prefix_all_failed_reports_instead_of_panicking() {
        let d = DualCube::new(2);
        let mut plan = FaultPlan::new();
        for u in 0..d.num_nodes() {
            plan = plan.node_crash(0, u);
        }
        let input: Vec<Sum> = (1..=8).map(Sum).collect();
        let run = ft_d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            &plan,
            RunConfig::default(),
        );
        assert!(run.report.all_failed);
        assert!(run.prefixes.iter().all(Option::is_none));
        assert_eq!(run.metrics.comm_steps, 0);
    }

    #[test]
    fn ft_prefix_link_faults_reroute() {
        let d = DualCube::new(2);
        let input: Vec<Sum> = (1..=8).map(Sum).collect();
        // Cut one cluster edge and one cross edge (< κ total faults
        // combined with zero node faults keeps the guarantee).
        let e1 = (0, d.cluster_neighbor(0, 0));
        let plan = FaultPlan::new().link_down(0, e1.0, e1.1);
        let run = ft_d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            &plan,
            RunConfig::default(),
        );
        assert!(run.report.guaranteed && run.report.complete);
        let expect = sequential_prefix(&input, PrefixKind::Inclusive);
        for (i, p) in run.prefixes.iter().enumerate() {
            assert_eq!(p.as_ref().unwrap().0, expect[i].0);
        }
    }

    #[test]
    fn ft_runs_report_dilation_over_the_fault_free_baseline() {
        let d = DualCube::new(3);
        let input: Vec<Sum> = (1..=32).map(Sum).collect();
        let plan = FaultPlan::new().node_crash(0, 7).node_crash(0, 20);
        let run = ft_d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            &plan,
            RunConfig::default(),
        );
        assert!(run.report.guaranteed);
        assert_eq!(
            run.metrics.dilation_hops,
            run.metrics
                .comm_steps
                .saturating_sub(theory::prefix_comm(3)),
        );
    }
}
