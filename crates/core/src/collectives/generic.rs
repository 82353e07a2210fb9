//! Topology-agnostic collectives, for networks without a hand-crafted
//! schedule (Metacube, CCC, faulty machines, …).
//!
//! [`tree_broadcast`] floods a BFS spanning tree under the 1-port model:
//! per cycle every informed node forwards to at most one uninformed tree
//! child (deepest-subtree-first, so the critical path drains early). On
//! the dual-cube it needs more steps than the hand-crafted
//! [`broadcast()`](crate::collectives::broadcast::broadcast) (which exploits the perfect
//! cluster/cross transversality); the gap is part of experiment E16's
//! comparison. The point of the generic form is breadth: it runs on
//! *anything* that implements [`Topology`], including degraded
//! ([`dc_topology::faulty::Faulty`]) machines.

use dc_simulator::{Machine, Metrics};
use dc_topology::{graph, NodeId, Topology};

#[derive(Debug, Clone)]
struct TreeState<V> {
    value: Option<V>,
    /// Remaining tree children to serve, ordered by decreasing subtree
    /// depth.
    pending: Vec<NodeId>,
}

/// Result of a [`tree_broadcast`].
#[derive(Debug, Clone)]
pub struct TreeBroadcastRun<V> {
    /// The value at every node — `Some` for every node reachable from the
    /// root (all of them on a healthy connected machine), `None` for nodes
    /// cut off by faults.
    pub values: Vec<Option<V>>,
    /// Step counts; `comm_steps` is the schedule length.
    pub metrics: Metrics,
}

/// Broadcasts `value` from `root` over a BFS spanning tree of an arbitrary
/// topology, one send per informed node per cycle. Nodes unreachable from
/// the root (only possible on a faulty machine) are left at `None`.
///
/// ```
/// use dc_core::collectives::generic::tree_broadcast;
/// use dc_topology::Metacube;
///
/// let mc = Metacube::new(2, 2); // 1024 nodes, degree 4
/// let run = tree_broadcast(&mc, 7, 0xBEEFu16);
/// assert!(run.values.iter().all(|v| *v == Some(0xBEEF)));
/// ```
pub fn tree_broadcast<T: Topology + ?Sized + Sync, V: Clone + Send + Sync + 'static>(
    topo: &T,
    root: NodeId,
    value: V,
) -> TreeBroadcastRun<V> {
    let n = topo.num_nodes();
    assert!(root < n, "root {root} out of range");

    // Build the BFS tree and per-node child lists (unreachable nodes stay
    // outside the tree).
    let dist = graph::bfs_distances(topo, root);
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut nbrs = Vec::new();
    let mut parent = vec![usize::MAX; n];
    for u in 0..n {
        if u == root || dist[u] == u32::MAX {
            continue;
        }
        topo.neighbors_into(u, &mut nbrs);
        let p = *nbrs
            .iter()
            .find(|&&v| dist[v] != u32::MAX && dist[v] + 1 == dist[u])
            .expect("BFS predecessor exists");
        parent[u] = p;
        children[p].push(u);
    }
    // Subtree depth (longest downward path), for deepest-first ordering.
    let mut order: Vec<NodeId> = (0..n).filter(|&u| dist[u] != u32::MAX).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(dist[u]));
    let mut depth = vec![0u32; n];
    for &u in &order {
        if u != root {
            let p = parent[u];
            depth[p] = depth[p].max(depth[u] + 1);
        }
    }
    for ch in &mut children {
        ch.sort_by_key(|&c| std::cmp::Reverse(depth[c]));
    }

    let states: Vec<TreeState<V>> = (0..n)
        .map(|u| TreeState {
            value: (u == root).then(|| value.clone()),
            pending: children[u].clone(),
        })
        .collect();
    let mut machine = Machine::new(topo, states);
    // Deliberately unkeyed: the sender set changes every cycle (the
    // informed frontier grows), so no two cycles share a communication
    // pattern and there is nothing for the schedule cache to replay. This
    // is the dynamic-schedule case the unkeyed validation path (and its
    // parallel backend) exists for.
    loop {
        // Snapshot who sends this cycle, so that nodes informed *during*
        // the cycle don't have their child list popped without sending.
        let senders: Vec<bool> = machine
            .states()
            .iter()
            .map(|st| st.value.is_some() && !st.pending.is_empty())
            .collect();
        if !senders.iter().any(|&b| b) {
            break;
        }
        machine.cycle(|c| {
            c.message(
                |u, st: &TreeState<V>| {
                    senders[u].then(|| (st.pending[0], st.value.clone().expect("informed")))
                },
                |st, _, v| st.value = Some(v),
            )
        });
        machine.setup(|u, st| {
            if senders[u] {
                st.pending.remove(0);
            }
        });
    }
    let (states, metrics) = machine.into_parts();
    TreeBroadcastRun {
        values: states.into_iter().map(|st| st.value).collect(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_topology::faulty::Faulty;
    use dc_topology::{CubeConnectedCycles, DualCube, Hypercube, Metacube};

    #[test]
    fn reaches_every_node_on_every_topology() {
        let q = Hypercube::new(5);
        assert!(tree_broadcast(&q, 3, 1u8)
            .values
            .iter()
            .all(|&v| v == Some(1)));
        let d = DualCube::new(3);
        assert!(tree_broadcast(&d, 31, 2u8)
            .values
            .iter()
            .all(|&v| v == Some(2)));
        let c = CubeConnectedCycles::new(4);
        assert!(tree_broadcast(&c, 0, 3u8)
            .values
            .iter()
            .all(|&v| v == Some(3)));
        let mc = Metacube::new(2, 1);
        assert!(tree_broadcast(&mc, 5, 4u8)
            .values
            .iter()
            .all(|&v| v == Some(4)));
    }

    #[test]
    fn hypercube_tree_broadcast_matches_binomial_cost() {
        // On Q_m the deepest-first BFS-tree schedule achieves the binomial
        // lower bound of m steps.
        for m in 1..=6u32 {
            let q = Hypercube::new(m);
            let run = tree_broadcast(&q, 0, ());
            assert_eq!(run.metrics.comm_steps, m as u64, "Q_{m}");
        }
    }

    #[test]
    fn dual_cube_generic_vs_native() {
        // The hand-crafted broadcast (2n) can beat or match the generic
        // tree schedule; both must deliver everywhere.
        let d = DualCube::new(4);
        let generic = tree_broadcast(&d, 0, 9u8);
        let native = crate::collectives::broadcast(&d, 0, 9u8);
        assert!(generic.values.iter().all(|&v| v == Some(9)));
        assert!(native.values.iter().all(|&v| v == 9));
        assert!(native.metrics.comm_steps <= generic.metrics.comm_steps);
    }

    #[test]
    fn works_on_faulty_machines() {
        // Knock out two nodes of D_3 (< κ = 3): broadcast still reaches
        // every survivor; the failed nodes stay uninformed.
        let f = Faulty::new(DualCube::new(3), &[5, 20]);
        assert!(f.survivors_connected());
        let run = tree_broadcast(&f, 0, 7u8);
        for u in 0..f.num_nodes() {
            if f.is_failed(u) {
                assert_eq!(run.values[u], None, "failed node {u} informed");
            } else {
                assert_eq!(run.values[u], Some(7), "survivor {u} uninformed");
            }
        }
    }

    #[test]
    fn disconnected_survivors_stay_uninformed() {
        // Isolate node 3 of Q_2 by failing its two neighbours: it is a
        // healthy node the broadcast cannot reach.
        let f = Faulty::new(Hypercube::new(2), &[1, 2]);
        let run = tree_broadcast(&f, 0, 1u8);
        assert_eq!(run.values[0], Some(1));
        assert_eq!(run.values[3], None);
    }
}
