//! Scatter (one distinct value from the root to every node) in `2n`
//! communication steps — the broadcast schedule with splitting payloads.
//!
//! The routing invariant that makes the split local: the root-cluster
//! member responsible for delivering to destination `dst` sits at
//! intra-cluster position `part I(dst)` — for a class-1 destination that
//! is its cluster id (reached through the phase-2 cross-edge), and for a
//! class-0 destination its node id (reached back through the phase-4
//! cross-edge). The four phases mirror `broadcast`'s exactly, carrying
//! shrinking bags instead of one value. (Stated for a class-0 root; a
//! class-1 root swaps the roles of part I and part II throughout.)

use dc_simulator::{Machine, Metrics, ScheduleKey};
use dc_topology::{bits::bit, Class, DualCube, NodeId, Topology};

/// Per-node buffer: the `(destination, value)` pairs currently held.
#[derive(Debug, Clone)]
struct ScatterState<V> {
    items: Vec<(NodeId, V)>,
}

/// Result of a [`scatter`].
#[derive(Debug, Clone)]
pub struct ScatterRun<V> {
    /// The value each node ended up with, in node-id order.
    pub values: Vec<V>,
    /// Step counts: `2n` comm.
    pub metrics: Metrics,
}

/// Scatters `values[u] → node u` from `root` (which initially holds the
/// whole vector).
///
/// ```
/// use dc_core::collectives::scatter::scatter;
/// use dc_topology::DualCube;
///
/// let d = DualCube::new(2);
/// let values: Vec<u32> = (0..8).map(|u| u * 11).collect();
/// let run = scatter(&d, 3, &values);
/// assert_eq!(run.values, values);
/// assert_eq!(run.metrics.comm_steps, 4); // 2n
/// ```
pub fn scatter<V: Clone + Send + Sync + 'static>(
    d: &DualCube,
    root: NodeId,
    values: &[V],
) -> ScatterRun<V> {
    assert!(root < d.num_nodes(), "root {root} out of range");
    assert_eq!(values.len(), d.num_nodes(), "need one value per node");
    let root_class = d.class_of(root);
    let root_cluster = d.cluster_index(root);

    // The root-cluster position responsible for destination `dst`:
    // part I for a class-0 root (see module docs), part II for a class-1
    // root (symmetric).
    let resp = |dst: NodeId| -> usize {
        match root_class {
            Class::Zero => d.part1(dst),
            Class::One => d.part2(dst),
        }
    };
    // Within the opposite-class cluster, the scatter proceeds over that
    // class's node ids.
    let other_node_id = |u: NodeId| d.node_id(u);

    let mut states: Vec<ScatterState<V>> = (0..d.num_nodes())
        .map(|_| ScatterState { items: Vec::new() })
        .collect();
    states[root].items = values
        .iter()
        .enumerate()
        .map(|(dst, v)| (dst, v.clone()))
        .collect();
    let mut machine = Machine::new(d, states);

    // Phase 1: binomial scatter inside the root's cluster, over resp(dst).
    // Round i (high → low): a holder at position p passes on the items
    // whose responsible position differs from p at bit i (positions agree
    // with p above bit i by induction).
    machine.begin_phase("phase 1: binomial scatter in root cluster");
    for i in (0..d.cluster_dim()).rev() {
        machine.cycle(|c| {
            c.message(
                |u, st: &ScatterState<V>| {
                    if d.cluster_index(u) != root_cluster || st.items.is_empty() {
                        return None;
                    }
                    let p = d.node_id(u);
                    let outgoing: Vec<(NodeId, V)> = st
                        .items
                        .iter()
                        .filter(|(dst, _)| bit(resp(*dst), i) != bit(p, i))
                        .cloned()
                        .collect();
                    (!outgoing.is_empty()).then(|| (d.cluster_neighbor(u, i), outgoing))
                },
                |st, _, items: Vec<(NodeId, V)>| st.items.extend(items),
            )
            .words(|items| items.len() as u64)
            .keyed(ScheduleKey::Window { j: 1, hop: i as u8 })
        });
        // Senders drop what they passed on (local bookkeeping, free).
        machine.setup(|u, st| {
            if d.cluster_index(u) == root_cluster {
                let p = d.node_id(u);
                st.items.retain(|(dst, _)| bit(resp(*dst), i) == bit(p, i));
            }
        });
    }

    // Phase 2: each root-cluster member keeps its own item and crosses
    // with the rest.
    machine.begin_phase("phase 2: cross-edges out of root cluster");
    machine.cycle(|c| {
        c.message(
            |u, st: &ScatterState<V>| {
                if d.cluster_index(u) != root_cluster {
                    return None;
                }
                let outgoing: Vec<(NodeId, V)> = st
                    .items
                    .iter()
                    .filter(|(dst, _)| *dst != u)
                    .cloned()
                    .collect();
                (!outgoing.is_empty()).then(|| (d.cross_neighbor(u), outgoing))
            },
            |st, _, items: Vec<(NodeId, V)>| st.items.extend(items),
        )
        .words(|items| items.len() as u64)
        .keyed(ScheduleKey::Custom(2))
    });
    machine.setup(|u, st| {
        if d.cluster_index(u) == root_cluster {
            st.items.retain(|(dst, _)| *dst == u);
        }
    });

    // Phase 3: binomial scatter inside every opposite-class cluster, over
    // that class's node ids. The phase-2 cross-edges all land at the same
    // position — the root's cluster id — so every cluster runs the same
    // binomial tree in lockstep.
    machine.begin_phase("phase 3: binomial scatter in other-class clusters");
    for i in (0..d.cluster_dim()).rev() {
        machine.cycle(|c| {
            c.message(
                |u, st: &ScatterState<V>| {
                    if d.class_of(u) == root_class || st.items.is_empty() {
                        return None;
                    }
                    let p = other_node_id(u);
                    let outgoing: Vec<(NodeId, V)> = st
                        .items
                        .iter()
                        .filter(|(dst, _)| {
                            // Route over the destination's position within
                            // *this* class: its node id if it lives here, or
                            // its exit position (its part II under a class-0
                            // root) if it returns across in phase 4. Both are
                            // the same field:
                            let pos = match root_class {
                                Class::Zero => d.part2(*dst),
                                Class::One => d.part1(*dst),
                            };
                            bit(pos, i) != bit(p, i)
                        })
                        .cloned()
                        .collect();
                    (!outgoing.is_empty()).then(|| (d.cluster_neighbor(u, i), outgoing))
                },
                |st, _, items: Vec<(NodeId, V)>| st.items.extend(items),
            )
            .words(|items| items.len() as u64)
            .keyed(ScheduleKey::Window { j: 3, hop: i as u8 })
        });
        machine.setup(|u, st| {
            if d.class_of(u) != root_class {
                let p = other_node_id(u);
                st.items.retain(|(dst, _)| {
                    let pos = match root_class {
                        Class::Zero => d.part2(*dst),
                        Class::One => d.part1(*dst),
                    };
                    bit(pos, i) == bit(p, i)
                });
            }
        });
    }

    // Phase 4: deliver the returning items over the cross-edges.
    machine.begin_phase("phase 4: cross-edges back");
    machine.cycle(|c| {
        c.message(
            |u, st: &ScatterState<V>| {
                if d.class_of(u) == root_class {
                    return None;
                }
                let outgoing: Vec<(NodeId, V)> = st
                    .items
                    .iter()
                    .filter(|(dst, _)| *dst != u)
                    .cloned()
                    .collect();
                (!outgoing.is_empty()).then(|| (d.cross_neighbor(u), outgoing))
            },
            |st, _, items: Vec<(NodeId, V)>| st.items.extend(items),
        )
        .words(|items| items.len() as u64)
        .keyed(ScheduleKey::Custom(4))
    });
    machine.setup(|u, st| st.items.retain(|(dst, _)| *dst == u));

    let (states, metrics) = machine.into_parts();
    let values = states
        .into_iter()
        .enumerate()
        .map(|(u, st)| {
            assert_eq!(
                st.items.len(),
                1,
                "node {u} should hold exactly its own item"
            );
            assert_eq!(st.items[0].0, u);
            st.items.into_iter().next().unwrap().1
        })
        .collect();
    ScatterRun { values, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory;

    #[test]
    fn scatter_from_every_root() {
        for n in 1..=3u32 {
            let d = DualCube::new(n);
            let values: Vec<usize> = (0..d.num_nodes()).map(|u| u + 1000).collect();
            for root in 0..d.num_nodes() {
                let run = scatter(&d, root, &values);
                assert_eq!(run.values, values, "n={n} root={root}");
                assert_eq!(
                    run.metrics.comm_steps,
                    theory::collective_comm(n),
                    "n={n} root={root}"
                );
            }
        }
    }

    #[test]
    fn scatter_large_machine_sampled_roots() {
        let d = DualCube::new(4);
        let values: Vec<u16> = (0..d.num_nodes() as u16)
            .map(|u| u.wrapping_mul(37))
            .collect();
        for root in [0usize, 1, 63, 64, 100, 127] {
            let run = scatter(&d, root, &values);
            assert_eq!(run.values, values, "root={root}");
        }
    }

    #[test]
    fn scatter_then_gather_round_trips() {
        let d = DualCube::new(3);
        let values: Vec<String> = (0..32).map(|u| format!("item-{u}")).collect();
        let sc = scatter(&d, 17, &values);
        let ga = crate::collectives::gather::gather(&d, 17, &sc.values);
        assert_eq!(ga.values, values);
        // Round trip costs 2 × 2n.
        assert_eq!(
            sc.metrics.comm_steps + ga.metrics.comm_steps,
            2 * theory::collective_comm(3)
        );
    }

    #[test]
    #[should_panic(expected = "one value per node")]
    fn wrong_length_rejected() {
        scatter(&DualCube::new(2), 0, &[1, 2]);
    }
}
