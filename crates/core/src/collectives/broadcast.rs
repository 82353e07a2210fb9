//! One-to-all broadcast on the dual-cube in `2n` communication steps
//! (= the network diameter).
//!
//! Technique-1 schedule, for a root of class `X`:
//!
//! 1. binomial-tree broadcast inside the root's cluster — `n−1` steps;
//! 2. every node of the root's cluster sends over its cross-edge — the
//!    root cluster's `2^(n−1)` members reach **one node in every cluster
//!    of the other class**, all at the same intra-cluster position — 1
//!    step;
//! 3. binomial-tree broadcast inside every class-`X̄` cluster
//!    simultaneously — `n−1` steps;
//! 4. every class-`X̄` node sends over its cross-edge, covering all
//!    remaining class-`X` nodes — 1 step.

use dc_simulator::{Machine, Metrics, ScheduleKey};
use dc_topology::{DualCube, NodeId, Topology};

/// State: the broadcast value once received.
#[derive(Debug, Clone)]
struct BcastState<V> {
    value: Option<V>,
}

/// Result of a [`broadcast`].
#[derive(Debug, Clone)]
pub struct BroadcastRun<V> {
    /// The value as held by every node (in node-id order) — all equal to
    /// the root's value.
    pub values: Vec<V>,
    /// Step counts: `2n` comm, 0 comp.
    pub metrics: Metrics,
}

/// Broadcasts `value` from node `root` to every node of `D_n`.
///
/// ```
/// use dc_core::collectives::broadcast;
/// use dc_topology::DualCube;
///
/// let d = DualCube::new(3);
/// let run = broadcast(&d, 13, "hello");
/// assert!(run.values.iter().all(|v| *v == "hello"));
/// assert_eq!(run.metrics.comm_steps, 6); // 2n
/// ```
pub fn broadcast<V: Clone + Send + Sync + 'static>(
    d: &DualCube,
    root: NodeId,
    value: V,
) -> BroadcastRun<V> {
    assert!(root < d.num_nodes(), "root {root} out of range");
    let root_class = d.class_of(root);
    let root_cluster = d.cluster_index(root);
    let mut states: Vec<BcastState<V>> = (0..d.num_nodes())
        .map(|_| BcastState { value: None })
        .collect();
    states[root].value = Some(value);
    let mut machine = Machine::new(d, states);

    // Phase 1: binomial tree inside the root's cluster. After round i,
    // the holders are the members whose node id differs from the root's
    // in bits < i+1 only, so each round exactly doubles the holder set.
    machine.begin_phase("phase 1: binomial tree in root cluster");
    for i in 0..d.cluster_dim() {
        machine.cycle(|c| {
            c.message(
                |u, st: &BcastState<V>| {
                    (d.cluster_index(u) == root_cluster && st.value.is_some())
                        .then(|| (d.cluster_neighbor(u, i), st.value.clone().unwrap()))
                },
                |st, _, v| st.value = Some(v),
            )
            .keyed(ScheduleKey::Window { j: 1, hop: i as u8 })
        });
    }

    // Phase 2: fan out over the cross-edges to one node of every
    // other-class cluster.
    machine.begin_phase("phase 2: cross-edges out of root cluster");
    machine.cycle(|c| {
        c.message(
            |u, st: &BcastState<V>| {
                (d.cluster_index(u) == root_cluster).then(|| {
                    (
                        d.cross_neighbor(u),
                        st.value.clone().expect("phase 1 filled the cluster"),
                    )
                })
            },
            |st, _, v| st.value = Some(v),
        )
        .keyed(ScheduleKey::Custom(2))
    });

    // Phase 3: binomial trees inside every other-class cluster at once.
    machine.begin_phase("phase 3: binomial trees in other-class clusters");
    for i in 0..d.cluster_dim() {
        machine.cycle(|c| {
            c.message(
                |u, st: &BcastState<V>| {
                    (d.class_of(u) != root_class && st.value.is_some())
                        .then(|| (d.cluster_neighbor(u, i), st.value.clone().unwrap()))
                },
                |st, _, v| st.value = Some(v),
            )
            .keyed(ScheduleKey::Window { j: 3, hop: i as u8 })
        });
    }

    // Phase 4: cross-edges back, covering the remaining root-class nodes.
    machine.begin_phase("phase 4: cross-edges back");
    machine.cycle(|c| {
        c.message(
            |u, st: &BcastState<V>| {
                (d.class_of(u) != root_class).then(|| {
                    (
                        d.cross_neighbor(u),
                        st.value.clone().expect("phase 3 filled the class"),
                    )
                })
            },
            |st, _, v| {
                if st.value.is_none() {
                    st.value = Some(v);
                }
            },
        )
        .keyed(ScheduleKey::Custom(4))
    });

    let (states, metrics) = machine.into_parts();
    BroadcastRun {
        values: states
            .into_iter()
            .map(|st| st.value.expect("broadcast reached every node"))
            .collect(),
        metrics,
    }
}

/// Result of a [`broadcast_large`].
#[derive(Debug, Clone)]
pub struct BroadcastLargeRun<V> {
    /// The full vector, one copy per node (in node-id order).
    pub values: Vec<Vec<V>>,
    /// Step counts: `4n` comm — but each link carries only `O(len/N)`
    /// words in the scatter and doubling shares in the all-gather, against
    /// plain broadcast's `len` words over every tree edge.
    pub metrics: Metrics,
}

/// Large-message broadcast by composition (scatter the shares, then
/// all-gather them) — the classic two-phase shape of bandwidth-aware
/// broadcasts. Twice the steps of the plain tree (`4n` vs `2n`); with
/// this crate's bag-based all-gather the *total* traffic stays comparable
/// to the plain tree's, but the load moves off the broadcast tree's edges
/// onto every link uniformly (the scatter halves the heaviest single-link
/// transfer). Mostly a demonstration that the collectives compose; the
/// honest word counts are in
/// [`Metrics::message_words`](dc_simulator::Metrics::message_words).
pub fn broadcast_large<V: Clone + Send + Sync + 'static>(
    d: &DualCube,
    root: crate::collectives::scatter::ScatterRun<V>,
) -> BroadcastLargeRun<V> {
    // This signature composes an already-run scatter; see
    // `broadcast_large_from` for the one-call form.
    let crate::collectives::scatter::ScatterRun { values, metrics } = root;
    let gathered = crate::collectives::gather::all_gather(d, &values);
    let mut total = metrics;
    total.absorb(&gathered.metrics);
    BroadcastLargeRun {
        values: gathered.values,
        metrics: total,
    }
}

/// One-call large-message broadcast: `root` holds `items` (length a
/// multiple of the node count conceptually; here one share per node).
pub fn broadcast_large_from<V: Clone + Send + Sync + 'static>(
    d: &DualCube,
    root: NodeId,
    items: &[V],
) -> BroadcastLargeRun<V> {
    assert_eq!(
        items.len(),
        d.num_nodes(),
        "broadcast_large distributes one share per node"
    );
    let scattered = crate::collectives::scatter::scatter(d, root, items);
    broadcast_large(d, scattered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory;

    #[test]
    fn reaches_every_node_from_every_root() {
        let d = DualCube::new(2);
        for root in 0..d.num_nodes() {
            let run = broadcast(&d, root, root);
            assert!(run.values.iter().all(|&v| v == root), "root {root}");
        }
    }

    #[test]
    fn step_count_is_twice_n() {
        for n in 1..=5 {
            let d = DualCube::new(n);
            let run = broadcast(&d, 0, 1u8);
            assert_eq!(run.metrics.comm_steps, theory::collective_comm(n), "n={n}");
            assert_eq!(run.metrics.comp_steps, 0);
        }
    }

    #[test]
    fn works_from_class_one_roots() {
        let d = DualCube::new(3);
        let root = d.num_nodes() - 1; // a class-1 node
        let run = broadcast(&d, root, "payload".to_string());
        assert!(run.values.iter().all(|v| v == "payload"));
    }

    #[test]
    fn phase_breakdown_matches_schedule() {
        let d = DualCube::new(3);
        let run = broadcast(&d, 5, 0u8);
        let comm: Vec<u64> = run.metrics.phases.iter().map(|p| p.comm_steps).collect();
        assert_eq!(comm, vec![2, 1, 2, 1]); // n−1, 1, n−1, 1
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_root_rejected() {
        broadcast(&DualCube::new(2), 99, 0u8);
    }

    #[test]
    fn large_broadcast_delivers_the_whole_vector_everywhere() {
        let d = DualCube::new(3);
        let items: Vec<u32> = (0..32).map(|i| i * 9 + 1).collect();
        let run = broadcast_large_from(&d, 13, &items);
        assert_eq!(
            run.metrics.comm_steps,
            2 * crate::theory::collective_comm(3)
        );
        for (u, got) in run.values.iter().enumerate() {
            assert_eq!(got, &items, "node {u}");
        }
    }

    #[test]
    fn large_broadcast_traffic_accounting_is_honest() {
        // Total words stay within a small constant of the plain tree's
        // N·(N−1); the composition's win is per-link spreading, not total
        // volume (see the doc comment).
        let d = DualCube::new(4);
        let n = d.num_nodes();
        let items: Vec<u64> = (0..n as u64).collect();
        let run = broadcast_large_from(&d, 0, &items);
        let plain_words = (n * (n - 1)) as u64;
        assert!(run.metrics.message_words > 0);
        assert!(
            run.metrics.message_words < 3 * plain_words,
            "{} vs plain {plain_words}",
            run.metrics.message_words
        );
    }
}
