//! All-to-one reduction on the dual-cube in `2n` communication steps —
//! the broadcast schedule run in reverse.
//!
//! For a root of class `X`:
//!
//! 1. every class-`X` node sends its contribution over its cross-edge;
//!    the class-`X̄` receivers fold it in — 1 step;
//! 2. binomial-tree reduction inside every class-`X̄` cluster towards the
//!    member whose cross-edge lands in the root's cluster — `n−1` steps;
//! 3. those representatives send the per-cluster partial over their
//!    cross-edges into the root's cluster — 1 step;
//! 4. binomial-tree reduction inside the root's cluster to the root —
//!    `n−1` steps.
//!
//! The combining order follows the topology, not the data order, so the
//! operation must be [`Commutative`].

use crate::ops::Commutative;
use dc_simulator::{Machine, Metrics, ScheduleKey};
use dc_topology::{DualCube, NodeId, Topology};

/// State: the node's remaining partial contribution (`None` once handed
/// off).
#[derive(Debug, Clone)]
struct ReduceState<M> {
    acc: Option<M>,
}

/// Result of a [`reduce`].
#[derive(Debug, Clone)]
pub struct ReduceRun<M> {
    /// The fold of all contributions, delivered at the root.
    pub result: M,
    /// Step counts: `2n` comm, `2n` comp.
    pub metrics: Metrics,
}

/// Reduces one contribution per node (in node-id order) to node `root`.
///
/// ```
/// use dc_core::collectives::reduce;
/// use dc_core::ops::Sum;
/// use dc_topology::DualCube;
///
/// let d = DualCube::new(3);
/// let values: Vec<Sum> = (0..32).map(Sum).collect();
/// let run = reduce(&d, 7, &values);
/// assert_eq!(run.result.0, (0..32).sum::<i64>());
/// assert_eq!(run.metrics.comm_steps, 6); // 2n
/// ```
pub fn reduce<M: Commutative>(d: &DualCube, root: NodeId, values: &[M]) -> ReduceRun<M> {
    assert!(root < d.num_nodes(), "root {root} out of range");
    assert_eq!(
        values.len(),
        d.num_nodes(),
        "need one contribution per node of {}",
        d.name()
    );
    let root_class = d.class_of(root);
    // The class-X̄ cluster member whose cross-edge lands in the root's
    // cluster sits at intra-cluster position = the root's cluster id.
    let rep_position = d.cluster_id(root);
    let root_node_id = d.node_id(root);

    let states: Vec<ReduceState<M>> = values
        .iter()
        .map(|v| ReduceState {
            acc: Some(v.clone()),
        })
        .collect();
    let mut machine = Machine::new(d, states);

    // Phase 1: class-X contributions hop across; receivers fold.
    machine.begin_phase("phase 1: root-class contributions cross over");
    machine.cycle(|c| {
        c.message(
            |u, st: &ReduceState<M>| {
                (d.class_of(u) == root_class)
                    .then(|| (d.cross_neighbor(u), st.acc.clone().expect("unspent")))
            },
            |st, _, v| {
                let own = st.acc.take().expect("unspent");
                st.acc = Some(own.combine(&v));
            },
        )
        .words(|m| m.words())
        .keyed(ScheduleKey::Custom(1))
    });
    machine.setup(|u, st| {
        if d.class_of(u) == root_class {
            st.acc = None;
        }
    });
    machine.compute_counted(1, (d.num_nodes() / 2) as u64, |_, _| {});

    // Phase 2: binomial reduction inside every class-X̄ cluster towards
    // `rep_position`. At round i, partials whose position differs from the
    // representative's exactly at bit i (and nowhere above) move.
    machine.begin_phase("phase 2: cluster reduction in other class");
    for i in (0..d.cluster_dim()).rev() {
        machine.cycle(|c| {
            c.message(
                |u, st: &ReduceState<M>| {
                    if d.class_of(u) == root_class {
                        return None;
                    }
                    let rel = d.node_id(u) ^ rep_position;
                    (rel >> i == 1).then(|| {
                        (
                            d.cluster_neighbor(u, i),
                            st.acc.clone().expect("still holding a partial"),
                        )
                    })
                },
                |st, _, v| {
                    let own = st.acc.take().expect("receiver holds a partial");
                    st.acc = Some(own.combine(&v));
                },
            )
            .words(|m| m.words())
            .keyed(ScheduleKey::Window { j: 2, hop: i as u8 })
        });
        machine.setup(|u, st| {
            if d.class_of(u) != root_class && (d.node_id(u) ^ rep_position) >> i == 1 {
                st.acc = None;
            }
        });
        machine.compute_counted(1, (d.num_nodes() >> (i + 2)).max(1) as u64, |_, _| {});
    }

    // Phase 3: per-cluster partials cross into the root's cluster.
    machine.begin_phase("phase 3: partials cross into root cluster");
    machine.cycle(|c| {
        c.message(
            |u, st: &ReduceState<M>| {
                (d.class_of(u) != root_class && d.node_id(u) == rep_position).then(|| {
                    (
                        d.cross_neighbor(u),
                        st.acc.clone().expect("cluster partial"),
                    )
                })
            },
            |st, _, v| {
                // Root-cluster members spent their own value in phase 1.
                debug_assert!(st.acc.is_none());
                st.acc = Some(v);
            },
        )
        .words(|m| m.words())
        .keyed(ScheduleKey::Custom(3))
    });
    machine.compute_counted(1, d.clusters_per_class() as u64, |_, _| {});

    // Phase 4: binomial reduction inside the root's cluster to the root.
    machine.begin_phase("phase 4: cluster reduction to root");
    for i in (0..d.cluster_dim()).rev() {
        machine.cycle(|c| {
            c.message(
                |u, st: &ReduceState<M>| {
                    if d.cluster_index(u) != d.cluster_index(root) {
                        return None;
                    }
                    let rel = d.node_id(u) ^ root_node_id;
                    (rel >> i == 1).then(|| {
                        (
                            d.cluster_neighbor(u, i),
                            st.acc.clone().expect("still holding a partial"),
                        )
                    })
                },
                |st, _, v| {
                    let own = st.acc.take().expect("receiver holds a partial");
                    st.acc = Some(own.combine(&v));
                },
            )
            .words(|m| m.words())
            .keyed(ScheduleKey::Window { j: 4, hop: i as u8 })
        });
        machine.compute_counted(1, 1 << i, |_, _| {});
    }

    let (mut states, metrics) = machine.into_parts();
    ReduceRun {
        result: states[root].acc.take().expect("root holds the fold"),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Max, Sum, Xor};
    use crate::theory;

    #[test]
    fn sums_to_every_root() {
        let d = DualCube::new(2);
        let values: Vec<Sum> = (1..=8).map(Sum).collect();
        for root in 0..d.num_nodes() {
            let run = reduce(&d, root, &values);
            assert_eq!(run.result.0, 36, "root {root}");
        }
    }

    #[test]
    fn step_count_is_twice_n() {
        for n in 1..=5 {
            let d = DualCube::new(n);
            let values: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
            let run = reduce(&d, 3 % d.num_nodes(), &values);
            assert_eq!(run.metrics.comm_steps, theory::collective_comm(n), "n={n}");
            assert_eq!(run.result.0, (0..d.num_nodes() as i64).sum::<i64>());
        }
    }

    #[test]
    fn other_commutative_ops() {
        let d = DualCube::new(3);
        let maxes: Vec<Max> = (0..32).map(|i| Max((i * 37) % 41)).collect();
        assert_eq!(
            reduce(&d, 11, &maxes).result.0,
            maxes.iter().map(|m| m.0).max().unwrap()
        );
        let xors: Vec<Xor> = (0..32).map(|i| Xor(i * i)).collect();
        assert_eq!(
            reduce(&d, 30, &xors).result.0,
            xors.iter().fold(0, |a, x| a ^ x.0)
        );
    }

    #[test]
    fn class_one_roots() {
        let d = DualCube::new(4);
        let values: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
        let root = d.num_nodes() - 5; // class 1
        let run = reduce(&d, root, &values);
        assert_eq!(run.result.0, (0..d.num_nodes() as i64).sum::<i64>());
    }

    #[test]
    #[should_panic(expected = "one contribution per node")]
    fn wrong_length_rejected() {
        reduce(&DualCube::new(2), 0, &[Sum(1); 3]);
    }
}
