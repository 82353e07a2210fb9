//! Generic emulated dimension exchanges on the **metacube** `MC(k, m)` —
//! the `k`-generalisation of [`crate::emulate`] (which is the `k = 1`
//! case in the dual-cube's recursive coordinates).
//!
//! One dimension-`j` window costs
//! [`crate::prefix::metacube::mc_dim_comm_cost`]: 1 cycle for a class
//! dimension (a real cross-edge everywhere), `2k+1` cycles for a field
//! dimension (binomial gather over the class k-cube onto the owning
//! class's companions, one real exchange, binomial scatter back). Every
//! cycle is 1-port-validated by the simulator.
//!
//! Built on this, any hypercube dimension-exchange algorithm runs on any
//! metacube; [`crate::sort::metacube::mc_sort`] is bitonic sort through
//! this layer, and at `k = 1` reproduces Theorem 2's step counts exactly.

use dc_simulator::{Machine, ScheduleKey};
use dc_topology::{Metacube, NodeId, Topology};

/// Per-node state: the algorithm's value plus the window's transit
/// buffers.
#[derive(Debug, Clone)]
pub struct McEmuState<V> {
    /// The node's current value.
    pub value: V,
    bag: Vec<(usize, V)>,
    recv: Option<V>,
}

/// Builds a machine over `MC(k, m)` with `values[u]` on node `u`.
pub fn mc_machine<'t, V>(mc: &'t Metacube, values: Vec<V>) -> Machine<'t, Metacube, McEmuState<V>> {
    Machine::new(
        mc,
        values
            .into_iter()
            .map(|value| McEmuState {
                value,
                bag: Vec::new(),
                recv: None,
            })
            .collect(),
    )
}

/// One full pairwise exchange at raw-address dimension `j`: afterwards
/// every node has seen its dimension-`j` partner's value and replaced its
/// own with `apply(node, own, partner)`. `size` reports payload words per
/// value (use `|_| 1` for scalars).
pub fn mc_exchange_dim<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, Metacube, McEmuState<V>>,
    j: u32,
    apply: impl Fn(NodeId, &V, &V) -> V + Sync,
    size: impl Fn(&V) -> u64 + Sync,
) {
    let mc = *machine.topology();
    assert!(
        j < mc.address_bits(),
        "dimension {j} out of range for {}",
        mc.name()
    );
    let k = mc.k();
    let m = mc.m();
    if j < k {
        // Class dimension: direct cross-edges everywhere.
        machine.cycle(|c| {
            c.message(
                |u, st: &McEmuState<V>| Some((mc.cross_neighbor(u, j), st.value.clone())),
                |st, _, v| st.recv = Some(v),
            )
            .words(&size)
            .pairwise()
            .keyed(ScheduleKey::Dim(j))
        });
    } else {
        let f = ((j - k) / m) as usize;
        let bit_in_field = (j - k) % m;
        machine.setup(|u, st| {
            st.bag = vec![(mc.class_of(u), st.value.clone())];
        });
        // Inbound binomial gather over the class k-cube towards class f.
        // Hop patterns depend only on (f, stage), not on which bit of the
        // field is exchanged — same key scheme as `prefix::metacube`.
        for i in 0..k {
            machine.cycle(|c| {
                c.message(
                    |u, st: &McEmuState<V>| {
                        let rel = mc.class_of(u) ^ f;
                        (rel != 0 && rel.trailing_zeros() == i && !st.bag.is_empty())
                            .then(|| (mc.cross_neighbor(u, i), st.bag.clone()))
                    },
                    |st, _, bag: Vec<(usize, V)>| st.bag.extend(bag),
                )
                .words(|bag| bag.iter().map(|(_, v)| size(v)).sum())
                .keyed(ScheduleKey::Window {
                    j: f as u32,
                    hop: i as u8,
                })
            });
            machine.setup(|u, st| {
                let rel = mc.class_of(u) ^ f;
                if rel != 0 && rel.trailing_zeros() == i {
                    st.bag.clear();
                }
            });
        }
        // Real exchange between class-f companions.
        machine.cycle(|c| {
            c.message(
                |u, st| {
                    (mc.class_of(u) == f && !st.bag.is_empty())
                        .then(|| (mc.cube_neighbor(u, bit_in_field), st.bag.clone()))
                },
                |st, _, bag: Vec<(usize, V)>| st.bag = bag,
            )
            .words(|bag| bag.iter().map(|(_, v)| size(v)).sum())
            .pairwise()
            .keyed(ScheduleKey::Dim(j))
        });
        machine.setup(|u, st| {
            if mc.class_of(u) == f {
                let mine = st
                    .bag
                    .iter()
                    .find(|(c, _)| *c == f)
                    .expect("partner bag carries every class")
                    .1
                    .clone();
                st.recv = Some(mine);
            }
        });
        // Outbound binomial scatter of the partner bag.
        for i in (0..k).rev() {
            machine.cycle(|c| {
                c.message(
                    |u, st: &McEmuState<V>| {
                        let rel = mc.class_of(u) ^ f;
                        if rel & ((1 << (i + 1)) - 1) != 0 || st.bag.is_empty() {
                            return None;
                        }
                        let outgoing: Vec<(usize, V)> = st
                            .bag
                            .iter()
                            .filter(|(c, _)| (c ^ f) >> i & 1 == 1)
                            .cloned()
                            .collect();
                        (!outgoing.is_empty()).then(|| (mc.cross_neighbor(u, i), outgoing))
                    },
                    |st, _, bag: Vec<(usize, V)>| st.bag = bag,
                )
                .words(|bag| bag.iter().map(|(_, v)| size(v)).sum())
                .keyed(ScheduleKey::Window {
                    j: f as u32,
                    hop: (k + i) as u8,
                })
            });
            machine.setup(|u, st| {
                let rel = mc.class_of(u) ^ f;
                if rel & ((1 << (i + 1)) - 1) == 0 {
                    st.bag.retain(|(c, _)| (c ^ f) >> i & 1 == 0);
                } else if rel & ((1 << i) - 1) == 0 && st.recv.is_none() {
                    if let Some((_, v)) = st.bag.iter().find(|(c, _)| *c == mc.class_of(u)) {
                        st.recv = Some(v.clone());
                    }
                }
            });
        }
        machine.setup(|_, st| st.bag.clear());
    }
    machine.compute(1, |u, st| {
        let partner = st.recv.take().expect("window delivered to every node");
        st.value = apply(u, &st.value, &partner);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::metacube::mc_dim_comm_cost;

    #[test]
    fn delivers_partner_values_on_every_dimension() {
        for (k, m) in [(0u32, 3u32), (1, 2), (2, 1), (2, 2)] {
            let mc = Metacube::new(k, m);
            for j in 0..mc.address_bits() {
                let mut machine = mc_machine(&mc, (0..mc.num_nodes()).collect::<Vec<_>>());
                mc_exchange_dim(&mut machine, j, |_, _, &p| p, |_| 1);
                let (states, metrics) = machine.into_parts();
                for (u, st) in states.iter().enumerate() {
                    assert_eq!(st.value, u ^ (1 << j), "MC({k},{m}) j={j} u={u}");
                }
                assert_eq!(
                    metrics.comm_steps,
                    mc_dim_comm_cost(k, j < k),
                    "MC({k},{m}) j={j}"
                );
            }
        }
    }

    #[test]
    fn apply_sees_operands_in_order() {
        let mc = Metacube::new(2, 1);
        let values: Vec<String> = (0..mc.num_nodes()).map(|u| u.to_string()).collect();
        let mut machine = mc_machine(&mc, values);
        let j = mc.address_bits() - 1; // a field dimension
        mc_exchange_dim(
            &mut machine,
            j,
            |_, own, other| format!("{own}|{other}"),
            |_| 1,
        );
        let (states, _) = machine.into_parts();
        let flip = 1usize << j;
        assert_eq!(states[0].value, format!("0|{flip}"));
        assert_eq!(states[flip].value, format!("{flip}|0"));
    }
}
