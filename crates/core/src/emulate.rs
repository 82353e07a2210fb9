//! Technique 2 — emulating hypercube dimension exchanges on the dual-cube
//! (paper, Sections 4, 6 and 7).
//!
//! In the recursive presentation, `D_n` looks like a `(2n−1)`-dimensional
//! hypercube from which half of each dimension's edges are missing: a node
//! has the dimension-`j` edge (`j > 0`) only when `j`'s parity matches its
//! class. Any hypercube *ascend/descend* algorithm — one that repeatedly
//! pairs each node with its dimension-`j` partner — can therefore run on
//! `D_n`, paying 3 communication cycles instead of 1 for dimensions where
//! links are missing ("the overhead for the emulation will be 3 times of
//! the corresponding hypercube algorithm in the worst-case", Section 7).
//!
//! [`exchange_dim`] implements one such emulated pairwise exchange under
//! the 1-port model, using the 3-hop path of Algorithm 3,
//! `(u, ū_0), (ū_0, (ū_0)_j), ((ū_0)_j, ū_j)`, scheduled so that the
//! direct-edge half piggybacks its own exchange on the middle hop:
//!
//! * **cycle 1** — nodes *without* the dimension-`j` link send their value
//!   over the cross-edge (dimension 0);
//! * **cycle 2** — nodes *with* the link exchange along dimension `j`,
//!   each message carrying the sender's own value plus the value it is
//!   forwarding;
//! * **cycle 3** — the forwarded values return over the cross-edges,
//!   delivering to each linkless node exactly its partner's value.
//!
//! Every node sends ≤ 1 and receives ≤ 1 message per cycle — the simulator
//! verifies this every cycle, so the schedule itself is machine-checked.
//! Dimension 0 (the cross-edge, present everywhere) costs a single cycle.

use crate::ops::Monoid;
use crate::run::{lane_slab_into, refill};
use dc_simulator::{Machine, ScheduleKey};
use dc_topology::{bits::bit, NodeId, RecDualCube, Topology};

/// Per-node state for emulated dimension exchanges: the algorithm's value
/// plus the two transit buffers the 3-cycle schedule needs.
#[derive(Debug, Clone)]
pub struct EmuState<V> {
    /// The node's current value (key, block, accumulator, …).
    pub value: V,
    fwd: Option<V>,
    partner: Option<V>,
}

impl<V> EmuState<V> {
    /// Wraps an initial value.
    pub fn new(value: V) -> Self {
        EmuState {
            value,
            fwd: None,
            partner: None,
        }
    }
}

/// Builds a machine over the recursive presentation with `values[r]`
/// placed on recursive node `r`.
pub fn emu_machine<'t, V>(
    rec: &'t RecDualCube,
    values: Vec<V>,
) -> Machine<'t, RecDualCube, EmuState<V>> {
    Machine::new(rec, values.into_iter().map(EmuState::new).collect())
}

/// Communication cycles one emulated dimension-`j` exchange costs: 1 for
/// the cross-edge dimension, 3 for every other (Section 6: "a parallel
/// compare-and-exchange operation for all pairs of nodes at the `i`th
/// dimension takes three time-units").
pub fn dim_comm_cost(j: u32) -> u64 {
    if j == 0 {
        1
    } else {
        3
    }
}

/// One full pairwise exchange at dimension `j`: afterwards every node has
/// seen its partner's value and replaced its own with
/// `apply(node, own, partner)`. Costs [`dim_comm_cost`]`(j)` communication
/// cycles plus one computation cycle. Payloads are counted as one word
/// each; block algorithms use [`exchange_dim_sized`].
pub fn exchange_dim<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, RecDualCube, EmuState<V>>,
    j: u32,
    apply: impl Fn(NodeId, &V, &V) -> V + Sync,
) {
    exchange_dim_sized(machine, j, apply, |_| 1)
}

/// [`exchange_dim`] with explicit payload sizes: `size(value)` reports the
/// element count of a value in flight (e.g. the block length for
/// compare-split), feeding [`dc_simulator::Metrics::message_words`].
pub fn exchange_dim_sized<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, RecDualCube, EmuState<V>>,
    j: u32,
    apply: impl Fn(NodeId, &V, &V) -> V + Sync,
    size: impl Fn(&V) -> u64 + Sync,
) {
    let rec = *machine.topology();
    assert!(
        j < rec.dims(),
        "dimension {j} out of range for {}",
        rec.name()
    );
    if j == 0 {
        // Cross-edges exist at every node: a single cycle. The pattern
        // depends only on the topology, so sweeps replay it by key.
        machine.cycle(|c| {
            c.message(
                |r, st| Some((r ^ 1, st.value.clone())),
                |st, _, v| st.partner = Some(v),
            )
            .words(&size)
            .pairwise()
            .keyed(ScheduleKey::Cross)
        });
    } else {
        // Cycle 1: linkless nodes hand their value across dimension 0.
        machine.cycle(|c| {
            c.message(
                |r, st| (!rec.has_direct_edge(r, j)).then(|| (r ^ 1, st.value.clone())),
                |st, _, v| st.fwd = Some(v),
            )
            .words(&size)
            .keyed(ScheduleKey::Window { j, hop: 0 })
        });
        // Cycle 2: linked nodes exchange (own, forwarded) along dimension j.
        machine.cycle(|c| {
            c.message(
                |r, st| {
                    rec.has_direct_edge(r, j).then(|| {
                        (r ^ (1usize << j), {
                            (
                                st.value.clone(),
                                st.fwd.clone().expect("cycle 1 filled the forward buffer"),
                            )
                        })
                    })
                },
                |st, _, (own, fwd)| {
                    st.partner = Some(own);
                    st.fwd = Some(fwd);
                },
            )
            .words(|(a, b)| size(a) + size(b))
            .pairwise()
            .keyed(ScheduleKey::Window { j, hop: 1 })
        });
        // Cycle 3: forwarded values return across dimension 0; the
        // received value is exactly the linkless node's partner's value
        // (see the path algebra in the module docs).
        machine.cycle(|c| {
            c.message(
                |r, st| {
                    rec.has_direct_edge(r, j)
                        .then(|| (r ^ 1, st.fwd.clone().expect("cycle 2 refilled it")))
                },
                |st, _, v| st.partner = Some(v),
            )
            .words(&size)
            .keyed(ScheduleKey::Window { j, hop: 2 })
        });
        machine.setup(|_, st| st.fwd = None);
    }
    machine.compute(1, |r, st| {
        let partner = st
            .partner
            .take()
            .expect("every node heard from its partner");
        st.value = apply(r, &st.value, &partner);
    });
}

/// The lane slabs of emulated dimension exchanges over
/// [`Comm::rows`](dc_simulator::Comm::rows): K lanes per node of the
/// algorithm's value, the landing slab for the partner's value, and the
/// two forward slabs of the 3-cycle window. Row `r` of every slab holds
/// recursive node `r`'s K lanes (`slab[r*K..(r+1)*K]`). Two forward slabs
/// keep every cycle's sources and destinations apart: hop 0 fills
/// `fwd_a`, hop 1 moves `values → partner` and `fwd_a → fwd_b`, hop 2
/// moves `fwd_b → partner`.
///
/// Algorithm 3 runs on one set
/// ([`SortSlabs`](crate::sort::dualcube::SortSlabs)), which a caller
/// can keep from batch to batch. A set starts empty; every run reloads
/// the value slab and refills the other three the way a fresh set
/// starts, so a reused set carries nothing from one run to the next but
/// the capacity of the largest batch it has run.
#[derive(Debug, Clone)]
pub struct EmuSlabs<V> {
    lanes: usize,
    /// The current values: lane `k` of row `r` belongs to instance `k`.
    pub(crate) values: Vec<V>,
    partner: Vec<V>,
    fwd_a: Vec<V>,
    fwd_b: Vec<V>,
}

impl<V> Default for EmuSlabs<V> {
    fn default() -> Self {
        EmuSlabs {
            lanes: 0,
            values: Vec::new(),
            partner: Vec::new(),
            fwd_a: Vec::new(),
            fwd_b: Vec::new(),
        }
    }
}

impl<V: Clone> EmuSlabs<V> {
    /// Loads the value slab with the `K = inputs.len()` instances, lane
    /// `k` of row `r` holding `inputs[k][r]`.
    pub(crate) fn load(&mut self, inputs: &[impl AsRef<[V]>]) {
        self.lanes = inputs.len();
        lane_slab_into(&mut self.values, inputs, V::clone);
    }

    /// Sizes the partner and forward slabs to the value slab, each
    /// filled with its first value: a placeholder every live receiver
    /// overwrites before it is read, and the row a dropped message
    /// leaves behind.
    ///
    /// # Panics
    ///
    /// If the lane count is 0 or the value slab is empty or not a whole
    /// number of rows.
    pub(crate) fn reset(&mut self) {
        let (lanes, len) = (self.lanes, self.values.len());
        assert!(
            lanes > 0 && len > 0 && len.is_multiple_of(lanes),
            "need a non-empty slab of whole {lanes}-lane rows"
        );
        let seed = &self.values[0];
        for spare in [&mut self.partner, &mut self.fwd_a, &mut self.fwd_b] {
            refill(spare, len, seed.clone());
        }
    }
}

/// Slab counterpart of [`exchange_dim`]: one emulated dimension-`j`
/// exchange advancing all K lanes, then `apply(r, own, partner)` once per
/// node over its rows. The schedule is the single-lane one, cycle for
/// cycle and key for key ([`dim_comm_cost`]`(j)` cycles); each message
/// carries K words (2K on the window's middle hop, which moves two slab
/// pairs), so `message_words` scales exactly as K single-lane runs.
pub(crate) fn exchange_dim_rows<V: Clone + Send + Sync>(
    machine: &mut Machine<'_, RecDualCube, ()>,
    slabs: &mut EmuSlabs<V>,
    j: u32,
    apply: impl Fn(NodeId, &mut [V], &[V]) + Sync,
) {
    let rec = *machine.topology();
    assert!(
        j < rec.dims(),
        "dimension {j} out of range for {}",
        rec.name()
    );
    let EmuSlabs {
        lanes,
        values,
        partner,
        fwd_a,
        fwd_b,
    } = slabs;
    let lanes = *lanes;
    if j == 0 {
        machine.cycle(|c| {
            c.rows(lanes, |r, _| Some(r ^ 1), [(&values[..], &mut partner[..])])
                .pairwise()
                .keyed(ScheduleKey::Cross)
        });
    } else {
        // Cycle 1: linkless nodes hand their values across dimension 0.
        machine.cycle(|c| {
            c.rows(
                lanes,
                |r, _| (!rec.has_direct_edge(r, j)).then_some(r ^ 1),
                [(&values[..], &mut fwd_a[..])],
            )
            .keyed(ScheduleKey::Window { j, hop: 0 })
        });
        // Cycle 2: linked nodes exchange (own, forwarded) along dimension j.
        machine.cycle(|c| {
            c.rows(
                lanes,
                |r, _| rec.has_direct_edge(r, j).then(|| r ^ (1usize << j)),
                [
                    (&values[..], &mut partner[..]),
                    (&fwd_a[..], &mut fwd_b[..]),
                ],
            )
            .pairwise()
            .keyed(ScheduleKey::Window { j, hop: 1 })
        });
        // Cycle 3: forwarded values return across dimension 0.
        machine.cycle(|c| {
            c.rows(
                lanes,
                |r, _| rec.has_direct_edge(r, j).then_some(r ^ 1),
                [(&fwd_b[..], &mut partner[..])],
            )
            .keyed(ScheduleKey::Window { j, hop: 2 })
        });
    }
    machine.compute_rows(
        lanes,
        [&mut values[..]],
        [&partner[..]],
        |r, [own], [other]| apply(r, own, other),
    );
}

/// Per-node state for **lane-batched** emulated dimension exchanges: K
/// independent values in structure-of-arrays layout plus the two K-wide
/// transit buffers the 3-cycle schedule needs. Kept, with
/// [`batched_emu_machine`] and [`exchange_dim_lanes`], for the
/// repository benchmark's probes (`perfbench/src/probe.rs`); the batched
/// sort runs on lane slabs (DESIGN.md §10).
#[derive(Debug, Clone)]
pub struct BatchedEmuState<V> {
    /// The node's K current values, lane `k` belonging to instance `k`.
    pub values: Vec<V>,
    fwd: Vec<V>,
    partner: Vec<V>,
}

/// Builds a machine over the recursive presentation carrying K lanes per
/// node: `values[r]` (length K) is placed on recursive node `r`. Kept for
/// the repository benchmark's probes.
pub fn batched_emu_machine<'t, V: Clone>(
    rec: &'t RecDualCube,
    values: Vec<Vec<V>>,
    seed: &V,
) -> Machine<'t, RecDualCube, BatchedEmuState<V>> {
    let lanes = values.first().map(Vec::len).unwrap_or(0);
    Machine::new(
        rec,
        values
            .into_iter()
            .map(|v| {
                assert_eq!(v.len(), lanes, "every node must carry the same lane count");
                BatchedEmuState {
                    values: v,
                    fwd: vec![seed.clone(); lanes],
                    partner: vec![seed.clone(); lanes],
                }
            })
            .collect(),
    )
}

/// Lane-batched [`exchange_dim`], kept for the repository benchmark's
/// probes (the batched sort runs on lane slabs, DESIGN.md §10): one
/// emulated dimension-`j` exchange advancing all K lanes at once. The
/// schedule is identical to the single-lane one — the same
/// [`dim_comm_cost`]`(j)` cycles under the same [`ScheduleKey`]s — but
/// each cycle moves K values per message (cycle 2 of the 3-hop window
/// moves 2K: the sender's own K lanes plus the K it is forwarding), so
/// `message_words` scales exactly as K single-lane runs while the engine
/// overhead is paid once.
pub fn exchange_dim_lanes<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, RecDualCube, BatchedEmuState<V>>,
    j: u32,
    lanes: usize,
    seed: &V,
    apply: impl Fn(NodeId, &V, &V) -> V + Sync,
) {
    let rec = *machine.topology();
    assert!(
        j < rec.dims(),
        "dimension {j} out of range for {}",
        rec.name()
    );
    let swap_into = |buf: &mut [V], window: &mut [V]| {
        for (b, w) in buf.iter_mut().zip(window) {
            std::mem::swap(b, w);
        }
    };
    if j == 0 {
        machine.cycle(|c| {
            c.lanes(
                lanes,
                seed,
                |r, _| Some(r ^ 1),
                |_, st, window| window.clone_from_slice(&st.values),
                |st, _, window| swap_into(&mut st.partner, window),
            )
            .pairwise()
            .keyed(ScheduleKey::Cross)
        });
    } else {
        // Cycle 1: linkless nodes hand their K values across dimension 0.
        machine.cycle(|c| {
            c.lanes(
                lanes,
                seed,
                |r, _| (!rec.has_direct_edge(r, j)).then_some(r ^ 1),
                |_, st, window| window.clone_from_slice(&st.values),
                |st, _, window| swap_into(&mut st.fwd, window),
            )
            .keyed(ScheduleKey::Window { j, hop: 0 })
        });
        // Cycle 2: linked nodes exchange (own, forwarded) along dimension
        // j — 2K lanes per message, own values first.
        machine.cycle(|c| {
            c.lanes(
                2 * lanes,
                seed,
                |r, _| rec.has_direct_edge(r, j).then(|| r ^ (1usize << j)),
                |_, st, window| {
                    window[..lanes].clone_from_slice(&st.values);
                    window[lanes..].clone_from_slice(&st.fwd);
                },
                |st, _, window| {
                    let (own, fwd) = window.split_at_mut(lanes);
                    swap_into(&mut st.partner, own);
                    swap_into(&mut st.fwd, fwd);
                },
            )
            .pairwise()
            .keyed(ScheduleKey::Window { j, hop: 1 })
        });
        // Cycle 3: forwarded values return across dimension 0.
        machine.cycle(|c| {
            c.lanes(
                lanes,
                seed,
                |r, _| rec.has_direct_edge(r, j).then_some(r ^ 1),
                |_, st, window| window.clone_from_slice(&st.fwd),
                |st, _, window| swap_into(&mut st.partner, window),
            )
            .keyed(ScheduleKey::Window { j, hop: 2 })
        });
    }
    machine.compute(1, |r, st| {
        for k in 0..st.values.len() {
            st.values[k] = apply(r, &st.values[k], &st.partner[k]);
        }
    });
}

/// A full emulated **ascend** sweep (dimensions low → high), the shape of
/// prefix/reduction algorithms; `apply` is called per dimension as in
/// [`exchange_dim`].
pub fn ascend<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, RecDualCube, EmuState<V>>,
    apply: impl Fn(u32, NodeId, &V, &V) -> V + Sync,
) {
    let dims = machine.topology().dims();
    for j in 0..dims {
        exchange_dim(machine, j, |r, a, b| apply(j, r, a, b));
    }
}

/// Emulated all-reduce: after one ascend sweep combining both operands at
/// every node (in index order: the lower id's value on the left), every
/// node holds the fold of all `2^(2n−1)` values. A demonstration of
/// running a generic hypercube algorithm through the emulation layer; the
/// native collectives in [`crate::collectives`] beat it by ~3× — that gap
/// is experiment E9's point of comparison.
pub fn emulated_allreduce<M: Monoid>(
    rec: &RecDualCube,
    values: Vec<M>,
) -> (Vec<M>, dc_simulator::Metrics) {
    let mut machine = emu_machine(rec, values);
    ascend(&mut machine, |j, r, own, other| {
        if bit(r, j) {
            other.combine(own)
        } else {
            own.combine(other)
        }
    });
    let (states, metrics) = machine.into_parts();
    (states.into_iter().map(|st| st.value).collect(), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Sum};
    use dc_topology::Topology;

    #[test]
    fn exchange_dim_delivers_partner_values_every_dimension() {
        // After exchanging at dimension j with apply = "keep partner's
        // value", node r must hold the original value of r ^ (1 << j).
        for n in 1..=4u32 {
            let rec = RecDualCube::new(n);
            for j in 0..rec.dims() {
                let mut m = emu_machine(&rec, (0..rec.num_nodes()).collect::<Vec<_>>());
                exchange_dim(&mut m, j, |_, _, &p| p);
                let (states, metrics) = m.into_parts();
                for (r, st) in states.iter().enumerate() {
                    assert_eq!(st.value, r ^ (1 << j), "n={n} j={j} r={r}");
                }
                assert_eq!(metrics.comm_steps, dim_comm_cost(j), "n={n} j={j}");
                assert_eq!(metrics.comp_steps, 1);
            }
        }
    }

    #[test]
    fn apply_sees_own_and_partner_in_that_order() {
        let rec = RecDualCube::new(2);
        let values: Vec<Concat> = (0..8u8).map(|i| Concat(i.to_string())).collect();
        let mut m = emu_machine(&rec, values);
        exchange_dim(&mut m, 2, |_, own, other| {
            Concat(format!("{}|{}", own.0, other.0))
        });
        let (states, _) = m.into_parts();
        assert_eq!(states[0].value.0, "0|4");
        assert_eq!(states[4].value.0, "4|0");
    }

    #[test]
    fn ascend_touches_every_dimension_once() {
        let rec = RecDualCube::new(2);
        let mut m = emu_machine(&rec, vec![0u32; 8]);
        ascend(&mut m, |_, _, own, _| own + 10);
        // 2n−1 = 3 dims: dims 2 and 1 cost 3 cycles each, dim 0 costs 1.
        assert!(m.states().iter().all(|st| st.value == 30));
        assert_eq!(m.metrics().comm_steps, 2 * 3 + 1);
    }

    #[test]
    fn emulated_allreduce_totals_everything() {
        for n in 1..=3 {
            let rec = RecDualCube::new(n);
            let values: Vec<Sum> = (0..rec.num_nodes() as i64).map(Sum).collect();
            let expected: i64 = (0..rec.num_nodes() as i64).sum();
            let (out, metrics) = emulated_allreduce(&rec, values);
            assert!(out.iter().all(|s| s.0 == expected), "n={n}");
            // (2n−2) emulated dims at 3 cycles + the cross dim at 1.
            assert_eq!(metrics.comm_steps, 3 * (2 * n as u64 - 2) + 1);
        }
    }

    #[test]
    fn emulated_allreduce_preserves_index_order() {
        // With Concat, all-reduce must produce the same left-to-right word
        // at every node.
        let rec = RecDualCube::new(2);
        let values: Vec<Concat> = (0..8u8)
            .map(|i| Concat(((b'a' + i) as char).to_string()))
            .collect();
        let (out, _) = emulated_allreduce(&rec, values);
        for st in &out {
            assert_eq!(st.0, "abcdefgh");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_dimension_rejected() {
        let rec = RecDualCube::new(2);
        let mut m = emu_machine(&rec, vec![0u8; rec.num_nodes()]);
        exchange_dim(&mut m, 5, |_, &a, _| a);
    }

    #[test]
    fn lane_exchange_delivers_partner_values_every_dimension() {
        // Lane-batched analogue of the single-lane delivery test: with
        // apply = "keep partner", node r's lane k must hold the original
        // lane-k value of r ^ (1 << j), for every lane.
        let lanes = 3;
        for n in 1..=3u32 {
            let rec = RecDualCube::new(n);
            for j in 0..rec.dims() {
                let values: Vec<Vec<usize>> = (0..rec.num_nodes())
                    .map(|r| (0..lanes).map(|k| r * 10 + k).collect())
                    .collect();
                let mut m = batched_emu_machine(&rec, values, &0);
                exchange_dim_lanes(&mut m, j, lanes, &0, |_, _, &p| p);
                let (states, metrics) = m.into_parts();
                for (r, st) in states.iter().enumerate() {
                    let partner = r ^ (1 << j);
                    for k in 0..lanes {
                        assert_eq!(st.values[k], partner * 10 + k, "n={n} j={j} r={r} k={k}");
                    }
                }
                assert_eq!(metrics.comm_steps, dim_comm_cost(j), "n={n} j={j}");
                assert_eq!(metrics.comp_steps, 1);
            }
        }
    }

    #[test]
    fn row_exchange_delivers_partner_values_every_dimension() {
        // Slab analogue of the single-lane delivery test: with apply =
        // "keep partner", node r's lane k must hold the original lane-k
        // value of r ^ (1 << j), at the single-lane run's step counts.
        let lanes = 3;
        for n in 1..=3u32 {
            let rec = RecDualCube::new(n);
            for j in 0..rec.dims() {
                let inputs: Vec<Vec<usize>> = (0..lanes)
                    .map(|k| (0..rec.num_nodes()).map(|r| r * lanes + k).collect())
                    .collect();
                let mut slabs = EmuSlabs::default();
                slabs.load(&inputs);
                slabs.reset();
                let mut m = Machine::new(&rec, vec![(); rec.num_nodes()]);
                exchange_dim_rows(&mut m, &mut slabs, j, |_, own, other| {
                    own.clone_from_slice(other)
                });
                for (r, row) in slabs.values.chunks_exact(lanes).enumerate() {
                    let partner = r ^ (1 << j);
                    for (k, &v) in row.iter().enumerate() {
                        assert_eq!(v, partner * lanes + k, "n={n} j={j} r={r} k={k}");
                    }
                }
                assert_eq!(m.metrics().comm_steps, dim_comm_cost(j), "n={n} j={j}");
                assert_eq!(m.metrics().comp_steps, 1);
            }
        }
    }

    #[test]
    fn row_exchange_charges_k_single_runs_words() {
        // Every hop charges `lanes` words per message, and the middle hop
        // (two slab pairs) 2·lanes: K single-lane runs' words exactly.
        let lanes = 4;
        let rec = RecDualCube::new(2);
        let single = {
            let mut m = emu_machine(&rec, (0..rec.num_nodes()).collect::<Vec<_>>());
            exchange_dim(&mut m, 2, |_, _, &p| p);
            m.into_parts().1
        };
        let mut slabs = EmuSlabs::default();
        slabs.load(&vec![vec![0usize; rec.num_nodes()]; lanes]);
        slabs.reset();
        let mut m = Machine::new(&rec, vec![(); rec.num_nodes()]);
        exchange_dim_rows(&mut m, &mut slabs, 2, |_, own, other| {
            own.clone_from_slice(other)
        });
        let metrics = m.into_parts().1;
        assert_eq!(metrics.messages, single.messages);
        assert_eq!(metrics.message_words, single.message_words * lanes as u64);
    }

    #[test]
    fn lane_exchange_charges_k_words_per_message() {
        // Every hop of the emulated window must charge lanes words per
        // message (2·lanes on the piggyback hop), matching K single runs.
        let lanes = 4;
        let rec = RecDualCube::new(2);
        let single_words = {
            let mut m = emu_machine(&rec, (0..rec.num_nodes()).collect::<Vec<_>>());
            exchange_dim(&mut m, 2, |_, _, &p| p);
            m.into_parts().1.message_words
        };
        let values: Vec<Vec<usize>> = (0..rec.num_nodes()).map(|r| vec![r; lanes]).collect();
        let mut m = batched_emu_machine(&rec, values, &0);
        exchange_dim_lanes(&mut m, 2, lanes, &0, |_, _, &p| p);
        let metrics = m.into_parts().1;
        assert_eq!(metrics.message_words, single_words * lanes as u64);
    }
}
