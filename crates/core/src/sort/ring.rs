//! Odd-even transposition sort on the ring embedded in the dual-cube —
//! the low-tech baseline that shows *why* Algorithm 3 matters.
//!
//! [`dc_topology::hamiltonian::hamiltonian_cycle_rec`] embeds the
//! `N = 2^(2n−1)`-node ring into `D_n` with dilation 1, so the classic
//! odd-even transposition sort runs with every compare-exchange on a real
//! link: `N` rounds of alternating odd/even neighbour exchanges, 1
//! communication + 1 comparison step each. Correct and simple — and
//! exponentially slower than `D_sort`'s `6n²−7n+2` steps, which is the
//! comparison experiment E16 tabulates.

use crate::run::Run;
use crate::sort::SortOrder;
use dc_simulator::{Machine, ScheduleKey};
use dc_topology::hamiltonian::hamiltonian_cycle_rec;
use dc_topology::{NodeId, RecDualCube, Topology};

#[derive(Debug, Clone)]
struct RingState<K> {
    key: K,
    recv: Option<K>,
}

/// Sorts one key per node of `D_n` (`n ≥ 2`) by odd-even transposition
/// along the embedded Hamiltonian ring. `keys[p]` is the key at ring
/// *position* `p`; the output is likewise in ring-position order.
///
/// ```
/// use dc_core::sort::{ring::ring_sort, SortOrder};
/// use dc_topology::RecDualCube;
///
/// let rec = RecDualCube::new(2);
/// let run = ring_sort(&rec, &[5, 3, 8, 1, 9, 2, 7, 4], SortOrder::Ascending);
/// assert_eq!(run.output, vec![1, 2, 3, 4, 5, 7, 8, 9]);
/// assert_eq!(run.metrics.comm_steps, 8); // N rounds
/// ```
pub fn ring_sort<K: Ord + Clone + Send + Sync + 'static>(
    rec: &RecDualCube,
    keys: &[K],
    order: SortOrder,
) -> Run<K> {
    let n_nodes = rec.num_nodes();
    assert_eq!(
        keys.len(),
        n_nodes,
        "need one key per node of {}",
        rec.name()
    );
    let cycle = hamiltonian_cycle_rec(rec.n());
    // position_of[node] = ring position; node_at[pos] = node id.
    let mut position_of = vec![0usize; n_nodes];
    for (p, &node) in cycle.iter().enumerate() {
        position_of[node] = p;
    }

    // Place key for ring position p on node cycle[p].
    let mut states: Vec<Option<RingState<K>>> = vec![None; n_nodes];
    for (p, k) in keys.iter().enumerate() {
        states[cycle[p]] = Some(RingState {
            key: k.clone(),
            recv: None,
        });
    }
    let states: Vec<RingState<K>> = states
        .into_iter()
        .map(|s| s.expect("cycle covers all"))
        .collect();
    let mut machine = Machine::new(rec, states);

    // Classic odd-even transposition on the LINE 0..N−1 (the ring's wrap
    // edge is never used for compare-exchange: pairing positions N−1 and 0
    // would drag the minimum the wrong way around). Even rounds pair
    // (2i, 2i+1); odd rounds pair (2i+1, 2i+2), endpoints sitting out.
    let partner = |u: NodeId, parity: usize| -> Option<NodeId> {
        let p = position_of[u];
        if p % 2 == parity {
            (p + 1 < n_nodes).then(|| cycle[p + 1])
        } else {
            (p > 0).then(|| cycle[p - 1])
        }
    };
    // Only two communication patterns exist (odd and even rounds), so the
    // whole N-round sweep replays two compiled schedules.
    for round in 0..n_nodes {
        let parity = round % 2;
        machine.cycle(|c| {
            c.message(
                |u, st: &RingState<K>| partner(u, parity).map(|v| (v, st.key.clone())),
                |st, _, k| st.recv = Some(k),
            )
            .pairwise()
            .keyed(ScheduleKey::Custom(parity as u32))
        });
        machine.compute(1, |u, st| {
            let Some(other) = st.recv.take() else {
                return; // endpoint sitting this round out
            };
            let p = position_of[u];
            // The lower line position keeps the min (ascending).
            let i_am_low = p % 2 == parity;
            let keep_min = i_am_low != (order == SortOrder::Descending);
            let own_kept = if keep_min {
                st.key <= other
            } else {
                st.key >= other
            };
            if !own_kept {
                st.key = other;
            }
        });
    }

    let (states, metrics) = machine.into_parts();
    let mut output: Vec<Option<K>> = vec![None; n_nodes];
    for (u, st) in states.into_iter().enumerate() {
        output[position_of[u]] = Some(st.key);
    }
    Run {
        output: output.into_iter().map(|k| k.expect("bijection")).collect(),
        metrics,
        phases: Vec::new(),
        trace: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorts_small_rings_both_directions() {
        let rec = RecDualCube::new(2);
        let keys = vec![5, 3, 8, 1, 9, 2, 7, 4];
        let asc = ring_sort(&rec, &keys, SortOrder::Ascending);
        assert_eq!(asc.output, vec![1, 2, 3, 4, 5, 7, 8, 9]);
        let desc = ring_sort(&rec, &keys, SortOrder::Descending);
        assert_eq!(desc.output, vec![9, 8, 7, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn cost_is_n_rounds_each_single_hop() {
        for n in 2..=4u32 {
            let rec = RecDualCube::new(n);
            let keys: Vec<u32> = (0..rec.num_nodes() as u32).rev().collect();
            let run = ring_sort(&rec, &keys, SortOrder::Ascending);
            assert!(SortOrder::Ascending.is_sorted(&run.output));
            assert_eq!(run.metrics.comm_steps, rec.num_nodes() as u64, "n={n}");
            assert_eq!(run.metrics.comp_steps, rec.num_nodes() as u64);
        }
    }

    #[test]
    fn crossover_against_bitonic() {
        // The E16 point in miniature: N vs 6n²−7n+2. For tiny machines
        // the N-step ring sort is actually competitive (n = 3: 32 < 35);
        // from n = 4 the quadratic-in-log bitonic wins, exponentially.
        assert!((1u64 << 5) < crate::theory::sort_comm_exact(3));
        for n in 4..=8u32 {
            let ring_steps = 1u64 << (2 * n - 1);
            assert!(ring_steps > crate::theory::sort_comm_exact(n), "n={n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn sorts_random_keys(n in 2u32..=3, seed: u64) {
            let rec = RecDualCube::new(n);
            let mut x = seed | 1;
            let keys: Vec<u64> = (0..rec.num_nodes())
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 50
                })
                .collect();
            let run = ring_sort(&rec, &keys, SortOrder::Ascending);
            let mut expect = keys.clone();
            expect.sort();
            prop_assert_eq!(run.output, expect);
        }
    }
}
