//! Bitonic sort on the hypercube (paper, Section 5) — the baseline
//! `D_sort` emulates.
//!
//! The recursion "sort the two half-cubes in opposite directions, then run
//! the descend merge" unrolls into the classic `m(m+1)/2`-step schedule:
//! for each stage `k = 0 … m−1`, merge blocks of `2^(k+1)` nodes by
//! compare-exchanging along dimensions `k, k−1, …, 0`. During stage `k`
//! the merge direction at node `u` is given by bit `k+1` of `u` (so that
//! adjacent blocks emerge sorted in opposite directions, forming the next
//! stage's bitonic inputs); the final stage uses the requested order.
//!
//! Every compare-exchange is one communication cycle (all links exist on
//! the hypercube) and one comparison cycle: `m(m+1)/2` of each.

use crate::run::{PhaseSnapshot, Run, RunConfig};
use crate::sort::SortOrder;
use dc_simulator::{Machine, ScheduleKey};
use dc_topology::{bits::bit, Hypercube, Topology};

/// Per-node state: the key plus the landing buffer.
#[derive(Debug, Clone)]
struct KeyState<K> {
    key: K,
    recv: Option<K>,
}

/// Sorts one key per node of `Q_m` with Batcher's bitonic schedule.
///
/// `keys[u]` starts on node `u`; on return `output[u]` is the key node `u`
/// holds, sorted by node id in `order`, on the machine `run` configures.
///
/// ```
/// use dc_core::sort::{hypercube::cube_bitonic_sort, SortOrder};
/// use dc_core::run::Recording;
/// use dc_topology::Hypercube;
///
/// let q = Hypercube::new(3);
/// let run = cube_bitonic_sort(&q, &[5, 3, 8, 1, 9, 2, 7, 4], SortOrder::Ascending, Recording::Off);
/// assert_eq!(run.output, vec![1, 2, 3, 4, 5, 7, 8, 9]);
/// assert_eq!(run.metrics.comm_steps, 6); // m(m+1)/2 = 3·4/2
/// ```
pub fn cube_bitonic_sort<K: Ord + Clone + Send + Sync + 'static>(
    q: &Hypercube,
    keys: &[K],
    order: SortOrder,
    run: impl Into<RunConfig>,
) -> Run<K> {
    assert_eq!(
        keys.len(),
        q.num_nodes(),
        "need one key per node of {}",
        q.name()
    );
    let m = q.dim();
    let states: Vec<KeyState<K>> = keys
        .iter()
        .map(|k| KeyState {
            key: k.clone(),
            recv: None,
        })
        .collect();
    let run = run.into();
    let recording = run.recording;
    let mut machine = run.machine(q, states);
    if recording.tracing() {
        machine.enable_trace();
    }
    let mut phases = Vec::new();
    let mut snap = |label: String, mach: &Machine<Hypercube, KeyState<K>>| {
        if recording.enabled() {
            phases.push(PhaseSnapshot {
                label,
                values: mach.states().iter().map(|s| s.key.clone()).collect(),
            });
        }
    };
    snap("input".into(), &machine);
    for k in 0..m {
        machine.begin_phase(format!("stage {k}: merge blocks of {}", 1usize << (k + 1)));
        for j in (0..=k).rev() {
            compare_exchange_round(&mut machine, j, |u| {
                if k + 1 == m {
                    order.tag()
                } else {
                    bit(u, k + 1)
                }
            });
        }
        snap(format!("after stage {k}"), &machine);
    }
    let trace = machine
        .phased_trace()
        .iter()
        .map(|(_, msgs)| msgs.clone())
        .collect();
    let (states, metrics) = machine.into_parts();
    Run {
        output: states.into_iter().map(|s| s.key).collect(),
        metrics,
        phases,
        trace,
    }
}

/// One compare-exchange round along dimension `j`; `descending(u)` gives
/// the merge direction at node `u` (`false` = ascending block). In an
/// ascending block the node with bit `j` clear keeps the minimum.
fn compare_exchange_round<K: Ord + Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, Hypercube, KeyState<K>>,
    j: u32,
    descending: impl Fn(usize) -> bool + Sync,
) {
    machine.cycle(|c| {
        c.message(
            |u, st| Some((u ^ (1usize << j), st.key.clone())),
            |st, _, k| st.recv = Some(k),
        )
        .pairwise()
        .keyed(ScheduleKey::Dim(j))
    });
    machine.compute(1, |u, st| {
        let other = st.recv.take().expect("pairwise reached every node");
        let keep_min = bit(u, j) == descending(u);
        let own_is_kept = if keep_min {
            st.key <= other
        } else {
            st.key >= other
        };
        if !own_is_kept {
            st.key = other;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Recording;
    use crate::theory;
    use proptest::prelude::*;

    fn sorted_copy<K: Ord + Clone + Send + Sync + 'static>(keys: &[K], order: SortOrder) -> Vec<K> {
        let mut v = keys.to_vec();
        v.sort();
        if order == SortOrder::Descending {
            v.reverse();
        }
        v
    }

    #[test]
    fn sorts_both_directions() {
        let q = Hypercube::new(4);
        let keys: Vec<i32> = (0..16).map(|i| (i * 7 + 3) % 16).collect();
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let run = cube_bitonic_sort(&q, &keys, order, Recording::Off);
            assert_eq!(run.output, sorted_copy(&keys, order));
        }
    }

    #[test]
    fn step_counts_match_section_five() {
        for m in 1..=7 {
            let q = Hypercube::new(m);
            let keys: Vec<u32> = (0..q.num_nodes() as u32).rev().collect();
            let run = cube_bitonic_sort(&q, &keys, SortOrder::Ascending, Recording::Off);
            assert_eq!(run.metrics.comm_steps, theory::cube_sort_steps(m), "m={m}");
            assert_eq!(run.metrics.comp_steps, theory::cube_sort_steps(m), "m={m}");
            assert!(SortOrder::Ascending.is_sorted(&run.output));
        }
    }

    #[test]
    fn duplicate_keys_handled() {
        let q = Hypercube::new(3);
        let keys = vec![2, 2, 1, 1, 3, 3, 2, 1];
        let run = cube_bitonic_sort(&q, &keys, SortOrder::Ascending, Recording::Off);
        assert_eq!(run.output, vec![1, 1, 1, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn zero_one_principle_exhaustive_q3() {
        // All 256 0-1 inputs on Q_3: by the 0-1 principle this proves the
        // comparison network sorts arbitrary keys on Q_3.
        let q = Hypercube::new(3);
        for bits in 0u32..256 {
            let keys: Vec<u8> = (0..8).map(|i| ((bits >> i) & 1) as u8).collect();
            let run = cube_bitonic_sort(&q, &keys, SortOrder::Ascending, Recording::Off);
            assert!(
                SortOrder::Ascending.is_sorted(&run.output),
                "failed on {bits:08b}"
            );
        }
    }

    #[test]
    fn recording_snapshots_stages() {
        let q = Hypercube::new(3);
        let keys = vec![5, 3, 8, 1, 9, 2, 7, 4];
        let run = cube_bitonic_sort(&q, &keys, SortOrder::Ascending, Recording::Phases);
        assert_eq!(run.phases.len(), 1 + 3); // input + one per stage
                                             // After stage k, blocks of 2^(k+1) are sorted alternately.
        let after0 = &run.phases[1].values;
        for b in 0..4 {
            let pair = &after0[2 * b..2 * b + 2];
            if b % 2 == 0 {
                assert!(pair[0] <= pair[1]);
            } else {
                assert!(pair[0] >= pair[1]);
            }
        }
    }

    proptest! {
        #[test]
        fn sorts_random_keys(m in 1u32..=6, seed: u64) {
            let q = Hypercube::new(m);
            let mut x = seed | 1;
            let keys: Vec<u64> = (0..q.num_nodes())
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 100
                })
                .collect();
            let run = cube_bitonic_sort(&q, &keys, SortOrder::Ascending, Recording::Off);
            prop_assert_eq!(run.output, sorted_copy(&keys, SortOrder::Ascending));
        }
    }
}
