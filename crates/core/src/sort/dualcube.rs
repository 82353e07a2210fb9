//! Algorithm 3 — `D_sort(D_n, tag)`: bitonic sort on the dual-cube in at
//! most `6n²` communication and `2n²` comparison steps (Theorem 2).
//!
//! ## The recursion, unrolled
//!
//! Positions are the **recursive-presentation** node ids of Section 4
//! (see [`dc_topology::RecDualCube`]). Algorithm 3 reads:
//!
//! 1. recursively sort the four sub-dual-cubes `D⁰⁰, D⁰¹, D¹⁰, D¹¹`
//!    ascending/descending for an even/odd copy index — so `D⁰⁰∪D⁰¹` and
//!    `D¹⁰∪D¹¹` each form a bitonic sequence;
//! 2. merge loop 1 — compare-exchange over dimensions `2n−3 … 0`, the
//!    lower half (`u_{2n−2} = 0`) ascending and the upper half descending,
//!    leaving the whole machine bitonic;
//! 3. merge loop 2 — compare-exchange over dimensions `2n−2 … 0` in the
//!    requested direction.
//!
//! Because all four recursive calls run on disjoint sub-dual-cubes *of the
//! same shape*, every level of the recursion executes the same dimension
//! schedule in lockstep across all sub-cubes; the implementation unrolls
//! the recursion into `n` levels. At level `ℓ < n` a sub-cube's direction
//! is its copy-index parity — which is exactly bit `2ℓ−1` of the node id —
//! and at level `n` it is the caller's `tag`:
//!
//! ```text
//! for ℓ = 1 … n:                        # sub-dual-cubes span bits 0 … 2ℓ−2
//!     for j = 2ℓ−3 … 0:                 # merge loop 1 (absent at ℓ = 1)
//!         keep-min at u  ⇔  u_j = u_{2ℓ−2}
//!     for j = 2ℓ−2 … 0:                 # merge loop 2
//!         keep-min at u  ⇔  u_j = dir(u),  dir = tag if ℓ = n else u_{2ℓ−1}
//! ```
//!
//! Each dimension-`j` round is an emulated compare-exchange (the 3-hop
//! window of [`crate::emulate`], over lane slabs): 1 cycle for `j = 0`,
//! 3 cycles otherwise, with the direct-edge half of the machine
//! piggybacking its exchange on the middle hop — the simulator verifies
//! 1-port legality of every cycle. Totals: `6n² − 7n + 2` communication
//! and `2n² − n` comparison steps exactly (within the theorem's
//! `6n²`/`2n²`).
//!
//! ## One body
//!
//! The network is written once, over lane slabs: the keys, the partner's
//! keys and the window's two forward buffers are each one `n × K` slab
//! whose row `r` holds recursive node `r`'s K lanes, together one
//! [`SortSlabs`] set. [`d_sort`] and [`batched_d_sort_reusing`] run the
//! body on a fresh set (one lane and K lanes), and
//! [`batched_d_sort_in_place`] on a set its caller keeps from batch to
//! batch. The Figure 5–6 panels come from an observer the body calls
//! after each merge loop. The middle hop moves two slab pairs, so a recorded
//! [`dc_simulator::Event::Cycle`] reports `lanes = 2` for it even at
//! K = 1 (2 words either way).

use crate::emulate::{exchange_dim_rows, EmuSlabs};
use crate::run::{lane_outputs, lane_outputs_into, PhaseSnapshot, Recording, Run};
use crate::sort::SortOrder;
use dc_simulator::{ExecMode, Machine, Metrics, ScheduleBank};
use dc_topology::{bits::bit, NodeId, RecDualCube, Topology};
use std::fmt;

/// Sorts one key per node of `D_n` (recursive presentation) with
/// Algorithm 3: the one-lane call of the body [`batched_d_sort_reusing`]
/// runs. The machine is built here with [`Machine::new`], so the default
/// backend, the ambient recorder and the replay default apply.
///
/// `keys[r]` starts on recursive node `r`; on return `output[r]` is the
/// key that node holds, sorted by recursive node id in `order`. Under
/// [`Recording::Phases`] the body's observer keeps every node's key
/// before the first level and after each merge loop.
///
/// ```
/// use dc_core::sort::{dualcube::d_sort, SortOrder};
/// use dc_core::run::Recording;
/// use dc_topology::RecDualCube;
///
/// let rec = RecDualCube::new(2); // 8 nodes, as in Figures 5 and 6
/// let run = d_sort(&rec, &[5, 3, 8, 1, 9, 2, 7, 4], SortOrder::Ascending, Recording::Off);
/// assert_eq!(run.output, vec![1, 2, 3, 4, 5, 7, 8, 9]);
/// assert_eq!(run.metrics.comm_steps, 12); // 6n²−7n+2 at n=2
/// assert_eq!(run.metrics.comp_steps, 6);  // 2n²−n at n=2
/// ```
pub fn d_sort<K: Ord + Clone + Send + Sync + 'static>(
    rec: &RecDualCube,
    keys: &[K],
    order: SortOrder,
    recording: Recording,
) -> Run<K> {
    assert_eq!(
        keys.len(),
        rec.num_nodes(),
        "need one key per node of {}",
        rec.name()
    );
    let mut machine = Machine::new(rec, vec![(); rec.num_nodes()]);
    if recording.tracing() {
        machine.enable_trace();
    }
    let mut phases = Vec::new();
    let mut slabs = SortSlabs::default();
    slabs.load(&[keys]);
    d_sort_body(&mut machine, &mut slabs, order, &mut |label, values| {
        if recording.enabled() {
            phases.push(PhaseSnapshot {
                label: label.to_string(),
                values: values.to_vec(),
            });
        }
    });
    let trace = machine
        .phased_trace()
        .iter()
        .map(|(_, msgs)| msgs.clone())
        .collect();
    Run {
        output: slabs.values,
        metrics: machine.into_parts().1,
        phases,
        trace,
    }
}

/// Result of a [`batched_d_sort`] run.
#[derive(Debug, Clone)]
pub struct BatchedSortRun<K> {
    /// `outputs[k][r]` — instance `k`'s key on recursive node `r`; each
    /// inner vector equals the `output` of a single-lane [`d_sort`] run
    /// on `keys[k]`.
    pub outputs: Vec<Vec<K>>,
    /// Step counts: identical to a single-lane run (`6n²−7n+2` comm,
    /// `2n²−n` comp) — the batch shares every schedule — with
    /// `message_words` scaled by the lane count.
    pub metrics: Metrics,
}

/// Sorts K independent key sets with Algorithm 3 on lane slabs: `keys[k]`
/// is instance `k`'s input (one key per recursive node). Every emulated
/// hop moves rows along one validated (or replayed) matching and every
/// compare-exchange runs K-wide over contiguous rows. It is the body
/// [`d_sort`] runs at K = 1 (see the module docs), so each instance's
/// output equals a [`d_sort`] run on it.
///
/// ```
/// use dc_core::sort::{dualcube::batched_d_sort, SortOrder};
/// use dc_topology::RecDualCube;
///
/// let rec = RecDualCube::new(2);
/// let keys = vec![vec![5, 3, 8, 1, 9, 2, 7, 4], vec![7, 7, 0, 2, 5, 1, 3, 6]];
/// let run = batched_d_sort(&rec, &keys, SortOrder::Ascending);
/// assert_eq!(run.outputs[0], vec![1, 2, 3, 4, 5, 7, 8, 9]);
/// assert_eq!(run.outputs[1], vec![0, 1, 2, 3, 5, 6, 7, 7]);
/// assert_eq!(run.metrics.comm_steps, 12); // shared across both lanes
/// ```
pub fn batched_d_sort<K: Ord + Clone + Send + Sync + 'static>(
    rec: &RecDualCube,
    keys: &[Vec<K>],
    order: SortOrder,
) -> BatchedSortRun<K> {
    batched_d_sort_reusing(
        rec,
        keys,
        order,
        ExecMode::default(),
        &mut ScheduleBank::new(),
    )
}

/// [`batched_d_sort`] with an explicit backend and a [`ScheduleBank`]:
/// the machine adopts the bank's compiled schedules before its first
/// cycle and donates them back (plus anything newly compiled) when the
/// run ends, so a serving fleet validates each of the `O(n²)` emulated
/// rounds once ever instead of once per request. Compiled schedules are
/// destination-only, so a bank warmed at one lane count serves any
/// other. Results are bit-identical to [`batched_d_sort`]; only
/// `schedule_misses` and wall-clock differ. A call allocates a fixed
/// number of buffers (a fresh [`SortSlabs`] set and the K outputs),
/// whatever the machine size; [`batched_d_sort_in_place`] allocates
/// neither.
pub fn batched_d_sort_reusing<K: Ord + Clone + Send + Sync + 'static>(
    rec: &RecDualCube,
    keys: &[Vec<K>],
    order: SortOrder,
    exec: ExecMode,
    bank: &mut ScheduleBank,
) -> BatchedSortRun<K> {
    let mut slabs = SortSlabs::default();
    load(rec, keys, &mut slabs);
    let metrics = run_batch(rec, &mut slabs, order, exec, bank);
    BatchedSortRun {
        outputs: lane_outputs(&slabs.values, keys.len()),
        metrics,
    }
}

/// [`batched_d_sort_reusing`] in place, on a slab set the caller keeps:
/// lane `k`'s input is `keys[k]` (one key per recursive node), and on
/// return `keys[k]` holds that instance's sorted keys. Results and
/// [`Metrics`] equal [`batched_d_sort_reusing`]'s on the same keys.
///
/// A warm call — a bank that has seen the shape, a set that has run a
/// batch at least as large — allocates no buffer that grows with the
/// lanes: the machine's per-node sender table is the one buffer sized by
/// the machine that it still allocates.
///
/// ```
/// use dc_core::sort::dualcube::{batched_d_sort_in_place, SortSlabs};
/// use dc_core::sort::SortOrder;
/// use dc_simulator::{ExecMode, ScheduleBank};
/// use dc_topology::RecDualCube;
///
/// let rec = RecDualCube::new(2);
/// let (mut bank, mut slabs) = (ScheduleBank::new(), SortSlabs::default());
/// let mut keys = vec![vec![5i64, 3, 8, 1, 9, 2, 7, 4], vec![7, 7, 0, 2, 5, 1, 3, 6]];
/// let metrics = batched_d_sort_in_place(&rec, &mut keys, SortOrder::Ascending,
///     ExecMode::Sequential, &mut bank, &mut slabs);
/// assert_eq!(keys[0], [1, 2, 3, 4, 5, 7, 8, 9]);
/// assert_eq!(keys[1], [0, 1, 2, 3, 5, 6, 7, 7]);
/// assert_eq!(metrics.comm_steps, 12); // 6n²−7n+2, shared by both lanes
/// ```
pub fn batched_d_sort_in_place<K: Ord + Clone + Send + Sync + 'static>(
    rec: &RecDualCube,
    keys: &mut [Vec<K>],
    order: SortOrder,
    exec: ExecMode,
    bank: &mut ScheduleBank,
    slabs: &mut SortSlabs<K>,
) -> Metrics {
    load(rec, keys, slabs);
    let metrics = run_batch(rec, slabs, order, exec, bank);
    lane_outputs_into(&slabs.values, keys, K::clone);
    metrics
}

/// Algorithm 3's lane slabs: the keys, the partner's keys and the
/// window's two forward buffers, one `n × K` slab each (see
/// [`EmuSlabs`]). A set starts empty ([`Default`]) and keeps the
/// capacity of the largest batch it has run.
pub type SortSlabs<K> = EmuSlabs<K>;

/// Checks the K instances and loads them into the set's key slab.
fn load<K: Clone>(rec: &RecDualCube, keys: &[Vec<K>], slabs: &mut SortSlabs<K>) {
    assert!(
        !keys.is_empty(),
        "a batched sort needs at least one instance"
    );
    for (k, instance) in keys.iter().enumerate() {
        assert_eq!(
            instance.len(),
            rec.num_nodes(),
            "instance {k}: need one key per node of {}",
            rec.name()
        );
    }
    slabs.load(keys);
}

/// Runs the body over a loaded set on a machine with backend `exec` that
/// adopts `bank`'s schedules first and donates them back after.
fn run_batch<K: Ord + Clone + Send + Sync + 'static>(
    rec: &RecDualCube,
    slabs: &mut SortSlabs<K>,
    order: SortOrder,
    exec: ExecMode,
    bank: &mut ScheduleBank,
) -> Metrics {
    let mut machine = Machine::with_exec(rec, vec![(); rec.num_nodes()], exec);
    machine.adopt_schedules(bank);
    d_sort_body(&mut machine, slabs, order, &mut |_, _| {});
    machine.donate_schedules(bank);
    machine.into_parts().1
}

/// Algorithm 3 on the K lanes of a loaded set: the unrolled recursion of
/// the module docs, leaving the sorted keys in its key slab. `observe`
/// sees the key slab before level 1 (`"input"`) and after each merge
/// loop.
fn d_sort_body<K: Ord + Clone + Send + Sync>(
    machine: &mut Machine<'_, RecDualCube, ()>,
    slabs: &mut SortSlabs<K>,
    order: SortOrder,
    observe: &mut impl FnMut(fmt::Arguments<'_>, &[K]),
) {
    let n = machine.topology().n();
    // The spare slabs start as in a fresh set, whatever an earlier batch
    // left in them.
    slabs.reset();
    observe(format_args!("input"), &slabs.values);
    for level in 1..=n {
        let top = 2 * level - 2; // highest dimension of this level's sub-cubes

        // Merge loop 1 (absent at level 1): make each sub-dual-cube one
        // bitonic sequence sorted ascending in its lower half and
        // descending in its upper half.
        if level >= 2 {
            machine.begin_phase(format!(
                "level {level}: merge loop 1 (dims {}..=0)",
                top - 1
            ));
            for j in (0..top).rev() {
                compare_rows(machine, slabs, j, move |r| bit(r, top));
            }
            observe(
                format_args!("level {level}: after merge loop 1"),
                &slabs.values,
            );
        }

        // Merge loop 2: sort each sub-dual-cube in its direction.
        machine.begin_phase(format!("level {level}: merge loop 2 (dims {top}..=0)"));
        let tag = order.tag();
        for j in (0..=top).rev() {
            compare_rows(machine, slabs, j, move |r| {
                if level == n {
                    tag
                } else {
                    bit(r, 2 * level - 1)
                }
            });
        }
        observe(
            format_args!("level {level}: after merge loop 2"),
            &slabs.values,
        );
    }
}

/// One emulated compare-exchange round over dimension `j`, all K lanes
/// at once; `descending(r)` is the merge direction at node `r`. In an
/// ascending region the node with bit `j` clear keeps the minimum. The
/// direction is one per node, so it is decided once, outside the lane
/// loop; on a tie a node keeps its own key.
fn compare_rows<K: Ord + Clone + Send + Sync>(
    machine: &mut Machine<'_, RecDualCube, ()>,
    slabs: &mut EmuSlabs<K>,
    j: u32,
    descending: impl Fn(NodeId) -> bool + Sync,
) {
    exchange_dim_rows(machine, slabs, j, |r, own, other| {
        if bit(r, j) == descending(r) {
            for (own, other) in own.iter_mut().zip(other) {
                if other < own {
                    own.clone_from(other);
                }
            }
        } else {
            for (own, other) in own.iter_mut().zip(other) {
                if other > own {
                    own.clone_from(other);
                }
            }
        }
    });
}

/// The plain-array model of the network that the integration tests use
/// as their oracle, included so it is written once.
#[cfg(test)]
#[path = "../../../../tests/support/mod.rs"]
mod support;

#[cfg(test)]
mod tests {
    use super::support::sort_network_model;
    use super::*;
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
    fn schedule_bank_reuse_is_bit_identical_and_skips_revalidation() {
        let rec = RecDualCube::new(2);
        let keys = vec![
            vec![13u32, 2, 8, 5, 1, 11, 3, 7],
            vec![6, 6, 0, 9, 4, 12, 2, 10],
        ];
        let baseline = batched_d_sort(&rec, &keys, SortOrder::Ascending);

        let mut bank = ScheduleBank::new();
        let first = batched_d_sort_reusing(
            &rec,
            &keys,
            SortOrder::Ascending,
            ExecMode::Sequential,
            &mut bank,
        );
        assert_eq!(first.outputs, baseline.outputs);
        assert!(first.metrics.schedule_misses > 0, "cold run compiles");

        let second = batched_d_sort_reusing(
            &rec,
            &keys,
            SortOrder::Ascending,
            ExecMode::Sequential,
            &mut bank,
        );
        assert_eq!(second.outputs, baseline.outputs);
        assert_eq!(
            second.metrics.schedule_misses, 0,
            "warm run revalidates nothing"
        );
    }

    #[test]
    fn sorts_figure_sized_instance_both_directions() {
        let rec = RecDualCube::new(2);
        let keys = vec![13, 2, 8, 5, 1, 11, 3, 7];
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let run = d_sort(&rec, &keys, order, Recording::Off);
            assert_eq!(run.output, sorted_copy(&keys, order), "{order:?}");
        }
    }

    #[test]
    fn theorem_two_exact_step_counts() {
        for n in 1..=5 {
            let rec = RecDualCube::new(n);
            let keys: Vec<u32> = (0..rec.num_nodes() as u32).rev().collect();
            let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
            assert_eq!(
                run.metrics.comm_steps,
                theory::sort_comm_exact(n),
                "comm n={n}"
            );
            assert_eq!(
                run.metrics.comp_steps,
                theory::sort_comp_exact(n),
                "comp n={n}"
            );
            assert!(run.metrics.comm_steps <= theory::sort_comm_bound(n));
            assert!(run.metrics.comp_steps <= theory::sort_comp_bound(n));
            assert!(SortOrder::Ascending.is_sorted(&run.output));
        }
    }

    #[test]
    fn base_case_d1() {
        let rec = RecDualCube::new(1);
        let run = d_sort(&rec, &[9, 4], SortOrder::Ascending, Recording::Off);
        assert_eq!(run.output, vec![4, 9]);
        assert_eq!(run.metrics.comm_steps, 1);
        let run = d_sort(&rec, &[4, 9], SortOrder::Descending, Recording::Off);
        assert_eq!(run.output, vec![9, 4]);
    }

    #[test]
    fn zero_one_principle_exhaustive_d2() {
        // All 256 0-1 inputs on D_2: proves the comparison network sorts
        // arbitrary keys on D_2.
        let rec = RecDualCube::new(2);
        for bits in 0u32..256 {
            let keys: Vec<u8> = (0..8).map(|i| ((bits >> i) & 1) as u8).collect();
            let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
            assert!(
                SortOrder::Ascending.is_sorted(&run.output),
                "failed on {bits:08b}"
            );
        }
    }

    #[test]
    fn duplicates_and_presorted_inputs() {
        let rec = RecDualCube::new(3);
        let sorted: Vec<u32> = (0..32).collect();
        let run = d_sort(&rec, &sorted, SortOrder::Ascending, Recording::Off);
        assert_eq!(run.output, sorted);
        let dups = vec![7u32; 32];
        let run = d_sort(&rec, &dups, SortOrder::Descending, Recording::Off);
        assert_eq!(run.output, dups);
    }

    #[test]
    fn recursive_invariant_holds_after_each_level() {
        // After level ℓ < n, every level-ℓ sub-dual-cube (2^(2ℓ−1)
        // contiguous recursive ids) must be sorted, ascending iff bit
        // 2ℓ−1 of its base id is 0 — exactly the precondition Algorithm 3's
        // recursion hands to the next level.
        let rec = RecDualCube::new(3);
        let keys: Vec<u32> = (0..32).map(|i| (i * 13 + 5) % 32).collect();
        let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Phases);
        for level in 1..3u32 {
            let label = format!("level {level}: after merge loop 2");
            let phase = run
                .phases
                .iter()
                .find(|p| p.label == label)
                .unwrap_or_else(|| panic!("missing phase {label}"));
            let block = 1usize << (2 * level - 1);
            for (b, chunk) in phase.values.chunks(block).enumerate() {
                let base = b * block;
                let order = if bit(base, 2 * level - 1) {
                    SortOrder::Descending
                } else {
                    SortOrder::Ascending
                };
                assert!(
                    order.is_sorted(chunk),
                    "level {level}, block at {base}: {chunk:?} not {order:?}"
                );
            }
        }
    }

    #[test]
    fn output_is_a_permutation_of_input() {
        let rec = RecDualCube::new(3);
        let keys: Vec<u32> = (0..32).map(|i| (i * 7) % 10).collect();
        let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(run.output, expect);
    }

    /// Keys that compare by `key` alone, so equal keys stay
    /// distinguishable by `tag`: a compare-exchange that swapped on a
    /// tie would show.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tagged {
        key: u8,
        tag: u16,
    }

    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    #[test]
    fn batched_ties_keep_the_single_runs_keys() {
        let rec = RecDualCube::new(3);
        let keys: Vec<Vec<Tagged>> = (0..3u16)
            .map(|k| {
                (0..32u16)
                    .map(|r| Tagged {
                        key: ((r * 5 + k) % 4) as u8,
                        tag: 100 * k + r,
                    })
                    .collect()
            })
            .collect();
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let run = batched_d_sort(&rec, &keys, order);
            for (k, instance) in keys.iter().enumerate() {
                let single = d_sort(&rec, instance, order, Recording::Off);
                assert_eq!(run.outputs[k], single.output, "lane {k} {order:?}");
                let model = sort_network_model(instance, rec.n(), order.tag());
                assert_eq!(run.outputs[k], model, "lane {k} {order:?} vs network model");
            }
        }
    }

    #[test]
    fn reused_slab_set_gives_a_fresh_calls_answers() {
        // One set carried through a wide, a narrow and a one-lane batch
        // on two machine sizes, in both orders. Tagged ties keep their
        // own key, so a spare slab left holding an earlier batch's rows
        // would show even where the keys compare equal.
        let mut slabs = SortSlabs::default();
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            for (n, lanes) in [(4u32, 16u16), (3, 3), (4, 1)] {
                let rec = RecDualCube::new(n);
                let keys: Vec<Vec<Tagged>> = (0..lanes)
                    .map(|k| {
                        (0..rec.num_nodes() as u16)
                            .map(|r| Tagged {
                                key: ((r * 5 + k) % 4) as u8,
                                tag: 1000 * k + r,
                            })
                            .collect()
                    })
                    .collect();
                let fresh = batched_d_sort_reusing(
                    &rec,
                    &keys,
                    order,
                    ExecMode::Sequential,
                    &mut ScheduleBank::new(),
                );
                let mut values = keys.clone();
                let metrics = batched_d_sort_in_place(
                    &rec,
                    &mut values,
                    order,
                    ExecMode::Sequential,
                    &mut ScheduleBank::new(),
                    &mut slabs,
                );
                let case = format!("{order:?} n={n} K={lanes}");
                assert_eq!(metrics, fresh.metrics, "{case}");
                assert_eq!(
                    batched_d_sort(&rec, &keys, order).outputs,
                    fresh.outputs,
                    "{case}"
                );
                for (k, instance) in keys.iter().enumerate() {
                    assert_eq!(values[k], fresh.outputs[k], "{case} lane {k}");
                    let model = sort_network_model(instance, n, order.tag());
                    assert_eq!(values[k], model, "{case} lane {k} vs network model");
                }
            }
        }
    }

    #[test]
    fn batched_matches_independent_single_lane_runs() {
        let rec = RecDualCube::new(3);
        let keys: Vec<Vec<u32>> = (0..4)
            .map(|k| (0..32).map(|r| (r * 11 + k * 17) % 37).collect())
            .collect();
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let run = batched_d_sort(&rec, &keys, order);
            for (k, instance) in keys.iter().enumerate() {
                let single = d_sort(&rec, instance, order, Recording::Off);
                assert_eq!(run.outputs[k], single.output, "lane {k} {order:?}");
                let model = sort_network_model(instance, rec.n(), order.tag());
                assert_eq!(run.outputs[k], model, "lane {k} {order:?} vs network model");
            }
            // The batch pays the single-lane schedule once; words scale
            // with the lane count.
            let single = d_sort(&rec, &keys[0], order, Recording::Off);
            assert_eq!(run.metrics.comm_steps, single.metrics.comm_steps);
            assert_eq!(run.metrics.comp_steps, single.metrics.comp_steps);
            assert_eq!(run.metrics.messages, single.metrics.messages);
            assert_eq!(run.metrics.message_words, 4 * single.metrics.message_words);
        }
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn batched_zero_instances_rejected() {
        batched_d_sort::<u32>(&RecDualCube::new(2), &[], SortOrder::Ascending);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn sorts_random_keys(n in 1u32..=4, seed: u64, descending: bool) {
            let rec = RecDualCube::new(n);
            let mut x = seed | 1;
            let keys: Vec<u64> = (0..rec.num_nodes())
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 1000
                })
                .collect();
            let order = if descending { SortOrder::Descending } else { SortOrder::Ascending };
            let run = d_sort(&rec, &keys, order, Recording::Off);
            prop_assert_eq!(run.output, sorted_copy(&keys, order));
        }
    }
}
