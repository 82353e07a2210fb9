//! All-reduce (every node obtains the fold of all contributions) on the
//! dual-cube in `2n` communication steps — the same cluster/cross/cluster/
//! cross skeleton as `D_prefix` itself, and the clearest illustration of
//! Technique 1:
//!
//! 1. butterfly all-reduce inside every cluster (`n−1` steps): every node
//!    holds its **own cluster's total**;
//! 2. cross-edge exchange (1 step): every node also holds its cross
//!    neighbour's cluster total;
//! 3. butterfly all-reduce inside every cluster over the *received*
//!    totals (`n−1` steps): because the cross-edges of one cluster land in
//!    `2^(n−1)` distinct clusters of the other class, this combines all
//!    other-class cluster totals — every node now holds the **other
//!    class's grand total**;
//! 4. cross-edge exchange (1 step): partners swap grand totals, each node
//!    combines the two.
//!
//! Compare reduce + broadcast (`4n` steps) and the generic emulated
//! hypercube butterfly (`6n−5` steps): experiment E9 measures all three.

use crate::ops::Commutative;
use crate::run::RunConfig;
use dc_simulator::{Metrics, ScheduleBank, ScheduleKey};
use dc_topology::{DualCube, Topology};

#[derive(Debug, Clone)]
struct ArState<M> {
    /// Own-class running total (phase 1), then kept as the own-cluster →
    /// own-class contribution.
    own: M,
    /// Received cross value / other-class running total (phases 2–4).
    other: M,
    temp: Option<M>,
}

/// Result of an [`allreduce`].
#[derive(Debug, Clone)]
pub struct AllReduceRun<M> {
    /// The global fold, one copy per node (all equal).
    pub values: Vec<M>,
    /// Step counts: `2n` comm.
    pub metrics: Metrics,
}

/// All-reduce of one contribution per node (node-id order) on `D_n`.
///
/// ```
/// use dc_core::collectives::allreduce;
/// use dc_core::ops::Sum;
/// use dc_topology::DualCube;
///
/// let d = DualCube::new(3);
/// let values: Vec<Sum> = (0..32).map(Sum).collect();
/// let run = allreduce(&d, &values);
/// assert!(run.values.iter().all(|v| v.0 == (0..32).sum::<i64>()));
/// assert_eq!(run.metrics.comm_steps, 6); // 2n
/// ```
pub fn allreduce<M: Commutative>(d: &DualCube, values: &[M]) -> AllReduceRun<M> {
    allreduce_reusing(d, values, RunConfig::default(), &mut ScheduleBank::new())
}

/// [`allreduce`] with an explicit [`RunConfig`] and a [`ScheduleBank`]: the
/// machine adopts the bank's compiled schedules before its first cycle
/// and donates them back (plus anything newly compiled) when the run
/// ends, so a *sequence* of all-reduces — a serving fleet draining a
/// request queue — validates each pattern once ever instead of once per
/// run. Results are bit-identical to [`allreduce`]; only
/// `schedule_misses` and wall-clock differ.
pub fn allreduce_reusing<M: Commutative>(
    d: &DualCube,
    values: &[M],
    run: impl Into<RunConfig>,
    bank: &mut ScheduleBank,
) -> AllReduceRun<M> {
    assert_eq!(
        values.len(),
        d.num_nodes(),
        "need one contribution per node of {}",
        d.name()
    );
    let states: Vec<ArState<M>> = values
        .iter()
        .map(|v| ArState {
            own: v.clone(),
            other: M::identity(),
            temp: None,
        })
        .collect();
    let mut machine = run.into().machine(d, states);
    machine.adopt_schedules(bank);

    // Phase 1: butterfly all-reduce of `own` inside every cluster.
    // Phases 3 and 4 repeat the communication patterns of phases 1 and 2
    // exactly (same butterfly rounds, same cross pairwise), so they replay
    // the schedules compiled here.
    machine.begin_phase("phase 1: cluster all-reduce");
    for i in 0..d.cluster_dim() {
        machine.cycle(|c| {
            c.message(
                |u, st: &ArState<M>| Some((d.cluster_neighbor(u, i), st.own.clone())),
                |st, _, v| st.temp = Some(v),
            )
            .words(|m| m.words())
            .pairwise()
            .keyed(ScheduleKey::Dim(i))
        });
        machine.compute(1, |_, st| {
            let v = st.temp.take().expect("pairwise reached every node");
            st.own = st.own.combine(&v);
        });
    }

    // Phase 2: swap cluster totals over the cross-edges.
    machine.begin_phase("phase 2: cross exchange of cluster totals");
    machine.cycle(|c| {
        c.message(
            |u, st: &ArState<M>| Some((d.cross_neighbor(u), st.own.clone())),
            |st, _, v| st.other = v,
        )
        .words(|m| m.words())
        .pairwise()
        .keyed(ScheduleKey::Cross)
    });

    // Phase 3: butterfly all-reduce of the received totals — yields the
    // other class's grand total at every node.
    machine.begin_phase("phase 3: cluster all-reduce of received totals");
    for i in 0..d.cluster_dim() {
        machine.cycle(|c| {
            c.message(
                |u, st: &ArState<M>| Some((d.cluster_neighbor(u, i), st.other.clone())),
                |st, _, v| st.temp = Some(v),
            )
            .words(|m| m.words())
            .pairwise()
            .keyed(ScheduleKey::Dim(i))
        });
        machine.compute(1, |_, st| {
            let v = st.temp.take().expect("pairwise reached every node");
            st.other = st.other.combine(&v);
        });
    }

    // Phase 4: swap grand totals and combine.
    machine.begin_phase("phase 4: cross exchange of grand totals");
    machine.cycle(|c| {
        c.message(
            |u, st: &ArState<M>| Some((d.cross_neighbor(u), st.other.clone())),
            |st, _, v| st.temp = Some(v),
        )
        .words(|m| m.words())
        .pairwise()
        .keyed(ScheduleKey::Cross)
    });
    machine.compute(1, |_, st| {
        let own_class_total = st.temp.take().expect("pairwise reached every node");
        st.own = own_class_total.combine(&st.other);
    });

    machine.donate_schedules(bank);
    let (states, metrics) = machine.into_parts();
    AllReduceRun {
        values: states.into_iter().map(|st| st.own).collect(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Max, Sum};
    use crate::theory;
    use dc_simulator::ExecMode;

    #[test]
    fn every_node_gets_the_global_sum() {
        for n in 1..=4 {
            let d = DualCube::new(n);
            let values: Vec<Sum> = (0..d.num_nodes() as i64).map(|x| Sum(x * 3 - 5)).collect();
            let expected: i64 = values.iter().map(|s| s.0).sum();
            let run = allreduce(&d, &values);
            assert!(run.values.iter().all(|v| v.0 == expected), "n={n}");
            assert_eq!(run.metrics.comm_steps, theory::collective_comm(n), "n={n}");
        }
    }

    #[test]
    fn max_allreduce() {
        let d = DualCube::new(3);
        let values: Vec<Max> = (0..32).map(|i| Max((i * 29) % 53)).collect();
        let expected = values.iter().map(|m| m.0).max().unwrap();
        let run = allreduce(&d, &values);
        assert!(run.values.iter().all(|v| v.0 == expected));
    }

    #[test]
    fn beats_reduce_plus_broadcast_and_emulation() {
        // The E9 comparison in miniature: 2n < 4n < 6n−5 for n ≥ 3.
        for n in 3..=6u32 {
            let native = theory::collective_comm(n);
            let reduce_bcast = 2 * theory::collective_comm(n);
            let emulated = 3 * (2 * n as u64 - 2) + 1;
            assert!(native < reduce_bcast);
            assert!(reduce_bcast < emulated);
        }
    }

    #[test]
    #[should_panic(expected = "one contribution per node")]
    fn wrong_length_rejected() {
        allreduce(&DualCube::new(2), &[Sum(1); 4]);
    }

    #[test]
    fn schedule_bank_reuse_is_bit_identical_and_skips_revalidation() {
        let d = DualCube::new(3);
        let values: Vec<Sum> = (0..d.num_nodes() as i64).map(|x| Sum(x * 11 - 9)).collect();
        let baseline = allreduce(&d, &values);

        let mut bank = ScheduleBank::new();
        let first = allreduce_reusing(&d, &values, ExecMode::Sequential, &mut bank);
        assert_eq!(first.values, baseline.values);
        assert!(first.metrics.schedule_misses > 0, "cold run compiles");

        let second = allreduce_reusing(&d, &values, ExecMode::Sequential, &mut bank);
        assert_eq!(second.values, baseline.values);
        assert_eq!(
            second.metrics.schedule_misses, 0,
            "warm run revalidates nothing"
        );
        assert_eq!(
            second.metrics.schedule_hits,
            first.metrics.schedule_hits + first.metrics.schedule_misses
        );
    }
}
