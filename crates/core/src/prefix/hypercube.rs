//! Algorithm 1 — `Cube_prefix(Q_m, c, tag)`: parallel (or diminished)
//! prefix on the hypercube.
//!
//! The classic *ascend* algorithm: each node keeps a running subcube total
//! `t` and subcube prefix `s`, and sweeps the dimensions from 0 to `m−1`.
//! After the dimension-`i` round, `t[u]` is the total of the `2^(i+1)`-node
//! subcube spanned by bits `0..=i` around `u`, and `s[u]` is `u`'s prefix
//! within that subcube. The exchange sends `t` both ways across the
//! dimension; the node on the high side (`u > ū_i`, i.e. bit `i` of `u`
//! set) folds the low half's total into both `t` and `s`, the low side
//! only into `t` — with the incoming total applied on the **left**, so
//! non-commutative operations combine in index order.
//!
//! Cost: `m` communication steps and `m` computation steps.
//!
//! One body runs the algorithm for every caller: [`cube_prefix`] is its
//! one-lane call and [`batched_cube_prefix`] its K-lane call. Each paper
//! variable is one `n × K` lane slab (row `u` holds node `u`'s K lanes),
//! so a round is one pair-fold cycle over the `t` and `s` slabs
//! ([`dc_simulator::Comm::fold_pairs`]): the round's matching is a bit
//! flip ([`dc_simulator::Flip`]), and each pair folds once, in place,
//! with both ends' pre-round `t` rows in hand.

use crate::ops::Monoid;
use crate::prefix::PrefixKind;
use crate::run::{lane_outputs, lane_slab, PhaseSnapshot, RunConfig};
use dc_simulator::{Flip, Machine, Metrics, ScheduleKey};
use dc_topology::{Hypercube, Topology};
use std::fmt;

/// Result of a [`cube_prefix`] run.
#[derive(Debug, Clone)]
pub struct CubePrefixRun<M> {
    /// `s[u]` for every node, in node-id order (which *is* data order on
    /// the hypercube).
    pub prefixes: Vec<M>,
    /// The grand total `c\[0\] ⊕ … ⊕ c[2^m − 1]`, as held (identically) by
    /// every node on completion.
    pub total: M,
    /// Step counts: `m` comm, `m` comp.
    pub metrics: Metrics,
    /// Optional per-round `(t, s)` snapshots.
    pub phases: Vec<PhaseSnapshot<(M, M)>>,
}

/// Runs Algorithm 1 on `Q_m` with one input value per node: the
/// one-lane call of the body [`batched_cube_prefix`] runs, on the machine
/// `run` configures. Under `Recording::Phases` the body's observer keeps
/// `(t, s)` of every node before the first round and after each one.
///
/// ```
/// use dc_core::prefix::{hypercube::cube_prefix, PrefixKind};
/// use dc_core::ops::Sum;
/// use dc_core::run::Recording;
/// use dc_topology::Hypercube;
///
/// let q = Hypercube::new(3);
/// let input: Vec<Sum> = (1..=8).map(Sum).collect();
/// let run = cube_prefix(&q, &input, PrefixKind::Inclusive, Recording::Off);
/// assert_eq!(run.prefixes.last().unwrap().0, 36);
/// assert_eq!(run.metrics.comm_steps, 3);
/// assert_eq!(run.metrics.comp_steps, 3);
/// ```
pub fn cube_prefix<M: Monoid>(
    q: &Hypercube,
    input: &[M],
    kind: PrefixKind,
    run: impl Into<RunConfig>,
) -> CubePrefixRun<M> {
    assert_eq!(
        input.len(),
        q.num_nodes(),
        "need one input value per node of {}",
        q.name()
    );
    let run = run.into();
    let recording = run.recording;
    let mut machine = run.machine(q, vec![(); q.num_nodes()]);
    let mut phases = Vec::new();
    let [t, s] = cube_prefix_body(&mut machine, &[input], kind, &mut |label, [t, s]| {
        if recording.enabled() {
            phases.push(PhaseSnapshot {
                label: label.to_string(),
                values: t.iter().cloned().zip(s.iter().cloned()).collect(),
            });
        }
    });
    CubePrefixRun {
        prefixes: s,
        total: t[0].clone(),
        metrics: machine.into_parts().1,
        phases,
    }
}

/// Result of a [`batched_cube_prefix`] run.
#[derive(Debug, Clone)]
pub struct BatchedCubePrefixRun<M> {
    /// `prefixes[k][u]` — instance `k`'s prefix at node `u`; each inner
    /// vector equals the `prefixes` of a single-lane [`cube_prefix`] run
    /// on `inputs[k]`.
    pub prefixes: Vec<Vec<M>>,
    /// `totals[k]` — instance `k`'s grand total.
    pub totals: Vec<M>,
    /// Step counts: still `m` comm and `m` comp — the batch shares one
    /// schedule per round — with `message_words` scaled by K.
    pub metrics: Metrics,
}

/// Runs K independent instances of Algorithm 1 on lane slabs:
/// `inputs[k]` is instance `k`'s input (one value per node). Each paper
/// variable (`t` and `s`) is one `n × K` slab whose row `u` holds node
/// `u`'s K lanes, so every round is one pair-fold cycle
/// ([`dc_simulator::Comm::fold_pairs`]): the `t` rows travel between
/// partners and each pair folds both ends' `t` and `s` rows in the same
/// pass. [`cube_prefix`] is the same body at K = 1, so lane `k` equals a
/// [`cube_prefix`] run on `inputs[k]`.
///
/// ```
/// use dc_core::prefix::{hypercube::batched_cube_prefix, PrefixKind};
/// use dc_core::ops::Sum;
/// use dc_topology::Hypercube;
///
/// let q = Hypercube::new(3);
/// let inputs: Vec<Vec<Sum>> = (0..4)
///     .map(|k| (1..=8).map(|x| Sum(x * (k + 1))).collect())
///     .collect();
/// let run = batched_cube_prefix(&q, &inputs, PrefixKind::Inclusive);
/// assert_eq!(run.totals[0].0, 36);
/// assert_eq!(run.totals[3].0, 4 * 36);
/// assert_eq!(run.metrics.comm_steps, 3); // shared across all 4 lanes
/// assert_eq!(run.metrics.message_words, 4 * run.metrics.messages);
/// ```
pub fn batched_cube_prefix<M: Monoid>(
    q: &Hypercube,
    inputs: &[Vec<M>],
    kind: PrefixKind,
) -> BatchedCubePrefixRun<M> {
    let lanes = inputs.len();
    assert!(lanes > 0, "a batched prefix needs at least one instance");
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            input.len(),
            q.num_nodes(),
            "instance {k}: need one input value per node of {}",
            q.name()
        );
    }
    let mut machine = Machine::new(q, vec![(); q.num_nodes()]);
    let [t, s] = cube_prefix_body(&mut machine, inputs, kind, &mut |_, _| {});
    BatchedCubePrefixRun {
        prefixes: lane_outputs(&s, lanes),
        totals: t[..lanes].to_vec(),
        metrics: machine.into_parts().1,
    }
}

/// Algorithm 1 on `K = inputs.len()` lanes: the ascend sweep over
/// dimensions `0 … m−1`, returning the final `[t, s]` slabs. `observe`
/// sees `[t, s]` before the first round (`"init"`) and after each
/// (`"after dimension i"`).
fn cube_prefix_body<M: Monoid>(
    machine: &mut Machine<'_, Hypercube, ()>,
    inputs: &[impl AsRef<[M]>],
    kind: PrefixKind,
    observe: &mut impl FnMut(fmt::Arguments<'_>, [&[M]; 2]),
) -> [Vec<M>; 2] {
    let (q, lanes) = (machine.topology(), inputs.len());
    let mut t = lane_slab(inputs);
    let mut s = match kind {
        PrefixKind::Inclusive => t.clone(),
        PrefixKind::Diminished => vec![M::identity(); t.len()],
    };
    observe(format_args!("init"), [&t, &s]);
    for i in 0..q.dim() {
        machine.begin_phase(format!("dimension {i}"));
        ascend_rows(machine, lanes, i, Flip::uniform(i), [&mut t, &mut s]);
        observe(format_args!("after dimension {i}"), [&t, &s]);
    }
    [t, s]
}

/// One round of the ascend sweep over lane slabs, all K lanes at once,
/// as one pair-fold cycle (keyed [`ScheduleKey::Dim`]`(i)`) on the pairs
/// of `flip`, folded by [`ascend_fold`]. Algorithm 1 runs the round
/// across dimension `i`; Algorithm 2's steps 1 and 3 run every cluster
/// dimension's round as one sweep (see `prefix::dualcube`).
pub(crate) fn ascend_rows<T: Topology + Sync, M: Monoid>(
    machine: &mut Machine<'_, T, ()>,
    lanes: usize,
    i: u32,
    flip: Flip,
    slabs: [&mut [M]; 2],
) {
    machine.cycle(|c| {
        c.fold_pairs(lanes, flip, slabs, ascend_fold)
            .keyed(ScheduleKey::Dim(i))
    });
}

/// The ascend round's fold on runs of pairs of `t` and `s` rows: the
/// `t` rows travel both ways, and each pair folds in place. The pair's
/// high end (its flipped bit set: the partner's half precedes it in
/// index order, the paper's "if `u > ū_i`") takes the low end's total on
/// the left of both `t` and `s`; the low end takes the high end's total
/// on the right of `t`. Both new totals are the same value, so it is
/// combined once. Element `j` of a low run pairs with element `j` of the
/// high run, so one zip covers every lane of every pair in the run.
pub(crate) fn ascend_fold<M: Monoid>(
    [lo_t, _]: [&mut [M]; 2],
    [hi_t, hi_s]: [&mut [M]; 2],
    got: [bool; 2],
) {
    match got {
        [true, true] => {
            let pairs = lo_t.iter_mut().zip(hi_t.iter_mut()).zip(hi_s);
            for ((lo_t, hi_t), hi_s) in pairs {
                *hi_s = lo_t.combine(hi_s);
                *hi_t = lo_t.combine(hi_t);
                lo_t.clone_from(hi_t);
            }
        }
        [true, false] => {
            for (lo_t, hi_t) in lo_t.iter_mut().zip(hi_t.iter()) {
                *lo_t = lo_t.combine(hi_t);
            }
        }
        [false, true] => {
            for ((lo_t, hi_t), hi_s) in lo_t.iter().zip(hi_t.iter_mut()).zip(hi_s) {
                *hi_s = lo_t.combine(hi_s);
                *hi_t = lo_t.combine(hi_t);
            }
        }
        [false, false] => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Mat2, Sum};
    use crate::prefix::sequential_prefix;
    use crate::run::Recording;
    use proptest::prelude::*;

    fn check<M: Monoid + PartialEq + std::fmt::Debug>(m: u32, input: Vec<M>, kind: PrefixKind) {
        let q = Hypercube::new(m);
        let run = cube_prefix(&q, &input, kind, Recording::Off);
        assert_eq!(run.prefixes, sequential_prefix(&input, kind));
        assert_eq!(run.metrics.comm_steps, m as u64);
        assert_eq!(run.metrics.comp_steps, m as u64);
    }

    #[test]
    fn inclusive_sums_match_reference() {
        for m in 1..=6 {
            let input: Vec<Sum> = (0..(1i64 << m)).map(|x| Sum(3 * x - 7)).collect();
            check(m, input, PrefixKind::Inclusive);
        }
    }

    #[test]
    fn diminished_sums_match_reference() {
        for m in 1..=6 {
            let input: Vec<Sum> = (0..(1i64 << m)).map(|x| Sum(x * x)).collect();
            check(m, input, PrefixKind::Diminished);
        }
    }

    #[test]
    fn noncommutative_concat_orders_correctly() {
        // One distinct letter per node: the final prefix must spell the
        // alphabet in index order.
        let input: Vec<Concat> = (0..16u8)
            .map(|i| Concat(((b'a' + i) as char).to_string()))
            .collect();
        let q = Hypercube::new(4);
        let run = cube_prefix(&q, &input, PrefixKind::Inclusive, Recording::Off);
        assert_eq!(run.prefixes[15].0, "abcdefghijklmnop");
        assert_eq!(run.prefixes[4].0, "abcde");
        assert_eq!(run.total.0, "abcdefghijklmnop");
    }

    #[test]
    fn total_is_global_fold() {
        let input: Vec<Sum> = (1..=32).map(Sum).collect();
        let run = cube_prefix(
            &Hypercube::new(5),
            &input,
            PrefixKind::Diminished,
            Recording::Off,
        );
        assert_eq!(run.total.0, (1..=32).sum::<i64>());
        // Diminished prefix of node 0 is the identity.
        assert_eq!(run.prefixes[0].0, 0);
    }

    #[test]
    fn recording_captures_every_round() {
        let input: Vec<Sum> = (0..8).map(Sum).collect();
        let run = cube_prefix(
            &Hypercube::new(3),
            &input,
            PrefixKind::Inclusive,
            Recording::Phases,
        );
        // init + one snapshot per dimension.
        assert_eq!(run.phases.len(), 4);
        assert_eq!(run.phases[0].label, "init");
        assert_eq!(run.phases[3].values.len(), 8);
    }

    #[test]
    #[should_panic(expected = "one input value per node")]
    fn wrong_input_length_rejected() {
        cube_prefix(
            &Hypercube::new(3),
            &[Sum(1); 4],
            PrefixKind::Inclusive,
            Recording::Off,
        );
    }

    #[test]
    fn batched_matches_independent_single_lane_runs() {
        let q = Hypercube::new(4);
        for kind in [PrefixKind::Inclusive, PrefixKind::Diminished] {
            let inputs: Vec<Vec<Sum>> = (0..5)
                .map(|k| (0..16).map(|u| Sum((u * 7 + k * 13) % 29 - 11)).collect())
                .collect();
            let run = batched_cube_prefix(&q, &inputs, kind);
            for (k, input) in inputs.iter().enumerate() {
                let single = cube_prefix(&q, input, kind, Recording::Off);
                assert_eq!(run.prefixes[k], single.prefixes, "lane {k} {kind:?}");
                assert_eq!(run.totals[k], single.total, "lane {k} {kind:?}");
                assert_eq!(run.prefixes[k], sequential_prefix(input, kind), "lane {k}");
                let fold = input.iter().fold(Sum::identity(), |acc, x| acc.combine(x));
                assert_eq!(run.totals[k], fold, "lane {k} {kind:?} total");
            }
            // One schedule per dimension, each message carrying 5 lanes.
            assert_eq!(run.metrics.comm_steps, 4);
            assert_eq!(run.metrics.message_words, 5 * run.metrics.messages);
        }
    }

    #[test]
    fn batched_noncommutative_lanes_stay_independent() {
        let q = Hypercube::new(3);
        let inputs: Vec<Vec<Concat>> = (0..3)
            .map(|k| {
                (0..8u8)
                    .map(|i| Concat(((b'a' + 8 * k + i) as char).to_string()))
                    .collect()
            })
            .collect();
        let run = batched_cube_prefix(&q, &inputs, PrefixKind::Inclusive);
        assert_eq!(run.prefixes[0][7].0, "abcdefgh");
        assert_eq!(run.prefixes[1][7].0, "ijklmnop");
        assert_eq!(run.prefixes[2][3].0, "qrst");
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn batched_zero_instances_rejected() {
        batched_cube_prefix::<Sum>(&Hypercube::new(2), &[], PrefixKind::Inclusive);
    }

    proptest! {
        #[test]
        fn matches_reference_on_random_matrices(
            m in 1u32..=5,
            seed: u64,
        ) {
            let n = 1usize << m;
            let mut x = seed | 1;
            let mut next = move || {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 17) as i64 - 8
            };
            let input: Vec<Mat2> = (0..n)
                .map(|_| Mat2([[next(), next()], [next(), next()]]))
                .collect();
            let q = Hypercube::new(m);
            let run = cube_prefix(&q, &input, PrefixKind::Inclusive, Recording::Off);
            prop_assert_eq!(run.prefixes, sequential_prefix(&input, PrefixKind::Inclusive));
        }
    }
}
