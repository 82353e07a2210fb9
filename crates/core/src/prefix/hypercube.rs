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

use crate::ops::Monoid;
use crate::prefix::PrefixKind;
use crate::run::{PhaseSnapshot, Recording};
use dc_simulator::{Machine, Metrics, ScheduleKey};
use dc_topology::{bits::bit, Hypercube, Topology};

/// Per-node state of `Cube_prefix`.
#[derive(Debug, Clone)]
pub(crate) struct CubeState<M> {
    /// Running subcube total.
    pub t: M,
    /// Running subcube prefix.
    pub s: M,
    /// Landing buffer for the partner's total.
    pub temp: Option<M>,
}

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

/// Runs Algorithm 1 on `Q_m` with one input value per node.
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
    recording: Recording,
) -> CubePrefixRun<M> {
    assert_eq!(
        input.len(),
        q.num_nodes(),
        "need one input value per node of {}",
        q.name()
    );
    let states: Vec<CubeState<M>> = input
        .iter()
        .map(|c| CubeState {
            t: c.clone(),
            s: match kind {
                PrefixKind::Inclusive => c.clone(),
                PrefixKind::Diminished => M::identity(),
            },
            temp: None,
        })
        .collect();
    let mut machine = Machine::new(q, states);
    let mut phases = Vec::new();
    let mut snap = |label: &str, m: &Machine<Hypercube, CubeState<M>>| {
        if recording.enabled() {
            phases.push(PhaseSnapshot {
                label: label.to_string(),
                values: m
                    .states()
                    .iter()
                    .map(|s| (s.t.clone(), s.s.clone()))
                    .collect(),
            });
        }
    };
    snap("init", &machine);
    for i in 0..q.dim() {
        machine.begin_phase(format!("dimension {i}"));
        ascend_round(&mut machine, i);
        snap(&format!("after dimension {i}"), &machine);
    }
    let (states, metrics) = machine.into_parts();
    let total = states[0].t.clone();
    debug_assert!(states.iter().all(|st| st.temp.is_none()));
    CubePrefixRun {
        prefixes: states.into_iter().map(|st| st.s).collect(),
        total,
        metrics,
        phases,
    }
}

/// Per-node state of [`batched_cube_prefix`]: K independent instances in
/// structure-of-arrays layout — lane `k` of every vector belongs to
/// instance `k`.
#[derive(Debug, Clone)]
pub struct BatchedCubeState<M> {
    /// Running subcube totals, one per lane.
    pub t: Vec<M>,
    /// Running subcube prefixes, one per lane.
    pub s: Vec<M>,
    /// Landing buffer for the partner's totals (K wide).
    temp: Vec<M>,
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

/// Runs K independent instances of Algorithm 1 through one lane-batched
/// machine cycle per round: `inputs[k]` is instance `k`'s input (one
/// value per node). All K instances share a single schedule lookup,
/// validation/replay pass, and delivery sweep per dimension, with the
/// fold running K-wide per node; results are bit-identical to K separate
/// [`cube_prefix`] runs.
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
    let states: Vec<BatchedCubeState<M>> = (0..q.num_nodes())
        .map(|u| BatchedCubeState {
            t: inputs.iter().map(|inp| inp[u].clone()).collect(),
            s: inputs
                .iter()
                .map(|inp| match kind {
                    PrefixKind::Inclusive => inp[u].clone(),
                    PrefixKind::Diminished => M::identity(),
                })
                .collect(),
            temp: vec![M::identity(); lanes],
        })
        .collect();
    let mut machine = Machine::new(q, states);
    let seed = M::identity();
    for i in 0..q.dim() {
        machine.begin_phase(format!("dimension {i}"));
        batched_ascend_round(&mut machine, i, lanes, &seed);
    }
    let (states, metrics) = machine.into_parts();
    let totals = states[0].t.clone();
    let mut prefixes = vec![Vec::with_capacity(q.num_nodes()); lanes];
    for st in states {
        for (k, s) in st.s.into_iter().enumerate() {
            prefixes[k].push(s);
        }
    }
    BatchedCubePrefixRun {
        prefixes,
        totals,
        metrics,
    }
}

/// The lane-batched dimension-`i` round: one K-wide exchange of the `t`
/// lanes, then a K-wide fold — the vectorizable inner loop of the batch.
fn batched_ascend_round<M: Monoid>(
    machine: &mut Machine<'_, Hypercube, BatchedCubeState<M>>,
    i: u32,
    lanes: usize,
    seed: &M,
) {
    machine.cycle(|c| {
        c.lanes(
            lanes,
            seed,
            |u, _| Some(u ^ (1usize << i)),
            |_, st, window| window.clone_from_slice(&st.t),
            |st, _, window| {
                for (t, w) in st.temp.iter_mut().zip(window) {
                    std::mem::swap(t, w);
                }
            },
        )
        .pairwise()
        .keyed(ScheduleKey::Dim(i))
    });
    machine.compute(1, |u, st| {
        let high = bit(u, i);
        for k in 0..st.t.len() {
            let temp = std::mem::replace(&mut st.temp[k], M::identity());
            if high {
                st.t[k] = temp.combine(&st.t[k]);
                st.s[k] = temp.combine(&st.s[k]);
            } else {
                st.t[k] = st.t[k].combine(&temp);
            }
        }
    });
}

/// One dimension-`i` round of the ascend sweep: exchange `t` across the
/// dimension, then fold. (`d_prefix` performs the same round inside every
/// cluster simultaneously — see `prefix::dualcube`.)
fn ascend_round<M: Monoid>(machine: &mut Machine<'_, Hypercube, CubeState<M>>, i: u32) {
    machine.cycle(|c| {
        c.message(
            |u, st| Some((u ^ (1usize << i), st.t.clone())),
            |st, _, t| st.temp = Some(t),
        )
        .pairwise()
        .keyed(ScheduleKey::Dim(i))
    });
    machine.compute(1, |u, st| {
        let temp = st.temp.take().expect("exchange delivered to every node");
        if bit(u, i) {
            // Partner's half precedes ours in index order: apply on the left.
            st.t = temp.combine(&st.t);
            st.s = temp.combine(&st.s);
        } else {
            st.t = st.t.combine(&temp);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Mat2, Sum};
    use crate::prefix::sequential_prefix;
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
