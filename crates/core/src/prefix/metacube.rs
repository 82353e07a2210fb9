//! Parallel prefix on the **metacube** `MC(k, m)` — carrying the paper's
//! programme one network further (future work 3 applied to the authors'
//! own generalisation; recall `MC(1, m) = D_(m+1)` and `MC(0, m) = Q_m`).
//!
//! ## The `(2k+1)`-cycle emulated dimension window
//!
//! In `MC(k, m)` a node owns cube edges only in its **own class's field**;
//! a dimension `j` in field `f` is missing at every node of class `c ≠ f`.
//! The missing-dimension partner `(c, …, Xᶠ ⊕ 2ʲ, …)` is reached through
//! the class-`f` *companion* `(f, …same fields…)`, generalising
//! Algorithm 3's 3-hop path:
//!
//! 1. **inbound** (`k` cycles) — a binomial *gather over the class
//!    k-cube*: every node's running total converges onto its class-`f`
//!    companion as a bag of `(class, value)` entries;
//! 2. **exchange** (1 cycle) — class-`f` companions swap whole bags along
//!    the real dimension-`j` edge;
//! 3. **outbound** (`k` cycles) — a binomial *scatter* returns to every
//!    node exactly its partner's value.
//!
//! Every node sends ≤ 1 and receives ≤ 1 message per cycle (validated by
//! the simulator), so a field dimension costs `2k+1` cycles — `3` at
//! `k = 1`, which is precisely the dual-cube's three-time-unit window —
//! and a class dimension (a cross-edge) costs 1. An ascend sweep over all
//! `2^k·m + k` dimensions in raw-address order yields the prefix:
//!
//! ```text
//!   T_comm(MC(k, m)) = (2k+1)·2^k·m + k
//! ```
//!
//! For `k = 1` this is `6m+1` — the *Technique-2* (generic emulation)
//! prefix on the dual-cube, against Technique 1's `2m+3` (`D_prefix` on
//! `D_(m+1)`): experiment E18 compares the two, extending the paper's
//! technique comparison from sorting to prefix.

use crate::ops::Monoid;
use crate::prefix::PrefixKind;
use dc_simulator::{Machine, Metrics, ScheduleKey};
use dc_topology::{bits::bit, Metacube, Topology};

/// Per-node state of the metacube prefix.
#[derive(Debug, Clone)]
struct McState<M> {
    /// Running subcube total (as in Algorithm 1).
    t: M,
    /// Running subcube prefix.
    s: M,
    /// In-flight bag of `(class, total)` entries for the current window.
    bag: Vec<(usize, M)>,
    /// The partner's total, once delivered.
    recv: Option<M>,
}

/// Result of an [`mc_prefix`] run.
#[derive(Debug, Clone)]
pub struct McPrefixRun<M> {
    /// `s[u]` for every node, in **raw node-id order** (the data layout:
    /// `input[u]` starts on node `u`).
    pub prefixes: Vec<M>,
    /// Step counts: `(2k+1)·2^k·m + k` comm, `2^k·m + k` comp.
    pub metrics: Metrics,
}

/// The communication cost of one emulated dimension exchange on
/// `MC(k, m)`: 1 for a class dimension, `2k+1` for a field dimension.
pub fn mc_dim_comm_cost(k: u32, is_class_dim: bool) -> u64 {
    if is_class_dim {
        1
    } else {
        2 * k as u64 + 1
    }
}

/// The total communication cost of [`mc_prefix`] on `MC(k, m)`.
pub fn mc_prefix_comm(k: u32, m: u32) -> u64 {
    (2 * k as u64 + 1) * ((1u64 << k) * m as u64) + k as u64
}

/// Parallel (or diminished) prefix on `MC(k, m)`, one value per node in
/// raw node-id order.
///
/// ```
/// use dc_core::prefix::{metacube::mc_prefix, PrefixKind};
/// use dc_core::ops::Sum;
/// use dc_topology::Metacube;
///
/// let mc = Metacube::new(2, 1); // 64 nodes, degree 3
/// let input: Vec<Sum> = vec![Sum(1); 64];
/// let run = mc_prefix(&mc, &input, PrefixKind::Inclusive);
/// assert_eq!(run.prefixes.iter().map(|s| s.0).collect::<Vec<_>>(),
///            (1..=64).collect::<Vec<_>>());
/// assert_eq!(run.metrics.comm_steps, 5 * 4 * 1 + 2); // (2k+1)·2^k·m + k
/// ```
pub fn mc_prefix<M: Monoid>(mc: &Metacube, input: &[M], kind: PrefixKind) -> McPrefixRun<M> {
    assert_eq!(
        input.len(),
        mc.num_nodes(),
        "need one input value per node of {}",
        mc.name()
    );
    let k = mc.k();
    let states: Vec<McState<M>> = input
        .iter()
        .map(|c| McState {
            t: c.clone(),
            s: match kind {
                PrefixKind::Inclusive => c.clone(),
                PrefixKind::Diminished => M::identity(),
            },
            bag: Vec::new(),
            recv: None,
        })
        .collect();
    let mut machine = Machine::new(mc, states);

    for j in 0..mc.address_bits() {
        if j < k {
            // Class dimension: a direct cross-edge at every node.
            machine.cycle(|c| {
                c.message(
                    |u, st: &McState<M>| Some((mc.cross_neighbor(u, j), st.t.clone())),
                    |st, _, t| st.recv = Some(t),
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(j))
            });
        } else {
            field_dim_window(mc, &mut machine, j);
        }
        // Ascend fold: the partner's half precedes ours iff our bit j is
        // set; non-commutative operations combine in raw-address order.
        machine.compute(1, |u, st| {
            let temp = st.recv.take().expect("window delivered to every node");
            if bit(u, j) {
                st.t = temp.combine(&st.t);
                st.s = temp.combine(&st.s);
            } else {
                st.t = st.t.combine(&temp);
            }
        });
    }

    let (states, metrics) = machine.into_parts();
    McPrefixRun {
        prefixes: states.into_iter().map(|st| st.s).collect(),
        metrics,
    }
}

/// The `(2k+1)`-cycle window for dimension `j ≥ k` (a bit of field
/// `(j−k)/m`): gather onto class-`f` companions, exchange, scatter back.
///
/// Schedule keys: the gather/scatter hop patterns depend only on the
/// owning field `f` and the class-cube stage `i` — not on which bit of
/// the field is exchanged — so every dimension of a field replays the hop
/// schedules the field's first dimension compiled (keyed
/// `Window { j: f, hop }` with gather hops `0..k` and scatter hops
/// `k..2k`). The middle exchange is per-dimension ([`ScheduleKey::Dim`];
/// the `j` ranges of class and field dimensions are disjoint).
fn field_dim_window<M: Monoid>(
    mc: &Metacube,
    machine: &mut Machine<'_, Metacube, McState<M>>,
    j: u32,
) {
    let k = mc.k();
    let m = mc.m();
    let f = ((j - k) / m) as usize; // owning class
    let bit_in_field = (j - k) % m;

    // Seed each node's bag with its own (class, total) entry.
    machine.setup(|u, st| {
        st.bag = vec![(mc.class_of(u), st.t.clone())];
    });

    // Inbound: binomial gather over the class k-cube towards class f.
    // At stage i, nodes whose class differs from f with lowest set bit i
    // forward their whole bag across class bit i.
    for i in 0..k {
        machine.cycle(|c| {
            c.message(
                |u, st: &McState<M>| {
                    let rel = mc.class_of(u) ^ f;
                    (rel != 0 && rel.trailing_zeros() == i && !st.bag.is_empty())
                        .then(|| (mc.cross_neighbor(u, i), st.bag.clone()))
                },
                |st, _, bag: Vec<(usize, M)>| st.bag.extend(bag),
            )
            .words(|bag| bag.len() as u64)
            .keyed(ScheduleKey::Window {
                j: f as u32,
                hop: i as u8,
            })
        });
        // Senders hand off their bags entirely.
        machine.setup(|u, st| {
            let rel = mc.class_of(u) ^ f;
            if rel != 0 && rel.trailing_zeros() == i {
                st.bag.clear();
            }
        });
    }

    // Exchange: class-f companions swap bags along the real dimension.
    machine.cycle(|c| {
        c.message(
            |u, st| {
                (mc.class_of(u) == f && !st.bag.is_empty())
                    .then(|| (mc.cube_neighbor(u, bit_in_field), st.bag.clone()))
            },
            |st, _, bag: Vec<(usize, M)>| {
                st.bag = bag; // the partner-side bag replaces our own
            },
        )
        .words(|bag| bag.len() as u64)
        .pairwise()
        .keyed(ScheduleKey::Dim(j))
    });
    // Class-f nodes can already pick out their own partner value.
    machine.setup(|u, st| {
        if mc.class_of(u) == f {
            let mine = st
                .bag
                .iter()
                .find(|(c, _)| *c == f)
                .expect("partner bag contains every class")
                .1
                .clone();
            st.recv = Some(mine);
        }
    });

    // Outbound: binomial scatter of the partner bag back over the class
    // k-cube; each node ends with exactly its class's entry.
    for i in (0..k).rev() {
        machine.cycle(|c| {
            c.message(
                |u, st: &McState<M>| {
                    let rel = mc.class_of(u) ^ f;
                    // Current holders have rel with zero low-(i+1) bits; they
                    // forward the entries whose class-rel has bit i set.
                    if rel & ((1 << (i + 1)) - 1) != 0 || st.bag.is_empty() {
                        return None;
                    }
                    let outgoing: Vec<(usize, M)> = st
                        .bag
                        .iter()
                        .filter(|(c, _)| (c ^ f) >> i & 1 == 1)
                        .cloned()
                        .collect();
                    (!outgoing.is_empty()).then(|| (mc.cross_neighbor(u, i), outgoing))
                },
                |st, _, bag: Vec<(usize, M)>| st.bag = bag,
            )
            .words(|bag| bag.len() as u64)
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
                // A freshly served subtree root extracts its own entry.
                if let Some((_, v)) = st.bag.iter().find(|(c, _)| *c == mc.class_of(u)) {
                    st.recv = Some(v.clone());
                }
            }
        });
    }
    machine.setup(|_, st| st.bag.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Mat2, Sum};
    use crate::prefix::sequential_prefix;
    use crate::theory;

    fn check<M: Monoid + PartialEq + std::fmt::Debug>(
        k: u32,
        m: u32,
        input: Vec<M>,
        kind: PrefixKind,
    ) {
        let mc = Metacube::new(k, m);
        let run = mc_prefix(&mc, &input, kind);
        assert_eq!(
            run.prefixes,
            sequential_prefix(&input, kind),
            "MC({k},{m}) {kind:?}"
        );
        assert_eq!(
            run.metrics.comm_steps,
            mc_prefix_comm(k, m),
            "comm MC({k},{m})"
        );
        assert_eq!(
            run.metrics.comp_steps,
            ((1u64 << k) * m as u64) + k as u64,
            "comp MC({k},{m})"
        );
    }

    #[test]
    fn k0_reduces_to_cube_prefix() {
        // MC(0, m) = Q_m: same results and the same m-step cost.
        for m in 1..=6 {
            let input: Vec<Sum> = (0..(1i64 << m)).map(|x| Sum(2 * x - 5)).collect();
            check(0, m, input, PrefixKind::Inclusive);
            assert_eq!(mc_prefix_comm(0, m), theory::cube_prefix_comm(m));
        }
    }

    #[test]
    fn k1_is_the_dual_cube_emulation() {
        // MC(1, m) = D_(m+1): field dims cost 3 — the paper's window.
        for m in 1..=3 {
            let input: Vec<Sum> = (0..(1i64 << (2 * m + 1)))
                .map(|x| Sum(x * x % 97))
                .collect();
            check(1, m, input, PrefixKind::Inclusive);
            assert_eq!(mc_prefix_comm(1, m), 6 * m as u64 + 1);
        }
    }

    #[test]
    fn k2_windows_cost_five() {
        for (k, m) in [(2u32, 1u32), (2, 2)] {
            let n = 1usize << ((1 << k) * m + k);
            let input: Vec<Sum> = (0..n as i64).map(|x| Sum(x % 31 - 15)).collect();
            check(k, m, input, PrefixKind::Inclusive);
        }
        assert_eq!(mc_dim_comm_cost(2, false), 5);
        assert_eq!(mc_dim_comm_cost(2, true), 1);
    }

    #[test]
    fn diminished_variant() {
        let input: Vec<Sum> = (0..64).map(Sum).collect();
        check(2, 1, input, PrefixKind::Diminished);
    }

    #[test]
    fn noncommutative_order_preserved() {
        // The ascend rule must combine in raw-address order even through
        // the k-cube relays.
        let mc = Metacube::new(2, 1);
        let input: Vec<Concat> = (0..64u8).map(|i| Concat(format!("{:02}.", i))).collect();
        let run = mc_prefix(&mc, &input, PrefixKind::Inclusive);
        assert_eq!(
            run.prefixes,
            sequential_prefix(&input, PrefixKind::Inclusive)
        );
        assert!(run.prefixes[63].0.starts_with("00.01.02."));
    }

    #[test]
    fn random_matrices_on_mc21() {
        let mc = Metacube::new(2, 1);
        let mut x = 0xDEADBEEFu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 9) as i64 - 4
        };
        let input: Vec<Mat2> = (0..mc.num_nodes())
            .map(|_| Mat2([[next(), next()], [next(), next()]]))
            .collect();
        let run = mc_prefix(&mc, &input, PrefixKind::Inclusive);
        assert_eq!(
            run.prefixes,
            sequential_prefix(&input, PrefixKind::Inclusive)
        );
    }

    #[test]
    fn technique_comparison_on_the_dual_cube() {
        // E18 in miniature: on the same network (MC(1,m) = D_(m+1)),
        // Technique 1 (D_prefix: 2(m+1)+1) beats Technique 2 (generic
        // emulation: 6m+1) for every m ≥ 1.
        for m in 1..=6u32 {
            assert!(theory::prefix_comm(m + 1) < mc_prefix_comm(1, m), "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "one input value per node")]
    fn wrong_length_rejected() {
        mc_prefix(&Metacube::new(1, 1), &[Sum(1); 3], PrefixKind::Inclusive);
    }
}
