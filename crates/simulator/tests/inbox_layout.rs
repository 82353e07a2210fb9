//! Split-inbox equivalence: delivery through the dense layout (`u32`
//! source array + payload slab, `NO_SRC`-gated) must be bit-identical
//! to an inbox of `(src, msg)` per receiver, the semantics of the naive
//! reference machine ([`RefMachine`]): stage every validated message in
//! a map keyed by receiver, then deliver, handing each receiver its
//! *source id* and payload.
//!
//! Randomised over partner patterns and payload seeds, and crossed over
//! the full matrix the dense layout had to preserve: backend
//! (sequential × threaded) × schedule replay (on × off) × lane width
//! (scalar, K = 1, and lane-strided K = 3). Payloads and delivery mix
//! the source id and the lane index into the state, so a transposed
//! source array, a stale sentinel, or an off-by-one lane stride shows
//! up as a state mismatch, not just a wrong message count.

use dc_simulator::reference::{Cycles, RefMachine};
use dc_simulator::{with_schedule_replay, ExecMode, Machine, ScheduleKey};
use dc_topology::{Hypercube, Topology};
use proptest::prelude::*;

/// Stateless splitmix-style mixer: derives patterns and payloads from
/// `(value, seed)` without threading an RNG through closures.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 29)
}

/// Symmetric partner pattern: dimension-`dim` pairs with a
/// pair-symmetric silence mask (a pair is silent iff its lower id
/// hashes to 0 mod 3), so `pair(u) = Some(v) ⇔ pair(v) = Some(u)` and
/// the pattern is fixed across cycles — the precondition for keying it.
fn pair_pattern(dim: u32, seed: u64) -> impl Fn(usize) -> Option<usize> + Copy {
    move |u| {
        let v = u ^ (1usize << dim);
        (!mix(u.min(v) as u64, seed).is_multiple_of(3)).then_some(v)
    }
}

/// Asymmetric one-directional plan for the raw `exchange` path: per
/// pair, the hash picks silence (¼ of pairs) or which endpoint speaks.
/// Every receiver hears at most its own pair partner, so the plan is
/// 1-port legal by construction.
fn exchange_plan(dim: u32, seed: u64) -> impl Fn(usize) -> Option<usize> + Copy {
    move |u| {
        let v = u ^ (1usize << dim);
        let a = u.min(v);
        let h = mix(a as u64, seed ^ 0xABCD);
        if h.is_multiple_of(4) {
            return None;
        }
        ((h & 1 == 0) == (u == a)).then_some(v)
    }
}

fn payload(u: usize, s: u64) -> u64 {
    mix(s, u as u64)
}

fn deliver_scalar(s: &mut u64, src: usize, v: u64) {
    *s = s.wrapping_add(mix(v, src as u64));
}

/// `cycles` keyed pairwise scalar cycles over `pair`'s matching.
fn keyed_pairwise(
    m: &mut impl Cycles<u64>,
    cycles: u32,
    dim: u32,
    pair: impl Fn(usize) -> Option<usize> + Sync,
) {
    for _ in 0..cycles {
        m.cycle(|c| {
            c.message(
                |u, &s| pair(u).map(|v| (v, payload(u, s))),
                |s, src, v: u64| deliver_scalar(s, src, v),
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(dim))
        });
    }
}

/// `cycles` unkeyed scalar cycles of `plan`.
fn exchange(m: &mut impl Cycles<u64>, cycles: u32, plan: impl Fn(usize) -> Option<usize> + Sync) {
    for _ in 0..cycles {
        m.cycle(|c| {
            c.message(
                |u, &s| plan(u).map(|d| (d, payload(u, s))),
                |s, src, v: u64| deliver_scalar(s, src, v),
            )
        });
    }
}

/// `cycles` keyed pairwise lane cycles: the sender fills a K-wide window
/// from its state; the receiver folds every lane with its index and the
/// source id.
fn keyed_lanes(
    m: &mut impl Cycles<u64>,
    cycles: u32,
    lanes: usize,
    dim: u32,
    pair: impl Fn(usize) -> Option<usize> + Sync,
) {
    for _ in 0..cycles {
        m.cycle(|c| {
            c.lanes(
                lanes,
                &0u64,
                |u, _| pair(u),
                |_, &s, window: &mut [u64]| {
                    for (kk, w) in window.iter_mut().enumerate() {
                        *w = mix(s, kk as u64);
                    }
                },
                |s, src, window| {
                    for (kk, w) in window.iter().enumerate() {
                        *s = s.wrapping_add(mix(*w, (src + kk) as u64));
                    }
                },
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(dim))
        });
    }
}

/// The end states of `program` on the reference machine.
fn reference(
    q: &Hypercube,
    init: &[u64],
    program: impl Fn(&mut RefMachine<'_, Hypercube, u64>),
) -> Vec<u64> {
    let mut m = RefMachine::new(q, init.to_vec());
    program(&mut m);
    m.into_parts().0
}

/// The backend × replay matrix every machine-side run is checked under.
const MODES: [(ExecMode, bool); 4] = [
    (ExecMode::Sequential, false),
    (ExecMode::Sequential, true),
    (ExecMode::Parallel { threshold: 1 }, false),
    (ExecMode::Parallel { threshold: 1 }, true),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Keyed pairwise cycles (the replayable path: compile once, replay
    /// thereafter) match the reference machine bit-for-bit on every
    /// backend, with replay both on and off.
    #[test]
    fn keyed_pairwise_matches_option_slab_reference(seed: u64, m in 2u32..=5, dim in 0u32..5) {
        let dim = dim % m;
        let q = Hypercube::new(m);
        let n = q.num_nodes();
        let init: Vec<u64> = (0..n).map(|u| mix(u as u64, seed ^ 0x5151)).collect();
        let pair = pair_pattern(dim, seed);
        let cycles = 4;
        let want = reference(&q, &init, |m| keyed_pairwise(m, cycles, dim, pair));
        for (mode, replay) in MODES {
            let got = with_schedule_replay(replay, || {
                let mut mc = Machine::with_exec(&q, init.clone(), mode);
                keyed_pairwise(&mut mc, cycles, dim, pair);
                mc.states().to_vec()
            });
            prop_assert_eq!(&got, &want, "mode {:?}, replay {}", mode, replay);
        }
    }

    /// The raw (unkeyed, asymmetric) moved-message path, on both
    /// backends, matches the reference machine too.
    #[test]
    fn exchange_matches_option_slab_reference(seed: u64, m in 2u32..=5, dim in 0u32..5) {
        let dim = dim % m;
        let q = Hypercube::new(m);
        let n = q.num_nodes();
        let init: Vec<u64> = (0..n).map(|u| mix(u as u64, seed ^ 0x7272)).collect();
        let plan = exchange_plan(dim, seed);
        let cycles = 3;
        let want = reference(&q, &init, |m| exchange(m, cycles, plan));
        for (mode, replay) in MODES {
            let got = with_schedule_replay(replay, || {
                let mut mc = Machine::with_exec(&q, init.clone(), mode);
                exchange(&mut mc, cycles, plan);
                mc.states().to_vec()
            });
            prop_assert_eq!(&got, &want, "mode {:?}, replay {}", mode, replay);
        }
    }

    /// Lane-strided keyed cycles, including K > 1 (the stride the dense
    /// layout shares one `u32` source entry across), match the reference
    /// machine on the whole matrix.
    #[test]
    fn lanes_match_option_slab_reference(seed: u64, m in 2u32..=4, k in 0usize..2) {
        let lanes = [1usize, 3][k];
        let dim = (seed % m as u64) as u32;
        let q = Hypercube::new(m);
        let n = q.num_nodes();
        let init: Vec<u64> = (0..n).map(|u| mix(u as u64, seed ^ 0x9393)).collect();
        let pair = pair_pattern(dim, seed);
        let cycles = 4;
        let want = reference(&q, &init, |m| keyed_lanes(m, cycles, lanes, dim, pair));
        for (mode, replay) in MODES {
            let got = with_schedule_replay(replay, || {
                let mut mc = Machine::with_exec(&q, init.clone(), mode);
                keyed_lanes(&mut mc, cycles, lanes, dim, pair);
                mc.states().to_vec()
            });
            prop_assert_eq!(&got, &want, "mode {:?}, replay {}, lanes {}", mode, replay, lanes);
        }
    }
}
