//! Split-inbox equivalence: delivery through the dense layout (`u32`
//! source array + payload slab, `NO_SRC`-gated) must be bit-identical
//! to the retired `Vec<Option<(src, msg)>>` inbox slab, whose semantics
//! this suite keeps alive as an executable reference model — stage
//! every validated message, then deliver in node order, handing each
//! receiver its *source id* and payload.
//!
//! Randomised over partner patterns and payload seeds, and crossed over
//! the full matrix the dense layout had to preserve: backend
//! (sequential × threaded) × schedule replay (on × off) × lane width
//! (scalar, K = 1, and lane-strided K = 3). Payloads and delivery mix
//! the source id and the lane index into the state, so a transposed
//! source array, a stale sentinel, or an off-by-one lane stride shows
//! up as a state mismatch, not just a wrong message count.

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

/// Reference model: the old Option-slab inbox, staged then drained in
/// node order. `plan` gives each node's destination (or silence).
fn reference(
    n: usize,
    cycles: u32,
    init: &[u64],
    plan: impl Fn(usize) -> Option<usize>,
) -> Vec<u64> {
    let mut states = init.to_vec();
    let mut inbox: Vec<Option<(usize, u64)>> = vec![None; n];
    for _ in 0..cycles {
        for (u, &s) in states.iter().enumerate() {
            if let Some(dst) = plan(u) {
                assert!(inbox[dst].is_none(), "reference plan must be 1-port legal");
                inbox[dst] = Some((u, payload(u, s)));
            }
        }
        for (u, slot) in inbox.iter_mut().enumerate() {
            if let Some((src, v)) = slot.take() {
                deliver_scalar(&mut states[u], src, v);
            }
        }
    }
    states
}

/// Reference model for lane-strided cycles: the sender fills a K-wide
/// window from its state; the receiver folds every lane with its index
/// and the source id.
fn reference_lanes(
    n: usize,
    cycles: u32,
    lanes: usize,
    init: &[u64],
    pair: impl Fn(usize) -> Option<usize>,
) -> Vec<u64> {
    let mut states = init.to_vec();
    let mut inbox: Vec<Option<(usize, Vec<u64>)>> = vec![None; n];
    for _ in 0..cycles {
        for (u, &s) in states.iter().enumerate() {
            if let Some(dst) = pair(u) {
                let window: Vec<u64> = (0..lanes).map(|k| mix(s, k as u64)).collect();
                assert!(inbox[dst].is_none(), "reference plan must be 1-port legal");
                inbox[dst] = Some((u, window));
            }
        }
        for (u, slot) in inbox.iter_mut().enumerate() {
            if let Some((src, window)) = slot.take() {
                for (k, w) in window.iter().enumerate() {
                    states[u] = states[u].wrapping_add(mix(*w, (src + k) as u64));
                }
            }
        }
    }
    states
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
    /// thereafter) match the Option-slab reference bit-for-bit on every
    /// backend, with replay both on and off.
    #[test]
    fn keyed_pairwise_matches_option_slab_reference(seed: u64, m in 2u32..=5, dim in 0u32..5) {
        let dim = dim % m;
        let q = Hypercube::new(m);
        let n = q.num_nodes();
        let init: Vec<u64> = (0..n).map(|u| mix(u as u64, seed ^ 0x5151)).collect();
        let pair = pair_pattern(dim, seed);
        let cycles = 4;
        let want = reference(n, cycles, &init, pair);
        for (mode, replay) in MODES {
            let got = with_schedule_replay(replay, || {
                let mut mc = Machine::with_exec(&q, init.clone(), mode);
                for _ in 0..cycles {
                    mc.cycle(|c| {
                        c.message(
                            |u, &s| pair(u).map(|v| (v, payload(u, s))),
                            |s, src, v: u64| deliver_scalar(s, src, v),
                        )
                        .pairwise()
                        .keyed(ScheduleKey::Dim(dim))
                    });
                }
                mc.states().to_vec()
            });
            prop_assert_eq!(&got, &want, "mode {:?}, replay {}", mode, replay);
        }
    }

    /// The raw (unkeyed, asymmetric) moved-message path, on both
    /// backends, matches the reference too.
    #[test]
    fn exchange_matches_option_slab_reference(seed: u64, m in 2u32..=5, dim in 0u32..5) {
        let dim = dim % m;
        let q = Hypercube::new(m);
        let n = q.num_nodes();
        let init: Vec<u64> = (0..n).map(|u| mix(u as u64, seed ^ 0x7272)).collect();
        let plan = exchange_plan(dim, seed);
        let cycles = 3;
        let want = reference(n, cycles, &init, plan);
        for (mode, replay) in MODES {
            let got = with_schedule_replay(replay, || {
                let mut mc = Machine::with_exec(&q, init.clone(), mode);
                for _ in 0..cycles {
                    mc.cycle(|c| c.message(|u, &s| plan(u).map(|d| (d, payload(u, s))), |s, src, v: u64| deliver_scalar(s, src, v)));
                }
                mc.states().to_vec()
            });
            prop_assert_eq!(&got, &want, "mode {:?}, replay {}", mode, replay);
        }
    }

    /// Lane-strided keyed cycles, including K > 1 (the stride the dense
    /// layout shares one `u32` source entry across), match the
    /// per-window reference on the whole matrix.
    #[test]
    fn lanes_match_option_slab_reference(seed: u64, m in 2u32..=4, k in 0usize..2) {
        let lanes = [1usize, 3][k];
        let dim = (seed % m as u64) as u32;
        let q = Hypercube::new(m);
        let n = q.num_nodes();
        let init: Vec<u64> = (0..n).map(|u| mix(u as u64, seed ^ 0x9393)).collect();
        let pair = pair_pattern(dim, seed);
        let cycles = 4;
        let want = reference_lanes(n, cycles, lanes, &init, pair);
        for (mode, replay) in MODES {
            let got = with_schedule_replay(replay, || {
                let mut mc = Machine::with_exec(&q, init.clone(), mode);
                for _ in 0..cycles {
                    mc.cycle(|c| c.lanes(lanes, &0u64, |u, _| pair(u), |_, &s, window: &mut [u64]| {
                            for (kk, w) in window.iter_mut().enumerate() {
                                *w = mix(s, kk as u64);
                            }
                        }, |s, src, window| {
                            for (kk, w) in window.iter().enumerate() {
                                *s = s.wrapping_add(mix(*w, (src + kk) as u64));
                            }
                        }).pairwise().keyed(ScheduleKey::Dim(dim)));
                }
                mc.states().to_vec()
            });
            prop_assert_eq!(&got, &want, "mode {:?}, replay {}, lanes {}", mode, replay, lanes);
        }
    }
}
