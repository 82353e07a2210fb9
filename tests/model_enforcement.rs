//! Failure injection: the simulator must *reject* schedules that violate
//! the communication model the theorems assume, across every topology.
//! This is what makes the measured step counts in EXPERIMENTS.md
//! trustworthy: a cheating schedule cannot run.

use dc_simulator::{Machine, SimError};
use dc_topology::{CubeConnectedCycles, DualCube, Hypercube, RecDualCube, Topology};

#[test]
fn cannot_send_across_missing_dual_cube_edges() {
    // Two nodes of the same class in different clusters are never
    // adjacent, whatever the Hamming distance.
    let d = DualCube::new(3);
    let u = 0usize; // class 0, cluster 0, node 0
    let v = 0b00100usize; // class 0, cluster 1, node 0 — one bit apart!
    assert_eq!((u ^ v).count_ones(), 1);
    assert!(!d.is_edge(u, v), "cluster-id bits do not make edges");
    let mut m = Machine::new(&d, vec![0u8; d.num_nodes()]);
    let err = m
        .try_cycle(|c| c.message(|w, &s| (w == u).then_some((v, s)), |_, _, _| {}))
        .unwrap_err();
    assert_eq!(err, SimError::NotAdjacent { src: u, dst: v });
}

#[test]
fn recursive_presentation_missing_dimensions_rejected() {
    // A class-0 node (rec bit 0 = 0) has no odd-dimension edges: sending
    // "directly" along dimension 1 must be refused — that is exactly why
    // Algorithm 3 needs the 3-hop windows.
    let rec = RecDualCube::new(3);
    let r = 0usize;
    assert!(!rec.has_direct_edge(r, 1));
    let mut m = Machine::new(&rec, vec![0u8; rec.num_nodes()]);
    let err = m
        .try_cycle(|c| c.message(|w, &s| (w == r).then_some((r ^ 2, s)), |_, _, _| {}))
        .unwrap_err();
    assert!(matches!(err, SimError::NotAdjacent { .. }));
}

#[test]
fn naive_single_cycle_three_hop_schedule_is_illegal() {
    // The tempting "everyone sends at once" version of the dimension-j
    // compare-exchange floods the cross-edges: the direct half exchanges
    // on dimension j while the indirect half *also* targets the direct
    // nodes via the cross-edges — two messages per receiver. The 1-port
    // model must reject it; the staged 3-cycle schedule exists because of
    // this.
    let rec = RecDualCube::new(2);
    let j = 1u32;
    let mut m = Machine::new(&rec, (0..rec.num_nodes() as u32).collect::<Vec<_>>());
    let err = m
        .try_cycle(|c| {
            c.message(
                |r, &s| {
                    if rec.has_direct_edge(r, j) {
                        Some((r ^ (1usize << j), s)) // own exchange
                    } else {
                        Some((r ^ 1, s)) // simultaneous cross-edge hand-off
                    }
                },
                |_, _, _| {},
            )
        })
        .unwrap_err();
    assert!(
        matches!(err, SimError::RecvConflict { .. }),
        "expected a receive-port conflict, got {err}"
    );
}

#[test]
fn ccc_enforces_its_own_sparser_adjacency() {
    let c = CubeConnectedCycles::new(3);
    // (x=0, p=0) and (x=3, p=0) differ in two cube bits: not adjacent.
    let u = c.node(0, 0);
    let v = c.node(3, 0);
    let mut m = Machine::new(&c, vec![(); c.num_nodes()]);
    let err = m
        .try_cycle(|c| c.message(|w, _| (w == u).then_some((v, ())), |_, _, _| {}))
        .unwrap_err();
    assert_eq!(err, SimError::NotAdjacent { src: u, dst: v });
}

#[test]
fn failed_cycles_leave_no_trace() {
    // A rejected cycle must not count steps nor mutate state, so a test
    // harness can probe illegal schedules and continue.
    let q = Hypercube::new(3);
    let mut m = Machine::new(&q, (0..8u32).collect::<Vec<_>>());
    for _ in 0..3 {
        let _ = m
            .try_cycle(|c| c.message(|u, &s| (u == 0).then_some((7, s)), |st, _, v| *st += v))
            .unwrap_err();
    }
    assert_eq!(m.metrics().comm_steps, 0);
    assert_eq!(m.metrics().messages, 0);
    assert_eq!(m.states(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    // And the machine still works afterwards.
    m.cycle(|c| {
        c.message(|u, &s| Some((u ^ 1, s)), |st, _, v| *st = v)
            .pairwise()
    });
    assert_eq!(m.states(), &[1, 0, 3, 2, 5, 4, 7, 6]);
}

#[test]
fn pairwise_matching_must_be_symmetric_on_dual_cube() {
    let d = DualCube::new(2);
    let mut m = Machine::new(&d, vec![0u8; d.num_nodes()]);
    // Node 0 pairs with its cross neighbour, but the neighbour pairs with
    // nobody.
    let err = m
        .try_cycle(|c| {
            c.message(
                |u, &s| (u == 0).then(|| (d.cross_neighbor(0), s)),
                |_, _, _| {},
            )
            .pairwise()
        })
        .unwrap_err();
    assert!(matches!(err, SimError::AsymmetricPair { a: 0, .. }));
}

#[test]
fn the_legal_three_hop_window_passes_where_the_naive_one_fails() {
    // Complement of `naive_single_cycle_three_hop_schedule_is_illegal`:
    // the staged schedule used by the emulation layer runs clean on the
    // same machine and dimension, and delivers partner values correctly —
    // demonstrated end-to-end through dc-core's public API.
    use dc_core::emulate::{emu_machine, exchange_dim};
    let rec = RecDualCube::new(2);
    let mut m = emu_machine(&rec, (0..rec.num_nodes()).collect::<Vec<_>>());
    exchange_dim(&mut m, 1, |_, _, &p| p);
    let (states, metrics) = m.into_parts();
    for (r, st) in states.iter().enumerate() {
        assert_eq!(st.value, r ^ 2);
    }
    assert_eq!(metrics.comm_steps, 3);
}
