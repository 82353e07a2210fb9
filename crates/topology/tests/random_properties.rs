//! Randomised property tests of the topology layer at sizes the exhaustive
//! unit tests cannot reach (up to `D_6`, 2048 nodes).

use dc_topology::{graph, DualCube, Metacube, RecDualCube, Routed, Topology};
use proptest::prelude::*;

proptest! {
    /// Routing on big dual-cubes: valid paths whose length matches the
    /// closed-form distance, for arbitrary endpoint pairs.
    #[test]
    fn routes_match_distance_formula(n in 2u32..=6, seed: u64) {
        let d = DualCube::new(n);
        let nodes = d.num_nodes();
        let mut x = seed | 1;
        let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x as usize };
        for _ in 0..16 {
            let (u, v) = (next() % nodes, next() % nodes);
            let path = d.route(u, v);
            prop_assert_eq!(path[0], u);
            prop_assert_eq!(*path.last().unwrap(), v);
            prop_assert_eq!(path.len() as u32 - 1, d.distance_formula(u, v));
            for w in path.windows(2) {
                prop_assert!(d.is_edge(w[0], w[1]));
            }
        }
    }

    /// The recursive-presentation mapping stays a bijective isomorphism at
    /// sizes the exhaustive test skips.
    #[test]
    fn rec_mapping_round_trips_at_scale(n in 5u32..=7, seed: u64) {
        let d = DualCube::new(n);
        let rec = RecDualCube::new(n);
        let nodes = d.num_nodes();
        let mut x = seed | 1;
        let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x as usize };
        for _ in 0..32 {
            let u = next() % nodes;
            prop_assert_eq!(d.rec_to_std(d.std_to_rec(u)), u);
            // Edges map to edges in both directions.
            for v in d.neighbors(u) {
                prop_assert!(rec.is_edge(d.std_to_rec(u), d.std_to_rec(v)));
            }
            let r = d.std_to_rec(u);
            for s in rec.neighbors(r) {
                prop_assert!(d.is_edge(u, d.rec_to_std(s)));
            }
        }
    }

    /// Sampled distance spot-checks against BFS on D_5 (512 nodes) — the
    /// exhaustive census stops at D_4.
    #[test]
    fn distance_formula_sampled_on_d5(seed: u64) {
        let d = DualCube::new(5);
        let mut x = seed | 1;
        let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x as usize };
        let src = next() % d.num_nodes();
        let bfs = graph::bfs_distances(&d, src);
        for _ in 0..64 {
            let v = next() % d.num_nodes();
            prop_assert_eq!(d.distance_formula(src, v), bfs[v]);
        }
    }

    /// Metacube MC(1,m) stays isomorphic to D_(m+1) under random edge
    /// probes at m = 4 (512 nodes; the exhaustive test stops at m = 3).
    #[test]
    fn mc1_isomorphism_sampled(seed: u64) {
        let m = 4u32;
        let mc = Metacube::new(1, m);
        let d = DualCube::new(m + 1);
        let mut x = seed | 1;
        let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x as usize };
        for _ in 0..64 {
            let u = next() % mc.num_nodes();
            let du = mc.to_dual_cube_id(u);
            for v in mc.neighbors(u) {
                prop_assert!(d.is_edge(du, mc.to_dual_cube_id(v)));
            }
            prop_assert_eq!(mc.degree(u), d.degree(du));
        }
    }

    /// Hamiltonian cycles remain valid and complete up to D_7 (8192
    /// nodes), beyond the unit tests' n ≤ 6.
    #[test]
    fn hamiltonian_at_scale(n in 6u32..=7) {
        let rec = RecDualCube::new(n);
        let cycle = dc_topology::hamiltonian::hamiltonian_cycle_rec(n);
        prop_assert_eq!(cycle.len(), rec.num_nodes());
        let mut seen = vec![false; rec.num_nodes()];
        for i in 0..cycle.len() {
            prop_assert!(!seen[cycle[i]]);
            seen[cycle[i]] = true;
            prop_assert!(rec.is_edge(cycle[i], cycle[(i + 1) % cycle.len()]));
        }
    }
}

/// Satellite check for the non-allocating trait work: every closed-form
/// override of `degree` / `is_edge` / `max_ports` / `port_of` must agree
/// exactly with the answers the trait defaults derive from
/// `neighbors_into`, and ports must be a proper injective numbering
/// (`< max_ports()`, distinct per endpoint), exhaustively over small
/// instances of every topology in the crate.
#[test]
fn closed_form_overrides_agree_with_neighbor_defaults() {
    use dc_topology::{faulty::Faulty, CubeConnectedCycles, Hypercube};

    fn check(label: &str, t: &impl Topology) {
        check_inner(label, t, true)
    }

    // `Faulty` inherits its ports from the fault-free inner graph so a
    // link keeps its slot across fault sets — injective and bounded, but
    // not positional in the *survivor* adjacency once faults punch gaps.
    fn check_inherited(label: &str, t: &impl Topology) {
        check_inner(label, t, false)
    }

    fn check_inner(label: &str, t: &impl Topology, positional: bool) {
        let n = t.num_nodes();
        let mut max_degree = 0;
        for u in 0..n {
            let nbrs = t.neighbors(u);
            max_degree = max_degree.max(nbrs.len());
            assert_eq!(t.degree(u), nbrs.len(), "{label}: degree({u})");
            let mut ports = Vec::new();
            for (pos, &v) in nbrs.iter().enumerate() {
                assert!(t.is_edge(u, v), "{label}: is_edge({u}, {v})");
                let p = t
                    .port_of(u, v)
                    .unwrap_or_else(|| panic!("{label}: port_of({u}, {v}) is None on an edge"));
                assert!(p < t.max_ports(), "{label}: port {p} ≥ max_ports");
                if positional {
                    assert_eq!(
                        p as usize, pos,
                        "{label}: port_of({u}, {v}) disagrees with neighbour order"
                    );
                }
                ports.push(p);
            }
            ports.sort_unstable();
            ports.dedup();
            assert_eq!(ports.len(), nbrs.len(), "{label}: duplicate ports at {u}");
            for v in 0..n {
                if !nbrs.contains(&v) {
                    assert!(!t.is_edge(u, v), "{label}: phantom edge ({u}, {v})");
                    assert_eq!(
                        t.port_of(u, v),
                        None,
                        "{label}: port on non-edge ({u}, {v})"
                    );
                }
            }
        }
        assert!(
            max_degree as u32 <= t.max_ports(),
            "{label}: max_ports below max degree"
        );
    }

    for m in 1..=4 {
        check("hypercube", &Hypercube::new(m));
    }
    for n in 1..=3 {
        check("dual-cube", &DualCube::new(n));
        check("rec-dual-cube", &RecDualCube::new(n));
    }
    check("metacube k=0", &Metacube::new(0, 3));
    check("metacube k=1", &Metacube::new(1, 3));
    check("metacube k=2", &Metacube::new(2, 2));
    for d in 3..=4 {
        check("ccc", &CubeConnectedCycles::new(d));
    }
    let d2 = DualCube::new(2);
    check("faulty fault-free", &Faulty::new(d2, &[]));
    check_inherited("faulty nodes", &Faulty::new(d2, &[1, 5]));
    check_inherited(
        "faulty links",
        &Faulty::with_link_faults(d2, &[3], &[(0, 1)]),
    );
}

/// `flip_is_edge` answers from bit roles what `is_edge` says node by
/// node: `Some(true)` exactly when flipping the bit is an edge at every
/// node whose top address bit is the class, `Some(false)` when at none;
/// a bit past the address is never an edge. Every other topology, the
/// fault wrapper included, gives no closed form.
#[test]
fn flip_is_edge_matches_is_edge_node_by_node() {
    use dc_topology::{faulty::Faulty, CubeConnectedCycles, Hypercube};

    fn check(label: &str, t: &impl Topology) {
        let n = t.num_nodes();
        let bits = n.trailing_zeros();
        for bit in 0..bits + 2 {
            for class in 0..2 {
                let nodes = class * n / 2..(class + 1) * n / 2;
                let edges = nodes
                    .clone()
                    .filter(|&u| (u ^ 1 << bit) < n && t.is_edge(u, u ^ 1 << bit))
                    .count();
                let want = match edges {
                    0 => false,
                    e if e == nodes.len() => true,
                    _ => panic!("{label}: bit {bit} is an edge at some of class {class}"),
                };
                assert_eq!(
                    t.flip_is_edge(bit, class),
                    Some(want),
                    "{label}: bit {bit}, class {class}"
                );
            }
        }
    }

    for m in 1..=10 {
        check(&format!("Q_{m}"), &Hypercube::new(m));
    }
    for n in 1..=6 {
        check(&format!("D_{n}"), &DualCube::new(n));
    }
    let d3 = DualCube::new(3);
    for none in [
        RecDualCube::new(3).flip_is_edge(0, 0),
        Metacube::new(1, 2).flip_is_edge(0, 0),
        CubeConnectedCycles::new(3).flip_is_edge(0, 0),
        Faulty::new(d3, &[]).flip_is_edge(d3.class_bit(), 0),
    ] {
        assert_eq!(none, None, "only the bit-role topologies answer");
    }
}
