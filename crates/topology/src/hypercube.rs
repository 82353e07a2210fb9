//! The binary hypercube `Q_m`, the reference network the paper's algorithms
//! are measured against (Sections 3 and 5).

use crate::bits::{flip, hamming};
use crate::traits::{NodeId, Routed, Topology};

/// The `m`-dimensional binary hypercube: `2^m` nodes, two nodes adjacent
/// iff their ids differ in exactly one bit.
///
/// ```
/// use dc_topology::{Hypercube, Topology, Routed};
/// let q = Hypercube::new(3);
/// assert_eq!(q.num_nodes(), 8);
/// assert!(q.is_edge(0b000, 0b100));
/// assert_eq!(q.distance(0b000, 0b111), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dim: u32,
}

/// Largest supported dimension; keeps `2^m` well inside `usize` and the
/// simulator's memory budget.
pub const MAX_HYPERCUBE_DIM: u32 = 30;

impl Hypercube {
    /// Creates `Q_m`. Panics if `m` is 0 or exceeds [`MAX_HYPERCUBE_DIM`]
    /// (`Q_0` is a single node with no edges — never useful here and a
    /// common off-by-one trap, so it is rejected loudly).
    pub fn new(dim: u32) -> Self {
        assert!(
            (1..=MAX_HYPERCUBE_DIM).contains(&dim),
            "hypercube dimension {dim} out of range 1..={MAX_HYPERCUBE_DIM}"
        );
        Hypercube { dim }
    }

    /// The dimension `m`.
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// The neighbour of `u` across dimension `i` (`0 ≤ i < m`).
    #[inline]
    pub fn neighbor(&self, u: NodeId, i: u32) -> NodeId {
        debug_assert!(i < self.dim);
        flip(u, i)
    }
}

impl Topology for Hypercube {
    fn num_nodes(&self) -> usize {
        1usize << self.dim
    }

    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        debug_assert!(u < self.num_nodes());
        out.clear();
        out.extend((0..self.dim).map(|i| flip(u, i)));
    }

    fn degree(&self, _u: NodeId) -> usize {
        self.dim as usize
    }

    fn is_edge(&self, u: NodeId, v: NodeId) -> bool {
        hamming(u, v) == 1
    }

    fn num_edges(&self) -> usize {
        (self.dim as usize) << (self.dim - 1)
    }

    fn max_ports(&self) -> u32 {
        self.dim
    }

    /// Port `i` is dimension `i` — the position of `flip(u, i)` in
    /// [`Topology::neighbors_into`]'s output.
    fn port_of(&self, u: NodeId, v: NodeId) -> Option<u32> {
        (hamming(u, v) == 1).then(|| (u ^ v).trailing_zeros())
    }

    /// Every bit below the dimension is an edge at every node.
    fn flip_is_edge(&self, bit: u32, _class: usize) -> Option<bool> {
        Some(bit < self.dim)
    }

    fn name(&self) -> String {
        format!("Q_{}", self.dim)
    }
}

impl Routed for Hypercube {
    /// E-cube (dimension-order) routing: correct the differing bits from
    /// low dimension to high. Always a shortest path.
    fn route(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![u];
        let mut cur = u;
        for i in 0..self.dim {
            if (cur ^ v) >> i & 1 == 1 {
                cur = flip(cur, i);
                path.push(cur);
            }
        }
        debug_assert_eq!(cur, v);
        path
    }

    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        hamming(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    #[test]
    fn counts_match_formulas() {
        for m in 1..=8 {
            let q = Hypercube::new(m);
            assert_eq!(q.num_nodes(), 1 << m);
            assert_eq!(q.num_edges(), (m as usize) * (1 << m) / 2);
            assert_eq!(q.degree(0), m as usize);
        }
    }

    #[test]
    fn adjacency_is_single_bit_difference() {
        let q = Hypercube::new(4);
        for u in 0..16 {
            for v in 0..16 {
                assert_eq!(q.is_edge(u, v), (u ^ v).count_ones() == 1);
            }
        }
    }

    #[test]
    fn graph_contract_holds() {
        for m in 1..=6 {
            assert!(graph::check_simple_undirected(&Hypercube::new(m)).is_empty());
        }
    }

    #[test]
    fn route_is_shortest_and_valid() {
        let q = Hypercube::new(5);
        for u in [0usize, 7, 21, 31] {
            for v in 0..32 {
                let path = q.route(u, v);
                assert_eq!(path[0], u);
                assert_eq!(*path.last().unwrap(), v);
                assert_eq!(path.len() as u32 - 1, q.distance(u, v));
                for w in path.windows(2) {
                    assert!(q.is_edge(w[0], w[1]), "invalid hop {w:?}");
                }
            }
        }
    }

    #[test]
    fn distance_equals_bfs() {
        let q = Hypercube::new(5);
        let bfs = graph::bfs_distances(&q, 9);
        for (v, &d) in bfs.iter().enumerate() {
            assert_eq!(q.distance(9, v), d);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_dimension_rejected() {
        Hypercube::new(0);
    }

    #[test]
    fn neighbor_flips_requested_dimension() {
        let q = Hypercube::new(6);
        assert_eq!(q.neighbor(0b010101, 3), 0b011101);
    }
}
