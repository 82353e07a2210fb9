//! The dual-cube interconnection network `D_n` (paper, Section 2).
//!
//! `D_n` is an undirected graph on `{0,1}^(2n−1)`. Two nodes `u`, `v` are
//! adjacent iff they differ in exactly one bit position `i` and
//!
//! 1. `i = 2n−2` (the class bit) — a **cross-edge**, or
//! 2. `0 ≤ i ≤ n−2` and both nodes are class 0 — a cluster edge inside a
//!    class-0 `(n−1)`-cube, or
//! 3. `n−1 ≤ i ≤ 2n−3` and both nodes are class 1 — a cluster edge inside a
//!    class-1 `(n−1)`-cube.
//!
//! Thus each node has degree `n`: `n−1` cluster edges plus one cross-edge,
//! and `D_n` has `2^(2n−1)` nodes — the square of the cluster size, using
//! half the links per node of a hypercube of the same size.

mod address;
pub mod recursive;
mod routing;

pub use address::{Address, Class};
pub use recursive::RecDualCube;

use crate::bits::{bit, field, flip, hamming, with_field};
use crate::traits::{NodeId, Topology};

/// The `n`-connected dual-cube `D_n`: `2^(2n−1)` nodes of degree `n`.
///
/// ```
/// use dc_topology::{DualCube, Topology, Class};
/// let d = DualCube::new(3); // 32 nodes, degree 3 — Figure 2 of the paper
/// assert_eq!(d.num_nodes(), 32);
/// assert_eq!(d.degree(0), 3);
/// let u = d.from_parts(Class::Zero, 0b10, 0b01);
/// assert_eq!(d.cluster_id(u), 0b10);
/// assert_eq!(d.node_id(u), 0b01);
/// assert!(d.is_edge(u, d.cross_neighbor(u)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualCube {
    n: u32,
}

/// Largest supported `n` (address width `2n−1 ≤ 25` keeps instances well
/// inside memory for exhaustive simulation).
pub const MAX_DUAL_CUBE_N: u32 = 13;

impl DualCube {
    /// Creates `D_n`. Panics unless `1 ≤ n ≤` [`MAX_DUAL_CUBE_N`].
    ///
    /// `D_1` is the degenerate base case `K_2` (two single-node clusters
    /// joined by the cross-edge), matching the recursive construction's
    /// base `D_1 = Q_1` in Section 4.
    pub fn new(n: u32) -> Self {
        assert!(
            (1..=MAX_DUAL_CUBE_N).contains(&n),
            "dual-cube parameter {n} out of range 1..={MAX_DUAL_CUBE_N}"
        );
        DualCube { n }
    }

    /// The connectivity parameter `n` (node degree).
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of address bits, `2n−1`.
    #[inline]
    pub fn address_bits(&self) -> u32 {
        2 * self.n - 1
    }

    /// Dimension of each cluster hypercube, `n−1`.
    #[inline]
    pub fn cluster_dim(&self) -> u32 {
        self.n - 1
    }

    /// Nodes per cluster, `2^(n−1)`.
    #[inline]
    pub fn cluster_size(&self) -> usize {
        1usize << self.cluster_dim()
    }

    /// Clusters per class, `2^(n−1)`.
    #[inline]
    pub fn clusters_per_class(&self) -> usize {
        1usize << self.cluster_dim()
    }

    /// Bit position of the class indicator, `2n−2`.
    #[inline]
    pub fn class_bit(&self) -> u32 {
        2 * self.n - 2
    }

    /// The class of node `u`.
    #[inline]
    pub fn class_of(&self, u: NodeId) -> Class {
        Class::from_bit(bit(u, self.class_bit()))
    }

    /// Part I of the address: the rightmost `n−1` bits.
    #[inline]
    pub fn part1(&self, u: NodeId) -> usize {
        field(u, 0, self.cluster_dim())
    }

    /// Part II of the address: bits `n−1 … 2n−3`.
    #[inline]
    pub fn part2(&self, u: NodeId) -> usize {
        field(u, self.cluster_dim(), self.cluster_dim())
    }

    /// The node id of `u` inside its cluster (part I for class 0,
    /// part II for class 1).
    #[inline]
    pub fn node_id(&self, u: NodeId) -> usize {
        match self.class_of(u) {
            Class::Zero => self.part1(u),
            Class::One => self.part2(u),
        }
    }

    /// The cluster id of `u` (part II for class 0, part I for class 1).
    #[inline]
    pub fn cluster_id(&self, u: NodeId) -> usize {
        match self.class_of(u) {
            Class::Zero => self.part2(u),
            Class::One => self.part1(u),
        }
    }

    /// Assembles a raw node id from `(class, cluster id, node id)`.
    pub fn from_parts(&self, class: Class, cluster: usize, node: usize) -> NodeId {
        let w = self.cluster_dim();
        assert!(
            cluster < self.clusters_per_class(),
            "cluster id {cluster} out of range"
        );
        assert!(node < self.cluster_size(), "node id {node} out of range");
        if w == 0 {
            // D_1: the whole address is the class bit.
            return class.as_usize();
        }
        let (p2, p1) = match class {
            Class::Zero => (cluster, node),
            Class::One => (node, cluster),
        };
        let u = with_field(with_field(0, 0, w, p1), w, w, p2);
        crate::bits::with_bit(u, self.class_bit(), class.as_bit())
    }

    /// Decodes `u` into its structured [`Address`].
    #[inline]
    pub fn address(&self, u: NodeId) -> Address {
        Address::new(self.class_of(u), self.cluster_id(u), self.node_id(u))
    }

    /// Re-assembles an [`Address`] into a raw node id.
    #[inline]
    pub fn from_address(&self, a: Address) -> NodeId {
        self.from_parts(a.class, a.cluster, a.node)
    }

    /// The unique cross-edge neighbour of `u` (class bit flipped).
    #[inline]
    pub fn cross_neighbor(&self, u: NodeId) -> NodeId {
        flip(u, self.class_bit())
    }

    /// The neighbour of `u` across cluster dimension `i` (`0 ≤ i < n−1`):
    /// flips bit `i` of the node-id field, i.e. raw bit `i` for class-0
    /// nodes and raw bit `n−1+i` for class-1 nodes.
    #[inline]
    pub fn cluster_neighbor(&self, u: NodeId, i: u32) -> NodeId {
        debug_assert!(i < self.cluster_dim(), "cluster dimension {i} out of range");
        match self.class_of(u) {
            Class::Zero => flip(u, i),
            Class::One => flip(u, self.cluster_dim() + i),
        }
    }

    /// Whether `u` and `v` belong to the same cluster (`C_u = C_v`).
    #[inline]
    pub fn same_cluster(&self, u: NodeId, v: NodeId) -> bool {
        self.class_of(u) == self.class_of(v) && self.cluster_id(u) == self.cluster_id(v)
    }

    /// A dense index identifying the cluster of `u`, in
    /// `0 .. 2·clusters_per_class()`; class-0 clusters come first.
    /// Useful for bucketing per-cluster state in the algorithms.
    #[inline]
    pub fn cluster_index(&self, u: NodeId) -> usize {
        self.class_of(u).as_usize() * self.clusters_per_class() + self.cluster_id(u)
    }

    /// All member node ids of the cluster with dense index `ci`
    /// (see [`DualCube::cluster_index`]), ordered by node id.
    pub fn cluster_members(&self, ci: usize) -> Vec<NodeId> {
        let class = if ci < self.clusters_per_class() {
            Class::Zero
        } else {
            Class::One
        };
        let cluster = ci % self.clusters_per_class();
        (0..self.cluster_size())
            .map(|node| self.from_parts(class, cluster, node))
            .collect()
    }

    /// The data-placement index of Section 3: `lin(u) = u` for class-0
    /// nodes; for class-1 nodes parts I and II are swapped so that the
    /// indices held by the nodes of every cluster are consecutive, ordered
    /// by node id. This is the ordering in which `D_prefix` produces
    /// prefixes and `D_sort`'s standard-presentation callers interpret
    /// ranks.
    #[inline]
    pub fn linear_index(&self, u: NodeId) -> usize {
        let w = self.cluster_dim();
        if w == 0 {
            return u; // D_1: nothing to swap.
        }
        match self.class_of(u) {
            Class::Zero => u,
            Class::One => with_field(with_field(u, 0, w, self.part2(u)), w, w, self.part1(u)),
        }
    }

    /// Inverse of [`DualCube::linear_index`].
    #[inline]
    pub fn from_linear_index(&self, idx: usize) -> NodeId {
        // The swap is an involution and the class bit is unchanged, so the
        // same transformation inverts it.
        self.linear_index(idx)
    }

    /// The closed-form distance of Section 2: the Hamming distance when
    /// `u`, `v` share a cluster or lie in clusters of *distinct* classes;
    /// otherwise (same class, different clusters) Hamming distance plus two
    /// — one hop to enter a cluster of the other class and one to leave.
    ///
    /// Verified against BFS for all pairs up to `n = 4` in the tests.
    pub fn distance_formula(&self, u: NodeId, v: NodeId) -> u32 {
        let h = hamming(u, v);
        if self.class_of(u) != self.class_of(v) || self.same_cluster(u, v) {
            h
        } else {
            h + 2
        }
    }

    /// The diameter: `2n` for `n ≥ 2` (hypercube of the same size plus
    /// one), and `1` for the degenerate `D_1 = K_2`.
    pub fn diameter_formula(&self) -> u32 {
        if self.n == 1 {
            1
        } else {
            2 * self.n
        }
    }
}

impl Topology for DualCube {
    fn num_nodes(&self) -> usize {
        1usize << self.address_bits()
    }

    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        debug_assert!(u < self.num_nodes());
        out.clear();
        for i in 0..self.cluster_dim() {
            out.push(self.cluster_neighbor(u, i));
        }
        out.push(self.cross_neighbor(u));
    }

    fn degree(&self, _u: NodeId) -> usize {
        self.n as usize
    }

    fn is_edge(&self, u: NodeId, v: NodeId) -> bool {
        if hamming(u, v) != 1 {
            return false;
        }
        let i = (u ^ v).trailing_zeros();
        if i == self.class_bit() {
            true // cross-edge
        } else if i < self.cluster_dim() {
            self.class_of(u) == Class::Zero && self.class_of(v) == Class::Zero
        } else {
            self.class_of(u) == Class::One && self.class_of(v) == Class::One
        }
    }

    fn num_edges(&self) -> usize {
        // degree n, 2^(2n−1) nodes → n · 2^(2n−2) edges.
        (self.n as usize) << (2 * self.n - 2)
    }

    fn is_cross_edge(&self, u: NodeId, v: NodeId) -> bool {
        // An edge joins distinct classes exactly when it is the unique
        // cross edge (cluster edges never touch the class bit).
        u ^ v == 1usize << self.class_bit()
    }

    fn max_ports(&self) -> u32 {
        self.n
    }

    /// Ports follow [`Topology::neighbors_into`] order: cluster dimension
    /// `i` is port `i` (the flipped raw bit is `i` for class 0, `n−1+i`
    /// for class 1), the cross edge is port `n−1`.
    fn port_of(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if !self.is_edge(u, v) {
            return None;
        }
        let i = (u ^ v).trailing_zeros();
        Some(if i == self.class_bit() {
            self.cluster_dim()
        } else if i < self.cluster_dim() {
            i
        } else {
            i - self.cluster_dim()
        })
    }

    /// Section 2's bit roles, the rule [`DualCube::is_edge`] reads: the
    /// class bit is an edge everywhere, bits `0 … n−2` only in class 0,
    /// and bits `n−1 … 2n−3` only in class 1. The top address bit is the
    /// class bit, so `class` is the node's class.
    fn flip_is_edge(&self, bit: u32, class: usize) -> Option<bool> {
        let in_class = match class {
            0 => bit < self.cluster_dim(),
            _ => (self.cluster_dim()..self.class_bit()).contains(&bit),
        };
        Some(bit == self.class_bit() || in_class)
    }

    fn name(&self) -> String {
        format!("D_{}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    #[test]
    fn counts_match_formulas() {
        for n in 1..=5 {
            let d = DualCube::new(n);
            assert_eq!(d.num_nodes(), 1 << (2 * n - 1), "nodes of D_{n}");
            assert_eq!(d.num_edges(), (n as usize) << (2 * n - 2), "edges of D_{n}");
            assert_eq!(
                graph::degree_histogram(&d),
                vec![(n as usize, 1 << (2 * n - 1))]
            );
        }
    }

    #[test]
    fn graph_contract_holds() {
        for n in 1..=4 {
            let d = DualCube::new(n);
            assert!(graph::check_simple_undirected(&d).is_empty(), "D_{n}");
            assert!(graph::is_connected(&d), "D_{n} connected");
        }
    }

    #[test]
    fn diameter_matches_formula() {
        for n in 1..=4 {
            let d = DualCube::new(n);
            assert_eq!(
                graph::diameter(&d),
                d.diameter_formula(),
                "diameter of D_{n}"
            );
            // Vertex-transitivity shortcut agrees with the exhaustive diameter.
            assert_eq!(graph::diameter_vertex_transitive(&d), d.diameter_formula());
        }
    }

    #[test]
    fn address_round_trip() {
        for n in 1..=4 {
            let d = DualCube::new(n);
            for u in 0..d.num_nodes() {
                let a = d.address(u);
                assert_eq!(d.from_address(a), u, "D_{n} node {u}");
            }
        }
    }

    #[test]
    fn address_fields_of_figure_one() {
        // Figure 1 depicts D_2: 8 nodes with 3-bit ids (class, cluster, node).
        let d = DualCube::new(2);
        // Node 0b011 is class 0, cluster 1, node 1.
        assert_eq!(d.address(0b011), Address::new(Class::Zero, 1, 1));
        // Node 0b110 is class 1; part I (low bit, 0) is the cluster id and
        // part II (middle bit, 1) the node id.
        assert_eq!(d.address(0b110), Address::new(Class::One, 0, 1));
    }

    #[test]
    fn cross_neighbor_differs_only_in_class_bit() {
        let d = DualCube::new(3);
        for u in 0..d.num_nodes() {
            let v = d.cross_neighbor(u);
            assert_eq!(u ^ v, 1 << d.class_bit());
            assert!(d.is_edge(u, v));
            assert_eq!(d.cross_neighbor(v), u);
            assert_ne!(d.class_of(u), d.class_of(v));
        }
    }

    #[test]
    fn cluster_neighbors_stay_in_cluster() {
        let d = DualCube::new(4);
        for u in (0..d.num_nodes()).step_by(7) {
            for i in 0..d.cluster_dim() {
                let v = d.cluster_neighbor(u, i);
                assert!(d.is_edge(u, v), "u={u} i={i}");
                assert!(d.same_cluster(u, v));
                assert_eq!(d.node_id(u) ^ d.node_id(v), 1 << i);
                assert_eq!(d.cluster_neighbor(v, i), u);
            }
        }
    }

    #[test]
    fn no_edges_between_clusters_of_same_class() {
        let d = DualCube::new(3);
        for u in 0..d.num_nodes() {
            for v in d.neighbors(u) {
                // Every edge is intra-cluster or a cross-edge.
                assert!(
                    d.same_cluster(u, v) || d.class_of(u) != d.class_of(v),
                    "edge {u}-{v} joins distinct clusters of one class"
                );
            }
        }
    }

    #[test]
    fn cluster_members_partition_the_nodes() {
        let d = DualCube::new(3);
        let mut seen = vec![false; d.num_nodes()];
        for ci in 0..2 * d.clusters_per_class() {
            let members = d.cluster_members(ci);
            assert_eq!(members.len(), d.cluster_size());
            for (pos, &u) in members.iter().enumerate() {
                assert_eq!(d.cluster_index(u), ci);
                assert_eq!(d.node_id(u), pos);
                assert!(!seen[u], "node {u} in two clusters");
                seen[u] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn each_cluster_is_a_hypercube() {
        // Cluster edges restricted to a cluster form Q_{n-1}.
        let d = DualCube::new(4);
        let members = d.cluster_members(5);
        for (i, &u) in members.iter().enumerate() {
            for (j, &v) in members.iter().enumerate() {
                let adjacent = d.is_edge(u, v);
                assert_eq!(adjacent, (i ^ j).count_ones() == 1, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn linear_index_is_a_bijection_and_consecutive_per_cluster() {
        for n in 2..=4 {
            let d = DualCube::new(n);
            let mut seen = vec![false; d.num_nodes()];
            for u in 0..d.num_nodes() {
                let idx = d.linear_index(u);
                assert!(!seen[idx]);
                seen[idx] = true;
                assert_eq!(d.from_linear_index(idx), u);
            }
            // Consecutive within each cluster, ordered by node id.
            for ci in 0..2 * d.clusters_per_class() {
                let members = d.cluster_members(ci);
                let base = d.linear_index(members[0]);
                for (pos, &u) in members.iter().enumerate() {
                    assert_eq!(d.linear_index(u), base + pos, "cluster {ci}");
                }
            }
        }
    }

    #[test]
    fn class_zero_linear_index_is_identity() {
        let d = DualCube::new(3);
        for u in 0..d.num_nodes() {
            if d.class_of(u) == Class::Zero {
                assert_eq!(d.linear_index(u), u);
            } else {
                assert!(d.linear_index(u) >= d.num_nodes() / 2);
            }
        }
    }

    #[test]
    fn distance_formula_matches_bfs() {
        for n in 2..=4 {
            let d = DualCube::new(n);
            for u in (0..d.num_nodes()).step_by(if n == 4 { 11 } else { 1 }) {
                let bfs = graph::bfs_distances(&d, u);
                for (v, &dist) in bfs.iter().enumerate() {
                    assert_eq!(d.distance_formula(u, v), dist, "D_{n} distance({u},{v})");
                }
            }
        }
    }

    #[test]
    fn d1_is_k2() {
        let d = DualCube::new(1);
        assert_eq!(d.num_nodes(), 2);
        assert_eq!(d.num_edges(), 1);
        assert!(d.is_edge(0, 1));
        assert_eq!(d.diameter_formula(), 1);
        assert_eq!(graph::diameter(&d), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn n_zero_rejected() {
        DualCube::new(0);
    }
}
