//! The [`Topology`] and [`Routed`] traits implemented by every
//! interconnection network in this crate.

/// A node identifier. Nodes of an `N`-node topology are `0..N`.
///
/// Ids are `usize` at API boundaries for ergonomic indexing, but the
/// simulator packs them into `u32` end-to-end (compiled schedules, inbox
/// source arrays, flat link tables), so machines reject topologies with
/// `2^31` nodes or more — far above the D_12 (8.4M node) ceiling any
/// in-memory run can hold anyway.
pub type NodeId = usize;

/// Runs `f` with this thread's reusable neighbour buffer — the
/// allocation-free path behind the trait's default `degree` / `is_edge` /
/// `port_of`. Take/put via `Cell` (not `RefCell`) so a nested call — e.g.
/// a wrapper topology whose `neighbors_into` consults the inner graph's
/// `is_edge` — sees a fresh empty buffer instead of panicking; only the
/// outermost frame keeps the warm allocation.
fn with_neighbor_scratch<R>(f: impl FnOnce(&mut Vec<NodeId>) -> R) -> R {
    use std::cell::Cell;
    thread_local! {
        static SCRATCH: Cell<Vec<NodeId>> = const { Cell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut buf = cell.take();
        let r = f(&mut buf);
        cell.set(buf);
        r
    })
}

/// A static, undirected interconnection network.
///
/// Implementations must present a *simple* undirected graph: no self loops,
/// no parallel edges, and `v ∈ neighbors(u) ⇔ u ∈ neighbors(v)`. The
/// verification helpers in [`crate::graph`] check these invariants
/// mechanically and the test suites of all implementations call them.
pub trait Topology {
    /// Total number of nodes. Node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Appends the neighbours of `u` to `out` (cleared first).
    ///
    /// This is the primitive; [`Topology::neighbors`] is the convenience
    /// allocating form. Taking a scratch buffer keeps BFS over 2^15-node
    /// networks allocation-free in the hot loop.
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>);

    /// The neighbours of `u` as a fresh vector.
    fn neighbors(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_into(u, &mut out);
        out
    }

    /// Degree of node `u`.
    ///
    /// The default enumerates neighbours into a shared thread-local
    /// scratch buffer — allocation-free after the first call per thread.
    /// Topologies with a closed form (all the cube families here)
    /// override it.
    fn degree(&self, u: NodeId) -> usize {
        with_neighbor_scratch(|buf| {
            self.neighbors_into(u, buf);
            buf.len()
        })
    }

    /// Whether `{u, v}` is an edge. Same scratch-buffer default as
    /// [`Topology::degree`]; cube families override with bit tests.
    fn is_edge(&self, u: NodeId, v: NodeId) -> bool {
        with_neighbor_scratch(|buf| {
            self.neighbors_into(u, buf);
            buf.contains(&v)
        })
    }

    /// Upper bound on [`Topology::degree`] over all nodes — the stride of
    /// the simulator's flat port-indexed link tables (slot
    /// `u · max_ports() + port_of(u, v)`). The default sweeps every node
    /// once; regular topologies override with their constant degree.
    /// Callers cache the result (the simulator computes it at most once
    /// per machine, and only when link recording is on).
    fn max_ports(&self) -> u32 {
        (0..self.num_nodes())
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0) as u32
    }

    /// The **port** of edge `{u, v}` at endpoint `u`: the position of `v`
    /// in `neighbors(u)`. `None` when `{u, v}` is not an edge.
    ///
    /// Contract: for a fixed `u`, ports of distinct neighbours are
    /// distinct and `< max_ports()`; the numbering is stable for the
    /// lifetime of the topology value. Ports are *per-endpoint* —
    /// `port_of(u, v)` and `port_of(v, u)` need not agree. Overrides must
    /// be allocation-free (the simulator calls this once per recorded
    /// message); the default walks the scratch neighbour buffer.
    fn port_of(&self, u: NodeId, v: NodeId) -> Option<u32> {
        with_neighbor_scratch(|buf| {
            self.neighbors_into(u, buf);
            buf.iter().position(|&w| w == v).map(|p| p as u32)
        })
    }

    /// Total number of undirected edges (default: handshake lemma).
    fn num_edges(&self) -> usize {
        let total: usize = (0..self.num_nodes()).map(|u| self.degree(u)).sum();
        debug_assert!(
            total.is_multiple_of(2),
            "odd degree sum: graph is not undirected"
        );
        total / 2
    }

    /// Whether `{u, v}` is a **cross edge** — an inter-cluster link of the
    /// class-partitioned topologies (the dual-cube's unique `u ↔ ū₀` link,
    /// a metacube cross dimension). Topologies without a class structure
    /// keep the default (`false` for every pair). Only meaningful when
    /// `is_edge(u, v)` holds; implementations need not validate adjacency.
    /// Must be allocation-free (the simulator's link-utilization
    /// accounting calls it once per delivered message).
    fn is_cross_edge(&self, _u: NodeId, _v: NodeId) -> bool {
        false
    }

    /// Whether flipping address bit `bit` gives an edge at the nodes whose
    /// top address bit is `class` (0 or 1), answered from the topology's
    /// bit roles: `Some(true)` when it does at every such node,
    /// `Some(false)` when it does at none, and `None`, the default, when
    /// the topology has no such closed form (its answer varies from node
    /// to node, or it does not say), so a caller checks node by node. Only
    /// a topology of `2^k` nodes, `k ≥ 1`, answers, and a bit at or above
    /// `k` is never an edge. The simulator proves a bit-flip matching
    /// legal with two of these queries instead of one
    /// [`Topology::is_edge`] per sender.
    fn flip_is_edge(&self, bit: u32, class: usize) -> Option<bool> {
        let _ = (bit, class);
        None
    }

    /// Human-readable name, e.g. `"D_3"` or `"Q_5"`.
    fn name(&self) -> String;
}

/// A topology with a built-in (formula-driven) point-to-point router.
///
/// `route` must return a path along edges of the topology; the graph tests
/// check every hop with [`Topology::is_edge`] and compare the length against
/// BFS distance where the implementation claims shortest paths.
pub trait Routed: Topology {
    /// A path `[u, …, v]` from `u` to `v` along edges of the network.
    /// Returns `[u]` when `u == v`.
    fn route(&self, u: NodeId, v: NodeId) -> Vec<NodeId>;

    /// Number of hops of [`Routed::route`]. Implementations with a
    /// closed-form distance override this without materialising the path.
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        (self.route(u, v).len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-cycle, the smallest interesting hand-rolled topology, used to
    /// exercise the trait's default methods.
    struct C4;

    impl Topology for C4 {
        fn num_nodes(&self) -> usize {
            4
        }
        fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
            out.clear();
            out.push((u + 1) % 4);
            out.push((u + 3) % 4);
        }
        fn name(&self) -> String {
            "C_4".into()
        }
    }

    #[test]
    fn default_degree_and_edges() {
        let c = C4;
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.num_edges(), 4);
        assert!(c.is_edge(0, 1));
        assert!(c.is_edge(0, 3));
        assert!(!c.is_edge(0, 2));
        assert!(!c.is_edge(1, 3));
    }

    #[test]
    fn neighbors_matches_neighbors_into() {
        let c = C4;
        let mut buf = Vec::new();
        for u in 0..4 {
            c.neighbors_into(u, &mut buf);
            assert_eq!(buf, c.neighbors(u));
        }
    }

    #[test]
    fn default_ports_follow_neighbor_order() {
        let c = C4;
        assert_eq!(c.max_ports(), 2);
        for u in 0..4 {
            for (p, v) in c.neighbors(u).into_iter().enumerate() {
                assert_eq!(c.port_of(u, v), Some(p as u32));
            }
            assert_eq!(c.port_of(u, (u + 2) % 4), None);
            assert_eq!(c.port_of(u, u), None);
        }
    }

    /// A topology whose `neighbors_into` itself calls a default trait
    /// method of another topology — the scratch buffer must tolerate the
    /// nesting (each frame takes the cell, inner frames see it empty).
    struct FilteredC4;

    impl Topology for FilteredC4 {
        fn num_nodes(&self) -> usize {
            4
        }
        fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
            out.clear();
            for v in 0..4 {
                if v != u && C4.is_edge(u, v) {
                    out.push(v);
                }
            }
        }
        fn name(&self) -> String {
            "C_4/filter".into()
        }
    }

    #[test]
    fn scratch_defaults_survive_reentrancy() {
        let f = FilteredC4;
        assert_eq!(f.degree(0), 2);
        assert!(f.is_edge(0, 1));
        assert!(!f.is_edge(0, 2));
        assert_eq!(f.port_of(2, 3), Some(1));
        assert_eq!(f.num_edges(), 4);
    }
}
