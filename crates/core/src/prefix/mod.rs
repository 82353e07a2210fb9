//! Parallel prefix computation (paper, Section 3).
//!
//! Given `2^m` values `c\[0\], …, c[2^m − 1]`, one per node, *parallel prefix
//! computation* evaluates all prefixes `s[i] = c\[0\] ⊕ c\[1\] ⊕ … ⊕ c[i]` of
//! an associative operation `⊕` simultaneously. The *diminished* variant
//! excludes the node's own value: `s[i] = c\[0\] ⊕ … ⊕ c[i−1]`.
//!
//! * [`hypercube::cube_prefix`] — Algorithm 1, the classic ascend
//!   algorithm on `Q_m`: `m` communication + `m` computation steps.
//! * [`dualcube::d_prefix`] — Algorithm 2, the paper's primary
//!   contribution: prefix on `D_n` in `2n+1` communication + `2n`
//!   computation steps (Theorem 1), using the cluster structure
//!   (Technique 1).
//! * [`large::d_prefix_large`] — the "input larger than the network"
//!   generalisation the paper lists as future work 1.
//! * [`metacube::mc_prefix`] — prefix on the metacube `MC(k, m)` via a
//!   `(2k+1)`-cycle emulated dimension window (the `k`-generalisation of
//!   Algorithm 3's 3-hop path; `MC(1, m) = D_(m+1)` recovers the
//!   dual-cube).
//! * [`sequential_prefix`] — the single-processor reference every
//!   simulated run is checked against.
//!
//! The batched entry points ([`hypercube::batched_cube_prefix`],
//! [`dualcube::batched_d_prefix`]) run K independent instances on lane
//! slabs — one `n × K` slab per paper variable, row `u` holding node
//! `u`'s K lanes: one schedule lookup / validation / row move per cycle
//! advances all K lanes, amortizing the per-cycle engine overhead
//! (DESIGN.md §10). The single-instance entry points are the same bodies
//! at K = 1, so each lane equals a single-instance run.

pub mod dualcube;
pub mod hypercube;
pub mod large;
pub mod metacube;

use crate::ops::Monoid;

/// Which prefix each node should end up holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefixKind {
    /// `s[i] = c\[0\] ⊕ … ⊕ c[i]` (the paper's `tag` asking for the full
    /// prefix).
    #[default]
    Inclusive,
    /// `s[i] = c\[0\] ⊕ … ⊕ c[i−1]`, with `s\[0\]` the identity (the paper's
    /// "diminished prefix which excludes `c[u]` in `s[u]`").
    Diminished,
}

/// Sequential reference: all prefixes of `input` under `⊕`, left to right.
pub fn sequential_prefix<M: Monoid>(input: &[M], kind: PrefixKind) -> Vec<M> {
    let mut out = Vec::with_capacity(input.len());
    let mut acc = M::identity();
    for x in input {
        match kind {
            PrefixKind::Inclusive => {
                acc = acc.combine(x);
                out.push(acc.clone());
            }
            PrefixKind::Diminished => {
                out.push(acc.clone());
                acc = acc.combine(x);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Sum};

    #[test]
    fn sequential_inclusive_sums() {
        let input: Vec<Sum> = [3, 1, 4, 1, 5].iter().map(|&x| Sum(x)).collect();
        let out = sequential_prefix(&input, PrefixKind::Inclusive);
        assert_eq!(
            out.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![3, 4, 8, 9, 14]
        );
    }

    #[test]
    fn sequential_diminished_sums() {
        let input: Vec<Sum> = [3, 1, 4, 1, 5].iter().map(|&x| Sum(x)).collect();
        let out = sequential_prefix(&input, PrefixKind::Diminished);
        assert_eq!(
            out.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![0, 3, 4, 8, 9]
        );
    }

    #[test]
    fn sequential_preserves_order_for_noncommutative_ops() {
        let input: Vec<Concat> = ["a", "b", "c"].iter().map(|&x| Concat(x.into())).collect();
        let out = sequential_prefix(&input, PrefixKind::Inclusive);
        assert_eq!(out.last().unwrap().0, "abc");
    }

    #[test]
    fn empty_input() {
        assert!(sequential_prefix::<Sum>(&[], PrefixKind::Inclusive).is_empty());
    }
}
