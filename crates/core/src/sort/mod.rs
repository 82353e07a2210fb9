//! Sorting (paper, Sections 5 and 6).
//!
//! * [`hypercube::cube_bitonic_sort`] — Batcher bitonic sort on `Q_m`
//!   (Section 5), `m(m+1)/2` compare-exchange steps.
//! * [`dualcube::d_sort`] — Algorithm 3: bitonic sort on `D_n` via the
//!   recursive presentation and emulated compare-exchange, at most `6n²`
//!   communication and `2n²` comparison steps (Theorem 2).
//! * [`large::d_sort_large`] — `k` keys per node via compare-split, the
//!   future-work-1 generalisation.
//! * [`ring::ring_sort`] — odd-even transposition on the dilation-1
//!   embedded Hamiltonian ring: the O(N)-step baseline that motivates the
//!   O(log²N)-step `D_sort`.
//! * [`metacube::mc_sort`] — bitonic sort on `MC(k, m)` through the
//!   generalised `(2k+1)`-cycle window; at `k = 1` its cost is exactly
//!   Theorem 2's.
//! * [`hyperquick::hyperquicksort`] — the randomized alternative Section
//!   5 alludes to: fast in expectation, no balance guarantee (measured in
//!   E20).
//! * [`bitonic`] — sequence predicates and a sequential Batcher network
//!   used as the reference and in property tests (0–1 principle).
//!
//! [`dualcube::batched_d_sort`] runs K independent key sets on lane
//! slabs — one `n × K` slab per variable, one schedule per cycle for all
//! K lanes (DESIGN.md §10). [`dualcube::d_sort`] is the same body at
//! K = 1, so each lane equals a single-instance run.

pub mod bitonic;
pub mod dualcube;
pub mod hypercube;
pub mod hyperquick;
pub mod large;
pub mod metacube;
pub mod odd_even;
pub mod ring;

/// Sort direction — the paper's boolean `tag` (0 = ascending,
/// 1 = descending).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortOrder {
    /// Non-decreasing by node index (`tag = 0`).
    #[default]
    Ascending,
    /// Non-increasing by node index (`tag = 1`).
    Descending,
}

impl SortOrder {
    /// The paper's `tag` bit.
    pub fn tag(self) -> bool {
        self == SortOrder::Descending
    }

    /// The opposite direction.
    pub fn reverse(self) -> Self {
        match self {
            SortOrder::Ascending => SortOrder::Descending,
            SortOrder::Descending => SortOrder::Ascending,
        }
    }

    /// Whether `keys` is sorted in this direction.
    pub fn is_sorted<K: Ord>(self, keys: &[K]) -> bool {
        match self {
            SortOrder::Ascending => keys.windows(2).all(|w| w[0] <= w[1]),
            SortOrder::Descending => keys.windows(2).all(|w| w[0] >= w[1]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_bits_match_paper_convention() {
        assert!(!SortOrder::Ascending.tag());
        assert!(SortOrder::Descending.tag());
    }

    #[test]
    fn reverse_is_involutive() {
        assert_eq!(SortOrder::Ascending.reverse(), SortOrder::Descending);
        assert_eq!(
            SortOrder::Descending.reverse().reverse(),
            SortOrder::Descending
        );
    }

    #[test]
    fn is_sorted_checks_direction() {
        assert!(SortOrder::Ascending.is_sorted(&[1, 2, 2, 3]));
        assert!(!SortOrder::Ascending.is_sorted(&[2, 1]));
        assert!(SortOrder::Descending.is_sorted(&[3, 2, 2, 1]));
        assert!(SortOrder::Descending.is_sorted(&[] as &[i32]));
    }
}
