//! Associative binary operations (`⊕`) for parallel prefix computation.
//!
//! The paper states prefix computation for an arbitrary *associative*
//! binary operation. Associativity is all the algorithms may assume —
//! **not** commutativity — so this crate tests every prefix algorithm with
//! deliberately non-commutative monoids ([`Concat`], [`Mat2`]): an
//! implementation that combines operands in the wrong order produces
//! correct sums but wrong concatenations, which is how ordering bugs are
//! caught mechanically.
//!
//! Collectives that combine contributions in an arbitrary bracketing
//! (reduce, all-reduce) additionally require the [`Commutative`] marker.

/// An associative binary operation with identity (a monoid).
///
/// Laws (checked by property tests in this module):
/// * associativity: `a.combine(&b.combine(&c)) == a.combine(&b).combine(&c)`
/// * identity: `identity().combine(&a) == a == a.combine(&identity())`
///
/// `Send + Sync` are supertraits because machine states built from monoid
/// values cross worker threads under the simulator's parallel execution
/// backend ([`dc_simulator::ExecMode`]); `'static` because messages are
/// staged in the machine's reusable (type-erased) cycle scratch, which is
/// what makes steady-state cycles allocation-free. Every value-semantics
/// monoid satisfies all of them automatically.
pub trait Monoid: Clone + Send + Sync + 'static {
    /// The identity element of `⊕`.
    fn identity() -> Self;
    /// `self ⊕ rhs` (order matters: `self` is the left operand).
    fn combine(&self, rhs: &Self) -> Self;
    /// Payload size of this value in elements ("words"), for message-size
    /// accounting. Scalar monoids keep the default 1; aggregate ones (the
    /// gather [`Bag`](crate::collectives::gather::Bag), blocks) override.
    fn words(&self) -> u64 {
        1
    }
}

/// Marker for monoids whose `combine` is commutative. Required by the
/// reduction collectives, whose combining trees do not preserve index
/// order.
pub trait Commutative: Monoid {}

/// Integer addition (wrapping, so random-input property tests cannot
/// overflow-panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sum(pub i64);

impl Monoid for Sum {
    fn identity() -> Self {
        Sum(0)
    }
    fn combine(&self, rhs: &Self) -> Self {
        Sum(self.0.wrapping_add(rhs.0))
    }
}
impl Commutative for Sum {}

/// Lets plain `i64` lanes feed a [`Sum`] prefix in place (see
/// [`batched_d_prefix_in_place`](crate::prefix::dualcube::batched_d_prefix_in_place)).
impl From<i64> for Sum {
    fn from(x: i64) -> Self {
        Sum(x)
    }
}

impl From<Sum> for i64 {
    fn from(s: Sum) -> Self {
        s.0
    }
}

/// Maximum under the natural order of `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Max(pub i64);

impl Monoid for Max {
    fn identity() -> Self {
        Max(i64::MIN)
    }
    fn combine(&self, rhs: &Self) -> Self {
        Max(self.0.max(rhs.0))
    }
}
impl Commutative for Max {}

/// Minimum under the natural order of `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Min(pub i64);

impl Monoid for Min {
    fn identity() -> Self {
        Min(i64::MAX)
    }
    fn combine(&self, rhs: &Self) -> Self {
        Min(self.0.min(rhs.0))
    }
}
impl Commutative for Min {}

/// Bitwise exclusive-or.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Xor(pub u64);

impl Monoid for Xor {
    fn identity() -> Self {
        Xor(0)
    }
    fn combine(&self, rhs: &Self) -> Self {
        Xor(self.0 ^ rhs.0)
    }
}
impl Commutative for Xor {}

/// String concatenation — associative but **not** commutative. A prefix of
/// single-character inputs spells out exactly which elements were combined
/// in which order, making this the sharpest correctness probe available.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Concat(pub String);

impl Monoid for Concat {
    fn identity() -> Self {
        Concat(String::new())
    }
    fn combine(&self, rhs: &Self) -> Self {
        let mut s = String::with_capacity(self.0.len() + rhs.0.len());
        s.push_str(&self.0);
        s.push_str(&rhs.0);
        Concat(s)
    }
}

/// 2×2 integer matrix product (wrapping) — associative, non-commutative,
/// and unlike [`Concat`] of fixed size, so it also exercises the numeric
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mat2(pub [[i64; 2]; 2]);

impl Monoid for Mat2 {
    fn identity() -> Self {
        Mat2([[1, 0], [0, 1]])
    }
    fn combine(&self, rhs: &Self) -> Self {
        let (a, b) = (&self.0, &rhs.0);
        let mut out = [[0i64; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = a[i][0]
                    .wrapping_mul(b[0][j])
                    .wrapping_add(a[i][1].wrapping_mul(b[1][j]));
            }
        }
        Mat2(out)
    }
}

/// Folds a slice left-to-right: `xs\[0\] ⊕ xs\[1\] ⊕ … ⊕ xs[k−1]`
/// (identity for an empty slice).
pub fn fold<M: Monoid>(xs: &[M]) -> M {
    xs.iter().fold(M::identity(), |acc, x| acc.combine(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_monoid_laws<M: Monoid + PartialEq + std::fmt::Debug>(a: M, b: M, c: M) {
        assert_eq!(
            a.combine(&b).combine(&c),
            a.combine(&b.combine(&c)),
            "associativity"
        );
        assert_eq!(M::identity().combine(&a), a, "left identity");
        assert_eq!(a.combine(&M::identity()), a, "right identity");
    }

    proptest! {
        #[test]
        fn sum_laws(a: i64, b: i64, c: i64) {
            assert_monoid_laws(Sum(a), Sum(b), Sum(c));
        }

        #[test]
        fn max_min_xor_laws(a: i64, b: i64, c: i64) {
            assert_monoid_laws(Max(a), Max(b), Max(c));
            assert_monoid_laws(Min(a), Min(b), Min(c));
            assert_monoid_laws(Xor(a as u64), Xor(b as u64), Xor(c as u64));
        }

        #[test]
        fn concat_laws(a in "[a-z]{0,8}", b in "[a-z]{0,8}", c in "[a-z]{0,8}") {
            assert_monoid_laws(Concat(a), Concat(b), Concat(c));
        }

        #[test]
        fn mat2_laws(a: [[i64; 2]; 2], b: [[i64; 2]; 2], c: [[i64; 2]; 2]) {
            assert_monoid_laws(Mat2(a), Mat2(b), Mat2(c));
        }
    }

    #[test]
    fn concat_is_not_commutative() {
        let (a, b) = (Concat("x".into()), Concat("y".into()));
        assert_ne!(a.combine(&b), b.combine(&a));
    }

    #[test]
    fn mat2_is_not_commutative() {
        let a = Mat2([[0, 1], [0, 0]]);
        let b = Mat2([[0, 0], [1, 0]]);
        assert_ne!(a.combine(&b), b.combine(&a));
    }

    #[test]
    fn fold_is_left_to_right() {
        let xs = vec![Concat("a".into()), Concat("b".into()), Concat("c".into())];
        assert_eq!(fold(&xs), Concat("abc".into()));
        assert_eq!(fold::<Sum>(&[]), Sum(0));
    }

    #[test]
    fn mat2_multiplies_correctly() {
        let a = Mat2([[1, 2], [3, 4]]);
        let b = Mat2([[5, 6], [7, 8]]);
        assert_eq!(a.combine(&b), Mat2([[19, 22], [43, 50]]));
    }
}
