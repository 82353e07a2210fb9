//! The communication-cycle descriptor: one [`Comm`] names one 1-port
//! matching for [`Machine::try_cycle`](crate::Machine::try_cycle).
//!
//! Algorithms 2 and 3 of the paper are fixed sequences of 1-port
//! matchings — cluster-dimension and cross-edge exchanges, plus
//! Algorithm 3's 3-hop emulation window. A descriptor has three axes:
//!
//! * the **payload form** — a moved message `M` per sender
//!   ([`Comm::message`], one word per message unless [`Comm::words`]
//!   says otherwise); `K` lane values of `V` per sender, moved from
//!   caller-owned lane slabs ([`Comm::rows`], `K` words per slab pair);
//!   `K` lane values per sender folded straight into the receiver's
//!   rows, the cycle and its computation step in one pass
//!   ([`Comm::fold_rows`], `K` words per message); the same for the
//!   pairs of a bit-flip matching ([`Flip`]), each pair folded once in
//!   place at both ends ([`Comm::fold_pairs`], `K` words per message);
//!   or `K` lane values staged through per-node state ([`Comm::lanes`],
//!   `K` words per message, kept for the repository benchmark's
//!   probes);
//! * an optional **key** ([`Comm::keyed`]) naming the pattern for
//!   compile-once / replay-after (see the [`crate::schedule`] docs);
//! * the **pairwise** flag ([`Comm::pairwise`]), which requires the
//!   matching to be symmetric. Like the rest of validation it is checked
//!   on compile (and unkeyed) cycles; a replay checks the pattern
//!   against the compiled schedule instead.
//!
//! The machine hands [`Machine::try_cycle`](crate::Machine::try_cycle)'s
//! closure a blank `Comm<S>`, so the payload closures built on it see the
//! machine's state type `S` and need no parameter annotations:
//!
//! ```
//! use dc_simulator::{Machine, ScheduleKey};
//! use dc_topology::Hypercube;
//!
//! let q = Hypercube::new(2);
//! let mut m = Machine::new(&q, vec![1u64, 2, 3, 4]);
//! // A moved message: every node sends its value across dimension 0.
//! m.cycle(|c| c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v).pairwise());
//! // Two lanes per message, keyed: compiled now, replayed next time.
//! m.cycle(|c| {
//!     c.lanes(2, &0, |u, _| Some(u ^ 2), |_, &s, w| w.fill(s), |s, _, w| *s += w[0])
//!         .pairwise()
//!         .keyed(ScheduleKey::Dim(1))
//! });
//! assert_eq!(m.states(), &[10, 10, 10, 10]);
//! assert_eq!(m.metrics().message_words, 4 + 2 * 4);
//!
//! // Rows: node `u` owns row `u` (two lanes) of each slab; a cycle moves
//! // row `src` of the source slab into row `u` of the destination slab.
//! let mut r = Machine::new(&q, vec![(); 4]);
//! let values: Vec<u64> = (0..8).collect();
//! let mut partner = vec![0u64; 8];
//! r.cycle(|c| {
//!     c.rows(2, |u, _| Some(u ^ 1), [(&values[..], &mut partner[..])])
//!         .pairwise()
//!         .keyed(ScheduleKey::Dim(0))
//! });
//! assert_eq!(partner, [2, 3, 0, 1, 6, 7, 4, 5]);
//! assert_eq!(r.metrics().message_words, 4 * 2);
//! ```
//!
//! Each payload form is a type implementing the sealed [`Payload`] trait,
//! so the machine's one full-cycle path and one replay path are
//! monomorphised per form: no dynamic dispatch and no per-node branch on
//! the form in either hot loop.
//!
//! The rows form is the data plane of the paper algorithms, batched and
//! single-instance alike (DESIGN.md §10): each paper variable is one
//! `n × K` slab the caller owns (K = 1 for a single instance), and the
//! machine's per-node state is `()`. Because the source and destination
//! of a row move are separate slabs, the cycle needs no staging copy:
//! once the matching is validated (or replayed), each receiver's row is
//! copied straight from its sender's row, and a failed cycle writes no
//! row. [`Machine::compute_rows`](crate::Machine::compute_rows)
//! is the matching computation phase, handing each live node its rows.
//!
//! An exchange-and-combine round — move a row to the partner, then fold
//! it in — is one fold cycle, charged exactly as the rows cycle plus
//! [`Machine::compute_rows`](crate::Machine::compute_rows) it replaces:
//!
//! * [`Comm::fold_rows`], on any matching, when the travelling slab is
//!   one the fold only reads: each live node's fold reads its sender's
//!   row where it lies, so the round makes one pass over the rows
//!   instead of a move into a landing slab and a fold that reads that
//!   slab back;
//! * [`Comm::fold_pairs`], when the matching is a [`Flip`] and the
//!   travelling slab is folded too (Algorithm 1's ascend round): the
//!   fold visits each pair once, with both ends' rows in hand, so both
//!   read the other's pre-cycle row without any staging copy. The pairs
//!   of a flip sit in blocks of `2m` rows, the low half against the
//!   high half (`m` the flipped bit), so the walk needs no per-node
//!   partner lookup. A keyed pair fold whose flip equals the one its
//!   schedule was compiled with replays without evaluating any node's
//!   plan (see the [`crate::schedule`] docs).

use crate::fault::FaultState;
use crate::parallel::{par_lane_apply_bounds, par_rows_bounds};
use crate::schedule::{ScheduleKey, NO_SRC};
use dc_topology::NodeId;
use std::marker::PhantomData;
use std::ops::Range;

/// One communication cycle's description, built inside the closure passed
/// to [`Machine::try_cycle`](crate::Machine::try_cycle) /
/// [`Machine::cycle`](crate::Machine::cycle) from the blank `Comm<S>`
/// the machine provides: pick a payload form ([`Comm::message`],
/// [`Comm::rows`], [`Comm::fold_rows`], [`Comm::fold_pairs`] or
/// [`Comm::lanes`]), then optionally [`Comm::pairwise`] and
/// [`Comm::keyed`] (in any order). See the [module docs](crate::comm).
#[must_use = "a Comm describes a cycle; return it to `Machine::cycle` to run it"]
pub struct Comm<S, F = ()> {
    pub(crate) form: F,
    pub(crate) key: Option<ScheduleKey>,
    pub(crate) pairwise: bool,
    state: PhantomData<fn(&S)>,
}

impl<S> Comm<S> {
    /// The blank descriptor a cycle's builder closure starts from.
    pub(crate) fn blank() -> Self {
        Comm {
            form: (),
            key: None,
            pairwise: false,
            state: PhantomData,
        }
    }

    fn with<F>(self, form: F) -> Comm<S, F> {
        Comm {
            form,
            key: self.key,
            pairwise: self.pairwise,
            state: PhantomData,
        }
    }

    /// The moved-message form: `plan(u, state)` returns the
    /// (destination, message) node `u` sends, or `None` to stay silent;
    /// `deliver(state, src, message)` runs at each receiver. Each message
    /// is charged one word unless [`Comm::words`] says otherwise.
    pub fn message<M, P, D>(
        self,
        plan: P,
        deliver: D,
    ) -> Comm<S, Message<M, P, D, impl Fn(&M) -> u64 + Sync>>
    where
        M: Send + Sync + 'static,
        P: Fn(NodeId, &S) -> Option<(NodeId, M)> + Sync,
        D: Fn(&mut S, NodeId, M) + Sync,
    {
        self.with(Message {
            plan,
            deliver,
            words: |_: &M| 1,
            msg: PhantomData,
        })
    }

    /// The rows form: `K = width` independent payload values ride each
    /// delivered message, moved between caller-owned lane slabs. Every
    /// slab holds `width` values per node, row `u` at
    /// `slab[u*width..(u+1)*width]`. `plan(u, state)` names node `u`'s
    /// destination (or `None`); for each validated message `src → u` and
    /// each `(source, destination)` pair, row `src` of the source slab is
    /// copied into row `u` of the destination slab. Each message is
    /// charged `width × pairs` words, and recorded events report that
    /// many lanes.
    ///
    /// Rows move only after the whole cycle validates (or replays), so a
    /// failed cycle writes no row; a dropped message leaves its
    /// receiver's rows as they were. Source and destination are distinct
    /// borrows, so every copy reads pre-cycle values without a staging
    /// slab.
    ///
    /// # Panics
    ///
    /// If `width == 0` or `pairs` is empty; when the cycle delivers, if
    /// a slab does not hold `width` values per node.
    pub fn rows<'a, V, P, const N: usize>(
        self,
        width: usize,
        plan: P,
        pairs: [(&'a [V], &'a mut [V]); N],
    ) -> Comm<S, Rows<'a, V, P, N>>
    where
        V: Clone + Send + Sync,
        P: Fn(NodeId, &S) -> Option<NodeId> + Sync,
    {
        assert!(width > 0, "a row cycle needs at least one lane");
        assert!(N > 0, "a row cycle needs at least one slab pair");
        self.with(Rows { width, plan, pairs })
    }

    /// The fold form: an exchange-and-combine round over caller-owned
    /// lane slabs (the layout of [`Comm::rows`], `width` values per
    /// node), whose travelling slab `from` the fold only reads.
    /// `plan(u, state)` names node `u`'s destination (or `None`); once
    /// the cycle validates (or replays), `fold(u, rows, read, msg)` runs
    /// once per live node with `u`'s rows of the `W` written and `R` read
    /// slabs, and `msg` = its sender's row of `from`, read in place, or
    /// `None` when nothing arrived (a silent node, or a dropped message).
    /// Crashed nodes are skipped, so their rows freeze. A round whose
    /// travelling slab is folded too is a [`Comm::fold_pairs`] cycle.
    ///
    /// A fold cycle is charged exactly as the [`Comm::rows`] cycle and
    /// the [`Machine::compute_rows`](crate::Machine::compute_rows) phase
    /// it replaces: one communication step (`width` words per delivered
    /// message, `width` lanes on recorded events), then one computation
    /// step of `num_nodes` element operations with its own event. A
    /// failed cycle folds nothing and charges nothing.
    ///
    /// ```
    /// use dc_simulator::{Machine, ScheduleKey};
    /// use dc_topology::Hypercube;
    ///
    /// // The lower node of each dimension-1 pair sends its row of `from`;
    /// // every node adds what it got, or 100 when nothing arrived.
    /// let q = Hypercube::new(2);
    /// let mut m = Machine::new(&q, vec![(); 4]);
    /// let from: Vec<u64> = (1..=4).collect();
    /// let mut t = vec![0u64; 4];
    /// m.cycle(|c| {
    ///     c.fold_rows(1, |u, _| (u < 2).then_some(u + 2), &from, [&mut t[..]], [],
    ///         |_, [t], [], msg| t[0] += msg.map_or(100, |x| x[0]))
    ///         .keyed(ScheduleKey::Custom(0))
    /// });
    /// assert_eq!(t, [100, 100, 1, 2]);
    /// // One communication and one computation step.
    /// assert_eq!((m.metrics().comm_steps, m.metrics().comp_steps), (1, 1));
    /// ```
    ///
    /// # Panics
    ///
    /// If `width == 0`; when the cycle delivers, if a slab does not hold
    /// `width` values per node.
    pub fn fold_rows<'a, V, P, Fo, const W: usize, const R: usize>(
        self,
        width: usize,
        plan: P,
        from: &'a [V],
        rows: [&'a mut [V]; W],
        read: [&'a [V]; R],
        fold: Fo,
    ) -> Comm<S, FoldRows<'a, V, P, Fo, W, R>>
    where
        V: Clone + Send + Sync,
        P: Fn(NodeId, &S) -> Option<NodeId> + Sync,
        Fo: Fn(NodeId, [&mut [V]; W], [&[V]; R], Option<&[V]>) + Sync,
    {
        assert!(width > 0, "a row cycle needs at least one lane");
        self.with(FoldRows {
            width,
            plan,
            from,
            rows,
            read,
            fold,
        })
    }

    /// The pair-fold form: an exchange-and-combine round on the pairs of
    /// `flip`, over caller-owned lane slabs (the layout of
    /// [`Comm::rows`], `width` values per node), whose first slab
    /// travels and is folded too. Pairwise by construction. Once the
    /// cycle validates (or replays), `fold(lo, hi, lo_rows, hi_rows,
    /// [lo_got, hi_got])` runs once per pair, with both ends' rows of the
    /// `W` slabs, and updates both in place: `hi` is the end whose
    /// flipped bit is set, and `lo_got` says whether `lo` received `hi`'s
    /// row of the first slab (`false` when the message was dropped), and
    /// `hi_got` the reverse. An end may read of the other only what its
    /// message carried: the other's row of the first slab, and only when
    /// it arrived (the reference machine,
    /// [`crate::reference::RefMachine`], folds each end against a copy
    /// that holds nothing else).
    ///
    /// Each message is charged `width` words, and the cycle exactly as a
    /// [`Comm::fold_rows`] cycle: one communication step, then one
    /// computation step of `num_nodes` element operations. A failed cycle
    /// folds nothing and charges nothing; a cycle succeeds only when
    /// every node is live, since every node sends.
    ///
    /// ```
    /// use dc_simulator::{Flip, Machine, ScheduleKey};
    /// use dc_topology::Hypercube;
    ///
    /// // All-reduce on Q_2, two lanes per node: each round folds the two
    /// // running totals of a pair into both ends.
    /// let q = Hypercube::new(2);
    /// let mut m = Machine::new(&q, vec![(); 4]);
    /// let mut t: Vec<u64> = (0..8).collect();
    /// for i in 0..2 {
    ///     m.cycle(|c| {
    ///         c.fold_pairs(2, Flip::uniform(i), [&mut t[..]], |_, _, [lo], [hi], got| {
    ///             assert_eq!(got, [true, true], "no message is dropped");
    ///             for (lo, hi) in lo.iter_mut().zip(hi) {
    ///                 *hi += *lo;
    ///                 *lo = *hi;
    ///             }
    ///         })
    ///         .keyed(ScheduleKey::Dim(i))
    ///     });
    /// }
    /// assert_eq!(t, [12, 16, 12, 16, 12, 16, 12, 16]);
    /// // Each round: one communication and one computation step.
    /// assert_eq!((m.metrics().comm_steps, m.metrics().comp_steps), (2, 2));
    /// assert_eq!(m.metrics().message_words, 2 * 4 * 2);
    /// ```
    ///
    /// # Panics
    ///
    /// If `width == 0` or there is no slab; when the cycle runs, if
    /// `flip` selects its class by a bit other than the top address bit;
    /// when it delivers, if a slab does not hold `width` values per node.
    pub fn fold_pairs<'a, V, Fo, const W: usize>(
        self,
        width: usize,
        flip: Flip,
        rows: [&'a mut [V]; W],
        fold: Fo,
    ) -> Comm<S, FoldPairs<'a, V, Fo, W>>
    where
        V: Send + Sync,
        Fo: Fn(NodeId, NodeId, [&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
    {
        assert!(width > 0, "a row cycle needs at least one lane");
        assert!(W > 0, "a pair fold needs a travelling slab");
        self.with(FoldPairs {
            width,
            flip,
            rows,
            fold,
        })
        .pairwise()
    }

    /// The lane form, kept for the repository benchmark's probes
    /// (`perfbench/src/probe.rs`); new code moves lanes with
    /// [`Comm::rows`]. `K = lanes` independent payload values ride each
    /// delivered message. `plan(u, state)` names the destination only;
    /// `fill(src, state, window)` writes the sender's `K` values into the
    /// receiver's window of the machine-owned lane buffer; `deliver(state,
    /// src, window)` folds the window into the receiver. Each message is
    /// charged `K` words, so `K` batched instances cost exactly `K`
    /// single-lane runs in simulated words while sharing one cycle's
    /// engine overhead. `seed` initialises lane slots the first time the
    /// buffer is sized.
    ///
    /// Every `fill` observes the senders' *pre-cycle* states (staging
    /// completes before delivery mutates anything), so symmetric
    /// exchanges where both sides read each other are exact.
    ///
    /// # Panics
    ///
    /// If `lanes == 0`.
    pub fn lanes<'v, V, P, Fi, D>(
        self,
        lanes: usize,
        seed: &'v V,
        plan: P,
        fill: Fi,
        deliver: D,
    ) -> Comm<S, Lanes<'v, V, P, Fi, D>>
    where
        V: Clone + Send + Sync + 'static,
        P: Fn(NodeId, &S) -> Option<NodeId> + Sync,
        Fi: Fn(NodeId, &S, &mut [V]) + Sync,
        D: Fn(&mut S, NodeId, &mut [V]) + Sync,
    {
        assert!(lanes > 0, "a lane-batched cycle needs at least one lane");
        self.with(Lanes {
            lanes,
            seed,
            plan,
            fill,
            deliver,
        })
    }
}

impl<S, F> Comm<S, F> {
    /// Names the cycle's pattern: the first cycle under `key` validates
    /// fully and compiles the matching; later cycles replay it, and any
    /// deviation from the compiled pattern fails with
    /// [`SimError::ScheduleDeviation`](crate::SimError::ScheduleDeviation).
    /// Every payload form shares one schedule cache (a compiled pattern
    /// holds destinations, plus the [`Flip`] of a pair fold that
    /// compiled it, so a later pair fold with an equal flip replays by
    /// that equality alone).
    pub fn keyed(mut self, key: ScheduleKey) -> Self {
        self.key = Some(key);
        self
    }

    /// Requires the matching to be symmetric: every sender's destination
    /// must send back to it, else the cycle fails with
    /// [`SimError::AsymmetricPair`](crate::SimError::AsymmetricPair) (or
    /// [`SimError::OutOfRange`](crate::SimError::OutOfRange) for an id
    /// past the machine) before the 1-port checks run. Checked on
    /// compile and unkeyed cycles; a replay re-checks the pattern against
    /// the compiled schedule instead.
    pub fn pairwise(mut self) -> Self {
        self.pairwise = true;
        self
    }
}

impl<S, M, P, D, W> Comm<S, Message<M, P, D, W>> {
    /// Explicit payload sizes: `words(msg)` reports how many elements
    /// the message carries, feeding
    /// [`Metrics::message_words`](crate::Metrics::message_words)
    /// (block-transfer algorithms pass the block length).
    pub fn words<W2>(self, words: W2) -> Comm<S, Message<M, P, D, W2>>
    where
        W2: Fn(&M) -> u64 + Sync,
    {
        let Message { plan, deliver, .. } = self.form;
        Comm {
            form: Message {
                plan,
                deliver,
                words,
                msg: PhantomData,
            },
            key: self.key,
            pairwise: self.pairwise,
            state: PhantomData,
        }
    }
}

/// The moved-message payload form (built by [`Comm::message`]).
pub struct Message<M, P, D, W> {
    pub(crate) plan: P,
    pub(crate) deliver: D,
    pub(crate) words: W,
    msg: PhantomData<fn() -> M>,
}

/// The lane payload form (built by [`Comm::lanes`]).
pub struct Lanes<'v, V, P, Fi, D> {
    pub(crate) lanes: usize,
    pub(crate) seed: &'v V,
    pub(crate) plan: P,
    pub(crate) fill: Fi,
    pub(crate) deliver: D,
}

/// The row payload form (built by [`Comm::rows`]): `N` slab pairs of
/// `width` values per node.
pub struct Rows<'a, V, P, const N: usize> {
    pub(crate) width: usize,
    pub(crate) plan: P,
    pub(crate) pairs: [(&'a [V], &'a mut [V]); N],
}

/// The fold payload form (built by [`Comm::fold_rows`]): `W` written and
/// `R` read slabs of `width` values per node, and the read-only slab
/// whose rows travel.
pub struct FoldRows<'a, V, P, Fo, const W: usize, const R: usize> {
    pub(crate) width: usize,
    pub(crate) plan: P,
    pub(crate) from: &'a [V],
    pub(crate) rows: [&'a mut [V]; W],
    pub(crate) read: [&'a [V]; R],
    pub(crate) fold: Fo,
}

/// A matching given as a value: node `u` pairs with `u ^ mask`, where
/// `mask` is one single-bit mask per class of node, so the matching is
/// an involution (pairwise) by construction. [`Flip::uniform`] flips
/// the same bit everywhere — a hypercube dimension, or a dual-cube's
/// cross edge (its class bit); [`Flip::by_class`] flips one bit in each
/// class — a dual-cube cluster dimension, which flips bit `i` of a
/// class-0 node and bit `n−1+i` of a class-1 node.
///
/// A [`Comm::fold_pairs`] cycle carries its flip, and a keyed one
/// compiles it into its schedule: a later cycle under the key whose
/// flip equals the compiled one replays without evaluating any node's
/// plan (see the [`crate::schedule`] docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flip {
    /// The address bit that selects a node's class, or `None` for a
    /// uniform flip.
    class_bit: Option<u32>,
    /// The bit class `c` flips.
    bits: [u32; 2],
}

impl Flip {
    /// Every node flips `bit`: `u ↦ u ^ (1 << bit)`.
    ///
    /// # Panics
    ///
    /// If `bit` does not fit a node id.
    pub fn uniform(bit: u32) -> Flip {
        assert!(bit < usize::BITS - 1, "flip bit {bit} past a node id");
        Flip {
            class_bit: None,
            bits: [bit, bit],
        }
    }

    /// A node whose `class_bit` is clear flips `bits[0]`, one whose
    /// `class_bit` is set flips `bits[1]`. The class bit must be the top
    /// address bit of the machine the cycle runs on (the dual-cube's),
    /// which the cycle checks, so each class fills one half of the
    /// machine.
    ///
    /// # Panics
    ///
    /// If a flipped bit is not below `class_bit` (a flip stays inside
    /// its class).
    pub fn by_class(class_bit: u32, bits: [u32; 2]) -> Flip {
        assert!(
            bits.iter().all(|&b| b < class_bit),
            "a class flips a bit below its class bit {class_bit}, not {bits:?}"
        );
        Flip {
            class_bit: Some(class_bit),
            bits,
        }
    }

    /// The node `u` pairs with.
    #[inline]
    pub fn partner(&self, u: NodeId) -> NodeId {
        let class = self.class_bit.map_or(0, |c| (u >> c) & 1);
        u ^ (1 << self.bits[class])
    }

    /// Panics unless a by-class flip's class bit is the top address bit
    /// of an `n`-node machine.
    pub(crate) fn check(&self, n: usize) {
        if let Some(c) = self.class_bit {
            assert!(
                c < usize::BITS - 1 && n == 2 << c,
                "a by-class flip's class bit {c} must be the top address bit of {n} nodes"
            );
        }
    }

    /// The flip's two regions of an `n`-node machine, one per class,
    /// each with its half-block `m` (the flipped bit's value): the pairs
    /// of a region are `(b + j, b + m + j)` for every block start `b` of
    /// the region that is a multiple of `2m`, and `j < m`. A uniform
    /// flip's second region is empty.
    fn regions(&self, n: usize) -> [(Range<usize>, usize); 2] {
        let half = |c: usize| 1usize << self.bits[c];
        match self.class_bit {
            Some(_) => [(0..n / 2, half(0)), (n / 2..n, half(1))],
            None => [(0..n, half(0)), (n..n, half(0))],
        }
    }
}

/// The pair-fold payload form (built by [`Comm::fold_pairs`]): `W` slabs
/// of `width` values per node, folded pair by pair along a [`Flip`].
pub struct FoldPairs<'a, V, Fo, const W: usize> {
    pub(crate) width: usize,
    pub(crate) flip: Flip,
    pub(crate) rows: [&'a mut [V]; W],
    pub(crate) fold: Fo,
}

/// A cycle payload form: implemented by [`Message`], [`Rows`],
/// [`FoldRows`], [`FoldPairs`] and [`Lanes`] only (sealed), and what
/// [`Machine::try_cycle`](crate::Machine::try_cycle) and the reference
/// machine ([`crate::reference::RefMachine`]) are generic over.
pub trait Payload<S>: form::Form<S> + crate::reference::Naive<S> {}

impl<S, F: form::Form<S> + crate::reference::Naive<S>> Payload<S> for F {}

/// The machine-facing side of a payload form. The full-cycle path plans
/// into a slab of `Option<(NodeId, Msg)>`, validates, and stages each
/// delivered message into its receiver's `width()`-slot window of one
/// staging slab (a one-slot cycle delivers a planned message straight
/// from the plan slab instead); the replay path stages straight from the
/// compiled pattern. Either path records each receiver's sender in the
/// sender table, then runs the form's delivery once over the dispatch
/// bounds: the message and lane forms over each receiver's window, the
/// row form as one row gather and the fold forms as one fold pass (their
/// staging slab is `()` per node and never touched). A pair fold
/// replayed by [`Flip`] equality skips the plan, the sender table and
/// the staging, and folds straight away ([`Form::deliver_flip`]).
pub(crate) mod form {
    use super::*;

    /// What a delivery uses of the machine besides the states and the
    /// staged cycle.
    pub struct Ctx<'m> {
        /// The cycle's dispatch bounds: one slot `[0, n]` on the
        /// sequential backend, the shard-aligned slots on the threaded
        /// one.
        pub(crate) bounds: &'m [usize],
        /// The machine's faults: a fold skips crashed nodes, and a pair
        /// fold learns from the armed drops which messages were lost.
        pub(crate) faults: &'m FaultState,
    }

    /// The message and lane forms' delivery: `deliver(state, src,
    /// window)` for every node, over the dispatch slots, so each worker
    /// touches only its own nodes' states and windows.
    fn each_window<S: Send, Slot: Send>(
        states: &mut [S],
        srcs: &[u32],
        slab: &mut [Slot],
        ctx: Ctx<'_>,
        width: usize,
        deliver: impl Fn(&mut S, u32, &mut [Slot]) + Sync,
    ) {
        par_lane_apply_bounds(ctx.bounds, states, width, slab, &|u, s, window| {
            deliver(s, srcs[u], window);
        });
    }

    /// One staged moved message. A private newtype (not a bare
    /// `Option<M>`) so the type-keyed staging slab can never hand a
    /// message cycle a lane buffer of `Option` values left by a lane
    /// cycle.
    pub struct Inbox<M>(pub(crate) Option<M>);

    /// See the [module docs](self).
    pub trait Form<S>: Sync {
        /// What a plan slot carries beside the destination: the message
        /// itself, or `()` for lanes (filled after validation).
        type Msg: Send + Sync + 'static;
        /// One staging-slab element.
        type Slot: Send + Sync + 'static;

        /// Whether the plan carries the whole payload, so a one-slot full
        /// cycle may deliver it straight from the plan slab in sender
        /// order ([`Form::deliver_planned`]). A lane window is filled only
        /// after validation, from pre-cycle states, so lanes always stage.
        const PLANNED: bool;
        /// Whether delivery also runs the computation step that combines
        /// each message, which the machine then charges after the cycle.
        const FOLDS: bool = false;

        /// The matching as a value, for a form built on one
        /// ([`Comm::fold_pairs`]): its [`Flip`] and the words each of its
        /// messages carries.
        fn flip(&self) -> Option<(Flip, u64)> {
            None
        }

        /// Staging slots per node: 1 for a message or rows, `K` for lanes.
        fn width(&self) -> usize;
        /// Lanes one message carries, as recorded events report them.
        fn lanes(&self) -> u32;
        /// Node `u`'s (destination, message), or `None` when silent.
        fn plan(&self, u: NodeId, s: &S) -> Option<(NodeId, Self::Msg)>;
        /// Words charged for one message.
        fn words(&self, msg: &Self::Msg) -> u64;
        /// A fresh slot for a newly sized staging slab.
        fn fresh(&self) -> Self::Slot;
        /// Stages sender `src`'s message into its receiver's window.
        fn stage(&self, src: NodeId, s: &S, msg: Self::Msg, window: &mut [Self::Slot]);
        /// Words of the message staged in `window`.
        fn staged_words(&self, window: &[Self::Slot]) -> u64;
        /// Delivers the validated cycle: `srcs[u]` is the sender staged
        /// for receiver `u` ([`NO_SRC`] = nothing delivered to `u`), and
        /// `slab` holds `width()` staged slots per node. Each dispatch
        /// slot of `ctx.bounds` handles its own receivers.
        fn deliver(
            &mut self,
            states: &mut [S],
            srcs: &[u32],
            slab: &mut [Self::Slot],
            ctx: Ctx<'_>,
        ) where
            S: Send;
        /// Drops whatever a failed cycle staged.
        fn discard(&self, slab: &mut [Self::Slot]);
        /// Delivers a planned message without staging it (only called
        /// when [`Form::PLANNED`]).
        fn deliver_planned(&self, s: &mut S, src: NodeId, msg: Self::Msg);
        /// Delivers a cycle whose matching is the form's [`Form::flip`],
        /// with no sender table: every node sent, and a node received
        /// unless `ctx.faults` drops its message (only called for a form
        /// with a flip).
        fn deliver_flip(&mut self, _ctx: Ctx<'_>) {
            unreachable!("only a pair fold delivers by its flip");
        }
    }

    impl<S, M, P, D, W> Form<S> for Message<M, P, D, W>
    where
        M: Send + Sync + 'static,
        P: Fn(NodeId, &S) -> Option<(NodeId, M)> + Sync,
        D: Fn(&mut S, NodeId, M) + Sync,
        W: Fn(&M) -> u64 + Sync,
    {
        type Msg = M;
        type Slot = Inbox<M>;
        const PLANNED: bool = true;

        #[inline]
        fn width(&self) -> usize {
            1
        }

        fn lanes(&self) -> u32 {
            1
        }

        #[inline]
        fn plan(&self, u: NodeId, s: &S) -> Option<(NodeId, M)> {
            (self.plan)(u, s)
        }

        #[inline]
        fn words(&self, msg: &M) -> u64 {
            (self.words)(msg)
        }

        fn fresh(&self) -> Inbox<M> {
            Inbox(None)
        }

        #[inline]
        fn stage(&self, _src: NodeId, _s: &S, msg: M, window: &mut [Inbox<M>]) {
            window[0].0 = Some(msg);
        }

        #[inline]
        fn staged_words(&self, window: &[Inbox<M>]) -> u64 {
            window[0].0.as_ref().map_or(0, |msg| (self.words)(msg))
        }

        /// Gated on the slot itself: the slab is kept all-empty between
        /// cycles (delivery takes every staged message, failed cycles
        /// discard theirs), so a warm slab is reused without a clearing
        /// pass.
        fn deliver(&mut self, states: &mut [S], srcs: &[u32], slab: &mut [Inbox<M>], ctx: Ctx<'_>)
        where
            S: Send,
        {
            each_window(states, srcs, slab, ctx, 1, |s, src, window| {
                if let Some(msg) = window[0].0.take() {
                    debug_assert_ne!(src, NO_SRC, "a staged message outlived its cycle");
                    (self.deliver)(s, src as NodeId, msg);
                }
            });
        }

        fn discard(&self, slab: &mut [Inbox<M>]) {
            for slot in slab {
                slot.0 = None;
            }
        }

        #[inline]
        fn deliver_planned(&self, s: &mut S, src: NodeId, msg: M) {
            (self.deliver)(s, src, msg);
        }
    }

    impl<S, V, P, Fi, D> Form<S> for Lanes<'_, V, P, Fi, D>
    where
        V: Clone + Send + Sync + 'static,
        P: Fn(NodeId, &S) -> Option<NodeId> + Sync,
        Fi: Fn(NodeId, &S, &mut [V]) + Sync,
        D: Fn(&mut S, NodeId, &mut [V]) + Sync,
    {
        type Msg = ();
        type Slot = V;
        const PLANNED: bool = false;

        #[inline]
        fn width(&self) -> usize {
            self.lanes
        }

        fn lanes(&self) -> u32 {
            self.lanes as u32
        }

        #[inline]
        fn plan(&self, u: NodeId, s: &S) -> Option<(NodeId, ())> {
            (self.plan)(u, s).map(|dst| (dst, ()))
        }

        #[inline]
        fn words(&self, _: &()) -> u64 {
            self.lanes as u64
        }

        fn fresh(&self) -> V {
            self.seed.clone()
        }

        #[inline]
        fn stage(&self, src: NodeId, s: &S, _: (), window: &mut [V]) {
            (self.fill)(src, s, window);
        }

        #[inline]
        fn staged_words(&self, _: &[V]) -> u64 {
            self.lanes as u64
        }

        /// Gated on the sender table: stale windows from earlier cycles
        /// are never read, and a staged window was fully overwritten by
        /// `fill` first.
        fn deliver(&mut self, states: &mut [S], srcs: &[u32], slab: &mut [V], ctx: Ctx<'_>)
        where
            S: Send,
        {
            each_window(states, srcs, slab, ctx, self.lanes, |s, src, window| {
                if src != NO_SRC {
                    (self.deliver)(s, src as NodeId, window);
                }
            });
        }

        fn discard(&self, _: &mut [V]) {}

        fn deliver_planned(&self, _: &mut S, _: NodeId, (): ()) {
            unreachable!("lane payloads are filled after validation, never planned");
        }
    }

    impl<S, V, P, const N: usize> Form<S> for Rows<'_, V, P, N>
    where
        V: Clone + Send + Sync,
        P: Fn(NodeId, &S) -> Option<NodeId> + Sync,
    {
        type Msg = ();
        type Slot = ();
        const PLANNED: bool = false;

        #[inline]
        fn width(&self) -> usize {
            1
        }

        fn lanes(&self) -> u32 {
            (self.width * N) as u32
        }

        #[inline]
        fn plan(&self, u: NodeId, s: &S) -> Option<(NodeId, ())> {
            (self.plan)(u, s).map(|dst| (dst, ()))
        }

        #[inline]
        fn words(&self, _: &()) -> u64 {
            (self.width * N) as u64
        }

        fn fresh(&self) {}

        /// Nothing to stage: the caller records the sender, and the rows
        /// move in [`Form::deliver`].
        #[inline]
        fn stage(&self, _: NodeId, _: &S, (): (), _: &mut [()]) {}

        #[inline]
        fn staged_words(&self, _: &[()]) -> u64 {
            (self.width * N) as u64
        }

        /// The row gather: every receiver `u` with a sender copies row
        /// `srcs[u]` of each source slab into its own row of the paired
        /// destination slab. Receivers split by the dispatch bounds, so
        /// each worker writes only its own rows.
        fn deliver(&mut self, _: &mut [S], srcs: &[u32], _: &mut [()], ctx: Ctx<'_>)
        where
            S: Send,
        {
            let (width, n) = (self.width, srcs.len());
            let sources = self.pairs.each_ref().map(|(source, _)| *source);
            let dests = self.pairs.each_mut().map(|(_, dest)| &mut **dest);
            check_slabs(
                width,
                n,
                sources.iter().copied().chain(dests.iter().map(|d| &**d)),
            );
            let gather = |nodes: Range<usize>, dests: [&mut [V]; N]| {
                let senders = &srcs[nodes];
                for (dest, source) in dests.into_iter().zip(sources) {
                    for (row, &src) in dest.chunks_exact_mut(width).zip(senders) {
                        if src != NO_SRC {
                            copy_row(row, source, src as usize * width);
                        }
                    }
                }
            };
            par_rows_bounds(ctx.bounds, width, dests, &gather);
        }

        fn discard(&self, _: &mut [()]) {}

        fn deliver_planned(&self, _: &mut S, _: NodeId, (): ()) {
            unreachable!("rows move after validation, never planned");
        }
    }

    impl<S, V, P, Fo, const W: usize, const R: usize> Form<S> for FoldRows<'_, V, P, Fo, W, R>
    where
        V: Clone + Send + Sync,
        P: Fn(NodeId, &S) -> Option<NodeId> + Sync,
        Fo: Fn(NodeId, [&mut [V]; W], [&[V]; R], Option<&[V]>) + Sync,
    {
        type Msg = ();
        type Slot = ();
        const PLANNED: bool = false;
        const FOLDS: bool = true;

        #[inline]
        fn width(&self) -> usize {
            1
        }

        fn lanes(&self) -> u32 {
            self.width as u32
        }

        #[inline]
        fn plan(&self, u: NodeId, s: &S) -> Option<(NodeId, ())> {
            (self.plan)(u, s).map(|dst| (dst, ()))
        }

        #[inline]
        fn words(&self, _: &()) -> u64 {
            self.width as u64
        }

        fn fresh(&self) {}

        /// Nothing to stage: the caller records the sender, and the fold
        /// reads its row in [`Form::deliver`].
        #[inline]
        fn stage(&self, _: NodeId, _: &S, (): (), _: &mut [()]) {}

        #[inline]
        fn staged_words(&self, _: &[()]) -> u64 {
            self.width as u64
        }

        /// The fold pass: every live receiver reads its sender's row of
        /// the travelling slab in place.
        fn deliver(&mut self, _: &mut [S], srcs: &[u32], _: &mut [()], ctx: Ctx<'_>)
        where
            S: Send,
        {
            let (width, n, from) = (self.width, srcs.len(), self.from);
            let slabs = self.rows.iter().map(|r| &**r).chain(self.read);
            check_slabs(width, n, slabs.chain([from]));
            let rows = self.rows.each_mut().map(|r| &mut **r);
            let msg = |u| sender_row(from, srcs[u], width);
            let Ctx { bounds, faults } = ctx;
            fold_each(width, rows, self.read, msg, faults, bounds, &self.fold);
        }

        fn discard(&self, _: &mut [()]) {}

        fn deliver_planned(&self, _: &mut S, _: NodeId, (): ()) {
            unreachable!("folds run after validation, never planned");
        }
    }

    impl<S, V, Fo, const W: usize> Form<S> for FoldPairs<'_, V, Fo, W>
    where
        V: Send + Sync,
        Fo: Fn(NodeId, NodeId, [&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
    {
        type Msg = ();
        type Slot = ();
        const PLANNED: bool = false;
        const FOLDS: bool = true;

        fn flip(&self) -> Option<(Flip, u64)> {
            Some((self.flip, self.width as u64))
        }

        #[inline]
        fn width(&self) -> usize {
            1
        }

        fn lanes(&self) -> u32 {
            self.width as u32
        }

        #[inline]
        fn plan(&self, u: NodeId, _: &S) -> Option<(NodeId, ())> {
            Some((self.flip.partner(u), ()))
        }

        #[inline]
        fn words(&self, _: &()) -> u64 {
            self.width as u64
        }

        fn fresh(&self) {}

        /// Nothing to stage: the caller records the sender, and the fold
        /// reads both rows of a pair in [`Form::deliver`].
        #[inline]
        fn stage(&self, _: NodeId, _: &S, (): (), _: &mut [()]) {}

        #[inline]
        fn staged_words(&self, _: &[()]) -> u64 {
            self.width as u64
        }

        /// The pair walk of [`Form::deliver_flip`]: a validated or
        /// replayed pair fold ran the flip's matching, so the sender
        /// table says no more than the armed drops do.
        fn deliver(&mut self, _: &mut [S], _: &[u32], _: &mut [()], ctx: Ctx<'_>)
        where
            S: Send,
        {
            Form::<S>::deliver_flip(self, ctx);
        }

        fn discard(&self, _: &mut [()]) {}

        fn deliver_planned(&self, _: &mut S, _: NodeId, (): ()) {
            unreachable!("folds run after validation, never planned");
        }

        /// Folds every pair of the flip once; a node received unless an
        /// armed drop lost its message. Each dispatch slot folds the
        /// blocks inside its own node range; a block that straddles two
        /// slots (every block, when the flip is the top address bit)
        /// folds afterwards on this thread. A successful pair fold has
        /// no crashed node (every node sent), so no node is skipped.
        fn deliver_flip(&mut self, ctx: Ctx<'_>) {
            let Ctx { bounds, faults } = ctx;
            let drops = faults.has_drops();
            let got = &|u| !(drops && faults.dropped(u));
            let (width, n) = (self.width, bounds[bounds.len() - 1]);
            check_slabs(width, n, self.rows.iter().map(|r| &**r));
            let (regions, fold) = (self.flip.regions(n), &self.fold);
            let slabs = self.rows.each_mut().map(|r| &mut **r);
            par_rows_bounds(bounds, width, slabs, &|nodes, mut part| {
                // `nodes` is one slot's range, or all of them when the
                // pass runs inline; either way, fold slot by slot.
                let first = bounds.partition_point(|&b| b < nodes.start);
                let slots = bounds[first..].windows(2);
                for slot in slots.take_while(|w| w[1] <= nodes.end) {
                    for (region, half) in &regions {
                        let span = 2 * half;
                        let start = slot[0].max(region.start).next_multiple_of(span);
                        let end = slot[1].min(region.end) / span * span;
                        if start < end {
                            let blocks = start..end;
                            fold_blocks(width, *half, blocks, nodes.start, &mut part, got, fold);
                        }
                    }
                }
            });
            let mut rows = self.rows.each_mut().map(|r| &mut **r);
            let mut last = None;
            for &b in &bounds[1..bounds.len() - 1] {
                for (region, half) in &regions {
                    let span = 2 * half;
                    let start = b / span * span;
                    if region.start < b && b < region.end && start != b && last != Some(start) {
                        last = Some(start);
                        let block = start..start + span;
                        fold_blocks(width, *half, block, 0, &mut rows, got, fold);
                    }
                }
            }
        }
    }

    /// Folds the pairs of the blocks in `blocks` (both ends multiples of
    /// `2 · half`): in each block of `2 · half` rows the low half pairs
    /// with the high half, row for row, so the walk is two row iterators
    /// per slab, with no partner lookup. `rows` hold the rows of nodes
    /// `origin..`.
    fn fold_blocks<V, const W: usize>(
        width: usize,
        half: usize,
        blocks: Range<usize>,
        origin: usize,
        rows: &mut [&mut [V]; W],
        got: &impl Fn(NodeId) -> bool,
        fold: &impl Fn(NodeId, NodeId, [&mut [V]; W], [&mut [V]; W], [bool; 2]),
    ) {
        let at = (blocks.start - origin) * width..(blocks.end - origin) * width;
        let mut spans = rows
            .each_mut()
            .map(|r| r[at.clone()].chunks_exact_mut(2 * half * width));
        for base in blocks.step_by(2 * half) {
            let mut halves = spans.each_mut().map(|b| {
                let block = b.next().expect("one block per span");
                block.split_at_mut(half * width)
            });
            let mut low = halves
                .each_mut()
                .map(|(l, _)| std::mem::take(l).chunks_exact_mut(width));
            let mut high = halves.map(|(_, h)| h.chunks_exact_mut(width));
            for lo in base..base + half {
                let hi = lo + half;
                let lo_rows = low.each_mut().map(|r| r.next().expect("one row per node"));
                let hi_rows = high.each_mut().map(|r| r.next().expect("one row per node"));
                fold(lo, hi, lo_rows, hi_rows, [got(lo), got(hi)]);
            }
        }
    }

    /// Sender `src`'s row of `from`, or `None` for [`NO_SRC`].
    #[inline]
    fn sender_row<V>(from: &[V], src: u32, width: usize) -> Option<&[V]> {
        (src != NO_SRC).then(|| &from[src as usize * width..][..width])
    }

    /// Panics unless every slab holds `width` values for each of `n`
    /// nodes.
    fn check_slabs<'s, V: 's>(width: usize, n: usize, mut slabs: impl Iterator<Item = &'s [V]>) {
        assert!(
            slabs.all(|s| s.len() == n * width),
            "every row slab must hold {width} values per node of {n}"
        );
    }

    /// The fold form's pass over all nodes, shaped like
    /// [`Machine::compute_rows`](crate::Machine::compute_rows): `f(u,
    /// rows, read, msg(u))` once per live node `u`, with `u`'s rows of
    /// the `W` written and `R` read slabs. The written slabs split by the
    /// dispatch `bounds`, so each worker folds its own nodes' contiguous
    /// rows. One row iterator per slab, advanced in step: no slab is
    /// re-sliced per node.
    fn fold_each<'m, V: Send + Sync + 'm, const W: usize, const R: usize>(
        width: usize,
        rows: [&mut [V]; W],
        read: [&[V]; R],
        msg: impl Fn(NodeId) -> Option<&'m [V]> + Sync,
        faults: &FaultState,
        bounds: &[usize],
        f: &(impl Fn(NodeId, [&mut [V]; W], [&[V]; R], Option<&[V]>) + Sync),
    ) {
        let frozen = faults.any_failed();
        let pass = |nodes: Range<usize>, rows: [&mut [V]; W]| {
            let mut rows = rows.map(|r| r.chunks_exact_mut(width));
            let mut read = read.map(|r| r[nodes.start * width..].chunks_exact(width));
            for u in nodes {
                let mine = rows.each_mut().map(|r| r.next().expect("one row per node"));
                let theirs = read.each_mut().map(|r| r.next().expect("one row per node"));
                if !(frozen && faults.is_failed(u)) {
                    f(u, mine, theirs, msg(u));
                }
            }
        };
        par_rows_bounds(bounds, width, rows, &pass);
    }

    /// Copies `source[at..at + row.len()]` into `row`: every lane but the
    /// last in bulk, then the last on its own. A `clone_from_slice`, or
    /// an element loop the compiler turns into one, calls `memcpy` with a
    /// run-time length, which costs more than a one-lane row's copy; this
    /// way a one-lane row is a single move, and a wider row's bulk copy
    /// still starts at the row's first lane (DESIGN.md §10).
    #[inline]
    fn copy_row<V: Clone>(row: &mut [V], source: &[V], at: usize) {
        let from = &source[at..at + row.len()];
        let (last, init) = row.split_last_mut().expect("a row has a lane");
        for (d, s) in init.iter_mut().zip(from) {
            d.clone_from(s);
        }
        last.clone_from(&from[init.len()]);
    }
}
