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
//!   probes). The row forms take their matching as a plan closure or,
//!   as [`Comm::rows_on`] and [`Comm::fold_rows_on`], as a [`Flip`],
//!   which the machine proves legal without visiting a node;
//! * an optional **key** ([`Comm::keyed`]) naming the pattern for
//!   compile-once / replay-after (see the [`crate::schedule`] docs);
//! * the **pairwise** flag ([`Comm::pairwise`]), which requires the
//!   matching to be symmetric. Like the rest of validation it is checked
//!   on compile (and unkeyed) cycles, in closed form for a [`Flip`]; a
//!   replay checks the pattern against the compiled schedule instead.
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
//! so the machine's cycle paths (full, replay by plan, and matching) are
//! monomorphised per form: no dynamic dispatch and no per-node branch on
//! the form in any hot loop.
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
//!   high half (`m` the flipped bit), so one fold call takes the two
//!   halves as runs, with no per-node partner lookup; a run is cut only
//!   where an armed drop changes a pair's flags. A keyed pair fold
//!   whose flip equals the one its schedule was compiled with replays
//!   without evaluating any node's plan (see the [`crate::schedule`]
//!   docs).
//!
//! Which slab row holds which node is the machine's [`RowOrder`]: node
//! order by default, or the dual-cube's data order, in which every
//! cluster is consecutive rows and a cluster dimension flips the same
//! row bit in both classes. The row forms address rows through it, a
//! pair fold maps its flip into row space, a row form on a [`Flip`]
//! finds each sender's row from the flip (a row bit, or, for the cross
//! edge in data order, the block-transposed row, walked in tiles), and
//! everything else — plans, keys, schedules, traces, faults — stays in
//! node ids. A run of pair folds over the same slabs is one
//! [`Machine::sweep`](crate::Machine::sweep): once its rounds replay or
//! prove themselves in closed form, it walks one block of rows at a time
//! (one cluster, in data order) through every round, charging each
//! round as its cycle.

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
/// [`Comm::rows`] or [`Comm::rows_on`], [`Comm::fold_rows`] or
/// [`Comm::fold_rows_on`], [`Comm::fold_pairs`] or [`Comm::lanes`]),
/// then optionally [`Comm::pairwise`] and [`Comm::keyed`] (in any
/// order). See the [module docs](crate::comm).
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
    /// many lanes. A matching given as a [`Flip`] goes to
    /// [`Comm::rows_on`] instead, which the machine proves legal and
    /// delivers without evaluating a plan.
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

    /// [`Comm::rows`] on a matching given as a value: node `u` sends to
    /// `flip.target(u)`, and a node whose class the flip silences sends
    /// nothing. No node's plan is ever evaluated. On a topology that
    /// answers [`Topology::flip_is_edge`](dc_topology::Topology::flip_is_edge)
    /// the cycle is proved legal in closed form, and a keyed cycle whose
    /// flip equals its schedule's replays by that equality (see the
    /// [`crate::schedule`] docs). The rows then move straight from the
    /// matching, with no sender table: under the dual-cube's data order
    /// ([`RowOrder::swap_class_fields`]) a class-bit flip pairs row `(0,
    /// a, b)` with row `(1, b, a)`, a block transpose the delivery walks
    /// in tiles. Charged, traced and recorded exactly as the
    /// [`Comm::rows`] cycle whose plan sends where the flip does.
    ///
    /// ```
    /// use dc_simulator::{Flip, Machine, RowOrder, ScheduleKey};
    /// use dc_topology::DualCube;
    ///
    /// // D_2 in data order: the cross edge moves each row to its transpose.
    /// let d = DualCube::new(2);
    /// let mut m = Machine::new(&d, vec![(); 8]);
    /// m.set_row_order(RowOrder::swap_class_fields(1));
    /// let (t, mut got): (Vec<u64>, _) = ((0..8).collect(), vec![0; 8]);
    /// let cross = Flip::uniform(2);
    /// m.cycle(|c| c.rows_on(1, cross, [(&t[..], &mut got[..])]).keyed(ScheduleKey::Cross));
    /// assert_eq!(got, [4, 6, 5, 7, 0, 2, 1, 3]);
    /// ```
    ///
    /// # Panics
    ///
    /// As [`Comm::rows`]; and when the cycle runs, if a by-class flip's
    /// class bit is not the machine's top address bit.
    pub fn rows_on<'a, V, const N: usize>(
        self,
        width: usize,
        flip: Flip,
        pairs: [(&'a [V], &'a mut [V]); N],
    ) -> Comm<S, Rows<'a, V, Flip, N>>
    where
        V: Clone + Send + Sync,
    {
        assert!(width > 0, "a row cycle needs at least one lane");
        assert!(N > 0, "a row cycle needs at least one slab pair");
        self.with(Rows {
            width,
            plan: flip,
            pairs,
        })
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
    /// travelling slab is folded too is a [`Comm::fold_pairs`] cycle,
    /// and one whose matching is a [`Flip`] a [`Comm::fold_rows_on`]
    /// cycle.
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

    /// [`Comm::fold_rows`] on a matching given as a value, as
    /// [`Comm::rows_on`] is [`Comm::rows`] on one: node `u` sends to
    /// `flip.target(u)`, the cycle is proved legal without evaluating a
    /// plan, and each live node's fold gets its sender's row of `from`
    /// straight from the matching (`None` for a node the matching sends
    /// nothing, or whose message was dropped). Charged exactly as the
    /// [`Comm::fold_rows`] cycle whose plan sends where the flip does.
    ///
    /// # Panics
    ///
    /// As [`Comm::fold_rows`]; and when the cycle runs, if a by-class
    /// flip's class bit is not the machine's top address bit.
    pub fn fold_rows_on<'a, V, Fo, const W: usize, const R: usize>(
        self,
        width: usize,
        flip: Flip,
        from: &'a [V],
        rows: [&'a mut [V]; W],
        read: [&'a [V]; R],
        fold: Fo,
    ) -> Comm<S, FoldRows<'a, V, Flip, Fo, W, R>>
    where
        V: Clone + Send + Sync,
        Fo: Fn(NodeId, [&mut [V]; W], [&[V]; R], Option<&[V]>) + Sync,
    {
        assert!(width > 0, "a row cycle needs at least one lane");
        self.with(FoldRows {
            width,
            plan: flip,
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
    /// cycle validates (or replays), the pairs fold in **runs**:
    /// `fold(lo, hi, [lo_got, hi_got])` gets, for each of the `W` slabs,
    /// a run of low ends' rows and the run of their partners' rows, and
    /// updates both in place. Element `j` of a low run pairs with element
    /// `j` of its high run (the same lane of the same pair), and the
    /// high end is the one whose flipped bit is set. Every pair of a run
    /// shares its flags: `lo_got` says whether the low ends received the
    /// high ends' rows of the first slab (`false` when the message was
    /// dropped), and `hi_got` the reverse. With no drop armed, a run is
    /// a whole half of a block of `2m` rows (`m` the flipped bit's
    /// value, in row space, see [`RowOrder`]); a run is cut only where
    /// an armed drop changes a pair's flags. An end may read of the
    /// other only what its message carried: the other's row of the first
    /// slab, and only when it arrived (the reference machine,
    /// [`crate::reference::RefMachine`], folds one pair at a time, each
    /// end against a copy that holds nothing else).
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
    ///         c.fold_pairs(2, Flip::uniform(i), [&mut t[..]], |[lo], [hi], got| {
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
    /// `flip` silences a class, selects its class by a bit other than the
    /// top address bit, or is not a bit flip of rows under the machine's
    /// [`RowOrder`]; when it delivers, if a slab does not hold `width`
    /// values per node.
    pub fn fold_pairs<'a, V, Fo, const W: usize>(
        self,
        width: usize,
        flip: Flip,
        rows: [&'a mut [V]; W],
        fold: Fo,
    ) -> Comm<S, FoldPairs<'a, V, Fo, W>>
    where
        V: Send + Sync,
        Fo: Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
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
    /// fully (in closed form, for a [`Flip`] on a topology that gives
    /// one) and stores the matching; later cycles replay it, and any
    /// deviation from the stored pattern fails with
    /// [`SimError::ScheduleDeviation`](crate::SimError::ScheduleDeviation).
    /// Every payload form shares one schedule cache (a stored pattern
    /// holds destinations, or the [`Flip`] of a matching cycle that
    /// stored it, so a later matching cycle with an equal flip replays
    /// by that equality alone).
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

/// A matching given as a value: a node of class `c` sends to `u ^ (1 <<
/// b_c)`, where `b_c` is one bit per class of node, or sends nothing
/// when its class is silent. [`Flip::uniform`] flips the same bit
/// everywhere — a hypercube dimension, or a dual-cube's cross edge (its
/// class bit); [`Flip::by_class`] flips one bit inside each class — a
/// dual-cube cluster dimension, which flips bit `i` of a class-0 node and
/// bit `n−1+i` of a class-1 node; [`Flip::gated`] lets a class stay
/// silent or flip the class bit, as Algorithm 2's step 5 does (class 1
/// sends across the cross edge, class 0 stays silent). Every flip is an
/// injection, so no node receives twice, and it is an involution
/// (pairwise) unless one class flips the class bit while the other stays
/// silent. A flip is a `Copy` value, and building one allocates nothing.
///
/// A flip names its matching outright, so the machine proves it legal
/// without visiting a node: on a topology that answers
/// [`Topology::flip_is_edge`](dc_topology::Topology::flip_is_edge) from
/// its bit roles (the hypercube and the dual-cube), the cycle checks
/// each class's bit once, and under faults only the pairs the crash and
/// link lists name (see the [`crate::schedule`] docs). The matching
/// forms take one: [`Comm::fold_pairs`], [`Comm::rows_on`] and
/// [`Comm::fold_rows_on`]. A keyed cycle stores its flip in its
/// schedule, and a later cycle under the key whose flip equals it
/// replays without evaluating any node's plan.
///
/// ```
/// use dc_simulator::Flip;
///
/// // D_3: class bit 4. Step 5 of Algorithm 2: class 1 crosses, class 0
/// // stays silent.
/// let step5 = Flip::gated(4, [None, Some(4)]);
/// assert_eq!(step5.target(0b1_00_11), Some(0b0_00_11));
/// assert_eq!(step5.target(0b0_00_11), None);
/// // A cluster dimension pairs nodes inside each class.
/// let dim1 = Flip::by_class(4, [1, 3]);
/// assert_eq!(dim1.partner(0b1_00_11), 0b1_10_11);
/// assert_eq!(dim1.partner(0b1_10_11), 0b1_00_11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flip {
    /// The address bit that selects a node's class, or `None` for a
    /// uniform flip.
    class_bit: Option<u32>,
    /// The bit class `c` flips, or [`SILENT`] when it sends nothing.
    bits: [u32; 2],
}

/// The bit of a silent class in [`Flip::bits`].
const SILENT: u32 = u32::MAX;

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
        Flip::gated(class_bit, bits.map(Some))
    }

    /// A node whose `class_bit` is clear flips `bits[0]`, one whose
    /// `class_bit` is set flips `bits[1]`, and a class whose bit is
    /// `None` stays silent. A class flips a bit inside its class, or the
    /// class bit itself (the cross edge). The class bit must be the top
    /// address bit of the machine the cycle runs on, which the cycle
    /// checks. When both classes cross, the flip is
    /// [`Flip::uniform`]`(class_bit)`.
    ///
    /// # Panics
    ///
    /// If a flipped bit is above `class_bit`, or if one class flips the
    /// class bit while the other flips a bit inside its class: a node of
    /// the second class would then receive twice, from its cross
    /// neighbour and from its partner inside the class.
    pub fn gated(class_bit: u32, bits: [Option<u32>; 2]) -> Flip {
        assert!(
            class_bit < usize::BITS - 1,
            "class bit {class_bit} past a node id"
        );
        assert!(
            bits.iter().flatten().all(|&b| b <= class_bit),
            "a class flips its class bit {class_bit} or a bit below it, not {bits:?}"
        );
        let crosses = bits.map(|b| b == Some(class_bit));
        let inside = bits.map(|b| b.is_some_and(|b| b < class_bit));
        assert!(
            !(crosses[0] && inside[1] || crosses[1] && inside[0]),
            "a flip of {bits:?} under class bit {class_bit} makes a node receive twice"
        );
        if crosses == [true; 2] {
            return Flip::uniform(class_bit);
        }
        Flip {
            class_bit: Some(class_bit),
            bits: bits.map(|b| b.unwrap_or(SILENT)),
        }
    }

    /// The class of node `u` under this flip: its class bit, or 0 for a
    /// uniform flip.
    #[inline]
    fn class_of(&self, u: NodeId) -> usize {
        self.class_bit.map_or(0, |c| (u >> c) & 1)
    }

    /// The bit class `class` flips, or `None` when it is silent.
    #[inline]
    pub(crate) fn bit(&self, class: usize) -> Option<u32> {
        let bit = self.bits[class];
        (bit != SILENT).then_some(bit)
    }

    /// The node `u` sends to, or `None` when `u`'s class is silent.
    #[inline]
    pub fn target(&self, u: NodeId) -> Option<NodeId> {
        self.bit(self.class_of(u)).map(|b| u ^ (1 << b))
    }

    /// The node `u` pairs with, under a flip in which `u`'s class sends.
    ///
    /// # Panics
    ///
    /// If `u`'s class is silent.
    #[inline]
    pub fn partner(&self, u: NodeId) -> NodeId {
        self.target(u)
            .unwrap_or_else(|| panic!("node {u} is silent under {self:?}"))
    }

    /// Whether every node sends.
    pub(crate) fn is_total(&self) -> bool {
        self.bits.iter().all(|&b| b != SILENT)
    }

    /// The inverse matching, as a flip: a node of class `c` receives
    /// from `u ^ (1 << b_c)` for the bit `b_c` it names, and nothing when
    /// its class is silent there. A class receives across the class bit
    /// when the other class crosses, else from its own flip (the
    /// construction rules out both at once).
    pub(crate) fn sources(&self) -> Flip {
        let Some(c) = self.class_bit else {
            return *self;
        };
        let from = |class: usize| {
            let own = self.bits[class];
            if own != SILENT && own != c {
                own
            } else if self.bits[1 - class] == c {
                c
            } else {
                SILENT
            }
        };
        Flip {
            class_bit: self.class_bit,
            bits: [from(0), from(1)],
        }
    }

    /// The node whose message `u` receives, or `None`.
    #[inline]
    pub(crate) fn sender(&self, u: NodeId) -> Option<NodeId> {
        self.sources().target(u)
    }

    /// Panics unless a by-class flip's class bit is the top address bit
    /// of an `n`-node machine.
    pub(crate) fn check(&self, n: usize) {
        if let Some(c) = self.class_bit {
            assert!(
                n == 2 << c,
                "a by-class flip's class bit {c} must be the top address bit of {n} nodes"
            );
        }
    }
}

/// Which row of a caller-owned lane slab holds each node's values in the
/// row forms ([`Comm::rows`], [`Comm::fold_rows`], [`Comm::fold_pairs`])
/// and in [`Machine::compute_rows`](crate::Machine::compute_rows): node
/// `u`'s row is [`RowOrder::row`]`(u)`. The map is an involution, so it
/// also sends a row back to its node. A machine's order is set with
/// [`Machine::set_row_order`](crate::Machine::set_row_order); plans,
/// matchings, keys, compiled schedules, traces, events and faults stay
/// in node ids whatever the order.
///
/// [`RowOrder::NODE`], the default, is the identity.
/// [`RowOrder::swap_class_fields`]`(w)` swaps the two `w`-bit fields
/// below the top address bit `2w` of every node whose top bit is set: on
/// `D_n`, with `w = n−1`, that is `DualCube::linear_index`, the paper's
/// data order (Section 3), in which every cluster is `2^(n−1)`
/// consecutive rows and cluster dimension `i` flips row bit `i` in both
/// classes.
///
/// ```
/// use dc_simulator::{Flip, RowOrder};
///
/// // D_3: a 5-bit id, class bit 4, two 2-bit fields.
/// let order = RowOrder::swap_class_fields(2);
/// assert_eq!(order.row(0b0_10_01), 0b0_10_01); // class 0: unchanged
/// assert_eq!(order.row(0b1_10_01), 0b1_01_10); // class 1: fields swapped
/// // Cluster dimension 1 flips bit 1 of class 0 and bit 3 of class 1:
/// // bit 1 of every row.
/// assert_eq!(
///     order.flip(Flip::by_class(4, [1, 3])),
///     Flip::by_class(4, [1, 1])
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RowOrder {
    /// The width `w` of the two swapped fields; 0 for the identity,
    /// which is also what swapping two empty fields gives.
    field: u32,
}

impl RowOrder {
    /// Node order: row `u` holds node `u`.
    pub const NODE: RowOrder = RowOrder { field: 0 };

    /// The order that swaps the two `field`-bit fields of every node id
    /// whose bit `2·field` (the top address bit of a machine of
    /// `2^(2·field+1)` nodes) is set. `swap_class_fields(0)` is
    /// [`RowOrder::NODE`].
    ///
    /// # Panics
    ///
    /// If the class bit does not fit a node id.
    pub fn swap_class_fields(field: u32) -> RowOrder {
        assert!(
            2 * field < usize::BITS - 1,
            "a class bit at {} does not fit a node id",
            2 * field
        );
        RowOrder { field }
    }

    /// The row that holds node `u` (and the node that row `u` holds).
    #[inline]
    pub fn row(self, u: NodeId) -> usize {
        swap_fields(u, self.field)
    }

    /// `flip` in row space: the flip that pairs row `row(u)` with row
    /// `row(flip.partner(u))`. Each class's flipped bit moves with the
    /// swap, so it stays one bit per class.
    ///
    /// # Panics
    ///
    /// If `flip` flips the class bit under a swap of non-empty fields:
    /// that pairs row `(0, a, b)` with row `(1, b, a)`, which is no bit
    /// flip.
    pub fn flip(self, flip: Flip) -> Flip {
        let w = self.field;
        if w == 0 {
            return flip;
        }
        let class_bit = 2 * w;
        let bits = [0, 1].map(|class| {
            let bit = flip.bits[class];
            assert!(
                bit != class_bit,
                "flipping the class bit {class_bit} is no bit flip of rows in an order that swaps class-1 fields"
            );
            self.row_bit(class, bit)
        });
        Flip {
            class_bit: Some(class_bit),
            bits,
        }
    }

    /// The row bit that node bit `bit` of a class-`class` node becomes:
    /// a swap moves a class-1 bit below the class bit to the other field.
    /// The class bit, and a silent class's [`SILENT`], stay.
    #[inline]
    fn row_bit(self, class: usize, bit: u32) -> u32 {
        let w = self.field;
        if class == 1 && bit < 2 * w {
            (bit + w) % (2 * w)
        } else {
            bit
        }
    }

    /// Panics unless the order fits an `n`-node machine: a swap's class
    /// bit must be its top address bit.
    pub(crate) fn check(self, n: usize) {
        let w = self.field;
        assert!(
            w == 0 || n == 2 << (2 * w),
            "a row order that swaps {w}-bit fields needs {} nodes, not {n}",
            2usize << (2 * w)
        );
    }
}

/// `u` with its two `w`-bit fields swapped when its bit `2w` is set.
#[inline]
fn swap_fields(u: usize, w: u32) -> usize {
    if w == 0 || (u >> (2 * w)) & 1 == 0 {
        return u;
    }
    let mask = (1usize << w) - 1;
    (u & !(mask | mask << w)) | (u & mask) << w | (u >> w) & mask
}

/// Evaluates `$body` with `$row` bound to `$order`'s row map, compiled
/// once for node order (where it is the identity) and once for a swap,
/// so [`Machine::compute_rows`](crate::Machine::compute_rows) dispatches
/// on the order once per phase, not once per row. (The row gathers
/// branch once per slab instead: in a swap they also change the walk.)
macro_rules! with_rows {
    ($order:expr, |$row:ident| $body:expr) => {{
        let order: $crate::comm::RowOrder = $order;
        if order == $crate::comm::RowOrder::NODE {
            let $row = |u: usize| u;
            $body
        } else {
            let $row = move |u: usize| order.row(u);
            $body
        }
    }};
}
pub(crate) use with_rows;

/// The pair-fold payload form (built by [`Comm::fold_pairs`]): `W` slabs
/// of `width` values per node, folded in runs of pairs along a [`Flip`].
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
/// staging slab is `()` per node and never touched), the row forms
/// through the machine's [`RowOrder`]. A form built on a matching
/// ([`Form::flip`]: a pair fold, or a row form given a [`Flip`]) skips
/// the sender table on every path and delivers straight from its flip
/// ([`Form::deliver_flip`]); a cycle proved legal in closed form, or
/// replayed by flip equality, skips the plan and the staging too.
pub(crate) mod form {
    use super::*;

    /// Where a row cycle's nodes send: a plan closure, evaluated node by
    /// node, or a [`Flip`], the matching as a value.
    pub trait Route<S>: Sync {
        /// Node `u`'s destination, or `None` when it is silent.
        fn route(&self, u: NodeId, s: &S) -> Option<NodeId>;
        /// The matching, when the route is one.
        fn matching(&self) -> Option<Flip> {
            None
        }
    }

    impl<S, P: Fn(NodeId, &S) -> Option<NodeId> + Sync> Route<S> for P {
        #[inline]
        fn route(&self, u: NodeId, s: &S) -> Option<NodeId> {
            self(u, s)
        }
    }

    impl<S> Route<S> for Flip {
        #[inline]
        fn route(&self, u: NodeId, _: &S) -> Option<NodeId> {
            self.target(u)
        }

        fn matching(&self) -> Option<Flip> {
            Some(*self)
        }
    }

    /// Panics unless `flip` can drive a pair fold on an `n`-node machine
    /// in `order`: every node sends, a by-class flip's class bit is the
    /// top address bit, and the flip is a bit flip of rows.
    pub(crate) fn check_pairs(flip: Flip, n: usize, order: RowOrder) {
        assert!(
            flip.is_total(),
            "a pair fold needs every class to send, not {flip:?}"
        );
        flip.check(n);
        order.flip(flip);
    }

    /// What a delivery uses of the machine besides the states and the
    /// staged cycle.
    pub struct Ctx<'m> {
        /// The cycle's dispatch bounds: one slot `[0, n]` on the
        /// sequential backend, the shard-aligned slots on the threaded
        /// one. A row form splits its slabs' rows by them.
        pub(crate) bounds: &'m [usize],
        /// The machine's faults: a fold skips crashed nodes, and a pair
        /// fold learns from the armed drops which messages were lost.
        pub(crate) faults: &'m FaultState,
        /// Which row of a slab holds each node.
        pub(crate) order: RowOrder,
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
        /// ([`Comm::fold_pairs`], [`Comm::rows_on`],
        /// [`Comm::fold_rows_on`]): its [`Flip`] and the words each of
        /// its messages carries.
        fn flip(&self) -> Option<(Flip, u64)> {
            None
        }

        /// Panics, before the cycle charges anything, unless the form's
        /// matching fits an `n`-node machine in `order`.
        fn check(&self, n: usize, _order: RowOrder) {
            if let Some((flip, _)) = self.flip() {
                flip.check(n);
            }
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
        /// Delivers a validated cycle whose matching is the form's
        /// [`Form::flip`], with no sender table: a node received from its
        /// sender under the flip unless `ctx.faults` drops its message
        /// (only called for a form with a flip).
        fn deliver_flip(&mut self, _ctx: Ctx<'_>) {
            unreachable!("only a form built on a matching delivers by its flip");
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
        P: Route<S>,
    {
        type Msg = ();
        type Slot = ();
        const PLANNED: bool = false;

        fn flip(&self) -> Option<(Flip, u64)> {
            let words = (self.width * N) as u64;
            self.plan.matching().map(|flip| (flip, words))
        }

        #[inline]
        fn width(&self) -> usize {
            1
        }

        fn lanes(&self) -> u32 {
            (self.width * N) as u32
        }

        #[inline]
        fn plan(&self, u: NodeId, s: &S) -> Option<(NodeId, ())> {
            self.plan.route(u, s).map(|dst| (dst, ()))
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

        /// The row gather: every receiver `u` with a sender copies its
        /// sender's row of each source slab into its own row of the
        /// paired destination slab, both rows found through the order
        /// (in node order, row `u` and row `srcs[u]`). Destination rows
        /// split by the dispatch bounds, so each worker writes only its
        /// own rows. A matching's gather is [`Form::deliver_flip`].
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
            let order = ctx.order;
            let gather = |rows: Range<usize>, dests: [&mut [V]; N]| {
                for (dest, source) in dests.into_iter().zip(sources) {
                    if order == RowOrder::NODE {
                        let senders = &srcs[rows.clone()];
                        for (row, &src) in dest.chunks_exact_mut(width).zip(senders) {
                            if src != NO_SRC {
                                copy_row(row, source, src as usize * width);
                            }
                        }
                        continue;
                    }
                    for r in rows.clone() {
                        let src = srcs[order.row(r)];
                        if src != NO_SRC {
                            let row = &mut dest[(r - rows.start) * width..][..width];
                            copy_row(row, source, order.row(src as usize) * width);
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

        /// The row gather straight from the matching: every receiver
        /// copies its sender's row, found by [`walk_matching`] with no
        /// table, unless its message was dropped. Destination rows split
        /// by the dispatch bounds, as in [`Form::deliver`].
        fn deliver_flip(&mut self, ctx: Ctx<'_>) {
            let Ctx {
                bounds,
                faults,
                order,
            } = ctx;
            let (width, n) = (self.width, bounds[bounds.len() - 1]);
            let flip = self
                .plan
                .matching()
                .expect("a matching delivers by its flip");
            let sources = self.pairs.each_ref().map(|(source, _)| *source);
            let dests = self.pairs.each_mut().map(|(_, dest)| &mut **dest);
            check_slabs(
                width,
                n,
                sources.iter().copied().chain(dests.iter().map(|d| &**d)),
            );
            let drops = faults.has_drops();
            let gather = |rows: Range<usize>, dests: [&mut [V]; N]| {
                for (dest, source) in dests.into_iter().zip(sources) {
                    walk_matching(order, flip, n, rows.clone(), false, |r, u, from| {
                        if let Some(from) = from.filter(|_| !(drops && faults.dropped(u))) {
                            let row = &mut dest[(r - rows.start) * width..][..width];
                            copy_row(row, source, from * width);
                        }
                    });
                }
            };
            par_rows_bounds(bounds, width, dests, &gather);
        }
    }

    impl<S, V, P, Fo, const W: usize, const R: usize> Form<S> for FoldRows<'_, V, P, Fo, W, R>
    where
        V: Clone + Send + Sync,
        P: Route<S>,
        Fo: Fn(NodeId, [&mut [V]; W], [&[V]; R], Option<&[V]>) + Sync,
    {
        type Msg = ();
        type Slot = ();
        const PLANNED: bool = false;
        const FOLDS: bool = true;

        fn flip(&self) -> Option<(Flip, u64)> {
            let words = self.width as u64;
            self.plan.matching().map(|flip| (flip, words))
        }

        #[inline]
        fn width(&self) -> usize {
            1
        }

        fn lanes(&self) -> u32 {
            self.width as u32
        }

        #[inline]
        fn plan(&self, u: NodeId, s: &S) -> Option<(NodeId, ())> {
            self.plan.route(u, s).map(|dst| (dst, ()))
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
            fold_each(width, rows, self.read, from, srcs, ctx, &self.fold);
        }

        fn discard(&self, _: &mut [()]) {}

        fn deliver_planned(&self, _: &mut S, _: NodeId, (): ()) {
            unreachable!("folds run after validation, never planned");
        }

        /// The fold pass straight from the matching: every live node
        /// folds its sender's row of the travelling slab, found by
        /// [`walk_matching`] with no table (`None` when the matching
        /// sends it nothing or its message was dropped).
        fn deliver_flip(&mut self, ctx: Ctx<'_>) {
            let Ctx {
                bounds,
                faults,
                order,
            } = ctx;
            let (width, n, from, read) =
                (self.width, bounds[bounds.len() - 1], self.from, self.read);
            let slabs = self.rows.iter().map(|r| &**r).chain(read);
            check_slabs(width, n, slabs.chain([from]));
            let flip = self
                .plan
                .matching()
                .expect("a matching delivers by its flip");
            let (frozen, drops, fold) = (faults.any_failed(), faults.has_drops(), &self.fold);
            let pass = |rows_at: Range<usize>, mut rows: [&mut [V]; W]| {
                walk_matching(order, flip, n, rows_at.clone(), true, |r, u, src| {
                    if frozen && faults.is_failed(u) {
                        return;
                    }
                    let at = (r - rows_at.start) * width;
                    let mine = rows.each_mut().map(|s| &mut s[at..][..width]);
                    let got = src.filter(|_| !(drops && faults.dropped(u)));
                    let msg = got.map(|src| row_at(from, src, width));
                    fold(u, mine, read.map(|s| row_at(s, r, width)), msg);
                });
            };
            let rows = self.rows.each_mut().map(|r| &mut **r);
            par_rows_bounds(bounds, width, rows, &pass)
        }
    }

    impl<S, V, Fo, const W: usize> Form<S> for FoldPairs<'_, V, Fo, W>
    where
        V: Send + Sync,
        Fo: Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync,
    {
        type Msg = ();
        type Slot = ();
        const PLANNED: bool = false;
        const FOLDS: bool = true;

        fn flip(&self) -> Option<(Flip, u64)> {
            Some((self.flip, self.width as u64))
        }

        fn check(&self, n: usize, order: RowOrder) {
            check_pairs(self.flip, n, order);
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

        /// Nothing to stage: the fold reads both rows of a pair in
        /// [`Form::deliver`].
        #[inline]
        fn stage(&self, _: NodeId, _: &S, (): (), _: &mut [()]) {}

        #[inline]
        fn staged_words(&self, _: &[()]) -> u64 {
            self.width as u64
        }

        /// Never called: the machine delivers every form built on a
        /// matching by [`Form::deliver_flip`].
        fn deliver(&mut self, _: &mut [S], _: &[u32], _: &mut [()], _: Ctx<'_>)
        where
            S: Send,
        {
            unreachable!("a pair fold delivers by its flip");
        }

        fn discard(&self, _: &mut [()]) {}

        fn deliver_planned(&self, _: &mut S, _: NodeId, (): ()) {
            unreachable!("folds run after validation, never planned");
        }

        /// Folds every pair of the flip once, in runs (see
        /// [`walk_rounds`]); a node received unless an armed drop lost
        /// its message. A successful pair fold has no crashed node
        /// (every node sent), so no node is skipped.
        fn deliver_flip(&mut self, ctx: Ctx<'_>) {
            let Ctx {
                bounds,
                faults,
                order,
            } = ctx;
            let n = bounds[bounds.len() - 1];
            check_slabs(self.width, n, self.rows.iter().map(|r| &**r));
            let flip = order.flip(self.flip);
            let got = |r| !faults.dropped(order.row(r));
            let got = faults.has_drops().then_some(&got);
            let mut rows = self.rows.each_mut().map(|r| &mut **r);
            walk_rounds(bounds, self.width, &mut rows, 1, &|_| flip, got, &self.fold);
        }
    }

    /// Folds `rounds` rounds of pairs over the rows, round `r` on the
    /// pairs of the row-space flip `flip(r)`, one **block** at a time: a
    /// block is the smallest aligned row range closed under every
    /// round's flip (in each class, `2^(b+1)` rows for the highest bit
    /// `b` a round flips there), so it runs all rounds before the next
    /// block starts, and blocks never exchange a value. Each dispatch
    /// slot walks the blocks inside its own row range; a block that
    /// straddles two slots walks afterwards on this thread. `got`, when
    /// drops are armed, says whether row `r`'s node received; without
    /// it every pair folds as one run per half-block.
    pub(crate) fn walk_rounds<V: Send, const W: usize>(
        bounds: &[usize],
        width: usize,
        rows: &mut [&mut [V]; W],
        rounds: usize,
        flip: &(impl Fn(usize) -> Flip + Sync),
        got: Option<&(impl Fn(usize) -> bool + Sync)>,
        fold: &(impl Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]) + Sync),
    ) {
        let n = bounds[bounds.len() - 1];
        let regions = block_regions(n, rounds, flip);
        let walk = |block: Range<usize>, origin: usize, rows: &mut [&mut [V]; W]| {
            for r in 0..rounds {
                fold_round(width, flip(r), n, block.clone(), origin, rows, got, fold);
            }
        };
        let slabs = rows.each_mut().map(|r| &mut **r);
        par_rows_bounds(bounds, width, slabs, &|nodes, mut part| {
            // `nodes` is one slot's range, or all of them when the pass
            // runs inline; either way, walk slot by slot.
            let first = bounds.partition_point(|&b| b < nodes.start);
            let slots = bounds[first..].windows(2);
            for slot in slots.take_while(|w| w[1] <= nodes.end) {
                for (region, span) in &regions {
                    let start = slot[0].max(region.start).next_multiple_of(*span);
                    let end = slot[1].min(region.end) / span * span;
                    for base in (start..end).step_by(*span) {
                        walk(base..base + span, nodes.start, &mut part);
                    }
                }
            }
        });
        let mut last = None;
        for &b in &bounds[1..bounds.len() - 1] {
            for (region, span) in &regions {
                let start = b / span * span;
                if region.start < b && b < region.end && start != b && last != Some(start) {
                    last = Some(start);
                    walk(start..start + span, 0, rows);
                }
            }
        }
    }

    /// The block regions of [`walk_rounds`]: one per class (each half of
    /// the machine, with its block span), or the whole machine as one
    /// block when a round pairs rows of the two halves.
    fn block_regions(
        n: usize,
        rounds: usize,
        flip: &impl Fn(usize) -> Flip,
    ) -> [(Range<usize>, usize); 2] {
        let mut top = [0; 2];
        for r in 0..rounds {
            let bits = flip(r).bits;
            top = [0, 1].map(|c| top[c].max(bits[c]));
        }
        let span = top.map(|bit| 2usize << bit);
        if span[0].max(span[1]) <= n / 2 {
            [(0..n / 2, span[0]), (n / 2..n, span[1])]
        } else {
            [(0..n, n), (n..n, n)]
        }
    }

    /// One round of [`walk_rounds`] inside `block`: a by-class flip
    /// folds each class's part of the block on that class's bit.
    #[allow(clippy::too_many_arguments)]
    fn fold_round<V, const W: usize>(
        width: usize,
        flip: Flip,
        n: usize,
        block: Range<usize>,
        origin: usize,
        rows: &mut [&mut [V]; W],
        got: Option<&impl Fn(usize) -> bool>,
        fold: &impl Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]),
    ) {
        if flip.class_bit.is_none() {
            let half = 1 << flip.bits[0];
            return fold_blocks(width, half, block, origin, rows, got, fold);
        }
        for (class, rows_of) in [0..n / 2, n / 2..n].into_iter().enumerate() {
            let part = block.start.max(rows_of.start)..block.end.min(rows_of.end);
            if part.start < part.end {
                let half = 1 << flip.bits[class];
                fold_blocks(width, half, part, origin, rows, got, fold);
            }
        }
    }

    /// Folds the pairs of the blocks in `blocks` (both ends multiples of
    /// `2 · half`): in each block of `2 · half` rows the low half pairs
    /// with the high half, row for row, so one fold call takes the two
    /// halves as runs, with no partner lookup. With `got`, a run is cut
    /// wherever a pair's flags change. `rows` hold the rows from
    /// `origin` on.
    fn fold_blocks<V, const W: usize>(
        width: usize,
        half: usize,
        blocks: Range<usize>,
        origin: usize,
        rows: &mut [&mut [V]; W],
        got: Option<&impl Fn(usize) -> bool>,
        fold: &impl Fn([&mut [V]; W], [&mut [V]; W], [bool; 2]),
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
            let mut low = halves.each_mut().map(|(l, _)| std::mem::take(l));
            let mut high = halves.map(|(_, h)| h);
            let Some(got) = got else {
                fold(low, high, [true, true]);
                continue;
            };
            let flags = |j: usize| [got(base + j), got(base + half + j)];
            let mut start = 0;
            while start < half {
                let run = flags(start);
                let end = (start + 1..half).find(|&j| flags(j) != run).unwrap_or(half);
                let cut = start * width..end * width;
                fold(
                    low.each_mut().map(|l| &mut l[cut.clone()]),
                    high.each_mut().map(|h| &mut h[cut.clone()]),
                    run,
                );
                start = end;
            }
        }
    }

    /// Panics unless every slab holds `width` values for each of `n`
    /// nodes.
    fn check_slabs<'s, V: 's>(width: usize, n: usize, mut slabs: impl Iterator<Item = &'s [V]>) {
        assert!(
            slabs.all(|s| s.len() == n * width),
            "every row slab must hold {width} values per node of {n}"
        );
    }

    /// The fold form's pass over all rows, shaped like
    /// [`Machine::compute_rows`](crate::Machine::compute_rows): `f(u,
    /// rows, read, msg)` once per live node `u`, with `u`'s rows of the
    /// `W` written and `R` read slabs, and `msg` its sender's row of
    /// `from` (`srcs[u]`, [`NO_SRC`] for none). The written slabs split
    /// by the dispatch bounds, so each worker folds its own contiguous
    /// rows. In node order one row iterator per slab, advanced in step,
    /// so no slab is re-sliced per row; in another order row by row. A
    /// matching's pass is [`Form::deliver_flip`].
    fn fold_each<V: Send + Sync, const W: usize, const R: usize>(
        width: usize,
        rows: [&mut [V]; W],
        read: [&[V]; R],
        from: &[V],
        srcs: &[u32],
        ctx: Ctx<'_>,
        f: &(impl Fn(NodeId, [&mut [V]; W], [&[V]; R], Option<&[V]>) + Sync),
    ) {
        let Ctx {
            bounds,
            faults,
            order,
        } = ctx;
        let frozen = faults.any_failed();
        let pass = |rows_at: Range<usize>, mut rows: [&mut [V]; W]| {
            if order == RowOrder::NODE {
                let mut rows = rows.map(|r| r.chunks_exact_mut(width));
                let mut read = read.map(|r| r[rows_at.start * width..].chunks_exact(width));
                for u in rows_at {
                    let mine = rows.each_mut().map(|r| r.next().expect("one row per node"));
                    let theirs = read.each_mut().map(|r| r.next().expect("one row per node"));
                    if !(frozen && faults.is_failed(u)) {
                        let src = srcs[u];
                        let msg = (src != NO_SRC).then(|| row_at(from, src as usize, width));
                        f(u, mine, theirs, msg);
                    }
                }
                return;
            }
            for r in rows_at.clone() {
                let u = order.row(r);
                if !(frozen && faults.is_failed(u)) {
                    let at = (r - rows_at.start) * width;
                    let mine = rows.each_mut().map(|s| &mut s[at..][..width]);
                    let src = srcs[u];
                    let msg = (src != NO_SRC).then(|| row_at(from, order.row(src as usize), width));
                    f(u, mine, read.map(|s| row_at(s, r, width)), msg);
                }
            }
        };
        par_rows_bounds(bounds, width, rows, &pass)
    }

    /// Row `r` of a slab of `width` values per row.
    #[inline]
    fn row_at<V>(slab: &[V], r: usize, width: usize) -> &[V] {
        &slab[r * width..][..width]
    }

    /// Rows per side of a tile of [`walk_matching`].
    const TILE: usize = 8;

    /// Calls `f(r, u, from)` for every row `r` of `range`, rows of an
    /// `n`-node machine in `order`: `u` is the node row `r` holds, and
    /// `from` the row of the node whose message `u` receives under
    /// `flip`, or `None` when it receives nothing (rows whose whole class
    /// receives nothing are skipped unless `all`). No table is read:
    /// every node of a class receives across one bit, so `from` is `r`
    /// with one row bit flipped, or, for a class-bit flip under a swap of
    /// `w`-bit fields, the transpose `(1−c, l, h)` of `r = (c, h, l)`.
    /// The transpose is walked in tiles of [`TILE`] high × [`TILE`] low
    /// values, so the rows it reads come in [`TILE`] runs of [`TILE`]
    /// consecutive rows rather than `2^w` rows apart; everything else in
    /// row order. Every walk goes through the one call of `f` below,
    /// which keeps `f` inlined (a second call site cost a swapped
    /// one-lane gather about 2.5 times the extra time over node order,
    /// EXPERIMENTS.md §E37).
    #[inline(always)]
    pub(crate) fn walk_matching(
        order: RowOrder,
        flip: Flip,
        n: usize,
        range: Range<usize>,
        all: bool,
        mut f: impl FnMut(usize, NodeId, Option<usize>),
    ) {
        let (sources, w, half) = (flip.sources(), order.field, n / 2);
        for class in 0..2 {
            let part = range.start.max(class * half)..range.end.min((class + 1) * half);
            let bit = sources.bit(class);
            if part.is_empty() || !(all || bit.is_some()) {
                continue;
            }
            // Row `r` holds node `r`, or `r` with its fields swapped in
            // class 1 under a swap; its sender's row is `r` (or `r` with
            // its fields swapped, for the transpose) xor `mask`.
            let swap_node = class == 1 && w > 0;
            let transpose = w > 0 && bit == Some(2 * w);
            let mask = match bit {
                Some(_) if transpose => half,
                Some(b) => 1 << order.row_bit(class, b),
                None => 0,
            };
            let group = TILE << w;
            let tiled = transpose
                && w >= TILE.trailing_zeros()
                && part.start.is_multiple_of(group)
                && part.end.is_multiple_of(group);
            let (group, lows, highs, run) = if tiled {
                (group, (0..1 << w).step_by(TILE), TILE, TILE)
            } else {
                (part.len(), (0..1).step_by(1), 1, part.len())
            };
            for base in part.step_by(group) {
                for low in lows.clone() {
                    for high in 0..highs {
                        let start = base + (high << w) + low;
                        for r in start..start + run {
                            let u = if swap_node { swap_pair(r, w) } else { r };
                            let from = if transpose { swap_pair(r, w) } else { r } ^ mask;
                            f(r, u, bit.map(|_| from));
                        }
                    }
                }
            }
        }
    }

    /// `r` with its two low `w`-bit fields swapped, whatever its class.
    #[inline(always)]
    fn swap_pair(r: usize, w: u32) -> usize {
        let mask = (1usize << w) - 1;
        (r & !(mask | mask << w)) | (r & mask) << w | (r >> w) & mask
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
