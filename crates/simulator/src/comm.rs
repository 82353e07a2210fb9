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
//!   or `K` lane values staged through per-node state ([`Comm::lanes`],
//!   `K` words per message, kept for the repository benchmark's probes);
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

use crate::parallel::{par_lane_apply_bounds, par_rows_bounds};
use crate::schedule::{ScheduleKey, NO_SRC};
use dc_topology::NodeId;
use std::marker::PhantomData;

/// One communication cycle's description, built inside the closure passed
/// to [`Machine::try_cycle`](crate::Machine::try_cycle) /
/// [`Machine::cycle`](crate::Machine::cycle) from the blank `Comm<S>`
/// the machine provides: pick a payload form ([`Comm::message`],
/// [`Comm::rows`] or [`Comm::lanes`]), then optionally [`Comm::pairwise`] and
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
    /// Both payload forms share one schedule cache (a compiled pattern
    /// holds destinations only).
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
    plan: P,
    deliver: D,
    words: W,
    msg: PhantomData<fn() -> M>,
}

/// The lane payload form (built by [`Comm::lanes`]).
pub struct Lanes<'v, V, P, Fi, D> {
    lanes: usize,
    seed: &'v V,
    plan: P,
    fill: Fi,
    deliver: D,
}

/// The row payload form (built by [`Comm::rows`]): `N` slab pairs of
/// `width` values per node.
pub struct Rows<'a, V, P, const N: usize> {
    width: usize,
    plan: P,
    pairs: [(&'a [V], &'a mut [V]); N],
}

/// A cycle payload form: implemented by [`Message`], [`Rows`] and
/// [`Lanes`] only (sealed), and what
/// [`Machine::try_cycle`](crate::Machine::try_cycle) is generic over.
pub trait Payload<S>: form::Form<S> {}

impl<S, F: form::Form<S>> Payload<S> for F {}

/// The machine-facing side of a payload form. The full-cycle path plans
/// into a slab of `Option<(NodeId, Msg)>`, validates, and stages each
/// delivered message into its receiver's `width()`-slot window of one
/// staging slab (the sequential backend delivers a planned message
/// straight from the plan slab instead); the replay path stages straight
/// from the compiled pattern. Either path records each receiver's sender
/// in the sender table, then runs the form's delivery once: the message
/// and lane forms over each receiver's window, the row form as one row
/// gather (its staging slab is `()` per node and never touched).
pub(crate) mod form {
    use super::*;
    use std::ops::Range;

    /// The message and lane forms' delivery: `deliver(state, src,
    /// window)` for every node, on the threaded backend over the
    /// shard-aligned dispatch slots, so each worker touches only its own
    /// nodes' states and windows.
    fn each_window<S: Send, Slot: Send>(
        states: &mut [S],
        srcs: &[u32],
        slab: &mut [Slot],
        bounds: &[usize],
        threaded: bool,
        width: usize,
        deliver: impl Fn(&mut S, u32, &mut [Slot]) + Sync,
    ) {
        if threaded {
            par_lane_apply_bounds(bounds, states, width, slab, &|u, s, window| {
                deliver(s, srcs[u], window);
            });
        } else {
            for ((s, &src), window) in states
                .iter_mut()
                .zip(srcs)
                .zip(slab.chunks_exact_mut(width))
            {
                deliver(s, src, window);
            }
        }
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

        /// Whether the plan carries the whole payload, so the sequential
        /// full path may deliver it straight from the plan slab in sender
        /// order ([`Form::deliver_planned`]). A lane window is filled only
        /// after validation, from pre-cycle states, so lanes always stage.
        const PLANNED: bool;

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
        /// `slab` holds `width()` staged slots per node. On the threaded
        /// backend each dispatch slot of `bounds` handles its own
        /// receivers.
        fn deliver(
            &mut self,
            states: &mut [S],
            srcs: &[u32],
            slab: &mut [Self::Slot],
            bounds: &[usize],
            threaded: bool,
        ) where
            S: Send;
        /// Drops whatever a failed cycle staged.
        fn discard(&self, slab: &mut [Self::Slot]);
        /// Delivers a planned message without staging it (only called
        /// when [`Form::PLANNED`]).
        fn deliver_planned(&self, s: &mut S, src: NodeId, msg: Self::Msg);
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
        fn deliver(
            &mut self,
            states: &mut [S],
            srcs: &[u32],
            slab: &mut [Inbox<M>],
            bounds: &[usize],
            threaded: bool,
        ) where
            S: Send,
        {
            each_window(states, srcs, slab, bounds, threaded, 1, |s, src, window| {
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
        fn deliver(
            &mut self,
            states: &mut [S],
            srcs: &[u32],
            slab: &mut [V],
            bounds: &[usize],
            threaded: bool,
        ) where
            S: Send,
        {
            let width = self.lanes;
            each_window(
                states,
                srcs,
                slab,
                bounds,
                threaded,
                width,
                |s, src, window| {
                    if src != NO_SRC {
                        (self.deliver)(s, src as NodeId, window);
                    }
                },
            );
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
        fn deliver(
            &mut self,
            _: &mut [S],
            srcs: &[u32],
            _: &mut [()],
            bounds: &[usize],
            threaded: bool,
        ) where
            S: Send,
        {
            let (width, n) = (self.width, srcs.len());
            let sources = self.pairs.each_ref().map(|(source, _)| *source);
            let dests = self.pairs.each_mut().map(|(_, dest)| &mut **dest);
            assert!(
                sources.iter().all(|s| s.len() == n * width)
                    && dests.iter().all(|d| d.len() == n * width),
                "every row slab must hold {width} values per node of {n}"
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
            if threaded {
                par_rows_bounds(bounds, width, dests, &gather);
            } else {
                gather(0..n, dests);
            }
        }

        fn discard(&self, _: &mut [()]) {}

        fn deliver_planned(&self, _: &mut S, _: NodeId, (): ()) {
            unreachable!("rows move after validation, never planned");
        }
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
