//! The communication-cycle descriptor: one [`Comm`] names one 1-port
//! matching for [`Machine::try_cycle`](crate::Machine::try_cycle).
//!
//! Algorithms 2 and 3 of the paper are fixed sequences of 1-port
//! matchings — cluster-dimension and cross-edge exchanges, plus
//! Algorithm 3's 3-hop emulation window. A descriptor has three axes:
//!
//! * the **payload form** — a moved message `M` per sender
//!   ([`Comm::message`], one word per message unless [`Comm::words`]
//!   says otherwise), or `K` lane values of `V` per sender
//!   ([`Comm::lanes`], `K` words per message);
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
//! ```
//!
//! Each payload form is a type implementing the sealed [`Payload`] trait,
//! so the machine's one full-cycle path and one replay path are
//! monomorphised per form: no dynamic dispatch and no per-node branch on
//! the form in either hot loop.

use crate::schedule::{ScheduleKey, NO_SRC};
use dc_topology::NodeId;
use std::marker::PhantomData;

/// One communication cycle's description, built inside the closure passed
/// to [`Machine::try_cycle`](crate::Machine::try_cycle) /
/// [`Machine::cycle`](crate::Machine::cycle) from the blank `Comm<S>`
/// the machine provides: pick a payload form ([`Comm::message`] or
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

    /// The lane form: `K = lanes` independent payload values ride each
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

/// A cycle payload form: implemented by [`Message`] and [`Lanes`] only
/// (sealed), and what [`Machine::try_cycle`](crate::Machine::try_cycle)
/// is generic over.
pub trait Payload<S>: form::Form<S> {}

impl<S, F: form::Form<S>> Payload<S> for F {}

/// The machine-facing side of a payload form. The full-cycle path plans
/// into a slab of `Option<(NodeId, Msg)>`, validates, and stages each
/// delivered message into its receiver's `width()`-slot window of one
/// staging slab (the sequential backend delivers a planned message
/// straight from the plan slab instead); the replay path stages straight
/// from the compiled pattern. Delivery then runs per receiver over its
/// own window.
pub(crate) mod form {
    use super::*;

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

        /// Staging slots per node: 1 for a message, `K` for lanes.
        fn width(&self) -> usize;
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
        /// Delivers `window` to its receiver; `src` is the staged sender
        /// ([`NO_SRC`] = nothing staged this cycle).
        fn deliver(&self, s: &mut S, src: u32, window: &mut [Self::Slot]);
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
        #[inline]
        fn deliver(&self, s: &mut S, src: u32, window: &mut [Inbox<M>]) {
            if let Some(msg) = window[0].0.take() {
                debug_assert_ne!(src, NO_SRC, "a staged message outlived its cycle");
                (self.deliver)(s, src as NodeId, msg);
            }
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
        #[inline]
        fn deliver(&self, s: &mut S, src: u32, window: &mut [V]) {
            if src != NO_SRC {
                (self.deliver)(s, src as NodeId, window);
            }
        }

        fn discard(&self, _: &mut [V]) {}

        fn deliver_planned(&self, _: &mut S, _: NodeId, (): ()) {
            unreachable!("lane payloads are filled after validation, never planned");
        }
    }
}
