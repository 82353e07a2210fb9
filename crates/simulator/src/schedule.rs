//! Compiled communication schedules: capture-and-replay for the fixed,
//! data-oblivious exchange patterns every paper algorithm runs.
//!
//! `D_prefix`'s 2n+1 steps and `D_sort`'s 6n²−7n+2 steps are the *same*
//! partner pattern on every invocation — an ascend round at cluster
//! dimension `i`, a cross-edge swap, one hop of an emulated window
//! exchange — repeated across hundreds of cycles per run. Validating the
//! 1-port matching from scratch every cycle (adjacency query per sender,
//! receive-conflict table, pairwise symmetry pre-pass) is therefore pure
//! repeated work. This module gives those patterns names
//! ([`ScheduleKey`]) and a per-machine cache (`ScheduleCache`): the
//! first cycle with a key runs full validation and **compiles** the
//! matching into one packed `u32` per node (inbound source + sends flag;
//! trace pairs are reconstructed on demand); subsequent cycles with the
//! same key **replay** it — CUDA-graph style — skipping every validation
//! structure, so a replayed cycle is plan → scatter → deliver with no
//! sequential O(N) phase (and a pair fold replayed by its flip is
//! deliver alone).
//!
//! # Why replay cannot launder an invalid schedule
//!
//! A compiled schedule proves that *one specific matching* is legal. A
//! replayed cycle re-evaluates every node's plan exactly once (each
//! receiver evaluates its compiled sender's plan; nodes the schedule says
//! are silent check that they still are) and compares it against the
//! compiled pattern. Any deviation — a different destination, a new
//! sender, a silent node speaking up — fails the cycle with
//! [`SimError::ScheduleDeviation`](crate::SimError::ScheduleDeviation)
//! *before any state is touched*, reported deterministically for the
//! lowest deviating node id regardless of backend or worker count. A key
//! therefore asserts "this cycle's pattern equals the compiled one", and
//! the machine checks the assertion every cycle; what replay skips is
//! only the re-*derivation* of legality (adjacency, conflict-freedom,
//! symmetry), which depends on the pattern alone.
//!
//! A pair fold ([`Comm::fold_pairs`](crate::Comm::fold_pairs)) carries
//! its matching as a value, a [`Flip`]: node `u` pairs with `u ^
//! mask(u)`, and nothing else — no state, no closure — decides where a
//! node sends. The schedule a pair fold compiles records its flip. A
//! later pair fold under the key whose flip **equals** the recorded one
//! therefore runs exactly the matching the compile validated, and the
//! equality is checked on every such cycle, so that cycle replays
//! without evaluating any node's plan. Every other case — a different
//! flip, a schedule a closure plan compiled, a closure-planned cycle on
//! a schedule a flip compiled — takes the per-node check above and
//! reports the same deviation. A crash or link cut evicts every
//! schedule (see below), so a flip replays only while every node is
//! live and every link up, as when it compiled.

use crate::comm::Flip;
use dc_topology::NodeId;
use std::fmt;

/// Sentinel (and mask) for the source field of a packed schedule entry:
/// all 31 low bits set = "nothing inbound". Doubles as the field mask.
pub(crate) const NO_SRC: u32 = (1 << 31) - 1;

/// Top bit of a packed schedule entry: "this node sends this cycle".
pub(crate) const SENDS_BIT: u32 = 1 << 31;

/// Names a fixed communication pattern so the machine can cache its
/// compiled schedule. Two cycles may share a key **iff** they produce the
/// identical (destination, silence) pattern; the machine verifies this on
/// every replay and rejects deviations, so a wrong key is an error, never
/// a wrong answer.
///
/// The variants mirror the patterns the paper's algorithms actually run;
/// [`ScheduleKey::Custom`] covers anything algorithm-specific (ring
/// parities, per-round collective trees, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKey {
    /// A full pairwise exchange along dimension `i` (`u ↔ u ^ (1 << i)`),
    /// the ascend/descend-round shape.
    Dim(u32),
    /// The dual-cube cross-edge swap (`u ↔ ū₀`), present at every node.
    Cross,
    /// One hop of an emulated dimension-`j` window exchange (the 3-cycle
    /// schedule of Algorithm 3, or a metacube gather/scatter hop).
    Window {
        /// The emulated dimension.
        j: u32,
        /// Position of this cycle within the emulation schedule.
        hop: u8,
    },
    /// An algorithm-scoped pattern with caller-chosen discriminant.
    Custom(u32),
}

impl fmt::Display for ScheduleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScheduleKey::Dim(i) => write!(f, "dim({i})"),
            ScheduleKey::Cross => write!(f, "cross"),
            ScheduleKey::Window { j, hop } => write!(f, "window({j}, hop {hop})"),
            ScheduleKey::Custom(c) => write!(f, "custom({c})"),
        }
    }
}

/// A validated communication pattern, compiled on the first cycle with
/// its key and replayed on every subsequent one.
///
/// The pattern is packed into **one `u32` per node**: replay reads
/// exactly one array entry per receiver, and a run using dozens of keys
/// (`D_sort` on `D_8` uses ~45) keeps its whole schedule cache ~4×
/// smaller than a two-`Vec<usize>` layout would — small enough that
/// replaying a key whose last use was hundreds of cycles ago streams
/// 128 KiB instead of re-faulting half a megabyte per cycle. (That
/// footprint, not the replay arithmetic, is what dominates a many-key
/// run's wall-clock.)
#[derive(Debug, Clone)]
pub(crate) struct CompiledSchedule {
    /// The key this schedule was compiled under.
    pub key: ScheduleKey,
    /// `enc[u]`: low 31 bits = index of the node whose message `u`
    /// receives ([`NO_SRC`] = nothing inbound); [`SENDS_BIT`] = `u`
    /// sends this cycle. Capped at `2³¹ − 1` nodes — 5 orders of
    /// magnitude above the paper's headline machine. Because shards are
    /// contiguous id ranges, this dense dst-indexed layout is already
    /// **shard-major**: a shard's receivers occupy one contiguous slice.
    pub enc: Vec<u32>,
    /// The [`Flip`] of the pair fold that compiled the schedule
    /// ([`Comm::fold_pairs`](crate::Comm::fold_pairs)), `None` when a
    /// closure plan did. A later pair fold under the key whose flip
    /// equals it replays by that equality alone.
    pub flip: Option<Flip>,
    /// Messages the pattern delivers.
    pub delivered: usize,
    /// The fault epoch this schedule's legality was proved under. A
    /// cache whose epoch has moved on refuses to serve it (see
    /// [`ScheduleCache::get`]).
    pub epoch: u64,
    /// Deferred link accounting for recorded replays ([`AcctPlan`]),
    /// created lazily on the first recorded replay of this schedule and
    /// flushed into the recorder's link table at the observation points
    /// (`link_report`, `stop_recording`, eviction). `None` while the
    /// schedule has never replayed under a recorder.
    pub acct: Option<Box<AcctPlan>>,
}

impl CompiledSchedule {
    /// The `(src, dst)` pairs in `src` order — exactly what a traced
    /// validate-every-cycle run records. Materialised on demand (tracing
    /// is a diagnostics mode; compile and replay never pay for it).
    pub fn trace_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> = self
            .enc
            .iter()
            .enumerate()
            .filter_map(|(dst, &e)| {
                let src = e & NO_SRC;
                (src != NO_SRC).then_some((src as NodeId, dst))
            })
            .collect();
        pairs.sort_unstable();
        pairs
    }
}

/// Deferred per-schedule link accounting for **recorded replay** cycles.
///
/// A replayed schedule delivers the same fixed `(src → dst)` pattern
/// every cycle, so which link each message crosses — and whether that
/// link is a cross-edge — is schedule-determined, not cycle-determined.
/// Instead of resolving `link_slot` and writing a counter per message
/// per cycle (a random-access walk over a table that outgrows the cache
/// by `D_10` — the 8.8 ms recorded-cycle cliff of §E27), a recorded
/// replay streams one sequential pass over the receivers, bumping a
/// per-dst message/word counter here and folding cross/cube totals from
/// a precomputed bitset. The link-slot resolution happens **once per
/// observation** instead of once per message: at `link_report`,
/// `stop_recording`, or eviction, the accumulated per-dst counts are
/// mapped through `enc` to link slots and merged into the recorder's
/// segmented table. Totals, per-link counts, and histograms are
/// bit-identical to eager accounting — only *when* the table is written
/// changes, which no observation point can distinguish.
#[derive(Debug, Clone)]
pub(crate) struct AcctPlan {
    /// Messages delivered to `dst` since the last flush.
    pub msgs: Vec<u32>,
    /// Payload words delivered to `dst` since the last flush.
    pub words: Vec<u64>,
    /// Bitset over `dst`: whether the compiled inbound edge of `dst` is
    /// a cross-edge. Fixed by the schedule + topology, computed once.
    pub cross: Vec<u64>,
    /// Whether any counts have accumulated since the last flush (an
    /// `O(1)` skip for the observation points).
    pub dirty: bool,
}

impl AcctPlan {
    /// Zeroed accounting state for an `n`-node schedule; the caller
    /// fills the cross bitset from the compiled pattern.
    pub fn new(n: usize) -> Self {
        AcctPlan {
            msgs: vec![0; n],
            words: vec![0; n],
            cross: vec![0; n.div_ceil(64)],
            dirty: false,
        }
    }

    /// Marks `dst`'s compiled inbound edge as a cross-edge.
    pub fn set_cross(&mut self, dst: usize) {
        self.cross[dst >> 6] |= 1 << (dst & 63);
    }

    /// Whether `dst`'s compiled inbound edge is a cross-edge.
    #[inline]
    pub fn is_cross(&self, dst: usize) -> bool {
        (self.cross[dst >> 6] >> (dst & 63)) & 1 == 1
    }

    /// Zeroes the accumulated counts (after a flush); the cross bitset
    /// is schedule-determined and survives.
    pub fn reset_counts(&mut self) {
        self.msgs.fill(0);
        self.words.fill(0);
        self.dirty = false;
    }
}

/// Per-machine store of compiled schedules. Lookup is a linear scan: runs
/// use a handful of keys (`D_sort` on `D_8` uses ~45) and the scan is a
/// few dozen `Copy` compares against cycles that move 2^15 messages.
///
/// The cache carries the machine's current **fault epoch** (see the
/// `fault` module): every entry is stamped with the epoch it was
/// compiled under. A crash or link cut bumps the epoch, so every
/// schedule whose legality proof predates the fault is invalidated *by
/// construction* — the next keyed cycle recompiles under full
/// validation instead of replaying a pattern the damaged network may no
/// longer support.
///
/// # Invariant: every stored entry is current-epoch
///
/// [`ScheduleCache::set_epoch`] physically evicts every entry compiled
/// under the old epoch (returning them so the machine can flush their
/// deferred accounting), and [`ScheduleCache::insert`] only accepts
/// entries stamped with the current epoch. So `entries()` and `len()`
/// describe the same set, and the cache is bounded by the number of
/// *live* keys regardless of how many epochs have passed — under
/// fault-churn traffic whose keys never repeat across epochs, dead
/// entries used to accumulate without bound (each waiting for a same-key
/// recompile that never came, dragging its unflushed `AcctPlan` along).
///
/// Cloning a machine clones the cache: compiled schedules depend only on
/// the topology, node count, and fault history, which the clone shares.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScheduleCache {
    entries: Vec<CompiledSchedule>,
    /// Mirror of the machine's fault epoch ([`ScheduleCache::set_epoch`]
    /// keeps it in sync). Every stored entry is stamped with this value.
    epoch: u64,
}

impl ScheduleCache {
    pub const fn new() -> Self {
        ScheduleCache {
            entries: Vec::new(),
            epoch: 0,
        }
    }

    /// The compiled schedule for `key`. The epoch comparison is belt and
    /// braces: [`ScheduleCache::set_epoch`] already evicts stale entries,
    /// so every stored entry matches — but replaying a pre-fault schedule
    /// would be unsound, so the refusal stays structural rather than
    /// relying on the sweep alone.
    pub fn get(&self, key: ScheduleKey) -> Option<&CompiledSchedule> {
        self.entries
            .iter()
            .find(|e| e.key == key && e.epoch == self.epoch)
    }

    /// Mutable access to `key`'s current-epoch schedule — the replay
    /// path's handle for updating the deferred [`AcctPlan`].
    pub fn get_mut(&mut self, key: ScheduleKey) -> Option<&mut CompiledSchedule> {
        let epoch = self.epoch;
        self.entries
            .iter_mut()
            .find(|e| e.key == key && e.epoch == epoch)
    }

    pub fn contains(&self, key: ScheduleKey) -> bool {
        self.get(key).is_some()
    }

    /// Every stored entry — all current-epoch (see the invariant in the
    /// type docs). The observation points walk this to overlay deferred
    /// accounting.
    pub fn entries(&self) -> &[CompiledSchedule] {
        &self.entries
    }

    /// Mutable form of [`ScheduleCache::entries`], for the flush points.
    pub fn entries_mut(&mut self) -> &mut [CompiledSchedule] {
        &mut self.entries
    }

    /// Stores a freshly compiled schedule. The key must be absent and the
    /// entry stamped with the current epoch — stale same-key entries
    /// cannot exist (the epoch sweep removed them), and a same-epoch
    /// duplicate would mean the caller compiled twice instead of
    /// replaying.
    pub fn insert(&mut self, compiled: CompiledSchedule) {
        debug_assert!(
            compiled.epoch == self.epoch,
            "schedule {} compiled under epoch {} but cache is at {}",
            compiled.key,
            compiled.epoch,
            self.epoch
        );
        debug_assert!(
            !self.contains(compiled.key),
            "schedule {} compiled twice in one epoch",
            compiled.key
        );
        self.entries.push(compiled);
    }

    /// Moves the cache to `epoch` (monotone; called when the machine's
    /// fault state bumps) and **evicts every entry compiled earlier** —
    /// under the invariant that is all of them. The dead entries are
    /// returned so the caller can flush any pending deferred accounting
    /// before they drop; a same-epoch call returns nothing and costs
    /// nothing. Without this sweep, an entry whose key never recompiles
    /// after the fault would sit in the cache forever (the old
    /// eviction only fired on a same-key `insert`), growing the cache —
    /// and its unflushed `AcctPlan`s — without bound under churn.
    #[must_use = "evicted entries may carry unflushed deferred accounting"]
    pub fn set_epoch(&mut self, epoch: u64) -> Vec<CompiledSchedule> {
        debug_assert!(epoch >= self.epoch, "fault epoch must be monotone");
        if epoch == self.epoch {
            return Vec::new();
        }
        self.epoch = epoch;
        std::mem::take(&mut self.entries)
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of cached schedules. Equals `entries().len()` — the two
    /// views describe the same set, because stale entries are evicted at
    /// the epoch bump rather than lingering invisibly.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Removes and returns every entry (for donating to a
    /// [`ScheduleBank`]); the epoch is left unchanged.
    pub fn take_entries(&mut self) -> Vec<CompiledSchedule> {
        std::mem::take(&mut self.entries)
    }

    /// Installs `entries` into an empty cache (adopting from a
    /// [`ScheduleBank`]). The entries must be epoch-0 compilations and
    /// the cache must be at epoch 0 with nothing stored — callers
    /// (machine-level `adopt_schedules`) enforce both with real asserts.
    pub fn install_entries(&mut self, entries: Vec<CompiledSchedule>) {
        debug_assert!(self.entries.is_empty() && self.epoch == 0);
        debug_assert!(entries.iter().all(|e| e.epoch == 0));
        self.entries = entries;
    }
}

/// A portable store of compiled schedules, detached from any machine —
/// the warmth a serving fleet keeps between requests.
///
/// A `CompiledSchedule` proves a *pattern* legal; nothing about it is
/// specific to the machine that compiled it beyond the topology shape.
/// A bank lets one machine [`donate`](crate::Machine::donate_schedules)
/// its compiled schedules when its run ends and the next machine over
/// the same topology [`adopt`](crate::Machine::adopt_schedules) them
/// before its first cycle — so request N+1 replays what request N
/// validated instead of recompiling, even though each request builds a
/// fresh machine (state types differ per workload). Schedules are
/// destination-only, so a bank warmed by a K-lane batched run serves
/// scalar runs and other lane widths alike.
///
/// Banks only carry **fault-free** (epoch-0) compilations: both `adopt`
/// and `donate` refuse machines whose fault epoch has moved (epoch
/// numbering is per-machine, so cross-machine reuse of post-fault
/// schedules would be meaningless). Adopting a bank into a machine over
/// a *different* topology of the same size cannot corrupt a result:
/// replay re-evaluates every node's plan each cycle and any deviation
/// from the compiled pattern fails with
/// [`SimError::ScheduleDeviation`](crate::SimError::ScheduleDeviation)
/// before state is touched — but it is a misuse, and the
/// deferred-accounting cross-edge bitsets would misclassify links, so
/// keep one bank per topology.
#[derive(Debug, Default)]
pub struct ScheduleBank {
    pub(crate) entries: Vec<CompiledSchedule>,
    /// Node count of the machines this bank serves (0 = empty bank, not
    /// yet pinned to a shape).
    pub(crate) nodes: usize,
}

impl ScheduleBank {
    /// An empty bank; the first donation pins its node count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of compiled schedules the bank holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bank holds no schedules.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_round_trips_by_key() {
        let mut cache = ScheduleCache::new();
        assert!(!cache.contains(ScheduleKey::Cross));
        cache.insert(CompiledSchedule {
            key: ScheduleKey::Cross,
            enc: vec![SENDS_BIT | 1, SENDS_BIT], // 0 ↔ 1 swap
            flip: None,
            delivered: 2,
            epoch: 0,
            acct: None,
        });
        assert!(cache.contains(ScheduleKey::Cross));
        assert!(!cache.contains(ScheduleKey::Dim(0)));
        let got = cache.get(ScheduleKey::Cross).unwrap();
        assert_eq!(got.delivered, 2);
        assert_eq!(got.trace_pairs(), vec![(0, 1), (1, 0)]);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    /// The PR-4 invariant, strengthened by the stale-entry sweep: bumping
    /// the fault epoch *physically evicts* every earlier compilation
    /// (returning it for its deferred-accounting flush), so `len()` and
    /// `entries()` always describe the same, bounded set.
    #[test]
    fn epoch_bump_evicts_compiled_schedules() {
        let mut cache = ScheduleCache::new();
        cache.insert(CompiledSchedule {
            key: ScheduleKey::Dim(0),
            enc: vec![SENDS_BIT | 1, SENDS_BIT],
            flip: None,
            delivered: 2,
            epoch: 0,
            acct: None,
        });
        assert!(cache.contains(ScheduleKey::Dim(0)));
        let dead = cache.set_epoch(1);
        assert_eq!(dead.len(), 1, "the stale entry comes back for its flush");
        assert_eq!(dead[0].key, ScheduleKey::Dim(0));
        assert!(
            !cache.contains(ScheduleKey::Dim(0)),
            "pre-fault schedule must not be served post-fault"
        );
        assert_eq!(cache.len(), 0);
        assert!(cache.entries().is_empty(), "evicted, not merely hidden");
        // A same-epoch sync is free and evicts nothing.
        assert!(cache.set_epoch(1).is_empty());
        // Recompile under the new epoch: visible again.
        cache.insert(CompiledSchedule {
            key: ScheduleKey::Dim(0),
            enc: vec![NO_SRC, NO_SRC],
            flip: None,
            delivered: 0,
            epoch: 1,
            acct: None,
        });
        let got = cache.get(ScheduleKey::Dim(0)).unwrap();
        assert_eq!(got.delivered, 0, "must serve the new compilation");
        assert_eq!(cache.len(), 1);
    }

    /// The churn shape of the leak this sweep fixes: every epoch compiles
    /// a *different* key, so the old same-key-replacement eviction never
    /// fired and the cache grew one dead entry per epoch.
    #[test]
    fn disjoint_key_churn_stays_bounded() {
        let mut cache = ScheduleCache::new();
        for epoch in 0..100u64 {
            let _ = cache.set_epoch(epoch);
            cache.insert(CompiledSchedule {
                key: ScheduleKey::Custom(epoch as u32),
                enc: vec![SENDS_BIT | 1, SENDS_BIT],
                flip: None,
                delivered: 2,
                epoch,
                acct: None,
            });
            assert_eq!(cache.len(), 1, "exactly the live epoch's entry");
            assert_eq!(cache.entries().len(), cache.len());
        }
    }

    #[test]
    fn keys_discriminate() {
        assert_ne!(ScheduleKey::Dim(1), ScheduleKey::Dim(2));
        assert_ne!(
            ScheduleKey::Window { j: 1, hop: 0 },
            ScheduleKey::Window { j: 1, hop: 1 }
        );
        assert_ne!(ScheduleKey::Custom(0), ScheduleKey::Custom(1));
        assert_eq!(ScheduleKey::Cross, ScheduleKey::Cross);
    }

    #[test]
    fn display_names_the_pattern() {
        assert_eq!(ScheduleKey::Dim(3).to_string(), "dim(3)");
        assert_eq!(
            ScheduleKey::Window { j: 2, hop: 1 }.to_string(),
            "window(2, hop 1)"
        );
    }
}
