//! Host-side parallelism for large machines.
//!
//! The simulated network is synchronous, so within one cycle the per-node
//! work is embarrassingly parallel. [`Machine`](crate::Machine) runs every
//! per-node pass of a cycle — plan, the pairwise symmetry check, the
//! claim passes of the 1-port validation, replay, delivery, and the
//! `compute`, `compute_rows` and `setup` phases — over its *dispatch
//! bounds*: ascending node ranges, one per dispatch slot. Under
//! [`ExecMode::Sequential`] (or below the parallel threshold) the bounds
//! are the one slot `[0, n]`, and every executor here runs it inline on
//! the calling thread; on the threaded backend they are the shard-aligned
//! slots of the machine's shard map, one per worker (DESIGN.md §6, §12).
//! Validation reduces the lowest-index violation over the slots, so
//! `SimError` semantics and trace recording are the same at every slot
//! count. The multi-slot executors are built on a lazily-initialised
//! **persistent worker pool** (the private `pool` module): long-lived
//! threads parked on a condvar between cycles and woken by an
//! epoch-counter fork-join barrier, so a steady-state cycle costs a few
//! wake/join rounds instead of rounds of OS thread spawns (rayon and
//! crossbeam are not in the dependency set — see DESIGN.md §6 for the
//! pool architecture and the measured difference against the earlier
//! `std::thread::scope` backend).
//!
//! Determinism: slots receive disjoint node ranges, so the result is
//! identical to the one-slot run regardless of scheduling. The
//! determinism tests in `dc-core`'s `tests/parallel_backend.rs` pin this
//! at the algorithm level: parallel and sequential runs must agree
//! state-for-state and metric-for-metric. Panics raised inside the
//! per-node closures are propagated to the caller (with their original
//! payload) exactly as `std::thread::scope` would, and leave the pool
//! reusable.

#[allow(unsafe_code)]
mod pool;

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Per-thread `(dispatches, queue_ns, exec_ns)` accumulated by the
    /// pool's fork-join entry since the last [`take_dispatch_stats`].
    /// Thread-local because the dispatcher *is* the machine's thread —
    /// the machine drains its own cycle's dispatches at event emission.
    static DISPATCH_STATS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Adds one fork-join dispatch's timing to the calling thread's
/// accumulator. Called by the pool only while a recorder is live (see
/// `obs::pool_timing_active`).
pub(crate) fn record_dispatch(queue_ns: u64, exec_ns: u64) {
    DISPATCH_STATS.with(|c| {
        let (d, q, e) = c.get();
        c.set((d + 1, q + queue_ns, e + exec_ns));
    });
}

/// Drains the calling thread's accumulated `(dispatches, queue_ns,
/// exec_ns)`, resetting it to zero.
pub(crate) fn take_dispatch_stats() -> (u64, u64, u64) {
    DISPATCH_STATS.with(|c| c.replace((0, 0, 0)))
}

/// Minimum number of nodes before threads are spawned; below this the
/// sequential loop wins on overhead. The default threshold of
/// [`ExecMode::Parallel`].
pub const PAR_THRESHOLD: usize = 4096;

/// How a [`Machine`](crate::Machine) executes the per-node work of each
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Plain sequential loops — zero overhead, the right choice for small
    /// machines, doctests, and step-count experiments.
    Sequential,
    /// Split cycles over host cores whenever the machine has at least
    /// `threshold` nodes; smaller machines fall back to the sequential
    /// loops (one integer compare of overhead).
    Parallel {
        /// Minimum node count for which threads are spawned.
        threshold: usize,
    },
}

impl ExecMode {
    /// `Parallel` with the tuned default [`PAR_THRESHOLD`].
    pub fn parallel() -> Self {
        ExecMode::Parallel {
            threshold: PAR_THRESHOLD,
        }
    }

    /// Whether a machine of `len` nodes should use the threaded path.
    pub fn is_parallel_for(self, len: usize) -> bool {
        match self {
            ExecMode::Sequential => false,
            ExecMode::Parallel { threshold } => len >= threshold && available_threads() > 1,
        }
    }

    /// `Sequential` encodes as the sentinel; a `Parallel` threshold is its
    /// own encoding (clamped below the sentinel, which no real machine
    /// size reaches).
    fn encode(self) -> usize {
        match self {
            ExecMode::Sequential => SEQ_SENTINEL,
            ExecMode::Parallel { threshold } => threshold.min(SEQ_SENTINEL - 1),
        }
    }

    fn decode(v: usize) -> Self {
        if v == SEQ_SENTINEL {
            ExecMode::Sequential
        } else {
            ExecMode::Parallel { threshold: v }
        }
    }
}

const SEQ_SENTINEL: usize = usize::MAX;

/// The process-wide default [`ExecMode`], read by `ExecMode::default()`
/// (and therefore by every `Machine::new`). Starts as
/// `Parallel { threshold: PAR_THRESHOLD }`.
static DEFAULT_EXEC: AtomicUsize = AtomicUsize::new(PAR_THRESHOLD);

/// Serialises [`with_default_exec`] sections so concurrent tests cannot
/// interleave their overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the process-wide default [`ExecMode`] set to `mode`,
/// restoring the previous default afterwards (also on panic).
///
/// This is the A/B lever for code that builds machines internally (the
/// algorithm entry points all call `Machine::new`): benches and
/// determinism tests wrap a whole algorithm run to force one backend
/// without threading an `ExecMode` parameter through every API.
/// Overlapping calls from different threads are serialised by an internal
/// lock; machines created *outside* any override always see whichever
/// default is current, and both backends produce identical results, so
/// this only ever affects wall-clock, never output.
pub fn with_default_exec<T>(mode: ExecMode, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEFAULT_EXEC.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(DEFAULT_EXEC.swap(mode.encode(), Ordering::SeqCst));
    f()
}

impl Default for ExecMode {
    /// The current process-wide default: initially
    /// [`ExecMode::parallel`] — large machines use the threaded backend
    /// automatically while small ones keep the zero-overhead sequential
    /// loops via the threshold cutoff — unless a
    /// [`with_default_exec`] override is active.
    fn default() -> Self {
        ExecMode::decode(DEFAULT_EXEC.load(Ordering::SeqCst))
    }
}

/// Applies `f(index, &mut item)` to every element, the slice split into
/// one chunk per worker of the persistent pool (inline on a single-core
/// host or for a slice of at most one element). There is no length
/// cutoff: the machine applies its own [`ExecMode`] threshold before
/// calling this.
pub fn par_apply_forced<S: Send>(states: &mut [S], f: &(impl Fn(usize, &mut S) + Sync)) {
    let len = states.len();
    let threads = available_threads();
    if threads == 1 || len <= 1 {
        for (i, s) in states.iter_mut().enumerate() {
            f(i, s);
        }
        return;
    }
    pool::apply_chunked(threads, states, f);
}

/// Folds `f(i, &mut a[i], window_i, &mut acc)` over an element slice
/// plus a **lane-strided** companion buffer (element `i` owns
/// `lanes[i*stride..(i+1)*stride]`), with one chunk-local accumulator
/// per dispatch slot: slot `k` owns `a[bounds[k]..bounds[k+1]]` and the
/// stride-scaled window of `lanes`. The shape of the replay pass (each
/// receiver stages its own window while reducing the deviation check and
/// word count). The machine passes shard-aligned bounds so each dispatch
/// slot touches whole shards — see `ShardMap::slot_bounds_into`. Bounds
/// ascend, so the slot-order fold is a fold in ascending node order:
/// with an associative, commutative `fold` whose `init` is an identity,
/// bit-identical to the sequential loop at any slot count.
pub(crate) fn par_lane_reduce_bounds<A: Send, V: Send, R: Copy + Send + Sync>(
    bounds: &[usize],
    a: &mut [A],
    stride: usize,
    lanes: &mut [V],
    init: R,
    f: &(impl Fn(usize, &mut A, &mut [V], &mut R) + Sync),
    fold: impl Fn(R, R) -> R,
) -> R {
    let slots = bounds.len() - 1;
    debug_assert!(slots <= MAX_THREADS);
    assert_eq!(
        lanes.len(),
        a.len() * stride,
        "lane buffer must be len*stride"
    );
    if available_threads() == 1 || slots <= 1 || a.len() <= 1 {
        let mut acc = init;
        for (i, (x, w)) in a.iter_mut().zip(lanes.chunks_exact_mut(stride)).enumerate() {
            f(i, x, w, &mut acc);
        }
        return acc;
    }
    let mut out = [init; MAX_THREADS];
    pool::zip_strided_reduce_bounds(bounds, a, stride, lanes, init, f, &mut out[..slots]);
    out[..slots]
        .iter()
        .copied()
        .reduce(fold)
        .expect("slots >= 2")
}

/// [`par_lane_reduce_bounds`] without the accumulator — the sharded
/// delivery phases' shape.
pub(crate) fn par_lane_apply_bounds<A: Send, V: Send>(
    bounds: &[usize],
    a: &mut [A],
    stride: usize,
    lanes: &mut [V],
    f: &(impl Fn(usize, &mut A, &mut [V]) + Sync),
) {
    par_lane_reduce_bounds(
        bounds,
        a,
        stride,
        lanes,
        (),
        &|i, x, w, _| f(i, x, w),
        |_, _| (),
    );
}

/// Row-slab pass over the dispatch bounds: each of the `N` slabs holds
/// `width` values per node (row `u` = `slab[u*width..(u+1)*width]`), and
/// slot `k` receives its node range `bounds[k]..bounds[k+1]` with those
/// nodes' rows of every slab, split on this thread with safe
/// `split_at_mut`. The shape of the row gather and the row compute
/// phase: each slot writes its own receivers' rows and nothing else.
/// Runs `f` once over all nodes on a single-threaded host or one slot.
pub(crate) fn par_rows_bounds<V: Send, const N: usize>(
    bounds: &[usize],
    width: usize,
    slabs: [&mut [V]; N],
    f: &(impl Fn(std::ops::Range<usize>, [&mut [V]; N]) + Sync),
) {
    let slots = bounds.len() - 1;
    debug_assert!(slots <= MAX_THREADS);
    if available_threads() == 1 || slots <= 1 {
        f(bounds[0]..bounds[slots], slabs);
        return;
    }
    let mut parts: [[&mut [V]; N]; MAX_THREADS] =
        std::array::from_fn(|_| std::array::from_fn(|_| Default::default()));
    let mut rest = slabs;
    for (slot, part) in parts[..slots].iter_mut().enumerate() {
        let len = (bounds[slot + 1] - bounds[slot]) * width;
        for (cell, slab) in part.iter_mut().zip(rest.iter_mut()) {
            let (head, tail) = std::mem::take(slab).split_at_mut(len);
            *cell = head;
            *slab = tail;
        }
    }
    par_apply_forced(&mut parts[..slots], &|slot, part| {
        f(
            bounds[slot]..bounds[slot + 1],
            part.each_mut().map(|rows| &mut **rows),
        )
    });
}

/// Chunk-granular sharded pass: slot `k` receives its whole bounds range
/// of `a` as one `&mut` slice plus exclusive ownership of `slabs[k]`,
/// folding into a per-slot accumulator reduced in slot order. The shape
/// of the sharded claim passes (reset + local min-merge + exchange-bin
/// staging, then the drain pass). Falls back to a sequential slot loop
/// on a single-threaded host, so the per-slot semantics are identical on
/// both backends.
pub(crate) fn par_slab_reduce<A: Send, B: Send, R: Copy + Send + Sync>(
    bounds: &[usize],
    a: &mut [A],
    slabs: &mut [B],
    init: R,
    f: &(impl Fn(usize, usize, &mut [A], &mut B, &mut R) + Sync),
    fold: impl Fn(R, R) -> R,
) -> R {
    let slots = bounds.len() - 1;
    debug_assert!(slots <= MAX_THREADS);
    debug_assert_eq!(slabs.len(), slots);
    if available_threads() == 1 || slots <= 1 {
        let mut acc = init;
        for (slot, slab) in slabs.iter_mut().enumerate() {
            let (start, end) = (bounds[slot], bounds[slot + 1]);
            f(slot, start, &mut a[start..end], slab, &mut acc);
        }
        return acc;
    }
    let mut out = [init; MAX_THREADS];
    pool::slab_reduce_bounds(bounds, a, slabs, init, f, &mut out[..slots]);
    out[..slots]
        .iter()
        .copied()
        .reduce(fold)
        .expect("slots >= 2")
}

/// Read-only pass over the dispatch bounds: `f(nodes, &mut acc)` once per
/// slot with its node range, the per-slot accumulators folded in slot
/// order. The shape of the passes that only read shared tables (the
/// pairwise symmetry check, the conflict pass). Inline for one slot.
pub(crate) fn par_range_reduce<R: Copy + Send + Sync>(
    bounds: &[usize],
    init: R,
    f: &(impl Fn(std::ops::Range<usize>, &mut R) + Sync),
    fold: impl Fn(R, R) -> R,
) -> R {
    let slots = bounds.len() - 1;
    debug_assert!(slots <= MAX_THREADS);
    let mut out = [init; MAX_THREADS];
    par_apply_forced(&mut out[..slots], &|slot, acc| {
        f(bounds[slot]..bounds[slot + 1], acc)
    });
    out[..slots]
        .iter()
        .copied()
        .reduce(fold)
        .expect("at least one slot")
}

/// Upper bound on worker threads, so huge hosts (or careless overrides)
/// don't oversubscribe.
const MAX_THREADS: usize = 32;

/// `0` means "derive from the host"; anything else pins the worker count.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins the executor worker count to `n` (`0` restores the automatic
/// host-derived count). For tests and experiments: forcing `n > 1` on a
/// single-core host still drives the real cross-thread code paths
/// (oversubscribed), and because the backend is deterministic the results
/// are identical at any worker count — only wall-clock changes.
///
/// The change takes effect at the next parallel dispatch: the persistent
/// pool resizes itself (retiring parked workers or spawning new ones)
/// before publishing the next fork-join round, so the count may change
/// freely between cycles of a running machine.
pub fn set_worker_threads(n: usize) {
    WORKER_OVERRIDE.store(n.min(MAX_THREADS), Ordering::SeqCst);
}

/// Serialises tests that pin the worker override against tests that read
/// [`available_threads`] (unit tests share one process). Do **not** call
/// [`with_default_exec`] while holding the guard — same non-reentrant
/// lock.
#[cfg(test)]
pub(crate) fn test_override_guard() -> std::sync::MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Number of worker threads to use: the [`set_worker_threads`] override
/// if one is pinned, else the host's available parallelism (capped so
/// tiny CI machines don't oversubscribe). The host count is computed
/// once and cached — `available_parallelism` re-reads cgroup files on
/// every call on Linux, which is far too slow for a per-cycle check.
pub fn available_threads() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    match WORKER_OVERRIDE.load(Ordering::SeqCst) {
        0 => *HOST.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
                .min(MAX_THREADS)
        }),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_slice_matches_sequential_result() {
        let mut par: Vec<u64> = (0..(PAR_THRESHOLD * 3 + 17) as u64).collect();
        let mut seq = par.clone();
        par_apply_forced(&mut par, &|i, s| {
            *s = s.wrapping_mul(31).wrapping_add(i as u64)
        });
        for (i, s) in seq.iter_mut().enumerate() {
            *s = s.wrapping_mul(31).wrapping_add(i as u64);
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn indices_are_global_not_per_chunk() {
        let mut v = vec![0usize; PAR_THRESHOLD * 2];
        par_apply_forced(&mut v, &|i, s| *s = i);
        assert!(v.iter().enumerate().all(|(i, &s)| s == i));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn forced_handles_non_divisible_chunk_boundaries() {
        // len chosen so len % threads != 0 for every thread count 2..=32.
        let len = 31 * 29 * 2 + 1;
        let mut v = vec![0usize; len];
        par_apply_forced(&mut v, &|i, s| *s = i + 1);
        assert!(v.iter().enumerate().all(|(i, &s)| s == i + 1));
    }

    #[test]
    fn forced_handles_more_threads_than_items() {
        // threads > len: chunk size 1, one spawn per item.
        for len in 1..=5usize {
            let mut v = vec![0usize; len];
            par_apply_forced(&mut v, &|i, s| *s = i * 10);
            assert!(v.iter().enumerate().all(|(i, &s)| s == i * 10));
        }
        let mut empty: Vec<usize> = Vec::new();
        par_apply_forced(&mut empty, &|_, _| unreachable!());
    }

    #[test]
    fn exec_mode_threshold_cutoff() {
        // Serialise with the worker-override test.
        let _guard = test_override_guard();
        assert!(!ExecMode::Sequential.is_parallel_for(1 << 20));
        let par = ExecMode::parallel();
        assert!(!par.is_parallel_for(PAR_THRESHOLD - 1));
        if available_threads() > 1 {
            assert!(par.is_parallel_for(PAR_THRESHOLD));
        }
    }

    #[test]
    fn worker_override_pins_and_restores_thread_count() {
        // Serialise with other tests that read `available_threads`.
        let _guard = test_override_guard();
        set_worker_threads(3);
        assert_eq!(available_threads(), 3);
        // The forced executor must spawn correctly even when the pinned
        // count exceeds the host's real core count (oversubscription).
        let mut v = vec![0usize; 100];
        par_apply_forced(&mut v, &|i, s| *s = i + 7);
        assert!(v.iter().enumerate().all(|(i, &s)| s == i + 7));
        set_worker_threads(0);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn default_exec_override_scopes_and_restores() {
        with_default_exec(ExecMode::Sequential, || {
            assert_eq!(ExecMode::default(), ExecMode::Sequential);
            // Nested machine sizes all fall back to sequential.
            assert!(!ExecMode::default().is_parallel_for(1 << 20));
        });
        with_default_exec(ExecMode::Parallel { threshold: 1 }, || {
            assert_eq!(ExecMode::default(), ExecMode::Parallel { threshold: 1 });
        });
        // Outside any override the initial default is back in force.
        assert_eq!(ExecMode::default(), ExecMode::parallel());
    }
}
