//! The persistent worker pool behind the chunked executors.
//!
//! The first backend (PR 1) built every parallel phase on
//! `std::thread::scope`, spawning and joining fresh OS threads up to three
//! times per communication cycle. EXPERIMENTS.md §E22 measured that at
//! ~0.3–0.5 ms of pure fork-join overhead per cycle at 4 workers —
//! ruinous for cycle-dense algorithms (`D_sort` on `D_8` is ~450 cycles).
//! This module replaces the spawns with long-lived workers that **park
//! between cycles** and are woken by an epoch-counter fork-join barrier,
//! making the per-cycle engine cost O(work), not O(threads spawned).
//!
//! # Wake protocol
//!
//! One process-wide [`Pool`] is created lazily on the first threaded
//! dispatch and lives for the rest of the process. Shared state is a
//! mutex-guarded [`State`] plus two condvars:
//!
//! 1. **publish** — the dispatching thread (holding the dispatch lock, so
//!    dispatches are serialised) stores the type-erased job pointer, bumps
//!    `epoch`, resets the slot-claim cursor, sets `remaining` to the slot
//!    count, and wakes **one** worker on the `work` condvar.
//! 2. **execute** — slots are **claimed, not assigned**: the dispatcher
//!    runs slot 0 inline, then the dispatcher and every awake worker
//!    repeatedly take the next unclaimed slot from the cursor and run it,
//!    decrementing `remaining` per finished slot. Each claim that leaves
//!    further slots unclaimed wakes one more worker (*wake-chaining* —
//!    no thundering herd when the dispatcher drains the cursor first;
//!    while unclaimed slots exist no parked worker has served the epoch,
//!    so a chained wake always lands on a fresh recruit or on nobody).
//!    The thread that finishes the last slot signals the `done` condvar.
//!    On an oversubscribed host (more workers than cores) the dispatcher
//!    typically claims most slots itself, so a forced-N dispatch costs
//!    little more than the sequential loop plus a few context switches.
//! 3. **join** — the dispatcher waits until `remaining == 0`. Only then
//!    does [`fork_join`] return, which is the lifetime guarantee the
//!    `unsafe` below relies on: the borrowed job and the slices it
//!    touches strictly outlive every use.
//!
//! # Chunk assignment
//!
//! Callers split their slice into `slots` contiguous chunks of
//! `len.div_ceil(slots)` elements — the identical arithmetic the
//! spawn-per-phase executors used, so the work partition (and therefore
//! behaviour under any per-chunk effect) is unchanged. *Which thread*
//! runs a slot is scheduling-dependent, but the slot → element-range
//! mapping is fixed and all effects land in the slot's own range, so
//! results are bit-identical regardless. Slots past the end of a short
//! slice are no-ops; they are still claimed and counted so the barrier
//! stays uniform.
//!
//! # Panic propagation
//!
//! Worker panics are caught, the first payload is stashed in [`State`],
//! and after the join barrier the dispatcher re-raises it with
//! [`resume_unwind`] — like `std::thread::scope`, but propagating the
//! original payload instead of a generic "a scoped thread panicked". A
//! panic in the dispatcher's own slot 0 is also caught and re-raised
//! *after* the barrier, because unwinding while workers still hold the
//! borrowed job would be unsound. The pool itself is left healthy: every
//! worker has checked in, `job` is cleared, and the next dispatch (even
//! from a `catch_unwind` caller) proceeds normally — pinned by the
//! poisoned-state tests.
//!
//! # Reconfiguration
//!
//! [`super::set_worker_threads`] changes the desired count; the next
//! dispatch resizes the pool before publishing (retired workers observe
//! `index >= target` and exit, new workers are spawned with the current
//! epoch as their `seen` so they cannot replay a finished job).
//!
//! # Safety
//!
//! This is the one module in the crate allowed to use `unsafe`
//! (`lib.rs` carries `#![deny(unsafe_code)]`; the spawn-per-phase
//! predecessor could stay fully safe because `std::thread::scope`
//! encapsulates exactly this pattern). Two invariants carry all of it:
//!
//! * **lifetime** — a job pointer published at epoch `e` is only
//!   dereferenced by workers during epoch `e`, and [`Pool::fork_join`]
//!   does not return (or unwind) before every worker has checked in for
//!   epoch `e`;
//! * **disjointness** — the chunked entry points hand slot `k` the
//!   element range `[k·chunk, (k+1)·chunk)`, so no two slots ever alias
//!   an element, and the `Send` bounds on the public executors make the
//!   cross-thread moves legal.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// What a panicking closure left behind, to be re-raised at the caller.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A type-erased fork-join job: invoked once per slot index in
/// `0..slots`. The `'static` is a lie told only inside this module — see
/// the module-level safety notes.
#[derive(Clone, Copy)]
struct Job(&'static (dyn Fn(usize) + Sync));

/// Mutex-guarded shared state of the pool.
struct State {
    /// Fork-join round counter; workers serve each epoch at most once.
    epoch: u64,
    /// The current round's job, present from publish until join.
    job: Option<Job>,
    /// Total slots of the current job (slot 0 runs on the dispatcher).
    slots: usize,
    /// Claim cursor: the lowest slot nobody has started yet.
    next: usize,
    /// Slots not yet *finished* this epoch — the join-barrier count.
    remaining: usize,
    /// Desired worker count; workers with `index >= target` retire.
    target: usize,
    /// First panic payload caught from a claimed slot this epoch.
    panic: Option<PanicPayload>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between cycles.
    work: Condvar,
    /// The dispatcher parks here until `remaining == 0`.
    done: Condvar,
}

/// Recovers the guard even if a previous holder panicked: the protocol
/// never leaves `State` inconsistent at a panic point (panics inside
/// closures are caught before the lock is touched).
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_main(shared: Arc<Shared>, index: usize, mut seen: u64) {
    // Nested dispatches from inside a worker's closure run inline.
    IN_DISPATCH.with(|c| c.set(true));
    loop {
        let epoch = {
            let mut st = lock(&shared.state);
            loop {
                if index >= st.target {
                    return; // retired by a shrink
                }
                if st.epoch != seen {
                    break;
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            seen = st.epoch;
            seen
        };
        run_claimed(&shared, epoch);
    }
}

/// Claims and runs unstarted slots of epoch `epoch` until none are left
/// (or the epoch is already over). Shared by the workers and the
/// dispatching thread; each finished slot decrements the barrier count,
/// and whichever thread finishes the last slot releases the dispatcher.
fn run_claimed(shared: &Shared, epoch: u64) {
    loop {
        let (job, slot) = {
            let mut st = lock(&shared.state);
            if st.epoch != epoch || st.next >= st.slots {
                return;
            }
            let Some(job) = st.job else { return };
            let slot = st.next;
            st.next += 1;
            if st.next < st.slots {
                // Wake-chaining: recruit one more claimer while work
                // remains. While unclaimed slots exist no parked worker
                // has served this epoch (run_claimed only returns once
                // the cursor is exhausted), so the wake always lands on
                // a fresh recruit — or on nobody, when every worker is
                // already awake and claiming.
                shared.work.notify_one();
            }
            (job, slot)
        };
        let panicked = catch_unwind(AssertUnwindSafe(|| (job.0)(slot))).err();
        let mut st = lock(&shared.state);
        if let Some(p) = panicked {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// The process-wide pool. External synchronisation: all dispatches go
/// through the `POOL` mutex, so `&mut self` methods never race.
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Dispatcher-side epoch counter — the authoritative one; the `State`
    /// copy is derived from it at publish time.
    epoch: u64,
}

impl Pool {
    fn new() -> Self {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    epoch: 0,
                    job: None,
                    slots: 0,
                    next: 0,
                    remaining: 0,
                    target: 0,
                    panic: None,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            workers: Vec::new(),
            epoch: 0,
        }
    }

    /// Grows or shrinks the parked worker set to `target` threads. Only
    /// called between dispatches (no job in flight).
    fn resize(&mut self, target: usize) {
        let current = self.workers.len();
        if target == current {
            return;
        }
        if target < current {
            {
                let mut st = lock(&self.shared.state);
                st.target = target;
                self.shared.work.notify_all();
            }
            for handle in self.workers.drain(target..) {
                let _ = handle.join();
            }
        } else {
            lock(&self.shared.state).target = target;
            for index in current..target {
                let shared = Arc::clone(&self.shared);
                // A fresh worker must not replay an already-joined epoch:
                // seed its `seen` with the current count so it parks until
                // the *next* publish.
                let seen = self.epoch;
                let handle = std::thread::Builder::new()
                    .name(format!("dc-pool-{index}"))
                    .spawn(move || worker_main(shared, index, seen))
                    .expect("failed to spawn pool worker");
                self.workers.push(handle);
            }
        }
    }

    fn fork_join(&mut self, slots: usize, job: &(dyn Fn(usize) + Sync)) {
        // Per-dispatch timing is gated on a live recorder so an
        // unobserved process never reads the clock here (pinned by the
        // recorder-off legs of the `cycle_overhead` bench).
        let t0 = crate::obs::pool_timing_active().then(std::time::Instant::now);
        self.resize(slots - 1);
        // SAFETY (lifetime erasure): the reference is only reachable by
        // workers between the publish below and the `remaining == 0`
        // barrier, and this function does not return or unwind before
        // that barrier — so the pointee strictly outlives every use.
        #[allow(clippy::missing_transmute_annotations)]
        let job: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
        {
            let mut st = lock(&self.shared.state);
            self.epoch += 1;
            st.epoch = self.epoch;
            st.job = Some(Job(job));
            st.slots = slots;
            st.next = 1; // slot 0 is run unconditionally below
            st.remaining = slots;
            // Wake ONE worker; claimers recruit further workers only
            // while unclaimed slots remain (see `run_claimed`). On an
            // oversubscribed host this avoids waking workers that would
            // find the cursor already drained by the dispatcher.
            self.shared.work.notify_one();
        }
        let t1 = t0.map(|_| std::time::Instant::now());
        // The dispatcher takes slot 0 so no core idles. Its panic must
        // *not* unwind before the barrier (workers still hold the job).
        let caller = catch_unwind(AssertUnwindSafe(|| job(0)));
        lock(&self.shared.state).remaining -= 1;
        if caller.is_ok() {
            // Compete with the workers for the unstarted slots: on an
            // oversubscribed host this thread usually drains them all
            // before the workers are even scheduled. (After a caller
            // panic, skip straight to the barrier and let the workers
            // finish — every slot must still complete before unwinding.)
            run_claimed(&self.shared, self.epoch);
        }
        let mut st = lock(&self.shared.state);
        while st.remaining != 0 {
            st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        let worker_panic = st.panic.take();
        drop(st);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = std::time::Instant::now();
            super::record_dispatch(
                t1.duration_since(t0).as_nanos() as u64,
                t2.duration_since(t1).as_nanos() as u64,
            );
        }
        if let Err(p) = caller {
            resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
    }
}

static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();

thread_local! {
    /// Set while this thread is inside a pool dispatch (or *is* a pool
    /// worker). A nested `fork_join` from such a thread would deadlock on
    /// the dispatch lock / the in-flight barrier, so it runs the slots
    /// inline instead — same results, no second level of parallelism.
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

/// Runs `job(slot)` for every slot in `0..slots` across the persistent
/// pool: slot 0 on the calling thread, the rest on parked workers.
/// Blocks until all slots have finished; propagates the first panic.
fn fork_join(slots: usize, job: &(dyn Fn(usize) + Sync)) {
    debug_assert!(slots >= 2, "single-slot jobs take the sequential path");
    if IN_DISPATCH.with(|c| c.get()) {
        for slot in 0..slots {
            job(slot);
        }
        return;
    }
    let pool = POOL.get_or_init(|| Mutex::new(Pool::new()));
    let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
    IN_DISPATCH.with(|c| c.set(true));
    /// Clears the dispatch flag even when the job panics through us.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_DISPATCH.with(|c| c.set(false));
        }
    }
    let _reset = Reset;
    pool.fork_join(slots, job);
}

/// A raw element pointer that may cross threads. Sound because every slot
/// derives a *disjoint* subslice from it (see the module safety notes).
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor rather than field access so that 2021-edition closures
    /// capture the (Send + Sync) wrapper, not the bare raw pointer.
    fn get(self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: `SendPtr` is only used to reconstruct disjoint `&mut` subslices
// of a slice whose element type is `Send` (enforced by the bounds on the
// chunked entry points below); sharing the base address is then harmless.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// The chunk range slot `slot` owns for a `len`-element slice split into
/// `chunk`-sized pieces, empty when the slot falls past the end.
#[inline]
fn slot_range(slot: usize, chunk: usize, len: usize) -> std::ops::Range<usize> {
    let start = (slot * chunk).min(len);
    let end = (start + chunk).min(len);
    start..end
}

/// Pool-backed form of [`super::par_apply_forced`]: applies
/// `f(i, &mut states[i])` with the slice split into `slots` chunks.
pub(super) fn apply_chunked<S: Send>(
    slots: usize,
    states: &mut [S],
    f: &(impl Fn(usize, &mut S) + Sync),
) {
    let len = states.len();
    let chunk = len.div_ceil(slots);
    let base = SendPtr(states.as_mut_ptr());
    fork_join(slots, &|slot| {
        let range = slot_range(slot, chunk, len);
        if range.is_empty() {
            return;
        }
        let start = range.start;
        // SAFETY: slots own disjoint ranges; the barrier in `fork_join`
        // keeps the underlying borrow alive until every slot is done.
        let part = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), range.len()) };
        for (i, s) in part.iter_mut().enumerate() {
            f(start + i, s);
        }
    });
}

/// Pool-backed form of [`super::par_lane_reduce_bounds`]: chunked `&mut`
/// iteration over `a` fused with the matching **stride-scaled** chunk of
/// the lane buffer `v` (`v[i*stride..(i+1)*stride]` belongs to element
/// `i`) and a per-slot accumulator deposited at `out[slot]`. Slot `k`
/// owns the element range `bounds[k]..bounds[k+1]` (ascending,
/// `bounds[0] == 0`, last entry `== a.len()`) and its stride-scaled image
/// in `v`. The machine builds the bounds from its shard map so every
/// dispatch slot owns whole shards — the same worker touches the same
/// contiguous state/inbox slices cycle after cycle (stable affinity,
/// first-touch allocation), and the slot-order fold of `out` is a fold
/// in ascending node order, so the result is the sequential loop's at
/// any slot count.
pub(super) fn zip_strided_reduce_bounds<A: Send, V: Send, R: Copy + Send + Sync>(
    bounds: &[usize],
    a: &mut [A],
    stride: usize,
    v: &mut [V],
    init: R,
    f: &(impl Fn(usize, &mut A, &mut [V], &mut R) + Sync),
    out: &mut [R],
) {
    let slots = bounds.len() - 1;
    debug_assert_eq!(out.len(), slots);
    debug_assert_eq!(bounds[0], 0);
    debug_assert_eq!(bounds[slots], a.len());
    debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    debug_assert_eq!(v.len(), a.len() * stride);
    let base_a = SendPtr(a.as_mut_ptr());
    let base_v = SendPtr(v.as_mut_ptr());
    let out_base = SendPtr(out.as_mut_ptr());
    fork_join(slots, &|slot| {
        let (start, end) = (bounds[slot], bounds[slot + 1]);
        let mut acc = init;
        if start < end {
            // SAFETY: the asserted-ascending bounds make the element
            // ranges (and their stride-scaled `v` images) disjoint
            // across slots; the fork-join barrier keeps both borrows
            // alive until every slot is done.
            let (pa, pv) = unsafe {
                (
                    std::slice::from_raw_parts_mut(base_a.get().add(start), end - start),
                    std::slice::from_raw_parts_mut(
                        base_v.get().add(start * stride),
                        (end - start) * stride,
                    ),
                )
            };
            for (i, (x, lanes)) in pa.iter_mut().zip(pv.chunks_exact_mut(stride)).enumerate() {
                f(start + i, x, lanes, &mut acc);
            }
        }
        // SAFETY: slot `k` writes only `out[k]` — disjoint by
        // construction — and the fork-join barrier keeps the `out`
        // borrow alive until every slot has deposited.
        unsafe {
            *out_base.get().add(slot) = acc;
        }
    });
}

/// Bounds-based chunk-granular pass: slot `k` receives its **whole**
/// element range `a[bounds[k]..bounds[k+1]]` as one mutable slice plus
/// exclusive ownership of the per-slot slab `slabs[k]`, and folds into a
/// per-slot accumulator deposited at `out[k]`. This is the shape of the
/// sharded validation passes: pass A resets and min-merges the slot's
/// own claim range while staging boundary claims into its slab's
/// exchange bins; pass B drains every slab's bin for the slot into the
/// slot's own claim range. `f` gets `(slot, start, chunk, slab, acc)`.
pub(super) fn slab_reduce_bounds<A: Send, B: Send, R: Copy + Send + Sync>(
    bounds: &[usize],
    a: &mut [A],
    slabs: &mut [B],
    init: R,
    f: &(impl Fn(usize, usize, &mut [A], &mut B, &mut R) + Sync),
    out: &mut [R],
) {
    let slots = bounds.len() - 1;
    debug_assert_eq!(out.len(), slots);
    debug_assert_eq!(slabs.len(), slots);
    debug_assert_eq!(bounds[0], 0);
    debug_assert_eq!(bounds[slots], a.len());
    debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    let base_a = SendPtr(a.as_mut_ptr());
    let base_s = SendPtr(slabs.as_mut_ptr());
    let out_base = SendPtr(out.as_mut_ptr());
    fork_join(slots, &|slot| {
        let (start, end) = (bounds[slot], bounds[slot + 1]);
        let mut acc = init;
        {
            // SAFETY: ascending bounds give disjoint `a` ranges; slot
            // `k` touches only `slabs[k]` and deposits only `out[k]`.
            // The fork-join barrier outlives every slot.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base_a.get().add(start), end - start) };
            let slab = unsafe { &mut *base_s.get().add(slot) };
            f(slot, start, chunk, slab, &mut acc);
        }
        // SAFETY: slot-private `out` cell, as in
        // `zip_strided_reduce_bounds`.
        unsafe {
            *out_base.get().add(slot) = acc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `fork_join` directly: every slot writes its own cell.
    #[test]
    fn fork_join_runs_every_slot_exactly_once() {
        let _guard = crate::parallel::test_override_guard();
        crate::parallel::set_worker_threads(4);
        for slots in 2..=6usize {
            let hits: Vec<std::sync::atomic::AtomicUsize> = (0..slots)
                .map(|_| std::sync::atomic::AtomicUsize::new(0))
                .collect();
            fork_join(slots, &|slot| {
                hits[slot].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
            for (slot, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(std::sync::atomic::Ordering::SeqCst),
                    1,
                    "slot {slot} of {slots}"
                );
            }
        }
        crate::parallel::set_worker_threads(0);
    }

    #[test]
    fn pool_resizes_between_dispatches() {
        let _guard = crate::parallel::test_override_guard();
        // Grow, shrink, regrow: every configuration must produce the
        // full, correct result.
        for &workers in &[2usize, 5, 1, 4, 3] {
            crate::parallel::set_worker_threads(workers);
            let mut v = vec![0usize; 1000];
            crate::parallel::par_apply_forced(&mut v, &|i, s| *s = i * 3);
            assert!(
                v.iter().enumerate().all(|(i, &s)| s == i * 3),
                "at {workers} workers"
            );
        }
        crate::parallel::set_worker_threads(0);
    }

    #[test]
    fn worker_panic_propagates_and_pool_stays_usable() {
        let _guard = crate::parallel::test_override_guard();
        crate::parallel::set_worker_threads(4);
        let mut v = vec![0u32; 1000];
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            crate::parallel::par_apply_forced(&mut v, &|i, _| {
                // Index 900 lands in the last chunk — a *claimed* slot
                // (worker or dispatcher claim loop, never the slot-0
                // caller path), so it exercises the stash-and-reraise.
                assert!(i != 900, "worker boom");
            });
        }));
        let payload = boom.expect_err("worker panic must propagate");
        // The original payload must survive the trip through the pool
        // (a `&'static str` for a no-args assert!).
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert!(msg.contains("worker boom"), "got: {msg}");
        // The pool must be fully functional afterwards (no wedged
        // barrier, no stale job, no poisoned lock).
        let mut w = vec![0usize; 1000];
        crate::parallel::par_apply_forced(&mut w, &|i, s| *s = i + 1);
        assert!(w.iter().enumerate().all(|(i, &s)| s == i + 1));
        crate::parallel::set_worker_threads(0);
    }

    #[test]
    fn dispatcher_slot_panic_propagates_after_the_barrier() {
        let _guard = crate::parallel::test_override_guard();
        crate::parallel::set_worker_threads(3);
        let mut v = vec![0u32; 999];
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            crate::parallel::par_apply_forced(&mut v, &|i, _| {
                // Index 0 is slot 0 — the dispatcher's own chunk.
                assert!(i != 0, "caller boom");
            });
        }));
        assert!(boom.is_err());
        let mut w = vec![0usize; 999];
        crate::parallel::par_apply_forced(&mut w, &|i, s| *s = i);
        assert!(w.iter().enumerate().all(|(i, &s)| s == i));
        crate::parallel::set_worker_threads(0);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let _guard = crate::parallel::test_override_guard();
        crate::parallel::set_worker_threads(4);
        let mut outer = vec![0u64; 64];
        crate::parallel::par_apply_forced(&mut outer, &|i, s| {
            // A closure that itself asks for parallelism: must fall back
            // to inline execution instead of deadlocking on the pool.
            let mut inner = vec![0u64; 8];
            crate::parallel::par_apply_forced(&mut inner, &|j, t| *t = j as u64);
            *s = i as u64 + inner.iter().sum::<u64>();
        });
        assert!(outer.iter().enumerate().all(|(i, &s)| s == i as u64 + 28));
        crate::parallel::set_worker_threads(0);
    }
}
