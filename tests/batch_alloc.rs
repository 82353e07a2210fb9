//! A served batch allocates a fixed number of buffers, whatever the
//! machine size: the lane slabs of Algorithms 2 and 3 replace per-node
//! state, so the allocator-call count of a warm `batched_d_prefix_reusing`
//! or `batched_d_sort_reusing` call at K = 16 must barely move from `D_4`
//! (128 nodes) to `D_6` (2 048 nodes). Per-node buffers would add at
//! least one call per node, 1 920 or more.
//!
//! This lives in its own integration-test binary so the
//! `#[global_allocator]` swap and the process-wide counter do not see
//! other suites; the single `#[test]` keeps the counter single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{batched_d_prefix_reusing, Step5Mode};
use dc_core::prefix::PrefixKind;
use dc_core::sort::dualcube::batched_d_sort_reusing;
use dc_core::sort::SortOrder;
use dc_simulator::{ExecMode, ScheduleBank};
use dc_topology::{DualCube, RecDualCube, Topology};

/// Counts every allocator call that hands out (or moves) memory.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const LANES: usize = 16;

/// Most calls allowed to appear between `D_4` and `D_6`.
const RISE_BUDGET: u64 = 150;

/// Allocator calls of one warm call of `f`, minimised over three
/// repetitions (a one-shot harness allocation can land in at most one).
/// `f` returns the call's schedule misses, which must be zero once the
/// first call has warmed the bank.
fn warm_calls(mut f: impl FnMut() -> u64) -> u64 {
    f();
    (0..3)
        .map(|_| {
            let before = ALLOC_CALLS.load(Ordering::SeqCst);
            let misses = f();
            let calls = ALLOC_CALLS.load(Ordering::SeqCst) - before;
            assert_eq!(misses, 0, "a warm call compiled a schedule");
            calls
        })
        .min()
        .expect("three repetitions")
}

fn lane_values(nodes: usize) -> Vec<Vec<i64>> {
    (0..LANES as i64)
        .map(|k| {
            (0..nodes as i64)
                .map(|x| (x * 7919 + k * 104_729) % 1_000_003 - 500_000)
                .collect()
        })
        .collect()
}

fn prefix_calls(n: u32) -> u64 {
    let d = DualCube::new(n);
    let inputs: Vec<Vec<Sum>> = lane_values(d.num_nodes())
        .into_iter()
        .map(|lane| lane.into_iter().map(Sum).collect())
        .collect();
    let mut bank = ScheduleBank::new();
    warm_calls(|| {
        let run = batched_d_prefix_reusing(
            &d,
            &inputs,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            ExecMode::Sequential,
            &mut bank,
        );
        run.metrics.schedule_misses
    })
}

fn sort_calls(n: u32) -> u64 {
    let rec = RecDualCube::new(n);
    let keys = lane_values(rec.num_nodes());
    let mut bank = ScheduleBank::new();
    warm_calls(|| {
        let run = batched_d_sort_reusing(
            &rec,
            &keys,
            SortOrder::Ascending,
            ExecMode::Sequential,
            &mut bank,
        );
        run.metrics.schedule_misses
    })
}

#[test]
fn warm_batches_allocate_a_fixed_number_of_buffers() {
    let (prefix_d4, prefix_d6) = (prefix_calls(4), prefix_calls(6));
    let (sort_d4, sort_d6) = (sort_calls(4), sort_calls(6));
    eprintln!("prefix: {prefix_d4} -> {prefix_d6}; sort: {sort_d4} -> {sort_d6}");
    assert!(
        prefix_d6 < prefix_d4 + RISE_BUDGET,
        "batched prefix allocator calls rose {prefix_d4} -> {prefix_d6} from D_4 to D_6"
    );
    assert!(
        sort_d6 < sort_d4 + RISE_BUDGET,
        "batched sort allocator calls rose {sort_d4} -> {sort_d6} from D_4 to D_6"
    );
}
