//! What a warm batch allocates, from `D_4` (128 nodes) to `D_6` (2 048
//! nodes) at K = 16.
//!
//! - The `_reusing` calls (`batched_d_prefix_reusing`,
//!   `batched_d_sort_reusing`) allocate a fixed number of buffers: the
//!   lane slabs of Algorithms 2 and 3 replace per-node state, so their
//!   allocator-call count must barely move. Per-node buffers would add at
//!   least one call per node, 1 920 or more.
//! - A served batch (`batched_d_prefix_in_place`,
//!   `batched_d_sort_in_place` on a warm bank and a warm slab set, as a
//!   `dc-serve` worker runs them) allocates no buffer that grows with the
//!   lanes: its bytes may rise by less than 8 per added node. The
//!   machine's `u32` sender table (4 bytes per node) is the one buffer
//!   sized by the machine that it still allocates; a K = 16 lane buffer
//!   of `i64` would add 128 bytes per node.
//!
//! This lives in its own integration-test binary so the
//! `#[global_allocator]` swap does not see other suites. The counters are
//! per thread, so each test counts only its own engine calls, which run
//! on the test's thread (`ExecMode::Sequential`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{
    batched_d_prefix_in_place, batched_d_prefix_reusing, PrefixSlabs, Step5Mode,
};
use dc_core::prefix::PrefixKind;
use dc_core::sort::dualcube::{batched_d_sort_in_place, batched_d_sort_reusing, SortSlabs};
use dc_core::sort::SortOrder;
use dc_simulator::{ExecMode, ScheduleBank};
use dc_topology::{DualCube, RecDualCube, Topology};

/// Counts every allocator call that hands out (or moves) memory, and the
/// bytes it hands out, on the calling thread.
struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Most bytes a served batch may add per node from `D_4` to `D_6`.
const BYTES_PER_NODE_BUDGET: f64 = 8.0;

/// Allocator calls and bytes of one warm call of `f`, each minimised
/// over three repetitions (a one-shot harness allocation can land in at
/// most one). `f` returns the call's schedule misses, which must be zero
/// once the first call has warmed the bank.
fn warm_cost(mut f: impl FnMut() -> u64) -> (u64, u64) {
    f();
    let costs: Vec<(u64, u64)> = (0..3)
        .map(|_| {
            let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
            let misses = f();
            let cost = (CALLS.with(Cell::get) - calls, BYTES.with(Cell::get) - bytes);
            assert_eq!(misses, 0, "a warm call compiled a schedule");
            cost
        })
        .collect();
    let calls = costs.iter().map(|c| c.0).min().expect("three repetitions");
    let bytes = costs.iter().map(|c| c.1).min().expect("three repetitions");
    (calls, bytes)
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
    warm_cost(|| {
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
    .0
}

fn sort_calls(n: u32) -> u64 {
    let rec = RecDualCube::new(n);
    let keys = lane_values(rec.num_nodes());
    let mut bank = ScheduleBank::new();
    warm_cost(|| {
        let run = batched_d_sort_reusing(
            &rec,
            &keys,
            SortOrder::Ascending,
            ExecMode::Sequential,
            &mut bank,
        );
        run.metrics.schedule_misses
    })
    .0
}

/// Bytes of one warm served prefix batch: the request vectors are the
/// lanes, as in `dc-serve`.
fn served_prefix_bytes(n: u32) -> u64 {
    let d = DualCube::new(n);
    let mut values = lane_values(d.num_nodes());
    let (mut bank, mut slabs) = (ScheduleBank::new(), PrefixSlabs::<Sum>::default());
    warm_cost(|| {
        batched_d_prefix_in_place(
            &d,
            &mut values,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            ExecMode::Sequential,
            &mut bank,
            &mut slabs,
        )
        .schedule_misses
    })
    .1
}

fn served_sort_bytes(n: u32) -> u64 {
    let rec = RecDualCube::new(n);
    let mut keys = lane_values(rec.num_nodes());
    let (mut bank, mut slabs) = (ScheduleBank::new(), SortSlabs::default());
    warm_cost(|| {
        batched_d_sort_in_place(
            &rec,
            &mut keys,
            SortOrder::Ascending,
            ExecMode::Sequential,
            &mut bank,
            &mut slabs,
        )
        .schedule_misses
    })
    .1
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

#[test]
fn warm_served_batches_allocate_no_lane_sized_buffer() {
    let added_nodes = (DualCube::new(6).num_nodes() - DualCube::new(4).num_nodes()) as f64;
    let per_node = |d4: u64, d6: u64| d6.saturating_sub(d4) as f64 / added_nodes;
    let (prefix_d4, prefix_d6) = (served_prefix_bytes(4), served_prefix_bytes(6));
    let (sort_d4, sort_d6) = (served_sort_bytes(4), served_sort_bytes(6));
    let (prefix, sort) = (per_node(prefix_d4, prefix_d6), per_node(sort_d4, sort_d6));
    eprintln!(
        "served bytes: prefix {prefix_d4} -> {prefix_d6} ({prefix:.1} B/node); \
         sort {sort_d4} -> {sort_d6} ({sort:.1} B/node)"
    );
    assert!(
        prefix < BYTES_PER_NODE_BUDGET,
        "a served prefix batch allocated {prefix:.1} B per added node from D_4 to D_6"
    );
    assert!(
        sort < BYTES_PER_NODE_BUDGET,
        "a served sort batch allocated {sort:.1} B per added node from D_4 to D_6"
    );
}
