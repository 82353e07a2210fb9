//! Scale tests: the algorithms on machines at the sizes the paper's
//! introduction talks about ("tens of thousands of processors").
//!
//! The moderate sizes run in every `cargo test`; the 32k-node runs are
//! `#[ignore]`d so debug-mode CI stays fast — run them with
//! `cargo test --release -- --ignored`.

use dc_core::collectives::{allreduce, broadcast};
use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{d_prefix, Step5Mode};
use dc_core::prefix::PrefixKind;
use dc_core::run::Recording;
use dc_core::sort::dualcube::d_sort;
use dc_core::sort::SortOrder;
use dc_core::theory;
use dc_simulator::ExecMode;
use dc_topology::{DualCube, RecDualCube, Topology};
use std::sync::{Mutex, MutexGuard};

/// libtest runs a binary's tests on parallel threads, but the memory
/// ceilings read the process-wide `VmHWM`: every test here holds this
/// lock for its whole run, so a ceiling test never sees a neighbour's
/// footprint.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`vm_hwm_kb`] reports the peak of what ran
/// in between (Linux `clear_refs` code 5; a no-op without procfs).
fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in KiB, from
/// `/proc/self/status`; 0 where procfs is unavailable (non-Linux).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

#[test]
fn prefix_on_eight_thousand_nodes() {
    let _serial = serial();
    let n = 7; // 8192 nodes
    let d = DualCube::new(n);
    let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
    let run = d_prefix(
        &d,
        &input,
        PrefixKind::Inclusive,
        Step5Mode::PaperFaithful,
        Recording::Off,
    );
    assert_eq!(run.metrics.comm_steps, theory::prefix_comm(n));
    let last = d.num_nodes() as i64 - 1;
    assert_eq!(run.prefixes.last().unwrap().0, last * (last + 1) / 2);
}

#[test]
fn sort_on_two_thousand_nodes() {
    let _serial = serial();
    let n = 6; // 2048 nodes
    let rec = RecDualCube::new(n);
    let keys: Vec<u64> = (0..rec.num_nodes() as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 13)
        .collect();
    let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
    assert!(SortOrder::Ascending.is_sorted(&run.output));
    assert_eq!(run.metrics.comm_steps, theory::sort_comm_exact(n));
}

#[test]
fn collectives_on_eight_thousand_nodes() {
    let _serial = serial();
    let d = DualCube::new(7);
    let b = broadcast(&d, 4321, 7u8);
    assert!(b.values.iter().all(|&v| v == 7));
    assert_eq!(b.metrics.comm_steps, 14);
    let values: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
    let a = allreduce(&d, &values);
    let expect: i64 = (0..d.num_nodes() as i64).sum();
    assert!(a.values.iter().all(|v| v.0 == expect));
}

/// The headline machine: D_8 — 32 768 processors with 8 links each.
#[test]
#[ignore = "large; run with --release -- --ignored"]
fn prefix_on_the_headline_machine_d8() {
    let _serial = serial();
    let n = 8;
    let d = DualCube::new(n);
    assert_eq!(d.num_nodes(), 32_768);
    let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
    let run = d_prefix(
        &d,
        &input,
        PrefixKind::Inclusive,
        Step5Mode::PaperFaithful,
        Recording::Off,
    );
    assert_eq!(run.metrics.comm_steps, 17);
    assert_eq!(run.metrics.comp_steps, 16);
    assert_eq!(
        run.prefixes,
        dc_core::prefix::sequential_prefix(&input, PrefixKind::Inclusive)
    );
}

#[test]
#[ignore = "large; run with --release -- --ignored"]
fn sort_on_the_headline_machine_d8() {
    let _serial = serial();
    let n = 8;
    let rec = RecDualCube::new(n);
    let keys: Vec<u64> = (0..rec.num_nodes() as u64)
        .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(11))
        .collect();
    let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
    assert!(SortOrder::Ascending.is_sorted(&run.output));
    assert_eq!(run.metrics.comm_steps, theory::sort_comm_exact(n)); // 330
    assert_eq!(run.metrics.comp_steps, theory::sort_comp_exact(n)); // 120
}

/// The README "Scaling up" snippet, verbatim after the file's lock — if
/// this drifts from README.md, update both.
#[test]
fn readme_scaling_up_example() {
    let _serial = serial();
    let rec = RecDualCube::new(6); // 2^11 = 2048 nodes;
    let keys: Vec<u64> = (0..rec.num_nodes() as u64).rev().collect();
    let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off); // threaded by default
    assert!(run.output.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(run.metrics.comm_steps, 6 * 36 - 7 * 6 + 2); // 6n²−7n+2 at n=6
}

/// The scale acceptance run of the dense-layout PR: a full `D_10`
/// `d_sort` (524 288 keys, 5 532 communication steps) on the threaded
/// backend, completing within a 1 GiB peak-RSS ceiling. The dominant
/// residents are Algorithm 3's four key slabs, the cycle scratch (plan
/// slab plus `u32` sender and claim tables), and the compiled-schedule
/// cache (one packed `u32` per node per key) — see the bytes/node tables
/// in DESIGN.md §11 and the measured VmHWM in EXPERIMENTS.md §E27 and
/// §E32. The 1 GiB assert
/// leaves headroom for allocator and pool variance without masking a
/// layout regression, which would cost a ×4–×8 multiple.
///
/// Run with: `cargo test --release --test scale -- --ignored`
#[test]
#[ignore = "D_10 scale (524k nodes, minutes in debug); run with --release -- --ignored"]
fn d10_sort_within_memory_ceiling() {
    let _serial = serial();
    reset_vm_hwm();
    let rec = RecDualCube::new(10);
    let n = rec.num_nodes();
    assert_eq!(n, 524_288);
    // Scrambled but deterministic keys: a fixed odd multiplier walks the
    // full u64 ring, so every node starts with a distinct key.
    let keys: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let run = d_sort(&rec, &keys, SortOrder::Ascending, ExecMode::parallel());
    assert_eq!(run.metrics.comm_steps, theory::sort_comm_exact(10));
    assert_eq!(run.metrics.comp_steps, theory::sort_comp_exact(10));
    let mut expect = keys;
    expect.sort_unstable();
    assert_eq!(run.output, expect, "D_10 output must be the sorted input");
    let hwm_kb = vm_hwm_kb();
    assert!(
        hwm_kb < 1024 * 1024,
        "D_10 d_sort peak RSS {hwm_kb} KiB breached the 1 GiB ceiling"
    );
    println!("D_10 d_sort peak RSS: {} MB", hwm_kb / 1024);
}

/// The scale acceptance run of the sharded-engine PR: a full `D_11`
/// `d_sort` (2 097 152 keys) on the threaded sharded backend within a
/// 2 GiB peak-RSS ceiling. The per-node residents are the same as the
/// `D_10` run above — key slabs, cycle scratch, compiled-schedule
/// cache — plus the shard exchange bins, which must stay `O(seam)` per
/// shard pair rather than `O(n)`; a bins regression (or any layout
/// regression) would blow straight through the ceiling at this size.
/// See DESIGN.md §12 and the `D_11` leg in EXPERIMENTS.md §E28.
///
/// Run with: `cargo test --release --test scale -- --ignored`
#[test]
#[ignore = "D_11 scale (2M nodes, ~a minute in release); run with --release -- --ignored"]
fn d11_sort_within_memory_ceiling() {
    let _serial = serial();
    reset_vm_hwm();
    let rec = RecDualCube::new(11);
    let n = rec.num_nodes();
    assert_eq!(n, 2_097_152);
    let keys: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let run = d_sort(&rec, &keys, SortOrder::Ascending, ExecMode::parallel());
    assert_eq!(run.metrics.comm_steps, theory::sort_comm_exact(11));
    assert_eq!(run.metrics.comp_steps, theory::sort_comp_exact(11));
    let mut expect = keys;
    expect.sort_unstable();
    assert_eq!(run.output, expect, "D_11 output must be the sorted input");
    let hwm_kb = vm_hwm_kb();
    assert!(
        hwm_kb < 2 * 1024 * 1024,
        "D_11 d_sort peak RSS {hwm_kb} KiB breached the 2 GiB ceiling"
    );
    println!("D_11 d_sort peak RSS: {} MB", hwm_kb / 1024);
}
