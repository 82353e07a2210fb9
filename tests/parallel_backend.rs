//! ExecMode determinism: the threaded execution backend must be
//! *observationally identical* to the sequential one — same end states,
//! same [`Metrics`](dc_simulator::Metrics), same message trace — for
//! every algorithm. The algorithm entry points build their machines
//! internally with `ExecMode::default()`, so
//! [`with_default_exec`](dc_simulator::with_default_exec) forces each
//! backend around whole runs.
//!
//! The property tests force the threaded path with `threshold: 1` so that
//! even 8–128-node machines cross worker threads; the `D_7`/`D_8` tests
//! exercise the real cutoff at paper scale (the 32k-node `D_8` runs are
//! `#[ignore]`d — run them with `cargo test --release -- --ignored`).

use dc_core::ops::{Concat, Sum};
use dc_core::prefix::dualcube::{batched_d_prefix_reusing, d_prefix, Step5Mode};
use dc_core::prefix::{sequential_prefix, PrefixKind};
use dc_core::run::Recording;
use dc_core::sort::dualcube::{batched_d_sort_reusing, d_sort};
use dc_core::sort::SortOrder;
use dc_simulator::{set_worker_threads, with_default_exec, ExecMode, ScheduleBank};
use dc_topology::{DualCube, RecDualCube, Topology};
use proptest::collection::vec;
use proptest::prelude::*;

mod support;
use support::sort_network_model;

/// Forces the threaded code path regardless of machine size.
const FORCE_PARALLEL: ExecMode = ExecMode::Parallel { threshold: 1 };

/// Pins the executor worker count for the parallel leg of a comparison,
/// restoring the automatic count on drop (also on assertion panic). On a
/// single-core host the automatic count is 1 and the threaded path would
/// never engage; pinning 4 workers drives the real cross-thread code —
/// the backend is deterministic at any worker count.
struct PinnedWorkers;

impl PinnedWorkers {
    fn pin(n: usize) -> Self {
        set_worker_threads(n);
        PinnedWorkers
    }
}

impl Drop for PinnedWorkers {
    fn drop(&mut self) {
        set_worker_threads(0);
    }
}

/// Runs `f` once under each backend and requires identical observable
/// results.
fn run_both<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let seq = with_default_exec(ExecMode::Sequential, &f);
    let workers = PinnedWorkers::pin(4);
    let par = with_default_exec(FORCE_PARALLEL, &f);
    drop(workers);
    assert_eq!(seq, par, "parallel backend diverged from sequential");
    seq
}

proptest! {
    /// `d_prefix` over a commutative monoid: end state, metrics, and the
    /// full space-time trace must match cycle-for-cycle.
    #[test]
    fn prefix_backends_agree_on_random_sums(raw in vec(any::<i64>(), 32..=32)) {
        let d = DualCube::new(3); // 32 nodes
        let input: Vec<Sum> = raw.into_iter().map(Sum).collect();
        run_both(|| {
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                Recording::Trace,
            );
            (run.prefixes, run.metrics, run.trace)
        });
    }

    /// Same with a deliberately non-commutative monoid, so any ordering
    /// slip in the threaded delivery shows up as a wrong concatenation.
    #[test]
    fn prefix_backends_agree_on_random_concats(raw in vec("[a-z]{1,3}", 32..=32)) {
        let d = DualCube::new(3);
        let input: Vec<Concat> = raw.into_iter().map(Concat).collect();
        run_both(|| {
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Diminished,
                Step5Mode::PaperFaithful,
                Recording::Off,
            );
            (run.prefixes, run.metrics)
        });
    }

    /// `d_sort` on random keys (with duplicates likely at this key range):
    /// output permutation, metrics, and trace must all match.
    #[test]
    fn sort_backends_agree_on_random_keys(raw in vec(0u32..64, 32..=32)) {
        let rec = RecDualCube::new(3); // 32 nodes
        run_both(|| {
            let run = d_sort(&rec, &raw, SortOrder::Ascending, Recording::Trace);
            (run.output, run.metrics, run.trace)
        });
    }
}

/// `D_7` (8192 nodes) clears the default `PAR_THRESHOLD`, so the plain
/// `ExecMode::parallel()` default actually threads here — this is the
/// real production configuration, not the forced one.
#[test]
fn prefix_backends_agree_on_d7_at_default_threshold() {
    let d = DualCube::new(7);
    let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
    let f = || {
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
        (run.prefixes, run.metrics)
    };
    let seq = with_default_exec(ExecMode::Sequential, f);
    let workers = PinnedWorkers::pin(4);
    let par = with_default_exec(ExecMode::parallel(), f);
    drop(workers);
    assert_eq!(seq, par);
}

/// The two paths `dc-serve` runs, `batched_d_prefix_reusing` and
/// `batched_d_sort_reusing`, on `D_7` at the default threshold, where
/// the threaded backend really threads: at K ∈ {1, 3, 16} both backends
/// must return every lane equal to a single-lane run on its input, with
/// identical metrics.
#[test]
fn batched_backends_agree_on_d7_at_default_threshold() {
    batched_backends_agree(7);
}

#[test]
#[ignore = "large; run with --release -- --ignored"]
fn batched_backends_agree_on_the_headline_machine_d8() {
    batched_backends_agree(8);
}

fn batched_backends_agree(n: u32) {
    let d = DualCube::new(n);
    let rec = RecDualCube::new(n);
    let nodes = d.num_nodes() as i64;
    // A distinct input per lane, so a lane mix-up cannot cancel out.
    let raw: Vec<Vec<i64>> = (0..16)
        .map(|k| {
            (0..nodes)
                .map(|x| (x.wrapping_mul(0x2545_F491) ^ (k << 40)).rotate_left(k as u32 + 3))
                .collect()
        })
        .collect();
    let sums = |lane: &[i64]| lane.iter().copied().map(Sum).collect::<Vec<_>>();
    let single = with_default_exec(ExecMode::Sequential, || {
        raw.iter()
            .map(|lane| {
                let p = d_prefix(
                    &d,
                    &sums(lane),
                    PrefixKind::Inclusive,
                    Step5Mode::PaperFaithful,
                    Recording::Off,
                );
                let s = d_sort(&rec, lane, SortOrder::Ascending, Recording::Off);
                (p.prefixes, s.output)
            })
            .collect::<Vec<_>>()
    });
    let oracles: Vec<(Vec<Sum>, Vec<i64>)> = raw
        .iter()
        .map(|lane| {
            (
                sequential_prefix(&sums(lane), PrefixKind::Inclusive),
                sort_network_model(lane, n, SortOrder::Ascending.tag()),
            )
        })
        .collect();
    for lanes in [1usize, 3, 16] {
        let inputs: Vec<Vec<Sum>> = raw[..lanes].iter().map(|l| sums(l)).collect();
        let keys = &raw[..lanes];
        let run = |exec| {
            let p = batched_d_prefix_reusing(
                &d,
                &inputs,
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                exec,
                &mut ScheduleBank::new(),
            );
            let s = batched_d_sort_reusing(
                &rec,
                keys,
                SortOrder::Ascending,
                exec,
                &mut ScheduleBank::new(),
            );
            (p.prefixes, p.metrics, s.outputs, s.metrics)
        };
        let seq = run(ExecMode::Sequential);
        let workers = PinnedWorkers::pin(4);
        let par = run(ExecMode::parallel());
        drop(workers);
        assert_eq!(seq, par, "K={lanes}: threaded backend diverged");
        for (k, (prefixes, sorted)) in single[..lanes].iter().enumerate() {
            assert_eq!(&seq.0[k], prefixes, "prefix lane {k} of {lanes}");
            assert_eq!(&seq.2[k], sorted, "sort lane {k} of {lanes}");
        }
        for (k, (prefixes, sorted)) in oracles[..lanes].iter().enumerate() {
            assert_eq!(&seq.0[k], prefixes, "prefix lane {k} of {lanes} vs oracle");
            assert_eq!(
                &seq.2[k], sorted,
                "sort lane {k} of {lanes} vs network model"
            );
        }
    }
}

#[test]
#[ignore = "large; run with --release -- --ignored"]
fn prefix_backends_agree_on_the_headline_machine_d8() {
    let d = DualCube::new(8);
    assert_eq!(d.num_nodes(), 32_768);
    let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
    let f = || {
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
        (run.prefixes, run.metrics)
    };
    let seq = with_default_exec(ExecMode::Sequential, f);
    let workers = PinnedWorkers::pin(4);
    let par = with_default_exec(ExecMode::parallel(), f);
    drop(workers);
    assert_eq!(seq, par);
}

#[test]
#[ignore = "large; run with --release -- --ignored"]
fn sort_backends_agree_on_the_headline_machine_d8() {
    let rec = RecDualCube::new(8);
    assert_eq!(rec.num_nodes(), 32_768);
    let keys: Vec<u64> = (0..rec.num_nodes() as u64)
        .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(11))
        .collect();
    let f = || {
        let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
        (run.output, run.metrics)
    };
    let seq = with_default_exec(ExecMode::Sequential, f);
    let workers = PinnedWorkers::pin(4);
    let par = with_default_exec(ExecMode::parallel(), f);
    drop(workers);
    assert_eq!(seq, par);
    assert!(SortOrder::Ascending.is_sorted(&seq.0));
}
