//! Regression tests for the schedule-cache stale-entry leak (ISSUE 9).
//!
//! The shape of the bug: `ScheduleCache` used to evict a stale-epoch
//! entry only when the *same key* recompiled, so traffic whose keys
//! never repeat across fault epochs — the normal case for a long-lived
//! process under churn, where each request runs its own `Custom` keys
//! and faults keep bumping the epoch — grew the cache by one dead entry
//! per epoch, each dragging an unflushed `AcctPlan` (two `Vec`s of
//! per-node counters) along. These tests pin the fix: the epoch bump
//! physically sweeps dead entries, their deferred link accounting is
//! flushed into the recorder (no counts lost), and the two cache views
//! (`compiled_schedules()` vs. the flush-point walk) agree.

use dc_simulator::obs::{self, MemorySink};
use dc_simulator::{ExecMode, FaultKind, Machine, ScheduleKey};
use dc_topology::{DualCube, Topology};

/// One keyed cross-edge cycle: every node swaps a `u64` with its cross
/// neighbour — legal in every epoch of the churn loop below, which only
/// cuts *cluster* links.
fn cross_cycle(m: &mut Machine<'_, DualCube, u64>, d: &DualCube, key: ScheduleKey) {
    m.cycle(|c| {
        c.message(
            |u, &s| Some((d.cross_neighbor(u), s)),
            |s, _, v| *s = s.wrapping_add(v),
        )
        .pairwise()
        .keyed(key)
    });
}

/// The first `count` distinct cluster links of `d`, endpoint-normalised
/// — the churn loops cut one per epoch, so every cut really bumps the
/// fault epoch (re-cutting a dead link is an idempotent no-op).
fn distinct_cluster_links(d: &DualCube, count: usize) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut links = Vec::with_capacity(count);
    'outer: for u in 0..d.num_nodes() {
        for dim in 0..d.cluster_dim() {
            let v = d.cluster_neighbor(u, dim);
            if seen.insert((u.min(v), u.max(v))) {
                links.push((u.min(v), u.max(v)));
                if links.len() == count {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(links.len(), count, "{} has too few cluster links", d.name());
    links
}

/// The leak reproducer: many epoch bumps, a *disjoint* key per epoch.
/// Before the sweep, every iteration left one dead entry behind and the
/// cache grew without bound; now it stays at exactly the live epoch's
/// key count.
#[test]
fn disjoint_key_epoch_churn_keeps_cache_bounded() {
    let d = DualCube::new(4); // 128 nodes, cluster_dim 3 => 192 cluster links
    let n = d.num_nodes();
    let mut m = Machine::with_exec(&d, vec![1u64; n], ExecMode::Sequential);

    let epochs = 150usize;
    let cycles_per_epoch = 3u64; // 1 compile + 2 replays per key
    let links = distinct_cluster_links(&d, epochs);
    for (i, &(a, b)) in links.iter().enumerate() {
        let key = ScheduleKey::Custom(i as u32);
        for _ in 0..cycles_per_epoch {
            cross_cycle(&mut m, &d, key);
        }
        assert!(
            m.compiled_schedules() <= 1,
            "epoch {i}: cache holds {} entries; dead epochs must be swept",
            m.compiled_schedules()
        );
        // Cut a distinct cluster link: bumps the fault epoch without
        // ever touching the cross edges the keyed pattern uses.
        m.inject_fault(FaultKind::LinkDown { a, b });
        assert_eq!(m.fault_epoch(), (i + 1) as u64);
    }
    assert!(
        m.compiled_schedules() <= 1,
        "after {epochs} disjoint-key epochs the cache holds {} entries",
        m.compiled_schedules()
    );
    // Every cycle still ran: compile + replay each epoch.
    assert_eq!(m.metrics().schedule_misses as usize, epochs);
    assert_eq!(
        m.metrics().schedule_hits as u64,
        (cycles_per_epoch - 1) * epochs as u64
    );
    assert_eq!(
        m.metrics().comm_steps,
        cycles_per_epoch * epochs as u64,
        "sweeping the cache must not eat cycles"
    );
}

/// The accounting half of the fix: entries retired by the epoch sweep
/// must flush their pending deferred (`AcctPlan`) counts into the
/// recorder before they drop — otherwise the link report silently loses
/// the replayed cycles of every dead epoch.
#[test]
fn swept_entries_flush_deferred_accounting() {
    let d = DualCube::new(4);
    let n = d.num_nodes();
    let mut m = Machine::with_exec(&d, vec![1u64; n], ExecMode::Sequential);
    m.record_into(obs::shared(MemorySink::new()));

    let epochs = 20usize;
    let cycles_per_epoch = 4u64;
    let links = distinct_cluster_links(&d, epochs);
    for (i, &(a, b)) in links.iter().enumerate() {
        let key = ScheduleKey::Custom(i as u32);
        for _ in 0..cycles_per_epoch {
            cross_cycle(&mut m, &d, key);
        }
        m.inject_fault(FaultKind::LinkDown { a, b });
    }
    // Every delivered message crossed a cross-edge; nothing may have
    // been dropped on the floor by the sweep. The overlayed report and
    // the detached end-of-run report must both see all of them.
    let expected = (n as u64) * cycles_per_epoch * epochs as u64;
    let live = m.link_report().expect("recording is on");
    assert_eq!(live.cross_messages, expected);
    assert_eq!(live.cube_messages, 0);
    let detached = m.stop_recording().expect("recorder installed");
    let report = detached.link_report();
    assert_eq!(report.cross_messages, expected);
    assert_eq!(report.cross_links, n / 2, "every cross link was used");
}

/// `compiled_schedules()` (the `len()` view) and the flush-point walk
/// (the `entries()` view) describe the same set: after an epoch bump the
/// count drops to zero immediately — not "zero live but some hidden".
/// Pinned via clone-and-probe: a cloned machine shares the cache, so
/// recompiling on the clone from a swept state must miss exactly once
/// per key.
#[test]
fn cache_views_stay_consistent_across_epoch_bump() {
    let d = DualCube::new(3);
    let n = d.num_nodes();
    let mut m = Machine::with_exec(&d, vec![0u64; n], ExecMode::Sequential);
    for k in 0..4 {
        cross_cycle(&mut m, &d, ScheduleKey::Custom(k));
    }
    assert_eq!(m.compiled_schedules(), 4);
    m.inject_fault(FaultKind::LinkDown {
        a: 0,
        b: d.cluster_neighbor(0, 0),
    });
    assert_eq!(
        m.compiled_schedules(),
        0,
        "the bump evicts all entries, visibly"
    );
    // Recompile two of the keys under the new epoch.
    for k in 0..2 {
        cross_cycle(&mut m, &d, ScheduleKey::Custom(k));
    }
    assert_eq!(m.compiled_schedules(), 2);
    assert_eq!(m.metrics().schedule_misses, 6, "4 + 2 recompiles");
}
