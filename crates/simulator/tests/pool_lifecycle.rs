//! Lifecycle tests for the persistent worker pool behind
//! [`ExecMode::Parallel`]: changing a machine's worker count between
//! cycles, surviving a panicking node closure, interleaving sequential
//! and parallel cycles on a *single* machine, and machines with
//! different worker counts sharing the pool from two threads must all
//! leave the backend observationally identical to sequential execution
//! and to the reference machine.
//!
//! Every setting is the machine's own (backend, workers, replay,
//! recorder), so the tests share only the pool, which each dispatch
//! sizes by its own slot count.
//!
//! The sequential backend is the same engine run over one dispatch
//! slot, so it must never dispatch on the pool at all, whatever the
//! worker count.

use dc_simulator::obs::{self, Backend, MemorySink};
use dc_simulator::reference::{model_counters, Cycles, RefMachine};
use dc_simulator::{Comm, Event, ExecMode, Flip, Machine, Metrics, ScheduleKey, TraceEntry};
use dc_topology::{Hypercube, Topology};
use proptest::collection::vec;
use proptest::prelude::*;

/// Forces the threaded code path regardless of machine size.
const FORCE_PARALLEL: ExecMode = ExecMode::Parallel { threshold: 1 };

/// One synthetic machine cycle: a dimension-`dim` pairwise exchange whose
/// delivery folds the neighbour's value in non-commutatively, then a
/// value-dependent local step. Any misrouted, lost, or reordered message
/// under the threaded backend changes the end state.
fn one_cycle(m: &mut impl Cycles<u64>, dim: u32) {
    m.cycle(|c| {
        c.message(
            move |u, &s| Some((u ^ (1usize << dim), s)),
            |s, _, v: u64| *s = s.wrapping_mul(0x9E37_79B9).wrapping_add(v),
        )
        .pairwise()
    });
    m.compute(1, |u, s| *s = s.rotate_left((u % 7) as u32));
}

/// The pool must absorb worker-count changes *between* dispatches: each
/// cycle below runs at a different machine worker count (growing,
/// shrinking, and collapsing to the inline-only count 1), and the result
/// must still be bit-identical to sequential execution.
#[test]
fn worker_count_changes_between_cycles_preserve_determinism() {
    let q = Hypercube::new(6); // 64 nodes
    let init: Vec<u64> = (0..q.num_nodes() as u64).collect();
    let schedule: [(u32, usize); 8] = [
        (0, 2),
        (1, 5),
        (2, 1),
        (3, 4),
        (4, 3),
        (5, 2),
        (0, 6),
        (1, 1),
    ];

    let mut seq = Machine::with_exec(&q, init.clone(), ExecMode::Sequential);
    seq.enable_trace();
    for &(dim, _) in &schedule {
        one_cycle(&mut seq, dim);
    }

    let mut par = Machine::with_exec(&q, init.clone(), FORCE_PARALLEL);
    par.enable_trace();
    for &(dim, n) in &schedule {
        par.set_workers(n);
        one_cycle(&mut par, dim);
    }

    assert_eq!(seq.states(), par.states(), "end states diverged");
    assert_eq!(seq.metrics(), par.metrics(), "metrics diverged");
    assert_eq!(seq.phased_trace(), par.phased_trace(), "traces diverged");
}

/// A panic inside a node closure must propagate to the dispatching caller
/// with its original payload — and must *not* poison the pool: the very
/// next parallel dispatch has to work and stay deterministic.
#[test]
fn pool_stays_usable_after_a_panicking_node_closure() {
    let q = Hypercube::new(5); // 32 nodes
    let init: Vec<u64> = (0..q.num_nodes() as u64).collect();

    let mut doomed = Machine::with_exec(&q, init.clone(), FORCE_PARALLEL);
    doomed.set_workers(4);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        doomed.compute(1, |u, _| {
            if u == 17 {
                panic!("node boom");
            }
        });
    }))
    .expect_err("the node panic must reach the caller");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("node boom"), "unexpected payload: {msg:?}");
    drop(doomed);

    // The pool dispatches the next cycles as if nothing happened.
    let mut par = Machine::with_exec(&q, init.clone(), FORCE_PARALLEL);
    par.set_workers(4);
    let mut seq = Machine::with_exec(&q, init.clone(), ExecMode::Sequential);
    for dim in 0..5 {
        one_cycle(&mut par, dim);
        one_cycle(&mut seq, dim);
    }
    assert_eq!(seq.states(), par.states(), "post-panic dispatch diverged");
    assert_eq!(seq.metrics(), par.metrics());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A single machine switching backends cycle-by-cycle (via
    /// [`Machine::set_exec`]) must be bit-identical — states, metrics,
    /// and trace — to the same cycle sequence run fully sequentially and
    /// on the reference machine. This is the scratch-reuse torture test:
    /// every switch hands the reused plan, sender and staging buffers to
    /// the other backend.
    #[test]
    fn interleaved_exec_modes_stay_bit_identical(
        cycles in vec((any::<bool>(), 0u32..5), 1..16),
    ) {
        let q = Hypercube::new(5); // 32 nodes
        let init: Vec<u64> = (0..q.num_nodes() as u64).collect();

        let mut reference = Machine::with_exec(&q, init.clone(), ExecMode::Sequential);
        reference.enable_trace();
        for &(_, dim) in &cycles {
            one_cycle(&mut reference, dim);
        }

        let mut mixed = Machine::with_exec(&q, init.clone(), ExecMode::Sequential);
        mixed.set_workers(4);
        mixed.enable_trace();
        for &(threaded, dim) in &cycles {
            mixed.set_exec(if threaded {
                FORCE_PARALLEL
            } else {
                ExecMode::Sequential
            });
            one_cycle(&mut mixed, dim);
        }

        assert_eq!(reference.states(), mixed.states(), "states diverged");
        assert_eq!(reference.metrics(), mixed.metrics(), "metrics diverged");
        assert_eq!(
            reference.phased_trace(),
            mixed.phased_trace(),
            "traces diverged"
        );

        let mut oracle = RefMachine::new(&q, init.clone());
        for &(_, dim) in &cycles {
            one_cycle(&mut oracle, dim);
        }
        assert_eq!(mixed.states(), oracle.states(), "states against the reference machine");
        assert_eq!(
            &model_counters(mixed.metrics()),
            oracle.metrics(),
            "metrics against the reference machine"
        );
        assert_eq!(
            mixed.phased_trace(),
            oracle.phased_trace(),
            "traces against the reference machine"
        );
    }
}

/// `c` under `key`, or unkeyed.
fn maybe_keyed<F>(c: Comm<u64, F>, key: Option<ScheduleKey>) -> Comm<u64, F> {
    match key {
        Some(key) => c.keyed(key),
        None => c,
    }
}

/// A sequential machine with 4 workers pinned runs every pass inline:
/// unkeyed, compile and replayed cycles of every payload form, `compute`
/// and `compute_rows` all record no pool dispatch. (A pass left chunked
/// by the host's worker count rather than by the machine's one-slot
/// dispatch bounds would dispatch here.)
#[test]
fn one_slot_engine_never_touches_the_pool() {
    let q = Hypercube::new(13); // past the parallel threshold
    let n = q.num_nodes();
    let k = 3;
    let mut m = Machine::with_exec(&q, vec![1u64; n], ExecMode::Sequential);
    m.set_workers(4);
    let sink = obs::shared(MemorySink::new());
    m.record_into(sink.clone());
    let mut t = vec![1u64; n * k];
    let from = vec![2u64; n * k];
    let mut landed = vec![0u64; n * k];
    // Unkeyed, then compiled (by the pair fold, so its second keyed
    // round replays by flip equality and the other forms replay its
    // schedule node by node), then replayed.
    for keyed in [false, true, true] {
        let on = |key| keyed.then_some(key);
        let pair = on(ScheduleKey::Dim(0));
        m.cycle(|c| {
            let c = c.fold_pairs(k, Flip::uniform(0), [&mut t[..]], |[l], [h], got| {
                for (l, h) in l.iter_mut().zip(h) {
                    let (a, b) = (*l, *h);
                    *l += if got[0] { b } else { 0 };
                    *h += if got[1] { a } else { 0 };
                }
            });
            maybe_keyed(c, pair)
        });
        m.cycle(|c| {
            let c = c.message(|u, &s| Some((u ^ 1, s)), |s, _, v| *s += v);
            maybe_keyed(c.pairwise(), pair)
        });
        m.cycle(|c| {
            let c = c.lanes(
                k,
                &0,
                |u, _| Some(u ^ 1),
                |_, &s, w| w.fill(s),
                |s, _, w| *s += w[0],
            );
            maybe_keyed(c.pairwise(), pair)
        });
        m.cycle(|c| {
            let c = c.rows(k, |u, _| Some(u ^ 1), [(&from[..], &mut landed[..])]);
            maybe_keyed(c.pairwise(), pair)
        });
        m.cycle(|c| {
            let half = |u: usize, _: &u64| (u & 1 == 0).then_some(u ^ 1);
            let c = c.fold_rows(k, half, &from[..], [&mut t[..]], [], |_, [t], [], msg| {
                t[0] += msg.map_or(0, |x| x[0])
            });
            maybe_keyed(c, on(ScheduleKey::Custom(0)))
        });
    }
    m.compute(1, |_, s| *s += 1);
    m.compute_rows(k, [&mut t[..]], [&from[..]], |_, [t], [x]| t[0] += x[0]);
    // The forms share the `Dim(0)` schedule: two misses, eight hits.
    assert_eq!(m.metrics().schedule_misses, 2);
    assert_eq!(m.metrics().schedule_hits, 8);
    let events = sink.lock().unwrap().events();
    let cycles: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Cycle(c) => Some(c),
            Event::Phase(_) => None,
        })
        .collect();
    // 15 communication cycles, 6 of them folds with their own
    // computation event, and the two computation phases.
    assert_eq!(cycles.len(), 15 + 6 + 2);
    for c in cycles {
        assert_eq!(
            c.pool, None,
            "cycle {} ({:?}) dispatched on the pool",
            c.cycle, c.kind
        );
    }
}

/// Lanes per row of the two-machine program's slab.
const K: usize = 3;

/// Keyed pairwise, unkeyed half-speaking and keyed row cycles along
/// every dimension of `Q_6`, each followed by a computation step, three
/// times over: the program two machines with different worker counts
/// run side by side. Returns the row slab.
fn mixed_program(m: &mut impl Cycles<u64>) -> Vec<u64> {
    let n = m.states().len();
    let mut rows: Vec<u64> = (0..(n * K) as u64).map(|x| x * 0x9E37 + 1).collect();
    let mut landed = vec![0u64; n * K];
    for _ in 0..3 {
        for dim in 0..6u32 {
            let bit = 1usize << dim;
            m.cycle(|c| {
                c.message(
                    move |u, &s| Some((u ^ bit, s)),
                    |s, _, v: u64| *s = s.wrapping_mul(0x9E37_79B9).wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(dim))
            });
            m.cycle(|c| {
                c.message(
                    move |u, &s| (u & bit == 0).then_some((u | bit, s)),
                    |s, _, v| *s ^= v.rotate_left(7),
                )
            });
            m.cycle(|c| {
                c.rows(K, move |u, _| Some(u ^ bit), [(&rows[..], &mut landed[..])])
                    .pairwise()
                    .keyed(ScheduleKey::Dim(dim))
            });
            m.compute_rows(K, [&mut rows[..]], [&landed[..]], |u, [x], [v]| {
                for (x, v) in x.iter_mut().zip(v) {
                    *x = x.rotate_left(3) ^ v.wrapping_add(u as u64);
                }
            });
        }
    }
    rows
}

/// The automatic shard count for `workers`: the smallest power of 4
/// covering it, capped at 64.
fn auto_shards(workers: usize) -> usize {
    let mut s = 1;
    while s < workers && s < 64 {
        s *= 4;
    }
    s
}

/// What a run of [`mixed_program`] leaves: states, row slab, counters
/// and trace.
type Mixed = (Vec<u64>, Vec<u64>, Metrics, Vec<TraceEntry>);

/// Two threaded machines, one at 2 workers and one at 4, run the same
/// program at once on two threads, several times each. Each machine's
/// events carry its own worker count, its shard count is the automatic
/// one for that count, and both end bit-identical to the reference
/// machine: the worker count is the machine's, not the process's.
#[test]
fn machines_with_different_worker_counts_run_side_by_side() {
    let q = Hypercube::new(6); // 64 nodes
    let init: Vec<u64> = (0..q.num_nodes() as u64).collect();
    let mut oracle = RefMachine::new(&q, init.clone());
    let rows = mixed_program(&mut oracle);
    let trace = oracle.phased_trace().to_vec();
    let (states, metrics) = oracle.into_parts();
    let want: Mixed = (states, rows, metrics, trace);

    let start = std::sync::Barrier::new(2);
    let run = |workers: usize| -> Vec<Mixed> {
        start.wait();
        (0..4)
            .map(|_| {
                let mut m = Machine::with_exec(&q, init.clone(), FORCE_PARALLEL);
                m.set_workers(workers);
                assert_eq!(m.workers(), workers);
                assert_eq!(m.shards(), auto_shards(workers), "at {workers} workers");
                m.enable_trace();
                let sink = obs::shared(MemorySink::new());
                m.record_into(sink.clone());
                let rows = mixed_program(&mut m);
                assert_eq!(m.shards(), auto_shards(workers), "at {workers} workers");
                let events = sink.lock().unwrap().events();
                assert_eq!(events.len(), 3 * 6 * 4, "at {workers} workers");
                for e in &events {
                    let Event::Cycle(c) = e else { continue };
                    assert_eq!(
                        c.backend,
                        Backend::Threaded { workers },
                        "cycle {} ({:?})",
                        c.cycle,
                        c.kind
                    );
                }
                let trace = m.phased_trace().to_vec();
                let (states, metrics) = m.into_parts();
                (states, rows, model_counters(&metrics), trace)
            })
            .collect()
    };
    let (two, four) = std::thread::scope(|s| {
        let two = s.spawn(|| run(2));
        let four = s.spawn(|| run(4));
        (two.join().unwrap(), four.join().unwrap())
    });
    for (workers, runs) in [(2, two), (4, four)] {
        for (i, got) in runs.iter().enumerate() {
            assert_eq!(got.0, want.0, "states at {workers} workers, run {i}");
            assert_eq!(got.1, want.1, "row slab at {workers} workers, run {i}");
            assert_eq!(got.2, want.2, "counters at {workers} workers, run {i}");
            assert_eq!(got.3, want.3, "trace at {workers} workers, run {i}");
        }
    }
}
