//! Steady-state cycles are allocation-free: after a warm-up cycle has
//! sized the machine's reusable scratch (plan slab, receiver map, sender
//! table, staging slab), further communication, `compute`
//! and `compute_rows` cycles must hit the global allocator **zero** times
//! (with tracing off), in every payload form. Pinned here with a counting wrapper around the system allocator
//! — this is the regression guard for the scratch-reuse machinery in
//! `Machine` (see `machine.rs` rustdoc) and the acceptance criterion of
//! the persistent-pool PR. Keyed replay cycles get the same guarantee
//! (after one compile + one replay warm-up), and so do cycles over a
//! `Faulty`-wrapped topology, whose `is_edge`/`degree`/`num_edges` are
//! required to be allocation-free overrides rather than the
//! neighbor-vector defaults.
//!
//! This lives in its own integration-test binary so the `#[global_allocator]`
//! swap and the process-wide counter don't interfere with other suites;
//! the single `#[test]` below keeps the counter single-threaded apart
//! from the pool's own workers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dc_simulator::{ExecMode, Flip, Machine, ScheduleKey};
use dc_topology::faulty::Faulty;
use dc_topology::{DualCube, Hypercube, Topology};

/// Counts every allocator call that hands out (or moves) memory.
/// Deallocations are free of interest: a steady-state cycle that
/// allocates and frees per cycle still fails the budget.
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

/// One representative cycle: a pairwise dimension exchange (plan +
/// symmetry check + validation + staging + delivery) and a local
/// compute step.
fn one_cycle<T: Topology + Sync>(m: &mut Machine<'_, T, u64>, dim: u32) {
    m.cycle(|c| {
        c.message(
            move |u, &s| Some((u ^ (1usize << dim), s)),
            |s, _, v: u64| *s = s.wrapping_mul(0x9E37_79B9).wrapping_add(v),
        )
        .pairwise()
    });
    m.compute(1, |u, s| *s = s.rotate_left((u % 7) as u32));
}

/// Allocator calls observed while running `f`, minimised over `reps`
/// repetitions.
///
/// The minimum — not a single run — because the process-wide counter also
/// sees the *test harness*: libtest's main thread blocks on an mpmc
/// channel waiting for this test's result, and the first time that recv
/// actually parks it lazily allocates its thread-local waker context.
/// Whether that park lands inside a measured window is a timing
/// accident. Any such one-shot initialisation can pollute at most one
/// repetition, while a real per-cycle allocation in the machine shows up
/// in every repetition, so the minimum keeps the guard both deterministic
/// and strict.
fn steady_delta(reps: u32, mut f: impl FnMut()) -> u64 {
    (0..reps)
        .map(|_| {
            let before = ALLOC_CALLS.load(Ordering::SeqCst);
            f();
            ALLOC_CALLS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("reps > 0")
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    let q = Hypercube::new(6); // 64 nodes
    let init: Vec<u64> = (0..q.num_nodes() as u64).collect();

    // --- Sequential backend: hard zero. ---
    let mut m = Machine::with_exec(&q, init.clone(), ExecMode::Sequential);
    for dim in 0..3 {
        one_cycle(&mut m, dim); // warm-up sizes the scratch
    }
    let seq_delta = steady_delta(3, || {
        for round in 0..100u32 {
            one_cycle(&mut m, round % 6);
        }
    });
    assert_eq!(
        seq_delta, 0,
        "sequential steady-state cycles allocated {seq_delta} times"
    );

    // Switching message types re-sizes the typed slots once, then the
    // new type is steady-state too.
    m.cycle(|c| {
        c.message(
            |u, &s| Some((u ^ 1, (s, s))),
            |s, _, v: (u64, u64)| *s ^= v.0 ^ v.1,
        )
        .pairwise()
    });
    let retyped_delta = steady_delta(3, || {
        for _ in 0..50 {
            m.cycle(|c| {
                c.message(
                    |u, &s| Some((u ^ 1, (s, s))),
                    |s, _, v: (u64, u64)| *s ^= v.0 ^ v.1,
                )
                .pairwise()
            });
        }
    });
    assert_eq!(
        retyped_delta, 0,
        "steady-state after a message-type switch allocated {retyped_delta} times"
    );

    // --- Keyed replay: one compile cycle (allocates the schedule) +
    // one replay warm-up (sizes the inbox), then replays are free. ---
    let mut k = Machine::with_exec(&q, init.clone(), ExecMode::Sequential);
    for _ in 0..2 {
        k.cycle(|c| {
            c.message(
                |u, &s| Some((u ^ 4, s)),
                |s, _, v: u64| *s = s.wrapping_add(v),
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(2))
        });
    }
    let replay_delta = steady_delta(3, || {
        for _ in 0..100 {
            k.cycle(|c| {
                c.message(
                    |u, &s| Some((u ^ 4, s)),
                    |s, _, v: u64| *s = s.wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(2))
            });
        }
    });
    assert_eq!(
        replay_delta, 0,
        "steady-state replay cycles allocated {replay_delta} times"
    );
    assert!(k.metrics().schedule_hits >= 301, "replays actually hit");

    // --- Faulty-wrapped topology: the adjacency queries validation
    // issues every cycle must use the precomputed overrides, not the
    // allocating neighbor-scan defaults. ---
    let f = Faulty::new(q, &[]);
    let mut fm = Machine::with_exec(&f, init.clone(), ExecMode::Sequential);
    for dim in 0..3 {
        one_cycle(&mut fm, dim);
    }
    let faulty_delta = steady_delta(3, || {
        for round in 0..100u32 {
            one_cycle(&mut fm, round % 6);
        }
    });
    assert_eq!(
        faulty_delta, 0,
        "Faulty-wrapped steady-state cycles allocated {faulty_delta} times"
    );

    // --- Recorder lifecycle: while a recorder is installed, cycles
    // may allocate (events are heap data by design), but once it is
    // removed the machine must return to the hard-zero steady state
    // — the disabled path's only observability cost is one `Option`
    // check per cycle (no clock reads, no event construction). ---
    let mut r = Machine::with_exec(&q, init.clone(), ExecMode::Sequential);
    r.record_into(dc_simulator::obs::shared(dc_simulator::MemorySink::ring(
        64,
    )));
    for dim in 0..3 {
        one_cycle(&mut r, dim); // recorded warm-up
    }
    assert!(r.stop_recording().is_some());
    for dim in 0..3 {
        one_cycle(&mut r, dim); // re-warm with the recorder off
    }
    let recorder_off_delta = steady_delta(3, || {
        for round in 0..100u32 {
            one_cycle(&mut r, round % 6);
        }
    });
    assert_eq!(
        recorder_off_delta, 0,
        "disabled-recorder steady-state cycles allocated {recorder_off_delta} times"
    );

    // --- Threaded backend: the persistent pool dispatches without
    // allocating once its workers exist and the scratch is warm. ---
    let mut p = Machine::with_exec(&q, init.clone(), ExecMode::Parallel { threshold: 1 });
    p.set_workers(4);
    for dim in 0..3 {
        one_cycle(&mut p, dim); // spawns the pool + warms the inbox
    }
    let par_delta = steady_delta(3, || {
        for round in 0..100u32 {
            one_cycle(&mut p, round % 6);
        }
    });
    assert_eq!(
        par_delta, 0,
        "threaded steady-state cycles allocated {par_delta} times"
    );

    // --- Lane-batched cycles: once the lane-strided buffer and the
    // staged-sender table are sized (one warm-up compile + one
    // replay), K-lane keyed cycles are allocation-free on both the
    // full and the replay path. ---
    let lanes = 8usize;
    let mut lm = Machine::with_exec(&q, init.clone(), ExecMode::Sequential);
    for _ in 0..2 {
        lm.cycle(|c| {
            c.lanes(
                lanes,
                &0u64,
                |u, _| Some(u ^ 8),
                |_, &s, window| window.fill(s),
                |s, _, window| {
                    for w in window.iter() {
                        *s = s.wrapping_add(*w);
                    }
                },
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(3))
        });
    }
    let lane_delta = steady_delta(3, || {
        for _ in 0..100 {
            lm.cycle(|c| {
                c.lanes(
                    lanes,
                    &0u64,
                    |u, _| Some(u ^ 8),
                    |_, &s, window| window.fill(s),
                    |s, _, window| {
                        for w in window.iter() {
                            *s = s.wrapping_add(*w);
                        }
                    },
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(3))
            });
        }
    });
    assert_eq!(
        lane_delta, 0,
        "lane-batched steady-state cycles allocated {lane_delta} times"
    );

    // --- Threaded lane-batched replay: same guarantee on the pool
    // path (fused verify+stage pass and strided delivery sweep). ---
    let mut lp = Machine::with_exec(&q, init.clone(), ExecMode::Parallel { threshold: 1 });
    lp.set_workers(4);
    for _ in 0..2 {
        lp.cycle(|c| {
            c.lanes(
                lanes,
                &0u64,
                |u, _| Some(u ^ 8),
                |_, &s, window| window.fill(s),
                |s, _, window| {
                    for w in window.iter() {
                        *s = s.wrapping_add(*w);
                    }
                },
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(3))
        });
    }
    let lane_par_delta = steady_delta(3, || {
        for _ in 0..100 {
            lp.cycle(|c| {
                c.lanes(
                    lanes,
                    &0u64,
                    |u, _| Some(u ^ 8),
                    |_, &s, window| window.fill(s),
                    |s, _, window| {
                        for w in window.iter() {
                            *s = s.wrapping_add(*w);
                        }
                    },
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(3))
            });
        }
    });
    assert_eq!(
        lane_par_delta, 0,
        "threaded lane-batched steady-state cycles allocated {lane_par_delta} times"
    );

    // --- Threaded keyed replay: same guarantee on the pool path. ---
    let mut pk = Machine::with_exec(&q, init.clone(), ExecMode::Parallel { threshold: 1 });
    pk.set_workers(4);
    for _ in 0..2 {
        pk.cycle(|c| {
            c.message(
                |u, &s| Some((u ^ 2, s)),
                |s, _, v: u64| *s = s.wrapping_add(v),
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(1))
        });
    }
    let par_replay_delta = steady_delta(3, || {
        for _ in 0..100 {
            pk.cycle(|c| {
                c.message(
                    |u, &s| Some((u ^ 2, s)),
                    |s, _, v: u64| *s = s.wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(1))
            });
        }
    });
    assert_eq!(
        par_replay_delta, 0,
        "threaded steady-state replay cycles allocated {par_replay_delta} times"
    );

    // --- Sharded engine, full validation path: an explicit 16-shard
    // map over a 4-worker pool (each dispatch slot owns four whole
    // shards). Dimension exchanges at bits ≥ 2 are pure seam traffic
    // here (chunk 4), so every cycle routes claims through the
    // exchange bins — which must retain their capacity across cycles
    // once every dimension's pattern has been seen. ---
    let mut sm = Machine::with_exec(&q, init.clone(), ExecMode::Parallel { threshold: 1 });
    sm.set_workers(4);
    sm.set_shards(16);
    assert_eq!(sm.shards(), 16);
    let seam = |m: &mut Machine<'_, Hypercube, u64>, dim: u32| {
        m.cycle(|c| {
            c.message(
                move |u, s: &u64| Some((u ^ (1usize << dim), *s)),
                |s, _, v: u64| *s = s.wrapping_add(v),
            )
        });
    };
    for dim in 0..6 {
        seam(&mut sm, dim); // warm every dimension's seam pattern
    }
    let shard_delta = steady_delta(3, || {
        for round in 0..100u32 {
            seam(&mut sm, round % 6);
        }
    });
    assert_eq!(
        shard_delta, 0,
        "sharded steady-state cycles allocated {shard_delta} times"
    );

    // --- Sharded keyed replay: the shard-aligned bounds dispatch
    // (fused verify+stage, then shard-local delivery) is free too. ---
    let mut sk = Machine::with_exec(&q, init.clone(), ExecMode::Parallel { threshold: 1 });
    sk.set_workers(4);
    sk.set_shards(16);
    for _ in 0..2 {
        sk.cycle(|c| {
            c.message(
                |u, &s| Some((u ^ 4, s)),
                |s, _, v: u64| *s = s.wrapping_add(v),
            )
            .pairwise()
            .keyed(ScheduleKey::Dim(2))
        });
    }
    let shard_replay_delta = steady_delta(3, || {
        for _ in 0..100 {
            sk.cycle(|c| {
                c.message(
                    |u, &s| Some((u ^ 4, s)),
                    |s, _, v: u64| *s = s.wrapping_add(v),
                )
                .pairwise()
                .keyed(ScheduleKey::Dim(2))
            });
        }
    });
    assert_eq!(
        shard_replay_delta, 0,
        "sharded steady-state replay cycles allocated {shard_replay_delta} times"
    );

    // --- Rows cycles and row compute phases over caller-owned lane
    // slabs, on both backends (the threaded leg with 4 pinned
    // workers): once every key is compiled and the sender table is
    // sized, keyed replays, unkeyed full cycles and compute phases
    // split and walk the slabs without touching the heap. ---
    for (exec, workers) in [
        (ExecMode::Sequential, 0),
        (ExecMode::Parallel { threshold: 1 }, 4),
    ] {
        let n = q.num_nodes();
        let mut cur: Vec<u64> = (0..(n * lanes) as u64).collect();
        let (mut temp, mut spare) = (vec![0u64; n * lanes], vec![0u64; n * lanes]);
        let mut rm = Machine::with_exec(&q, vec![(); n], exec);
        rm.set_workers(workers);
        for _ in 0..2 {
            for dim in 0..6 {
                rows_round(&mut rm, lanes, dim, [&mut cur, &mut temp, &mut spare]);
            }
        }
        let rows_delta = steady_delta(3, || {
            for round in 0..60u32 {
                rows_round(&mut rm, lanes, round % 6, [&mut cur, &mut temp, &mut spare]);
            }
        });
        assert_eq!(
            rows_delta, 0,
            "steady-state rows cycles and row compute phases allocated {rows_delta} times ({exec:?})"
        );
    }

    // --- Exchange-and-fold cycles on both backends: once the keys
    // are compiled, a pair fold (replayed by flip equality) and a
    // read-only fold allocate nothing. Q_13 at 16 lanes runs 1 MiB
    // slabs, Q_6 at 8 lanes small ones. ---
    for (dim, lanes) in [(6u32, 8usize), (13, 16)] {
        let fq = Hypercube::new(dim);
        let n = fq.num_nodes();
        for (exec, workers) in [
            (ExecMode::Sequential, 0),
            (ExecMode::Parallel { threshold: 1 }, 4),
        ] {
            let mut t: Vec<u64> = (0..(n * lanes) as u64).collect();
            let mut s = vec![1u64; n * lanes];
            // Each node's id in every lane of its row, for the fold.
            let mut ids: Vec<u64> = (0..n as u64)
                .flat_map(|u| std::iter::repeat_n(u, lanes))
                .collect();
            let mut fm = Machine::with_exec(&fq, vec![(); n], exec);
            fm.set_workers(workers);
            for _ in 0..2 {
                for d in 0..dim {
                    fold_round(&mut fm, lanes, d, [&mut t, &mut s, &mut ids]);
                }
            }
            let fold_delta = steady_delta(3, || {
                for d in 0..dim {
                    fold_round(&mut fm, lanes, d, [&mut t, &mut s, &mut ids]);
                }
            });
            assert_eq!(
                fold_delta, 0,
                "steady-state fold cycles allocated {fold_delta} times (Q_{dim}, {exec:?})"
            );
        }
    }
}

/// One exchange-and-fold round of Algorithm 1's shape: a pair fold of
/// `t` across `dim`, folding the partner's `t` into both `t` and `s` at
/// each end (each mixing in its own id from `ids`), then a
/// half-speaking fold reading `s` as a read-only travelling slab.
fn fold_round(
    m: &mut Machine<'_, Hypercube, ()>,
    lanes: usize,
    dim: u32,
    [t, s, ids]: [&mut [u64]; 3],
) {
    m.cycle(|c| {
        c.fold_pairs(
            lanes,
            Flip::uniform(dim),
            [&mut *t, &mut *s, &mut *ids],
            |[lo_t, lo_s, lo], [hi_t, hi_s, hi], got| {
                let ends = lo_t.iter_mut().zip(lo_s).zip(hi_t.iter_mut().zip(hi_s));
                for (((lo_t, lo_s), (hi_t, hi_s)), (lo, hi)) in ends.zip(lo.iter().zip(&*hi)) {
                    let (a, b) = (*lo_t, *hi_t);
                    if got[0] {
                        *lo_s = lo_s.wrapping_add(b);
                        *lo_t = a.rotate_left((lo % 7) as u32) ^ b;
                    }
                    if got[1] {
                        *hi_s = hi_s.wrapping_add(a);
                        *hi_t = b.rotate_left((hi % 7) as u32) ^ a;
                    }
                }
            },
        )
        .keyed(ScheduleKey::Dim(dim))
    });
    m.cycle(|c| {
        c.fold_rows(
            lanes,
            |u, _| (u & 1 == 0).then_some(u + 1),
            &*s,
            [&mut *t],
            [],
            |_, [t], [], msg| {
                for (t, x) in t.iter_mut().zip(msg.into_iter().flatten()) {
                    *t ^= x;
                }
            },
        )
        .keyed(ScheduleKey::Custom(1))
    });
}

/// One round over lane slabs: a keyed rows exchange of `cur` into `temp`
/// across `dim`, an unkeyed rows cycle of `cur` into `spare` across
/// dimension 0, then a row compute phase folding both back into `cur`.
fn rows_round(
    m: &mut Machine<'_, Hypercube, ()>,
    lanes: usize,
    dim: u32,
    [cur, temp, spare]: [&mut [u64]; 3],
) {
    m.cycle(|c| {
        c.rows(
            lanes,
            move |u, _| Some(u ^ (1usize << dim)),
            [(&*cur, &mut *temp)],
        )
        .pairwise()
        .keyed(ScheduleKey::Dim(dim))
    });
    m.cycle(|c| {
        c.rows(lanes, |u, _| Some(u ^ 1), [(&*cur, &mut *spare)])
            .pairwise()
    });
    m.compute_rows(lanes, [cur], [&*temp, &*spare], |u, [x], [a, b]| {
        for ((x, a), b) in x.iter_mut().zip(a).zip(b) {
            *x = x.rotate_left((u % 7) as u32) ^ a.wrapping_add(*b);
        }
    });
}

/// The same hard-zero guarantee at `D_10` scale: 524,288 nodes, the
/// smallest dual-cube past the exhaustive-test band. Once the split
/// inbox (`u32` source array + payload slab), claim table, and compiled
/// cross schedule are warm, keyed cycles over half a million nodes must
/// not touch the allocator — the scaling claim of the dense-layout PR,
/// not derivable from the 64-node leg above (resize-on-demand bugs only
/// show up when `n` actually changes the buffer sizes).
///
/// Sequential backend on purpose: the pool's dispatch machinery is
/// covered at small `n` above, and a single-threaded sweep keeps this
/// `--ignored` leg's wall-clock within a debug-build test budget.
/// Run with: `cargo test -p dc-simulator --test zero_alloc --release -- --ignored`.
#[test]
#[ignore = "D_10 scale (524k nodes); run explicitly with --ignored, ideally --release"]
fn d10_steady_state_cycles_do_not_allocate() {
    let d = DualCube::new(10);
    let init: Vec<u64> = (0..d.num_nodes() as u64).collect();
    let mut m = Machine::with_exec(&d, init, ExecMode::Sequential);
    let cross = |m: &mut Machine<'_, DualCube, u64>| {
        m.cycle(|c| {
            c.message(
                |u, &s| Some((d.cross_neighbor(u), s)),
                |s, _, v: u64| *s = s.wrapping_add(v),
            )
            .pairwise()
            .keyed(ScheduleKey::Cross)
        });
    };
    for _ in 0..2 {
        cross(&mut m); // compile + replay warm-up sizes every buffer
    }
    let delta = steady_delta(3, || {
        for _ in 0..5 {
            cross(&mut m);
        }
    });
    assert_eq!(
        delta, 0,
        "D_10 steady-state replay cycles allocated {delta} times"
    );
    assert!(m.metrics().schedule_hits >= 16, "replays actually hit");
}
