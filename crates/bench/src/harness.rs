//! What the bench programs (`bench_lanes`, `bench_scale`, `bench_serve`,
//! `benches/parallel.rs`) share: flags, the run-median protocol, the
//! §E24 probe cycle and the snapshot file.
//!
//! The protocol is EXPERIMENTS.md §E24's: a leg runs several times, each
//! on a fresh machine (or server), and reports its median run, so one
//! noisy run on a shared host cannot move the result.

use dc_simulator::{Machine, ScheduleKey};
use dc_topology::DualCube;
use std::str::FromStr;
use std::time::Instant;

/// The value after `name` on the command line, or `default` when the
/// flag (or its value) is absent. Panics on a value that does not parse.
pub fn flag<T: FromStr>(name: &str, default: T) -> T {
    match std::env::args().skip_while(|a| a != name).nth(1) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name}: cannot parse {v:?}")),
        None => default,
    }
}

/// Runs `run` `runs` times and returns the run whose `key` is the
/// median (the upper one of an even count). Panics if `runs` is 0.
pub fn median_run<R>(runs: usize, run: impl FnMut() -> R, key: impl Fn(&R) -> f64) -> R {
    assert!(runs >= 1, "need at least one run");
    let mut done: Vec<R> = std::iter::repeat_with(run).take(runs).collect();
    done.sort_by(|a, b| key(a).total_cmp(&key(b)));
    done.swap_remove(runs / 2)
}

/// One leg of the cycle protocol: on each of `runs` machines from
/// `fresh`, two warm-up calls of `cycle` (the compile and the first
/// replay), then `cycles` timed calls; the median over runs of the mean
/// call time, in µs. Panics unless every run compiled once and replayed
/// every later cycle, so a cold cache cannot pass for a replay.
pub fn median_cycle_us<'t, S>(
    runs: usize,
    cycles: u32,
    mut fresh: impl FnMut() -> Machine<'t, DualCube, S>,
    mut cycle: impl FnMut(&mut Machine<'t, DualCube, S>),
) -> f64 {
    assert!(cycles >= 1, "need at least one timed cycle");
    let run = || {
        let mut m = fresh();
        for _ in 0..2 {
            cycle(&mut m);
        }
        let start = Instant::now();
        for _ in 0..cycles {
            cycle(&mut m);
        }
        let mean_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(cycles);
        let metrics = m.metrics();
        assert_eq!(metrics.schedule_misses, 1, "exactly one compile");
        assert_eq!(metrics.schedule_hits, 1 + u64::from(cycles));
        mean_us
    };
    median_run(runs, run, |&us| us)
}

/// The §E24 probe cycle: one keyed pairwise cross-edge exchange of `()`
/// and a no-op compute step, the engine's per-cycle cost with no
/// payload. Returns the messages delivered.
pub fn probe_cycle<S: Send + Sync>(m: &mut Machine<'_, DualCube, S>) -> usize {
    let d = m.topology();
    let delivered = m.cycle(|c| {
        c.message(|u, _| Some((d.cross_neighbor(u), ())), |_, _, ()| {})
            .pairwise()
            .keyed(ScheduleKey::Cross)
    });
    m.compute(1, |_, _| {});
    delivered
}

/// Writes `{head,"legs":[leg,…]}` and a newline to `path`, where `head`
/// holds the snapshot's leading members and each leg is one JSON object.
pub fn write_snapshot(path: &str, head: &str, legs: &[String]) {
    let json = format!("{{{head},\"legs\":[{}]}}\n", legs.join(","));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_run_returns_the_middle_run() {
        let mut runs = [3.0, 1.0, 2.0, 5.0].into_iter();
        assert_eq!(median_run(3, || runs.next().unwrap(), |&x| x), 2.0);
        let mut runs = [4.0, 1.0, 3.0, 2.0].into_iter();
        assert_eq!(median_run(4, || runs.next().unwrap(), |&x| x), 3.0);
    }

    #[test]
    fn the_probe_cycle_replays_after_its_compile() {
        let d = DualCube::new(3);
        let fresh = || Machine::new(&d, vec![(); 32]);
        let us = median_cycle_us(1, 4, fresh, |m| assert_eq!(probe_cycle(m), 32));
        assert!(us > 0.0);
    }
}
