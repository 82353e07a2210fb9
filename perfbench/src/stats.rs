//! Order statistics and the process counters the benchmark reads from
//! `/proc/self`.

use std::fs;

/// Nearest-rank `q`-quantile of `values` (sorted in place); NaN when empty.
/// `+∞` entries sort last, so failed requests land in the tail.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

/// User plus system CPU time of the whole process, every thread included,
/// in seconds. `/proc` reports it in units of 1/100 s on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; the counters follow its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

fn status_field(name: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /proc/self/status"))
}

/// Threads the process runs right now.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// `(stolen, total)` CPU time of the whole host in 1/100 s, summed over
/// its CPUs: `stolen` is time the hypervisor gave to other guests while
/// this one had work.
pub fn host_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let cpu: Vec<u64> = stat
        .lines()
        .next()
        .expect("/proc/stat has a cpu line")
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().expect("/proc/stat counter"))
        .collect();
    (cpu[7], cpu.iter().sum())
}
