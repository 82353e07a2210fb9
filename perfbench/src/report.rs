//! Folds the timed phase into the end-to-end metrics (untraced segments)
//! and the serving-layer metrics (traced segments and their spans), and
//! prints the result line.

use crate::drive::{Measured, Segment};
use crate::stats::{self, median, quantile};
use crate::trace::Tracer;
use dc_serve::ServiceReport;
use std::fmt::Write as _;

/// Metrics in the order they print, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Values print with every digit; a value that is not finite prints as
/// `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        write!(
            s,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        )
        .expect("write to String");
    }
    s.push_str("}}");
    s
}

/// p99 of how late the driver sent each segment's requests, in ms (0
/// for a segment that sent none).
pub fn lag_p99_ms(m: &Measured) -> Vec<f64> {
    (0..m.segments.len())
        .map(|i| {
            let mut lags: Vec<f64> = m
                .recs
                .iter()
                .filter(|r| r.seg == i)
                .map(|r| r.lag.as_secs_f64() * 1e3)
                .collect();
            if lags.is_empty() {
                0.0
            } else {
                quantile(&mut lags, 0.99)
            }
        })
        .collect()
}

/// Indices of the valid segments with the given tracing.
fn chosen(m: &Measured, valid: &[bool], traced: bool) -> Vec<usize> {
    (0..m.segments.len())
        .filter(|&i| valid[i] && m.segments[i].traced == traced)
        .collect()
}

/// CPU milliseconds per verified response over `segs`.
fn cpu_ms_per_req(segs: &[&Segment]) -> f64 {
    let cpu: f64 = segs.iter().map(|s| s.cpu_s).sum();
    let ok: u64 = segs.iter().map(|s| s.ok_seen).sum();
    cpu * 1e3 / ok as f64
}

/// Latencies in ms of the requests sent in `segs`; failures are `+∞`.
fn latencies_ms(m: &Measured, segs: &[usize]) -> Vec<f64> {
    m.recs
        .iter()
        .filter(|r| segs.contains(&r.seg))
        .map(|r| r.latency.map_or(f64::INFINITY, |l| l.as_secs_f64() * 1e3))
        .collect()
}

/// The seven end-to-end metrics, pooled over the valid untraced
/// segments. Returns the number of latency samples behind the
/// percentiles.
///
/// The tail is p95, not p99: a batch's riders share its fate, so on a
/// closed loop one host stall delays 32 requests at once, and the 1% of
/// D_8 requests beyond p99 come from only two or three such events. Beyond
/// p95 lie more than ten.
pub fn end_to_end(m: &Measured, valid: &[bool], setup_secs: &[f64], out: &mut Metrics) -> usize {
    let idx = chosen(m, valid, false);
    let segs: Vec<&Segment> = idx.iter().map(|&i| &m.segments[i]).collect();
    let ok: u64 = segs.iter().map(|s| s.ok_seen).sum();
    let secs: f64 = segs.iter().map(|s| s.secs()).sum();
    let mut lat = latencies_ms(m, &idx);
    let verified = lat.iter().filter(|l| l.is_finite()).count();
    out.push("throughput_rps", ok as f64 / secs, "1/s");
    out.push("latency_p50_ms", quantile(&mut lat, 0.5), "ms");
    out.push("latency_p95_ms", quantile(&mut lat, 0.95), "ms");
    out.push("ok_frac", verified as f64 / lat.len() as f64, "frac");
    out.push("cpu_ms_per_req", cpu_ms_per_req(&segs), "ms");
    out.push("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.push("setup_s", median(setup_secs.to_vec()), "s");
    lat.len()
}

/// Quantiles of the spans called `span`, in `scale` nanoseconds.
fn span_quantiles(
    out: &mut Metrics,
    tracer: &Tracer,
    span: &str,
    metric: &str,
    unit: &'static str,
    scale: f64,
) {
    let mut d = tracer.durations_ns(span);
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        out.push(format!("{metric}.{tag}"), quantile(&mut d, q) / scale, unit);
    }
}

/// Serving-layer and driver-health metrics of the traced run.
pub fn serve_layers(
    m: &Measured,
    valid: &[bool],
    tracer: &Tracer,
    report: &ServiceReport,
    cold_misses: u64,
    out: &mut Metrics,
) {
    let mut lat = latencies_ms(m, &chosen(m, valid, false));
    out.push("latency_p99_ms", quantile(&mut lat, 0.99), "ms");
    span_quantiles(out, tracer, "serve.submit", "serve.submit_us", "us", 1e3);
    span_quantiles(out, tracer, "serve.queue", "serve.queue_ms", "ms", 1e6);
    span_quantiles(out, tracer, "serve.service", "serve.service_ms", "ms", 1e6);
    span_quantiles(out, tracer, "serve.handoff", "serve.handoff_us", "us", 1e3);

    let batches = m.after.batches - m.before.batches;
    let hits = m.after.schedule_hits - m.before.schedule_hits;
    let misses = m.after.schedule_misses - m.before.schedule_misses;
    out.push(
        "serve.lanes_per_batch",
        (m.after.lanes - m.before.lanes) as f64 / batches as f64,
        "count",
    );
    out.push("serve.batches", batches as f64, "count");

    // Each rider of a batch carries the batch's service time and step
    // counts, so weighting riders by 1/lanes counts every batch once.
    let traced = chosen(m, valid, true);
    let riders: Vec<_> = m
        .recs
        .iter()
        .filter(|r| traced.contains(&r.seg) && r.lanes > 0)
        .collect();
    let busy: f64 = riders
        .iter()
        .map(|r| r.service.as_secs_f64() / r.lanes as f64)
        .sum();
    let wall: f64 = traced.iter().map(|&i| m.segments[i].secs()).sum();
    let batches_seen: f64 = riders.iter().map(|r| 1.0 / r.lanes as f64).sum();
    let steps: f64 = riders
        .iter()
        .map(|r| r.comm_steps as f64 / r.lanes as f64)
        .sum();
    out.push("serve.busy_frac", busy / wall, "frac");
    out.push("serve.comm_steps_per_batch", steps / batches_seen, "count");
    out.push(
        "serve.schedule_hit_frac",
        hits as f64 / (hits + misses) as f64,
        "frac",
    );
    out.push("serve.timed_misses", misses as f64, "count");
    out.push("serve.cold_misses", cold_misses as f64, "count");
    out.push(
        "serve.rejected",
        report.rejected_by_cause.total() as f64,
        "count",
    );

    let mut lags: Vec<f64> = m.recs.iter().map(|r| r.lag.as_secs_f64() * 1e3).collect();
    out.push("driver.lag_ms.p50", quantile(&mut lags, 0.5), "ms");
    out.push("driver.lag_ms.p99", quantile(&mut lags, 0.99), "ms");
    out.push(
        "driver.verify_us.p50",
        median(tracer.durations_ns("driver.verify")) / 1e3,
        "us",
    );
    out.push(
        "driver.invalid_segments",
        valid.iter().filter(|v| !**v).count() as f64,
        "count",
    );
    out.push(
        "driver.threads",
        m.segments.iter().map(|s| s.max_threads).max().unwrap_or(0) as f64,
        "count",
    );
    let (stolen, total) = m
        .segments
        .iter()
        .fold((0, 0), |(s, t), seg| (s + seg.steal.0, t + seg.steal.1));
    out.push("host.steal_frac", stolen as f64 / total as f64, "frac");
    let pick = |t: bool| -> Vec<&Segment> {
        chosen(m, valid, t)
            .into_iter()
            .map(|i| &m.segments[i])
            .collect()
    };
    out.push(
        "trace.overhead_frac",
        cpu_ms_per_req(&pick(true)) / cpu_ms_per_req(&pick(false)) - 1.0,
        "frac",
    );
}

/// Every metric the run printed must be a number.
pub fn all_finite(metrics: &Metrics) -> Result<(), String> {
    match metrics.0.iter().find(|m| !m.1.is_finite()) {
        Some((name, ..)) => Err(format!("{name} has no value")),
        None => Ok(()),
    }
}

/// `ok_frac` of an end-to-end result, if it has one.
pub fn ok_frac(metrics: &Metrics) -> Option<f64> {
    metrics.value("ok_frac")
}
