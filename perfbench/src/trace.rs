//! Spans held in memory while the traced run measures and written once,
//! as JSON lines, when it ends.
//!
//! A span records one timed call the benchmark made into the program:
//! its name, the span that caused it (0 for none), its start relative to
//! the run's origin, and its duration. Every per-layer metric of the
//! traced run is a fold over these spans, so the file on disk is the
//! evidence behind each number.

use std::borrow::Cow;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        // Sized so a traced run never reallocates mid-measurement.
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 17),
        }
    }

    /// Records `[start, end]` (an empty span if `end` precedes `start`)
    /// and returns its id for children to name as parent.
    pub fn record(
        &mut self,
        parent: u32,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
        id
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(0, name, start, Instant::now());
        out
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.id,
                s.parent,
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )?;
        }
        out.flush()
    }
}
