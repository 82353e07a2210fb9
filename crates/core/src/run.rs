//! Run reports: algorithm output, step metrics, and optional phase-by-phase
//! value snapshots (used to regenerate the paper's worked-example figures).

use dc_simulator::Metrics;

/// A snapshot of every node's observable value at an algorithm phase
/// boundary, in **data-index order** (the order prefixes/keys are defined
/// over, not raw node-id order).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSnapshot<V> {
    /// Phase label, matching the metrics phase labels.
    pub label: String,
    /// One value per node, in data-index order.
    pub values: Vec<V>,
}

/// The result of running a simulated algorithm.
#[derive(Debug, Clone)]
pub struct Run<O, V = O> {
    /// The algorithm's output, in data-index order.
    pub output: Vec<O>,
    /// Communication/computation step counts (with per-phase breakdown).
    pub metrics: Metrics,
    /// Phase snapshots — populated only when the run was asked to record
    /// them (recording clones every node's state at each phase boundary,
    /// so it is opt-in).
    pub phases: Vec<PhaseSnapshot<V>>,
    /// Space-time trace: per communication cycle, the delivered
    /// `(src, dst)` messages. Populated only under [`Recording::Trace`].
    pub trace: Vec<Vec<(usize, usize)>>,
}

/// Whether a run should record [`PhaseSnapshot`]s and/or a space-time
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recording {
    /// No snapshots (the default; nothing is cloned).
    #[default]
    Off,
    /// Snapshot every phase boundary.
    Phases,
    /// Snapshot phase boundaries *and* record every message of every
    /// communication cycle (for space-time diagrams).
    Trace,
}

impl Recording {
    /// Whether phase snapshots are enabled.
    pub fn enabled(self) -> bool {
        self != Recording::Off
    }

    /// Whether per-cycle message tracing is enabled.
    pub fn tracing(self) -> bool {
        self == Recording::Trace
    }
}

/// The `n × K` lane slab of `K = inputs.len()` instances, the layout of
/// the paper algorithms' bodies: row `u` holds node `u`'s lanes, so slot
/// `u*K + k` is `inputs[k][index(u)]`.
pub(crate) fn lane_slab<M: Clone>(
    inputs: &[impl AsRef<[M]>],
    index: impl Fn(usize) -> usize,
) -> Vec<M> {
    let n = inputs[0].as_ref().len();
    let mut slab = Vec::with_capacity(n * inputs.len());
    for u in 0..n {
        let i = index(u);
        slab.extend(inputs.iter().map(|input| input.as_ref()[i].clone()));
    }
    slab
}

/// The lanes of an `n × lanes` slab as `lanes` outputs: output `k` lists
/// lane `k` of row `row(0)`, `row(1)`, …. One pass over the rows.
pub(crate) fn lane_outputs<M: Clone>(
    slab: &[M],
    lanes: usize,
    row: impl Fn(usize) -> usize,
) -> Vec<Vec<M>> {
    let n = slab.len() / lanes;
    let mut outputs: Vec<Vec<M>> = (0..lanes).map(|_| Vec::with_capacity(n)).collect();
    for i in 0..n {
        let at = row(i) * lanes;
        for (output, value) in outputs.iter_mut().zip(&slab[at..at + lanes]) {
            output.push(value.clone());
        }
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_flag() {
        assert!(!Recording::Off.enabled());
        assert!(Recording::Phases.enabled());
        assert!(!Recording::Phases.tracing());
        assert!(Recording::Trace.enabled() && Recording::Trace.tracing());
        assert_eq!(Recording::default(), Recording::Off);
    }

    #[test]
    fn run_carries_output_and_phases() {
        let run: Run<i32> = Run {
            output: vec![1, 2],
            metrics: Metrics::new(),
            phases: vec![PhaseSnapshot {
                label: "p".into(),
                values: vec![0, 0],
            }],
            trace: Vec::new(),
        };
        assert_eq!(run.output, vec![1, 2]);
        assert_eq!(run.phases[0].label, "p");
    }
}
