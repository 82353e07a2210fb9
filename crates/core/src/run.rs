//! Run reports: algorithm output, step metrics, and optional phase-by-phase
//! value snapshots (used to regenerate the paper's worked-example figures),
//! and the [`RunConfig`] a run is steered by.

use dc_simulator::{ExecMode, Machine, Metrics, SharedSink};
use dc_topology::Topology;
use std::sync::Arc;

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

/// How a run is carried out: the settings of the machine an entry point
/// builds, and what the run keeps. Backend, workers and replay change
/// only wall-clock and the recorder only observes, so a caller sets what
/// it varies; a bare [`Recording`] or [`ExecMode`] names a whole config.
///
/// ```
/// use dc_core::prefix::{dualcube::{d_prefix, Step5Mode}, PrefixKind};
/// use dc_core::{ops::Sum, run::{Recording, RunConfig}};
/// use dc_simulator::{obs, ExecMode, MemorySink};
/// let d = dc_topology::DualCube::new(2); // 8 nodes
/// let (sink, exec) = (obs::shared(MemorySink::new()), ExecMode::Parallel { threshold: 1 });
/// let run = RunConfig { exec, workers: 2, recorder: Some(sink.clone()), ..Recording::Phases.into() };
/// let out = d_prefix(&d, &[Sum(1); 8], PrefixKind::Inclusive, Step5Mode::PaperFaithful, run);
/// assert_eq!((out.prefixes[7].0, out.phases.len()), (8, 6)); // Figure 3's six panels
/// assert!(sink.lock().unwrap().len() > 0); // one event per phase and cycle
/// ```
#[derive(Clone)]
pub struct RunConfig {
    /// The backend ([`Machine::set_exec`]); default [`ExecMode::parallel`].
    pub exec: ExecMode,
    /// The worker count ([`Machine::set_workers`]); `0`, the default, is the host's.
    pub workers: usize,
    /// Whether keyed cycles replay ([`Machine::set_schedule_replay`]); default on.
    pub replay: bool,
    /// A sink for every phase and cycle event ([`Machine::record_into`]).
    pub recorder: Option<SharedSink>,
    /// The snapshots and trace the report keeps; the batched calls keep none.
    pub recording: Recording,
}

impl RunConfig {
    /// A machine over `topo` with this backend, worker count, replay
    /// setting and recorder.
    pub fn machine<'t, T: Topology + ?Sized + Sync, S>(
        &self,
        topo: &'t T,
        states: Vec<S>,
    ) -> Machine<'t, T, S> {
        let mut machine = Machine::with_exec(topo, states, self.exec);
        machine.set_workers(self.workers);
        machine.set_schedule_replay(self.replay);
        if let Some(sink) = &self.recorder {
            machine.record_into(Arc::clone(sink));
        }
        machine
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            exec: ExecMode::default(),
            workers: 0,
            replay: true,
            recorder: None,
            recording: Recording::Off,
        }
    }
}

impl From<Recording> for RunConfig {
    fn from(recording: Recording) -> Self {
        RunConfig {
            recording,
            ..RunConfig::default()
        }
    }
}

impl From<ExecMode> for RunConfig {
    fn from(exec: ExecMode) -> Self {
        RunConfig {
            exec,
            ..RunConfig::default()
        }
    }
}

/// The `n × K` lane slab of `K = inputs.len()` instances, the layout of
/// the paper algorithms' bodies: row `i` holds data index `i`, so slot
/// `i*K + k` is `inputs[k][i]`.
pub(crate) fn lane_slab<M: Clone>(inputs: &[impl AsRef<[M]>]) -> Vec<M> {
    let mut slab = Vec::new();
    lane_slab_into(&mut slab, inputs, M::clone);
    slab
}

/// [`lane_slab`] into a slab the caller owns, converting each value on
/// the way in; a reused slab of the right length is overwritten in
/// place, any other is resized keeping its capacity. One pass over the
/// rows in tiles of [`TILE`], the transpose of [`lane_outputs_into`]:
/// inside a tile, each input gives its [`TILE`] values from one run
/// while the tile's rows stay in cache, instead of every row pulling one
/// value from each of the K inputs in turn.
pub(crate) fn lane_slab_into<X, M: Clone>(
    slab: &mut Vec<M>,
    inputs: &[impl AsRef<[X]>],
    convert: impl Fn(&X) -> M,
) {
    let (lanes, n) = (inputs.len(), inputs[0].as_ref().len());
    if slab.len() != n * lanes {
        slab.clear();
        if let Some(first) = inputs[0].as_ref().first() {
            slab.resize(n * lanes, convert(first));
        }
    }
    for (start, tile) in (0..n).step_by(TILE).zip(slab.chunks_mut(TILE * lanes)) {
        for (k, input) in inputs.iter().enumerate() {
            let values = &input.as_ref()[start..start + tile.len() / lanes];
            for (at, x) in tile[k..].iter_mut().step_by(lanes).zip(values) {
                *at = convert(x);
            }
        }
    }
}

/// Sets `slab` to `len` copies of `value`, keeping its capacity: how a
/// reused slab starts a run the way a fresh one would.
pub(crate) fn refill<M: Clone>(slab: &mut Vec<M>, len: usize, value: M) {
    slab.clear();
    slab.resize(len, value);
}

/// The lanes of an `n × lanes` slab as `lanes` outputs: output `k` lists
/// lane `k` of rows `0, 1, …`.
pub(crate) fn lane_outputs<M: Clone>(slab: &[M], lanes: usize) -> Vec<Vec<M>> {
    let n = slab.len() / lanes;
    let mut outputs: Vec<Vec<M>> = (0..lanes).map(|_| Vec::with_capacity(n)).collect();
    lane_outputs_into(slab, &mut outputs, M::clone);
    outputs
}

/// [`lane_outputs`] into vectors the caller owns, converting each value
/// on the way out: output `k` is cleared and refilled with lane `k`, so
/// a vector that already holds `n` values gets its answer without
/// allocating. One pass over the rows, in tiles of [`TILE`] rows: inside
/// a tile, each output takes its [`TILE`] values in one run of pushes
/// while the tile's rows stay in cache, instead of every row pushing one
/// value into each of the K outputs in turn.
pub(crate) fn lane_outputs_into<M, X>(
    slab: &[M],
    outputs: &mut [Vec<X>],
    convert: impl Fn(&M) -> X,
) {
    let lanes = outputs.len();
    for output in outputs.iter_mut() {
        output.clear();
    }
    for tile in slab.chunks(TILE * lanes) {
        for (k, output) in outputs.iter_mut().enumerate() {
            output.extend(tile[k..].iter().step_by(lanes).map(&convert));
        }
    }
}

/// Rows per tile of [`lane_slab_into`] and [`lane_outputs_into`].
const TILE: usize = 8;

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
    fn run_config_defaults_and_conversions() {
        let default = RunConfig::default();
        assert_eq!(default.exec, ExecMode::parallel());
        assert_eq!((default.workers, default.replay), (0, true));
        assert!(default.recorder.is_none());
        assert_eq!(default.recording, Recording::Off);
        let traced = RunConfig::from(Recording::Trace);
        assert_eq!(traced.recording, Recording::Trace);
        assert_eq!(traced.exec, ExecMode::parallel());
        let seq = RunConfig::from(ExecMode::Sequential);
        assert_eq!(seq.exec, ExecMode::Sequential);
        assert_eq!(seq.recording, Recording::Off);
    }

    #[test]
    fn run_config_configures_the_machine() {
        let q = dc_topology::Hypercube::new(2);
        let sink = dc_simulator::obs::shared(dc_simulator::MemorySink::new());
        let config = RunConfig {
            exec: ExecMode::Sequential,
            workers: 3,
            replay: false,
            recorder: Some(sink),
            recording: Recording::Off,
        };
        let m = config.machine(&q, vec![(); 4]);
        assert_eq!(m.exec(), ExecMode::Sequential);
        assert_eq!(m.workers(), 3);
        assert!(!m.schedule_replay());
        assert!(m.is_recording());
        let bare = RunConfig::default().machine(&q, vec![(); 4]);
        assert!(bare.schedule_replay() && !bare.is_recording());
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
