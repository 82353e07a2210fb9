//! The three workloads, the payloads the driver generates for them, and
//! the check every response must pass.
//!
//! Each request gets a fresh payload derived from `(seed, request index)`,
//! so the same seed replays the same inputs while no two requests of a run
//! share one (a result cache could not profit from repeats). Each check
//! runs in O(N) from a reference prepared with the payload.

use dc_serve::{OpKind, Response, Shape};

/// Widest batch the server packs: the K of the payload lanes.
pub const MAX_LANES: usize = 16;

/// How the single driver thread offers load.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// Keep `outstanding` requests in flight; send the next as soon as one
    /// completes.
    Closed { outstanding: usize },
    /// Send on a seeded Poisson schedule at a fixed offered rate, whatever
    /// the server does.
    Open { rate_rps: f64 },
}

/// A named workload: its traffic mix and how it is driven.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub drive: Drive,
    /// Shapes and their relative weights in the traffic.
    pub mix: &'static [(Shape, u32)],
}

const fn shape(op: OpKind, n: u32) -> Shape {
    Shape { op, n }
}

/// Every workload the benchmark defines; the README says why each exists.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "prefix-d8",
        drive: Drive::Closed { outstanding: 32 },
        mix: &[(shape(OpKind::PrefixSum, 8), 1)],
    },
    Spec {
        name: "sort-d6",
        drive: Drive::Closed { outstanding: 32 },
        mix: &[(shape(OpKind::SortI64, 6), 1)],
    },
    Spec {
        name: "mixed-open",
        drive: Drive::Open { rate_rps: 60.0 },
        mix: &[
            (shape(OpKind::PrefixSum, 6), 10),
            (shape(OpKind::PrefixSum, 7), 5),
            (shape(OpKind::SortI64, 5), 5),
            (shape(OpKind::SortI64, 6), 70),
            (shape(OpKind::AllReduceSum, 7), 10),
        ],
    },
];

/// `prefix_d8`, `sort_d6`, `allreduce_d7`: a shape as it appears in metric
/// names.
pub fn shape_tag(s: Shape) -> String {
    let op = match s.op {
        OpKind::PrefixSum => "prefix",
        OpKind::SortI64 => "sort",
        OpKind::AllReduceSum => "allreduce",
    };
    format!("{op}_d{}", s.n)
}

/// SplitMix64: small, fast, and good enough to make inputs nobody can
/// predict from a neighbour's.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator of stream `stream` under `seed`. Streams of one seed
    /// are unrelated, so payloads and arrival times never share draws.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_F42D_4C95_7F2D))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a correct response must equal, prepared with the payload.
#[derive(Debug, Clone)]
pub enum Check {
    /// The inclusive prefix sums, in data-index order.
    Prefix(Vec<i64>),
    /// A sorted output is non-decreasing and has the input's multiset
    /// fingerprint: its wrapping sum and the wrapping sum of a mix of
    /// every key.
    Sort { sum: i64, fingerprint: u64 },
    /// The single global sum.
    AllReduce(i64),
}

/// One request's payload and the reference its response is checked
/// against.
#[derive(Debug, Clone)]
pub struct Job {
    pub shape: Shape,
    pub values: Vec<i64>,
    pub check: Check,
}

/// Payload of request `index` of a run seeded with `seed`. Values lie in
/// ±2^19, so a D_10 prefix sum cannot overflow.
pub fn job(seed: u64, index: u64, shape: Shape) -> Job {
    let mut rng = Rng::stream(seed, index);
    let values: Vec<i64> = (0..shape.num_nodes())
        .map(|_| (rng.next_u64() >> 44) as i64 - (1 << 19))
        .collect();
    let check = match shape.op {
        OpKind::PrefixSum => Check::Prefix(
            values
                .iter()
                .scan(0i64, |acc, &v| {
                    *acc += v;
                    Some(*acc)
                })
                .collect(),
        ),
        OpKind::SortI64 => Check::Sort {
            sum: values.iter().fold(0i64, |a, &v| a.wrapping_add(v)),
            fingerprint: fingerprint(&values),
        },
        OpKind::AllReduceSum => Check::AllReduce(values.iter().sum()),
    };
    Job {
        shape,
        values,
        check,
    }
}

fn fingerprint(keys: &[i64]) -> u64 {
    keys.iter()
        .fold(0u64, |a, &k| a.wrapping_add(mix(k as u64)))
}

/// The paper's exact step counts for one run of `shape`:
/// `(comm, Some(comp))`. Theorem 1 gives prefix `2n+1` / `2n`, Theorem 2
/// sort `6n²−7n+2` / `2n²−n`; all-reduce takes `2n` communication steps.
pub fn exact_steps(shape: Shape) -> (u64, Option<u64>) {
    let n = u64::from(shape.n);
    match shape.op {
        OpKind::PrefixSum => (2 * n + 1, Some(2 * n)),
        OpKind::SortI64 => (6 * n * n - 7 * n + 2, Some(2 * n * n - n)),
        OpKind::AllReduceSum => (2 * n, None),
    }
}

/// Checks one response against its reference and the exact step counts.
/// A warm server (`warm`) must also replay every schedule: any miss after
/// set-up fails the request.
pub fn verify(shape: Shape, check: &Check, r: &Response, warm: bool) -> Result<(), String> {
    if r.lanes == 0 || r.lanes > MAX_LANES {
        return Err(format!("batch of {} lanes", r.lanes));
    }
    let (comm, comp) = exact_steps(shape);
    if r.metrics.comm_steps != comm {
        return Err(format!(
            "{} comm steps, expected {comm}",
            r.metrics.comm_steps
        ));
    }
    if let Some(comp) = comp {
        if r.metrics.comp_steps != comp {
            return Err(format!(
                "{} comp steps, expected {comp}",
                r.metrics.comp_steps
            ));
        }
    }
    if warm && r.metrics.schedule_misses != 0 {
        return Err(format!(
            "{} schedule misses after set-up",
            r.metrics.schedule_misses
        ));
    }
    let out = &r.output;
    match check {
        Check::Prefix(expected) => {
            if out != expected {
                return Err("prefix sums differ from the sequential prefix".into());
            }
        }
        Check::Sort {
            sum,
            fingerprint: fp,
        } => {
            if out.len() != shape.num_nodes() {
                return Err(format!("sort returned {} keys", out.len()));
            }
            if out.windows(2).any(|w| w[0] > w[1]) {
                return Err("sort output is not non-decreasing".into());
            }
            let got_sum = out.iter().fold(0i64, |a, &v| a.wrapping_add(v));
            if got_sum != *sum || fingerprint(out) != *fp {
                return Err("sort output is not a permutation of the input".into());
            }
        }
        Check::AllReduce(total) => {
            if out.as_slice() != [*total] {
                return Err(format!("all-reduce gave {out:?}, expected [{total}]"));
            }
        }
    }
    Ok(())
}
