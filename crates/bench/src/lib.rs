//! # dc-bench — the experiment harness
//!
//! Regenerates every figure and theorem of the paper (see DESIGN.md §4 for
//! the index). Binaries `e01_…`–`e09_…` print individual reports;
//! `all_experiments` prints the lot (this is what EXPERIMENTS.md records);
//! `benches/` holds the criterion wall-clock benches (experiment E10).
//! The `bench_*` programs share [`harness`] and are gated by
//! `bench_compare` ([`compare`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod spacetime;
pub mod table;
