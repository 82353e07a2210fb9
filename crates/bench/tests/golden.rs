//! Golden outputs of the deterministic experiment binaries: each one's
//! stdout must equal the file committed under `tests/golden/`, byte for
//! byte. They print step counts, Figure 3 and Figure 5–6 phase panels,
//! space-time traces and fault-tolerance tables, all functions of the
//! simulated execution only, so any change that moves a count, a panel
//! or a trace shows up here as a diff.
//!
//! To regenerate after an intended change, run each binary and write its
//! stdout over its file, e.g.
//! `cargo run --offline --release -p dc-bench --bin e04_prefix_steps >
//! crates/bench/tests/golden/e04_prefix_steps.txt`, and say in the
//! change why the output moved.

use std::path::Path;
use std::process::Command;

/// Runs `exe` and compares its stdout with `tests/golden/<name>.txt`.
fn check(name: &str, exe: &str) {
    let output = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
    assert!(
        output.status.success(),
        "{name} exited with {}",
        output.status
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", golden.display()));
    let got = String::from_utf8(output.stdout).expect("experiment output is UTF-8");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name}: stdout differs from {} from line {} on\n--- got ---\n{got}",
            golden.display(),
            line + 1
        );
    }
}

macro_rules! golden {
    ($($test:ident => $bin:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check($bin, env!(concat!("CARGO_BIN_EXE_", $bin)));
            }
        )*
    };
}

golden! {
    e03_prefix_worked_example => "e03_prefix_worked_example",
    e04_prefix_steps => "e04_prefix_steps",
    e05_sort_worked_example => "e05_sort_worked_example",
    e06_sort_steps => "e06_sort_steps",
    e07_emulation_overhead => "e07_emulation_overhead",
    e08_large_inputs => "e08_large_inputs",
    e09_collectives => "e09_collectives",
    e13_radix_vs_bitonic => "e13_radix_vs_bitonic",
    e15_fault_tolerance => "e15_fault_tolerance",
    e16_embeddings => "e16_embeddings",
    e18_metacube_prefix => "e18_metacube_prefix",
    e19_spacetime => "e19_spacetime",
}
