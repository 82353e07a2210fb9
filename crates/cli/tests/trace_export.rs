//! The Perfetto export on `D_6`, end to end: `dual-cube trace` writes a
//! file that parses as JSON, holding phase durations (`X` events) and
//! cycle instants (`i` events), every instant carrying its cycle number
//! in `args.cycle`.

use dc_bench::json::{parse, Value};
use std::process::Command;

/// Runs `dual-cube trace <which> --n 6 --out <file>` and parses the file.
fn export(which: &str) -> Value {
    let path = std::env::temp_dir().join(format!(
        "dc-cli-{which}-d6-{}.perfetto.json",
        std::process::id()
    ));
    let status = Command::new(env!("CARGO_BIN_EXE_dual-cube"))
        .args(["trace", which, "--n", "6", "--out"])
        .arg(&path)
        .status()
        .expect("dual-cube runs");
    assert!(status.success(), "trace {which} failed: {status}");
    let text = std::fs::read_to_string(&path).expect("the export was written");
    std::fs::remove_file(&path).ok();
    parse(&text).unwrap_or_else(|e| panic!("{which}: {e}"))
}

/// An event's `ph` (its kind), which every event has.
fn phase(event: &Value) -> &str {
    event
        .get("ph")
        .and_then(Value::as_str)
        .expect("every event has ph")
}

#[test]
fn d6_exports_hold_phases_and_numbered_cycles() {
    for which in ["prefix", "sort"] {
        let trace = export(which);
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("a traceEvents array");
        let phases = events.iter().filter(|e| phase(e) == "X").count();
        let cycles: Vec<&Value> = events.iter().filter(|e| phase(e) == "i").collect();
        assert!(phases > 0, "{which}: no phase duration events");
        assert!(!cycles.is_empty(), "{which}: no cycle instant events");
        assert!(
            cycles
                .iter()
                .all(|e| e.get("args").and_then(|a| a.get("cycle")).is_some()),
            "{which}: a cycle instant without args.cycle"
        );
    }
}
