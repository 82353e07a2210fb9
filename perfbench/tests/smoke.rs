//! Runs the benchmark's smoke mode and checks what it prints against
//! `BENCHMARK.json`: every workload, untraced, prints every end-to-end
//! metric, and traced, every per-layer metric, each with its unit and a
//! value; every response verifies; `ok_frac` is 1. Run it with
//! `--release`: smoke mode drives 32 768-node machines.

use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn smoke_prints_every_named_metric_with_its_unit() {
    let out = Command::new(env!("CARGO_BIN_EXE_dc-perfbench"))
        .args(["--smoke", "--seed", "7"])
        .output()
        .expect("the benchmark runs");
    assert!(
        out.status.success(),
        "smoke mode failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(manifest).expect("BENCHMARK.json"));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");

    let mut seen = BTreeSet::new();
    let mut lines = stdout.lines();
    while let Some(header) = lines.next() {
        let header = header
            .strip_prefix("# ")
            .expect("a `# <workload> --trace <t>` line");
        let (workload, trace) = header
            .split_once(" --trace ")
            .expect("header names the trace flag");
        let result = Json::parse(lines.next().expect("a result line follows its header"));
        assert_eq!(result.get("correct"), &Json::Bool(true), "{header}");
        assert_eq!(result.get("failed").num(), 0.0, "{header}");
        assert!(result.get("attempted").num() >= 1.0, "{header}");

        let metrics = result.get("metrics").obj();
        let named = bench
            .get(if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            })
            .arr();
        assert_eq!(metrics.len(), named.len(), "{header}: metric count");
        for m in named {
            let name = m.get("name").str();
            let printed = result.get("metrics").get(name);
            assert_eq!(
                printed.get("unit").str(),
                m.get("unit").str(),
                "{header}: {name}"
            );
            assert!(printed.get("value").num().is_finite(), "{header}: {name}");
        }
        if trace == "0" {
            assert_eq!(
                result.get("metrics").get("ok_frac").get("value").num(),
                1.0,
                "{header}"
            );
        }
        seen.insert((workload.to_string(), trace.to_string()));
    }

    let expected: BTreeSet<_> = bench
        .get("workloads")
        .arr()
        .iter()
        .flat_map(|w| ["0", "1"].map(|t| (w.get("name").str().to_string(), t.to_string())))
        .collect();
    assert!(
        expected.is_subset(&seen),
        "every workload of BENCHMARK.json, untraced and traced: {seen:?}"
    );
}

/// Just enough JSON to read the benchmark's files: no escapes beyond
/// `\"` and `\\`.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        self.obj()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(o) => o,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    if !fields.is_empty() {
                        self.eat(b',');
                    }
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n}"))),
                }
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i]);
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).expect("utf-8 string")
    }
}
