//! Runs the `m3bench` binary on every workload at smoke size, untraced and
//! traced, and checks its output against `BENCHMARK.json`: the metric
//! names and units, finite values, and passing output checks.

use std::collections::BTreeMap;
use std::process::Command;

use m3_benchmark::Workload;

/// A parsed JSON value (just what `BENCHMARK.json` and the result line use).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    List(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(v) => v,
            other => panic!("{other:?} is not a list"),
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

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], b,
            "expected {:?} at byte {}",
            b as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                let mut m = BTreeMap::new();
                self.eat(b'{');
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                let mut v = Vec::new();
                self.eat(b'[');
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::List(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::List(v);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                let end = start
                    + self.s[start..]
                        .iter()
                        .position(|&b| b == b'"')
                        .expect("closing quote");
                self.i = end + 1;
                Json::Str(String::from_utf8(self.s[start..end].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphabetic())
                    .map(|&b| b as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    w => panic!("bad literal {w}"),
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(section)
        .list()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs `m3bench run` and returns its parsed last output line.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_m3bench"))
        .arg("run")
        .args(args)
        .output()
        .expect("spawn m3bench");
    assert!(out.status.success(), "m3bench {args:?} failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Json::parse(stdout.lines().last().expect("a result line"))
}

fn check_result(result: &Json, section: &str, what: &str) {
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{what}: output checks"
    );
    assert!(result.get("attempted").num() >= 1.0, "{what}: no ops");
    assert_eq!(result.get("failed").num(), 0.0, "{what}: failed ops");
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("{what}: metrics is not an object")
    };
    let printed: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").num().is_finite(),
                "{what}: {name} is not finite"
            );
            (name.clone(), m.get("unit").str().to_string())
        })
        .collect();
    assert_eq!(
        printed,
        declared(section),
        "{what}: metrics differ from BENCHMARK.json"
    );
}

#[test]
fn benchmark_json_declares_every_workload() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .list()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert_eq!(declared("per_layer").len(), 45);
}

#[test]
fn every_workload_prints_the_end_to_end_metrics_and_passes_its_checks() {
    for w in Workload::ALL {
        let result = run(&["--workload", w.name(), "--smoke", "--trace", "0"]);
        check_result(&result, "end_to_end", w.name());
    }
}

#[test]
fn every_workload_prints_the_per_layer_metrics_when_traced() {
    for w in Workload::ALL {
        let result = run(&["--workload", w.name(), "--smoke", "--trace", "1"]);
        check_result(&result, "per_layer", w.name());
        let Json::Obj(metrics) = result.get("metrics") else {
            unreachable!("checked above")
        };
        let value = |name: &str| metrics[name].get("value").num();
        assert_eq!(
            value("trace.dropped"),
            0.0,
            "{}: trace dropped events",
            w.name()
        );
        assert!(
            value("trace.events_per_op") > 0.0,
            "{}: nothing traced",
            w.name()
        );
    }
}

#[test]
fn all_runs_every_workload_in_a_child_and_checks_outputs() {
    let out = Command::new(env!("CARGO_BIN_EXE_m3bench"))
        .args(["all", "--smoke"])
        .output()
        .expect("spawn m3bench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{stdout}");
    for w in Workload::ALL {
        let verdict = format!("{} result {{\"correct\": true,", w.name());
        assert!(
            stdout.contains(&verdict),
            "no passing result for {}",
            w.name()
        );
        let line = format!("{} sim_p99_cyc ", w.name());
        assert!(
            stdout.contains(&line),
            "{} does not print its tail",
            w.name()
        );
    }
}
