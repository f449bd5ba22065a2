//! Runs `graybench --smoke` and holds it to `BENCHMARK.json`: every
//! declared metric is printed with its unit and none that is not declared,
//! the output checks hold, and the exact metrics repeat from run to run.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_graybench");

/// The root of the repository: the benchmark is started from there, as the
/// driver starts it.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
}

fn declared() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of the metrics declared under `key`.
fn units(declared: &Value, key: &str) -> BTreeMap<String, String> {
    declared
        .get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke workload and returns its last line, parsed.
fn smoke(workload: &str, seed: u64, trace: u8) -> Value {
    let out = Command::new(BIN)
        .current_dir(root())
        .args(["--workload", workload, "--smoke", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("graybench starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    json::parse(stdout.lines().last().expect("a result line")).expect("result parses")
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{name} is printed"))
}

#[test]
fn benchmark_json_is_what_the_binary_describes() {
    let out = Command::new(BIN)
        .arg("--describe")
        .output()
        .expect("graybench starts");
    let described =
        json::parse(&String::from_utf8(out.stdout).unwrap()).expect("description parses");
    assert_eq!(
        described,
        declared(),
        "regenerate BENCHMARK.json with --describe"
    );
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let declared = declared();
    let workloads = declared.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), 6);
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = smoke(name, 1, trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{name}");
            assert_eq!(result.get("failed"), Some(&Value::Num(0.0)), "{name}");
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let printed: BTreeMap<String, String> = result
                .get("metrics")
                .and_then(Value::as_obj)
                .unwrap()
                .iter()
                .map(|(k, v)| {
                    assert!(
                        v.get("value").and_then(Value::as_f64).is_some(),
                        "{name} {k}"
                    );
                    (
                        k.clone(),
                        v.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(printed, units(&declared, key), "{name} --trace {trace}");
            if trace == 0 {
                for metric_name in printed.keys() {
                    assert!(
                        metric(&result, metric_name) > 0.0,
                        "{name} {metric_name} is 0"
                    );
                }
            }
        }
    }
}

#[test]
fn exact_metrics_repeat_and_follow_the_seed() {
    for name in ["gbd_miss", "fleet_probe", "covert_grid"] {
        let (a, b, other) = (smoke(name, 7, 0), smoke(name, 7, 0), smoke(name, 8, 0));
        for exact in ["virtual_ns_per_op", "quality"] {
            assert_eq!(metric(&a, exact), metric(&b, exact), "{name} {exact}");
        }
        assert_eq!(a.get("attempted"), b.get("attempted"), "{name}");
        assert_ne!(
            metric(&a, "virtual_ns_per_op"),
            metric(&other, "virtual_ns_per_op"),
            "{name}: the seed must reach the inputs"
        );
    }
}

#[test]
fn compare_calls_two_runs_of_one_seed_the_same_in_every_exact_metric() {
    let dir = root().join("benchmark/out");
    std::fs::create_dir_all(&dir).unwrap();
    let mut files = Vec::new();
    for tag in ["a", "b"] {
        let out = Command::new(BIN)
            .current_dir(root())
            .args(["--smoke", "--seed", "3"])
            .output()
            .expect("graybench starts");
        assert!(out.status.success());
        let path = dir.join(format!("smoke-{tag}.json"));
        std::fs::write(&path, out.stdout).unwrap();
        files.push(path);
    }
    let out = Command::new(BIN)
        .arg("--compare")
        .args(&files)
        .output()
        .expect("graybench starts");
    let table = String::from_utf8(out.stdout).unwrap();
    for line in table.lines() {
        let exact = ["virtual_ns_per_op", "quality"]
            .iter()
            .any(|m| line.contains(m));
        if exact {
            assert!(line.ends_with("same"), "{line}");
        }
        if line.contains("digest") {
            assert!(line.ends_with("same"), "{line}");
        }
    }
    assert_eq!(table.lines().filter(|l| l.contains("digest")).count(), 6);
}
