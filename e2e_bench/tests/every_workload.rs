//! Every workload at a tiny size prints every metric `BENCHMARK.json`
//! names, with its unit, and a correct result line.

use scihadoop_bench::json::{self, Json};
use std::process::Command;

const WORKLOADS: [(&str, &str); 4] = [
    ("median_plain", "24"),
    ("median_transform", "24"),
    ("median_agg", "24"),
    ("dist_wordcount", "5000"),
];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let doc = benchmark_json();
    for (workload, size) in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = run(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--size",
                size,
            ]);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(2));
            let metrics = result.get("metrics").expect("metrics object");
            let expected = listed(&doc, key);
            let Json::Obj(printed) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(
                printed.len(),
                expected.len(),
                "{workload}: exactly the listed metrics"
            );
            for (name, unit) in expected {
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name}"));
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str())
                );
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                // The human-readable lines repeat the metric with its unit.
                assert!(
                    stdout.lines().any(|l| l.starts_with(&format!("{name} "))
                        && l.contains(&format!(" {unit}  #"))),
                    "{workload}: {name} line"
                );
            }
            assert!(stdout
                .lines()
                .any(|l| l.starts_with("failed_ratio 0 ratio")));
            assert!(stdout.contains("\"host_cpus\": "), "provenance line");
        }
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let (ok, stdout) = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
    assert!(stdout.is_empty());
}
