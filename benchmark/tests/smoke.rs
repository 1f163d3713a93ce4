//! Runs the built benchmark at its smoke sizes, every workload untraced and
//! traced, and holds the last line it prints to the contract in
//! `BENCHMARK.json`.

use std::process::Command;

use sellkit_obs::{parse_json, Json};

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

fn names(contract: &Json, key: &str) -> Vec<String> {
    contract
        .get(key)
        .and_then(Json::as_arr)
        .expect("the contract lists it")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_runs_quick_and_prints_the_contract_metrics() {
    let contract = parse_json(CONTRACT).expect("BENCHMARK.json parses");
    let ungated = ["spmv_irregular", "apply_small"].map(String::from);
    for workload in names(&contract, "workloads").into_iter().chain(ungated) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_sellkit-benchmark"))
                .args([
                    "--workload",
                    &workload,
                    "--seed",
                    "7",
                    "--quick",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("the benchmark starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace {trace}: {stderr}");

            let last = parse_json(stdout.lines().last().unwrap()).expect("a JSON last line");
            let Json::Obj(fields) = &last else {
                panic!("the last line is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(matches!(last.get("correct"), Some(Json::Bool(true))));
            assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));

            let Some(Json::Obj(metrics)) = last.get("metrics") else {
                panic!("metrics is not an object")
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, names(&contract, key), "{workload} trace {trace}");
            if trace == "0" {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(v > 0.0, "{workload} {name} = {v}");
                }
            }

            // A smoke run must not pass for a measurement.
            let suffix = if trace == "1" { ".traced" } else { "" };
            let file = format!(
                "{}/out/results.{workload}.quick{suffix}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let results = parse_json(&std::fs::read_to_string(file).unwrap()).unwrap();
            assert!(matches!(results.get("comparable"), Some(Json::Bool(false))));
        }
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_sellkit-benchmark"))
        .args(["--workload", "nonesuch"])
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
