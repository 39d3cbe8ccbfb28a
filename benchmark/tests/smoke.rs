//! Runs the benchmark binary end to end on one tiny workload, in both modes,
//! and holds `BENCHMARK.json` to what the binary defines and prints.

use std::process::Command;

use bp_benchmark::json::{parse, Json};
use bp_benchmark::report::END_TO_END;
use bp_benchmark::workloads::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .expect("metric list")
        .as_array()
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the binary the way the driver does and returns its result line.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_bp-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

/// The result line has exactly the contract's keys, reports no failure, and
/// carries exactly the metrics `BENCHMARK.json` declares in `list`.
fn check_result(result: &Json, list: &str) {
    let Json::Obj(pairs) = result else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );

    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, declared(list));
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let result = run("mainnet_mix", "0");
    check_result(&result, "end_to_end");
    for def in &END_TO_END {
        assert!(value(&result, def.name) > 0.0, "{} is never 0", def.name);
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_a_ledger_that_sums() {
    let result = run("mainnet_mix", "1");
    check_result(&result, "per_layer");
    // The spans under `block` account for the block.
    assert!(value(&result, "path.ledger_residual_share").abs() < 0.10);
    // The on-disk store reopened on the committed head.
    assert_eq!(value(&result, "store.reopen_head_ok"), 1.0);
    assert!(value(&result, "store.bytes_per_block") > 0.0);
    assert!(value(&result, "store.replay_tx_s") > 0.0);
    assert!(value(&result, "node.txs_per_block") > 0.0);
}

#[test]
fn benchmark_json_matches_the_binary() {
    let file = benchmark_json();
    let end_to_end: Vec<(String, String, String, f64)> = file
        .get("end_to_end")
        .expect("end_to_end")
        .as_array()
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (field("name"), field("unit"), field("better"), bound)
        })
        .collect();
    let defined: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
        .collect();
    assert_eq!(end_to_end, defined);

    let workloads: Vec<(String, String)> = file
        .get("workloads")
        .expect("workloads")
        .as_array()
        .iter()
        .map(|w| {
            let field = |key| w.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("why"))
        })
        .collect();
    let defined: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.into(), w.why.into()))
        .collect();
    assert_eq!(workloads, defined);
    assert!(defined.iter().all(|(_, why)| why.len() <= 200));
}

#[test]
fn an_unknown_workload_fails_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_bp-benchmark"))
        .args([
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
