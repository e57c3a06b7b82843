//! Runs `uo_benchmark run --check` — the four workloads at tiny scale, where
//! the run itself verifies every reply hash, that reader results do not
//! change under the `University999` writes, and that no acknowledged update
//! is lost across a reopen — and checks what it prints against
//! `BENCHMARK.json`: every metric exactly once, with its unit.

use std::process::Command;
use uo_json::Json;

fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    let text = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    spec.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

#[test]
fn check_runs_every_workload_and_prints_every_metric_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_uo_benchmark"))
        .args(["run", "--check"])
        .output()
        .expect("run the benchmark binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--check failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert_eq!(stdout.lines().last(), Some("check ok"));

    let spec = uo_json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    let expected = [names_and_units(&spec, "end_to_end"), names_and_units(&spec, "per_layer")];
    let workloads = spec.get("workloads").and_then(Json::as_arr).expect("workloads").len();

    // One block of `metric` lines per run, closed by the JSON result line;
    // each workload runs untraced, then traced.
    let mut runs = 0;
    let mut printed: Vec<(String, String)> = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            assert_eq!(fields[1], "=", "{line}");
            fields[2].parse::<f64>().unwrap_or_else(|_| panic!("not a number: {line}"));
            printed.push((fields[0].to_string(), fields[3].to_string()));
        } else if line.starts_with('{') {
            let want = &expected[runs % 2];
            assert_eq!(
                &printed, want,
                "run {runs} printed other metrics than BENCHMARK.json lists"
            );
            let result = uo_json::parse(line).expect("the result line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{line}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{line}");
            assert!(result.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
            let metrics = result.get("metrics").expect("metrics");
            for (name, unit) in want {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing from {line}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}");
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
            printed.clear();
            runs += 1;
        }
    }
    assert_eq!(runs, 2 * workloads);
}
