//! The benchmark's output against its declaration: every workload, run
//! at reduced size with tracing off and on, must print every metric
//! `BENCHMARK.json` declares for that mode, with the declared unit and a
//! finite value above 0, plus its attempted and failed operation counts.

use std::path::PathBuf;
use std::process::Command;

use valbench::json::{self, Value};

fn declaration() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the harness"))
        .expect("BENCHMARK.json parses")
}

/// Runs the harness and parses its last stdout line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_valbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--scale",
            "small",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the harness runs");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}, stderr {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: result line does not parse ({e}): {last}"))
}

fn assert_declared(result: &Value, declared: &[Value], what: &str) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}: {result:?}");
    let attempted = result.num_at("attempted").expect("attempted count");
    let failed = result.num_at("failed").expect("failed count");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{what}: attempted {attempted}");
    assert!(failed == 0.0, "{what}: {failed} operations failed");
    let metrics = result.get("metrics").expect("metrics object");
    let Value::Obj(reported) = metrics else { panic!("{what}: metrics is not an object") };
    assert_eq!(
        reported.len(),
        declared.len(),
        "{what}: reported {:?}",
        reported.keys().collect::<Vec<_>>()
    );
    for d in declared {
        let name = d.str_at("name").expect("declared name");
        let m = metrics.get(name).unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(m.str_at("unit"), d.str_at("unit"), "{what}: unit of {name}");
        let v = m.num_at("value").unwrap_or_else(|| panic!("{what}: {name} has no numeric value"));
        assert!(v.is_finite() && v > 0.0, "{what}: {name} = {v}");
    }
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let decl = declaration();
    let workloads = decl.get("workloads").and_then(Value::arr).expect("workloads");
    let e2e = decl.get("end_to_end").and_then(Value::arr).expect("end_to_end");
    let layers = decl.get("per_layer").and_then(Value::arr).expect("per_layer");
    assert_eq!(workloads.len(), 3);
    for w in workloads {
        let name = w.str_at("name").expect("workload name");
        assert_declared(&run(name, "0"), e2e, &format!("{name} untraced"));
        assert_declared(&run(name, "1"), layers, &format!("{name} traced"));
    }
}

#[test]
fn refuses_dispatch_and_fault_knobs() {
    for var in ["VALMOD_FORCE_PORTABLE", "VALMOD_FORCE_WIDTH", "VALMOD_FAULT"] {
        let out = Command::new(env!("CARGO_BIN_EXE_valbench"))
            .args([
                "--workload",
                "batch-narrow",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--scale",
                "small",
            ])
            .env(var, "1")
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("the harness runs");
        assert!(!out.status.success(), "{var} was not refused");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
    }
}
