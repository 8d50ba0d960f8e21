//! Smoke run: every workload, untraced and traced, for one second each. Each
//! must exit 0, pass its oracles and print exactly the metrics
//! `BENCHMARK.json` declares, with their units.
//!
//! Builds the repository's `serve` binary first (into its own target
//! directory, so it never waits on the lock of the build running this test).

use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives in the repository root")
        .to_path_buf()
}

fn serve_bin(root: &Path) -> PathBuf {
    let target = root.join(".bench_build").join("smoke");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "rll-serve",
            "--bin",
            "serve",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building serve failed");
    target.join("release").join("serve")
}

/// `(name, unit)` pairs of one metric list in BENCHMARK.json.
fn declared(spec: &serde_json::JsonValue, key: &str) -> Vec<(String, String)> {
    spec.field(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.field("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string(),
                m.field("unit")
                    .and_then(|v| v.as_str())
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let root = root();
    let spec: serde_json::JsonValue = serde_json::from_str(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let workloads: Vec<String> = spec
        .field("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.field("name")
                .and_then(|v| v.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["train_oral", "serve_embed"]);
    let serve = serve_bin(&root);
    // `serve_label` is not listed (see README.md) but must keep working.
    for workload in workloads.iter().map(String::as_str).chain(["serve_label"]) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "5",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .arg("--serve-bin")
                .arg(&serve)
                .current_dir(&root)
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: serde_json::JsonValue = serde_json::from_str(last).expect("JSON result");
            assert_eq!(
                result.field("correct").and_then(|v| match v {
                    serde_json::JsonValue::Bool(b) => Some(*b),
                    _ => None,
                }),
                Some(true)
            );
            assert_eq!(result.field("failed").and_then(|v| v.as_f64()), Some(0.0));
            assert!(
                result
                    .field("attempted")
                    .and_then(|v| v.as_f64())
                    .expect("attempted")
                    >= 1.0
            );
            let metrics = result
                .field("metrics")
                .and_then(|m| m.as_object())
                .expect("metrics");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.field("value").and_then(|v| v.as_f64()).expect("value");
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    let unit = m.field("unit").and_then(|v| v.as_str()).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, declared(&spec, key), "{workload} trace {trace}");
            if trace == "0" {
                for (name, m) in metrics {
                    let value = m.field("value").and_then(|v| v.as_f64()).expect("value");
                    assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }
        }
    }
    assert!(
        !root.join(".perfbench_tmp").exists(),
        "runs must remove their working directories"
    );
}
