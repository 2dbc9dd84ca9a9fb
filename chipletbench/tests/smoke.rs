//! The benchmark's own smoke test: every workload at the tiny size,
//! untraced and traced. Each run must exit 0, verify every output, fail
//! no operation, and emit every metric `BENCHMARK.json` names for its
//! mode, with that metric's unit.
//!
//! ```text
//! cargo test --release --offline --manifest-path chipletbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of BENCHMARK.json
/// (the file keeps one metric object per line).
fn section(spec: &str, key: &str) -> Vec<(String, String)> {
    let start = spec.find(&format!("\"{key}\"")).expect("section present");
    let body = &spec[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .lines()
        .filter_map(|line| {
            let field = |k: &str| {
                let at = line.find(&format!("\"{k}\": \""))? + k.len() + 5;
                Some(line[at..].split('"').next()?.to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

/// The value of `"name": {"value": V, "unit": "unit"}` in a result line.
fn metric(line: &str, name: &str, unit: &str) -> Option<f64> {
    let prefix = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&prefix)? + prefix.len()..];
    let (value, rest) = rest.split_once(',')?;
    rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")).then(|| value.parse().ok())?
}

#[test]
fn every_workload_verifies_and_emits_every_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads: Vec<String> = spec
        .lines()
        .filter(|l| l.contains("\"why\""))
        .filter_map(|l| Some(l.split("\"name\": \"").nth(1)?.split('"').next()?.to_string()))
        .collect();
    assert_eq!(workloads, ["paper-warm", "serve-mix", "mesh-sweep"]);
    let scratch = env!("CARGO_TARGET_TMPDIR");
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_chipletbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--size", "tiny"])
                .current_dir(scratch)
                .output()
                .expect("run the benchmark");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().expect("a result line");
            assert!(line.starts_with("{\"correct\": true, "), "{workload}: {line}\n{stderr}");
            assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
            for (name, unit) in section(&spec, key) {
                let value = metric(line, &name, &unit);
                assert!(value.is_some(), "{workload} --trace {trace}: no {name} in {unit}");
            }
            if trace == "0" {
                assert_eq!(
                    metric(line, "success_ratio", "ratio"),
                    Some(1.0),
                    "error rate is 0"
                );
            }
        }
    }
}
