//! Fixture corpus: one known-bad and one known-good file per rule.
//! Each fixture is checked under a pseudo-path inside the rule's
//! scope, so the test exercises exactly the scoping a real workspace
//! file would get.

use std::fs;
use std::path::Path;

use chipletqc_check::{check_files, CheckReport, SourceFile};

/// Loads a fixture and assigns it the given workspace pseudo-path.
fn fixture(name: &str, pseudo_path: &str) -> SourceFile {
    let disk = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let text = fs::read_to_string(&disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", disk.display()));
    SourceFile { path: pseudo_path.to_string(), text }
}

fn run(name: &str, pseudo_path: &str) -> CheckReport {
    check_files(&[fixture(name, pseudo_path)])
}

/// The bad fixture must produce at least one finding under the target
/// rule; the good fixture must be fully clean.
fn assert_pair(rule: &str, bad: &str, good: &str, pseudo_path: &str) {
    let bad_report = run(bad, pseudo_path);
    assert!(
        bad_report.findings.iter().any(|f| f.rule == rule),
        "{bad} under {pseudo_path}: expected a `{rule}` finding, got {:?}",
        bad_report.findings
    );
    let good_report = run(good, pseudo_path);
    assert!(
        good_report.is_clean(),
        "{good} under {pseudo_path}: expected clean, got {:?}",
        good_report.findings
    );
}

#[test]
fn frame_registry_fixtures() {
    assert_pair(
        "frame-registry",
        "frame_registry_bad.rs",
        "frame_registry_good.rs",
        "crates/engine/src/protocol.rs",
    );
}

#[test]
fn frame_registry_is_scoped_to_frame_files() {
    // Outside the two frame files a `{VERSION} …` string is just a
    // string.
    let report = run("frame_registry_bad.rs", "crates/engine/src/main.rs");
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn nested_lock_fixtures() {
    assert_pair(
        "nested-lock",
        "nested_lock_bad.rs",
        "nested_lock_good.rs",
        "crates/math/src/pair.rs",
    );
}

#[test]
fn lock_order_fixtures() {
    assert_pair(
        "lock-order",
        "lock_order_bad.rs",
        "lock_order_good.rs",
        "crates/engine/src/scheduler.rs",
    );
}

#[test]
fn lock_order_cycle_across_call_edges_is_invisible_to_nested_lock() {
    // Each function in the bad fixture acquires exactly one lock in
    // its own body — the old per-fn rule has nothing to report — yet
    // the call-edge-propagated graph closes the cycle.
    let report = run("lock_order_bad.rs", "crates/engine/src/scheduler.rs");
    assert!(
        !report.findings.iter().any(|f| f.rule == "nested-lock"),
        "nested-lock fired where it provably cannot see: {:?}",
        report.findings
    );
    let cycles: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .map(|f| f.message.as_str())
        .collect();
    assert!(cycles.len() >= 2, "expected both half-cycles, got {cycles:?}");
    assert!(cycles.iter().all(|m| m.contains("lock-order cycle")), "{cycles:?}");
}

#[test]
fn axis_exhaustiveness_fixtures() {
    assert_pair(
        "axis-exhaustiveness",
        "axis_exhaustiveness_bad.rs",
        "axis_exhaustiveness_good.rs",
        "crates/engine/src/sweep.rs",
    );
}

#[test]
fn axis_exhaustiveness_is_scoped_to_the_sweep_file() {
    // `struct Sweep` anywhere else is just a struct.
    let report = run("axis_exhaustiveness_bad.rs", "crates/engine/src/scenario.rs");
    assert!(
        !report.findings.iter().any(|f| f.rule == "axis-exhaustiveness"),
        "{:?}",
        report.findings
    );
}
