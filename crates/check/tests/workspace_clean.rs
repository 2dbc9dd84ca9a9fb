//! The real workspace must be clean: zero findings. This is the same
//! sweep `chipletqc-engine check` (and the CI `static-analysis` job)
//! runs — keeping it in the tier-1 test suite means a regression is
//! caught even before CI. Beside it, a pin on the clippy settings
//! that hold the hazards this checker does not: clippy reports what
//! its settings name, so deleting a setting must fail here.

use std::fs;
use std::path::{Path, PathBuf};

use chipletqc_check::{check_workspace, load_workspace};

fn workspace_root() -> &'static Path {
    // crates/check -> crates -> workspace root.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates dir");
    crates.parent().expect("workspace root")
}

fn read(relative: &str) -> String {
    fs::read_to_string(workspace_root().join(relative))
        .unwrap_or_else(|e| panic!("{relative} unreadable: {e}"))
}

/// The long-lived daemon paths: a panic here takes down the warm hub
/// and every queued client.
const DAEMON_FILES: &[&str] = &[
    "crates/engine/src/mesh.rs",
    "crates/engine/src/protocol.rs",
    "crates/engine/src/scheduler.rs",
    "crates/engine/src/service.rs",
    "crates/store/src/remote.rs",
    "crates/store/src/wire.rs",
];

/// What each daemon file's `#![warn(…)]` header must name;
/// `unwrap_used` comes from `[workspace.lints]`.
const DAEMON_LINTS: &[&str] = &[
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

#[test]
fn workspace_has_zero_findings() {
    let report = check_workspace(workspace_root()).expect("workspace scan failed");
    assert!(
        report.files_scanned > 50,
        "suspiciously small scan ({} files) — wrong root?",
        report.files_scanned
    );
    assert!(report.is_clean(), "workspace findings:\n{}", report.to_text());
}

#[test]
fn all_four_rules_are_registered() {
    // The clean sweep above only means something if the full rule set
    // ran: two local rules plus the two graph rules.
    assert_eq!(chipletqc_check::RULES.len(), 4, "{:?}", chipletqc_check::RULES);
    for rule in ["frame-registry", "nested-lock", "lock-order", "axis-exhaustiveness"] {
        assert!(chipletqc_check::RULES.contains(&rule), "missing {rule}");
    }
}

#[test]
fn clippy_lint_scope_is_pinned() {
    for path in DAEMON_FILES {
        let text = read(path);
        let header = text
            .find("#![warn(")
            .map(|start| &text[start..start + text[start..].find(")]").unwrap_or(0)])
            .unwrap_or_else(|| panic!("{path} lost its #![warn(…)] daemon header"));
        for lint in DAEMON_LINTS {
            assert!(header.contains(lint), "{path}'s daemon header omits {lint}");
        }
    }
    for manifest in ["crates/engine/Cargo.toml", "crates/store/Cargo.toml"] {
        assert!(
            read(manifest).contains("[lints]\nworkspace = true"),
            "{manifest} no longer opts into the workspace lints (unwrap_used)"
        );
    }

    let clippy = read("clippy.toml");
    for (key, paths) in [
        ("disallowed-methods", ["std::time::Instant::now", "std::time::SystemTime::now"]),
        ("disallowed-types", ["std::collections::HashMap", "std::collections::HashSet"]),
    ] {
        let start = clippy
            .find(&format!("{key} = ["))
            .unwrap_or_else(|| panic!("clippy.toml lost `{key}`"));
        let list = &clippy[start..start + clippy[start..].find("\n]").unwrap_or(0)];
        for path in paths {
            assert!(list.contains(&format!("path = \"{path}\"")), "`{key}` omits {path}");
        }
    }

    let mut manifests: Vec<PathBuf> = vec![workspace_root().join("Cargo.toml")];
    for entry in fs::read_dir(workspace_root().join("crates")).expect("crates dir") {
        let manifest = entry.expect("crates entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    let mut allowing: Vec<String> = manifests
        .iter()
        .filter(|m| fs::read_to_string(m).unwrap_or_default().contains("disallowed_methods"))
        .map(|m| m.strip_prefix(workspace_root()).unwrap_or(m).display().to_string())
        .collect();
    allowing.sort();
    assert_eq!(
        allowing,
        ["crates/obs/Cargo.toml"],
        "only the clock crate may read clocks freely"
    );

    // Every escape states why, in more than a word or two.
    let mut reasons = 0;
    for file in &load_workspace(workspace_root()).expect("workspace scan failed") {
        for (n, line) in file.text.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            let Some(start) = code.find("reason = \"") else { continue };
            let rest = &code[start + "reason = \"".len()..];
            let reason = &rest[..rest.find('"').unwrap_or(rest.len())];
            assert!(
                reason.split_whitespace().count() >= 3,
                "{}:{} reason too thin: {reason:?}",
                file.path,
                n + 1
            );
            reasons += 1;
        }
    }
    assert!(reasons > 0, "the tree has deliberate #[expect]s; zero is a scan bug");
}
