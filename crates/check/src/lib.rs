//! `chipletqc-check` — a workspace invariant checker. Std-only, zero
//! deps, consistent with the vendored no-network policy.
//!
//! The reproduction's contract — `RunReport` bytes identical at any
//! worker count, shard count, transport, or mesh shape, served by a
//! daemon that never dies — is enforced dynamically by tests that
//! sample a few configurations. This crate enforces the
//! *preconditions* statically, on every source file, every run.
//!
//! Analysis is two-pass: pass 1 builds a whole-workspace
//! [`symbols::SymbolIndex`] (fn definitions, classed lock sites,
//! name-resolved call edges, sweep axes) from the lexer output; pass 2
//! runs two local rules per file and two graph rules over the index:
//!
//! * **frame-registry** — every protocol frame literal appears in the
//!   central registry ([`frames::FRAMES`]), which is itself statically
//!   verified well-formed, discriminable, and pairwise prefix-free.
//! * **nested-lock** — no lock acquired while another guard from the
//!   same function body is live (unclassed guards; classed pairs
//!   belong to `lock-order`).
//! * **lock-order** — the global lock-order graph over the workspace
//!   lock classes must be acyclic, with lock summaries propagated
//!   along call edges so a guard held across a call into a function
//!   that locks elsewhere is found across files.
//! * **axis-exhaustiveness** — every `Vec` axis of `struct Sweep` is
//!   handled in every axis handler fn.
//!
//! Rules are deny-by-default with no escape hatch: a finding is fixed,
//! or its locks are added to [`symbols::LOCK_CLASSES`]. Hash
//! collections, clock reads and daemon-path panics are clippy's
//! (`clippy.toml`, the workspace lints, and a `#![warn(…)]` header
//! atop each daemon file), where an escape is an
//! `#[expect(lint, reason = "…")]`. Run this checker as
//! `chipletqc-engine check [--format text|json] [--root DIR]`.

pub mod frames;
mod graph;
pub mod lexer;
mod rules;
pub mod symbols;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::RULES;
pub use symbols::SymbolIndex;

/// One source file handed to the engine: a workspace-relative,
/// `/`-separated path (scoping is path-based) plus its text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// A rule violation. `rule` is one of [`RULES`].
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub message: String,
}

/// The outcome of one check run. Deterministically ordered: findings
/// are sorted by (path, line, rule).
#[derive(Debug)]
pub struct CheckReport {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl CheckReport {
    /// Deny-by-default: clean means zero findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering: one `path:line: [rule] message` per
    /// finding and a summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{} files scanned, {} finding(s)",
            self.files_scanned,
            self.findings.len()
        );
        out
    }

    /// Machine-readable rendering. Schema 3 is pinned by a
    /// golden-shape test: top-level `schema` / `files_scanned` /
    /// `clean` / `findings`; findings carry `rule` / `file` / `line` /
    /// `message`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 3,\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                json_str(&f.message)
            );
        }
        out.push_str(if self.findings.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs every rule over an explicit file set. Scoping is path-based,
/// so fixture tests exercise a rule by handing it content under an
/// in-scope pseudo-path.
pub fn check_files(files: &[SourceFile]) -> CheckReport {
    rules::analyze(files)
}

/// Pass 1 alone: the workspace symbol index for `files`. Callers that
/// want per-pass timing build the index themselves and hand it to
/// [`check_files_indexed`].
pub fn build_index(files: &[SourceFile]) -> SymbolIndex {
    SymbolIndex::build(files)
}

/// Pass 2 alone: every rule over a prebuilt index.
pub fn check_files_indexed(files: &[SourceFile], index: &SymbolIndex) -> CheckReport {
    rules::analyze_indexed(files, index)
}

/// Reads `crates/*/src/**/*.rs` under the workspace root (vendored
/// stand-ins and build output are out of scope), sorted by path.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs(&src, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Loads the workspace and runs every rule.
pub fn check_workspace(root: &Path) -> io::Result<CheckReport> {
    Ok(check_files(&load_workspace(root)?))
}

fn collect_rs(dir: &Path, root: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile { path: rel, text: fs::read_to_string(&path)? });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile { path: path.to_string(), text: text.to_string() }
    }

    #[test]
    fn json_escapes_are_valid() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn clean_file_reports_clean() {
        let report = check_files(&[file(
            "crates/core/src/lab.rs",
            "use std::collections::BTreeMap;\nfn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n",
        )]);
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn output_is_deterministic_and_sorted() {
        let nested = "fn f(p: &P) { let a = p.left.lock(); let b = p.right.lock(); }\n";
        let files =
            [file("crates/core/src/b.rs", nested), file("crates/core/src/a.rs", nested)];
        let report = check_files(&files);
        let paths: Vec<&str> = report.findings.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["crates/core/src/a.rs", "crates/core/src/b.rs"]);
        let again = check_files(&files);
        assert_eq!(report.to_json(), again.to_json());
    }
}
