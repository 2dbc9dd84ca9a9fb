//! The rule engine: four named, deny-by-default lints. There is no
//! escape hatch: a finding is fixed, or (for a lock pair whose order
//! is deliberate) both locks join [`crate::symbols::LOCK_CLASSES`] so
//! `lock-order` judges the order globally.
//!
//! Analysis runs in two passes: pass 1 builds the workspace
//! [`symbols::SymbolIndex`] (fn spans, classed lock sites, resolved
//! call sites, sweep axes), pass 2 runs the two local rules over each
//! file and the two graph rules ([`crate::graph`]) over the index.

use crate::frames;
use crate::graph;
use crate::lexer::{Lexed, TokenKind};
use crate::symbols::SymbolIndex;
use crate::{CheckReport, Finding, SourceFile};

/// The rule names, as they appear in findings.
pub const RULES: &[&str] =
    &["frame-registry", "nested-lock", "lock-order", "axis-exhaustiveness"];

/// The two files that write or read wire frames.
const FRAME_FILES: &[&str] = &["crates/engine/src/protocol.rs", "crates/store/src/remote.rs"];

/// Where the registry table itself lives; registry-level defects and
/// stale-row findings anchor here.
const REGISTRY_FILE: &str = "crates/check/src/frames.rs";

pub fn analyze(files: &[SourceFile]) -> CheckReport {
    let index = SymbolIndex::build(files);
    analyze_indexed(files, &index)
}

/// Pass 2 over a prebuilt index (the CLI builds the index under its
/// own obs span, then calls this).
pub fn analyze_indexed(files: &[SourceFile], index: &SymbolIndex) -> CheckReport {
    let mut findings: Vec<Finding> = Vec::new();
    for (i, file) in files.iter().enumerate() {
        frame_literals(file, &index.lexed[i], &mut findings);
    }
    nested_lock(files, index, &mut findings);
    graph::lock_order(files, index, &mut findings);
    graph::axis_exhaustiveness(files, index, &mut findings);
    frame_registry_global(files, index, &mut findings);

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    CheckReport { findings, files_scanned: files.len() }
}

/// Rule `nested-lock`: a `.lock()`/`.read()`/`.write()` acquired
/// while another guard from the same function body may still be live
/// — the lock-order-inversion shape that deadlocks the multi-tenant
/// service. Liveness comes from the symbol index (let-bound guards
/// until block close or `drop(name)`, temporaries until the `;`;
/// stdio locks exempt). When both the held guard and the new
/// acquisition belong to workspace lock classes, the site is the
/// whole-workspace `lock-order` graph's responsibility instead: a
/// consistent classed order needs no per-site annotation, and an
/// inconsistent one is a `lock-order` cycle finding even when the
/// acquisitions live in different functions or files.
fn nested_lock(files: &[SourceFile], index: &SymbolIndex, out: &mut Vec<Finding>) {
    for site in &index.lock_sites {
        let Some(held) = &site.held_first else { continue };
        if held.class.is_some() && site.class.is_some() {
            continue;
        }
        let held_desc = match &held.name {
            Some(name) => format!("`{name}` (line {})", held.line),
            None => format!("a temporary guard (line {})", held.line),
        };
        out.push(Finding {
            rule: "nested-lock",
            path: files[site.file].path.clone(),
            line: site.line,
            message: format!(
                "`.{}()` while {held_desc} may still be held — drop the first guard \
                 first, reorder the acquisitions, or add both locks to `LOCK_CLASSES` \
                 so `lock-order` judges the order",
                site.method
            ),
        });
    }
}

/// Per-file half of rule `frame-registry`: every string literal of
/// the form `{VERSION} <verb>` in a frame file must name a registered
/// frame. The dynamic-writer form (`"{VERSION} {verb}"`) carries no
/// literal verb and is covered by the reverse check instead.
fn frame_literals(file: &SourceFile, lex: &Lexed, out: &mut Vec<Finding>) {
    if !FRAME_FILES.contains(&file.path.as_str()) {
        return;
    }
    for token in lex.tokens.iter().filter(|t| t.kind == TokenKind::Str) {
        let Some(verb) = frame_verb(&token.text) else { continue };
        if !frames::is_registered(verb) {
            out.push(Finding {
                rule: "frame-registry",
                path: file.path.clone(),
                line: token.line,
                message: format!(
                    "frame verb `{verb}` is not in the registry — add a FrameSpec row to \
                     {REGISTRY_FILE} (and prove prefix-freedom) before emitting it"
                ),
            });
        }
    }
}

/// Extracts the literal verb from a `{VERSION} …` format string, or
/// None when the string is not a frame head or the verb is itself an
/// interpolation.
fn frame_verb(content: &str) -> Option<&str> {
    let rest = content.strip_prefix("{VERSION} ")?;
    let end = rest
        .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some(&rest[..end])
}

/// Workspace half of rule `frame-registry`, run only when both frame
/// files are in the scanned set (fixture runs see a partial corpus):
/// registry self-consistency (verb/header well-formedness, shape
/// discriminability, pairwise prefix-freedom of rendered heads), no
/// stale registry rows, and VERSION agreement with `wire.rs`. These
/// findings anchor on the registry, not a source site.
fn frame_registry_global(files: &[SourceFile], index: &SymbolIndex, out: &mut Vec<Finding>) {
    let frame_files: Vec<usize> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| FRAME_FILES.contains(&f.path.as_str()))
        .map(|(i, _)| i)
        .collect();
    if frame_files.len() < FRAME_FILES.len() {
        return;
    }

    for defect in frames::corpus_defects() {
        out.push(Finding {
            rule: "frame-registry",
            path: REGISTRY_FILE.to_string(),
            line: 1,
            message: defect,
        });
    }

    // Reverse check: every registered verb must be reachable from the
    // sources — either as a `{VERSION} verb` head literal or as a
    // bare verb literal (reader match arms, dynamic-writer callers).
    let mut literals: Vec<&str> = Vec::new();
    for &fi in &frame_files {
        for token in index.lexed[fi].tokens.iter().filter(|t| t.kind == TokenKind::Str) {
            literals.push(&token.text);
        }
    }
    for spec in frames::FRAMES {
        let seen = literals
            .iter()
            .any(|text| frame_verb(text) == Some(spec.verb) || *text == spec.verb);
        if !seen {
            out.push(Finding {
                rule: "frame-registry",
                path: REGISTRY_FILE.to_string(),
                line: 1,
                message: format!(
                    "registry row `{}` {:?} matches no literal in {} — stale row?",
                    spec.verb,
                    spec.headers,
                    FRAME_FILES.join(" / ")
                ),
            });
        }
    }

    // The registry's VERSION constant must track the wire module's.
    if let Some(wire) = files.iter().position(|f| f.path == "crates/store/src/wire.rs") {
        let declared = index.lexed[wire]
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str && t.text.starts_with("chipletqc/"))
            .map(|t| t.text.as_str());
        if declared != Some(frames::VERSION) {
            out.push(Finding {
                rule: "frame-registry",
                path: REGISTRY_FILE.to_string(),
                line: 1,
                message: format!(
                    "registry VERSION `{}` does not match wire.rs ({declared:?})",
                    frames::VERSION
                ),
            });
        }
    }
}
