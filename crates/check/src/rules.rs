//! The rule engine: two named, deny-by-default lints. There is no
//! escape hatch: a finding is fixed, or (for a lock pair whose order
//! is deliberate) both locks join [`crate::symbols::LOCK_CLASSES`] so
//! `lock-order` judges the order globally.
//!
//! Analysis runs in two passes: pass 1 builds the workspace
//! [`SymbolIndex`] (fn spans, classed lock sites, resolved call
//! sites), pass 2 runs `nested-lock` over the lock sites and
//! `lock-order` ([`crate::graph`]) over the call graph.

use crate::graph;
use crate::symbols::SymbolIndex;
use crate::{CheckReport, Finding, SourceFile};

/// The rule names, as they appear in findings.
pub const RULES: &[&str] = &["nested-lock", "lock-order"];

pub fn analyze(files: &[SourceFile]) -> CheckReport {
    let index = SymbolIndex::build(files);
    analyze_indexed(files, &index)
}

/// Pass 2 over a prebuilt index (the CLI builds the index under its
/// own obs span, then calls this).
pub fn analyze_indexed(files: &[SourceFile], index: &SymbolIndex) -> CheckReport {
    let mut findings: Vec<Finding> = Vec::new();
    nested_lock(files, index, &mut findings);
    graph::lock_order(files, index, &mut findings);

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
