//! Pass 2 of the two-pass analyzer: the graph rules. Everything here
//! reads the [`SymbolIndex`] — no re-tokenization, no per-file
//! heuristics.
//!
//! * **lock-order** — build the global lock-order graph over the
//!   classed locks ([`crate::symbols::LOCK_CLASSES`]): an edge A → B
//!   for every acquisition of class B while class A is held, and for
//!   every call made while A is held into a function whose transitive
//!   lock summary (a fixpoint over the workspace call graph) contains
//!   B. Only *cycles* are findings — a consistent global order is
//!   fine wherever it is taken, so classed pairs need nothing from
//!   `nested-lock`. A lock held across a call into a function that
//!   takes another lock is found even when the two acquisitions live
//!   in different files.
//! * **axis-exhaustiveness** — every `Vec` axis field of
//!   `struct Sweep` must be referenced in every axis handler
//!   (`expanded_len`, `validate`, `expand`, `to_text`, `parse`): a
//!   new axis that expands but does not validate (or prints but does
//!   not parse) fails `check`, not a 3 AM sweep.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokenKind;
use crate::symbols::{SymbolIndex, SWEEP_FILE};
use crate::{Finding, SourceFile};

/// Functions that must each handle every sweep axis.
const AXIS_HANDLERS: &[&str] = &["expanded_len", "validate", "expand", "to_text", "parse"];

/// One contribution to a lock-order edge, anchored at the acquisition
/// or call that adds it.
struct EdgeSite {
    path: String,
    line: usize,
    detail: String,
}

pub(crate) fn lock_order(files: &[SourceFile], index: &SymbolIndex, out: &mut Vec<Finding>) {
    // Per-fn lock summaries: every class the function may acquire,
    // directly or through any call chain, computed by fixpoint (the
    // call graph has cycles; the summary lattice is finite).
    let mut summaries: Vec<BTreeSet<&'static str>> = vec![BTreeSet::new(); index.fns.len()];
    for site in &index.lock_sites {
        if let (Some(caller), Some(class)) = (site.caller, site.class) {
            summaries[caller].insert(class);
        }
    }
    loop {
        let mut changed = false;
        for call in &index.call_sites {
            let Some(caller) = call.caller else { continue };
            for &callee in &call.callees {
                if callee == caller {
                    continue;
                }
                let add: Vec<&'static str> = summaries[callee].iter().copied().collect();
                for class in add {
                    changed |= summaries[caller].insert(class);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // The edge set. Direct edges: class B acquired while A held.
    // Propagated edges: a call made while A is held, into a function
    // whose summary contains B.
    let mut edges: BTreeMap<(&'static str, &'static str), Vec<EdgeSite>> = BTreeMap::new();
    for site in &index.lock_sites {
        let Some(to) = site.class else { continue };
        for held in &site.held_classes {
            edges.entry((held.class, to)).or_default().push(EdgeSite {
                path: files[site.file].path.clone(),
                line: site.line,
                detail: format!(
                    "`.{}()` acquires `{to}` while `{}` (line {}) is held",
                    site.method, held.class, held.line
                ),
            });
        }
    }
    for call in &index.call_sites {
        if call.held.is_empty() {
            continue;
        }
        let mut may_acquire: BTreeSet<&'static str> = BTreeSet::new();
        for &callee in &call.callees {
            may_acquire.extend(summaries[callee].iter().copied());
        }
        for to in may_acquire {
            for held in &call.held {
                edges.entry((held.class, to)).or_default().push(EdgeSite {
                    path: files[call.file].path.clone(),
                    line: call.line,
                    detail: format!(
                        "call into `{}` may acquire `{to}` while `{}` (line {}) is held",
                        call.name, held.class, held.line
                    ),
                });
            }
        }
    }

    // Reachability closure over the class graph; an edge A → B is a
    // finding iff B reaches back to A (B == A is the self-loop case:
    // these mutexes are not reentrant).
    let succ: BTreeMap<&'static str, BTreeSet<&'static str>> = {
        let mut s: BTreeMap<&'static str, BTreeSet<&'static str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            s.entry(from).or_default().insert(to);
        }
        s
    };
    let reaches = |from: &'static str, to: &'static str| -> bool {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([from]);
        while let Some(node) = queue.pop_front() {
            if node == to {
                return true;
            }
            if !seen.insert(node) {
                continue;
            }
            if let Some(next) = succ.get(node) {
                queue.extend(next.iter().copied());
            }
        }
        false
    };

    for ((from, to), sites) in &edges {
        if !(from == to || reaches(to, from)) {
            continue;
        }
        let cycle = cycle_path(&succ, from, to);
        let mut seen_lines: BTreeSet<(&str, usize)> = BTreeSet::new();
        for site in sites {
            if !seen_lines.insert((&site.path, site.line)) {
                continue;
            }
            out.push(Finding {
                rule: "lock-order",
                path: site.path.clone(),
                line: site.line,
                message: format!(
                    "{} — closes the lock-order cycle {cycle}; reorder the acquisitions \
                     or drop the guard before the call, so every path takes these locks \
                     in one order",
                    site.detail
                ),
            });
        }
    }
}

/// A cycle witness through the edge `from → to`: the shortest path
/// from `to` back to `from`, rendered `from -> to -> … -> from`.
fn cycle_path(
    succ: &BTreeMap<&'static str, BTreeSet<&'static str>>,
    from: &'static str,
    to: &'static str,
) -> String {
    if from == to {
        return format!("{from} -> {to}");
    }
    let mut prev: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    let mut queue = VecDeque::from([to]);
    while let Some(node) = queue.pop_front() {
        if node == from {
            break;
        }
        for &next in succ.get(node).into_iter().flatten() {
            if next != to && !prev.contains_key(next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    let mut back = vec![from];
    while let Some(&p) = prev.get(back.last().copied().unwrap_or(from)) {
        back.push(p);
        if p == to {
            break;
        }
    }
    // back is [from, …, to]; the cycle reads from -> to -> … -> from.
    let mut names: Vec<&str> = vec![from];
    names.extend(back.iter().rev().copied());
    names.join(" -> ")
}

pub(crate) fn axis_exhaustiveness(
    files: &[SourceFile],
    index: &SymbolIndex,
    out: &mut Vec<Finding>,
) {
    if index.axis_fields.is_empty() {
        return;
    }
    let file = index.axis_fields[0].file;
    let first_line = index.axis_fields[0].line;
    let t = &index.lexed[file].tokens;
    for handler in AXIS_HANDLERS {
        let defs = index.fns_named(file, handler);
        if defs.is_empty() {
            out.push(Finding {
                rule: "axis-exhaustiveness",
                path: files[file].path.clone(),
                line: first_line,
                message: format!(
                    "axis handler fn `{handler}` not found in {SWEEP_FILE} — every sweep \
                     axis must be counted, validated, expanded, printed, and parsed"
                ),
            });
            continue;
        }
        for axis in &index.axis_fields {
            let mentioned = defs.iter().any(|&id| {
                let def = &index.fns[id];
                t[def.start..def.end.min(t.len())]
                    .iter()
                    .any(|tok| tok.kind == TokenKind::Ident && tok.text == axis.name)
            });
            if !mentioned {
                out.push(Finding {
                    rule: "axis-exhaustiveness",
                    path: files[file].path.clone(),
                    line: axis.line,
                    message: format!(
                        "sweep axis `{}` is not handled in `{handler}` — a `Vec` axis on \
                         `Sweep` must appear in every axis handler ({})",
                        axis.name,
                        AXIS_HANDLERS.join(", ")
                    ),
                });
            }
        }
    }
}
