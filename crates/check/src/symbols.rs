//! Pass 1 of the two-pass analyzer: a whole-workspace symbol index
//! built from the lexer output. Pass 2 (the graph rules in
//! [`crate::graph`]) never re-tokenizes — everything interprocedural
//! reads from here.
//!
//! The index records, per file:
//!
//! * **fn definitions** — name plus the token span of the item, so a
//!   site can be attributed to its innermost enclosing function;
//! * **lock-acquisition sites** — every `.lock()`/`.read()`/`.write()`
//!   with empty parens, tagged with its *lock class* (the
//!   [`LOCK_CLASSES`] table keys on file + receiver identifier) and
//!   with the guards still live at the acquisition, using the same
//!   liveness model the per-file `nested-lock` rule always used:
//!   let-bound guards live to the end of their block or an explicit
//!   `drop(name)`, temporaries die at the statement's `;`;
//! * **call sites** — calls resolved *by name* to workspace fn
//!   definitions, tagged with the classed guards held at the call.
//!   Resolution is deliberately conservative: method calls resolve
//!   within the defining file only, free calls within the file then
//!   the crate, and path calls through a `crate::`/`Self::`/crate-lib
//!   or module-file qualifier. Unresolvable calls produce no edges
//!   (under-approximation, never false cycles).

use std::collections::BTreeMap;

use crate::lexer::{self, Lexed, Token, TokenKind};
use crate::SourceFile;

/// The workspace lock-class table: (file, receiver identifier,
/// class). A `.lock()`/`.read()`/`.write()` whose receiver identifier
/// matches a row is an acquisition of that class; everything else is
/// unclassed and stays in per-fn `nested-lock` territory. Classes are
/// per-file because receiver names repeat (`state` is the scheduler's
/// pool state in scheduler.rs and the admission queue in service.rs).
pub const LOCK_CLASSES: &[(&str, &str, &str)] = &[
    ("crates/engine/src/scheduler.rs", "state", "pool-state"),
    ("crates/engine/src/scheduler.rs", "sched", "batch-sched"),
    ("crates/engine/src/service.rs", "state", "admission-state"),
    ("crates/engine/src/service.rs", "reset_gate", "reset-gate"),
    ("crates/engine/src/mesh.rs", "state", "mesh-state"),
    ("crates/store/src/remote.rs", "conn", "peer-conn"),
    ("crates/store/src/remote.rs", "circuit", "peer-circuit"),
    ("crates/store/src/lib.rs", "writers", "store-writers"),
    ("crates/core/src/lab.rs", "inner", "hub-inner"),
    ("crates/core/src/lab.rs", "map", "hub-slot"),
    ("crates/obs/src/lib.rs", "counters", "obs-registry"),
    ("crates/obs/src/lib.rs", "gauges", "obs-registry"),
    ("crates/obs/src/lib.rs", "histograms", "obs-registry"),
    ("crates/obs/src/lib.rs", "trace_sink", "obs-trace"),
];

/// The class of a lock acquisition, by file and receiver identifier.
pub fn lock_class(path: &str, receiver: &str) -> Option<&'static str> {
    LOCK_CLASSES
        .iter()
        .find(|(p, r, _)| *p == path && *r == receiver)
        .map(|(_, _, class)| *class)
}

/// Method names never resolved to workspace definitions. Condvar
/// protocol methods (`wait` takes and returns the guard — reentrancy
/// is the whole point) must not read as "a call that locks", and the
/// std container/iterator/atomic vocabulary below shadows any
/// same-named workspace fn at nearly every call site, so resolving it
/// by bare name would manufacture edges that do not exist.
const METHOD_STOPLIST: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "notify_all",
    "notify_one",
    "clone",
    "drop",
    "lock",
    "read",
    "write",
    "try_lock",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "take",
    "into_inner",
    "as_ref",
    "as_mut",
    "len",
    "is_empty",
    "push",
    "pop",
    "push_back",
    "pop_front",
    "insert",
    "remove",
    "retain",
    "clear",
    "position",
    "contains",
    "contains_key",
    "get",
    "get_mut",
    "entry",
    "iter",
    "iter_mut",
    "into_iter",
    "map",
    "and_then",
    "filter",
    "collect",
    "extend",
    "join",
    "load",
    "store",
    "swap",
    "fetch_add",
    "elapsed",
];

/// Keywords (and the ubiquitous enum constructors) that look like
/// `name(` but are never calls into a workspace fn.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "else", "in", "as", "move",
    "ref", "mut", "unsafe", "Some", "None", "Ok", "Err",
];

/// One `fn` item: where it is and which token span it covers
/// (signature through body close), so sites attribute to their
/// innermost enclosing definition.
#[derive(Debug)]
pub struct FnDef {
    pub file: usize,
    pub name: String,
    pub line: usize,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// One past the body's closing `}` (or the declaration's `;`).
    pub end: usize,
}

/// A classed guard live at a site.
#[derive(Debug, Clone)]
pub struct HeldLock {
    pub class: &'static str,
    /// Line the held guard was acquired on.
    pub line: usize,
}

/// The first live guard at a site, classed or not — what the per-fn
/// `nested-lock` rule reports against.
#[derive(Debug, Clone)]
pub struct HeldGuard {
    pub name: Option<String>,
    pub line: usize,
    pub class: Option<&'static str>,
}

/// One `.lock()`/`.read()`/`.write()` acquisition (stdio excluded).
#[derive(Debug)]
pub struct LockSite {
    pub file: usize,
    pub line: usize,
    /// `lock`, `read`, or `write`.
    pub method: String,
    pub class: Option<&'static str>,
    /// Classed guards live at this acquisition (deduped by class).
    pub held_classes: Vec<HeldLock>,
    /// The first live guard of any kind, for `nested-lock`.
    pub held_first: Option<HeldGuard>,
    /// Innermost enclosing fn, as an index into [`SymbolIndex::fns`].
    pub caller: Option<usize>,
}

/// One call resolved (possibly to several same-named candidates) into
/// the workspace.
#[derive(Debug)]
pub struct CallSite {
    pub file: usize,
    pub line: usize,
    pub name: String,
    /// Candidate definitions, as indices into [`SymbolIndex::fns`].
    pub callees: Vec<usize>,
    /// Classed guards live at the call (deduped by class).
    pub held: Vec<HeldLock>,
    pub caller: Option<usize>,
}

/// The owned pass-1 output: every extracted symbol, in deterministic
/// file/token order.
pub struct SymbolIndex {
    pub fns: Vec<FnDef>,
    pub lock_sites: Vec<LockSite>,
    pub call_sites: Vec<CallSite>,
}

impl SymbolIndex {
    pub fn build(files: &[SourceFile]) -> SymbolIndex {
        let lexed: Vec<Lexed> = files.iter().map(|f| lexer::lex(&f.text)).collect();

        let mut fns: Vec<FnDef> = Vec::new();
        for (fi, lex) in lexed.iter().enumerate() {
            collect_fns(fi, &lex.tokens, &mut fns);
        }

        let resolver = Resolver::new(files, &fns);
        let mut lock_sites = Vec::new();
        let mut call_sites = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let lex = &lexed[fi];
            let mut sites = FileSites::default();
            scan_sites(fi, &file.path, &lex.tokens, &fns, &resolver, &mut sites);
            lock_sites.extend(sites.locks);
            call_sites.extend(sites.calls);
        }
        SymbolIndex { fns, lock_sites, call_sites }
    }
}

/// The receiver identifier of a `.lock()`-shaped acquisition or a
/// method call at token `i` (the method name; `t[i-1]` is the `.`):
/// the identifier before the dot, looking through one balanced call
/// suffix so `trace_sink().lock()` resolves to `trace_sink`.
pub fn receiver_of(t: &[Token], i: usize) -> Option<String> {
    if i < 2 {
        return None;
    }
    let j = i - 2;
    let prev = &t[j];
    if prev.kind == TokenKind::Ident {
        return Some(prev.text.clone());
    }
    if prev.is_punct(')') {
        let mut depth = 0i64;
        let mut k = j;
        loop {
            if t[k].is_punct(')') {
                depth += 1;
            } else if t[k].is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
        if k > 0 && t[k - 1].kind == TokenKind::Ident {
            return Some(t[k - 1].text.clone());
        }
    }
    None
}

fn collect_fns(fi: usize, t: &[Token], out: &mut Vec<FnDef>) {
    for i in 0..t.len() {
        if !t[i].is_ident("fn") {
            continue;
        }
        let Some(name) = t.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else { continue };
        // Find the body: the first `{` (or declaration `;`) at paren
        // depth zero after the signature, then its matching `}`.
        let mut j = i + 2;
        let mut paren = 0i64;
        let end = loop {
            match t.get(j) {
                None => break j,
                Some(tok) if tok.is_punct('(') || tok.is_punct('[') => paren += 1,
                Some(tok) if tok.is_punct(')') || tok.is_punct(']') => paren -= 1,
                Some(tok) if paren == 0 && tok.is_punct(';') => break j + 1,
                Some(tok) if paren == 0 && tok.is_punct('{') => {
                    let mut depth = 0i64;
                    let mut k = j;
                    break loop {
                        match t.get(k) {
                            None => break k,
                            Some(tok) if tok.is_punct('{') => depth += 1,
                            Some(tok) if tok.is_punct('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    break k + 1;
                                }
                            }
                            Some(_) => {}
                        }
                        k += 1;
                    };
                }
                Some(_) => {}
            }
            j += 1;
        };
        out.push(FnDef { file: fi, name: name.text.clone(), line: t[i].line, start: i, end });
    }
}

/// Innermost fn containing token `i` of file `fi`: the definition
/// with the largest `start` among those whose span covers `i`.
fn innermost_fn(fns: &[FnDef], fi: usize, i: usize) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, d)| d.file == fi && d.start <= i && i < d.end)
        .max_by_key(|(_, d)| d.start)
        .map(|(id, _)| id)
}

/// Name-resolution maps, built once over every fn definition.
struct Resolver<'a> {
    files: &'a [SourceFile],
    /// name -> fn ids, per file.
    by_file: BTreeMap<(usize, &'a str), Vec<usize>>,
    /// name -> fn ids, per crate directory.
    by_crate: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// crate lib name (`chipletqc_obs`) -> crate directory (`obs`).
    lib_names: BTreeMap<String, &'a str>,
    /// module file stem -> files having it; resolution uses the
    /// caller's crate first, any crate when unique.
    module_stems: BTreeMap<&'a str, Vec<usize>>,
}

/// The crate directory of a workspace path (`crates/<dir>/src/…`).
fn crate_dir(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

fn file_stem(path: &str) -> Option<&str> {
    path.rsplit('/').next()?.strip_suffix(".rs")
}

impl<'a> Resolver<'a> {
    fn new(files: &'a [SourceFile], fns: &'a [FnDef]) -> Resolver<'a> {
        let mut by_file: BTreeMap<(usize, &str), Vec<usize>> = BTreeMap::new();
        let mut by_crate: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, def) in fns.iter().enumerate() {
            by_file.entry((def.file, def.name.as_str())).or_default().push(id);
            if let Some(dir) = crate_dir(&files[def.file].path) {
                by_crate.entry((dir, def.name.as_str())).or_default().push(id);
            }
        }
        let mut lib_names = BTreeMap::new();
        let mut module_stems: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            if let Some(dir) = crate_dir(&file.path) {
                lib_names.insert(format!("chipletqc_{dir}"), dir);
            }
            if let Some(stem) = file_stem(&file.path) {
                module_stems.entry(stem).or_default().push(fi);
            }
        }
        Resolver { files, by_file, by_crate, lib_names, module_stems }
    }

    fn in_file(&self, file: usize, name: &str) -> Vec<usize> {
        self.by_file.get(&(file, name)).cloned().unwrap_or_default()
    }

    fn in_crate(&self, dir: &str, name: &str) -> Vec<usize> {
        self.by_crate.get(&(dir, name)).cloned().unwrap_or_default()
    }

    /// A free call: same file, else same crate.
    fn free(&self, file: usize, name: &str) -> Vec<usize> {
        let local = self.in_file(file, name);
        if !local.is_empty() {
            return local;
        }
        match crate_dir(&self.files[file].path) {
            Some(dir) => self.in_crate(dir, name),
            None => Vec::new(),
        }
    }

    /// A path call, by its innermost qualifier (`qual::name(…)`).
    fn path(&self, file: usize, qual: &str, name: &str) -> Vec<usize> {
        if qual == "self" || qual == "Self" {
            return self.in_file(file, name);
        }
        let caller_crate = crate_dir(&self.files[file].path);
        if qual == "crate" {
            return caller_crate.map(|d| self.in_crate(d, name)).unwrap_or_default();
        }
        if let Some(dir) = self.lib_names.get(qual) {
            return self.in_crate(dir, name);
        }
        if let Some(candidates) = self.module_stems.get(qual) {
            let in_caller_crate: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|fi| crate_dir(&self.files[*fi].path) == caller_crate)
                .collect();
            let targets =
                if !in_caller_crate.is_empty() { in_caller_crate } else { candidates.clone() };
            if targets.len() == 1 {
                return self.in_file(targets[0], name);
            }
        }
        // A capitalized qualifier is a type (`Store::open`); without
        // type resolution the best sound guess is the caller's crate.
        if qual.starts_with(char::is_uppercase) {
            return caller_crate.map(|d| self.in_crate(d, name)).unwrap_or_default();
        }
        Vec::new()
    }
}

#[derive(Default)]
struct FileSites {
    locks: Vec<LockSite>,
    calls: Vec<CallSite>,
}

/// The guard-liveness walk: the `nested-lock` model, now recording
/// classed held-sets at every acquisition and resolved call.
fn scan_sites(
    fi: usize,
    path: &str,
    t: &[Token],
    fns: &[FnDef],
    resolver: &Resolver<'_>,
    out: &mut FileSites,
) {
    struct Guard {
        name: Option<String>,
        depth: i64,
        temp: bool,
        line: usize,
        class: Option<&'static str>,
    }
    struct FnFrame {
        depth_at_entry: i64,
        guards: Vec<Guard>,
    }

    fn held_classes(guards: &[Guard]) -> Vec<HeldLock> {
        let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
        for g in guards {
            if let Some(class) = g.class {
                seen.entry(class).or_insert(g.line);
            }
        }
        seen.into_iter().map(|(class, line)| HeldLock { class, line }).collect()
    }

    let mut frames: Vec<FnFrame> = Vec::new();
    let mut depth = 0i64;
    let mut pending_fn = false;
    let mut stmt_start = 0usize;

    for i in 0..t.len() {
        let token = &t[i];
        if token.kind == TokenKind::Punct {
            match token.text.as_str() {
                "{" => {
                    depth += 1;
                    if pending_fn {
                        frames.push(FnFrame { depth_at_entry: depth, guards: Vec::new() });
                        pending_fn = false;
                    }
                    stmt_start = i + 1;
                }
                "}" => {
                    depth -= 1;
                    if let Some(frame) = frames.last_mut() {
                        frame.guards.retain(|g| g.depth <= depth);
                    }
                    while frames.last().is_some_and(|f| depth < f.depth_at_entry) {
                        frames.pop();
                    }
                    stmt_start = i + 1;
                }
                ";" => {
                    if let Some(frame) = frames.last_mut() {
                        frame.guards.retain(|g| !(g.temp && g.depth >= depth));
                    }
                    stmt_start = i + 1;
                }
                _ => {}
            }
            continue;
        }
        if token.is_ident("fn") {
            pending_fn = true;
            continue;
        }
        // `drop(name)` releases a named guard early.
        if token.is_ident("drop")
            && t.get(i + 1).is_some_and(|a| a.is_punct('('))
            && t.get(i + 3).is_some_and(|b| b.is_punct(')'))
        {
            if let Some(name) = t.get(i + 2).filter(|n| n.kind == TokenKind::Ident) {
                if let Some(frame) = frames.last_mut() {
                    if let Some(pos) =
                        frame.guards.iter().rposition(|g| g.name.as_deref() == Some(&name.text))
                    {
                        frame.guards.remove(pos);
                    }
                }
            }
            continue;
        }
        // A guard acquisition: `.lock()` / `.read()` / `.write()`
        // with empty parens (argument-taking io::Read::read etc.
        // never match).
        let acquires = token.kind == TokenKind::Ident
            && matches!(token.text.as_str(), "lock" | "read" | "write")
            && i > 0
            && t[i - 1].is_punct('.')
            && t.get(i + 1).is_some_and(|a| a.is_punct('('))
            && t.get(i + 2).is_some_and(|b| b.is_punct(')'));
        if acquires {
            // Stdio handles use a reentrant mutex; `stdout().lock()`
            // (or `.lock()` on a binding conventionally named after
            // the handle) cannot participate in lock-order inversion.
            let stdio = (i >= 4
                && t[i - 2].is_punct(')')
                && t[i - 3].is_punct('(')
                && matches!(t[i - 4].text.as_str(), "stdout" | "stderr" | "stdin"))
                || (i >= 2
                    && t[i - 2].kind == TokenKind::Ident
                    && matches!(t[i - 2].text.as_str(), "stdout" | "stderr" | "stdin"));
            if stdio {
                continue;
            }
            let Some(frame) = frames.last_mut() else { continue };
            let class = receiver_of(t, i).and_then(|r| lock_class(path, &r));
            out.locks.push(LockSite {
                file: fi,
                line: token.line,
                method: token.text.clone(),
                class,
                held_classes: held_classes(&frame.guards),
                held_first: frame.guards.first().map(|g| HeldGuard {
                    name: g.name.clone(),
                    line: g.line,
                    class: g.class,
                }),
                caller: innermost_fn(fns, fi, i),
            });
            // The binding is the guard only when the chain ends at
            // the acquisition (plus unwrap/expect adapters): in
            // `let v = m.lock().unwrap().get(k).cloned();` the guard
            // is a temporary that dies at the `;`, whatever `v` is
            // named.
            let name =
                let_binding_name(t, stmt_start, i).filter(|_| chain_yields_guard(t, i + 2));
            frame.guards.push(Guard {
                temp: name.is_none(),
                name,
                depth,
                line: token.line,
                class,
            });
            continue;
        }
        // A call site: `name(` that is not a definition, keyword, or
        // macro invocation.
        if token.kind == TokenKind::Ident
            && t.get(i + 1).is_some_and(|a| a.is_punct('('))
            && !NON_CALL_IDENTS.contains(&token.text.as_str())
            && !(i > 0 && t[i - 1].is_ident("fn"))
        {
            let Some(frame) = frames.last() else { continue };
            let callees = if i > 0 && t[i - 1].is_punct('.') {
                if METHOD_STOPLIST.contains(&token.text.as_str()) {
                    continue;
                }
                resolver.in_file(fi, &token.text)
            } else if i >= 2 && t[i - 1].is_punct(':') && t[i - 2].is_punct(':') {
                match t.get(i.wrapping_sub(3)).filter(|q| q.kind == TokenKind::Ident) {
                    Some(qual) => resolver.path(fi, &qual.text, &token.text),
                    None => Vec::new(),
                }
            } else {
                resolver.free(fi, &token.text)
            };
            if callees.is_empty() {
                continue;
            }
            out.calls.push(CallSite {
                file: fi,
                line: token.line,
                name: token.text.clone(),
                callees,
                held: held_classes(&frame.guards),
                caller: innermost_fn(fns, fi, i),
            });
        }
    }
}

/// Whether the method chain continuing after the acquisition's `)`
/// (at `close`) still evaluates to the guard when the statement ends:
/// only result adapters (`unwrap`, `expect`, `unwrap_or_else`) may
/// follow before the `;`. Any other continuation consumes the guard
/// as a temporary.
pub(crate) fn chain_yields_guard(t: &[Token], close: usize) -> bool {
    let mut j = close + 1;
    loop {
        match t.get(j) {
            Some(tok) if tok.is_punct(';') => return true,
            Some(tok) if tok.is_punct('.') => {
                let adapter = t.get(j + 1).is_some_and(|a| {
                    matches!(a.text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
                });
                if !adapter || !t.get(j + 2).is_some_and(|p| p.is_punct('(')) {
                    return false;
                }
                // Skip the adapter's balanced argument list.
                let mut depth = 0i64;
                j += 2;
                loop {
                    match t.get(j) {
                        Some(tok) if tok.is_punct('(') => depth += 1,
                        Some(tok) if tok.is_punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Some(_) => {}
                        None => return false,
                    }
                    j += 1;
                }
                j += 1;
            }
            _ => return false,
        }
    }
}

/// If the statement starting at `stmt_start` is `let [mut] name = …`,
/// returns the bound name — the guard lives until its block closes.
/// Anything else (match scrutinees, field assignments, expression
/// statements) is treated as a temporary guard.
pub(crate) fn let_binding_name(
    t: &[Token],
    stmt_start: usize,
    before: usize,
) -> Option<String> {
    let mut j = stmt_start;
    if !t.get(j)?.is_ident("let") {
        return None;
    }
    j += 1;
    if t.get(j)?.is_ident("mut") {
        j += 1;
    }
    let name = t.get(j)?;
    if name.kind != TokenKind::Ident || j >= before {
        return None;
    }
    if !t.get(j + 1)?.is_punct('=') {
        return None;
    }
    // `let v = *m.lock()…;` copies the value out through the deref;
    // the guard itself is a temporary dying at the `;`.
    if t.get(j + 2)?.is_punct('*') {
        return None;
    }
    Some(name.text.clone())
}
