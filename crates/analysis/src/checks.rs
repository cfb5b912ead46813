//! The four checkers: lock-order, guard-across-IO, panic-path, and
//! missing-docs.
//!
//! All four walk the comment-stripped token stream produced by
//! [`crate::scope`]. They are lexical by design — no type information —
//! so each check documents the approximation it makes and errs toward
//! auditability: a false positive is silenced with an explicit
//! `// qr2-allow: <check> <reason>` that the report records.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{TokKind, Token};
use crate::scope::{FileScope, FnBody};

/// Check identifiers (used in findings, JSON, and `qr2-allow` directives).
pub mod check {
    /// Nested lock acquisitions forming a cycle across the workspace.
    pub const LOCK_ORDER: &str = "lock-order";
    /// A live lock guard spanning a web-DB / crawl call.
    pub const GUARD_IO: &str = "guard-across-io";
    /// `unwrap` / `expect` / `panic!` / `todo!` / slice-indexing in a
    /// request-serving crate.
    pub const PANIC_PATH: &str = "panic-path";
    /// `pub` item without a doc comment.
    pub const MISSING_DOCS: &str = "missing-docs";
    /// All checks, in report order.
    pub const ALL: [&str; 4] = [LOCK_ORDER, GUARD_IO, PANIC_PATH, MISSING_DOCS];
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which check fired (one of [`check::ALL`]).
    pub check: &'static str,
    /// Crate the file belongs to (e.g. `qr2-cache`).
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// `Some(reason)` when a `qr2-allow` directive covers this finding.
    pub allowed: Option<String>,
}

/// A nested lock acquisition observed in one function body: `held` was
/// live when `acquired` was taken.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Name of the lock already held (receiver path, e.g. `self.store`).
    pub held: String,
    /// Name of the lock being acquired.
    pub acquired: String,
    /// Crate of the function body the nesting was seen in.
    pub krate: String,
    /// File of the function body.
    pub file: String,
    /// Line of the inner acquisition.
    pub line: u32,
    /// Function the nesting occurs in.
    pub function: String,
}

/// Calls that transfer control to the web database (or crawl it). A live
/// lock guard spanning one of these serializes every contending request
/// behind remote latency — the bug class single-flight exists to prevent.
const IO_CALLS: &[&str] = &["search", "probe", "crawl"];

/// Methods that forward to their receiver without changing which lock the
/// receiver path names; they are dropped from the tail of a receiver path
/// (`cache.store.as_ref().unwrap().lock()` names `cache.store`).
const TRANSPARENT_TAIL: &[&str] = &["as_ref", "as_mut", "unwrap", "expect", "clone", "borrow"];

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [a, b]`, `break [x]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "return", "break", "in", "if", "else", "match", "while", "loop", "move", "mut", "ref", "let",
    "const", "static", "as", "where", "for", "impl", "fn", "dyn", "pub", "use", "mod", "await",
    "yield", "box", "type", "enum", "struct", "trait", "union", "unsafe", "extern",
];

/// One live lock guard during the body walk.
struct Guard {
    /// Receiver-path name of the lock (`self.shard`).
    name: String,
    /// Line it was acquired on.
    line: u32,
    /// `Some(binding)` when `let binding = …`, killed by `drop(binding)`
    /// or its block's close; `None` for a temporary (statement-scoped).
    binding: Option<String>,
    /// Block depth the guard dies at (its enclosing block, or for an
    /// `if let`/`while let`/`match` temporary, the attached block).
    depth: usize,
    /// Temporaries die at the next `;` at their depth.
    temporary: bool,
}

/// Per-file checker output.
#[derive(Debug, Default)]
pub struct FileFindings {
    /// All findings in this file (allowed ones included, marked).
    pub findings: Vec<Finding>,
    /// Nested-acquisition edges for the workspace lock-order graph.
    pub edges: Vec<LockEdge>,
}

/// Everything the checkers need to know about the file being analyzed.
pub struct FileCtx<'a> {
    /// Crate name, e.g. `qr2-cache`.
    pub krate: &'a str,
    /// Workspace-relative path.
    pub file: &'a str,
    /// Whether the panic-path check applies (request-serving crates).
    pub deny_panics: bool,
    /// Whether the missing-docs check applies (crate `src/` files).
    pub check_docs: bool,
}

/// Run every checker over one scanned file.
pub fn run_checks(ctx: &FileCtx, scope: &FileScope) -> FileFindings {
    let mut out = FileFindings::default();
    for f in &scope.functions {
        if f.is_test {
            continue;
        }
        walk_body(ctx, scope, f, &mut out);
    }
    if ctx.check_docs {
        missing_docs(ctx, scope, &mut out);
    }
    apply_allows(scope, &mut out.findings);
    out
}

/// Mark findings covered by a `qr2-allow` directive on the same line or
/// the line directly above.
fn apply_allows(scope: &FileScope, findings: &mut [Finding]) {
    for finding in findings.iter_mut() {
        for allow in &scope.allows {
            let covers_line = allow.line == finding.line || allow.line + 1 == finding.line;
            if covers_line && allow.check == finding.check && !allow.reason.is_empty() {
                finding.allowed = Some(allow.reason.clone());
                break;
            }
        }
    }
}

/// Walk one function body tracking live lock guards; emits lock-order
/// edges, guard-across-IO findings, and (in deny crates) panic-path
/// findings.
fn walk_body(ctx: &FileCtx, scope: &FileScope, f: &FnBody, out: &mut FileFindings) {
    let code = &scope.code;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize; // relative to the body's opening brace
                            // Set while scanning a statement that starts with `if`/`while`/`match`:
                            // temporaries acquired in its condition live through the attached block.
    let mut stmt_extends_to_block = false;
    let mut i = f.open + 1;
    while i < f.close {
        let t = &code[i];
        if t.is_punct('{') {
            depth += 1;
            if stmt_extends_to_block {
                // `if let Some(x) = m.lock().get(k) { … }`: the condition's
                // temporary guard lives until this block closes.
                for g in guards.iter_mut().filter(|g| g.temporary) {
                    g.temporary = false;
                    g.depth = depth;
                }
                stmt_extends_to_block = false;
            }
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            guards.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            guards.retain(|g| !(g.temporary && g.depth == depth));
            stmt_extends_to_block = false;
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                // Temporaries created in these statements' head expressions
                // live through the attached block (`if let`, `while let`,
                // `match`, and `for`-loop iterator expressions).
                "if" | "while" | "match" | "for" => stmt_extends_to_block = true,
                "drop" if code.get(i + 1).map(|c| c.is_punct('(')).unwrap_or(false) => {
                    // `drop(name)` releases the named guard early.
                    if let (Some(arg), Some(close)) = (code.get(i + 2), code.get(i + 3)) {
                        if arg.kind == TokKind::Ident && close.is_punct(')') {
                            guards.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
                        }
                    }
                }
                "lock" | "read" | "write" if is_lock_call(code, i) => {
                    let name = receiver_path(code, i - 1);
                    if !name.is_empty() {
                        for held in &guards {
                            if held.name != name {
                                out.edges.push(LockEdge {
                                    held: held.name.clone(),
                                    acquired: name.clone(),
                                    krate: ctx.krate.to_string(),
                                    file: ctx.file.to_string(),
                                    line: t.line,
                                    function: f.name.clone(),
                                });
                            }
                        }
                        let binding = stmt_binding(code, f.open, i);
                        // `let _ = x.lock()` drops immediately: no guard.
                        if binding.as_deref() != Some("_") {
                            guards.push(Guard {
                                name,
                                line: t.line,
                                temporary: binding.is_none(),
                                binding,
                                depth,
                            });
                        }
                    }
                }
                name if IO_CALLS.contains(&name) && is_call(code, i) => {
                    if let Some(g) = guards.first() {
                        out.findings.push(Finding {
                            check: check::GUARD_IO,
                            krate: ctx.krate.to_string(),
                            file: ctx.file.to_string(),
                            line: t.line,
                            message: format!(
                                "`{}()` called in `{}` while lock guard `{}` (line {}) is live; \
                                 every contending request waits out the web-DB round-trip",
                                name, f.name, g.name, g.line
                            ),
                            allowed: None,
                        });
                    }
                }
                _ => {}
            }
            if ctx.deny_panics {
                panic_path_at(ctx, code, i, &f.name, out);
            }
        }
        if ctx.deny_panics && t.is_punct('[') && is_index_expr(code, i) {
            out.findings.push(Finding {
                check: check::PANIC_PATH,
                krate: ctx.krate.to_string(),
                file: ctx.file.to_string(),
                line: t.line,
                message: format!(
                    "slice/map indexing in `{}` panics on out-of-range; use `.get()` and \
                     handle the miss",
                    f.name
                ),
                allowed: None,
            });
        }
        i += 1;
    }
}

/// Is `code[i]` (`lock`/`read`/`write`) a no-argument method call —
/// `.lock()` — rather than a field, a definition, or a call with args?
fn is_lock_call(code: &[Token], i: usize) -> bool {
    i > 0
        && code[i - 1].is_punct('.')
        && code.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false)
        && code.get(i + 2).map(|t| t.is_punct(')')).unwrap_or(false)
}

/// Is `code[i]` a call (`name(` preceded by `.` or an expression
/// boundary, not `fn name(`)?
fn is_call(code: &[Token], i: usize) -> bool {
    if !code.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false) {
        return false;
    }
    match code.get(i.wrapping_sub(1)) {
        Some(prev) => !prev.is_ident("fn"),
        None => true,
    }
}

/// Reconstruct the receiver path of a method call by walking backwards
/// from the `.` at `dot`: `self.shards[ix].lock()` → `self.shards`;
/// `cache.store.as_ref().unwrap().lock()` → `cache.store`.
fn receiver_path(code: &[Token], dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot as isize - 1;
    loop {
        if j < 0 {
            break;
        }
        let t = &code[j as usize];
        if t.is_punct(')') || t.is_punct(']') {
            // Skip a call-argument or index expression.
            let close = if t.is_punct(')') { ')' } else { ']' };
            let open = if close == ')' { '(' } else { '[' };
            let mut depth = 1i32;
            j -= 1;
            while j >= 0 && depth > 0 {
                let c = &code[j as usize];
                if c.is_punct(close) {
                    depth += 1;
                } else if c.is_punct(open) {
                    depth -= 1;
                }
                j -= 1;
            }
            continue;
        }
        if t.kind == TokKind::Ident {
            parts.push(t.text.clone());
            j -= 1;
            if j >= 0 && code[j as usize].is_punct('.') {
                j -= 1;
                continue;
            }
            break;
        }
        break;
    }
    parts.reverse();
    while parts.len() > 1 && TRANSPARENT_TAIL.contains(&parts[parts.len() - 1].as_str()) {
        parts.pop();
    }
    parts.join(".")
}

/// If the statement containing token `at` (a `lock`/`read`/`write`
/// identifier) is a `let` binding *of the guard itself*, return the bound
/// name. `let g = m.lock();` binds the guard; in
/// `let v = m.lock().get(k).cloned();` the guard is a temporary that dies
/// at the `;` — only the final value is bound — so trailing tokens after
/// the `.lock()` call disqualify the binding.
fn stmt_binding(code: &[Token], body_open: usize, at: usize) -> Option<String> {
    // The guard is bound only when `.lock()` ends the statement.
    if !code.get(at + 2).map(|t| t.is_punct(')')).unwrap_or(false)
        || !code.get(at + 3).map(|t| t.is_punct(';')).unwrap_or(false)
    {
        return None;
    }
    let mut start = at;
    while start > body_open + 1 {
        let t = &code[start - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    if !code[start].is_ident("let") {
        return None;
    }
    let mut j = start + 1;
    if code.get(j).map(|t| t.is_ident("mut")).unwrap_or(false) {
        j += 1;
    }
    let name = code.get(j).filter(|t| t.kind == TokKind::Ident)?;
    // Only a plain `let name [: ty] = …` binds the guard to a name a
    // later `drop(name)` can release; destructuring patterns are treated
    // as temporaries (conservative).
    match code.get(j + 1) {
        Some(t) if t.is_punct('=') || t.is_punct(':') => Some(name.text.clone()),
        _ => None,
    }
}

/// Panic-path token checks at one identifier.
fn panic_path_at(ctx: &FileCtx, code: &[Token], i: usize, func: &str, out: &mut FileFindings) {
    let t = &code[i];
    let next_is = |c: char| code.get(i + 1).map(|t| t.is_punct(c)).unwrap_or(false);
    let prev_is_dot = i > 0 && code[i - 1].is_punct('.');
    let (hit, what): (bool, &str) = match t.text.as_str() {
        "unwrap" => (
            prev_is_dot
                && next_is('(')
                && code.get(i + 2).map(|t| t.is_punct(')')).unwrap_or(false),
            "`.unwrap()`",
        ),
        "expect" => (prev_is_dot && next_is('('), "`.expect(…)`"),
        "panic" => (next_is('!'), "`panic!`"),
        "todo" => (next_is('!'), "`todo!`"),
        "unimplemented" => (next_is('!'), "`unimplemented!`"),
        _ => (false, ""),
    };
    if hit {
        out.findings.push(Finding {
            check: check::PANIC_PATH,
            krate: ctx.krate.to_string(),
            file: ctx.file.to_string(),
            line: t.line,
            message: format!(
                "{what} in `{func}` kills the worker on failure; return an error or recover"
            ),
            allowed: None,
        });
    }
}

/// Is the `[` at `code[i]` an index expression? True when the previous
/// token is an expression tail: a non-keyword identifier, `)`, `]`, or a
/// literal. Array literals, types, attributes, and macro brackets all
/// follow other tokens (`=`, `:`, `<`, `#`, `!`, `&`, …).
fn is_index_expr(code: &[Token], i: usize) -> bool {
    let Some(prev) = (i > 0).then(|| &code[i - 1]) else {
        return false;
    };
    match prev.kind {
        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
        TokKind::Str | TokKind::Num | TokKind::Char | TokKind::Lifetime => false,
        _ => false,
    }
}

/// Missing-docs: every `pub` item (fn, struct, enum, trait, mod, type,
/// const, static, and named struct fields) outside test code must carry a
/// doc comment. `pub(crate)` and `pub use` are exempt.
fn missing_docs(ctx: &FileCtx, scope: &FileScope, out: &mut FileFindings) {
    let code = &scope.code;
    let doc_lines: BTreeSet<u32> = scope.doc_lines.iter().copied().collect();
    // Lines covered by test items: approximate by function spans.
    let test_spans: Vec<(usize, usize)> = scope
        .functions
        .iter()
        .filter(|f| f.is_test)
        .map(|f| (f.open, f.close))
        .collect();
    let mut i = 0usize;
    // Track `#[cfg(test)] mod … { }` spans so items inside are skipped.
    let mut skip_until: Option<usize> = None;
    while i < code.len() {
        if let Some(end) = skip_until {
            if i >= end {
                skip_until = None;
            } else {
                i += 1;
                continue;
            }
        }
        let t = &code[i];
        if t.is_punct('#')
            && code.get(i + 1).map(|t| t.is_punct('[')).unwrap_or(false)
            && attr_span_is_test(code, i)
        {
            // Skip the whole following item (to its closing brace or `;`).
            skip_until = Some(item_end(code, i));
        }
        if t.is_ident("pub") && !in_spans(&test_spans, i) {
            if let Some(finding) = check_pub_item(ctx, code, i, &doc_lines) {
                out.findings.push(finding);
            }
        }
        i += 1;
    }
}

fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(a, b)| i >= a && i <= b)
}

/// Does the attribute starting at `code[i]` (`#`) mark test code?
fn attr_span_is_test(code: &[Token], i: usize) -> bool {
    let mut j = i + 2;
    let mut depth = 1usize;
    let start = j;
    while j < code.len() && depth > 0 {
        if code[j].is_punct('[') {
            depth += 1;
        } else if code[j].is_punct(']') {
            depth -= 1;
        }
        j += 1;
    }
    let attr = &code[start..j.saturating_sub(1)];
    let has = |s: &str| attr.iter().any(|t| t.is_ident(s));
    has("test") || (has("cfg") && has("test"))
}

/// Token index just past the end of the item an attribute at `i` applies
/// to: its closing `}` at depth 0, or its `;`.
fn item_end(code: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0i32;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t.is_punct(';') && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    code.len()
}

/// Check one `pub` token for a missing doc comment. Returns `None` when
/// the item is documented, non-public (`pub(crate)`), or exempt.
fn check_pub_item(
    ctx: &FileCtx,
    code: &[Token],
    i: usize,
    doc_lines: &BTreeSet<u32>,
) -> Option<Finding> {
    let next = code.get(i + 1)?;
    if next.is_punct('(') {
        return None; // pub(crate) / pub(super): not public API.
    }
    // What kind of item is this?
    let (kind, name) = if next.kind == TokKind::Ident {
        match next.text.as_str() {
            "use" | "extern" => return None,
            // `pub mod name;` (out-of-line) is documented by the module
            // file's own `//!` header; only inline `pub mod name { … }`
            // needs a doc comment here.
            "mod" if code.get(i + 3).map(|t| t.is_punct(';')).unwrap_or(false) => return None,
            "fn" | "struct" | "enum" | "trait" | "mod" | "type" | "const" | "static" => {
                let mut j = i + 2;
                // `pub unsafe fn`, `pub const fn`: the name is further on.
                while code
                    .get(j)
                    .map(|t| t.is_ident("unsafe") || t.is_ident("fn") || t.is_ident("mut"))
                    .unwrap_or(false)
                {
                    j += 1;
                }
                let name = code.get(j).map(|t| t.text.clone()).unwrap_or_default();
                (next.text.clone(), name)
            }
            "unsafe" | "async" => {
                let name = code.get(i + 3).map(|t| t.text.clone()).unwrap_or_default();
                ("fn".to_string(), name)
            }
            _ => {
                // `pub name: Type` — a struct field.
                if code.get(i + 2).map(|t| t.is_punct(':')).unwrap_or(false) {
                    ("field".to_string(), next.text.clone())
                } else {
                    return None;
                }
            }
        }
    } else {
        return None;
    };
    // Find the first line of the item including its attributes.
    let mut first = i;
    while first >= 2 && code[first - 1].is_punct(']') {
        // Walk back over `#[…]`.
        let mut depth = 1i32;
        let mut j = first as isize - 2;
        while j >= 0 && depth > 0 {
            if code[j as usize].is_punct(']') {
                depth += 1;
            } else if code[j as usize].is_punct('[') {
                depth -= 1;
            }
            j -= 1;
        }
        if j >= 0 && code[j as usize].is_punct('#') {
            first = j as usize;
        } else {
            break;
        }
    }
    let item_line = code[first].line;
    if doc_lines.contains(&item_line.saturating_sub(1)) || has_doc_attr(code, first, i) {
        return None;
    }
    Some(Finding {
        check: check::MISSING_DOCS,
        krate: ctx.krate.to_string(),
        file: ctx.file.to_string(),
        line: code[i].line,
        message: format!("public {kind} `{name}` has no doc comment"),
        allowed: None,
    })
}

/// Does an attribute between `first` and the `pub` token mention `doc`?
fn has_doc_attr(code: &[Token], first: usize, pub_at: usize) -> bool {
    code[first..pub_at].iter().any(|t| t.is_ident("doc"))
}

/// The workspace lock-order graph, built from every file's edges.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Deduplicated edges: (held, acquired) → first site observed.
    pub edges: BTreeMap<(String, String), LockEdge>,
}

impl LockGraph {
    /// Fold in one file's nested acquisitions.
    pub fn add_edges(&mut self, edges: Vec<LockEdge>) {
        for e in edges {
            self.edges
                .entry((e.held.clone(), e.acquired.clone()))
                .or_insert(e);
        }
    }

    /// Find cycles: every strongly-connected component with more than one
    /// node is a potential deadlock. Returns one finding per cycle.
    pub fn cycles(&self) -> Vec<Finding> {
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        for (held, acquired) in self.edges.keys() {
            nodes.insert(held);
            nodes.insert(acquired);
        }
        let index: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let names: Vec<&str> = nodes.into_iter().collect();
        let mut adj = vec![Vec::new(); names.len()];
        for (held, acquired) in self.edges.keys() {
            adj[index[held.as_str()]].push(index[acquired.as_str()]);
        }
        let sccs = tarjan(&adj);
        let mut out = Vec::new();
        for scc in sccs {
            if scc.len() < 2 {
                continue;
            }
            let mut cycle: Vec<&str> = scc.iter().map(|&i| names[i]).collect();
            cycle.sort_unstable();
            // Pick a representative edge site for the report.
            let site = self
                .edges
                .iter()
                .find(|((h, a), _)| cycle.contains(&h.as_str()) && cycle.contains(&a.as_str()))
                .map(|(_, e)| e);
            let (krate, file, line, detail) = match site {
                Some(e) => (
                    e.krate.clone(),
                    e.file.clone(),
                    e.line,
                    format!(
                        " (e.g. `{}` → `{}` in `{}`)",
                        e.held, e.acquired, e.function
                    ),
                ),
                None => (String::new(), String::new(), 0, String::new()),
            };
            out.push(Finding {
                check: check::LOCK_ORDER,
                krate,
                file,
                line,
                message: format!(
                    "lock-order cycle between {{{}}} — opposite nesting orders can deadlock{}",
                    cycle.join(", "),
                    detail
                ),
                allowed: None,
            });
        }
        out
    }
}

/// Tarjan strongly-connected components. Recursive: the graph's nodes are
/// distinct lock names in the workspace — a handful, nowhere near stack
/// limits.
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct State<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        sccs: Vec<Vec<usize>>,
    }
    fn visit(s: &mut State, v: usize) {
        s.index[v] = Some(s.next);
        s.low[v] = s.next;
        s.next += 1;
        s.stack.push(v);
        s.on_stack[v] = true;
        for ci in 0..s.adj[v].len() {
            let w = s.adj[v][ci];
            match s.index[w] {
                None => {
                    visit(s, w);
                    s.low[v] = s.low[v].min(s.low[w]);
                }
                Some(wi) if s.on_stack[w] => s.low[v] = s.low[v].min(wi),
                Some(_) => {}
            }
        }
        if Some(s.low[v]) == s.index[v] {
            let mut scc = Vec::new();
            while let Some(w) = s.stack.pop() {
                s.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            s.sccs.push(scc);
        }
    }
    let n = adj.len();
    let mut s = State {
        adj,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if s.index[v].is_none() {
            visit(&mut s, v);
        }
    }
    s.sccs
}
