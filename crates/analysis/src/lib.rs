//! `qr2-analyze`: workspace-wide static analysis for QR2's concurrency
//! and panic hygiene.
//!
//! QR2's value proposition is a third party that *stays up* while many
//! concurrent users share budgets, caches, and single-flight leaders. The
//! code that enforces that — sharded LRU shards, flight state machines,
//! session tables — is exactly where a lock-order inversion or a stray
//! `unwrap()` takes the service down for every user at once. This crate
//! lexes every non-vendor `.rs` file in the workspace with a hand-rolled
//! tokenizer (the workspace is offline, so no `syn`) and runs four
//! checks:
//!
//! 1. **lock-order** — per-function nested `.lock()`/`.read()`/`.write()`
//!    acquisitions build a workspace-wide lock-order graph; cycles are
//!    potential deadlocks.
//! 2. **guard-across-io** — a live lock guard spanning a web-DB or crawl
//!    call serializes every contending request behind remote latency.
//! 3. **panic-path** — `unwrap`/`expect`/`panic!`/`todo!` and
//!    slice-indexing are denied in the request-serving crates
//!    (`qr2-http`, `qr2-service`, `qr2-cache`) outside `#[cfg(test)]`.
//! 4. **missing-docs** — `pub` items in non-vendor crates must carry doc
//!    comments.
//!
//! Intentional exceptions are annotated in source as
//! `// qr2-allow: <check> <reason>` (same line or the line above) and are
//! recorded — never silently dropped — in the report and `ANALYZE.json`.
//!
//! The static pass is complemented at runtime by the vendored
//! `parking_lot` shim's `debug_assertions` lock-order tracker, which
//! panics on the first observed inversion with both acquisition sites
//! named; see `docs/ANALYSIS.md`.

pub mod checks;
pub mod lexer;
pub mod report;
pub mod scope;
pub mod workspace;

use std::path::Path;

use checks::{FileCtx, FileFindings, LockGraph};
use report::Report;
use workspace::{SourceFile, PANIC_DENY_CRATES, PANIC_DENY_MODULES};

/// Analyze one source text as `file` belonging to `krate`. Exposed so
/// fixture tests can drive single snippets without touching the
/// filesystem.
pub fn analyze_source(krate: &str, file: &str, source: &str) -> (FileFindings, scope::FileScope) {
    let scope = scope::scan(lexer::tokenize(source));
    let ctx = FileCtx {
        krate,
        file,
        deny_panics: PANIC_DENY_CRATES.contains(&krate) || PANIC_DENY_MODULES.contains(&file),
        check_docs: true,
    };
    let findings = checks::run_checks(&ctx, &scope);
    (findings, scope)
}

/// Analyze a set of in-memory sources as one workspace (fixture tests use
/// this to assert cross-function lock cycles).
pub fn analyze_sources(sources: &[(&str, &str, &str)]) -> Report {
    let mut report = Report::default();
    let mut graph = LockGraph::default();
    for (krate, file, source) in sources {
        let (findings, scope) = analyze_source(krate, file, source);
        report.files_scanned += 1;
        report.functions_checked += scope.functions.iter().filter(|f| !f.is_test).count();
        graph.add_edges(findings.edges);
        report.findings.extend(findings.findings);
        report
            .allows
            .extend(scope.allows.into_iter().map(|a| (file.to_string(), a)));
    }
    report.findings.extend(graph.cycles());
    report.graph = graph;
    report
}

/// Analyze every non-vendor `.rs` file under the workspace `root`.
///
/// Files under `src/` are fully checked, and their lines outside test
/// items are counted per crate; `tests/`, `examples/`, and
/// `benches/` files are lexed and counted (the tokenizer must handle
/// them) but not checked — they are either test code or demo code whose
/// panics abort a developer run, not a serving worker.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let files = workspace::discover(root)?;
    let mut report = Report::default();
    let mut graph = LockGraph::default();
    for SourceFile {
        rel_path,
        krate,
        is_src,
    } in files
    {
        let source = std::fs::read_to_string(root.join(&rel_path))?;
        let tokens = lexer::tokenize(&source);
        report.files_scanned += 1;
        if !is_src {
            continue;
        }
        let scope = scope::scan(tokens);
        *report.non_test_lines.entry(krate.clone()).or_default() += scope.non_test_lines(&source);
        let ctx = FileCtx {
            krate: &krate,
            file: &rel_path,
            deny_panics: PANIC_DENY_CRATES.contains(&krate.as_str())
                || PANIC_DENY_MODULES.contains(&rel_path.as_str()),
            check_docs: true,
        };
        let findings = checks::run_checks(&ctx, &scope);
        report.functions_checked += scope.functions.iter().filter(|f| !f.is_test).count();
        graph.add_edges(findings.edges);
        report.findings.extend(findings.findings);
        report
            .allows
            .extend(scope.allows.into_iter().map(|a| (rel_path.clone(), a)));
    }
    report.findings.extend(graph.cycles());
    report.graph = graph;
    Ok(report)
}
