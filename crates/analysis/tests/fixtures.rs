//! Fixture tests for the static checks: each seeded violation must be
//! detected, and the clean variants must produce zero findings (no false
//! positives). Fixtures are string literals — not `.rs` files on disk —
//! so the workspace scan of this repo stays clean.

use qr2_analyze::checks::check;
use qr2_analyze::{analyze_source, analyze_sources};

fn finding_checks(krate: &str, src: &str) -> Vec<(String, u32)> {
    let (findings, _) = analyze_source(krate, "fixture.rs", src);
    findings
        .findings
        .iter()
        .map(|f| (f.check.to_string(), f.line))
        .collect()
}

#[test]
fn lock_order_cycle_across_functions_is_detected() {
    // A → B in one function, B → A in another: classic inversion.
    let forward = r#"
        //! m.
        fn forward(&self) {
            let a = self.alpha.lock();
            let b = self.beta.lock();
            drop(b);
            drop(a);
        }
    "#;
    let backward = r#"
        //! m.
        fn backward(&self) {
            let b = self.beta.lock();
            let a = self.alpha.lock();
            drop(a);
            drop(b);
        }
    "#;
    let report = analyze_sources(&[
        ("qr2-core", "forward.rs", forward),
        ("qr2-core", "backward.rs", backward),
    ]);
    let cycles: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.check == check::LOCK_ORDER)
        .collect();
    assert_eq!(cycles.len(), 1, "one cycle expected: {:?}", report.findings);
    assert!(
        cycles[0].message.contains("self.alpha") && cycles[0].message.contains("self.beta"),
        "cycle must name both locks: {}",
        cycles[0].message
    );
}

#[test]
fn consistent_lock_order_is_clean() {
    let src = r#"
        //! m.
        fn one(&self) {
            let a = self.alpha.lock();
            let b = self.beta.lock();
            drop(b);
            drop(a);
        }
        fn two(&self) {
            let a = self.alpha.lock();
            self.beta.lock().clear();
        }
    "#;
    let report = analyze_sources(&[("qr2-core", "fixture.rs", src)]);
    assert!(
        report.findings.is_empty(),
        "consistent order must be clean: {:?}",
        report.findings
    );
    assert_eq!(report.graph.edges.len(), 1, "one observed edge");
}

#[test]
fn guard_across_io_call_is_detected() {
    let src = r#"
        //! m.
        fn bad(&self, q: &Query) -> Response {
            let guard = self.state.lock();
            let resp = self.db.search(q);
            drop(guard);
            resp
        }
    "#;
    let found = finding_checks("qr2-core", src);
    assert!(
        found.iter().any(|(c, _)| c == check::GUARD_IO),
        "guard across search() must be flagged: {found:?}"
    );
}

#[test]
fn guard_across_probe_call_is_detected() {
    let src = r#"
        //! m.
        fn bad(&self, q: &Query) -> Result<Answer, SearchError> {
            let guard = self.state.lock();
            let answer = self.inner.probe(q);
            drop(guard);
            answer
        }
    "#;
    let found = finding_checks("qr2-cache", src);
    assert!(
        found.iter().any(|(c, _)| c == check::GUARD_IO),
        "guard across probe() must be flagged: {found:?}"
    );
}

#[test]
fn guard_released_before_io_is_clean() {
    let src = r#"
        //! m.
        fn good(&self, q: &Query) -> Response {
            let cached = { self.state.lock().get(q) };
            match cached {
                Some(r) => r,
                None => self.db.search(q),
            }
        }
        fn also_good(&self, q: &Query) -> Response {
            let guard = self.state.lock();
            drop(guard);
            self.db.search(q)
        }
    "#;
    let found = finding_checks("qr2-core", src);
    assert!(
        found.iter().all(|(c, _)| c != check::GUARD_IO),
        "released guard must not be flagged: {found:?}"
    );
}

#[test]
fn temporary_guard_in_if_head_spans_the_block() {
    // Rust extends the `.lock()` temporary in an `if` head through the
    // attached block, so an IO call inside is under the guard.
    let src = r#"
        //! m.
        fn subtle(&self, q: &Query) -> Option<Response> {
            if self.state.lock().should_fetch(q) {
                return Some(self.db.search(q));
            }
            None
        }
    "#;
    let found = finding_checks("qr2-core", src);
    assert!(
        found.iter().any(|(c, _)| c == check::GUARD_IO),
        "if-head temporary guard spans the block: {found:?}"
    );
}

#[test]
fn handler_unwrap_is_denied_in_serving_crates_only() {
    let src = r#"
        //! m.
        fn handler(&self, req: Request) -> Response {
            let body = req.body().unwrap();
            Response::ok(body)
        }
    "#;
    let in_http = finding_checks("qr2-http", src);
    assert!(
        in_http.iter().any(|(c, _)| c == check::PANIC_PATH),
        "unwrap in qr2-http must be flagged: {in_http:?}"
    );
    // The same code in a non-serving crate is not a panic-path finding.
    let in_datagen = finding_checks("qr2-datagen", src);
    assert!(
        in_datagen.iter().all(|(c, _)| c != check::PANIC_PATH),
        "qr2-datagen is not panic-denied: {in_datagen:?}"
    );
}

#[test]
fn slice_indexing_flagged_but_not_attributes_or_macros() {
    let src = r#"
        //! m.
        #[derive(Debug)]
        struct S { buf: [u8; 4] }
        fn handler(&self, i: usize) -> u8 {
            let v = vec![1, 2, 3];
            let arr = [0u8; 4];
            self.buf[i]
        }
    "#;
    let found = finding_checks("qr2-http", src);
    let panics: Vec<_> = found
        .iter()
        .filter(|(c, _)| c == check::PANIC_PATH)
        .collect();
    assert_eq!(
        panics.len(),
        1,
        "exactly the indexing expression, not attributes/macros/types: {found:?}"
    );
}

#[test]
fn test_code_is_exempt_from_panic_path() {
    let src = r#"
        //! m.
        #[cfg(test)]
        mod tests {
            #[test]
            fn checks_things() {
                assert_eq!(compute().unwrap(), 7);
            }
        }
        #[test]
        fn top_level_test() {
            other().unwrap();
        }
    "#;
    let found = finding_checks("qr2-http", src);
    assert!(
        found.iter().all(|(c, _)| c != check::PANIC_PATH),
        "test code is exempt: {found:?}"
    );
}

#[test]
fn qr2_allow_suppresses_and_is_recorded() {
    let src = r#"
        //! m.
        fn handler(&self, i: usize) -> u8 {
            // qr2-allow: panic-path index is masked to the table size
            self.buf[i]
        }
    "#;
    let (findings, scope) = analyze_source("qr2-http", "fixture.rs", src);
    let f: Vec<_> = findings
        .findings
        .iter()
        .filter(|f| f.check == check::PANIC_PATH)
        .collect();
    assert_eq!(f.len(), 1);
    assert_eq!(
        f[0].allowed.as_deref(),
        Some("index is masked to the table size"),
        "the allow reason is recorded, not dropped"
    );
    assert_eq!(scope.allows.len(), 1);
}

#[test]
fn missing_doc_on_pub_item_is_detected() {
    let src = r#"
        //! m.
        pub fn undocumented() {}

        /// Documented.
        pub fn documented() {}

        pub mod out_of_line;

        pub(crate) fn crate_visible() {}
    "#;
    let (findings, _) = analyze_source("qr2-core", "fixture.rs", src);
    let docs: Vec<_> = findings
        .findings
        .iter()
        .filter(|f| f.check == check::MISSING_DOCS)
        .collect();
    assert_eq!(
        docs.len(),
        1,
        "only the undocumented pub fn: {:?}",
        findings.findings
    );
    assert!(docs[0].message.contains("undocumented"));
}

#[test]
fn clean_realistic_snippet_has_zero_findings() {
    // Shapes taken from the real codebase: scoped guards, bounds-checked
    // access, error propagation. Must produce no findings at all.
    let src = r#"
        //! m.

        /// Serve a request from cache or fall through to the database.
        pub fn serve(&self, q: &Query) -> Result<Response, ApiError> {
            let cached = {
                let mut shard = self.shards_for(q).lock();
                shard.get(q).cloned()
            };
            if let Some(hit) = cached {
                return Ok(hit);
            }
            let resp = self.db.search(q);
            self.shards_for(q).lock().insert(q.clone(), resp.clone());
            Ok(resp)
        }

        /// Bounds-checked lookup.
        pub fn label(&self, c: usize) -> Option<&str> {
            self.labels.get(c).map(|l| l.as_str())
        }
    "#;
    let (findings, _) = analyze_source("qr2-http", "fixture.rs", src);
    assert!(
        findings.findings.is_empty(),
        "clean snippet must have zero findings: {:?}",
        findings.findings
    );
}

#[test]
fn report_json_counts_round_trip() {
    let src = r#"
        //! m.
        fn handler(&self) {
            self.thing().unwrap();
        }
    "#;
    let report = analyze_sources(&[("qr2-http", "fixture.rs", src)]);
    assert_eq!(report.denied_count(), 1);
    let json = report.render_json();
    assert!(json.contains("\"schema_version\""));
    assert!(json.contains("\"panic-path\""));
    assert!(json.contains("\"denied_findings\":1"));
}
