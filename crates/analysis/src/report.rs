//! Report assembly and `ANALYZE.json` emission.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::checks::{check, Finding, LockGraph};
use crate::scope::AllowDirective;

/// The analyzer's full output over a set of sources.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, allowed ones included.
    pub findings: Vec<Finding>,
    /// Every `qr2-allow` directive seen (audit trail), as
    /// `(file, directive)`.
    pub allows: Vec<(String, AllowDirective)>,
    /// The workspace lock-order graph.
    pub graph: LockGraph,
    /// Files lexed.
    pub files_scanned: usize,
    /// Function bodies walked (non-test).
    pub functions_checked: usize,
    /// `crate → non-blank lines outside test items` over its `src/` files.
    pub non_test_lines: BTreeMap<String, usize>,
}

impl Report {
    /// Findings not covered by an allow directive.
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_none())
    }

    /// Count of findings that would fail `--deny`.
    pub fn denied_count(&self) -> usize {
        self.denied().count()
    }

    /// `check name → (denied, allowed)` counts.
    pub fn counts_by_check(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut map: BTreeMap<&'static str, (usize, usize)> =
            check::ALL.iter().map(|&c| (c, (0, 0))).collect();
        for f in &self.findings {
            let slot = map.entry(f.check).or_insert((0, 0));
            if f.allowed.is_some() {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        }
        map
    }

    /// `crate → check → (denied, allowed)` counts.
    pub fn counts_by_crate(&self) -> BTreeMap<String, BTreeMap<&'static str, (usize, usize)>> {
        let mut map: BTreeMap<String, BTreeMap<&'static str, (usize, usize)>> = BTreeMap::new();
        for f in &self.findings {
            let slot = map
                .entry(f.krate.clone())
                .or_default()
                .entry(f.check)
                .or_insert((0, 0));
            if f.allowed.is_some() {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        }
        map
    }

    /// The human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "qr2-analyze: {} files, {} function bodies, {} lock-order edges",
            self.files_scanned,
            self.functions_checked,
            self.graph.edges.len()
        );
        for (check, (denied, allowed)) in self.counts_by_check() {
            let _ = writeln!(out, "  {check:<16} {denied} finding(s), {allowed} allowed");
        }
        let mut denied: Vec<&Finding> = self.denied().collect();
        denied.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        if !denied.is_empty() {
            let _ = writeln!(out, "\nfindings:");
            for f in denied {
                let _ = writeln!(out, "  {}:{} [{}] {}", f.file, f.line, f.check, f.message);
            }
        }
        let allowed: Vec<&Finding> = self
            .findings
            .iter()
            .filter(|f| f.allowed.is_some())
            .collect();
        if !allowed.is_empty() {
            let _ = writeln!(out, "\nallowed (audited):");
            for f in allowed {
                let _ = writeln!(
                    out,
                    "  {}:{} [{}] {}",
                    f.file,
                    f.line,
                    f.check,
                    f.allowed.as_deref().unwrap_or("")
                );
            }
        }
        out
    }

    /// Machine-readable `ANALYZE.json`.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_obj();
        w.field_num("schema_version", 1.0);
        w.field_num("files_scanned", self.files_scanned as f64);
        w.field_num("functions_checked", self.functions_checked as f64);
        w.field_num("denied_findings", self.denied_count() as f64);
        w.key("checks");
        w.open_obj();
        for (check, (denied, allowed)) in self.counts_by_check() {
            w.key(check);
            w.open_obj();
            w.field_num("findings", denied as f64);
            w.field_num("allowed", allowed as f64);
            w.close_obj();
        }
        w.close_obj();
        w.key("per_crate");
        w.open_obj();
        for (krate, checks) in self.counts_by_crate() {
            w.key(&krate);
            w.open_obj();
            for (check, (denied, allowed)) in checks {
                w.key(check);
                w.open_obj();
                w.field_num("findings", denied as f64);
                w.field_num("allowed", allowed as f64);
                w.close_obj();
            }
            w.close_obj();
        }
        w.close_obj();
        w.key("non_test_lines");
        w.open_obj();
        for (krate, lines) in &self.non_test_lines {
            w.field_num(krate, *lines as f64);
        }
        w.close_obj();
        w.key("lock_graph");
        w.open_obj();
        w.key("edges");
        w.open_arr();
        for ((held, acquired), e) in &self.graph.edges {
            w.open_obj();
            w.field_str("held", held);
            w.field_str("acquired", acquired);
            w.field_str("site", &format!("{}:{}", e.file, e.line));
            w.field_str("function", &e.function);
            w.close_obj();
        }
        w.close_arr();
        w.close_obj();
        w.key("findings");
        w.open_arr();
        for f in &self.findings {
            w.open_obj();
            w.field_str("check", f.check);
            w.field_str("crate", &f.krate);
            w.field_str("file", &f.file);
            w.field_num("line", f.line as f64);
            w.field_str("message", &f.message);
            if let Some(reason) = &f.allowed {
                w.field_str("allowed", reason);
            }
            w.close_obj();
        }
        w.close_arr();
        w.key("allows");
        w.open_arr();
        for (file, a) in &self.allows {
            w.open_obj();
            w.field_str("check", &a.check);
            w.field_str("file", file);
            w.field_num("line", a.line as f64);
            w.field_str("reason", &a.reason);
            w.close_obj();
        }
        w.close_arr();
        w.close_obj();
        w.finish()
    }
}

/// Minimal JSON writer (the workspace is offline; no serde).
struct JsonWriter {
    out: String,
    /// Whether the current container already has a member (comma state),
    /// one entry per nesting level.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            out: String::new(),
            needs_comma: Vec::new(),
        }
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
    }

    fn open_obj(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    fn close_obj(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    fn open_arr(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    fn close_arr(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    fn key(&mut self, k: &str) {
        self.pre_value();
        self.push_str_escaped(k);
        self.out.push(':');
        // The value that follows must not emit another comma.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
    }

    fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.pre_value();
        self.push_str_escaped(v);
    }

    fn field_num(&mut self, k: &str, v: f64) {
        self.key(k);
        self.pre_value();
        if v.fract() == 0.0 && v.abs() < 9e15 {
            let _ = write!(self.out, "{}", v as i64);
        } else {
            let _ = write!(self.out, "{v}");
        }
    }

    fn push_str_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_shapes() {
        let mut w = JsonWriter::new();
        w.open_obj();
        w.field_str("a", "x\"y");
        w.field_num("n", 3.0);
        w.key("list");
        w.open_arr();
        w.open_obj();
        w.field_num("i", 1.0);
        w.close_obj();
        w.open_obj();
        w.field_num("i", 2.0);
        w.close_obj();
        w.close_arr();
        w.close_obj();
        assert_eq!(w.finish(), r#"{"a":"x\"y","n":3,"list":[{"i":1},{"i":2}]}"#);
    }

    #[test]
    fn empty_report_renders() {
        let r = Report::default();
        let json = r.render_json();
        assert!(json.contains("\"denied_findings\":0"));
        assert!(json.contains("\"lock-order\""));
        assert!(r.render_text().contains("qr2-analyze"));
    }
}
