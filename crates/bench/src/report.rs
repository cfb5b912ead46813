//! Plain-text tables and CSV output for the figures binary, and the one
//! report schema every `--smoke` scenario writes.
//!
//! A smoke [`Report`] has four parts:
//!
//! * `bench` and `workload` names;
//! * `deterministic` — values fixed by the workload seed and
//!   configuration (query costs, ledger counts, answer equality). The
//!   `--smoke` runner compares them with the committed file and fails on
//!   any difference (drift);
//! * `measured` — informational values that vary run to run: wall times
//!   and counts that depend on thread interleaving. Never compared;
//! * `contracts` — named pass/fail checks, each with the message printed
//!   when it fails. Any failing contract fails the run.
//!
//! [`Report::write`] is the only serializer of `BENCH_pr*.json`: one
//! top-level key or one record per line, through [`qr2_http::Json`].
//! [`run_suite`] is the runner: for every scenario it reads the committed
//! file, writes the fresh one, prints the tables, every contract and
//! every drifted key, and returns whether everything passed.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use qr2_http::{parse_json, write_escaped, Json};

/// A simple aligned text table that doubles as CSV rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "── {} ──", self.title);
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
        }
        out.push('\n');
        for (i, _) in self.header.iter().enumerate() {
            let _ = write!(out, "{}  ", "-".repeat(widths[i]));
        }
        out.push('\n');
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The workspace root: walks up from the cwd until the directory holding
/// `Cargo.lock` (the workspace marker — member crates have a `Cargo.toml`
/// of their own but share the root lockfile). Falls back to the cwd.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    let mut dir = cwd.clone();
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir;
        }
        match dir.parent() {
            Some(parent) => dir = parent.to_path_buf(),
            None => return cwd,
        }
    }
}

/// Directory that receives CSV output (`target/figures`).
pub fn figures_dir() -> PathBuf {
    workspace_root().join("target").join("figures")
}

/// Write a table as `target/figures/<name>.csv`; returns the path.
pub fn write_csv(name: &str, table: &Table) -> PathBuf {
    let dir = figures_dir();
    fs::create_dir_all(&dir).expect("create figures dir");
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, table.to_csv()).expect("write csv");
    path
}

/// `x` rounded to `places` decimals — how every measured value is
/// written, and the value a contract on it checks.
pub fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// One named pass/fail check of a smoke report.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Short check name, suffixed `/<record>` for per-record checks.
    pub name: String,
    /// Whether the check held.
    pub passed: bool,
    /// What the check found, printed when it fails.
    pub message: String,
}

impl Contract {
    /// A contract that passed iff `passed`.
    pub fn new(name: impl Into<String>, passed: bool, message: impl Into<String>) -> Contract {
        Contract {
            name: name.into(),
            passed,
            message: message.into(),
        }
    }
}

/// One smoke scenario's result in the shared schema (see the module
/// docs). `deterministic` and `measured` are JSON objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Scenario name (`"pr3_smoke"`).
    pub bench: String,
    /// Workload name, including its seed.
    pub workload: String,
    /// Seed- and configuration-determined values, drift-checked.
    pub deterministic: Json,
    /// Informational values that vary run to run.
    pub measured: Json,
    /// The scenario's checks.
    pub contracts: Vec<Contract>,
}

impl Report {
    /// The `BENCH_pr*.json` text: one top-level key or one record per
    /// line.
    pub fn write(&self) -> String {
        let contracts: Vec<Json> = self
            .contracts
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", c.name.as_str().into()),
                    ("passed", c.passed.into()),
                    ("message", c.message.as_str().into()),
                ])
            })
            .collect();
        let (bench, workload) = (self.bench.as_str().into(), self.workload.as_str().into());
        let mut out = String::new();
        write_object(
            &[
                ("bench", &bench),
                ("workload", &workload),
                ("deterministic", &self.deterministic),
                ("measured", &self.measured),
                ("contracts", &Json::Arr(contracts)),
            ],
            0,
            &mut out,
        );
        out.push('\n');
        out
    }

    /// Parse a report written by [`Report::write`].
    pub fn parse(text: &str) -> Result<Report, String> {
        let v = parse_json(text).map_err(|e| e.to_string())?;
        let field = |key: &str| v.get(key).ok_or_else(|| format!("no `{key}` field"));
        let text = |key: &str| -> Result<String, String> {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` is not a string"))
        };
        let contracts = field("contracts")?
            .as_arr()
            .ok_or("`contracts` is not an array")?
            .iter()
            .map(|c| {
                Some(Contract::new(
                    c.get("name")?.as_str()?,
                    c.get("passed")?.as_bool()?,
                    c.get("message")?.as_str()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed contract")?;
        Ok(Report {
            bench: text("bench")?,
            workload: text("workload")?,
            deterministic: field("deterministic")?.clone(),
            measured: field("measured")?.clone(),
            contracts,
        })
    }

    /// The records of the array `key`: record `i` merges the `i`-th
    /// object of `deterministic[key]` with that of `measured[key]`.
    pub fn records(&self, key: &str) -> Vec<Json> {
        let side = |s: &Json| {
            s.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .to_vec()
        };
        let (det, measured) = (side(&self.deterministic), side(&self.measured));
        (0..det.len().max(measured.len()))
            .map(|i| {
                let mut merged = BTreeMap::new();
                for part in [det.get(i), measured.get(i)].into_iter().flatten() {
                    if let Json::Obj(fields) = part {
                        merged.extend(fields.clone());
                    }
                }
                Json::Obj(merged)
            })
            .collect()
    }

    /// The report as text tables: one of scalar fields, then one per
    /// record array (its deterministic and measured halves side by side).
    pub fn tables(&self) -> Vec<Table> {
        let mut summary = Table::new(
            format!("{} — {}", self.bench, self.workload),
            &["field", "value"],
        );
        let mut tables = Vec::new();
        let mut arrays: Vec<&str> = Vec::new();
        for side in [&self.deterministic, &self.measured] {
            let Json::Obj(fields) = side else { continue };
            for (key, value) in fields {
                if matches!(value, Json::Arr(_)) {
                    if !arrays.contains(&key.as_str()) {
                        arrays.push(key);
                    }
                } else {
                    summary_rows(&mut summary, key, value);
                }
            }
        }
        tables.push(summary);
        for key in arrays {
            let records = self.records(key);
            let columns: Vec<&str> = match records.first() {
                Some(Json::Obj(fields)) => fields.keys().map(String::as_str).collect(),
                _ => Vec::new(),
            };
            let mut table = Table::new(format!("{} {key}", self.bench), &columns);
            for r in &records {
                let row: Vec<String> = columns.iter().map(|c| cell(r.get(c))).collect();
                table.row(&row);
            }
            tables.push(table);
        }
        tables
    }
}

/// Append `key`'s rows to a field/value table, one row per leaf of a
/// nested object.
fn summary_rows(table: &mut Table, key: &str, value: &Json) {
    match value {
        Json::Obj(fields) => {
            for (k, v) in fields {
                summary_rows(table, &format!("{key}.{k}"), v);
            }
        }
        _ => table.row(&[key.to_string(), cell(Some(value))]),
    }
}

/// A table cell: strings unquoted, everything else as compact JSON.
fn cell(value: Option<&Json>) -> String {
    match value {
        None => "-".to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(v) => v.to_string(),
    }
}

/// Write an object with one key per line; nested objects down to depth 1
/// do the same, arrays put one element per line, anything deeper is
/// compact.
fn write_object(fields: &[(&str, &Json)], depth: usize, out: &mut String) {
    out.push_str("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        out.push_str(&"  ".repeat(depth + 1));
        write_escaped(key, out);
        out.push_str(": ");
        match value {
            Json::Obj(m) if depth < 1 && !m.is_empty() => {
                let nested: Vec<_> = m.iter().map(|(k, v)| (k.as_str(), v)).collect();
                write_object(&nested, depth + 1, out)
            }
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let _ = write!(out, "{}{item}", "  ".repeat(depth + 2));
                    out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{}]", "  ".repeat(depth + 1));
            }
            _ => {
                let _ = write!(out, "{value}");
            }
        }
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    let _ = write!(out, "{}}}", "  ".repeat(depth));
}

/// Every difference between two values, one line per differing leaf,
/// named by its path (`deterministic.algorithms[3].queries`).
fn drift(path: &str, committed: Option<&Json>, fresh: Option<&Json>, out: &mut Vec<String>) {
    match (committed, fresh) {
        (Some(Json::Obj(a)), Some(Json::Obj(b))) => {
            let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
            for k in keys {
                drift(&format!("{path}.{k}"), a.get(k), b.get(k), out);
            }
        }
        (Some(Json::Arr(a)), Some(Json::Arr(b))) => {
            for i in 0..a.len().max(b.len()) {
                drift(&format!("{path}[{i}]"), a.get(i), b.get(i), out);
            }
        }
        _ if committed != fresh => {
            let show = |v: Option<&Json>| v.map_or("absent".to_string(), Json::to_string);
            out.push(format!(
                "{path}: committed {}, fresh {}",
                show(committed),
                show(fresh)
            ));
        }
        _ => {}
    }
}

/// Check a fresh report against its committed file's text (`None` when
/// no file is committed). Returns one `(passed, line)` per contract and
/// one failing line per drifted `deterministic` key; a missing or
/// unreadable committed file counts as drift.
pub fn check(file: &str, committed: Option<&str>, fresh: &Report) -> Vec<(bool, String)> {
    let mut lines: Vec<(bool, String)> = fresh
        .contracts
        .iter()
        .map(|c| {
            let line = if c.passed {
                format!("{file}: contract {} holds", c.name)
            } else {
                format!("{file}: contract {} failed: {}", c.name, c.message)
            };
            (c.passed, line)
        })
        .collect();
    const RERUN: &str =
        "rerun `cargo run --release -p qr2-bench --bin figures -- --smoke` and commit the result";
    match committed.map(Report::parse) {
        None => lines.push((false, format!("{file}: no committed report; {RERUN}"))),
        Some(Err(e)) => lines.push((
            false,
            format!("{file}: committed report unreadable ({e}); {RERUN}"),
        )),
        Some(Ok(old)) => {
            let mut drifted = Vec::new();
            drift(
                "deterministic",
                Some(&old.deterministic),
                Some(&fresh.deterministic),
                &mut drifted,
            );
            lines.extend(
                drifted
                    .into_iter()
                    .map(|d| (false, format!("{file}: {d} (drift); {RERUN}"))),
            );
        }
    }
    lines
}

/// One `--smoke` scenario: the file it writes and what it runs.
pub type Scenario = (&'static str, fn() -> Report);

/// Run every scenario into `dir`: read the committed file, write the
/// fresh report, print its tables, every contract and every drifted
/// key. Returns false when any contract failed or anything drifted.
pub fn run_suite(dir: &Path, scenarios: &[Scenario]) -> bool {
    let mut ok = true;
    for (file, run) in scenarios {
        let path = dir.join(file);
        let committed = fs::read_to_string(&path).ok();
        let fresh = run();
        fs::write(&path, fresh.write()).expect("write smoke report");
        for table in fresh.tables() {
            println!("{}", table.render());
        }
        println!("wrote {}", path.display());
        for (passed, line) in check(file, committed.as_deref(), &fresh) {
            println!("  {} {line}", if passed { "ok  " } else { "FAIL" });
            ok &= passed;
        }
        println!();
    }
    ok
}

/// The number at `key` of a record (tests read reports through this).
#[cfg(test)]
pub(crate) fn num(record: &Json, key: &str) -> f64 {
    record
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number `{key}` in {record}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new("demo", &["algo", "queries"]);
        t.row(&["1D-RERANK".to_string(), "12".to_string()]);
        t.row(&["1D-BINARY".to_string(), "7".to_string()]);
        let text = t.render();
        assert!(text.contains("── demo ──"));
        assert!(text.contains("1D-RERANK"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "algo,queries");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    fn sample(warm_queries: usize, warm_us: f64) -> Report {
        Report {
            bench: "demo_smoke".into(),
            workload: "fixed \"seed\" 7".into(),
            deterministic: Json::obj([
                ("depth", 10usize.into()),
                ("coverage", 1.0.into()),
                (
                    "algorithms",
                    vec![
                        Json::obj([
                            ("algorithm", "1D-BINARY".into()),
                            ("queries", 14usize.into()),
                        ]),
                        Json::obj([
                            ("algorithm", "MD-TA".into()),
                            ("queries", warm_queries.into()),
                        ]),
                    ]
                    .into(),
                ),
            ]),
            measured: Json::obj([
                ("overall", Json::obj([("speedup", round(150.74, 1).into())])),
                (
                    "algorithms",
                    vec![
                        Json::obj([("algorithm", "1D-BINARY".into()), ("us", 4.6.into())]),
                        Json::obj([("algorithm", "MD-TA".into()), ("us", warm_us.into())]),
                    ]
                    .into(),
                ),
            ]),
            contracts: vec![Contract::new("warm_pass_free", true, "cost 0 queries")],
        }
    }

    #[test]
    fn written_report_parses_back_to_itself() {
        let report = sample(22, 13.1);
        let text = report.write();
        assert_eq!(Report::parse(&text), Ok(report.clone()));
        // One top-level key or one record per line.
        assert!(text.contains("\n  \"bench\": \"demo_smoke\",\n"));
        assert!(text.contains("\n      {\"algorithm\":\"MD-TA\",\"queries\":22}\n"));
        assert!(text.contains("\n    \"overall\": {\"speedup\":150.7}\n"));
        // Records merge their two halves; tables show both.
        assert_eq!(num(&report.records("algorithms")[1], "us"), 13.1);
        let tables = report.tables();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 3, "depth, coverage, overall.speedup");
        assert_eq!(tables[1].len(), 2);
    }

    #[test]
    fn changed_deterministic_value_is_drift_naming_file_and_key() {
        let committed = sample(22, 13.1).write();
        let lines = check("BENCH_demo.json", Some(&committed), &sample(23, 13.1));
        let failed: Vec<_> = lines.iter().filter(|(ok, _)| !ok).collect();
        assert_eq!(failed.len(), 1, "{lines:?}");
        let line = &failed[0].1;
        assert!(line.starts_with("BENCH_demo.json:"), "{line}");
        assert!(line.contains("algorithms[1].queries"), "{line}");
        assert!(line.contains("committed 22, fresh 23"), "{line}");
    }

    #[test]
    fn measured_only_change_passes() {
        let committed = sample(22, 13.1).write();
        let lines = check("BENCH_demo.json", Some(&committed), &sample(22, 99.9));
        assert!(lines.iter().all(|(ok, _)| *ok), "{lines:?}");
        assert_eq!(lines.len(), 1, "one line per contract");
    }

    #[test]
    fn missing_or_unreadable_committed_file_is_drift() {
        let fresh = sample(22, 13.1);
        for committed in [None, Some("{\"bench\": \"old layout\"}")] {
            let lines = check("BENCH_demo.json", committed, &fresh);
            assert!(
                lines
                    .iter()
                    .any(|(ok, l)| !ok && l.starts_with("BENCH_demo.json: ")),
                "{lines:?}"
            );
        }
    }

    #[test]
    fn one_failing_contract_fails_the_run() {
        fn passing() -> Report {
            sample(22, 13.1)
        }
        fn failing() -> Report {
            let mut r = sample(22, 13.1);
            r.contracts
                .push(Contract::new("bounded", false, "ratio 6x; the bound is 5"));
            r
        }
        let dir = std::env::temp_dir().join(format!("qr2-bench-report-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let suite: [Scenario; 2] = [("a.json", passing), ("b.json", passing)];
        assert!(!run_suite(&dir, &suite), "no committed files yet");
        assert!(run_suite(&dir, &suite), "rerun matches what was written");
        let suite: [Scenario; 2] = [("a.json", passing), ("b.json", failing)];
        assert!(!run_suite(&dir, &suite));
        let lines = check("b.json", Some(&passing().write()), &failing());
        assert!(lines.contains(&(
            false,
            "b.json: contract bounded failed: ratio 6x; the bound is 5".to_string()
        )));
        fs::remove_dir_all(&dir).unwrap();
    }
}
