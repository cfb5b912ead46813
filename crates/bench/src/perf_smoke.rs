//! Smoke scenario `BENCH_pr5.json`: the indexed execution engine's
//! scan-vs-index per-query latency on a 1M-row mixed workload.
//!
//! Two databases are built over the **same** fixed-seed table and hidden
//! ranking: one forced to the rank-order scan ([`ExecMode::ScanOnly`], the
//! pre-index behaviour) and one on the shipped automatic engine
//! ([`ExecMode::Auto`]: sorted-projection index with a cost-model scan
//! fallback). Every query runs against both; responses must be identical
//! and both ledgers must count exactly the same queries — the speedup is
//! pure execution, never a behaviour change. The runner checks both as
//! contracts, plus a speedup of at least 10×: the median, over every
//! query, of the ratio of its scan and index latencies, both measured
//! back to back in the same round.

use std::time::Instant;

use qr2_datagen::{mixed_db, MixedConfig};
use qr2_http::Json;
use qr2_webdb::{CatSet, ExecMode, RangePred, SearchQuery, SimulatedWebDb, TopKInterface};

use crate::report::{median, round, Contract, Report};

/// Sizing knobs for [`run_perf_smoke`].
#[derive(Debug, Clone, Copy)]
pub struct PerfSmokeConfig {
    /// Inventory size (1M for the committed report).
    pub rows: usize,
    /// Queries per class.
    pub queries_per_class: usize,
}

impl Default for PerfSmokeConfig {
    fn default() -> Self {
        PerfSmokeConfig {
            rows: 1_000_000,
            queries_per_class: 25,
        }
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(x: &mut u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// The deterministic query mix: three selective classes the index should
/// dominate, one broad class where the cost model falls back to the scan.
fn query_classes(db: &SimulatedWebDb, per_class: usize) -> Vec<(&'static str, Vec<SearchQuery>)> {
    let schema = db.schema();
    let x0 = schema.expect_id("x0");
    let x1 = schema.expect_id("x1");
    let cat = schema.expect_id("cat");
    let n = db.len() as f64;
    // Widths scale with 1/n so class selectivity is size-independent.
    let narrow = 50.0 / n;
    let medium = 200.0 / n;
    let mut seed = 0x9E37_0001u64;
    let mut gen = |f: &mut dyn FnMut(&mut u64) -> SearchQuery| -> Vec<SearchQuery> {
        (0..per_class).map(|_| f(&mut seed)).collect()
    };
    vec![
        (
            "narrow_range",
            gen(&mut |s| {
                let lo = unit(s) * (1.0 - narrow);
                SearchQuery::all().and_range(x0, RangePred::half_open(lo, lo + narrow))
            }),
        ),
        (
            "conjunctive",
            gen(&mut |s| {
                let lo = unit(s) * (1.0 - medium);
                let code = (splitmix64(s) % 8) as u32;
                SearchQuery::all()
                    .and_range(x0, RangePred::half_open(lo, lo + medium))
                    .and_cats(cat, CatSet::single(code))
                    .and_range(x1, RangePred::closed(0.0, 0.5))
            }),
        ),
        (
            "category_probe",
            gen(&mut |s| {
                let lo = unit(s) * (1.0 - medium);
                let code = (splitmix64(s) % 8) as u32;
                SearchQuery::all()
                    .and_cats(cat, CatSet::new([code, (code + 1) % 8]))
                    .and_range(x0, RangePred::closed(lo, lo + medium))
            }),
        ),
        (
            "broad_range",
            gen(&mut |s| {
                let lo = unit(s) * 0.2;
                SearchQuery::all().and_range(x0, RangePred::closed(lo, lo + 0.7))
            }),
        ),
    ]
}

/// Run the scan-vs-index measurement. Deterministic in everything but
/// wall time.
pub fn run_perf_smoke(cfg: &PerfSmokeConfig) -> Report {
    let mixed = MixedConfig {
        n: cfg.rows,
        ..MixedConfig::default()
    };
    let weights = [1.0, -0.5];
    let scan_db = mixed_db(&mixed, &weights).with_exec_mode(ExecMode::ScanOnly);
    let auto_db = mixed_db(&mixed, &weights).with_exec_mode(ExecMode::Auto);
    // The one-time index build happens outside the timed region (it is
    // lazy otherwise and would be charged to the first measured query).
    auto_db.prewarm_index();

    let classes = query_classes(&scan_db, cfg.queries_per_class);
    let timed = |db: &SimulatedWebDb, q: &SearchQuery| {
        let t = Instant::now();
        let resp = db.search(q);
        (resp, t.elapsed().as_secs_f64() * 1e6)
    };
    let mut identical = true;
    let mut class_records = Vec::new();
    let mut all = Rounds::default();
    for (class, queries) in &classes {
        let mut rounds = Rounds::default();
        for (i, q) in queries.iter().enumerate() {
            // One round per query: both arms back to back, so a machine
            // slowdown hits both sides of its ratio. Alternate which side
            // runs first: the first run of a query pulls the touched
            // columns into cache, which would otherwise systematically
            // favour whichever side runs second.
            let ((a, index_us), (b, scan_us)) = if i % 2 == 0 {
                let index = timed(&auto_db, q);
                (index, timed(&scan_db, q))
            } else {
                let scan = timed(&scan_db, q);
                (timed(&auto_db, q), scan)
            };
            identical &= a == b;
            rounds.push(scan_us, index_us);
            all.push(scan_us, index_us);
        }
        class_records.push(rounds.medians(Some(*class)));
    }
    let overall = all.medians(None);
    let speedup = overall.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
    let breakdown = auto_db.ledger().exec_breakdown();
    let (scan_ledger, index_ledger) = (scan_db.ledger().total(), auto_db.ledger().total());
    let rows = cfg.rows;
    Report {
        bench: "pr5_index_smoke".into(),
        workload: "mixed_uniform_2num_8cat_seed_0x5EED1DB5".into(),
        deterministic: Json::obj([
            ("rows", rows.into()),
            ("queries_per_class", cfg.queries_per_class.into()),
            ("identical_responses", identical.into()),
            ("scan_ledger_queries", Json::Num(scan_ledger as f64)),
            ("index_ledger_queries", Json::Num(index_ledger as f64)),
            ("auto_indexed", Json::Num(breakdown.indexed as f64)),
            ("auto_scanned", Json::Num(breakdown.scanned as f64)),
        ]),
        measured: Json::obj([("db_search", class_records.into()), ("overall", overall)]),
        contracts: vec![
            Contract::new(
                "identical_responses",
                identical,
                "indexed search diverged from the scan path",
            ),
            Contract::new(
                "index_ledger_within_scan",
                index_ledger <= scan_ledger,
                format!(
                    "index path issued {index_ledger} ledger queries vs scan's {scan_ledger}; \
                     the engine must not change what counts as a query"
                ),
            ),
            Contract::new(
                "speedup_floor",
                speedup >= 10.0,
                format!(
                    "indexed search is only {speedup}x the scan path at {rows} rows \
                     (median per-query ratio); the floor is 10x"
                ),
            ),
        ],
    }
}

/// Per-round scan and index latencies (µs).
#[derive(Default)]
struct Rounds {
    scan_us: Vec<f64>,
    index_us: Vec<f64>,
    ratios: Vec<f64>,
}

impl Rounds {
    fn push(&mut self, scan_us: f64, index_us: f64) {
        self.scan_us.push(scan_us);
        self.index_us.push(index_us);
        self.ratios.push(scan_us / index_us.max(1e-3));
    }

    /// The median latencies and the speedup, the median of the per-round
    /// scan/index ratios, of one query class (`None`: over every query).
    fn medians(mut self, class: Option<&str>) -> Json {
        let mut fields = vec![
            ("scan_median_us", round(median(&mut self.scan_us), 1).into()),
            (
                "index_median_us",
                round(median(&mut self.index_us), 1).into(),
            ),
            ("speedup", round(median(&mut self.ratios), 1).into()),
        ];
        if let Some(class) = class {
            fields.insert(0, ("class", class.into()));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::num;

    /// Reduced-scale run (debug builds time nothing meaningful; this pins
    /// the *semantics*: identical responses, identical ledgers, the cost
    /// model actually exercising both paths).
    #[test]
    fn reduced_run_is_equivalent_and_well_formed() {
        let report = run_perf_smoke(&PerfSmokeConfig {
            rows: 20_000,
            queries_per_class: 4,
        });
        let det = &report.deterministic;
        assert_eq!(
            det.get("identical_responses"),
            Some(&Json::Bool(true)),
            "index must not change answers"
        );
        assert_eq!(
            num(det, "scan_ledger_queries"),
            num(det, "index_ledger_queries"),
            "the index must not change what counts as a query"
        );
        assert_eq!(num(det, "scan_ledger_queries"), 16.0);
        assert!(
            num(det, "auto_indexed") > 0.0,
            "selective classes use the index"
        );
        assert!(
            num(det, "auto_scanned") > 0.0,
            "the broad class falls back to the scan"
        );
        assert_eq!(report.records("db_search").len(), 4);
        assert!(num(report.measured.get("overall").expect("overall"), "speedup") > 0.0);
    }
}
