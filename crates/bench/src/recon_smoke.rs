//! CI smoke benchmark for the offline rank reconstruction tier: live
//! engine sessions versus recon-index serving on the same database,
//! emitted as machine-readable JSON (`BENCH_pr8.json`).
//!
//! One deterministic 1M-row two-attribute database is reconstructed
//! offline to full coverage (`ReconIndex::run_job`), then the headline
//! serving engines (`1D-RERANK`, `MD-RERANK`, `MD-TA`) each answer the
//! same request twice:
//!
//! * **live** — a cold reranker session drains the page by probing the
//!   web database, paying real queries (the ledger records them);
//! * **recon** — a fresh cursor from `ReconIndex::serve` (with the
//!   reranker's own normalizer) pulls the same number of tuples, exactly
//!   how the hybrid tier in `qr2-service` answers a covered session.
//!
//! The reconstruction's sorted projections are built once, before any
//! case is timed, and reported on their own (`projection_build_ms`):
//! every session after the first at a reconstruction version shares
//! them, so charging their build to whichever case runs first would
//! misstate per-session serving cost.
//!
//! CI guards the contracts that must never drift:
//! `identical_responses` (every recon page equals the live page,
//! tuple-for-tuple — the byte-identical serving invariant
//! `tests/recon_e2e.rs` pins for all seven algorithms),
//! `recon_serve_ledger_queries == 0` (the ledger does not move while
//! the recon tier serves: a fully reconstructed source answers for
//! free), and `recon_wall_ms < live_wall_ms` for every record (serving a
//! covered region must beat paying for it). Latency columns are
//! otherwise machine-dependent trends.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use qr2_core::{
    Algorithm, DenseIndex, ExecutorKind, LinearFunction, OneDimFunction, RankingFunction,
    RerankRequest, Reranker,
};
use qr2_datagen::{mixed_db, MixedConfig};
use qr2_recon::{JobOptions, ReconIndex, ServeOrder};
use qr2_webdb::{SearchQuery, SimulatedWebDb, TopKInterface};

use crate::report::Table;

/// Workload size knobs; [`Default`] is the committed-report scale, unit
/// tests run a small configuration (they execute in debug builds).
#[derive(Debug, Clone)]
pub struct ReconSmokeConfig {
    /// Rows in the simulated web database.
    pub rows: usize,
    /// Result-page size of the simulated source (`system_k`); the crawl
    /// splits regions until each holds at most this many rows.
    pub system_k: usize,
    /// Tuples each serving pass drains per request.
    pub depth: usize,
}

impl Default for ReconSmokeConfig {
    fn default() -> Self {
        ReconSmokeConfig {
            rows: 1_000_000,
            system_k: 25_000,
            depth: 25,
        }
    }
}

/// One request's live-versus-recon measurement.
#[derive(Debug, Clone)]
pub struct ReconSmokeRecord {
    /// Paper name (`"MD-RERANK"`).
    pub algorithm: &'static str,
    /// `"1d"` or `"md"`.
    pub family: &'static str,
    /// Tuples served by each side.
    pub tuples: usize,
    /// Web-DB queries the live session paid (ledger delta).
    pub live_queries: u64,
    /// Wall time of the live drain, milliseconds.
    pub live_wall_ms: f64,
    /// Wall time of the recon serve (a fresh cursor pulling `tuples`
    /// tuples), milliseconds.
    pub recon_wall_ms: f64,
    /// Whether the recon page equalled the live page tuple-for-tuple.
    pub identical: bool,
}

/// The full PR8 reconstruction smoke measurement.
#[derive(Debug, Clone)]
pub struct ReconSmokeReport {
    /// Rows in the database.
    pub rows: usize,
    /// Source result-page size.
    pub system_k: usize,
    /// Tuples served per request.
    pub depth: usize,
    /// Paid web-DB queries the offline crawl spent to full coverage.
    pub crawl_queries: u64,
    /// Wall time of the offline crawl, milliseconds.
    pub crawl_wall_ms: f64,
    /// Coverage after the crawl (must be 1.0).
    pub coverage: f64,
    /// Tuples held by the reconstruction.
    pub tuples_indexed: usize,
    /// Wall time of building the reconstruction's sorted projections
    /// (once, before the cases), milliseconds.
    pub projection_build_ms: f64,
    /// Per-request measurements.
    pub records: Vec<ReconSmokeRecord>,
    /// True when every recon page equalled its live page — CI guards it.
    pub identical_responses: bool,
    /// Ledger movement across the whole recon serving phase — CI guards
    /// that it is exactly zero.
    pub recon_serve_ledger_queries: u64,
}

/// The serving-engine case set over the generated `x0`/`x1` schema.
fn recon_cases(schema: &qr2_webdb::Schema) -> Vec<(Algorithm, RankingFunction)> {
    let x0 = schema.expect_id("x0");
    let md: RankingFunction = LinearFunction::from_names(schema, &[("x0", 1.0), ("x1", -0.5)])
        .expect("valid md function")
        .into();
    vec![
        (Algorithm::OneDRerank, OneDimFunction::desc(x0).into()),
        (Algorithm::MdRerank, md.clone()),
        (Algorithm::MdTa, md),
    ]
}

/// Reconstruct the database offline, then serve every case both ways.
pub fn run_recon_smoke(cfg: &ReconSmokeConfig) -> ReconSmokeReport {
    let db: Arc<SimulatedWebDb> = Arc::new(mixed_db(
        &MixedConfig {
            n: cfg.rows,
            numeric_dims: 2,
            categories: 0,
            seed: 0x5EED_5008,
            system_k: cfg.system_k,
        },
        &[0.8, 0.2],
    ));

    // ── Offline reconstruction to full coverage ────────────────────
    let idx = ReconIndex::ephemeral();
    let start = Instant::now();
    let job = idx
        .run_job(
            &*db,
            &JobOptions {
                max_queries: usize::MAX,
                ..JobOptions::default()
            },
            0,
        )
        .expect("no concurrent job");
    let crawl_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(job.state, "complete", "the crawl must reach full coverage");
    let status = idx.status(db.schema(), 0);
    assert!((status.coverage - 1.0).abs() < 1e-9, "{status:?}");

    let numeric: Vec<_> = db
        .schema()
        .iter()
        .filter(|(_, a)| a.kind.is_numeric())
        .map(|(id, _)| id)
        .collect();
    let start = Instant::now();
    idx.prewarm_projections(&numeric);
    let projection_build_ms = start.elapsed().as_secs_f64() * 1e3;

    // ── Serve each case live, then from the reconstruction ─────────
    let mut records = Vec::new();
    let mut recon_serve_ledger_queries = 0u64;
    for (algorithm, function) in recon_cases(db.schema()) {
        let reranker = Reranker::builder(db.clone())
            .executor(ExecutorKind::Sequential)
            .dense_index(Arc::new(DenseIndex::in_memory()))
            .build();

        let ledger_before = db.ledger().total();
        let start = Instant::now();
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function: function.clone(),
            algorithm,
        });
        let live = session.next_page(cfg.depth);
        let live_wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let live_queries = db.ledger().total() - ledger_before;
        assert_eq!(
            live.len(),
            cfg.depth,
            "{}: short live page",
            algorithm.paper_name()
        );

        let order = ServeOrder::for_request(algorithm, &function)
            .expect("serving order exists for every accepted request");
        let ledger_before = db.ledger().total();
        let start = Instant::now();
        let recon: Vec<_> = idx
            .serve(&SearchQuery::all(), &order, reranker.normalizer(), || 0)
            .expect("full coverage: the root region is covered")
            .take(cfg.depth)
            .collect();
        let recon_wall_ms = start.elapsed().as_secs_f64() * 1e3;
        recon_serve_ledger_queries += db.ledger().total() - ledger_before;

        records.push(ReconSmokeRecord {
            algorithm: algorithm.paper_name(),
            family: if algorithm.is_one_dimensional() {
                "1d"
            } else {
                "md"
            },
            tuples: cfg.depth,
            live_queries,
            live_wall_ms,
            recon_wall_ms,
            identical: recon == live,
        });
    }

    let identical_responses = records.iter().all(|r| r.identical);
    ReconSmokeReport {
        rows: cfg.rows,
        system_k: cfg.system_k,
        depth: cfg.depth,
        crawl_queries: job.paid_queries as u64,
        crawl_wall_ms,
        coverage: status.coverage,
        tuples_indexed: status.tuples,
        projection_build_ms,
        records,
        identical_responses,
        recon_serve_ledger_queries,
    }
}

/// Render the report as a text table.
pub fn recon_smoke_table(report: &ReconSmokeReport) -> Table {
    let mut table = Table::new(
        format!(
            "PR8 recon smoke — {} rows, system k {}, {} tuples per request \
             (crawl: {} paid queries, {:.0} ms, coverage {:.2}; projections {:.0} ms)",
            report.rows,
            report.system_k,
            report.depth,
            report.crawl_queries,
            report.crawl_wall_ms,
            report.coverage,
            report.projection_build_ms
        ),
        &[
            "algorithm",
            "live queries",
            "live ms",
            "recon ms",
            "identical",
        ],
    );
    for r in &report.records {
        table.row(&[
            r.algorithm.to_string(),
            r.live_queries.to_string(),
            format!("{:.2}", r.live_wall_ms),
            format!("{:.2}", r.recon_wall_ms),
            r.identical.to_string(),
        ]);
    }
    table.row(&[
        "recon serve ledger".to_string(),
        report.recon_serve_ledger_queries.to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    table
}

/// Serialize the report as the `BENCH_pr8.json` document.
pub fn recon_smoke_json(report: &ReconSmokeReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"pr8_recon_smoke\",\n");
    out.push_str(&format!(
        "  \"workload\": \"uniform_2d_{}rows_k{}\",\n",
        report.rows, report.system_k
    ));
    out.push_str(&format!("  \"rows\": {},\n", report.rows));
    out.push_str(&format!("  \"system_k\": {},\n", report.system_k));
    out.push_str(&format!("  \"depth\": {},\n", report.depth));
    out.push_str(&format!("  \"crawl_queries\": {},\n", report.crawl_queries));
    out.push_str(&format!(
        "  \"crawl_wall_ms\": {:.1},\n",
        report.crawl_wall_ms
    ));
    out.push_str(&format!("  \"coverage\": {:.4},\n", report.coverage));
    out.push_str(&format!(
        "  \"tuples_indexed\": {},\n",
        report.tuples_indexed
    ));
    out.push_str(&format!(
        "  \"projection_build_ms\": {:.1},\n",
        report.projection_build_ms
    ));
    out.push_str("  \"records\": [\n");
    for (i, r) in report.records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"family\": \"{}\", \"tuples\": {}, \
             \"live_queries\": {}, \"live_wall_ms\": {:.2}, \"recon_wall_ms\": {:.2}, \
             \"identical\": {}}}{}\n",
            r.algorithm,
            r.family,
            r.tuples,
            r.live_queries,
            r.live_wall_ms,
            r.recon_wall_ms,
            r.identical,
            if i + 1 < report.records.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"identical_responses\": {},\n",
        report.identical_responses
    ));
    out.push_str(&format!(
        "  \"recon_serve_ledger_queries\": {}\n",
        report.recon_serve_ledger_queries
    ));
    out.push_str("}\n");
    out
}

/// Write `BENCH_pr8.json` at the workspace root; returns the path.
pub fn write_recon_smoke_report(report: &ReconSmokeReport) -> PathBuf {
    let path = crate::report::workspace_root().join("BENCH_pr8.json");
    std::fs::write(&path, recon_smoke_json(report)).expect("write recon smoke report");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build scale: the contracts are size-independent.
    fn small() -> ReconSmokeConfig {
        ReconSmokeConfig {
            rows: 3_000,
            system_k: 256,
            depth: 10,
        }
    }

    #[test]
    fn recon_serving_is_identical_and_free() {
        let report = run_recon_smoke(&small());
        assert!(
            report.identical_responses,
            "recon pages must equal live pages: {:?}",
            report.records
        );
        assert_eq!(
            report.recon_serve_ledger_queries, 0,
            "recon serving must not touch the web database"
        );
        assert!(report.crawl_queries > 0, "the crawl itself pays");
        assert!((report.coverage - 1.0).abs() < 1e-9);
        assert_eq!(report.tuples_indexed, small().rows);
        assert_eq!(report.records.len(), 3);
        for r in &report.records {
            assert!(
                r.live_queries > 0,
                "{}: a cold live session pays real queries",
                r.algorithm
            );
        }
    }

    #[test]
    fn recon_smoke_json_is_well_formed() {
        let report = ReconSmokeReport {
            rows: 1_000_000,
            system_k: 25_000,
            depth: 25,
            crawl_queries: 131,
            crawl_wall_ms: 950.0,
            coverage: 1.0,
            tuples_indexed: 1_000_000,
            projection_build_ms: 120.0,
            records: vec![ReconSmokeRecord {
                algorithm: "MD-RERANK",
                family: "md",
                tuples: 25,
                live_queries: 12,
                live_wall_ms: 40.0,
                recon_wall_ms: 180.0,
                identical: true,
            }],
            identical_responses: true,
            recon_serve_ledger_queries: 0,
        };
        let json = recon_smoke_json(&report);
        assert!(json.contains("\"bench\": \"pr8_recon_smoke\""));
        assert!(json.contains("\"identical_responses\": true"));
        assert!(json.contains("\"recon_serve_ledger_queries\": 0"));
        assert!(json.contains("\"crawl_queries\": 131"));
        assert!(json.contains("\"projection_build_ms\": 120.0"));
        let table = recon_smoke_table(&report);
        assert!(!table.is_empty());
    }
}
