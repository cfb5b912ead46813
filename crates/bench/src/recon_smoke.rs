//! Smoke scenario `BENCH_pr8.json`: the offline rank reconstruction
//! tier, live engine sessions versus recon-index serving on the same
//! database.
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
//! The reconstruction's columns, sorted projections and the kd-tree
//! over both columns are built once, before any case is timed, and
//! reported on their own (`projection_build_ms`): every session after
//! the first at a reconstruction version shares them, so charging their
//! build to whichever case runs first would misstate per-session serving
//! cost.
//!
//! The crawl cost and coverage are seed-deterministic and drift-checked.
//! The runner checks the contracts: `identical_responses` (every recon
//! page equals the live page, tuple-for-tuple — the byte-identical
//! serving invariant `tests/recon_e2e.rs` pins for all seven
//! algorithms), `recon_serve_ledger_queries == 0` (the ledger does not
//! move while the recon tier serves: a fully reconstructed source
//! answers for free), and, for every record, a paying live session and
//! `recon_wall_ms < live_wall_ms` (serving a covered region must beat
//! paying for it). Latency columns are otherwise machine-dependent
//! trends.

use std::sync::Arc;
use std::time::Instant;

use qr2_core::{
    Algorithm, DenseIndex, ExecutorKind, LinearFunction, OneDimFunction, RankingFunction,
    RerankRequest, Reranker,
};
use qr2_datagen::{mixed_db, MixedConfig};
use qr2_http::Json;
use qr2_recon::{JobOptions, ReconIndex, ServeOrder};
use qr2_webdb::{SearchQuery, SimulatedWebDb, TopKInterface};

use crate::report::{round, Contract, Report};
use crate::smoke::family;

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
pub fn run_recon_smoke(cfg: &ReconSmokeConfig) -> Report {
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
    idx.prewarm(&numeric);
    let projection_build_ms = start.elapsed().as_secs_f64() * 1e3;

    // ── Serve each case live, then from the reconstruction ─────────
    let (mut outcomes, mut timings, mut contracts) = (Vec::new(), Vec::new(), Vec::new());
    let mut identical_responses = true;
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
        let live = session
            .next_page(cfg.depth)
            .expect("the simulator never fails");
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

        let name = algorithm.paper_name();
        let identical = recon == live;
        identical_responses &= identical;
        let (live_ms, recon_ms) = (round(live_wall_ms, 2), round(recon_wall_ms, 2));
        contracts.push(Contract::new(
            format!("live_session_pays/{name}"),
            live_queries > 0,
            format!(
                "{name}: the cold live session paid no queries; the comparison baseline is broken"
            ),
        ));
        contracts.push(Contract::new(
            format!("recon_faster_than_live/{name}"),
            recon_ms < live_ms,
            format!(
                "{name}: recon serving took {recon_ms} ms against {live_ms} ms live; \
                 a covered region must be cheaper to serve than to pay for"
            ),
        ));
        outcomes.push(Json::obj([
            ("algorithm", name.into()),
            ("family", family(algorithm).into()),
            ("tuples", cfg.depth.into()),
            ("live_queries", Json::Num(live_queries as f64)),
            ("identical", identical.into()),
        ]));
        timings.push(Json::obj([
            ("algorithm", name.into()),
            ("live_wall_ms", live_ms.into()),
            ("recon_wall_ms", recon_ms.into()),
        ]));
    }

    contracts.push(Contract::new(
        "identical_responses",
        identical_responses,
        "recon serving diverged from the live engines; reconstruction-served pages must be \
         byte-identical",
    ));
    contracts.push(Contract::new(
        "recon_serving_free",
        recon_serve_ledger_queries == 0,
        format!(
            "recon serving cost the web database {recon_serve_ledger_queries} queries; a fully \
             reconstructed source must serve for free"
        ),
    ));
    Report {
        bench: "pr8_recon_smoke".into(),
        workload: format!("uniform_2d_{}rows_k{}", cfg.rows, cfg.system_k),
        deterministic: Json::obj([
            ("rows", cfg.rows.into()),
            ("system_k", cfg.system_k.into()),
            ("depth", cfg.depth.into()),
            ("crawl_queries", job.paid_queries.into()),
            ("coverage", round(status.coverage, 4).into()),
            ("tuples_indexed", status.tuples.into()),
            ("identical_responses", identical_responses.into()),
            (
                "recon_serve_ledger_queries",
                Json::Num(recon_serve_ledger_queries as f64),
            ),
            ("records", outcomes.into()),
        ]),
        measured: Json::obj([
            ("crawl_wall_ms", round(crawl_wall_ms, 1).into()),
            ("projection_build_ms", round(projection_build_ms, 1).into()),
            ("records", timings.into()),
        ]),
        contracts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::num;

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
        let det = &report.deterministic;
        assert_eq!(
            det.get("identical_responses"),
            Some(&Json::Bool(true)),
            "recon pages must equal live pages: {det}"
        );
        assert_eq!(
            num(det, "recon_serve_ledger_queries"),
            0.0,
            "recon serving must not touch the web database"
        );
        assert!(num(det, "crawl_queries") > 0.0, "the crawl itself pays");
        assert_eq!(num(det, "coverage"), 1.0);
        assert_eq!(num(det, "tuples_indexed"), small().rows as f64);
        let records = report.records("records");
        assert_eq!(records.len(), 3);
        for r in &records {
            assert!(
                num(r, "live_queries") > 0.0,
                "{r}: a cold live session pays real queries"
            );
        }
    }
}
