//! CI smoke benchmark for the resilience layer: a scripted total outage
//! against the full serving stack, resilience on vs off, emitted as
//! machine-readable JSON (`BENCH_pr10.json`).
//!
//! Three phases:
//!
//! 1. **Degraded serving under outage (resilience ON).** A source whose
//!    reconstruction tier covers the whole database goes hard-down (a
//!    scripted outage over every attempt) and its breaker opens. All
//!    seven paper algorithms then create queries and drain them to
//!    completion. CI guards the contract: **zero dropped covered
//!    streams**, every answer flagged `degraded` and byte-identical to
//!    pre-outage serving, zero web-database queries spent, and the
//!    breaker opened at most `failure_threshold` times (it must latch
//!    open, not flap).
//! 2. **The same outage without resilience.** Retries off, breaker
//!    disabled: the degradation path never engages, so every covered
//!    session surfaces a structured failure instead. CI guards that the
//!    unprotected run really drops its streams — the contrast that makes
//!    phase 1 meaningful.
//! 3. **Steady-state overhead.** On a healthy source, interleaved
//!    best-of-rounds probe batches through the resilient stack (default
//!    retry policy + breaker) vs the bare traffic-shaped stack. CI
//!    bounds the ratio at 1.05: protection may cost at most 5% on the
//!    healthy path.
//!
//! Wall-clock fields are machine-dependent; CI asserts the deterministic
//! fields and the overhead inequality only.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qr2_cache::{AnswerCache, CacheConfig};
use qr2_core::{DenseIndex, ExecutorKind};
use qr2_http::{parse_json, Decode, FromJson, IntoJson};
use qr2_recon::{JobOptions, ReconIndex};
use qr2_sched::SchedConfig;
use qr2_service::{
    DegradedPolicy, PageResponse, QueryRequest, QueryService, ResilienceConfig, SessionManager,
    Source, SourceRegistry,
};
use qr2_webdb::{
    BreakerConfig, FaultScript, ResilientInterface, RetryPolicy, SearchQuery, SimulatedWebDb,
    SourcePolicy, SystemRanking, TableBuilder, TopKInterface, TrafficShapedInterface,
};

use crate::report::Table;

/// Rows in the outage-phase database.
const ROWS: usize = 120;
/// System k of the outage-phase database.
const SYSTEM_K: usize = 12;
/// Terminal failures that open the breaker in the outage phase.
const FAILURE_THRESHOLD: u32 = 2;
/// Probes per measurement round in the steady-state phase.
const OVERHEAD_PROBES: usize = 200;
/// Rows in the steady-state database.
const OVERHEAD_ROWS: usize = 400;

/// All seven paper algorithms; 1d ones rank on `x0`, md ones mix both.
const ALGORITHMS: [&str; 7] = [
    "1d-baseline",
    "1d-binary",
    "1d-rerank",
    "md-baseline",
    "md-binary",
    "md-rerank",
    "md-ta",
];

/// Knobs for the steady-state phase.
#[derive(Debug, Clone)]
pub struct FaultSmokeConfig {
    /// Interleaved measurement rounds per side (fastest round kept).
    pub rounds: usize,
}

impl Default for FaultSmokeConfig {
    fn default() -> Self {
        FaultSmokeConfig { rounds: 120 }
    }
}

/// Per-algorithm outcome of the outage phase.
#[derive(Debug, Clone)]
pub struct FaultStreamRecord {
    /// Paper algorithm name.
    pub algorithm: &'static str,
    /// The resilient run drained the stream to `done`.
    pub finished: bool,
    /// Every page of the resilient run carried the `degraded` flag.
    pub degraded: bool,
    /// Tuples the resilient run served across all pages.
    pub tuples: usize,
    /// First degraded page byte-identical to the pre-outage baseline.
    pub identical: bool,
    /// The unprotected run dropped this stream (structured failure).
    pub unprotected_dropped: bool,
}

/// The full PR10 fault smoke measurement.
#[derive(Debug, Clone)]
pub struct FaultSmokeReport {
    /// Covered sessions attempted in the outage phase (one per algorithm).
    pub covered_sessions: usize,
    /// Resilient-run streams that failed to finish — the headline guard.
    pub dropped_covered_streams: usize,
    /// Resilient-run streams answered with the `degraded` flag.
    pub answered_degraded: usize,
    /// Every degraded first page matched its pre-outage baseline.
    pub identical_responses: bool,
    /// Web-database queries spent while serving degraded (must be 0).
    pub degraded_ledger_queries: u64,
    /// Times the breaker opened across the outage phase.
    pub breaker_opens: u64,
    /// The configured failure threshold (breaker_opens must not exceed it).
    pub failure_threshold: u32,
    /// Unprotected-run streams that dropped under the same outage.
    pub unprotected_dropped_streams: usize,
    /// Per-algorithm outcomes.
    pub records: Vec<FaultStreamRecord>,
    /// Interleaved rounds per side in the steady-state phase.
    pub rounds: usize,
    /// Fastest baseline (bare shaped stack) round, microseconds.
    pub baseline_us: f64,
    /// Fastest resilient-stack round, microseconds.
    pub resilient_us: f64,
    /// `resilient_us / baseline_us`; CI bounds it at 1.05.
    pub overhead: f64,
}

/// Deterministic two-attribute database: `x0` counts up, `x1` is a
/// scrambled permutation, the hidden ranking mixes both.
fn chaos_db(n: usize, k: usize) -> Arc<SimulatedWebDb> {
    let schema = qr2_webdb::Schema::builder()
        .numeric("x0", 0.0, 1000.0)
        .numeric("x1", 0.0, 1000.0)
        .build();
    let mut tb = TableBuilder::new(schema.clone());
    for i in 0..n {
        tb.push_row(vec![i as f64, ((i * 37) % n) as f64])
            .expect("row in domain");
    }
    let ranking = SystemRanking::linear(&schema, &[("x0", 1.0), ("x1", 0.2)]).expect("ranking");
    Arc::new(SimulatedWebDb::new(tb.build(), ranking, k))
}

/// One-source registry (`"chaos"`) over a fully reconstructed index.
fn outage_registry(db: Arc<SimulatedWebDb>, resilience: ResilienceConfig) -> Arc<SourceRegistry> {
    let recon = Arc::new(ReconIndex::ephemeral());
    let job = recon
        .run_job(
            &*db,
            &JobOptions {
                max_queries: usize::MAX,
                ..JobOptions::default()
            },
            0,
        )
        .expect("no concurrent job");
    assert_eq!(job.state, "complete", "offline crawl must cover the db");
    let mut reg = SourceRegistry::new();
    reg.register(Source::with_resilience(
        "chaos",
        "fault-smoke source",
        db as Arc<dyn TopKInterface>,
        SourcePolicy::unlimited(),
        SchedConfig {
            // Keep the unprotected phase fast: a parked probe gives up
            // (and surfaces the structured failure) after 40 ms.
            max_outage_park: Duration::from_millis(40),
            ..SchedConfig::default()
        },
        resilience,
        ExecutorKind::Sequential,
        Arc::new(DenseIndex::in_memory()),
        vec![],
        Arc::new(AnswerCache::new(CacheConfig::default())),
        recon,
    ));
    Arc::new(reg)
}

fn service_over(reg: &Arc<SourceRegistry>) -> QueryService {
    QueryService::new(
        Arc::clone(reg),
        Arc::new(SessionManager::new(Duration::from_secs(60))),
    )
}

fn request_for(algorithm: &str) -> QueryRequest {
    let ranking = if algorithm.starts_with("1d") {
        r#"{"type":"1d","attr":"x0"}"#
    } else {
        r#"{"type":"md","weights":{"x0":1.0,"x1":-0.5}}"#
    };
    let body = format!(r#"{{"ranking":{ranking},"algorithm":"{algorithm}","page_size":10}}"#);
    let v = parse_json(&body).expect("request body");
    QueryRequest::from_json(&Decode::root(&v)).expect("request decodes")
}

/// The page's `results` array, rendered to its exact wire bytes.
fn rendered(page: &PageResponse) -> String {
    page.to_json()
        .get("results")
        .expect("page has results")
        .to_string()
}

/// Run all three phases.
pub fn run_fault_smoke(cfg: &FaultSmokeConfig) -> FaultSmokeReport {
    // ── Phase 1: total outage, resilience ON ───────────────────────
    let db = chaos_db(ROWS, SYSTEM_K);
    let reg = outage_registry(
        Arc::clone(&db),
        ResilienceConfig {
            script: Some(FaultScript::healthy().with_outage(0, u64::MAX)),
            retry: RetryPolicy::none(),
            breaker: BreakerConfig {
                failure_threshold: FAILURE_THRESHOLD,
                open_cooldown: Duration::from_secs(600),
            },
            degraded: DegradedPolicy {
                allow_stale_recon: true,
            },
        },
    );
    let source = reg.get("chaos").expect("chaos registered");
    let svc = service_over(&reg);

    // Pre-outage baselines from the fresh-epoch reconstruction.
    let baselines: Vec<String> = ALGORITHMS
        .iter()
        .map(|algo| {
            let page = svc
                .create_query("chaos", &request_for(algo))
                .expect("fresh recon serving");
            assert!(!page.degraded, "{algo}: fresh serving is not degraded");
            rendered(&page)
        })
        .collect();

    // The outage: stale the epoch, latch the breaker open.
    source.cache.flush().expect("flush");
    let q = SearchQuery::all();
    for _ in 0..FAILURE_THRESHOLD {
        assert!(source.sched.resilient().probe(&q).is_err());
    }
    assert_eq!(source.sched.resilient().health().breaker, "open");

    let paid_before = source.db.ledger().total();
    let mut records = Vec::new();
    for (algo, baseline) in ALGORITHMS.into_iter().zip(&baselines) {
        let mut finished = false;
        let mut degraded = true;
        let mut tuples = 0;
        let mut identical = false;
        if let Ok(page) = svc.create_query("chaos", &request_for(algo)) {
            identical = rendered(&page) == *baseline;
            degraded &= page.degraded;
            tuples += page.results.len();
            let mut done = page.done;
            let mut guard = 0;
            while !done && guard < 64 {
                match svc.next_page(&page.query_id, Some(10)) {
                    Ok(next) => {
                        degraded &= next.degraded;
                        tuples += next.results.len();
                        done = next.done;
                    }
                    Err(_) => break,
                }
                guard += 1;
            }
            finished = done;
        }
        records.push(FaultStreamRecord {
            algorithm: algo,
            finished,
            degraded,
            tuples,
            identical,
            unprotected_dropped: false,
        });
    }
    let degraded_ledger_queries = source.db.ledger().total() - paid_before;
    let breaker_opens = source.sched.resilient().health().breaker_opens;

    // ── Phase 2: the same outage, resilience OFF ───────────────────
    // No retries, breaker disabled: the breaker never rejects, so the
    // degradation path never engages and the live attempt runs into the
    // outage until the scheduler's parking patience expires.
    let db_off = chaos_db(ROWS, SYSTEM_K);
    let reg_off = outage_registry(
        Arc::clone(&db_off),
        ResilienceConfig {
            script: Some(FaultScript::healthy().with_outage(0, u64::MAX)),
            retry: RetryPolicy::none(),
            breaker: BreakerConfig::disabled(),
            degraded: DegradedPolicy {
                allow_stale_recon: true,
            },
        },
    );
    reg_off
        .get("chaos")
        .expect("chaos")
        .cache
        .flush()
        .expect("flush");
    let svc_off = service_over(&reg_off);
    for record in records.iter_mut() {
        record.unprotected_dropped = svc_off
            .create_query("chaos", &request_for(record.algorithm))
            .is_err();
    }

    // ── Phase 3: steady-state overhead on a healthy source ─────────
    let db_bare = chaos_db(OVERHEAD_ROWS, 64);
    let bare = Arc::new(TrafficShapedInterface::new(
        db_bare.clone(),
        SourcePolicy::unlimited(),
    ));
    let db_res = chaos_db(OVERHEAD_ROWS, 64);
    let shaped = Arc::new(TrafficShapedInterface::new(
        db_res.clone(),
        SourcePolicy::unlimited(),
    ));
    let resilient = ResilientInterface::new(
        Arc::clone(&shaped),
        shaped.clone(),
        RetryPolicy::default(),
        BreakerConfig::default(),
        "fault-smoke",
    );
    let probe = SearchQuery::all();
    let mut baseline_us = f64::INFINITY;
    let mut resilient_us = f64::INFINITY;
    for _ in 0..cfg.rounds.max(1) {
        let start = Instant::now();
        for _ in 0..OVERHEAD_PROBES {
            let _ = bare.search(&probe);
        }
        baseline_us = baseline_us.min(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        for _ in 0..OVERHEAD_PROBES {
            resilient.probe(&probe).expect("healthy probe succeeds");
        }
        resilient_us = resilient_us.min(start.elapsed().as_secs_f64() * 1e6);
    }

    FaultSmokeReport {
        covered_sessions: ALGORITHMS.len(),
        dropped_covered_streams: records.iter().filter(|r| !r.finished).count(),
        answered_degraded: records.iter().filter(|r| r.degraded && r.finished).count(),
        identical_responses: records.iter().all(|r| r.identical),
        degraded_ledger_queries,
        breaker_opens,
        failure_threshold: FAILURE_THRESHOLD,
        unprotected_dropped_streams: records.iter().filter(|r| r.unprotected_dropped).count(),
        records,
        rounds: cfg.rounds,
        baseline_us,
        resilient_us,
        overhead: resilient_us / baseline_us,
    }
}

/// Render the report as a text table.
pub fn fault_smoke_table(report: &FaultSmokeReport) -> Table {
    let mut table = Table::new(
        format!(
            "PR10 fault smoke — total outage over {ROWS} rows, breaker threshold {}, \
             best of {} interleaved overhead rounds",
            report.failure_threshold, report.rounds
        ),
        &[
            "algorithm",
            "finished",
            "degraded",
            "tuples",
            "identical",
            "unprotected",
        ],
    );
    for r in &report.records {
        table.row(&[
            r.algorithm.to_string(),
            r.finished.to_string(),
            r.degraded.to_string(),
            r.tuples.to_string(),
            r.identical.to_string(),
            if r.unprotected_dropped {
                "dropped".to_string()
            } else {
                "served".to_string()
            },
        ]);
    }
    table.row(&[
        "steady-state overhead".to_string(),
        format!("{:.3}", report.overhead),
        format!(
            "{:.1}µs vs {:.1}µs",
            report.resilient_us, report.baseline_us
        ),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    table
}

/// Serialize the report as the `BENCH_pr10.json` document.
pub fn fault_smoke_json(report: &FaultSmokeReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"pr10_fault_smoke\",\n");
    out.push_str(&format!(
        "  \"workload\": \"two_attr_{ROWS}rows_total_outage_k{SYSTEM_K}\",\n"
    ));
    out.push_str(&format!(
        "  \"covered_sessions\": {},\n",
        report.covered_sessions
    ));
    out.push_str(&format!(
        "  \"dropped_covered_streams\": {},\n",
        report.dropped_covered_streams
    ));
    out.push_str(&format!(
        "  \"answered_degraded\": {},\n",
        report.answered_degraded
    ));
    out.push_str(&format!(
        "  \"identical_responses\": {},\n",
        report.identical_responses
    ));
    out.push_str(&format!(
        "  \"degraded_ledger_queries\": {},\n",
        report.degraded_ledger_queries
    ));
    out.push_str(&format!("  \"breaker_opens\": {},\n", report.breaker_opens));
    out.push_str(&format!(
        "  \"failure_threshold\": {},\n",
        report.failure_threshold
    ));
    out.push_str(&format!(
        "  \"unprotected_dropped_streams\": {},\n",
        report.unprotected_dropped_streams
    ));
    out.push_str("  \"records\": [\n");
    for (i, r) in report.records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"finished\": {}, \"degraded\": {}, \
             \"tuples\": {}, \"identical\": {}, \"unprotected_dropped\": {}}}{}\n",
            r.algorithm,
            r.finished,
            r.degraded,
            r.tuples,
            r.identical,
            r.unprotected_dropped,
            if i + 1 < report.records.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"steady_state\": {\n");
    out.push_str(&format!("    \"rounds\": {},\n", report.rounds));
    out.push_str(&format!("    \"probes_per_round\": {OVERHEAD_PROBES},\n"));
    out.push_str(&format!(
        "    \"baseline_us\": {:.1},\n    \"resilient_us\": {:.1},\n",
        report.baseline_us, report.resilient_us
    ));
    out.push_str(&format!("    \"overhead\": {:.4}\n  }}\n", report.overhead));
    out.push_str("}\n");
    out
}

/// Write `BENCH_pr10.json` at the workspace root; returns the path.
pub fn write_fault_smoke_report(report: &FaultSmokeReport) -> PathBuf {
    let path = crate::report::workspace_root().join("BENCH_pr10.json");
    std::fs::write(&path, fault_smoke_json(report)).expect("write fault smoke report");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_converts_drops_into_degraded_answers() {
        let report = run_fault_smoke(&FaultSmokeConfig { rounds: 2 });
        assert_eq!(report.covered_sessions, ALGORITHMS.len());
        assert_eq!(
            report.dropped_covered_streams, 0,
            "covered streams must all finish under the outage"
        );
        assert_eq!(report.answered_degraded, report.covered_sessions);
        assert!(report.identical_responses, "{:?}", report.records);
        assert_eq!(
            report.degraded_ledger_queries, 0,
            "degraded serving must not touch the web database"
        );
        assert!(
            report.breaker_opens >= 1
                && report.breaker_opens <= u64::from(report.failure_threshold),
            "breaker must latch open without flapping: {} opens",
            report.breaker_opens
        );
        assert_eq!(
            report.unprotected_dropped_streams, report.covered_sessions,
            "without resilience the same outage must drop every stream"
        );
        assert!(report.overhead.is_finite() && report.overhead > 0.0);
        for r in &report.records {
            assert!(
                r.tuples > 0,
                "{}: degraded stream served nothing",
                r.algorithm
            );
        }
    }

    #[test]
    fn fault_smoke_json_is_well_formed() {
        let report = FaultSmokeReport {
            covered_sessions: 7,
            dropped_covered_streams: 0,
            answered_degraded: 7,
            identical_responses: true,
            degraded_ledger_queries: 0,
            breaker_opens: 1,
            failure_threshold: 2,
            unprotected_dropped_streams: 7,
            records: vec![FaultStreamRecord {
                algorithm: "md-ta",
                finished: true,
                degraded: true,
                tuples: 120,
                identical: true,
                unprotected_dropped: true,
            }],
            rounds: 120,
            baseline_us: 1000.0,
            resilient_us: 1020.0,
            overhead: 1.02,
        };
        let json = fault_smoke_json(&report);
        assert!(json.contains("\"dropped_covered_streams\": 0"));
        assert!(json.contains("\"breaker_opens\": 1"));
        assert!(json.contains("\"overhead\": 1.0200"));
        assert!(json.contains("\"unprotected_dropped_streams\": 7"));
        let table = fault_smoke_table(&report);
        assert!(!table.is_empty());
    }
}
