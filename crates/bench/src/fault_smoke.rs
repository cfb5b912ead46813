//! Smoke scenario `BENCH_pr10.json`: the resilience layer under a
//! scripted total outage against the full serving stack, resilience on
//! vs off.
//!
//! Three phases:
//!
//! 1. **Degraded serving under outage (resilience ON).** A source whose
//!    reconstruction tier covers the whole database goes hard-down (a
//!    scripted outage over every attempt) and its breaker opens. All
//!    seven paper algorithms then create queries and drain them to
//!    completion. The runner checks the contract: **zero dropped covered
//!    streams**, every answer flagged `degraded` and byte-identical to
//!    pre-outage serving, zero web-database queries spent, and the
//!    breaker opened at most `failure_threshold` times (it must latch
//!    open, not flap).
//! 2. **The same outage without resilience.** Retries off, breaker
//!    disabled: the degradation path never engages, so every covered
//!    session surfaces a structured failure instead. The runner checks
//!    that the unprotected run really drops its streams — the contrast that makes
//!    phase 1 meaningful.
//! 3. **Steady-state overhead.** On a healthy source, interleaved rounds
//!    of probe batches through the resilient stack (default retry policy
//!    and breaker) vs the bare traffic-shaped stack. The runner bounds
//!    the median of the per-round ratios at 1.05: protection may cost at
//!    most 5% on the healthy path. A round's two batches run back to
//!    back, so a burst of load on a shared machine slows both; the median
//!    drops the rounds where it hit only one.
//!
//! Wall-clock fields and the breaker's open count are `measured`; every
//! per-stream outcome is `deterministic` and drift-checked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qr2_core::ExecutorKind;
use qr2_http::{parse_json, Decode, FromJson, IntoJson, Json};
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

use crate::report::{median, round, Contract, Report};

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
    /// Interleaved measurement rounds (one batch per side each).
    pub rounds: usize,
}

impl Default for FaultSmokeConfig {
    fn default() -> Self {
        FaultSmokeConfig { rounds: 120 }
    }
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
    reg.register(
        Source::builder("chaos", "fault-smoke source", db as Arc<dyn TopKInterface>)
            .sched_config(SchedConfig {
                // Keep the unprotected phase fast: a parked probe gives up
                // (and surfaces the structured failure) after 40 ms.
                max_outage_park: Duration::from_millis(40),
                ..SchedConfig::default()
            })
            .resilience(resilience)
            .executor(ExecutorKind::Sequential)
            .recon(recon)
            .build(),
    );
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
pub fn run_fault_smoke(cfg: &FaultSmokeConfig) -> Report {
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
    // (finished, every page degraded, tuples, first page identical).
    let mut outcomes = Vec::new();
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
        outcomes.push((finished, degraded, tuples, identical));
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
    let (mut dropped, mut answered_degraded, mut unprotected_dropped) = (0, 0, 0);
    let mut identical_responses = true;
    let mut records = Vec::new();
    for (algo, (finished, degraded, tuples, identical)) in ALGORITHMS.into_iter().zip(outcomes) {
        let unprotected = svc_off.create_query("chaos", &request_for(algo)).is_err();
        dropped += usize::from(!finished);
        answered_degraded += usize::from(degraded && finished);
        unprotected_dropped += usize::from(unprotected);
        identical_responses &= identical;
        records.push(Json::obj([
            ("algorithm", algo.into()),
            ("finished", finished.into()),
            ("degraded", degraded.into()),
            ("tuples", tuples.into()),
            ("identical", identical.into()),
            ("unprotected_dropped", unprotected.into()),
        ]));
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
    let mut ratios = Vec::with_capacity(cfg.rounds.max(1));
    for _ in 0..cfg.rounds.max(1) {
        let start = Instant::now();
        for _ in 0..OVERHEAD_PROBES {
            let _ = bare.search(&probe);
        }
        let bare_us = start.elapsed().as_secs_f64() * 1e6;
        let start = Instant::now();
        for _ in 0..OVERHEAD_PROBES {
            resilient.probe(&probe).expect("healthy probe succeeds");
        }
        let protected_us = start.elapsed().as_secs_f64() * 1e6;
        baseline_us = baseline_us.min(bare_us);
        resilient_us = resilient_us.min(protected_us);
        ratios.push(protected_us / bare_us);
    }

    let covered = ALGORITHMS.len();
    let overhead = round(median(&mut ratios), 4);
    Report {
        bench: "pr10_fault_smoke".into(),
        workload: format!("two_attr_{ROWS}rows_total_outage_k{SYSTEM_K}"),
        deterministic: Json::obj([
            ("covered_sessions", covered.into()),
            ("dropped_covered_streams", dropped.into()),
            ("answered_degraded", answered_degraded.into()),
            ("identical_responses", identical_responses.into()),
            (
                "degraded_ledger_queries",
                Json::Num(degraded_ledger_queries as f64),
            ),
            ("failure_threshold", Json::Num(f64::from(FAILURE_THRESHOLD))),
            ("unprotected_dropped_streams", unprotected_dropped.into()),
            ("records", records.into()),
            (
                "steady_state",
                Json::obj([
                    ("rounds", cfg.rounds.into()),
                    ("probes_per_round", OVERHEAD_PROBES.into()),
                ]),
            ),
        ]),
        measured: Json::obj([
            ("breaker_opens", Json::Num(breaker_opens as f64)),
            (
                "steady_state",
                Json::obj([
                    ("baseline_us", round(baseline_us, 1).into()),
                    ("resilient_us", round(resilient_us, 1).into()),
                    ("overhead", overhead.into()),
                ]),
            ),
        ]),
        contracts: vec![
            Contract::new(
                "no_dropped_covered_streams",
                dropped == 0,
                format!(
                    "{dropped} recon-covered streams dropped during the outage; degraded \
                     serving must finish every covered session"
                ),
            ),
            Contract::new(
                "all_answered_degraded",
                answered_degraded == covered,
                format!(
                    "only {answered_degraded} of {covered} covered sessions were answered \
                     with the degraded flag"
                ),
            ),
            Contract::new(
                "identical_responses",
                identical_responses,
                "degraded serving diverged from the pre-outage answers; stale-recon pages \
                 must be byte-identical",
            ),
            Contract::new(
                "degraded_serving_free",
                degraded_ledger_queries == 0,
                format!(
                    "degraded serving cost the web database {degraded_ledger_queries} queries; \
                     a source behind an open breaker must not be probed"
                ),
            ),
            Contract::new(
                "breaker_latches",
                (1..=u64::from(FAILURE_THRESHOLD)).contains(&breaker_opens),
                format!(
                    "the breaker opened {breaker_opens} times under a sustained outage; it \
                     must latch open once (<= threshold {FAILURE_THRESHOLD}), not flap"
                ),
            ),
            Contract::new(
                "unprotected_twin_drops",
                unprotected_dropped > 0,
                "the resilience-off twin dropped no streams under the same outage; the \
                 comparison baseline is broken",
            ),
            Contract::new(
                "steady_state_overhead",
                overhead <= 1.05,
                format!(
                    "the resilient stack costs {overhead}x on a healthy source (median \
                     per-round ratio); the steady-state ceiling is 1.05 (5% overhead)"
                ),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::num;

    #[test]
    fn resilience_converts_drops_into_degraded_answers() {
        let report = run_fault_smoke(&FaultSmokeConfig { rounds: 2 });
        // Every contract but the overhead bound (debug builds are too
        // noisy for it): no covered stream dropped, all answered
        // degraded and byte-identical, zero ledger queries, the breaker
        // latched open without flapping, the unprotected twin dropped.
        for c in &report.contracts {
            assert!(
                c.passed || c.name == "steady_state_overhead",
                "{}: {}",
                c.name,
                c.message
            );
        }
        let det = &report.deterministic;
        assert_eq!(num(det, "covered_sessions"), ALGORITHMS.len() as f64);
        assert_eq!(
            num(det, "unprotected_dropped_streams"),
            num(det, "covered_sessions"),
            "without resilience the same outage must drop every stream"
        );
        let overhead = num(
            report.measured.get("steady_state").expect("steady_state"),
            "overhead",
        );
        assert!(overhead.is_finite() && overhead > 0.0);
        for r in report.records("records") {
            assert!(
                num(&r, "tuples") > 0.0,
                "{r}: degraded stream served nothing"
            );
        }
    }
}
