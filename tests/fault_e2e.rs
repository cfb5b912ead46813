//! Chaos end-to-end tests for the resilience layer (`qr2-fault`):
//! deterministic scripted outages against the full serving stack.
//!
//! The headline guarantees, each under a fixed fault seed:
//!
//! * an open circuit breaker never blacks out covered queries — all seven
//!   paper algorithms keep answering from the reconstruction tier, flagged
//!   `degraded`, byte-identical to pre-outage serving, at zero ledger cost;
//! * uncovered queries fail fast with a structured `503 source_unavailable`
//!   plus `Retry-After` instead of hanging in the scheduler queue;
//! * a short outage mid-session rides through on retries — same answers,
//!   zero extra paid queries (scripted outages reject *before* the paid
//!   call) and zero dropped streams;
//! * the ledger counts every paid retry (timeouts execute the inner call
//!   before discarding it, so each one is exactly one extra paid query);
//! * recovery is probe-based: after the open cooldown the next query is
//!   admitted as the half-open trial and recloses the breaker;
//! * an NDJSON stream interrupted by a hard outage terminates with a
//!   truthful `summary` line (`failed`/`partial`), never a dropped
//!   connection;
//! * a reconstruction job "crashed" mid-crawl (budget exhausted between
//!   checkpoints) resumes from its persisted frontier, and the recovered
//!   index serves degraded traffic byte-identically.
//! * a source that fails mid-crawl never leaves a claim behind: a recon
//!   job ends `failed` with the failed region still pending, and the
//!   dense-region index does not store the partial crawl as the region.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use qr2::core::{DenseIndex, ExecutorKind};
use qr2::http::{parse_json, Decode, FromJson, IntoJson, Json, Status};
use qr2::recon::{JobOptions, ReconIndex};
use qr2::sched::SchedConfig;
use qr2::service::{
    DegradedPolicy, PageResponse, Qr2App, QueryRequest, QueryService, ResilienceConfig,
    SessionManager, Source, SourceRegistry,
};
use qr2::webdb::{
    BreakerConfig, FaultScript, RetryPolicy, Schema, SearchQuery, SimulatedWebDb, SystemRanking,
    TableBuilder, TopKInterface,
};

/// A deterministic two-attribute database: `x0` counts up, `x1` is a
/// scrambled permutation, the hidden system ranking mixes both. `k` is
/// small relative to `n`, so reconstruction must split regions and live
/// sessions must pay repeated probes.
fn chaos_db(n: usize, k: usize) -> Arc<SimulatedWebDb> {
    let schema = Schema::builder()
        .numeric("x0", 0.0, 1000.0)
        .numeric("x1", 0.0, 1000.0)
        .build();
    let mut tb = TableBuilder::new(schema.clone());
    for i in 0..n {
        tb.push_row(vec![i as f64, ((i * 37) % n) as f64]).unwrap();
    }
    let ranking = SystemRanking::linear(&schema, &[("x0", 1.0), ("x1", 0.2)]).unwrap();
    Arc::new(SimulatedWebDb::new(tb.build(), ranking, k))
}

/// One-source registry (`"chaos"`) with explicit resilience wiring.
fn chaos_sources(
    db: Arc<SimulatedWebDb>,
    recon: Arc<ReconIndex>,
    resilience: ResilienceConfig,
    sched_cfg: SchedConfig,
    executor: ExecutorKind,
) -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    reg.register(
        Source::builder(
            "chaos",
            "chaos-scripted source",
            db as Arc<dyn TopKInterface>,
        )
        .sched_config(sched_cfg)
        .resilience(resilience)
        .executor(executor)
        .recon(recon)
        .build(),
    );
    reg
}

fn chaos_registry(
    db: Arc<SimulatedWebDb>,
    recon: Arc<ReconIndex>,
    resilience: ResilienceConfig,
    sched_cfg: SchedConfig,
) -> Arc<SourceRegistry> {
    Arc::new(chaos_sources(
        db,
        recon,
        resilience,
        sched_cfg,
        ExecutorKind::Sequential,
    ))
}

fn service_over(reg: &Arc<SourceRegistry>) -> QueryService {
    QueryService::new(
        Arc::clone(reg),
        Arc::new(SessionManager::new(Duration::from_secs(60))),
    )
}

/// Reconstruct the whole database offline at epoch 0, probing the raw db.
fn crawl_full(db: &SimulatedWebDb) -> Arc<ReconIndex> {
    let recon = Arc::new(ReconIndex::ephemeral());
    let job = recon
        .run_job(
            db,
            &JobOptions {
                max_queries: usize::MAX,
                ..JobOptions::default()
            },
            0,
        )
        .expect("no concurrent job");
    assert_eq!(job.state, "complete");
    recon
}

/// Open the `"chaos"` source's breaker with `n` terminal probe failures.
fn open_breaker(reg: &Arc<SourceRegistry>, n: usize) {
    let source = reg.get("chaos").unwrap();
    let q = SearchQuery::all();
    for _ in 0..n {
        assert!(source.sched.resilient().probe(&q).is_err());
    }
    assert_eq!(source.sched.resilient().health().breaker, "open");
}

/// All seven paper algorithms; 1d ones rank on `x0`, md ones mix both.
const SEVEN: [&str; 7] = [
    "1d-baseline",
    "1d-binary",
    "1d-rerank",
    "md-baseline",
    "md-binary",
    "md-rerank",
    "md-ta",
];

fn request_for(algorithm: &str, page_size: usize) -> QueryRequest {
    let ranking = if algorithm.starts_with("1d") {
        r#"{"type":"1d","attr":"x0"}"#
    } else {
        r#"{"type":"md","weights":{"x0":1.0,"x1":-0.5}}"#
    };
    let body =
        format!(r#"{{"ranking":{ranking},"algorithm":"{algorithm}","page_size":{page_size}}}"#);
    let v = parse_json(&body).unwrap();
    QueryRequest::from_json(&Decode::root(&v)).unwrap()
}

/// The page's `results` array, rendered to its exact wire bytes.
fn rendered(page: &PageResponse) -> String {
    page.to_json().get("results").unwrap().to_string()
}

#[test]
fn open_breaker_serves_all_seven_algorithms_byte_identical_and_free() {
    let db = chaos_db(80, 10);
    let recon = crawl_full(&db);
    let reg = chaos_registry(
        Arc::clone(&db),
        recon,
        ResilienceConfig {
            script: Some(FaultScript::healthy().with_outage(0, u64::MAX)),
            retry: RetryPolicy::none(),
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_cooldown: Duration::from_secs(600),
            },
            degraded: DegradedPolicy {
                allow_stale_recon: true,
            },
        },
        SchedConfig::default(),
    );
    let source = reg.get("chaos").unwrap();
    let svc = service_over(&reg);

    // Pre-outage baseline: every algorithm serves its first page from the
    // fresh-epoch reconstruction (breaker closed, nothing degraded).
    let mut baselines = Vec::new();
    for algo in SEVEN {
        let page = svc.create_query("chaos", &request_for(algo, 10)).unwrap();
        assert!(
            !page.degraded,
            "{algo}: fresh-epoch serving is not degraded"
        );
        assert_eq!(page.results.len(), 10, "{algo}");
        baselines.push(rendered(&page));
    }

    // The outage: the flush advances the cache epoch so fresh serving
    // misses, and the breaker opens after exactly `failure_threshold`
    // terminal failures.
    source.cache.flush().unwrap();
    open_breaker(&reg, 2);
    assert_eq!(source.sched.resilient().health().breaker_opens, 1);

    let paid_before = source.db.ledger().total();
    for (algo, baseline) in SEVEN.into_iter().zip(&baselines) {
        let page = svc.create_query("chaos", &request_for(algo, 10)).unwrap();
        assert!(page.degraded, "{algo}: stale-epoch serving must be flagged");
        assert_eq!(
            &rendered(&page),
            baseline,
            "{algo}: degraded tuples must be byte-identical to pre-outage serving"
        );
        assert_eq!(page.stats.queries, 0, "{algo}: degraded pages are free");
        // The whole stream drains degraded — zero dropped sessions.
        let mut done = page.done;
        let mut guard = 0;
        while !done {
            let next = svc.next_page(&page.query_id, Some(10)).unwrap();
            assert!(next.degraded, "{algo}: follow-up pages stay flagged");
            done = next.done;
            guard += 1;
            assert!(guard < 64, "{algo}: degraded stream did not terminate");
        }
        // Streamed, the answer drains degraded and free, and the summary
        // says so.
        let id = svc
            .create_query("chaos", &request_for(algo, 10))
            .unwrap()
            .query_id;
        let mut stream = svc.stream(&id, Some(1000), None).unwrap();
        let mut body = String::new();
        while let Some(chunk) = stream.next_chunk() {
            body.push_str(std::str::from_utf8(&chunk).unwrap());
        }
        let summary = parse_json(body.lines().last().unwrap()).unwrap();
        assert_eq!(summary.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(
            summary.get("degraded").unwrap().as_bool(),
            Some(true),
            "{algo}: the stream summary is flagged: {summary}"
        );
        assert_eq!(summary.get("stream_queries").unwrap().as_usize(), Some(0));
    }
    assert_eq!(
        source.db.ledger().total(),
        paid_before,
        "no probe may reach a source behind an open breaker"
    );
}

#[test]
fn uncovered_queries_get_structured_503_and_recovery_recloses_the_breaker() {
    // Attempts 0 and 1 fail; everything after is healthy. Threshold 2,
    // cooldown 80 ms: the breaker opens on exactly the scripted failures
    // and the first query after the cooldown is the half-open trial.
    let db = chaos_db(60, 10);
    let reg = chaos_registry(
        Arc::clone(&db),
        Arc::new(ReconIndex::ephemeral()),
        ResilienceConfig {
            script: Some(FaultScript::healthy().with_outage(0, 2)),
            retry: RetryPolicy::none(),
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_cooldown: Duration::from_millis(80),
            },
            degraded: DegradedPolicy::default(),
        },
        SchedConfig::default(),
    );
    let source = reg.get("chaos").unwrap();
    let svc = service_over(&reg);

    open_breaker(&reg, 2);
    let health = source.sched.resilient().health();
    assert_eq!(health.breaker_opens, 1);
    assert_eq!(health.consecutive_failures, 2);

    // Open breaker + no reconstruction coverage → structured refusal.
    let e = svc
        .create_query("chaos", &request_for("1d-rerank", 5))
        .unwrap_err();
    assert_eq!(e.status, Status::ServiceUnavailable);
    assert_eq!(e.code, "source_unavailable");
    let retry_after = e
        .headers
        .iter()
        .find(|(n, _)| n == "Retry-After")
        .map(|(_, v)| v.parse::<u64>().unwrap())
        .expect("503 carries Retry-After");
    assert!(retry_after >= 1);

    // After the cooldown the next query is admitted as the half-open
    // trial; the scripted outage is over, so the trial succeeds, the
    // breaker recloses and live serving resumes.
    std::thread::sleep(Duration::from_millis(120));
    let page = svc
        .create_query("chaos", &request_for("1d-rerank", 5))
        .unwrap();
    assert_eq!(page.results.len(), 5);
    assert!(!page.degraded);
    let health = source.sched.resilient().health();
    assert_eq!(health.breaker, "closed");
    assert_eq!(health.consecutive_failures, 0);
    assert_eq!(health.breaker_opens, 1, "recovery must not re-open");
    // The recovered session pages on normally.
    let next = svc.next_page(&page.query_id, Some(5)).unwrap();
    assert!(!next.results.is_empty() || next.done);
}

/// Reference run on a fault-free twin: the rendered pages and the ledger
/// total after each of `pages` pages of five.
fn healthy_reference(pages: usize) -> (Vec<String>, Vec<u64>) {
    let db = chaos_db(60, 10);
    let reg = chaos_registry(
        Arc::clone(&db),
        Arc::new(ReconIndex::ephemeral()),
        ResilienceConfig::default(),
        SchedConfig::default(),
    );
    let svc = service_over(&reg);
    let mut rendered_pages = Vec::new();
    let mut ledger_after = Vec::new();
    let page = svc
        .create_query("chaos", &request_for("1d-rerank", 5))
        .unwrap();
    let id = page.query_id.clone();
    rendered_pages.push(rendered(&page));
    ledger_after.push(db.ledger().total());
    for _ in 1..pages {
        let next = svc.next_page(&id, Some(5)).unwrap();
        rendered_pages.push(rendered(&next));
        ledger_after.push(db.ledger().total());
    }
    (rendered_pages, ledger_after)
}

#[test]
fn short_outage_mid_session_rides_through_on_retries() {
    // The fault script is attempt-indexed and on a healthy run attempts
    // equal paid queries one-for-one, so the twin's ledger pins the
    // outage window to land exactly on page two's first probes.
    let (reference, ledger_after) = healthy_reference(3);
    let outage_start = ledger_after[0];

    let db = chaos_db(60, 10);
    let reg = chaos_registry(
        Arc::clone(&db),
        Arc::new(ReconIndex::ephemeral()),
        ResilienceConfig {
            script: Some(FaultScript::healthy().with_outage(outage_start, outage_start + 4)),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            degraded: DegradedPolicy::default(),
        },
        SchedConfig::default(),
    );
    let source = reg.get("chaos").unwrap();
    let svc = service_over(&reg);

    let page = svc
        .create_query("chaos", &request_for("1d-rerank", 5))
        .unwrap();
    let id = page.query_id.clone();
    let mut pages = vec![rendered(&page)];
    pages.push(rendered(
        &svc.next_page(&id, Some(5))
            .expect("a four-attempt outage must ride through on retries"),
    ));
    pages.push(rendered(&svc.next_page(&id, Some(5)).unwrap()));

    assert_eq!(
        pages, reference,
        "answers must survive the outage unchanged"
    );
    let health = source.sched.resilient().health();
    assert!(health.unavailable >= 1, "the outage was really hit");
    assert!(health.retries >= 1, "riding through means retrying");
    assert_eq!(
        health.breaker, "closed",
        "a ridden-through outage never opens"
    );
    assert_eq!(
        db.ledger().total(),
        *ledger_after.last().unwrap(),
        "outage rejections fire before the paid call — zero extra ledger queries"
    );
}

#[test]
fn ledger_counts_every_paid_retry() {
    let (reference, ledger_after) = healthy_reference(3);
    let healthy_total = *ledger_after.last().unwrap();

    // Every third attempt times out *after* the inner call executed: the
    // paid query is spent and then discarded, so the ledger must exceed
    // the healthy twin by exactly the timeout count — truthful cost
    // accounting for every paid retry.
    let db = chaos_db(60, 10);
    let reg = chaos_registry(
        Arc::clone(&db),
        Arc::new(ReconIndex::ephemeral()),
        ResilienceConfig {
            script: Some(FaultScript {
                timeout_every: Some(3),
                ..FaultScript::healthy()
            }),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            degraded: DegradedPolicy::default(),
        },
        SchedConfig::default(),
    );
    let source = reg.get("chaos").unwrap();
    let svc = service_over(&reg);

    let page = svc
        .create_query("chaos", &request_for("1d-rerank", 5))
        .unwrap();
    let mut pages = vec![rendered(&page)];
    pages.push(rendered(&svc.next_page(&page.query_id, Some(5)).unwrap()));
    pages.push(rendered(&svc.next_page(&page.query_id, Some(5)).unwrap()));
    assert_eq!(
        pages, reference,
        "timeouts must be invisible in the answers"
    );

    let health = source.sched.resilient().health();
    assert!(health.timeouts >= 1, "the script really timed out probes");
    assert_eq!(
        db.ledger().total(),
        healthy_total + health.timeouts,
        "every timed-out probe was paid for and must appear in the ledger"
    );
    assert_eq!(
        health.retries, health.timeouts,
        "each isolated timeout costs exactly one retry"
    );
    assert_eq!(health.breaker, "closed");
}

/// A terminal two-attempt outage placed `offset` probes after page one,
/// with no retries, no parking and a breaker that never opens: each
/// failed page must be a `503 source_unavailable`, and the pages that
/// succeed must be the healthy twin's, byte for byte — the failed probe's
/// region stays pending and the failed page's tuples are kept.
#[test]
fn terminal_outage_mid_session_resumes_exactly() {
    const PAGES: usize = 8;
    let mut failed_pages = 0;
    for executor in [
        ExecutorKind::Sequential,
        ExecutorKind::Parallel { fanout: 4 },
    ] {
        for algo in SEVEN {
            let (twin, ledger_after_page_one) = {
                let db = chaos_db(120, 10);
                let reg = Arc::new(chaos_sources(
                    Arc::clone(&db),
                    Arc::new(ReconIndex::ephemeral()),
                    ResilienceConfig::default(),
                    SchedConfig::default(),
                    executor,
                ));
                let svc = service_over(&reg);
                let first = svc.create_query("chaos", &request_for(algo, 10)).unwrap();
                let paid = db.ledger().total();
                let mut pages = vec![rendered(&first)];
                for _ in 1..PAGES {
                    pages.push(rendered(&svc.next_page(&first.query_id, None).unwrap()));
                }
                (pages, paid)
            };
            for offset in 0..6 {
                let case = format!("{algo} {executor:?} outage at +{offset}");
                let start = ledger_after_page_one + offset;
                let reg = Arc::new(chaos_sources(
                    chaos_db(120, 10),
                    Arc::new(ReconIndex::ephemeral()),
                    ResilienceConfig {
                        script: Some(FaultScript::healthy().with_outage(start, start + 2)),
                        retry: RetryPolicy::none(),
                        breaker: BreakerConfig::disabled(),
                        degraded: DegradedPolicy::default(),
                    },
                    SchedConfig {
                        max_outage_park: Duration::ZERO,
                        ..SchedConfig::default()
                    },
                    executor,
                ));
                let svc = service_over(&reg);
                let first = svc.create_query("chaos", &request_for(algo, 10)).unwrap();
                let mut pages = vec![rendered(&first)];
                let mut failures = 0;
                while pages.len() < PAGES {
                    match svc.next_page(&first.query_id, None) {
                        Ok(page) => pages.push(rendered(&page)),
                        Err(e) => {
                            assert_eq!(e.status, Status::ServiceUnavailable, "{case}");
                            assert_eq!(e.code, "source_unavailable", "{case}");
                            failures += 1;
                            assert!(
                                failures <= 2,
                                "{case}: two failed attempts, {failures} 503s"
                            );
                        }
                    }
                }
                assert_eq!(pages, twin, "{case}: pages after the outage");
                failed_pages += failures;
            }
        }
    }
    assert!(failed_pages > 0, "the outage never failed a page");
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Json) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let status = out.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("null");
    (status, parse_json(body).unwrap_or(Json::Null))
}

#[test]
fn stream_hit_by_hard_outage_terminates_with_failed_summary_not_a_drop() {
    // Page one is healthy (the outage starts at the twin-measured attempt
    // count); the stream then hits a permanent outage and must end with a
    // truthful in-band summary — never a dropped connection.
    let (_, ledger_after) = healthy_reference(1);
    let outage_start = ledger_after[0];

    let reg = chaos_sources(
        chaos_db(60, 10),
        Arc::new(ReconIndex::ephemeral()),
        ResilienceConfig {
            script: Some(FaultScript::healthy().with_outage(outage_start, u64::MAX)),
            retry: RetryPolicy::none(),
            breaker: BreakerConfig::disabled(),
            degraded: DegradedPolicy::default(),
        },
        SchedConfig {
            max_outage_park: Duration::from_millis(40),
            ..SchedConfig::default()
        },
        ExecutorKind::Sequential,
    );
    let server = Qr2App::new(reg).serve("127.0.0.1:0", 2).unwrap();
    let addr = server.addr();

    let (status, v) = post(
        addr,
        "/v1/sources/chaos/queries",
        r#"{"ranking":{"type":"1d","attr":"x0"},"algorithm":"1d-rerank","page_size":5}"#,
    );
    assert_eq!(status, 201, "{v:?}");
    let id = v.get("query_id").unwrap().as_str().unwrap().to_string();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(format!("GET /v1/queries/{id}/stream?limit=40 HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    // read_to_string returning Ok proves the server closed the stream
    // cleanly rather than dropping it mid-line.
    s.read_to_string(&mut out).unwrap();
    assert_eq!(out.matches("\"event\":\"summary\"").count(), 1, "{out}");
    assert!(
        out.contains("\"status\":\"failed\"") || out.contains("\"status\":\"partial\""),
        "an interrupted stream must report failed/partial, got: {out}"
    );
    server.stop();
}

#[test]
fn crashed_recon_job_resumes_from_checkpoint_and_serves_degraded() {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "qr2-fault-e2e-recon-{}-{}.log",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let db = chaos_db(80, 10);
    let reference_recon = crawl_full(&db);

    // "Crash": the job runs out of budget mid-crawl; only its persisted
    // checkpoints survive. Dropping the index simulates the process dying.
    {
        let idx = ReconIndex::open(&path).unwrap();
        let job = idx
            .run_job(
                &*db,
                &JobOptions {
                    max_queries: 12,
                    checkpoint_every: 4,
                    ..JobOptions::default()
                },
                0,
            )
            .unwrap();
        assert_eq!(job.state, "budget_exhausted");
    }

    // Reboot: the reopened index resumes from the persisted frontier and
    // completes the crawl.
    let recovered = Arc::new(ReconIndex::open(&path).unwrap());
    let resumed = recovered
        .run_job(
            &*db,
            &JobOptions {
                max_queries: usize::MAX,
                ..JobOptions::default()
            },
            0,
        )
        .unwrap();
    assert_eq!(resumed.state, "complete");

    // The recovered index backs degraded serving through a total outage,
    // byte-identical to an index crawled in one uninterrupted run.
    let reg = chaos_registry(
        Arc::clone(&db),
        recovered,
        ResilienceConfig {
            script: Some(FaultScript::healthy().with_outage(0, u64::MAX)),
            retry: RetryPolicy::none(),
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_cooldown: Duration::from_secs(600),
            },
            degraded: DegradedPolicy {
                allow_stale_recon: true,
            },
        },
        SchedConfig::default(),
    );
    let source = reg.get("chaos").unwrap();
    source.cache.flush().unwrap();
    open_breaker(&reg, 2);
    let svc = service_over(&reg);

    let reference_reg = chaos_registry(
        Arc::clone(&db),
        reference_recon,
        ResilienceConfig::default(),
        SchedConfig::default(),
    );
    let reference_svc = service_over(&reference_reg);

    let paid_before = source.db.ledger().total();
    for algo in SEVEN {
        let want = reference_svc
            .create_query("chaos", &request_for(algo, 10))
            .unwrap();
        assert!(!want.degraded, "{algo}: reference serves fresh");
        let got = svc.create_query("chaos", &request_for(algo, 10)).unwrap();
        assert!(got.degraded, "{algo}");
        assert_eq!(
            rendered(&got),
            rendered(&want),
            "{algo}: the recovered index must serve byte-identically"
        );
    }
    assert_eq!(source.db.ledger().total(), paid_before);
    let _ = std::fs::remove_file(&path);
}

/// A 400-row source whose fault script fails every attempt from the
/// sixth on, with a short parking patience so failed probes resolve
/// quickly.
fn outage_after_six() -> (Arc<SimulatedWebDb>, Arc<SourceRegistry>) {
    let db = chaos_db(400, 10);
    let reg = chaos_registry(
        Arc::clone(&db),
        Arc::new(ReconIndex::ephemeral()),
        ResilienceConfig {
            script: Some(FaultScript::healthy().with_outage(6, u64::MAX)),
            ..ResilienceConfig::default()
        },
        SchedConfig {
            max_outage_park: Duration::from_millis(20),
            poll_interval: Duration::from_millis(1),
        },
    );
    (db, reg)
}

#[test]
fn recon_job_through_a_failing_source_never_claims_coverage_it_lacks() {
    let (_db, reg) = outage_after_six();
    let source = reg.get("chaos").unwrap();
    let epoch = source.cache.epoch();
    let job = source
        .recon
        .run_job(
            &*source.probe,
            &JobOptions {
                max_queries: usize::MAX,
                ..JobOptions::default()
            },
            epoch,
        )
        .unwrap();
    let status = source.recon.status(source.schema(), epoch);
    assert!(status.tuples < 400, "the outage cut the crawl short");
    assert_eq!(job.state, "failed", "a failed probe ends the job as failed");
    assert_ne!(status.state, "complete");
    assert!(
        status.pending_regions > 0,
        "the failed region stays on the frontier"
    );
    assert!(status.coverage < 1.0);
    assert!(
        !source.recon.covered(&SearchQuery::all(), epoch),
        "holding {} of 400 tuples must not cover the whole space",
        status.tuples
    );
}

#[test]
fn dense_index_never_stores_a_crawl_cut_short_by_the_source() {
    use qr2::core::SearchCtx;

    let (_db, reg) = outage_after_six();
    let source = reg.get("chaos").unwrap();
    let ctx = SearchCtx::new(Arc::clone(&source.probe), ExecutorKind::Sequential);
    let dense = DenseIndex::in_memory();
    let all = SearchQuery::all();
    let err = dense
        .get_or_crawl(&ctx, &all, None)
        .expect_err("the outage cuts the crawl short");
    assert_eq!(err.kind(), "unavailable");
    assert!(
        dense.lookup(&all).is_none(),
        "a crawl cut short must not be stored as the region"
    );
}
