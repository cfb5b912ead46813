//! End-to-end coverage for the rate-limit-aware scheduler (`qr2-sched`):
//! fair sharing under a hot competitor, deadline-class ordering, exact
//! frontier coalescing, truthful cost accounting through the service,
//! admission-control 503s, and `DELETE`-time queue draining.
//!
//! Scheduler-level tests drive a `SourceScheduler` directly over a
//! traffic-shaped simulated database; service-level tests go through
//! `QueryService` with a `Source::builder` stack (cache →
//! scheduler → traffic shaping → web DB), exactly as the HTTP handlers
//! do.

use std::sync::{Arc, Barrier, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use qr2::cache::{AnswerCache, CacheConfig};
use qr2::core::{
    next_session_key, with_session, CancelToken, ExecutorKind, QueryClass, SessionCtx,
};
use qr2::sched::{SchedConfig, SourceScheduler};
use qr2::service::{
    QueryRequest, QueryService, RankingDto, SessionManager, Source, SourceRegistry,
};
use qr2::webdb::{
    Answer, BreakerConfig, QueryLedger, RangePred, ResilientInterface, RetryPolicy, Schema,
    SearchError, SearchQuery, SimulatedWebDb, SourcePolicy, SystemRanking, TableBuilder, Throttled,
    TopKInterface, TopKResponse, TrafficShapedInterface,
};

/// A deterministic one-attribute database: rows at integer positions,
/// `k` large enough that responses in these tests are complete.
fn x_db(n: usize, k: usize) -> Arc<SimulatedWebDb> {
    let schema = qr2::webdb::Schema::builder()
        .numeric("x", 0.0, 1000.0)
        .build();
    let mut tb = TableBuilder::new(schema.clone());
    for i in 0..n {
        tb.push_row(vec![i as f64]).unwrap();
    }
    let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
    Arc::new(SimulatedWebDb::new(tb.build(), ranking, k))
}

/// Scheduler directly over the shaped database (no cache, no engine).
fn sched_over(db: Arc<dyn TopKInterface>, policy: SourcePolicy) -> Arc<SourceScheduler> {
    let shaped = Arc::new(TrafficShapedInterface::new(db, policy));
    let resilient = Arc::new(ResilientInterface::new(
        Arc::clone(&shaped),
        shaped,
        RetryPolicy::default(),
        BreakerConfig::default(),
        "default",
    ));
    Arc::new(SourceScheduler::new(
        resilient,
        SchedConfig::default(),
        "default",
    ))
}

/// Poll `cond` until it holds, panicking after 10 s — a regression that
/// keeps a probe out of the queue must fail the test, not hang it.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A range probe on the `x` attribute.
fn range(db: &SimulatedWebDb, lo: f64, hi: f64) -> SearchQuery {
    let x = db.schema().expect_id("x");
    SearchQuery::all().and_range(x, RangePred::closed(lo, hi))
}

/// The full serving stack for service-level tests: one source named
/// `"x"` wired through `Source::builder`, its engines on `executor`.
fn service_over(
    db: Arc<dyn TopKInterface>,
    policy: SourcePolicy,
    cfg: SchedConfig,
    executor: ExecutorKind,
) -> (QueryService, Arc<Source>) {
    let cache = Arc::new(AnswerCache::new(CacheConfig {
        shards: 4,
        capacity: 1 << 12,
    }));
    let mut registry = SourceRegistry::new();
    registry.register(
        Source::builder("x", "Contended numeric source", db)
            .policy(policy)
            .sched_config(cfg)
            .executor(executor)
            .cache(cache)
            .build(),
    );
    let registry = Arc::new(registry);
    let source = registry.get("x").expect("source registered");
    let service = QueryService::new(
        registry,
        Arc::new(SessionManager::new(Duration::from_secs(60))),
    );
    (service, source)
}

/// A create-query request over the `x` source.
fn query_request(lo: f64, hi: f64, class: Option<&str>) -> QueryRequest {
    QueryRequest {
        source: None,
        filters: vec![qr2::service::FilterDto {
            index: 0,
            attr: "x".into(),
            min: Some(lo),
            max: Some(hi),
            values: None,
        }],
        ranking: RankingDto::OneDim {
            attr: "x".into(),
            ascending: true,
        },
        algorithm: "auto".into(),
        page_size: Some(5),
        max_queries: None,
        class: class.map(str::to_string),
    }
}

#[test]
fn fair_share_under_a_hot_competitor() {
    // A hot session with 3× the demand must not starve a light one:
    // round-robin dispatches one probe per session per ring pass, so the
    // light session finishes no later than the hog, and everyone's
    // answers stay correct.
    let db = x_db(300, 400);
    let reference = x_db(300, 400);
    let sched = sched_over(db, SourcePolicy::rate_limited(300.0, 2.0));
    let barrier = Barrier::new(2);
    let (light_ms, hot_ms) = std::thread::scope(|scope| {
        let barrier = &barrier;
        let run = |probes: usize, band: f64| {
            let sched = Arc::clone(&sched);
            let reference = Arc::clone(&reference);
            move || {
                let key = next_session_key();
                barrier.wait();
                let start = Instant::now();
                for p in 0..probes {
                    let lo = band + (p % 40) as f64;
                    let q = range(reference.as_ref(), lo, lo + 30.0);
                    let ctx = SessionCtx::new(key, QueryClass::Interactive, CancelToken::new());
                    let answer = with_session(ctx, || sched.submit(&q)).expect("answered");
                    assert_eq!(
                        answer.resp,
                        reference.search(&q),
                        "probe {p} answered wrong"
                    );
                }
                start.elapsed().as_secs_f64() * 1e3
            }
        };
        let light = scope.spawn(run(6, 0.0));
        let hot = scope.spawn(run(18, 500.0));
        (light.join().unwrap(), hot.join().unwrap())
    });
    assert!(
        light_ms <= hot_ms,
        "light session ({light_ms:.1} ms) finished after the 3x-demand hog ({hot_ms:.1} ms)"
    );
}

#[test]
fn interactive_class_dispatches_before_queued_background() {
    // Both classes queued behind a closed source: when it opens, the
    // interactive probe leaves the queue first even though the background
    // probe enqueued earlier.
    let db = x_db(100, 200);
    let gated = Gated::new(Arc::clone(&db), false);
    let sched = sched_over(gated.clone(), SourcePolicy::unlimited());
    assert!(gated.sched.set(Arc::downgrade(&sched)).is_ok());
    let bg_q = range(db.as_ref(), 0.0, 50.0);
    let int_q = range(db.as_ref(), 60.0, 99.0);
    std::thread::scope(|scope| {
        let submit = |class: QueryClass, q: &SearchQuery| {
            let sched = Arc::clone(&sched);
            let q = q.clone();
            move || {
                let ctx = SessionCtx::new(next_session_key(), class, CancelToken::new());
                with_session(ctx, || sched.submit(&q)).expect("answered");
            }
        };
        let bg = scope.spawn(submit(QueryClass::Background, &bg_q));
        // Only spawn the interactive probe once the background one is
        // provably in the queue, and open the source only once both are.
        wait_until("the background probe to queue", || sched.stats().queued > 0);
        let int = scope.spawn(submit(QueryClass::Interactive, &int_q));
        wait_until("both probes to queue", || {
            gated.open_if(|| sched.stats().queued == 2)
        });
        int.join().unwrap();
        bg.join().unwrap();
    });
    // Once open, the source refuses nothing, so a probe leaves the queue
    // only by being dispatched. Two dispatchers can hold both probes in
    // flight at once, so the source may see them in either order; what
    // the scheduler promises is the pick, and a background probe that
    // reaches the source with the interactive one still queued broke it.
    let received = gated.received();
    let queued_on_arrival = |want: &SearchQuery| {
        let mut hits = received.iter().filter(|(q, _)| q == want);
        let (_, queued) = hits.next().expect("the source received the probe");
        assert!(hits.next().is_none(), "the source received the probe twice");
        *queued
    };
    assert_eq!(received.len(), 2);
    queued_on_arrival(&int_q);
    assert_eq!(
        queued_on_arrival(&bg_q),
        0,
        "the background probe was dispatched while the interactive one was queued"
    );
}

#[test]
fn frontier_coalescing_issues_one_covering_query_with_exact_answers() {
    // One wide probe parked in the queue; three narrow probes whose
    // ranges it covers arrive behind it. Exactly one web-DB query may be
    // paid, and every waiter's answer must be byte-identical to what a
    // direct (unscheduled) search would have returned.
    let db = x_db(350, 400);
    let reference = x_db(350, 400);
    let sched = sched_over(db.clone(), SourcePolicy::rate_limited(5.0, 1.0));
    sched
        .shaped()
        .probe(&range(db.as_ref(), 900.0, 1000.0))
        .unwrap();
    let paid_before = db.ledger().total();

    std::thread::scope(|scope| {
        let wide_sched = Arc::clone(&sched);
        let wide_q = range(db.as_ref(), 0.0, 300.0);
        let wide_want = reference.search(&wide_q);
        scope.spawn(move || {
            let ctx = SessionCtx::new(
                next_session_key(),
                QueryClass::Interactive,
                CancelToken::new(),
            );
            let answer = with_session(ctx, || wide_sched.submit(&wide_q)).expect("answered");
            assert_eq!(answer.resp, wide_want, "covering probe answered wrong");
        });
        wait_until("the covering probe to queue", || sched.stats().queued > 0);
        for i in 0..3 {
            let narrow_sched = Arc::clone(&sched);
            let lo = 100.0 * i as f64;
            let narrow_q = range(db.as_ref(), lo, lo + 80.0);
            let narrow_want = reference.search(&narrow_q);
            scope.spawn(move || {
                let ctx = SessionCtx::new(
                    next_session_key(),
                    QueryClass::Interactive,
                    CancelToken::new(),
                );
                let Answer { resp, outcome } = with_session(ctx, || narrow_sched.submit(&narrow_q))
                    .expect("derived answers are exact, not failures");
                assert_eq!(
                    resp, narrow_want,
                    "waiter {i}'s derived answer differs from a direct search"
                );
                assert!(!outcome.cache_hit, "frontier coalescing is not a cache hit");
            });
        }
    });

    assert_eq!(
        db.ledger().total() - paid_before,
        1,
        "the covering probe must be the only paid web-DB query"
    );
    assert_eq!(sched.stats().coalesced_frontier_hits, 3);
}

#[test]
fn saturated_source_returns_structured_503_with_retry_after() {
    // With the bucket empty and a ~100 s refill, a new session's first
    // probe would wait far past the admission ceiling: create-query must
    // refuse up front with the structured 503, not hang in the queue.
    let db = x_db(50, 60);
    let (service, source) = service_over(
        db,
        SourcePolicy::rate_limited(0.01, 1.0),
        SchedConfig::default(),
        ExecutorKind::Sequential,
    );
    let burner = range(&x_db(1, 1), 0.0, 1000.0);
    source.sched.shaped().probe(&burner).unwrap();

    let err = service
        .create_query("x", &query_request(0.0, 40.0, None))
        .expect_err("saturated source must refuse admission");
    assert_eq!(err.status, qr2::http::Status::ServiceUnavailable);
    assert_eq!(err.code, "source_throttled");
    let retry_after = err
        .headers
        .iter()
        .find(|(n, _)| n == "Retry-After")
        .map(|(_, v)| v.parse::<u64>().unwrap())
        .expect("503 must carry Retry-After");
    assert!(retry_after >= 1, "Retry-After was {retry_after}");
    assert_eq!(source.sched.stats().rejected, 1);
}

#[test]
fn class_field_is_validated_and_aliased() {
    let db = x_db(50, 60);
    let (service, _) = service_over(
        db,
        SourcePolicy::unlimited(),
        SchedConfig::default(),
        ExecutorKind::Sequential,
    );
    let err = service
        .create_query("x", &query_request(0.0, 40.0, Some("warp")))
        .expect_err("unknown class must be rejected");
    assert_eq!(err.code, "invalid_value");
    assert_eq!(err.status, qr2::http::Status::BadRequest);
    // `"crawl"` is the documented alias for the background class.
    for class in [None, Some("interactive"), Some("background"), Some("crawl")] {
        service
            .create_query("x", &query_request(0.0, 40.0, class))
            .unwrap_or_else(|e| panic!("class {class:?} refused: {}", e.message));
    }
}

#[test]
fn concurrent_identical_sessions_pay_once_and_warm_pass_is_free() {
    // Truthful cost accounting through the full stack: two identical
    // sessions racing on a paced source must together cost the web DB
    // exactly what one session costs alone (cache single-flight +
    // scheduler), the free waiters must be *recorded* as free
    // (cache_hits / coalesced_waits), and a later warm pass must cost
    // zero web-DB queries without ever touching the scheduler.
    let solo_db = x_db(200, 250);
    let (solo_service, _) = service_over(
        solo_db.clone(),
        SourcePolicy::unlimited(),
        SchedConfig::default(),
        ExecutorKind::Sequential,
    );
    let solo = solo_service
        .create_query("x", &query_request(0.0, 150.0, None))
        .unwrap();
    let solo_paid = solo_db.ledger().total();
    assert!(!solo.results.is_empty());
    assert!(solo_paid > 0);

    let db = x_db(200, 250);
    let (service, source) = service_over(
        db.clone(),
        SourcePolicy::rate_limited(100.0, 1.0),
        SchedConfig::default(),
        ExecutorKind::Sequential,
    );
    let service = Arc::new(service);
    let barrier = Barrier::new(2);
    let (a, b) = std::thread::scope(|scope| {
        let barrier = &barrier;
        let spawn_same = || {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                barrier.wait();
                service
                    .create_query("x", &query_request(0.0, 150.0, None))
                    .unwrap()
            })
        };
        let a = spawn_same();
        let b = spawn_same();
        (a.join().unwrap(), b.join().unwrap())
    });
    // Identical deterministic sessions: identical pages.
    assert_eq!(a.results.len(), b.results.len());
    assert_eq!(
        db.ledger().total(),
        solo_paid,
        "two identical sessions must not pay more than one"
    );
    assert_eq!(
        a.stats.queries + b.stats.queries,
        solo_paid as usize,
        "paid queries must be attributed, never double-counted"
    );
    assert!(
        a.stats.cache_hits + a.stats.coalesced_waits + b.stats.cache_hits + b.stats.coalesced_waits
            > 0,
        "the follower's free lookups must be recorded"
    );

    // Warm pass: everything is in the answer cache, so the web DB sees
    // nothing and the scheduler never runs.
    let dispatched_before = source.sched.stats().dispatched;
    let warm = service
        .create_query("x", &query_request(0.0, 150.0, None))
        .unwrap();
    assert_eq!(warm.stats.queries, 0, "warm pass must be free");
    assert_eq!(db.ledger().total(), solo_paid, "warm pass hit the web DB");
    assert_eq!(
        source.sched.stats().dispatched,
        dispatched_before,
        "cache sits outside the scheduler; warm lookups must not queue"
    );
}

/// A two-attribute database: `x` at integer positions, `y` a scrambled
/// permutation of them, so an MD ranking over both keeps probing.
fn xy_db(n: usize, k: usize) -> Arc<SimulatedWebDb> {
    let schema = qr2::webdb::Schema::builder()
        .numeric("x", 0.0, 1000.0)
        .numeric("y", 0.0, 1000.0)
        .build();
    let mut tb = TableBuilder::new(schema.clone());
    for i in 0..n {
        tb.push_row(vec![i as f64, ((i * 37) % n) as f64]).unwrap();
    }
    let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
    Arc::new(SimulatedWebDb::new(tb.build(), ranking, k))
}

/// The sessions the deletion tests park in the scheduler: a 1D session
/// on the sequential executor, and an MD-RERANK session whose rounds run
/// on the parallel executor's worker threads. Each page size is the
/// system k, so the first page consumes the first probe's whole response
/// and the next line or page must probe (and therefore queue) again.
fn parked_sessions() -> Vec<(
    &'static str,
    Arc<SimulatedWebDb>,
    ExecutorKind,
    QueryRequest,
)> {
    let mut one_d = query_request(0.0, 150.0, None);
    one_d.page_size = Some(10);
    let mut md = query_request(0.0, 150.0, None);
    md.page_size = Some(10);
    md.ranking = RankingDto::Md {
        weights: vec![("x".into(), 1.0), ("y".into(), 1.0)],
    };
    md.algorithm = "md-rerank".into();
    vec![
        (
            "1D, sequential",
            x_db(200, 10),
            ExecutorKind::Sequential,
            one_d,
        ),
        (
            "MD-RERANK, parallel",
            xy_db(200, 10),
            ExecutorKind::Parallel { fanout: 4 },
            md,
        ),
    ]
}

/// A rate-limited service whose session `req` has served its first
/// page and whose token bucket is empty, so the session's next probe
/// parks in the scheduler (~5 s per fresh token).
fn drained_service(
    db: &Arc<SimulatedWebDb>,
    executor: ExecutorKind,
    req: &QueryRequest,
) -> (QueryService, Arc<Source>, String) {
    let (service, source) = service_over(
        db.clone(),
        SourcePolicy::rate_limited(0.2, 50.0),
        SchedConfig::default(),
        executor,
    );
    let first = service.create_query("x", req).unwrap();
    assert!(!first.results.is_empty());
    let burner = range(db.as_ref(), 900.0, 1000.0);
    while source.sched.shaped().probe(&burner).is_ok() {}
    (service, source, first.query_id)
}

#[test]
fn delete_drains_the_sessions_pending_scheduler_entries() {
    // A session blocked in the admission queue is torn down by DELETE:
    // the blocked request returns, the queue empties, and the web DB is
    // never charged for the abandoned probes, whether the session probes
    // on its own thread or on the parallel executor's workers.
    for (label, db, executor, req) in parked_sessions() {
        let (service, source, id) = drained_service(&db, executor, &req);
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| service.next_page(&id, None));
            wait_until("the next page's probe to queue", || {
                source.sched.stats().queued > 0
            });
            let paid_at_delete = db.ledger().total();
            service.delete(&id).expect("delete a live query");
            // The blocked call returns the page found so far (empty or
            // partial) as a cancellation, not an outage.
            let page = blocked
                .join()
                .unwrap()
                .unwrap_or_else(|e| panic!("{label}: a deleted session's page: {e:?}"));
            assert!(
                page.results.len() <= 10,
                "{label}: at most one page: {}",
                page.results.len()
            );
            assert_eq!(
                db.ledger().total(),
                paid_at_delete,
                "{label}: abandoned probes must never reach the web DB"
            );
        });
        assert_eq!(
            source.sched.stats().queued,
            0,
            "{label}: queue must be drained"
        );
        assert!(
            service.stats(&id).is_err(),
            "{label}: the session is gone after DELETE"
        );
    }
}

#[test]
fn a_stream_deleted_while_its_probe_is_parked_ends_cancelled() {
    // The stream's next line waits in the scheduler when DELETE arrives:
    // the stream ends with a `cancelled` summary, sends no tuple line
    // after the delete, and the web DB is never charged for it.
    for (label, db, executor, req) in parked_sessions() {
        let (service, source, id) = drained_service(&db, executor, &req);
        let mut stream = service.stream(&id, Some(50), None).unwrap();
        let chunks = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                while let Some(chunk) = stream.next_chunk() {
                    chunks
                        .lock()
                        .unwrap()
                        .push(String::from_utf8(chunk).unwrap());
                }
            });
            wait_until("the stream's next probe to queue", || {
                source.sched.stats().queued > 0
            });
            let before_delete = chunks.lock().unwrap().len();
            let paid_at_delete = db.ledger().total();
            service.delete(&id).expect("delete a live query");
            reader.join().unwrap();
            assert_eq!(
                db.ledger().total(),
                paid_at_delete,
                "{label}: a deleted stream's probe must never reach the web DB"
            );
            let after = chunks.lock().unwrap()[before_delete..].concat();
            assert!(
                !after.contains("\"event\":\"tuple\""),
                "{label}: no tuple line after the delete: {after}"
            );
            let summary = after
                .lines()
                .last()
                .expect("the stream ends with a summary");
            assert!(
                summary.contains("\"event\":\"summary\"")
                    && summary.contains("\"status\":\"cancelled\""),
                "{label}: {summary}"
            );
        });
        assert_eq!(
            source.sched.stats().queued,
            0,
            "{label}: queue must be drained"
        );
    }
}

/// A web database behind a switch: while it is closed every probe is
/// refused with a 429 (nothing paid), so the scheduler keeps re-queueing
/// it until the switch opens.
struct Gated {
    db: Arc<SimulatedWebDb>,
    /// Whether the switch is open, and the probes it let through in
    /// arrival order, each with the scheduler's queue length on arrival.
    /// One lock, so a probe passes or is refused atomically with respect
    /// to a change of the switch.
    gate: Mutex<(bool, Vec<(SearchQuery, usize)>)>,
    /// The scheduler over this source, once set: its queue length is
    /// logged with each probe let through.
    sched: OnceLock<Weak<SourceScheduler>>,
}

impl Gated {
    fn new(db: Arc<SimulatedWebDb>, open: bool) -> Arc<Gated> {
        Arc::new(Gated {
            db,
            gate: Mutex::new((open, Vec::new())),
            sched: OnceLock::new(),
        })
    }

    fn set_open(&self, open: bool) {
        self.gate.lock().unwrap().0 = open;
    }

    /// Open the switch if `cond` holds, judged while no probe can pass
    /// or be refused; returns whether it opened.
    fn open_if(&self, cond: impl FnOnce() -> bool) -> bool {
        let mut gate = self.gate.lock().unwrap();
        gate.0 = cond();
        gate.0
    }

    fn received(&self) -> Vec<(SearchQuery, usize)> {
        self.gate.lock().unwrap().1.clone()
    }
}

impl TopKInterface for Gated {
    fn schema(&self) -> &Schema {
        self.db.schema()
    }
    fn system_k(&self) -> usize {
        self.db.system_k()
    }
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        self.db.search(q)
    }
    fn ledger(&self) -> &QueryLedger {
        self.db.ledger()
    }
    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        {
            let mut gate = self.gate.lock().unwrap();
            if !gate.0 {
                return Err(SearchError::Throttled(Throttled {
                    retry_after: Duration::from_millis(2),
                }));
            }
            let queued = self.sched.get().and_then(Weak::upgrade);
            let queued = queued.map_or(0, |sched| sched.stats().queued);
            gate.1.push((q.clone(), queued));
        }
        self.db.probe(q)
    }
}

#[test]
fn deleting_a_session_does_not_cancel_an_identical_one_coalesced_on_its_probes() {
    // Two identical MD-RERANK sessions on the parallel executor: A's next
    // round waits in the scheduler and B's identical round waits on A's
    // answer-cache flights when A is deleted. The cancellation is A's
    // alone: B fetches for itself and its stream ends `complete`.
    let gated = Gated::new(xy_db(200, 10), true);
    let (service, source) = service_over(
        gated.clone(),
        SourcePolicy::unlimited(),
        SchedConfig::default(),
        ExecutorKind::Parallel { fanout: 4 },
    );
    let (_, _, _, req) = parked_sessions().pop().expect("the MD-RERANK session");
    let a = service.create_query("x", &req).unwrap().query_id;
    let b = service.create_query("x", &req).unwrap().query_id;
    gated.set_open(false);
    let mut stream = service.stream(&b, Some(20), None).unwrap();
    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| service.next_page(&a, None));
        wait_until("A's next round to queue", || {
            source.sched.stats().queued > 0
        });
        let reader = scope.spawn(|| {
            let mut lines = String::new();
            while let Some(chunk) = stream.next_chunk() {
                lines.push_str(&String::from_utf8(chunk).unwrap());
            }
            lines
        });
        // Let B's round reach A's in-flight cache lookups.
        std::thread::sleep(Duration::from_millis(100));
        service.delete(&a).expect("delete A");
        let page = blocked.join().unwrap().expect("A's page is a cancellation");
        assert!(page.results.len() <= 10);
        gated.set_open(true);
        let lines = reader.join().unwrap();
        let summary = lines
            .lines()
            .last()
            .expect("B's stream ends with a summary");
        assert!(
            summary.contains("\"status\":\"complete\"") && summary.contains("\"count\":20"),
            "{summary}"
        );
    });
    assert!(service.stats(&b).is_ok(), "B is still live");
}
