//! Smoke scenario `BENCH_pr7.json`: the rate-limit-aware scheduler
//! under contention through one `SourceScheduler`.
//!
//! Two phases, each on a **fresh** database so ledgers are comparable:
//!
//! 1. **Coalescing contention.** Four interactive sessions probe a
//!    rate-limited source in lock-stepped rounds — one wide range that
//!    covers the other three sessions' narrow ranges — while a
//!    background crawl session hammers a disjoint range. The same
//!    workload then replays **without** the scheduler (traffic shaping
//!    only, every probe pays). The runner checks the contract:
//!    scheduler-on must spend *strictly fewer* web-database queries than
//!    scheduler-off, and `coalesced_frontier_hits` must be positive.
//!    Every answer — paid or derived from another session's covering
//!    probe — is checked byte-for-byte against an untouched reference
//!    copy of the database.
//!
//! 2. **Fairness.** Three equal-demand interactive sessions race a hog
//!    session with 3× their demand through the paced bucket. Deficit
//!    round-robin must serve the equal-demand sessions evenly: the
//!    max/min ratio of their completion times is the fairness metric
//!    (the runner checks it ≤ 5.0; a FIFO queue that lets the first
//!    enqueuer drain its backlog would not stay bounded).
//!
//! Paid-query counts depend on thread interleavings (a narrow probe can
//! win a burst token before the wide one arrives), so they are
//! `measured` and the contracts are *inequalities*, never exact values;
//! only the scenario's shape is `deterministic`.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use qr2_core::{next_session_key, with_session, CancelToken, QueryClass, SessionCtx};
use qr2_sched::{SchedConfig, SourceScheduler};
use qr2_webdb::{
    BreakerConfig, RangePred, ResilientInterface, RetryPolicy, SearchQuery, SimulatedWebDb,
    SourcePolicy, SystemRanking, TableBuilder, TopKInterface, TrafficShapedInterface,
};

use qr2_http::Json;

use crate::report::{round, Contract, Report};

/// Lock-stepped rounds in the coalescing phase.
pub const SCHED_ROUNDS: usize = 12;
/// Interactive sessions in the coalescing phase (1 wide + 3 narrow).
pub const SCHED_SESSIONS: usize = 4;
/// Background probes issued during the coalescing phase.
pub const SCHED_BG_PROBES: usize = 12;
/// Probes per equal-demand session in the fairness phase.
pub const FAIR_PROBES: usize = 12;
/// Equal-demand sessions in the fairness phase.
pub const FAIR_LIGHT_SESSIONS: usize = 3;
/// Probes the hog session issues in the fairness phase (3× demand).
pub const FAIR_HOG_PROBES: usize = 36;

/// Token rate of the simulated source (tokens per second).
const RATE_PER_SEC: f64 = 300.0;
/// Burst capacity of the simulated source.
const BURST: f64 = 2.0;
/// Rows in the contention database.
const ROWS: usize = 400;
/// System k — larger than the table so every response is complete and
/// narrow answers can be derived exactly from the wide covering probe.
const SYSTEM_K: usize = 512;

/// Fresh deterministic contention database: one numeric attribute,
/// rows at integer positions, responses always complete.
fn contention_db() -> Arc<SimulatedWebDb> {
    let schema = qr2_webdb::Schema::builder()
        .numeric("x", 0.0, 1000.0)
        .build();
    let mut tb = TableBuilder::new(schema.clone());
    for i in 0..ROWS {
        tb.push_row(vec![i as f64]).expect("row in domain");
    }
    let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).expect("linear ranking");
    Arc::new(SimulatedWebDb::new(tb.build(), ranking, SYSTEM_K))
}

/// The simulated source's traffic policy for both runs.
fn policy() -> SourcePolicy {
    SourcePolicy::rate_limited(RATE_PER_SEC, BURST)
}

/// The coalescing-phase query of `session` (0 = wide, 1..=3 = narrow
/// thirds strictly inside the wide range; rounds reuse the same shape).
fn contention_query(db: &SimulatedWebDb, session: usize) -> SearchQuery {
    let x = db.schema().expect_id("x");
    let (lo, hi) = match session {
        0 => (0.0, 600.0),
        s => {
            let base = 200.0 * (s as f64 - 1.0);
            (base, base + 150.0)
        }
    };
    SearchQuery::all().and_range(x, RangePred::closed(lo, hi))
}

/// The background crawl query (disjoint from every interactive range).
fn background_query(db: &SimulatedWebDb) -> SearchQuery {
    let x = db.schema().expect_id("x");
    SearchQuery::all().and_range(x, RangePred::closed(650.0, 1000.0))
}

/// A default-config scheduler over `db` paced by [`policy`], with the
/// default (fault-free) resilience layer, labeled `default`.
fn sched_over(db: Arc<SimulatedWebDb>) -> Arc<SourceScheduler> {
    let shaped = Arc::new(TrafficShapedInterface::new(db, policy()));
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

/// Run the full contention scenario (both phases, both stacks).
pub fn run_sched_smoke() -> Report {
    // An untouched copy answers "what should each probe have returned"
    // without polluting either measured ledger.
    let reference = contention_db();

    // ── Phase 1a: coalescing contention, scheduler ON ──────────────
    let db_on = contention_db();
    let sched = sched_over(db_on.clone());
    let start = Instant::now();
    let barrier = Barrier::new(SCHED_SESSIONS);
    std::thread::scope(|scope| {
        let barrier = &barrier;
        for session in 0..SCHED_SESSIONS {
            let sched = Arc::clone(&sched);
            let q = contention_query(&db_on, session);
            let want = reference.search(&q);
            scope.spawn(move || {
                let key = next_session_key();
                for round in 0..SCHED_ROUNDS {
                    barrier.wait();
                    let ctx = SessionCtx::new(key, QueryClass::Interactive, CancelToken::new());
                    let answer = with_session(ctx, || sched.submit(&q)).unwrap_or_else(|err| {
                        panic!("session {session} round {round}: probe failed: {err}")
                    });
                    assert_eq!(
                        answer.resp, want,
                        "session {session} round {round}: wrong answer under contention"
                    );
                }
            });
        }
        let sched_bg = Arc::clone(&sched);
        let q = background_query(&db_on);
        let want = reference.search(&q);
        scope.spawn(move || {
            let key = next_session_key();
            for _ in 0..SCHED_BG_PROBES {
                let ctx = SessionCtx::new(key, QueryClass::Background, CancelToken::new());
                let answer =
                    with_session(ctx, || sched_bg.submit(&q)).expect("background probe answered");
                assert_eq!(answer.resp, want, "background crawl got a wrong answer");
            }
        });
    });
    let on_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let snapshot = sched.stats();
    let paid_on = db_on.ledger().total();

    // ── Phase 1b: identical workload, scheduler OFF ────────────────
    // Traffic shaping only: every probe pays, overlapping sessions get
    // no coalescing, blocking waits absorb the 429s.
    let db_off = contention_db();
    let shaped = Arc::new(TrafficShapedInterface::new(db_off.clone(), policy()));
    let start = Instant::now();
    let barrier = Barrier::new(SCHED_SESSIONS);
    std::thread::scope(|scope| {
        let barrier = &barrier;
        for _session in 0..SCHED_SESSIONS {
            let shaped = Arc::clone(&shaped);
            let q = contention_query(&db_off, _session);
            scope.spawn(move || {
                for _ in 0..SCHED_ROUNDS {
                    barrier.wait();
                    let _ = shaped.search(&q);
                }
            });
        }
        let shaped_bg = Arc::clone(&shaped);
        let q = background_query(&db_off);
        scope.spawn(move || {
            for _ in 0..SCHED_BG_PROBES {
                let _ = shaped_bg.search(&q);
            }
        });
    });
    let off_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let paid_off = db_off.ledger().total();

    // ── Phase 2: fairness under a hog session ──────────────────────
    let db_fair = contention_db();
    let sched_fair = sched_over(db_fair.clone());
    let x = db_fair.schema().expect_id("x");
    // Disjoint per-session bands: no covering relationships, so every
    // probe pays and the only leverage is the dispatch order.
    let band_query = |band: usize, probe: usize| {
        let lo = 250.0 * band as f64 + (probe % 50) as f64;
        SearchQuery::all().and_range(x, RangePred::closed(lo, lo + 40.0))
    };
    let mut light_ms = [0.0_f64; FAIR_LIGHT_SESSIONS];
    let mut hog_ms = 0.0_f64;
    let barrier = Barrier::new(FAIR_LIGHT_SESSIONS + 1);
    std::thread::scope(|scope| {
        let barrier = &barrier;
        let mut handles = Vec::new();
        for band in 0..FAIR_LIGHT_SESSIONS {
            let sched = Arc::clone(&sched_fair);
            handles.push(scope.spawn(move || {
                let key = next_session_key();
                barrier.wait();
                let start = Instant::now();
                for probe in 0..FAIR_PROBES {
                    let ctx = SessionCtx::new(key, QueryClass::Interactive, CancelToken::new());
                    with_session(ctx, || sched.submit(&band_query(band, probe)))
                        .expect("light probe answered");
                }
                start.elapsed().as_secs_f64() * 1e3
            }));
        }
        let sched = Arc::clone(&sched_fair);
        let hog = scope.spawn(move || {
            let key = next_session_key();
            barrier.wait();
            let start = Instant::now();
            for probe in 0..FAIR_HOG_PROBES {
                let ctx = SessionCtx::new(key, QueryClass::Interactive, CancelToken::new());
                with_session(ctx, || {
                    sched.submit(&band_query(FAIR_LIGHT_SESSIONS, probe))
                })
                .expect("hog probe answered");
            }
            start.elapsed().as_secs_f64() * 1e3
        });
        for (band, handle) in handles.into_iter().enumerate() {
            light_ms[band] = handle.join().expect("light session panicked");
        }
        hog_ms = hog.join().expect("hog session panicked");
    });
    let fair_max_light_ms = light_ms.iter().copied().fold(0.0_f64, f64::max);
    let fair_min_light_ms = light_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let fairness_ratio = if fair_min_light_ms > 0.0 {
        fair_max_light_ms / fair_min_light_ms
    } else {
        1.0
    };

    let ratio = round(fairness_ratio, 3);
    let dispatched = snapshot.dispatched;
    let coalesced = snapshot.coalesced_frontier_hits;
    let classes: Vec<Json> = snapshot
        .classes
        .iter()
        .map(|c| {
            Json::obj([
                ("class", c.class.as_str().into()),
                ("dispatched", Json::Num(c.dispatched as f64)),
                ("delay_p50_ms", round(c.delay_p50_ms, 2).into()),
                ("delay_p99_ms", round(c.delay_p99_ms, 2).into()),
            ])
        })
        .collect();
    Report {
        bench: "pr7_sched_smoke".into(),
        workload: format!("uniform_x_{ROWS}rows_rate{RATE_PER_SEC}_contention"),
        deterministic: Json::obj([
            ("rounds", SCHED_ROUNDS.into()),
            ("interactive_sessions", SCHED_SESSIONS.into()),
            ("background_probes", SCHED_BG_PROBES.into()),
            (
                "fairness",
                Json::obj([
                    ("light_sessions", FAIR_LIGHT_SESSIONS.into()),
                    ("probes_per_session", FAIR_PROBES.into()),
                    ("hog_probes", FAIR_HOG_PROBES.into()),
                ]),
            ),
        ]),
        measured: Json::obj([
            ("scheduler_on_paid_queries", Json::Num(paid_on as f64)),
            ("scheduler_off_paid_queries", Json::Num(paid_off as f64)),
            (
                "paid_saved",
                Json::Num(paid_off.saturating_sub(paid_on) as f64),
            ),
            ("coalesced_frontier_hits", Json::Num(coalesced as f64)),
            ("throttle_waits", Json::Num(snapshot.throttle_waits as f64)),
            ("dispatched", Json::Num(dispatched as f64)),
            ("on_wall_ms", round(on_wall_ms, 1).into()),
            ("off_wall_ms", round(off_wall_ms, 1).into()),
            ("classes", classes.into()),
            (
                "fairness",
                Json::obj([
                    ("max_light_ms", round(fair_max_light_ms, 1).into()),
                    ("min_light_ms", round(fair_min_light_ms, 1).into()),
                    ("hog_ms", round(hog_ms, 1).into()),
                    ("round_ratio", ratio.into()),
                ]),
            ),
        ]),
        contracts: vec![
            Contract::new(
                "scheduler_cheaper",
                paid_on < paid_off,
                format!(
                    "scheduler-on spent {paid_on} web-DB queries vs {paid_off} without it; \
                     cross-session coalescing must strictly reduce paid queries"
                ),
            ),
            Contract::new(
                "coalescing_fired",
                coalesced > 0,
                "no waiter was served from a covering probe; frontier coalescing never \
                 fired under contention",
            ),
            Contract::new(
                "dispatched_is_paid",
                dispatched == paid_on,
                format!(
                    "scheduler dispatched {dispatched} probes but the ledger saw {paid_on}; \
                     only paid dispatches may reach the ledger"
                ),
            ),
            Contract::new(
                "fairness_bounded",
                (1.0..=5.0).contains(&ratio),
                format!(
                    "equal-demand sessions completed at a {ratio}x max/min ratio; \
                     round-robin must keep it bounded (<= 5)"
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
    fn scheduler_strictly_reduces_paid_queries_and_stays_fair() {
        let report = run_sched_smoke();
        // The contracts: coalescing makes the scheduler-on run strictly
        // cheaper than the shaped-only replay, coalescing fired, every
        // paid dispatch reached the ledger and nothing else did, and
        // equal-demand sessions finished within a bounded ratio.
        for c in &report.contracts {
            assert!(c.passed, "{}: {}", c.name, c.message);
        }
        let m = &report.measured;
        // The shaped-only replay pays for every probe, deterministically.
        assert_eq!(
            num(m, "scheduler_off_paid_queries"),
            (SCHED_SESSIONS * SCHED_ROUNDS + SCHED_BG_PROBES) as f64
        );
        // The hog asked for 3× the work; it must not finish faster than
        // the slowest equal-demand session.
        let fairness = m.get("fairness").expect("fairness");
        assert!(num(fairness, "hog_ms") >= num(fairness, "min_light_ms"));
        // Both classes dispatched and recorded delay percentiles.
        let classes = report.records("classes");
        assert_eq!(classes.len(), 2);
        for c in &classes {
            assert!(num(c, "dispatched") > 0.0, "{c} never dispatched");
            assert!(num(c, "delay_p99_ms") >= num(c, "delay_p50_ms"), "{c}");
        }
    }
}
