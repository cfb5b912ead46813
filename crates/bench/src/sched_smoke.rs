//! CI smoke benchmark for the rate-limit-aware scheduler: a contention
//! scenario through one `SourceScheduler`, emitted as machine-readable
//! JSON (`BENCH_pr7.json`).
//!
//! Two phases, each on a **fresh** database so ledgers are comparable:
//!
//! 1. **Coalescing contention.** Four interactive sessions probe a
//!    rate-limited source in lock-stepped rounds — one wide range that
//!    covers the other three sessions' narrow ranges — while a
//!    background crawl session hammers a disjoint range. The same
//!    workload then replays **without** the scheduler (traffic shaping
//!    only, every probe pays). CI guards the contract: scheduler-on
//!    must spend *strictly fewer* web-database queries than
//!    scheduler-off, and `coalesced_frontier_hits` must be positive.
//!    Every answer — paid or derived from another session's covering
//!    probe — is checked byte-for-byte against an untouched reference
//!    copy of the database.
//!
//! 2. **Fairness.** Three equal-demand interactive sessions race a hog
//!    session with 3× their demand through the paced bucket. Deficit
//!    round-robin must serve the equal-demand sessions evenly: the
//!    max/min ratio of their completion times is the fairness metric
//!    (CI guards it ≤ 5.0; a FIFO queue that lets the first enqueuer
//!    drain its backlog would not stay bounded).
//!
//! Paid-query counts depend on thread interleavings (a narrow probe can
//! win a burst token before the wide one arrives), so CI asserts
//! *inequalities*, never exact values — unlike the seed-deterministic
//! PR3/PR4/PR5 reports there is no drift check against the committed
//! file.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use qr2_sched::context::{next_session_key, with_session};
use qr2_sched::{QueryClass, SchedConfig, SessionCtx, SourceScheduler};
use qr2_webdb::{
    RangePred, SearchQuery, SimulatedWebDb, SourcePolicy, SystemRanking, TableBuilder,
    TopKInterface, TrafficShapedInterface,
};

use crate::report::Table;

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

/// Per-class scheduler counters captured after the coalescing phase.
#[derive(Debug, Clone)]
pub struct SchedClassRecord {
    /// `"interactive"` or `"background"`.
    pub class: &'static str,
    /// Paid probes dispatched for this class.
    pub dispatched: u64,
    /// Median queue delay of dispatches, milliseconds.
    pub delay_p50_ms: f64,
    /// 99th-percentile queue delay, milliseconds.
    pub delay_p99_ms: f64,
}

/// The full PR7 scheduler smoke measurement.
#[derive(Debug, Clone)]
pub struct SchedSmokeReport {
    /// Rounds in the coalescing phase.
    pub rounds: usize,
    /// Interactive sessions in the coalescing phase.
    pub interactive_sessions: usize,
    /// Background probes in the coalescing phase.
    pub background_probes: usize,
    /// Web-DB queries the scheduler-on run spent (ledger total).
    pub paid_on: u64,
    /// Web-DB queries the scheduler-off replay spent — same workload,
    /// traffic shaping only, every probe pays.
    pub paid_off: u64,
    /// Waiters served from another session's covering probe for free.
    pub coalesced_frontier_hits: u64,
    /// Simulated 429s the scheduler absorbed by pacing.
    pub throttle_waits: u64,
    /// Paid probes the scheduler dispatched (all classes).
    pub dispatched: u64,
    /// Wall time of the scheduler-on coalescing run, milliseconds.
    pub on_wall_ms: f64,
    /// Wall time of the scheduler-off replay, milliseconds.
    pub off_wall_ms: f64,
    /// Per-class queue state after the coalescing run.
    pub classes: Vec<SchedClassRecord>,
    /// Slowest equal-demand session's completion time, milliseconds.
    pub fair_max_light_ms: f64,
    /// Fastest equal-demand session's completion time, milliseconds.
    pub fair_min_light_ms: f64,
    /// Fairness metric: `fair_max_light_ms / fair_min_light_ms`.
    pub fairness_ratio: f64,
    /// The hog session's completion time, milliseconds (expected ~3×
    /// the light sessions' — it asked for 3× the work).
    pub fair_hog_ms: f64,
}

impl SchedSmokeReport {
    /// Queries the scheduler saved versus the shaped-only replay.
    pub fn paid_saved(&self) -> u64 {
        self.paid_off.saturating_sub(self.paid_on)
    }
}

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

/// Run the full contention scenario (both phases, both stacks).
pub fn run_sched_smoke() -> SchedSmokeReport {
    // An untouched copy answers "what should each probe have returned"
    // without polluting either measured ledger.
    let reference = contention_db();

    // ── Phase 1a: coalescing contention, scheduler ON ──────────────
    let db_on = contention_db();
    let sched = Arc::new(SourceScheduler::new(
        Arc::new(TrafficShapedInterface::new(db_on.clone(), policy())),
        SchedConfig::default(),
    ));
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
                    let ctx = SessionCtx::new(key, QueryClass::Interactive);
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
                let ctx = SessionCtx::new(key, QueryClass::Background);
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
    let sched_fair = Arc::new(SourceScheduler::new(
        Arc::new(TrafficShapedInterface::new(db_fair.clone(), policy())),
        SchedConfig::default(),
    ));
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
                    let ctx = SessionCtx::new(key, QueryClass::Interactive);
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
                let ctx = SessionCtx::new(key, QueryClass::Interactive);
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

    SchedSmokeReport {
        rounds: SCHED_ROUNDS,
        interactive_sessions: SCHED_SESSIONS,
        background_probes: SCHED_BG_PROBES,
        paid_on,
        paid_off,
        coalesced_frontier_hits: snapshot.coalesced_frontier_hits,
        throttle_waits: snapshot.throttle_waits,
        dispatched: snapshot.dispatched,
        on_wall_ms,
        off_wall_ms,
        classes: snapshot
            .classes
            .iter()
            .map(|c| SchedClassRecord {
                class: c.class.as_str(),
                dispatched: c.dispatched,
                delay_p50_ms: c.delay_p50_ms,
                delay_p99_ms: c.delay_p99_ms,
            })
            .collect(),
        fair_max_light_ms,
        fair_min_light_ms,
        fairness_ratio,
        fair_hog_ms: hog_ms,
    }
}

/// Render the report as a text table.
pub fn sched_smoke_table(report: &SchedSmokeReport) -> Table {
    let mut table = Table::new(
        format!(
            "PR7 sched smoke — {} sessions × {} rounds on a {}/s source",
            report.interactive_sessions, report.rounds, RATE_PER_SEC
        ),
        &["metric", "scheduler on", "scheduler off"],
    );
    table.row(&[
        "paid web-DB queries".to_string(),
        report.paid_on.to_string(),
        report.paid_off.to_string(),
    ]);
    table.row(&[
        "wall (ms)".to_string(),
        format!("{:.1}", report.on_wall_ms),
        format!("{:.1}", report.off_wall_ms),
    ]);
    table.row(&[
        "coalesced frontier hits".to_string(),
        report.coalesced_frontier_hits.to_string(),
        "-".to_string(),
    ]);
    table.row(&[
        "throttle waits".to_string(),
        report.throttle_waits.to_string(),
        "-".to_string(),
    ]);
    for c in &report.classes {
        table.row(&[
            format!("{} p50/p99 delay (ms)", c.class),
            format!("{:.2}/{:.2}", c.delay_p50_ms, c.delay_p99_ms),
            "-".to_string(),
        ]);
    }
    table.row(&[
        "fairness max/min ratio".to_string(),
        format!("{:.2}", report.fairness_ratio),
        "-".to_string(),
    ]);
    table
}

/// Serialize the report as the `BENCH_pr7.json` document.
pub fn sched_smoke_json(report: &SchedSmokeReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"pr7_sched_smoke\",\n");
    out.push_str(&format!(
        "  \"workload\": \"uniform_x_{ROWS}rows_rate{RATE_PER_SEC}_contention\",\n"
    ));
    out.push_str(&format!("  \"rounds\": {},\n", report.rounds));
    out.push_str(&format!(
        "  \"interactive_sessions\": {},\n",
        report.interactive_sessions
    ));
    out.push_str(&format!(
        "  \"background_probes\": {},\n",
        report.background_probes
    ));
    out.push_str(&format!(
        "  \"scheduler_on_paid_queries\": {},\n",
        report.paid_on
    ));
    out.push_str(&format!(
        "  \"scheduler_off_paid_queries\": {},\n",
        report.paid_off
    ));
    out.push_str(&format!("  \"paid_saved\": {},\n", report.paid_saved()));
    out.push_str(&format!(
        "  \"coalesced_frontier_hits\": {},\n",
        report.coalesced_frontier_hits
    ));
    out.push_str(&format!(
        "  \"throttle_waits\": {},\n",
        report.throttle_waits
    ));
    out.push_str(&format!("  \"dispatched\": {},\n", report.dispatched));
    out.push_str(&format!("  \"on_wall_ms\": {:.1},\n", report.on_wall_ms));
    out.push_str(&format!("  \"off_wall_ms\": {:.1},\n", report.off_wall_ms));
    out.push_str("  \"classes\": [\n");
    for (i, c) in report.classes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"class\": \"{}\", \"dispatched\": {}, \"delay_p50_ms\": {:.2}, \
             \"delay_p99_ms\": {:.2}}}{}\n",
            c.class,
            c.dispatched,
            c.delay_p50_ms,
            c.delay_p99_ms,
            if i + 1 < report.classes.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"fairness\": {\n");
    out.push_str(&format!(
        "    \"light_sessions\": {FAIR_LIGHT_SESSIONS},\n    \"probes_per_session\": {FAIR_PROBES},\n    \"hog_probes\": {FAIR_HOG_PROBES},\n"
    ));
    out.push_str(&format!(
        "    \"max_light_ms\": {:.1},\n    \"min_light_ms\": {:.1},\n    \"hog_ms\": {:.1},\n",
        report.fair_max_light_ms, report.fair_min_light_ms, report.fair_hog_ms
    ));
    out.push_str(&format!(
        "    \"round_ratio\": {:.3}\n  }}\n",
        report.fairness_ratio
    ));
    out.push_str("}\n");
    out
}

/// Write `BENCH_pr7.json` at the workspace root; returns the path.
pub fn write_sched_smoke_report(report: &SchedSmokeReport) -> PathBuf {
    let path = crate::report::workspace_root().join("BENCH_pr7.json");
    std::fs::write(&path, sched_smoke_json(report)).expect("write sched smoke report");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_strictly_reduces_paid_queries_and_stays_fair() {
        let report = run_sched_smoke();
        // The whole point: coalescing must make the scheduler-on run
        // strictly cheaper than the shaped-only replay of the same
        // workload.
        assert!(
            report.paid_on < report.paid_off,
            "scheduler-on spent {} paid queries vs {} without it",
            report.paid_on,
            report.paid_off
        );
        // The shaped-only replay pays for every probe, deterministically.
        assert_eq!(
            report.paid_off,
            (SCHED_SESSIONS * SCHED_ROUNDS + SCHED_BG_PROBES) as u64
        );
        assert!(
            report.coalesced_frontier_hits > 0,
            "no cross-session coalescing happened"
        );
        // Every paid dispatch reached the ledger and nothing else did.
        assert_eq!(report.dispatched, report.paid_on);
        assert!(
            report.fairness_ratio >= 1.0 && report.fairness_ratio <= 5.0,
            "equal-demand sessions diverged: ratio {:.2}",
            report.fairness_ratio
        );
        // The hog asked for 3× the work; it must not finish faster than
        // the slowest equal-demand session.
        assert!(report.fair_hog_ms >= report.fair_min_light_ms);
        // Both classes dispatched and recorded delay percentiles.
        assert_eq!(report.classes.len(), 2);
        for c in &report.classes {
            assert!(c.dispatched > 0, "{} never dispatched", c.class);
            assert!(c.delay_p99_ms >= c.delay_p50_ms, "{}", c.class);
        }
    }

    #[test]
    fn sched_smoke_json_is_well_formed() {
        let report = SchedSmokeReport {
            rounds: 12,
            interactive_sessions: 4,
            background_probes: 12,
            paid_on: 25,
            paid_off: 60,
            coalesced_frontier_hits: 33,
            throttle_waits: 40,
            dispatched: 25,
            on_wall_ms: 90.0,
            off_wall_ms: 200.0,
            classes: vec![
                SchedClassRecord {
                    class: "interactive",
                    dispatched: 13,
                    delay_p50_ms: 3.0,
                    delay_p99_ms: 12.0,
                },
                SchedClassRecord {
                    class: "background",
                    dispatched: 12,
                    delay_p50_ms: 9.0,
                    delay_p99_ms: 30.0,
                },
            ],
            fair_max_light_ms: 150.0,
            fair_min_light_ms: 140.0,
            fairness_ratio: 150.0 / 140.0,
            fair_hog_ms: 420.0,
        };
        let json = sched_smoke_json(&report);
        assert!(json.contains("\"scheduler_on_paid_queries\": 25"));
        assert!(json.contains("\"scheduler_off_paid_queries\": 60"));
        assert!(json.contains("\"paid_saved\": 35"));
        assert!(json.contains("\"round_ratio\": 1.071"));
        assert_eq!(report.paid_saved(), 35);
        let table = sched_smoke_table(&report);
        assert!(!table.is_empty());
    }
}
