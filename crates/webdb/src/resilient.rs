//! The resilience layer: retries with capped jittered backoff, per-probe
//! deadlines, and a per-source circuit breaker over any source.
//!
//! [`ResilientInterface`] is a [`TopKInterface`] decorator whose
//! [`probe`](TopKInterface::probe) sits between the scheduler and the
//! (possibly fault-injected) traffic-shaped source:
//! `cache → scheduler → resilient → fault injection → traffic shaping → raw db`.
//! Blocking retry is this layer's job alone: the layers above see one
//! `probe` that either answers or returns the terminal [`SearchError`].
//!
//! Division of labor with the scheduler:
//!
//! * [`SearchError::Throttled`] is **flow control**, not a fault. It
//!   passes straight through — no retry, no breaker effect — because the
//!   scheduler owns pacing and coalescing, and retrying a 429 here would
//!   fight its fair-share loop. [`SearchError::Cancelled`] passes through
//!   the same way.
//! * Genuine faults (`Timeout`, `Unavailable`, `Malformed`) are retried
//!   with capped exponential backoff + deterministic jitter, honoring the
//!   source's `retry_after` hint, under a per-probe deadline. Every retry
//!   that reaches the source is charged to the [`QueryLedger`] by the
//!   layer below — the accounting stays truthful.
//! * Probes that stay faulty trip the **circuit breaker**: after
//!   `failure_threshold` consecutive terminal failures the breaker opens
//!   and rejects probes instantly (so queues park instead of burning
//!   dispatch slots), then half-opens after a cooldown and admits exactly
//!   one trial probe — success recloses it, failure reopens it.
//!
//! [`QueryLedger`]: crate::QueryLedger

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::fault::{splitmix64, unit_f64, SearchError};
use crate::interface::{page_or_empty, Answer, TopKInterface, TopKResponse};
use crate::metrics::QueryLedger;
use crate::predicate::SearchQuery;
use crate::schema::Schema;
use crate::traffic::TrafficShapedInterface;

/// How hard the resilience layer tries before declaring a probe failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per probe, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
}

/// Wall-clock budget for one probe across all its retries.
const PROBE_DEADLINE: Duration = Duration::from_secs(2);

/// Seed for the deterministic backoff jitter.
const JITTER_SEED: u64 = 0x9E37_79B9;

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The resilience-off policy: one attempt, no retries. Used as the
    /// baseline arm of the `fault_smoke` bench.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive terminal probe failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before half-opening for a trial
    /// probe.
    pub open_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(250),
        }
    }
}

impl BreakerConfig {
    /// A breaker that never opens (resilience-off baseline).
    pub fn disabled() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: u32::MAX,
            ..BreakerConfig::default()
        }
    }
}

/// What the breaker says about admitting one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Proceed,
    /// Breaker half-open: this caller carries the single trial probe.
    Probe,
    /// Breaker open (or the trial slot is taken): fail fast.
    Rejected {
        /// How long until the breaker will half-open.
        retry_after: Duration,
    },
}

#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed,
    Open { since: Instant },
    HalfOpen { probing: bool },
}

/// The Closed → Open → HalfOpen state machine.
struct Breaker {
    cfg: BreakerConfig,
    state: Mutex<BreakerState>,
    consecutive: AtomicU32,
    opens: AtomicU64,
}

impl Breaker {
    fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            state: Mutex::new(BreakerState::Closed),
            consecutive: AtomicU32::new(0),
            opens: AtomicU64::new(0),
        }
    }

    fn try_acquire(&self) -> Admission {
        let mut state = self.state.lock();
        match *state {
            BreakerState::Closed => Admission::Proceed,
            BreakerState::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed >= self.cfg.open_cooldown {
                    *state = BreakerState::HalfOpen { probing: true };
                    Admission::Probe
                } else {
                    Admission::Rejected {
                        retry_after: self.cfg.open_cooldown - elapsed,
                    }
                }
            }
            BreakerState::HalfOpen { probing: false } => {
                *state = BreakerState::HalfOpen { probing: true };
                Admission::Probe
            }
            BreakerState::HalfOpen { probing: true } => Admission::Rejected {
                retry_after: self.cfg.open_cooldown,
            },
        }
    }

    fn record_success(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
        let mut state = self.state.lock();
        if matches!(*state, BreakerState::HalfOpen { .. }) {
            *state = BreakerState::Closed;
        }
    }

    fn record_failure(&self) {
        let consecutive = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        let mut state = self.state.lock();
        let open = match *state {
            BreakerState::HalfOpen { .. } => true,
            BreakerState::Closed => consecutive >= self.cfg.failure_threshold,
            BreakerState::Open { .. } => false,
        };
        if open {
            *state = BreakerState::Open {
                since: Instant::now(),
            };
            self.opens.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A probe admission ended without a verdict (throttled): release the
    /// trial slot so another caller can carry it.
    fn abort_probe(&self) {
        let mut state = self.state.lock();
        if let BreakerState::HalfOpen { probing: true } = *state {
            *state = BreakerState::HalfOpen { probing: false };
        }
    }

    fn state_label(&self) -> &'static str {
        match *self.state.lock() {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen { .. } => "half_open",
            BreakerState::Open { .. } => "open",
        }
    }

    fn state_code(&self) -> u8 {
        match *self.state.lock() {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen { .. } => 1,
            BreakerState::Open { .. } => 2,
        }
    }

    fn retry_after(&self) -> Option<Duration> {
        match *self.state.lock() {
            BreakerState::Open { since } => Some(
                self.cfg
                    .open_cooldown
                    .saturating_sub(since.elapsed())
                    .max(Duration::from_millis(1)),
            ),
            _ => None,
        }
    }
}

/// A point-in-time health summary of one resilient source, served by
/// `GET /v1/sources/:source/health`.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceHealth {
    /// Breaker state: `"closed"`, `"half_open"`, or `"open"`.
    pub breaker: &'static str,
    /// Numeric breaker state for gauges: 0 closed, 1 half-open, 2 open.
    pub breaker_code: u8,
    /// Consecutive terminal probe failures (resets on success).
    pub consecutive_failures: u32,
    /// Times the breaker has opened.
    pub breaker_opens: u64,
    /// Terminal timeouts observed.
    pub timeouts: u64,
    /// Terminal `Unavailable` failures observed.
    pub unavailable: u64,
    /// Terminal malformed responses observed.
    pub malformed: u64,
    /// Retries performed (attempts beyond each probe's first).
    pub retries: u64,
    /// Probes that ultimately failed after exhausting retries.
    pub failed_probes: u64,
    /// The most recent error, human-readable.
    pub last_error: Option<String>,
    /// When the breaker is open: how long until it half-opens.
    pub retry_after: Option<Duration>,
}

/// Capped exponential backoff with deterministic jitter, honoring the
/// source's `retry_after` hint as a floor. `attempt` is 1-based (the
/// first retry is attempt 1); `salt` decorrelates concurrent waiters.
pub fn jittered_backoff(
    attempt: u32,
    base: Duration,
    cap: Duration,
    hint: Option<Duration>,
    salt: u64,
) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let raw = exp.min(cap);
    // Jitter in [0.5, 1.0): desynchronizes lockstep retry storms without
    // ever exceeding the cap.
    let factor = 0.5 + 0.5 * unit_f64(splitmix64(salt ^ u64::from(attempt)));
    let jittered = raw.mul_f64(factor);
    match hint {
        Some(hint) => jittered.max(hint),
        None => jittered,
    }
}

/// The retry + circuit-breaker decorator over a source.
pub struct ResilientInterface {
    shaped: Arc<TrafficShapedInterface>,
    inner: Arc<dyn TopKInterface>,
    retry: RetryPolicy,
    breaker: Breaker,
    retries: AtomicU64,
    failed_probes: AtomicU64,
    timeouts: AtomicU64,
    unavailable: AtomicU64,
    malformed: AtomicU64,
    backoff_salt: AtomicU64,
    last_error: Mutex<Option<String>>,
    obs_err_timeout: Arc<qr2_obs::Counter>,
    obs_err_unavailable: Arc<qr2_obs::Counter>,
    obs_err_malformed: Arc<qr2_obs::Counter>,
    obs_retries: Arc<qr2_obs::Counter>,
    obs_opens: Arc<qr2_obs::Counter>,
    obs_backoff_us: Arc<qr2_obs::Histogram>,
}

impl ResilientInterface {
    /// Wrap `inner` (typically a [`FaultInjectingInterface`] over
    /// `shaped`, or `shaped` itself) with the given retry policy and
    /// breaker, metrics labeled by `source`. `shaped` must be the
    /// traffic-shaping layer underneath `inner`: the scheduler
    /// reads pacing policy and traffic stats through it.
    ///
    /// [`FaultInjectingInterface`]: crate::FaultInjectingInterface
    pub fn new(
        shaped: Arc<TrafficShapedInterface>,
        inner: Arc<dyn TopKInterface>,
        retry: RetryPolicy,
        breaker: BreakerConfig,
        source: &str,
    ) -> ResilientInterface {
        let err = |kind: &str| {
            qr2_obs::counter(
                "qr2_webdb_errors_total",
                &[("source", source), ("kind", kind)],
            )
        };
        ResilientInterface {
            shaped,
            inner,
            retry,
            breaker: Breaker::new(breaker),
            retries: AtomicU64::new(0),
            failed_probes: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            backoff_salt: AtomicU64::new(JITTER_SEED),
            last_error: Mutex::new(None),
            obs_err_timeout: err("timeout"),
            obs_err_unavailable: err("unavailable"),
            obs_err_malformed: err("malformed"),
            obs_retries: qr2_obs::counter("qr2_webdb_retries_total", &[("source", source)]),
            obs_opens: qr2_obs::counter("qr2_breaker_opens_total", &[("source", source)]),
            obs_backoff_us: qr2_obs::histogram("qr2_webdb_retry_backoff_us", &[("source", source)]),
        }
    }

    /// The traffic-shaping layer underneath (pacing policy, traffic
    /// stats, wait estimates).
    pub fn shaped(&self) -> &Arc<TrafficShapedInterface> {
        &self.shaped
    }

    /// Breaker admission check without executing anything — the
    /// scheduler uses this to park queues while the breaker is open
    /// instead of burning dispatch slots on probes that would fail fast.
    pub fn breaker_admission(&self) -> Admission {
        let admission = self.breaker.try_acquire();
        // A pure check must not consume the half-open trial slot.
        if matches!(admission, Admission::Probe) {
            self.breaker.abort_probe();
        }
        admission
    }

    /// Point-in-time health summary.
    pub fn health(&self) -> SourceHealth {
        SourceHealth {
            breaker: self.breaker.state_label(),
            breaker_code: self.breaker.state_code(),
            consecutive_failures: self.breaker.consecutive.load(Ordering::Relaxed),
            breaker_opens: self.breaker.opens.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failed_probes: self.failed_probes.load(Ordering::Relaxed),
            last_error: self.last_error.lock().clone(),
            retry_after: self.breaker.retry_after(),
        }
    }

    fn note_error(&self, err: &SearchError) {
        match err {
            SearchError::Timeout { .. } => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                self.obs_err_timeout.inc();
            }
            SearchError::Unavailable { .. } => {
                self.unavailable.fetch_add(1, Ordering::Relaxed);
                self.obs_err_unavailable.inc();
            }
            SearchError::Malformed { .. } => {
                self.malformed.fetch_add(1, Ordering::Relaxed);
                self.obs_err_malformed.inc();
            }
            SearchError::Throttled(_) | SearchError::Cancelled => {}
        }
        *self.last_error.lock() = Some(err.to_string());
    }
}

impl TopKInterface for ResilientInterface {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn system_k(&self) -> usize {
        self.inner.system_k()
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        page_or_empty(self.probe(q))
    }

    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }

    /// Execute one probe with retries and breaker protection. `Err` is
    /// either the flow-control `Throttled` (pass-through) or the terminal
    /// fault after retries were exhausted / the breaker rejected.
    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        qr2_obs::span("resilient.search", || {
            let probing = match self.breaker.try_acquire() {
                Admission::Proceed => false,
                Admission::Probe => true,
                Admission::Rejected { retry_after } => {
                    return Err(SearchError::Unavailable { retry_after });
                }
            };
            let started = Instant::now();
            let mut attempts = 0u32;
            loop {
                match self.inner.probe(q) {
                    Ok(out) => {
                        self.breaker.record_success();
                        if attempts > 0 {
                            qr2_obs::annotate_add("retries", f64::from(attempts));
                        }
                        return Ok(out);
                    }
                    Err(err @ (SearchError::Throttled(_) | SearchError::Cancelled)) => {
                        // Flow control or a cancelled session, not a
                        // fault: hand it back without a breaker verdict.
                        if probing {
                            self.breaker.abort_probe();
                        }
                        return Err(err);
                    }
                    Err(err) => {
                        self.note_error(&err);
                        attempts += 1;
                        let out_of_budget = attempts >= self.retry.max_attempts
                            || started.elapsed() >= PROBE_DEADLINE;
                        // A half-open trial probe is single-shot: one
                        // failure reopens the breaker immediately.
                        if probing || out_of_budget {
                            let opens_before = self.breaker.opens.load(Ordering::Relaxed);
                            self.breaker.record_failure();
                            if self.breaker.opens.load(Ordering::Relaxed) > opens_before {
                                self.obs_opens.inc();
                            }
                            self.failed_probes.fetch_add(1, Ordering::Relaxed);
                            return Err(err);
                        }
                        let salt = self.backoff_salt.fetch_add(1, Ordering::Relaxed);
                        let backoff = jittered_backoff(
                            attempts,
                            self.retry.base_backoff,
                            self.retry.max_backoff,
                            err.retry_after(),
                            salt,
                        );
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        self.obs_retries.inc();
                        self.obs_backoff_us.record(backoff);
                        std::thread::sleep(backoff);
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjectingInterface, FaultScript};
    use crate::ranking::SystemRanking;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::traffic::SourcePolicy;

    fn shaped() -> Arc<TrafficShapedInterface> {
        let schema = Schema::builder().numeric("price", 0.0, 100.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..20 {
            tb.push_row(vec![(i as f64) * 5.0]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("price", 1.0)]).unwrap();
        let db = Arc::new(crate::SimulatedWebDb::new(tb.build(), ranking, 5));
        Arc::new(TrafficShapedInterface::new(db, SourcePolicy::unlimited()))
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
        }
    }

    fn resilient_over(script: FaultScript, breaker: BreakerConfig) -> ResilientInterface {
        let shaped = shaped();
        let faulty = Arc::new(FaultInjectingInterface::new(shaped.clone(), script));
        ResilientInterface::new(shaped, faulty, fast_retry(), breaker, "test")
    }

    #[test]
    fn retry_recovers_from_a_transient_fault() {
        // Attempt 0 is inside the outage; the first retry succeeds.
        let r = resilient_over(
            FaultScript::healthy().with_outage(0, 1),
            BreakerConfig::default(),
        );
        let answer = r.probe(&SearchQuery::all()).expect("retry recovers");
        assert!(!answer.resp.tuples.is_empty());
        let h = r.health();
        assert_eq!(h.retries, 1);
        assert_eq!(h.unavailable, 1);
        assert_eq!(h.breaker, "closed");
        assert_eq!(h.consecutive_failures, 0, "success resets the streak");
    }

    #[test]
    fn every_paid_retry_hits_the_ledger() {
        // Every attempt times out: paid, discarded, retried to exhaustion.
        let shaped = shaped();
        let faulty = Arc::new(FaultInjectingInterface::new(
            shaped.clone(),
            FaultScript {
                timeout_every: Some(1),
                ..FaultScript::healthy()
            },
        ));
        let r = ResilientInterface::new(
            shaped.clone(),
            faulty,
            fast_retry(),
            BreakerConfig::default(),
            "test",
        );
        let err = r
            .probe(&SearchQuery::all())
            .expect_err("all attempts time out");
        assert_eq!(err.kind(), "timeout");
        assert_eq!(
            shaped.ledger().total(),
            3,
            "all {} attempts were charged",
            fast_retry().max_attempts
        );
        let h = r.health();
        assert_eq!(h.retries, 2);
        assert_eq!(h.failed_probes, 1);
        assert_eq!(h.timeouts, 3);
    }

    #[test]
    fn breaker_opens_at_the_failure_threshold() {
        let breaker = BreakerConfig {
            failure_threshold: 2,
            open_cooldown: Duration::from_secs(60),
        };
        let r = resilient_over(FaultScript::healthy().with_outage(0, u64::MAX), breaker);
        let q = SearchQuery::all();
        assert!(r.probe(&q).is_err()); // failed probe #1
        assert_eq!(r.health().breaker, "closed");
        assert!(r.probe(&q).is_err()); // failed probe #2 → open
        let h = r.health();
        assert_eq!(h.breaker, "open");
        assert_eq!(h.breaker_code, 2);
        assert_eq!(h.breaker_opens, 1);
        assert_eq!(h.consecutive_failures, 2, "one per terminal probe failure");
        assert!(h.retry_after.is_some());
        // While open, probes are rejected instantly without reaching the
        // fault layer.
        let before = h.unavailable;
        let err = r.probe(&q).expect_err("breaker open");
        assert_eq!(err.kind(), "unavailable");
        assert!(err.retry_after().is_some());
        assert_eq!(r.health().unavailable, before, "rejected before execution");
    }

    #[test]
    fn half_open_admits_one_probe_then_recloses() {
        let breaker = BreakerConfig {
            failure_threshold: 1,
            open_cooldown: Duration::from_millis(5),
        };
        // Outage covers the initial failed probe (attempts 0..3), then the
        // source recovers.
        let r = resilient_over(FaultScript::healthy().with_outage(0, 3), breaker);
        let q = SearchQuery::all();
        assert!(r.probe(&q).is_err());
        assert_eq!(r.health().breaker, "open");
        std::thread::sleep(Duration::from_millis(10));
        // Cooldown elapsed: the next call is the half-open trial probe,
        // the source is healthy again, the breaker recloses.
        assert!(r.probe(&q).is_ok());
        let h = r.health();
        assert_eq!(h.breaker, "closed");
        assert_eq!(h.consecutive_failures, 0);
        assert_eq!(h.breaker_opens, 1);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let breaker = BreakerConfig {
            failure_threshold: 1,
            open_cooldown: Duration::from_millis(5),
        };
        let r = resilient_over(FaultScript::healthy().with_outage(0, u64::MAX), breaker);
        let q = SearchQuery::all();
        assert!(r.probe(&q).is_err());
        assert_eq!(r.health().breaker, "open");
        std::thread::sleep(Duration::from_millis(10));
        assert!(r.probe(&q).is_err(), "trial probe fails");
        let h = r.health();
        assert_eq!(h.breaker, "open", "failed probe reopens immediately");
        assert_eq!(h.breaker_opens, 2);
    }

    #[test]
    fn breaker_admission_check_does_not_consume_the_trial_slot() {
        let breaker = BreakerConfig {
            failure_threshold: 1,
            open_cooldown: Duration::from_millis(1),
        };
        let r = resilient_over(FaultScript::healthy().with_outage(0, 3), breaker);
        assert!(matches!(r.breaker_admission(), Admission::Proceed));
        assert!(r.probe(&SearchQuery::all()).is_err());
        assert!(matches!(r.breaker_admission(), Admission::Rejected { .. }));
        std::thread::sleep(Duration::from_millis(5));
        // The check reports Probe but releases the slot, so the real call
        // can still carry the trial.
        assert!(matches!(r.breaker_admission(), Admission::Probe));
        assert!(r.probe(&SearchQuery::all()).is_ok());
        assert_eq!(r.health().breaker, "closed");
    }

    #[test]
    fn throttles_bypass_retries_and_breaker() {
        let schema = Schema::builder().numeric("price", 0.0, 100.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        tb.push_row(vec![1.0]).unwrap();
        let ranking = SystemRanking::linear(&schema, &[("price", 1.0)]).unwrap();
        let db = Arc::new(crate::SimulatedWebDb::new(tb.build(), ranking, 5));
        let shaped = Arc::new(TrafficShapedInterface::new(
            db,
            SourcePolicy::rate_limited(0.001, 1.0),
        ));
        let r = ResilientInterface::new(
            shaped.clone(),
            shaped,
            fast_retry(),
            BreakerConfig {
                failure_threshold: 1,
                open_cooldown: Duration::from_secs(60),
            },
            "test",
        );
        let q = SearchQuery::all();
        assert!(r.probe(&q).is_ok());
        let err = r.probe(&q).expect_err("bucket empty");
        assert!(err.is_throttled());
        let h = r.health();
        assert_eq!(h.breaker, "closed", "a 429 is not a fault");
        assert_eq!(h.retries, 0);
        assert_eq!(h.consecutive_failures, 0);
    }

    #[test]
    fn wrap_over_the_shaped_source_is_transparent() {
        let shaped = shaped();
        let r = ResilientInterface::new(
            shaped.clone(),
            shaped.clone(),
            RetryPolicy::default(),
            BreakerConfig::default(),
            "test",
        );
        let q = SearchQuery::all();
        let answer = r.probe(&q).expect("healthy");
        assert_eq!(answer, shaped.probe(&q).unwrap());
        assert_eq!(r.health().breaker, "closed");
    }

    #[test]
    fn jittered_backoff_honors_hint_and_cap() {
        let base = Duration::from_millis(2);
        let cap = Duration::from_millis(50);
        for attempt in 1..12u32 {
            for salt in 0..8u64 {
                let b = jittered_backoff(attempt, base, cap, None, salt);
                assert!(b <= cap, "attempt {attempt} salt {salt}: {b:?} > cap");
                assert!(b >= base / 2, "jitter floor is half the step");
            }
        }
        let hint = Duration::from_millis(200);
        let b = jittered_backoff(1, base, cap, Some(hint), 3);
        assert_eq!(b, hint, "retry_after hint floors the backoff");
        // Different salts give different waits (no lockstep storms).
        let waits: std::collections::HashSet<Duration> = (0..16)
            .map(|salt| jittered_backoff(4, base, cap, None, salt))
            .collect();
        assert!(waits.len() > 8, "jitter desynchronizes waiters");
    }
}
