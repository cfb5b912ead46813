//! The failure model of the web-DB substrate, and deterministic fault
//! injection for rehearsing it.
//!
//! QR2 is a third party: the web databases it probes are slow, metered,
//! and can disappear mid-session. [`SearchError`] is the one failure type
//! of [`TopKInterface::probe`]: the token-bucket 429 ([`Throttled`]), the
//! faults a real remote source exhibits (timeouts, hard outages,
//! truncated bodies), and a probe withdrawn because its session was
//! cancelled. [`FaultInjectingInterface`] is an ordinary
//! [`TopKInterface`] decorator that *injects* faults from a seeded,
//! replayable [`FaultScript`], so every chaos scenario in the test suite
//! and the `fault_smoke` bench is deterministic.
//!
//! Determinism is the point: fault decisions are keyed on a monotone
//! **attempt index** (not wall time) hashed with the script seed, so the
//! same script over the same probe sequence injects the same faults on
//! every run, on any machine.
//!
//! Cost accounting is truthful per failure kind:
//!
//! * [`SearchError::Timeout`] and [`SearchError::Malformed`] execute the
//!   inner query first and then discard the answer — the probe was *paid*
//!   (it hit the [`QueryLedger`]) but yielded nothing, exactly like a real
//!   request that dies on the response path;
//! * [`SearchError::Unavailable`] fails before the query reaches the
//!   source — a connect error costs nothing;
//! * [`SearchError::Throttled`] is the 429, passed through untouched.
//!
//! [`QueryLedger`]: crate::QueryLedger

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::interface::{page_or_empty, Answer, TopKInterface, TopKResponse};
use crate::metrics::QueryLedger;
use crate::predicate::SearchQuery;
use crate::schema::Schema;
use crate::traffic::Throttled;

/// Every way a probe against a web database can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The source's rate limit denied admission (HTTP 429). Flow control,
    /// not a fault: the scheduler paces it out, the resilience layer and
    /// circuit breaker ignore it.
    Throttled(Throttled),
    /// The query was sent but no answer arrived within the deadline. The
    /// query **was paid** — the source executed it; we lost the response.
    Timeout {
        /// How long the caller waited before giving up.
        elapsed: Duration,
    },
    /// The source refused the connection outright (HTTP 503, DNS failure,
    /// connect reset). Nothing was sent, nothing was paid.
    Unavailable {
        /// Back-off hint, mirroring a 503 `Retry-After` header.
        retry_after: Duration,
    },
    /// The source answered with a truncated or unparseable body. The query
    /// **was paid**; the answer is unusable.
    Malformed {
        /// What was wrong with the response.
        detail: String,
    },
    /// The probe's session was cancelled before it was answered. Nothing
    /// was paid on its behalf.
    Cancelled,
}

impl SearchError {
    /// Stable kind label, used as the `kind` value of the
    /// `qr2_webdb_errors_total{kind}` metric family.
    pub fn kind(&self) -> &'static str {
        match self {
            SearchError::Throttled(_) => "throttled",
            SearchError::Timeout { .. } => "timeout",
            SearchError::Unavailable { .. } => "unavailable",
            SearchError::Malformed { .. } => "malformed",
            SearchError::Cancelled => "cancelled",
        }
    }

    /// The source's back-off hint, when the failure carries one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            SearchError::Throttled(t) => Some(t.retry_after),
            SearchError::Unavailable { retry_after } => Some(*retry_after),
            SearchError::Timeout { .. }
            | SearchError::Malformed { .. }
            | SearchError::Cancelled => None,
        }
    }

    /// Whether this is the flow-control 429 rather than a genuine fault.
    pub fn is_throttled(&self) -> bool {
        matches!(self, SearchError::Throttled(_))
    }

    /// Whether the failed probe was charged to the ledger anyway (the
    /// request reached the source before dying).
    pub fn was_paid(&self) -> bool {
        matches!(
            self,
            SearchError::Timeout { .. } | SearchError::Malformed { .. }
        )
    }
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Throttled(t) => write!(f, "{t}"),
            SearchError::Timeout { elapsed } => {
                write!(f, "timed out after {elapsed:?}")
            }
            SearchError::Unavailable { retry_after } => {
                write!(f, "unavailable; retry after {retry_after:?}")
            }
            SearchError::Malformed { detail } => write!(f, "malformed response: {detail}"),
            SearchError::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A replayable fault scenario: which attempt indices fail, and how.
///
/// All decisions key on the decorator's monotone attempt counter, never
/// on wall time, so the script is deterministic across runs and machines.
/// The default script injects nothing (a healthy source).
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    /// Hard-outage windows as half-open attempt-index ranges `[start,
    /// end)`: attempts inside any window fail `Unavailable` before
    /// reaching the source (nothing is paid).
    pub outages: Vec<(u64, u64)>,
    /// Every `n`-th attempt (1-based) times out *after* executing: the
    /// query is paid, the answer discarded. `None` = no timeouts.
    pub timeout_every: Option<u64>,
    /// Every `n`-th attempt (1-based) returns a truncated body *after*
    /// executing: paid, unusable. `None` = no malformed responses.
    pub malformed_every: Option<u64>,
    /// Probability in `[0, 1]` that any attempt outside an outage window
    /// fails `Unavailable` transiently; decided by hashing the script
    /// seed with the attempt index.
    pub error_rate: f64,
    /// Every `n`-th attempt sleeps an extra latency spike before the
    /// inner query executes. `None` = no spikes.
    pub latency_spike: Option<(u64, Duration)>,
    /// `Retry-After` hint advertised on injected `Unavailable` failures.
    pub retry_after: Duration,
    /// Seed for the transient-error hash.
    pub seed: u64,
}

impl FaultScript {
    /// A script that injects nothing: the decorator is transparent.
    pub fn healthy() -> FaultScript {
        FaultScript::default()
    }

    /// Add a hard-outage window over attempt indices `[start, end)`.
    #[must_use]
    pub fn with_outage(mut self, start: u64, end: u64) -> FaultScript {
        self.outages.push((start, end));
        self
    }

    /// Whether attempt index `attempt` falls inside an outage window.
    pub fn in_outage(&self, attempt: u64) -> bool {
        self.outages
            .iter()
            .any(|&(start, end)| attempt >= start && attempt < end)
    }

    /// The advertised `Retry-After` for injected `Unavailable` failures
    /// (floored so callers never spin on a zero hint).
    pub fn retry_after_hint(&self) -> Duration {
        self.retry_after.max(Duration::from_millis(1))
    }
}

/// Counters describing what the script injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Attempts that hit the decorator (injected or passed through).
    pub attempts: u64,
    /// Injected timeouts (paid, answer lost).
    pub timeouts: u64,
    /// Injected `Unavailable` failures (outage windows + transients; free).
    pub unavailable: u64,
    /// Injected malformed responses (paid, answer unusable).
    pub malformed: u64,
    /// Latency spikes applied.
    pub spikes: u64,
}

/// SplitMix64: the one-shot mixer used to derive per-attempt transient
/// decisions from `seed ^ attempt`.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hash.
pub(crate) fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`TopKInterface`] decorator that injects the faults scripted by a
/// [`FaultScript`], deterministically, into [`probe`](TopKInterface::probe)
/// between the resilience layer and the traffic-shaped source:
/// `… scheduler → resilient → fault injection → traffic shaping → raw db`.
pub struct FaultInjectingInterface {
    inner: Arc<dyn TopKInterface>,
    script: FaultScript,
    attempt: AtomicU64,
    timeouts: AtomicU64,
    unavailable: AtomicU64,
    malformed: AtomicU64,
    spikes: AtomicU64,
}

impl FaultInjectingInterface {
    /// Wrap `inner` with `script`.
    pub fn new(inner: Arc<dyn TopKInterface>, script: FaultScript) -> FaultInjectingInterface {
        FaultInjectingInterface {
            inner,
            script,
            attempt: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
        }
    }

    /// The script being replayed.
    pub fn script(&self) -> &FaultScript {
        &self.script
    }

    /// Injection counters so far.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            attempts: self.attempt.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            spikes: self.spikes.load(Ordering::Relaxed),
        }
    }

    /// Whether 1-based attempt number `n` is a multiple of `every`.
    fn is_nth(attempt: u64, every: Option<u64>) -> bool {
        match every {
            Some(n) if n > 0 => (attempt + 1).is_multiple_of(n),
            _ => false,
        }
    }
}

impl TopKInterface for FaultInjectingInterface {
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

    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        let attempt = self.attempt.fetch_add(1, Ordering::Relaxed);
        // Outage windows and transient connect failures fire before the
        // query reaches the source: nothing is paid.
        if self.script.in_outage(attempt) {
            self.unavailable.fetch_add(1, Ordering::Relaxed);
            return Err(SearchError::Unavailable {
                retry_after: self.script.retry_after_hint(),
            });
        }
        if self.script.error_rate > 0.0 {
            let draw = unit_f64(splitmix64(self.script.seed ^ attempt));
            if draw < self.script.error_rate {
                self.unavailable.fetch_add(1, Ordering::Relaxed);
                return Err(SearchError::Unavailable {
                    retry_after: self.script.retry_after_hint(),
                });
            }
        }
        if let Some((every, extra)) = self.script.latency_spike {
            if Self::is_nth(attempt, Some(every)) {
                self.spikes.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(extra);
            }
        }
        // Response-path faults execute the inner query first: the probe is
        // charged to the ledger exactly like a real request that dies on
        // the way back.
        let started = std::time::Instant::now();
        let out = self.inner.probe(q)?;
        if Self::is_nth(attempt, self.script.timeout_every) {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
            return Err(SearchError::Timeout {
                elapsed: started.elapsed(),
            });
        }
        if Self::is_nth(attempt, self.script.malformed_every) {
            self.malformed.fetch_add(1, Ordering::Relaxed);
            return Err(SearchError::Malformed {
                detail: format!("response truncated at tuple 0 of {}", out.resp.tuples.len()),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::SystemRanking;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::traffic::{SourcePolicy, TrafficShapedInterface};

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

    #[test]
    fn healthy_script_is_transparent() {
        let shaped = shaped();
        let faulty = FaultInjectingInterface::new(shaped.clone(), FaultScript::healthy());
        let q = SearchQuery::all();
        let answer = faulty.probe(&q).expect("no faults");
        assert_eq!(answer, shaped.probe(&q).unwrap());
        let stats = faulty.fault_stats();
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.timeouts + stats.unavailable + stats.malformed, 0);
    }

    #[test]
    fn outage_window_is_free_and_bounded() {
        let shaped = shaped();
        let script = FaultScript::healthy().with_outage(1, 3);
        let faulty = FaultInjectingInterface::new(shaped.clone(), script);
        let q = SearchQuery::all();
        assert!(faulty.probe(&q).is_ok()); // attempt 0
        let paid_before = shaped.ledger().total();
        for _ in 1..3 {
            let err = faulty.probe(&q).expect_err("outage window");
            assert_eq!(err.kind(), "unavailable");
            assert!(err.retry_after().is_some());
            assert!(!err.was_paid());
        }
        assert_eq!(
            shaped.ledger().total(),
            paid_before,
            "an outage failure never reaches the source"
        );
        assert!(faulty.probe(&q).is_ok()); // attempt 3: recovered
        assert_eq!(faulty.fault_stats().unavailable, 2);
    }

    #[test]
    fn timeouts_are_paid_but_lost() {
        let shaped = shaped();
        let script = FaultScript {
            timeout_every: Some(2), // attempts 1, 3, 5, … (1-based: every 2nd)
            ..FaultScript::healthy()
        };
        let faulty = FaultInjectingInterface::new(shaped.clone(), script);
        let q = SearchQuery::all();
        assert!(faulty.probe(&q).is_ok()); // attempt 0
        let paid_before = shaped.ledger().total();
        let err = faulty.probe(&q).expect_err("2nd attempt times out");
        assert_eq!(err.kind(), "timeout");
        assert!(err.was_paid());
        assert_eq!(
            shaped.ledger().total(),
            paid_before + 1,
            "a timed-out probe was still charged"
        );
    }

    #[test]
    fn malformed_responses_are_paid_and_carry_detail() {
        let shaped = shaped();
        let script = FaultScript {
            malformed_every: Some(1), // every attempt
            ..FaultScript::healthy()
        };
        let faulty = FaultInjectingInterface::new(shaped.clone(), script);
        let err = faulty.probe(&SearchQuery::all()).expect_err("malformed");
        assert_eq!(err.kind(), "malformed");
        assert!(err.was_paid());
        assert!(err.to_string().contains("truncated"));
        assert_eq!(shaped.ledger().total(), 1);
    }

    #[test]
    fn transient_errors_are_deterministic_under_a_seed() {
        let script = FaultScript {
            error_rate: 0.5,
            seed: 42,
            ..FaultScript::healthy()
        };
        let run = || {
            let faulty = FaultInjectingInterface::new(shaped(), script.clone());
            (0..64)
                .map(|_| faulty.probe(&SearchQuery::all()).is_ok())
                .collect::<Vec<bool>>()
        };
        let first = run();
        assert_eq!(first, run(), "same seed, same fault sequence");
        let failures = first.iter().filter(|ok| !**ok).count();
        assert!(
            (8..56).contains(&failures),
            "error_rate 0.5 injected {failures}/64 failures"
        );
        let other = FaultInjectingInterface::new(
            shaped(),
            FaultScript {
                seed: 43,
                ..script.clone()
            },
        );
        let second: Vec<bool> = (0..64)
            .map(|_| other.probe(&SearchQuery::all()).is_ok())
            .collect();
        assert_ne!(first, second, "different seed, different sequence");
    }

    #[test]
    fn throttles_pass_through_unchanged() {
        let schema = Schema::builder().numeric("price", 0.0, 100.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        tb.push_row(vec![1.0]).unwrap();
        let ranking = SystemRanking::linear(&schema, &[("price", 1.0)]).unwrap();
        let db = Arc::new(crate::SimulatedWebDb::new(tb.build(), ranking, 5));
        let shaped = Arc::new(TrafficShapedInterface::new(
            db,
            SourcePolicy::rate_limited(0.001, 1.0),
        ));
        let faulty = FaultInjectingInterface::new(shaped, FaultScript::healthy());
        let q = SearchQuery::all();
        assert!(faulty.probe(&q).is_ok());
        let err = faulty.probe(&q).expect_err("bucket empty");
        assert!(err.is_throttled());
        assert_eq!(err.kind(), "throttled");
    }

    #[test]
    fn search_error_display_and_hints() {
        let e = SearchError::Timeout {
            elapsed: Duration::from_millis(250),
        };
        assert!(e.to_string().contains("timed out"));
        assert_eq!(e.retry_after(), None);
        let e = SearchError::Unavailable {
            retry_after: Duration::from_secs(2),
        };
        assert_eq!(e.retry_after(), Some(Duration::from_secs(2)));
        assert!(!e.was_paid());
    }
}
