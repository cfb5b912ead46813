//! Per-source traffic models: rate limits and simulated
//! `429 Too Many Requests` responses.
//!
//! Real web databases meter third-party traffic. QR2's scheduler
//! (`qr2-sched`) has to pace its paid probes against those limits, so the
//! simulator needs to *enforce* them: [`SourcePolicy`] describes a source's
//! token-bucket rate limit and [`TrafficShapedInterface`] is a decorator
//! that applies the policy to any [`TopKInterface`] — the local
//! [`SimulatedWebDb`] or a remote gateway client alike. Per-query latency
//! is the source's own business ([`SimulatedWebDb::with_latency`]).
//!
//! A denial surfaces through [`TopKInterface::probe`] as
//! [`SearchError::Throttled`] — the in-process rendering of an HTTP 429
//! with a `Retry-After` hint — leaving backoff to the caller (the
//! scheduler's pacing loop). [`TopKInterface::search`] instead sleeps out
//! each `Retry-After` until the query is admitted, so callers without a
//! scheduler still get an answer (just slower, as the policy intends).
//!
//! [`SimulatedWebDb`]: crate::SimulatedWebDb
//! [`SimulatedWebDb::with_latency`]: crate::SimulatedWebDb::with_latency

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::fault::SearchError;
use crate::interface::{page_or_empty, Answer, TopKInterface, TopKResponse};
use crate::metrics::QueryLedger;
use crate::predicate::SearchQuery;
use crate::schema::Schema;

/// A token-bucket rate limit: sustained `per_sec` queries per second with
/// bursts of up to `burst` back-to-back queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained refill rate, tokens (= queries) per second. Must be > 0.
    pub per_sec: f64,
    /// Bucket capacity: how many queries may be issued back-to-back after
    /// an idle period. At least 1.
    pub burst: f64,
}

impl RateLimit {
    /// A rate limit of `per_sec` sustained queries per second with the
    /// given burst capacity.
    pub fn new(per_sec: f64, burst: f64) -> RateLimit {
        assert!(per_sec > 0.0, "rate limit must be positive");
        RateLimit {
            per_sec,
            burst: burst.max(1.0),
        }
    }
}

/// Everything a source's terms of service impose on a third-party caller:
/// a rate limit, or nothing.
///
/// The default ([`SourcePolicy::unlimited`]) imposes nothing, so wrapping an
/// interface with an unlimited policy is behavior-preserving.
#[derive(Debug, Clone, Default)]
pub struct SourcePolicy {
    /// Token-bucket rate limit; `None` = unmetered.
    pub rate: Option<RateLimit>,
}

impl SourcePolicy {
    /// The policy that imposes no limits at all.
    pub fn unlimited() -> SourcePolicy {
        SourcePolicy::default()
    }

    /// A pure token-bucket rate limit.
    pub fn rate_limited(per_sec: f64, burst: f64) -> SourcePolicy {
        SourcePolicy {
            rate: Some(RateLimit::new(per_sec, burst)),
        }
    }
}

/// Floor for the advertised `Retry-After` on a denial, so callers never
/// spin on a zero-length hint.
const MIN_RETRY_AFTER: Duration = Duration::from_millis(5);

/// The source refused the query — the in-process form of an HTTP
/// `429 Too Many Requests` with a `Retry-After` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throttled {
    /// How long the source asks the caller to back off before retrying.
    pub retry_after: Duration,
}

impl Throttled {
    /// `Retry-After` in whole seconds, rounded up (minimum 1), as the HTTP
    /// header would carry it.
    pub fn retry_after_secs(&self) -> u64 {
        (self.retry_after.as_secs_f64().ceil() as u64).max(1)
    }
}

impl std::fmt::Display for Throttled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "throttled; retry after {:?}", self.retry_after)
    }
}

/// Counters describing what the policy did to the traffic that hit it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Queries admitted and executed.
    pub admitted: u64,
    /// Denials (simulated 429s) returned by `probe`.
    pub throttled: u64,
    /// Blocking-path sleeps (a legacy caller waited a `Retry-After` out).
    pub waited: u64,
}

struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

impl Bucket {
    /// Refill by elapsed wall time, clamped at the burst capacity.
    fn refill(&mut self, rate: &RateLimit) {
        let now = Instant::now();
        let dt = now.duration_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * rate.per_sec).min(rate.burst);
        self.last_refill = now;
    }
}

/// A [`TopKInterface`] decorator that enforces a [`SourcePolicy`].
///
/// Sits directly above the raw database (or remote gateway client), below
/// the scheduler and the answer cache:
/// `cache → scheduler → traffic shaping → raw db`.
pub struct TrafficShapedInterface {
    inner: Arc<dyn TopKInterface>,
    policy: SourcePolicy,
    bucket: Mutex<Bucket>,
    admitted: AtomicU64,
    throttled: AtomicU64,
    waited: AtomicU64,
    // Shared qr2-obs handles, labeled by source: simulated-429 counter and
    // per-source search latency.
    obs_throttled: Arc<qr2_obs::Counter>,
    obs_search_us: Arc<qr2_obs::Histogram>,
}

impl TrafficShapedInterface {
    /// Wrap `inner` with `policy`, recording metrics under the source
    /// label `default`. Prefer [`TrafficShapedInterface::named`] when the
    /// source has a name.
    pub fn new(inner: Arc<dyn TopKInterface>, policy: SourcePolicy) -> TrafficShapedInterface {
        TrafficShapedInterface::named(inner, policy, "default")
    }

    /// Wrap `inner` with `policy`, with metrics registered under `source`
    /// in the global qr2-obs registry.
    pub fn named(
        inner: Arc<dyn TopKInterface>,
        policy: SourcePolicy,
        source: &str,
    ) -> TrafficShapedInterface {
        let tokens = policy.rate.map(|r| r.burst).unwrap_or(0.0);
        TrafficShapedInterface {
            inner,
            policy,
            bucket: Mutex::new(Bucket {
                tokens,
                last_refill: Instant::now(),
            }),
            admitted: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            waited: AtomicU64::new(0),
            obs_throttled: qr2_obs::counter("qr2_webdb_throttled_total", &[("source", source)]),
            obs_search_us: qr2_obs::histogram(
                "qr2_webdb_search_duration_us",
                &[("source", source)],
            ),
        }
    }

    /// The policy this decorator enforces.
    pub fn policy(&self) -> &SourcePolicy {
        &self.policy
    }

    /// Traffic counters so far.
    pub fn traffic_stats(&self) -> TrafficStats {
        TrafficStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            waited: self.waited.load(Ordering::Relaxed),
        }
    }

    /// Estimated wall-clock wait until the bucket can pay for `pending`
    /// more queries, assuming no competing traffic. Zero when unmetered.
    pub fn estimated_wait(&self, pending: usize) -> Duration {
        let Some(rate) = &self.policy.rate else {
            return Duration::ZERO;
        };
        let mut bucket = self.bucket.lock();
        bucket.refill(rate);
        let need = pending as f64 - bucket.tokens;
        if need <= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(need / rate.per_sec)
        }
    }

    /// Try to admit one query against the token bucket. On denial, the
    /// simulated 429 carries a `Retry-After` hint sized to when a token
    /// will be available.
    fn try_admit(&self) -> Result<(), Throttled> {
        if let Some(rate) = &self.policy.rate {
            let mut bucket = self.bucket.lock();
            bucket.refill(rate);
            if bucket.tokens < 1.0 {
                let wait = Duration::from_secs_f64((1.0 - bucket.tokens) / rate.per_sec);
                drop(bucket);
                self.throttled.fetch_add(1, Ordering::Relaxed);
                self.obs_throttled.inc();
                return Err(Throttled {
                    retry_after: wait.max(MIN_RETRY_AFTER),
                });
            }
            bucket.tokens -= 1.0;
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl TopKInterface for TrafficShapedInterface {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn system_k(&self) -> usize {
        self.inner.system_k()
    }

    /// Blocking search: sleeps out each `Retry-After` until admitted. The
    /// scheduler never calls this; it paces denials itself through
    /// [`probe`](TopKInterface::probe).
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        loop {
            match self.probe(q) {
                Err(SearchError::Throttled(throttled)) => {
                    self.waited.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(throttled.retry_after);
                }
                other => return page_or_empty(other),
            }
        }
    }

    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }

    /// `Err(Throttled)` is the simulated 429. Once admitted, the query is
    /// passed to the inner interface, which charges the ledger.
    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        qr2_obs::span("traffic.shape", || {
            self.try_admit().map_err(SearchError::Throttled)?;
            qr2_obs::span("webdb.search", || {
                let start = Instant::now();
                let out = self.inner.probe(q);
                self.obs_search_us.record(start.elapsed());
                out
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::SystemRanking;
    use crate::table::TableBuilder;

    fn tiny_db() -> Arc<dyn TopKInterface> {
        let schema = Schema::builder().numeric("price", 0.0, 100.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..20 {
            tb.push_row(vec![(i as f64) * 5.0]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("price", 1.0)]).unwrap();
        Arc::new(crate::SimulatedWebDb::new(tb.build(), ranking, 5))
    }

    #[test]
    fn unlimited_policy_is_transparent() {
        let db = tiny_db();
        let shaped = TrafficShapedInterface::new(db.clone(), SourcePolicy::unlimited());
        let q = SearchQuery::all();
        assert_eq!(shaped.search(&q), db.search(&q));
        assert_eq!(shaped.traffic_stats().throttled, 0);
        assert_eq!(shaped.estimated_wait(1000), Duration::ZERO);
    }

    #[test]
    fn token_bucket_throttles_after_burst() {
        let db = tiny_db();
        // 1 query/s sustained, burst of 2: the third back-to-back query is
        // denied with a ~1s Retry-After.
        let shaped = TrafficShapedInterface::new(db, SourcePolicy::rate_limited(1.0, 2.0));
        let q = SearchQuery::all();
        assert!(shaped.probe(&q).is_ok());
        assert!(shaped.probe(&q).is_ok());
        let Err(SearchError::Throttled(denial)) = shaped.probe(&q) else {
            panic!("burst exhausted");
        };
        assert!(denial.retry_after > Duration::from_millis(500));
        assert!(denial.retry_after_secs() >= 1);
        let stats = shaped.traffic_stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.throttled, 1);
        assert!(shaped.estimated_wait(1) > Duration::ZERO);
    }

    #[test]
    fn blocking_search_waits_out_the_limit() {
        let db = tiny_db();
        // Fast refill so the test stays quick: 200/s, burst 1.
        let shaped = TrafficShapedInterface::new(db, SourcePolicy::rate_limited(200.0, 1.0));
        let q = SearchQuery::all();
        shaped.search(&q);
        shaped.search(&q); // must block ~5ms, not fail
        let stats = shaped.traffic_stats();
        assert_eq!(stats.admitted, 2);
        assert!(stats.waited >= 1, "second call slept a Retry-After out");
    }

    #[test]
    fn ledger_only_charged_for_admitted_queries() {
        let db = tiny_db();
        let shaped = TrafficShapedInterface::new(db, SourcePolicy::rate_limited(0.001, 1.0));
        let q = SearchQuery::all();
        assert!(shaped.probe(&q).is_ok());
        let after_first = shaped.ledger().total();
        assert!(shaped.probe(&q).is_err());
        assert_eq!(
            shaped.ledger().total(),
            after_first,
            "a denied query never reaches the web database"
        );
    }
}
