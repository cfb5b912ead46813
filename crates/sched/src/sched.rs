//! The per-source scheduler: fair-share admission queues and cooperative
//! dispatch against the traffic policy.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use qr2_webdb::{
    page_or_empty, Admission, Answer, QueryLedger, ResilientInterface, Schema, SearchError,
    SearchQuery, Throttled, TopKInterface, TopKResponse, TrafficShapedInterface,
};

use qr2_core::{QueryClass, SessionCtx};

/// Tuning knobs of a [`SourceScheduler`].
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Idle back-off for a waiter when there is nothing to dispatch.
    pub poll_interval: Duration,
    /// How long a probe may sit parked behind an unhealthy source (open
    /// circuit breaker, terminal dispatch failures) before the scheduler
    /// fails it. Short outages ride through transparently — parked probes
    /// resume when the breaker recloses; past this patience the probe
    /// resolves `Failed` and the session surfaces a structured failure.
    pub max_outage_park: Duration,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            poll_interval: Duration::from_millis(5),
            max_outage_park: Duration::from_millis(500),
        }
    }
}

/// Longest estimated backlog wait a *new session* may be admitted into;
/// beyond it [`SourceScheduler::admit`] returns the simulated 429 for the
/// service to surface as `503 + Retry-After`.
const MAX_ADMISSION_WAIT: Duration = Duration::from_secs(30);

/// Ceiling on concurrently in-flight probes per source.
const MAX_INFLIGHT: usize = 64;

/// Lifecycle of one pending probe.
enum ProbeState {
    /// Waiting in a session queue for a fair-share pick.
    Queued,
    /// Being executed against the shaped interface by some submitter.
    InFlight,
    /// Completed with the source's page.
    Done(TopKResponse),
    /// Withdrawn by its own session (cancelled, or drained by
    /// [`SourceScheduler::cancel_session`]); its submitter gets
    /// [`SearchError::Cancelled`].
    Abandoned,
    /// The source failed this probe terminally (retries exhausted, or it
    /// out-waited [`SchedConfig::max_outage_park`] behind an open
    /// breaker). Its submitter gets the terminal error.
    Failed(SearchError),
}

/// One pending web-DB probe plus the condvar its submitter waits on.
struct Probe {
    /// Session that created the probe (fair-share accounting).
    owner: u64,
    class: QueryClass,
    enqueued: Instant,
    query: SearchQuery,
    /// `std` mutex: paired with the condvar below.
    state: StdMutex<ProbeState>,
    cv: Condvar,
    /// Its owner withdrew it while it was in flight: the dispatch
    /// finishes, but a 429 or a fault must not requeue it. Read and
    /// written under the scheduler's state lock.
    withdrawn: AtomicBool,
}

impl Probe {
    fn new(query: SearchQuery, owner: u64, class: QueryClass) -> Probe {
        Probe {
            owner,
            class,
            enqueued: Instant::now(),
            query,
            state: StdMutex::new(ProbeState::Queued),
            cv: Condvar::new(),
            withdrawn: AtomicBool::new(false),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ProbeState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_state(&self, next: ProbeState) {
        *self.lock_state() = next;
        self.cv.notify_all();
    }
}

/// One priority class's sessions: a round-robin ring of session keys over
/// their FIFOs of queued probes.
#[derive(Default)]
struct Lane {
    ring: VecDeque<u64>,
    sessions: HashMap<u64, VecDeque<Arc<Probe>>>,
}

impl Lane {
    fn queued(&self) -> usize {
        self.sessions.values().map(VecDeque::len).sum()
    }

    /// Append `probe` to its session queue, registering the session in the
    /// ring when it was idle. `front` puts the probe (and its session) at
    /// the head — used when requeueing a throttled pick.
    fn push(&mut self, probe: Arc<Probe>, front: bool) {
        let key = probe.owner;
        let probes = self.sessions.entry(key).or_default();
        if probes.is_empty() && !self.ring.contains(&key) {
            if front {
                self.ring.push_front(key);
            } else {
                self.ring.push_back(key);
            }
        }
        if front {
            probes.push_front(probe);
        } else {
            probes.push_back(probe);
        }
    }

    /// Remove a specific queued probe (withdrawal, terminal failure).
    fn remove(&mut self, probe: &Arc<Probe>) -> bool {
        let Some(probes) = self.sessions.get_mut(&probe.owner) else {
            return false;
        };
        let Some(pos) = probes.iter().position(|p| Arc::ptr_eq(p, probe)) else {
            return false;
        };
        probes.remove(pos);
        true
    }

    /// Round-robin pick: serve the head probe of the first session in the
    /// ring and move that session to the back — one probe per session per
    /// ring pass. Sessions whose queues emptied (withdrawn or failed
    /// probes) leave the ring as the scan meets them.
    fn pick(&mut self) -> Option<Arc<Probe>> {
        while let Some(key) = self.ring.pop_front() {
            let Some(probes) = self.sessions.get_mut(&key) else {
                continue;
            };
            let Some(probe) = probes.pop_front() else {
                self.sessions.remove(&key);
                continue;
            };
            if probes.is_empty() {
                self.sessions.remove(&key);
            } else {
                self.ring.push_back(key);
            }
            return Some(probe);
        }
        None
    }
}

/// Queues + in-flight set, under one lock.
#[derive(Default)]
struct SchedState {
    interactive: Lane,
    background: Lane,
    inflight: Vec<Arc<Probe>>,
}

impl SchedState {
    fn lane_mut(&mut self, class: QueryClass) -> &mut Lane {
        match class {
            QueryClass::Interactive => &mut self.interactive,
            QueryClass::Background => &mut self.background,
        }
    }

    fn queued(&self) -> usize {
        self.interactive.queued() + self.background.queued()
    }
}

/// Scheduler state of one priority class, as reported by
/// [`SourceScheduler::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSnapshot {
    /// The class.
    pub class: QueryClass,
    /// Probes currently queued in this class.
    pub queued: usize,
    /// Probes dispatched (paid) for this class so far.
    pub dispatched: u64,
    /// Median queue delay of recent dispatches, milliseconds.
    pub delay_p50_ms: f64,
    /// 99th-percentile queue delay of recent dispatches, milliseconds.
    pub delay_p99_ms: f64,
}

/// A point-in-time view of a [`SourceScheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchedSnapshot {
    /// Probes waiting in the admission queues.
    pub queued: usize,
    /// Probes currently executing against the source.
    pub inflight: usize,
    /// Paid probes dispatched so far (all classes).
    pub dispatched: u64,
    /// Always 0: the scheduler pays every probe it is given, and
    /// identical probes coalesce in the answer cache above it. Kept only
    /// because the session benchmark (`sessionbench/`) reads it; ROADMAP
    /// item 5's benchmark-only change removes it together with the
    /// benchmark's `sched.frontier_hits_per_session`.
    pub coalesced_frontier_hits: u64,
    /// Times a dispatch attempt hit the source's rate limit and backed
    /// off (simulated 429s absorbed by pacing).
    pub throttle_waits: u64,
    /// Times a dispatch attempt found the circuit breaker open (or a
    /// terminal fault within parking patience) and parked the queue
    /// instead of burning a dispatch slot.
    pub parked_waits: u64,
    /// Probes the scheduler failed terminally (source unhealthy past
    /// [`SchedConfig::max_outage_park`], or retries exhausted).
    pub failed_probes: u64,
    /// Sessions refused at admission because the backlog exceeded the
    /// 30 s admission wait.
    pub rejected: u64,
    /// Per-class queue state and delay percentiles
    /// (interactive first, then background).
    pub classes: Vec<ClassSnapshot>,
}

enum Dispatch {
    Did,
    Throttled(Duration),
    /// The breaker is open (or dispatch failed terminally but the probe
    /// is within its parking patience): the probe stays queued, no slot
    /// is burned, and the waiter naps for the hinted duration. The error
    /// is what the probe fails with once its patience runs out.
    Parked(Duration, SearchError),
    Idle,
}

/// The scheduler of one source.
///
/// All probe traffic for the source goes through [`submit`]
/// (its [`TopKInterface::probe`]); the scheduler paces it against the
/// source's [`qr2_webdb::SourcePolicy`]: every dispatch goes through the
/// resilience layer's [`TopKInterface::probe`], so every simulated 429 is
/// absorbed by requeue-and-retry instead of surfacing to the engines.
///
/// [`submit`]: SourceScheduler::submit
pub struct SourceScheduler {
    shaped: Arc<TrafficShapedInterface>,
    resilient: Arc<ResilientInterface>,
    cfg: SchedConfig,
    state: Mutex<SchedState>,
    // Queue-delay histograms live in the shared qr2-obs registry
    // (`qr2_sched_queue_delay_us{source,class}`): O(1) record, exact-bucket
    // percentiles on read, and `/metrics` sees the same numbers as the
    // sched panel.
    interactive_delays: Arc<qr2_obs::Histogram>,
    background_delays: Arc<qr2_obs::Histogram>,
    dispatched_interactive: AtomicU64,
    dispatched_background: AtomicU64,
    throttle_waits: AtomicU64,
    parked_waits: AtomicU64,
    failed_probes: AtomicU64,
    rejected: AtomicU64,
}

impl SourceScheduler {
    /// A scheduler dispatching through `resilient` (retry policy, circuit
    /// breaker, optionally a fault-injected source underneath), with
    /// queue-delay histograms registered under `source` in the global
    /// qr2-obs registry.
    pub fn new(
        resilient: Arc<ResilientInterface>,
        cfg: SchedConfig,
        source: &str,
    ) -> SourceScheduler {
        let delays = |class: QueryClass| {
            qr2_obs::histogram(
                "qr2_sched_queue_delay_us",
                &[("class", class.as_str()), ("source", source)],
            )
        };
        SourceScheduler {
            shaped: Arc::clone(resilient.shaped()),
            resilient,
            cfg,
            state: Mutex::new(SchedState::default()),
            interactive_delays: delays(QueryClass::Interactive),
            background_delays: delays(QueryClass::Background),
            dispatched_interactive: AtomicU64::new(0),
            dispatched_background: AtomicU64::new(0),
            throttle_waits: AtomicU64::new(0),
            parked_waits: AtomicU64::new(0),
            failed_probes: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The traffic-shaped interface this scheduler paces against.
    pub fn shaped(&self) -> &Arc<TrafficShapedInterface> {
        &self.shaped
    }

    /// The resilience layer every dispatch goes through (breaker state,
    /// error counters, health snapshots).
    pub fn resilient(&self) -> &Arc<ResilientInterface> {
        &self.resilient
    }

    /// Estimated wall-clock wait a new probe would face behind the
    /// current backlog, per the source's rate limit.
    pub fn admission_wait(&self) -> Duration {
        let backlog = {
            let st = self.state.lock();
            st.queued() + st.inflight.len()
        };
        self.shaped.estimated_wait(backlog + 1)
    }

    /// Admission control for *new sessions*: `Err` (the simulated 429,
    /// for the service to render as `503 + Retry-After`) when the source
    /// is so saturated that a new session's first probe would wait longer
    /// than 30 s. Existing sessions are
    /// never refused — their probes just queue.
    pub fn admit(&self) -> Result<(), Throttled> {
        let wait = self.admission_wait();
        if wait > MAX_ADMISSION_WAIT {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Throttled { retry_after: wait });
        }
        Ok(())
    }

    /// Abandon every queued probe owned by session `key` (the
    /// `DELETE /v1/queries/:id` drain): cancelled sessions must not spend
    /// paid probes. Each drained submitter gets
    /// [`SearchError::Cancelled`], whether or not its cancel token is set
    /// yet, and does not queue the probe again. In-flight probes are left
    /// to finish — their query cost is already committed.
    pub fn cancel_session(&self, key: u64) {
        let removed = {
            let mut st = self.state.lock();
            let mut removed = Vec::new();
            for class in [QueryClass::Interactive, QueryClass::Background] {
                let lane = st.lane_mut(class);
                if let Some(probes) = lane.sessions.remove(&key) {
                    removed.extend(probes);
                }
                lane.ring.retain(|k| *k != key);
            }
            removed
        };
        for probe in removed {
            probe.set_state(ProbeState::Abandoned);
        }
    }

    /// Point-in-time scheduler state.
    pub fn stats(&self) -> SchedSnapshot {
        let (queued_i, queued_b, inflight) = {
            let st = self.state.lock();
            (
                st.interactive.queued(),
                st.background.queued(),
                st.inflight.len(),
            )
        };
        let quantiles_ms = |h: &qr2_obs::Histogram| {
            (
                h.quantile_us(0.5) as f64 / 1e3,
                h.quantile_us(0.99) as f64 / 1e3,
            )
        };
        let (i50, i99) = quantiles_ms(&self.interactive_delays);
        let (b50, b99) = quantiles_ms(&self.background_delays);
        let di = self.dispatched_interactive.load(Ordering::Relaxed);
        let db = self.dispatched_background.load(Ordering::Relaxed);
        SchedSnapshot {
            queued: queued_i + queued_b,
            inflight,
            dispatched: di + db,
            coalesced_frontier_hits: 0,
            throttle_waits: self.throttle_waits.load(Ordering::Relaxed),
            parked_waits: self.parked_waits.load(Ordering::Relaxed),
            failed_probes: self.failed_probes.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            classes: vec![
                ClassSnapshot {
                    class: QueryClass::Interactive,
                    queued: queued_i,
                    dispatched: di,
                    delay_p50_ms: i50,
                    delay_p99_ms: i99,
                },
                ClassSnapshot {
                    class: QueryClass::Background,
                    queued: queued_b,
                    dispatched: db,
                    delay_p50_ms: b50,
                    delay_p99_ms: b99,
                },
            ],
        }
    }

    /// Submit one probe on behalf of the ambient session
    /// ([`qr2_core::current`]) and block until it is answered. Every
    /// answer is paid: the scheduler queues and paces probes, and
    /// identical probes coalesce in the answer cache above it.
    ///
    /// A cancelled session, or one whose queued probe was drained, gets
    /// [`SearchError::Cancelled`] (nothing was spent on it); a probe the
    /// source failed terminally gets the source's error.
    pub fn submit(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        qr2_obs::span("sched.queue", || self.submit_inner(q))
    }

    fn submit_inner(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        let ctx = qr2_core::current();
        if ctx.cancel.is_cancelled() {
            return Err(SearchError::Cancelled);
        }
        let probe = Arc::new(Probe::new(q.clone(), ctx.key, ctx.class));
        self.state
            .lock()
            .lane_mut(ctx.class)
            .push(Arc::clone(&probe), false);
        self.drive(&probe, &ctx).map(Answer::paid)
    }

    /// Wait for our `probe` to resolve, cooperatively dispatching queued
    /// probes (any session's) whenever the source has capacity, and
    /// withdraw it if our session is cancelled first.
    fn drive(&self, probe: &Arc<Probe>, ctx: &SessionCtx) -> Result<TopKResponse, SearchError> {
        // Consecutive 429s seen by *this* waiter: drives the exponential
        // step of the jittered backoff below. Resets whenever a dispatch
        // succeeds.
        let mut throttle_streak = 0u32;
        loop {
            {
                let state = probe.lock_state();
                match &*state {
                    ProbeState::Done(resp) => return Ok(resp.clone()),
                    ProbeState::Abandoned => return Err(SearchError::Cancelled),
                    ProbeState::Failed(err) => return Err(err.clone()),
                    ProbeState::Queued | ProbeState::InFlight => {}
                }
            }
            if ctx.cancel.is_cancelled() {
                self.withdraw(probe);
                return Err(SearchError::Cancelled);
            }
            match self.try_dispatch() {
                Dispatch::Did => throttle_streak = 0,
                Dispatch::Throttled(retry_after) => {
                    self.throttle_waits.fetch_add(1, Ordering::Relaxed);
                    throttle_streak += 1;
                    // Jittered exponential backoff honoring the source's
                    // Retry-After: blocked submitters desynchronize
                    // instead of hammering the refilling bucket in
                    // lockstep. The hint is clamped so a waiter re-checks
                    // its probe (and cancellation) at least once a second.
                    let backoff = qr2_webdb::jittered_backoff(
                        throttle_streak,
                        Duration::from_millis(2),
                        Duration::from_millis(200),
                        Some(retry_after.min(Duration::from_secs(1))),
                        ctx.key ^ u64::from(throttle_streak) << 32,
                    );
                    // Accumulates on the ambient `sched.queue` span (drive
                    // runs on the submitter's thread, inside submit).
                    qr2_obs::annotate_add("backoff_ms", backoff.as_secs_f64() * 1e3);
                    self.wait_brief(probe, backoff);
                }
                Dispatch::Parked(retry_after, err) => {
                    self.parked_waits.fetch_add(1, Ordering::Relaxed);
                    if probe.enqueued.elapsed() >= self.cfg.max_outage_park {
                        // The source has been unhealthy longer than the
                        // probe's parking patience: fail it honestly.
                        self.fail_probe(probe, err);
                        continue;
                    }
                    qr2_obs::annotate_add("parked_ms", retry_after.as_secs_f64() * 1e3);
                    self.wait_brief(probe, retry_after.min(self.cfg.max_outage_park));
                }
                Dispatch::Idle => self.wait_brief(probe, self.cfg.poll_interval),
            }
        }
    }

    /// Resolve a probe as terminally failed with `err`: out of the
    /// queues, state `Failed`, every waiter notified.
    fn fail_probe(&self, probe: &Arc<Probe>, err: SearchError) {
        {
            let mut st = self.state.lock();
            st.lane_mut(probe.class).remove(probe);
            st.inflight.retain(|p| !Arc::ptr_eq(p, probe));
        }
        self.failed_probes.fetch_add(1, Ordering::Relaxed);
        probe.set_state(ProbeState::Failed(err));
    }

    /// Sleep on the probe's condvar until it changes state or `timeout`
    /// passes (waking early when the probe is already resolved).
    fn wait_brief(&self, probe: &Probe, timeout: Duration) {
        let state = probe.lock_state();
        match &*state {
            ProbeState::Done(_) | ProbeState::Abandoned | ProbeState::Failed(_) => {}
            ProbeState::Queued | ProbeState::InFlight => {
                let _ = probe
                    .cv
                    .wait_timeout(state, timeout.max(Duration::from_micros(100)));
            }
        }
    }

    /// Withdraw our still-queued probe on cancellation. An in-flight probe
    /// is left to finish — its cost is already committed — but is marked
    /// so that [`Self::requeue`] drops it instead of queueing it again for
    /// nobody.
    fn withdraw(&self, probe: &Arc<Probe>) {
        let removed = {
            let mut st = self.state.lock();
            let removed = st.lane_mut(probe.class).remove(probe);
            probe.withdrawn.store(!removed, Ordering::Relaxed);
            removed
        };
        if removed {
            probe.set_state(ProbeState::Abandoned);
        }
    }

    /// Put an in-flight probe the source turned away back at the head of
    /// its session's queue, or abandon it if its owner withdrew it in the
    /// meantime.
    fn requeue(&self, probe: &Arc<Probe>) {
        let mut st = self.state.lock();
        st.inflight.retain(|p| !Arc::ptr_eq(p, probe));
        if probe.withdrawn.load(Ordering::Relaxed) {
            probe.set_state(ProbeState::Abandoned);
        } else {
            probe.set_state(ProbeState::Queued);
            st.lane_mut(probe.class).push(Arc::clone(probe), true);
        }
    }

    /// One cooperative dispatch attempt: pick the fair-share-next probe if
    /// the source has capacity, execute it via the resilience layer's
    /// probe, and complete, requeue (429), park (open breaker / transient
    /// fault), or fail it.
    fn try_dispatch(&self) -> Dispatch {
        // An open breaker parks the whole queue: no probe is picked, no
        // dispatch slot is burned on a call that would fail fast.
        if let Admission::Rejected { retry_after } = self.resilient.breaker_admission() {
            return Dispatch::Parked(
                retry_after.clamp(
                    Duration::from_millis(1),
                    self.cfg.poll_interval.max(Duration::from_millis(5)),
                ),
                SearchError::Unavailable { retry_after },
            );
        }
        let probe = {
            let mut st = self.state.lock();
            if st.inflight.len() >= MAX_INFLIGHT {
                return Dispatch::Idle;
            }
            let picked = st.interactive.pick().or_else(|| st.background.pick());
            let Some(probe) = picked else {
                return Dispatch::Idle;
            };
            st.inflight.push(Arc::clone(&probe));
            probe
        };
        probe.set_state(ProbeState::InFlight);
        let waited = probe.enqueued.elapsed();
        match self.resilient.probe(&probe.query) {
            Ok(Answer { resp, .. }) => {
                match probe.class {
                    QueryClass::Interactive => {
                        self.dispatched_interactive.fetch_add(1, Ordering::Relaxed);
                        self.interactive_delays.record(waited);
                    }
                    QueryClass::Background => {
                        self.dispatched_background.fetch_add(1, Ordering::Relaxed);
                        self.background_delays.record(waited);
                    }
                }
                {
                    let mut st = self.state.lock();
                    st.inflight.retain(|p| !Arc::ptr_eq(p, &probe));
                }
                probe.set_state(ProbeState::Done(resp));
                Dispatch::Did
            }
            Err(SearchError::Throttled(throttled)) => {
                // Source said 429: put the probe back at the head of its
                // session's queue and let pacing retry it.
                self.requeue(&probe);
                Dispatch::Throttled(throttled.retry_after)
            }
            Err(err) => {
                // Terminal fault (retries exhausted, or the breaker
                // opened under us). Within the probe's parking patience,
                // requeue it — a short outage rides through and the
                // session resumes on recovery. Past patience, fail it.
                let retry_after = err
                    .retry_after()
                    .unwrap_or(self.cfg.poll_interval)
                    .max(Duration::from_millis(1));
                if probe.enqueued.elapsed() < self.cfg.max_outage_park {
                    self.requeue(&probe);
                    Dispatch::Parked(
                        retry_after.min(self.cfg.poll_interval.max(Duration::from_millis(5))),
                        err,
                    )
                } else {
                    self.fail_probe(&probe, err);
                    Dispatch::Did
                }
            }
        }
    }
}

/// The scheduler is itself a layer of the standard decorator stack
/// (`cache → scheduler → resilience → traffic shaping → raw db`): its
/// [`TopKInterface::probe`] is [`SourceScheduler::submit`], and the schema,
/// system-k and ledger are the shaped source's.
impl TopKInterface for SourceScheduler {
    fn schema(&self) -> &Schema {
        self.shaped.schema()
    }

    fn system_k(&self) -> usize {
        self.shaped.system_k()
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        page_or_empty(self.submit(q))
    }

    fn ledger(&self) -> &QueryLedger {
        self.shaped.ledger()
    }

    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        self.submit(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_core::{next_session_key, with_session, CancelToken};
    use qr2_webdb::{RangePred, SimulatedWebDb, SourcePolicy, SystemRanking, TableBuilder};

    fn raw_db(n: usize, k: usize) -> Arc<dyn TopKInterface> {
        let schema = Schema::builder().numeric("x", 0.0, 1000.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..n {
            tb.push_row(vec![i as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, k))
    }

    fn sched_over(
        db: Arc<dyn TopKInterface>,
        policy: SourcePolicy,
        cfg: SchedConfig,
    ) -> Arc<SourceScheduler> {
        let shaped = Arc::new(TrafficShapedInterface::new(db, policy));
        let resilient = Arc::new(ResilientInterface::new(
            Arc::clone(&shaped),
            shaped,
            qr2_webdb::RetryPolicy::default(),
            qr2_webdb::BreakerConfig::default(),
            "default",
        ));
        Arc::new(SourceScheduler::new(resilient, cfg, "default"))
    }

    #[test]
    fn unlimited_policy_serves_immediately() {
        let db = raw_db(100, 5);
        let sched = sched_over(
            db.clone(),
            SourcePolicy::unlimited(),
            SchedConfig::default(),
        );
        let q = SearchQuery::all();
        let answer = sched.submit(&q).expect("answered");
        assert_eq!(answer, Answer::paid(db.search(&q)));
        let stats = sched.stats();
        assert_eq!(stats.dispatched, 1);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.inflight, 0);
    }

    #[test]
    fn identical_concurrent_probes_each_pay_once() {
        // Identical keys single-flight in the answer cache above the
        // scheduler; the scheduler itself pays every probe it is given,
        // and each one gets the correct answer.
        let db = raw_db(200, 5);
        let sched = sched_over(
            db.clone(),
            SourcePolicy::rate_limited(500.0, 1.0),
            SchedConfig::default(),
        );
        let q = SearchQuery::all();
        let want = db.search(&q);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sched = Arc::clone(&sched);
            let q = q.clone();
            let want = want.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = SessionCtx::new(
                    next_session_key(),
                    QueryClass::Interactive,
                    CancelToken::new(),
                );
                with_session(ctx, || {
                    let answer = sched.submit(&q).expect("answered");
                    assert_eq!(answer, Answer::paid(want));
                })
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sched.stats().dispatched, 4);
    }

    #[test]
    fn cancelled_session_spends_nothing() {
        let db = raw_db(100, 5);
        let sched = sched_over(
            db.clone(),
            SourcePolicy::unlimited(),
            SchedConfig::default(),
        );
        let token = CancelToken::new();
        token.cancel();
        let ctx = SessionCtx::new(next_session_key(), QueryClass::Interactive, token);
        let before = db.ledger().total();
        let err = with_session(ctx, || sched.submit(&SearchQuery::all()))
            .expect_err("a cancelled session gets no answer");
        assert_eq!(err, SearchError::Cancelled);
        assert_eq!(db.ledger().total(), before);
    }

    #[test]
    fn drained_session_probes_are_abandoned() {
        // Enqueue probes for a session under a starved rate limit, then
        // cancel the session: its probes must leave the queues without
        // ever reaching the ledger.
        let db = raw_db(100, 5);
        let sched = sched_over(
            db.clone(),
            SourcePolicy::rate_limited(0.5, 1.0),
            SchedConfig::default(),
        );
        // Drain the single burst token.
        let x = sched.shaped().schema().expect_id("x");
        let burner = SearchQuery::all().and_range(x, RangePred::closed(990.0, 1000.0));
        assert!(sched.shaped().probe(&burner).is_ok());
        let before = db.ledger().total();

        let key = next_session_key();
        let token = CancelToken::new();
        let sched2 = Arc::clone(&sched);
        let token2 = token.clone();
        let q = SearchQuery::all().and_range(x, RangePred::closed(0.0, 10.0));
        let waiter = std::thread::spawn(move || {
            let ctx = SessionCtx::new(key, QueryClass::Interactive, token2);
            with_session(ctx, || sched2.submit(&q))
        });
        // Give the waiter time to enqueue, then drain the session.
        while sched.stats().queued == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        token.cancel();
        sched.cancel_session(key);
        let err = waiter.join().unwrap().expect_err("drained, not answered");
        assert_eq!(err, SearchError::Cancelled);
        assert_eq!(sched.stats().queued, 0, "queue drained");
        assert_eq!(
            db.ledger().total(),
            before,
            "no paid probe for the cancelled session"
        );
    }

    #[test]
    fn a_drained_probe_ends_cancelled_even_with_a_live_token() {
        // `cancel_session` drains a queued probe before its session's
        // token is cancelled: the waiter must end `Cancelled`, not queue
        // the probe again and pay for it once the bucket refills.
        let db = raw_db(100, 5);
        let sched = sched_over(
            db.clone(),
            SourcePolicy::rate_limited(0.5, 1.0),
            SchedConfig::default(),
        );
        let x = sched.shaped().schema().expect_id("x");
        let burner = SearchQuery::all().and_range(x, RangePred::closed(990.0, 1000.0));
        assert!(sched.shaped().probe(&burner).is_ok());
        let before = db.ledger().total();

        let key = next_session_key();
        let sched2 = Arc::clone(&sched);
        let q = SearchQuery::all().and_range(x, RangePred::closed(0.0, 10.0));
        let waiter = std::thread::spawn(move || {
            let ctx = SessionCtx::new(key, QueryClass::Interactive, CancelToken::new());
            with_session(ctx, || sched2.submit(&q))
        });
        // Once throttled, the waiter backs off for ~1 s with its probe
        // queued again: drain it there, not mid-dispatch.
        while sched.stats().throttle_waits == 0 || sched.stats().queued == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.cancel_session(key);
        let err = waiter.join().unwrap().expect_err("drained, not answered");
        assert_eq!(err, SearchError::Cancelled);
        assert_eq!(db.ledger().total(), before, "the drained probe was paid");
        assert_eq!(
            sched.stats().queued,
            0,
            "the drained probe was queued again"
        );
    }

    fn resilient_sched(
        script: qr2_webdb::FaultScript,
        breaker: qr2_webdb::BreakerConfig,
        cfg: SchedConfig,
    ) -> (Arc<SourceScheduler>, Arc<dyn TopKInterface>) {
        let db = raw_db(100, 5);
        let shaped = Arc::new(TrafficShapedInterface::new(
            db.clone(),
            SourcePolicy::unlimited(),
        ));
        let faulty = Arc::new(qr2_webdb::FaultInjectingInterface::new(
            shaped.clone(),
            script,
        ));
        let retry = qr2_webdb::RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
        };
        let resilient = Arc::new(ResilientInterface::new(
            shaped,
            faulty,
            retry,
            breaker,
            "sched-test",
        ));
        let sched = Arc::new(SourceScheduler::new(resilient, cfg, "sched-test"));
        (sched, db)
    }

    #[test]
    fn hard_outage_fails_probe_with_the_sources_error() {
        let (sched, db) = resilient_sched(
            qr2_webdb::FaultScript::healthy().with_outage(0, u64::MAX),
            qr2_webdb::BreakerConfig {
                failure_threshold: 2,
                open_cooldown: Duration::from_secs(60),
            },
            SchedConfig {
                max_outage_park: Duration::from_millis(30),
                poll_interval: Duration::from_millis(1),
            },
        );
        let ctx = SessionCtx::new(
            next_session_key(),
            QueryClass::Interactive,
            CancelToken::new(),
        );
        let before = db.ledger().total();
        let err = with_session(ctx, || sched.submit(&SearchQuery::all()))
            .expect_err("the outage fails the probe");
        assert_eq!(err.kind(), "unavailable");
        assert_eq!(db.ledger().total(), before, "outage probes are free");
        let stats = sched.stats();
        assert_eq!(stats.failed_probes, 1);
        assert_eq!(stats.queued, 0, "failed probe left the queues");
        assert_eq!(
            sched.resilient().health().breaker,
            "open",
            "consecutive failures opened the breaker"
        );
        assert!(
            stats.parked_waits > 0,
            "open breaker parked instead of burning dispatch slots"
        );
    }

    #[test]
    fn short_outage_rides_through_and_the_session_resumes() {
        // The first two dispatch attempts hit the outage; the breaker
        // opens (threshold 1), recloses after a short cooldown, and the
        // parked probe resumes within its patience window.
        let (sched, db) = resilient_sched(
            qr2_webdb::FaultScript::healthy().with_outage(0, 2),
            qr2_webdb::BreakerConfig {
                failure_threshold: 1,
                open_cooldown: Duration::from_millis(5),
            },
            SchedConfig {
                max_outage_park: Duration::from_secs(5),
                poll_interval: Duration::from_millis(1),
            },
        );
        let ctx = SessionCtx::new(
            next_session_key(),
            QueryClass::Interactive,
            CancelToken::new(),
        );
        let q = SearchQuery::all();
        let want = db.search(&q);
        let answer = with_session(ctx, || sched.submit(&q)).expect("rode through");
        assert_eq!(
            answer,
            Answer::paid(want),
            "the probe resumed after recovery"
        );
        assert_eq!(sched.stats().failed_probes, 0);
        assert_eq!(sched.resilient().health().breaker, "closed");
        assert!(sched.resilient().health().breaker_opens >= 1);
    }

    /// Queue `counts[i]` probes for session `i + 1`, session by session.
    fn lane_of(counts: &[usize]) -> Lane {
        let mut lane = Lane::default();
        for (owner, &n) in (1u64..).zip(counts) {
            for _ in 0..n {
                let probe = Probe::new(SearchQuery::all(), owner, QueryClass::Interactive);
                lane.push(Arc::new(probe), false);
            }
        }
        lane
    }

    fn pick_owner(lane: &mut Lane) -> Option<u64> {
        lane.pick().map(|p| p.owner)
    }

    #[test]
    fn pick_serves_one_probe_per_session_per_ring_pass() {
        let mut lane = lane_of(&[3, 1, 2]);
        let order: Vec<u64> = std::iter::from_fn(|| pick_owner(&mut lane)).collect();
        assert_eq!(order, [1, 2, 3, 1, 3, 1]);
        assert_eq!(lane.queued(), 0);

        // A throttled pick is requeued at the head: a session whose last
        // probe it was re-enters the ring at the front and is served next.
        let mut lane = lane_of(&[3, 1, 2]);
        assert_eq!(pick_owner(&mut lane), Some(1));
        let requeued = lane.pick().expect("B's probe");
        assert_eq!(requeued.owner, 2);
        lane.push(Arc::clone(&requeued), true);
        let next = lane.pick().expect("requeued");
        assert!(Arc::ptr_eq(&next, &requeued));
        let rest: Vec<u64> = std::iter::from_fn(|| pick_owner(&mut lane)).collect();
        assert_eq!(rest, [3, 1, 3, 1]);
    }

    #[test]
    fn admission_control_rejects_when_saturated() {
        let db = raw_db(100, 5);
        let sched = sched_over(
            db,
            SourcePolicy::rate_limited(0.01, 1.0),
            SchedConfig::default(),
        );
        assert!(sched.admit().is_ok(), "token available: admit");
        // Burn the token; now a new probe waits ~100s > 30s.
        assert!(sched.shaped().probe(&SearchQuery::all()).is_ok());
        let denial = sched.admit().expect_err("saturated");
        assert!(denial.retry_after > MAX_ADMISSION_WAIT);
        assert_eq!(sched.stats().rejected, 1);
    }
}
