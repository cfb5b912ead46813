//! User sessions: each submitted query opens a session whose serving state
//! persists between get-next calls — the "session variable (user level
//! cache)" of the paper's architecture.
//!
//! A session is split into an immutable [`SessionHandle`] (source name,
//! default page size, lifetime budget, and the [`SessionCtx`] that is its
//! scheduler key, class and cancel token) and the mutable [`SessionEntry`] behind the handle's lock. Request
//! handlers read the immutable half — e.g. to resolve the source registry
//! entry — *before* taking the entry lock, so slow paging in one session
//! never blocks lookups for another.
//!
//! The entry owns the session's serving tier — a live reranking engine or
//! a zero-query cursor over the source's offline rank reconstruction — and
//! the one way to serve from it: [`SessionEntry::step`]. Every page,
//! `results` call and NDJSON stream line is one step, so the tier choice,
//! the lifetime query budget, the scheduler context, cancellation and a
//! failed probe's outage are decided in one place for every endpoint.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use qr2_core::{
    next_session_key, with_session, Budget, CancelToken, QueryClass, QueryStats, RerankSession,
    SessionCtx, StepOutcome,
};
use qr2_recon::ReconCursor;
use qr2_webdb::Tuple;

use crate::dto::StatsResponse;

/// Opaque session identifier (`"s17"`).
pub type SessionId = String;

/// Zero-query serving state for a session whose filter region is covered
/// by the source's offline rank reconstruction (`qr2-recon`): tuples are
/// pulled lazily from a [`ReconCursor`] in the engines' exact order — no
/// engine, no scheduler, no web-DB spend. Coverage was checked against
/// the answer-cache epoch at creation; like a live session's
/// already-buffered tuples, the cursor's snapshot is *not* invalidated
/// mid-session by a later epoch bump (see docs/RECON.md).
pub(crate) struct ReconServing {
    cursor: ReconCursor,
    /// The next tuple, pulled one ahead so a step that serves the last
    /// tuple already reports [`StepOutcome::Done`].
    ahead: Option<Tuple>,
    served: usize,
    /// Serving-tier statistics: one `recon_hits` per step, zero queries.
    stats: QueryStats,
    /// True when this answer was admitted under an operator degraded-
    /// serving policy (source breaker open, stale epoch tolerated); the
    /// flag is echoed on every page so clients can tell a degraded
    /// answer from a fresh one.
    degraded: bool,
}

impl ReconServing {
    /// Serve the answer `cursor` (from `ReconIndex::serve`) pulls;
    /// `degraded` when a stale recon epoch is tolerated because the
    /// source's circuit breaker is open.
    pub(crate) fn new(mut cursor: ReconCursor, degraded: bool) -> ReconServing {
        ReconServing {
            ahead: cursor.next(),
            cursor,
            served: 0,
            stats: QueryStats::default(),
            degraded,
        }
    }

    /// Serve up to `budget.tuples` tuples (the query cap does not apply:
    /// nothing here queries), or nothing once the ambient session's token
    /// ([`qr2_core::current`]) has fired. Each step that pulls from the
    /// cursor — a page, a stream line, or the pull that finds the answer
    /// drained — records one recon hit; a zero-tuple step touches nothing.
    fn advance(&mut self, budget: Budget) -> StepOutcome {
        if qr2_core::current().cancel.is_cancelled() {
            return StepOutcome::Cancelled {
                partial: Vec::new(),
                stats: QueryStats::default(),
            };
        }
        let n = budget.tuples.unwrap_or(usize::MAX);
        let mut stats = QueryStats::default();
        if n > 0 {
            stats.record_recon_hit();
            self.stats.record_recon_hit();
        }
        let tuples: Vec<Tuple> = std::iter::from_fn(|| self.pull()).take(n).collect();
        if self.ahead.is_none() {
            StepOutcome::Done {
                partial: tuples,
                stats,
            }
        } else {
            StepOutcome::Ready { tuples, stats }
        }
    }

    /// The next tuple, counted as served.
    fn pull(&mut self) -> Option<Tuple> {
        let t = self.ahead.take()?;
        self.ahead = self.cursor.next();
        self.served += 1;
        Some(t)
    }
}

/// Which tier serves a session, fixed at creation.
pub(crate) enum Serving {
    /// The reranking engine with its session cache, probing through the
    /// source's scheduler.
    Live(RerankSession),
    /// The offline rank reconstruction's cursor: free, never probes.
    Recon(ReconServing),
}

/// What one [`SessionEntry::step`] served.
pub(crate) struct Step {
    /// The tuples, in ranking order.
    pub(crate) tuples: Vec<Tuple>,
    /// Why the step stopped: `complete` | `budget_exhausted` | `done` |
    /// `cancelled`.
    pub(crate) status: &'static str,
    /// Web-DB queries this step spent.
    pub(crate) queries: usize,
    /// True when every tuple has been served.
    pub(crate) done: bool,
    /// True when the session serves under the degraded policy.
    pub(crate) degraded: bool,
}

/// Why a [`SessionEntry::step`] served nothing.
#[derive(Debug)]
pub(crate) enum StepError {
    /// The lifetime query budget is spent and nothing is buffered: the
    /// step cannot produce a tuple without exceeding the cap.
    BudgetExceeded {
        /// The session's lifetime cap.
        cap: usize,
        /// Queries spent so far.
        spent: usize,
    },
    /// A probe failed terminally (the source stayed down past the
    /// scheduler's outage patience). The tuples the step had produced
    /// stay with the session and are served first by its next step, which
    /// resumes at the failed region once the source recovers.
    Outage {
        /// Queries the failed step spent before the failure.
        queries: usize,
    },
}

/// The mutable state of a session (held behind [`SessionHandle`]'s lock).
pub struct SessionEntry {
    serving: Serving,
}

impl SessionEntry {
    /// Serve up to `tuples` tuples, with the session's context
    /// (`handle.ctx`) installed around either tier. `budget` caps the
    /// queries this one step may spend (`None` = uncapped); the session's
    /// lifetime cap (`handle.max_queries`) bounds it further. A cancelled
    /// session (deleted, or evicted while a stream holds its handle)
    /// serves nothing and reports `cancelled`, whichever tier serves it.
    /// A zero-tuple step spends nothing; it only reports whether the
    /// session could step at all.
    pub(crate) fn step(
        &mut self,
        handle: &SessionHandle,
        tuples: usize,
        budget: Option<usize>,
    ) -> Result<Step, StepError> {
        let degraded = matches!(&self.serving, Serving::Recon(s) if s.degraded);
        let outcome = with_session(handle.ctx.clone(), || match &mut self.serving {
            Serving::Recon(serving) => Ok(serving.advance(Budget::tuples(tuples))),
            Serving::Live(session) => {
                let queries = match handle.max_queries {
                    None => budget,
                    Some(cap) => {
                        let spent = session.stats().total_queries();
                        let remaining = cap.saturating_sub(spent);
                        if remaining == 0 && session.buffered() == 0 {
                            return Err(StepError::BudgetExceeded { cap, spent });
                        }
                        Some(budget.map_or(remaining, |b| b.min(remaining)))
                    }
                };
                Ok(session.advance(Budget {
                    queries,
                    tuples: Some(tuples),
                }))
            }
        })?;
        if let StepOutcome::Failed { stats, .. } = outcome {
            return Err(StepError::Outage {
                queries: stats.total_queries(),
            });
        }
        Ok(Step {
            status: outcome.label(),
            queries: outcome.stats_delta().total_queries(),
            done: outcome.is_done(),
            degraded,
            tuples: outcome.into_tuples(),
        })
    }

    /// Tuples served so far.
    pub fn served(&self) -> usize {
        match &self.serving {
            Serving::Live(session) => session.served(),
            Serving::Recon(serving) => serving.served,
        }
    }

    /// The statistics panel: recon-served sessions report the serving
    /// tier's counters (`recon_hits`, zero queries), live sessions the
    /// engine's.
    pub(crate) fn stats(&self) -> StatsResponse {
        match &self.serving {
            Serving::Live(session) => StatsResponse::new(&session.stats(), session.served()),
            Serving::Recon(serving) => StatsResponse::new(&serving.stats, serving.served),
        }
    }

    /// Queries the session has spent in total.
    pub(crate) fn total_queries(&self) -> usize {
        match &self.serving {
            Serving::Live(session) => session.stats().total_queries(),
            Serving::Recon(_) => 0,
        }
    }

    /// True when the next step serves without a web-DB query: the
    /// session is recon-served or the engine has buffered tuples.
    pub(crate) fn next_is_free(&self) -> bool {
        match &self.serving {
            Serving::Live(session) => session.buffered() > 0,
            Serving::Recon(_) => true,
        }
    }
}

/// A session: immutable metadata plus the locked mutable state. The idle
/// timer lives behind its own tiny lock so looking a session up never
/// waits on an in-flight page request holding the entry lock.
pub struct SessionHandle {
    /// Source the session runs against (immutable — readable without the
    /// entry lock).
    pub(crate) source: String,
    /// Results per page requested at creation (immutable).
    pub(crate) page_size: usize,
    /// Lifetime cap on web-DB queries this session may spend (immutable;
    /// `None` = uncapped). Exceeding it yields the `budget_exceeded`
    /// error.
    pub(crate) max_queries: Option<usize>,
    /// The session's one identity, installed around each of its steps
    /// (immutable; readable without the entry lock): its scheduler key
    /// (fair-share accounting and `DELETE`-time queue draining), the
    /// priority class of its probes (the create-query request's `class`
    /// field), and its cancel token. Deleting the session cancels the
    /// token, which stops any in-flight stream at its next step, a live
    /// step between discoveries, and any probe the step has pending in
    /// the scheduler.
    pub(crate) ctx: SessionCtx,
    last_access: Mutex<Instant>,
    entry: Mutex<SessionEntry>,
}

impl SessionHandle {
    /// A session served by `serving`, not yet registered; it gets a fresh
    /// scheduler identity. `max_queries` is its lifetime query budget
    /// (`None` = uncapped).
    pub(crate) fn new(
        source: impl Into<String>,
        page_size: usize,
        max_queries: Option<usize>,
        class: QueryClass,
        serving: Serving,
    ) -> SessionHandle {
        SessionHandle {
            source: source.into(),
            page_size,
            max_queries,
            ctx: SessionCtx::new(next_session_key(), class, CancelToken::new()),
            last_access: Mutex::new(Instant::now()),
            entry: Mutex::new(SessionEntry { serving }),
        }
    }

    /// Lock the mutable session state.
    pub fn lock(&self) -> MutexGuard<'_, SessionEntry> {
        self.entry.lock()
    }

    /// Refresh the idle timer. Long-running streams hold only this handle
    /// (never re-entering [`SessionManager::get`]), so they must touch the
    /// timer themselves to stay clear of TTL eviction.
    pub fn touch(&self) {
        *self.last_access.lock() = Instant::now();
    }
}

/// Thread-safe session table with TTL eviction.
pub struct SessionManager {
    next_id: AtomicU64,
    sessions: Mutex<HashMap<SessionId, Arc<SessionHandle>>>,
    ttl: Duration,
}

impl SessionManager {
    /// Manager with the given idle TTL.
    pub fn new(ttl: Duration) -> Self {
        SessionManager {
            next_id: AtomicU64::new(1),
            sessions: Mutex::new(HashMap::new()),
            ttl,
        }
    }

    /// Register a session; returns its id.
    pub(crate) fn register(&self, handle: SessionHandle) -> SessionId {
        let id = format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        self.sessions.lock().insert(id.clone(), Arc::new(handle));
        id
    }

    /// Fetch a session (refreshes its idle timer). Touches only the idle
    /// timer's own lock — never the entry lock — so lookups don't wait on
    /// an in-flight page request for the same session.
    pub fn get(&self, id: &str) -> Option<Arc<SessionHandle>> {
        let handle = self.sessions.lock().get(id)?.clone();
        *handle.last_access.lock() = Instant::now();
        Some(handle)
    }

    /// Remove a session; true when it existed. Cancels the session's
    /// token so an in-flight stream over the same engine stops at its
    /// next discovery boundary.
    pub fn remove(&self, id: &str) -> bool {
        match self.sessions.lock().remove(id) {
            Some(handle) => {
                handle.ctx.cancel.cancel();
                true
            }
            None => false,
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.sessions.lock().is_empty()
    }

    /// Evict sessions idle longer than the TTL; returns how many were
    /// dropped.
    pub fn evict_idle(&self) -> usize {
        let now = Instant::now();
        let mut map = self.sessions.lock();
        let before = map.len();
        map.retain(|_, handle| {
            // A session whose entry is locked by an in-flight request is in
            // use regardless of its timer.
            let keep = handle.entry.try_lock().is_none()
                || now.duration_since(*handle.last_access.lock()) < self.ttl;
            if !keep {
                // A producer may still hold the handle's Arc (a stream
                // between two lines); cancel so it cannot keep spending
                // queries on a session nobody can address anymore.
                handle.ctx.cancel.cancel();
            }
            keep
        });
        before - map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_core::{Algorithm, ExecutorKind, OneDimFunction, RerankRequest, Reranker};
    use qr2_datagen::{generic_db, SyntheticConfig};
    use qr2_webdb::SearchQuery;

    /// An unregistered live session over a 50-row synthetic source.
    fn live(source: &str, page_size: usize, max_queries: Option<usize>) -> SessionHandle {
        SessionHandle::new(
            source,
            page_size,
            max_queries,
            QueryClass::Interactive,
            Serving::Live(make_session()),
        )
    }

    fn make_session() -> RerankSession {
        let cfg = SyntheticConfig {
            n: 50,
            dims: 1,
            system_k: 5,
            ..SyntheticConfig::default()
        };
        let db = Arc::new(generic_db(&cfg, &[1.0]));
        let r = Reranker::builder(db)
            .executor(ExecutorKind::Sequential)
            .build();
        let x0 = r.schema().expect_id("x0");
        r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(x0).into(),
            algorithm: Algorithm::OneDBinary,
        })
    }

    #[test]
    fn create_get_remove() {
        let mgr = SessionManager::new(Duration::from_secs(60));
        let id = mgr.register(live("test", 10, None));
        assert_eq!(mgr.len(), 1);
        assert!(mgr.get(&id).is_some());
        assert!(mgr.remove(&id));
        assert!(!mgr.remove(&id));
        assert!(mgr.get(&id).is_none());
        assert!(mgr.is_empty());
    }

    #[test]
    fn ids_are_unique() {
        let mgr = SessionManager::new(Duration::from_secs(60));
        let a = mgr.register(live("test", 10, None));
        let b = mgr.register(live("test", 10, None));
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_does_not_wait_on_a_busy_entry() {
        // A slow in-flight page request holds the entry lock; get() must
        // still return promptly (it only touches the idle timer's lock).
        let mgr = Arc::new(SessionManager::new(Duration::from_secs(60)));
        let id = mgr.register(live("test", 10, None));
        let handle = mgr.get(&id).unwrap();
        let guard = handle.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let mgr2 = Arc::clone(&mgr);
        let id2 = id.clone();
        std::thread::spawn(move || {
            tx.send(mgr2.get(&id2).is_some()).ok();
        });
        let found = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("lookup blocked behind the entry lock");
        assert!(found);
        drop(guard);
    }

    #[test]
    fn metadata_readable_without_entry_lock() {
        let mgr = SessionManager::new(Duration::from_secs(60));
        let id = mgr.register(live("bluenile", 7, None));
        let handle = mgr.get(&id).unwrap();
        let guard = handle.lock();
        // Source and page size stay readable while the entry is locked.
        assert_eq!(handle.source, "bluenile");
        assert_eq!(handle.page_size, 7);
        drop(guard);
    }

    #[test]
    fn sessions_drive_get_next() {
        let mgr = SessionManager::new(Duration::from_secs(60));
        let id = mgr.register(live("test", 10, None));
        let handle = mgr.get(&id).unwrap();
        let mut guard = handle.lock();
        let page = guard.step(&handle, 5, None).unwrap().tuples;
        assert_eq!(page.len(), 5);
        let page2 = guard.step(&handle, 5, None).unwrap().tuples;
        assert_eq!(page2.len(), 5);
        assert_ne!(page[0].id, page2[0].id);
        assert_eq!(guard.served(), 10);
    }

    #[test]
    fn budget_cap_is_readable_without_the_entry_lock() {
        let mgr = SessionManager::new(Duration::from_secs(60));
        let id = mgr.register(live("test", 10, Some(250)));
        let handle = mgr.get(&id).unwrap();
        let guard = handle.lock();
        assert_eq!(handle.max_queries, Some(250));
        drop(guard);
    }

    #[test]
    fn eviction_cancels_the_session_token() {
        let mgr = SessionManager::new(Duration::from_millis(20));
        let id = mgr.register(live("test", 10, None));
        let handle = mgr.get(&id).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(mgr.evict_idle(), 1);
        assert!(
            handle.ctx.cancel.is_cancelled(),
            "an evicted session must not keep spending queries"
        );
    }

    #[test]
    fn touch_keeps_a_session_alive() {
        let mgr = SessionManager::new(Duration::from_millis(60));
        let id = mgr.register(live("test", 10, None));
        let handle = mgr.get(&id).unwrap();
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            handle.touch();
            assert_eq!(mgr.evict_idle(), 0, "touched session survives");
        }
    }

    #[test]
    fn remove_cancels_the_session_token() {
        let mgr = SessionManager::new(Duration::from_secs(60));
        let id = mgr.register(live("test", 10, None));
        let handle = mgr.get(&id).unwrap();
        assert!(!handle.ctx.cancel.is_cancelled());
        assert!(mgr.remove(&id));
        assert!(
            handle.ctx.cancel.is_cancelled(),
            "delete must stop in-flight streams"
        );
    }

    #[test]
    fn ttl_eviction() {
        let mgr = SessionManager::new(Duration::from_millis(20));
        let id = mgr.register(live("test", 10, None));
        assert_eq!(mgr.evict_idle(), 0, "fresh session survives");
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(mgr.evict_idle(), 1);
        assert!(mgr.get(&id).is_none());
    }

    #[test]
    fn access_refreshes_ttl() {
        let mgr = SessionManager::new(Duration::from_millis(60));
        let id = mgr.register(live("test", 10, None));
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            assert!(mgr.get(&id).is_some(), "access keeps the session alive");
            assert_eq!(mgr.evict_idle(), 0);
        }
    }
}
