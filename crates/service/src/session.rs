//! User sessions: each submitted query opens a session whose reranking
//! engine persists between get-next calls — the "session variable (user
//! level cache)" of the paper's architecture.
//!
//! A session is split into an immutable [`SessionHandle`] (source name,
//! default page size, creation time) and the mutable [`SessionEntry`]
//! behind the handle's lock. Request handlers read the immutable half —
//! e.g. to resolve the source registry entry — *before* taking the entry
//! lock, so slow paging in one session never blocks lookups for another.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use qr2_core::{CancelToken, QueryStats, RerankSession};
use qr2_recon::ReconCursor;
use qr2_sched::{FailureSignal, QueryClass};
use qr2_webdb::Tuple;

/// Opaque session identifier (`"s17"`).
pub type SessionId = String;

/// Zero-query serving state for a session whose filter region is covered
/// by the source's offline rank reconstruction (`qr2-recon`): pages are
/// pulled lazily from a [`ReconCursor`] in the engines' exact order — no
/// engine, no scheduler, no web-DB spend. Coverage was checked against
/// the answer-cache epoch at creation; like a live session's
/// already-buffered tuples, the cursor's snapshot is *not* invalidated
/// mid-session by a later epoch bump (see docs/RECON.md).
pub struct ReconServing {
    cursor: ReconCursor,
    /// The next tuple, pulled one ahead so [`ReconServing::done`] is
    /// exact without a page having come back short.
    ahead: Option<Tuple>,
    served: usize,
    /// Serving-tier statistics: `recon_hits` pages, zero queries.
    pub stats: QueryStats,
    /// True when this answer was admitted under an operator degraded-
    /// serving policy (source breaker open, stale epoch tolerated); the
    /// flag is echoed on every page so clients can tell a degraded
    /// answer from a fresh one.
    pub degraded: bool,
}

impl ReconServing {
    /// Serve the answer `cursor` (from `ReconIndex::serve`) pulls.
    pub fn new(mut cursor: ReconCursor) -> ReconServing {
        ReconServing {
            ahead: cursor.next(),
            cursor,
            served: 0,
            stats: QueryStats::default(),
            degraded: false,
        }
    }

    /// Mark the answer as served under a degraded policy (stale recon
    /// epoch tolerated while the source's circuit breaker is open).
    pub fn degraded(mut self) -> ReconServing {
        self.degraded = true;
        self
    }

    /// Serve the next page of up to `n` tuples and record the recon hit.
    pub fn next_page(&mut self, n: usize) -> Vec<Tuple> {
        let page: Vec<Tuple> = std::iter::from_fn(|| {
            let t = self.ahead.take()?;
            self.ahead = self.cursor.next();
            Some(t)
        })
        .take(n)
        .collect();
        self.served += page.len();
        self.stats.record_recon_hit();
        page
    }

    /// Tuples served so far.
    pub fn served(&self) -> usize {
        self.served
    }

    /// True when every tuple has been served.
    pub fn done(&self) -> bool {
        self.ahead.is_none()
    }
}

/// The mutable state of a live session (held behind [`SessionHandle`]'s
/// lock).
pub struct SessionEntry {
    /// The reranking engine with its session cache.
    pub session: RerankSession,
    /// Whether the stream has been exhausted.
    pub done: bool,
    /// When set, the session serves from the offline rank reconstruction
    /// and the engine in `session` is never advanced.
    pub recon: Option<ReconServing>,
}

/// A live session: immutable metadata plus the locked mutable state. The
/// idle timer lives behind its own tiny lock so looking a session up never
/// waits on an in-flight page request holding the entry lock.
pub struct SessionHandle {
    /// Source the session runs against (immutable — readable without the
    /// entry lock).
    pub source: String,
    /// Results per page requested at creation (immutable).
    pub page_size: usize,
    /// Lifetime cap on web-DB queries this session may spend (immutable;
    /// `None` = uncapped). Exceeding it yields the `budget_exceeded`
    /// error.
    pub max_queries: Option<usize>,
    /// Cooperative cancellation handle — deleting the session cancels any
    /// in-flight stream between discoveries (readable without the entry
    /// lock).
    pub cancel: CancelToken,
    /// Scheduler priority class of this session's probes (immutable; set
    /// from the create-query request's `class` field).
    pub class: QueryClass,
    /// Scheduler identity of this session (fair-share accounting and
    /// `DELETE`-time queue draining).
    pub sched_key: u64,
    /// Tripped by the scheduler when a probe of this session fails
    /// terminally (source down past the parking patience): the service
    /// turns the otherwise-empty page into a structured `503` or a
    /// `status: "failed"` stream summary. Cleared between pages so the
    /// session resumes cleanly once the source recovers.
    pub failure: FailureSignal,
    created: Instant,
    last_access: Mutex<Instant>,
    entry: Mutex<SessionEntry>,
}

impl SessionHandle {
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

    /// Register a new session; returns its id. `max_queries` is the
    /// session's lifetime query budget (`None` = uncapped); `class` and
    /// `sched_key` are its scheduler identity (see
    /// [`qr2_sched::context::next_session_key`]).
    pub fn create(
        &self,
        session: RerankSession,
        source: impl Into<String>,
        page_size: usize,
        max_queries: Option<usize>,
        class: QueryClass,
        sched_key: u64,
    ) -> SessionId {
        let id = format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let now = Instant::now();
        let handle = SessionHandle {
            source: source.into(),
            page_size,
            max_queries,
            cancel: session.cancel_token(),
            class,
            sched_key,
            failure: FailureSignal::new(),
            created: now,
            last_access: Mutex::new(now),
            entry: Mutex::new(SessionEntry {
                session,
                done: false,
                recon: None,
            }),
        };
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
                handle.cancel.cancel();
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
                handle.cancel.cancel();
            }
            keep
        });
        before - map.len()
    }

    /// Age of a session since creation.
    pub fn age(&self, id: &str) -> Option<Duration> {
        self.sessions.lock().get(id).map(|h| h.created.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_core::{Algorithm, ExecutorKind, OneDimFunction, RerankRequest, Reranker};
    use qr2_datagen::{generic_db, SyntheticConfig};
    use qr2_webdb::SearchQuery;

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
        let id = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
        assert_eq!(mgr.len(), 1);
        assert!(mgr.get(&id).is_some());
        assert!(mgr.age(&id).is_some());
        assert!(mgr.remove(&id));
        assert!(!mgr.remove(&id));
        assert!(mgr.get(&id).is_none());
        assert!(mgr.is_empty());
    }

    #[test]
    fn ids_are_unique() {
        let mgr = SessionManager::new(Duration::from_secs(60));
        let a = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
        let b = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_does_not_wait_on_a_busy_entry() {
        // A slow in-flight page request holds the entry lock; get() must
        // still return promptly (it only touches the idle timer's lock).
        let mgr = Arc::new(SessionManager::new(Duration::from_secs(60)));
        let id = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
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
        let id = mgr.create(
            make_session(),
            "bluenile",
            7,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
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
        let id = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
        let handle = mgr.get(&id).unwrap();
        let mut guard = handle.lock();
        let page = guard.session.next_page(5);
        assert_eq!(page.len(), 5);
        let page2 = guard.session.next_page(5);
        assert_eq!(page2.len(), 5);
        assert_ne!(page[0].id, page2[0].id);
    }

    #[test]
    fn budget_cap_is_readable_without_the_entry_lock() {
        let mgr = SessionManager::new(Duration::from_secs(60));
        let id = mgr.create(
            make_session(),
            "test",
            10,
            Some(250),
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
        let handle = mgr.get(&id).unwrap();
        let guard = handle.lock();
        assert_eq!(handle.max_queries, Some(250));
        drop(guard);
    }

    #[test]
    fn eviction_cancels_the_session_token() {
        let mgr = SessionManager::new(Duration::from_millis(20));
        let id = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
        let handle = mgr.get(&id).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(mgr.evict_idle(), 1);
        assert!(
            handle.cancel.is_cancelled(),
            "an evicted session must not keep spending queries"
        );
    }

    #[test]
    fn touch_keeps_a_session_alive() {
        let mgr = SessionManager::new(Duration::from_millis(60));
        let id = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
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
        let id = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
        let handle = mgr.get(&id).unwrap();
        assert!(!handle.cancel.is_cancelled());
        assert!(mgr.remove(&id));
        assert!(
            handle.cancel.is_cancelled(),
            "delete must stop in-flight streams"
        );
    }

    #[test]
    fn ttl_eviction() {
        let mgr = SessionManager::new(Duration::from_millis(20));
        let id = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
        assert_eq!(mgr.evict_idle(), 0, "fresh session survives");
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(mgr.evict_idle(), 1);
        assert!(mgr.get(&id).is_none());
    }

    #[test]
    fn access_refreshes_ttl() {
        let mgr = SessionManager::new(Duration::from_millis(60));
        let id = mgr.create(
            make_session(),
            "test",
            10,
            None,
            QueryClass::Interactive,
            qr2_sched::context::next_session_key(),
        );
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            assert!(mgr.get(&id).is_some(), "access keeps the session alive");
            assert_eq!(mgr.evict_idle(), 0);
        }
    }
}
