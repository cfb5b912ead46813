//! Ambient per-session scheduling context.
//!
//! The reranking engines call [`qr2_webdb::TopKInterface::probe`] with no
//! notion of *who* is asking; the scheduler needs exactly that to
//! apportion fair share and honor cancellation. Rather than thread a
//! session handle through every engine signature, the service installs a
//! [`SessionCtx`] around each engine step with [`with_session`], and the
//! scheduler reads it back with [`current`].
//!
//! The context is thread-local. Engine steps that fan out onto scoped
//! worker threads (the parallel executor) fall back to the anonymous
//! default context on those workers — they still get scheduled and paced,
//! just accounted to the shared anonymous session.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use qr2_core::CancelToken;

/// A shared one-way flag a session's probes trip when the source fails
/// them terminally (retries exhausted, breaker open past the scheduler's
/// parking patience). The failing probe returns the source's error, which
/// the engine's executor reads as the empty page so the step unwinds
/// cleanly; the service checks the signal afterwards to turn the page
/// into a structured `503` or a `status: "failed"` stream summary instead
/// of silently serving an empty page.
#[derive(Debug, Clone, Default)]
pub struct FailureSignal {
    tripped: Arc<AtomicBool>,
}

impl FailureSignal {
    /// A fresh, untripped signal.
    pub fn new() -> FailureSignal {
        FailureSignal::default()
    }

    /// Mark the session as having hit a terminal source failure.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::Release);
    }

    /// Whether a terminal failure has been recorded.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// Reset the flag (the service clears it between pages so one failed
    /// page does not condemn the session after the source recovers).
    pub fn clear(&self) {
        self.tripped.store(false, Ordering::Release);
    }
}

/// Deadline/priority class of a session's probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryClass {
    /// A user is waiting on this probe (page loads). Strictly precedes
    /// background work.
    #[default]
    Interactive,
    /// Crawls, prefetch, warm-up — work that tolerates queueing.
    Background,
}

impl QueryClass {
    /// Wire name of the class.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryClass::Interactive => "interactive",
            QueryClass::Background => "background",
        }
    }

    /// Parse a wire name (`"interactive"`, `"background"`; `"crawl"` is
    /// accepted as an alias for background).
    pub fn parse(s: &str) -> Option<QueryClass> {
        match s {
            "interactive" => Some(QueryClass::Interactive),
            "background" | "crawl" => Some(QueryClass::Background),
            _ => None,
        }
    }
}

/// Who is submitting probes on this thread, and how to treat them.
#[derive(Debug, Clone, Default)]
pub struct SessionCtx {
    /// Scheduler identity of the session; `0` is the shared anonymous
    /// session. Allocate real keys with [`next_session_key`].
    pub key: u64,
    /// Priority class of this session's probes.
    pub class: QueryClass,
    /// Cancellation flag: a cancelled session's queued probes are
    /// abandoned instead of spending paid queries.
    pub cancel: Option<CancelToken>,
    /// Failure flag: tripped when a probe of this session fails
    /// terminally (source down, retries exhausted) so the service can
    /// surface a structured failure instead of an empty page.
    pub failure: Option<FailureSignal>,
}

impl SessionCtx {
    /// A context for session `key` in `class`, without cancellation.
    pub fn new(key: u64, class: QueryClass) -> SessionCtx {
        SessionCtx {
            key,
            class,
            cancel: None,
            failure: None,
        }
    }

    /// Attach a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> SessionCtx {
        self.cancel = Some(cancel);
        self
    }

    /// Attach a failure signal.
    #[must_use]
    pub fn with_failure(mut self, failure: FailureSignal) -> SessionCtx {
        self.failure = Some(failure);
        self
    }

    /// Trip the failure signal, when one is attached.
    pub fn trip_failure(&self) {
        if let Some(f) = &self.failure {
            f.trip();
        }
    }

    /// True when the session has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }
}

static NEXT_KEY: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique scheduler session key (never `0`).
pub fn next_session_key() -> u64 {
    NEXT_KEY.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT: RefCell<Vec<SessionCtx>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with `ctx` as the ambient session context on this thread.
/// Nests: the innermost context wins; the previous one is restored on
/// return (including unwinds).
pub fn with_session<R>(ctx: SessionCtx, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    CURRENT.with(|c| c.borrow_mut().push(ctx));
    let _restore = PopGuard;
    f()
}

/// The ambient session context of this thread (anonymous default when none
/// was installed).
pub fn current() -> SessionCtx {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_round_trip() {
        for class in [QueryClass::Interactive, QueryClass::Background] {
            assert_eq!(QueryClass::parse(class.as_str()), Some(class));
        }
        assert_eq!(QueryClass::parse("crawl"), Some(QueryClass::Background));
        assert_eq!(QueryClass::parse("vip"), None);
    }

    #[test]
    fn context_nests_and_restores() {
        assert_eq!(current().key, 0, "anonymous default");
        let outer = SessionCtx::new(next_session_key(), QueryClass::Interactive);
        let outer_key = outer.key;
        with_session(outer, || {
            assert_eq!(current().key, outer_key);
            let inner = SessionCtx::new(next_session_key(), QueryClass::Background);
            let inner_key = inner.key;
            with_session(inner, || {
                assert_eq!(current().key, inner_key);
                assert_eq!(current().class, QueryClass::Background);
            });
            assert_eq!(current().key, outer_key, "outer context restored");
        });
        assert_eq!(current().key, 0);
    }

    #[test]
    fn context_restored_across_unwind() {
        let ctx = SessionCtx::new(next_session_key(), QueryClass::Interactive);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_session(ctx, || panic!("boom"))
        }));
        assert!(caught.is_err());
        assert_eq!(current().key, 0, "stack popped on unwind");
    }

    #[test]
    fn cancellation_reads_the_shared_token() {
        let token = CancelToken::new();
        let ctx = SessionCtx::new(7, QueryClass::Interactive).with_cancel(token.clone());
        assert!(!ctx.is_cancelled());
        token.cancel();
        assert!(ctx.is_cancelled());
        assert!(!SessionCtx::default().is_cancelled());
    }

    #[test]
    fn failure_signal_trips_and_clears_through_clones() {
        let signal = FailureSignal::new();
        let ctx = SessionCtx::new(9, QueryClass::Interactive).with_failure(signal.clone());
        assert!(!signal.is_tripped());
        ctx.trip_failure();
        assert!(signal.is_tripped(), "clones share the flag");
        signal.clear();
        assert!(!signal.is_tripped());
        // A context without a signal ignores trips.
        SessionCtx::default().trip_failure();
    }

    #[test]
    fn session_keys_are_unique_and_nonzero() {
        let a = next_session_key();
        let b = next_session_key();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
