//! Ambient per-session scheduling context.
//!
//! The reranking engines call [`qr2_webdb::TopKInterface::probe`] with no
//! notion of *who* is asking; the scheduler needs exactly that to
//! apportion fair share and honor cancellation. Rather than thread a
//! session handle through every engine signature, the service installs a
//! [`SessionCtx`] around each engine step with [`with_session`], and the
//! scheduler reads it back with [`current`].
//!
//! The context says who is asking, in which class, and whether they have
//! cancelled. A probe that fails reaches the session as its
//! [`SearchError`](qr2_webdb::SearchError), returned up through the engine
//! to the session's step.
//!
//! The context is thread-local. Engine steps that fan out onto scoped
//! worker threads (the parallel executor) fall back to the anonymous
//! default context on those workers — they still get scheduled and paced,
//! and their failures still return to the engine, but they are accounted
//! to the shared anonymous session: they escape the session's
//! cancellation and its fair share.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use qr2_core::CancelToken;

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
}

impl SessionCtx {
    /// A context for session `key` in `class`, without cancellation.
    pub fn new(key: u64, class: QueryClass) -> SessionCtx {
        SessionCtx {
            key,
            class,
            cancel: None,
        }
    }

    /// Attach a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> SessionCtx {
        self.cancel = Some(cancel);
        self
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
    fn session_keys_are_unique_and_nonzero() {
        let a = next_session_key();
        let b = next_session_key();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
