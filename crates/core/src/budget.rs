//! The budgeted, resumable execution contract.
//!
//! QR2's scarce resource is the number of queries issued to the hidden web
//! database (the paper's primary metric), yet a blocking `get-next` gives
//! the caller no way to bound, observe, or interrupt that spend. This
//! module defines the step-based contract used by
//! [`RerankSession::advance`](crate::RerankSession::advance):
//!
//! * a [`Budget`] caps what one step may spend (underlying queries and/or
//!   tuples to produce);
//! * a [`StepOutcome`] reports what the step bought, why it stopped, and
//!   the incremental [`QueryStats`] delta it cost;
//! * a [`CancelToken`] cooperatively stops a session between discoveries;
//! * a [`SessionCtx`] says who is probing, in which [`QueryClass`], and
//!   carries the session's token. The service installs it around each
//!   step with [`with_session`]; a scheduling decorator reads it back
//!   with [`current`], and the parallel executor re-installs it on its
//!   worker threads, so every probe of a step carries its session.
//!
//! A probe the source fails ends the step as [`StepOutcome::Failed`]. The
//! tuples the step had produced are not lost: the session keeps them and
//! the next `advance` serves them first, and the engine keeps the failed
//! region pending, so resuming after the source recovers yields the same
//! order as a run that never failed. A probe cancelled with its session
//! ends the step as [`StepOutcome::Cancelled`] instead: the session was
//! stopped, the source did not fail.
//!
//! Sessions are resumable: calling `advance` again continues exactly where
//! the previous step stopped — the engines' frontier/index state persists,
//! tuples already discovered (but not yet served) are served for free, and
//! no query is ever re-issued. Slicing a run into budgeted steps therefore
//! yields the identical tuple order and identical total query cost as one
//! unbudgeted run (`tests/cost_regression.rs` pins this).
//!
//! Budget granularity: the query cap is checked *between* discoveries. A
//! discovery that starts within budget runs to completion (discoveries are
//! atomic — suspending one mid-flight would have to re-issue its queries on
//! resume), so a step may overshoot the cap by the cost of the in-flight
//! discovery; it will never *start* spending past it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use qr2_webdb::{SearchError, Tuple};

use crate::stats::QueryStats;

/// What one [`advance`](crate::RerankSession::advance) step may spend.
///
/// `None` means unlimited for that dimension. The default is fully
/// unlimited — `advance(Budget::default())` drains the stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Cap on underlying web-DB queries issued during this step.
    pub queries: Option<usize>,
    /// Cap on tuples produced by this step (a page size).
    pub tuples: Option<usize>,
}

impl Budget {
    /// No caps at all: `advance` runs until the stream is exhausted.
    pub const UNLIMITED: Budget = Budget {
        queries: None,
        tuples: None,
    };

    /// Cap only the number of web-DB queries.
    pub fn queries(n: usize) -> Budget {
        Budget {
            queries: Some(n),
            tuples: None,
        }
    }

    /// Cap only the number of tuples produced.
    pub fn tuples(n: usize) -> Budget {
        Budget {
            queries: None,
            tuples: Some(n),
        }
    }

    /// Add a query cap (builder style).
    #[must_use]
    pub fn with_queries(mut self, n: usize) -> Budget {
        self.queries = Some(n);
        self
    }

    /// Add a tuple cap (builder style).
    #[must_use]
    pub fn with_tuples(mut self, n: usize) -> Budget {
        self.tuples = Some(n);
        self
    }
}

/// Cooperative cancellation handle for a session. Cloning shares the flag;
/// any clone can cancel. An `advance` run under a [`SessionCtx`] carrying
/// the token observes it between discoveries — the current in-flight
/// discovery completes, then `advance` returns [`StepOutcome::Cancelled`]
/// and every later `advance` under that context does the same.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation (idempotent).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once any clone has cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
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

/// Who is probing on this thread, and how to treat the probes: the one
/// identity of a session, installed with [`with_session`] and read back
/// with [`current`]. The engines probe with no notion of who is asking;
/// a scheduling decorator needs exactly that to apportion fair share and
/// honor cancellation.
#[derive(Debug, Clone, Default)]
pub struct SessionCtx {
    /// Scheduler identity of the session; `0` is the shared anonymous
    /// session. Allocate real keys with [`next_session_key`].
    pub key: u64,
    /// Priority class of this session's probes.
    pub class: QueryClass,
    /// The session's cancellation token: a cancelled session's pending
    /// probes are abandoned instead of spending paid queries. The
    /// anonymous default owns a token nobody cancels.
    pub cancel: CancelToken,
}

impl SessionCtx {
    /// The context of session `key` in `class`, cancelled by `cancel`.
    pub fn new(key: u64, class: QueryClass, cancel: CancelToken) -> SessionCtx {
        SessionCtx { key, class, cancel }
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

/// The ambient session context of this thread (the anonymous default
/// when none was installed).
pub fn current() -> SessionCtx {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_default()
}

/// The result of one [`advance`](crate::RerankSession::advance) step.
///
/// Every variant carries the tuples the step produced and the incremental
/// [`QueryStats`] delta it cost (the rounds executed during this step
/// only); cumulative statistics stay available through
/// [`stats`](crate::RerankSession::stats).
#[derive(Debug, Clone)]
pub enum StepOutcome {
    /// The step met its tuple target within budget.
    Ready {
        /// The tuples produced, in ranking order.
        tuples: Vec<Tuple>,
        /// Queries spent by this step.
        stats: QueryStats,
    },
    /// The query budget ran out first. `partial` holds everything the
    /// budget bought; call `advance` again to continue exactly here.
    BudgetExhausted {
        /// Tuples produced before the budget ran out (possibly empty).
        partial: Vec<Tuple>,
        /// Queries spent by this step.
        stats: QueryStats,
    },
    /// The stream is exhausted: every matching tuple has been served.
    /// `partial` holds the final tuples produced by this step.
    Done {
        /// Tuples produced by this final step (possibly empty).
        partial: Vec<Tuple>,
        /// Queries spent by this step.
        stats: QueryStats,
    },
    /// The session's [`CancelToken`] fired, or a probe of the step was
    /// cancelled with its session ([`SearchError::Cancelled`]). Once the
    /// token has fired, the session stays valid but every further
    /// `advance` returns `Cancelled` immediately.
    Cancelled {
        /// Tuples produced before cancellation was observed.
        partial: Vec<Tuple>,
        /// Queries spent by this step.
        stats: QueryStats,
    },
    /// A probe failed: the source is down or refused it. The step
    /// serves nothing; the tuples it produced are served first
    /// by the next `advance`, which resumes at the failed region.
    Failed {
        /// Queries spent by this step before the failure.
        stats: QueryStats,
        /// Why the probe failed.
        error: SearchError,
    },
}

impl StepOutcome {
    /// The tuples this step served, regardless of variant (none for
    /// [`StepOutcome::Failed`]).
    pub fn tuples(&self) -> &[Tuple] {
        match self {
            StepOutcome::Ready { tuples, .. } => tuples,
            StepOutcome::BudgetExhausted { partial, .. }
            | StepOutcome::Done { partial, .. }
            | StepOutcome::Cancelled { partial, .. } => partial,
            StepOutcome::Failed { .. } => &[],
        }
    }

    /// Consume the outcome, keeping only the tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        match self {
            StepOutcome::Ready { tuples, .. } => tuples,
            StepOutcome::BudgetExhausted { partial, .. }
            | StepOutcome::Done { partial, .. }
            | StepOutcome::Cancelled { partial, .. } => partial,
            StepOutcome::Failed { .. } => Vec::new(),
        }
    }

    /// The incremental statistics delta of this step.
    pub fn stats_delta(&self) -> &QueryStats {
        match self {
            StepOutcome::Ready { stats, .. }
            | StepOutcome::BudgetExhausted { stats, .. }
            | StepOutcome::Done { stats, .. }
            | StepOutcome::Cancelled { stats, .. }
            | StepOutcome::Failed { stats, .. } => stats,
        }
    }

    /// True when the stream is exhausted.
    pub fn is_done(&self) -> bool {
        matches!(self, StepOutcome::Done { .. })
    }

    /// True when the step stopped on its query budget.
    pub fn is_budget_exhausted(&self) -> bool {
        matches!(self, StepOutcome::BudgetExhausted { .. })
    }

    /// Stable wire label for the outcome (`complete` | `budget_exhausted`
    /// | `done` | `cancelled` | `failed`), as reported by the service's
    /// `status` field.
    pub fn label(&self) -> &'static str {
        match self {
            StepOutcome::Ready { .. } => "complete",
            StepOutcome::BudgetExhausted { .. } => "budget_exhausted",
            StepOutcome::Done { .. } => "done",
            StepOutcome::Cancelled { .. } => "cancelled",
            StepOutcome::Failed { .. } => "failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_constructors() {
        assert_eq!(Budget::UNLIMITED, Budget::default());
        assert_eq!(Budget::queries(5).queries, Some(5));
        assert_eq!(Budget::queries(5).tuples, None);
        assert_eq!(Budget::tuples(3).tuples, Some(3));
        let b = Budget::queries(5).with_tuples(3).with_queries(7);
        assert_eq!((b.queries, b.tuples), (Some(7), Some(3)));
    }

    #[test]
    fn cancel_token_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled());
        clone.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

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
        let outer = SessionCtx::new(
            next_session_key(),
            QueryClass::Interactive,
            CancelToken::new(),
        );
        let outer_key = outer.key;
        with_session(outer, || {
            assert_eq!(current().key, outer_key);
            let inner = SessionCtx::new(
                next_session_key(),
                QueryClass::Background,
                CancelToken::new(),
            );
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
        let ctx = SessionCtx::new(
            next_session_key(),
            QueryClass::Interactive,
            CancelToken::new(),
        );
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_session(ctx, || panic!("boom"))
        }));
        assert!(caught.is_err());
        assert_eq!(current().key, 0, "stack popped on unwind");
    }

    #[test]
    fn the_context_shares_the_sessions_token() {
        let token = CancelToken::new();
        let ctx = SessionCtx::new(7, QueryClass::Interactive, token.clone());
        with_session(ctx, || {
            assert!(!current().cancel.is_cancelled());
            token.cancel();
            assert!(current().cancel.is_cancelled());
        });
        assert!(!current().cancel.is_cancelled(), "the anonymous default");
    }

    #[test]
    fn session_keys_are_unique_and_nonzero() {
        let a = next_session_key();
        let b = next_session_key();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn outcome_accessors_and_labels() {
        let t = Tuple::new(qr2_webdb::TupleId(1), vec![qr2_webdb::Value::Num(1.0)]);
        let mut stats = QueryStats::default();
        stats.record_round(2, std::time::Duration::from_millis(1));
        let o = StepOutcome::BudgetExhausted {
            partial: vec![t.clone()],
            stats: stats.clone(),
        };
        assert!(o.is_budget_exhausted());
        assert!(!o.is_done());
        assert_eq!(o.label(), "budget_exhausted");
        assert_eq!(o.tuples().len(), 1);
        assert_eq!(o.stats_delta().total_queries(), 2);
        assert_eq!(o.into_tuples()[0].id, t.id);

        assert_eq!(
            StepOutcome::Ready {
                tuples: vec![],
                stats: QueryStats::default()
            }
            .label(),
            "complete"
        );
        assert_eq!(
            StepOutcome::Done {
                partial: vec![],
                stats: QueryStats::default()
            }
            .label(),
            "done"
        );
        assert!(StepOutcome::Done {
            partial: vec![],
            stats: QueryStats::default()
        }
        .is_done());
        assert_eq!(
            StepOutcome::Cancelled {
                partial: vec![],
                stats: QueryStats::default()
            }
            .label(),
            "cancelled"
        );
    }
}
