//! Request tracing: an ambient thread-local span stack, a bounded ring
//! of recent completed traces, and a slow-trace log gated by
//! `QR2_SLOW_MS`.
//!
//! The service installs a trace around each request with [`with_trace`]
//! (the request id from the `RequestId` middleware is the trace id), and
//! pipeline stages record timed spans with [`span`] — the same ambient
//! thread-local pattern as `qr2_core::with_session`. Stages
//! record into a per-stage latency histogram family
//! (`qr2_stage_duration_us{stage=…}`) whether or not a trace is active;
//! span records additionally land in the active trace.
//!
//! A streaming body outlives its request's middleware chain: capture
//! [`current_handle`] while the trace is active and [`TraceHandle::enter`]
//! it from the producer, and late spans still append to the same
//! (ring-shared) trace.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Microseconds of `d` in u64 arithmetic (`as_micros` routes through u128
/// division — too slow for the span hot path), saturating at `u64::MAX`.
fn dur_us(d: Duration) -> u64 {
    d.as_secs()
        .saturating_mul(1_000_000)
        .saturating_add(u64::from(d.subsec_micros()))
}

/// Microseconds from `base` to `t` (0 when `t` precedes `base`, which can
/// happen for spans recorded through a late [`TraceHandle`]).
fn us_since(base: Instant, t: Instant) -> u64 {
    dur_us(t.saturating_duration_since(base))
}

/// One completed span inside a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Stage name (`cache.lookup`, `sched.queue`, …).
    pub name: &'static str,
    /// Offset from the trace start, microseconds.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
    /// Numeric annotations (`backoff_ms`, …), accumulated by
    /// [`annotate_add`].
    pub attrs: Vec<(&'static str, f64)>,
}

/// A completed trace as reported by [`recent_traces`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Trace id (the request id).
    pub id: String,
    /// Root description (`GET /v1/sources/...`).
    pub root: String,
    /// Total wall time, microseconds (0 while still in flight).
    pub total_us: u64,
    /// Whether the trace crossed the `QR2_SLOW_MS` threshold.
    pub slow: bool,
    /// Completed spans, in completion order.
    pub spans: Vec<SpanSnapshot>,
}

struct TraceInner {
    id: String,
    root: String,
    start: Instant,
    total_us: AtomicU64,
    spans: Mutex<Vec<SpanSnapshot>>,
}

impl TraceInner {
    /// Lock the span list, recovering from std mutex poisoning: spans are
    /// append-only records, never half-written.
    fn spans(&self) -> MutexGuard<'_, Vec<SpanSnapshot>> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn snapshot(&self, slow_ms: Option<u64>) -> TraceSnapshot {
        let total_us = self.total_us.load(Ordering::Relaxed);
        TraceSnapshot {
            id: self.id.clone(),
            root: self.root.clone(),
            total_us,
            slow: slow_ms.is_some_and(|ms| total_us >= ms.saturating_mul(1000)),
            spans: self.spans().clone(),
        }
    }
}

/// A cloneable reference to an active (or completed) trace, for
/// producers that outlive the request's middleware chain (NDJSON
/// streams).
#[derive(Clone)]
pub struct TraceHandle {
    inner: Arc<TraceInner>,
}

impl TraceHandle {
    /// Run `f` with this trace as the thread's ambient trace, so nested
    /// [`span`] calls record into it.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct PopGuard;
        impl Drop for PopGuard {
            fn drop(&mut self) {
                if let Some(active) = CTX.with(|c| c.borrow_mut().stack.pop()) {
                    active.flush();
                }
            }
        }
        CTX.with(|c| {
            c.borrow_mut().stack.push(ActiveTrace {
                inner: Arc::clone(&self.inner),
                buf: Vec::new(),
            })
        });
        let _restore = PopGuard;
        f()
    }
}

struct OpenSpan {
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, f64)>,
}

/// One entry of the ambient trace stack: completed spans buffer in the
/// thread-local `buf` (no lock per span) and flush into the shared trace
/// in one batch when the entry pops.
struct ActiveTrace {
    inner: Arc<TraceInner>,
    buf: Vec<SpanSnapshot>,
}

impl ActiveTrace {
    fn flush(self) {
        if !self.buf.is_empty() {
            self.inner.spans().extend(self.buf);
        }
    }
}

/// The thread's tracing context: the ambient trace stack, the stack of
/// currently open (annotatable) spans, and the stage-histogram memo. One
/// struct so the span hot path touches a single thread-local.
#[derive(Default)]
struct TraceCtx {
    stack: Vec<ActiveTrace>,
    open: Vec<OpenSpan>,
    /// Memo of stage name → stage histogram: closing a span must not pay
    /// the registry lock and label-key formatting on every call (stage
    /// names are a small static set).
    stage_hists: Vec<(&'static str, Arc<crate::Histogram>)>,
}

thread_local! {
    static CTX: RefCell<TraceCtx> = RefCell::new(TraceCtx::default());
}

/// Record `dur` into the `qr2_stage_duration_us{stage=…}` histogram,
/// resolved through the context's memo (pointer identity first — stage
/// names are `&'static str` literals — then by value on a miss).
fn record_stage(
    memo: &mut Vec<(&'static str, Arc<crate::Histogram>)>,
    stage: &'static str,
    dur: Duration,
) {
    if let Some((_, hist)) = memo
        .iter()
        .find(|(s, _)| std::ptr::eq(*s, stage) || *s == stage)
    {
        hist.record(dur);
        return;
    }
    let hist = crate::global().histogram("qr2_stage_duration_us", &[("stage", stage)]);
    hist.record(dur);
    memo.push((stage, hist));
}

/// Bounded ring of recent completed traces.
const RING_CAP: usize = 128;
/// Bounded ring of recent slow traces.
const SLOW_CAP: usize = 64;

struct Rings {
    recent: VecDeque<Arc<TraceInner>>,
    slow: VecDeque<Arc<TraceInner>>,
}

static RINGS: OnceLock<Mutex<Rings>> = OnceLock::new();

fn rings() -> MutexGuard<'static, Rings> {
    RINGS
        .get_or_init(|| {
            Mutex::new(Rings {
                recent: VecDeque::with_capacity(RING_CAP),
                slow: VecDeque::with_capacity(SLOW_CAP),
            })
        })
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Slow threshold storage: `-1` = disabled, else milliseconds. Seeded
/// from `QR2_SLOW_MS` on first use; the env read happens once — the trace
/// finish path runs per request and must not pay the env lock.
static SLOW_MS: OnceLock<AtomicI64> = OnceLock::new();

fn slow_ms_cell() -> &'static AtomicI64 {
    SLOW_MS.get_or_init(|| {
        let ms = std::env::var("QR2_SLOW_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map_or(-1, |v| v.min(i64::MAX as u64) as i64);
        AtomicI64::new(ms)
    })
}

/// The slow-trace threshold (`None` disables the slow log). Seeded from
/// the `QR2_SLOW_MS` environment variable at first use; changeable at
/// runtime through [`set_slow_threshold_ms`].
pub fn slow_threshold_ms() -> Option<u64> {
    let ms = slow_ms_cell().load(Ordering::Relaxed);
    u64::try_from(ms).ok()
}

/// Override the slow-trace threshold at runtime (`None` disables the
/// slow log). Wins over the `QR2_SLOW_MS` environment variable.
pub fn set_slow_threshold_ms(ms: Option<u64>) {
    let v = ms.map_or(-1, |v| v.min(i64::MAX as u64) as i64);
    slow_ms_cell().store(v, Ordering::Relaxed);
}

/// Trace-sampling period for requests without an explicit id: 1 traces
/// every request, N traces every Nth. Seeded from `QR2_TRACE_SAMPLE`
/// (default 16) at first use. Explicitly-id'd requests (a client-supplied
/// `x-request-id`) are always traced, and every slow request still lands
/// in the slow log via [`record_slow_root`] — sampling only bounds the
/// cost of full span capture on bulk traffic.
pub fn trace_sample_every() -> u64 {
    static SAMPLE: OnceLock<u64> = OnceLock::new();
    *SAMPLE.get_or_init(|| {
        std::env::var("QR2_TRACE_SAMPLE")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&v| v >= 1)
            .unwrap_or(16)
    })
}

/// Slow-log backstop for requests whose trace was not sampled: when
/// `total` crosses the `QR2_SLOW_MS` threshold, record a spanless trace
/// (root + total only) into the recent and slow rings and write the slow
/// line to stderr, so the slow log stays exhaustive under sampling.
/// `root` is built lazily — the common (fast) request pays one threshold
/// compare. No-op when instrumentation is disabled or the threshold is
/// unset/uncrossed.
pub fn record_slow_root(id: &str, root: impl FnOnce() -> String, total: Duration) {
    if !crate::enabled() {
        return;
    }
    let total_us = dur_us(total);
    let slow = slow_threshold_ms().is_some_and(|ms| total_us >= ms.saturating_mul(1000));
    if !slow {
        return;
    }
    let inner = Arc::new(TraceInner {
        id: id.to_string(),
        root: root(),
        start: Instant::now(),
        total_us: AtomicU64::new(total_us),
        spans: Mutex::new(Vec::new()),
    });
    let mut rings = rings();
    if rings.recent.len() >= RING_CAP {
        rings.recent.pop_front();
    }
    rings.recent.push_back(Arc::clone(&inner));
    if rings.slow.len() >= SLOW_CAP {
        rings.slow.pop_front();
    }
    rings.slow.push_back(Arc::clone(&inner));
    drop(rings);
    eprintln!(
        "qr2-obs: slow trace id={} root=\"{}\" total_ms={} spans=0 (unsampled)",
        inner.id,
        inner.root,
        total_us / 1000,
    );
}

/// Run `f` inside a new trace identified by `id` (the request id) with
/// root description `root`. On completion the trace is pushed into the
/// recent-traces ring; if its total wall time crosses `QR2_SLOW_MS` it
/// also lands in the slow ring and one summary line goes to stderr.
///
/// Nested calls stack (innermost wins), mirroring
/// `qr2_core::with_session`.
pub fn with_trace<R>(id: &str, root: &str, f: impl FnOnce() -> R) -> R {
    if !crate::enabled() {
        return f();
    }
    let inner = Arc::new(TraceInner {
        id: id.to_string(),
        root: root.to_string(),
        start: Instant::now(),
        total_us: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    });
    struct FinishGuard {
        inner: Arc<TraceInner>,
    }
    impl Drop for FinishGuard {
        fn drop(&mut self) {
            if let Some(active) = CTX.with(|c| c.borrow_mut().stack.pop()) {
                active.flush();
            }
            let total_us = dur_us(self.inner.start.elapsed());
            self.inner.total_us.store(total_us, Ordering::Relaxed);
            let slow = slow_threshold_ms().is_some_and(|ms| total_us >= ms.saturating_mul(1000));
            let mut rings = rings();
            if rings.recent.len() >= RING_CAP {
                rings.recent.pop_front();
            }
            rings.recent.push_back(Arc::clone(&self.inner));
            if slow {
                if rings.slow.len() >= SLOW_CAP {
                    rings.slow.pop_front();
                }
                rings.slow.push_back(Arc::clone(&self.inner));
                drop(rings);
                eprintln!(
                    "qr2-obs: slow trace id={} root=\"{}\" total_ms={} spans={}",
                    self.inner.id,
                    self.inner.root,
                    total_us / 1000,
                    self.inner.spans().len(),
                );
            }
        }
    }
    CTX.with(|c| {
        c.borrow_mut().stack.push(ActiveTrace {
            inner: Arc::clone(&inner),
            buf: Vec::new(),
        })
    });
    let _finish = FinishGuard { inner };
    f()
}

/// The ambient trace of this thread, if one is active.
pub fn current_handle() -> Option<TraceHandle> {
    CTX.with(|c| {
        c.borrow().stack.last().map(|active| TraceHandle {
            inner: Arc::clone(&active.inner),
        })
    })
}

/// Time `f` as pipeline stage `stage`: the duration is recorded into the
/// `qr2_stage_duration_us{stage=…}` histogram of the global registry,
/// and — when a trace is ambient on this thread — as a span of that
/// trace. Near-zero cost when instrumentation is disabled.
pub fn span<R>(stage: &'static str, f: impl FnOnce() -> R) -> R {
    if !crate::enabled() {
        return f();
    }
    struct CloseGuard {
        name: &'static str,
        start: Instant,
        /// Whether an [`OpenSpan`] was pushed at open time (only when a
        /// trace was ambient — outside a trace there is nothing for
        /// [`annotate_add`] to attach to and nothing to snapshot).
        registered: bool,
    }
    impl Drop for CloseGuard {
        fn drop(&mut self) {
            let dur = self.start.elapsed();
            CTX.with(|c| {
                let mut ctx = c.borrow_mut();
                let ctx = &mut *ctx;
                if self.registered {
                    if let Some(open) = ctx.open.pop() {
                        if let Some(active) = ctx.stack.last_mut() {
                            active.buf.push(SpanSnapshot {
                                name: open.name,
                                start_us: us_since(active.inner.start, open.start),
                                dur_us: dur_us(dur),
                                attrs: open.attrs,
                            });
                        }
                    }
                }
                record_stage(&mut ctx.stage_hists, self.name, dur);
            });
        }
    }
    let start = Instant::now();
    let registered = CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        if ctx.stack.is_empty() {
            return false;
        }
        ctx.open.push(OpenSpan {
            name: stage,
            start,
            attrs: Vec::new(),
        });
        true
    });
    let _close = CloseGuard {
        name: stage,
        start,
        registered,
    };
    f()
}

/// A pre-resolved timer for **sub-microsecond** pipeline stages (a warm
/// cache probe runs in the low hundreds of nanoseconds — two clock reads
/// per call would be a measurable tax on the serving path). A `Stage`
/// holds its histogram handle from construction and records — duration
/// sample and trace span — only when the request's trace was sampled;
/// on unsampled requests one call costs a single thread-local check.
/// Exact stage *counts* belong in dedicated counters (e.g.
/// `qr2_cache_lookups_total`); the duration histogram is fed by sampled
/// requests, the same trade production tracing systems make for span
/// metrics. The closure cannot [`annotate_add`] onto this span (use
/// [`span`] where that matters), and unlike [`span`] nothing is recorded
/// if `f` unwinds.
pub struct Stage {
    name: &'static str,
    hist: Arc<crate::Histogram>,
}

impl Stage {
    /// Resolve the `qr2_stage_duration_us{stage=name}` histogram once.
    pub fn new(name: &'static str) -> Stage {
        Stage {
            name,
            hist: crate::global().histogram("qr2_stage_duration_us", &[("stage", name)]),
        }
    }

    /// Time `f` as this stage when a (sampled) trace is ambient;
    /// otherwise just run it.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !crate::enabled() {
            return f();
        }
        let base = CTX.with(|c| c.borrow().stack.last().map(|a| a.inner.start));
        let Some(base) = base else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.hist.record(dur);
        CTX.with(|c| {
            if let Some(active) = c.borrow_mut().stack.last_mut() {
                active.buf.push(SpanSnapshot {
                    name: self.name,
                    start_us: us_since(base, start),
                    dur_us: dur_us(dur),
                    attrs: Vec::new(),
                });
            }
        });
        out
    }
}

/// Add `v` to the numeric attribute `key` of the innermost open span
/// (creating it at `v`). No-op outside a span.
pub fn annotate_add(key: &'static str, v: f64) {
    CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        if let Some(span) = ctx.open.last_mut() {
            match span.attrs.iter_mut().find(|(k, _)| *k == key) {
                Some((_, cur)) => *cur += v,
                None => span.attrs.push((key, v)),
            }
        }
    });
}

/// Recent completed traces, oldest first. With `slow_only`, only traces
/// that crossed the `QR2_SLOW_MS` threshold at completion time.
pub fn recent_traces(slow_only: bool) -> Vec<TraceSnapshot> {
    let slow_ms = slow_threshold_ms();
    let rings = rings();
    let source = if slow_only {
        &rings.slow
    } else {
        &rings.recent
    };
    source.iter().map(|t| t.snapshot(slow_ms)).collect()
}

/// Find a completed trace by id (most recent match).
pub fn find_trace(id: &str) -> Option<TraceSnapshot> {
    let slow_ms = slow_threshold_ms();
    let rings = rings();
    rings
        .recent
        .iter()
        .rev()
        .find(|t| t.id == id)
        .map(|t| t.snapshot(slow_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Tests that rely on the global enabled flag serialize on this lock
    /// so `disabled_instrumentation_skips_tracing` cannot race them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_inside_a_trace_are_recorded() {
        let _serial = lock();
        let id = format!("trace-test-{}", std::process::id());
        let out = with_trace(&id, "GET /test", || {
            span("cache.lookup", || {
                std::thread::sleep(Duration::from_millis(2));
                7
            })
        });
        assert_eq!(out, 7);
        let t = find_trace(&id).expect("trace in ring");
        assert_eq!(t.root, "GET /test");
        assert!(t.total_us >= 1000, "{}", t.total_us);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans.first().map(|s| s.name), Some("cache.lookup"));
        assert!(t.spans.first().is_some_and(|s| s.dur_us >= 1000));
    }

    #[test]
    fn spans_outside_a_trace_only_feed_the_histogram() {
        let _serial = lock();
        let before = crate::global()
            .histogram("qr2_stage_duration_us", &[("stage", "test.naked")])
            .count();
        span("test.naked", || {});
        let after = crate::global()
            .histogram("qr2_stage_duration_us", &[("stage", "test.naked")])
            .count();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn annotations_accumulate_on_the_open_span() {
        let _serial = lock();
        let id = format!("trace-ann-{}", std::process::id());
        with_trace(&id, "GET /ann", || {
            span("sched.queue", || {
                annotate_add("backoff_ms", 3.0);
                annotate_add("backoff_ms", 4.5);
            })
        });
        let t = find_trace(&id).expect("trace in ring");
        let span = t.spans.first().expect("one span");
        assert_eq!(span.attrs, vec![("backoff_ms", 7.5)]);
    }

    #[test]
    fn annotate_outside_any_span_is_a_noop() {
        annotate_add("orphan", 1.0);
    }

    #[test]
    fn handle_records_late_spans_into_the_completed_trace() {
        let _serial = lock();
        let id = format!("trace-late-{}", std::process::id());
        let handle = with_trace(&id, "GET /stream", || {
            current_handle().expect("trace active")
        });
        // The trace is complete; a streaming producer still appends.
        handle.enter(|| span("stream.page", || {}));
        let t = find_trace(&id).expect("trace in ring");
        assert!(t.spans.iter().any(|s| s.name == "stream.page"));
    }

    #[test]
    fn trace_survives_unwind_and_stack_pops() {
        let _serial = lock();
        let id = format!("trace-unwind-{}", std::process::id());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_trace(&id, "GET /boom", || span("cache.lookup", || panic!("boom")))
        }));
        assert!(caught.is_err());
        assert!(current_handle().is_none(), "trace stack popped on unwind");
        assert!(find_trace(&id).is_some(), "unwound trace still completes");
    }

    #[test]
    fn stage_records_span_and_histogram_only_when_traced() {
        let _serial = lock();
        let stage = Stage::new("test.stage");
        let before = stage.hist.count();
        stage.time(|| {});
        assert_eq!(
            stage.hist.count(),
            before,
            "an untraced stage call records nothing"
        );
        let id = format!("trace-stage-{}", std::process::id());
        let out = with_trace(&id, "GET /stage", || stage.time(|| 5));
        assert_eq!(out, 5);
        assert_eq!(stage.hist.count(), before + 1);
        let t = find_trace(&id).expect("trace in ring");
        assert_eq!(t.spans.first().map(|s| s.name), Some("test.stage"));
    }

    #[test]
    fn slow_root_backstop_records_only_over_threshold() {
        let _serial = lock();
        let was = slow_threshold_ms();
        set_slow_threshold_ms(Some(5));
        let fast = format!("slow-fast-{}", std::process::id());
        record_slow_root(&fast, || "GET /fast".into(), Duration::from_millis(1));
        assert!(find_trace(&fast).is_none(), "under threshold: nothing");
        let slow = format!("slow-slow-{}", std::process::id());
        record_slow_root(&slow, || "GET /slow".into(), Duration::from_millis(9));
        let t = find_trace(&slow).expect("over threshold lands in the rings");
        assert!(t.slow, "{t:?}");
        assert!(t.spans.is_empty(), "backstop traces carry no spans");
        assert!(t.total_us >= 9000, "{}", t.total_us);
        assert!(recent_traces(true).iter().any(|t| t.id == slow));
        set_slow_threshold_ms(was);
    }

    #[test]
    fn disabled_instrumentation_skips_tracing() {
        let _serial = lock();
        crate::set_enabled(false);
        let id = format!("trace-off-{}", std::process::id());
        with_trace(&id, "GET /off", || span("cache.lookup", || {}));
        crate::set_enabled(true);
        assert!(
            find_trace(&id).is_none(),
            "no trace recorded while disabled"
        );
    }
}
