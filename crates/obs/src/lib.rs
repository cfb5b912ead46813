//! # qr2-obs — unified observability for the QR2 serving pipeline
//!
//! QR2's defining economics are per-query cost against a restrictive
//! top-k web-DB interface; an operator has to be able to see *where* a
//! request's latency and paid queries go. This crate is the shared
//! substrate every serving layer records into:
//!
//! * a process-global **metrics registry** ([`Registry`]) of atomic
//!   counters, gauges, and mergeable log-linear latency histograms
//!   (O(1) record, exact-bucket p50/p99/p999 snapshots), keyed by
//!   labeled families (source / algorithm / query class / pipeline
//!   stage) and rendered as Prometheus text or structured snapshots;
//! * **request tracing** ([`trace`]): an ambient thread-local span stack
//!   (the same pattern as `qr2_core::with_session`) that the pipeline stages
//!   — `cache.lookup`, `sched.queue`, `traffic.shape`, `webdb.search`,
//!   `recon.serve`, `stream.page` — record timed spans into, a bounded
//!   ring of recent completed traces, and a slow-trace log gated by the
//!   `QR2_SLOW_MS` environment variable. Full span capture is
//!   head-sampled on bulk traffic (`QR2_TRACE_SAMPLE`, default every
//!   16th request): explicitly-id'd requests are always traced, metrics
//!   and stage histograms always record exactly, and every slow request
//!   still reaches the slow log through [`trace::record_slow_root`].
//!
//! The crate is dependency-free (std only) so every layer of the
//! workspace — `qr2-webdb` at the bottom through `qr2-service` at the
//! top — can depend on it without cycles.
//!
//! Instrumentation can be globally disabled ([`set_enabled`]) so the
//! overhead of the span/metric fast path is itself measurable (the
//! `obs_smoke` bench asserts it stays within budget).

mod metrics;
pub mod trace;

pub use metrics::{
    global, render_prometheus_family, Counter, FamilyKind, FamilySnapshot, Gauge, Histogram,
    HistogramSnapshot, MetricSnapshot, MetricValue, Registry,
};
pub use trace::{
    annotate_add, current_handle, find_trace, recent_traces, record_slow_root,
    set_slow_threshold_ms, slow_threshold_ms, span, trace_sample_every, with_trace, SpanSnapshot,
    Stage, TraceHandle, TraceSnapshot,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable span recording (metrics registered through
/// explicit handles keep working). The `obs_smoke` bench flips this to
/// measure instrumented-vs-uninstrumented overhead.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span instrumentation is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Get-or-create a counter in the global registry.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> std::sync::Arc<Counter> {
    global().counter(name, labels)
}

/// Get-or-create a gauge in the global registry.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> std::sync::Arc<Gauge> {
    global().gauge(name, labels)
}

/// Get-or-create a histogram in the global registry.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> std::sync::Arc<Histogram> {
    global().histogram(name, labels)
}
