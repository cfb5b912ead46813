//! End-to-end tests for the qr2-obs observability surface: Prometheus
//! exposition on `GET /metrics`, request traces on
//! `GET /v1/observe/traces`, and the pipeline spans recorded by the
//! serving stack (cache hits skip `webdb.search`; throttled probes record
//! `sched.queue` backoff).
//!
//! All four tests drive the full middleware stack (`Qr2App::handler`),
//! so traces are installed by the real `RequestId` layer and metrics by
//! the real `MetricsLayer`, exactly as over TCP. The metrics registry and
//! trace ring are process-global, so assertions are monotone (`>=`,
//! presence) rather than exact.

use std::sync::Arc;

use qr2::cache::{AnswerCache, CacheConfig};
use qr2::core::ExecutorKind;
use qr2::http::{Body, Handler, Method, Request};
use qr2::service::{Qr2App, Source, SourceRegistry};
use qr2::webdb::{
    Schema, SimulatedWebDb, SourcePolicy, SystemRanking, TableBuilder, TopKInterface,
};

/// A small deterministic 1D inventory (hidden ranking opposes the test
/// queries, so pages cost real probes).
fn inventory() -> Arc<SimulatedWebDb> {
    let schema = Schema::builder().numeric("x", 0.0, 100.0).build();
    let mut tb = TableBuilder::new(schema.clone());
    for i in 0..60 {
        tb.push_row(vec![((i * 37) % 60) as f64 * 1.5]).unwrap();
    }
    let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
    Arc::new(SimulatedWebDb::new(tb.build(), ranking, 2))
}

fn registry() -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    reg.register(
        Source::builder(
            "fast",
            "zero-latency test inventory",
            inventory() as Arc<dyn TopKInterface>,
        )
        .executor(ExecutorKind::Sequential)
        .build(),
    );
    reg
}

const QUERY_BODY: &str = r#"{"ranking":{"type":"1d","attr":"x","dir":"desc"},
    "algorithm":"1d-binary","page_size":3}"#;

fn create_query(handler: &impl Handler, source: &str, request_id: &str) -> u16 {
    let mut req = Request::test(
        Method::Post,
        &format!("/v1/sources/{source}/queries"),
        QUERY_BODY.as_bytes().to_vec(),
    );
    req.headers
        .insert("content-type".into(), "application/json".into());
    req.headers.insert("x-request-id".into(), request_id.into());
    handler.handle(&req).status.code()
}

fn body_text(body: Body) -> String {
    match body {
        Body::Bytes(b) => String::from_utf8(b).expect("utf-8 body"),
        Body::Stream(_) => panic!("expected a buffered body"),
    }
}

/// Minimal Prometheus text-format check: every line is a well-formed
/// comment (`# TYPE` / `# HELP`) or a `name{labels} value` sample.
fn assert_prometheus_text(text: &str) {
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            assert!(
                rest.starts_with("TYPE ") || rest.starts_with("HELP "),
                "malformed comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line}");
        });
        let name = series.split('{').next().unwrap_or("");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unterminated label set: {line}");
        }
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "bad sample value in: {line}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition contained no samples");
}

#[test]
fn metrics_exposition_parses_and_counts_a_known_request() {
    let app = Qr2App::new(registry());
    let handler = app.handler();

    let health = Request::test(Method::Get, "/api/health", Vec::new());
    assert_eq!(handler.handle(&health).status.code(), 200);
    // One real query so the pipeline-stage histograms have samples.
    assert_eq!(create_query(&handler, "fast", "obs-e2e-metrics"), 201);

    let resp = handler.handle(&Request::test(Method::Get, "/metrics", Vec::new()));
    assert_eq!(resp.status.code(), 200);
    let ct = resp.header("Content-Type").expect("content type");
    assert!(ct.starts_with("text/plain"), "{ct}");
    let text = body_text(resp.body);
    assert_prometheus_text(&text);

    // The health request we just made is counted, with its route template.
    let line = text
        .lines()
        .find(|l| {
            l.starts_with("qr2_http_requests_total{")
                && l.contains("route=\"/api/health\"")
                && l.contains("status=\"200\"")
        })
        .unwrap_or_else(|| panic!("no /api/health sample in:\n{text}"));
    let count: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 1.0, "{line}");

    // Per-stage latency histograms and per-source paid-query counters.
    assert!(
        text.contains("qr2_stage_duration_us_bucket{"),
        "missing stage histograms"
    );
    assert!(
        text.contains("qr2_source_paid_queries_total{source=\"fast\"}"),
        "missing paid-query counter"
    );
    assert!(
        text.contains("qr2_recon_coverage_ratio{source=\"fast\"}"),
        "missing recon coverage gauge"
    );
}

/// Every route the app registers labels its requests with its own
/// pattern, whatever the request's method, and a path no route matches
/// labels as `other`.
#[test]
fn every_route_labels_requests_with_its_pattern() {
    let app = Qr2App::new(registry());
    let handler = app.handler();
    let router = app.router();
    let patterns: Vec<&str> = router.patterns().collect();
    assert!(patterns.len() >= 22, "{patterns:?}");
    for pattern in &patterns {
        let path = pattern.replace(":source", "fast").replace(":id", "s404");
        assert_eq!(router.template(&path), Some(*pattern), "{path}");
        // A GET on a route of another method is a 405, labelled all the same.
        handler.handle(&Request::test(Method::Get, &path, Vec::new()));
    }
    assert_eq!(router.template("/v1/no/such/route"), None);
    let unknown = Request::test(Method::Get, "/v1/no/such/route", Vec::new());
    assert_eq!(handler.handle(&unknown).status.code(), 404);

    let metrics = Request::test(Method::Get, "/metrics", Vec::new());
    let text = body_text(handler.handle(&metrics).body);
    let labelled = |route: &str| {
        let label = format!("route=\"{route}\"");
        text.lines()
            .any(|l| l.starts_with("qr2_http_requests_total{") && l.contains(&label))
    };
    for pattern in patterns {
        assert!(labelled(pattern), "no request labelled {pattern}");
    }
    assert!(labelled("other"), "no request labelled other");
}

#[test]
fn warm_cache_hit_trace_has_no_webdb_search_spans() {
    let app = Qr2App::new(registry());
    let handler = app.handler();

    assert_eq!(create_query(&handler, "fast", "obs-e2e-cold"), 201);
    assert_eq!(create_query(&handler, "fast", "obs-e2e-warm"), 201);

    let cold = qr2::obs::find_trace("obs-e2e-cold").expect("cold trace recorded");
    assert!(
        cold.spans.iter().any(|s| s.name == "webdb.search"),
        "cold query should have paid web-DB searches, got {:?}",
        cold.spans
    );

    // The identical second query is answered from the shared cache: its
    // trace has cache lookups but not a single web-DB search.
    let warm = qr2::obs::find_trace("obs-e2e-warm").expect("warm trace recorded");
    assert!(
        warm.spans.iter().any(|s| s.name == "cache.lookup"),
        "warm query should record cache lookups, got {:?}",
        warm.spans
    );
    assert_eq!(
        warm.spans
            .iter()
            .filter(|s| s.name == "webdb.search")
            .count(),
        0,
        "warm query must not touch the web DB, got {:?}",
        warm.spans
    );

    // The same trace is visible over the observe endpoint.
    let resp = handler.handle(&Request::test(
        Method::Get,
        "/v1/observe/traces",
        Vec::new(),
    ));
    assert_eq!(resp.status.code(), 200);
    let v = qr2::http::parse_json(&body_text(resp.body)).unwrap();
    let traces = match v.get("traces") {
        Some(qr2::http::Json::Arr(a)) => a,
        other => panic!("bad traces payload: {other:?}"),
    };
    let warm_json = traces
        .iter()
        .find(|t| t.get("id").and_then(|i| i.as_str()) == Some("obs-e2e-warm"))
        .expect("warm trace exposed over HTTP");
    assert_eq!(
        warm_json.get("root").and_then(|r| r.as_str()),
        Some("POST /v1/sources/fast/queries")
    );
}

#[test]
fn throttled_probe_trace_records_sched_queue_backoff() {
    // burst 1.0: the first probe drains the bucket, and at 20 tokens/s the
    // next back-to-back probe of the same multi-probe session finds it
    // empty — a simulated 429 the scheduler absorbs by backing off.
    let mut reg = SourceRegistry::new();
    reg.register(
        Source::builder(
            "throttled",
            "rate-limited test inventory",
            inventory() as Arc<dyn TopKInterface>,
        )
        .policy(SourcePolicy::rate_limited(20.0, 1.0))
        .executor(ExecutorKind::Sequential)
        .cache(Arc::new(AnswerCache::new(CacheConfig {
            shards: 4,
            capacity: 1 << 12,
        })))
        .build(),
    );
    let app = Qr2App::new(reg);
    let handler = app.handler();

    assert_eq!(create_query(&handler, "throttled", "obs-e2e-throttle"), 201);

    let trace = qr2::obs::find_trace("obs-e2e-throttle").expect("throttled trace recorded");
    let backed_off = trace.spans.iter().find(|s| {
        s.name == "sched.queue" && s.attrs.iter().any(|(k, v)| *k == "backoff_ms" && *v > 0.0)
    });
    assert!(
        backed_off.is_some(),
        "expected a sched.queue span with nonzero backoff_ms, got {:?}",
        trace.spans
    );
    // The backoff also shows up as wall time: the span waited at least as
    // long as its recorded backoff.
    let span = backed_off.unwrap();
    let backoff_ms = span
        .attrs
        .iter()
        .find(|(k, _)| *k == "backoff_ms")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(
        span.dur_us as f64 >= backoff_ms * 1000.0 * 0.5,
        "span duration {}us vs backoff {}ms",
        span.dur_us,
        backoff_ms
    );
}
