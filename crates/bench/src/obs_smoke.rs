//! Smoke scenario `BENCH_pr9.json`: the cost of the qr2-obs
//! observability substrate on a warm-cache get-next **request** through
//! the full serving stack, with instrumentation enabled (trace installed
//! by `RequestId`, per-route metrics, `cache.lookup` spans) versus
//! globally disabled (`qr2_obs::set_enabled(false)`, the pre-obs
//! behaviour).
//!
//! Each measured request is `POST /v1/sources/bench/queries` against a
//! warm shared answer cache: the session's whole first page is served
//! from cache hits, zero web-DB queries are paid, and the request is
//! deleted untimed afterwards — so the only variable between the two
//! sides is instrumentation. Rounds interleave disabled/enabled timings
//! and each side keeps its fastest round, so scheduler noise and thermal
//! drift hit both sides alike.
//!
//! Trace capture is head-sampled (`QR2_TRACE_SAMPLE`, see
//! `docs/OBSERVABILITY.md`), so the fastest enabled round measures what
//! bulk traffic pays: exact per-route/per-source metrics plus the
//! sampling checks — full span capture lands on the sampled and
//! explicitly-id'd requests. An untimed id'd round per algorithm
//! verifies span capture end to end and feeds `spans_recorded`.
//!
//! The runner checks the contract `overhead` (total enabled µs / total
//! disabled µs) ≤ 1.05: observability must never cost the serving path
//! more than 5 %. The `spans_recorded > 0` contract proves the enabled
//! side really did record (a silently disabled bench would "pass" with
//! 0 overhead).

use std::sync::Arc;
use std::time::Instant;

use qr2_core::{DenseIndex, ExecutorKind};
use qr2_http::{parse_json, Body, Handler, Json, Method, Request};
use qr2_service::{Qr2App, Source, SourceRegistry};
use qr2_webdb::TopKInterface;

use crate::report::{round, Contract, Report};
use crate::workloads::{bluenile, Scale};

/// Tuples served per measured request (the page size of the create).
pub const OBS_SMOKE_DEPTH: usize = 10;

/// Sizing knobs for [`run_obs_smoke`].
#[derive(Debug, Clone, Copy)]
pub struct ObsSmokeConfig {
    /// Interleaved measurement rounds per side (fastest round kept).
    pub rounds: usize,
}

impl Default for ObsSmokeConfig {
    fn default() -> Self {
        ObsSmokeConfig { rounds: 200 }
    }
}

/// Restores the process-global obs switch when the run ends, even on
/// panic, so a failing bench cannot leave the registry disabled for
/// other tests in the same binary.
struct EnabledGuard(bool);

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        qr2_obs::set_enabled(self.0);
    }
}

/// The measured case set: create-query bodies per algorithm family.
fn obs_cases() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "1d-binary",
            "1d",
            r#"{"ranking":{"type":"1d","attr":"price","dir":"desc"},
                "algorithm":"1d-binary","page_size":10}"#,
        ),
        (
            "md-rerank",
            "md",
            r#"{"ranking":{"type":"md","weights":{"price":1.0,"carat":-0.5}},
                "algorithm":"md-rerank","page_size":10}"#,
        ),
        (
            "md-ta",
            "md",
            r#"{"ranking":{"type":"md","weights":{"price":1.0,"carat":-0.5}},
                "algorithm":"md-ta","page_size":10}"#,
        ),
    ]
}

/// Run the interleaved enabled-vs-disabled warm workload through the
/// full service handler.
pub fn run_obs_smoke(cfg: &ObsSmokeConfig) -> Report {
    let mut reg = SourceRegistry::new();
    reg.register(Source::new(
        "bench",
        "fixed-seed diamonds",
        bluenile(Scale::Small) as Arc<dyn TopKInterface>,
        ExecutorKind::Sequential,
        Arc::new(DenseIndex::in_memory()),
        vec![],
    ));
    let app = Qr2App::new(reg);
    let handler = app.handler();

    let _restore = EnabledGuard(qr2_obs::enabled());
    let lookup_spans = qr2_obs::histogram("qr2_stage_duration_us", &[("stage", "cache.lookup")]);
    let spans_before = lookup_spans.count();

    // One warm create-request (serves the whole first page from cache),
    // deleted untimed; returns the request's wall µs. A `rid` forces the
    // request to be traced (client-supplied ids always are).
    let request = |body: &'static str, rid: Option<&str>| -> f64 {
        let mut req = Request::test(
            Method::Post,
            "/v1/sources/bench/queries",
            body.as_bytes().to_vec(),
        );
        req.headers
            .insert("content-type".into(), "application/json".into());
        if let Some(rid) = rid {
            req.headers.insert("x-request-id".into(), rid.to_string());
        }
        let start = Instant::now();
        let resp = handler.handle(&req);
        let us = start.elapsed().as_secs_f64() * 1e6;
        assert_eq!(resp.status.code(), 201, "create must succeed");
        let text = match &resp.body {
            Body::Bytes(b) => String::from_utf8_lossy(b).into_owned(),
            _ => panic!("create responses are buffered"),
        };
        let page = parse_json(&text).expect("create returns JSON");
        let id = page
            .get("query_id")
            .and_then(|v| v.as_str())
            .expect("create returns a query id")
            .to_string();
        let del = Request::test(Method::Delete, &format!("/v1/queries/{id}"), Vec::new());
        assert_eq!(handler.handle(&del).status.code(), 204, "cleanup");
        us
    };

    let (mut cases, mut timings) = (Vec::new(), Vec::new());
    let mut total_disabled_us = 0.0;
    let mut total_enabled_us = 0.0;
    for (algorithm, family, body) in obs_cases() {
        // Cold pass (pays the web-DB queries that warm the shared
        // cache); its obs state is irrelevant — it is not timed.
        qr2_obs::set_enabled(false);
        request(body, None);

        // One explicitly-id'd warm round (untimed): client-supplied ids
        // are always traced, so this proves full span capture works and
        // feeds the `spans_recorded` sanity counter even when no sampled
        // round lands in the measurement loop.
        qr2_obs::set_enabled(true);
        request(body, Some(&format!("obs-smoke-{algorithm}")));

        let mut disabled_us = f64::INFINITY;
        let mut enabled_us = f64::INFINITY;
        for _ in 0..cfg.rounds.max(1) {
            qr2_obs::set_enabled(false);
            disabled_us = disabled_us.min(request(body, None));
            qr2_obs::set_enabled(true);
            enabled_us = enabled_us.min(request(body, None));
        }
        total_disabled_us += disabled_us;
        total_enabled_us += enabled_us;
        cases.push(Json::obj([
            ("algorithm", algorithm.into()),
            ("family", family.into()),
            ("tuples", OBS_SMOKE_DEPTH.into()),
        ]));
        timings.push(Json::obj([
            ("algorithm", algorithm.into()),
            ("disabled_request_us", round(disabled_us, 2).into()),
            ("enabled_request_us", round(enabled_us, 2).into()),
            ("overhead", round(enabled_us / disabled_us, 4).into()),
        ]));
    }

    let overhead = round(total_enabled_us / total_disabled_us, 4);
    let spans_recorded = lookup_spans.count() - spans_before;
    Report {
        bench: "pr9_obs_smoke".into(),
        workload: "bluenile_small_warm_create_query".into(),
        deterministic: Json::obj([
            ("depth", OBS_SMOKE_DEPTH.into()),
            ("rounds", cfg.rounds.into()),
            ("records", cases.into()),
        ]),
        measured: Json::obj([
            ("records", timings.into()),
            ("spans_recorded", Json::Num(spans_recorded as f64)),
            ("overhead", overhead.into()),
        ]),
        contracts: vec![
            Contract::new(
                "spans_recorded",
                spans_recorded > 0,
                "the instrumented side recorded no spans; the obs smoke measured nothing",
            ),
            Contract::new(
                "overhead_ceiling",
                overhead <= 1.05,
                format!(
                    "observability costs {overhead}x on the warm serving path; the ceiling is \
                     1.05 (5% overhead)"
                ),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::num;

    #[test]
    fn obs_smoke_measures_and_restores_the_switch() {
        let was = qr2_obs::enabled();
        let report = run_obs_smoke(&ObsSmokeConfig { rounds: 2 });
        assert_eq!(qr2_obs::enabled(), was, "global switch must be restored");
        let records = report.records("records");
        assert_eq!(records.len(), 3);
        assert!(
            num(&report.measured, "spans_recorded") > 0.0,
            "enabled requests must record cache.lookup spans"
        );
        for r in &records {
            assert!(num(r, "disabled_request_us") > 0.0 && num(r, "enabled_request_us") > 0.0);
            assert!(num(r, "overhead").is_finite(), "{r}");
        }
        // Debug builds are too noisy for the 5 % bound; the runner checks
        // it on the release-build report instead. Sanity only here.
        let overhead = num(&report.measured, "overhead");
        assert!(overhead > 0.0 && overhead.is_finite());
    }
}
