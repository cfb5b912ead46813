//! Service assembly: sources + sessions + router + middleware + boot
//! procedure.

use std::sync::Arc;
use std::time::Duration;

use qr2_http::{
    AccessLog, CatchPanic, HttpServer, Json, Method, MetricsLayer, Request, RequestId,
    RequireJsonBody, Response, Router, Stack,
};
use qr2_recon::VerifyReport;

use crate::api::ApiState;
use crate::session::SessionManager;
use crate::sources::SourceRegistry;
use crate::ui::INDEX_HTML;

/// The QR2 application.
pub struct Qr2App {
    state: Arc<ApiState>,
}

impl Qr2App {
    /// Assemble the app over a source registry. Session TTL defaults to
    /// 15 minutes.
    pub fn new(registry: SourceRegistry) -> Self {
        Qr2App {
            state: Arc::new(ApiState::new(
                Arc::new(registry),
                Arc::new(SessionManager::new(Duration::from_secs(15 * 60))),
            )),
        }
    }

    /// Override the session TTL.
    pub fn with_session_ttl(self, ttl: Duration) -> Self {
        Qr2App {
            state: Arc::new(ApiState::new(
                self.state.registry.clone(),
                Arc::new(SessionManager::new(ttl)),
            )),
        }
    }

    /// The shared state (tests drive handlers directly through this).
    pub fn state(&self) -> &Arc<ApiState> {
        &self.state
    }

    /// Boot procedure (paper §II-B): check every source's persisted
    /// reconstruction against the live database ([`ReconIndex::verify`]).
    /// Returns one report per source; an empty reconstruction costs no
    /// query.
    ///
    /// Verification runs against the **raw** interface (`Source::db`) —
    /// freshness checks served from the answer cache would always look
    /// fresh. When a source's database turns out to have changed, the
    /// source forgets what it learned ([`Source::flush`]: its answer
    /// epoch advances, any persistent answers are durably invalidated,
    /// its dense regions are cleared) and the reconstruction is dropped
    /// at the new epoch.
    ///
    /// [`ReconIndex::verify`]: qr2_recon::ReconIndex::verify
    /// [`Source::flush`]: crate::Source::flush
    pub fn verify_caches(&self) -> Vec<(String, VerifyReport)> {
        self.state
            .registry
            .all()
            .iter()
            .map(|s| {
                let report = s.recon.verify(&*s.db);
                if report.stale {
                    s.flush()
                        .and_then(|epoch| s.recon.drop_index(epoch))
                        // qr2-allow: panic-path boot-time invalidation; a store that cannot forget must not serve
                        .expect("boot-time invalidation must not fail on a healthy store");
                }
                (s.name.clone(), report)
            })
            .collect()
    }

    /// Build the HTTP route table: the `/v1` resource API, the deprecated
    /// legacy `/api` shims, the embedded UI, and health.
    pub fn router(&self) -> Router {
        let st = |_: ()| Arc::clone(&self.state);
        let (s1, s2, s3, s4, s5, s6) = (st(()), st(()), st(()), st(()), st(()), st(()));
        let (s7, s8, s9, s10, s11) = (st(()), st(()), st(()), st(()), st(()));
        let (s12, s13, s14, s15) = (st(()), st(()), st(()), st(()));
        let (o1, o2, o3) = (st(()), st(()), st(()));
        let (l1, l2, l3, l4, l5) = (st(()), st(()), st(()), st(()), st(()));
        Router::new()
            .route(Method::Get, "/", |_, _| Response::html(INDEX_HTML))
            .route(Method::Get, "/api/health", |_, _| {
                Response::ok_json(&Json::obj([("status", Json::from("ok"))]))
            })
            // -- /v1: the versioned resource API.
            .route(Method::Get, "/v1/sources", move |_, _| s1.v1_sources())
            .route(Method::Get, "/v1/algorithms", move |_, _| {
                s2.v1_algorithms()
            })
            .route(
                Method::Post,
                "/v1/sources/:source/queries",
                move |req, p| s3.v1_create_query(req, p),
            )
            .route(Method::Get, "/v1/queries/:id/next", {
                let s4 = Arc::clone(&s4);
                move |req, p| s4.v1_next(req, p)
            })
            .route(Method::Post, "/v1/queries/:id/next", move |req, p| {
                s4.v1_next(req, p)
            })
            .route(Method::Get, "/v1/queries/:id/results", move |req, p| {
                s7.v1_results(req, p)
            })
            .route(Method::Get, "/v1/queries/:id/stream", move |req, p| {
                s8.v1_stream(req, p)
            })
            .route(Method::Get, "/v1/queries/:id/stats", move |_, p| {
                s5.v1_stats(p)
            })
            .route(Method::Delete, "/v1/queries/:id", move |_, p| {
                s6.v1_delete(p)
            })
            .route(Method::Get, "/v1/sources/:source/cache", move |_, p| {
                s9.v1_cache_stats(p)
            })
            .route(Method::Delete, "/v1/sources/:source/cache", move |_, p| {
                s10.v1_cache_flush(p)
            })
            .route(Method::Get, "/v1/sources/:source/sched", move |_, p| {
                s11.v1_sched_stats(p)
            })
            .route(Method::Get, "/v1/sources/:source/health", move |_, p| {
                s15.v1_source_health(p)
            })
            .route(Method::Post, "/v1/sources/:source/recon", move |req, p| {
                s12.v1_recon_start(req, p)
            })
            .route(Method::Get, "/v1/sources/:source/recon", move |_, p| {
                s13.v1_recon_status(p)
            })
            .route(Method::Delete, "/v1/sources/:source/recon", move |_, p| {
                s14.v1_recon_drop(p)
            })
            // -- Observability: Prometheus exposition + JSON snapshots.
            .route(Method::Get, "/metrics", move |_, _| o1.metrics_prometheus())
            .route(Method::Get, "/v1/observe/metrics", move |_, _| {
                o2.v1_observe_metrics()
            })
            .route(Method::Get, "/v1/observe/traces", move |req, _| {
                o3.v1_observe_traces(req)
            })
            // -- Legacy RPC-style shims (deprecated; see docs/API.md).
            .route(Method::Get, "/api/sources", move |_, _| l1.handle_sources())
            .route(Method::Post, "/api/query", move |req, _| {
                l2.handle_query(req)
            })
            .route(Method::Post, "/api/getnext", move |req, _| {
                l3.handle_getnext(req)
            })
            .route(Method::Get, "/api/session/:id/stats", move |_, p| {
                l4.handle_stats(p)
            })
            .route(Method::Delete, "/api/session/:id", move |_, p| {
                l5.handle_delete(p)
            })
    }

    /// The full request pipeline: access logging (outermost, sees the final
    /// response), request-id injection (which installs the request trace),
    /// per-route metrics, panic recovery, content-type enforcement, then
    /// the router.
    ///
    /// The `route` metric label is the matched route's pattern
    /// (`/v1/queries/:id/next`), so per-request ids and source names do not
    /// explode label cardinality; paths that match no route (scanners,
    /// typos) all share the label `other`.
    pub fn handler(&self) -> Stack {
        let router = Arc::new(self.router());
        let routes = Arc::clone(&router);
        Stack::new(move |req: &Request| router.dispatch(req))
            .layer(AccessLog::stderr_if_env())
            .layer(RequestId::new())
            .layer(MetricsLayer::new(move |req: &Request| {
                routes.template(req.routed_path()).unwrap_or("other").into()
            }))
            .layer(CatchPanic)
            .layer(RequireJsonBody)
    }

    /// Verify caches, then serve on `addr` with `workers` threads.
    ///
    /// Also starts a janitor thread that evicts idle sessions every 30
    /// seconds; it holds only a weak reference and exits by itself once
    /// the app (and its session table) is gone.
    pub fn serve(self, addr: &str, workers: usize) -> std::io::Result<HttpServer> {
        self.verify_caches();
        let sessions = Arc::downgrade(&self.state.sessions);
        std::thread::Builder::new()
            .name("qr2-session-janitor".to_string())
            .spawn(move || {
                while let Some(sessions) = sessions.upgrade() {
                    sessions.evict_idle();
                    drop(sessions);
                    std::thread::sleep(Duration::from_secs(30));
                }
            })
            // qr2-allow: panic-path thread spawn at server start; without the janitor sessions leak
            .expect("spawn janitor");
        HttpServer::start(addr, self.handler(), workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_core::ExecutorKind;
    use qr2_http::parse_json;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn app() -> Qr2App {
        Qr2App::new(SourceRegistry::demo(300, 300, ExecutorKind::Sequential))
    }

    fn http(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn body_of(resp: &str) -> &str {
        resp.split("\r\n\r\n").nth(1).unwrap_or("")
    }

    #[test]
    fn boot_verification_runs_clean() {
        let app = app();
        let reports = app.verify_caches();
        assert_eq!(reports.len(), 2);
        for (_, r) in reports {
            assert_eq!(
                r,
                VerifyReport::default(),
                "nothing to verify costs nothing"
            );
        }

        // A fresh reconstruction is checked with one query and kept.
        let s = app.state().registry.get("bluenile").unwrap();
        let opts = qr2_recon::JobOptions {
            max_queries: usize::MAX,
            ..qr2_recon::JobOptions::default()
        };
        s.recon.run_job(&*s.db, &opts, s.cache.epoch()).unwrap();
        let before = s.db.ledger().total();
        let reports = app.verify_caches();
        let (_, r) = reports.iter().find(|(name, _)| name == "bluenile").unwrap();
        assert_eq!((r.tuples, r.queries, r.stale), (300, 1, false));
        assert_eq!(s.db.ledger().total(), before + 1);
        assert_eq!(s.cache.epoch(), 0, "a fresh source is not flushed");
        assert_eq!(s.recon.status(s.schema(), 0).state, "complete");
    }

    #[test]
    fn full_http_round_trip_legacy_surface() {
        let server = app().serve("127.0.0.1:0", 2).unwrap();
        let addr = server.addr();

        // UI.
        let resp = http(addr, "GET / HTTP/1.1\r\n\r\n");
        assert!(resp.contains("QR2"));

        // Health.
        let resp = http(addr, "GET /api/health HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"ok\""));

        // Sources (legacy surface: marked deprecated with a sunset date).
        let resp = http(addr, "GET /api/sources HTTP/1.1\r\n\r\n");
        assert!(resp.contains("Deprecation: true"), "{resp}");
        assert!(resp.contains("Sunset: "), "{resp}");
        assert!(resp.contains("rel=\"successor-version\""), "{resp}");
        let v = parse_json(body_of(&resp)).unwrap();
        assert_eq!(v.get("sources").unwrap().as_arr().unwrap().len(), 2);

        // Query.
        let body = r#"{"source":"zillow","ranking":{"type":"md","weights":{"price":1.0,"sqft":-0.3}},"page_size":3}"#;
        let raw = format!(
            "POST /api/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = http(addr, &raw);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let v = parse_json(body_of(&resp)).unwrap();
        let sid = v.get("session").unwrap().as_str().unwrap().to_string();
        assert_eq!(v.get("results").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("algorithm").unwrap().as_str(), Some("MD-RERANK"));

        // Stats endpoint.
        let resp = http(
            addr,
            &format!("GET /api/session/{sid}/stats HTTP/1.1\r\n\r\n"),
        );
        let v = parse_json(body_of(&resp)).unwrap();
        assert!(v.get("queries").unwrap().as_usize().unwrap() > 0);

        // Get-next.
        let body = format!(r#"{{"session":"{sid}","page_size":4}}"#);
        let raw = format!(
            "POST /api/getnext HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = http(addr, &raw);
        let v = parse_json(body_of(&resp)).unwrap();
        assert_eq!(v.get("results").unwrap().as_arr().unwrap().len(), 4);

        // Delete session.
        let resp = http(addr, &format!("DELETE /api/session/{sid} HTTP/1.1\r\n\r\n"));
        assert!(resp.starts_with("HTTP/1.1 200"));

        server.stop();
    }

    #[test]
    fn full_http_round_trip_v1_surface() {
        let server = app().serve("127.0.0.1:0", 2).unwrap();
        let addr = server.addr();

        // Sources + algorithms.
        let resp = http(addr, "GET /v1/sources HTTP/1.1\r\n\r\n");
        let v = parse_json(body_of(&resp)).unwrap();
        assert_eq!(v.get("sources").unwrap().as_arr().unwrap().len(), 2);
        let resp = http(addr, "GET /v1/algorithms HTTP/1.1\r\n\r\n");
        let v = parse_json(body_of(&resp)).unwrap();
        assert_eq!(v.get("algorithms").unwrap().as_arr().unwrap().len(), 7);

        // Create under the source resource: 201 + Location.
        let body = r#"{"ranking":{"type":"1d","attr":"price","dir":"asc"},"page_size":3}"#;
        let raw = format!(
            "POST /v1/sources/zillow/queries HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = http(addr, &raw);
        assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
        let v = parse_json(body_of(&resp)).unwrap();
        let id = v.get("query_id").unwrap().as_str().unwrap().to_string();
        assert!(
            resp.contains(&format!("Location: /v1/queries/{id}")),
            "{resp}"
        );
        // Responses carry a request id.
        assert!(
            resp.to_ascii_lowercase().contains("x-request-id:"),
            "{resp}"
        );

        // GET next with a page-size query param.
        let resp = http(
            addr,
            &format!("GET /v1/queries/{id}/next?page_size=2 HTTP/1.1\r\n\r\n"),
        );
        let v = parse_json(body_of(&resp)).unwrap();
        assert_eq!(v.get("results").unwrap().as_arr().unwrap().len(), 2);

        // Stats, then delete (204), then stats is a structured 404.
        let resp = http(
            addr,
            &format!("GET /v1/queries/{id}/stats HTTP/1.1\r\n\r\n"),
        );
        assert!(resp.starts_with("HTTP/1.1 200"));
        let resp = http(addr, &format!("DELETE /v1/queries/{id} HTTP/1.1\r\n\r\n"));
        assert!(resp.starts_with("HTTP/1.1 204"), "{resp}");
        let resp = http(
            addr,
            &format!("GET /v1/queries/{id}/stats HTTP/1.1\r\n\r\n"),
        );
        assert!(resp.starts_with("HTTP/1.1 404"));
        let v = parse_json(body_of(&resp)).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("unknown_query")
        );

        server.stop();
    }

    #[test]
    fn v1_results_and_stream_round_trip() {
        let server = app().serve("127.0.0.1:0", 2).unwrap();
        let addr = server.addr();

        let body = r#"{"ranking":{"type":"1d","attr":"price","dir":"asc"},"page_size":2}"#;
        let raw = format!(
            "POST /v1/sources/bluenile/queries HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = http(addr, &raw);
        let id = parse_json(body_of(&resp))
            .unwrap()
            .get("query_id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();

        // Budgeted results step: whatever 1 query buys (one atomic
        // discovery, well short of 100 tuples), with a status.
        let resp = http(
            addr,
            &format!("GET /v1/queries/{id}/results?limit=100&budget=1 HTTP/1.1\r\n\r\n"),
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let v = parse_json(body_of(&resp)).unwrap();
        assert_eq!(
            v.get("status").unwrap().as_str(),
            Some("budget_exhausted"),
            "{resp}"
        );
        assert!(v.get("step_queries").unwrap().as_usize().unwrap() >= 1);

        // Malformed budget parameter: structured 400.
        let resp = http(
            addr,
            &format!("GET /v1/queries/{id}/results?budget=lots HTTP/1.1\r\n\r\n"),
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("invalid_parameter"), "{resp}");

        // NDJSON stream: chunked transfer, one tuple event per line, then
        // a summary line.
        let resp = http(
            addr,
            &format!("GET /v1/queries/{id}/stream?limit=3 HTTP/1.1\r\n\r\n"),
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("Transfer-Encoding: chunked"), "{resp}");
        assert!(resp.contains("application/x-ndjson"), "{resp}");
        assert_eq!(resp.matches("\"event\":\"tuple\"").count(), 3, "{resp}");
        assert_eq!(resp.matches("\"event\":\"summary\"").count(), 1, "{resp}");
        assert!(resp.contains("\"status\":\"complete\""), "{resp}");

        // Streaming an unknown id is still a structured 404, not a stream.
        let resp = http(addr, "GET /v1/queries/s999999/stream HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        assert!(resp.contains("unknown_query"), "{resp}");

        server.stop();
    }

    #[test]
    fn cache_endpoints_round_trip_and_second_user_is_free() {
        let server = app().serve("127.0.0.1:0", 2).unwrap();
        let addr = server.addr();

        let run = |label: &str| -> (String, usize) {
            let body = r#"{"ranking":{"type":"1d","attr":"price","dir":"desc"},"algorithm":"1d-binary","page_size":4}"#;
            let raw = format!(
                "POST /v1/sources/bluenile/queries HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
            let resp = http(addr, &raw);
            assert!(resp.starts_with("HTTP/1.1 201"), "{label}: {resp}");
            let v = parse_json(body_of(&resp)).unwrap();
            let ids = v
                .get("results")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|t| t.get("id").unwrap().as_usize().unwrap().to_string())
                .collect::<Vec<_>>()
                .join(",");
            let queries = v
                .get("stats")
                .unwrap()
                .get("queries")
                .unwrap()
                .as_usize()
                .unwrap();
            (ids, queries)
        };

        let (first_ids, first_cost) = run("first user");
        assert!(first_cost > 0);
        let (second_ids, second_cost) = run("second user");
        assert_eq!(second_cost, 0, "second identical query must be free");
        assert_eq!(first_ids, second_ids, "cached answers keep the order");

        // The cache panel reflects the traffic.
        let resp = http(addr, "GET /v1/sources/bluenile/cache HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let v = parse_json(body_of(&resp)).unwrap();
        assert!(v.get("hits").unwrap().as_usize().unwrap() > 0);
        assert!(v.get("misses").unwrap().as_usize().unwrap() > 0);
        assert!(v.get("hit_rate").unwrap().as_f64().unwrap() > 0.0);

        // Session stats expose the free-lookup breakdown.
        let resp = http(addr, "GET /v1/sources/bluenile/cache HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"epoch\":0"), "{resp}");

        // Flush: 204; the panel resets and the epoch advances.
        let resp = http(addr, "DELETE /v1/sources/bluenile/cache HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 204"), "{resp}");
        let resp = http(addr, "GET /v1/sources/bluenile/cache HTTP/1.1\r\n\r\n");
        let v = parse_json(body_of(&resp)).unwrap();
        assert_eq!(v.get("entries").unwrap().as_usize(), Some(0));
        assert_eq!(v.get("epoch").unwrap().as_usize(), Some(1));

        // A post-flush run pays again (the answers are invalidated).
        let (_, post_flush_cost) = run("post-flush user");
        assert_eq!(post_flush_cost, first_cost);

        // Unknown source renders the envelope.
        let resp = http(addr, "GET /v1/sources/amazon/cache HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        assert!(resp.contains("unknown_source"), "{resp}");

        server.stop();
    }

    #[test]
    fn unknown_v1_and_api_routes_render_the_error_envelope() {
        let server = app().serve("127.0.0.1:0", 2).unwrap();
        let addr = server.addr();
        for path in ["/v1/nope", "/v1/queries", "/api/nope/deeper", "/zzz"] {
            let resp = http(addr, &format!("GET {path} HTTP/1.1\r\n\r\n"));
            assert!(resp.starts_with("HTTP/1.1 404"), "{path}: {resp}");
            assert!(
                resp.contains("application/json"),
                "{path} must not be plain text: {resp}"
            );
            let v = parse_json(body_of(&resp)).unwrap();
            let err = v.get("error").unwrap();
            assert_eq!(
                err.get("code").unwrap().as_str(),
                Some("not_found"),
                "{path}"
            );
            assert!(
                err.get("message").unwrap().as_str().unwrap().contains(path),
                "{path}: the 404 names the missing route"
            );
        }
        server.stop();
    }

    #[test]
    fn middleware_chain_is_active_over_tcp() {
        let server = app().serve("127.0.0.1:0", 2).unwrap();
        let addr = server.addr();

        // Wrong content type → structured 415.
        let body = r#"{"source":"zillow"}"#;
        let raw = format!(
            "POST /api/query HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = http(addr, &raw);
        assert!(resp.starts_with("HTTP/1.1 415"), "{resp}");
        assert!(resp.contains("unsupported_media_type"), "{resp}");

        // 405 carries Allow.
        let resp = http(addr, "DELETE /v1/sources HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
        assert!(resp.contains("Allow: GET, HEAD"), "{resp}");

        // HEAD works on GET routes with an empty body.
        let resp = http(addr, "HEAD /api/health HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert_eq!(body_of(&resp), "");

        // Client-supplied request ids are echoed.
        let resp = http(
            addr,
            "GET /api/health HTTP/1.1\r\nX-Request-Id: trace-1\r\n\r\n",
        );
        assert!(resp.contains("x-request-id: trace-1"), "{resp}");

        server.stop();
    }

    #[test]
    fn concurrent_users_get_independent_sessions() {
        let server = app().serve("127.0.0.1:0", 4).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!(
                        r#"{{"source":"bluenile","ranking":{{"type":"1d","attr":"price","dir":"{}"}},"page_size":2}}"#,
                        if i % 2 == 0 { "asc" } else { "desc" }
                    );
                    let raw = format!(
                        "POST /api/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    );
                    let resp = http(addr, &raw);
                    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                    let v = parse_json(body_of(&resp)).unwrap();
                    v.get("session").unwrap().as_str().unwrap().to_string()
                })
            })
            .collect();
        let ids: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let unique: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), 4, "each user got a distinct session");
        server.stop();
    }
}
