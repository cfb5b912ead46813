//! The complete architecture of the paper's Fig. 1 with *both* network
//! hops real: a user talks HTTP to the QR2 service, and the QR2 service
//! talks HTTP to the (simulated) web database through the gateway. Every
//! reranking query below therefore crosses two sockets per probe.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use qr2::core::ExecutorKind;
use qr2::datagen::{bluenile_db, DiamondsConfig};
use qr2::http::parse_json;
use qr2::service::{Qr2App, RemoteWebDb, Source, SourceRegistry, WebDbGateway};
use qr2::webdb::TopKInterface;

fn http(addr: SocketAddr, raw: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, qr2::http::Json) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let resp = http(addr, &raw);
    let code: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = resp.split("\r\n\r\n").nth(1).unwrap_or("null");
    (code, parse_json(body).unwrap_or(qr2::http::Json::Null))
}

#[test]
fn reranking_service_over_a_remote_web_database() {
    // 1. The "web site": a simulated Blue Nile served over HTTP.
    let site_db = Arc::new(bluenile_db(&DiamondsConfig {
        n: 600,
        seed: 21,
        ..DiamondsConfig::default()
    }));
    let site = WebDbGateway::serve(site_db.clone(), "127.0.0.1:0", 4).unwrap();

    // 2. QR2 connects to the site like any third party would.
    let remote: Arc<dyn TopKInterface> =
        Arc::new(RemoteWebDb::connect(site.addr()).expect("connect to site"));
    let mut registry = SourceRegistry::new();
    registry.register(
        Source::builder("bluenile-remote", "Blue Nile (via HTTP gateway)", remote)
            .executor(ExecutorKind::Parallel { fanout: 4 })
            .build(),
    );
    let qr2 = Qr2App::new(registry).serve("127.0.0.1:0", 4).unwrap();

    // 3. A user session, end to end across both hops.
    let (code, v) = post(
        qr2.addr(),
        "/api/query",
        r#"{"source":"bluenile-remote",
            "ranking":{"type":"md","weights":{"price":1.0,"carat":-0.5}},
            "algorithm":"md-rerank","page_size":5}"#,
    );
    assert_eq!(code, 200, "{v:?}");
    let results = v.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 5);
    let queries = v
        .get("stats")
        .unwrap()
        .get("queries")
        .unwrap()
        .as_usize()
        .unwrap();
    assert!(queries > 0);
    // Every QR2 query really crossed the wire to the site.
    assert!(
        site_db.ledger().total() >= queries as u64,
        "site saw {} queries, QR2 issued {}",
        site_db.ledger().total(),
        queries
    );

    // 4. Get-next still works across the chain.
    let sid = v.get("session").unwrap().as_str().unwrap();
    let (code, v2) = post(
        qr2.addr(),
        "/api/getnext",
        &format!(r#"{{"session":"{sid}"}}"#),
    );
    assert_eq!(code, 200);
    assert_eq!(v2.get("results").unwrap().as_arr().unwrap().len(), 5);

    // 5. The wire answers must equal what a local reranker would produce.
    let local_ids: Vec<usize> = {
        use qr2::core::{Algorithm, LinearFunction, RerankRequest, Reranker};
        let reranker = Reranker::builder(site_db.clone())
            .executor(ExecutorKind::Parallel { fanout: 4 })
            .build();
        let schema = reranker.schema().clone();
        let f = LinearFunction::from_names(&schema, &[("price", 1.0), ("carat", -0.5)]).unwrap();
        reranker
            .query(RerankRequest {
                filter: qr2::webdb::SearchQuery::all(),
                function: f.into(),
                algorithm: Algorithm::MdRerank,
            })
            .next_page(5)
            .expect("the simulator never fails")
            .iter()
            .map(|t| t.id.0 as usize)
            .collect()
    };
    let wire_ids: Vec<usize> = results
        .iter()
        .map(|r| r.get("id").unwrap().as_usize().unwrap())
        .collect();
    assert_eq!(
        wire_ids, local_ids,
        "remote pipeline must match local results"
    );

    qr2.stop();
    site.stop();
}

/// A site outage degrades to an empty page for the in-flight request but
/// must never be remembered by the shared answer cache as the permanent
/// answer (`RemoteWebDb` reports it as an error).
#[test]
fn outage_answers_are_served_but_never_cached() {
    use qr2::cache::{AnswerCache, CacheConfig, CachedInterface};
    use qr2::webdb::{RangePred, SearchQuery};

    let site_db = Arc::new(bluenile_db(&DiamondsConfig {
        n: 200,
        seed: 7,
        ..DiamondsConfig::default()
    }));
    let site = WebDbGateway::serve(site_db.clone(), "127.0.0.1:0", 2).unwrap();
    let remote: Arc<dyn TopKInterface> =
        Arc::new(RemoteWebDb::connect(site.addr()).expect("connect"));
    let cache = Arc::new(AnswerCache::new(CacheConfig::default()));
    let cached = CachedInterface::new(remote.clone(), Arc::clone(&cache));
    let price = remote.schema().expect_id("price");

    // Site up: a real answer, admitted.
    let q_live = SearchQuery::all();
    let live = cached.search(&q_live);
    assert!(!live.tuples.is_empty());
    assert_eq!(cache.len(), 1);

    // Site down: a different query degrades to an empty page...
    site.stop();
    let q_out = SearchQuery::all().and_range(price, RangePred::closed(0.0, 500.0));
    let outage = cached.search(&q_out);
    assert!(outage.tuples.is_empty(), "outage reads as no matches");
    assert_eq!(
        cache.len(),
        1,
        "the outage answer must not be admitted to the cache"
    );
    assert_eq!(cache.stats().misses, 2);

    // ...while the pre-outage answer keeps serving from the cache.
    assert_eq!(cached.search(&q_live), live);
    assert!(cache.stats().hits >= 1);
}

/// A stopped site is a source failure, not an empty answer: probes
/// through a `Source` reach the resilience layer as errors (counted in
/// its health) and nothing is charged to the ledger.
#[test]
fn stopped_gateway_failures_reach_resilience_and_cost_nothing() {
    use qr2::sched::SchedConfig;
    use qr2::webdb::{RangePred, SearchQuery};
    use std::time::Duration;

    let site_db = Arc::new(bluenile_db(&DiamondsConfig {
        n: 200,
        seed: 9,
        ..DiamondsConfig::default()
    }));
    let site = WebDbGateway::serve(site_db, "127.0.0.1:0", 2).unwrap();
    let remote: Arc<dyn TopKInterface> =
        Arc::new(RemoteWebDb::connect(site.addr()).expect("connect"));
    let price = remote.schema().expect_id("price");
    let source = Source::builder("remote", "remote site", Arc::clone(&remote))
        .sched_config(SchedConfig {
            max_outage_park: Duration::from_millis(20),
            poll_interval: Duration::from_millis(1),
        })
        .executor(ExecutorKind::Sequential)
        .build();
    site.stop();

    for i in 0..10 {
        let lo = f64::from(i) * 100.0;
        let q = SearchQuery::all().and_range(price, RangePred::closed(lo, lo + 50.0));
        let page = source.probe.search(&q);
        assert!(page.tuples.is_empty(), "a stopped site answers nothing");
    }
    let health = source.sched.resilient().health();
    assert!(
        health.unavailable > 0,
        "failed round trips must reach the resilience layer: {health:?}"
    );
    assert_eq!(
        remote.ledger().total(),
        0,
        "a failed round trip is not a paid query"
    );
    assert_eq!(source.cache.len(), 0, "no failure is cached");
}

/// A site that answers `200` with a body that is not a whole page was
/// paid for, but its page must not be trusted: the probe is a `Malformed`
/// error recorded on the ledger, and no cache remembers it.
#[test]
fn malformed_search_bodies_are_paid_errors_not_pages() {
    use qr2::cache::{AnswerCache, CacheConfig, CachedInterface};
    use qr2::http::{HttpServer, Method, Response, Router};
    use qr2::webdb::{SearchError, SearchQuery};

    let tuple = r#"{"id":1,"values":[{"n":2.5}]}"#;
    for (what, body) in [
        ("missing tuples", r#"{"overflow":false}"#.to_string()),
        ("missing overflow", format!(r#"{{"tuples":[{tuple}]}}"#)),
        (
            "undecodable tuple",
            format!(r#"{{"tuples":[{tuple},{{"id":2}}],"overflow":true}}"#),
        ),
    ] {
        let page = parse_json(&body).unwrap();
        let router = Router::new()
            .route(Method::Get, "/dbapi/meta", |_, _| {
                Response::ok_json(
                    &parse_json(
                        r#"{"schema":[{"name":"x","kind":"numeric","min":0,"max":10}],
                            "system_k":5}"#,
                    )
                    .unwrap(),
                )
            })
            .route(Method::Post, "/dbapi/search", move |_, _| {
                Response::ok_json(&page)
            });
        let site = HttpServer::start("127.0.0.1:0", router, 1).unwrap();
        let remote: Arc<dyn TopKInterface> =
            Arc::new(RemoteWebDb::connect(site.addr()).expect("connect"));
        let cache = Arc::new(AnswerCache::new(CacheConfig::default()));
        let cached = CachedInterface::new(Arc::clone(&remote), Arc::clone(&cache));

        let err = cached.probe(&SearchQuery::all()).unwrap_err();
        assert!(
            matches!(err, SearchError::Malformed { .. }),
            "{what}: {err:?}"
        );
        assert_eq!(remote.ledger().total(), 1, "{what}: the query was paid");
        assert_eq!(cache.len(), 0, "{what}: a malformed page is not cached");
        site.stop();
    }
}
