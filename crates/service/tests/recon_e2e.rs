//! End-to-end tests for the offline rank reconstruction + hybrid serving
//! tier: a fully reconstructed source serves every algorithm byte-identical
//! to live execution with zero web-database queries; partial coverage
//! splits recon hits from live fallback; a cache flush (the DB-change
//! signal) stales the reconstruction until re-crawl; and a persisted index
//! survives a service restart warm.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qr2_core::ExecutorKind;
use qr2_http::{parse_json, Decode, FromJson, IntoJson};
use qr2_recon::JobOptions;
use qr2_service::dto::{algorithm_catalog, QueryRequest, ReconStartRequest};
use qr2_service::{QueryService, SessionManager, SourceRegistry};
use qr2_webdb::{AttrKind, RangePred, SearchQuery};

const SCALE: usize = 150;

fn registry() -> Arc<SourceRegistry> {
    Arc::new(SourceRegistry::demo(SCALE, SCALE, ExecutorKind::Sequential))
}

fn service(registry: &Arc<SourceRegistry>) -> QueryService {
    QueryService::new(
        Arc::clone(registry),
        Arc::new(SessionManager::new(Duration::from_secs(60))),
    )
}

fn query_req(body: &str) -> QueryRequest {
    let v = parse_json(body).unwrap();
    QueryRequest::from_json(&Decode::root(&v)).unwrap()
}

/// The endpoint a drain pages through after the create's first page.
#[derive(Clone, Copy, Debug)]
enum Via {
    /// `next`, 50 tuples a page.
    Next,
    /// `results`, 50 tuples and at most 2 queries a call.
    Results,
    /// One NDJSON `stream` call of up to 1000 tuples at a time.
    Stream,
}

/// Drain one query to completion through `next`. Returns the rendered
/// tuples (the byte-level client contract), the cumulative paid-query
/// count, and the recon-hit count.
fn drain(svc: &QueryService, source: &str, body: &str) -> (Vec<String>, usize, usize) {
    drain_via(svc, source, body, Via::Next)
}

/// Drain one query to completion through `via`; returns what [`drain`]
/// does. Stream lines are rendered through the same JSON writer as pages.
fn drain_via(
    svc: &QueryService,
    source: &str,
    body: &str,
    via: Via,
) -> (Vec<String>, usize, usize) {
    let page = svc.create_query(source, &query_req(body)).unwrap();
    let id = page.query_id.as_str();
    let mut tuples: Vec<String> = page
        .results
        .iter()
        .map(|t| t.to_json().to_string())
        .collect();
    let mut done = page.done;
    let mut rounds = 0;
    while !done {
        match via {
            Via::Next => {
                let p = svc.next_page(id, Some(50)).unwrap();
                done = p.done;
                tuples.extend(p.results.iter().map(|t| t.to_json().to_string()));
            }
            Via::Results => {
                let r = svc.results(id, Some(50), Some(2)).unwrap();
                done = r.status == "done";
                tuples.extend(r.results.iter().map(|t| t.to_json().to_string()));
            }
            Via::Stream => {
                let mut stream = svc.stream(id, Some(1000), None).unwrap();
                while let Some(chunk) = stream.next_chunk() {
                    for line in std::str::from_utf8(&chunk).unwrap().lines() {
                        let event = parse_json(line).unwrap();
                        match event.get("tuple") {
                            Some(t) => tuples.push(t.to_string()),
                            None => done = event.get("status").unwrap().as_str() == Some("done"),
                        }
                    }
                }
            }
        }
        rounds += 1;
        assert!(rounds < 1000, "drain did not terminate");
    }
    let stats = svc.stats(id).unwrap();
    (tuples, stats.queries, stats.recon_hits)
}

/// A request body exercising `algo` (1D ranking for 1D algorithms, MD
/// ranking otherwise).
fn body_for(algo_name: &str, one_dimensional: bool) -> String {
    if one_dimensional {
        format!(
            r#"{{"ranking":{{"type":"1d","attr":"price","dir":"desc"}},"algorithm":"{algo_name}","page_size":50}}"#
        )
    } else {
        format!(
            r#"{{"ranking":{{"type":"md","weights":{{"price":1.0,"carat":-0.5}}}},"algorithm":"{algo_name}","page_size":50}}"#
        )
    }
}

/// Crawl a source to completion through the service endpoint.
fn crawl_to_complete(svc: &QueryService, source: &str) {
    let started = svc
        .recon_start(source, &ReconStartRequest::default())
        .unwrap();
    assert!(matches!(started.state, "started" | "running"));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let st = svc.recon_status(source).unwrap();
        let running = st.status.job.as_ref().map(|j| j.state) == Some("running");
        if !running && st.status.state == "complete" {
            assert!(!st.status.stale);
            assert!((st.status.coverage - 1.0).abs() < 1e-9, "{:?}", st.status);
            return;
        }
        assert!(
            Instant::now() < deadline,
            "recon crawl timed out in state {:?}",
            st.status.state
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn fully_reconstructed_source_serves_all_algorithms_identically_for_free() {
    // Two registries over identical (deterministically generated) data:
    // one reconstructed offline, one serving live.
    let recon_reg = registry();
    let live_reg = registry();
    let recon_svc = service(&recon_reg);
    let live_svc = service(&live_reg);

    crawl_to_complete(&recon_svc, "bluenile");
    let ledger_after_crawl = recon_reg.get("bluenile").unwrap().db.ledger().total();
    assert!(ledger_after_crawl > 0, "the crawl itself pays real queries");

    for algo in algorithm_catalog() {
        let body = body_for(algo.name, algo.algorithm.is_one_dimensional());
        // Note: on the live service only the first drain of each ranking
        // necessarily pays — later algorithms reuse the shared answer
        // cache. The contract under test is the recon side.
        let (live_tuples, _live_queries, live_recon_hits) = drain(&live_svc, "bluenile", &body);
        let (recon_tuples, recon_queries, recon_hits) = drain(&recon_svc, "bluenile", &body);
        assert!(
            !live_tuples.is_empty(),
            "{}: live run produced data",
            algo.name
        );
        assert_eq!(
            recon_tuples, live_tuples,
            "{}: recon serving must be byte-identical to live",
            algo.name
        );
        assert_eq!(recon_queries, 0, "{}: recon serving is free", algo.name);
        assert!(
            recon_hits > 0,
            "{}: pages came from the recon tier",
            algo.name
        );
        assert_eq!(
            live_recon_hits, 0,
            "{}: live service has no recon",
            algo.name
        );
        // The other two endpoints serve the same tuples on both tiers,
        // and the recon tier serves them just as free.
        for via in [Via::Results, Via::Stream] {
            let (tuples, _, _) = drain_via(&live_svc, "bluenile", &body, via);
            assert_eq!(tuples, live_tuples, "{} via {via:?}: live", algo.name);
            let (tuples, queries, hits) = drain_via(&recon_svc, "bluenile", &body, via);
            assert_eq!(
                tuples, live_tuples,
                "{} via {via:?}: recon serving must be byte-identical to live",
                algo.name
            );
            assert_eq!(
                queries, 0,
                "{} via {via:?}: recon serving is free",
                algo.name
            );
            assert!(hits > 0, "{} via {via:?}", algo.name);
        }
    }
    assert!(
        live_reg.get("bluenile").unwrap().db.ledger().total() > 0,
        "the live service paid real queries"
    );
    assert_eq!(
        recon_reg.get("bluenile").unwrap().db.ledger().total(),
        ledger_after_crawl,
        "serving a fully reconstructed source issues zero web-DB queries"
    );
}

#[test]
fn partial_coverage_serves_inside_and_falls_back_outside() {
    let reg = registry();
    let svc = service(&reg);
    let src = reg.get("bluenile").unwrap();
    let schema = src.schema().clone();
    let price = schema.expect_id("price");
    let (lo, hi) = match schema.attr(price).kind {
        AttrKind::Numeric { min, max, .. } => (min, max),
        _ => panic!("price is numeric"),
    };
    let mid = lo + (hi - lo) / 2.0;

    // Reconstruct only the lower half of the price axis.
    let root = SearchQuery::all().and_range(price, RangePred::closed(lo, mid));
    let report = src
        .recon
        .run_job(
            &*src.probe,
            &JobOptions {
                root: Some(root),
                ..JobOptions::default()
            },
            src.cache.epoch(),
        )
        .unwrap();
    assert_eq!(report.state, "complete");

    let inside = format!(
        r#"{{"ranking":{{"type":"1d","attr":"price","dir":"asc"}},
            "filters":[{{"attr":"price","min":{lo},"max":{mid}}}],
            "algorithm":"1d-rerank","page_size":20}}"#
    );
    let (tuples, queries, hits) = drain(&svc, "bluenile", &inside);
    assert!(!tuples.is_empty());
    assert_eq!(queries, 0, "a covered filter region serves for free");
    assert!(hits > 0);

    let outside = format!(
        r#"{{"ranking":{{"type":"1d","attr":"price","dir":"asc"}},
            "filters":[{{"attr":"price","min":{mid},"max":{hi}}}],
            "algorithm":"1d-rerank","page_size":20}}"#
    );
    // The upper half is uncovered (and may even hold no inventory at
    // all): the session must fall back to live serving and pay.
    let (_tuples, queries, hits) = drain(&svc, "bluenile", &outside);
    assert!(
        queries > 0,
        "an uncovered region falls back to live serving"
    );
    assert_eq!(hits, 0);
}

#[test]
fn cache_flush_stales_recon_until_recrawl() {
    let reg = registry();
    let svc = service(&reg);
    let src = reg.get("zillow").unwrap();
    let body = r#"{"ranking":{"type":"1d","attr":"price","dir":"asc"},"algorithm":"1d-rerank","page_size":20}"#;

    let report = src
        .recon
        .run_job(&*src.probe, &JobOptions::default(), src.cache.epoch())
        .unwrap();
    assert_eq!(report.state, "complete");
    let (_, queries, hits) = drain(&svc, "zillow", body);
    assert_eq!(queries, 0);
    assert!(hits > 0);

    // The DB-change signal: flushing the answer cache advances the
    // staleness epoch, which invalidates the reconstruction too.
    svc.flush_cache("zillow").unwrap();
    let status = svc.recon_status("zillow").unwrap().status;
    assert!(status.stale, "epoch bump stales the reconstruction");
    let (_, queries, hits) = drain(&svc, "zillow", body);
    assert!(
        queries > 0,
        "stale recon must not serve; live fallback pays"
    );
    assert_eq!(hits, 0);

    // Re-crawl at the new epoch restores free serving.
    let report = src
        .recon
        .run_job(&*src.probe, &JobOptions::default(), src.cache.epoch())
        .unwrap();
    assert_eq!(report.state, "complete");
    assert!(!svc.recon_status("zillow").unwrap().status.stale);
    let (_, queries, hits) = drain(&svc, "zillow", body);
    assert_eq!(queries, 0);
    assert!(hits > 0);
}

#[test]
fn persisted_recon_index_survives_restart_warm() {
    let dir = std::env::temp_dir().join(format!(
        "qr2-recon-e2e-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    {
        let reg = Arc::new(
            SourceRegistry::demo_with_cache_dir(SCALE, SCALE, ExecutorKind::Sequential, Some(&dir))
                .unwrap(),
        );
        let src = reg.get("bluenile").unwrap();
        let report = src
            .recon
            .run_job(&*src.probe, &JobOptions::default(), src.cache.epoch())
            .unwrap();
        assert_eq!(report.state, "complete");
    }
    // "Restart": a fresh registry over the same directory reopens the
    // checkpointed RankIndex and keeps serving without a single query.
    let reg = Arc::new(
        SourceRegistry::demo_with_cache_dir(SCALE, SCALE, ExecutorKind::Sequential, Some(&dir))
            .unwrap(),
    );
    let svc = service(&reg);
    let status = svc.recon_status("bluenile").unwrap().status;
    assert_eq!(status.state, "complete", "warm-started from the store");
    let body = r#"{"ranking":{"type":"md","weights":{"price":1.0,"carat":-0.5}},"algorithm":"md-rerank","page_size":30}"#;
    let (tuples, queries, hits) = drain(&svc, "bluenile", body);
    assert!(!tuples.is_empty());
    assert_eq!(queries, 0);
    assert!(hits > 0);
    assert_eq!(
        reg.get("bluenile").unwrap().db.ledger().total(),
        0,
        "the restarted service never touched the web database"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sources_listing_and_stats_surface_recon_state() {
    let reg = registry();
    let svc = service(&reg);
    // Before any crawl the listing reports an empty reconstruction.
    let listed = svc.sources();
    let blue = listed.iter().find(|s| s.name == "bluenile").unwrap();
    assert_eq!(
        blue.recon.get("state").and_then(|s| s.as_str()),
        Some("empty")
    );

    crawl_to_complete(&svc, "bluenile");
    let listed = svc.sources();
    let blue = listed.iter().find(|s| s.name == "bluenile").unwrap();
    assert_eq!(
        blue.recon.get("state").and_then(|s| s.as_str()),
        Some("complete")
    );
    assert_eq!(
        blue.recon.get("coverage").and_then(|c| c.as_f64()),
        Some(1.0)
    );

    // Dropping the index returns the listing to empty.
    svc.recon_drop("bluenile").unwrap();
    let listed = svc.sources();
    let blue = listed.iter().find(|s| s.name == "bluenile").unwrap();
    assert_eq!(
        blue.recon.get("state").and_then(|s| s.as_str()),
        Some("empty")
    );
}
