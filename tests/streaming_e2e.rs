//! End-to-end tests for the budgeted, streaming execution contract over
//! real TCP sockets.
//!
//! The headline guarantee: `GET /v1/queries/:id/stream` really streams.
//! Against a web database that holds every probe until the client has read
//! the first NDJSON line (the first discovered tuple with its query cost),
//! that line arrives while the remaining tuples are still unsearched —
//! and a budgeted `results` call returns a `budget_exhausted` partial page
//! that a follow-up call resumes without re-issuing any web-DB query.
//! Deleting a query mid-stream ends the stream at its next line with a
//! `cancelled` summary, whether the session is live or recon-served.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qr2::core::ExecutorKind;
use qr2::http::{parse_json, Body, ChunkStream, Handler, Json, Method, Request, Status};
use qr2::recon::JobOptions;
use qr2::service::{Qr2App, Source, SourceRegistry};
use qr2::webdb::{
    QueryLedger, Schema, SearchQuery, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface,
    TopKResponse,
};

/// A small 1D inventory whose hidden ranking opposes the test queries, so
/// every few served tuples cost fresh discoveries.
fn inventory() -> Arc<SimulatedWebDb> {
    let schema = Schema::builder().numeric("x", 0.0, 100.0).build();
    let mut tb = TableBuilder::new(schema.clone());
    for i in 0..60 {
        // Scrambled but deterministic values.
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

/// The inventory behind a gate: while the gate is shut, every probe waits
/// until the test opens it. A probe that has waited [`Gate::PATIENCE`]
/// goes through anyway and is counted, so the test ends even when the
/// response does not stream.
struct Gate {
    inner: Arc<SimulatedWebDb>,
    shut: Mutex<bool>,
    opened: Condvar,
    forced: AtomicUsize,
}

impl Gate {
    const PATIENCE: Duration = Duration::from_secs(10);

    fn set(&self, shut: bool) {
        *self.shut.lock().unwrap() = shut;
        self.opened.notify_all();
    }

    fn forced(&self) -> usize {
        self.forced.load(Ordering::SeqCst)
    }
}

impl TopKInterface for Gate {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn system_k(&self) -> usize {
        self.inner.system_k()
    }
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        let deadline = Instant::now() + Self::PATIENCE;
        let mut shut = self.shut.lock().unwrap();
        while *shut {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.forced.fetch_add(1, Ordering::SeqCst);
                break;
            }
            shut = self.opened.wait_timeout(shut, left).unwrap().0;
        }
        drop(shut);
        self.inner.search(q)
    }
    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Json) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let status = out.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("null");
    (status, parse_json(body).unwrap_or(Json::Null))
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let status = out.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("null");
    (status, parse_json(body).unwrap_or(Json::Null))
}

/// Read from `s` until `pattern` appears in the accumulated bytes; returns
/// everything read so far.
fn read_until(s: &mut TcpStream, pattern: &str, acc: &mut Vec<u8>) {
    let mut byte = [0u8; 256];
    while !String::from_utf8_lossy(acc).contains(pattern) {
        let n = s.read(&mut byte).expect("socket read");
        assert!(n > 0, "connection closed before '{pattern}' appeared");
        acc.extend_from_slice(&byte[..n]);
    }
}

#[test]
fn stream_emits_the_first_tuple_before_the_session_finishes() {
    let gate = Arc::new(Gate {
        inner: inventory(),
        shut: Mutex::new(false),
        opened: Condvar::new(),
        forced: AtomicUsize::new(0),
    });
    let mut reg = registry();
    reg.register(
        Source::builder(
            "gated",
            "test inventory behind a gate",
            Arc::clone(&gate) as Arc<dyn TopKInterface>,
        )
        .executor(ExecutorKind::Sequential)
        .build(),
    );
    let server = Qr2App::new(reg).serve("127.0.0.1:0", 2).unwrap();
    let addr = server.addr();

    // The first page finds a two-tuple chunk and serves one of it, so the
    // stream's first line needs no probe.
    let (status, v) = post(
        addr,
        "/v1/sources/gated/queries",
        r#"{"ranking":{"type":"1d","attr":"x","dir":"asc"},
            "algorithm":"1d-binary","page_size":1}"#,
    );
    assert_eq!(status, 201);
    let id = v.get("query_id").unwrap().as_str().unwrap().to_string();
    gate.set(true);

    const LIMIT: usize = 12;
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(format!("GET /v1/queries/{id}/stream?limit={LIMIT} HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();

    // Read only as far as the first NDJSON tuple event...
    let mut acc = Vec::new();
    read_until(&mut s, "\"event\":\"tuple\"", &mut acc);
    read_until(&mut s, "\n", &mut acc);
    let so_far = String::from_utf8_lossy(&acc).into_owned();
    assert!(so_far.contains("Transfer-Encoding: chunked"), "{so_far}");

    // ...while the gate is still shut: no probe after the first page has
    // been answered, so the remaining tuples are still unsearched.
    let forced = gate.forced();
    assert_eq!(
        forced, 0,
        "{forced} probe(s) outwaited the gate before the first line arrived: \
         the response was buffered, or the first page left no tuple buffered"
    );
    gate.set(false);

    // Drain the rest: exactly LIMIT tuple events, one summary, in order.
    let mut rest = String::new();
    s.read_to_string(&mut rest).unwrap();
    let full = format!("{so_far}{rest}");
    assert_eq!(full.matches("\"event\":\"tuple\"").count(), LIMIT, "{full}");
    assert_eq!(full.matches("\"event\":\"summary\"").count(), 1);
    assert!(full.contains("\"status\":\"complete\""), "{full}");

    // Events carry per-step and cumulative query costs; tuples arrive in
    // the requested (ascending) order.
    let lines: Vec<Json> = full
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| parse_json(l).expect("NDJSON line parses"))
        .collect();
    assert_eq!(lines.len(), LIMIT + 1);
    let mut last_x = f64::NEG_INFINITY;
    for (i, event) in lines[..LIMIT].iter().enumerate() {
        assert_eq!(event.get("index").unwrap().as_usize(), Some(i));
        assert!(event.get("queries").is_some());
        assert!(event.get("total_queries").unwrap().as_usize().unwrap() >= 1);
        let x = event
            .get("tuple")
            .unwrap()
            .get("values")
            .unwrap()
            .get("x")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(x >= last_x, "ascending order violated at index {i}");
        last_x = x;
    }
    let summary = &lines[LIMIT];
    assert_eq!(summary.get("count").unwrap().as_usize(), Some(LIMIT));
    assert!(summary.get("stats").unwrap().get("queries").is_some());

    server.stop();
}

#[test]
fn budgeted_results_resume_over_http_without_respending() {
    let server = Qr2App::new(registry()).serve("127.0.0.1:0", 2).unwrap();
    let addr = server.addr();
    let body = r#"{"ranking":{"type":"1d","attr":"x","dir":"desc"},
                   "algorithm":"1d-binary","page_size":2}"#;

    // Budgeted session: a 1-query budget stops after one atomic discovery.
    let (_, v) = post(addr, "/v1/sources/fast/queries", body);
    let budgeted = v.get("query_id").unwrap().as_str().unwrap().to_string();
    let mut ids: Vec<usize> = v
        .get("results")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|t| t.get("id").unwrap().as_usize().unwrap())
        .collect();
    let (status, v) = get_json(
        addr,
        &format!("/v1/queries/{budgeted}/results?limit=100&budget=1"),
    );
    assert_eq!(status, 200);
    assert_eq!(v.get("status").unwrap().as_str(), Some("budget_exhausted"));
    let partial = v.get("results").unwrap().as_arr().unwrap();
    assert!(
        !partial.is_empty(),
        "the budget bought a non-empty partial page"
    );
    ids.extend(
        partial
            .iter()
            .map(|t| t.get("id").unwrap().as_usize().unwrap()),
    );
    let spent_before_resume = v
        .get("stats")
        .unwrap()
        .get("queries")
        .unwrap()
        .as_usize()
        .unwrap();

    // Resume unbudgeted up to 30 total tuples.
    while ids.len() < 30 {
        let (status, v) = get_json(
            addr,
            &format!("/v1/queries/{budgeted}/results?limit={}", 30 - ids.len()),
        );
        assert_eq!(status, 200);
        ids.extend(
            v.get("results")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|t| t.get("id").unwrap().as_usize().unwrap()),
        );
    }
    let (_, v) = get_json(addr, &format!("/v1/queries/{budgeted}/stats"));
    let budgeted_cost = v.get("queries").unwrap().as_usize().unwrap();
    assert!(budgeted_cost >= spent_before_resume);

    // Reference session: identical request, never budgeted — on a *fresh*
    // app instance, so the shared answer cache warmed by the budgeted
    // session cannot make the reference free (that would be the cache
    // working as designed, but this test pins resume cost, not caching).
    let reference_server = Qr2App::new(registry()).serve("127.0.0.1:0", 2).unwrap();
    let addr = reference_server.addr();
    let (_, v) = post(addr, "/v1/sources/fast/queries", body);
    let reference = v.get("query_id").unwrap().as_str().unwrap().to_string();
    let mut want: Vec<usize> = v
        .get("results")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|t| t.get("id").unwrap().as_usize().unwrap())
        .collect();
    let (_, v) = get_json(
        addr,
        &format!("/v1/queries/{reference}/results?limit={}", 30 - want.len()),
    );
    want.extend(
        v.get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|t| t.get("id").unwrap().as_usize().unwrap()),
    );
    let (_, v) = get_json(addr, &format!("/v1/queries/{reference}/stats"));
    let reference_cost = v.get("queries").unwrap().as_usize().unwrap();

    assert_eq!(ids, want, "budget slicing must not change the tuple order");
    assert_eq!(
        budgeted_cost, reference_cost,
        "resuming after budget exhaustion re-issued queries already spent"
    );

    reference_server.stop();
    server.stop();
}

#[test]
fn lifetime_cap_yields_402_with_retry_after_over_http() {
    let server = Qr2App::new(registry()).serve("127.0.0.1:0", 2).unwrap();
    let addr = server.addr();
    let (status, v) = post(
        addr,
        "/v1/sources/fast/queries",
        r#"{"ranking":{"type":"1d","attr":"x","dir":"desc"},
            "algorithm":"1d-binary","page_size":100,"max_queries":1}"#,
    );
    assert_eq!(status, 201);
    let id = v.get("query_id").unwrap().as_str().unwrap().to_string();

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(format!("GET /v1/queries/{id}/results?limit=10 HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 402"), "{out}");
    assert!(out.contains("Retry-After: 60"), "{out}");
    assert!(out.contains("budget_exceeded"), "{out}");

    // The stream endpoint refuses the same way (before streaming starts).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(format!("GET /v1/queries/{id}/stream?limit=10 HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 402"), "{out}");
    assert!(!out.contains("chunked"), "{out}");

    server.stop();
}

/// Open a `1d-rerank` query on `handler`'s bluenile, stream `limit=300`,
/// pull one chunk, `DELETE` the query, then drain the stream in process.
/// Returns the tuple lines of the first chunk, the tuple lines after the
/// delete, and the summary line.
fn delete_mid_stream(handler: &dyn Handler) -> (usize, usize, Json) {
    let mut create = Request::test(
        Method::Post,
        "/v1/sources/bluenile/queries",
        br#"{"ranking":{"type":"1d","attr":"price","dir":"desc"},
            "algorithm":"1d-rerank","page_size":1}"#
            .to_vec(),
    );
    create
        .headers
        .insert("content-type".into(), "application/json".into());
    let resp = handler.handle(&create);
    assert_eq!(resp.status, Status::Created);
    let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let id = v.get("query_id").unwrap().as_str().unwrap().to_string();

    let mut get = Request::test(Method::Get, &format!("/v1/queries/{id}/stream"), Vec::new());
    get.query.insert("limit".into(), "300".into());
    let Body::Stream(mut stream) = handler.handle(&get).body else {
        panic!("the stream endpoint answers with a chunk stream");
    };
    let first = String::from_utf8(stream.next_chunk().unwrap()).unwrap();
    let delete = Request::test(Method::Delete, &format!("/v1/queries/{id}"), Vec::new());
    assert_eq!(handler.handle(&delete).status, Status::NoContent);
    let mut rest = String::new();
    while let Some(chunk) = stream.next_chunk() {
        rest.push_str(std::str::from_utf8(&chunk).unwrap());
    }
    let tuples = |s: &str| s.matches("\"event\":\"tuple\"").count();
    let summary = rest
        .lines()
        .chain(first.lines())
        .find(|l| l.contains("\"event\":\"summary\""))
        .map(|l| parse_json(l).unwrap())
        .expect("the stream ends with a summary");
    (tuples(&first), tuples(&rest), summary)
}

#[test]
fn delete_cancels_live_and_recon_served_streams_alike() {
    let live = Qr2App::new(SourceRegistry::demo(400, 400, ExecutorKind::Sequential));
    let recon = Qr2App::new(SourceRegistry::demo(400, 400, ExecutorKind::Sequential));
    let src = recon.state().registry.get("bluenile").unwrap();
    let job = src
        .recon
        .run_job(
            &*src.probe,
            &JobOptions {
                max_queries: usize::MAX,
                ..JobOptions::default()
            },
            src.cache.epoch(),
        )
        .unwrap();
    assert_eq!(job.state, "complete");

    for (tier, app) in [("live", &live), ("recon-served", &recon)] {
        let (first, after, summary) = delete_mid_stream(&app.handler());
        assert!(first >= 1, "{tier}: the first chunk carries a tuple");
        assert!(first < 300, "{tier}: the stream was cut mid-way");
        assert_eq!(after, 0, "{tier}: no tuple line after the delete");
        assert_eq!(
            summary.get("status").unwrap().as_str(),
            Some("cancelled"),
            "{tier}: {summary}"
        );
        assert_eq!(
            summary.get("count").unwrap().as_usize(),
            Some(first),
            "{tier}"
        );
        let queries = summary.get("stats").unwrap().get("queries").unwrap();
        assert_eq!(
            queries.as_usize() == Some(0),
            tier == "recon-served",
            "{tier}: only the recon tier serves for free"
        );
    }
}

/// Create a `1d-binary` query on `handler`'s `fast` source (page size 1,
/// lifetime cap `max_queries` if given) and open a `limit=300` stream on
/// it. Returns the query id and the stream.
fn open_fast_stream(handler: &dyn Handler, max_queries: Option<usize>) -> (String, ChunkStream) {
    let cap = max_queries.map_or(String::new(), |m| format!(r#","max_queries":{m}"#));
    let body = format!(
        r#"{{"ranking":{{"type":"1d","attr":"x","dir":"desc"}},
            "algorithm":"1d-binary","page_size":1{cap}}}"#
    );
    let mut create = Request::test(Method::Post, "/v1/sources/fast/queries", body.into_bytes());
    create
        .headers
        .insert("content-type".into(), "application/json".into());
    let resp = handler.handle(&create);
    assert_eq!(resp.status, Status::Created);
    let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let id = v.get("query_id").unwrap().as_str().unwrap().to_string();
    let mut get = Request::test(Method::Get, &format!("/v1/queries/{id}/stream"), Vec::new());
    get.query.insert("limit".into(), "300".into());
    let Body::Stream(stream) = handler.handle(&get).body else {
        panic!("the stream endpoint answers with a chunk stream");
    };
    (id, stream)
}

/// The NDJSON lines of one chunk.
fn chunk_lines(chunk: &[u8]) -> Vec<Json> {
    std::str::from_utf8(chunk)
        .unwrap()
        .lines()
        .map(|l| parse_json(l).unwrap())
        .collect()
}

#[test]
fn a_deleted_stream_whose_lifetime_budget_is_spent_ends_budget_exhausted() {
    // An uncapped twin shows where the budget can run out between two
    // lines: after a tuple line whose successor needs a probe, so the
    // session has nothing buffered once the line is sent.
    let twin = Qr2App::new(registry());
    let (_, mut stream) = open_fast_stream(&twin.handler(), None);
    let mut events = Vec::new();
    while let Some(chunk) = stream.next_chunk() {
        events.extend(chunk_lines(&chunk));
    }
    let cost = |e: &Json, key: &str| e.get(key).unwrap().as_usize().unwrap();
    let last_free = events
        .windows(2)
        .position(|w| {
            w[0].get("event").unwrap().as_str() == Some("tuple")
                && w[1].get("event").unwrap().as_str() == Some("tuple")
                && cost(&w[1], "queries") > 0
        })
        .expect("some tuple line is followed by a paid one");
    let cap = cost(&events[last_free], "total_queries");

    // The same query capped at exactly that spend: the chunk that carries
    // the line ends there, with the cap spent and nothing buffered. The
    // query is deleted before the stream's next line.
    let app = Qr2App::new(registry());
    let handler = app.handler();
    let (id, mut stream) = open_fast_stream(&handler, Some(cap));
    let mut sent = Vec::new();
    while sent.len() <= last_free {
        let chunk = stream.next_chunk().expect("the stream ends after the cap");
        sent.extend(chunk_lines(&chunk));
    }
    assert_eq!(sent.len(), last_free + 1, "the chunk ends at the spent cap");
    assert_eq!(cost(&sent[last_free], "total_queries"), cap);
    let delete = Request::test(Method::Delete, &format!("/v1/queries/{id}"), Vec::new());
    assert_eq!(handler.handle(&delete).status, Status::NoContent);

    // The lifetime check runs before the session reads its cancellation,
    // so the stream reports the spent budget, not the delete.
    let mut rest = Vec::new();
    while let Some(chunk) = stream.next_chunk() {
        rest.extend(chunk_lines(&chunk));
    }
    assert_eq!(rest.len(), 1, "only the summary follows: {rest:?}");
    let summary = &rest[0];
    assert_eq!(summary.get("event").unwrap().as_str(), Some("summary"));
    assert_eq!(
        summary.get("status").unwrap().as_str(),
        Some("budget_exhausted"),
        "{summary}"
    );
    assert_eq!(
        summary.get("count").unwrap().as_usize(),
        Some(last_free + 1)
    );
    assert_eq!(cost(summary.get("stats").unwrap(), "queries"), cap);
}
