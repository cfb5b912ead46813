//! End-to-end tests for how the NDJSON stream frames its lines over a real
//! socket.
//!
//! Lines that are ready without a web-DB query share one HTTP chunk: a
//! recon-served stream of 50 tuples arrives in one or two chunks, not 51,
//! while the line counter still counts every line, and a longer one is
//! cut into chunks of at most 16 KiB. A producer that panics
//! mid-stream still delivers the lines it finished, then exactly one
//! `partial` summary whose `count` matches them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qr2::core::ExecutorKind;
use qr2::http::{parse_json, Json};
use qr2::recon::{JobOptions, ReconIndex};
use qr2::service::{Qr2App, Source, SourceRegistry};
use qr2::webdb::{
    QueryLedger, Schema, SearchQuery, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface,
    TopKResponse,
};

/// Two numeric attributes; `x0` counts up, `x1` is a scrambled
/// permutation, and the hidden ranking mixes both.
fn db(n: usize, k: usize) -> Arc<SimulatedWebDb> {
    let schema = Schema::builder()
        .numeric("x0", 0.0, 1000.0)
        .numeric("x1", 0.0, 1000.0)
        .build();
    let mut tb = TableBuilder::new(schema.clone());
    for i in 0..n {
        tb.push_row(vec![i as f64, ((i * 37) % n) as f64]).unwrap();
    }
    let ranking = SystemRanking::linear(&schema, &[("x0", 1.0), ("x1", 0.2)]).unwrap();
    Arc::new(SimulatedWebDb::new(tb.build(), ranking, k))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Json {
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
    assert!(out.starts_with("HTTP/1.1 201"), "{out}");
    parse_json(out.split("\r\n\r\n").nth(1).unwrap()).unwrap()
}

/// `GET` a stream to the end and split its chunked body: the chunks'
/// payloads, in order.
fn stream_chunks(addr: SocketAddr, path: &str) -> Vec<String> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, mut body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    let mut chunks = Vec::new();
    loop {
        let (size, rest) = body.split_once("\r\n").unwrap();
        let size = usize::from_str_radix(size, 16).unwrap();
        if size == 0 {
            assert_eq!(rest, "\r\n", "terminating chunk ends the body");
            return chunks;
        }
        chunks.push(rest[..size].to_string());
        body = rest[size..].strip_prefix("\r\n").unwrap();
    }
}

/// The NDJSON lines across all chunks; every chunk holds whole lines.
fn ndjson_lines(chunks: &[String]) -> Vec<Json> {
    chunks
        .iter()
        .flat_map(|c| {
            assert!(c.ends_with('\n'), "a chunk ends on a line boundary: {c:?}");
            c.lines()
                .map(|l| parse_json(l).expect("NDJSON line parses"))
        })
        .collect()
}

fn stream_lines_total(source: &str) -> u64 {
    qr2::obs::counter("qr2_service_stream_lines_total", &[("source", source)]).get()
}

#[test]
fn recon_served_stream_packs_its_free_lines_into_few_chunks() {
    let raw = db(1000, 10);
    let recon = Arc::new(ReconIndex::ephemeral());
    let job = recon
        .run_job(
            raw.as_ref(),
            &JobOptions {
                max_queries: usize::MAX,
                ..JobOptions::default()
            },
            0,
        )
        .expect("no concurrent job");
    assert_eq!(job.state, "complete");
    let mut reg = SourceRegistry::new();
    reg.register(
        Source::builder(
            "packed",
            "fully reconstructed inventory",
            raw as Arc<dyn TopKInterface>,
        )
        .executor(ExecutorKind::Sequential)
        .recon(recon)
        .build(),
    );
    let server = Qr2App::new(reg).serve("127.0.0.1:0", 2).unwrap();
    let addr = server.addr();

    let v = post(
        addr,
        "/v1/sources/packed/queries",
        r#"{"ranking":{"type":"md","weights":{"x0":1.0,"x1":-0.5}},"page_size":5}"#,
    );
    assert_eq!(
        v.get("stats").unwrap().get("queries").unwrap().as_usize(),
        Some(0),
        "the session is recon-served: {v}"
    );
    let id = v.get("query_id").unwrap().as_str().unwrap();

    let before = stream_lines_total("packed");
    let chunks = stream_chunks(addr, &format!("/v1/queries/{id}/stream?limit=50"));
    let lines = ndjson_lines(&chunks);
    assert!(
        chunks.len() <= 2,
        "{} chunks for 51 free lines",
        chunks.len()
    );
    assert_eq!(lines.len(), 51);
    for (i, line) in lines[..50].iter().enumerate() {
        assert_eq!(line.get("event").unwrap().as_str(), Some("tuple"));
        assert_eq!(line.get("index").unwrap().as_usize(), Some(i));
        assert_eq!(line.get("queries").unwrap().as_usize(), Some(0));
    }
    let summary = &lines[50];
    assert_eq!(summary.get("status").unwrap().as_str(), Some("complete"));
    assert_eq!(summary.get("count").unwrap().as_usize(), Some(50));
    // One recon hit per line, on top of the create's page.
    let stat = |summary: &Json, key: &str| {
        summary
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(Json::as_usize)
    };
    assert_eq!(stat(summary, "recon_hits"), Some(51));
    assert_eq!(stat(summary, "served"), Some(55));
    assert_eq!(
        stream_lines_total("packed") - before,
        51,
        "counted per line"
    );

    // The rest of the answer (945 tuples) is far more than one chunk
    // holds: the chunks stay within 16 KiB and still carry whole lines.
    let chunks = stream_chunks(addr, &format!("/v1/queries/{id}/stream?limit=1000"));
    let rest = ndjson_lines(&chunks);
    assert_eq!(rest.len(), 946);
    assert!(chunks.len() > 1);
    for c in &chunks {
        assert!(c.len() <= 16 << 10, "a {}-byte chunk", c.len());
    }
    let summary = &rest[945];
    assert_eq!(summary.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(summary.get("count").unwrap().as_usize(), Some(945));
    // The pull that finds the answer drained counts as a hit too.
    assert_eq!(stat(summary, "recon_hits"), Some(51 + 946));
    assert_eq!(stat(summary, "served"), Some(1000));
    server.stop();
}

/// A raw database that panics on its `panic_on`-th search (1-based;
/// 0 never panics).
struct PanickingDb {
    inner: Arc<SimulatedWebDb>,
    searches: AtomicU64,
    panic_on: AtomicU64,
}

impl TopKInterface for PanickingDb {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn system_k(&self) -> usize {
        self.inner.system_k()
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        let n = self.searches.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.panic_on.load(Ordering::SeqCst) {
            panic!("injected database crash on search {n}");
        }
        self.inner.search(q)
    }

    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }
}

#[test]
fn panicking_source_ends_the_stream_with_one_partial_summary() {
    // Two identical sources; "steady" never panics and shows which line
    // needs which search, so "crashy" can be made to panic mid-stream.
    let dbs: Vec<Arc<PanickingDb>> = (0..2)
        .map(|_| {
            Arc::new(PanickingDb {
                inner: db(120, 4),
                searches: AtomicU64::new(0),
                panic_on: AtomicU64::new(0),
            })
        })
        .collect();
    let mut reg = SourceRegistry::new();
    for (name, db) in ["steady", "crashy"].into_iter().zip(&dbs) {
        reg.register(
            Source::builder(
                name,
                "test inventory",
                Arc::clone(db) as Arc<dyn TopKInterface>,
            )
            .executor(ExecutorKind::Sequential)
            .build(),
        );
    }
    let server = Qr2App::new(reg).serve("127.0.0.1:0", 2).unwrap();
    let addr = server.addr();
    let create = r#"{"ranking":{"type":"1d","attr":"x1"},"algorithm":"1d-rerank","page_size":1}"#;
    let stream = |source: &str| {
        let v = post(addr, &format!("/v1/sources/{source}/queries"), create);
        let id = v.get("query_id").unwrap().as_str().unwrap().to_string();
        ndjson_lines(&stream_chunks(
            addr,
            &format!("/v1/queries/{id}/stream?limit=30"),
        ))
    };

    // Each tuple line's `total_queries` is the searches it took so far.
    let steady = stream("steady");
    assert_eq!(steady.len(), 31);
    let totals: Vec<usize> = steady[..30]
        .iter()
        .map(|l| l.get("total_queries").unwrap().as_usize().unwrap())
        .collect();
    let last = *totals.last().unwrap();
    assert!(totals[0] < last, "the stream keeps searching: {totals:?}");
    // Crash on the search that produced the last tuple: every line that
    // needed fewer searches is delivered, then the summary.
    let earlier = dbs[1].searches.load(Ordering::SeqCst);
    dbs[1]
        .panic_on
        .store(earlier + last as u64, Ordering::SeqCst);
    let delivered = totals.iter().filter(|&&t| t < last).count();

    let crashy = stream("crashy");
    assert_eq!(crashy.len(), delivered + 1, "{crashy:?}");
    for (i, line) in crashy[..delivered].iter().enumerate() {
        assert_eq!(line.get("event").unwrap().as_str(), Some("tuple"));
        assert_eq!(line.get("index").unwrap().as_usize(), Some(i));
        assert_eq!(line, &steady[i], "same bytes as the steady twin");
    }
    let summary = &crashy[delivered];
    assert_eq!(summary.get("event").unwrap().as_str(), Some("summary"));
    assert_eq!(summary.get("status").unwrap().as_str(), Some("partial"));
    assert_eq!(summary.get("count").unwrap().as_usize(), Some(delivered));
    server.stop();
}
