//! Run the full QR2 web service and drive it with a scripted HTTP client —
//! the demonstration flow of the paper, minus the human — over the
//! versioned `/v1` resource API (see `docs/API.md`).
//!
//! ```sh
//! cargo run --release --example reranking_service
//! ```
//!
//! Pass `--serve` to keep the server running for a browser at the printed
//! address instead of the scripted client.

use std::io::{Read, Write};
use std::net::TcpStream;

use qr2::core::ExecutorKind;
use qr2::http::parse_json;
use qr2::service::{Qr2App, SourceRegistry};

fn http(addr: std::net::SocketAddr, raw: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("recv");
    out
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    http(addr, &raw)
}

fn body_of(resp: &str) -> &str {
    resp.split("\r\n\r\n").nth(1).unwrap_or("")
}

fn header_of<'a>(resp: &'a str, name: &str) -> Option<&'a str> {
    resp.lines()
        .take_while(|l| !l.is_empty())
        .find_map(|l| {
            l.split_once(": ")
                .filter(|(n, _)| n.eq_ignore_ascii_case(name))
        })
        .map(|(_, v)| v.trim())
}

fn main() {
    let serve_forever = std::env::args().any(|a| a == "--serve");

    println!("booting QR2 (simulated Blue Nile + Zillow)…");
    let app = Qr2App::new(SourceRegistry::demo(
        5_000,
        10_000,
        ExecutorKind::Parallel { fanout: 8 },
    ));
    for (source, report) in app.verify_caches() {
        println!(
            "  recon verification [{source}]: {} tuples, {} queries, {}",
            report.tuples,
            report.queries,
            if report.stale {
                "stale (flushed and dropped)"
            } else {
                "fresh"
            }
        );
    }
    let server = app.serve("127.0.0.1:0", 4).expect("server starts");
    let addr = server.addr();
    println!("QR2 listening on http://{addr}/\n");

    if serve_forever {
        println!("open the address in a browser; Ctrl-C to stop.");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    // 1. Discover sources and algorithms.
    let resp = http(addr, "GET /v1/sources HTTP/1.1\r\n\r\n");
    let v = parse_json(body_of(&resp)).expect("sources json");
    let names: Vec<&str> = v
        .get("sources")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    println!("sources: {names:?}");
    let resp = http(addr, "GET /v1/algorithms HTTP/1.1\r\n\r\n");
    let v = parse_json(body_of(&resp)).expect("algorithms json");
    println!(
        "algorithms: {}",
        v.get("algorithms")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|a| a.get("name").unwrap().as_str().unwrap())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // 2. Create the paper's 3D Blue Nile query as a /v1 resource.
    let body = r#"{
        "filters": [{"attr":"carat","min":0.5,"max":3.0}],
        "ranking": {"type":"md","weights":{"price":1.0,"carat":-0.1,"depth":-0.5}},
        "algorithm": "md-rerank",
        "page_size": 5
    }"#;
    let resp = post(addr, "/v1/sources/bluenile/queries", body);
    assert!(resp.starts_with("HTTP/1.1 201"), "create failed: {resp}");
    let location = header_of(&resp, "Location")
        .expect("Location header")
        .to_string();
    let v = parse_json(body_of(&resp)).expect("query json");
    let id = v.get("query_id").unwrap().as_str().unwrap().to_string();
    println!(
        "\ncreated {location} using {}",
        v.get("algorithm").unwrap().as_str().unwrap()
    );
    for r in v.get("results").unwrap().as_arr().unwrap() {
        let vals = r.get("values").unwrap();
        println!(
            "  #{:<6} price={:<8} carat={:<5} depth={}",
            r.get("id").unwrap().as_usize().unwrap(),
            vals.get("price").unwrap().as_f64().unwrap(),
            vals.get("carat").unwrap().as_f64().unwrap(),
            vals.get("depth").unwrap().as_f64().unwrap(),
        );
    }
    let stats = v.get("stats").unwrap();
    println!(
        "  stats: {} queries, {:.1}% parallel",
        stats.get("queries").unwrap().as_usize().unwrap(),
        100.0 * stats.get("parallel_fraction").unwrap().as_f64().unwrap(),
    );

    // 3. Page twice with GET …/next.
    for page in 2..=3 {
        let resp = http(addr, &format!("GET {location}/next HTTP/1.1\r\n\r\n"));
        let v = parse_json(body_of(&resp)).expect("next json");
        let n = v.get("results").unwrap().as_arr().unwrap().len();
        let q = v
            .get("stats")
            .unwrap()
            .get("queries")
            .unwrap()
            .as_usize()
            .unwrap();
        println!("page {page}: {n} tuples (cumulative cost {q} queries)");
    }

    // 4. The statistics panel, then a clean delete.
    let resp = http(addr, &format!("GET {location}/stats HTTP/1.1\r\n\r\n"));
    println!("\nstatistics panel: {}", body_of(&resp));
    let resp = http(addr, &format!("DELETE /v1/queries/{id} HTTP/1.1\r\n\r\n"));
    assert!(resp.starts_with("HTTP/1.1 204"), "delete failed: {resp}");
    println!("deleted {location}");

    server.stop();
    println!("\nserver stopped cleanly.");
}
