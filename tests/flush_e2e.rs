//! A cache flush makes a source forget everything it learned.
//!
//! `DELETE /v1/sources/:source/cache` is how an operator says "this web
//! database changed". After it, every algorithm must answer from the new
//! contents — including 1D-RERANK, MD-RERANK and MD-TA, which remember
//! fully crawled dense regions in the reranker's shared dense index.
//!
//! The test runs a source over a swappable raw database: a tie-heavy
//! table whose ties force the dense-index algorithms to crawl dense
//! regions, then a second table that differs only inside those regions.
//! After the swap and the flush, every algorithm's first page must equal
//! the second table's ground truth, byte for byte.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use qr2::core::{ExecutorKind, LinearFunction, Normalizer};
use qr2::http::{parse_json, Body, Handler, IntoJson, Json, Method, Request};
use qr2::service::{Qr2App, Source, SourceRegistry, TupleDto};
use qr2::webdb::{
    QueryLedger, Schema, SearchQuery, SimulatedWebDb, SystemRanking, Table, TableBuilder,
    TopKInterface, TopKResponse,
};

const N: usize = 300;
const SYSTEM_K: usize = 8;
/// 1D pages cross the whole `x = 0` tie group. MD pages stay inside the
/// changed `(0, 0)` cell and the one it spills into (MD-BASELINE pays
/// dearly for ties, so they stop there).
fn page_size(algorithm: &str) -> usize {
    if algorithm.starts_with("1d") {
        70
    } else {
        12
    }
}

/// Five `x` values times three `y` values: every `x` value is shared by
/// 60 tuples and every `(x, y)` cell by 20, far more than `SYSTEM_K`.
/// `z` is distinct per tuple, so a crawl can split any cell. With
/// `moved`, half of the `(x, y) = (0, 0)` cell moves to `x = 10`: the
/// table changes only inside the regions the first table's ties crawl.
fn table(moved: bool) -> Table {
    let schema = Schema::builder()
        .numeric("x", 0.0, 100.0)
        .numeric("y", 0.0, 100.0)
        .numeric("z", 0.0, 1000.0)
        .build();
    let mut tb = TableBuilder::new(schema);
    for i in 0..N {
        let (mut x, y) = ((i % 5) as f64 * 25.0, ((i / 5) % 3) as f64 * 50.0);
        if moved && x == 0.0 && y == 0.0 && i % 2 == 0 {
            x = 10.0;
        }
        tb.push_row(vec![x, y, i as f64]).unwrap();
    }
    tb.build()
}

fn db(moved: bool) -> SimulatedWebDb {
    let t = table(moved);
    let ranking = SystemRanking::linear(t.schema(), &[("z", 1.0)]).unwrap();
    SimulatedWebDb::new(t, ranking, SYSTEM_K)
}

/// Two databases behind one raw interface; `swap` makes the second one
/// live, ledger included.
struct SwappableDb {
    before: SimulatedWebDb,
    after: SimulatedWebDb,
    swapped: AtomicBool,
}

impl SwappableDb {
    fn active(&self) -> &SimulatedWebDb {
        if self.swapped.load(Ordering::SeqCst) {
            &self.after
        } else {
            &self.before
        }
    }

    fn swap(&self) {
        self.swapped.store(true, Ordering::SeqCst);
    }
}

impl TopKInterface for SwappableDb {
    fn schema(&self) -> &Schema {
        self.active().schema()
    }

    fn system_k(&self) -> usize {
        self.active().system_k()
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        self.active().search(q)
    }

    fn ledger(&self) -> &QueryLedger {
        self.active().ledger()
    }
}

const SEVEN: [&str; 7] = [
    "1d-baseline",
    "1d-binary",
    "1d-rerank",
    "md-baseline",
    "md-binary",
    "md-rerank",
    "md-ta",
];

/// The ranking each algorithm runs: 1D on `x` ascending, MD on `x + y`.
fn ranking_json(algorithm: &str) -> &'static str {
    if algorithm.starts_with("1d") {
        r#"{"type":"1d","attr":"x","dir":"asc"}"#
    } else {
        r#"{"type":"md","weights":{"x":1.0,"y":1.0}}"#
    }
}

fn call(handler: &impl Handler, method: Method, path: &str, body: &str) -> (u16, String) {
    let mut req = Request::test(method, path, body.as_bytes().to_vec());
    if !body.is_empty() {
        req.headers
            .insert("content-type".into(), "application/json".into());
    }
    let resp = handler.handle(&req);
    let text = match resp.body {
        Body::Bytes(b) => String::from_utf8(b).expect("utf-8 body"),
        Body::Stream(_) => panic!("expected a buffered body"),
    };
    (resp.status.code(), text)
}

/// The first page `algorithm` serves, as the exact bytes of its
/// `results` array.
fn first_page(handler: &impl Handler, algorithm: &str) -> String {
    let body = format!(
        r#"{{"ranking":{},"algorithm":"{algorithm}","page_size":{}}}"#,
        ranking_json(algorithm),
        page_size(algorithm)
    );
    let (code, text) = call(handler, Method::Post, "/v1/sources/swap/queries", &body);
    assert_eq!(code, 201, "{algorithm}: {text}");
    let v = parse_json(&text).unwrap();
    v.get("results").unwrap().to_string()
}

/// What `algorithm`'s first page must be over `db`: the table's rows
/// sorted by the ranking, ties broken by ascending id.
fn oracle_page(db: &SimulatedWebDb, algorithm: &str) -> String {
    let schema = db.schema();
    let weights: &[(&str, f64)] = if algorithm.starts_with("1d") {
        &[("x", 1.0)]
    } else {
        &[("x", 1.0), ("y", 1.0)]
    };
    let f = LinearFunction::from_names(schema, weights).unwrap();
    let norm = Normalizer::from_domains(schema);
    let t = db.ground_truth();
    let mut rows: Vec<usize> = (0..t.len()).collect();
    rows.sort_by(|&a, &b| {
        f.score(&t.tuple(a), &norm)
            .total_cmp(&f.score(&t.tuple(b), &norm))
            .then(a.cmp(&b))
    });
    let page: Vec<Json> = rows[..page_size(algorithm)]
        .iter()
        .map(|&r| TupleDto::new(schema, &t.tuple(r)).to_json())
        .collect();
    Json::Arr(page).to_string()
}

#[test]
fn flush_forgets_dense_regions_of_a_changed_database() {
    let raw = Arc::new(SwappableDb {
        before: db(false),
        after: db(true),
        swapped: AtomicBool::new(false),
    });
    let mut reg = SourceRegistry::new();
    reg.register(
        Source::builder(
            "swap",
            "swappable tie-heavy source",
            Arc::clone(&raw) as Arc<dyn TopKInterface>,
        )
        .executor(ExecutorKind::Sequential)
        .build(),
    );
    let app = Qr2App::new(reg);
    let handler = app.handler();
    let source = app.state().registry.get("swap").unwrap();

    // Tie-heavy sessions crawl dense regions into the shared index.
    for algorithm in ["1d-rerank", "md-rerank", "md-ta"] {
        assert_eq!(
            first_page(&handler, algorithm),
            oracle_page(&raw.before, algorithm),
            "{algorithm} before the change"
        );
    }
    assert!(
        !source.reranker.dense_index().is_empty(),
        "the tie workload must crawl dense regions"
    );

    // The site changes inside those regions; the operator flushes.
    raw.swap();
    let (code, text) = call(&handler, Method::Delete, "/v1/sources/swap/cache", "");
    assert_eq!(code, 204, "{text}");

    let stale: Vec<&str> = SEVEN
        .into_iter()
        .filter(|algorithm| first_page(&handler, algorithm) != oracle_page(&raw.after, algorithm))
        .collect();
    assert!(
        stale.is_empty(),
        "after a flush every algorithm must answer from the changed database; \
         these served remembered tuples: {stale:?}"
    );
}
