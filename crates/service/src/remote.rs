//! The network hop: a web database served over HTTP and a client-side
//! [`TopKInterface`] that queries it across the wire.
//!
//! In the real deployment, QR2's queries to Blue Nile / Zillow are HTTP
//! requests to a remote site. [`WebDbGateway`] puts any [`TopKInterface`]
//! behind an HTTP endpoint (the "web database" box of the paper's Fig. 1),
//! and [`RemoteWebDb`] is the matching client: every `search` is one HTTP
//! round trip, so per-query latency — the reason the paper parallelizes —
//! is real, not simulated.
//!
//! Wire format (all JSON):
//!
//! * `GET  /dbapi/meta` → `{schema: [...], system_k: n}`
//! * `POST /dbapi/search` with a serialized query → `{tuples, overflow}`

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;

use qr2_http::{parse_json, HttpServer, Json, Method, Response, Router, Status};
use qr2_webdb::{
    page_or_empty, Answer, AttrId, CatSet, Predicate, QueryLedger, RangePred, Schema, SearchError,
    SearchQuery, TopKInterface, TopKResponse, Tuple, TupleId, Value,
};

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

/// Serialize a [`SearchQuery`] for the wire (exact, including bound
/// openness — unlike the user-facing `filters` format).
pub fn query_to_json(q: &SearchQuery) -> Json {
    let preds: Vec<Json> = q
        .predicates()
        .map(|(attr, p)| match p {
            Predicate::Range(r) => Json::obj([
                ("attr", Json::from(attr.0 as usize)),
                ("kind", Json::from("range")),
                ("lo", Json::Num(r.lo)),
                ("hi", Json::Num(r.hi)),
                ("lo_inc", Json::Bool(r.lo_inc)),
                ("hi_inc", Json::Bool(r.hi_inc)),
            ]),
            Predicate::Cats(s) => Json::obj([
                ("attr", Json::from(attr.0 as usize)),
                ("kind", Json::from("cats")),
                (
                    "codes",
                    Json::Arr(s.codes().iter().map(|&c| Json::from(c as usize)).collect()),
                ),
            ]),
        })
        .collect();
    Json::obj([("predicates", Json::Arr(preds))])
}

/// Inverse of [`query_to_json`].
pub fn query_from_json(v: &Json) -> Result<SearchQuery, String> {
    let mut q = SearchQuery::all();
    let preds = v
        .get("predicates")
        .and_then(Json::as_arr)
        .ok_or("missing 'predicates' array")?;
    for p in preds {
        let attr = AttrId(
            p.get("attr")
                .and_then(Json::as_usize)
                .ok_or("predicate needs numeric 'attr'")? as u16,
        );
        match p.get("kind").and_then(Json::as_str) {
            Some("range") => {
                let lo = p.get("lo").and_then(Json::as_f64).ok_or("range needs lo")?;
                let hi = p.get("hi").and_then(Json::as_f64).ok_or("range needs hi")?;
                let lo_inc = p.get("lo_inc").and_then(Json::as_bool).unwrap_or(true);
                let hi_inc = p.get("hi_inc").and_then(Json::as_bool).unwrap_or(true);
                q = q.with(
                    attr,
                    Predicate::Range(RangePred {
                        lo,
                        hi,
                        lo_inc,
                        hi_inc,
                    }),
                );
            }
            Some("cats") => {
                let codes = p
                    .get("codes")
                    .and_then(Json::as_arr)
                    .ok_or("cats needs codes")?
                    .iter()
                    .map(|c| c.as_usize().map(|v| v as u32).ok_or("bad code"))
                    .collect::<Result<Vec<u32>, _>>()?;
                q = q.with(attr, Predicate::Cats(CatSet::new(codes)));
            }
            _ => return Err("predicate 'kind' must be range|cats".into()),
        }
    }
    Ok(q)
}

/// Serialize a tuple for the wire (kind-tagged values, schema order).
pub fn wire_tuple_to_json(t: &Tuple) -> Json {
    let values: Vec<Json> = t
        .values()
        .iter()
        .map(|v| match v {
            Value::Num(x) => Json::obj([("n", Json::Num(*x))]),
            Value::Cat(c) => Json::obj([("c", Json::from(*c as usize))]),
        })
        .collect();
    Json::obj([
        ("id", Json::from(t.id.0 as usize)),
        ("values", Json::Arr(values)),
    ])
}

/// Inverse of [`wire_tuple_to_json`].
pub fn wire_tuple_from_json(v: &Json) -> Result<Tuple, String> {
    let id = TupleId(
        v.get("id")
            .and_then(Json::as_usize)
            .ok_or("tuple needs id")? as u32,
    );
    let values = v
        .get("values")
        .and_then(Json::as_arr)
        .ok_or("tuple needs values")?
        .iter()
        .map(|val| {
            if let Some(n) = val.get("n").and_then(Json::as_f64) {
                Ok(Value::Num(n))
            } else if let Some(c) = val.get("c").and_then(Json::as_usize) {
                Ok(Value::Cat(c as u32))
            } else {
                Err("value needs 'n' or 'c'".to_string())
            }
        })
        .collect::<Result<Vec<Value>, _>>()?;
    Ok(Tuple::new(id, values))
}

/// Decode a `/dbapi/search` body: both fields present, every tuple whole.
fn page_from_json(body: &str) -> Result<TopKResponse, String> {
    let v = parse_json(body).map_err(|e| format!("search body is not JSON: {e}"))?;
    let tuples = v
        .get("tuples")
        .and_then(Json::as_arr)
        .ok_or("search body needs tuples")?
        .iter()
        .map(wire_tuple_from_json)
        .collect::<Result<Vec<Tuple>, _>>()?;
    let overflow = v
        .get("overflow")
        .and_then(Json::as_bool)
        .ok_or("search body needs overflow")?;
    Ok(TopKResponse::new(tuples, overflow))
}

fn schema_to_json(schema: &Schema) -> Json {
    let attrs: Vec<Json> = schema
        .iter()
        .map(|(_, a)| match &a.kind {
            qr2_webdb::AttrKind::Numeric { min, max, integral } => Json::obj([
                ("name", Json::from(a.name.as_str())),
                ("kind", Json::from("numeric")),
                ("min", Json::Num(*min)),
                ("max", Json::Num(*max)),
                ("integral", Json::Bool(*integral)),
            ]),
            qr2_webdb::AttrKind::Categorical { labels } => Json::obj([
                ("name", Json::from(a.name.as_str())),
                ("kind", Json::from("categorical")),
                (
                    "labels",
                    Json::Arr(labels.iter().map(|l| Json::from(l.as_str())).collect()),
                ),
            ]),
        })
        .collect();
    Json::Arr(attrs)
}

fn schema_from_json(v: &Json) -> Result<Schema, String> {
    let attrs = v.as_arr().ok_or("schema must be an array")?;
    let mut b = Schema::builder();
    for a in attrs {
        let name = a
            .get("name")
            .and_then(Json::as_str)
            .ok_or("attr needs name")?;
        match a.get("kind").and_then(Json::as_str) {
            Some("numeric") => {
                let min = a.get("min").and_then(Json::as_f64).ok_or("needs min")?;
                let max = a.get("max").and_then(Json::as_f64).ok_or("needs max")?;
                let integral = a.get("integral").and_then(Json::as_bool).unwrap_or(false);
                b = if integral {
                    b.integral(name, min, max)
                } else {
                    b.numeric(name, min, max)
                };
            }
            Some("categorical") => {
                let labels = a
                    .get("labels")
                    .and_then(Json::as_arr)
                    .ok_or("needs labels")?
                    .iter()
                    .map(|l| l.as_str().map(str::to_string).ok_or("bad label"))
                    .collect::<Result<Vec<String>, _>>()?;
                b = b.categorical(name, labels);
            }
            _ => return Err("attr kind must be numeric|categorical".into()),
        }
    }
    Ok(b.build())
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Serve any [`TopKInterface`] over HTTP — the simulated "web database
/// site" of the paper's architecture diagram.
pub struct WebDbGateway;

impl WebDbGateway {
    /// Start serving `db` on `addr` with `workers` threads.
    pub fn serve(
        db: Arc<dyn TopKInterface>,
        addr: &str,
        workers: usize,
    ) -> std::io::Result<HttpServer> {
        let meta_db = Arc::clone(&db);
        let router = Router::new()
            .route(Method::Get, "/dbapi/meta", move |_, _| {
                Response::ok_json(&Json::obj([
                    ("schema", schema_to_json(meta_db.schema())),
                    ("system_k", Json::from(meta_db.system_k())),
                ]))
            })
            .route(Method::Post, "/dbapi/search", move |req, _| {
                let Some(Ok(body)) = req.body_str().map(parse_json) else {
                    return Response::error(Status::BadRequest, "body must be JSON");
                };
                match query_from_json(&body) {
                    Ok(q) => {
                        let resp = db.search(&q);
                        Response::ok_json(&Json::obj([
                            (
                                "tuples",
                                Json::Arr(resp.tuples.iter().map(wire_tuple_to_json).collect()),
                            ),
                            ("overflow", Json::Bool(resp.overflow)),
                        ]))
                    }
                    Err(e) => Response::error(Status::BadRequest, &e),
                }
            });
        HttpServer::start(addr, router, workers)
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// Back-off hint on a failed round trip: a connect error carries no
/// `Retry-After` of its own.
const UNAVAILABLE_RETRY_AFTER: std::time::Duration = std::time::Duration::from_millis(5);

/// A web database reached over HTTP. Every [`TopKInterface::probe`] is one
/// HTTP round trip — exactly the cost model of the paper.
pub struct RemoteWebDb {
    addr: SocketAddr,
    schema: Schema,
    system_k: usize,
    ledger: QueryLedger,
}

impl RemoteWebDb {
    /// Connect and fetch the remote schema and page size.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemoteWebDb, String> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve: {e}"))?
            .next()
            .ok_or("no address")?;
        let body = http_request(addr, "GET", "/dbapi/meta", None)?;
        let v = parse_json(&body).map_err(|e| format!("bad meta response: {e}"))?;
        let schema = schema_from_json(v.get("schema").ok_or("meta missing schema")?)?;
        let system_k = v
            .get("system_k")
            .and_then(Json::as_usize)
            .ok_or("meta missing system_k")?;
        Ok(RemoteWebDb {
            addr,
            schema,
            system_k,
            ledger: QueryLedger::default(),
        })
    }
}

impl TopKInterface for RemoteWebDb {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn system_k(&self) -> usize {
        self.system_k
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        page_or_empty(self.probe(q))
    }

    /// A failed round trip (connect error, unreadable response, non-200
    /// status) is [`SearchError::Unavailable`]: it is treated as unpaid
    /// and not written to the ledger, so the resilience layer above can
    /// retry it and count it, and no cache ever remembers it. A `200`
    /// whose body is not a whole page (not JSON, a missing `tuples` or
    /// `overflow`, a tuple that does not decode) was executed by the site:
    /// it is recorded on the ledger and is [`SearchError::Malformed`].
    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        let payload = query_to_json(q).to_string();
        let body =
            http_request(self.addr, "POST", "/dbapi/search", Some(&payload)).map_err(|_| {
                SearchError::Unavailable {
                    retry_after: UNAVAILABLE_RETRY_AFTER,
                }
            })?;
        self.ledger.record_executed(qr2_webdb::ExecPath::External);
        let page = page_from_json(&body).map_err(|detail| SearchError::Malformed { detail })?;
        Ok(Answer::paid(page))
    }

    fn ledger(&self) -> &QueryLedger {
        &self.ledger
    }
}

/// Minimal one-shot HTTP client (connection-per-request, matching the
/// server's `Connection: close` behaviour).
fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let body = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;

    let mut reader = BufReader::new(stream);
    let mut raw = String::new();
    reader
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("missing status code")?;
    if status != 200 {
        return Err(format!("HTTP {status}: {payload}"));
    }
    Ok(payload.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_datagen::{bluenile_db, DiamondsConfig};
    use qr2_webdb::RangePred;

    fn local_db() -> Arc<dyn TopKInterface> {
        Arc::new(bluenile_db(&DiamondsConfig {
            n: 400,
            seed: 77,
            ..DiamondsConfig::default()
        }))
    }

    #[test]
    fn query_json_roundtrip() {
        let q = SearchQuery::all()
            .and_range(AttrId(0), RangePred::half_open(1.5, 9.25))
            .and_cats(AttrId(5), CatSet::new([0, 2, 3]));
        let j = query_to_json(&q);
        let back = query_from_json(&j).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn tuple_json_roundtrip() {
        let t = Tuple::new(
            TupleId(9),
            vec![Value::Num(3.25), Value::Cat(4), Value::Num(-1.0)],
        );
        let back = wire_tuple_from_json(&wire_tuple_to_json(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn schema_json_roundtrip() {
        let schema = local_db().schema().clone();
        let back = schema_from_json(&schema_to_json(&schema)).unwrap();
        assert!(back.same_structure(&schema));
    }

    #[test]
    fn remote_db_matches_local_db() {
        let db = local_db();
        let server = WebDbGateway::serve(db.clone(), "127.0.0.1:0", 2).unwrap();
        let remote = RemoteWebDb::connect(server.addr()).unwrap();

        assert!(remote.schema().same_structure(db.schema()));
        assert_eq!(remote.system_k(), db.system_k());

        let price = db.schema().expect_id("price");
        let queries = [
            SearchQuery::all(),
            SearchQuery::all().and_range(price, RangePred::closed(1_000.0, 20_000.0)),
            SearchQuery::all().and_range(price, RangePred::open(5e6, 6e6)), // empty
        ];
        for q in &queries {
            let local = db.search(q);
            let over_wire = remote.search(q);
            assert_eq!(local, over_wire, "wire answer must match local for {q}");
        }
        assert_eq!(remote.ledger().total(), queries.len() as u64);
        server.stop();
    }

    #[test]
    fn reranking_works_across_the_wire() {
        use qr2_core::{Algorithm, ExecutorKind, OneDimFunction, RerankRequest, Reranker};

        let db = local_db();
        let server = WebDbGateway::serve(db.clone(), "127.0.0.1:0", 4).unwrap();
        let remote: Arc<dyn TopKInterface> = Arc::new(RemoteWebDb::connect(server.addr()).unwrap());

        let price = remote.schema().expect_id("price");
        let run = |db: Arc<dyn TopKInterface>| -> Vec<TupleId> {
            let reranker = Reranker::builder(db)
                .executor(ExecutorKind::Parallel { fanout: 4 })
                .build();
            reranker
                .query(RerankRequest {
                    filter: SearchQuery::all(),
                    function: OneDimFunction::asc(price).into(),
                    algorithm: Algorithm::OneDRerank,
                })
                .next_page(8)
                .unwrap()
                .iter()
                .map(|t| t.id)
                .collect()
        };
        let over_wire = run(remote);
        let direct = run(db);
        assert_eq!(over_wire, direct, "reranking over HTTP must equal local");
        server.stop();
    }

    #[test]
    fn connect_to_dead_address_fails_cleanly() {
        // Port 1 is essentially never listening.
        let err = match RemoteWebDb::connect("127.0.0.1:1") {
            Err(e) => e,
            Ok(_) => panic!("connect to a dead port must fail"),
        };
        assert!(err.contains("connect"), "{err}");
    }
}
