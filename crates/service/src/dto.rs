//! Request/response DTOs for the QR2 API.
//!
//! All request decoding goes through [`qr2_http::FromJson`] impls here —
//! no handler parses a JSON field inline. Decoding validates *structure*
//! (types, required fields, value domains that don't need a schema) and
//! reports failures as path-anchored [`ApiError`]s; schema-dependent
//! validation (attribute names, categorical labels) happens in
//! [`crate::QueryService`], which reconstructs the same field paths from
//! the indices stored on the DTOs.

use std::collections::BTreeMap;

use qr2_core::{Algorithm, QueryStats};
use qr2_http::{write_escaped, write_number, ApiError, Decode, FromJson, IntoJson, Json};
use qr2_webdb::{AttrId, AttrKind, Schema, Tuple, Value};

use crate::error::codes;
use crate::sources::Source;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One entry of the `filters` array. `index` is the position in the array,
/// kept so schema-validation errors can point at `filters[i].attr`.
#[derive(Debug, Clone)]
pub struct FilterDto {
    /// Position in the request's `filters` array.
    pub index: usize,
    /// Attribute name (validated against the schema by the service).
    pub attr: String,
    /// Numeric lower bound (defaults to the attribute domain).
    pub min: Option<f64>,
    /// Numeric upper bound (defaults to the attribute domain).
    pub max: Option<f64>,
    /// Categorical labels (present ⇒ categorical filter).
    pub values: Option<Vec<String>>,
}

impl FilterDto {
    fn decode(d: &Decode, index: usize) -> Result<FilterDto, ApiError> {
        let attr = d.field("attr")?.str()?.to_string();
        let values = match d.opt("values") {
            Some(v) => Some(
                v.arr()?
                    .iter()
                    .map(|item| item.str().map(str::to_string))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            None => None,
        };
        Ok(FilterDto {
            index,
            attr,
            min: d.opt("min").map(|v| v.f64()).transpose()?,
            max: d.opt("max").map(|v| v.f64()).transpose()?,
            values,
        })
    }

    /// The field path of this filter's `attr` in the request body.
    pub fn attr_path(&self) -> String {
        format!("filters[{}].attr", self.index)
    }

    /// The field path of this filter entry.
    pub fn path(&self) -> String {
        format!("filters[{}]", self.index)
    }
}

/// The `ranking` object: a single-attribute sort or a weighted linear
/// function over the sliders.
#[derive(Debug, Clone)]
pub enum RankingDto {
    /// `{"type":"1d","attr":"price","dir":"asc"}`
    OneDim {
        /// Attribute name (validated against the schema by the service).
        attr: String,
        /// Ascending when true (`dir` defaults to `"asc"`).
        ascending: bool,
    },
    /// `{"type":"md","weights":{"price":1.0,"carat":-0.5}}`
    Md {
        /// `(attribute, weight)` pairs; weights already checked against the
        /// slider domain `[-1, 1]`.
        weights: Vec<(String, f64)>,
    },
}

impl FromJson for RankingDto {
    fn from_json(d: &Decode) -> Result<RankingDto, ApiError> {
        match d.field("type")?.str()? {
            "1d" => {
                let attr = d.field("attr")?.str()?.to_string();
                let ascending = match d.opt("dir") {
                    None => true,
                    Some(v) => match v.str()? {
                        "asc" => true,
                        "desc" => false,
                        other => {
                            return Err(v.error(
                                codes::INVALID_VALUE,
                                format!("direction must be 'asc' or 'desc', got '{other}'"),
                            ))
                        }
                    },
                };
                Ok(RankingDto::OneDim { attr, ascending })
            }
            "md" => {
                let weights_d = d.field("weights")?;
                let mut weights = Vec::new();
                for (name, w) in weights_d.entries()? {
                    let value = w.f64()?;
                    if !(-1.0..=1.0).contains(&value) {
                        return Err(w.error(
                            codes::INVALID_WEIGHT,
                            format!("weight for '{name}' must be a slider value in [-1, 1]"),
                        ));
                    }
                    weights.push((name.to_string(), value));
                }
                Ok(RankingDto::Md { weights })
            }
            other => Err(d.field("type")?.error(
                codes::INVALID_VALUE,
                format!("ranking 'type' must be '1d' or 'md', got '{other}'"),
            )),
        }
    }
}

/// `POST /v1/sources/:source/queries` (and legacy `POST /api/query`) body.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Source name from the body (legacy surface only; `/v1` takes it from
    /// the path).
    pub source: Option<String>,
    /// Conjunctive filter predicates.
    pub filters: Vec<FilterDto>,
    /// Ranking preference (required).
    pub ranking: RankingDto,
    /// Algorithm name, `"auto"` when omitted.
    pub algorithm: String,
    /// Requested page size (service clamps to `1..=100`).
    pub page_size: Option<usize>,
    /// Lifetime cap on web-DB queries this query may spend; once spent,
    /// further paging yields the `budget_exceeded` error (402).
    pub max_queries: Option<usize>,
    /// Scheduler priority class: `"interactive"` (default) or
    /// `"background"` (`"crawl"` accepted as an alias). Validated by the
    /// service against [`qr2_core::QueryClass`].
    pub class: Option<String>,
}

impl FromJson for QueryRequest {
    fn from_json(d: &Decode) -> Result<QueryRequest, ApiError> {
        let filters = match d.opt("filters") {
            Some(f) => f
                .arr()?
                .iter()
                .enumerate()
                .map(|(i, item)| FilterDto::decode(item, i))
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(QueryRequest {
            source: d
                .opt("source")
                .map(|v| v.str().map(str::to_string))
                .transpose()?,
            filters,
            ranking: RankingDto::from_json(&d.field("ranking")?)?,
            algorithm: d
                .opt("algorithm")
                .map(|v| v.str().map(str::to_string))
                .transpose()?
                .unwrap_or_else(|| "auto".to_string()),
            page_size: d.opt("page_size").map(|v| v.usize()).transpose()?,
            max_queries: d.opt("max_queries").map(|v| v.usize()).transpose()?,
            class: d
                .opt("class")
                .map(|v| v.str().map(str::to_string))
                .transpose()?,
        })
    }
}

/// `POST /v1/queries/:id/next` body (everything optional; `GET` variant
/// uses the `page_size` query parameter instead).
#[derive(Debug, Clone, Default)]
pub struct NextPageRequest {
    /// Override the session's page size for this page.
    pub page_size: Option<usize>,
}

impl FromJson for NextPageRequest {
    fn from_json(d: &Decode) -> Result<NextPageRequest, ApiError> {
        Ok(NextPageRequest {
            page_size: d.opt("page_size").map(|v| v.usize()).transpose()?,
        })
    }
}

/// Legacy `POST /api/getnext` body (the session id travels in the body on
/// the RPC surface).
#[derive(Debug, Clone)]
pub struct GetNextRequest {
    /// Session id (the v1 query id).
    pub session: String,
    /// Override the session's page size for this page.
    pub page_size: Option<usize>,
}

impl FromJson for GetNextRequest {
    fn from_json(d: &Decode) -> Result<GetNextRequest, ApiError> {
        Ok(GetNextRequest {
            session: d.field("session")?.str()?.to_string(),
            page_size: d.opt("page_size").map(|v| v.usize()).transpose()?,
        })
    }
}

/// `POST /v1/sources/:source/recon` body (everything optional; an empty
/// body starts a default-budget job).
#[derive(Debug, Clone, Default)]
pub struct ReconStartRequest {
    /// Paid web-DB queries this job may spend (default 10 000). The
    /// frontier persists, so a follow-up job resumes where this budget
    /// ran out.
    pub max_queries: Option<usize>,
    /// Paid queries between incremental checkpoints (default 32).
    pub checkpoint_every: Option<usize>,
}

impl FromJson for ReconStartRequest {
    fn from_json(d: &Decode) -> Result<ReconStartRequest, ApiError> {
        Ok(ReconStartRequest {
            max_queries: d.opt("max_queries").map(|v| v.usize()).transpose()?,
            checkpoint_every: d.opt("checkpoint_every").map(|v| v.usize()).transpose()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One result tuple with schema-labelled values.
#[derive(Debug, Clone)]
pub struct TupleDto {
    /// Stable tuple id within the source.
    pub id: usize,
    /// Attribute name → value (numbers as numbers, categoricals as their
    /// labels).
    pub values: BTreeMap<String, Json>,
}

impl TupleDto {
    /// Label a raw tuple against its schema.
    pub fn new(schema: &Schema, t: &Tuple) -> TupleDto {
        let mut values = BTreeMap::new();
        for (id, attr) in schema.iter() {
            let v = match (&attr.kind, t.value(id)) {
                (AttrKind::Numeric { .. }, Value::Num(x)) => Json::Num(x),
                (AttrKind::Categorical { labels }, Value::Cat(c)) => labels
                    .get(c as usize)
                    .map(|l| Json::from(l.as_str()))
                    .unwrap_or(Json::Null),
                _ => Json::Null,
            };
            values.insert(attr.name.clone(), v);
        }
        TupleDto {
            id: t.id.0 as usize,
            values,
        }
    }
}

impl IntoJson for TupleDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id)),
            ("values", Json::Obj(self.values.clone())),
        ])
    }
}

/// Encodes the NDJSON stream's `tuple` events straight into a text buffer,
/// with no [`Json`] tree in between. The bytes are identical to rendering
/// `{"event":"tuple","index":…,"queries":…,"total_queries":…,"tuple":…}`
/// through [`Json::obj`] with the tuple as a [`TupleDto`]: keys in
/// `BTreeMap` order, numbers and strings through the same
/// [`qr2_http::write_number`]/[`qr2_http::write_escaped`] writers.
pub(crate) struct TupleEventEncoder {
    schema: Schema,
    /// Every attribute with its pre-escaped `"name":` key, sorted by name
    /// (the order a `BTreeMap<String, _>` iterates in).
    attrs: Vec<(AttrId, String)>,
}

impl TupleEventEncoder {
    /// Build the encoder for one stream.
    pub(crate) fn new(schema: Schema) -> TupleEventEncoder {
        let mut names: Vec<(&str, AttrId)> =
            schema.iter().map(|(id, a)| (a.name.as_str(), id)).collect();
        names.sort_unstable();
        let attrs = names
            .into_iter()
            .map(|(name, id)| {
                let mut key = String::with_capacity(name.len() + 3);
                write_escaped(name, &mut key);
                key.push(':');
                (id, key)
            })
            .collect();
        TupleEventEncoder { schema, attrs }
    }

    /// Append one `tuple` event (without the trailing newline).
    pub(crate) fn write_event(
        &self,
        out: &mut String,
        index: usize,
        queries: usize,
        total_queries: usize,
        t: &Tuple,
    ) {
        out.push_str(r#"{"event":"tuple","index":"#);
        write_number(index as f64, out);
        out.push_str(r#","queries":"#);
        write_number(queries as f64, out);
        out.push_str(r#","total_queries":"#);
        write_number(total_queries as f64, out);
        out.push_str(r#","tuple":{"id":"#);
        write_number(f64::from(t.id.0), out);
        out.push_str(r#","values":{"#);
        for (i, (id, key)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(key);
            match (&self.schema.attr(*id).kind, t.value(*id)) {
                (AttrKind::Numeric { .. }, Value::Num(x)) => write_number(x, out),
                (AttrKind::Categorical { labels }, Value::Cat(c)) => match labels.get(c as usize) {
                    Some(label) => write_escaped(label, out),
                    None => out.push_str("null"),
                },
                _ => out.push_str("null"),
            }
        }
        out.push_str("}}}");
    }
}

/// The statistics panel (paper Fig. 4): query cost + processing time, plus
/// the parallelism breakdown behind Fig. 2 and the shared-answer-cache
/// breakdown.
#[derive(Debug, Clone)]
pub struct StatsResponse {
    /// Total top-k queries issued to the source (real web-DB spend only).
    pub queries: usize,
    /// Get-next rounds executed.
    pub rounds: usize,
    /// Rounds that ran queries in parallel.
    pub parallel_rounds: usize,
    /// Queries that ran inside parallel rounds.
    pub parallel_queries: usize,
    /// Fraction of queries parallelized.
    pub parallel_fraction: f64,
    /// Lookups served from the shared answer cache (free).
    pub cache_hits: usize,
    /// Lookups coalesced onto another session's in-flight query (free).
    pub coalesced_waits: usize,
    /// Pages served straight from the offline rank reconstruction —
    /// zero web-DB cost, the engine never ran.
    pub recon_hits: usize,
    /// Fraction of lookups served without spending a web-DB query.
    pub cache_hit_fraction: f64,
    /// Wall-clock search time in milliseconds.
    pub search_time_ms: f64,
    /// Tuples served to the user so far.
    pub served: usize,
}

impl StatsResponse {
    /// Snapshot the engine's stats ledger.
    pub fn new(stats: &QueryStats, served: usize) -> StatsResponse {
        StatsResponse {
            queries: stats.total_queries(),
            rounds: stats.num_rounds(),
            parallel_rounds: stats.parallel_rounds(),
            parallel_queries: stats.parallel_queries(),
            parallel_fraction: stats.parallel_fraction(),
            cache_hits: stats.cache_hits,
            coalesced_waits: stats.coalesced_waits,
            recon_hits: stats.recon_hits,
            cache_hit_fraction: stats.cache_hit_fraction(),
            search_time_ms: stats.search_time.as_secs_f64() * 1e3,
            served,
        }
    }
}

impl IntoJson for StatsResponse {
    fn to_json(&self) -> Json {
        Json::obj([
            ("queries", Json::from(self.queries)),
            ("rounds", Json::from(self.rounds)),
            ("parallel_rounds", Json::from(self.parallel_rounds)),
            ("parallel_queries", Json::from(self.parallel_queries)),
            ("parallel_fraction", Json::Num(self.parallel_fraction)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("coalesced_waits", Json::from(self.coalesced_waits)),
            ("recon_hits", Json::from(self.recon_hits)),
            ("cache_hit_fraction", Json::Num(self.cache_hit_fraction)),
            ("search_time_ms", Json::Num(self.search_time_ms)),
            ("served", Json::from(self.served)),
        ])
    }
}

/// One source's shared-answer-cache panel
/// (`GET /v1/sources/:source/cache`), including what the web database
/// itself saw and how its engine executed those queries.
#[derive(Debug, Clone)]
pub struct CacheStatsResponse {
    /// The source key.
    pub source: String,
    /// Counter snapshot.
    pub stats: qr2_cache::CacheStats,
    /// Total queries the web database really executed (raw ledger —
    /// lookups the cache absorbed never appear here).
    pub db_queries: u64,
    /// Per-execution-path breakdown of `db_queries` (sorted-projection
    /// index vs rank-order scan vs trivially-empty shortcut).
    pub db_exec: qr2_webdb::ExecBreakdown,
}

impl IntoJson for CacheStatsResponse {
    fn to_json(&self) -> Json {
        let s = &self.stats;
        let e = &self.db_exec;
        Json::obj([
            ("source", Json::from(self.source.as_str())),
            ("entries", Json::from(s.entries)),
            ("capacity", Json::from(s.capacity)),
            ("hits", Json::from(s.hits as usize)),
            ("misses", Json::from(s.misses as usize)),
            ("coalesced", Json::from(s.coalesced as usize)),
            ("evictions", Json::from(s.evictions as usize)),
            ("hit_rate", Json::Num(s.hit_rate())),
            ("epoch", Json::from(s.epoch as usize)),
            ("persistent", Json::Bool(s.persistent)),
            ("db_queries", Json::from(self.db_queries as usize)),
            (
                "db_exec",
                Json::obj([
                    ("indexed", Json::from(e.indexed as usize)),
                    ("scanned", Json::from(e.scanned as usize)),
                    ("shortcut", Json::from(e.shortcut as usize)),
                    ("external", Json::from(e.external as usize)),
                ]),
            ),
        ])
    }
}

/// One source's scheduler panel (`GET /v1/sources/:source/sched`):
/// queue/in-flight depth, fairness and coalescing counters, per-class
/// queue-delay percentiles, what the traffic shaper saw, and the policy
/// in force.
#[derive(Debug, Clone)]
pub struct SchedStatsResponse {
    /// The source key.
    pub source: String,
    /// Scheduler snapshot (queues, dispatch counters, delay percentiles).
    pub sched: qr2_sched::SchedSnapshot,
    /// What the traffic-shaped interface admitted/throttled underneath.
    pub traffic: qr2_webdb::TrafficStats,
    /// The source policy in force.
    pub policy: qr2_webdb::SourcePolicy,
}

impl IntoJson for SchedStatsResponse {
    fn to_json(&self) -> Json {
        let s = &self.sched;
        let classes = s
            .classes
            .iter()
            .map(|c| {
                Json::obj([
                    ("class", Json::from(c.class.as_str())),
                    ("queued", Json::from(c.queued)),
                    ("dispatched", Json::from(c.dispatched as usize)),
                    ("delay_p50_ms", Json::Num(c.delay_p50_ms)),
                    ("delay_p99_ms", Json::Num(c.delay_p99_ms)),
                ])
            })
            .collect();
        let policy = Json::obj([
            (
                "rate_per_sec",
                self.policy
                    .rate
                    .map(|r| Json::Num(r.per_sec))
                    .unwrap_or(Json::Null),
            ),
            (
                "burst",
                self.policy
                    .rate
                    .map(|r| Json::Num(r.burst))
                    .unwrap_or(Json::Null),
            ),
        ]);
        Json::obj([
            ("source", Json::from(self.source.as_str())),
            ("queued", Json::from(s.queued)),
            ("inflight", Json::from(s.inflight)),
            ("dispatched", Json::from(s.dispatched as usize)),
            ("throttle_waits", Json::from(s.throttle_waits as usize)),
            ("rejected", Json::from(s.rejected as usize)),
            ("classes", Json::Arr(classes)),
            (
                "traffic",
                Json::obj([
                    ("admitted", Json::from(self.traffic.admitted as usize)),
                    ("throttled", Json::from(self.traffic.throttled as usize)),
                    ("waited", Json::from(self.traffic.waited as usize)),
                ]),
            ),
            ("policy", policy),
        ])
    }
}

/// One source's resilience panel (`GET /v1/sources/:source/health`):
/// circuit-breaker state, per-kind error counters, retries paid, and the
/// scheduler's view of breaker-parked and terminally failed probes.
#[derive(Debug, Clone)]
pub struct HealthResponse {
    /// The source key.
    pub source: String,
    /// Breaker/error snapshot from the resilience layer.
    pub health: qr2_webdb::SourceHealth,
    /// Dispatch turns the scheduler parked because the breaker was open.
    pub parked_waits: u64,
    /// Probes the scheduler failed terminally (outage outlasted its
    /// patience window).
    pub sched_failed_probes: u64,
}

impl IntoJson for HealthResponse {
    fn to_json(&self) -> Json {
        let h = &self.health;
        Json::obj([
            ("source", Json::from(self.source.as_str())),
            ("breaker", Json::from(h.breaker)),
            ("breaker_code", Json::from(h.breaker_code as usize)),
            (
                "consecutive_failures",
                Json::from(h.consecutive_failures as usize),
            ),
            ("breaker_opens", Json::from(h.breaker_opens as usize)),
            (
                "errors",
                Json::obj([
                    ("timeouts", Json::from(h.timeouts as usize)),
                    ("unavailable", Json::from(h.unavailable as usize)),
                    ("malformed", Json::from(h.malformed as usize)),
                ]),
            ),
            ("retries", Json::from(h.retries as usize)),
            ("failed_probes", Json::from(h.failed_probes as usize)),
            (
                "last_error",
                h.last_error
                    .as_deref()
                    .map(Json::from)
                    .unwrap_or(Json::Null),
            ),
            (
                "retry_after_ms",
                h.retry_after
                    .map(|d| Json::from(d.as_millis() as usize))
                    .unwrap_or(Json::Null),
            ),
            (
                "sched",
                Json::obj([
                    ("parked_waits", Json::from(self.parked_waits as usize)),
                    (
                        "failed_probes",
                        Json::from(self.sched_failed_probes as usize),
                    ),
                ]),
            ),
        ])
    }
}

/// One page of reranked results (the create and get-next response).
#[derive(Debug, Clone)]
pub struct PageResponse {
    /// The query resource id (legacy surface calls it the session).
    pub query_id: String,
    /// Paper name of the algorithm serving the query (`"MD-RERANK"`);
    /// reported on creation.
    pub algorithm: Option<&'static str>,
    /// The page of tuples.
    pub results: Vec<TupleDto>,
    /// True when the stream is exhausted.
    pub done: bool,
    /// True when the page was served under a degraded policy (source
    /// breaker open, stale recon epoch tolerated) rather than against
    /// the source's current state.
    pub degraded: bool,
    /// Cumulative statistics.
    pub stats: StatsResponse,
}

impl PageResponse {
    /// The legacy `/api` rendering (`"session"` key, same payload).
    pub fn to_legacy_json(&self) -> Json {
        let mut fields = vec![("session", Json::from(self.query_id.as_str()))];
        if let Some(a) = self.algorithm {
            fields.push(("algorithm", Json::from(a)));
        }
        fields.extend(self.page_fields());
        Json::obj(fields)
    }

    fn page_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            (
                "results",
                Json::Arr(self.results.iter().map(IntoJson::to_json).collect()),
            ),
            ("done", Json::Bool(self.done)),
            ("degraded", Json::Bool(self.degraded)),
            ("stats", self.stats.to_json()),
        ]
    }
}

impl IntoJson for PageResponse {
    fn to_json(&self) -> Json {
        let mut fields = vec![("query_id", Json::from(self.query_id.as_str()))];
        if let Some(a) = self.algorithm {
            fields.push(("algorithm", Json::from(a)));
        }
        fields.extend(self.page_fields());
        Json::obj(fields)
    }
}

/// A budgeted page of results (`GET /v1/queries/:id/results`): whatever
/// the step's budget bought, the reason the step stopped, and both the
/// step's incremental query spend and the cumulative statistics.
#[derive(Debug, Clone)]
pub struct ResultsResponse {
    /// The query resource id.
    pub query_id: String,
    /// The tuples this call produced (possibly a partial page).
    pub results: Vec<TupleDto>,
    /// Why the step stopped: `complete` (limit met) |
    /// `budget_exhausted` (query budget ran out first; call again to
    /// resume) | `done` (stream exhausted) | `cancelled`.
    pub status: &'static str,
    /// Web-DB queries this call spent (the step's incremental cost).
    pub step_queries: usize,
    /// True when the step was served under a degraded policy (source
    /// breaker open, stale recon epoch tolerated).
    pub degraded: bool,
    /// Cumulative statistics for the whole session.
    pub stats: StatsResponse,
}

impl IntoJson for ResultsResponse {
    fn to_json(&self) -> Json {
        Json::obj([
            ("query_id", Json::from(self.query_id.as_str())),
            (
                "results",
                Json::Arr(self.results.iter().map(IntoJson::to_json).collect()),
            ),
            ("status", Json::from(self.status)),
            ("done", Json::Bool(self.status == "done")),
            ("step_queries", Json::from(self.step_queries)),
            ("degraded", Json::Bool(self.degraded)),
            ("stats", self.stats.to_json()),
        ])
    }
}

/// `POST /v1/sources/:source/recon` response (202): the job now holding
/// the source's single reconstruction slot.
#[derive(Debug, Clone)]
pub struct ReconJobResponse {
    /// The source key.
    pub source: String,
    /// Reconstruction job id (unique per source).
    pub job_id: u64,
    /// `"started"` for a freshly accepted job; `"running"` when an
    /// earlier job already holds the slot (its id is reported).
    pub state: &'static str,
    /// Answer-cache epoch the job reconstructs against.
    pub epoch: u64,
}

impl IntoJson for ReconJobResponse {
    fn to_json(&self) -> Json {
        Json::obj([
            ("source", Json::from(self.source.as_str())),
            ("job_id", Json::from(self.job_id as usize)),
            ("state", Json::from(self.state)),
            ("epoch", Json::from(self.epoch as usize)),
        ])
    }
}

/// `GET /v1/sources/:source/recon` response: the source's reconstruction
/// panel.
#[derive(Debug, Clone)]
pub struct ReconStatusResponse {
    /// The source key.
    pub source: String,
    /// Status snapshot from the index.
    pub status: qr2_recon::ReconStatus,
}

/// Render a [`qr2_recon::ReconStatus`] (shared by the recon panel and the
/// source listing).
pub(crate) fn recon_status_json(s: &qr2_recon::ReconStatus) -> Json {
    let job = match &s.job {
        Some(j) => Json::obj([
            ("id", Json::from(j.id as usize)),
            ("state", Json::from(j.state)),
        ]),
        None => Json::Null,
    };
    Json::obj([
        ("state", Json::from(s.state)),
        ("stale", Json::Bool(s.stale)),
        ("epoch", Json::from(s.epoch as usize)),
        ("coverage", Json::Num(s.coverage)),
        ("pending_regions", Json::from(s.pending_regions)),
        ("atomic_regions", Json::from(s.atomic_regions)),
        ("tuples", Json::from(s.tuples)),
        ("budget_spent", Json::from(s.budget_spent as usize)),
        ("job", job),
    ])
}

impl IntoJson for ReconStatusResponse {
    fn to_json(&self) -> Json {
        Json::obj([
            ("source", Json::from(self.source.as_str())),
            ("recon", recon_status_json(&self.status)),
        ])
    }
}

/// A data source as reported by `GET /v1/sources`.
#[derive(Debug, Clone)]
pub struct SourceDescriptor {
    /// Source key (`"bluenile"`).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// The source's top-k page size.
    pub system_k: usize,
    /// Schema attributes (rendered with kind, domain, labels).
    pub attributes: Json,
    /// Suggested popular ranking functions.
    pub popular_functions: Json,
    /// Offline-reconstruction snapshot (state, coverage, staleness).
    pub recon: Json,
}

impl SourceDescriptor {
    /// Describe a registered source.
    pub fn new(source: &Source) -> SourceDescriptor {
        let mut attrs = Vec::new();
        for (_, attr) in source.schema().iter() {
            let mut m = BTreeMap::new();
            m.insert("name".to_string(), Json::from(attr.name.as_str()));
            match &attr.kind {
                AttrKind::Numeric { min, max, integral } => {
                    m.insert("kind".to_string(), Json::from("numeric"));
                    m.insert("min".to_string(), Json::Num(*min));
                    m.insert("max".to_string(), Json::Num(*max));
                    m.insert("integral".to_string(), Json::Bool(*integral));
                }
                AttrKind::Categorical { labels } => {
                    m.insert("kind".to_string(), Json::from("categorical"));
                    m.insert(
                        "labels".to_string(),
                        Json::Arr(labels.iter().map(|l| Json::from(l.as_str())).collect()),
                    );
                }
            }
            attrs.push(Json::Obj(m));
        }
        let popular = source
            .popular
            .iter()
            .map(|(label, weights)| {
                Json::obj([
                    ("label", Json::from(label.as_str())),
                    (
                        "weights",
                        Json::Obj(
                            weights
                                .iter()
                                .map(|(a, w)| (a.clone(), Json::Num(*w)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let recon_status = source.recon.status(source.schema(), source.cache.epoch());
        SourceDescriptor {
            name: source.name.clone(),
            title: source.title.clone(),
            system_k: source.db.system_k(),
            attributes: Json::Arr(attrs),
            popular_functions: Json::Arr(popular),
            recon: recon_status_json(&recon_status),
        }
    }
}

impl IntoJson for SourceDescriptor {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("title", Json::from(self.title.as_str())),
            ("system_k", Json::from(self.system_k)),
            ("attributes", self.attributes.clone()),
            ("popular_functions", self.popular_functions.clone()),
            ("recon", self.recon.clone()),
        ])
    }
}

/// One algorithm catalog entry (`GET /v1/algorithms`).
#[derive(Debug, Clone)]
pub struct AlgorithmDescriptor {
    /// API name (`"md-rerank"`), as accepted in `QueryRequest::algorithm`.
    pub name: &'static str,
    /// The paper's name (`"MD-RERANK"`).
    pub paper_name: &'static str,
    /// `"1d"` or `"md"`.
    pub family: &'static str,
    /// The underlying algorithm.
    pub algorithm: Algorithm,
}

/// The full algorithm catalog (excluding the `"auto"` alias, which the
/// create endpoint resolves per ranking function).
pub fn algorithm_catalog() -> Vec<AlgorithmDescriptor> {
    use Algorithm::*;
    [
        ("1d-baseline", OneDBaseline),
        ("1d-binary", OneDBinary),
        ("1d-rerank", OneDRerank),
        ("md-baseline", MdBaseline),
        ("md-binary", MdBinary),
        ("md-rerank", MdRerank),
        ("md-ta", MdTa),
    ]
    .into_iter()
    .map(|(name, algorithm)| AlgorithmDescriptor {
        name,
        paper_name: algorithm.paper_name(),
        family: if algorithm.is_one_dimensional() {
            "1d"
        } else {
            "md"
        },
        algorithm,
    })
    .collect()
}

impl IntoJson for AlgorithmDescriptor {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name)),
            ("paper_name", Json::from(self.paper_name)),
            ("family", Json::from(self.family)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_http::{parse_json, Decode};

    /// The tuple event as the `Json` tree renders it (the reference the
    /// stream encoder must match byte for byte).
    fn tree_event(schema: &Schema, index: usize, q: usize, total: usize, t: &Tuple) -> String {
        Json::obj([
            ("event", Json::from("tuple")),
            ("index", Json::from(index)),
            ("queries", Json::from(q)),
            ("total_queries", Json::from(total)),
            ("tuple", TupleDto::new(schema, t).to_json()),
        ])
        .to_string()
    }

    #[test]
    fn tuple_event_encoder_matches_the_json_tree_byte_for_byte() {
        // splitmix64: a fixed-seed stream, so a failure replays exactly.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Names deliberately out of alphabetical order, some needing
        // escapes or sorting above ASCII.
        const NAMES: [&str; 9] = [
            "zeta", "price", "Carat", "a\"q", "b\\s", "é-size", "mid", "_x", "cut\t",
        ];
        const LABELS: [&str; 7] = [
            "Ideal",
            "say \"hi\"",
            "back\\slash",
            "bell\u{07}\n",
            "中文 é",
            "",
            "\u{1f}",
        ];
        let numbers = [
            -0.0,
            0.0,
            0.5,
            -2.75,
            1.0 / 3.0,
            1e15,
            -1e15,
            123e20,
            999_999_999_999_999.0,
            42.0,
        ];
        for case in 0..500 {
            let mut pool: Vec<&str> = NAMES.to_vec();
            let mut builder = Schema::builder();
            let arity = 1 + (next() % 5) as usize;
            let mut categorical = Vec::new();
            for _ in 0..arity {
                let name = pool.swap_remove((next() % pool.len() as u64) as usize);
                if next() % 2 == 0 {
                    builder = builder.numeric(name, -1e30, 1e30);
                    categorical.push(None);
                } else {
                    let n = 1 + (next() % LABELS.len() as u64) as usize;
                    builder = builder.categorical(name, LABELS[..n].iter().copied());
                    categorical.push(Some(n));
                }
            }
            let schema = builder.build();
            let encoder = TupleEventEncoder::new(schema.clone());
            for _ in 0..8 {
                let values = categorical
                    .iter()
                    .map(|cat| match (cat, next() % 8 == 0) {
                        // One value in eight has the wrong kind: `null`.
                        (None, true) => Value::Cat(0),
                        (Some(_), true) => Value::Num(1.5),
                        (None, false) => {
                            Value::Num(numbers[(next() % numbers.len() as u64) as usize])
                        }
                        // Codes run one past the labels: out of range is `null`.
                        (Some(n), false) => Value::Cat((next() % (*n as u64 + 1)) as u32),
                    })
                    .collect();
                let t = Tuple::new(qr2_webdb::TupleId(next() as u32), values);
                let (index, q, total) = (
                    (next() % 1000) as usize,
                    (next() % 50) as usize,
                    (next() % 100_000) as usize,
                );
                let mut out = String::new();
                encoder.write_event(&mut out, index, q, total, &t);
                assert_eq!(out, tree_event(&schema, index, q, total, &t), "case {case}");
            }
        }
    }

    fn decode_query(body: &str) -> Result<QueryRequest, ApiError> {
        let v = parse_json(body).unwrap();
        QueryRequest::from_json(&Decode::root(&v))
    }

    #[test]
    fn full_query_request_decodes() {
        let q = decode_query(
            r#"{"source":"bluenile",
                "filters":[{"attr":"price","min":100,"max":500},
                           {"attr":"cut","values":["Ideal"]}],
                "ranking":{"type":"md","weights":{"price":1.0,"carat":-0.5}},
                "algorithm":"md-rerank","page_size":5}"#,
        )
        .unwrap();
        assert_eq!(q.source.as_deref(), Some("bluenile"));
        assert_eq!(q.filters.len(), 2);
        assert_eq!(q.filters[1].index, 1);
        assert_eq!(q.filters[1].attr_path(), "filters[1].attr");
        assert_eq!(
            q.filters[1].values.as_deref(),
            Some(&["Ideal".to_string()][..])
        );
        assert!(matches!(q.ranking, RankingDto::Md { ref weights } if weights.len() == 2));
        assert_eq!(q.algorithm, "md-rerank");
        assert_eq!(q.page_size, Some(5));
    }

    #[test]
    fn minimal_query_request_defaults() {
        let q = decode_query(r#"{"ranking":{"type":"1d","attr":"price"}}"#).unwrap();
        assert!(q.source.is_none());
        assert!(q.filters.is_empty());
        assert_eq!(q.algorithm, "auto");
        assert!(q.page_size.is_none());
        assert!(matches!(
            q.ranking,
            RankingDto::OneDim {
                ascending: true,
                ..
            }
        ));
    }

    #[test]
    fn structural_errors_carry_paths_and_codes() {
        let e = decode_query(r#"{"filters":[]}"#).unwrap_err();
        assert_eq!(e.code, codes::MISSING_FIELD);
        assert_eq!(e.field.as_deref(), Some("ranking"));

        let e =
            decode_query(r#"{"ranking":{"type":"1d","attr":"x","dir":"sideways"}}"#).unwrap_err();
        assert_eq!(e.code, codes::INVALID_VALUE);
        assert_eq!(e.field.as_deref(), Some("ranking.dir"));

        let e = decode_query(r#"{"ranking":{"type":"md","weights":{"price":7.0}}}"#).unwrap_err();
        assert_eq!(e.code, codes::INVALID_WEIGHT);
        assert_eq!(e.field.as_deref(), Some("ranking.weights.price"));

        let e = decode_query(r#"{"ranking":{"type":"1d","attr":"p"},"filters":[{"min":1}]}"#)
            .unwrap_err();
        assert_eq!(e.code, codes::MISSING_FIELD);
        assert_eq!(e.field.as_deref(), Some("filters[0].attr"));

        let e = decode_query(r#"{"ranking":{"type":"zzz"}}"#).unwrap_err();
        assert_eq!(e.code, codes::INVALID_VALUE);
        assert_eq!(e.field.as_deref(), Some("ranking.type"));

        let e = decode_query(r#"{"ranking":{"type":"1d","attr":"p"},"page_size":-1}"#).unwrap_err();
        assert_eq!(e.code, codes::INVALID_TYPE);
        assert_eq!(e.field.as_deref(), Some("page_size"));
    }

    #[test]
    fn algorithm_catalog_covers_all_seven() {
        let cat = algorithm_catalog();
        assert_eq!(cat.len(), 7);
        assert!(cat.iter().any(|a| a.name == "md-ta" && a.family == "md"));
        assert!(cat
            .iter()
            .any(|a| a.name == "1d-rerank" && a.family == "1d"));
        let j = cat[0].to_json();
        assert_eq!(j.get("name").unwrap().as_str(), Some("1d-baseline"));
        assert_eq!(
            j.get("paper_name").unwrap().as_str(),
            cat[0].paper_name.into()
        );
    }

    #[test]
    fn page_response_renders_both_surfaces() {
        let page = PageResponse {
            query_id: "s7".into(),
            algorithm: Some("MD-RERANK"),
            results: Vec::new(),
            done: true,
            degraded: false,
            stats: StatsResponse {
                queries: 3,
                rounds: 1,
                parallel_rounds: 0,
                parallel_queries: 0,
                parallel_fraction: 0.0,
                cache_hits: 0,
                coalesced_waits: 0,
                recon_hits: 0,
                cache_hit_fraction: 0.0,
                search_time_ms: 1.5,
                served: 0,
            },
        };
        let v1 = page.to_json();
        assert_eq!(v1.get("query_id").unwrap().as_str(), Some("s7"));
        assert!(v1.get("session").is_none());
        let legacy = page.to_legacy_json();
        assert_eq!(legacy.get("session").unwrap().as_str(), Some("s7"));
        assert!(legacy.get("query_id").is_none());
        for v in [v1, legacy] {
            assert_eq!(v.get("algorithm").unwrap().as_str(), Some("MD-RERANK"));
            assert_eq!(v.get("done").unwrap().as_bool(), Some(true));
            assert_eq!(
                v.get("stats").unwrap().get("queries").unwrap().as_usize(),
                Some(3)
            );
        }
    }
}
