//! Thin HTTP handlers over [`QueryService`].
//!
//! Two surfaces share the service layer:
//!
//! * the versioned resource API under `/v1` (the contract new clients use):
//!   `POST /v1/sources/:source/queries` (201 + `Location`),
//!   `GET|POST /v1/queries/:id/next`, `GET /v1/queries/:id/stats`,
//!   `DELETE /v1/queries/:id`, `GET /v1/sources`, `GET /v1/algorithms`;
//! * the legacy RPC-style `/api/*` endpoints, kept as deprecated shims that
//!   delegate to the same service methods and render the same error
//!   envelope.
//!
//! Handlers only decode DTOs, call one service method, and encode the
//! result — all request parsing lives in [`crate::dto`], all logic in
//! [`crate::QueryService`].

use std::sync::Arc;

use qr2_core::Budget;
use qr2_http::{
    decode_body, ApiError, ChunkStream, IntoJson, Json, Params, Request, Response, Status,
};
use qr2_webdb::{Schema, Tuple};

use crate::dto::{
    algorithm_catalog, GetNextRequest, NextPageRequest, QueryRequest, ReconStartRequest,
    TupleEventEncoder,
};
use crate::error::{codes, unknown_query};
use crate::service::{entry_stats, remaining_lifetime, QueryService};
use crate::session::{SessionEntry, SessionHandle, SessionManager};
use crate::sources::SourceRegistry;

/// Streaming responses may ask for more rows than a buffered page (the
/// stream emits them incrementally instead of holding them in memory).
const STREAM_LIMIT_RANGE: (usize, usize) = (1, 1000);

/// Shared state behind the HTTP handlers.
pub struct ApiState {
    /// Registered sources.
    pub registry: Arc<SourceRegistry>,
    /// Session table.
    pub sessions: Arc<SessionManager>,
    service: QueryService,
}

/// Render a service result: `ok_status` + JSON body, or the error envelope.
fn respond<T: IntoJson>(ok_status: Status, result: Result<T, ApiError>) -> Response {
    match result {
        Ok(value) => Response::json(ok_status, &value.to_json()),
        Err(e) => e.into(),
    }
}

/// When the legacy `/api/*` surface sunsets (RFC 8594 `Sunset` header).
/// Clients should migrate to `/v1` (advertised via the `Link` successor
/// relation) before this date.
pub const LEGACY_SUNSET: &str = "Tue, 01 Jun 2027 00:00:00 GMT";

/// Mark a legacy `/api/*` response as deprecated: `Deprecation: true`
/// plus a `Sunset` date and a `Link` pointing clients at the `/v1`
/// successor surface.
fn deprecated(resp: Response) -> Response {
    resp.with_header("Deprecation", "true")
        .with_header("Sunset", LEGACY_SUNSET)
        .with_header("Link", "</v1>; rel=\"successor-version\"")
}

/// Parse an optional non-negative integer query parameter.
fn usize_param(req: &Request, name: &str) -> Result<Option<usize>, ApiError> {
    match req.query_param(name) {
        Some(raw) => raw.parse::<usize>().map(Some).map_err(|_| {
            ApiError::bad_request(
                codes::INVALID_PARAMETER,
                format!("{name} must be a non-negative integer, got '{raw}'"),
            )
            .with_field(name)
        }),
        None => Ok(None),
    }
}

/// Render one metric family as JSON for `GET /v1/observe/metrics`.
fn family_json(fam: &qr2_obs::FamilySnapshot) -> Json {
    use std::collections::BTreeMap;
    let metrics: Vec<Json> = fam
        .metrics
        .iter()
        .map(|m| {
            let labels: BTreeMap<String, Json> = m
                .labels
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                .collect();
            let mut fields = vec![("labels", Json::Obj(labels))];
            match &m.value {
                qr2_obs::MetricValue::Counter(v) => fields.push(("value", Json::from(*v as f64))),
                qr2_obs::MetricValue::Gauge(v) => fields.push(("value", Json::from(*v))),
                qr2_obs::MetricValue::Histogram { summary, .. } => {
                    fields.push(("count", Json::from(summary.count as f64)));
                    fields.push(("sum_us", Json::from(summary.sum_us as f64)));
                    fields.push(("p50_us", Json::from(summary.p50_us as f64)));
                    fields.push(("p99_us", Json::from(summary.p99_us as f64)));
                    fields.push(("p999_us", Json::from(summary.p999_us as f64)));
                }
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("name", Json::from(fam.name.as_str())),
        ("kind", Json::from(fam.kind.as_str())),
        ("metrics", Json::Arr(metrics)),
    ])
}

/// Render one completed trace as JSON for `GET /v1/observe/traces`.
fn trace_json(t: &qr2_obs::TraceSnapshot) -> Json {
    use std::collections::BTreeMap;
    let spans: Vec<Json> = t
        .spans
        .iter()
        .map(|s| {
            let mut fields = vec![
                ("name", Json::from(s.name)),
                ("start_us", Json::from(s.start_us as f64)),
                ("dur_us", Json::from(s.dur_us as f64)),
            ];
            if !s.attrs.is_empty() {
                let attrs: BTreeMap<String, Json> = s
                    .attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::from(*v)))
                    .collect();
                fields.push(("attrs", Json::Obj(attrs)));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("id", Json::from(t.id.as_str())),
        ("root", Json::from(t.root.as_str())),
        ("total_us", Json::from(t.total_us as f64)),
        ("slow", Json::Bool(t.slow)),
        ("spans", Json::Arr(spans)),
    ])
}

/// The size a stream chunk fills up to with query-free lines (a single
/// line may exceed it).
const STREAM_CHUNK_BYTES: usize = 16 << 10;

/// The NDJSON producer behind `GET /v1/queries/:id/stream`.
///
/// Pull-based: each call produces one chunk and is invoked only after the
/// previous chunk was flushed to the socket. A chunk starts with one line
/// — a tuple event (`{"event":"tuple",...}`) or the terminating summary
/// (`{"event":"summary",...}`) — which may spend web-DB queries: one tuple
/// is discovered per line (`advance` with a 1-tuple budget). The chunk
/// then takes every following line that is ready without a query
/// ([`StreamState::next_is_free`]), up to [`STREAM_CHUNK_BYTES`]. A line
/// that needs a probe always starts the next chunk, so every line that
/// cost a query reaches the client before the next probe goes out. The
/// entry lock is held for one chunk, and the optional query `budget` plus
/// the session's lifetime cap bound the total spend across the stream.
fn ndjson_stream(
    id: String,
    handle: Arc<SessionHandle>,
    schema: Schema,
    limit: usize,
    budget: Option<usize>,
) -> ChunkStream {
    let mut state = StreamState {
        id,
        encoder: TupleEventEncoder::new(schema),
        limit,
        budget,
        emitted: 0,
        stream_queries: 0,
        status: None,
        summary_sent: false,
    };
    // The producer runs after the request's middleware chain has returned:
    // capture the ambient trace now (the handler is still inside it) so
    // every chunk records a late `stream.page` span into the same trace.
    let trace = qr2_obs::current_handle();
    let lines_total = qr2_obs::counter(
        "qr2_service_stream_lines_total",
        &[("source", &handle.source)],
    );
    ChunkStream::new(move || {
        if state.summary_sent {
            return None;
        }
        let mut chunk = String::with_capacity(STREAM_CHUNK_BYTES);
        // Lines in `chunk`, and its length up to the last complete line.
        let (mut lines, mut complete) = (0u64, 0);
        let mut fill = || {
            let mut entry = handle.lock();
            // The stream never re-enters SessionManager::get, so refresh the
            // idle timer itself — an actively consumed stream must not be
            // TTL-evicted out from under its client.
            handle.touch();
            loop {
                state.push_line(&handle, &mut entry, &mut chunk);
                lines += 1;
                let line_len = chunk.len() - complete;
                complete = chunk.len();
                // Stop where another line of this size would overflow.
                if state.summary_sent
                    || complete + line_len > STREAM_CHUNK_BYTES
                    || !state.next_is_free(&entry)
                {
                    break;
                }
            }
        };
        // A panicking producer would otherwise drop the connection with no
        // terminal line; catch it, keep the lines already complete, and end
        // with a one-time `failed`/`partial` summary so every stream — even
        // a crashed one — ends with a parseable status.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &trace {
            Some(t) => t.enter(|| qr2_obs::span("stream.page", &mut fill)),
            None => qr2_obs::span("stream.page", &mut fill),
        }));
        if caught.is_err() && !state.summary_sent {
            chunk.truncate(complete);
            state.push_summary(&mut chunk, state.interrupted(), None);
            lines += 1;
        }
        lines_total.add(lines);
        (!chunk.is_empty()).then(|| chunk.into_bytes())
    })
}

/// Per-stream progress of [`ndjson_stream`].
struct StreamState {
    id: String,
    encoder: TupleEventEncoder,
    limit: usize,
    budget: Option<usize>,
    /// Tuple lines produced so far.
    emitted: usize,
    stream_queries: usize,
    /// The stopping condition, once reached; the next line is the summary.
    status: Option<&'static str>,
    summary_sent: bool,
}

impl StreamState {
    /// True when the next line is ready without a web-DB query: the
    /// session is recon-served, the engine has buffered tuples, or the
    /// summary is already decided.
    fn next_is_free(&self, entry: &SessionEntry) -> bool {
        self.status.is_some()
            || self.emitted >= self.limit
            || entry.recon.is_some()
            || entry.session.buffered() > 0
    }

    /// Append the next line (tuple event or summary) to `out`.
    fn push_line(&mut self, handle: &SessionHandle, entry: &mut SessionEntry, out: &mut String) {
        loop {
            if let Some(status) = self.status {
                // A stopping condition was reached: emit the summary.
                let stats = entry_stats(entry).to_json();
                return self.push_summary(out, status, Some(stats));
            }
            if self.emitted >= self.limit {
                self.status = Some("complete");
                continue;
            }
            // Recon-served sessions stream straight from the recon
            // cursor — every line is free, no budget applies.
            let recon_step = entry.recon.as_mut().map(|s| (s.next_one(), s.done()));
            if let Some((tuple, done)) = recon_step {
                entry.done = done;
                match tuple {
                    Some(t) => return self.push_tuple(out, 0, 0, &t),
                    None => {
                        self.status = Some("done");
                        continue;
                    }
                }
            }
            let remaining = match remaining_lifetime(&self.id, handle, entry) {
                Ok(r) => r,
                Err(_) => {
                    // The 200 is committed; report exhaustion in-band.
                    self.status = Some("budget_exhausted");
                    continue;
                }
            };
            let step_cap = match (
                self.budget.map(|b| b.saturating_sub(self.stream_queries)),
                remaining,
            ) {
                (Some(b), Some(r)) => Some(b.min(r)),
                (Some(b), None) => Some(b),
                (None, r) => r,
            };
            let step =
                qr2_sched::context::with_session(crate::service::session_ctx(handle), || {
                    entry.session.advance(Budget {
                        queries: step_cap,
                        tuples: Some(1),
                    })
                });
            entry.done = step.is_done();
            let step_queries = step.stats_delta().total_queries();
            self.stream_queries += step_queries;
            // A terminally failed probe (source outage outlasting the
            // scheduler's patience) trips the session's failure signal.
            // The 200 is committed, so terminate in-band: drop the step's
            // tuple (it was assembled around a failed probe) and emit a
            // truthful summary.
            if handle.failure.is_tripped() {
                handle.failure.clear();
                self.status = Some(self.interrupted());
                continue;
            }
            match step.tuples().first() {
                Some(t) => {
                    let total = entry.session.stats().total_queries();
                    return self.push_tuple(out, step_queries, total, t);
                }
                None => {
                    // No tuple: the step stopped for a terminal reason.
                    self.status = Some(step.label());
                    continue;
                }
            }
        }
    }

    fn push_tuple(&mut self, out: &mut String, queries: usize, total: usize, t: &Tuple) {
        self.encoder
            .write_event(out, self.emitted, queries, total, t);
        out.push('\n');
        self.emitted += 1;
    }

    /// The status of a stream cut short: `failed` if nothing was
    /// delivered, `partial` if the client already has tuples.
    fn interrupted(&self) -> &'static str {
        if self.emitted == 0 {
            "failed"
        } else {
            "partial"
        }
    }

    /// Append the one summary line; `count` is the tuple lines
    /// delivered. After a producer panic `stats` is left out: the session
    /// may be mid-step, so the summary reports only what this stream
    /// knows for certain.
    fn push_summary(&mut self, out: &mut String, status: &str, stats: Option<Json>) {
        let mut fields = vec![
            ("event", Json::from("summary")),
            ("status", Json::from(status)),
            ("count", Json::from(self.emitted)),
            ("stream_queries", Json::from(self.stream_queries)),
        ];
        fields.extend(stats.map(|stats| ("stats", stats)));
        out.push_str(&Json::obj(fields).to_string());
        out.push('\n');
        self.summary_sent = true;
    }
}

impl ApiState {
    /// Assemble the handler state.
    pub fn new(registry: Arc<SourceRegistry>, sessions: Arc<SessionManager>) -> ApiState {
        let service = QueryService::new(Arc::clone(&registry), Arc::clone(&sessions));
        ApiState {
            registry,
            sessions,
            service,
        }
    }

    /// The application service behind the handlers.
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    // -- /v1 ---------------------------------------------------------------

    /// `GET /v1/sources`
    pub fn v1_sources(&self) -> Response {
        let list: Vec<Json> = self
            .service
            .sources()
            .iter()
            .map(IntoJson::to_json)
            .collect();
        Response::ok_json(&Json::obj([("sources", Json::Arr(list))]))
    }

    /// `GET /v1/algorithms`
    pub fn v1_algorithms(&self) -> Response {
        let list: Vec<Json> = algorithm_catalog().iter().map(IntoJson::to_json).collect();
        Response::ok_json(&Json::obj([("algorithms", Json::Arr(list))]))
    }

    /// `POST /v1/sources/:source/queries` — create a query resource.
    pub fn v1_create_query(&self, req: &Request, p: &Params) -> Response {
        let result = (|| {
            let source = p.require("source")?;
            let dto: QueryRequest = decode_body(req)?;
            if let Some(body_source) = &dto.source {
                if body_source != source {
                    return Err(ApiError::bad_request(
                        codes::INVALID_VALUE,
                        format!("body source '{body_source}' contradicts path source '{source}'"),
                    )
                    .with_field("source"));
                }
            }
            self.service.create_query(source, &dto)
        })();
        match result {
            Ok(page) => {
                let location = format!("/v1/queries/{}", page.query_id);
                Response::json(Status::Created, &page.to_json()).with_header("Location", location)
            }
            Err(e) => e.into(),
        }
    }

    /// `GET|POST /v1/queries/:id/next` — the next page. `GET` takes an
    /// optional `page_size` query parameter; `POST` an optional JSON body.
    pub fn v1_next(&self, req: &Request, p: &Params) -> Response {
        let result = (|| {
            let id = p.require("id")?;
            let page_size = match req.method {
                qr2_http::Method::Post if !req.body.is_empty() => {
                    decode_body::<NextPageRequest>(req)?.page_size
                }
                _ => usize_param(req, "page_size")?,
            };
            self.service.next_page(id, page_size)
        })();
        respond(Status::Ok, result)
    }

    /// `GET /v1/queries/:id/results?limit=N&budget=Q` — one budgeted,
    /// resumable step of the query (see
    /// [`QueryService::results`](crate::QueryService::results)).
    pub fn v1_results(&self, req: &Request, p: &Params) -> Response {
        let result = (|| {
            let id = p.require("id")?;
            let limit = usize_param(req, "limit")?;
            let budget = usize_param(req, "budget")?;
            self.service.results(id, limit, budget)
        })();
        respond(Status::Ok, result)
    }

    /// `GET /v1/queries/:id/stream?limit=N&budget=Q` — stream up to
    /// `limit` tuples as NDJSON, one tuple-with-cost event per line,
    /// terminated by a summary line. Lines are produced on demand; lines
    /// ready without a web-DB query share a chunk, and a line that cost a
    /// query is flushed before the next discovery starts, so clients see
    /// the first tuple while later ones are still being searched for. The
    /// session's entry lock is taken per chunk, not for the whole stream,
    /// so stats and other requests interleave with an active stream.
    pub fn v1_stream(&self, req: &Request, p: &Params) -> Response {
        let result = (|| -> Result<Response, ApiError> {
            let id = p.require("id")?.to_string();
            let limit = usize_param(req, "limit")?;
            let budget = usize_param(req, "budget")?;
            let handle = self.sessions.get(&id).ok_or_else(|| unknown_query(&id))?;
            let source = self.registry.get(&handle.source).ok_or_else(|| {
                ApiError::internal(format!("session source '{}' vanished", handle.source))
            })?;
            let schema = source.schema().clone();
            let limit = limit
                .unwrap_or(handle.page_size)
                .clamp(STREAM_LIMIT_RANGE.0, STREAM_LIMIT_RANGE.1);
            // Reject an already-exhausted lifetime budget as a structured
            // 402 *before* committing to a 200 streaming response.
            // Recon-served sessions are exempt: their pages cost nothing.
            {
                let entry = handle.lock();
                if entry.recon.is_none() {
                    remaining_lifetime(&id, &handle, &entry)?;
                }
            }
            Ok(Response::stream(
                "application/x-ndjson; charset=utf-8",
                ndjson_stream(id, handle, schema, limit, budget),
            ))
        })();
        result.unwrap_or_else(Into::into)
    }

    /// `GET /v1/queries/:id/stats`
    pub fn v1_stats(&self, p: &Params) -> Response {
        respond(
            Status::Ok,
            p.require("id").and_then(|id| self.service.stats(id)),
        )
    }

    /// `DELETE /v1/queries/:id` — 204 on success.
    pub fn v1_delete(&self, p: &Params) -> Response {
        match p.require("id").and_then(|id| self.service.delete(id)) {
            Ok(()) => Response::no_content(),
            Err(e) => e.into(),
        }
    }

    /// `GET /v1/sources/:source/cache` — the source's shared-answer-cache
    /// statistics (hits, misses, coalesced waits, occupancy, epoch).
    pub fn v1_cache_stats(&self, p: &Params) -> Response {
        respond(
            Status::Ok,
            p.require("source")
                .and_then(|source| self.service.cache_stats(source)),
        )
    }

    /// `GET /v1/sources/:source/sched` — the source's scheduler panel
    /// (queue depth, per-class queue-delay percentiles, coalescing and
    /// throttling counters, traffic policy).
    pub fn v1_sched_stats(&self, p: &Params) -> Response {
        respond(
            Status::Ok,
            p.require("source")
                .and_then(|source| self.service.sched_stats(source)),
        )
    }

    /// `GET /v1/sources/:source/health` — the source's resilience panel
    /// (circuit-breaker state, error counters, retries, parked/failed
    /// probes).
    pub fn v1_source_health(&self, p: &Params) -> Response {
        respond(
            Status::Ok,
            p.require("source")
                .and_then(|source| self.service.source_health(source)),
        )
    }

    /// `DELETE /v1/sources/:source/cache` — flush the source's shared
    /// answer cache; 204 on success.
    pub fn v1_cache_flush(&self, p: &Params) -> Response {
        match p
            .require("source")
            .and_then(|source| self.service.flush_cache(source))
        {
            Ok(()) => Response::no_content(),
            Err(e) => e.into(),
        }
    }

    /// `POST /v1/sources/:source/recon` — start (or resume) an offline
    /// reconstruction job; 202 with the job id. An empty body uses the
    /// default job options.
    pub fn v1_recon_start(&self, req: &Request, p: &Params) -> Response {
        let result = (|| {
            let source = p.require("source")?;
            let dto: ReconStartRequest = if req.body.is_empty() {
                ReconStartRequest::default()
            } else {
                decode_body(req)?
            };
            self.service.recon_start(source, &dto)
        })();
        respond(Status::Accepted, result)
    }

    /// `GET /v1/sources/:source/recon` — reconstruction coverage, epoch
    /// and job state.
    pub fn v1_recon_status(&self, p: &Params) -> Response {
        respond(
            Status::Ok,
            p.require("source")
                .and_then(|source| self.service.recon_status(source)),
        )
    }

    /// `DELETE /v1/sources/:source/recon` — cancel any running job and
    /// drop the reconstructed index; 204 on success.
    pub fn v1_recon_drop(&self, p: &Params) -> Response {
        match p
            .require("source")
            .and_then(|source| self.service.recon_drop(source))
        {
            Ok(()) => Response::no_content(),
            Err(e) => e.into(),
        }
    }

    // -- legacy /api shims (deprecated; see docs/API.md) --------------------

    /// `GET /api/sources`
    pub fn handle_sources(&self) -> Response {
        deprecated(self.v1_sources())
    }

    // -- Observability -----------------------------------------------------

    /// Per-source families sampled from the serving layers' own stats
    /// structures at scrape time (ledger totals, cache counters, traffic
    /// counters, scheduler state, reconstruction coverage, live sessions).
    /// Sampling at scrape keeps the hot paths free of double bookkeeping:
    /// the registry holds only metrics with no existing source of truth.
    fn sampled_families(&self) -> Vec<qr2_obs::FamilySnapshot> {
        use qr2_obs::{FamilyKind, FamilySnapshot, MetricSnapshot, MetricValue};

        fn counter(labels: Vec<(String, String)>, v: u64) -> MetricSnapshot {
            MetricSnapshot {
                labels,
                value: MetricValue::Counter(v),
            }
        }
        fn gauge(labels: Vec<(String, String)>, v: f64) -> MetricSnapshot {
            MetricSnapshot {
                labels,
                value: MetricValue::Gauge(v),
            }
        }
        fn labels(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
            let mut out: Vec<(String, String)> = pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            out.sort();
            out
        }

        let mut paid = Vec::new();
        let mut exec = Vec::new();
        let mut cache_lookups = Vec::new();
        let mut cache_entries = Vec::new();
        let mut traffic = Vec::new();
        let mut sched_queued = Vec::new();
        let mut sched_dispatched = Vec::new();
        let mut recon_cov = Vec::new();
        let mut breaker_state = Vec::new();
        for s in self.registry.all() {
            let name = s.name.as_str();
            paid.push(counter(labels(&[("source", name)]), s.db.ledger().total()));
            let b = s.db.ledger().exec_breakdown();
            for (path, v) in [
                ("indexed", b.indexed),
                ("scanned", b.scanned),
                ("shortcut", b.shortcut),
                ("external", b.external),
            ] {
                exec.push(counter(labels(&[("source", name), ("path", path)]), v));
            }
            let cs = s.cache.stats();
            for (outcome, v) in [
                ("hit", cs.hits),
                ("miss", cs.misses),
                ("coalesced", cs.coalesced),
            ] {
                cache_lookups.push(counter(
                    labels(&[("source", name), ("outcome", outcome)]),
                    v,
                ));
            }
            cache_entries.push(gauge(labels(&[("source", name)]), cs.entries as f64));
            let ts = s.sched.shaped().traffic_stats();
            for (event, v) in [
                ("admitted", ts.admitted),
                ("throttled", ts.throttled),
                ("waited", ts.waited),
            ] {
                traffic.push(counter(labels(&[("source", name), ("event", event)]), v));
            }
            let ss = s.sched.stats();
            sched_queued.push(gauge(labels(&[("source", name)]), ss.queued as f64));
            sched_dispatched.push(counter(labels(&[("source", name)]), ss.dispatched));
            recon_cov.push(gauge(
                labels(&[("source", name)]),
                s.recon.coverage(s.schema()),
            ));
            // 0 = closed, 1 = half-open, 2 = open.
            let health = s.sched.resilient().health();
            breaker_state.push(gauge(
                labels(&[("source", name)]),
                health.breaker_code as f64,
            ));
        }
        let fam = |name: &str, kind: FamilyKind, metrics: Vec<MetricSnapshot>| FamilySnapshot {
            name: name.to_string(),
            kind,
            metrics,
        };
        vec![
            fam("qr2_source_paid_queries_total", FamilyKind::Counter, paid),
            fam("qr2_source_exec_queries_total", FamilyKind::Counter, exec),
            fam(
                "qr2_cache_lookups_total",
                FamilyKind::Counter,
                cache_lookups,
            ),
            fam("qr2_cache_entries", FamilyKind::Gauge, cache_entries),
            fam("qr2_traffic_events_total", FamilyKind::Counter, traffic),
            fam("qr2_sched_queued", FamilyKind::Gauge, sched_queued),
            fam(
                "qr2_sched_dispatched_total",
                FamilyKind::Counter,
                sched_dispatched,
            ),
            fam("qr2_recon_coverage_ratio", FamilyKind::Gauge, recon_cov),
            fam("qr2_breaker_state", FamilyKind::Gauge, breaker_state),
            fam(
                "qr2_service_sessions_live",
                FamilyKind::Gauge,
                vec![gauge(Vec::new(), self.sessions.len() as f64)],
            ),
        ]
    }

    /// `GET /metrics` — Prometheus text exposition: every family recorded
    /// in the global qr2-obs registry (stage/route latency histograms,
    /// paid-path counters) plus the per-source families sampled at scrape
    /// time.
    pub fn metrics_prometheus(&self) -> Response {
        let mut out = qr2_obs::global().render_prometheus();
        for fam in self.sampled_families() {
            qr2_obs::render_prometheus_family(&mut out, &fam);
        }
        Response {
            status: Status::Ok,
            headers: vec![(
                "Content-Type".to_string(),
                "text/plain; version=0.0.4; charset=utf-8".to_string(),
            )],
            body: qr2_http::Body::Bytes(out.into_bytes()),
        }
    }

    /// `GET /v1/observe/metrics` — the same families as `/metrics`, as a
    /// structured JSON snapshot (histograms summarized as
    /// count/sum/p50/p99/p999).
    pub fn v1_observe_metrics(&self) -> Response {
        let mut fams = qr2_obs::global().snapshot();
        fams.extend(self.sampled_families());
        let list: Vec<Json> = fams.iter().map(family_json).collect();
        Response::ok_json(&Json::obj([("families", Json::Arr(list))]))
    }

    /// `GET /v1/observe/traces?slow=1` — recent completed request traces
    /// (slow ones only with `slow=1`), each with its recorded spans.
    pub fn v1_observe_traces(&self, req: &Request) -> Response {
        let slow_only = req
            .query_param("slow")
            .is_some_and(|v| v == "1" || v == "true");
        let threshold = match qr2_obs::slow_threshold_ms() {
            Some(ms) => Json::from(ms as f64),
            None => Json::Null,
        };
        let list: Vec<Json> = qr2_obs::recent_traces(slow_only)
            .iter()
            .map(trace_json)
            .collect();
        Response::ok_json(&Json::obj([
            ("slow_threshold_ms", threshold),
            ("slow_only", Json::Bool(slow_only)),
            ("traces", Json::Arr(list)),
        ]))
    }

    /// `POST /api/query` — legacy create; source comes from the body.
    pub fn handle_query(&self, req: &Request) -> Response {
        let result = (|| {
            let dto: QueryRequest = decode_body(req)?;
            let source = dto.source.clone().ok_or_else(|| {
                ApiError::bad_request(codes::MISSING_FIELD, "missing required field 'source'")
                    .with_field("source")
            })?;
            self.service.create_query(&source, &dto)
        })();
        deprecated(match result {
            Ok(page) => Response::ok_json(&page.to_legacy_json()),
            Err(e) => e.into(),
        })
    }

    /// `POST /api/getnext` — legacy get-next; session id comes from the
    /// body.
    pub fn handle_getnext(&self, req: &Request) -> Response {
        let result = (|| {
            let dto: GetNextRequest = decode_body(req)?;
            self.service.next_page(&dto.session, dto.page_size)
        })();
        deprecated(match result {
            Ok(page) => Response::ok_json(&page.to_legacy_json()),
            Err(e) => e.into(),
        })
    }

    /// `GET /api/session/:id/stats`
    pub fn handle_stats(&self, p: &Params) -> Response {
        deprecated(self.v1_stats(p))
    }

    /// `DELETE /api/session/:id` — legacy delete (200 + body, unlike the
    /// v1 204).
    pub fn handle_delete(&self, p: &Params) -> Response {
        deprecated(
            match p.require("id").and_then(|id| self.service.delete(id)) {
                Ok(()) => Response::ok_json(&Json::obj([("deleted", Json::Bool(true))])),
                Err(e) => e.into(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_core::ExecutorKind;
    use qr2_http::{parse_json, Method};
    use std::time::Duration;

    fn state() -> ApiState {
        ApiState::new(
            Arc::new(SourceRegistry::demo(400, 400, ExecutorKind::Sequential)),
            Arc::new(SessionManager::new(Duration::from_secs(60))),
        )
    }

    fn params(pairs: &[(&str, &str)]) -> Params {
        // Round-trip through the router to build Params the normal way.
        let mut p = String::from("/x");
        let mut pattern = String::from("/x");
        for (k, v) in pairs {
            pattern.push_str(&format!("/:{k}"));
            p.push_str(&format!("/{v}"));
        }
        let out = std::sync::Arc::new(std::sync::Mutex::new(None));
        let out2 = out.clone();
        let router = qr2_http::Router::new().route(Method::Get, &pattern, move |_, p| {
            *out2.lock().unwrap() = Some(p.clone());
            Response::no_content()
        });
        router.dispatch(&Request::test(Method::Get, &p, Vec::new()));
        let got = out.lock().unwrap().take().unwrap();
        got
    }

    fn body_json(resp: &Response) -> Json {
        parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    #[test]
    fn v1_create_sets_location_and_201() {
        let st = state();
        let req = Request::test(
            Method::Post,
            "/v1/sources/bluenile/queries",
            br#"{"ranking":{"type":"md","weights":{"price":1.0,"carat":-0.5}},"page_size":5}"#
                .to_vec(),
        );
        let resp = st.v1_create_query(&req, &params(&[("source", "bluenile")]));
        assert_eq!(resp.status, Status::Created);
        let v = body_json(&resp);
        let id = v.get("query_id").unwrap().as_str().unwrap();
        assert_eq!(
            resp.header("Location"),
            Some(format!("/v1/queries/{id}").as_str())
        );
        assert_eq!(v.get("results").unwrap().as_arr().unwrap().len(), 5);
    }

    #[test]
    fn v1_create_rejects_contradicting_body_source() {
        let st = state();
        let req = Request::test(
            Method::Post,
            "/v1/sources/bluenile/queries",
            br#"{"source":"zillow","ranking":{"type":"1d","attr":"price"}}"#.to_vec(),
        );
        let resp = st.v1_create_query(&req, &params(&[("source", "bluenile")]));
        assert_eq!(resp.status, Status::BadRequest);
        let v = body_json(&resp);
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some(codes::INVALID_VALUE)
        );
    }

    #[test]
    fn v1_next_get_and_post_variants() {
        let st = state();
        let req = Request::test(
            Method::Post,
            "/v1/sources/zillow/queries",
            br#"{"ranking":{"type":"1d","attr":"price"},"page_size":4}"#.to_vec(),
        );
        let resp = st.v1_create_query(&req, &params(&[("source", "zillow")]));
        let id = body_json(&resp)
            .get("query_id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();

        // GET with a query param.
        let mut get = Request::test(Method::Get, &format!("/v1/queries/{id}/next"), Vec::new());
        get.query.insert("page_size".into(), "2".into());
        let resp = st.v1_next(&get, &params(&[("id", &id)]));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(
            body_json(&resp)
                .get("results")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );

        // POST with a body.
        let post = Request::test(
            Method::Post,
            &format!("/v1/queries/{id}/next"),
            br#"{"page_size":3}"#.to_vec(),
        );
        let resp = st.v1_next(&post, &params(&[("id", &id)]));
        assert_eq!(
            body_json(&resp)
                .get("results")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            3
        );

        // POST with no body falls back to the session page size.
        let post = Request::test(Method::Post, &format!("/v1/queries/{id}/next"), Vec::new());
        let resp = st.v1_next(&post, &params(&[("id", &id)]));
        assert_eq!(
            body_json(&resp)
                .get("results")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            4
        );

        // Bad query param is a structured 400.
        let mut get = Request::test(Method::Get, &format!("/v1/queries/{id}/next"), Vec::new());
        get.query.insert("page_size".into(), "lots".into());
        let resp = st.v1_next(&get, &params(&[("id", &id)]));
        assert_eq!(resp.status, Status::BadRequest);
        assert_eq!(
            body_json(&resp)
                .get("error")
                .unwrap()
                .get("code")
                .unwrap()
                .as_str(),
            Some(codes::INVALID_PARAMETER)
        );
    }

    #[test]
    fn v1_delete_is_204_then_404() {
        let st = state();
        let req = Request::test(
            Method::Post,
            "/v1/sources/zillow/queries",
            br#"{"ranking":{"type":"1d","attr":"price"},"page_size":1}"#.to_vec(),
        );
        let resp = st.v1_create_query(&req, &params(&[("source", "zillow")]));
        let id = body_json(&resp)
            .get("query_id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let resp = st.v1_delete(&params(&[("id", &id)]));
        assert_eq!(resp.status, Status::NoContent);
        assert!(resp.body.is_empty());
        let resp = st.v1_delete(&params(&[("id", &id)]));
        assert_eq!(resp.status, Status::NotFound);
        assert_eq!(
            body_json(&resp)
                .get("error")
                .unwrap()
                .get("code")
                .unwrap()
                .as_str(),
            Some(codes::UNKNOWN_QUERY)
        );
    }

    #[test]
    fn v1_algorithms_lists_catalog() {
        let st = state();
        let resp = st.v1_algorithms();
        let v = body_json(&resp);
        let algos = v.get("algorithms").unwrap().as_arr().unwrap();
        assert_eq!(algos.len(), 7);
        assert!(algos
            .iter()
            .any(|a| a.get("name").unwrap().as_str() == Some("md-ta")));
    }

    #[test]
    fn v1_cache_stats_and_flush_endpoints() {
        let st = state();
        // Cold cache: all zeros.
        let resp = st.v1_cache_stats(&params(&[("source", "bluenile")]));
        assert_eq!(resp.status, Status::Ok);
        let v = body_json(&resp);
        assert_eq!(v.get("source").unwrap().as_str(), Some("bluenile"));
        assert_eq!(v.get("misses").unwrap().as_usize(), Some(0));
        assert_eq!(v.get("persistent").unwrap().as_bool(), Some(false));

        // A query warms it.
        let req = Request::test(
            Method::Post,
            "/v1/sources/bluenile/queries",
            br#"{"ranking":{"type":"1d","attr":"price"},"page_size":3}"#.to_vec(),
        );
        st.v1_create_query(&req, &params(&[("source", "bluenile")]));
        let v = body_json(&st.v1_cache_stats(&params(&[("source", "bluenile")])));
        assert!(v.get("misses").unwrap().as_usize().unwrap() > 0);
        assert!(v.get("entries").unwrap().as_usize().unwrap() > 0);
        assert!(v.get("hit_rate").unwrap().as_f64().is_some());
        // The panel also reports what the web database itself executed.
        let db_queries = v.get("db_queries").unwrap().as_usize().unwrap();
        assert!(db_queries > 0, "misses reached the database");
        let exec = v.get("db_exec").unwrap();
        let by_path: usize = ["indexed", "scanned", "shortcut", "external"]
            .iter()
            .map(|k| exec.get(k).unwrap().as_usize().unwrap())
            .sum();
        assert_eq!(by_path, db_queries, "exec breakdown partitions the total");

        // Flush: 204, then the panel reads empty at the next epoch.
        let resp = st.v1_cache_flush(&params(&[("source", "bluenile")]));
        assert_eq!(resp.status, Status::NoContent);
        let v = body_json(&st.v1_cache_stats(&params(&[("source", "bluenile")])));
        assert_eq!(v.get("entries").unwrap().as_usize(), Some(0));
        assert_eq!(v.get("epoch").unwrap().as_usize(), Some(1));

        // Unknown source: structured 404 on both.
        for resp in [
            st.v1_cache_stats(&params(&[("source", "amazon")])),
            st.v1_cache_flush(&params(&[("source", "amazon")])),
        ] {
            assert_eq!(resp.status, Status::NotFound);
            assert_eq!(
                body_json(&resp)
                    .get("error")
                    .unwrap()
                    .get("code")
                    .unwrap()
                    .as_str(),
                Some(codes::UNKNOWN_SOURCE)
            );
        }
    }

    #[test]
    fn legacy_responses_carry_deprecation_headers() {
        let st = state();
        let resp = st.handle_sources();
        assert_eq!(resp.header("Deprecation"), Some("true"));
        assert_eq!(resp.header("Sunset"), Some(LEGACY_SUNSET));
        assert_eq!(
            resp.header("Link"),
            Some("</v1>; rel=\"successor-version\"")
        );
        // Errors on the legacy surface are marked too.
        let resp = st.handle_query(&Request::test(Method::Post, "/api/query", b"{}".to_vec()));
        assert_eq!(resp.status, Status::BadRequest);
        assert_eq!(resp.header("Deprecation"), Some("true"));
        assert_eq!(resp.header("Sunset"), Some(LEGACY_SUNSET));
        // The /v1 surface is not marked.
        let resp = st.v1_sources();
        assert_eq!(resp.header("Deprecation"), None);
        assert_eq!(resp.header("Sunset"), None);
    }

    #[test]
    fn legacy_query_and_getnext_flow() {
        let st = state();
        let req = Request::test(
            Method::Post,
            "/api/query",
            br#"{
                "source": "bluenile",
                "filters": [{"attr":"carat","min":0.5}],
                "ranking": {"type":"md","weights":{"price":1.0,"carat":-0.5}},
                "algorithm": "md-rerank",
                "page_size": 5
            }"#
            .to_vec(),
        );
        let resp = st.handle_query(&req);
        assert_eq!(
            resp.status.code(),
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert_eq!(resp.header("Deprecation"), Some("true"), "legacy shim");
        assert_eq!(resp.header("Sunset"), Some(LEGACY_SUNSET));
        let v = body_json(&resp);
        let sid = v.get("session").unwrap().as_str().unwrap().to_string();
        assert_eq!(v.get("results").unwrap().as_arr().unwrap().len(), 5);
        assert!(
            v.get("stats")
                .unwrap()
                .get("queries")
                .unwrap()
                .as_usize()
                .unwrap()
                > 0
        );

        let req = Request::test(
            Method::Post,
            "/api/getnext",
            format!(r#"{{"session":"{sid}"}}"#).into_bytes(),
        );
        let resp = st.handle_getnext(&req);
        assert_eq!(resp.status.code(), 200);
        let v2 = body_json(&resp);
        let first: Vec<usize> = v
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|t| t.get("id").unwrap().as_usize().unwrap())
            .collect();
        let next: Vec<usize> = v2
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|t| t.get("id").unwrap().as_usize().unwrap())
            .collect();
        assert!(
            first.iter().all(|id| !next.contains(id)),
            "pages must not overlap"
        );

        assert_eq!(st.handle_stats(&params(&[("id", &sid)])).status.code(), 200);
        assert_eq!(
            st.handle_delete(&params(&[("id", &sid)])).status.code(),
            200
        );
        assert_eq!(
            st.handle_delete(&params(&[("id", &sid)])).status.code(),
            404
        );
    }

    #[test]
    fn legacy_error_paths_render_envelope() {
        let st = state();
        let make = |body: &str| Request::test(Method::Post, "/api/query", body.as_bytes().to_vec());
        for (body, status, code) in [
            ("not json", 400, codes::INVALID_JSON),
            ("{}", 400, codes::MISSING_FIELD),
            (
                r#"{"ranking":{"type":"1d","attr":"x"}}"#,
                400,
                codes::MISSING_FIELD,
            ),
            (
                r#"{"source":"nope","ranking":{"type":"1d","attr":"x"}}"#,
                404,
                codes::UNKNOWN_SOURCE,
            ),
            (
                r#"{"source":"zillow","ranking":{"type":"1d","attr":"bogus"}}"#,
                400,
                codes::UNKNOWN_ATTRIBUTE,
            ),
            (
                r#"{"source":"zillow","ranking":{"type":"md","weights":{"price":1.0,"sqft":0.5}},"algorithm":"1d-binary"}"#,
                400,
                codes::ALGORITHM_MISMATCH,
            ),
        ] {
            let resp = st.handle_query(&make(body));
            assert_eq!(resp.status.code(), status, "{body}");
            let v = body_json(&resp);
            assert_eq!(
                v.get("error").unwrap().get("code").unwrap().as_str(),
                Some(code),
                "{body}"
            );
        }
    }

    #[test]
    fn tuple_serialization_labels_categoricals() {
        use crate::dto::TupleDto;
        let schema = qr2_webdb::Schema::builder()
            .numeric("price", 0.0, 1000.0)
            .numeric("carat", 0.0, 10.0)
            .categorical("cut", ["Good", "Ideal"])
            .build();
        let t = qr2_webdb::Tuple::new(
            qr2_webdb::TupleId(3),
            vec![
                qr2_webdb::Value::Num(250.0),
                qr2_webdb::Value::Num(1.2),
                qr2_webdb::Value::Cat(1),
            ],
        );
        let j = TupleDto::new(&schema, &t).to_json();
        assert_eq!(j.get("id").unwrap().as_usize(), Some(3));
        let values = j.get("values").unwrap();
        assert_eq!(values.get("cut").unwrap().as_str(), Some("Ideal"));
        assert_eq!(values.get("price").unwrap().as_f64(), Some(250.0));
    }
}
