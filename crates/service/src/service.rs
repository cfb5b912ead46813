//! The application layer: every API operation as a `Result`-returning
//! method on [`QueryService`], independent of HTTP.
//!
//! Handlers stay thin — decode a DTO, call one method here, encode the
//! result — and both API surfaces (`/v1` and the legacy `/api` shims)
//! share this exact logic, so behaviour cannot drift between them.
//!
//! Creating a query picks the session's serving tier (reconstruction,
//! degraded reconstruction, or live engine behind the scheduler's
//! admission). From then on every endpoint that serves tuples — the first
//! page, `next`, `results` and each NDJSON stream line — is one
//! [`SessionEntry::step`](crate::SessionEntry) followed by rendering its
//! result.

use std::sync::Arc;

use qr2_core::{
    Algorithm, LinearFunction, OneDimFunction, QueryClass, RankingFunction, RerankRequest, SortDir,
};
use qr2_http::{ApiError, ChunkStream, IntoJson, Json};
use qr2_recon::{JobOptions, ReconJobError, ServeOrder};
use qr2_webdb::{AttrKind, CatSet, RangePred, Schema, SearchQuery, Tuple};

use crate::dto::{
    algorithm_catalog, CacheStatsResponse, FilterDto, HealthResponse, PageResponse, QueryRequest,
    RankingDto, ReconJobResponse, ReconStartRequest, ReconStatusResponse, ResultsResponse,
    SchedStatsResponse, SourceDescriptor, StatsResponse, TupleDto, TupleEventEncoder,
};
use crate::error::{
    budget_exceeded, codes, source_throttled, source_unavailable, unknown_query, unknown_source,
};
use crate::session::{
    ReconServing, Serving, SessionEntry, SessionHandle, SessionManager, StepError,
};
use crate::sources::{Source, SourceRegistry};

/// Page sizes are clamped to this range.
const PAGE_SIZE_RANGE: (usize, usize) = (1, 100);

/// Streams may ask for more rows than a buffered page (the stream emits
/// them incrementally instead of holding them in memory).
const STREAM_LIMIT_RANGE: (usize, usize) = (1, 1000);

/// The size a stream chunk fills up to with query-free lines (a single
/// line may exceed it).
const STREAM_CHUNK_BYTES: usize = 16 << 10;

/// The QR2 application service.
pub struct QueryService {
    registry: Arc<SourceRegistry>,
    sessions: Arc<SessionManager>,
}

impl QueryService {
    /// Service over a source registry and session table.
    pub fn new(registry: Arc<SourceRegistry>, sessions: Arc<SessionManager>) -> QueryService {
        QueryService { registry, sessions }
    }

    /// The registered sources.
    pub fn sources(&self) -> Vec<SourceDescriptor> {
        self.registry
            .all()
            .iter()
            .map(|s| SourceDescriptor::new(s))
            .collect()
    }

    /// `POST /v1/sources/:source/queries`: open a reranking query and serve
    /// its first page.
    pub fn create_query(
        &self,
        source_name: &str,
        req: &QueryRequest,
    ) -> Result<PageResponse, ApiError> {
        let source = self
            .registry
            .get(source_name)
            .ok_or_else(|| unknown_source(source_name))?;
        let schema = source.schema().clone();

        let filter = compile_filters(&schema, &req.filters)?;
        let function = compile_ranking(&schema, &req.ranking)?;
        let algorithm = resolve_algorithm(&req.algorithm, &function)?;
        if algorithm.is_one_dimensional() {
            if let RankingFunction::Linear(f) = &function {
                if f.dims() > 1 {
                    return Err(ApiError::bad_request(
                        codes::ALGORITHM_MISMATCH,
                        "a multi-attribute function needs an MD algorithm",
                    )
                    .with_field("algorithm"));
                }
            }
        }
        let page_size = clamp_page_size(req.page_size.unwrap_or(10));
        let class = parse_class(req.class.as_deref())?;

        // Hybrid dispatch: when the offline-reconstructed index covers the
        // filter region at the source's current staleness epoch, the answer
        // is pulled lazily from a recon cursor page by page — zero paid
        // queries, no scheduler admission, ledger untouched. The epoch is
        // sampled by serve() under its own read lock, so coverage is
        // decided against the epoch current at check time. Coverage is
        // evaluated once, at creation: the session keeps its snapshot even
        // if the epoch moves later (exactly like a live session keeps its
        // buffered tuples).
        let order = ServeOrder::for_request(algorithm, &function);
        let serve = |epoch_at: &dyn Fn() -> u64| {
            let order = order.as_ref()?;
            let norm = source.reranker.normalizer();
            source.recon.serve(&filter, order, norm, epoch_at)
        };
        let fresh = serve(&|| source.cache.epoch());
        // Degraded serving: when the source's circuit breaker rejects new
        // work, a fresh-epoch recon miss gets one more chance — if the
        // operator policy tolerates staleness, re-check coverage against
        // the recon index's *own* epoch (sampled before the call: `serve`
        // evaluates the closure under the index read lock, so it must not
        // re-enter the index) and flag the answer `degraded`. Queries no
        // tier covers are refused outright with a structured 503 instead
        // of burning scheduler slots on a source that cannot answer. The
        // gate is the breaker's *admission*, not its stored state: once
        // the open cooldown elapses the next query must be allowed
        // through as the half-open trial, or the source could never
        // recover through this endpoint.
        let breaker_retry_after = match source.sched.resilient().breaker_admission() {
            qr2_webdb::Admission::Rejected { retry_after } => Some(retry_after),
            _ => None,
        };
        let recon_serving = match fresh {
            Some(cursor) => Some(ReconServing::new(cursor, false)),
            None if breaker_retry_after.is_some() && source.degraded_policy.allow_stale_recon => {
                let recon_epoch = source.recon.epoch();
                serve(&move || recon_epoch).map(|cursor| ReconServing::new(cursor, true))
            }
            None => None,
        };
        let (serving, created) = match recon_serving {
            Some(serving) => (Serving::Recon(serving), &source.obs_created_recon),
            None => {
                if let Some(retry_after) = breaker_retry_after {
                    return Err(source_unavailable(source_name, Some(retry_after)));
                }
                // Admission control: when the source is so saturated that
                // a new session's first probe would wait past the
                // scheduler's admission ceiling, refuse with a structured
                // 503 + Retry-After instead of letting the request hang in
                // the queue.
                source
                    .sched
                    .admit()
                    .map_err(|t| source_throttled(source_name, &t))?;
                let session = source.reranker.query(RerankRequest {
                    filter,
                    function,
                    algorithm,
                });
                (Serving::Live(session), &source.obs_created_live)
            }
        };

        // The first page is the session's first step, taken before the
        // session is registered: a query whose first page fails is never
        // created.
        let handle = SessionHandle::new(source_name, page_size, req.max_queries, class, serving);
        let (step, stats) = {
            let mut entry = handle.lock();
            (entry.step(&handle, page_size, None), entry.stats())
        };
        let (tuples, done, degraded) = match step {
            Ok(step) => (step.tuples, step.done, step.degraded),
            // A zero lifetime budget still opens the query; its first page
            // is empty and every later step is refused.
            Err(StepError::BudgetExceeded { .. }) => (Vec::new(), false, false),
            Err(StepError::Outage { .. }) => {
                let retry_after = source.sched.resilient().health().retry_after;
                return Err(source_unavailable(source_name, retry_after));
            }
        };
        created.inc();
        let query_id = self.sessions.register(handle);
        Ok(PageResponse {
            query_id,
            algorithm: Some(algorithm.paper_name()),
            results: render(&schema, &tuples),
            done,
            degraded,
            stats,
        })
    }

    /// `GET|POST /v1/queries/:id/next`: the next page of a query
    /// (blocking within the session's lifetime budget).
    pub fn next_page(&self, id: &str, page_size: Option<usize>) -> Result<PageResponse, ApiError> {
        let (handle, source) = self.session(id)?;
        let page_size = clamp_page_size(page_size.unwrap_or(handle.page_size));

        let mut entry = handle.lock();
        let step = entry
            .step(&handle, page_size, None)
            .map_err(|e| step_error(id, &source, e))?;
        Ok(PageResponse {
            query_id: id.to_string(),
            algorithm: None,
            results: render(source.schema(), &step.tuples),
            done: step.done,
            degraded: step.degraded,
            stats: entry.stats(),
        })
    }

    /// `GET /v1/queries/:id/results?limit=N&budget=Q`: one budgeted,
    /// resumable step. Returns whatever `budget` queries bought (plus
    /// anything already buffered, which is free) and a `status` telling
    /// the client whether to come back: `complete` | `budget_exhausted` |
    /// `done` | `cancelled`. A follow-up call resumes exactly where this
    /// one stopped without re-issuing any query already spent.
    pub fn results(
        &self,
        id: &str,
        limit: Option<usize>,
        budget: Option<usize>,
    ) -> Result<ResultsResponse, ApiError> {
        let (handle, source) = self.session(id)?;
        let limit = clamp_page_size(limit.unwrap_or(handle.page_size));

        let mut entry = handle.lock();
        let step = entry
            .step(&handle, limit, budget)
            .map_err(|e| step_error(id, &source, e))?;
        Ok(ResultsResponse {
            query_id: id.to_string(),
            results: render(source.schema(), &step.tuples),
            status: step.status,
            step_queries: step.queries,
            degraded: step.degraded,
            stats: entry.stats(),
        })
    }

    /// `GET /v1/queries/:id/stream?limit=N&budget=Q`: the query's next
    /// `limit` tuples as NDJSON chunks, one tuple event per line and one
    /// closing summary line, produced on demand as the response is
    /// written. `budget` caps the queries of the whole stream. An
    /// already-spent lifetime budget is a structured `402` here, before
    /// the stream's `200` is committed.
    pub fn stream(
        &self,
        id: &str,
        limit: Option<usize>,
        budget: Option<usize>,
    ) -> Result<ChunkStream, ApiError> {
        let (handle, source) = self.session(id)?;
        let limit = limit
            .unwrap_or(handle.page_size)
            .clamp(STREAM_LIMIT_RANGE.0, STREAM_LIMIT_RANGE.1);
        // A zero-tuple step spends nothing; it fails only where the
        // stream's first line would.
        let degraded = handle
            .lock()
            .step(&handle, 0, None)
            .map_err(|e| step_error(id, &source, e))?
            .degraded;
        let state = StreamState {
            encoder: TupleEventEncoder::new(source.schema().clone()),
            limit,
            budget,
            emitted: 0,
            stream_queries: 0,
            degraded,
            status: None,
            summary_sent: false,
        };
        Ok(ndjson_stream(handle, state))
    }

    /// `GET /v1/queries/:id/stats`: the statistics panel.
    pub fn stats(&self, id: &str) -> Result<StatsResponse, ApiError> {
        let handle = self.sessions.get(id).ok_or_else(|| unknown_query(id))?;
        let stats = handle.lock().stats();
        Ok(stats)
    }

    /// `DELETE /v1/queries/:id`: drop a live query. Cancels the session's
    /// token and drains its still-queued probes from the source's
    /// scheduler, so a deleted session stops spending paid queries
    /// immediately instead of at its next fair-share turn.
    pub fn delete(&self, id: &str) -> Result<(), ApiError> {
        let handle = self.sessions.get(id);
        if self.sessions.remove(id) {
            if let Some(handle) = handle {
                if let Some(source) = self.registry.get(&handle.source) {
                    source.sched.cancel_session(handle.ctx.key);
                }
            }
            qr2_obs::counter("qr2_service_sessions_deleted_total", &[]).inc();
            Ok(())
        } else {
            Err(unknown_query(id))
        }
    }

    /// `GET /v1/sources/:source/cache`: the source's shared-answer-cache
    /// panel.
    pub fn cache_stats(&self, source_name: &str) -> Result<CacheStatsResponse, ApiError> {
        let source = self
            .registry
            .get(source_name)
            .ok_or_else(|| unknown_source(source_name))?;
        // One breakdown snapshot; the reported total derives from it so
        // `db_exec` always partitions `db_queries` exactly, even while
        // other sessions are querying concurrently.
        let db_exec = source.db.ledger().exec_breakdown();
        Ok(CacheStatsResponse {
            source: source.name.clone(),
            stats: source.cache.stats(),
            db_queries: db_exec.total(),
            db_exec,
        })
    }

    /// `DELETE /v1/sources/:source/cache`: make the source forget what it
    /// learned ([`Source::flush`]): drop every cached answer, advance the
    /// staleness epoch, durably clear any persistent backing store, and
    /// clear the dense regions.
    pub fn flush_cache(&self, source_name: &str) -> Result<(), ApiError> {
        let source = self
            .registry
            .get(source_name)
            .ok_or_else(|| unknown_source(source_name))?;
        source
            .flush()
            .map(|_| ())
            .map_err(|e| ApiError::internal(format!("cache flush failed: {e}")))
    }

    /// `GET /v1/sources/:source/sched`: the source's scheduler panel —
    /// queue depth, in-flight probes, per-class queue-delay percentiles,
    /// frontier-coalescing and throttling counters, and the traffic
    /// policy in force.
    pub fn sched_stats(&self, source_name: &str) -> Result<SchedStatsResponse, ApiError> {
        let source = self
            .registry
            .get(source_name)
            .ok_or_else(|| unknown_source(source_name))?;
        Ok(SchedStatsResponse {
            source: source.name.clone(),
            sched: source.sched.stats(),
            traffic: source.sched.shaped().traffic_stats(),
            policy: source.sched.shaped().policy().clone(),
        })
    }

    /// `GET /v1/sources/:source/health`: the source's resilience panel —
    /// circuit-breaker state, consecutive terminal failures, per-kind
    /// error counters, retries paid, and the scheduler's parked/failed
    /// probe counts.
    pub fn source_health(&self, source_name: &str) -> Result<HealthResponse, ApiError> {
        let source = self
            .registry
            .get(source_name)
            .ok_or_else(|| unknown_source(source_name))?;
        let sched = source.sched.stats();
        Ok(HealthResponse {
            source: source.name.clone(),
            health: source.sched.resilient().health(),
            parked_waits: sched.parked_waits,
            sched_failed_probes: sched.failed_probes,
        })
    }

    /// `POST /v1/sources/:source/recon`: start (or resume) a budgeted
    /// offline rank-reconstruction job over the source's query space.
    /// Idempotent for concurrent callers: a job already running is
    /// reported (`state: "running"`) instead of erroring.
    pub fn recon_start(
        &self,
        source_name: &str,
        req: &ReconStartRequest,
    ) -> Result<ReconJobResponse, ApiError> {
        let source = self
            .registry
            .get(source_name)
            .ok_or_else(|| unknown_source(source_name))?;
        let mut opts = JobOptions::default();
        if let Some(m) = req.max_queries {
            opts.max_queries = m;
        }
        if let Some(c) = req.checkpoint_every {
            opts.checkpoint_every = c.max(1);
        }
        let epoch = source.cache.epoch();
        // The job probes through the source's full serving stack (cache →
        // scheduler → traffic shaping) as background-class work, so a
        // crawl never starves interactive sessions or dodges rate limits.
        match source
            .recon
            .start_job(Arc::clone(&source.probe), opts, epoch)
        {
            Ok(job_id) => Ok(ReconJobResponse {
                source: source.name.clone(),
                job_id,
                state: "started",
                epoch,
            }),
            Err(ReconJobError::Busy { job_id }) => Ok(ReconJobResponse {
                source: source.name.clone(),
                job_id,
                state: "running",
                epoch,
            }),
        }
    }

    /// `GET /v1/sources/:source/recon`: reconstruction coverage, epoch,
    /// region counts, budget spent and job state.
    pub fn recon_status(&self, source_name: &str) -> Result<ReconStatusResponse, ApiError> {
        let source = self
            .registry
            .get(source_name)
            .ok_or_else(|| unknown_source(source_name))?;
        Ok(ReconStatusResponse {
            source: source.name.clone(),
            status: source.recon.status(source.schema(), source.cache.epoch()),
        })
    }

    /// `DELETE /v1/sources/:source/recon`: cancel any running job and drop
    /// the reconstructed index (memory and backing store).
    pub fn recon_drop(&self, source_name: &str) -> Result<(), ApiError> {
        let source = self
            .registry
            .get(source_name)
            .ok_or_else(|| unknown_source(source_name))?;
        source
            .recon
            .drop_index(source.cache.epoch())
            .map_err(|e| ApiError::internal(format!("recon drop failed: {e}")))
    }

    /// A session and its source. Resolved *before* the caller takes the
    /// session's entry lock: registry lookups must not serialize behind
    /// another request paging this same session — and paging one session
    /// must never wait on state shared with other sessions.
    fn session(&self, id: &str) -> Result<(Arc<SessionHandle>, Arc<Source>), ApiError> {
        let handle = self.sessions.get(id).ok_or_else(|| unknown_query(id))?;
        let name = &handle.source;
        let source = self
            .registry
            .get(name)
            .ok_or_else(|| ApiError::internal(format!("session source '{name}' vanished")))?;
        Ok((handle, source))
    }
}

/// The NDJSON producer behind `GET /v1/queries/:id/stream`.
///
/// Pull-based: each call produces one chunk and is invoked only after the
/// previous chunk was flushed to the socket. A chunk starts with one line
/// — a tuple event (`{"event":"tuple",...}`) or the terminating summary
/// (`{"event":"summary",...}`) — which may spend web-DB queries: each
/// tuple line is one one-tuple [`SessionEntry::step`]. The chunk then
/// takes every following line that is ready without a query
/// ([`StreamState::next_is_free`]), up to [`STREAM_CHUNK_BYTES`]. A line
/// that needs a probe always starts the next chunk, so every line that
/// cost a query reaches the client before the next probe goes out. The
/// entry lock is held for one chunk, and the optional query `budget` plus
/// the session's lifetime cap bound the total spend across the stream.
fn ndjson_stream(handle: Arc<SessionHandle>, mut state: StreamState) -> ChunkStream {
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
    encoder: TupleEventEncoder,
    limit: usize,
    budget: Option<usize>,
    /// Tuple lines produced so far.
    emitted: usize,
    stream_queries: usize,
    /// Whether the session serves under the degraded policy, as its last
    /// step reported.
    degraded: bool,
    /// The stopping condition, once reached; the next line is the summary.
    status: Option<&'static str>,
    summary_sent: bool,
}

impl StreamState {
    /// True when the next line is ready without a web-DB query: the
    /// summary is already decided or the session's next step is free.
    fn next_is_free(&self, entry: &SessionEntry) -> bool {
        self.status.is_some() || self.emitted >= self.limit || entry.next_is_free()
    }

    /// Append the next line (tuple event or summary) to `out`.
    fn push_line(&mut self, handle: &SessionHandle, entry: &mut SessionEntry, out: &mut String) {
        if self.status.is_none() && self.emitted >= self.limit {
            self.status = Some("complete");
        }
        if let Some(status) = self.status {
            let stats = entry.stats().to_json();
            return self.push_summary(out, status, Some(stats));
        }
        let budget = self.budget.map(|b| b.saturating_sub(self.stream_queries));
        match entry.step(handle, 1, budget) {
            Ok(step) => {
                self.stream_queries += step.queries;
                self.degraded = step.degraded;
                match step.tuples.first() {
                    Some(t) => {
                        self.encoder.write_event(
                            out,
                            self.emitted,
                            step.queries,
                            entry.total_queries(),
                            t,
                        );
                        out.push('\n');
                        self.emitted += 1;
                        return;
                    }
                    // No tuple: the step stopped for a terminal reason.
                    None => self.status = Some(step.status),
                }
            }
            // The 200 is committed; report exhaustion in-band.
            Err(StepError::BudgetExceeded { .. }) => self.status = Some("budget_exhausted"),
            // A probe failed terminally: terminate in-band with a
            // truthful summary. Nothing is lost: the session keeps what
            // the step found and its next step resumes there.
            Err(StepError::Outage { queries }) => {
                self.stream_queries += queries;
                self.status = Some(self.interrupted());
            }
        }
        self.push_line(handle, entry, out)
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
            ("degraded", Json::Bool(self.degraded)),
        ];
        fields.extend(stats.map(|stats| ("stats", stats)));
        out.push_str(&Json::obj(fields).to_string());
        out.push('\n');
        self.summary_sent = true;
    }
}

fn clamp_page_size(requested: usize) -> usize {
    requested.clamp(PAGE_SIZE_RANGE.0, PAGE_SIZE_RANGE.1)
}

/// Parse the optional `class` request field.
fn parse_class(raw: Option<&str>) -> Result<QueryClass, ApiError> {
    match raw {
        None => Ok(QueryClass::default()),
        Some(s) => QueryClass::parse(s).ok_or_else(|| {
            ApiError::bad_request(
                codes::INVALID_VALUE,
                format!("class must be 'interactive' or 'background', got '{s}'"),
            )
            .with_field("class")
        }),
    }
}

/// Render served tuples as response DTOs.
fn render(schema: &Schema, tuples: &[Tuple]) -> Vec<TupleDto> {
    tuples.iter().map(|t| TupleDto::new(schema, t)).collect()
}

/// The structured error for a step that served nothing: `402
/// budget_exceeded` for a spent lifetime budget, `503 source_unavailable`
/// (with the breaker's `Retry-After`) for a terminal source failure.
fn step_error(id: &str, source: &Source, e: StepError) -> ApiError {
    match e {
        StepError::BudgetExceeded { cap, spent } => budget_exceeded(id, cap, spent),
        StepError::Outage { .. } => {
            source_unavailable(&source.name, source.sched.resilient().health().retry_after)
        }
    }
}

/// Compile the `filters` DTOs against a schema.
pub fn compile_filters(schema: &Schema, filters: &[FilterDto]) -> Result<SearchQuery, ApiError> {
    let mut q = SearchQuery::all();
    for f in filters {
        let attr = schema.id_of(&f.attr).ok_or_else(|| {
            ApiError::bad_request(
                codes::UNKNOWN_ATTRIBUTE,
                format!("unknown attribute '{}'", f.attr),
            )
            .with_field(f.attr_path())
        })?;
        match &schema.attr(attr).kind {
            AttrKind::Numeric { min, max, .. } => {
                let lo = f.min.unwrap_or(*min);
                let hi = f.max.unwrap_or(*max);
                if lo > hi {
                    return Err(ApiError::bad_request(
                        codes::EMPTY_RANGE,
                        format!("empty range for '{}': {lo} > {hi}", f.attr),
                    )
                    .with_field(f.path()));
                }
                q = q.and_range(attr, RangePred::closed(lo, hi));
            }
            AttrKind::Categorical { labels } => {
                let values = f.values.as_ref().ok_or_else(|| {
                    ApiError::bad_request(
                        codes::MISSING_FIELD,
                        format!("categorical filter '{}' needs 'values'", f.attr),
                    )
                    .with_field(format!("{}.values", f.path()))
                })?;
                let mut codes_v = Vec::with_capacity(values.len());
                for (vi, label) in values.iter().enumerate() {
                    let code = labels.iter().position(|l| l == label).ok_or_else(|| {
                        ApiError::bad_request(
                            codes::UNKNOWN_LABEL,
                            format!("'{label}' is not a value of '{}'", f.attr),
                        )
                        .with_field(format!("{}.values[{vi}]", f.path()))
                    })?;
                    codes_v.push(code as u32);
                }
                q = q.and_cats(attr, CatSet::new(codes_v));
            }
        }
    }
    Ok(q)
}

/// Compile the `ranking` DTO against a schema.
pub fn compile_ranking(schema: &Schema, ranking: &RankingDto) -> Result<RankingFunction, ApiError> {
    match ranking {
        RankingDto::OneDim { attr, ascending } => {
            let id = schema.id_of(attr).ok_or_else(|| {
                ApiError::bad_request(
                    codes::UNKNOWN_ATTRIBUTE,
                    format!("unknown attribute '{attr}'"),
                )
                .with_field("ranking.attr")
            })?;
            if !schema.attr(id).kind.is_numeric() {
                return Err(ApiError::bad_request(
                    codes::INVALID_VALUE,
                    format!("ranking attribute '{attr}' must be numeric"),
                )
                .with_field("ranking.attr"));
            }
            let dir = if *ascending {
                SortDir::Asc
            } else {
                SortDir::Desc
            };
            Ok(OneDimFunction { attr: id, dir }.into())
        }
        RankingDto::Md { weights } => {
            // Validate per-weight up front so every failure carries the
            // right code and the user's attribute name, not the engine's
            // internal attr-id message.
            if weights.is_empty() {
                return Err(ApiError::bad_request(
                    codes::INVALID_VALUE,
                    "md ranking needs at least one weight",
                )
                .with_field("ranking.weights"));
            }
            for (name, w) in weights {
                let field = format!("ranking.weights.{name}");
                let id = schema.id_of(name).ok_or_else(|| {
                    ApiError::bad_request(
                        codes::UNKNOWN_ATTRIBUTE,
                        format!("unknown attribute '{name}'"),
                    )
                    .with_field(field.clone())
                })?;
                if !schema.attr(id).kind.is_numeric() {
                    return Err(ApiError::bad_request(
                        codes::INVALID_VALUE,
                        format!("ranking attribute '{name}' must be numeric"),
                    )
                    .with_field(field));
                }
                if *w == 0.0 || !w.is_finite() {
                    return Err(ApiError::bad_request(
                        codes::INVALID_WEIGHT,
                        format!("weight for '{name}' must be non-zero"),
                    )
                    .with_field(field));
                }
            }
            let spec: Vec<(&str, f64)> = weights.iter().map(|(n, w)| (n.as_str(), *w)).collect();
            LinearFunction::from_names(schema, &spec)
                .map(Into::into)
                .map_err(|e| {
                    ApiError::bad_request(codes::INVALID_VALUE, e).with_field("ranking.weights")
                })
        }
    }
}

/// Resolve an algorithm name; `"auto"` picks the RERANK family matching the
/// ranking function's dimensionality.
pub fn resolve_algorithm(name: &str, function: &RankingFunction) -> Result<Algorithm, ApiError> {
    if name == "auto" {
        let is_1d = matches!(function, RankingFunction::OneDim(_))
            || matches!(function, RankingFunction::Linear(f) if f.dims() == 1);
        return Ok(if is_1d {
            Algorithm::OneDRerank
        } else {
            Algorithm::MdRerank
        });
    }
    algorithm_catalog()
        .iter()
        .find(|a| a.name == name)
        .map(|a| a.algorithm)
        .ok_or_else(|| {
            ApiError::bad_request(
                codes::UNKNOWN_ALGORITHM,
                format!("unknown algorithm '{name}'"),
            )
            .with_field("algorithm")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_core::ExecutorKind;
    use qr2_http::{parse_json, Decode, FromJson};
    use qr2_webdb::Schema;
    use std::time::Duration;

    fn schema() -> Schema {
        Schema::builder()
            .numeric("price", 0.0, 1000.0)
            .numeric("carat", 0.0, 10.0)
            .categorical("cut", ["Good", "Ideal"])
            .build()
    }

    fn svc(scale: usize) -> QueryService {
        QueryService::new(
            Arc::new(SourceRegistry::demo(scale, scale, ExecutorKind::Sequential)),
            Arc::new(SessionManager::new(Duration::from_secs(60))),
        )
    }

    fn query_req(body: &str) -> QueryRequest {
        let v = parse_json(body).unwrap();
        QueryRequest::from_json(&Decode::root(&v)).unwrap()
    }

    #[test]
    fn filter_compilation() {
        let s = schema();
        let req = query_req(
            r#"{"ranking":{"type":"1d","attr":"price"},
                "filters":[{"attr":"price","min":100,"max":500},
                           {"attr":"cut","values":["Ideal"]}]}"#,
        );
        let q = compile_filters(&s, &req.filters).unwrap();
        assert_eq!(q.num_predicates(), 2);
        let price = s.expect_id("price");
        assert_eq!(q.range_of(price), Some(&RangePred::closed(100.0, 500.0)));
    }

    #[test]
    fn filter_open_ended_defaults_to_domain() {
        let s = schema();
        let req = query_req(
            r#"{"ranking":{"type":"1d","attr":"price"},"filters":[{"attr":"price","min":100}]}"#,
        );
        let q = compile_filters(&s, &req.filters).unwrap();
        let price = s.expect_id("price");
        assert_eq!(q.range_of(price), Some(&RangePred::closed(100.0, 1000.0)));
    }

    #[test]
    fn filter_errors_have_codes_and_paths() {
        let s = schema();
        for (body, code, field) in [
            (
                r#"[{"attr":"nope"}]"#,
                codes::UNKNOWN_ATTRIBUTE,
                "filters[0].attr",
            ),
            (
                r#"[{"attr":"price","min":5,"max":1}]"#,
                codes::EMPTY_RANGE,
                "filters[0]",
            ),
            (
                r#"[{"attr":"cut"}]"#,
                codes::MISSING_FIELD,
                "filters[0].values",
            ),
            (
                r#"[{"attr":"price"},{"attr":"cut","values":["Nope"]}]"#,
                codes::UNKNOWN_LABEL,
                "filters[1].values[0]",
            ),
        ] {
            let req = query_req(&format!(
                r#"{{"ranking":{{"type":"1d","attr":"price"}},"filters":{body}}}"#
            ));
            let e = compile_filters(&s, &req.filters).unwrap_err();
            assert_eq!(e.code, code, "{body}");
            assert_eq!(e.field.as_deref(), Some(field), "{body}");
        }
    }

    #[test]
    fn ranking_compilation_1d_and_md() {
        let s = schema();
        let r = query_req(r#"{"ranking":{"type":"1d","attr":"price","dir":"desc"}}"#).ranking;
        match compile_ranking(&s, &r).unwrap() {
            RankingFunction::OneDim(f) => assert_eq!(f.dir, SortDir::Desc),
            _ => panic!("expected 1d"),
        }
        let r =
            query_req(r#"{"ranking":{"type":"md","weights":{"price":1.0,"carat":-0.5}}}"#).ranking;
        match compile_ranking(&s, &r).unwrap() {
            RankingFunction::Linear(f) => assert_eq!(f.dims(), 2),
            _ => panic!("expected md"),
        }
    }

    #[test]
    fn ranking_schema_errors() {
        let s = schema();
        let r = query_req(r#"{"ranking":{"type":"1d","attr":"cut"}}"#).ranking;
        let e = compile_ranking(&s, &r).unwrap_err();
        assert_eq!(e.code, codes::INVALID_VALUE);
        assert_eq!(e.field.as_deref(), Some("ranking.attr"));
        let r = query_req(r#"{"ranking":{"type":"1d","attr":"bogus"}}"#).ranking;
        assert_eq!(
            compile_ranking(&s, &r).unwrap_err().code,
            codes::UNKNOWN_ATTRIBUTE
        );
    }

    #[test]
    fn md_weight_errors_carry_user_names_and_codes() {
        let s = schema();
        // Zero weight: invalid_weight, named by the user's attribute.
        let r = query_req(r#"{"ranking":{"type":"md","weights":{"price":0.0}}}"#).ranking;
        let e = compile_ranking(&s, &r).unwrap_err();
        assert_eq!(e.code, codes::INVALID_WEIGHT);
        assert_eq!(e.field.as_deref(), Some("ranking.weights.price"));
        assert!(e.message.contains("'price'"), "{}", e.message);
        // Unknown attribute inside the weights map.
        let r = query_req(r#"{"ranking":{"type":"md","weights":{"nope":0.5}}}"#).ranking;
        let e = compile_ranking(&s, &r).unwrap_err();
        assert_eq!(e.code, codes::UNKNOWN_ATTRIBUTE);
        assert_eq!(e.field.as_deref(), Some("ranking.weights.nope"));
        // Categorical attribute in the weights map.
        let r = query_req(r#"{"ranking":{"type":"md","weights":{"cut":0.5}}}"#).ranking;
        let e = compile_ranking(&s, &r).unwrap_err();
        assert_eq!(e.code, codes::INVALID_VALUE);
        assert_eq!(e.field.as_deref(), Some("ranking.weights.cut"));
        // Empty weights map.
        let r = query_req(r#"{"ranking":{"type":"md","weights":{}}}"#).ranking;
        let e = compile_ranking(&s, &r).unwrap_err();
        assert_eq!(e.code, codes::INVALID_VALUE);
        assert_eq!(e.field.as_deref(), Some("ranking.weights"));
    }

    #[test]
    fn algorithm_resolution() {
        let s = schema();
        let oned: RankingFunction = OneDimFunction::asc(s.expect_id("price")).into();
        assert_eq!(
            resolve_algorithm("auto", &oned).unwrap(),
            Algorithm::OneDRerank
        );
        let md: RankingFunction =
            LinearFunction::from_names(&s, &[("price", 1.0), ("carat", -0.5)])
                .unwrap()
                .into();
        assert_eq!(resolve_algorithm("auto", &md).unwrap(), Algorithm::MdRerank);
        assert_eq!(resolve_algorithm("md-ta", &md).unwrap(), Algorithm::MdTa);
        let e = resolve_algorithm("quantum", &md).unwrap_err();
        assert_eq!(e.code, codes::UNKNOWN_ALGORITHM);
        assert_eq!(e.field.as_deref(), Some("algorithm"));
    }

    #[test]
    fn end_to_end_query_lifecycle() {
        let svc = svc(400);
        let req = query_req(
            r#"{"filters":[{"attr":"carat","min":0.5}],
                "ranking":{"type":"md","weights":{"price":1.0,"carat":-0.5}},
                "algorithm":"md-rerank","page_size":5}"#,
        );
        let page = svc.create_query("bluenile", &req).unwrap();
        assert_eq!(page.results.len(), 5);
        assert_eq!(page.algorithm, Some("MD-RERANK"));
        assert!(page.stats.queries > 0);

        let page2 = svc.next_page(&page.query_id, None).unwrap();
        assert_eq!(page2.results.len(), 5);
        assert!(page2.algorithm.is_none());
        let first: Vec<usize> = page.results.iter().map(|t| t.id).collect();
        assert!(
            page2.results.iter().all(|t| !first.contains(&t.id)),
            "pages must not overlap"
        );

        assert!(svc.stats(&page.query_id).unwrap().served >= 10);
        svc.delete(&page.query_id).unwrap();
        assert_eq!(
            svc.delete(&page.query_id).unwrap_err().code,
            codes::UNKNOWN_QUERY
        );
    }

    #[test]
    fn budgeted_results_resume_with_identical_order_and_cost() {
        let body = r#"{"ranking":{"type":"1d","attr":"price","dir":"desc"},
                       "algorithm":"1d-binary","page_size":5}"#;

        // Reference: one unbudgeted run to 30 tuples. Two *separate*
        // services so both runs start from a cold shared answer cache —
        // on one service the second run would be answered from cache,
        // which is the point of the cache but not of this test.
        let reference = svc(400);
        let page = reference
            .create_query("bluenile", &query_req(body))
            .unwrap();
        let mut want: Vec<usize> = page.results.iter().map(|t| t.id).collect();
        while want.len() < 30 {
            let r = reference
                .results(&page.query_id, Some(30 - want.len()), None)
                .unwrap();
            want.extend(r.results.iter().map(|t| t.id));
        }
        let want_cost = reference.stats(&page.query_id).unwrap().queries;

        // Same run sliced into 2-query budget steps.
        let svc = svc(400);
        let page = svc.create_query("bluenile", &query_req(body)).unwrap();
        let mut got: Vec<usize> = page.results.iter().map(|t| t.id).collect();
        let mut saw_exhaustion = false;
        while got.len() < 30 {
            let r = svc
                .results(&page.query_id, Some(30 - got.len()), Some(2))
                .unwrap();
            saw_exhaustion |= r.status == "budget_exhausted";
            assert!(
                matches!(r.status, "complete" | "budget_exhausted"),
                "{}",
                r.status
            );
            got.extend(r.results.iter().map(|t| t.id));
        }
        assert!(
            saw_exhaustion,
            "a 2-query budget must run out at least once"
        );
        assert_eq!(got, want, "budgeted slices preserve the tuple order");
        assert_eq!(
            svc.stats(&page.query_id).unwrap().queries,
            want_cost,
            "resuming never re-issues a query already spent"
        );
    }

    #[test]
    fn results_reports_step_deltas_that_sum_to_cumulative() {
        let svc = svc(300);
        let page = svc
            .create_query(
                "zillow",
                &query_req(r#"{"ranking":{"type":"1d","attr":"price"},"page_size":3}"#),
            )
            .unwrap();
        let base = svc.stats(&page.query_id).unwrap().queries;
        let mut summed = 0;
        for _ in 0..4 {
            let r = svc.results(&page.query_id, Some(3), Some(3)).unwrap();
            summed += r.step_queries;
            assert_eq!(r.stats.queries, base + summed, "cumulative tracks deltas");
        }
    }

    #[test]
    fn lifetime_budget_cap_yields_402_with_retry_after() {
        let svc = svc(400);
        // A 1-query lifetime budget: creation spends it (the one in-flight
        // discovery completes), everything after is refused.
        let req = query_req(
            r#"{"ranking":{"type":"1d","attr":"price","dir":"desc"},
                "algorithm":"1d-binary","page_size":100,"max_queries":1}"#,
        );
        let page = svc.create_query("bluenile", &req).unwrap();
        assert!(!page.done, "a 1-query budget cannot finish 400 tuples");
        assert!(page.stats.queries >= 1);

        for result in [
            svc.next_page(&page.query_id, Some(5)).map(|_| ()),
            svc.results(&page.query_id, Some(5), Some(100)).map(|_| ()),
        ] {
            let e = result.unwrap_err();
            assert_eq!(e.status, qr2_http::Status::PaymentRequired);
            assert_eq!(e.code, codes::BUDGET_EXCEEDED);
            assert!(e.headers.iter().any(|(n, _)| n == "Retry-After"), "{e:?}");
        }
        // The session itself is still alive: stats keep working.
        assert!(svc.stats(&page.query_id).is_ok());
    }

    #[test]
    fn zero_lifetime_budget_opens_the_query_then_refuses_every_step() {
        let svc = svc(400);
        let req = query_req(
            r#"{"ranking":{"type":"1d","attr":"price","dir":"desc"},
                "algorithm":"1d-binary","page_size":5,"max_queries":0}"#,
        );
        // Creation succeeds (the handler's 201) with an empty, unfinished
        // first page and no query spent.
        let page = svc.create_query("bluenile", &req).unwrap();
        assert!(page.results.is_empty());
        assert!(!page.done);
        assert_eq!(page.stats.queries, 0);
        // Every later step is the 402.
        for result in [
            svc.next_page(&page.query_id, None).map(|_| ()),
            svc.results(&page.query_id, None, None).map(|_| ()),
            svc.stream(&page.query_id, None, None).map(|_| ()),
        ] {
            let e = result.unwrap_err();
            assert_eq!(e.status, qr2_http::Status::PaymentRequired);
            assert_eq!(e.code, codes::BUDGET_EXCEEDED);
        }
    }

    #[test]
    fn uncapped_sessions_never_see_budget_exceeded() {
        let svc = svc(100);
        let page = svc
            .create_query(
                "zillow",
                &query_req(r#"{"ranking":{"type":"1d","attr":"price"},"page_size":2}"#),
            )
            .unwrap();
        for _ in 0..5 {
            assert!(svc.results(&page.query_id, Some(2), Some(0)).is_ok());
        }
    }

    #[test]
    fn second_identical_session_is_free_and_identical() {
        let svc = svc(400);
        let body = r#"{"ranking":{"type":"1d","attr":"price","dir":"desc"},
                       "algorithm":"1d-binary","page_size":8}"#;
        let a = svc.create_query("bluenile", &query_req(body)).unwrap();
        let cost_a = svc.stats(&a.query_id).unwrap().queries;
        assert!(cost_a > 0, "cold run pays real queries");

        let b = svc.create_query("bluenile", &query_req(body)).unwrap();
        let stats_b = svc.stats(&b.query_id).unwrap();
        assert_eq!(
            stats_b.queries, 0,
            "the shared answer cache makes the second user free"
        );
        assert!(stats_b.cache_hits > 0);
        assert!((stats_b.cache_hit_fraction - 1.0).abs() < 1e-12);
        let ids_a: Vec<usize> = a.results.iter().map(|t| t.id).collect();
        let ids_b: Vec<usize> = b.results.iter().map(|t| t.id).collect();
        assert_eq!(ids_a, ids_b, "cached answers preserve the exact order");
    }

    #[test]
    fn cache_stats_and_flush() {
        let svc = svc(300);
        let cold = svc.cache_stats("bluenile").unwrap();
        assert_eq!(cold.source, "bluenile");
        assert_eq!(cold.stats.misses, 0);
        assert!(!cold.stats.persistent);

        let body = r#"{"ranking":{"type":"1d","attr":"price"},"page_size":3}"#;
        svc.create_query("bluenile", &query_req(body)).unwrap();
        let warm = svc.cache_stats("bluenile").unwrap();
        assert!(warm.stats.misses > 0);
        assert!(warm.stats.entries > 0);
        // The other source's cache is untouched.
        assert_eq!(svc.cache_stats("zillow").unwrap().stats.misses, 0);

        svc.flush_cache("bluenile").unwrap();
        let flushed = svc.cache_stats("bluenile").unwrap();
        assert_eq!(flushed.stats.entries, 0);
        assert_eq!(flushed.stats.epoch, 1);

        for result in [
            svc.cache_stats("amazon").map(|_| ()),
            svc.flush_cache("amazon"),
        ] {
            assert_eq!(result.unwrap_err().code, codes::UNKNOWN_SOURCE);
        }
    }

    #[test]
    fn lookup_failures() {
        let svc = svc(50);
        let req = query_req(r#"{"ranking":{"type":"1d","attr":"price"}}"#);
        assert_eq!(
            svc.create_query("amazon", &req).unwrap_err().code,
            codes::UNKNOWN_SOURCE
        );
        assert_eq!(
            svc.next_page("s999999", None).unwrap_err().code,
            codes::UNKNOWN_QUERY
        );
        assert_eq!(svc.stats("s999999").unwrap_err().code, codes::UNKNOWN_QUERY);
    }

    #[test]
    fn mismatched_algorithm_family_rejected() {
        let svc = svc(50);
        let req = query_req(
            r#"{"ranking":{"type":"md","weights":{"price":1.0,"sqft":0.5}},
                "algorithm":"1d-binary"}"#,
        );
        let e = svc.create_query("zillow", &req).unwrap_err();
        assert_eq!(e.code, codes::ALGORITHM_MISMATCH);
    }

    #[test]
    fn two_sessions_page_concurrently_without_serializing() {
        // Session A's entry lock is held for the whole test (simulating a
        // slow in-flight page on A); paging session B must still complete.
        // Before the lock-narrowing fix this is exactly the shape that
        // could stall if lookups shared state with the entry lock.
        let sessions = Arc::new(SessionManager::new(Duration::from_secs(60)));
        let svc = Arc::new(QueryService::new(
            Arc::new(SourceRegistry::demo(200, 200, ExecutorKind::Sequential)),
            Arc::clone(&sessions),
        ));
        let req = query_req(r#"{"ranking":{"type":"1d","attr":"price"},"page_size":3}"#);
        let a = svc.create_query("bluenile", &req).unwrap().query_id;
        let b = svc.create_query("bluenile", &req).unwrap().query_id;

        let handle_a = sessions.get(&a).unwrap();
        let guard_a = handle_a.lock();

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let svc2 = Arc::clone(&svc);
        std::thread::spawn(move || {
            done_tx.send(svc2.next_page(&b, Some(3)).unwrap()).ok();
        });
        let page_b = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("paging session B stalled behind session A's lock");
        assert_eq!(page_b.results.len(), 3);

        drop(guard_a);
        // A is untouched and still pageable afterwards.
        assert_eq!(svc.next_page(&a, Some(3)).unwrap().results.len(), 3);
    }

    // -- resilience / degraded serving --------------------------------------

    use crate::sources::{DegradedPolicy, ResilienceConfig};
    use qr2_datagen::{bluenile_db, DiamondsConfig};
    use qr2_sched::SchedConfig;
    use qr2_webdb::{BreakerConfig, FaultScript, RetryPolicy, TopKInterface};

    /// One-source registry over a fault-scripted diamonds db; `crawl`
    /// reconstructs the full rank order offline (at epoch 0) first.
    fn fault_registry(
        script: FaultScript,
        retry: RetryPolicy,
        breaker: BreakerConfig,
        degraded: DegradedPolicy,
        sched_cfg: SchedConfig,
        crawl: bool,
    ) -> Arc<SourceRegistry> {
        let db: Arc<dyn TopKInterface> = Arc::new(bluenile_db(&DiamondsConfig {
            n: 200,
            ..DiamondsConfig::default()
        }));
        let recon = Arc::new(qr2_recon::ReconIndex::ephemeral());
        if crawl {
            let job = recon
                .run_job(
                    &*db,
                    &JobOptions {
                        max_queries: usize::MAX,
                        ..JobOptions::default()
                    },
                    0,
                )
                .expect("no concurrent job");
            assert_eq!(job.state, "complete");
        }
        let mut reg = SourceRegistry::new();
        reg.register(
            Source::builder("bluenile", "Blue Nile (faulted)", db)
                .sched_config(sched_cfg)
                .resilience(ResilienceConfig {
                    script: Some(script),
                    retry,
                    breaker,
                    degraded,
                })
                .executor(ExecutorKind::Sequential)
                .recon(recon)
                .build(),
        );
        Arc::new(reg)
    }

    fn svc_over(reg: &Arc<SourceRegistry>) -> QueryService {
        QueryService::new(
            Arc::clone(reg),
            Arc::new(SessionManager::new(Duration::from_secs(60))),
        )
    }

    /// Open the source's breaker with `n` terminal probe failures.
    fn open_breaker(reg: &Arc<SourceRegistry>, n: usize) {
        let source = reg.get("bluenile").unwrap();
        let q = SearchQuery::all();
        for _ in 0..n {
            assert!(source.sched.resilient().probe(&q).is_err());
        }
        assert_eq!(source.sched.resilient().health().breaker_code, 2);
    }

    #[test]
    fn open_breaker_serves_covered_queries_degraded_from_stale_recon() {
        let reg = fault_registry(
            FaultScript::healthy().with_outage(0, u64::MAX),
            RetryPolicy::none(),
            BreakerConfig {
                failure_threshold: 2,
                open_cooldown: Duration::from_secs(60),
            },
            DegradedPolicy {
                allow_stale_recon: true,
            },
            SchedConfig::default(),
            true,
        );
        let source = reg.get("bluenile").unwrap();
        // Stale the reconstruction: the flush advances the cache epoch past
        // the epoch the index was crawled at, so a *fresh* serve misses.
        source.cache.flush().unwrap();
        open_breaker(&reg, 2);

        let svc = svc_over(&reg);
        let req = query_req(r#"{"ranking":{"type":"1d","attr":"price"},"page_size":5}"#);
        let paid_before = source.db.ledger().total();
        let page = svc.create_query("bluenile", &req).unwrap();
        assert!(page.degraded, "stale-recon answer must be flagged");
        assert_eq!(page.results.len(), 5);
        assert_eq!(page.stats.queries, 0, "degraded pages are free");
        assert_eq!(
            source.db.ledger().total(),
            paid_before,
            "no probe may reach a source behind an open breaker"
        );
        // Follow-up pages stay degraded and free too.
        let next = svc.next_page(&page.query_id, Some(5)).unwrap();
        assert!(next.degraded);
        assert_eq!(source.db.ledger().total(), paid_before);
    }

    #[test]
    fn open_breaker_without_stale_policy_refuses_with_structured_503() {
        let reg = fault_registry(
            FaultScript::healthy().with_outage(0, u64::MAX),
            RetryPolicy::none(),
            BreakerConfig {
                failure_threshold: 2,
                open_cooldown: Duration::from_secs(60),
            },
            DegradedPolicy {
                allow_stale_recon: false,
            },
            SchedConfig::default(),
            true,
        );
        reg.get("bluenile").unwrap().cache.flush().unwrap();
        open_breaker(&reg, 2);

        let svc = svc_over(&reg);
        let req = query_req(r#"{"ranking":{"type":"1d","attr":"price"}}"#);
        let e = svc.create_query("bluenile", &req).unwrap_err();
        assert_eq!(e.status, qr2_http::Status::ServiceUnavailable);
        assert_eq!(e.code, codes::SOURCE_UNAVAILABLE);
        assert!(
            e.headers.iter().any(|(n, _)| n == "Retry-After"),
            "{:?}",
            e.headers
        );
    }

    #[test]
    fn open_breaker_with_no_coverage_refuses_with_structured_503() {
        let reg = fault_registry(
            FaultScript::healthy().with_outage(0, u64::MAX),
            RetryPolicy::none(),
            BreakerConfig {
                failure_threshold: 2,
                open_cooldown: Duration::from_secs(60),
            },
            DegradedPolicy {
                allow_stale_recon: true,
            },
            SchedConfig::default(),
            false, // nothing reconstructed: nothing to degrade onto
        );
        open_breaker(&reg, 2);
        let svc = svc_over(&reg);
        let req = query_req(r#"{"ranking":{"type":"1d","attr":"price"}}"#);
        let e = svc.create_query("bluenile", &req).unwrap_err();
        assert_eq!(e.code, codes::SOURCE_UNAVAILABLE);
    }

    #[test]
    fn terminal_outage_on_live_first_page_is_a_structured_503() {
        // Breaker disabled: the outage is surfaced by the scheduler's
        // per-probe patience window failing the probe instead.
        let reg = fault_registry(
            FaultScript::healthy().with_outage(0, u64::MAX),
            RetryPolicy::none(),
            BreakerConfig::disabled(),
            DegradedPolicy::default(),
            SchedConfig {
                max_outage_park: Duration::from_millis(40),
                ..SchedConfig::default()
            },
            false,
        );
        let svc = svc_over(&reg);
        let req = query_req(r#"{"ranking":{"type":"1d","attr":"price"}}"#);
        let e = svc.create_query("bluenile", &req).unwrap_err();
        assert_eq!(e.status, qr2_http::Status::ServiceUnavailable);
        assert_eq!(e.code, codes::SOURCE_UNAVAILABLE);
    }

    #[test]
    fn source_health_reports_breaker_state_and_error_counters() {
        let reg = fault_registry(
            FaultScript::healthy().with_outage(0, u64::MAX),
            RetryPolicy::none(),
            BreakerConfig {
                failure_threshold: 2,
                open_cooldown: Duration::from_secs(60),
            },
            DegradedPolicy::default(),
            SchedConfig::default(),
            false,
        );
        let svc = svc_over(&reg);
        let before = svc.source_health("bluenile").unwrap();
        assert_eq!(before.health.breaker, "closed");
        assert_eq!(before.health.consecutive_failures, 0);

        open_breaker(&reg, 2);
        let after = svc.source_health("bluenile").unwrap();
        assert_eq!(after.health.breaker, "open");
        assert_eq!(after.health.breaker_code, 2);
        assert!(after.health.consecutive_failures >= 2);
        assert!(after.health.unavailable >= 2);
        assert!(after.health.failed_probes >= 2);
        assert!(after.health.retry_after.is_some());
        assert!(svc.source_health("nope").is_err());
    }
}
