//! The application layer: every API operation as a `Result`-returning
//! method on [`QueryService`], independent of HTTP.
//!
//! Handlers stay thin — decode a DTO, call one method here, encode the
//! result — and both API surfaces (`/v1` and the legacy `/api` shims)
//! share this exact logic, so behaviour cannot drift between them.

use std::sync::Arc;

use qr2_core::{
    Algorithm, Budget, LinearFunction, OneDimFunction, RankingFunction, RerankRequest, SortDir,
};
use qr2_http::ApiError;
use qr2_recon::{JobOptions, ReconJobError, ServeOrder};
use qr2_sched::{context as sched_context, FailureSignal, QueryClass, SessionCtx};
use qr2_webdb::{AttrKind, CatSet, RangePred, Schema, SearchQuery};

use crate::dto::{
    algorithm_catalog, CacheStatsResponse, FilterDto, HealthResponse, PageResponse, QueryRequest,
    RankingDto, ReconJobResponse, ReconStartRequest, ReconStatusResponse, ResultsResponse,
    SchedStatsResponse, SourceDescriptor, StatsResponse, TupleDto,
};
use crate::error::{
    budget_exceeded, codes, source_throttled, source_unavailable, unknown_query, unknown_source,
};
use crate::session::{ReconServing, SessionEntry, SessionHandle, SessionManager};
use crate::sources::{Source, SourceRegistry};

/// Page sizes are clamped to this range.
const PAGE_SIZE_RANGE: (usize, usize) = (1, 100);

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
        let recon_serving = ServeOrder::for_request(algorithm, &function)
            .and_then(|order| {
                source
                    .recon
                    .serve(&filter, &order, source.reranker.normalizer(), || {
                        source.cache.epoch()
                    })
            })
            .map(ReconServing::new);
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
        let breaker_open = breaker_retry_after.is_some();
        let recon_serving = match recon_serving {
            Some(s) => Some(s),
            None if breaker_open && source.degraded_policy.allow_stale_recon => {
                let recon_epoch = source.recon.epoch();
                ServeOrder::for_request(algorithm, &function)
                    .and_then(|order| {
                        source.recon.serve(
                            &filter,
                            &order,
                            source.reranker.normalizer(),
                            move || recon_epoch,
                        )
                    })
                    .map(|cursor| ReconServing::new(cursor).degraded())
            }
            None => None,
        };
        if recon_serving.is_none() {
            if let Some(retry_after) = breaker_retry_after {
                return Err(source_unavailable(source_name, Some(retry_after)));
            }
            // Admission control: when the source is so saturated that a new
            // session's first probe would wait past the scheduler's admission
            // ceiling, refuse with a structured 503 + Retry-After instead of
            // letting the request hang in the queue.
            source
                .sched
                .admit()
                .map_err(|t| source_throttled(source_name, &t))?;
        }

        let mut session = source.reranker.query(RerankRequest {
            filter,
            function,
            algorithm,
        });
        let sched_key = sched_context::next_session_key();
        let (results, done, stats, recon_serving) = match recon_serving {
            Some(mut serving) => {
                let page = serving.next_page(page_size);
                let results = page.iter().map(|t| TupleDto::new(&schema, t)).collect();
                let done = serving.done();
                let stats = StatsResponse::new(&serving.stats, serving.served());
                (results, done, stats, Some(serving))
            }
            None => {
                // The first page runs before the session table has a
                // handle, so it carries its own failure signal: a probe
                // failing terminally (source down past the scheduler's
                // outage patience) trips it and the whole request becomes
                // a structured 503 instead of a silent empty page.
                let failure = FailureSignal::new();
                let ctx = SessionCtx::new(sched_key, class)
                    .with_cancel(session.cancel_token())
                    .with_failure(failure.clone());
                // The first page respects the lifetime budget from query zero.
                let step = sched_context::with_session(ctx, || {
                    session.advance(Budget {
                        queries: req.max_queries,
                        tuples: Some(page_size),
                    })
                });
                if failure.is_tripped() {
                    let health = source.sched.resilient().health();
                    return Err(source_unavailable(source_name, health.retry_after));
                }
                let done = step.is_done();
                let results = step
                    .into_tuples()
                    .iter()
                    .map(|t| TupleDto::new(&schema, t))
                    .collect();
                let stats = StatsResponse::new(&session.stats(), session.served());
                (results, done, stats, None)
            }
        };
        if recon_serving.is_some() {
            source.obs_created_recon.inc();
        } else {
            source.obs_created_live.inc();
        }
        let degraded = recon_serving.as_ref().map(|s| s.degraded).unwrap_or(false);
        let query_id = self.sessions.create(
            session,
            source_name,
            page_size,
            req.max_queries,
            class,
            sched_key,
        );
        if let Some(serving) = recon_serving {
            if let Some(handle) = self.sessions.get(&query_id) {
                let mut entry = handle.lock();
                entry.done = done;
                entry.recon = Some(serving);
            }
        }
        Ok(PageResponse {
            query_id,
            algorithm: Some(algorithm.paper_name()),
            results,
            done,
            degraded,
            stats,
        })
    }

    /// `GET|POST /v1/queries/:id/next`: the next page of a live query
    /// (blocking within the session's lifetime budget).
    pub fn next_page(&self, id: &str, page_size: Option<usize>) -> Result<PageResponse, ApiError> {
        let handle = self.sessions.get(id).ok_or_else(|| unknown_query(id))?;
        // Resolve the source *before* taking the session's entry lock:
        // registry lookups and schema clones must not serialize behind
        // another request paging this same session — and paging one session
        // must never wait on state shared with other sessions.
        let source = self.source_of(&handle.source)?;
        let schema = source.schema().clone();
        let page_size = clamp_page_size(page_size.unwrap_or(handle.page_size));

        let mut entry = handle.lock();
        // Recon-served sessions page from the recon cursor: free,
        // so the lifetime budget check does not apply.
        let recon_step = entry.recon.as_mut().map(|serving| {
            let page = serving.next_page(page_size);
            let stats = StatsResponse::new(&serving.stats, serving.served());
            (page, serving.done(), serving.degraded, stats)
        });
        if let Some((page, done, degraded, stats)) = recon_step {
            entry.done = done;
            let results = page.iter().map(|t| TupleDto::new(&schema, t)).collect();
            return Ok(PageResponse {
                query_id: id.to_string(),
                algorithm: None,
                results,
                done,
                degraded,
                stats,
            });
        }
        let remaining = remaining_lifetime(id, &handle, &entry)?;
        let step = sched_context::with_session(session_ctx(&handle), || {
            entry.session.advance(Budget {
                queries: remaining,
                tuples: Some(page_size),
            })
        });
        // A probe that failed terminally mid-step (source down past the
        // scheduler's outage patience) trips the session's failure signal.
        // Discard the step — a page assembled around a failed probe may be
        // mis-ordered — and surface the outage as a structured 503; the
        // session stays live and resumes once the source recovers.
        if handle.failure.is_tripped() {
            handle.failure.clear();
            let health = source.sched.resilient().health();
            return Err(source_unavailable(&handle.source, health.retry_after));
        }
        entry.done = step.is_done();
        let results: Vec<TupleDto> = step
            .into_tuples()
            .iter()
            .map(|t| TupleDto::new(&schema, t))
            .collect();
        let stats = StatsResponse::new(&entry.session.stats(), entry.session.served());
        Ok(PageResponse {
            query_id: id.to_string(),
            algorithm: None,
            results,
            done: entry.done,
            degraded: false,
            stats,
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
        let handle = self.sessions.get(id).ok_or_else(|| unknown_query(id))?;
        let source = self.source_of(&handle.source)?;
        let schema = source.schema().clone();
        let limit = clamp_page_size(limit.unwrap_or(handle.page_size));

        let mut entry = handle.lock();
        let recon_step = entry.recon.as_mut().map(|serving| {
            let page = serving.next_page(limit);
            let stats = StatsResponse::new(&serving.stats, serving.served());
            (page, serving.done(), serving.degraded, stats)
        });
        if let Some((page, done, degraded, stats)) = recon_step {
            entry.done = done;
            let results = page.iter().map(|t| TupleDto::new(&schema, t)).collect();
            return Ok(ResultsResponse {
                query_id: id.to_string(),
                results,
                status: if done { "done" } else { "complete" },
                step_queries: 0,
                degraded,
                stats,
            });
        }
        let remaining = remaining_lifetime(id, &handle, &entry)?;
        // The step may spend at most min(request budget, remaining
        // lifetime budget).
        let step_budget = match (budget, remaining) {
            (Some(b), Some(r)) => Some(b.min(r)),
            (Some(b), None) => Some(b),
            (None, r) => r,
        };
        let step = sched_context::with_session(session_ctx(&handle), || {
            entry.session.advance(Budget {
                queries: step_budget,
                tuples: Some(limit),
            })
        });
        // Same terminal-failure discipline as `next_page`: a tripped
        // signal turns the step into a structured 503 rather than a page
        // that silently omits the failed probe's contribution.
        if handle.failure.is_tripped() {
            handle.failure.clear();
            let health = source.sched.resilient().health();
            return Err(source_unavailable(&handle.source, health.retry_after));
        }
        entry.done = step.is_done();
        let status = step.label();
        let step_queries = step.stats_delta().total_queries();
        let results: Vec<TupleDto> = step
            .into_tuples()
            .iter()
            .map(|t| TupleDto::new(&schema, t))
            .collect();
        let stats = StatsResponse::new(&entry.session.stats(), entry.session.served());
        Ok(ResultsResponse {
            query_id: id.to_string(),
            results,
            status,
            step_queries,
            degraded: false,
            stats,
        })
    }

    /// `GET /v1/queries/:id/stats`: the statistics panel.
    pub fn stats(&self, id: &str) -> Result<StatsResponse, ApiError> {
        let handle = self.sessions.get(id).ok_or_else(|| unknown_query(id))?;
        let entry = handle.lock();
        Ok(entry_stats(&entry))
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
                    source.sched.cancel_session(handle.sched_key);
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

    /// `DELETE /v1/sources/:source/cache`: flush the source's shared
    /// answer cache (drops every entry, advances the staleness epoch,
    /// durably clears any persistent backing store).
    pub fn flush_cache(&self, source_name: &str) -> Result<(), ApiError> {
        let source = self
            .registry
            .get(source_name)
            .ok_or_else(|| unknown_source(source_name))?;
        source
            .cache
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

    fn source_of(&self, name: &str) -> Result<Arc<Source>, ApiError> {
        self.registry
            .get(name)
            .ok_or_else(|| ApiError::internal(format!("session source '{name}' vanished")))
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

/// The statistics panel for a session: recon-served sessions report the
/// serving tier's counters (`recon_hits`, zero queries), live sessions the
/// engine's.
pub(crate) fn entry_stats(entry: &SessionEntry) -> StatsResponse {
    match &entry.recon {
        Some(s) => StatsResponse::new(&s.stats, s.served()),
        None => StatsResponse::new(&entry.session.stats(), entry.session.served()),
    }
}

/// The ambient scheduler context for requests driving an existing session.
pub(crate) fn session_ctx(handle: &SessionHandle) -> SessionCtx {
    SessionCtx::new(handle.sched_key, handle.class)
        .with_cancel(handle.cancel.clone())
        .with_failure(handle.failure.clone())
}

/// The session's remaining lifetime query budget (`None` = uncapped).
/// When the cap is fully spent and nothing is buffered — i.e. the request
/// cannot produce a single tuple without exceeding the cap — this is the
/// `402 budget_exceeded` error.
pub(crate) fn remaining_lifetime(
    id: &str,
    handle: &SessionHandle,
    entry: &SessionEntry,
) -> Result<Option<usize>, ApiError> {
    let Some(cap) = handle.max_queries else {
        return Ok(None);
    };
    let spent = entry.session.stats().total_queries();
    let remaining = cap.saturating_sub(spent);
    if remaining == 0 && entry.session.buffered() == 0 {
        return Err(budget_exceeded(id, cap, spent));
    }
    Ok(Some(remaining))
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
    use qr2_cache::{AnswerCache, CacheConfig};
    use qr2_core::DenseIndex;
    use qr2_datagen::{bluenile_db, DiamondsConfig};
    use qr2_sched::SchedConfig;
    use qr2_webdb::{BreakerConfig, FaultScript, RetryPolicy, SourcePolicy, TopKInterface};

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
        reg.register(Source::with_resilience(
            "bluenile",
            "Blue Nile (faulted)",
            db,
            SourcePolicy::unlimited(),
            sched_cfg,
            ResilienceConfig {
                script: Some(script),
                retry,
                breaker,
                degraded,
            },
            ExecutorKind::Sequential,
            Arc::new(DenseIndex::in_memory()),
            Vec::new(),
            Arc::new(AnswerCache::new(CacheConfig::default())),
            recon,
        ));
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
            assert!(source.sched.resilient().search_resilient(&q).is_err());
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
        // per-probe patience window tripping the failure signal instead.
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
