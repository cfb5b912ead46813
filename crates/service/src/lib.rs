//! # qr2-service — the QR2 web service
//!
//! The third-party reranking service of the paper's Fig. 1: users connect,
//! pick a data source (Blue Nile / Zillow), submit a filter query plus a
//! ranking preference, and page through reranked results via get-next. The
//! service keeps a per-user session (seen-tuple cache), a shared
//! dense-region index, a shared answer cache and rank reconstruction per
//! source (the persisted reconstruction is verified against the source at
//! boot), and a statistics panel reporting query cost and processing time.
//!
//! The HTTP surface (all JSON; full contract in `docs/API.md`). Versioned
//! resource API:
//!
//! | Route | Purpose |
//! |---|---|
//! | `GET /v1/sources` | available sources, their schemas and popular functions |
//! | `GET /v1/algorithms` | the algorithm catalog |
//! | `POST /v1/sources/:source/queries` | create a query: filter + ranking + algorithm → 201, `Location`, first page |
//! | `GET\|POST /v1/queries/:id/next` | next page for a query |
//! | `GET /v1/queries/:id/stats` | the statistics panel |
//! | `DELETE /v1/queries/:id` | drop a query (204) |
//! | `GET /v1/sources/:source/cache` | the source's shared answer-cache statistics |
//! | `DELETE /v1/sources/:source/cache` | flush the source: its answer cache and dense regions (204) |
//! | `POST /v1/sources/:source/recon` | start/resume an offline rank-reconstruction job (202) |
//! | `GET /v1/sources/:source/recon` | reconstruction coverage, epoch and job state |
//! | `DELETE /v1/sources/:source/recon` | drop the reconstructed index (204) |
//! | `GET /` | the embedded single-page UI |
//!
//! The legacy RPC endpoints (`POST /api/query`, `POST /api/getnext`,
//! `GET /api/sources`, `GET /api/session/:id/stats`,
//! `DELETE /api/session/:id`) remain as deprecated shims over the same
//! [`QueryService`]; every failure on either surface renders the
//! structured `{"error":{code,message,field}}` envelope.
//!
//! Layering: handlers ([`mod@self`]`::api`) decode typed DTOs
//! ([`dto`]) and delegate to the application layer ([`QueryService`]),
//! whose methods return `Result<T, qr2_http::ApiError>`.

mod api;
mod app;
pub mod dto;
pub mod error;
pub mod remote;
mod service;
mod session;
mod sources;
mod ui;

pub use api::{ApiState, LEGACY_SUNSET};
pub use app::Qr2App;
pub use dto::{
    AlgorithmDescriptor, CacheStatsResponse, FilterDto, GetNextRequest, HealthResponse,
    NextPageRequest, PageResponse, QueryRequest, RankingDto, ResultsResponse, SourceDescriptor,
    StatsResponse, TupleDto,
};
pub use remote::{RemoteWebDb, WebDbGateway};
pub use service::{compile_filters, compile_ranking, resolve_algorithm, QueryService};
pub use session::{SessionEntry, SessionHandle, SessionId, SessionManager};
pub use sources::{DegradedPolicy, ResilienceConfig, Source, SourceBuilder, SourceRegistry};
