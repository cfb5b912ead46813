//! # qr2-http — a minimal HTTP/1.1 + JSON substrate
//!
//! The QR2 demo serves its UI and API from Flask; this crate provides the
//! same surface in ~zero dependencies: an HTTP/1.1 server over
//! `std::net::TcpListener` whose worker threads each accept their own
//! connections, a path router, and a JSON value type with parser and
//! serializer (no serde — the format is small and fully tested, including
//! seeded randomized round-trips in `tests/json_props.rs`). The
//! serializer's number and string writers are public, so hot paths can
//! encode fixed-shape JSON straight into a buffer with the same bytes a
//! [`Json`] tree would produce.
//!
//! Scope is deliberately narrow — what a service front door needs:
//! `GET`/`HEAD`/`POST`/`DELETE`, `Content-Length` bodies, query strings,
//! and connection-per-request semantics — plus the service-contract layer:
//! structured [`ApiError`] envelopes, typed [`FromJson`]/[`IntoJson`]
//! request/response codecs with path-tracking [`Decode`], and a composable
//! middleware [`Stack`].

mod error;
mod extract;
mod json;
mod middleware;
mod request;
mod response;
mod router;
mod server;

pub use error::ApiError;
pub use extract::{decode_body, parse_body, Decode, FromJson, IntoJson};
pub use json::{parse_json, write_escaped, write_number, Json, JsonError};
pub use middleware::{
    AccessLog, CatchPanic, Handler, Layer, MetricsLayer, RequestId, RequireJsonBody, Stack,
};
pub use request::{parse_request, Method, Request, RequestError};
pub use response::{Body, ChunkStream, Response, Status};
pub use router::{Params, Router};
pub use server::{HttpServer, ServerHandle};
