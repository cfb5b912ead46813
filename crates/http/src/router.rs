//! Method + path routing with `:param` captures.
//!
//! Routing correctness rules:
//!
//! * segments come from the *raw* request path, percent-decoded one segment
//!   at a time, so an encoded `/` inside a path parameter cannot change the
//!   route shape;
//! * `405` responses carry an `Allow` header listing exactly the methods
//!   registered for the path;
//! * `HEAD` requests are served by the matching `GET` route with the body
//!   dropped;
//! * a route that matches with an *empty* capture is a structured `400`
//!   (`invalid_parameter`), not a confusing not-found for the empty name.

use std::collections::HashMap;

use crate::error::ApiError;
use crate::request::{Method, Request};
use crate::response::{Response, Status};

/// Captured path parameters (`/api/session/:id` → `id`).
#[derive(Debug, Clone, Default)]
pub struct Params {
    map: HashMap<String, String>,
}

impl Params {
    /// Fetch a capture by name.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    /// Fetch a capture that must be present and non-empty; the failure is a
    /// structured `400 invalid_parameter` naming the capture.
    pub fn require(&self, name: &str) -> Result<&str, ApiError> {
        match self.get(name) {
            Some(v) if !v.is_empty() => Ok(v),
            _ => Err(invalid_parameter(name)),
        }
    }
}

/// The shared `400 invalid_parameter` error for an empty or missing path
/// capture (used by both [`Params::require`] and the router's dispatch).
fn invalid_parameter(name: &str) -> ApiError {
    ApiError::bad_request(
        "invalid_parameter",
        format!("path parameter '{name}' must be non-empty"),
    )
    .with_field(name)
}

type Handler = Box<dyn Fn(&Request, &Params) -> Response + Send + Sync>;

struct Route {
    method: Method,
    pattern: &'static str,
    segments: Vec<Segment>,
    handler: Handler,
}

enum Segment {
    Literal(String),
    Param(String),
}

/// A method+path router.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl Router {
    /// Empty router.
    pub fn new() -> Router {
        Router { routes: Vec::new() }
    }

    /// Register a route. Pattern segments starting with `:` capture.
    pub fn route(
        mut self,
        method: Method,
        pattern: &'static str,
        handler: impl Fn(&Request, &Params) -> Response + Send + Sync + 'static,
    ) -> Self {
        let segments = pattern
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| {
                if let Some(name) = s.strip_prefix(':') {
                    Segment::Param(name.to_string())
                } else {
                    Segment::Literal(s.to_string())
                }
            })
            .collect();
        self.routes.push(Route {
            method,
            pattern,
            segments,
            handler: Box::new(handler),
        });
        self
    }

    /// Every registered pattern, in registration order (once per route, so
    /// a path served under two methods appears twice).
    pub fn patterns(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.routes.iter().map(|route| route.pattern)
    }

    /// The pattern of the first route whose path shape matches `path` (an
    /// undecoded request path, see [`Request::routed_path`]), whatever the
    /// route's method; `None` when no route matches. Literal segments are
    /// compared undecoded, and nothing is allocated, so this can label
    /// every request (the `route` label of the HTTP metrics).
    pub fn template(&self, path: &str) -> Option<&'static str> {
        self.routes
            .iter()
            .find(|route| matches_path(&route.segments, path))
            .map(|route| route.pattern)
    }

    /// Dispatch a request. `404` when no pattern matches, `405` with an
    /// `Allow` header when a pattern matches under a different method.
    /// `HEAD` responses — success or error — keep the status and headers of
    /// the equivalent `GET` (including its `Content-Length`) with no body.
    pub fn dispatch(&self, req: &Request) -> Response {
        let mut resp = self.dispatch_inner(req);
        if req.method == Method::Head {
            // A streaming body's size is unknown; advertise a length only
            // for buffered bodies. Clearing drops a stream unpulled.
            if resp.header("Content-Length").is_none() && !resp.body.is_stream() {
                let len = resp.body.len();
                resp = resp.with_header("Content-Length", len.to_string());
            }
            resp.body.clear();
        }
        resp
    }

    fn dispatch_inner(&self, req: &Request) -> Response {
        let parts = req.path_segments();
        let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
        let head_of_get = req.method == Method::Head;
        let mut allowed: Vec<&'static str> = Vec::new();
        for route in &self.routes {
            if let Some(params) = match_segments(&route.segments, &parts) {
                if !allowed.contains(&route.method.name()) {
                    allowed.push(route.method.name());
                }
                let serves =
                    route.method == req.method || (head_of_get && route.method == Method::Get);
                if serves {
                    if let Some(name) = empty_capture(&route.segments, &params) {
                        return invalid_parameter(name).into();
                    }
                    return (route.handler)(req, &params);
                }
            }
        }
        if allowed.is_empty() {
            Response::error(Status::NotFound, &format!("no route for '{}'", req.path))
        } else {
            if allowed.contains(&"GET") && !allowed.contains(&"HEAD") {
                allowed.push("HEAD");
            }
            allowed.sort_unstable();
            Response::error(Status::MethodNotAllowed, "method not allowed")
                .with_header("Allow", allowed.join(", "))
        }
    }
}

fn match_segments(pattern: &[Segment], parts: &[&str]) -> Option<Params> {
    if pattern.len() != parts.len() {
        return None;
    }
    let mut params = Params::default();
    for (seg, part) in pattern.iter().zip(parts) {
        match seg {
            Segment::Literal(lit) => {
                if lit != part {
                    return None;
                }
            }
            Segment::Param(name) => {
                params.map.insert(name.clone(), (*part).to_string());
            }
        }
    }
    Some(params)
}

/// [`match_segments`] without captures or decoding, over the segments
/// [`Request::path_segments`] would split `path` into.
fn matches_path(pattern: &[Segment], path: &str) -> bool {
    let path = path.strip_prefix('/').unwrap_or(path);
    if path.is_empty() {
        return pattern.is_empty();
    }
    let mut parts = path.strip_suffix('/').unwrap_or(path).split('/');
    pattern.iter().all(|seg| match (seg, parts.next()) {
        (Segment::Literal(lit), Some(part)) => lit == part,
        (Segment::Param(_), Some(_)) => true,
        (_, None) => false,
    }) && parts.next().is_none()
}

fn empty_capture<'p>(pattern: &'p [Segment], params: &Params) -> Option<&'p str> {
    pattern.iter().find_map(|seg| match seg {
        Segment::Param(name) if params.get(name).is_some_and(str::is_empty) => Some(name.as_str()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};

    fn req(method: Method, path: &str) -> Request {
        Request::test(method, path, Vec::new())
    }

    fn router() -> Router {
        Router::new()
            .route(Method::Get, "/api/sources", |_, _| {
                Response::ok_json(&Json::from("sources"))
            })
            .route(Method::Get, "/api/session/:id/stats", |_, p| {
                Response::ok_json(&Json::from(p.get("id").unwrap_or("?")))
            })
            .route(Method::Post, "/api/query", |_, _| {
                Response::ok_json(&Json::from("created"))
            })
            .route(Method::Delete, "/api/session/:id", |_, p| {
                Response::ok_json(&Json::from(p.get("id").unwrap_or("?")))
            })
            .route(Method::Get, "/api/session/:id", |_, p| {
                Response::ok_json(&Json::from(p.get("id").unwrap_or("?")))
            })
    }

    #[test]
    fn literal_match() {
        let r = router().dispatch(&req(Method::Get, "/api/sources"));
        assert_eq!(r.status, Status::Ok);
        assert_eq!(String::from_utf8(r.body.to_vec()).unwrap(), "\"sources\"");
    }

    #[test]
    fn param_capture() {
        let r = router().dispatch(&req(Method::Get, "/api/session/s42/stats"));
        assert_eq!(String::from_utf8(r.body.to_vec()).unwrap(), "\"s42\"");
    }

    #[test]
    fn params_are_percent_decoded_per_segment() {
        let r = router().dispatch(&req(Method::Get, "/api/session/s%20x/stats"));
        assert_eq!(String::from_utf8(r.body.to_vec()).unwrap(), "\"s x\"");
        // An encoded slash stays inside the capture instead of adding a
        // path segment.
        let r = router().dispatch(&req(Method::Get, "/api/session/a%2Fb/stats"));
        assert_eq!(String::from_utf8(r.body.to_vec()).unwrap(), "\"a/b\"");
    }

    #[test]
    fn not_found_vs_method_not_allowed() {
        let r = router().dispatch(&req(Method::Get, "/nope"));
        assert_eq!(r.status, Status::NotFound);
        let r = router().dispatch(&req(Method::Get, "/api/query"));
        assert_eq!(r.status, Status::MethodNotAllowed);
    }

    #[test]
    fn method_not_allowed_lists_allow_header() {
        let r = router().dispatch(&req(Method::Post, "/api/session/s1"));
        assert_eq!(r.status, Status::MethodNotAllowed);
        // GET and DELETE are registered; GET implies HEAD.
        assert_eq!(r.header("Allow"), Some("DELETE, GET, HEAD"));
        let v = parse_json(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("method_not_allowed")
        );
    }

    #[test]
    fn head_served_by_get_with_empty_body() {
        let r = router().dispatch(&req(Method::Head, "/api/sources"));
        assert_eq!(r.status, Status::Ok);
        assert!(r.body.is_empty());
        // The GET entity size is preserved for clients probing via HEAD.
        assert_eq!(r.header("Content-Length"), Some("9"), "{:?}", r.headers);
        // HEAD on a POST-only path is 405, not 404.
        let r = router().dispatch(&req(Method::Head, "/api/query"));
        assert_eq!(r.status, Status::MethodNotAllowed);
    }

    #[test]
    fn head_error_responses_are_bodiless() {
        // RFC 9110: no body on any HEAD response, including router errors.
        for path in ["/nope", "/api/query", "/api/session//stats"] {
            let r = router().dispatch(&req(Method::Head, path));
            assert!(r.body.is_empty(), "HEAD {path} must have no body");
            assert!(r.header("Content-Length").is_some(), "HEAD {path}");
        }
    }

    #[test]
    fn empty_capture_is_structured_400() {
        let r = router().dispatch(&req(Method::Get, "/api/session//stats"));
        assert_eq!(r.status, Status::BadRequest);
        let v = parse_json(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("invalid_parameter"));
        assert_eq!(err.get("field").unwrap().as_str(), Some("id"));
    }

    #[test]
    fn params_require_rejects_empty_and_missing() {
        let mut p = Params::default();
        assert_eq!(p.require("id").unwrap_err().code, "invalid_parameter");
        p.map.insert("id".into(), String::new());
        assert_eq!(p.require("id").unwrap_err().code, "invalid_parameter");
        p.map.insert("id".into(), "s7".into());
        assert_eq!(p.require("id").unwrap(), "s7");
    }

    #[test]
    fn trailing_slash_equivalence() {
        let r = router().dispatch(&req(Method::Get, "/api/sources/"));
        assert_eq!(r.status, Status::Ok);
    }

    #[test]
    fn template_matches_the_path_shape_whatever_the_method() {
        let r = router();
        for (path, want) in [
            ("/api/sources", Some("/api/sources")),
            ("/api/sources/", Some("/api/sources")),
            ("/api/session/s42/stats", Some("/api/session/:id/stats")),
            ("/api/session//stats", Some("/api/session/:id/stats")),
            // POST-only route: labelled by path, not by method.
            ("/api/query", Some("/api/query")),
            ("/api/session/s1", Some("/api/session/:id")),
            ("/", None),
            ("/nope", None),
            ("/api/session/s42/stats/extra", None),
        ] {
            assert_eq!(r.template(path), want, "{path}");
        }
        assert_eq!(
            Router::new()
                .route(Method::Get, "/", |_, _| Response::no_content())
                .template("/"),
            Some("/")
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let r = router().dispatch(&req(Method::Get, "/api/session/s42/stats/extra"));
        assert_eq!(r.status, Status::NotFound);
    }
}
