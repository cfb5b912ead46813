//! HTTP/1.1 request parsing.

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, Read, Take};

/// Supported request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET
    Get,
    /// HEAD (served by GET routes with the body dropped)
    Head,
    /// POST
    Post,
    /// DELETE
    Delete,
}

impl Method {
    fn from_str(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "HEAD" => Some(Method::Head),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    /// Canonical name (`"GET"`).
    pub fn name(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Decoded path (no query string).
    pub path: String,
    /// Undecoded path as it appeared on the request line. The router splits
    /// this (not the decoded form) into segments, so a percent-encoded `/`
    /// inside a path parameter does not change the route shape. Empty means
    /// "same as `path`" (hand-built requests).
    pub raw_path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// A request built in code (tests, internal dispatch): no headers, no
    /// query string.
    pub fn test(method: Method, path: &str, body: Vec<u8>) -> Request {
        Request {
            method,
            path: path.to_string(),
            raw_path: path.to_string(),
            query: HashMap::new(),
            headers: HashMap::new(),
            body,
        }
    }

    /// Body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// A query parameter.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// A header value (names are stored lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// The path the router splits: the undecoded path from the request
    /// line, or `path` for a hand-built request without one.
    pub fn routed_path(&self) -> &str {
        if self.raw_path.is_empty() {
            &self.path
        } else {
            &self.raw_path
        }
    }

    /// Path split into percent-decoded segments for routing. Splits the raw
    /// (undecoded) path so an encoded `%2F` stays inside its segment, then
    /// decodes each segment independently. Exactly one trailing slash is
    /// ignored (`/api/sources/` ≡ `/api/sources`); interior empty segments
    /// are preserved so routes can reject empty captures explicitly.
    pub fn path_segments(&self) -> Vec<String> {
        let raw = self.routed_path();
        let mut segments: Vec<String> = raw
            .split('/')
            .skip(usize::from(raw.starts_with('/')))
            .map(|s| percent_decode(s).unwrap_or_else(|| s.to_string()))
            .collect();
        if segments.last().is_some_and(String::is_empty) {
            segments.pop();
        }
        segments
    }
}

/// Request parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Connection closed or malformed request line/headers.
    Malformed(String),
    /// Method not in [`Method`].
    UnsupportedMethod(String),
    /// Declared body exceeds the configured limit.
    BodyTooLarge(usize),
    /// Underlying I/O failure.
    Io(String),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::UnsupportedMethod(m) => write!(f, "unsupported method: {m}"),
            RequestError::BodyTooLarge(n) => write!(f, "body too large: {n} bytes"),
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Maximum accepted body (1 MiB — plenty for the JSON API).
const MAX_BODY: usize = 1 << 20;

/// Maximum request head: the request line plus every header line.
const MAX_HEAD: u64 = 64 << 10;

/// Maximum number of header lines.
const MAX_HEADERS: usize = 100;

/// Read one head line through the remaining head allowance; a line the
/// allowance cuts off before its newline is rejected.
fn read_head_line<R: BufRead>(head: &mut Take<R>) -> Result<String, RequestError> {
    let mut line = String::new();
    head.read_line(&mut line)
        .map_err(|e| RequestError::Io(e.to_string()))?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(RequestError::Malformed(format!(
            "request head exceeds {MAX_HEAD} bytes"
        )));
    }
    Ok(line)
}

/// Parse one request from a buffered reader. The head is capped at
/// 64 KiB and 100 header lines, the body at 1 MiB.
pub fn parse_request<R: BufRead>(reader: &mut R) -> Result<Request, RequestError> {
    let mut head = reader.take(MAX_HEAD);
    let line = read_head_line(&mut head)?;
    if line.is_empty() {
        return Err(RequestError::Malformed("empty request".into()));
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let method_raw = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing method".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!("bad version {version}")));
    }
    let method = Method::from_str(method_raw)
        .ok_or_else(|| RequestError::UnsupportedMethod(method_raw.to_string()))?;

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let raw_path = path_raw.to_string();
    let path = percent_decode(path_raw)
        .ok_or_else(|| RequestError::Malformed("bad path encoding".into()))?;
    let mut query = HashMap::new();
    if let Some(qs) = query_raw {
        for pair in qs.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k)
                .ok_or_else(|| RequestError::Malformed("bad query encoding".into()))?;
            let v = percent_decode(v)
                .ok_or_else(|| RequestError::Malformed("bad query encoding".into()))?;
            query.insert(k, v);
        }
    }

    let mut headers = HashMap::new();
    let mut header_lines = 0;
    loop {
        let hl = read_head_line(&mut head)?;
        let hl = hl.trim_end();
        if hl.is_empty() {
            break;
        }
        header_lines += 1;
        if header_lines > MAX_HEADERS {
            return Err(RequestError::Malformed(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        let (name, value) = hl
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("bad header line '{hl}'")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let mut body = Vec::new();
    if let Some(len) = headers.get("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| RequestError::Malformed("bad content-length".into()))?;
        if len > MAX_BODY {
            return Err(RequestError::BodyTooLarge(len));
        }
        body.resize(len, 0);
        reader
            .read_exact(&mut body)
            .map_err(|e| RequestError::Io(e.to_string()))?;
    }

    Ok(Request {
        method,
        path,
        raw_path,
        query,
        headers,
        body,
    })
}

/// Decode `%XX` sequences and `+` (as space, query-string convention).
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'%' => {
                let hi = (bytes.get(i + 1).copied()? as char).to_digit(16)?;
                let lo = (bytes.get(i + 2).copied()? as char).to_digit(16)?;
                out.push(((hi << 4) | lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        parse_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse("GET /api/search?q=blue+nile&page=2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/api/search");
        assert_eq!(r.query_param("q"), Some("blue nile"));
        assert_eq!(r.query_param("page"), Some("2"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse(
            "POST /api/query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\r\n{\"source\":\"z\"}",
        );
        // Body is 14 bytes but declared 13: read_exact takes the first 13.
        let r = r.unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body.len(), 13);
        assert_eq!(r.headers.get("content-type").unwrap(), "application/json");
    }

    #[test]
    fn percent_decoding() {
        let r = parse("GET /s%C3%A9arch?city=Fort%20Worth HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/séarch");
        assert_eq!(r.query_param("city"), Some("Fort Worth"));
    }

    #[test]
    fn rejects_unsupported_method() {
        assert!(matches!(
            parse("PATCH / HTTP/1.1\r\n\r\n"),
            Err(RequestError::UnsupportedMethod(_))
        ));
    }

    #[test]
    fn head_method_parses() {
        let r = parse("HEAD /api/sources HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Head);
        assert_eq!(Method::Head.name(), "HEAD");
    }

    #[test]
    fn path_segments_decode_per_segment() {
        // An encoded slash stays inside its segment.
        let r = parse("GET /v1/queries/a%2Fb/stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path_segments(), ["v1", "queries", "a/b", "stats"]);
        // One trailing slash is ignored; interior empties are preserved.
        let r = parse("GET /api/sources/ HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path_segments(), ["api", "sources"]);
        let r = parse("GET /api/session//stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path_segments(), ["api", "session", "", "stats"]);
        let r = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.path_segments().is_empty());
    }

    #[test]
    fn rejects_bad_version_and_garbage() {
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse("\r\n").is_err());
        assert!(parse("GET\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 10 << 20);
        assert!(matches!(parse(&raw), Err(RequestError::BodyTooLarge(_))));
    }

    #[test]
    fn rejects_bad_percent_escape() {
        assert!(parse("GET /a%ZZ HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("GET /a%2 HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn headers_are_case_insensitive() {
        let r = parse("GET / HTTP/1.1\r\nX-CuStOm: Value\r\n\r\n").unwrap();
        assert_eq!(r.headers.get("x-custom").unwrap(), "Value");
    }

    #[test]
    fn head_is_bounded() {
        let long = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(70 << 10));
        assert!(matches!(parse(&long), Err(RequestError::Malformed(_))));
        let endless_line = format!("GET /{}", "a".repeat(70 << 10));
        assert!(matches!(
            parse(&endless_line),
            Err(RequestError::Malformed(_))
        ));
        let headers = |n: usize| {
            let lines: String = (0..n).map(|i| format!("X-{i}: v\r\n")).collect();
            format!("POST / HTTP/1.1\r\n{lines}Content-Length: 2\r\n\r\nok")
        };
        // 99 + Content-Length = 100 header lines: accepted, body intact.
        assert_eq!(parse(&headers(99)).unwrap().body_str(), Some("ok"));
        assert!(matches!(
            parse(&headers(100)),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn body_str_utf8() {
        let r = parse("POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(r.body_str(), Some("ok"));
    }
}
