//! Typed request decoding and response encoding.
//!
//! The service's DTO structs implement [`FromJson`]/[`IntoJson`] instead of
//! hand-parsing `Json` in handlers. [`Decode`] is the derive-free helper
//! behind `FromJson`: a cursor over a [`Json`] value that tracks the field
//! path it points at, so every validation failure carries a precise
//! machine-readable location (`filters[0].attr`) in the error envelope.
//!
//! ```
//! use qr2_http::{parse_json, Decode, FromJson};
//!
//! struct Page { size: usize }
//! impl FromJson for Page {
//!     fn from_json(d: &Decode) -> Result<Page, qr2_http::ApiError> {
//!         Ok(Page { size: d.field("size")?.usize()? })
//!     }
//! }
//!
//! let v = parse_json(r#"{"size": 5}"#).unwrap();
//! let p = Page::from_json(&Decode::root(&v)).unwrap();
//! assert_eq!(p.size, 5);
//! ```

use crate::error::ApiError;
use crate::json::{parse_json, Json};
use crate::request::Request;

/// Types decodable from a request JSON body.
pub trait FromJson: Sized {
    /// Decode from the value under `d`, reporting failures as path-anchored
    /// [`ApiError`]s.
    fn from_json(d: &Decode) -> Result<Self, ApiError>;
}

/// Types encodable to a response JSON body.
pub trait IntoJson {
    /// The JSON rendering of `self`.
    fn to_json(&self) -> Json;
}

impl IntoJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// Parse a request body as JSON (`invalid_json` / `missing_body` on
/// failure). The entry point for [`decode_body`]; exposed for handlers that
/// need the raw value.
pub fn parse_body(req: &Request) -> Result<Json, ApiError> {
    let text = req
        .body_str()
        .ok_or_else(|| ApiError::bad_request("invalid_body", "body must be UTF-8"))?;
    if text.trim().is_empty() {
        return Err(ApiError::bad_request(
            "missing_body",
            "a JSON body is required",
        ));
    }
    parse_json(text)
        .map_err(|e| ApiError::bad_request("invalid_json", format!("body must be JSON: {e}")))
}

/// Decode a request body straight into a DTO.
pub fn decode_body<T: FromJson>(req: &Request) -> Result<T, ApiError> {
    let v = parse_body(req)?;
    T::from_json(&Decode::root(&v))
}

/// A cursor over a JSON value that remembers its field path.
#[derive(Debug, Clone)]
pub struct Decode<'a> {
    value: &'a Json,
    path: String,
}

impl<'a> Decode<'a> {
    /// Cursor at the document root (empty path).
    pub fn root(value: &'a Json) -> Decode<'a> {
        Decode {
            value,
            path: String::new(),
        }
    }

    /// The raw value under the cursor.
    pub fn json(&self) -> &'a Json {
        self.value
    }

    /// The field path of the cursor (`filters[0].attr`; empty at the root).
    pub fn path(&self) -> &str {
        &self.path
    }

    fn child_path(&self, name: &str) -> String {
        if self.path.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.path)
        }
    }

    /// A validation error anchored at this cursor's path.
    pub fn error(&self, code: &'static str, message: impl Into<String>) -> ApiError {
        let e = ApiError::bad_request(code, message);
        if self.path.is_empty() {
            e
        } else {
            e.with_field(&self.path)
        }
    }

    /// Required object field (`missing_field` when absent or `null`).
    pub fn field(&self, name: &str) -> Result<Decode<'a>, ApiError> {
        self.opt(name).ok_or_else(|| {
            ApiError::bad_request("missing_field", format!("missing required field '{name}'"))
                .with_field(self.child_path(name))
        })
    }

    /// Optional object field (`None` when absent or `null`).
    pub fn opt(&self, name: &str) -> Option<Decode<'a>> {
        match self.value.get(name) {
            None | Some(Json::Null) => None,
            Some(v) => Some(Decode {
                value: v,
                path: self.child_path(name),
            }),
        }
    }

    fn type_error(&self, expected: &str) -> ApiError {
        self.error(
            "invalid_type",
            format!("expected {expected}, got {}", kind_of(self.value)),
        )
    }

    /// String payload.
    pub fn str(&self) -> Result<&'a str, ApiError> {
        self.value
            .as_str()
            .ok_or_else(|| self.type_error("a string"))
    }

    /// Numeric payload.
    pub fn f64(&self) -> Result<f64, ApiError> {
        self.value
            .as_f64()
            .ok_or_else(|| self.type_error("a number"))
    }

    /// Non-negative integer payload.
    pub fn usize(&self) -> Result<usize, ApiError> {
        self.value
            .as_usize()
            .ok_or_else(|| self.type_error("a non-negative integer"))
    }

    /// Boolean payload.
    pub fn bool(&self) -> Result<bool, ApiError> {
        self.value
            .as_bool()
            .ok_or_else(|| self.type_error("a boolean"))
    }

    /// Array payload, each element cursor carrying its `path[i]`.
    pub fn arr(&self) -> Result<Vec<Decode<'a>>, ApiError> {
        let items = self
            .value
            .as_arr()
            .ok_or_else(|| self.type_error("an array"))?;
        Ok(items
            .iter()
            .enumerate()
            .map(|(i, v)| Decode {
                value: v,
                path: format!("{}[{i}]", self.path),
            })
            .collect())
    }

    /// Object payload as `(key, cursor)` entries.
    pub fn entries(&self) -> Result<Vec<(&'a str, Decode<'a>)>, ApiError> {
        match self.value {
            Json::Obj(m) => Ok(m
                .iter()
                .map(|(k, v)| {
                    (
                        k.as_str(),
                        Decode {
                            value: v,
                            path: self.child_path(k),
                        },
                    )
                })
                .collect()),
            _ => Err(self.type_error("an object")),
        }
    }
}

fn kind_of(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "a boolean",
        Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::Status;

    fn doc() -> Json {
        parse_json(
            r#"{"source":"zillow","page_size":5,
                "filters":[{"attr":"price","min":100}],
                "ranking":{"weights":{"price":1.0}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn field_paths_accumulate() {
        let v = doc();
        let d = Decode::root(&v);
        let filters = d.field("filters").unwrap();
        let items = filters.arr().unwrap();
        assert_eq!(items[0].path(), "filters[0]");
        let attr = items[0].field("attr").unwrap();
        assert_eq!(attr.path(), "filters[0].attr");
        assert_eq!(attr.str().unwrap(), "price");
        let w = d
            .field("ranking")
            .unwrap()
            .field("weights")
            .unwrap()
            .entries()
            .unwrap();
        assert_eq!(w[0].1.path(), "ranking.weights.price");
    }

    #[test]
    fn missing_field_error_carries_path() {
        let v = doc();
        let d = Decode::root(&v);
        let filters = d.field("filters").unwrap().arr().unwrap();
        let e = filters[0].field("values").unwrap_err();
        assert_eq!(e.code, "missing_field");
        assert_eq!(e.field.as_deref(), Some("filters[0].values"));
        assert_eq!(e.status, Status::BadRequest);
    }

    #[test]
    fn type_errors_name_actual_kind() {
        let v = doc();
        let d = Decode::root(&v);
        let e = d.field("source").unwrap().usize().unwrap_err();
        assert_eq!(e.code, "invalid_type");
        assert!(e.message.contains("a string"), "{}", e.message);
        assert_eq!(e.field.as_deref(), Some("source"));
    }

    #[test]
    fn null_counts_as_absent() {
        let v = parse_json(r#"{"a":null}"#).unwrap();
        let d = Decode::root(&v);
        assert!(d.opt("a").is_none());
        assert!(d.field("a").is_err());
    }

    #[test]
    fn decode_body_rejects_non_json() {
        let req = Request::test(crate::Method::Post, "/x", b"not json".to_vec());
        let e = parse_body(&req).unwrap_err();
        assert_eq!(e.code, "invalid_json");
        let req = Request::test(crate::Method::Post, "/x", Vec::new());
        assert_eq!(parse_body(&req).unwrap_err().code, "missing_body");
        let req = Request::test(crate::Method::Post, "/x", vec![0xFF, 0xFE]);
        assert_eq!(parse_body(&req).unwrap_err().code, "invalid_body");
    }

    #[test]
    fn from_json_roundtrip() {
        struct P {
            source: String,
            page: usize,
        }
        impl FromJson for P {
            fn from_json(d: &Decode) -> Result<P, ApiError> {
                Ok(P {
                    source: d.field("source")?.str()?.to_string(),
                    page: d.field("page_size")?.usize()?,
                })
            }
        }
        let v = doc();
        let p = P::from_json(&Decode::root(&v)).unwrap();
        assert_eq!(p.source, "zillow");
        assert_eq!(p.page, 5);
    }
}
