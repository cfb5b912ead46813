//! # qr2-webdb — the hidden web database substrate
//!
//! QR2 is a *third-party* reranking service: it can interact with a web
//! database (Blue Nile, Zillow, …) **only** through the database's public
//! search interface. This crate models that interface faithfully, following
//! the abstraction used by the QR2 paper (Gunasekaran et al., ICDE 2018) and
//! the algorithms paper it demonstrates (Asudeh et al., *Query Reranking as a
//! Service*, VLDB 2016):
//!
//! * a database is a set of tuples over a fixed [`Schema`] of numeric and
//!   categorical attributes;
//! * a search query is a **conjunction** of per-attribute predicates —
//!   numeric ranges and categorical membership ([`SearchQuery`]);
//! * the interface returns at most `system-k` matching tuples, ordered by a
//!   **proprietary, unknown system ranking function**, together with an
//!   *overflow* flag indicating that more matches exist ([`TopKResponse`]);
//! * every query costs one unit; the service's goal is to minimize the
//!   number of queries issued ([`QueryLedger`]).
//!
//! The concrete implementation here, [`SimulatedWebDb`], substitutes for the
//! live web sites used in the paper's demonstration (see `DESIGN.md` §4 for
//! the substitution argument). It supports configurable per-query latency so
//! wall-clock experiments (paper Fig. 4) keep their shape.
//!
//! ## Example
//!
//! ```
//! use qr2_webdb::{Schema, AttrKind, TableBuilder, SimulatedWebDb,
//!                 SearchQuery, SystemRanking, TopKInterface};
//!
//! let schema = Schema::builder()
//!     .numeric("price", 0.0, 100.0)
//!     .numeric("size", 0.0, 10.0)
//!     .build();
//! let mut tb = TableBuilder::new(schema.clone());
//! for i in 0..10 {
//!     tb.push_row(vec![(i as f64) * 10.0, (i as f64)]).unwrap();
//! }
//! // The hidden ranking prefers expensive items (descending price).
//! let ranking = SystemRanking::linear(&schema, &[("price", 1.0)]).unwrap();
//! let db = SimulatedWebDb::new(tb.build(), ranking, 3);
//!
//! let q = SearchQuery::all(); // match everything
//! let resp = db.search(&q);
//! assert!(resp.overflow);                    // 10 matches > system-k = 3
//! assert_eq!(resp.tuples.len(), 3);          // only the top-3 are visible
//! assert_eq!(resp.tuples[0].num(0), 90.0);   // best by the hidden ranking
//! ```

mod attr;
mod fault;
pub mod index;
mod interface;
mod metrics;
mod predicate;
mod ranking;
mod resilient;
mod schema;
mod sim;
mod table;
mod traffic;
mod tuple;
mod value;

pub use attr::{AttrId, AttrKind, Attribute};
pub use fault::{FaultInjectingInterface, FaultScript, FaultStats, SearchError};
pub use index::{Projection, QueryPlan, TableIndex};
pub use interface::{page_or_empty, Answer, SearchOutcome, TopKInterface, TopKResponse};
pub use metrics::{
    ExecBreakdown, ExecPath, LatencyModel, QueryLedger, QueryLogEntry, RECENT_COPY_CAP,
};
pub use predicate::{CatSet, Predicate, RangePred, SearchQuery};
pub use ranking::SystemRanking;
pub use resilient::{
    jittered_backoff, Admission, BreakerConfig, ResilientInterface, RetryPolicy, SourceHealth,
};
pub use schema::{Schema, SchemaBuilder};
pub use sim::{ExecMode, SimulatedWebDb};
pub use table::{Column, Table, TableBuilder};
pub use traffic::{RateLimit, SourcePolicy, Throttled, TrafficShapedInterface, TrafficStats};
pub use tuple::{Tuple, TupleId};
pub use value::Value;
