//! # qr2-core — query reranking over a hidden top-k interface
//!
//! The algorithms of *Query Reranking as a Service* (Asudeh, Zhang, Das,
//! VLDB 2016) as demonstrated by QR2 (ICDE 2018): given a web database `D`
//! reachable only through its public top-k search interface, a user filter
//! query `q`, and a user-specified monotone ranking function `f`, discover
//! the tuples matching `q` in `f`-order — one [`get-next`](RerankSession)
//! at a time — while minimizing the number of queries issued to `D`.
//!
//! ## Algorithm families
//!
//! | | BASELINE | BINARY | RERANK |
//! |---|---|---|---|
//! | **1D** | narrow `[lo, best)` using the best-known tuple as upper bound | halve the live interval | binary + on-the-fly dense-region indexing |
//! | **MD** | shrink the bounding box of the best tuple's *rank contour* | best-first branch-and-bound over contour-pruned cells | branch-and-bound + dense-cell indexing |
//!
//! plus [`MD-TA`](md): Fagin's Threshold Algorithm with sorted access
//! provided by per-attribute 1D-RERANK streams.
//!
//! ## Conventions
//!
//! * A user ranking function assigns every tuple a **score; smaller is
//!   better** (the paper's examples — `price − 0.3·sqft` — are minimized).
//! * Ranking attributes are min–max normalized ([`Normalizer`]) so slider
//!   weights in `[-1, 1]` are comparable across attributes (paper §II-B).
//! * Every interaction with the database goes through a [`SearchCtx`],
//!   which executes query batches sequentially or in parallel and records
//!   the per-round query counts that Fig. 2 of the paper reports.
//!
//! ## Quick start
//!
//! ```
//! use qr2_core::{Algorithm, LinearFunction, Reranker, RerankRequest, SortDir};
//! use qr2_datagen::{bluenile_db, DiamondsConfig};
//! use qr2_webdb::SearchQuery;
//! use std::sync::Arc;
//!
//! let db = Arc::new(bluenile_db(&DiamondsConfig { n: 2000, ..Default::default() }));
//! let reranker = Reranker::builder(db.clone()).build();
//!
//! // "cheapest per carat-ish": minimize price − 0.5·carat (normalized).
//! let schema = reranker.schema();
//! let f = LinearFunction::new(vec![
//!     (schema.expect_id("price"), 1.0),
//!     (schema.expect_id("carat"), -0.5),
//! ]).unwrap();
//! let mut session = reranker.query(RerankRequest {
//!     filter: SearchQuery::all(),
//!     function: f.into(),
//!     algorithm: Algorithm::MdRerank,
//! });
//! let top = session.next().unwrap();
//! println!("top tuple: {top:?}, cost: {} queries", session.stats().total_queries());
//! ```

mod budget;
mod dense_index;
mod executor;
mod function;
pub mod md;
mod normalize;
pub mod oned;
mod reranker;
mod space;
mod stats;

pub use budget::{Budget, CancelToken, StepOutcome};
pub use dense_index::DenseIndex;
pub use executor::{ExecutorKind, SearchCtx, StatsSnapshot};
pub use function::{LinearFunction, OneDimFunction, RankingFunction, Scorer, SortDir};
pub use md::{MdAlgo, MdReranker};
pub use normalize::{discover_extremum, AttrStats, Normalizer};
pub use oned::{OneDAlgo, OneDimStream};
pub use reranker::{Algorithm, RerankRequest, RerankSession, Reranker, RerankerBuilder};
pub use space::NBox;
pub use stats::QueryStats;
