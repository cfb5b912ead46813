//! # qr2-crawler — crawling a hidden database through its top-k interface
//!
//! Implements the recursive region-splitting crawler of Sheng, Zhang, Tao
//! and Jin, *Optimal algorithms for crawling a hidden database in the web*
//! (VLDB 2012) — reference \[8\] of the QR2 paper.
//!
//! Given a conjunctive region `R` (a [`SearchQuery`](qr2_webdb::SearchQuery)), the crawler retrieves
//! **every** tuple matching `R` using only top-k searches: it queries `R`;
//! if the response overflows (more than `system-k` matches), it splits `R`
//! into two disjoint subregions along some attribute and recurses. Because
//! the two halves partition `R` exactly (half-open interval splits), each
//! hidden tuple becomes visible in exactly one non-overflowing leaf.
//!
//! QR2 invokes this machinery in two places:
//!
//! * **tie handling** (paper §II-B): when more than `system-k` tuples share
//!   a value `V` on attribute `Aᵢ`, the query `Aᵢ = V` can never underflow;
//!   [`crawl_point`] enumerates the tied tuples by splitting on the *other*
//!   attributes;
//! * **dense-region indexing**: `1D-/MD-RERANK` crawl a dense interval or
//!   cell once and serve subsequent queries from the index.

mod crawl;
mod region;
mod splitter;

pub use crawl::{crawl, crawl_point, CrawlOutcome, CrawlResult, Crawler, CrawlerConfig};
pub use region::{effective_cats, effective_range, region_diag, snap_integral};
pub use splitter::{split_region, SplitPolicy};
