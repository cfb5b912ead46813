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
//! The split rule lives in one type, the [`Frontier`]: a LIFO stack of
//! pending `(region, depth)` plus the atomic regions, whose
//! [`Frontier::absorb`] turns a probe's answer into split halves, a leaf
//! or an atomic hole. Every crawl in QR2 walks one:
//!
//! * **tie handling** (paper §II-B) and **dense-region indexing**
//!   (`1D-/MD-RERANK` crawl a dense interval or cell once and serve later
//!   queries from their index) run a [`Crawler`] through `qr2-core`'s
//!   `SearchCtx::crawl`, which passes [`Crawler::crawl_with`] a probe that
//!   counts and times each query like any other lookup of the session;
//! * **offline reconstruction**: `qr2-recon`'s job drives a frontier it
//!   checkpoints, cancels and resumes across budget-capped jobs.

mod crawl;
mod frontier;
mod region;
mod splitter;

pub use crawl::{CrawlOutcome, CrawlResult, Crawler, CrawlerConfig};
pub use frontier::{Absorbed, Frontier};
pub use region::{effective_cats, effective_range};
pub use splitter::SplitPolicy;
