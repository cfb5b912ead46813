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
//! **Where it cuts.** An overflowing probe returns a page of `k` tuples
//! that lie in `R`. The crawler cuts `R` between two adjacent distinct
//! values of that page on one numeric attribute, choosing the attribute
//! and the gap that leave the most page tuples on the smaller side (ties
//! go to the earliest attribute): halfway between the two values on a
//! continuous attribute, `≤ ⌊c⌋` / `≥ ⌊c⌋ + 1` on an integral one. Both
//! halves hold page tuples, so no probe of a split child comes back
//! empty, and with distinct page values every node of the split tree
//! holds at least ⌊k/2⌋ tuples, which bounds a crawl of `n` tuples at
//! about `4n/k` probes. Only when no numeric attribute separates the page
//! does it fall back to the midpoint of the attribute widest relative to
//! its domain, then to halving a categorical label set
//! ([`SplitPolicy`]). The cut depends only on the region and its page, so
//! the split tree does not depend on the order it is walked in.
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
//!   counts and times each query like any other lookup of the session,
//!   and the page of the probe that found the region dense, so the crawl
//!   splits it without probing it again;
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
