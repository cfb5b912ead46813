//! # qr2-recon — offline rank reconstruction and hybrid zero-query serving
//!
//! QR2's live reranking algorithms pay web-database queries on every
//! session; the paper's cost ceiling is the top-k interface itself.
//! *Digging Deeper into Deep Web Databases by Breaking Through the Top-k
//! Barrier* (Asudeh et al., reference in PAPERS.md) shows that the same
//! query budget can instead be spent **offline**: walk the source's query
//! space once with the region-splitting crawler and every later ranking
//! query over the reconstructed portion is answered for free. This crate
//! implements that read path as three pieces:
//!
//! * [`ReconIndex`] — the live reconstruction of one source: every tuple
//!   retrieved so far plus the **frontier** of query-space regions not
//!   yet fully retrieved. A conjunctive region is *covered* when it lies
//!   inside the reconstruction root and touches no frontier region; a
//!   covered region's ranking answers need zero web-DB queries.
//!   Optionally persisted through [`qr2_store::RankIndex`] with
//!   crash-safe incremental checkpoints.
//! * The **reconstruction driver** ([`ReconIndex::run_job`]) — a
//!   budgeted, resumable walk of the root region built on
//!   `qr2-crawler`'s [`split_region`](qr2_crawler::split_region)
//!   machinery. Every probe runs under an ambient background-class
//!   [`qr2_sched::SessionCtx`], so reconstruction work queues behind
//!   interactive sessions in the per-source scheduler and benefits from
//!   answer-cache hits and cross-session coalescing like any other
//!   caller.
//! * [`ServeOrder`] and [`ReconCursor`] — the engines' client-visible
//!   serving order, reproduced exactly: [`ReconIndex::serve`] hands the
//!   hybrid serving tier in `qr2-service` a lazy cursor that walks sorted
//!   per-attribute projections (1D orders) or searches a kd-tree over the
//!   function's columns best-first (MD orders), so a reconstruction-served
//!   page is **byte-identical** to the live path without sorting the
//!   matches.
//!
//! ## Staleness
//!
//! Validity is epoch-based and coupled to `qr2-cache`'s answer-cache
//! epochs: every coverage check compares the reconstruction's epoch
//! against the caller-supplied *current* epoch (the answer cache's). A
//! database-change flush bumps the cache epoch, which instantly marks the
//! reconstruction stale — serving falls back to the live engines until a
//! re-crawl rebuilds the index at the new epoch. At boot,
//! [`ReconIndex::verify`] probes the source once to check that a
//! persisted reconstruction still matches it; the service flushes the
//! source and drops the reconstruction when it does not.

mod cursor;
mod index;
mod serve;

pub use cursor::ReconCursor;
pub use index::{
    region_volume, JobOptions, JobReport, JobStatus, ReconIndex, ReconJobError, ReconStatus,
    VerifyReport,
};
pub use serve::ServeOrder;
