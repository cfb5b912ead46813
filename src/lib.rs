//! # QR2 — a third-party query reranking service over web databases
//!
//! Rust reproduction of *QR2: A Third-Party Query Reranking Service over Web
//! Databases* (Gunasekaran et al., ICDE 2018) and the algorithms it
//! demonstrates (*Query Reranking as a Service*, Asudeh et al., VLDB 2016).
//!
//! This facade crate re-exports the whole workspace so examples and
//! downstream users can depend on a single crate:
//!
//! * [`webdb`] — the hidden web database abstraction and simulator,
//! * [`cache`] — the shared cross-session answer cache (canonical keys,
//!   sharded LRU, single-flight deduplication, persistence),
//! * [`datagen`] — synthetic Blue Nile / Zillow data generators,
//! * [`crawler`] — the hidden-database region crawler (Sheng et al.),
//! * [`store`] — the embedded persistent answer and reconstruction stores,
//! * [`core`] — the reranking algorithms (1D/MD × BASELINE/BINARY/RERANK,
//!   MD-TA) and the get-next primitive,
//! * [`recon`] — offline rank reconstruction and zero-query serving,
//! * [`obs`] — unified metrics, request tracing and slow-query visibility,
//! * [`http`] — the minimal HTTP/JSON substrate,
//! * [`service`] — the QR2 web service itself.
//!
//! See `README.md` for a tour and `examples/quickstart.rs` for a minimal
//! end-to-end program.

pub use qr2_cache as cache;
pub use qr2_core as core;
pub use qr2_crawler as crawler;
pub use qr2_datagen as datagen;
pub use qr2_http as http;
pub use qr2_obs as obs;
pub use qr2_recon as recon;
pub use qr2_sched as sched;
pub use qr2_service as service;
pub use qr2_store as store;
pub use qr2_webdb as webdb;
