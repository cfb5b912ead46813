//! # qr2-store — embedded persistence for what QR2 learns about a source
//!
//! The QR2 paper keeps what the service learns in MySQL because it is
//! "shared between all the users \[and\] may become relatively large, not
//! to fit in the main memory", and verifies it against the web database
//! "before the system boots up" (§II-B). This crate provides the same
//! behaviours as an embedded component:
//!
//! * [`codec`]: a compact hand-rolled binary codec (varints, zig-zag, f64
//!   bit-patterns, strings, queries, tuple lists) appending to `Vec<u8>`
//!   and reading from `&[u8]`;
//! * [`crc32`]: table-driven CRC-32 (IEEE) for record integrity;
//! * [`Log`]: an append-only, checksummed record log with crash recovery
//!   (a torn or corrupt tail is detected and truncated);
//! * [`KvStore`]: a keyed store with compaction on top of the log;
//! * [`AnswerStore`]: persisted top-k answers keyed by canonical query,
//!   with epoch-based invalidation — the durable half of the shared
//!   cross-session answer cache (`qr2-cache`);
//! * [`RankIndex`]: the persisted offline rank reconstruction of one
//!   source — crawled tuples plus the uncovered-region frontier — with
//!   crash-safe incremental checkpoints and the same epoch-based
//!   invalidation (`qr2-recon`), checked against the live source at boot.
//!
//! No serde: the formats here are small, versioned, and fully tested,
//! including seeded randomized round-trips (`tests/codec_props.rs`) and
//! corruption injection.

mod answers;
pub mod codec;
pub mod crc32;
mod kv;
mod log;
mod recon;

pub use answers::AnswerStore;
pub use kv::KvStore;
pub use log::{Log, LogStats};
pub use recon::{RankIndex, RankSnapshot};

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record or file failed structural validation.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StoreError>;
