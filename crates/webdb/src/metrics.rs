//! Query accounting and latency simulation.
//!
//! The paper's primary cost metric is the **number of queries issued to the
//! web database**; the statistics panel (Fig. 4) also reports processing
//! time, which on live sites is dominated by per-query network latency. The
//! [`QueryLedger`] counts queries; the [`LatencyModel`] reproduces the
//! wall-clock shape.
//!
//! The ledger only counts: recording a query is one atomic increment of
//! its execution path's counter, with no lock and no copy of the query.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which execution path served a recorded query (cost accounting for the
/// simulator's engine — every path still costs the caller one query).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Resolved through the per-attribute sorted projections
    /// (`O(log n + candidates)`).
    Indexed,
    /// Resolved by scanning the system-rank order until `k` matches.
    Scanned,
    /// Trivially empty query answered without touching the data at all.
    Shortcut,
    /// Executed outside the local engine (remote gateways, tests).
    External,
}

/// Per-path query counts (see [`QueryLedger::exec_breakdown`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecBreakdown {
    /// Queries served by the sorted-projection index.
    pub indexed: u64,
    /// Queries served by a rank-order scan.
    pub scanned: u64,
    /// Trivially empty queries short-circuited before execution.
    pub shortcut: u64,
    /// Queries recorded by an external executor.
    pub external: u64,
}

impl ExecBreakdown {
    /// Sum over all paths (equals [`QueryLedger::total`]).
    pub fn total(&self) -> u64 {
        self.indexed + self.scanned + self.shortcut + self.external
    }
}

/// Thread-safe ledger of queries issued against one web database.
#[derive(Debug, Default)]
pub struct QueryLedger {
    indexed: AtomicU64,
    scanned: AtomicU64,
    shortcut: AtomicU64,
    external: AtomicU64,
}

impl QueryLedger {
    /// Record one executed query on `path`.
    pub fn record_executed(&self, path: ExecPath) {
        match path {
            ExecPath::Indexed => &self.indexed,
            ExecPath::Scanned => &self.scanned,
            ExecPath::Shortcut => &self.shortcut,
            ExecPath::External => &self.external,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of queries recorded so far.
    pub fn total(&self) -> u64 {
        self.exec_breakdown().total()
    }

    /// Per-execution-path query counts.
    pub fn exec_breakdown(&self) -> ExecBreakdown {
        ExecBreakdown {
            indexed: self.indexed.load(Ordering::Relaxed),
            scanned: self.scanned.load(Ordering::Relaxed),
            shortcut: self.shortcut.load(Ordering::Relaxed),
            external: self.external.load(Ordering::Relaxed),
        }
    }
}

/// Deterministic per-query latency: `base + U[0, jitter)`.
///
/// The jitter stream is a seeded xorshift so experiment wall times are
/// reproducible. Latency is *disabled* by default in unit tests.
#[derive(Debug)]
pub struct LatencyModel {
    base: Duration,
    jitter: Duration,
    state: AtomicU64,
}

impl LatencyModel {
    /// New latency model. `jitter` may be zero for a constant delay.
    pub fn new(base: Duration, jitter: Duration, seed: u64) -> Self {
        LatencyModel {
            base,
            jitter,
            state: AtomicU64::new(seed.max(1)),
        }
    }

    /// Sample the next delay (advances the jitter stream).
    pub fn sample(&self) -> Duration {
        if self.jitter.is_zero() {
            return self.base;
        }
        // xorshift64* advanced atomically; contention-tolerant.
        let mut x = self.state.load(Ordering::Relaxed);
        loop {
            let mut y = x;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            match self
                .state
                .compare_exchange_weak(x, y, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    let frac =
                        (y.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
                    return self.base + self.jitter.mul_f64(frac);
                }
                Err(actual) => x = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_per_path() {
        let l = QueryLedger::default();
        l.record_executed(ExecPath::Indexed);
        l.record_executed(ExecPath::Scanned);
        l.record_executed(ExecPath::External);
        assert_eq!(l.total(), 3);
        let b = l.exec_breakdown();
        assert_eq!((b.indexed, b.scanned, b.shortcut, b.external), (1, 1, 0, 1));
        assert_eq!(b.total(), l.total());
    }

    #[test]
    fn ledger_concurrent_counting() {
        use std::sync::Arc;
        let l = Arc::new(QueryLedger::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    l.record_executed(ExecPath::External);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.total(), 400);
    }

    #[test]
    fn latency_constant() {
        let m = LatencyModel::new(Duration::from_millis(5), Duration::ZERO, 1);
        assert_eq!(m.sample(), Duration::from_millis(5));
    }

    #[test]
    fn latency_jitter_within_bounds_and_deterministic() {
        let m1 = LatencyModel::new(Duration::from_millis(10), Duration::from_millis(20), 7);
        let m2 = LatencyModel::new(Duration::from_millis(10), Duration::from_millis(20), 7);
        for _ in 0..100 {
            let a = m1.sample();
            let b = m2.sample();
            assert_eq!(a, b, "same seed, same stream");
            assert!(a >= Duration::from_millis(10));
            assert!(a < Duration::from_millis(30) + Duration::from_nanos(1));
        }
    }
}
