//! The on-the-fly dense-region index shared by all sessions.
//!
//! When `1D-RERANK` / `MD-RERANK` meet a region that is dense (many tuples
//! within a tiny interval or cell — including exact ties), they crawl it
//! **once**, store the full contents here, and answer every later query
//! that falls inside a cached region for free. The paper backs this index
//! with MySQL because it is shared across users and persists across
//! restarts; we back it with [`qr2_store::DenseRegionStore`].
//!
//! Cached regions are *unfiltered*: they are crawled without the user's
//! filter predicates so any session — whatever its filters — can reuse
//! them. Serving filters the cached tuples in memory.

use std::time::Instant;

use parking_lot::Mutex;
use qr2_crawler::{Crawler, CrawlerConfig};
use qr2_store::DenseRegionStore;
use qr2_webdb::{SearchQuery, Tuple};

use crate::executor::SearchCtx;

/// Cache statistics for experiment E3 (index amortization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseIndexStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that required a crawl.
    pub misses: usize,
    /// Queries spent crawling on misses.
    pub crawl_queries: usize,
}

/// Shared, thread-safe dense-region index.
pub struct DenseIndex {
    store: Mutex<DenseRegionStore>,
    stats: Mutex<DenseIndexStats>,
    crawler_config: CrawlerConfig,
}

impl DenseIndex {
    /// Volatile index.
    pub fn in_memory() -> Self {
        DenseIndex {
            store: Mutex::new(DenseRegionStore::in_memory()),
            stats: Mutex::new(DenseIndexStats::default()),
            crawler_config: CrawlerConfig::default(),
        }
    }

    /// Index persisted at `path` (reopens existing contents).
    pub fn persistent(path: impl AsRef<std::path::Path>) -> qr2_store::Result<Self> {
        Ok(DenseIndex {
            store: Mutex::new(DenseRegionStore::open(path)?),
            stats: Mutex::new(DenseIndexStats::default()),
            crawler_config: CrawlerConfig::default(),
        })
    }

    /// Wrap an existing store (e.g. one that was just boot-verified).
    pub fn from_store(store: DenseRegionStore) -> Self {
        DenseIndex {
            store: Mutex::new(store),
            stats: Mutex::new(DenseIndexStats::default()),
            crawler_config: CrawlerConfig::default(),
        }
    }

    /// Number of cached regions.
    pub fn len(&self) -> usize {
        self.store.lock().len()
    }

    /// True when nothing has been indexed yet.
    pub fn is_empty(&self) -> bool {
        self.store.lock().is_empty()
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> DenseIndexStats {
        *self.stats.lock()
    }

    /// Reset statistics (between experiment phases).
    pub fn reset_stats(&self) {
        *self.stats.lock() = DenseIndexStats::default();
    }

    /// Look up a region (exact key or any cached superset region). Returns
    /// the cached tuples **restricted to `region`** on a hit.
    pub fn lookup(&self, region: &SearchQuery) -> Option<Vec<Tuple>> {
        let store = self.store.lock();
        if let Some(ts) = store.get(region) {
            self.stats.lock().hits += 1;
            return Some(ts.to_vec());
        }
        // Superset scan: a cached region containing `region` can serve it.
        for (cached_q, tuples) in store.regions() {
            if query_contains(cached_q, region) {
                let filtered: Vec<Tuple> = tuples
                    .iter()
                    .filter(|t| region.matches_with(|a| t.value(a)))
                    .cloned()
                    .collect();
                self.stats.lock().hits += 1;
                return Some(filtered);
            }
        }
        None
    }

    /// Serve `region` from the cache, crawling it (through `ctx.db()`) on a
    /// miss. Only a complete crawl is inserted; a crawl cut short (budget,
    /// atomic overflow, a failed probe) returns the tuples it found without
    /// remembering them as the region. Crawl probes are recorded on the
    /// context ledger as sequential rounds. Returns the tuples of `region`.
    pub fn get_or_crawl(&self, ctx: &SearchCtx, region: &SearchQuery) -> Vec<Tuple> {
        if let Some(ts) = self.lookup(region) {
            return ts;
        }
        let start = Instant::now();
        let crawler = Crawler::new(ctx.db(), self.crawler_config.clone());
        let result = crawler.crawl(region);
        ctx.record_external_crawl(
            result.queries,
            result.cache_hits,
            result.coalesced,
            start.elapsed(),
        );
        {
            let mut stats = self.stats.lock();
            stats.misses += 1;
            stats.crawl_queries += result.queries;
        }
        if result.is_complete() {
            let mut store = self.store.lock();
            store
                .insert(region.clone(), result.tuples.clone())
                .expect("dense store insert failed");
        }
        result.tuples
    }

    /// Run the boot-time freshness verification against the database (see
    /// [`DenseRegionStore::verify`]). Stale regions are dropped.
    pub fn verify(
        &self,
        db: &dyn qr2_webdb::TopKInterface,
    ) -> qr2_store::Result<qr2_store::VerifyReport> {
        self.store.lock().verify(&db)
    }
}

/// True when `outer`'s match set provably contains `inner`'s: every
/// predicate of `outer` must be implied by `inner`'s predicate on the same
/// attribute.
fn query_contains(outer: &SearchQuery, inner: &SearchQuery) -> bool {
    use qr2_webdb::Predicate;
    for (attr, op) in outer.predicates() {
        let Some(ip) = inner.predicate(attr) else {
            // inner is unconstrained on an attribute outer constrains.
            return false;
        };
        match (op, ip) {
            (Predicate::Range(o), Predicate::Range(i)) => {
                if i.is_empty() {
                    continue;
                }
                let lo_ok = i.lo > o.lo || (i.lo == o.lo && (o.lo_inc || !i.lo_inc));
                let hi_ok = i.hi < o.hi || (i.hi == o.hi && (o.hi_inc || !i.hi_inc));
                if !(lo_ok && hi_ok) {
                    return false;
                }
            }
            (Predicate::Cats(o), Predicate::Cats(i)) => {
                if !i.codes().iter().all(|c| o.contains(*c)) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorKind;
    use qr2_webdb::{
        RangePred, Schema, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface,
    };

    use std::sync::Arc;

    fn db() -> Arc<SimulatedWebDb> {
        let schema = Schema::builder()
            .numeric("x", 0.0, 10.0)
            .numeric("y", 0.0, 10.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..10 {
            for j in 0..10 {
                tb.push_row(vec![i as f64, j as f64]).unwrap();
            }
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, 7))
    }

    #[test]
    fn miss_then_hit() {
        let d = db();
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let idx = DenseIndex::in_memory();
        let x = d.schema().expect_id("x");
        let region = SearchQuery::all().and_range(x, RangePred::closed(2.0, 4.0));

        let first = idx.get_or_crawl(&ctx, &region);
        assert_eq!(first.len(), 30);
        let s1 = idx.stats();
        assert_eq!((s1.hits, s1.misses), (0, 1));
        assert!(s1.crawl_queries > 0);

        let before = ctx.stats().total_queries();
        let second = idx.get_or_crawl(&ctx, &region);
        assert_eq!(second, first);
        assert_eq!(
            ctx.stats().total_queries(),
            before,
            "hit costs zero queries"
        );
        assert_eq!(idx.stats().hits, 1);
    }

    #[test]
    fn superset_region_serves_subregion() {
        let d = db();
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let idx = DenseIndex::in_memory();
        let x = d.schema().expect_id("x");
        let big = SearchQuery::all().and_range(x, RangePred::closed(0.0, 9.0));
        idx.get_or_crawl(&ctx, &big);

        let small = SearchQuery::all().and_range(x, RangePred::half_open(3.0, 5.0));
        let got = idx.lookup(&small).expect("superset hit");
        assert_eq!(got.len(), 20);
        assert!(got.iter().all(|t| {
            let v = t.num_at(x);
            (3.0..5.0).contains(&v)
        }));
    }

    #[test]
    fn containment_respects_bound_openness() {
        let x = qr2_webdb::AttrId(0);
        let outer = SearchQuery::all().and_range(x, RangePred::half_open(0.0, 5.0));
        let closed_inner = SearchQuery::all().and_range(x, RangePred::closed(0.0, 5.0));
        let open_inner = SearchQuery::all().and_range(x, RangePred::half_open(0.0, 5.0));
        assert!(
            !query_contains(&outer, &closed_inner),
            "hi=5 not covered by [0,5)"
        );
        assert!(query_contains(&outer, &open_inner));
    }

    #[test]
    fn containment_requires_inner_constraint() {
        let x = qr2_webdb::AttrId(0);
        let outer = SearchQuery::all().and_range(x, RangePred::closed(0.0, 5.0));
        assert!(!query_contains(&outer, &SearchQuery::all()));
        assert!(query_contains(&SearchQuery::all(), &outer));
    }

    #[test]
    fn verify_passthrough_drops_stale() {
        let d = db();
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let idx = DenseIndex::in_memory();
        let x = d.schema().expect_id("x");
        let region = SearchQuery::all().and_range(x, RangePred::closed(0.0, 1.0));
        idx.get_or_crawl(&ctx, &region);
        assert_eq!(idx.len(), 1);

        // Same schema, different contents → stale.
        let schema = d.schema().clone();
        let mut tb = TableBuilder::new(schema.clone());
        tb.push_row(vec![0.5, 0.5]).unwrap();
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        let changed = SimulatedWebDb::new(tb.build(), ranking, 7);
        let report = idx.verify(&changed).unwrap();
        assert_eq!(report.dropped, 1);
        assert!(idx.is_empty());
    }
}
