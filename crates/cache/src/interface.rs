//! [`CachedInterface`]: the caching decorator over any [`TopKInterface`].

use std::sync::Arc;

use qr2_webdb::{
    page_or_empty, Answer, QueryLedger, Schema, SearchError, SearchQuery, TopKInterface,
    TopKResponse,
};

use crate::cache::AnswerCache;
use crate::key::cache_key;

/// Wraps a web database interface with the shared answer cache.
///
/// Because it *is* a [`TopKInterface`], every engine (1D stream, frontier,
/// MD baseline, TA) benefits with zero algorithm changes: hand the wrapped
/// interface to the reranker instead of the raw one. Lookups are keyed by
/// the canonical form of the query ([`crate::canonicalize`]); misses
/// execute the **original** query, so wire traffic is byte-identical to
/// the uncached interface.
///
/// [`TopKInterface::ledger`] still reports the *inner* ledger — cache hits
/// never touch it — so ledger totals remain the true web-DB query cost,
/// which is exactly what single-flight and warm-path tests assert against.
pub struct CachedInterface {
    inner: Arc<dyn TopKInterface>,
    cache: Arc<AnswerCache>,
    /// Pre-resolved `cache.lookup` stage timer: lookups are the hottest
    /// instrumentation site in the pipeline (every engine probe lands
    /// here), so the histogram handle is resolved once at construction.
    lookup_stage: qr2_obs::Stage,
}

impl CachedInterface {
    /// Wrap `inner` with `cache`.
    pub fn new(inner: Arc<dyn TopKInterface>, cache: Arc<AnswerCache>) -> CachedInterface {
        CachedInterface {
            inner,
            cache,
            lookup_stage: qr2_obs::Stage::new("cache.lookup"),
        }
    }

    /// The shared cache (stats, flush).
    pub fn cache(&self) -> &Arc<AnswerCache> {
        &self.cache
    }

    /// The wrapped raw interface. Boot-time verification must use this —
    /// freshness checks served from the cache would always look fresh.
    pub fn inner(&self) -> &Arc<dyn TopKInterface> {
        &self.inner
    }
}

impl TopKInterface for CachedInterface {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn system_k(&self) -> usize {
        self.inner.system_k()
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        page_or_empty(self.probe(q))
    }

    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }

    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        let key = cache_key(self.inner.schema(), q);
        // A failed fetch (a remote outage, a cancelled session) reaches
        // the caller as the error and is never admitted; a coalesced
        // waiter fetches again rather than inherit a cancellation. A successful
        // fetch keeps its own outcome: when the inner interface is a
        // scheduler whose frontier coalescing served it for free, the
        // miss is *not* charged as a paid query upstream.
        self.lookup_stage
            .time(|| self.cache.get_or_fetch(&key, || self.inner.probe(q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use qr2_webdb::{RangePred, Schema, SimulatedWebDb, SystemRanking, TableBuilder};

    fn db() -> Arc<SimulatedWebDb> {
        let schema = Schema::builder().numeric("x", 0.0, 100.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..50 {
            tb.push_row(vec![i as f64 * 2.0]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, 5))
    }

    fn cached(db: Arc<SimulatedWebDb>) -> CachedInterface {
        CachedInterface::new(db, Arc::new(AnswerCache::new(CacheConfig::default())))
    }

    #[test]
    fn repeated_query_costs_one_ledger_unit() {
        let raw = db();
        let c = cached(raw.clone());
        let q = SearchQuery::all();
        let first = c.search(&q);
        let second = c.search(&q);
        assert_eq!(first, second);
        assert_eq!(raw.ledger().total(), 1, "second call must be free");
        let stats = c.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn results_identical_to_uncached() {
        let raw = db();
        let c = cached(raw.clone());
        let x = raw.schema().expect_id("x");
        let qs = [
            SearchQuery::all(),
            SearchQuery::all().and_range(x, RangePred::closed(10.0, 40.0)),
            SearchQuery::all().and_range(x, RangePred::half_open(0.0, 50.0)),
        ];
        for q in &qs {
            assert_eq!(c.search(q), raw.search(q), "{q}");
            // And again from cache.
            assert_eq!(c.search(q), raw.search(q), "{q}");
        }
    }

    #[test]
    fn semantically_identical_queries_collide() {
        let raw = db();
        let c = cached(raw.clone());
        let x = raw.schema().expect_id("x");
        let before = raw.ledger().total();
        c.search(&SearchQuery::all().and_range(x, RangePred::closed(0.0, 100.0)));
        c.search(&SearchQuery::all().and_range(x, RangePred::closed(-5.0, 200.0)));
        c.search(&SearchQuery::all());
        assert_eq!(
            raw.ledger().total() - before,
            1,
            "all three are the same canonical question"
        );
    }

    #[test]
    fn schema_and_k_delegate() {
        let raw = db();
        let c = cached(raw.clone());
        assert_eq!(c.system_k(), raw.system_k());
        assert!(c.schema().same_structure(raw.schema()));
    }
}
