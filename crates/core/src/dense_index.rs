//! The on-the-fly dense-region index shared by all sessions.
//!
//! When `1D-RERANK` / `MD-RERANK` meet a region that is dense (many tuples
//! within a tiny interval or cell — including exact ties), they crawl it
//! **once**, store the full contents here, and answer every later query
//! that falls inside a cached region for free. The paper keeps this index
//! in MySQL, shared across users; here it lives in memory next to the
//! reranker, and the source's flush ([`DenseIndex::clear`]) is the one
//! place it forgets what it crawled.
//!
//! Cached regions are *unfiltered*: they are crawled without the user's
//! filter predicates so any session — whatever its filters — can reuse
//! them. Serving filters the cached tuples in memory.

use std::collections::HashMap;

use parking_lot::Mutex;
use qr2_webdb::{SearchError, SearchQuery, TopKResponse, Tuple};

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

/// The cached regions and the generation they belong to. [`DenseIndex::clear`]
/// bumps the generation, so a crawl that started before the clear cannot
/// put its region back afterwards.
#[derive(Default)]
struct Regions {
    generation: u64,
    map: HashMap<SearchQuery, Vec<Tuple>>,
}

impl Regions {
    /// Exact-region lookup, else any cached superset region, restricted to
    /// `region`.
    fn lookup(&self, region: &SearchQuery) -> Option<Vec<Tuple>> {
        if let Some(ts) = self.map.get(region) {
            return Some(ts.clone());
        }
        self.map.iter().find_map(|(cached_q, tuples)| {
            query_contains(cached_q, region).then(|| {
                tuples
                    .iter()
                    .filter(|t| region.matches_with(|a| t.value(a)))
                    .cloned()
                    .collect()
            })
        })
    }
}

/// Shared, thread-safe dense-region index.
pub struct DenseIndex {
    regions: Mutex<Regions>,
    stats: Mutex<DenseIndexStats>,
}

impl DenseIndex {
    /// An empty index.
    pub fn in_memory() -> Self {
        DenseIndex {
            regions: Mutex::new(Regions::default()),
            stats: Mutex::new(DenseIndexStats::default()),
        }
    }

    /// Number of cached regions.
    pub fn len(&self) -> usize {
        self.regions.lock().map.len()
    }

    /// True when nothing has been indexed yet.
    pub fn is_empty(&self) -> bool {
        self.regions.lock().map.is_empty()
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> DenseIndexStats {
        *self.stats.lock()
    }

    /// Forget every cached region and start a new generation: a crawl
    /// still running from before the clear is not remembered when it
    /// finishes.
    pub fn clear(&self) {
        let mut regions = self.regions.lock();
        regions.map.clear();
        regions.generation += 1;
    }

    /// Look up a region (exact key or any cached superset region). Returns
    /// the cached tuples **restricted to `region`** on a hit.
    pub fn lookup(&self, region: &SearchQuery) -> Option<Vec<Tuple>> {
        let hit = self.regions.lock().lookup(region);
        if hit.is_some() {
            self.stats.lock().hits += 1;
        }
        hit
    }

    /// Serve `region` from the cache, crawling it with
    /// [`SearchCtx::crawl`] on a miss. Only a complete crawl is inserted,
    /// and only if no [`DenseIndex::clear`] ran while it crawled; a crawl
    /// cut short by its budget or an atomic overflow returns the tuples it
    /// found without remembering them as the region. Returns the tuples of
    /// `region`, or the error of a failed probe (nothing is remembered, so
    /// a later call crawls the region again). `root` is the caller's
    /// answer to `region` itself, if it holds one (see
    /// [`SearchCtx::crawl`]).
    pub fn get_or_crawl(
        &self,
        ctx: &SearchCtx,
        region: &SearchQuery,
        root: Option<TopKResponse>,
    ) -> Result<Vec<Tuple>, SearchError> {
        let (hit, generation) = {
            let regions = self.regions.lock();
            (regions.lookup(region), regions.generation)
        };
        if let Some(ts) = hit {
            self.stats.lock().hits += 1;
            return Ok(ts);
        }
        let result = ctx.crawl(region, root)?;
        {
            let mut stats = self.stats.lock();
            stats.misses += 1;
            stats.crawl_queries += result.queries;
        }
        if result.is_complete() {
            let mut regions = self.regions.lock();
            if regions.generation == generation {
                regions.map.insert(region.clone(), result.tuples.clone());
            }
        }
        Ok(result.tuples)
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
        QueryLedger, RangePred, Schema, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface,
        TopKResponse,
    };

    use std::sync::atomic::{AtomicBool, Ordering};
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

        let first = idx.get_or_crawl(&ctx, &region, None).unwrap();
        assert_eq!(first.len(), 30);
        let s1 = idx.stats();
        assert_eq!((s1.hits, s1.misses), (0, 1));
        assert!(s1.crawl_queries > 0);

        let before = ctx.stats().total_queries();
        let second = idx.get_or_crawl(&ctx, &region, None).unwrap();
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
        idx.get_or_crawl(&ctx, &big, None).unwrap();

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
    fn clear_forgets_regions_and_a_crawl_spanning_it() {
        let d = db();
        let idx = Arc::new(DenseIndex::in_memory());
        let x = d.schema().expect_id("x");
        let region = SearchQuery::all().and_range(x, RangePred::closed(0.0, 1.0));

        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        idx.get_or_crawl(&ctx, &region, None).unwrap();
        assert_eq!(idx.len(), 1);
        idx.clear();
        assert!(idx.is_empty());

        /// Clears the index on its first probe: the crawl starts before
        /// the clear and finishes after it.
        struct ClearsMidCrawl {
            inner: Arc<SimulatedWebDb>,
            index: Arc<DenseIndex>,
            cleared: AtomicBool,
        }
        impl TopKInterface for ClearsMidCrawl {
            fn schema(&self) -> &Schema {
                self.inner.schema()
            }
            fn system_k(&self) -> usize {
                self.inner.system_k()
            }
            fn search(&self, q: &SearchQuery) -> TopKResponse {
                if !self.cleared.swap(true, Ordering::SeqCst) {
                    self.index.clear();
                }
                self.inner.search(q)
            }
            fn ledger(&self) -> &QueryLedger {
                self.inner.ledger()
            }
        }
        let racing = SearchCtx::new(
            Arc::new(ClearsMidCrawl {
                inner: d.clone(),
                index: Arc::clone(&idx),
                cleared: AtomicBool::new(false),
            }),
            ExecutorKind::Sequential,
        );
        let tuples = idx.get_or_crawl(&racing, &region, None).unwrap();
        assert_eq!(tuples.len(), 20, "the caller still gets the crawl");
        assert!(
            idx.is_empty(),
            "a crawl that spans a clear must not be remembered"
        );
        let misses = idx.stats().misses;
        idx.get_or_crawl(&ctx, &region, None).unwrap();
        assert_eq!(
            idx.stats().misses,
            misses + 1,
            "the region is crawled again"
        );
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn insert_sorts_and_dedups_by_id() {
        let d = db();
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let idx = DenseIndex::in_memory();
        let x = d.schema().expect_id("x");
        let region = SearchQuery::all().and_range(x, RangePred::closed(5.0, 6.0));
        idx.get_or_crawl(&ctx, &region, None).unwrap();
        let cached = idx.lookup(&region).expect("cached");
        assert_eq!(cached.len(), 20);
        assert!(cached.windows(2).all(|w| w[0].id < w[1].id));
    }
}
