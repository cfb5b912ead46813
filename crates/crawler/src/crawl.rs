//! The recursive crawler itself.

use std::collections::HashMap;

use qr2_webdb::{Answer, SearchError, SearchQuery, TopKInterface, TopKResponse, Tuple, TupleId};

use crate::frontier::{Absorbed, Frontier};
use crate::splitter::SplitPolicy;

/// Configuration for a crawl.
#[derive(Debug, Clone)]
pub struct CrawlerConfig {
    /// Hard cap on queries issued by one crawl (safety valve; the paper's
    /// algorithms always budget their probes).
    pub max_queries: usize,
    /// Where overflowing regions are cut (ablation hook).
    pub policy: SplitPolicy,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            max_queries: 100_000,
            policy: SplitPolicy::PageCut,
        }
    }
}

/// Why a crawl stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlOutcome {
    /// Every tuple in the region was retrieved.
    Complete,
    /// The query budget ran out first.
    BudgetExhausted,
    /// Some subregion was atomic (unsplittable) yet still overflowed: the
    /// hidden database contains more than `system-k` tuples that are
    /// *identical on every searchable attribute*, so the interface can never
    /// reveal them all. The visible `system-k` of each such region are
    /// included in the result.
    AtomicOverflow,
    /// A probe failed (a source fault, or the crawl's session was
    /// cancelled): the failed region and any still queued behind it were
    /// never retrieved, so the result is only part of the region.
    Interrupted,
}

/// Result of a crawl.
#[derive(Debug, Clone)]
pub struct CrawlResult {
    /// Retrieved tuples, deduplicated, sorted by [`TupleId`] for
    /// determinism.
    pub tuples: Vec<Tuple>,
    /// Queries this crawl actually spent against the web database. Probes
    /// served by a caching interface for free (see
    /// [`qr2_webdb::SearchOutcome`]) are counted separately below; a
    /// failed probe counts nowhere.
    pub queries: usize,
    /// Probes answered from a shared answer cache (free).
    pub cache_hits: usize,
    /// Probes coalesced onto another caller's identical in-flight query
    /// (free for this crawl).
    pub coalesced: usize,
    /// Number of leaf (non-overflowing) regions.
    pub leaves: usize,
    /// Deepest recursion reached.
    pub max_depth: usize,
    /// Completion status.
    pub outcome: CrawlOutcome,
}

impl CrawlResult {
    /// True when every tuple of the region is known to have been retrieved.
    pub fn is_complete(&self) -> bool {
        self.outcome == CrawlOutcome::Complete
    }
}

/// Reusable crawler bound to a database.
pub struct Crawler<'a, D: TopKInterface + ?Sized> {
    db: &'a D,
    config: CrawlerConfig,
}

impl<'a, D: TopKInterface + ?Sized> Crawler<'a, D> {
    /// New crawler with the given configuration.
    pub fn new(db: &'a D, config: CrawlerConfig) -> Self {
        Crawler { db, config }
    }

    /// Retrieve every tuple matching `region`, probing through the
    /// crawler's database.
    pub fn crawl(&self, region: &SearchQuery) -> CrawlResult {
        self.crawl_with(region, None, |q| self.db.probe(q))
    }

    /// Retrieve every tuple matching `region`, issuing each probe through
    /// `probe` (for callers that account for probes themselves). `root`
    /// is the answer to `region` itself when the caller already holds it
    /// (it just probed the region and saw it overflow): the crawl then
    /// splits it without probing it again, and it counts nowhere.
    ///
    /// Depth-first walk of a [`Frontier`]: its split halves partition
    /// their parent exactly, so `Complete` results are exhaustive.
    pub fn crawl_with(
        &self,
        region: &SearchQuery,
        mut root: Option<TopKResponse>,
        mut probe: impl FnMut(&SearchQuery) -> Result<Answer, SearchError>,
    ) -> CrawlResult {
        let mut frontier = Frontier::new(
            self.db.schema(),
            self.config.policy,
            [region.clone()],
            Vec::new(),
        );
        let mut found: HashMap<TupleId, Tuple> = HashMap::new();
        let mut queries = 0usize;
        let mut cache_hits = 0usize;
        let mut coalesced = 0usize;
        let mut leaves = 0usize;
        let mut max_depth = 0usize;
        let mut outcome = CrawlOutcome::Complete;

        while let Some((q, depth)) = frontier.pop() {
            // The first region popped is `region`, answered by `root`.
            let resp = match root.take() {
                Some(resp) => resp,
                None => {
                    // The budget caps real web-DB spend; cached probes are
                    // free.
                    if queries >= self.config.max_queries {
                        outcome = CrawlOutcome::BudgetExhausted;
                        break;
                    }
                    let Ok(Answer {
                        resp,
                        outcome: served,
                    }) = probe(&q)
                    else {
                        outcome = CrawlOutcome::Interrupted;
                        break;
                    };
                    if served.cache_hit {
                        cache_hits += 1;
                    } else if served.coalesced {
                        coalesced += 1;
                    } else {
                        queries += 1;
                    }
                    resp
                }
            };
            max_depth = max_depth.max(depth);
            for t in resp.tuples.iter() {
                found.entry(t.id).or_insert_with(|| t.clone());
            }
            match frontier.absorb(q, depth, &resp) {
                Absorbed::Split => {}
                Absorbed::Leaf => leaves += 1,
                Absorbed::Atomic => {
                    // Remember, keep crawling the rest.
                    outcome = CrawlOutcome::AtomicOverflow;
                    leaves += 1;
                }
            }
        }

        let mut tuples: Vec<Tuple> = found.into_values().collect();
        tuples.sort_by_key(|t| t.id);
        CrawlResult {
            tuples,
            queries,
            cache_hits,
            coalesced,
            leaves,
            max_depth,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::{RangePred, Schema, SimulatedWebDb, SystemRanking, TableBuilder};

    fn crawl<D: TopKInterface + ?Sized>(db: &D, region: &SearchQuery) -> CrawlResult {
        Crawler::new(db, CrawlerConfig::default()).crawl(region)
    }

    /// 64 tuples on a 8x8 grid, hidden rank = x descending.
    fn grid_db(system_k: usize) -> SimulatedWebDb {
        let schema = Schema::builder()
            .numeric("x", 0.0, 8.0)
            .numeric("y", 0.0, 8.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..8 {
            for j in 0..8 {
                tb.push_row(vec![i as f64, j as f64]).unwrap();
            }
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        SimulatedWebDb::new(tb.build(), ranking, system_k)
    }

    #[test]
    fn crawl_retrieves_everything() {
        let db = grid_db(5);
        let res = crawl(&db, &SearchQuery::all());
        assert!(res.is_complete());
        assert_eq!(res.tuples.len(), 64);
        // Tuples are sorted and unique.
        for w in res.tuples.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn crawl_subregion_only() {
        let db = grid_db(5);
        let x = db.schema().expect_id("x");
        let q = SearchQuery::all().and_range(x, RangePred::closed(2.0, 3.0));
        let res = crawl(&db, &q);
        assert!(res.is_complete());
        assert_eq!(res.tuples.len(), 16);
        assert!(res.tuples.iter().all(|t| {
            let v = t.num_at(x);
            (2.0..=3.0).contains(&v)
        }));
    }

    #[test]
    fn crawl_no_overflow_uses_single_query() {
        let db = grid_db(100);
        let res = crawl(&db, &SearchQuery::all());
        assert_eq!(res.queries, 1);
        assert_eq!(res.leaves, 1);
        assert_eq!(res.tuples.len(), 64);
    }

    #[test]
    fn point_region_crawl_enumerates_ties() {
        // 40 tuples share x = 1.0; system-k = 6; y separates them.
        let schema = Schema::builder()
            .numeric("x", 0.0, 2.0)
            .numeric("y", 0.0, 100.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for j in 0..40 {
            tb.push_row(vec![1.0, j as f64]).unwrap();
        }
        for j in 0..10 {
            tb.push_row(vec![0.5, j as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("y", 1.0)]).unwrap();
        let db = SimulatedWebDb::new(tb.build(), ranking, 6);
        let x = db.schema().expect_id("x");
        let res = crawl(&db, &SearchQuery::all().and_point(x, 1.0));
        assert!(res.is_complete());
        assert_eq!(res.tuples.len(), 40);
        assert!(res.tuples.iter().all(|t| t.num_at(x) == 1.0));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let db = grid_db(2);
        let res = Crawler::new(
            &db,
            CrawlerConfig {
                max_queries: 3,
                policy: SplitPolicy::PageCut,
            },
        )
        .crawl(&SearchQuery::all());
        assert_eq!(res.outcome, CrawlOutcome::BudgetExhausted);
        assert_eq!(res.queries, 3);
        assert!(res.tuples.len() < 64);
    }

    #[test]
    fn failed_probe_interrupts_the_crawl() {
        use qr2_webdb::{FaultInjectingInterface, FaultScript};
        // Every probe from the fourth on hits an outage.
        let db = FaultInjectingInterface::new(
            std::sync::Arc::new(grid_db(2)),
            FaultScript::healthy().with_outage(3, u64::MAX),
        );
        let res = crawl(&db, &SearchQuery::all());
        assert_eq!(res.outcome, CrawlOutcome::Interrupted);
        assert!(!res.is_complete());
        assert_eq!(res.queries, 3, "the failed probe is not counted as spent");
        assert!(res.tuples.len() < 64);
    }

    #[test]
    fn atomic_overflow_detected() {
        // More identical tuples than system-k on a single-attribute schema:
        // the interface can never separate them.
        let schema = Schema::builder().numeric("x", 0.0, 1.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for _ in 0..10 {
            tb.push_row(vec![0.5]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        let db = SimulatedWebDb::new(tb.build(), ranking, 3);
        let res = crawl(&db, &SearchQuery::all());
        assert_eq!(res.outcome, CrawlOutcome::AtomicOverflow);
        // The visible system-k tuples are still returned.
        assert_eq!(res.tuples.len(), 3);
    }

    #[test]
    fn categorical_regions_crawl_completely() {
        let schema = Schema::builder()
            .numeric("x", 0.0, 1.0)
            .categorical("c", ["a", "b", "c", "d", "e"])
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..50 {
            tb.push_values(vec![
                qr2_webdb::Value::Num(0.5), // all ties on x
                qr2_webdb::Value::Cat(i % 5),
            ])
            .unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        let db = SimulatedWebDb::new(tb.build(), ranking, 8);
        let res = crawl(&db, &SearchQuery::all());
        // 10 tuples per label > 8 = system-k ⇒ per-label atomic overflow.
        assert_eq!(res.outcome, CrawlOutcome::AtomicOverflow);
        assert!(res.tuples.len() >= 5 * 8);
    }

    #[test]
    fn midpoint_policy_also_completes() {
        let db = grid_db(5);
        let res = Crawler::new(
            &db,
            CrawlerConfig {
                max_queries: 10_000,
                policy: SplitPolicy::Midpoint,
            },
        )
        .crawl(&SearchQuery::all());
        assert!(res.is_complete());
        assert_eq!(res.tuples.len(), 64);
    }

    #[test]
    fn crawl_empty_region() {
        let db = grid_db(5);
        let x = db.schema().expect_id("x");
        let q = SearchQuery::all().and_range(x, RangePred::open(8.0, 9.0));
        let res = crawl(&db, &q);
        assert!(res.is_complete());
        assert!(res.tuples.is_empty());
        assert_eq!(res.queries, 1);
    }

    /// Counts the probes it answers and the empty ones among them.
    struct Counting {
        inner: SimulatedWebDb,
        probes: std::sync::atomic::AtomicUsize,
        empty: std::sync::atomic::AtomicUsize,
    }

    impl TopKInterface for Counting {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn system_k(&self) -> usize {
            self.inner.system_k()
        }
        fn search(&self, q: &SearchQuery) -> qr2_webdb::TopKResponse {
            use std::sync::atomic::Ordering::Relaxed;
            let resp = self.inner.search(q);
            self.probes.fetch_add(1, Relaxed);
            if resp.tuples.is_empty() {
                self.empty.fetch_add(1, Relaxed);
            }
            resp
        }
        fn ledger(&self) -> &qr2_webdb::QueryLedger {
            self.inner.ledger()
        }
    }

    #[test]
    fn domains_wider_than_the_data_cost_no_empty_probe() {
        // 200 tuples with distinct values in [0, 100) on both attributes
        // of a [0, 10^6] domain. Cutting at the domains' midpoints peels
        // off about 13 empty halves per attribute before it reaches the
        // data: 99 probes, 26 of them empty. Cutting between page values
        // leaves at least k/2 page tuples in every child, so at most
        // 2n/(k/2) - 1 = 79 probes (59 here).
        let schema = Schema::builder()
            .numeric("x", 0.0, 1e6)
            .numeric("y", 0.0, 1e6)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..200 {
            tb.push_row(vec![
                ((i * 37) % 200) as f64 / 2.0,
                ((i * 53) % 200) as f64 / 2.0,
            ])
            .unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0), ("y", -0.5)]).unwrap();
        let db = Counting {
            inner: SimulatedWebDb::new(tb.build(), ranking, 10),
            probes: Default::default(),
            empty: Default::default(),
        };
        let res = crawl(&db, &SearchQuery::all());
        assert!(res.is_complete());
        assert_eq!(res.tuples.len(), 200);
        assert_eq!(db.empty.into_inner(), 0, "an empty probe");
        assert!(res.queries <= 79, "{} probes", res.queries);
        assert_eq!(res.queries, db.probes.into_inner());
    }

    #[test]
    fn a_held_root_page_is_not_probed_again() {
        let db = grid_db(5);
        let all = SearchQuery::all();
        let root = db.search(&all);
        let mut probed = Vec::new();
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl_with(&all, Some(root), |q| {
            probed.push(q.clone());
            db.probe(q)
        });
        assert!(res.is_complete());
        assert_eq!(res.tuples.len(), 64);
        assert!(!probed.contains(&all), "the root was probed again");
        assert_eq!(res.queries, probed.len());
        assert_eq!(res.queries + 1, crawl(&db, &all).queries);
    }
}
