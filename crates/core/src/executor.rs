//! Query execution: the single funnel between the algorithms and the web
//! database, with sequential or parallel batch submission and per-round
//! statistics.
//!
//! Parallelism is the QR2 paper's answer to per-query network latency
//! (§II-B "Parallel processing"): verification queries covering the areas
//! where a better tuple could hide are independent, so they are submitted
//! together. Note the paper's caveat — parallelism can *increase* the total
//! number of queries (a batch is built before its first response arrives).
//! The MD frontier engine keeps that extra small by splitting ahead only
//! cells dense with tuples it has already seen; the ablation benches
//! quantify what is left.
//!
//! Every lookup of a session goes through this context, crawls included.
//! [`SearchCtx::search`] and [`SearchCtx::crawl`] share one accounting
//! rule: each probe is recorded with its own elapsed time, a paid probe
//! as a round of one query, a cache hit as a hit, and a coalesced probe
//! as a coalesced wait. A crawl therefore adds one sequential round per
//! paid probe.
//!
//! A failed probe is an error, never a page: `search`, `search_batch` and
//! `crawl` return the probe's [`SearchError`] (the first failure of a
//! batch, in input order), and the engines pass it up with `?`, leaving
//! the failed region pending so a later step retries it. A failed probe
//! counts as no lookup at all; only its elapsed time is recorded.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use qr2_crawler::{CrawlResult, Crawler, CrawlerConfig};
use qr2_webdb::{Answer, SearchError, SearchQuery, TopKInterface, TopKResponse};

use crate::budget::{current, with_session};
use crate::stats::QueryStats;

/// How batches are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// One query at a time, in order.
    Sequential,
    /// Up to `fanout` queries of a batch run concurrently on worker threads.
    Parallel {
        /// Maximum concurrent in-flight queries.
        fanout: usize,
    },
}

impl ExecutorKind {
    /// The effective concurrency bound.
    pub fn fanout(&self) -> usize {
        match self {
            ExecutorKind::Sequential => 1,
            ExecutorKind::Parallel { fanout } => (*fanout).max(1),
        }
    }
}

/// A cheap point-in-time view of the counters behind a [`SearchCtx`],
/// produced by [`SearchCtx::snapshot`] and consumed by
/// [`SearchCtx::delta_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Rounds recorded so far.
    pub rounds: usize,
    /// Real web-DB queries recorded so far.
    pub queries: usize,
    /// Cumulative search time.
    pub search_time: std::time::Duration,
    /// Cache hits recorded so far.
    pub cache_hits: usize,
    /// Coalesced waits recorded so far.
    pub coalesced_waits: usize,
}

/// One lookup's result, as [`TopKInterface::probe`] returns it.
type Probed = Result<Answer, SearchError>;

/// Classify a stream of per-lookup results into `(misses, hits,
/// coalesced)`. A failed lookup is none of the three.
fn tally<'a>(results: impl Iterator<Item = &'a Probed>) -> (usize, usize, usize) {
    let (mut misses, mut hits, mut coalesced) = (0, 0, 0);
    for Answer { outcome: o, .. } in results.flatten() {
        if o.cache_hit {
            hits += 1;
        } else if o.coalesced {
            coalesced += 1;
        } else {
            misses += 1;
        }
    }
    (misses, hits, coalesced)
}

/// Execution context handed to every algorithm: database handle, executor
/// configuration, and the round ledger. Cloning shares the ledger, so a
/// session and its inner streams account into the same statistics.
#[derive(Clone)]
pub struct SearchCtx {
    db: Arc<dyn TopKInterface>,
    kind: ExecutorKind,
    stats: Arc<Mutex<QueryStats>>,
}

impl SearchCtx {
    /// New context over `db`.
    pub fn new(db: Arc<dyn TopKInterface>, kind: ExecutorKind) -> Self {
        SearchCtx {
            db,
            kind,
            stats: Arc::new(Mutex::new(QueryStats::default())),
        }
    }

    /// The database schema.
    pub fn schema(&self) -> &qr2_webdb::Schema {
        self.db.schema()
    }

    /// The interface page size.
    pub fn system_k(&self) -> usize {
        self.db.system_k()
    }

    /// Executor configuration.
    pub fn kind(&self) -> ExecutorKind {
        self.kind
    }

    /// Execute a single query as its own (sequential) round. A lookup the
    /// caching interface serves for free counts as a cache hit, not a
    /// query; a failed lookup is the probe's error.
    pub fn search(&self, q: &SearchQuery) -> Result<TopKResponse, SearchError> {
        self.probe_one(q).map(|answer| answer.resp)
    }

    /// Crawl every tuple of `region` (see [`Crawler`]). Each probe is
    /// accounted exactly as [`SearchCtx::search`] accounts its query: a
    /// paid probe is a round of one, a free one a hit or a coalesced
    /// wait, each with its own elapsed time. `root` is the answer to
    /// `region` itself when the caller has just searched it: the crawl
    /// splits it by its page instead of probing it again. A crawl cut
    /// short by a failed probe is that probe's error, not a partial
    /// result.
    pub fn crawl(
        &self,
        region: &SearchQuery,
        root: Option<TopKResponse>,
    ) -> Result<CrawlResult, SearchError> {
        let mut failure = None;
        let result =
            Crawler::new(&*self.db, CrawlerConfig::default()).crawl_with(region, root, |q| {
                self.probe_one(q).inspect_err(|e| failure = Some(e.clone()))
            });
        failure.map_or(Ok(result), Err)
    }

    /// Probe `q` as one sequential lookup and record it on the ledger.
    fn probe_one(&self, q: &SearchQuery) -> Probed {
        let start = Instant::now();
        let probed = self.db.probe(q);
        let (misses, hits, coalesced) = tally(std::iter::once(&probed));
        self.stats
            .lock()
            .record_lookups(misses, hits, coalesced, start.elapsed());
        probed
    }

    /// Execute a batch as one round. Responses are returned in input order.
    /// With a parallel executor, up to `fanout` queries run concurrently.
    /// Only the batch's cache misses — the queries the web database really
    /// saw — count toward the round's query total. When any lookup fails,
    /// the batch is the first failure in input order; the answered
    /// lookups are still accounted.
    pub fn search_batch(&self, qs: &[SearchQuery]) -> Result<Vec<TopKResponse>, SearchError> {
        if qs.is_empty() {
            return Ok(Vec::new());
        }
        let start = Instant::now();
        let probed: Vec<Probed> = match self.kind {
            ExecutorKind::Sequential => qs.iter().map(|q| self.db.probe(q)).collect(),
            ExecutorKind::Parallel { fanout } => {
                let fanout = fanout.max(1).min(qs.len());
                if fanout == 1 || qs.len() == 1 {
                    qs.iter().map(|q| self.db.probe(q)).collect()
                } else {
                    self.parallel_batch(qs, fanout)
                }
            }
        };
        let (misses, hits, coalesced) = tally(probed.iter());
        self.stats
            .lock()
            .record_lookups(misses, hits, coalesced, start.elapsed());
        probed
            .into_iter()
            .map(|p| p.map(|answer| answer.resp))
            .collect()
    }

    fn parallel_batch(&self, qs: &[SearchQuery], fanout: usize) -> Vec<Probed> {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Probed>>> = (0..qs.len()).map(|_| Mutex::new(None)).collect();
        let db = &self.db;
        // Worker threads have no ambient context of their own: re-install
        // the submitting session (its key, class and cancel token) and
        // re-enter its request's trace (when it is being traced), so a
        // parallel round's probes are scheduled, cancelled and traced as
        // the session's own.
        let session = current();
        let trace = qr2_obs::current_handle();
        // A worker's panic is re-raised here when the scope joins it.
        std::thread::scope(|scope| {
            for _ in 0..fanout {
                scope.spawn(|| {
                    let work = || loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= qs.len() {
                            break;
                        }
                        let probed = db.probe(&qs[i]);
                        *slots[i].lock() = Some(probed);
                    };
                    with_session(session.clone(), || match &trace {
                        Some(t) => t.enter(work),
                        None => work(),
                    })
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every slot filled"))
            .collect()
    }

    /// Snapshot of the statistics so far.
    pub fn stats(&self) -> QueryStats {
        self.stats.lock().clone()
    }

    /// Cheap counters snapshot without cloning the per-round ledger.
    /// Hot-loop companion to [`SearchCtx::stats`]; pass it back to
    /// [`SearchCtx::delta_since`] for the incremental stats.
    pub fn snapshot(&self) -> StatsSnapshot {
        let s = self.stats.lock();
        StatsSnapshot {
            rounds: s.num_rounds(),
            queries: s.total_queries(),
            search_time: s.search_time,
            cache_hits: s.cache_hits,
            coalesced_waits: s.coalesced_waits,
        }
    }

    /// The incremental statistics recorded since a
    /// [`snapshot`](SearchCtx::snapshot): only the new rounds are copied.
    pub fn delta_since(&self, from: &StatsSnapshot) -> QueryStats {
        let s = self.stats.lock();
        QueryStats {
            rounds: s.rounds[from.rounds.min(s.rounds.len())..].to_vec(),
            search_time: s.search_time.saturating_sub(from.search_time),
            cache_hits: s.cache_hits.saturating_sub(from.cache_hits),
            coalesced_waits: s.coalesced_waits.saturating_sub(from.coalesced_waits),
            // Recon hits are recorded by the serving tier, never by the
            // engine's search context.
            recon_hits: 0,
        }
    }

    /// Reset the ledger (between experiment phases).
    pub fn reset_stats(&self) {
        *self.stats.lock() = QueryStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::{RangePred, Schema, SimulatedWebDb, SystemRanking, TableBuilder};
    use std::time::Duration;

    fn db() -> Arc<SimulatedWebDb> {
        let schema = Schema::builder().numeric("x", 0.0, 100.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..100 {
            tb.push_row(vec![i as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, 10))
    }

    fn probes(n: usize, schema: &Schema) -> Vec<SearchQuery> {
        let x = schema.expect_id("x");
        (0..n)
            .map(|i| {
                SearchQuery::all().and_range(
                    x,
                    RangePred::half_open(i as f64 * 10.0, (i + 1) as f64 * 10.0),
                )
            })
            .collect()
    }

    #[test]
    fn sequential_batch_preserves_order_and_counts() {
        let d = db();
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let qs = probes(5, d.schema());
        let rs = ctx.search_batch(&qs).unwrap();
        assert_eq!(rs.len(), 5);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.tuples.len(), 10, "bucket {i} has 10 tuples");
            assert!(r
                .tuples
                .iter()
                .all(|t| (t.num(0) / 10.0).floor() as usize == i));
        }
        let stats = ctx.stats();
        assert_eq!(stats.rounds, vec![5]);
        assert_eq!(stats.total_queries(), 5);
    }

    #[test]
    fn parallel_batch_matches_sequential_results() {
        let d = db();
        let seq = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let par = SearchCtx::new(d.clone(), ExecutorKind::Parallel { fanout: 4 });
        let qs = probes(8, d.schema());
        let a = seq.search_batch(&qs).unwrap();
        let b = par.search_batch(&qs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_batch_is_concurrent() {
        let schema = Schema::builder().numeric("x", 0.0, 100.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..100 {
            tb.push_row(vec![i as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        let d = Arc::new(SimulatedWebDb::new(tb.build(), ranking, 10).with_latency(
            Duration::from_millis(25),
            Duration::ZERO,
            1,
        ));
        let ctx = SearchCtx::new(d, ExecutorKind::Parallel { fanout: 8 });
        let qs = probes(8, &schema);
        let start = Instant::now();
        ctx.search_batch(&qs).unwrap();
        let elapsed = start.elapsed();
        // Sequentially this is >= 200ms; with fanout 8 it should be ~25ms.
        assert!(
            elapsed < Duration::from_millis(150),
            "batch took {elapsed:?}, not parallel"
        );
    }

    #[test]
    fn single_query_rounds() {
        let d = db();
        let ctx = SearchCtx::new(d, ExecutorKind::Parallel { fanout: 4 });
        ctx.search(&SearchQuery::all()).unwrap();
        ctx.search(&SearchQuery::all()).unwrap();
        let stats = ctx.stats();
        assert_eq!(stats.rounds, vec![1, 1]);
        assert_eq!(stats.parallel_rounds(), 0);
    }

    #[test]
    fn empty_batch_records_nothing() {
        let d = db();
        let ctx = SearchCtx::new(d, ExecutorKind::Sequential);
        let rs = ctx.search_batch(&[]).unwrap();
        assert!(rs.is_empty());
        assert_eq!(ctx.stats().num_rounds(), 0);
    }

    /// A minimal caching decorator: answers repeated queries from memory
    /// and reports them as cache hits (stand-in for `qr2-cache`, which
    /// lives upstream of this crate).
    struct MemoCachingDb {
        inner: Arc<SimulatedWebDb>,
        memo: Mutex<std::collections::HashMap<SearchQuery, qr2_webdb::TopKResponse>>,
    }

    impl qr2_webdb::TopKInterface for MemoCachingDb {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn system_k(&self) -> usize {
            self.inner.system_k()
        }
        fn search(&self, _q: &SearchQuery) -> qr2_webdb::TopKResponse {
            unreachable!("SearchCtx only probes")
        }
        fn ledger(&self) -> &qr2_webdb::QueryLedger {
            self.inner.ledger()
        }
        fn probe(&self, q: &SearchQuery) -> Probed {
            if let Some(resp) = self.memo.lock().get(q) {
                return Ok(Answer {
                    resp: resp.clone(),
                    outcome: qr2_webdb::SearchOutcome::CACHE_HIT,
                });
            }
            let resp = self.inner.search(q);
            self.memo.lock().insert(q.clone(), resp.clone());
            Ok(Answer::paid(resp))
        }
    }

    #[test]
    fn cached_lookups_count_as_hits_not_queries() {
        let inner = db();
        let cached = Arc::new(MemoCachingDb {
            inner,
            memo: Mutex::new(std::collections::HashMap::new()),
        });
        let ctx = SearchCtx::new(cached, ExecutorKind::Sequential);
        let q = SearchQuery::all();
        let a = ctx.search(&q).unwrap();
        let snap = ctx.snapshot();
        let b = ctx.search(&q).unwrap(); // hit
        let c = ctx.search_batch(&[q.clone(), q.clone()]).unwrap(); // two hits
        assert_eq!(a, b);
        assert_eq!(c, vec![a.clone(), a]);
        let stats = ctx.stats();
        assert_eq!(stats.rounds, vec![1], "hits never open a round");
        assert_eq!(stats.total_queries(), 1);
        assert_eq!(stats.cache_hits, 3);
        assert!((stats.cache_hit_fraction() - 0.75).abs() < 1e-12);
        let delta = ctx.delta_since(&snap);
        assert_eq!(delta.total_queries(), 0);
        assert_eq!(delta.cache_hits, 3);
    }

    #[test]
    fn mixed_batch_counts_only_misses_in_the_round() {
        let inner = db();
        let cached = Arc::new(MemoCachingDb {
            inner,
            memo: Mutex::new(std::collections::HashMap::new()),
        });
        let ctx = SearchCtx::new(cached, ExecutorKind::Sequential);
        let qs = probes(3, ctx.schema());
        ctx.search(&qs[0]).unwrap(); // warm one probe
        ctx.search_batch(&qs).unwrap(); // 1 hit + 2 misses
        let stats = ctx.stats();
        assert_eq!(stats.rounds, vec![1, 2]);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn crawl_probes_are_accounted_like_searches() {
        let cached = Arc::new(MemoCachingDb {
            inner: db(),
            memo: Mutex::new(std::collections::HashMap::new()),
        });
        // A parallel executor still crawls one probe at a time.
        let ctx = SearchCtx::new(cached, ExecutorKind::Parallel { fanout: 4 });
        // Warm the crawl's root region, so the first crawl mixes paid
        // probes with a hit.
        ctx.search(&SearchQuery::all()).unwrap();
        let before = ctx.snapshot();
        let cold = ctx.crawl(&SearchQuery::all(), None).unwrap();
        assert!(cold.is_complete());
        assert_eq!(cold.tuples.len(), 100);
        assert!(cold.queries > 1);
        assert_eq!(cold.cache_hits, 1);
        let delta = ctx.delta_since(&before);
        assert_eq!(
            delta.rounds,
            vec![1; cold.queries],
            "each paid crawl probe is its own round of one"
        );
        assert_eq!((delta.cache_hits, delta.coalesced_waits), (1, 0));
        assert!(delta.search_time > Duration::ZERO);

        // The same crawl again: every probe is a hit, no round, no query,
        // but the time it took is still reported.
        let before = ctx.snapshot();
        let warm = ctx.crawl(&SearchQuery::all(), None).unwrap();
        assert_eq!(warm.tuples, cold.tuples);
        assert_eq!(warm.queries, 0);
        let delta = ctx.delta_since(&before);
        assert!(delta.rounds.is_empty(), "hits never open a round");
        assert_eq!(delta.total_queries(), 0);
        assert_eq!(delta.cache_hits, cold.queries + cold.cache_hits);
        assert!(
            delta.search_time > Duration::ZERO,
            "a fully cached crawl's wall time must not vanish"
        );
    }

    #[test]
    fn failed_crawl_probe_is_the_crawls_error_and_no_lookup() {
        let ctx = SearchCtx::new(Arc::new(FailingDb(db())), ExecutorKind::Sequential);
        assert_eq!(
            ctx.crawl(&SearchQuery::all(), None).unwrap_err(),
            SearchError::Cancelled
        );
        let stats = ctx.stats();
        assert_eq!(stats.num_rounds(), 0, "a failed probe is not a query");
        assert_eq!(stats.free_lookups(), 0, "nor a hit or a coalesced wait");
    }

    /// A decorator that records a stage span per lookup, standing in for
    /// the instrumented interfaces (`qr2-cache`, `qr2-webdb`) that live
    /// upstream of this crate.
    struct SpanningDb(Arc<SimulatedWebDb>);

    impl qr2_webdb::TopKInterface for SpanningDb {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }
        fn system_k(&self) -> usize {
            self.0.system_k()
        }
        fn search(&self, _q: &SearchQuery) -> qr2_webdb::TopKResponse {
            unreachable!("SearchCtx only probes")
        }
        fn ledger(&self) -> &qr2_webdb::QueryLedger {
            self.0.ledger()
        }
        fn probe(&self, q: &SearchQuery) -> Probed {
            qr2_obs::span("test.executor", || self.0.probe(q))
        }
    }

    #[test]
    fn parallel_batch_records_spans_into_the_submitting_trace() {
        let d = db();
        let ctx = SearchCtx::new(
            Arc::new(SpanningDb(d.clone())),
            ExecutorKind::Parallel { fanout: 4 },
        );
        let qs = probes(8, d.schema());
        let id = format!("exec-par-{}", std::process::id());
        qr2_obs::with_trace(&id, "test", || {
            ctx.search_batch(&qs).unwrap();
        });
        let trace = qr2_obs::find_trace(&id).expect("finished trace is in the recent ring");
        let spans = trace
            .spans
            .iter()
            .filter(|s| s.name == "test.executor")
            .count();
        assert_eq!(
            spans, 8,
            "every worker-thread lookup must land in the request trace"
        );
    }

    /// A decorator that records the ambient session context of every
    /// probe, standing in for the scheduler upstream of this crate.
    struct SessionSpy {
        inner: Arc<SimulatedWebDb>,
        seen: Mutex<Vec<crate::SessionCtx>>,
    }

    impl qr2_webdb::TopKInterface for SessionSpy {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn system_k(&self) -> usize {
            self.inner.system_k()
        }
        fn search(&self, _q: &SearchQuery) -> qr2_webdb::TopKResponse {
            unreachable!("SearchCtx only probes")
        }
        fn ledger(&self) -> &qr2_webdb::QueryLedger {
            self.inner.ledger()
        }
        fn probe(&self, q: &SearchQuery) -> Probed {
            self.seen.lock().push(current());
            self.inner.probe(q)
        }
    }

    #[test]
    fn parallel_batch_probes_carry_the_submitting_session() {
        use crate::{next_session_key, CancelToken, QueryClass, SessionCtx};
        let d = db();
        let spy = Arc::new(SessionSpy {
            inner: d.clone(),
            seen: Mutex::new(Vec::new()),
        });
        let ctx = SearchCtx::new(spy.clone(), ExecutorKind::Parallel { fanout: 4 });
        let token = CancelToken::new();
        let key = next_session_key();
        let session = SessionCtx::new(key, QueryClass::Background, token.clone());
        with_session(session, || {
            ctx.search(&SearchQuery::all()).unwrap();
            ctx.search_batch(&probes(8, d.schema())).unwrap();
        });
        token.cancel();
        let seen = spy.seen.lock();
        assert_eq!(seen.len(), 9, "one search and an eight-probe batch");
        for (i, probe) in seen.iter().enumerate() {
            assert_eq!(probe.key, key, "probe {i} ran under the caller's key");
            assert_eq!(probe.class, QueryClass::Background, "probe {i}");
            assert!(
                probe.cancel.is_cancelled(),
                "probe {i} holds the caller's cancel token"
            );
        }
    }

    /// A source whose every probe fails, standing in for a cancelled or
    /// failed probe from the scheduler upstream of this crate.
    struct FailingDb(Arc<SimulatedWebDb>);

    impl qr2_webdb::TopKInterface for FailingDb {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }
        fn system_k(&self) -> usize {
            self.0.system_k()
        }
        fn search(&self, _q: &SearchQuery) -> qr2_webdb::TopKResponse {
            unreachable!("SearchCtx only probes")
        }
        fn ledger(&self) -> &qr2_webdb::QueryLedger {
            self.0.ledger()
        }
        fn probe(&self, _q: &SearchQuery) -> Probed {
            Err(SearchError::Cancelled)
        }
    }

    #[test]
    fn failed_lookups_are_errors_not_pages() {
        let d = db();
        let ctx = SearchCtx::new(
            Arc::new(FailingDb(d.clone())),
            ExecutorKind::Parallel { fanout: 4 },
        );
        assert_eq!(ctx.search(&SearchQuery::all()), Err(SearchError::Cancelled));
        assert_eq!(
            ctx.search_batch(&probes(3, d.schema())),
            Err(SearchError::Cancelled)
        );
        let stats = ctx.stats();
        assert_eq!(stats.total_queries(), 0, "a failed lookup is not a query");
        assert_eq!(stats.free_lookups(), 0);
    }

    #[test]
    fn clones_share_the_ledger() {
        let d = db();
        let ctx = SearchCtx::new(d, ExecutorKind::Sequential);
        let clone = ctx.clone();
        clone.search(&SearchQuery::all()).unwrap();
        assert_eq!(ctx.stats().total_queries(), 1);
    }

    #[test]
    fn reset_clears() {
        let d = db();
        let ctx = SearchCtx::new(d, ExecutorKind::Sequential);
        ctx.search(&SearchQuery::all()).unwrap();
        ctx.reset_stats();
        assert_eq!(ctx.stats().num_rounds(), 0);
    }
}
