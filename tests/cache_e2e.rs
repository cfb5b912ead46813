//! Acceptance tests for the shared cross-session answer cache (`qr2-cache`)
//! driven through full reranking sessions:
//!
//! * a repeated identical workload issues **zero** queries to the
//!   underlying web database on the second pass (asserted via
//!   `QueryLedger`);
//! * the second pass returns identical tuples in identical order;
//! * the cache survives a process restart through the persistent
//!   `AnswerStore` (the store is closed and reopened between passes).

use std::path::PathBuf;
use std::sync::Arc;

use qr2::cache::{AnswerCache, CacheConfig, CachedInterface};
use qr2::core::{
    Algorithm, DenseIndex, ExecutorKind, LinearFunction, OneDimFunction, RankingFunction,
    RerankRequest, Reranker,
};
use qr2::datagen::{bluenile_db, DiamondsConfig};
use qr2::store::AnswerStore;
use qr2::webdb::{SearchQuery, SimulatedWebDb, TopKInterface, TupleId};

const DEPTH: usize = 25;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "qr2-cache-e2e-{}-{}-{name}.log",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos()
    ));
    p
}

/// Deterministic diamonds inventory — rebuilt identically per "process".
fn diamonds() -> Arc<SimulatedWebDb> {
    Arc::new(bluenile_db(&DiamondsConfig {
        n: 1200,
        seed: 0xB10E_9115,
        ..DiamondsConfig::default()
    }))
}

fn cases(db: &SimulatedWebDb) -> Vec<(Algorithm, RankingFunction)> {
    let price = db.schema().expect_id("price");
    let md: RankingFunction =
        LinearFunction::from_names(db.schema(), &[("price", 1.0), ("carat", -0.5)])
            .expect("valid md function")
            .into();
    vec![
        (Algorithm::OneDBinary, OneDimFunction::desc(price).into()),
        (Algorithm::OneDRerank, OneDimFunction::desc(price).into()),
        (Algorithm::MdRerank, md.clone()),
        (Algorithm::MdTa, md),
    ]
}

/// Run the full workload through one cached interface with a **fresh**
/// reranker (fresh dense index) per algorithm, so the only cross-pass
/// state is the answer cache itself. Returns served tuple ids per case
/// and the total web-DB spend of the pass.
fn run_pass(cached: &Arc<dyn TopKInterface>, raw: &SimulatedWebDb) -> (Vec<Vec<TupleId>>, u64) {
    let before = raw.ledger().total();
    let mut served = Vec::new();
    for (algorithm, function) in cases(raw) {
        let reranker = Reranker::builder(Arc::clone(cached))
            .executor(ExecutorKind::Sequential)
            .dense_index(Arc::new(DenseIndex::in_memory()))
            .build();
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function,
            algorithm,
        });
        let page = session.next_page(DEPTH).expect("the simulator never fails");
        assert_eq!(page.len(), DEPTH, "{}", algorithm.paper_name());
        served.push(page.into_iter().map(|t| t.id).collect());
    }
    (served, raw.ledger().total() - before)
}

#[test]
fn repeated_workload_is_free_and_identical_and_survives_restart() {
    let path = temp_path("acceptance");

    // -- Pass 1: cold cache, persistent store. ---------------------------
    let (cold_served, cold_cost, cold_hit_fraction) = {
        let raw = diamonds();
        let cache = Arc::new(AnswerCache::with_store(
            CacheConfig {
                shards: 8,
                capacity: 1 << 16,
            },
            AnswerStore::open(&path).expect("open store"),
        ));
        let cached: Arc<dyn TopKInterface> =
            Arc::new(CachedInterface::new(raw.clone(), Arc::clone(&cache)));
        let (served, cost) = run_pass(&cached, &raw);
        assert!(cost > 0, "cold pass pays real queries");
        let stats = cache.stats();
        (served, cost, stats.hit_rate())
    }; // the "process" dies: cache, store handle, db all dropped.

    // -- Pass 2: restart — reopen the store, rebuild the db. -------------
    let raw = diamonds();
    let cache = Arc::new(AnswerCache::with_store(
        CacheConfig {
            shards: 8,
            capacity: 1 << 16,
        },
        AnswerStore::open(&path).expect("reopen store"),
    ));
    assert!(!cache.is_empty(), "warm start restored the answers");
    let cached: Arc<dyn TopKInterface> =
        Arc::new(CachedInterface::new(raw.clone(), Arc::clone(&cache)));
    let (warm_served, warm_cost) = run_pass(&cached, &raw);

    assert_eq!(
        warm_cost, 0,
        "a repeated identical workload must issue zero queries to the web \
         database (the cold pass paid {cold_cost})"
    );
    assert_eq!(
        warm_served, cold_served,
        "identical tuples in identical order across passes and restart"
    );
    assert!(
        cache.stats().hit_rate() > cold_hit_fraction,
        "the warm pass raises the lifetime hit rate"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn session_stats_report_the_warm_pass_as_cache_hits() {
    // Volatile cache, same interface shared by two consecutive sessions.
    let raw = diamonds();
    let cache = Arc::new(AnswerCache::new(CacheConfig {
        shards: 8,
        capacity: 1 << 16,
    }));
    let cached: Arc<dyn TopKInterface> = Arc::new(CachedInterface::new(raw.clone(), cache));
    let price = raw.schema().expect_id("price");

    let run = || {
        let reranker = Reranker::builder(Arc::clone(&cached))
            .executor(ExecutorKind::Sequential)
            .dense_index(Arc::new(DenseIndex::in_memory()))
            .build();
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::desc(price).into(),
            algorithm: Algorithm::OneDBinary,
        });
        let ids: Vec<TupleId> = session
            .next_page(DEPTH)
            .expect("the simulator never fails")
            .into_iter()
            .map(|t| t.id)
            .collect();
        (ids, session.stats())
    };

    let (cold_ids, cold_stats) = run();
    assert!(cold_stats.total_queries() > 0);
    assert_eq!(cold_stats.cache_hits, 0);
    assert_eq!(cold_stats.cache_hit_fraction(), 0.0);

    let (warm_ids, warm_stats) = run();
    assert_eq!(warm_ids, cold_ids);
    assert_eq!(warm_stats.total_queries(), 0, "warm session is free");
    assert_eq!(
        warm_stats.cache_hits,
        cold_stats.total_queries(),
        "every cold query replays as exactly one warm hit"
    );
    assert_eq!(warm_stats.cache_hit_fraction(), 1.0);
}
