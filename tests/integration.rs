//! Workspace-level integration tests: the full pipeline from synthetic
//! inventories through the reranking engines, warm restarts through the
//! persistent answer store, and boot-time verification of a persisted
//! reconstruction.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use qr2::cache::{AnswerCache, CacheConfig};
use qr2::core::{
    Algorithm, ExecutorKind, LinearFunction, Normalizer, OneDimFunction, RerankRequest, Reranker,
    SortDir,
};
use qr2::crawler::{Crawler, CrawlerConfig};
use qr2::datagen::{bluenile_db, bluenile_table, DiamondsConfig};
use qr2::recon::{JobOptions, ReconIndex};
use qr2::service::{Qr2App, Source, SourceRegistry};
use qr2::store::AnswerStore;
use qr2::webdb::{
    RangePred, SearchQuery, SimulatedWebDb, SystemRanking, TopKInterface, Tuple, TupleId,
};

fn diamonds(n: usize, seed: u64) -> Arc<SimulatedWebDb> {
    Arc::new(bluenile_db(&DiamondsConfig {
        n,
        seed,
        ..DiamondsConfig::default()
    }))
}

/// Oracle: ground-truth ordering under a linear function.
fn oracle(db: &SimulatedWebDb, f: &LinearFunction, filter: &SearchQuery) -> Vec<TupleId> {
    let norm = Normalizer::from_domains(db.schema());
    let t = db.ground_truth();
    let mut rows = t.matching_rows(filter);
    rows.sort_by(|&a, &b| {
        f.score(&t.tuple(a), &norm)
            .total_cmp(&f.score(&t.tuple(b), &norm))
            .then(a.cmp(&b))
    });
    rows.into_iter().map(|r| TupleId(r as u32)).collect()
}

#[test]
fn all_algorithms_agree_on_realistic_diamonds() {
    let db = diamonds(1500, 42);
    let schema = db.schema().clone();
    let filter =
        SearchQuery::all().and_range(schema.expect_id("carat"), RangePred::closed(0.4, 3.0));
    let f = LinearFunction::from_names(&schema, &[("price", 1.0), ("carat", -0.4)]).unwrap();
    let want = oracle(&db, &f, &filter);

    for algorithm in [
        Algorithm::MdBaseline,
        Algorithm::MdBinary,
        Algorithm::MdRerank,
        Algorithm::MdTa,
    ] {
        let reranker = Reranker::builder(db.clone())
            .executor(ExecutorKind::Sequential)
            .build();
        let got: Vec<TupleId> = reranker
            .query(RerankRequest {
                filter: filter.clone(),
                function: f.clone().into(),
                algorithm,
            })
            .next_page(12)
            .expect("the simulator never fails")
            .iter()
            .map(|t| t.id)
            .collect();
        assert_eq!(
            got,
            want[..12].to_vec(),
            "{} disagrees with the oracle",
            algorithm.paper_name()
        );
    }
}

#[test]
fn one_d_streams_agree_with_oracle_on_tied_attribute() {
    let db = diamonds(1200, 7);
    let schema = db.schema().clone();
    let lw = schema.expect_id("lw_ratio");
    // The paper's worst case: order by the attribute with 20% exact ties.
    let f = LinearFunction::new(vec![(lw, 1.0)]).unwrap();
    let want = oracle(&db, &f, &SearchQuery::all());
    for algorithm in [
        Algorithm::OneDBaseline,
        Algorithm::OneDBinary,
        Algorithm::OneDRerank,
    ] {
        let reranker = Reranker::builder(db.clone())
            .executor(ExecutorKind::Sequential)
            .build();
        let got: Vec<TupleId> = reranker
            .query(RerankRequest {
                filter: SearchQuery::all(),
                function: OneDimFunction::asc(lw).into(),
                algorithm,
            })
            .next_page(50)
            .expect("the simulator never fails")
            .iter()
            .map(|t| t.id)
            .collect();
        assert_eq!(got, want[..50].to_vec(), "{}", algorithm.paper_name());
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qr2-integration-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One "boot" of a diamonds source whose answers and reconstruction
/// persist under `dir`.
fn persistent_source(db: &Arc<SimulatedWebDb>, dir: &Path) -> Source {
    let cache = AnswerCache::with_store(
        CacheConfig::default(),
        AnswerStore::open(dir.join("answers.log")).unwrap(),
    );
    Source::builder(
        "diamonds",
        "diamonds",
        Arc::clone(db) as Arc<dyn TopKInterface>,
    )
    .executor(ExecutorKind::Sequential)
    .cache(Arc::new(cache))
    .recon(Arc::new(ReconIndex::open(dir.join("recon.log")).unwrap()))
    .build()
}

/// Boot `source` as the service does, and return it from the registry.
fn boot(source: Source) -> Arc<Source> {
    let mut registry = SourceRegistry::new();
    registry.register(source);
    let app = Qr2App::new(registry);
    app.verify_caches();
    app.state().registry.get("diamonds").unwrap()
}

fn tie_session(source: &Source, depth: usize) -> Vec<Tuple> {
    let lw = source.schema().expect_id("lw_ratio");
    source
        .reranker
        .query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(lw).into(),
            algorithm: Algorithm::OneDRerank,
        })
        .next_page(depth)
        .expect("the simulator never fails")
}

#[test]
fn warm_boot_beats_cold_boot_through_the_answer_store() {
    let dir = temp_dir("warm");
    let db = diamonds(1000, 9);

    // "First boot": a tie-heavy workload crawls the tie group, and every
    // answer it paid for is written through to the answer store.
    let cold_queries = {
        let source = boot(persistent_source(&db, &dir));
        tie_session(&source, 300);
        assert!(
            !source.reranker.dense_index().is_empty(),
            "tie workload must crawl a dense region"
        );
        db.ledger().total()
    };

    // "Second boot": a brand-new source over the unchanged database
    // warm-starts from the store and pays less for the same session.
    let source = boot(persistent_source(&db, &dir));
    assert!(
        source.cache.stats().entries > 0,
        "answers reloaded from disk"
    );
    assert!(
        source.reranker.dense_index().is_empty(),
        "regions do not persist"
    );
    tie_session(&source, 300);
    let warm_queries = db.ledger().total() - cold_queries;
    assert!(
        warm_queries < cold_queries,
        "warm boot ({warm_queries}) must beat cold boot ({cold_queries})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn boot_verification_drops_cache_when_inventory_changes() {
    let dir = temp_dir("stale");
    let db_v1 = diamonds(800, 1);
    let crawl = JobOptions {
        max_queries: usize::MAX,
        ..JobOptions::default()
    };

    // First boot: reconstruct the whole inventory through the source's
    // stack, which also persists every answer it paid for.
    {
        let source = boot(persistent_source(&db_v1, &dir));
        let job = source
            .recon
            .run_job(&*source.probe, &crawl, source.cache.epoch())
            .unwrap();
        assert_eq!(job.state, "complete");
        tie_session(&source, 100);
    }

    // A restart over the unchanged inventory keeps both.
    {
        let source = boot(persistent_source(&db_v1, &dir));
        assert!(source.cache.stats().entries > 0);
        let status = source.recon.status(source.schema(), source.cache.epoch());
        assert_eq!((status.state, status.stale), ("complete", false));
    }

    // The site's inventory changes overnight (new seed). Before the boot
    // check, the persisted answers and coverage are still there.
    let db_v2 = diamonds(800, 2);
    let source = persistent_source(&db_v2, &dir);
    assert!(source.cache.stats().entries > 0);
    assert_eq!(source.recon.coverage(source.schema()), 1.0);
    let epoch = source.cache.epoch();

    let source = boot(source);
    assert_eq!(
        source.cache.stats().entries,
        0,
        "changed inventory must drop the persisted answers"
    );
    assert!(source.cache.epoch() > epoch, "and advance the answer epoch");
    let status = source.recon.status(source.schema(), source.cache.epoch());
    assert_eq!(status.state, "empty", "and drop the reconstruction");
    assert_eq!(status.coverage, 0.0);
    assert!(!source
        .recon
        .covered(&SearchQuery::all(), source.cache.epoch()));

    // What the source now serves comes from the new inventory.
    let lw = db_v2.schema().expect_id("lw_ratio");
    let want = oracle(
        &db_v2,
        &LinearFunction::new(vec![(lw, 1.0)]).unwrap(),
        &SearchQuery::all(),
    );
    let got: Vec<TupleId> = tie_session(&source, 100).iter().map(|t| t.id).collect();
    assert_eq!(got, want[..100].to_vec());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_sessions_share_one_reranker() {
    let db = diamonds(1200, 3);
    let reranker = Arc::new(
        Reranker::builder(db.clone())
            .executor(ExecutorKind::Parallel { fanout: 4 })
            .build(),
    );
    let schema = reranker.schema().clone();
    let price = schema.expect_id("price");

    let mut handles = Vec::new();
    for i in 0..6 {
        let reranker = Arc::clone(&reranker);
        handles.push(std::thread::spawn(move || {
            let dir = if i % 2 == 0 {
                SortDir::Asc
            } else {
                SortDir::Desc
            };
            let mut session = reranker.query(RerankRequest {
                filter: SearchQuery::all(),
                function: qr2::core::OneDimFunction { attr: price, dir }.into(),
                algorithm: Algorithm::OneDRerank,
            });
            let page = session.next_page(8).expect("the simulator never fails");
            assert_eq!(page.len(), 8);
            // Each page is sorted in the requested direction.
            for w in page.windows(2) {
                let (a, b) = (w[0].num_at(price), w[1].num_at(price));
                match dir {
                    SortDir::Asc => assert!(a <= b),
                    SortDir::Desc => assert!(a >= b),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("session thread must not panic");
    }
}

#[test]
fn min_max_discovery_matches_ground_truth() {
    let db = diamonds(900, 5);
    let schema = db.schema().clone();
    let carat = schema.expect_id("carat");
    let truth_min = {
        let t = db.ground_truth();
        (0..t.len())
            .map(|r| t.num(r, carat))
            .fold(f64::MAX, f64::min)
    };
    let truth_max = {
        let t = db.ground_truth();
        (0..t.len())
            .map(|r| t.num(r, carat))
            .fold(f64::MIN, f64::max)
    };
    let (min, _) = qr2::core::discover_extremum(&*db, carat, SortDir::Asc).unwrap();
    let (max, _) = qr2::core::discover_extremum(&*db, carat, SortDir::Desc).unwrap();
    assert_eq!(min, truth_min);
    assert_eq!(max, truth_max);
}

#[test]
fn crawler_enumerates_entire_diamond_inventory() {
    // Cross-crate: the crawler retrieves every tuple of a realistic table
    // through the top-k interface alone.
    let table = bluenile_table(&DiamondsConfig {
        n: 600,
        seed: 13,
        ..DiamondsConfig::default()
    });
    let ranking = SystemRanking::opaque(99);
    let db = SimulatedWebDb::new(table, ranking, 25);
    let result = Crawler::new(&db, CrawlerConfig::default()).crawl(&SearchQuery::all());
    assert!(result.is_complete());
    assert_eq!(result.tuples.len(), 600);
}
