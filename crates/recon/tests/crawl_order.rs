//! One split rule, one probe sequence: `Crawler::crawl`, one uncapped
//! reconstruction job and the same job run as budget-capped jobs that
//! resume from disk all probe the identical sequence of regions.

use std::sync::Arc;

use parking_lot::Mutex;
use qr2_crawler::{CrawlOutcome, Crawler, CrawlerConfig};
use qr2_datagen::{bluenile_db, DiamondsConfig};
use qr2_recon::{JobOptions, ReconIndex};
use qr2_webdb::{
    QueryLedger, Schema, SearchQuery, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface,
    TopKResponse,
};

/// Records every region probed through it.
struct Spy {
    inner: Arc<SimulatedWebDb>,
    probed: Mutex<Vec<SearchQuery>>,
}

impl Spy {
    fn new(inner: &Arc<SimulatedWebDb>) -> Spy {
        Spy {
            inner: Arc::clone(inner),
            probed: Mutex::new(Vec::new()),
        }
    }

    fn probed(&self) -> Vec<SearchQuery> {
        self.probed.lock().clone()
    }
}

impl TopKInterface for Spy {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn system_k(&self) -> usize {
        self.inner.system_k()
    }
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        self.probed.lock().push(q.clone());
        self.inner.search(q)
    }
    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }
}

/// 300 tuples on a 16×16 lattice of a continuous 2D domain, placed by a
/// seeded xorshift: lattice points repeat, and the point held by more than
/// `system_k` tuples is an atomic hole.
fn seeded_grid() -> SimulatedWebDb {
    let schema = Schema::builder()
        .numeric("x", 0.0, 16.0)
        .numeric("y", 0.0, 16.0)
        .build();
    let mut tb = TableBuilder::new(schema.clone());
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 16) as f64
    };
    for _ in 0..300 {
        let (x, y) = (next(), next());
        tb.push_row(vec![x, y]).unwrap();
    }
    for _ in 0..8 {
        tb.push_row(vec![3.0, 5.0]).unwrap();
    }
    let ranking = SystemRanking::linear(&schema, &[("x", 1.0), ("y", 0.5)]).unwrap();
    SimulatedWebDb::new(tb.build(), ranking, 5)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "qr2-recon-crawl-order-{}-{name}.log",
        std::process::id()
    ));
    p
}

/// The probe sequences of the three crawls of `db`'s whole query space.
fn assert_one_probe_sequence(db: SimulatedWebDb, name: &str) {
    let db = Arc::new(db);

    let spy = Spy::new(&db);
    let crawled = Crawler::new(&spy, CrawlerConfig::default()).crawl(&SearchQuery::all());
    let by_crawler = spy.probed();

    let spy = Spy::new(&db);
    let idx = ReconIndex::ephemeral();
    let report = idx.run_job(&spy, &JobOptions::default(), 0).unwrap();
    assert_eq!(report.state, "complete");
    assert_eq!(by_crawler, spy.probed(), "{name}: one uncapped job");
    assert_eq!(report.tuples_added, crawled.tuples.len());

    let spy = Spy::new(&db);
    let path = temp_path(name);
    let capped = JobOptions {
        max_queries: 7,
        checkpoint_every: 3,
        ..JobOptions::default()
    };
    let mut jobs = 0;
    loop {
        let idx = ReconIndex::open(&path).unwrap();
        jobs += 1;
        if idx.run_job(&spy, &capped, 0).unwrap().state == "complete" {
            break;
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(jobs > 2, "{name}: the capped crawl resumed");
    assert_eq!(by_crawler, spy.probed(), "{name}: capped jobs that resume");
}

#[test]
fn crawler_and_recon_jobs_probe_one_sequence_on_a_seeded_grid() {
    let db = seeded_grid();
    let atomic = Crawler::new(&db, CrawlerConfig::default())
        .crawl(&SearchQuery::all())
        .outcome;
    assert_eq!(atomic, CrawlOutcome::AtomicOverflow);
    assert_one_probe_sequence(db, "grid");
}

#[test]
fn crawler_and_recon_jobs_probe_one_sequence_on_bluenile() {
    let db = bluenile_db(&DiamondsConfig {
        n: 1_000,
        ..DiamondsConfig::default()
    });
    assert_one_probe_sequence(db, "bluenile");
}
