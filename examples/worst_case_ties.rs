//! The paper's worst case (§III-B): ranking Blue Nile by
//! `LengthWidthRatio`, where about 20 % of the inventory shares the exact
//! value 1.00. A query pinned to `lw_ratio = 1.00` matches far more tuples
//! than `system-k`, so it can never underflow — to serve results past that
//! value the service must first **crawl every tied tuple** (the paper's
//! general-positioning fix, §II-B). The on-the-fly dense-region index makes
//! this cost *amortized*: the first session pays for the crawl, every later
//! session reads it back for free — until the source is flushed
//! (`Source::flush`), which clears the index so the next session crawls
//! the group again.
//!
//! ```sh
//! cargo run --release --example worst_case_ties
//! ```

use std::sync::Arc;

use qr2::core::{Algorithm, ExecutorKind, OneDimFunction, RerankRequest, Reranker};
use qr2::datagen::{bluenile_db, DiamondsConfig};
use qr2::webdb::{SearchQuery, TopKInterface};

fn main() {
    let db = Arc::new(bluenile_db(&DiamondsConfig {
        n: 4_000,
        lw_tie_fraction: 0.20,
        ..DiamondsConfig::default()
    }));
    let schema = db.schema().clone();
    let lw = schema.expect_id("lw_ratio");
    let ties = {
        let t = db.ground_truth();
        (0..t.len()).filter(|&r| t.num(r, lw) == 1.00).count()
    };
    println!(
        "Blue Nile (simulated): 4,000 diamonds, {ties} ({:.0}%) share lw_ratio = 1.00",
        100.0 * ties as f64 / 4_000.0
    );
    println!("system-k = 30 ⇒ the query lw_ratio=1.00 can never underflow\n");

    // ORDER BY lw_ratio ASC. Serving past the 1.00 group requires
    // enumerating all of it.
    let deep = ties + 60; // enough get-nexts to cross the tied group

    // Session 1: cold index. The tie group is crawled on first contact.
    let reranker = Reranker::builder(db.clone())
        .executor(ExecutorKind::Parallel { fanout: 8 })
        .build();
    let run = |label: &str| {
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(lw).into(),
            algorithm: Algorithm::OneDRerank,
        });
        let served = session
            .next_page(deep)
            .expect("the simulator never fails")
            .len();
        let stats = session.stats();
        println!(
            "{label}: served {served} tuples for {} queries",
            stats.total_queries()
        );
        stats.total_queries()
    };

    let cold = run("session 1 (cold index)");
    let idx = reranker.dense_index().stats();
    println!(
        "  → dense index now holds {} region(s); {} queries were crawl work",
        reranker.dense_index().len(),
        idx.crawl_queries
    );

    // Session 2: same service instance, shared index — the paper's
    // "low amortized cost in these cases".
    let warm = run("session 2 (warm index)");
    println!(
        "  → amortization: {:.0}% of the cold cost\n",
        100.0 * warm as f64 / cold.max(1) as f64
    );

    // A flush (the operator's "the site changed") forgets the crawled
    // group: the next session pays for it again.
    reranker.dense_index().clear();
    let flushed = run("session 3 (after a flush)");
    assert!(flushed > warm, "a cleared index must crawl again");
    println!();

    // Contrast: 1D-BINARY has no index; every session pays the crawl.
    let reranker_binary = Reranker::builder(db.clone())
        .executor(ExecutorKind::Parallel { fanout: 8 })
        .build();
    let mut binary_cost = 0;
    for sess in 1..=2 {
        let mut session = reranker_binary.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(lw).into(),
            algorithm: Algorithm::OneDBinary,
        });
        session.next_page(deep).expect("the simulator never fails");
        binary_cost = session.stats().total_queries();
        println!(
            "1D-BINARY session {sess}: {binary_cost} queries (no index, full price every time)"
        );
    }
    assert!(warm < binary_cost, "warm RERANK must beat BINARY here");
}
