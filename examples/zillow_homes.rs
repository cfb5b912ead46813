//! The paper's Zillow scenario: reranking a large real-estate inventory,
//! including the best-case function `price + squarefeet` (positively
//! correlated attributes → fast) and the Fig. 4 statistics panel for
//! `price − 0.3·sqft`.
//!
//! ```sh
//! cargo run --release --example zillow_homes
//! ```

use std::sync::Arc;
use std::time::Duration;

use qr2::core::{Algorithm, ExecutorKind, LinearFunction, OneDimFunction, RerankRequest, Reranker};
use qr2::datagen::{zillow_table, HomesConfig};
use qr2::webdb::{CatSet, RangePred, SearchQuery, SimulatedWebDb, SystemRanking, TopKInterface};

fn main() {
    // Build the simulated Zillow with per-query latency so the statistics
    // panel reports a realistic processing time (the paper's anecdote:
    // 27 queries, 33 seconds — dominated by the live site's latency).
    let table = zillow_table(&HomesConfig {
        n: 30_000,
        ..HomesConfig::default()
    });
    let ranking = SystemRanking::opaque(0x5EED);
    let db = Arc::new(SimulatedWebDb::new(table, ranking, 40).with_latency(
        Duration::from_millis(40),
        Duration::from_millis(25),
        7,
    ));
    let schema = db.schema().clone();
    println!("Zillow (simulated): 30,000 listings, 40 per page, ~50ms/query\n");

    // Filter: 3+ beds in two zip codes under $600k.
    let filter = SearchQuery::all()
        .and_range(schema.expect_id("beds"), RangePred::closed(3.0, 10.0))
        .and_range(
            schema.expect_id("price"),
            RangePred::closed(50_000.0, 600_000.0),
        )
        .and_cats(schema.expect_id("zip"), CatSet::new([2, 3]));

    let reranker = Reranker::builder(db.clone())
        .executor(ExecutorKind::Parallel { fanout: 8 })
        .build();

    // 1D reranking: cheapest first (like ORDER BY price ASC).
    println!("=== 1D: price ascending (1D-RERANK) ===");
    let mut session = reranker.query(RerankRequest {
        filter: filter.clone(),
        function: OneDimFunction::asc(schema.expect_id("price")).into(),
        algorithm: Algorithm::OneDRerank,
    });
    let price = schema.expect_id("price");
    let sqft = schema.expect_id("sqft");
    let beds = schema.expect_id("beds");
    for t in session.next_page(5).expect("the simulator never fails") {
        println!(
            "  ${:>9.0}  {:>5.0} sqft  {:>2.0} beds",
            t.num_at(price),
            t.num_at(sqft),
            t.num_at(beds)
        );
    }
    let s = session.stats();
    println!(
        "  → {} queries, {:.2}s\n",
        s.total_queries(),
        s.search_time.as_secs_f64()
    );

    // The Fig. 4 anecdote: price − 0.3·sqft ("space for the money").
    println!("=== MD: price − 0.3·sqft (MD-RERANK) — the Fig. 4 panel ===");
    let f = LinearFunction::from_names(&schema, &[("price", 1.0), ("sqft", -0.3)]).unwrap();
    let mut session = reranker.query(RerankRequest {
        filter: filter.clone(),
        function: f.into(),
        algorithm: Algorithm::MdRerank,
    });
    for t in session.next_page(5).expect("the simulator never fails") {
        println!(
            "  ${:>9.0}  {:>5.0} sqft  {:>2.0} beds",
            t.num_at(price),
            t.num_at(sqft),
            t.num_at(beds)
        );
    }
    let s = session.stats();
    println!(
        "  → statistics panel: {} queries to the web database, {:.1}s processing time\n",
        s.total_queries(),
        s.search_time.as_secs_f64()
    );

    // Best case of §III-B: price + sqft — both weights positive and both
    // attributes positively correlated, so the contour collapses fast.
    println!("=== best case: price + sqft (cheap AND small) ===");
    let f = LinearFunction::from_names(&schema, &[("price", 1.0), ("sqft", 1.0)]).unwrap();
    let mut session = reranker.query(RerankRequest {
        filter,
        function: f.into(),
        algorithm: Algorithm::MdRerank,
    });
    session.next_page(5).expect("the simulator never fails");
    let s = session.stats();
    println!(
        "  → {} queries, {:.2}s (positive correlation finishes quickly)",
        s.total_queries(),
        s.search_time.as_secs_f64()
    );
}
