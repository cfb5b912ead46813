//! The paper's Blue Nile scenario: high-dimensional reranking with
//! different weight-sign combinations, comparing all MD algorithms, and
//! demonstrating parallel get-next (the workload behind Fig. 2).
//!
//! ```sh
//! cargo run --release --example bluenile_diamonds
//! ```

use std::sync::Arc;

use qr2::core::{Algorithm, ExecutorKind, LinearFunction, RerankRequest, Reranker};
use qr2::datagen::{bluenile_db, DiamondsConfig};
use qr2::webdb::{RangePred, SearchQuery, TopKInterface};

fn main() {
    let db = Arc::new(bluenile_db(&DiamondsConfig {
        n: 8_000,
        ..DiamondsConfig::default()
    }));
    let schema = db.schema().clone();
    println!("Blue Nile (simulated): {} diamonds\n", 8_000);

    // Filter: 0.5–3 carat, price cap — a realistic shopper query.
    let filter = SearchQuery::all()
        .and_range(schema.expect_id("carat"), RangePred::closed(0.5, 3.0))
        .and_range(
            schema.expect_id("price"),
            RangePred::closed(500.0, 50_000.0),
        );

    // The 3D ranking function from the paper's Fig. 3(b):
    // price − 0.1·carat − 0.5·depth.
    let f3 =
        LinearFunction::from_names(&schema, &[("price", 1.0), ("carat", -0.1), ("depth", -0.5)])
            .unwrap();

    println!("=== 3D function: price − 0.1·carat − 0.5·depth ===");
    println!(
        "{:<12} {:>9} {:>8} {:>10} {:>10}",
        "algorithm", "queries", "rounds", "par.rounds", "par.frac"
    );
    for algorithm in [
        Algorithm::MdBaseline,
        Algorithm::MdBinary,
        Algorithm::MdRerank,
        Algorithm::MdTa,
    ] {
        // Fresh reranker per algorithm so costs are not cross-subsidized
        // by a warm dense index.
        let reranker = Reranker::builder(db.clone())
            .executor(ExecutorKind::Parallel { fanout: 8 })
            .build();
        let mut session = reranker.query(RerankRequest {
            filter: filter.clone(),
            function: f3.clone().into(),
            algorithm,
        });
        let top = session.next_page(10).expect("the simulator never fails");
        let stats = session.stats();
        println!(
            "{:<12} {:>9} {:>8} {:>10} {:>9.1}%",
            algorithm.paper_name(),
            stats.total_queries(),
            stats.num_rounds(),
            stats.parallel_rounds(),
            100.0 * stats.parallel_fraction(),
        );
        assert_eq!(top.len(), 10);
    }

    // Weight-sign combinations (the §III-B "MD" scenario): positive
    // weights agree with the hidden price-ascending ranking, negative
    // carat weight opposes it.
    println!("\n=== weight-sign sweep (MD-RERANK, top-5 each) ===");
    println!("{:<36} {:>9}", "function", "queries");
    for (label, weights) in [
        (
            "price + 0.3·carat (both positive)",
            vec![("price", 1.0), ("carat", 0.3)],
        ),
        (
            "price − 0.3·carat (mixed signs)",
            vec![("price", 1.0), ("carat", -0.3)],
        ),
        (
            "−price − carat (both negative)",
            vec![("price", -1.0), ("carat", -1.0)],
        ),
    ] {
        let f = LinearFunction::from_names(&schema, &weights).unwrap();
        let reranker = Reranker::builder(db.clone())
            .executor(ExecutorKind::Parallel { fanout: 8 })
            .build();
        let mut session = reranker.query(RerankRequest {
            filter: filter.clone(),
            function: f.into(),
            algorithm: Algorithm::MdRerank,
        });
        session.next_page(5).expect("the simulator never fails");
        println!("{:<36} {:>9}", label, session.stats().total_queries());
    }

    // Incremental get-next: pages get cheaper as the session cache and
    // frontier warm up.
    println!("\n=== get-next pagination (MD-RERANK, page = 5) ===");
    let reranker = Reranker::builder(db.clone())
        .executor(ExecutorKind::Parallel { fanout: 8 })
        .build();
    let mut session = reranker.query(RerankRequest {
        filter,
        function: f3.into(),
        algorithm: Algorithm::MdRerank,
    });
    let mut last_total = 0;
    for page in 1..=5 {
        session.next_page(5).expect("the simulator never fails");
        let total = session.stats().total_queries();
        println!(
            "page {page}: +{} queries (cumulative {total})",
            total - last_total
        );
        last_total = total;
    }
}
