//! Quickstart: rerank a simulated Blue Nile inventory with a ranking
//! function the site itself does not support.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use qr2::core::{Algorithm, LinearFunction, RerankRequest, Reranker};
use qr2::datagen::{bluenile_db, DiamondsConfig};
use qr2::webdb::SearchQuery;

fn main() {
    // A simulated web database: top-k interface, hidden ranking function.
    let db = Arc::new(bluenile_db(&DiamondsConfig {
        n: 5_000,
        ..DiamondsConfig::default()
    }));
    println!(
        "simulated Blue Nile with {} diamonds (system-k = 30)",
        db.len()
    );

    // The third-party reranker. It can only talk to `db` through the
    // public search interface.
    let reranker = Reranker::builder(db.clone()).build();
    let schema = reranker.schema().clone();

    // The user's preference: cheap, but reward size — minimize
    // price − 0.5·carat over min-max normalized attributes. Blue Nile's
    // search form cannot express this.
    let function = LinearFunction::from_names(&schema, &[("price", 1.0), ("carat", -0.5)])
        .expect("valid ranking function");

    let mut session = reranker.query(RerankRequest {
        filter: SearchQuery::all(),
        function: function.into(),
        algorithm: Algorithm::MdRerank,
    });

    println!("\ntop-10 by price − 0.5·carat:");
    println!("{:>4}  {:>10} {:>7} {:>7}", "#", "price", "carat", "depth");
    let price = schema.expect_id("price");
    let carat = schema.expect_id("carat");
    let depth = schema.expect_id("depth");
    for (i, t) in session
        .next_page(10)
        .expect("the simulator never fails")
        .iter()
        .enumerate()
    {
        println!(
            "{:>4}  {:>10.0} {:>7.2} {:>7.1}",
            i + 1,
            t.num_at(price),
            t.num_at(carat),
            t.num_at(depth),
        );
    }

    // The statistics panel of the paper's Fig. 4.
    let stats = session.stats();
    println!(
        "\nstatistics: {} queries to the web database in {} rounds \
         ({:.1}% of queries issued in parallel rounds), search time {:?}",
        stats.total_queries(),
        stats.num_rounds(),
        100.0 * stats.parallel_fraction(),
        stats.search_time,
    );
}
