//! Budgeted, resumable execution: timeslice a reranking session by query
//! budget instead of blocking on an unbounded `next()`.
//!
//! ```sh
//! cargo run --release --example budgeted_stream
//! ```
//!
//! A third party pays for every query it issues to the hidden web
//! database, so QR2's execution primitive is `advance(Budget)`: run until
//! the budget is spent, report what it bought, resume later exactly where
//! it stopped. A scheduler can interleave many sessions this way — none
//! of them can monopolize the query pipe.

use std::sync::Arc;

use qr2::core::{Algorithm, Budget, OneDimFunction, RerankRequest, Reranker, StepOutcome};
use qr2::datagen::{bluenile_db, DiamondsConfig};
use qr2::webdb::SearchQuery;

fn main() {
    let db = Arc::new(bluenile_db(&DiamondsConfig {
        n: 3_000,
        ..DiamondsConfig::default()
    }));
    let reranker = Reranker::builder(db.clone()).build();
    let schema = reranker.schema().clone();
    let price = schema.expect_id("price");

    // Most expensive first: anti-correlated with Blue Nile's own ranking,
    // so discoveries genuinely cost queries.
    let mut session = reranker.query(RerankRequest {
        filter: SearchQuery::all(),
        function: OneDimFunction::desc(price).into(),
        algorithm: Algorithm::OneDRerank,
    });

    println!("top-25 by price desc, 4 queries of budget per step:\n");
    let mut collected = 0usize;
    let mut step_no = 0usize;
    while collected < 25 {
        step_no += 1;
        let step = session.advance(Budget::queries(4).with_tuples(25 - collected));
        let bought = step.tuples().len();
        collected += bought;
        println!(
            "step {step_no:>2}: {:>16}  +{bought} tuples for {} queries \
             (total: {} tuples / {} queries)",
            step.label(),
            step.stats_delta().total_queries(),
            collected,
            session.stats().total_queries(),
        );
        match step {
            StepOutcome::Done { .. } | StepOutcome::Cancelled { .. } => break,
            // A failed probe loses nothing: the session keeps the tuples
            // the step found and the region it failed on, so a later step
            // resumes there. A scheduler would back off first; the
            // simulated source never fails, so this never runs here.
            StepOutcome::Failed { error, .. } => println!("         source failed: {error:?}"),
            // BudgetExhausted: a scheduler would requeue the session here
            // and advance someone else's; we just loop.
            _ => {}
        }
    }
    println!(
        "\nserved {} tuples for {} web-DB queries; the same run unsliced \
         costs exactly the same (see tests/cost_regression.rs)",
        session.served(),
        session.stats().total_queries()
    );
}
