//! Smoke scenario `BENCH_pr3.json`: per-algorithm get-next cost and
//! latency on the fixed-seed diamonds workload.
//!
//! Each of the seven algorithms serves [`SMOKE_DEPTH`] tuples from a cold
//! dense index. The query cost (queries, rounds) is deterministic given
//! the seed, so the `--smoke` runner drift-checks it against the
//! committed file: a change is a regression or a win. Wall-clock get-next
//! latency is measured and machine-dependent, a trend to watch.

use std::time::Instant;

use qr2_core::{
    Algorithm, ExecutorKind, LinearFunction, OneDimFunction, RankingFunction, RerankRequest,
};
use qr2_http::Json;
use qr2_webdb::{SearchQuery, TopKInterface};

use crate::report::{round, Report};
use crate::workloads::{bluenile, cold_reranker, Scale};

/// How many tuples each smoke run serves.
pub const SMOKE_DEPTH: usize = 10;

/// `"1d"` or `"md"`: the algorithm's family in smoke reports.
pub fn family(algorithm: Algorithm) -> &'static str {
    if algorithm.is_one_dimensional() {
        "1d"
    } else {
        "md"
    }
}

/// The seven-algorithm smoke case set over a schema with `price`/`carat`
/// (shared with the cold-vs-warm cache smoke so both benches measure the
/// same workload).
pub fn smoke_cases(schema: &qr2_webdb::Schema) -> Vec<(Algorithm, RankingFunction)> {
    let price = schema.expect_id("price");
    let md: RankingFunction =
        LinearFunction::from_names(schema, &[("price", 1.0), ("carat", -0.5)])
            .expect("valid md function")
            .into();
    vec![
        (Algorithm::OneDBaseline, OneDimFunction::desc(price).into()),
        (Algorithm::OneDBinary, OneDimFunction::desc(price).into()),
        (Algorithm::OneDRerank, OneDimFunction::desc(price).into()),
        (Algorithm::MdBaseline, md.clone()),
        (Algorithm::MdBinary, md.clone()),
        (Algorithm::MdRerank, md.clone()),
        (Algorithm::MdTa, md),
    ]
}

/// Run every algorithm for [`SMOKE_DEPTH`] tuples on the fixed-seed
/// small-scale diamonds workload (cold dense index each time).
pub fn run_smoke() -> Report {
    let db = bluenile(Scale::Small);
    let (mut costs, mut timings) = (Vec::new(), Vec::new());
    for (algorithm, function) in smoke_cases(db.schema()) {
        let reranker = cold_reranker(db.clone(), ExecutorKind::Sequential);
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function,
            algorithm,
        });
        let start = Instant::now();
        let tuples = session
            .next_page(SMOKE_DEPTH)
            .expect("the simulator never fails")
            .len();
        let wall = start.elapsed().as_secs_f64();
        let stats = session.stats();
        let name = algorithm.paper_name();
        costs.push(Json::obj([
            ("algorithm", name.into()),
            ("family", family(algorithm).into()),
            ("tuples", tuples.into()),
            ("queries", stats.total_queries().into()),
            ("rounds", stats.num_rounds().into()),
        ]));
        timings.push(Json::obj([
            ("algorithm", name.into()),
            ("wall_ms", round(wall * 1e3, 3).into()),
            (
                "get_next_us",
                round(wall * 1e6 / tuples.max(1) as f64, 1).into(),
            ),
        ]));
    }
    Report {
        bench: "pr3_smoke".into(),
        workload: "bluenile_diamonds_small_seed_0xB10E9115".into(),
        deterministic: Json::obj([("depth", SMOKE_DEPTH.into()), ("algorithms", costs.into())]),
        measured: Json::obj([("algorithms", timings.into())]),
        contracts: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::num;

    #[test]
    fn smoke_covers_all_seven_algorithms_and_is_deterministic_in_cost() {
        let a = run_smoke();
        let records = a.records("algorithms");
        assert_eq!(records.len(), 7);
        for r in &records {
            assert_eq!(num(r, "tuples"), SMOKE_DEPTH as f64, "{r}");
            assert!(num(r, "queries") > 0.0, "{r}");
            assert!(num(r, "wall_ms") > 0.0, "{r}");
        }
        // Query costs are seed-deterministic: a second run matches.
        let b = run_smoke();
        assert_eq!(a.deterministic, b.deterministic);
    }
}
