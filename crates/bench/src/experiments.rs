//! Regeneration functions for every figure and scenario (DESIGN.md §6).

use std::sync::Arc;
use std::time::Duration;

use qr2_core::{
    Algorithm, DenseIndex, ExecutorKind, LinearFunction, OneDAlgo, OneDimFunction, OneDimStream,
    RerankRequest, Reranker, SearchCtx, SortDir,
};
use qr2_crawler::{Crawler, CrawlerConfig, SplitPolicy};
use qr2_webdb::{SearchQuery, SimulatedWebDb, TopKInterface};

use crate::report::Table;
use crate::workloads::{
    bluenile, clustered, cold_reranker, f2_bluenile, f3_bluenile, f_fig4, uniform_2d, zillow,
    zillow_with_latency, Scale,
};

/// Summary of one Fig. 2 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Summary {
    /// Total queries issued.
    pub total_queries: usize,
    /// Queries issued inside parallel (≥2-query) rounds.
    pub parallel_queries: usize,
    /// Fraction of queries issued in parallel rounds.
    pub parallel_fraction: f64,
    /// Number of rounds ("iterations" on the figure's x-axis).
    pub iterations: usize,
}

/// **Fig. 2** — parallel-processed queries per iteration on Blue Nile.
/// `dims = 3` reproduces Fig. 2(a) (`price − 0.1·carat − 0.5·depth`);
/// `dims = 2` reproduces Fig. 2(b) (`price − 0.5·carat`).
///
/// Each row is one iteration (one batch round) of an MD-RERANK get-next
/// session retrieving `depth_tuples` results with fan-out 8.
pub fn fig2(scale: Scale, dims: usize, depth_tuples: usize) -> (Table, Fig2Summary) {
    assert!(dims == 2 || dims == 3, "Fig. 2 has 2D and 3D panels");
    let db = bluenile(scale);
    let f = if dims == 3 {
        f3_bluenile(&db)
    } else {
        f2_bluenile(&db)
    };
    let reranker = cold_reranker(db, ExecutorKind::Parallel { fanout: 8 });
    let mut session = reranker.query(RerankRequest {
        filter: SearchQuery::all(),
        function: f.into(),
        algorithm: Algorithm::MdRerank,
    });
    session
        .next_page(depth_tuples)
        .expect("the simulator never fails");
    let stats = session.stats();

    let mut table = Table::new(
        format!(
            "Fig. 2({}) — parallel queries per iteration, {dims}D Blue Nile",
            if dims == 3 { 'a' } else { 'b' }
        ),
        &["iteration", "queries", "parallel"],
    );
    for (i, &q) in stats.rounds.iter().enumerate() {
        table.row(&[
            (i + 1).to_string(),
            q.to_string(),
            u8::from(q > 1).to_string(),
        ]);
    }
    let summary = Fig2Summary {
        total_queries: stats.total_queries(),
        parallel_queries: stats.parallel_queries(),
        parallel_fraction: stats.parallel_fraction(),
        iterations: stats.num_rounds(),
    };
    (table, summary)
}

/// Summary of the Fig. 4 statistics panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Summary {
    /// Queries issued to the web database.
    pub queries: usize,
    /// Wall-clock processing time.
    pub wall: Duration,
}

/// **Fig. 4** — the statistics panel for `price − 0.3·sqft` on Zillow.
/// With `latency = Some(~1.2 s)` the wall time lands in the paper's
/// "27 queries … 33 seconds" regime; `None` reports pure compute time.
pub fn fig4(scale: Scale, latency: Option<Duration>, page: usize) -> (Table, Fig4Summary) {
    let db = match latency {
        Some(l) => zillow_with_latency(scale, l),
        None => zillow(scale),
    };
    let f = f_fig4(&db);
    let reranker = cold_reranker(db, ExecutorKind::Parallel { fanout: 8 });
    let start = std::time::Instant::now();
    let mut session = reranker.query(RerankRequest {
        filter: SearchQuery::all(),
        function: f.into(),
        algorithm: Algorithm::MdRerank,
    });
    session.next_page(page).expect("the simulator never fails");
    let wall = start.elapsed();
    let stats = session.stats();

    let mut table = Table::new(
        "Fig. 4 — statistics panel (Zillow, price − 0.3·sqft, MD-RERANK)",
        &["metric", "value"],
    );
    table.row(&[
        "queries to web database".into(),
        stats.total_queries().to_string(),
    ]);
    table.row(&["rounds".into(), stats.num_rounds().to_string()]);
    table.row(&[
        "parallel fraction".into(),
        format!("{:.1}%", 100.0 * stats.parallel_fraction()),
    ]);
    table.row(&[
        "processing time".into(),
        format!("{:.2}s", wall.as_secs_f64()),
    ]);
    (
        table,
        Fig4Summary {
            queries: stats.total_queries(),
            wall,
        },
    )
}

/// **E1** — the §III-B "1D" scenario: both sources, ascending and
/// descending, all three 1D algorithms; cumulative query cost at top-1,
/// top-10 and top-50.
pub fn e1(scale: Scale) -> Table {
    let mut table = Table::new(
        "E1 — 1D reranking (query cost at top-1 / top-10 / top-50)",
        &["source", "attr", "dir", "algorithm", "q@1", "q@10", "q@50"],
    );
    let runs: Vec<(&str, Arc<SimulatedWebDb>, &str)> = vec![
        ("bluenile", bluenile(scale), "carat"),
        ("bluenile", bluenile(scale), "price"),
        ("zillow", zillow(scale), "sqft"),
        ("zillow", zillow(scale), "price"),
    ];
    for (source, db, attr_name) in runs {
        let attr = db.schema().expect_id(attr_name);
        for dir in [SortDir::Asc, SortDir::Desc] {
            for algorithm in [
                Algorithm::OneDBaseline,
                Algorithm::OneDBinary,
                Algorithm::OneDRerank,
            ] {
                let reranker = cold_reranker(db.clone(), ExecutorKind::Sequential);
                let mut session = reranker.query(RerankRequest {
                    filter: SearchQuery::all(),
                    function: OneDimFunction { attr, dir }.into(),
                    algorithm,
                });
                let mut marks = [0usize; 3];
                let mut served = 0usize;
                for (mi, target) in [1usize, 10, 50].iter().enumerate() {
                    while served < *target {
                        if session.next().expect("the simulator never fails").is_none() {
                            break;
                        }
                        served += 1;
                    }
                    marks[mi] = session.stats().total_queries();
                }
                table.row(&[
                    source.to_string(),
                    attr_name.to_string(),
                    format!("{dir:?}").to_lowercase(),
                    algorithm.paper_name().to_string(),
                    marks[0].to_string(),
                    marks[1].to_string(),
                    marks[2].to_string(),
                ]);
            }
        }
    }
    table
}

/// **E2** — the §III-B "MD" scenario: weight-sign combinations on 2 and 3
/// attributes of Blue Nile, across all four MD algorithms (top-10 cost).
pub fn e2(scale: Scale) -> Table {
    let db = bluenile(scale);
    let schema = db.schema().clone();
    let functions: Vec<(&str, Vec<(&str, f64)>)> = vec![
        ("price+0.5carat", vec![("price", 1.0), ("carat", 0.5)]),
        ("price-0.5carat", vec![("price", 1.0), ("carat", -0.5)]),
        ("-price-0.5carat", vec![("price", -1.0), ("carat", -0.5)]),
        (
            "price-0.1carat-0.5depth",
            vec![("price", 1.0), ("carat", -0.1), ("depth", -0.5)],
        ),
        (
            "-price+0.4carat+0.4depth",
            vec![("price", -1.0), ("carat", 0.4), ("depth", 0.4)],
        ),
    ];
    let mut table = Table::new(
        "E2 — MD reranking on Blue Nile (queries for top-10)",
        &["function", "dims", "algorithm", "queries"],
    );
    for (label, weights) in functions {
        let f = LinearFunction::from_names(&schema, &weights).expect("valid");
        for algorithm in [
            Algorithm::MdBaseline,
            Algorithm::MdBinary,
            Algorithm::MdRerank,
            Algorithm::MdTa,
        ] {
            let reranker = cold_reranker(db.clone(), ExecutorKind::Sequential);
            let mut session = reranker.query(RerankRequest {
                filter: SearchQuery::all(),
                function: f.clone().into(),
                algorithm,
            });
            session.next_page(10).expect("the simulator never fails");
            table.row(&[
                label.to_string(),
                weights.len().to_string(),
                algorithm.paper_name().to_string(),
                session.stats().total_queries().to_string(),
            ]);
        }
    }
    table
}

/// **E3** — on-the-fly indexing: per-session cost of the same tie-heavy 1D
/// query across consecutive sessions. RERANK's shared index amortizes; the
/// index-less BINARY pays full price every time.
pub fn e3(scale: Scale, sessions: usize) -> Table {
    let db = bluenile(scale);
    let lw = db.schema().expect_id("lw_ratio");
    let ties = {
        let t = db.ground_truth();
        (0..t.len()).filter(|&r| t.num(r, lw) == 1.00).count()
    };
    let depth = ties + 40;

    let mut table = Table::new(
        format!(
            "E3 — index amortization ({sessions} sessions, ORDER BY lw_ratio, {depth} tuples each)"
        ),
        &["session", "1D-RERANK", "1D-BINARY"],
    );
    // One shared reranker for RERANK (shared index)…
    let rerank_service = cold_reranker(db.clone(), ExecutorKind::Sequential);
    // …and one for BINARY (its index would be unused anyway).
    let binary_service = cold_reranker(db.clone(), ExecutorKind::Sequential);
    for s in 1..=sessions {
        let run = |service: &Reranker, algorithm: Algorithm| -> usize {
            let mut session = service.query(RerankRequest {
                filter: SearchQuery::all(),
                function: OneDimFunction::asc(lw).into(),
                algorithm,
            });
            session.next_page(depth).expect("the simulator never fails");
            session.stats().total_queries()
        };
        let rq = run(&rerank_service, Algorithm::OneDRerank);
        let bq = run(&binary_service, Algorithm::OneDBinary);
        table.row(&[s.to_string(), rq.to_string(), bq.to_string()]);
    }
    table
}

/// **E4** — best vs worst case: `lw_ratio` ordering on Blue Nile (ties →
/// crawl-heavy, then amortized) against `price + sqft` on Zillow
/// (positively correlated attributes → fast).
pub fn e4(scale: Scale) -> Table {
    let mut table = Table::new(
        "E4 — best vs worst case (query cost, cold then warm index)",
        &["case", "cold", "warm"],
    );

    // Worst: ORDER BY lw_ratio deep enough to cross the tied group.
    let db = bluenile(scale);
    let lw = db.schema().expect_id("lw_ratio");
    let ties = {
        let t = db.ground_truth();
        (0..t.len()).filter(|&r| t.num(r, lw) == 1.00).count()
    };
    let reranker = cold_reranker(db.clone(), ExecutorKind::Sequential);
    let deep_run = || {
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(lw).into(),
            algorithm: Algorithm::OneDRerank,
        });
        session
            .next_page(ties + 40)
            .expect("the simulator never fails");
        session.stats().total_queries()
    };
    let cold = deep_run();
    let warm = deep_run();
    table.row(&[
        "bluenile ORDER BY lw_ratio (20% ties)".to_string(),
        cold.to_string(),
        warm.to_string(),
    ]);

    // Best: price + sqft on Zillow, top-10.
    let db = zillow(scale);
    let f =
        LinearFunction::from_names(db.schema(), &[("price", 1.0), ("sqft", 1.0)]).expect("valid");
    let reranker = cold_reranker(db, ExecutorKind::Sequential);
    let best_run = || {
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function: f.clone().into(),
            algorithm: Algorithm::MdRerank,
        });
        session.next_page(10).expect("the simulator never fails");
        session.stats().total_queries()
    };
    let cold = best_run();
    let warm = best_run();
    table.row(&[
        "zillow price + sqft (correlated)".to_string(),
        cold.to_string(),
        warm.to_string(),
    ]);
    table
}

/// **A1** — dense-region threshold δ sweep for 1D-RERANK on a clustered
/// workload (docs/PERF.md, "The 1D bisection stack").
pub fn ablation_dense_delta(scale: Scale, depth: usize) -> Table {
    let db = clustered(scale);
    let x0 = db.schema().expect_id("x0");
    let mut table = Table::new(
        "A1 — dense threshold δ (1D-RERANK on clustered data)",
        &["delta", "queries", "index_regions"],
    );
    for (label, delta) in [
        ("0 (pure binary)", 0.0),
        ("2^-20", 1.0 / (1u64 << 20) as f64),
        ("1/4096", 1.0 / 4096.0),
        ("1/1024", 1.0 / 1024.0),
        ("1/256", 1.0 / 256.0),
        ("1/64", 1.0 / 64.0),
        ("1/16", 1.0 / 16.0),
    ] {
        let ctx = SearchCtx::new(db.clone(), ExecutorKind::Sequential);
        let index = Arc::new(DenseIndex::in_memory());
        let mut stream = OneDimStream::new(
            ctx.clone(),
            SearchQuery::all(),
            x0,
            SortDir::Asc,
            OneDAlgo::Rerank,
            Some(index.clone()),
        )
        .with_delta(delta);
        for _ in 0..depth {
            if stream.next().expect("the simulator never fails").is_none() {
                break;
            }
        }
        table.row(&[
            label.to_string(),
            ctx.stats().total_queries().to_string(),
            index.len().to_string(),
        ]);
    }
    table
}

/// **A2** — crawler split policy: the widest-relative midpoint cut vs the
/// cut between the values of the overflowing page, on a Blue Nile
/// sub-region (DESIGN.md §5.2).
pub fn ablation_split_policy(scale: Scale) -> Table {
    let db = bluenile(scale);
    let price = db.schema().expect_id("price");
    let region = SearchQuery::all().and_range(price, qr2_webdb::RangePred::closed(500.0, 3_000.0));
    let mut table = Table::new(
        "A2 — crawler split policy (crawl of price ∈ [500, 3000])",
        &["policy", "queries", "tuples", "max_depth"],
    );
    for (label, policy) in [
        ("midpoint", SplitPolicy::Midpoint),
        ("page cut", SplitPolicy::PageCut),
    ] {
        let crawler = Crawler::new(
            &*db,
            CrawlerConfig {
                max_queries: 1_000_000,
                policy,
            },
        );
        let result = crawler.crawl(&region);
        assert!(result.is_complete(), "crawl must finish");
        table.row(&[
            label.to_string(),
            result.queries.to_string(),
            result.tuples.len().to_string(),
            result.max_depth.to_string(),
        ]);
    }
    table
}

/// **A3** — parallel fan-out: wall time vs total queries for the 3D Blue
/// Nile workload under simulated per-query latency (DESIGN.md §5.3 — the
/// paper notes parallelism "may sometimes increase the number of queries").
pub fn ablation_parallel_fanout(scale: Scale, latency: Duration) -> Table {
    let mut table = Table::new(
        "A3 — executor fan-out (3D Blue Nile, top-10, with latency)",
        &["fanout", "queries", "wall_ms"],
    );
    for fanout in [1usize, 2, 4, 8, 16] {
        // Rebuild with latency each time: the latency model is stateful.
        let base = bluenile(scale);
        let table_copy = base.ground_truth().clone();
        let db = Arc::new(
            SimulatedWebDb::new(
                table_copy,
                qr2_webdb::SystemRanking::linear(
                    base.schema(),
                    &[("price", -1.0), ("carat", 1e-7)],
                )
                .expect("valid"),
                30,
            )
            .with_latency(latency, latency / 4, 5),
        );
        let f = f3_bluenile(&db);
        let executor = if fanout == 1 {
            ExecutorKind::Sequential
        } else {
            ExecutorKind::Parallel { fanout }
        };
        let reranker = cold_reranker(db, executor);
        let start = std::time::Instant::now();
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function: f.into(),
            algorithm: Algorithm::MdRerank,
        });
        session.next_page(10).expect("the simulator never fails");
        let wall = start.elapsed();
        table.row(&[
            fanout.to_string(),
            session.stats().total_queries().to_string(),
            format!("{:.0}", wall.as_secs_f64() * 1e3),
        ]);
    }
    table
}

/// **A4** — interface page size `system-k` sweep (DESIGN.md §5.4).
pub fn ablation_system_k(scale: Scale) -> Table {
    let mut table = Table::new(
        "A4 — system-k sweep (MD-RERANK top-10 on uniform 2D)",
        &["system_k", "queries"],
    );
    for k in [5usize, 10, 20, 40, 80] {
        let db = uniform_2d(scale, k);
        let f =
            LinearFunction::from_names(db.schema(), &[("x0", 1.0), ("x1", -0.6)]).expect("valid");
        let reranker = cold_reranker(db, ExecutorKind::Sequential);
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function: f.into(),
            algorithm: Algorithm::MdRerank,
        });
        session.next_page(10).expect("the simulator never fails");
        table.row(&[k.to_string(), session.stats().total_queries().to_string()]);
    }
    table
}

/// **A5** — the session cache: one incremental session serving `n` tuples
/// vs `n` independent top-1…top-n sessions (DESIGN.md §5.5).
pub fn ablation_session_cache(scale: Scale, n: usize) -> Table {
    let db = bluenile(scale);
    let price = db.schema().expect_id("price");
    let mut table = Table::new(
        format!("A5 — session cache (serving the top-{n} by price)"),
        &["mode", "queries"],
    );

    // One session, n get-nexts.
    let reranker = cold_reranker(db.clone(), ExecutorKind::Sequential);
    let mut session = reranker.query(RerankRequest {
        filter: SearchQuery::all(),
        function: OneDimFunction::asc(price).into(),
        algorithm: Algorithm::OneDBinary,
    });
    session.next_page(n).expect("the simulator never fails");
    table.row(&[
        "incremental session".to_string(),
        session.stats().total_queries().to_string(),
    ]);

    // n sessions, session i re-serves i tuples (no cross-call cache).
    let mut total = 0usize;
    for i in 1..=n {
        let reranker = cold_reranker(db.clone(), ExecutorKind::Sequential);
        let mut session = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(price).into(),
            algorithm: Algorithm::OneDBinary,
        });
        session.next_page(i).expect("the simulator never fails");
        total += session.stats().total_queries();
    }
    table.row(&["session per request".to_string(), total.to_string()]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shapes() {
        let (table, summary) = fig2(Scale::Small, 3, 15);
        assert!(!table.is_empty());
        assert!(summary.total_queries > 0);
        assert!(summary.parallel_fraction >= 0.0 && summary.parallel_fraction <= 1.0);
        let (_, s2) = fig2(Scale::Small, 2, 15);
        assert!(s2.total_queries > 0);
    }

    #[test]
    fn fig4_reports_queries_and_time() {
        let (_, summary) = fig4(Scale::Small, None, 5);
        assert!(summary.queries > 0);
    }

    #[test]
    fn e3_amortizes() {
        let t = e3(Scale::Small, 3);
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        let rows: Vec<Vec<usize>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').skip(1).map(|c| c.parse().unwrap()).collect())
            .collect();
        // RERANK session 2 must be no more expensive than session 1;
        // BINARY stays flat.
        assert!(rows[1][0] <= rows[0][0], "rerank amortizes: {rows:?}");
        assert_eq!(rows[1][1], rows[0][1], "binary is flat: {rows:?}");
    }

    #[test]
    fn ablation_session_cache_shows_benefit() {
        let t = ablation_session_cache(Scale::Small, 8);
        let csv = t.to_csv();
        let vals: Vec<usize> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(vals[0] <= vals[1], "incremental must not lose: {vals:?}");
    }
}
