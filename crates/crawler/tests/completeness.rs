//! Property tests: the crawler's central invariant is **completeness** —
//! crawling `R` returns exactly the tuples matching `R` whenever it reports
//! `Complete`, and even under *atomic overflow* (more identical tuples than
//! `system-k`) it returns every tuple that is separable.

use proptest::prelude::*;
use qr2_crawler::{CrawlOutcome, Crawler, CrawlerConfig};
use qr2_datagen::{generic_db, Correlation, Distribution, SyntheticConfig};
use qr2_webdb::{
    RangePred, Schema, SearchQuery, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface,
    TupleId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy over continuous-valued databases (no exact duplicates a.s., so
/// `Complete` is always achievable).
fn continuous_db_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (
        50usize..400,
        1usize..4,
        2usize..12,
        any::<u64>(),
        prop_oneof![
            Just(Distribution::Uniform),
            Just(Distribution::Clustered {
                clusters: 3,
                spread: 0.02
            }),
        ],
    )
        .prop_map(|(n, dims, system_k, seed, distribution)| SyntheticConfig {
            n,
            dims,
            distribution,
            correlation: Correlation::Independent,
            quantize_step: 0.0,
            seed,
            system_k,
        })
}

/// Bespoke table: ties on `x0` only (value 0.25, ~40 %), `x1` continuous so
/// tied tuples stay separable.
fn tied_x0_db(seed: u64, n: usize, system_k: usize) -> SimulatedWebDb {
    let schema = Schema::builder()
        .numeric("x0", 0.0, 1.0)
        .numeric("x1", 0.0, 1.0)
        .build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tb = TableBuilder::new(schema.clone());
    for _ in 0..n {
        let x0 = if rng.gen::<f64>() < 0.4 {
            0.25
        } else {
            rng.gen::<f64>()
        };
        tb.push_row(vec![x0, rng.gen::<f64>()]).unwrap();
    }
    let ranking = SystemRanking::linear(&schema, &[("x0", 1.0), ("x1", -0.3)]).unwrap();
    SimulatedWebDb::new(tb.build(), ranking, system_k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// crawl(full space) retrieves every tuple, regardless of distribution,
    /// dimensionality, or page size.
    #[test]
    fn crawl_full_space_is_complete(cfg in continuous_db_strategy()) {
        let weights: Vec<f64> = (0..cfg.dims).map(|d| if d % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let db = generic_db(&cfg, &weights);
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&SearchQuery::all());
        prop_assert!(res.is_complete());
        prop_assert_eq!(res.tuples.len(), cfg.n);
        for (i, t) in res.tuples.iter().enumerate() {
            prop_assert_eq!(t.id, TupleId(i as u32));
        }
    }

    /// crawl(R) over a random subrange returns exactly the ground-truth
    /// matches of R.
    #[test]
    fn crawl_subregion_matches_ground_truth(
        cfg in continuous_db_strategy(),
        lo in 0.0f64..0.9,
        width in 0.05f64..0.5,
    ) {
        let weights: Vec<f64> = (0..cfg.dims).map(|_| 1.0).collect();
        let db = generic_db(&cfg, &weights);
        let x0 = db.schema().expect_id("x0");
        let q = SearchQuery::all().and_range(x0, RangePred::half_open(lo, (lo + width).min(1.0)));
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&q);
        prop_assert!(res.is_complete());
        let truth = db.ground_truth().matching_rows(&q);
        prop_assert_eq!(res.tuples.len(), truth.len());
        for (t, row) in res.tuples.iter().zip(&truth) {
            prop_assert_eq!(t.id, TupleId(*row as u32));
        }
    }

    /// Tie enumeration: with ties confined to one attribute, all tied tuples
    /// are separable on the other attribute and must be found.
    #[test]
    fn tie_crawl_is_complete(seed in any::<u64>(), system_k in 2usize..10) {
        let db = tied_x0_db(seed, 300, system_k);
        let x0 = db.schema().expect_id("x0");
        let q = SearchQuery::all().and_point(x0, 0.25);
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&q);
        prop_assert!(res.is_complete());
        prop_assert_eq!(res.tuples.len(), db.ground_truth().count_matches(&q));
    }

    /// With identical-coordinate groups larger than system-k, the crawler
    /// must report AtomicOverflow, return a subset of the truth, and still
    /// find every tuple belonging to a separable (small) group.
    #[test]
    fn atomic_groups_found_up_to_visibility(seed in any::<u64>(), system_k in 2usize..6) {
        // 1-D table where ~35 % of tuples sit exactly at 0.5: that group is
        // atomic; everything else is separable.
        let cfg = SyntheticConfig {
            n: 200,
            dims: 1,
            distribution: Distribution::WithTies { fraction: 0.35, value: 0.5 },
            correlation: Correlation::Independent,
            quantize_step: 0.0,
            seed,
            system_k,
        };
        let db = generic_db(&cfg, &[1.0]);
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&SearchQuery::all());
        let x0 = db.schema().expect_id("x0");
        let truth = db.ground_truth();
        let tied = truth.count_matches(&SearchQuery::all().and_point(x0, 0.5));
        if tied > system_k {
            prop_assert_eq!(res.outcome, CrawlOutcome::AtomicOverflow);
        }
        // Subset of the truth…
        prop_assert!(res.tuples.len() <= cfg.n);
        // …containing ALL separable tuples (those not at 0.5)…
        let separable = cfg.n - tied;
        let found_separable = res
            .tuples
            .iter()
            .filter(|t| t.num_at(x0) != 0.5)
            .count();
        prop_assert_eq!(found_separable, separable);
        // …plus exactly the visible system-k of the atomic group.
        let found_tied = res.tuples.len() - found_separable;
        prop_assert_eq!(found_tied, tied.min(system_k));
    }

    /// Query cost scales near-linearly with the region's population
    /// (the crawler's O(n/k · log) bound, loosely checked).
    #[test]
    fn query_cost_is_sane(cfg in continuous_db_strategy()) {
        let weights: Vec<f64> = (0..cfg.dims).map(|_| 1.0).collect();
        let db = generic_db(&cfg, &weights);
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&SearchQuery::all());
        prop_assert!(res.is_complete());
        let n = cfg.n as f64;
        let k = cfg.system_k as f64;
        let bound = 8.0 * (n / k + 1.0) * (n.log2() + 1.0);
        prop_assert!(
            (res.queries as f64) < bound,
            "crawl used {} queries for n={} k={}", res.queries, cfg.n, cfg.system_k
        );
    }
}
