//! Property tests: the crawler's central invariant is **completeness** —
//! crawling `R` returns exactly the tuples matching `R` whenever it reports
//! `Complete`, and even under *atomic overflow* (more identical tuples than
//! `system-k`) it returns every tuple that is separable.
//!
//! Each property runs as a seeded loop: case `i` draws from
//! `StdRng::seed_from_u64(base + i)`, and a failure names that seed.

use std::panic::{self, AssertUnwindSafe};

use qr2_crawler::{CrawlOutcome, Crawler, CrawlerConfig};
use qr2_datagen::{generic_db, Correlation, Distribution, SyntheticConfig};
use qr2_webdb::{
    RangePred, Schema, SearchQuery, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface,
    TupleId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 40;

/// Runs `property` on `CASES` seeded cases starting at seed `base`.
fn check(property: &str, base: u64, mut body: impl FnMut(&mut StdRng)) {
    for seed in base..base + CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        assert!(
            run.is_ok(),
            "completeness::{property} failed at seed {seed}"
        );
    }
}

/// A continuous-valued database (no exact duplicates a.s., so `Complete`
/// is always achievable).
fn continuous_db(rng: &mut StdRng) -> SyntheticConfig {
    SyntheticConfig {
        n: rng.gen_range(50..400),
        dims: rng.gen_range(1..4),
        system_k: rng.gen_range(2..12),
        seed: rng.gen(),
        distribution: if rng.gen() {
            Distribution::Uniform
        } else {
            Distribution::Clustered {
                clusters: 3,
                spread: 0.02,
            }
        },
        correlation: Correlation::Independent,
        quantize_step: 0.0,
    }
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

/// crawl(full space) retrieves every tuple, regardless of distribution,
/// dimensionality, or page size.
#[test]
fn crawl_full_space_is_complete() {
    check("crawl_full_space_is_complete", 0, |rng| {
        let cfg = continuous_db(rng);
        let weights: Vec<f64> = (0..cfg.dims)
            .map(|d| if d % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let db = generic_db(&cfg, &weights);
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&SearchQuery::all());
        assert!(res.is_complete());
        assert_eq!(res.tuples.len(), cfg.n);
        for (i, t) in res.tuples.iter().enumerate() {
            assert_eq!(t.id, TupleId(i as u32));
        }
    });
}

/// crawl(R) over a random subrange returns exactly the ground-truth
/// matches of R.
#[test]
fn crawl_subregion_matches_ground_truth() {
    check("crawl_subregion_matches_ground_truth", 1000, |rng| {
        let cfg = continuous_db(rng);
        let lo = rng.gen_range(0.0..0.9);
        let width = rng.gen_range(0.05..0.5);
        let weights: Vec<f64> = (0..cfg.dims).map(|_| 1.0).collect();
        let db = generic_db(&cfg, &weights);
        let x0 = db.schema().expect_id("x0");
        let q = SearchQuery::all().and_range(x0, RangePred::half_open(lo, (lo + width).min(1.0)));
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&q);
        assert!(res.is_complete());
        let truth = db.ground_truth().matching_rows(&q);
        assert_eq!(res.tuples.len(), truth.len());
        for (t, row) in res.tuples.iter().zip(&truth) {
            assert_eq!(t.id, TupleId(*row as u32));
        }
    });
}

/// Tie enumeration: with ties confined to one attribute, all tied tuples
/// are separable on the other attribute and must be found.
#[test]
fn tie_crawl_is_complete() {
    check("tie_crawl_is_complete", 2000, |rng| {
        let db = tied_x0_db(rng.gen(), 300, rng.gen_range(2..10));
        let x0 = db.schema().expect_id("x0");
        let q = SearchQuery::all().and_point(x0, 0.25);
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&q);
        assert!(res.is_complete());
        assert_eq!(res.tuples.len(), db.ground_truth().count_matches(&q));
    });
}

/// With identical-coordinate groups larger than system-k, the crawler
/// must report AtomicOverflow, return a subset of the truth, and still
/// find every tuple belonging to a separable (small) group.
#[test]
fn atomic_groups_found_up_to_visibility() {
    check("atomic_groups_found_up_to_visibility", 3000, |rng| {
        let system_k = rng.gen_range(2..6);
        // 1-D table where ~35 % of tuples sit exactly at 0.5: that group is
        // atomic; everything else is separable.
        let cfg = SyntheticConfig {
            n: 200,
            dims: 1,
            distribution: Distribution::WithTies {
                fraction: 0.35,
                value: 0.5,
            },
            correlation: Correlation::Independent,
            quantize_step: 0.0,
            seed: rng.gen(),
            system_k,
        };
        let db = generic_db(&cfg, &[1.0]);
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&SearchQuery::all());
        let x0 = db.schema().expect_id("x0");
        let truth = db.ground_truth();
        let tied = truth.count_matches(&SearchQuery::all().and_point(x0, 0.5));
        if tied > system_k {
            assert_eq!(res.outcome, CrawlOutcome::AtomicOverflow);
        }
        // Subset of the truth…
        assert!(res.tuples.len() <= cfg.n);
        // …containing ALL separable tuples (those not at 0.5)…
        let separable = cfg.n - tied;
        let found_separable = res.tuples.iter().filter(|t| t.num_at(x0) != 0.5).count();
        assert_eq!(found_separable, separable);
        // …plus exactly the visible system-k of the atomic group.
        let found_tied = res.tuples.len() - found_separable;
        assert_eq!(found_tied, tied.min(system_k));
    });
}

/// Query cost scales near-linearly with the region's population
/// (the crawler's O(n/k · log) bound, loosely checked).
#[test]
fn query_cost_is_sane() {
    check("query_cost_is_sane", 4000, |rng| {
        let cfg = continuous_db(rng);
        let weights: Vec<f64> = (0..cfg.dims).map(|_| 1.0).collect();
        let db = generic_db(&cfg, &weights);
        let res = Crawler::new(&db, CrawlerConfig::default()).crawl(&SearchQuery::all());
        assert!(res.is_complete());
        let n = cfg.n as f64;
        let k = cfg.system_k as f64;
        let bound = 8.0 * (n / k + 1.0) * (n.log2() + 1.0);
        assert!(
            (res.queries as f64) < bound,
            "crawl used {} queries for n={} k={}",
            res.queries,
            cfg.n,
            cfg.system_k
        );
    });
}
