//! Property test: parallel and sequential executors are observationally
//! equivalent — same responses in the same order for any batch — and the
//! round ledger accounts every query exactly once.
//!
//! Each property runs as a seeded loop: case `i` draws from
//! `StdRng::seed_from_u64(base + i)`, and a failure names that seed.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use qr2_core::{ExecutorKind, SearchCtx};
use qr2_datagen::{generic_db, SyntheticConfig};
use qr2_webdb::{AttrId, RangePred, SearchQuery, TopKInterface};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// Runs `property` on `CASES` seeded cases starting at seed `base`.
fn check(property: &str, base: u64, mut body: impl FnMut(&mut StdRng)) {
    for seed in base..base + CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        assert!(
            run.is_ok(),
            "executor_props::{property} failed at seed {seed}"
        );
    }
}

/// Up to 23 half-open range queries on `x0` or `x1`.
fn batch(rng: &mut StdRng) -> Vec<SearchQuery> {
    (0..rng.gen_range(0..24))
        .map(|_| {
            let attr = AttrId(rng.gen_range(0u16..2));
            let lo = rng.gen_range(0i32..90) as f64 / 100.0;
            let hi = (lo + rng.gen_range(5i32..40) as f64 / 100.0).min(1.0);
            SearchQuery::all().and_range(attr, RangePred::half_open(lo, hi))
        })
        .collect()
}

#[test]
fn parallel_equals_sequential() {
    check("parallel_equals_sequential", 0, |rng| {
        let batch = batch(rng);
        let fanout = rng.gen_range(2usize..12);
        let db = Arc::new(generic_db(
            &SyntheticConfig {
                n: 300,
                dims: 2,
                seed: rng.gen(),
                system_k: 7,
                ..SyntheticConfig::default()
            },
            &[1.0, -1.0],
        ));
        let seq = SearchCtx::new(db.clone(), ExecutorKind::Sequential);
        let par = SearchCtx::new(db.clone(), ExecutorKind::Parallel { fanout });
        assert_eq!(seq.search_batch(&batch), par.search_batch(&batch));

        // Ledger invariants.
        if batch.is_empty() {
            assert_eq!(seq.stats().num_rounds(), 0);
        } else {
            assert_eq!(seq.stats().rounds, vec![batch.len()]);
            assert_eq!(par.stats().rounds, vec![batch.len()]);
        }
        // The database ledger saw every query from both contexts.
        assert_eq!(db.ledger().total() as usize, batch.len() * 2);
    });
}

/// Interleaved single searches and batches account correctly.
#[test]
fn ledger_accounts_every_query() {
    check("ledger_accounts_every_query", 1000, |rng| {
        let batches: Vec<Vec<SearchQuery>> = (0..rng.gen_range(1..5)).map(|_| batch(rng)).collect();
        let db = Arc::new(generic_db(
            &SyntheticConfig {
                n: 120,
                dims: 2,
                seed: rng.gen(),
                system_k: 5,
                ..SyntheticConfig::default()
            },
            &[1.0, 1.0],
        ));
        let ctx = SearchCtx::new(db.clone(), ExecutorKind::Parallel { fanout: 4 });
        let mut expected = 0usize;
        for batch in &batches {
            ctx.search_batch(batch).expect("the simulator never fails");
            expected += batch.len();
            ctx.search(&SearchQuery::all())
                .expect("the simulator never fails");
            expected += 1;
        }
        assert_eq!(ctx.stats().total_queries(), expected);
        assert_eq!(db.ledger().total() as usize, expected);
    });
}
