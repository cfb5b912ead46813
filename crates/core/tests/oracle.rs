//! The central exactness property of the whole system: for every algorithm,
//! the stream of tuples returned by get-next must equal the ground-truth
//! ordering of the filtered database under the user's ranking function.
//!
//! The oracle scans the simulator's hidden table directly — something the
//! real service can never do — and sorts by (score, tuple id).
//!
//! Each property runs as a seeded loop: case `i` draws from
//! `StdRng::seed_from_u64(base + i)`, and a failure names that seed.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use qr2_core::{Algorithm, ExecutorKind, LinearFunction, Normalizer, RerankRequest, Reranker};
use qr2_datagen::{generic_db, Correlation, Distribution, SyntheticConfig};
use qr2_webdb::{RangePred, SearchQuery, SimulatedWebDb, TopKInterface, TupleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// Runs `property` on `CASES` seeded cases starting at seed `base`.
fn check(property: &str, base: u64, mut body: impl FnMut(&mut StdRng)) {
    for seed in base..base + CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        assert!(run.is_ok(), "oracle::{property} failed at seed {seed}");
    }
}

fn oracle_ids(
    db: &SimulatedWebDb,
    f: &LinearFunction,
    norm: &Normalizer,
    filter: &SearchQuery,
) -> Vec<(f64, TupleId)> {
    let t = db.ground_truth();
    let mut rows = t.matching_rows(filter);
    rows.sort_by(|&a, &b| {
        let sa = f.score(&t.tuple(a), norm);
        let sb = f.score(&t.tuple(b), norm);
        sa.total_cmp(&sb).then(a.cmp(&b))
    });
    rows.into_iter()
        .map(|r| (f.score(&t.tuple(r), norm), TupleId(r as u32)))
        .collect()
}

/// A synthetic workload of 40..250 rows over `dims` attributes, system-k
/// 3..14: uniform, clustered or tied (3:1:1), under one of three
/// correlations.
fn config(rng: &mut StdRng, dims: usize) -> SyntheticConfig {
    let distribution = match rng.gen_range(0..5) {
        0..=2 => Distribution::Uniform,
        3 => Distribution::Clustered {
            clusters: 4,
            spread: 0.01,
        },
        _ => Distribution::WithTies {
            fraction: 0.25,
            value: 0.5,
        },
    };
    let correlation = match rng.gen_range(0..3) {
        0 => Correlation::Independent,
        1 => Correlation::Positive(0.7),
        _ => Correlation::Negative(0.7),
    };
    SyntheticConfig {
        n: rng.gen_range(40..250),
        dims,
        distribution,
        correlation,
        quantize_step: 0.0,
        seed: rng.gen(),
        system_k: rng.gen_range(3..14),
    }
}

/// `dims` weights of magnitude 0.1..=1.0, each of either sign.
fn weights(rng: &mut StdRng, dims: usize) -> Vec<f64> {
    (0..dims)
        .map(|_| {
            let w = rng.gen_range(1i32..=10) as f64 / 10.0;
            if rng.gen() {
                w
            } else {
                -w
            }
        })
        .collect()
}

/// Run one algorithm's session and compare its first `h` results against
/// the oracle. Comparison is by score sequence (bit-exact) and, within each
/// distinct score, by tuple-id *set* — algorithms may legally order exact
/// score-ties differently than the oracle's id rule when the tie spans a
/// frontier boundary.
fn check_algorithm(
    db: &Arc<SimulatedWebDb>,
    algorithm: Algorithm,
    weights: &[f64],
    filter: &SearchQuery,
    h: usize,
) {
    let reranker = Reranker::builder(db.clone())
        .executor(ExecutorKind::Sequential)
        .build();
    let schema = reranker.schema().clone();
    let spec: Vec<(qr2_webdb::AttrId, f64)> = weights
        .iter()
        .enumerate()
        .map(|(d, w)| (schema.expect_id(&format!("x{d}")), *w))
        .collect();
    let f = LinearFunction::new(spec).expect("valid weights");
    let norm = Normalizer::from_domains(&schema);
    let want = oracle_ids(db, &f, &norm, filter);

    let mut session = reranker.query(RerankRequest {
        filter: filter.clone(),
        function: f.clone().into(),
        algorithm,
    });
    let mut got: Vec<(f64, TupleId)> = Vec::new();
    for _ in 0..h.min(want.len()) {
        match session.next().expect("the simulator never fails") {
            Some(t) => got.push((f.score(&t, &norm), t.id)),
            None => break,
        }
    }
    assert_eq!(
        got.len(),
        h.min(want.len()),
        "{} returned too few tuples",
        algorithm.paper_name()
    );
    // Scores must match the oracle exactly, position by position.
    for (i, ((gs, _), (ws, _))) in got.iter().zip(&want).enumerate() {
        assert!(
            gs == ws,
            "{} position {}: score {} != oracle {}",
            algorithm.paper_name(),
            i,
            gs,
            ws
        );
    }
    // Within each score class, the id sets must agree.
    let mut i = 0;
    while i < got.len() {
        let s = got[i].0;
        let mut j = i;
        while j < got.len() && got[j].0 == s {
            j += 1;
        }
        // The oracle's class for this score may extend beyond `got`'s
        // horizon; only fully contained classes are comparable as sets.
        if j < got.len() || want.len() == got.len() {
            let mut g: Vec<TupleId> = got[i..j].iter().map(|(_, id)| *id).collect();
            let mut w: Vec<TupleId> = want[i..j].iter().map(|(_, id)| *id).collect();
            g.sort();
            w.sort();
            assert_eq!(
                g,
                w,
                "{} id set mismatch at score {}",
                algorithm.paper_name(),
                s
            );
        }
        i = j;
    }
}

/// All 1D algorithms are exact on arbitrary single-attribute workloads.
#[test]
fn oned_algorithms_match_oracle() {
    check("oned_algorithms_match_oracle", 0, |rng| {
        let cfg = config(rng, 2); // one ranking attr + one free attr
        let ascending: bool = rng.gen();
        let hidden = [1.0, -0.4];
        let db = Arc::new(generic_db(&cfg, &hidden));
        let w = if ascending { 1.0 } else { -1.0 };
        for algorithm in [
            Algorithm::OneDBaseline,
            Algorithm::OneDBinary,
            Algorithm::OneDRerank,
        ] {
            check_algorithm(&db, algorithm, &[w], &SearchQuery::all(), 12);
        }
    });
}

/// All MD algorithms are exact on arbitrary 2-3D workloads.
#[test]
fn md_algorithms_match_oracle() {
    check("md_algorithms_match_oracle", 1000, |rng| {
        let cfg = config(rng, 3);
        let weights = weights(rng, 3);
        let hidden = [0.5, -1.0, 0.2];
        let db = Arc::new(generic_db(&cfg, &hidden));
        let dims = 2 + (cfg.seed % 2) as usize; // exercise 2D and 3D
        let ws = &weights[..dims];
        for algorithm in [
            Algorithm::MdBaseline,
            Algorithm::MdBinary,
            Algorithm::MdRerank,
            Algorithm::MdTa,
        ] {
            check_algorithm(&db, algorithm, ws, &SearchQuery::all(), 8);
        }
    });
}

/// Exactness holds under user filters too.
#[test]
fn algorithms_match_oracle_with_filters() {
    check("algorithms_match_oracle_with_filters", 2000, |rng| {
        let cfg = config(rng, 2);
        let lo = rng.gen_range(0.0..0.5);
        let width = rng.gen_range(0.2..0.6);
        let db = Arc::new(generic_db(&cfg, &[1.0, 1.0]));
        let x1 = db.schema().expect_id("x1");
        let filter =
            SearchQuery::all().and_range(x1, RangePred::half_open(lo, (lo + width).min(1.0)));
        for algorithm in [Algorithm::OneDBinary, Algorithm::MdRerank, Algorithm::MdTa] {
            check_algorithm(&db, algorithm, &[1.0], &filter, 6);
        }
    });
}

/// Deterministic end-to-end regression: same seed ⇒ same stream, twice.
#[test]
fn sessions_are_deterministic() {
    let cfg = SyntheticConfig {
        n: 150,
        dims: 2,
        distribution: Distribution::Uniform,
        correlation: Correlation::Independent,
        quantize_step: 0.0,
        seed: 99,
        system_k: 7,
    };
    let db = Arc::new(generic_db(&cfg, &[1.0, -1.0]));
    let run = || -> Vec<TupleId> {
        let r = Reranker::builder(db.clone())
            .executor(ExecutorKind::Parallel { fanout: 4 })
            .build();
        let schema = r.schema().clone();
        let f = LinearFunction::from_names(&schema, &[("x0", 0.8), ("x1", -0.2)]).unwrap();
        r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: f.into(),
            algorithm: Algorithm::MdRerank,
        })
        .next_page(20)
        .expect("the simulator never fails")
        .iter()
        .map(|t| t.id)
        .collect()
    };
    assert_eq!(run(), run());
}

/// The RERANK family must never lose to BINARY on a heavily tied workload
/// once the index is warm (E3/E4's mechanism).
#[test]
fn rerank_amortizes_on_ties() {
    let cfg = SyntheticConfig {
        n: 400,
        dims: 2,
        distribution: Distribution::WithTies {
            fraction: 0.4,
            value: 0.3,
        },
        correlation: Correlation::Independent,
        quantize_step: 0.0,
        seed: 3,
        system_k: 6,
    };
    let db = Arc::new(generic_db(&cfg, &[1.0, 1.0]));
    let reranker = Reranker::builder(db.clone())
        .executor(ExecutorKind::Sequential)
        .build();
    let schema = reranker.schema().clone();
    let run_cost = |algorithm: Algorithm| -> usize {
        let f = LinearFunction::from_names(&schema, &[("x0", 1.0)]).unwrap();
        let mut s = reranker.query(RerankRequest {
            filter: SearchQuery::all(),
            function: f.into(),
            algorithm,
        });
        for _ in 0..30 {
            if s.next().expect("the simulator never fails").is_none() {
                break;
            }
        }
        s.stats().total_queries()
    };
    // Warm the index with one full run.
    let cold = run_cost(Algorithm::OneDRerank);
    let warm = run_cost(Algorithm::OneDRerank);
    assert!(
        warm <= cold,
        "warm rerank ({warm}) must not exceed cold rerank ({cold})"
    );
}
