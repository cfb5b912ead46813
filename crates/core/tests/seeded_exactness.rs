//! Seeded exactness grid for every engine, compiled into every
//! `cargo test` (the property-based oracle sits behind a feature).
//!
//! For seeds × data shapes × filters × algorithms × orders (1D engines and
//! MD-TA by one attribute in each direction; the MD engines also by
//! 2-attribute linear functions):
//!
//! * a drained session equals the ground-truth order: by (value, tuple
//!   id), or by (score, tuple id) under the reranker's normalizer;
//! * slicing the same session into `Budget::queries(1)` steps serves the
//!   same tuples for the same total query count — the bisection stack,
//!   frontier and buffer are session state, so a resumed step never pays
//!   again for what an earlier one learned.

use std::sync::Arc;

use qr2_core::{
    Algorithm, Budget, ExecutorKind, LinearFunction, Normalizer, OneDimFunction, RerankRequest,
    RerankSession, Reranker, SortDir,
};
use qr2_webdb::{
    AttrId, RangePred, Schema, SearchQuery, SimulatedWebDb, SystemRanking, TableBuilder,
    TopKInterface, TupleId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 120;
const SYSTEM_K: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Uniform,
    /// Four tight clusters: bisection must split deep to separate them.
    Clustered,
    /// A quarter of the rows tie at one value, far more than system-k.
    Ties,
    /// An integral attribute over a small domain: ties everywhere.
    Integral,
}

const SHAPES: [Shape; 4] = [
    Shape::Uniform,
    Shape::Clustered,
    Shape::Ties,
    Shape::Integral,
];

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::OneDBaseline,
    Algorithm::OneDBinary,
    Algorithm::OneDRerank,
    Algorithm::MdTa,
];

const MD_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::MdBaseline,
    Algorithm::MdBinary,
    Algorithm::MdRerank,
    Algorithm::MdTa,
];

/// Mixed signs, and a small weight beside a unit one.
const MD_WEIGHTS: [[f64; 2]; 3] = [[1.0, 1.0], [1.0, -0.5], [-0.05, 1.0]];

/// `x` is the ranking attribute, `y` the other one. The hidden ranking
/// varies with the seed: agreeing with `x`, opposing it, or on `y`.
fn database(seed: u64, shape: Shape) -> Arc<SimulatedWebDb> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = match shape {
        Shape::Integral => Schema::builder().integral("x", 0.0, 20.0),
        _ => Schema::builder().numeric("x", 0.0, 100.0),
    }
    .numeric("y", 0.0, 100.0)
    .build();
    let centers: Vec<f64> = (0..4).map(|_| rng.gen_range(10.0..90.0)).collect();
    let mut tb = TableBuilder::new(schema.clone());
    for _ in 0..ROWS {
        let x = match shape {
            Shape::Uniform => rng.gen_range(0.0..100.0),
            Shape::Clustered => centers[rng.gen_range(0..4usize)] + rng.gen_range(-0.05..0.05),
            Shape::Ties if rng.gen_range(0..4u32) == 0 => 50.0,
            Shape::Ties => rng.gen_range(0.0..100.0),
            Shape::Integral => rng.gen_range(0..=20u32) as f64,
        };
        tb.push_row(vec![x, rng.gen_range(0.0..100.0)])
            .expect("row fits the schema");
    }
    let hidden: &[(&str, f64)] = match seed % 3 {
        0 => &[("x", 1.0)],
        1 => &[("x", -1.0)],
        _ => &[("y", 1.0)],
    };
    let ranking = SystemRanking::linear(&schema, hidden).expect("valid hidden ranking");
    Arc::new(SimulatedWebDb::new(tb.build(), ranking, SYSTEM_K))
}

fn filters(x: AttrId, y: AttrId) -> [(&'static str, SearchQuery); 3] {
    [
        ("no filter", SearchQuery::all()),
        (
            "filter on y",
            SearchQuery::all().and_range(y, RangePred::closed(20.0, 70.0)),
        ),
        (
            "filter on x",
            // Closed at the tie value, so the ties sit on the filter's edge.
            SearchQuery::all().and_range(x, RangePred::closed(5.0, 50.0)),
        ),
    ]
}

/// The matches of `filter` ordered by `x` in `dir`, ties by tuple id.
fn oracle(db: &SimulatedWebDb, filter: &SearchQuery, x: AttrId, dir: SortDir) -> Vec<TupleId> {
    let t = db.ground_truth();
    let mut rows = t.matching_rows(filter);
    rows.sort_by(|&a, &b| {
        let (va, vb) = (t.num(a, x), t.num(b, x));
        let by_value = match dir {
            SortDir::Asc => va.total_cmp(&vb),
            SortDir::Desc => vb.total_cmp(&va),
        };
        by_value.then(a.cmp(&b))
    });
    rows.into_iter().map(|r| TupleId(r as u32)).collect()
}

/// The matches of `filter` ordered by `f`'s score under `norm`, ties by
/// tuple id.
fn md_oracle(
    db: &SimulatedWebDb,
    filter: &SearchQuery,
    f: &LinearFunction,
    norm: &Normalizer,
) -> Vec<TupleId> {
    let t = db.ground_truth();
    let mut scored: Vec<(f64, usize)> = t
        .matching_rows(filter)
        .into_iter()
        .map(|r| (f.score(&t.tuple(r), norm), r))
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, r)| TupleId(r as u32)).collect()
}

/// A fresh reranker, so RERANK's dense index starts cold and two runs of
/// the same request pay the same.
fn reranker(db: &Arc<SimulatedWebDb>) -> Reranker {
    Reranker::builder(db.clone())
        .executor(ExecutorKind::Sequential)
        .build()
}

fn session(db: &Arc<SimulatedWebDb>, req: &RerankRequest) -> RerankSession {
    reranker(db).query(req.clone())
}

/// Drain `req` whole and in one-query steps: both must serve `want`, and
/// for the same total query count.
fn check(db: &Arc<SimulatedWebDb>, req: &RerankRequest, want: &[TupleId], case: &str) {
    let mut plain = session(db, req);
    let got: Vec<TupleId> = plain.by_ref().map(|t| t.id).collect();
    assert_eq!(got, want, "{case}: drained order");

    let mut sliced = session(db, req);
    assert_eq!(drain_sliced(&mut sliced), want, "{case}: sliced order");
    assert_eq!(
        sliced.stats().total_queries(),
        plain.stats().total_queries(),
        "{case}: sliced cost"
    );
}

/// Drain `s` in one-query steps; returns the served ids.
fn drain_sliced(s: &mut RerankSession) -> Vec<TupleId> {
    let mut got = Vec::new();
    for _ in 0..100_000 {
        let step = s.advance(Budget::queries(1));
        let done = step.is_done();
        got.extend(step.into_tuples().iter().map(|t| t.id));
        if done {
            return got;
        }
    }
    panic!("a one-query budget made no progress");
}

#[test]
fn drained_and_sliced_sessions_equal_the_ground_truth_order() {
    let mut sessions = 0;
    for seed in 1..=3u64 {
        for shape in SHAPES {
            let db = database(seed, shape);
            let x = db.schema().expect_id("x");
            let y = db.schema().expect_id("y");
            for (filter_name, filter) in filters(x, y) {
                for dir in [SortDir::Asc, SortDir::Desc] {
                    let want = oracle(&db, &filter, x, dir);
                    let function = match dir {
                        SortDir::Asc => OneDimFunction::asc(x),
                        SortDir::Desc => OneDimFunction::desc(x),
                    };
                    for algorithm in ALGORITHMS {
                        let case = format!(
                            "seed {seed}, {shape:?}, {filter_name}, {dir:?}, {}",
                            algorithm.paper_name()
                        );
                        let req = RerankRequest {
                            filter: filter.clone(),
                            function: function.into(),
                            algorithm,
                        };
                        check(&db, &req, &want, &case);
                        sessions += 1;
                    }
                }
            }
        }
    }
    assert_eq!(sessions, 3 * 4 * 3 * 2 * 4);
}

#[test]
fn md_sessions_equal_the_ground_truth_score_order() {
    let mut sessions = 0;
    for seed in 1..=3u64 {
        for shape in SHAPES {
            let db = database(seed, shape);
            let x = db.schema().expect_id("x");
            let y = db.schema().expect_id("y");
            // Every session's reranker is built the same way, so one
            // normalizer scores the ground truth for all of them.
            let norm = Arc::clone(reranker(&db).normalizer());
            for (filter_name, filter) in filters(x, y) {
                for [wx, wy] in MD_WEIGHTS {
                    let f = LinearFunction::new(vec![(x, wx), (y, wy)]).expect("valid weights");
                    let want = md_oracle(&db, &filter, &f, &norm);
                    for algorithm in MD_ALGORITHMS {
                        let case = format!(
                            "seed {seed}, {shape:?}, {filter_name}, {wx}·x + {wy}·y, {}",
                            algorithm.paper_name()
                        );
                        let req = RerankRequest {
                            filter: filter.clone(),
                            function: f.clone().into(),
                            algorithm,
                        };
                        check(&db, &req, &want, &case);
                        sessions += 1;
                    }
                }
            }
        }
    }
    assert_eq!(sessions, 3 * 4 * 3 * 3 * 4);
}
