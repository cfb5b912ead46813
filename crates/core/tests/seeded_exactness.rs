//! Seeded exactness grid for every engine: a fixed grid beside
//! `oracle.rs`'s randomized cases, both run by every `cargo test`.
//!
//! For seeds × data shapes × filters × algorithms × orders (1D engines and
//! MD-TA by one attribute in each direction; the MD engines also by
//! 2-attribute linear functions):
//!
//! * a drained session equals the ground-truth order: by (value, tuple
//!   id), or by (score, tuple id) under the reranker's normalizer;
//! * slicing the same session into `Budget::queries(1)` steps serves the
//!   same tuples for the same total query count — the frontier and the
//!   buffer are session state, so a resumed step never pays again for
//!   what an earlier one learned.
//!
//! And for every engine × direction × executor, a source that fails one
//! seeded probe once: the step that meets it returns `Failed`, and
//! advancing on drains exactly the ground-truth order, no tuple lost or
//! served twice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qr2_core::{
    Algorithm, Budget, ExecutorKind, LinearFunction, Normalizer, OneDimFunction, RankingFunction,
    RerankRequest, RerankSession, Reranker, SortDir, StepOutcome,
};
use qr2_webdb::{
    Answer, AttrId, QueryLedger, RangePred, Schema, SearchError, SearchQuery, SimulatedWebDb,
    SystemRanking, TableBuilder, TopKInterface, TopKResponse, TupleId,
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

fn filters(x: AttrId, y: AttrId) -> [(&'static str, SearchQuery); 5] {
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
        (
            "filter on x from the tie",
            // Closed at the tie value from below: an ascending session
            // starts on the ties, a descending one ends on them.
            SearchQuery::all().and_range(x, RangePred::closed(50.0, 95.0)),
        ),
        (
            "open filter on x",
            // Exclusive one ulp below 1: on the integral shape, snapping
            // must keep x = 1.
            SearchQuery::all().and_range(x, RangePred::open(1.0f64.next_down(), 5.0)),
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
    let got: Vec<TupleId> = std::iter::from_fn(|| plain.next().expect("the simulator never fails"))
        .map(|t| t.id)
        .collect();
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
    assert_eq!(sessions, 3 * 4 * 5 * 2 * 4);
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
    assert_eq!(sessions, 3 * 4 * 5 * 3 * 4);
}

/// Wraps the simulator and fails its `fail_at`-th probe (counted from 0
/// across all threads) once; `probes` counts every probe.
struct FailsOnce {
    inner: Arc<SimulatedWebDb>,
    fail_at: u64,
    probes: AtomicU64,
}

impl TopKInterface for FailsOnce {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn system_k(&self) -> usize {
        self.inner.system_k()
    }
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        self.inner.search(q)
    }
    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }
    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        if self.probes.fetch_add(1, Ordering::SeqCst) == self.fail_at {
            return Err(SearchError::Unavailable {
                retry_after: Duration::ZERO,
            });
        }
        Ok(Answer::paid(self.inner.search(q)))
    }
}

/// Drain `s` in pages of seven; returns the served ids and the number of
/// steps that failed.
fn drain_through_failures(s: &mut RerankSession) -> (Vec<TupleId>, usize) {
    let (mut got, mut failed) = (Vec::new(), 0);
    for _ in 0..100_000 {
        match s.advance(Budget::tuples(7)) {
            StepOutcome::Failed { .. } => failed += 1,
            step => {
                let done = step.is_done();
                got.extend(step.tuples().iter().map(|t| t.id));
                if done {
                    return (got, failed);
                }
            }
        }
    }
    panic!("the session made no progress");
}

#[test]
fn a_failed_probe_fails_its_step_and_the_session_resumes_exactly() {
    const SEVEN: [Algorithm; 7] = [
        Algorithm::OneDBaseline,
        Algorithm::OneDBinary,
        Algorithm::OneDRerank,
        Algorithm::MdBaseline,
        Algorithm::MdBinary,
        Algorithm::MdRerank,
        Algorithm::MdTa,
    ];
    let mut cases = 0;
    let mut rng = StdRng::seed_from_u64(1_000);
    // One database per shape; seeds 1..=4 give all three hidden rankings.
    for (seed, shape) in (1..).zip(SHAPES) {
        let db = database(seed, shape);
        let x = db.schema().expect_id("x");
        let y = db.schema().expect_id("y");
        let norm = Arc::clone(reranker(&db).normalizer());
        let all = SearchQuery::all();
        for kind in [
            ExecutorKind::Sequential,
            ExecutorKind::Parallel { fanout: 4 },
        ] {
            for dir in [SortDir::Asc, SortDir::Desc] {
                for algorithm in SEVEN {
                    let (function, want): (RankingFunction, _) = if algorithm.is_one_dimensional() {
                        let f = OneDimFunction { attr: x, dir };
                        (f.into(), oracle(&db, &all, x, dir))
                    } else {
                        let sign = if dir == SortDir::Asc { 1.0 } else { -1.0 };
                        let f = LinearFunction::new(vec![(x, sign), (y, 0.5 * sign)])
                            .expect("valid weights");
                        let want = md_oracle(&db, &all, &f, &norm);
                        (f.into(), want)
                    };
                    let req = RerankRequest {
                        filter: all.clone(),
                        function,
                        algorithm,
                    };
                    let open = |fail_at| {
                        let source = Arc::new(FailsOnce {
                            inner: Arc::clone(&db),
                            fail_at,
                            probes: AtomicU64::new(0),
                        });
                        let session = Reranker::builder(source.clone())
                            .executor(kind)
                            .build()
                            .query(req.clone());
                        (session, source)
                    };
                    let case = format!(
                        "seed {seed}, {shape:?}, {kind:?}, {dir:?}, {}",
                        algorithm.paper_name()
                    );
                    let (mut healthy, source) = open(u64::MAX);
                    assert_eq!(drain_through_failures(&mut healthy), (want.clone(), 0));
                    let fail_at = rng.gen_range(0..source.probes.load(Ordering::SeqCst));

                    let (mut session, _) = open(fail_at);
                    let (got, failed) = drain_through_failures(&mut session);
                    assert_eq!(failed, 1, "{case}: probe {fail_at} fails one step");
                    assert_eq!(got, want, "{case}: order after probe {fail_at} failed");
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 4 * 2 * 2 * 7);
}
