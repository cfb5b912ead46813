//! One-dimensional reranking: `ORDER BY attr ASC|DESC` over a hidden top-k
//! interface.
//!
//! * `1D-BASELINE` — [`OneDimStream`]: narrow `[lo, best)` with the best
//!   returned value as the new bound; fast when the hidden ranking agrees
//!   with the user's, linear-ish when it opposes it. It keeps its own
//!   finder because it is the paper's naive baseline.
//! * `1D-BINARY` and `1D-RERANK` run on the MD region engine,
//!   [`FrontierEngine::one_dim`](crate::md::FrontierEngine::one_dim): the
//!   ±1 function on the attribute. An interval is a one-dimensional box
//!   and its bound is its preferred end, so the engine's best-first order
//!   is preferred-first bisection. A page that proves a tie splits its
//!   interval three ways at the tied value, a part holding the whole page
//!   of its parent is split before anyone probes it, and `1D-RERANK`
//!   crawls an interval narrower than δ into the shared
//!   [`DenseIndex`](crate::DenseIndex) once. A round holds one cell, since
//!   the cells are intervals in serving order (docs/PERF.md, "The 1D
//!   bisection stack").
//!
//! Every session's buffer of completely known tuples is the paper's
//! get-next primitive (the user-level session cache).

mod stream;

pub use stream::OneDimStream;

/// Default dense-region threshold for `1D-RERANK`: an interval narrower
/// than this fraction of the attribute's schema domain that still
/// overflows is declared dense and crawled into the index.
///
/// δ covers clusters: more than system-k distinct values packed into a
/// sliver of the domain. Exact ties do not wait for it: a page that proves
/// a tie splits the point off at its value, and a point that overflows is
/// enumerated whatever δ is. The default is deliberately near-point (2⁻²⁶
/// of the domain), so eager crawling is reserved for value-mass regions
/// where splitting cannot make progress. Wider thresholds trade
/// first-session cost for warm-session savings on clustered data;
/// experiment A1 sweeps this knob (docs/PERF.md, "The 1D bisection
/// stack"). On heavy-tailed attributes (prices), a wide δ misfires: the
/// bulk of the inventory sits in a narrow band near the cheap end and
/// would be crawled wholesale on first contact.
pub const DEFAULT_DENSE_DELTA_1D: f64 = 1.0 / (1u64 << 26) as f64;

/// The 1D sessions' behaviour, driven through the session path
/// ([`Reranker::query`](crate::Reranker::query)): 1D-BASELINE on its own
/// finder, 1D-BINARY and 1D-RERANK on the region engine.
#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use qr2_webdb::{
        AttrId, QueryLedger, RangePred, Schema, SearchQuery, SimulatedWebDb, SystemRanking,
        TableBuilder, TopKInterface, TopKResponse, TupleId,
    };

    use crate::executor::{ExecutorKind, SearchCtx};
    use crate::function::{OneDimFunction, SortDir};
    use crate::md::FrontierEngine;
    use crate::reranker::{Algorithm, RerankRequest, RerankSession, Reranker};
    use crate::DenseIndex;

    const X: AttrId = AttrId(0);
    const ALL: [Algorithm; 3] = [
        Algorithm::OneDBaseline,
        Algorithm::OneDBinary,
        Algorithm::OneDRerank,
    ];
    const SEARCHING: [Algorithm; 2] = [Algorithm::OneDBinary, Algorithm::OneDRerank];
    const DIRS: [SortDir; 2] = [SortDir::Asc, SortDir::Desc];
    const EXECUTORS: [ExecutorKind; 2] = [
        ExecutorKind::Sequential,
        ExecutorKind::Parallel { fanout: 4 },
    ];

    /// A table of `xs` on `x ∈ [0, 100]` (row `i` has `y = i`), under the
    /// hidden rank `x` ascending weight `rank_x`.
    fn db_ranked(xs: &[f64], system_k: usize, rank_x: f64) -> Arc<SimulatedWebDb> {
        let schema = Schema::builder()
            .numeric("x", 0.0, 100.0)
            .numeric("y", 0.0, 1000.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for (i, &x) in xs.iter().enumerate() {
            tb.push_row(vec![x, i as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", rank_x)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, system_k))
    }

    fn db(xs: &[f64], system_k: usize) -> Arc<SimulatedWebDb> {
        db_ranked(xs, system_k, 1.0)
    }

    /// A session of `algorithm` ordering `filter`'s matches by `x` in `dir`,
    /// with its own reranker (and so its own dense index).
    fn session(
        db: Arc<dyn TopKInterface>,
        kind: ExecutorKind,
        algorithm: Algorithm,
        dir: SortDir,
        filter: SearchQuery,
    ) -> RerankSession {
        Reranker::builder(db)
            .executor(kind)
            .build()
            .query(RerankRequest {
                filter,
                function: OneDimFunction { attr: X, dir }.into(),
                algorithm,
            })
    }

    /// Ground-truth order by (value, id).
    fn oracle(d: &SimulatedWebDb, filter: &SearchQuery, dir: SortDir) -> Vec<TupleId> {
        let t = d.ground_truth();
        let mut rows = t.matching_rows(filter);
        rows.sort_by(|&a, &b| {
            let (va, vb) = (t.num(a, X), t.num(b, X));
            let ord = match dir {
                SortDir::Asc => va.total_cmp(&vb),
                SortDir::Desc => vb.total_cmp(&va),
            };
            ord.then(a.cmp(&b))
        });
        rows.into_iter().map(|r| TupleId(r as u32)).collect()
    }

    /// Drain a session, assert it equals the oracle and return its queries.
    fn assert_stream_matches_oracle(
        kind: ExecutorKind,
        d: &Arc<SimulatedWebDb>,
        algo: Algorithm,
        dir: SortDir,
        filter: SearchQuery,
    ) -> usize {
        let mut s = session(d.clone(), kind, algo, dir, filter.clone());
        let got: Vec<TupleId> = std::iter::from_fn(|| s.next().unwrap())
            .map(|t| t.id)
            .collect();
        let want = oracle(d, &filter, dir);
        assert_eq!(
            got, want,
            "{kind:?} {algo:?} {dir:?} stream must equal oracle"
        );
        s.stats().total_queries()
    }

    #[test]
    fn streams_match_oracle_on_distinct_values() {
        let d = db(&[50.0, 10.0, 30.0, 70.0, 90.0, 20.0, 60.0], 2);
        for kind in EXECUTORS {
            for algo in ALL {
                for dir in DIRS {
                    assert_stream_matches_oracle(kind, &d, algo, dir, SearchQuery::all());
                }
            }
        }
    }

    #[test]
    fn streams_match_oracle_with_heavy_ties() {
        let xs: Vec<f64> = (0..25)
            .map(|_| 42.0)
            .chain([10.0, 42.0, 80.0, 5.0, 42.0])
            .collect();
        let d = db(&xs, 4);
        for algo in ALL {
            for dir in DIRS {
                assert_stream_matches_oracle(
                    ExecutorKind::Sequential,
                    &d,
                    algo,
                    dir,
                    SearchQuery::all(),
                );
            }
        }
    }

    #[test]
    fn streams_match_oracle_with_filter() {
        let d = db(&[50.0, 10.0, 30.0, 70.0, 90.0, 20.0, 60.0, 15.0], 2);
        let y = AttrId(1);
        let filter = SearchQuery::all().and_range(y, RangePred::closed(2.0, 6.0));
        for algo in ALL {
            for dir in DIRS {
                assert_stream_matches_oracle(
                    ExecutorKind::Sequential,
                    &d,
                    algo,
                    dir,
                    filter.clone(),
                );
            }
        }
    }

    #[test]
    fn values_that_normalise_alike_still_serve_in_value_order() {
        // On x ∈ [-1, 1], 2e-20 and 1e-20 both normalise to exactly 0.5, so
        // ordering by normalised score would serve them by id (0 before 1).
        let schema = Schema::builder()
            .numeric("x", -1.0, 1.0)
            .numeric("y", 0.0, 10.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for (i, x) in [2e-20, 1e-20, 0.5, -0.5, 0.75, 0.25]
            .into_iter()
            .enumerate()
        {
            tb.push_row(vec![x, i as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("y", 1.0)]).unwrap();
        let d = Arc::new(SimulatedWebDb::new(tb.build(), ranking, 2));
        assert_eq!(
            oracle(&d, &SearchQuery::all(), SortDir::Asc)[..3],
            [TupleId(3), TupleId(1), TupleId(0)]
        );
        for kind in EXECUTORS {
            for algo in SEARCHING {
                for dir in DIRS {
                    assert_stream_matches_oracle(kind, &d, algo, dir, SearchQuery::all());
                }
            }
        }
    }

    #[test]
    fn empty_filter_yields_nothing() {
        let d = db(&[50.0], 2);
        let filter = SearchQuery::all().and_range(X, RangePred::closed(60.0, 70.0));
        for algo in ALL {
            let mut s = session(
                d.clone(),
                ExecutorKind::Sequential,
                algo,
                SortDir::Asc,
                filter.clone(),
            );
            assert!(s.next().unwrap().is_none());
            assert!(s.next().unwrap().is_none(), "{algo:?} stays exhausted");
        }
    }

    #[test]
    fn session_cache_makes_getnext_cheap() {
        let d = db(&[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5], 5);
        for algo in ALL {
            let mut s = session(
                d.clone(),
                ExecutorKind::Sequential,
                algo,
                SortDir::Asc,
                SearchQuery::all(),
            );
            s.next().unwrap().unwrap();
            let cost_first = s.stats().total_queries();
            // The chunk that produced the first tuple buffered its complete
            // interval; several follow-ups must be free.
            let buffered = s.buffered();
            assert!(buffered > 0, "{algo:?}: the first chunk buffers more");
            for _ in 0..buffered {
                s.next().unwrap().unwrap();
            }
            assert_eq!(
                s.stats().total_queries(),
                cost_first,
                "{algo:?}: buffered get-next must cost zero queries"
            );
        }
    }

    #[test]
    fn served_counter_tracks() {
        let d = db(&[3.0, 1.0, 2.0], 10);
        for algo in ALL {
            let mut s = session(
                d.clone(),
                ExecutorKind::Sequential,
                algo,
                SortDir::Asc,
                SearchQuery::all(),
            );
            assert_eq!(s.served(), 0);
            s.next().unwrap();
            s.next().unwrap();
            assert_eq!(s.served(), 2, "{algo:?}");
        }
    }

    #[test]
    #[should_panic(expected = "must be numeric")]
    fn categorical_attr_rejected() {
        let schema = Schema::builder()
            .numeric("x", 0.0, 1.0)
            .categorical("c", ["a"])
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        tb.push_values(vec![qr2_webdb::Value::Num(0.5), qr2_webdb::Value::Cat(0)])
            .unwrap();
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        let d = Arc::new(SimulatedWebDb::new(tb.build(), ranking, 5));
        let ctx = SearchCtx::new(d, ExecutorKind::Sequential);
        let c = schema.expect_id("c");
        FrontierEngine::one_dim(ctx, SearchQuery::all(), c, SortDir::Asc, None);
    }

    #[test]
    fn binary_beats_baseline_when_anticorrelated() {
        // Hidden rank = x desc; user wants Asc ⇒ baseline pages through from
        // the wrong end while binary homes in logarithmically.
        let xs: Vec<f64> = (0..400).map(|i| i as f64 / 4.0).collect();
        let d = db(&xs, 10);
        let top1 = |algo| {
            let mut s = session(
                d.clone(),
                ExecutorKind::Sequential,
                algo,
                SortDir::Asc,
                SearchQuery::all(),
            );
            s.next().unwrap().unwrap();
            s.stats().total_queries()
        };
        let baseline_cost = top1(Algorithm::OneDBaseline);
        let binary_cost = top1(Algorithm::OneDBinary);
        assert!(
            binary_cost < baseline_cost,
            "binary ({binary_cost}) must beat baseline ({baseline_cost}) when anti-correlated"
        );
    }

    #[test]
    fn baseline_cheap_when_correlated() {
        // Hidden rank = x ascending (same as the user's Asc): the first page
        // holds the minimum, so baseline needs very few queries.
        let xs: Vec<f64> = (0..200).map(|i| f64::from(i) / 2.0).collect();
        let d = db_ranked(&xs, 10, -1.0);
        let mut s = session(
            d,
            ExecutorKind::Sequential,
            Algorithm::OneDBaseline,
            SortDir::Asc,
            SearchQuery::all(),
        );
        assert_eq!(s.next().unwrap().unwrap().num(0), 0.0);
        let queries = s.stats().total_queries();
        assert!(
            queries <= 4,
            "correlated baseline should be cheap, used {queries}"
        );
    }

    #[test]
    fn a_half_holding_exactly_k_matches_still_streams_the_oracle() {
        // system-k 3. The first page holds the three best values, and they
        // are every match in the preferred half of the domain. Probing
        // that half would answer complete; it holds the whole page, so it
        // is split first. That split is the rule's one cost: 6 queries for
        // the whole stream, against 5 for plain bisection.
        for dir in [SortDir::Asc, SortDir::Desc] {
            let xs: Vec<f64> = [10.0, 20.0, 30.0, 60.0, 70.0, 80.0, 90.0]
                .into_iter()
                .map(|x| match dir {
                    SortDir::Asc => x,
                    SortDir::Desc => 100.0 - x,
                })
                .collect();
            let schema = Schema::builder()
                .numeric("x", 0.0, 100.0)
                .numeric("y", 0.0, 1000.0)
                .build();
            let mut tb = TableBuilder::new(schema.clone());
            for (i, &x) in xs.iter().enumerate() {
                tb.push_row(vec![x, i as f64]).unwrap();
            }
            // The hidden rank serves the preferred end first.
            let weight = match dir {
                SortDir::Asc => -1.0,
                SortDir::Desc => 1.0,
            };
            let ranking = SystemRanking::linear(&schema, &[("x", weight)]).unwrap();
            let d = Arc::new(SimulatedWebDb::new(tb.build(), ranking, 3));
            for kind in [
                ExecutorKind::Sequential,
                ExecutorKind::Parallel { fanout: 4 },
            ] {
                for algo in [Algorithm::OneDBinary, Algorithm::OneDRerank] {
                    let queries =
                        assert_stream_matches_oracle(kind, &d, algo, dir, SearchQuery::all());
                    assert!(
                        queries <= 5 + 1,
                        "{kind:?} {algo:?} {dir:?}: {queries} queries, more than one over bisection's 5"
                    );
                }
            }
        }
    }

    #[test]
    fn rerank_serves_a_tie_from_the_shared_index_on_the_next_session() {
        let xs: Vec<f64> = (0..30).map(|_| 25.0).chain([40.0]).collect();
        let d = db(&xs, 3);
        let index = Arc::new(DenseIndex::in_memory());
        let top1 = || {
            let mut s = Reranker::builder(d.clone())
                .executor(ExecutorKind::Sequential)
                .dense_index(index.clone())
                .build()
                .query(RerankRequest {
                    filter: SearchQuery::all(),
                    function: OneDimFunction::asc(X).into(),
                    algorithm: Algorithm::OneDRerank,
                });
            assert_eq!(s.next().unwrap().unwrap().num(0), 25.0);
            assert_eq!(s.buffered(), 29, "the whole tie is one chunk");
            s.stats().total_queries()
        };
        let cold = top1();
        assert_eq!(index.stats().misses, 1);
        let warm = top1();
        assert!(index.stats().hits >= 1);
        assert!(warm < cold, "cached run must be cheaper: {warm} vs {cold}");
    }

    /// Records every probe it answers.
    struct Recording {
        inner: Arc<SimulatedWebDb>,
        log: parking_lot::Mutex<Vec<SearchQuery>>,
    }

    impl TopKInterface for Recording {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn system_k(&self) -> usize {
            self.inner.system_k()
        }
        fn search(&self, q: &SearchQuery) -> TopKResponse {
            self.log.lock().push(q.clone());
            self.inner.search(q)
        }
        fn ledger(&self) -> &QueryLedger {
            self.inner.ledger()
        }
    }

    fn recording(db: SimulatedWebDb) -> Arc<Recording> {
        Arc::new(Recording {
            inner: Arc::new(db),
            log: Default::default(),
        })
    }

    /// `x` in the `Asc` layout: mirrored to `100 - x` for `Desc`.
    fn oriented_value(dir: SortDir, x: f64) -> f64 {
        match dir {
            SortDir::Asc => x,
            SortDir::Desc => 100.0 - x,
        }
    }

    /// 30 ties at `x = tie` (system-k 3) and one tuple at each of `others`,
    /// all mirrored to `100 - x` for `Desc`. The hidden rank is a shuffled
    /// `y`, so a page mixes ties with their neighbours.
    fn tie_source(dir: SortDir, tie: f64, others: &[f64]) -> Arc<Recording> {
        let schema = Schema::builder()
            .numeric("x", 0.0, 100.0)
            .numeric("y", 0.0, 100.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        let xs = std::iter::repeat_n(tie, 30).chain(others.iter().copied());
        for (i, x) in xs.enumerate() {
            tb.push_row(vec![oriented_value(dir, x), ((i * 37) % 100) as f64])
                .unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("y", 1.0)]).unwrap();
        recording(SimulatedWebDb::new(tb.build(), ranking, 3))
    }

    /// The `Asc` layout's `[lo, hi]`, mirrored for `Desc`.
    fn oriented(dir: SortDir, lo: f64, hi: f64) -> RangePred {
        match dir {
            SortDir::Asc => RangePred::closed(lo, hi),
            SortDir::Desc => RangePred::closed(100.0 - hi, 100.0 - lo),
        }
    }

    /// Probes a crawl of the point `[v, v]` costs on its own.
    fn crawl_cost(source: &Arc<Recording>, v: f64) -> usize {
        let ctx = SearchCtx::new(source.clone(), ExecutorKind::Sequential);
        ctx.crawl(&SearchQuery::all().and_point(X, v), None)
            .unwrap();
        std::mem::take(&mut *source.log.lock()).len()
    }

    /// One chunk as a session serves it: the run of tuples one refill makes
    /// servable, by their values (in the `Asc` layout), and the probes it
    /// cost.
    struct Found {
        values: Vec<f64>,
        probes: Vec<SearchQuery>,
    }

    /// Serve `chunks` successive chunks of one session over `filter`.
    fn drain_chunks(
        source: &Arc<Recording>,
        algo: Algorithm,
        dir: SortDir,
        filter: SearchQuery,
        chunks: usize,
    ) -> Vec<Found> {
        let mut s = session(source.clone(), ExecutorKind::Sequential, algo, dir, filter);
        (0..chunks)
            .map(|_| {
                let mut values = Vec::new();
                while let Some(t) = s.next().unwrap() {
                    values.push(oriented_value(dir, t.num(0)));
                    if s.buffered() == 0 {
                        break;
                    }
                }
                values.sort_by(f64::total_cmp);
                Found {
                    values,
                    probes: std::mem::take(&mut *source.log.lock()),
                }
            })
            .collect()
    }

    #[test]
    fn a_tie_on_the_closed_bound_is_split_off_at_its_value() {
        // The first page already proves the tie on the interval's closed
        // end, so the next probe is the point and then its crawl, which
        // splits the point's page instead of probing the point again.
        // Bisecting toward the tie cost 51–53 more probes under Binary and 25
        // under Rerank.
        let others: Vec<f64> = (0..20).map(|i| 30.0 + 3.0 * f64::from(i)).collect();
        for dir in DIRS {
            for algo in SEARCHING {
                let source = tie_source(dir, 25.0, &others);
                let crawl = crawl_cost(&source, oriented(dir, 25.0, 25.0).lo);
                let filter = SearchQuery::all().and_range(X, oriented(dir, 25.0, 100.0));
                let found = drain_chunks(&source, algo, dir, filter, 1);
                assert_eq!(found[0].values, vec![25.0; 30], "{algo:?} {dir:?}: the tie");
                let probes = &found[0].probes;
                assert_eq!(
                    probes.len(),
                    crawl + 1,
                    "{algo:?} {dir:?}: the interval, the point and its crawl"
                );
                let point = SearchQuery::all().and_range(X, oriented(dir, 25.0, 25.0));
                let repeats = probes.iter().filter(|q| **q == point).count();
                assert_eq!(repeats, 1, "{algo:?} {dir:?}: the point is probed once");
            }
        }
    }

    #[test]
    fn a_tie_inside_the_interval_is_split_off_at_its_value() {
        // Once a page proves the tie, the point is split off. Bisecting down
        // to it cost 36 probes besides its crawl under Rerank and 76–77 under
        // Binary. Which chunk holds the tie depends on how finely the prefix
        // before it is found, so it is looked up by value.
        let others: Vec<f64> = (0..20).map(|i| 10.0 + 4.0 * f64::from(i)).collect();
        for dir in DIRS {
            for algo in SEARCHING {
                let source = tie_source(dir, 25.5, &others);
                let crawl = crawl_cost(&source, oriented(dir, 25.5, 25.5).lo);
                let found = drain_chunks(&source, algo, dir, SearchQuery::all(), 6);
                let tie = found
                    .iter()
                    .find(|f| f.values.contains(&25.5))
                    .expect("the tie is among the first chunks");
                assert_eq!(tie.values, vec![25.5; 30], "{algo:?} {dir:?}: the tie");
                let extra = tie.probes.len() - crawl;
                assert!(
                    extra <= 6,
                    "{algo:?} {dir:?}: {extra} probes besides the crawl"
                );
            }
        }
    }

    #[test]
    fn a_dense_chunk_resumes_from_its_siblings() {
        // The tie's siblings stay on the frontier: the next chunk starts at
        // the part strictly past the tie and probes nothing the tie's chunk
        // probed. Bisecting toward the tie cost 29–105 probes besides its
        // crawl, and restarting from the remainder cost the next chunk 4.
        let others: Vec<f64> = (0..20).map(|i| 26.0 + 3.0 * f64::from(i)).collect();
        for dir in DIRS {
            for algo in SEARCHING {
                let case = format!("{algo:?} {dir:?}");
                let source = tie_source(dir, 25.0, &others);
                let crawl = crawl_cost(&source, oriented(dir, 25.0, 25.0).lo);
                let found = drain_chunks(&source, algo, dir, SearchQuery::all(), 2);
                let (tie, next) = (&found[0], &found[1]);
                assert_eq!(tie.values, vec![25.0; 30], "{case}: the tie");
                assert!(
                    tie.probes.len() <= crawl + 5,
                    "{case}: {}",
                    tie.probes.len()
                );
                assert_eq!(next.values, vec![26.0, 29.0], "{case}: the next chunk");
                let first = next.probes[0].range_of(X).expect("a probe on x");
                let past_the_tie = match dir {
                    SortDir::Asc => first.lo == 25.0 && !first.lo_inc,
                    SortDir::Desc => first.hi == 75.0 && !first.hi_inc,
                };
                assert!(past_the_tie, "{case}: resumes from {first:?}");
                assert!(next.probes.len() <= 3, "{case}: {}", next.probes.len());
                assert!(
                    next.probes.iter().all(|q| !tie.probes.contains(q)),
                    "{case}: the resume re-probes an interval"
                );
            }
        }
    }

    #[test]
    fn integral_remainder_never_reaches_back_to_its_excluded_end() {
        // 30 ties at x = 5 (system-k 3) on an integral attribute, then five
        // more values. The hidden rank serves the ties first, so the root's
        // page proves the tie, and the part strictly past it, (5, 100],
        // overflows and is split. It must split as [6, ..], never reaching
        // back to 5.
        for dir in DIRS {
            let schema = Schema::builder()
                .integral("x", 0.0, 100.0)
                .numeric("y", 0.0, 100.0)
                .build();
            let mut tb = TableBuilder::new(schema.clone());
            let xs = std::iter::repeat_n(5.0, 30).chain([6.0, 7.0, 8.0, 9.0, 10.0]);
            for (i, x) in xs.enumerate() {
                tb.push_row(vec![oriented_value(dir, x), i as f64]).unwrap();
            }
            let ranking = SystemRanking::linear(&schema, &[("y", -1.0)]).unwrap();
            let source = recording(SimulatedWebDb::new(tb.build(), ranking, 3));
            for algo in SEARCHING {
                let found = drain_chunks(&source, algo, dir, SearchQuery::all(), 3);
                let tie = found
                    .iter()
                    .position(|f| f.values.contains(&5.0))
                    .expect("the tie is among the first chunks");
                assert_eq!(found[tie].values, vec![5.0; 30], "{algo:?} {dir:?}");
                let after: Vec<&SearchQuery> =
                    found[tie + 1..].iter().flat_map(|f| &f.probes).collect();
                assert!(!after.is_empty(), "{algo:?} {dir:?}: the rest is probed");
                for q in after {
                    let r = q.range_of(X).expect("a probe on x");
                    assert!(
                        !r.matches(oriented_value(dir, 5.0)),
                        "{algo:?} {dir:?}: {r:?} reaches back to the tie"
                    );
                }
            }
        }
    }

    /// 100 tuples whose hidden rank serves the preferred end first, so every
    /// overflowing page lies in its interval's preferred half: at `x = 1, 2,
    /// …` on an integral attribute, else at `x = 0.3 + 0.7·i`.
    fn correlated_source(dir: SortDir, integral: bool) -> Arc<Recording> {
        let builder = Schema::builder();
        let builder = if integral {
            builder.integral("x", 0.0, 100.0)
        } else {
            builder.numeric("x", 0.0, 100.0)
        };
        let schema = builder.numeric("y", 0.0, 100.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..100 {
            let x = if integral {
                f64::from(i + 1)
            } else {
                0.3 + 0.7 * f64::from(i)
            };
            tb.push_row(vec![x, f64::from(i % 7)]).unwrap();
        }
        let weight = match dir {
            SortDir::Asc => -1.0,
            SortDir::Desc => 1.0,
        };
        let ranking = SystemRanking::linear(&schema, &[("x", weight)]).unwrap();
        recording(SimulatedWebDb::new(tb.build(), ranking, 5))
    }

    /// The probes among `probes` whose overflowing page a probe before them,
    /// of a query covering theirs, had already returned.
    fn repeated_pages(source: &Recording, probes: &[SearchQuery]) -> Vec<String> {
        let ids = |q: &SearchQuery| {
            let page = source.inner.search(q);
            page.overflow
                .then(|| page.tuples.iter().map(|t| t.id).collect::<Vec<_>>())
        };
        let pages: Vec<_> = probes.iter().map(ids).collect();
        (0..probes.len())
            .filter(|&i| {
                pages[i].is_some()
                    && (0..i).any(|j| probes[j].covers(&probes[i]) && pages[j] == pages[i])
            })
            .map(|i| format!("probe {i}: {:?}", probes[i].range_of(X)))
            .collect()
    }

    #[test]
    fn no_probe_returns_a_page_a_covering_probe_already_returned() {
        // A part holding the whole page of its parent is split again before
        // anyone probes it. Bisecting into it instead probed it and got the
        // parent's page back: 7–8 of the 25–28 probes here. (A proven tie's
        // point still repeats its page; the tie split is not this rule's.)
        for dir in DIRS {
            for algo in SEARCHING {
                for integral in [false, true] {
                    let source = correlated_source(dir, integral);
                    let found = drain_chunks(&source, algo, dir, SearchQuery::all(), 12);
                    let probes: Vec<SearchQuery> =
                        found.into_iter().flat_map(|f| f.probes).collect();
                    let repeats = repeated_pages(&source, &probes);
                    assert!(
                        repeats.is_empty(),
                        "{algo:?} {dir:?} integral={integral}: {} of {} probes repeat a page: {repeats:?}",
                        repeats.len(),
                        probes.len()
                    );
                }
            }
        }
    }
}
