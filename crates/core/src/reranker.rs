//! The top-level facade: configure once, then run reranking sessions.

use std::sync::Arc;

use qr2_webdb::{Schema, SearchError, SearchQuery, TopKInterface, Tuple};

use crate::budget::{Budget, StepOutcome};
use crate::dense_index::DenseIndex;
use crate::executor::{ExecutorKind, SearchCtx};
use crate::function::{LinearFunction, RankingFunction, SortDir};
use crate::md::{MdAlgo, MdReranker};
use crate::normalize::{calibrate, Normalizer};
use crate::oned::{OneDAlgo, OneDimStream};
use crate::stats::QueryStats;

/// Which of the paper's algorithms processes the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// `1D-BASELINE`.
    OneDBaseline,
    /// `1D-BINARY`.
    OneDBinary,
    /// `1D-RERANK`.
    OneDRerank,
    /// `MD-BASELINE`.
    MdBaseline,
    /// `MD-BINARY`.
    MdBinary,
    /// `MD-RERANK`.
    MdRerank,
    /// `MD-TA`.
    MdTa,
}

impl Algorithm {
    /// True for the 1D family.
    pub fn is_one_dimensional(self) -> bool {
        matches!(
            self,
            Algorithm::OneDBaseline | Algorithm::OneDBinary | Algorithm::OneDRerank
        )
    }

    /// Display name as used in the paper.
    pub fn paper_name(self) -> &'static str {
        match self {
            Algorithm::OneDBaseline => "1D-BASELINE",
            Algorithm::OneDBinary => "1D-BINARY",
            Algorithm::OneDRerank => "1D-RERANK",
            Algorithm::MdBaseline => "MD-BASELINE",
            Algorithm::MdBinary => "MD-BINARY",
            Algorithm::MdRerank => "MD-RERANK",
            Algorithm::MdTa => "MD-TA",
        }
    }
}

/// A reranking request: filter + user function + algorithm.
#[derive(Debug, Clone)]
pub struct RerankRequest {
    /// The user's filter (the "filtering section" of the UI).
    pub filter: SearchQuery,
    /// The user's ranking function (the "ranking section").
    pub function: RankingFunction,
    /// Algorithm choice.
    pub algorithm: Algorithm,
}

/// Builder for [`Reranker`].
pub struct RerankerBuilder {
    db: Arc<dyn TopKInterface>,
    dense: Option<Arc<DenseIndex>>,
    executor: ExecutorKind,
    norm: Normalizer,
    calibration_queries: usize,
}

impl RerankerBuilder {
    /// Share a specific dense index (e.g. one index across rerankers over
    /// the same source). Defaults to a fresh, empty index.
    #[must_use]
    pub fn dense_index(mut self, dense: Arc<DenseIndex>) -> Self {
        self.dense = Some(dense);
        self
    }

    /// Configure the executor (default: parallel with fan-out 8).
    #[must_use]
    pub fn executor(mut self, kind: ExecutorKind) -> Self {
        self.executor = kind;
        self
    }

    /// Discover true min/max for these attributes now (costs queries
    /// once; improves normalization fidelity), or fail with the first
    /// failed probe's error. Without this the normalizer uses the public
    /// form domains.
    pub fn calibrate(mut self, attrs: &[qr2_webdb::AttrId]) -> Result<Self, SearchError> {
        self.calibration_queries += calibrate(&*self.db, &self.norm, attrs)?;
        Ok(self)
    }

    /// Build the reranker.
    pub fn build(self) -> Reranker {
        Reranker {
            db: self.db,
            dense: self
                .dense
                .unwrap_or_else(|| Arc::new(DenseIndex::in_memory())),
            norm: Arc::new(self.norm),
            executor: self.executor,
            calibration_queries: self.calibration_queries,
        }
    }
}

/// The QR2 reranking service core: holds the database handle, the shared
/// dense index, the normalizer, and executor configuration. One `Reranker`
/// serves many concurrent sessions.
pub struct Reranker {
    db: Arc<dyn TopKInterface>,
    dense: Arc<DenseIndex>,
    norm: Arc<Normalizer>,
    executor: ExecutorKind,
    calibration_queries: usize,
}

impl Reranker {
    /// Start building a reranker over `db`.
    pub fn builder(db: Arc<dyn TopKInterface>) -> RerankerBuilder {
        RerankerBuilder {
            norm: Normalizer::from_domains(db.schema()),
            db,
            dense: None,
            executor: ExecutorKind::Parallel { fanout: 8 },
            calibration_queries: 0,
        }
    }

    /// The database schema.
    pub fn schema(&self) -> &Schema {
        self.db.schema()
    }

    /// The shared dense index.
    pub fn dense_index(&self) -> &Arc<DenseIndex> {
        &self.dense
    }

    /// The normalizer in use.
    pub fn normalizer(&self) -> &Arc<Normalizer> {
        &self.norm
    }

    /// Queries spent on min/max calibration at build time.
    pub fn calibration_queries(&self) -> usize {
        self.calibration_queries
    }

    /// Start a reranking session.
    ///
    /// Function/algorithm combinations are reconciled automatically:
    /// a single-attribute linear function runs on the 1D engines and a
    /// [`crate::OneDimFunction`] runs on the MD engines as a ±1-weight linear
    /// function. The only rejected combination — a multi-attribute function
    /// on a 1D algorithm — panics, since no sound conversion exists.
    pub fn query(&self, req: RerankRequest) -> RerankSession {
        req.function
            .validate(self.schema())
            .unwrap_or_else(|e| panic!("invalid ranking function: {e}"));
        let ctx = SearchCtx::new(self.db.clone(), self.executor);
        let inner = if req.algorithm.is_one_dimensional() {
            let (attr, dir) = match &req.function {
                RankingFunction::OneDim(f) => (f.attr, f.dir),
                RankingFunction::Linear(f) => {
                    assert!(
                        f.dims() == 1,
                        "algorithm {} is one-dimensional but the ranking function has {} attributes",
                        req.algorithm.paper_name(),
                        f.dims()
                    );
                    let (attr, w) = f.weights()[0];
                    (
                        attr,
                        if w >= 0.0 {
                            SortDir::Asc
                        } else {
                            SortDir::Desc
                        },
                    )
                }
            };
            let algo = match req.algorithm {
                Algorithm::OneDBaseline => OneDAlgo::Baseline,
                Algorithm::OneDBinary => OneDAlgo::Binary,
                Algorithm::OneDRerank => OneDAlgo::Rerank,
                _ => unreachable!("is_one_dimensional checked"),
            };
            let dense = (algo == OneDAlgo::Rerank).then(|| self.dense.clone());
            SessionInner::OneD(OneDimStream::new(
                ctx.clone(),
                req.filter,
                attr,
                dir,
                algo,
                dense,
            ))
        } else {
            let f = match &req.function {
                RankingFunction::Linear(f) => f.clone(),
                RankingFunction::OneDim(f) => {
                    let w = match f.dir {
                        SortDir::Asc => 1.0,
                        SortDir::Desc => -1.0,
                    };
                    LinearFunction::new(vec![(f.attr, w)])
                        .expect("±1 single-attribute function is valid")
                }
            };
            let algo = match req.algorithm {
                Algorithm::MdBaseline => MdAlgo::Baseline,
                Algorithm::MdBinary => MdAlgo::Binary,
                Algorithm::MdRerank => MdAlgo::Rerank,
                Algorithm::MdTa => MdAlgo::Ta,
                _ => unreachable!("non-1D checked"),
            };
            let dense = matches!(algo, MdAlgo::Rerank | MdAlgo::Ta).then(|| self.dense.clone());
            SessionInner::Md(MdReranker::new(
                ctx.clone(),
                req.filter,
                f,
                self.norm.clone(),
                algo,
                dense,
            ))
        };
        RerankSession {
            ctx,
            inner,
            carried: Vec::new(),
        }
    }
}

enum SessionInner {
    OneD(OneDimStream),
    Md(MdReranker),
}

/// A live reranking session: the budgeted step primitive
/// ([`advance`](RerankSession::advance)), its blocking `next`/`next_page`
/// conveniences, and the statistics panel.
pub struct RerankSession {
    ctx: SearchCtx,
    inner: SessionInner,
    /// Tuples a failed step produced, in order; the next step serves them
    /// first.
    carried: Vec<Tuple>,
}

impl RerankSession {
    /// The execution primitive: run until the [`Budget`] is spent, the
    /// tuple target is met, the stream is exhausted, or the session is
    /// cancelled — whichever comes first — and report which in the
    /// [`StepOutcome`] along with the incremental [`QueryStats`] delta.
    ///
    /// Sessions are resumable: a later `advance` continues exactly where
    /// this one stopped (frontier, bisection stack, index and buffer state
    /// persist across both the 1D and MD engine families), so slicing a
    /// run into budgeted steps yields the identical tuple order and
    /// identical total query cost as one unbudgeted run. Tuples already discovered are served
    /// without spending budget; the query cap is checked between
    /// discoveries, so a step may overshoot it by the cost of completing
    /// the one in-flight discovery but never starts a new one past it.
    ///
    /// The session's cancellation is the ambient [`SessionCtx`]'s token
    /// ([`crate::current`]): the step stops between discoveries once it
    /// fires. A failed probe ends the step as [`StepOutcome::Failed`]; the
    /// tuples it had produced are served first by the next `advance`. A
    /// probe that fails [`SearchError::Cancelled`] after that token fired
    /// ends it as [`StepOutcome::Cancelled`].
    ///
    /// [`SessionCtx`]: crate::SessionCtx
    pub fn advance(&mut self, budget: Budget) -> StepOutcome {
        let cancel = crate::current().cancel;
        let start = self.ctx.snapshot();
        let delta = |ctx: &SearchCtx| ctx.delta_since(&start);
        let mut out = std::mem::take(&mut self.carried);
        if let Some(target) = budget.tuples {
            if out.len() > target {
                self.carried = out.split_off(target);
            }
        }
        loop {
            if cancel.is_cancelled() {
                return StepOutcome::Cancelled {
                    partial: out,
                    stats: delta(&self.ctx),
                };
            }
            if budget.tuples.is_some_and(|target| out.len() >= target) {
                return StepOutcome::Ready {
                    tuples: out,
                    stats: delta(&self.ctx),
                };
            }
            // Buffered tuples are free; only a fresh discovery spends
            // budget. (The buffer scan is skipped entirely on unbudgeted
            // runs — `next()`/`next_page()` pay nothing for it.)
            if let Some(cap) = budget.queries {
                if self.buffered() == 0 {
                    let now_queries = self.ctx.snapshot().queries;
                    if now_queries - start.queries >= cap {
                        return StepOutcome::BudgetExhausted {
                            partial: out,
                            stats: delta(&self.ctx),
                        };
                    }
                }
            }
            match self.engine_next() {
                Ok(Some(t)) => out.push(t),
                Ok(None) => {
                    return StepOutcome::Done {
                        partial: out,
                        stats: delta(&self.ctx),
                    }
                }
                // This session was cancelled under its probe: the step
                // ends as a cancellation, not as a source failure. A
                // `Cancelled` this session did not ask for is a failure.
                Err(SearchError::Cancelled) if cancel.is_cancelled() => {
                    return StepOutcome::Cancelled {
                        partial: out,
                        stats: delta(&self.ctx),
                    }
                }
                Err(error) => {
                    self.carried = out;
                    return StepOutcome::Failed {
                        stats: delta(&self.ctx),
                        error,
                    };
                }
            }
        }
    }

    /// The blocking get-next primitive (an unbudgeted
    /// [`advance`](RerankSession::advance) for one tuple): the next tuple,
    /// `None` once the stream is exhausted or cancelled, or the error of a
    /// failed probe.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Tuple>, SearchError> {
        Ok(self.next_page(1)?.pop())
    }

    /// Fetch the next `k` tuples (one results page; an unbudgeted
    /// [`advance`](RerankSession::advance)), or the error of a failed
    /// probe (the page's tuples are kept for the next call).
    pub fn next_page(&mut self, k: usize) -> Result<Vec<Tuple>, SearchError> {
        match self.advance(Budget::tuples(k)) {
            StepOutcome::Failed { error, .. } => Err(error),
            step => Ok(step.into_tuples()),
        }
    }

    /// Tuples served so far.
    pub fn served(&self) -> usize {
        let produced = match &self.inner {
            SessionInner::OneD(s) => s.served(),
            SessionInner::Md(s) => s.served(),
        };
        produced - self.carried.len()
    }

    /// Tuples already discovered that upcoming calls serve without
    /// issuing any web-DB query.
    pub fn buffered(&self) -> usize {
        let engine = match &self.inner {
            SessionInner::OneD(s) => s.buffered(),
            SessionInner::Md(s) => s.buffered(),
        };
        self.carried.len() + engine
    }

    /// The statistics panel: per-round query counts, totals, wall time.
    pub fn stats(&self) -> QueryStats {
        self.ctx.stats()
    }

    fn engine_next(&mut self) -> Result<Option<Tuple>, SearchError> {
        match &mut self.inner {
            SessionInner::OneD(s) => s.next(),
            SessionInner::Md(s) => s.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CancelToken;
    use crate::function::OneDimFunction;
    use qr2_webdb::{AttrId, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface};

    fn db() -> Arc<SimulatedWebDb> {
        let schema = Schema::builder()
            .numeric("price", 0.0, 100.0)
            .numeric("size", 0.0, 10.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..50 {
            let price = ((i * 13) % 50) as f64 * 2.0;
            let size = (i % 10) as f64;
            tb.push_row(vec![price, size]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("price", 1.0)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, 6))
    }

    fn all_algorithms() -> [Algorithm; 7] {
        [
            Algorithm::OneDBaseline,
            Algorithm::OneDBinary,
            Algorithm::OneDRerank,
            Algorithm::MdBaseline,
            Algorithm::MdBinary,
            Algorithm::MdRerank,
            Algorithm::MdTa,
        ]
    }

    #[test]
    fn every_algorithm_serves_the_same_top1_for_1d_ascending() {
        let d = db();
        let r = Reranker::builder(d.clone())
            .executor(ExecutorKind::Sequential)
            .build();
        let price = r.schema().expect_id("price");
        let mut tops = Vec::new();
        for algo in all_algorithms() {
            let mut s = r.query(RerankRequest {
                filter: SearchQuery::all(),
                function: OneDimFunction::asc(price).into(),
                algorithm: algo,
            });
            let t = s.next().unwrap().expect("tuple");
            tops.push((algo, t.num_at(price)));
        }
        for (algo, v) in &tops {
            assert_eq!(*v, 0.0, "{} found wrong top-1", algo.paper_name());
        }
    }

    #[test]
    fn next_page_fetches_k() {
        let d = db();
        let r = Reranker::builder(d)
            .executor(ExecutorKind::Sequential)
            .build();
        let price = r.schema().expect_id("price");
        let mut s = r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(price).into(),
            algorithm: Algorithm::OneDBinary,
        });
        let page = s.next_page(10).unwrap();
        assert_eq!(page.len(), 10);
        // Ordered ascending by price.
        for w in page.windows(2) {
            assert!(w[0].num_at(price) <= w[1].num_at(price));
        }
        assert_eq!(s.served(), 10);
        assert!(s.stats().total_queries() > 0);
    }

    #[test]
    fn linear_single_attr_runs_on_1d_engines() {
        let d = db();
        let r = Reranker::builder(d)
            .executor(ExecutorKind::Sequential)
            .build();
        let schema = r.schema().clone();
        let f = LinearFunction::from_names(&schema, &[("price", -1.0)]).unwrap();
        let mut s = r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: f.into(),
            algorithm: Algorithm::OneDBinary,
        });
        // weight -1 ⇒ descending ⇒ max price first.
        let price = schema.expect_id("price");
        assert_eq!(s.next().unwrap().unwrap().num_at(price), 98.0);
    }

    #[test]
    fn onedim_function_runs_on_md_engines() {
        let d = db();
        let r = Reranker::builder(d)
            .executor(ExecutorKind::Sequential)
            .build();
        let price = r.schema().expect_id("price");
        let mut s = r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::desc(price).into(),
            algorithm: Algorithm::MdBinary,
        });
        assert_eq!(s.next().unwrap().unwrap().num_at(price), 98.0);
    }

    #[test]
    #[should_panic(expected = "one-dimensional")]
    fn multi_attr_function_on_1d_algorithm_panics() {
        let d = db();
        let r = Reranker::builder(d)
            .executor(ExecutorKind::Sequential)
            .build();
        let schema = r.schema().clone();
        let f = LinearFunction::from_names(&schema, &[("price", 1.0), ("size", 1.0)]).unwrap();
        r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: f.into(),
            algorithm: Algorithm::OneDBinary,
        });
    }

    #[test]
    #[should_panic(expected = "invalid ranking function")]
    fn out_of_schema_attr_panics() {
        let d = db();
        let r = Reranker::builder(d)
            .executor(ExecutorKind::Sequential)
            .build();
        r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(AttrId(42)).into(),
            algorithm: Algorithm::OneDBinary,
        });
    }

    #[test]
    fn calibration_improves_normalizer_and_costs_queries() {
        let d = db();
        let price = d.schema().expect_id("price");
        let r = Reranker::builder(d).calibrate(&[price]).unwrap().build();
        assert!(r.calibration_queries() > 0);
        let stats = r.normalizer().stats(price);
        assert_eq!((stats.min, stats.max), (0.0, 98.0));
    }

    #[test]
    fn sessions_share_the_dense_index() {
        let d = db();
        let r = Reranker::builder(d)
            .executor(ExecutorKind::Sequential)
            .build();
        let price = r.schema().expect_id("price");
        let req = RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(price).into(),
            algorithm: Algorithm::OneDRerank,
        };
        let mut s1 = r.query(req.clone());
        while s1.next().unwrap().is_some() {}
        let after_first = r.dense_index().stats();
        let mut s2 = r.query(req);
        while s2.next().unwrap().is_some() {}
        let after_second = r.dense_index().stats();
        assert!(
            after_second.misses == after_first.misses || after_second.hits > after_first.hits,
            "second session must reuse the shared index"
        );
    }

    #[test]
    fn budgeted_slices_match_unbudgeted_run_for_every_algorithm() {
        // Identical tuple order AND identical total query cost, for any
        // slice size: advance never re-issues a query it already spent.
        let d = db();
        let r = Reranker::builder(d.clone())
            .executor(ExecutorKind::Sequential)
            .build();
        let price = r.schema().expect_id("price");
        for algo in all_algorithms() {
            let req = RerankRequest {
                filter: SearchQuery::all(),
                function: OneDimFunction::asc(price).into(),
                algorithm: algo,
            };
            let mut plain = r.query(req.clone());
            let want: Vec<_> = plain.next_page(20).unwrap().iter().map(|t| t.id).collect();
            let want_cost = plain.stats().total_queries();

            for slice in [1, 3] {
                let mut s = r.query(req.clone());
                let mut got = Vec::new();
                loop {
                    let step = s.advance(Budget::queries(slice).with_tuples(20 - got.len()));
                    let done = step.is_done();
                    got.extend(step.into_tuples().iter().map(|t| t.id));
                    if got.len() >= 20 || done {
                        break;
                    }
                    assert!(
                        got.len() < 20,
                        "only budget exhaustion may end a short step here"
                    );
                }
                assert_eq!(got, want, "{} slice={slice}: order", algo.paper_name());
                assert_eq!(
                    s.stats().total_queries(),
                    want_cost,
                    "{} slice={slice}: cost",
                    algo.paper_name()
                );
            }
        }
    }

    #[test]
    fn budget_exhaustion_resumes_without_respending() {
        let d = db();
        let r = Reranker::builder(d.clone())
            .executor(ExecutorKind::Sequential)
            .build();
        let price = r.schema().expect_id("price");
        let mut s = r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(price).into(),
            algorithm: Algorithm::OneDBinary,
        });
        // A zero-query budget with a cold buffer buys nothing.
        let step = s.advance(Budget::queries(0).with_tuples(5));
        assert!(step.is_budget_exhausted());
        assert!(step.tuples().is_empty());
        assert_eq!(s.stats().total_queries(), 0);

        // One query of budget starts a discovery; the discovery runs to
        // completion (atomic), buffering a chunk.
        let step = s.advance(Budget::queries(1).with_tuples(50));
        assert!(step.is_budget_exhausted());
        assert!(
            !step.tuples().is_empty(),
            "the budget bought a partial page"
        );
        let spent = s.stats().total_queries();
        assert!(spent >= 1);
        let served_so_far = s.served();

        // Resuming with zero budget serves only what is already buffered —
        // no query is re-issued.
        let buffered = s.buffered();
        let step = s.advance(Budget::queries(0).with_tuples(buffered + 50));
        assert_eq!(step.tuples().len(), buffered);
        assert_eq!(step.stats_delta().total_queries(), 0);
        assert_eq!(s.stats().total_queries(), spent, "no re-spend on resume");
        assert_eq!(s.served(), served_so_far + buffered);
    }

    #[test]
    fn advance_reports_incremental_stats_deltas() {
        let d = db();
        let r = Reranker::builder(d)
            .executor(ExecutorKind::Sequential)
            .build();
        let price = r.schema().expect_id("price");
        // Deltas across steps must sum to the cumulative ledger.
        let mut summed = 0;
        let mut s = r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(price).into(),
            algorithm: Algorithm::OneDBinary,
        });
        loop {
            let step = s.advance(Budget::queries(2).with_tuples(usize::MAX));
            summed += step.stats_delta().total_queries();
            if step.is_done() {
                break;
            }
        }
        assert_eq!(summed, s.stats().total_queries());
        assert!(summed > 0);
    }

    #[test]
    fn cancellation_stops_between_discoveries_and_sticks() {
        let d = db();
        let r = Reranker::builder(d)
            .executor(ExecutorKind::Sequential)
            .build();
        let price = r.schema().expect_id("price");
        let mut s = r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(price).into(),
            algorithm: Algorithm::OneDBinary,
        });
        let token = CancelToken::new();
        let ctx = crate::SessionCtx::new(7, Default::default(), token.clone());
        crate::with_session(ctx, || {
            assert_eq!(
                s.next_page(3).unwrap().len(),
                3,
                "runs normally before cancel"
            );
            token.cancel();
            let step = s.advance(Budget::tuples(3));
            assert_eq!(step.label(), "cancelled");
            assert!(step.tuples().is_empty());
            assert_eq!(step.stats_delta().total_queries(), 0);
            // Sticks: the wrappers observe it too.
            assert!(s.next().unwrap().is_none());
            assert!(s.next_page(5).unwrap().is_empty());
        });
    }

    #[test]
    fn done_step_carries_the_final_partial_page() {
        let d = db(); // 50 tuples
        let r = Reranker::builder(d)
            .executor(ExecutorKind::Sequential)
            .build();
        let price = r.schema().expect_id("price");
        let mut s = r.query(RerankRequest {
            filter: SearchQuery::all(),
            function: OneDimFunction::asc(price).into(),
            algorithm: Algorithm::OneDBinary,
        });
        let first = s.advance(Budget::tuples(45));
        assert_eq!(first.label(), "complete");
        assert_eq!(first.tuples().len(), 45);
        let last = s.advance(Budget::tuples(45));
        assert!(last.is_done());
        assert_eq!(last.tuples().len(), 5, "final step carries the tail");
        assert!(s.advance(Budget::UNLIMITED).is_done());
        assert!(s.advance(Budget::UNLIMITED).tuples().is_empty());
    }

    /// Fails its `fail_at`-th probe (counted from 0), once, with `error`.
    struct FailsOnce {
        inner: Arc<SimulatedWebDb>,
        fail_at: usize,
        error: SearchError,
        probes: std::sync::atomic::AtomicUsize,
    }

    impl TopKInterface for FailsOnce {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn system_k(&self) -> usize {
            self.inner.system_k()
        }
        fn search(&self, q: &SearchQuery) -> qr2_webdb::TopKResponse {
            self.inner.search(q)
        }
        fn ledger(&self) -> &qr2_webdb::QueryLedger {
            self.inner.ledger()
        }
        fn probe(&self, q: &SearchQuery) -> Result<qr2_webdb::Answer, SearchError> {
            let n = self
                .probes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n == self.fail_at {
                // Like the scheduler, fail `Cancelled` as the ambient
                // session's cancellation arrives.
                if self.error == SearchError::Cancelled {
                    crate::current().cancel.cancel();
                }
                return Err(self.error.clone());
            }
            Ok(qr2_webdb::Answer::paid(self.inner.search(q)))
        }
    }

    /// A source outage: the error a failed probe ends a step with.
    const OUTAGE: SearchError = SearchError::Unavailable {
        retry_after: std::time::Duration::ZERO,
    };

    /// A `1D-BINARY` session ascending on price whose `fail_at`-th probe
    /// fails with `error`.
    fn failing_session(
        d: &Arc<SimulatedWebDb>,
        fail_at: usize,
        error: SearchError,
    ) -> (RerankSession, Arc<FailsOnce>) {
        let price = d.schema().expect_id("price");
        let source = Arc::new(FailsOnce {
            inner: d.clone(),
            fail_at,
            error,
            probes: Default::default(),
        });
        let s = Reranker::builder(source.clone())
            .executor(ExecutorKind::Sequential)
            .build()
            .query(RerankRequest {
                filter: SearchQuery::all(),
                function: OneDimFunction::asc(price).into(),
                algorithm: Algorithm::OneDBinary,
            });
        (s, source)
    }

    #[test]
    fn a_failed_step_keeps_its_tuples_for_the_next_steps() {
        use std::sync::atomic::Ordering::SeqCst;
        let d = db();
        let (mut healthy, _) = failing_session(&d, usize::MAX, OUTAGE);
        let want = healthy.next_page(50).unwrap();
        assert_eq!(want.len(), 50);

        // Fail the first probe after the first chunk: a ten-tuple page
        // has found that chunk's tuples when the failure stops it.
        let (mut sizing, counter) = failing_session(&d, usize::MAX, OUTAGE);
        let chunk = sizing.next_page(1).unwrap().len() + sizing.buffered();
        assert!((3..10).contains(&chunk), "the first chunk holds {chunk}");
        let (mut s, _) = failing_session(&d, counter.probes.load(SeqCst), OUTAGE);
        assert_eq!(s.next_page(10), Err(OUTAGE));
        assert_eq!(s.buffered(), chunk, "the failed page's tuples are kept");
        assert_eq!(s.served(), 0);
        // A smaller page than the kept tuples serves a prefix of them.
        let mut got = s.next_page(2).unwrap();
        assert_eq!((s.served(), s.buffered()), (2, chunk - 2));
        got.extend(s.next_page(48).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn a_cancelled_probe_ends_the_step_as_cancelled() {
        let d = db();
        let (mut healthy, _) = failing_session(&d, usize::MAX, OUTAGE);
        let want = healthy.next_page(50).unwrap();

        // The session is deleted while its fourth probe waits: the probe
        // fails `Cancelled` under the session's own context.
        let (mut s, _) = failing_session(&d, 3, SearchError::Cancelled);
        let token = CancelToken::new();
        let ctx = crate::SessionCtx::new(7, Default::default(), token.clone());
        let step = crate::with_session(ctx.clone(), || s.advance(Budget::tuples(50)));
        let StepOutcome::Cancelled { partial, .. } = step else {
            panic!("a cancelled probe is a cancellation, not a failure: {step:?}");
        };
        assert_eq!(partial, want[..partial.len()]);
        assert!(token.is_cancelled());
        assert!(matches!(
            crate::with_session(ctx, || s.advance(Budget::tuples(50))),
            StepOutcome::Cancelled { .. }
        ));
    }

    #[test]
    fn a_probe_cancelled_for_another_session_fails_the_step() {
        let d = db();
        let (mut healthy, _) = failing_session(&d, usize::MAX, OUTAGE);
        let want = healthy.next_page(50).unwrap();

        // A `Cancelled` shared from another session's probe (this one
        // runs under the anonymous context, whose token never fires): the
        // step fails and keeps its tuples, and the next step resumes at
        // the failed probe's region.
        let (mut s, _) = failing_session(&d, 3, SearchError::Cancelled);
        let step = s.advance(Budget::tuples(50));
        let StepOutcome::Failed { error, .. } = step else {
            panic!("this session was not cancelled: {step:?}");
        };
        assert_eq!(error, SearchError::Cancelled);
        assert_eq!(s.next_page(50).unwrap(), want);
    }

    #[test]
    fn a_failed_calibration_probe_is_the_builders_error() {
        let d = db();
        let price = d.schema().expect_id("price");
        let source = Arc::new(FailsOnce {
            inner: d,
            fail_at: 3,
            error: OUTAGE,
            probes: Default::default(),
        });
        let got = Reranker::builder(source).calibrate(&[price]).map(|_| ());
        assert_eq!(got, Err(OUTAGE));
    }

    #[test]
    fn paper_names() {
        assert_eq!(Algorithm::MdTa.paper_name(), "MD-TA");
        assert!(Algorithm::OneDRerank.is_one_dimensional());
        assert!(!Algorithm::MdRerank.is_one_dimensional());
    }
}
