//! The 1D get-next stream: serves tuples in ranking order, one at a time,
//! issuing queries only when its buffer of completely-known tuples runs
//! out. The buffer is the "session variable (user-level cache)" of the
//! paper's architecture.

use std::collections::VecDeque;

use qr2_webdb::{AttrId, RangePred, SearchError, SearchQuery, Tuple};

use crate::dense_index::DenseIndex;
use crate::executor::SearchCtx;
use crate::function::SortDir;
use crate::oned::chunk::{find_chunk, ChunkParams};
use crate::oned::{OneDAlgo, DEFAULT_DENSE_DELTA_1D};

/// An incremental 1D reranking session.
pub struct OneDimStream {
    ctx: SearchCtx,
    filter: SearchQuery,
    attr: AttrId,
    dir: SortDir,
    algo: OneDAlgo,
    dense: Option<std::sync::Arc<DenseIndex>>,
    delta: f64,
    /// Unexplored remainder of the attribute interval (None = exhausted).
    frontier: Option<RangePred>,
    /// Bisection stack of `Binary`/`Rerank`: the unprobed siblings left by
    /// the last chunk, which partition `frontier`, so the next refill
    /// resumes bisection instead of re-splitting the whole remainder.
    stack: Vec<RangePred>,
    /// Completely known tuples not yet served, in serving order.
    pending: VecDeque<Tuple>,
    served: usize,
}

impl OneDimStream {
    /// Start a session. `filter` is the user's query; the stream orders its
    /// matches by `attr` in direction `dir`.
    pub fn new(
        ctx: SearchCtx,
        filter: SearchQuery,
        attr: AttrId,
        dir: SortDir,
        algo: OneDAlgo,
        dense: Option<std::sync::Arc<DenseIndex>>,
    ) -> Self {
        assert!(
            ctx.schema().attr(attr).kind.is_numeric(),
            "1D ranking attribute must be numeric"
        );
        if algo == OneDAlgo::Rerank {
            assert!(
                dense.is_some(),
                "1D-RERANK requires a dense index; pass DenseIndex::in_memory() at minimum"
            );
        }
        let interval = qr2_crawler::effective_range(ctx.schema(), &filter, attr);
        OneDimStream {
            ctx,
            filter,
            attr,
            dir,
            algo,
            dense,
            delta: DEFAULT_DENSE_DELTA_1D,
            frontier: if interval.is_empty() {
                None
            } else {
                Some(interval)
            },
            stack: Vec::new(),
            pending: VecDeque::new(),
            served: 0,
        }
    }

    /// Override the dense threshold δ (ablation hook).
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(delta >= 0.0);
        self.delta = delta;
        self
    }

    /// Tuples served so far.
    pub fn served(&self) -> usize {
        self.served
    }

    /// Number of tuples already discovered and waiting in the session
    /// cache (served for free by upcoming `next` calls).
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    fn refill(&mut self) -> Result<(), SearchError> {
        while self.pending.is_empty() {
            let Some(interval) = self.frontier else {
                return Ok(());
            };
            let params = ChunkParams {
                ctx: &self.ctx,
                filter: &self.filter,
                attr: self.attr,
                dir: self.dir,
                algo: self.algo,
                dense: self.dense.as_deref(),
                delta: self.delta,
            };
            // Taken out while the finder runs: a search that panics leaves
            // the stream with an empty stack, which restarts bisection from
            // the untouched frontier rather than from a half-popped stack.
            // A failed probe puts the stack back with the failed interval
            // on top, and the frontier stays where it was.
            let mut stack = std::mem::take(&mut self.stack);
            let chunk = find_chunk(&params, interval, &mut stack);
            self.stack = stack;
            let chunk = chunk?;
            // Serving order: by value in `dir`, then by id for determinism.
            let mut tuples = chunk.tuples;
            let attr = self.attr;
            match self.dir {
                SortDir::Asc => tuples.sort_by(|a, b| {
                    a.num_at(attr)
                        .total_cmp(&b.num_at(attr))
                        .then(a.id.cmp(&b.id))
                }),
                SortDir::Desc => tuples.sort_by(|a, b| {
                    b.num_at(attr)
                        .total_cmp(&a.num_at(attr))
                        .then(a.id.cmp(&b.id))
                }),
            }
            self.pending = tuples.into();
            // Advance the frontier past the completed prefix.
            let rem = remainder(interval, chunk.complete, self.dir);
            self.frontier = if rem.is_empty() { None } else { Some(rem) };
        }
        Ok(())
    }

    /// The get-next primitive: the next tuple in ranking order, `None`
    /// when the filter's matches are exhausted, or the error of a failed
    /// probe (the stream then resumes from the same state).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Tuple>, SearchError> {
        if self.pending.is_empty() {
            self.refill()?;
        }
        let Some(t) = self.pending.pop_front() else {
            return Ok(None);
        };
        self.served += 1;
        Ok(Some(t))
    }
}

/// The part of `interval` not covered by the completed prefix.
pub(super) fn remainder(interval: RangePred, complete: RangePred, dir: SortDir) -> RangePred {
    match dir {
        SortDir::Asc => RangePred {
            lo: complete.hi,
            lo_inc: !complete.hi_inc,
            hi: interval.hi,
            hi_inc: interval.hi_inc,
        },
        SortDir::Desc => RangePred {
            lo: interval.lo,
            lo_inc: interval.lo_inc,
            hi: complete.lo,
            hi_inc: !complete.lo_inc,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorKind;
    use qr2_webdb::{Schema, SimulatedWebDb, SystemRanking, TableBuilder, TupleId};

    use std::sync::Arc;

    fn db(xs: &[f64], system_k: usize) -> Arc<SimulatedWebDb> {
        let schema = Schema::builder()
            .numeric("x", 0.0, 100.0)
            .numeric("y", 0.0, 1000.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for (i, &x) in xs.iter().enumerate() {
            tb.push_row(vec![x, i as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, system_k))
    }

    /// Ground-truth order by (value, id).
    fn oracle(d: &SimulatedWebDb, filter: &SearchQuery, dir: SortDir) -> Vec<TupleId> {
        let t = d.ground_truth();
        let x = t.schema().expect_id("x");
        let mut rows = t.matching_rows(filter);
        rows.sort_by(|&a, &b| {
            let (va, vb) = (t.num(a, x), t.num(b, x));
            let ord = match dir {
                SortDir::Asc => va.total_cmp(&vb),
                SortDir::Desc => vb.total_cmp(&va),
            };
            ord.then(a.cmp(&b))
        });
        rows.into_iter().map(|r| TupleId(r as u32)).collect()
    }

    /// Drain a stream, assert it equals the oracle and return its queries.
    fn assert_stream_matches_oracle(
        kind: ExecutorKind,
        d: &Arc<SimulatedWebDb>,
        algo: OneDAlgo,
        dir: SortDir,
        filter: SearchQuery,
    ) -> usize {
        let ctx = SearchCtx::new(d.clone(), kind);
        let index = Arc::new(DenseIndex::in_memory());
        let dense = (algo == OneDAlgo::Rerank).then_some(index);
        let mut stream =
            OneDimStream::new(ctx.clone(), filter.clone(), AttrId(0), dir, algo, dense);
        let got: Vec<TupleId> = std::iter::from_fn(|| stream.next().unwrap())
            .map(|t| t.id)
            .collect();
        let want = oracle(d, &filter, dir);
        assert_eq!(got, want, "{algo:?} {dir:?} stream must equal oracle");
        ctx.stats().total_queries()
    }

    #[test]
    fn streams_match_oracle_on_distinct_values() {
        let d = db(&[50.0, 10.0, 30.0, 70.0, 90.0, 20.0, 60.0], 2);
        for algo in [OneDAlgo::Baseline, OneDAlgo::Binary, OneDAlgo::Rerank] {
            for dir in [SortDir::Asc, SortDir::Desc] {
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
    fn streams_match_oracle_with_heavy_ties() {
        let xs: Vec<f64> = (0..25)
            .map(|_| 42.0)
            .chain([10.0, 42.0, 80.0, 5.0, 42.0])
            .collect();
        let d = db(&xs, 4);
        for algo in [OneDAlgo::Baseline, OneDAlgo::Binary, OneDAlgo::Rerank] {
            assert_stream_matches_oracle(
                ExecutorKind::Sequential,
                &d,
                algo,
                SortDir::Asc,
                SearchQuery::all(),
            );
        }
    }

    #[test]
    fn streams_match_oracle_with_filter() {
        let d = db(&[50.0, 10.0, 30.0, 70.0, 90.0, 20.0, 60.0, 15.0], 2);
        let y = AttrId(1);
        let filter = SearchQuery::all().and_range(y, RangePred::closed(2.0, 6.0));
        for algo in [OneDAlgo::Baseline, OneDAlgo::Binary, OneDAlgo::Rerank] {
            assert_stream_matches_oracle(
                ExecutorKind::Sequential,
                &d,
                algo,
                SortDir::Asc,
                filter.clone(),
            );
        }
    }

    #[test]
    fn empty_filter_yields_nothing() {
        let d = db(&[50.0], 2);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let x = AttrId(0);
        let filter = SearchQuery::all().and_range(x, RangePred::closed(60.0, 70.0));
        let mut stream =
            OneDimStream::new(ctx.clone(), filter, x, SortDir::Asc, OneDAlgo::Binary, None);
        assert!(stream.next().unwrap().is_none());
        assert!(stream.next().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn session_cache_makes_getnext_cheap() {
        let d = db(&[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5], 5);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let mut stream = OneDimStream::new(
            ctx.clone(),
            SearchQuery::all(),
            AttrId(0),
            SortDir::Asc,
            OneDAlgo::Binary,
            None,
        );
        let _first = stream.next().unwrap().unwrap();
        let cost_first = ctx.stats().total_queries();
        // The chunk that produced the first tuple buffered its complete
        // interval; several follow-ups must be free.
        let buffered = stream.buffered();
        for _ in 0..buffered {
            stream.next().unwrap().unwrap();
        }
        assert_eq!(
            ctx.stats().total_queries(),
            cost_first,
            "buffered get-next must cost zero queries"
        );
    }

    #[test]
    fn served_counter_tracks() {
        let d = db(&[3.0, 1.0, 2.0], 10);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let mut stream = OneDimStream::new(
            ctx.clone(),
            SearchQuery::all(),
            AttrId(0),
            SortDir::Asc,
            OneDAlgo::Baseline,
            None,
        );
        assert_eq!(stream.served(), 0);
        stream.next().unwrap();
        stream.next().unwrap();
        assert_eq!(stream.served(), 2);
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
        OneDimStream::new(
            ctx.clone(),
            SearchQuery::all(),
            c,
            SortDir::Asc,
            OneDAlgo::Binary,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "requires a dense index")]
    fn rerank_without_index_rejected() {
        let d = db(&[1.0], 5);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        OneDimStream::new(
            ctx.clone(),
            SearchQuery::all(),
            AttrId(0),
            SortDir::Asc,
            OneDAlgo::Rerank,
            None,
        );
    }

    #[test]
    fn binary_beats_baseline_when_anticorrelated() {
        // Hidden rank = x desc; user wants Asc ⇒ baseline pages through
        // from the wrong end while binary homes in logarithmically.
        let xs: Vec<f64> = (0..400).map(|i| i as f64 / 4.0).collect();
        let d = db(&xs, 10);

        let ctx_b = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let mut s = OneDimStream::new(
            ctx_b.clone(),
            SearchQuery::all(),
            AttrId(0),
            SortDir::Asc,
            OneDAlgo::Baseline,
            None,
        );
        s.next().unwrap().unwrap();
        let baseline_cost = ctx_b.stats().total_queries();

        let ctx_bin = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let mut s = OneDimStream::new(
            ctx_bin.clone(),
            SearchQuery::all(),
            AttrId(0),
            SortDir::Asc,
            OneDAlgo::Binary,
            None,
        );
        s.next().unwrap().unwrap();
        let binary_cost = ctx_bin.stats().total_queries();

        assert!(
            binary_cost < baseline_cost,
            "binary ({binary_cost}) must beat baseline ({baseline_cost}) when anti-correlated"
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
                for algo in [OneDAlgo::Binary, OneDAlgo::Rerank] {
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
}
