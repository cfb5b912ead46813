//! Chunk finders: retrieve a *complete prefix* of an interval — the
//! interval's preferred end together with every matching tuple inside it.

use qr2_webdb::{AttrId, RangePred, SearchError, SearchQuery, TopKResponse, Tuple};

use crate::dense_index::DenseIndex;
use crate::executor::SearchCtx;
use crate::function::SortDir;
use crate::oned::OneDAlgo;

/// A fully enumerated prefix of a searched interval.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Chunk {
    /// The sub-interval that is now completely known. Always a prefix of
    /// the searched interval from its preferred end (low end for `Asc`).
    pub(crate) complete: RangePred,
    /// Every tuple matching the filter whose ranking value lies in
    /// `complete`, in no particular order.
    pub(crate) tuples: Vec<Tuple>,
}

/// Parameters shared by all chunk finders.
pub(crate) struct ChunkParams<'a> {
    /// Execution context.
    pub(crate) ctx: &'a SearchCtx,
    /// The user's filter query (may itself constrain the ranking attribute;
    /// intervals passed to the finder are already inside that range).
    pub(crate) filter: &'a SearchQuery,
    /// Ranking attribute.
    pub(crate) attr: AttrId,
    /// Sort direction.
    pub(crate) dir: SortDir,
    /// Algorithm.
    pub(crate) algo: OneDAlgo,
    /// Shared dense index (`Rerank` only).
    pub(crate) dense: Option<&'a DenseIndex>,
    /// Dense-interval threshold as a fraction of the attribute's domain
    /// width (`Rerank` only).
    pub(crate) delta: f64,
}

impl ChunkParams<'_> {
    fn probe_query(&self, r: RangePred) -> SearchQuery {
        self.filter.with(self.attr, qr2_webdb::Predicate::Range(r))
    }

    /// `[start-of-interval .. far-edge-of-cur]` in the preferred direction.
    fn join_prefix(&self, interval: RangePred, cur: RangePred) -> RangePred {
        match self.dir {
            SortDir::Asc => RangePred {
                lo: interval.lo,
                lo_inc: interval.lo_inc,
                hi: cur.hi,
                hi_inc: cur.hi_inc,
            },
            SortDir::Desc => RangePred {
                lo: cur.lo,
                lo_inc: cur.lo_inc,
                hi: interval.hi,
                hi_inc: interval.hi_inc,
            },
        }
    }

    /// Segment of `interval` strictly better than `bound`.
    fn before(&self, interval: RangePred, bound: f64) -> RangePred {
        match self.dir {
            SortDir::Asc => RangePred {
                lo: interval.lo,
                lo_inc: interval.lo_inc,
                hi: bound,
                hi_inc: false,
            },
            SortDir::Desc => RangePred {
                lo: bound,
                lo_inc: false,
                hi: interval.hi,
                hi_inc: interval.hi_inc,
            },
        }
    }

    /// Segment of `interval` strictly worse than `bound`.
    fn after(&self, interval: RangePred, bound: f64) -> RangePred {
        match self.dir {
            SortDir::Asc => RangePred {
                lo: bound,
                lo_inc: false,
                hi: interval.hi,
                hi_inc: interval.hi_inc,
            },
            SortDir::Desc => RangePred {
                lo: interval.lo,
                lo_inc: interval.lo_inc,
                hi: bound,
                hi_inc: false,
            },
        }
    }

    /// The value an overflowing page of `cur` proves to be a tie: every
    /// page tuple shares it, or it is the page's best value, sits on
    /// `cur`'s closed preferred end and holds at least two page tuples.
    fn proven_tie(&self, cur: RangePred, tuples: &[Tuple]) -> Option<f64> {
        let v = self.best_value(tuples);
        let on_v = tuples.iter().filter(|t| t.num_at(self.attr) == v).count();
        let closed_end = match self.dir {
            SortDir::Asc => cur.lo_inc && cur.lo == v,
            SortDir::Desc => cur.hi_inc && cur.hi == v,
        };
        (on_v == tuples.len() || (closed_end && on_v >= 2)).then_some(v)
    }

    fn best_value(&self, tuples: &[Tuple]) -> f64 {
        let mut it = tuples.iter().map(|t| t.num_at(self.attr));
        let first = it.next().expect("non-empty tuple list");
        it.fold(
            first,
            |acc, v| if self.dir.better(v, acc) { v } else { acc },
        )
    }

    fn domain_width(&self) -> f64 {
        let (lo, hi) = self.ctx.schema().attr(self.attr).numeric_domain();
        (hi - lo).max(f64::MIN_POSITIVE)
    }

    /// `Rerank` treats an interval narrower than δ of the domain as dense.
    fn is_narrow(&self, r: RangePred) -> bool {
        self.algo == OneDAlgo::Rerank && r.width() / self.domain_width() < self.delta
    }

    /// Split `r` into (preferred half, other half), or `None` when it
    /// cannot be cut. On an integral attribute `r` is snapped first: a
    /// remainder that excludes the value just served must not split back
    /// to include it.
    fn split(&self, r: RangePred) -> Option<(RangePred, RangePred)> {
        let integral = self.ctx.schema().attr(self.attr).is_integral();
        let (low, high) = if integral { r.snap_integral() } else { r }.bisect(integral)?;
        Some(match self.dir {
            SortDir::Asc => (low, high),
            SortDir::Desc => (high, low),
        })
    }

    /// Enumerate a fully dense sub-interval, whose probe just overflowed
    /// with `page`. `Rerank` goes through the shared index with an
    /// *unfiltered* region (reusable across sessions); the others crawl
    /// the filtered region directly, paying full price every time (the
    /// behaviour the paper contrasts against). Either crawl starts from
    /// `page` instead of probing again when its region is the probed one.
    fn enumerate_dense(&self, r: RangePred, page: TopKResponse) -> Result<Vec<Tuple>, SearchError> {
        let probed = self.probe_query(r);
        Ok(match (self.algo, self.dense) {
            (OneDAlgo::Rerank, Some(index)) => {
                let region = SearchQuery::all().and_range(self.attr, r);
                let root = (region == probed).then_some(page);
                let tuples = index.get_or_crawl(self.ctx, &region, root)?;
                tuples
                    .into_iter()
                    .filter(|t| self.filter.matches_with(|a| t.value(a)))
                    .collect()
            }
            _ => self.ctx.crawl(&probed, Some(page))?.tuples,
        })
    }
}

/// Find the next complete prefix of `interval` (which must be non-empty).
///
/// `stack` is the bisection stack of `Binary`/`Rerank`, owned by the
/// session: empty on the first call, and afterwards holding the unprobed
/// siblings left by the previous chunk, which partition `interval` in
/// serving order. Bisection resumes from them instead of re-splitting the
/// whole remainder. `Baseline` leaves it empty.
///
/// A failed probe is returned as the error with `stack` as it was before
/// the probed interval was popped, so the next call retries that interval.
pub(crate) fn find_chunk(
    p: &ChunkParams<'_>,
    interval: RangePred,
    stack: &mut Vec<RangePred>,
) -> Result<Chunk, SearchError> {
    debug_assert!(!interval.is_empty(), "chunk finder needs a live interval");
    match p.algo {
        OneDAlgo::Baseline => baseline_chunk(p, interval),
        OneDAlgo::Binary | OneDAlgo::Rerank => binary_chunk(p, interval, stack),
    }
}

/// `1D-BASELINE`: repeatedly narrow toward the preferred end using the best
/// returned value as an exclusive bound.
fn baseline_chunk(p: &ChunkParams<'_>, interval: RangePred) -> Result<Chunk, SearchError> {
    let mut bound: Option<f64> = None;
    loop {
        let probe = match bound {
            None => interval,
            Some(b) => p.before(interval, b),
        };
        if probe.is_empty() {
            // The bound collapsed onto the preferred endpoint: everything
            // better is known empty; enumerate the ties at the bound value.
            let b = bound.expect("empty probe implies a bound");
            return value_chunk(p, interval, b);
        }
        let resp = p.ctx.search(&p.probe_query(probe))?;
        if !resp.overflow {
            if resp.tuples.is_empty() {
                if let Some(b) = bound {
                    // Nothing better than the bound exists: the bound value
                    // itself is the minimum. Enumerate its ties.
                    return value_chunk(p, interval, b);
                }
                // Whole interval empty.
                return Ok(Chunk {
                    complete: interval,
                    tuples: Vec::new(),
                });
            }
            return Ok(Chunk {
                complete: probe,
                tuples: resp.tuples.to_vec(),
            });
        }
        bound = Some(p.best_value(&resp.tuples));
    }
}

/// Complete prefix `[start .. v]` whose only possible occupants are the
/// ties at `v`: the sub-interval strictly better than `v` has already been
/// proven empty.
fn value_chunk(p: &ChunkParams<'_>, interval: RangePred, v: f64) -> Result<Chunk, SearchError> {
    let point = RangePred::point(v);
    let resp = p.ctx.search(&p.probe_query(point))?;
    let tuples = if resp.overflow {
        // More ties than system-k: the paper's tie-crawl case.
        p.enumerate_dense(point, resp)?
    } else {
        resp.tuples.to_vec()
    };
    Ok(Chunk {
        complete: p.join_prefix(interval, point),
        tuples,
    })
}

/// `1D-BINARY` / `1D-RERANK`: preferred-first interval bisection with a
/// stack; RERANK diverts dense intervals to the shared index.
///
/// A tie is found by its value, not by bisecting toward it: when an
/// overflowing page proves a tie at `v` (see `proven_tie`), `cur` splits
/// into the part strictly better than `v`, the point `[v, v]` and the part
/// strictly worse, the three-way split of rank-shrink (Sheng et al.,
/// PVLDB 2012). A point that overflows cannot be cut and is enumerated.
///
/// Any other overflowing page bisects `cur`, and a half that holds the
/// whole page is split again before it is pushed (see `push_parts`): the
/// page is that half's top *k* too, so its probe would buy nothing. A
/// half holding exactly *k* matches pays at least one probe more for
/// this than its complete answer would have cost.
///
/// Every chunk, dense or not, leaves its unprobed siblings on `stack` for
/// the next call, which resumes from them.
fn binary_chunk(
    p: &ChunkParams<'_>,
    interval: RangePred,
    stack: &mut Vec<RangePred>,
) -> Result<Chunk, SearchError> {
    if stack.is_empty() {
        stack.push(interval);
    }
    while let Some(cur) = stack.pop() {
        if cur.is_empty() {
            continue;
        }
        let resp = p
            .ctx
            .search(&p.probe_query(cur))
            .inspect_err(|_| stack.push(cur))?;
        if !resp.overflow {
            if resp.tuples.is_empty() {
                continue; // cur proven empty: the prefix extends past it
            }
            return Ok(Chunk {
                complete: p.join_prefix(interval, cur),
                tuples: resp.tuples.to_vec(),
            });
        }
        // A page that proves a tie at `v` splits `cur` three ways around
        // it; any other page bisects `cur`. A dense interval, one that
        // cannot be cut or (`Rerank`) is narrower than δ, is enumerated.
        match p.split(cur) {
            Some((pref, other)) if !p.is_narrow(cur) => match p.proven_tie(cur, &resp.tuples) {
                Some(v) => {
                    stack.push(p.after(cur, v));
                    stack.push(RangePred::point(v));
                    stack.push(p.before(cur, v));
                }
                None => {
                    let values: Vec<f64> = resp.tuples.iter().map(|t| t.num_at(p.attr)).collect();
                    push_parts(p, stack, other, &values);
                    push_parts(p, stack, pref, &values);
                }
            },
            _ => {
                let tuples = p
                    .enumerate_dense(cur, resp)
                    .inspect_err(|_| stack.push(cur))?;
                if tuples.is_empty() {
                    // The region holds tuples, but none match the filter
                    // (possible via the unfiltered index path): keep moving.
                    continue;
                }
                return Ok(Chunk {
                    complete: p.join_prefix(interval, cur),
                    tuples,
                });
            }
        }
    }
    Ok(Chunk {
        complete: interval,
        tuples: Vec::new(),
    })
}

/// Push `r` on `stack`, or, when `r` holds *k* of `values` (the ranking
/// values of an overflowing page of an interval covering `r`), split it
/// again first. That page is then `r`'s own top *k*, so probing `r` could
/// only return it again. The splitting stops at parts holding fewer than
/// *k* values and at parts that cannot be cut or (`Rerank`) are narrower
/// than δ, which are pushed to be probed and enumerated. The preferred
/// part ends on top.
fn push_parts(p: &ChunkParams<'_>, stack: &mut Vec<RangePred>, r: RangePred, values: &[f64]) {
    let inside: Vec<f64> = values.iter().copied().filter(|&v| r.matches(v)).collect();
    match p.split(r) {
        Some((pref, other)) if inside.len() >= p.ctx.system_k().max(1) && !p.is_narrow(r) => {
            push_parts(p, stack, other, &inside);
            push_parts(p, stack, pref, &inside);
        }
        _ => stack.push(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorKind;
    use qr2_webdb::{Schema, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface};

    use std::sync::Arc;

    /// xs values with hidden rank = x descending (anti-correlated with Asc).
    fn db(xs: &[f64], system_k: usize) -> Arc<SimulatedWebDb> {
        let schema = Schema::builder()
            .numeric("x", 0.0, 100.0)
            .numeric("y", 0.0, 100.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for (i, &x) in xs.iter().enumerate() {
            tb.push_row(vec![x, (i % 97) as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, system_k))
    }

    fn params<'a>(
        ctx: &'a SearchCtx,
        filter: &'a SearchQuery,
        algo: OneDAlgo,
        dense: Option<&'a DenseIndex>,
        dir: SortDir,
    ) -> ChunkParams<'a> {
        ChunkParams {
            ctx,
            filter,
            attr: AttrId(0),
            dir,
            algo,
            dense,
            delta: crate::oned::DEFAULT_DENSE_DELTA_1D,
        }
    }

    /// A chunk found from a fresh stack, as a new session's first refill.
    fn first_chunk(p: &ChunkParams<'_>, interval: RangePred) -> Chunk {
        find_chunk(p, interval, &mut Vec::new()).unwrap()
    }

    fn full_interval() -> RangePred {
        RangePred::closed(0.0, 100.0)
    }

    #[test]
    fn baseline_finds_min_prefix() {
        let d = db(&[50.0, 10.0, 30.0, 70.0, 90.0], 2);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let filter = SearchQuery::all();
        let p = params(&ctx, &filter, OneDAlgo::Baseline, None, SortDir::Asc);
        let chunk = first_chunk(&p, full_interval());
        let min_found = chunk
            .tuples
            .iter()
            .map(|t| t.num(0))
            .fold(f64::MAX, f64::min);
        assert_eq!(min_found, 10.0);
        assert!(chunk.complete.matches(10.0));
    }

    #[test]
    fn binary_finds_min_prefix() {
        let d = db(&[50.0, 10.0, 30.0, 70.0, 90.0], 2);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let filter = SearchQuery::all();
        let p = params(&ctx, &filter, OneDAlgo::Binary, None, SortDir::Asc);
        let chunk = first_chunk(&p, full_interval());
        assert!(chunk.tuples.iter().any(|t| t.num(0) == 10.0));
        // Everything in the complete prefix is enumerated.
        for t in &chunk.tuples {
            assert!(chunk.complete.matches(t.num(0)));
        }
    }

    #[test]
    fn desc_direction_finds_max() {
        let d = db(&[50.0, 10.0, 30.0, 70.0, 90.0], 2);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let filter = SearchQuery::all();
        for algo in [OneDAlgo::Baseline, OneDAlgo::Binary] {
            let p = params(&ctx, &filter, algo, None, SortDir::Desc);
            let chunk = first_chunk(&p, full_interval());
            assert!(
                chunk.tuples.iter().any(|t| t.num(0) == 90.0),
                "{algo:?} must find the max"
            );
        }
    }

    #[test]
    fn integral_remainder_never_reaches_back_to_its_excluded_end() {
        // 30 ties at x=5 (> system-k) on an integral attribute: after the
        // dense chunk at 5, the remainder (5, 100] must split as [6, ..].
        let schema = Schema::builder()
            .integral("x", 0.0, 100.0)
            .numeric("y", 0.0, 100.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..30 {
            tb.push_row(vec![5.0, i as f64]).unwrap();
        }
        tb.push_row(vec![6.0, 0.0]).unwrap();
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        let d = Arc::new(SimulatedWebDb::new(tb.build(), ranking, 3));
        let ctx = SearchCtx::new(d, ExecutorKind::Sequential);
        let filter = SearchQuery::all();
        let p = params(&ctx, &filter, OneDAlgo::Binary, None, SortDir::Asc);
        let rest = RangePred {
            lo: 5.0,
            lo_inc: false,
            ..full_interval()
        };
        let chunk = first_chunk(&p, rest);
        assert!(chunk.tuples.iter().all(|t| t.num(0) == 6.0));
        assert!(!chunk.complete.matches(5.0));
    }

    #[test]
    fn empty_interval_chunk() {
        let d = db(&[50.0], 2);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let filter = SearchQuery::all();
        let p = params(&ctx, &filter, OneDAlgo::Binary, None, SortDir::Asc);
        let chunk = first_chunk(&p, RangePred::closed(60.0, 100.0));
        assert!(chunk.tuples.is_empty());
        assert_eq!(chunk.complete, RangePred::closed(60.0, 100.0));
    }

    #[test]
    fn ties_enumerated_beyond_system_k() {
        // 20 ties at x=25 (> system-k = 3), separable on y.
        let xs: Vec<f64> = (0..20).map(|_| 25.0).chain([40.0, 60.0]).collect();
        let d = db(&xs, 3);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let filter = SearchQuery::all();
        for algo in [OneDAlgo::Baseline, OneDAlgo::Binary] {
            ctx.reset_stats();
            let p = params(&ctx, &filter, algo, None, SortDir::Asc);
            let chunk = first_chunk(&p, full_interval());
            let ties = chunk.tuples.iter().filter(|t| t.num(0) == 25.0).count();
            assert_eq!(ties, 20, "{algo:?} must enumerate all ties");
        }
    }

    #[test]
    fn rerank_uses_dense_index_for_ties() {
        let xs: Vec<f64> = (0..30).map(|_| 25.0).chain([40.0]).collect();
        let d = db(&xs, 3);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let filter = SearchQuery::all();
        let index = DenseIndex::in_memory();
        let p = params(&ctx, &filter, OneDAlgo::Rerank, Some(&index), SortDir::Asc);
        let chunk = first_chunk(&p, full_interval());
        assert_eq!(chunk.tuples.iter().filter(|t| t.num(0) == 25.0).count(), 30);
        assert_eq!(index.stats().misses, 1);

        // Second run over a fresh context: the dense part is a cache hit.
        let ctx2 = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let p2 = params(&ctx2, &filter, OneDAlgo::Rerank, Some(&index), SortDir::Asc);
        let chunk2 = first_chunk(&p2, full_interval());
        assert_eq!(chunk2.tuples.len(), chunk.tuples.len());
        assert!(index.stats().hits >= 1);
        assert!(
            ctx2.stats().total_queries() < ctx.stats().total_queries(),
            "cached run must be cheaper"
        );
    }

    #[test]
    fn baseline_cheap_when_correlated() {
        // Hidden rank = x ascending (same as user's Asc) → first page gives
        // the minimum immediately; baseline needs very few queries.
        let schema = Schema::builder()
            .numeric("x", 0.0, 100.0)
            .numeric("y", 0.0, 100.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..200 {
            tb.push_row(vec![(i as f64) / 2.0, 0.0]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", -1.0)]).unwrap();
        let d = Arc::new(SimulatedWebDb::new(tb.build(), ranking, 10));
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let filter = SearchQuery::all();
        let p = params(&ctx, &filter, OneDAlgo::Baseline, None, SortDir::Asc);
        let chunk = first_chunk(&p, full_interval());
        assert!(chunk.tuples.iter().any(|t| t.num(0) == 0.0));
        assert!(
            ctx.stats().total_queries() <= 4,
            "correlated baseline should be cheap, used {}",
            ctx.stats().total_queries()
        );
    }

    #[test]
    fn filter_is_respected() {
        let d = db(&[10.0, 20.0, 30.0, 40.0], 2);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let y = AttrId(1);
        // y values are i % 97 = 0,1,2,3; filter y >= 2 keeps x ∈ {30, 40}.
        let filter = SearchQuery::all().and_range(y, RangePred::closed(2.0, 100.0));
        let p = params(&ctx, &filter, OneDAlgo::Binary, None, SortDir::Asc);
        let chunk = first_chunk(&p, full_interval());
        assert!(chunk.tuples.iter().any(|t| t.num(0) == 30.0));
        assert!(chunk.tuples.iter().all(|t| t.num(0) >= 30.0));
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
        fn search(&self, q: &SearchQuery) -> qr2_webdb::TopKResponse {
            self.log.lock().push(q.clone());
            self.inner.search(q)
        }
        fn ledger(&self) -> &qr2_webdb::QueryLedger {
            self.inner.ledger()
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
            let x = match dir {
                SortDir::Asc => x,
                SortDir::Desc => 100.0 - x,
            };
            tb.push_row(vec![x, ((i * 37) % 100) as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("y", 1.0)]).unwrap();
        Arc::new(Recording {
            inner: Arc::new(SimulatedWebDb::new(tb.build(), ranking, 3)),
            log: Default::default(),
        })
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
        ctx.crawl(&SearchQuery::all().and_point(AttrId(0), v), None)
            .unwrap();
        std::mem::take(&mut *source.log.lock()).len()
    }

    /// One chunk as a stream sees it: its values (in the `Asc` layout),
    /// the probes it cost and the stack it left.
    struct Found {
        values: Vec<f64>,
        probes: Vec<SearchQuery>,
        stack: Vec<RangePred>,
    }

    /// Find `chunks` successive chunks of `interval` through one stack, as
    /// a stream does.
    fn drain_chunks(
        source: &Arc<Recording>,
        algo: OneDAlgo,
        dir: SortDir,
        mut interval: RangePred,
        chunks: usize,
    ) -> Vec<Found> {
        let ctx = SearchCtx::new(source.clone(), ExecutorKind::Sequential);
        let filter = SearchQuery::all();
        let index = DenseIndex::in_memory();
        let p = params(&ctx, &filter, algo, Some(&index), dir);
        let mut stack = Vec::new();
        (0..chunks)
            .map(|_| {
                let chunk = find_chunk(&p, interval, &mut stack).unwrap();
                interval = crate::oned::stream::remainder(interval, chunk.complete, dir);
                let mut values: Vec<f64> = chunk
                    .tuples
                    .iter()
                    .map(|t| match dir {
                        SortDir::Asc => t.num(0),
                        SortDir::Desc => 100.0 - t.num(0),
                    })
                    .collect();
                values.sort_by(f64::total_cmp);
                Found {
                    values,
                    probes: std::mem::take(&mut *source.log.lock()),
                    stack: stack.clone(),
                }
            })
            .collect()
    }

    #[test]
    fn a_tie_on_the_closed_bound_is_split_off_at_its_value() {
        // The first page already proves the tie on the interval's closed
        // end, so the next probe is the point and then its crawl, which
        // splits the point's page instead of probing the point again.
        // Bisecting toward the tie cost 51–53 more probes under Binary and
        // 25 under Rerank.
        let others: Vec<f64> = (0..20).map(|i| 30.0 + 3.0 * f64::from(i)).collect();
        for dir in [SortDir::Asc, SortDir::Desc] {
            for algo in [OneDAlgo::Binary, OneDAlgo::Rerank] {
                let source = tie_source(dir, 25.0, &others);
                let crawl = crawl_cost(&source, oriented(dir, 25.0, 25.0).lo);
                let found = drain_chunks(&source, algo, dir, oriented(dir, 25.0, 100.0), 1);
                assert_eq!(found[0].values, vec![25.0; 30], "{algo:?} {dir:?}: the tie");
                let probes = &found[0].probes;
                assert_eq!(
                    probes.len(),
                    crawl + 1,
                    "{algo:?} {dir:?}: the interval, the point and its crawl"
                );
                let point = SearchQuery::all().and_range(AttrId(0), oriented(dir, 25.0, 25.0));
                let repeats = probes.iter().filter(|q| **q == point).count();
                assert_eq!(repeats, 1, "{algo:?} {dir:?}: the point is probed once");
            }
        }
    }

    #[test]
    fn a_tie_inside_the_interval_is_split_off_at_its_value() {
        // Once a page proves the tie, the point is split off. Bisecting
        // down to it cost 36 probes besides its crawl under Rerank and
        // 76–77 under Binary. Which chunk holds the tie depends on how
        // finely the prefix before it is found, so it is looked up by
        // value: 2 probes besides its crawl, 36 in all up to it (5 and 39
        // when a half holding the page it came from was still probed).
        let others: Vec<f64> = (0..20).map(|i| 10.0 + 4.0 * f64::from(i)).collect();
        for dir in [SortDir::Asc, SortDir::Desc] {
            for algo in [OneDAlgo::Binary, OneDAlgo::Rerank] {
                let source = tie_source(dir, 25.5, &others);
                let crawl = crawl_cost(&source, oriented(dir, 25.5, 25.5).lo);
                let found = drain_chunks(&source, algo, dir, oriented(dir, 0.0, 100.0), 6);
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
        // The tie's siblings stay on the stack: the next chunk starts at
        // the first live one and probes nothing the tie's chunk probed.
        // Bisecting toward the tie cost 29–105 probes besides its crawl,
        // and restarting from the remainder cost the next chunk 4.
        let others: Vec<f64> = (0..20).map(|i| 26.0 + 3.0 * f64::from(i)).collect();
        for dir in [SortDir::Asc, SortDir::Desc] {
            for algo in [OneDAlgo::Binary, OneDAlgo::Rerank] {
                let case = format!("{algo:?} {dir:?}");
                let source = tie_source(dir, 25.0, &others);
                let crawl = crawl_cost(&source, oriented(dir, 25.0, 25.0).lo);
                let found = drain_chunks(&source, algo, dir, oriented(dir, 0.0, 100.0), 2);
                let (tie, next) = (&found[0], &found[1]);
                assert_eq!(tie.values, vec![25.0; 30], "{case}: the tie");
                assert!(
                    tie.probes.len() <= crawl + 5,
                    "{case}: {}",
                    tie.probes.len()
                );
                assert_eq!(next.values, vec![26.0, 29.0], "{case}: the next chunk");
                let sibling = tie.stack.iter().rev().find(|r| !r.is_empty());
                let first = next.probes[0].range_of(AttrId(0));
                assert_eq!(first, sibling, "{case}: resumes from the stack");
                assert!(next.probes.len() <= 3, "{case}: {}", next.probes.len());
                assert!(
                    next.probes.iter().all(|q| !tie.probes.contains(q)),
                    "{case}: the resume re-probes an interval"
                );
            }
        }
    }

    /// 100 tuples whose hidden rank serves the preferred end first, so
    /// every overflowing page lies in its interval's preferred half: at
    /// `x = 1, 2, …` on an integral attribute, else at `x = 0.3 + 0.7·i`.
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
        Arc::new(Recording {
            inner: Arc::new(SimulatedWebDb::new(tb.build(), ranking, 5)),
            log: Default::default(),
        })
    }

    /// The probes among `probes` whose overflowing page a probe before
    /// them, of a query covering theirs, had already returned.
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
            .map(|i| format!("probe {i}: {:?}", probes[i].range_of(AttrId(0))))
            .collect()
    }

    #[test]
    fn no_probe_returns_a_page_a_covering_probe_already_returned() {
        // Before a part is pushed, a part holding the whole page of its
        // parent is split again. Bisecting into it instead probed it and
        // got the parent's page back: 7–8 of the 25–28 probes here. (A
        // proven tie's point still repeats its page; the tie split is not
        // this rule's.)
        for dir in [SortDir::Asc, SortDir::Desc] {
            for algo in [OneDAlgo::Binary, OneDAlgo::Rerank] {
                for integral in [false, true] {
                    let source = correlated_source(dir, integral);
                    let found = drain_chunks(&source, algo, dir, full_interval(), 12);
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
