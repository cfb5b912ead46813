//! The 1D-BASELINE get-next stream: serves tuples in ranking order, one at
//! a time, issuing queries only when its buffer of completely-known tuples
//! runs out. The buffer is the "session variable (user-level cache)" of the
//! paper's architecture.
//!
//! Each refill finds a *complete prefix* of the unexplored interval: the
//! interval's preferred end together with every matching tuple inside it.
//! The finder narrows `[lo, best)` with the best returned value as the new
//! bound, so it is fast when the hidden ranking agrees with the user's and
//! linear-ish when it opposes it.

use std::collections::VecDeque;

use qr2_webdb::{AttrId, Predicate, RangePred, SearchError, SearchQuery, Tuple};

use crate::executor::SearchCtx;
use crate::function::SortDir;

/// An incremental 1D-BASELINE session.
pub struct OneDimStream {
    ctx: SearchCtx,
    filter: SearchQuery,
    attr: AttrId,
    dir: SortDir,
    /// Unexplored remainder of the attribute interval (None = exhausted).
    frontier: Option<RangePred>,
    /// Completely known tuples not yet served, in serving order.
    pending: VecDeque<Tuple>,
    served: usize,
}

/// A fully enumerated prefix of a searched interval.
struct Chunk {
    /// The sub-interval that is now completely known: a prefix of the
    /// searched interval from its preferred end (low end for `Asc`).
    complete: RangePred,
    /// Every tuple matching the filter whose ranking value lies in
    /// `complete`, in no particular order.
    tuples: Vec<Tuple>,
}

impl OneDimStream {
    /// Start a session. `filter` is the user's query; the stream orders its
    /// matches by `attr` in direction `dir`.
    pub fn new(ctx: SearchCtx, filter: SearchQuery, attr: AttrId, dir: SortDir) -> Self {
        assert!(
            ctx.schema().attr(attr).kind.is_numeric(),
            "1D ranking attribute must be numeric"
        );
        let interval = qr2_crawler::effective_range(ctx.schema(), &filter, attr);
        OneDimStream {
            ctx,
            filter,
            attr,
            dir,
            frontier: (!interval.is_empty()).then_some(interval),
            pending: VecDeque::new(),
            served: 0,
        }
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
            let chunk = self.baseline_chunk(interval)?;
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
            let rem = self.remainder(interval, chunk.complete);
            self.frontier = (!rem.is_empty()).then_some(rem);
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

    /// Repeatedly narrow `interval` (non-empty) toward its preferred end,
    /// using the best returned value as an exclusive bound, until a probe
    /// answers complete.
    fn baseline_chunk(&self, interval: RangePred) -> Result<Chunk, SearchError> {
        let mut bound: Option<f64> = None;
        loop {
            let probe = match bound {
                None => interval,
                Some(b) => self.before(interval, b),
            };
            if probe.is_empty() {
                // The bound collapsed onto the preferred endpoint: everything
                // better is known empty; enumerate the ties at the bound value.
                let b = bound.expect("empty probe implies a bound");
                return self.value_chunk(interval, b);
            }
            let resp = self.ctx.search(&self.probe_query(probe))?;
            if !resp.overflow {
                if resp.tuples.is_empty() {
                    if let Some(b) = bound {
                        // Nothing better than the bound exists: the bound
                        // value itself is the minimum. Enumerate its ties.
                        return self.value_chunk(interval, b);
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
            bound = Some(self.best_value(&resp.tuples));
        }
    }

    /// Complete prefix `[start .. v]` whose only possible occupants are the
    /// ties at `v`: the sub-interval strictly better than `v` has already
    /// been proven empty. More ties than system-k are crawled (the paper's
    /// tie-crawl case).
    fn value_chunk(&self, interval: RangePred, v: f64) -> Result<Chunk, SearchError> {
        let point = RangePred::point(v);
        let probed = self.probe_query(point);
        let resp = self.ctx.search(&probed)?;
        let tuples = if resp.overflow {
            self.ctx.crawl(&probed, Some(resp))?.tuples
        } else {
            resp.tuples.to_vec()
        };
        let complete = match self.dir {
            SortDir::Asc => RangePred {
                hi: v,
                hi_inc: true,
                ..interval
            },
            SortDir::Desc => RangePred {
                lo: v,
                lo_inc: true,
                ..interval
            },
        };
        Ok(Chunk { complete, tuples })
    }

    fn probe_query(&self, r: RangePred) -> SearchQuery {
        self.filter.with(self.attr, Predicate::Range(r))
    }

    /// Segment of `interval` strictly better than `bound`.
    fn before(&self, interval: RangePred, bound: f64) -> RangePred {
        match self.dir {
            SortDir::Asc => RangePred {
                hi: bound,
                hi_inc: false,
                ..interval
            },
            SortDir::Desc => RangePred {
                lo: bound,
                lo_inc: false,
                ..interval
            },
        }
    }

    fn best_value(&self, tuples: &[Tuple]) -> f64 {
        let mut it = tuples.iter().map(|t| t.num_at(self.attr));
        let first = it.next().expect("non-empty tuple list");
        it.fold(
            first,
            |acc, v| if self.dir.better(v, acc) { v } else { acc },
        )
    }

    /// The part of `interval` not covered by the completed prefix.
    fn remainder(&self, interval: RangePred, complete: RangePred) -> RangePred {
        match self.dir {
            SortDir::Asc => RangePred {
                lo: complete.hi,
                lo_inc: !complete.hi_inc,
                ..interval
            },
            SortDir::Desc => RangePred {
                hi: complete.lo,
                hi_inc: !complete.lo_inc,
                ..interval
            },
        }
    }
}
