//! `MD-TA`: Fagin's Threshold Algorithm with sorted access provided by
//! per-attribute `1D-RERANK` streams.
//!
//! Each ranking attribute gets a 1D stream in the direction that improves
//! its contribution (ascending for positive weights, descending for
//! negative). Because a result row exposes *all* attributes, random access
//! is free: every pulled tuple's exact score is known immediately. The
//! engine keeps pulling round-robin until the best buffered candidate is at
//! least as good as the threshold `τ = Σ wᵢ·norm(lastᵢ)` — the classic TA
//! stopping rule, which also powers get-next (keep the state, keep
//! pulling).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use qr2_webdb::{SearchError, SearchQuery, Tuple, TupleId};

use crate::dense_index::DenseIndex;
use crate::executor::SearchCtx;
use crate::function::{LinearFunction, SortDir};
use crate::normalize::Normalizer;
use crate::oned::{OneDAlgo, OneDimStream};

struct Candidate {
    score: f64,
    tuple: Tuple,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.tuple.id == other.tuple.id
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    // Reversed: min-heap by (score, id).
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(other.tuple.id.cmp(&self.tuple.id))
    }
}

/// The MD-TA engine.
pub struct TaEngine {
    f: LinearFunction,
    norm: Arc<Normalizer>,
    streams: Vec<OneDimStream>,
    /// Last value seen on each stream (raw scale).
    last: Vec<Option<f64>>,
    /// A stream that ran dry has surfaced every matching tuple.
    any_exhausted: bool,
    candidates: BinaryHeap<Candidate>,
    discovered: HashSet<TupleId>,
    rr: usize,
    served: usize,
}

impl TaEngine {
    /// Start a session. Sorted access uses `1D-RERANK` streams sharing
    /// `dense`.
    pub fn new(
        ctx: SearchCtx,
        filter: SearchQuery,
        f: LinearFunction,
        norm: Arc<Normalizer>,
        dense: Arc<DenseIndex>,
    ) -> Self {
        let streams: Vec<OneDimStream> = f
            .weights()
            .iter()
            .map(|(attr, w)| {
                let dir = if *w >= 0.0 {
                    SortDir::Asc
                } else {
                    SortDir::Desc
                };
                OneDimStream::new(
                    ctx.clone(),
                    filter.clone(),
                    *attr,
                    dir,
                    OneDAlgo::Rerank,
                    Some(dense.clone()),
                )
            })
            .collect();
        let n = streams.len();
        TaEngine {
            f,
            norm,
            streams,
            last: vec![None; n],
            any_exhausted: false,
            candidates: BinaryHeap::new(),
            discovered: HashSet::new(),
            rr: 0,
            served: 0,
        }
    }

    /// Tuples served so far.
    pub fn served(&self) -> usize {
        self.served
    }

    /// Buffered candidates already at or below the TA threshold: each can
    /// be served without further sorted access (serving does not move τ).
    pub fn buffered(&self) -> usize {
        match self.threshold() {
            None => 0,
            Some(tau) => self.candidates.iter().filter(|c| c.score <= tau).count(),
        }
    }

    /// The TA threshold: no unseen tuple can score below it. `None` until
    /// every stream has produced at least one value.
    fn threshold(&self) -> Option<f64> {
        if self.any_exhausted {
            // Some stream enumerated every matching tuple ⇒ nothing unseen.
            return Some(f64::INFINITY);
        }
        let mut tau = 0.0;
        for ((attr, w), last) in self.f.weights().iter().zip(&self.last) {
            let v = (*last)?;
            tau += w * self.norm.normalize(*attr, v);
        }
        Some(tau)
    }

    /// Get-next in score order. A failed sorted access returns its error
    /// before the round-robin moves on, so the next call retries the same
    /// stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Tuple>, SearchError> {
        loop {
            if let (Some(c), Some(tau)) = (self.candidates.peek(), self.threshold()) {
                if c.score <= tau {
                    let c = self.candidates.pop().expect("peeked");
                    self.served += 1;
                    return Ok(Some(c.tuple));
                }
            }
            if self.any_exhausted && self.candidates.is_empty() {
                return Ok(None);
            }
            // Sorted access: pull the next tuple from the current stream.
            let i = self.rr % self.streams.len();
            let pulled = self.streams[i].next()?;
            self.rr += 1;
            match pulled {
                Some(t) => {
                    self.last[i] = Some(t.num_at(self.f.weights()[i].0));
                    if self.discovered.insert(t.id) {
                        let score = self.f.score(&t, &self.norm);
                        self.candidates.push(Candidate { score, tuple: t });
                    }
                }
                None => {
                    self.any_exhausted = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorKind;
    use qr2_webdb::{
        RangePred, Schema, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface,
    };

    fn db(n: usize, _system_k: usize) -> Arc<SimulatedWebDb> {
        let schema = Schema::builder()
            .numeric("x", 0.0, 1.0)
            .numeric("y", 0.0, 1.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..n {
            let x = (i as f64 * 0.6180339887) % 1.0;
            let y = (i as f64 * 0.3819660113) % 1.0;
            tb.push_row(vec![x, y]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0), ("y", -0.2)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, 9))
    }

    fn engine(d: &Arc<SimulatedWebDb>, weights: &[(&str, f64)]) -> (TaEngine, SearchCtx) {
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let f = LinearFunction::from_names(d.schema(), weights).unwrap();
        let norm = Arc::new(Normalizer::from_domains(d.schema()));
        let dense = Arc::new(DenseIndex::in_memory());
        (
            TaEngine::new(ctx.clone(), SearchQuery::all(), f, norm, dense),
            ctx,
        )
    }

    fn oracle_ids(
        d: &SimulatedWebDb,
        weights: &[(&str, f64)],
        filter: &SearchQuery,
    ) -> Vec<TupleId> {
        let f = LinearFunction::from_names(d.schema(), weights).unwrap();
        let norm = Normalizer::from_domains(d.schema());
        let t = d.ground_truth();
        let mut rows = t.matching_rows(filter);
        let scores: Vec<f64> = (0..t.len()).map(|r| f.score(&t.tuple(r), &norm)).collect();
        rows.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        rows.into_iter().map(|r| TupleId(r as u32)).collect()
    }

    #[test]
    fn ta_matches_oracle_mixed_weights() {
        let d = db(80, 9);
        let weights = [("x", 1.0), ("y", -0.7)];
        let (mut e, _) = engine(&d, &weights);
        let want = oracle_ids(&d, &weights, &SearchQuery::all());
        for expected in want.iter().take(10) {
            assert_eq!(e.next().unwrap().unwrap().id, *expected);
        }
    }

    #[test]
    fn ta_matches_oracle_positive_weights() {
        let d = db(60, 9);
        let weights = [("x", 0.6), ("y", 0.4)];
        let (mut e, _) = engine(&d, &weights);
        let want = oracle_ids(&d, &weights, &SearchQuery::all());
        for expected in want.iter().take(8) {
            assert_eq!(e.next().unwrap().unwrap().id, *expected);
        }
    }

    #[test]
    fn ta_exhausts_cleanly() {
        let d = db(12, 9);
        let weights = [("x", 1.0), ("y", 1.0)];
        let (mut e, _) = engine(&d, &weights);
        let mut count = 0;
        while e.next().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 12);
        assert!(e.next().unwrap().is_none());
        assert_eq!(e.served(), 12);
    }

    #[test]
    fn ta_respects_filter() {
        let d = db(50, 9);
        let x = d.schema().expect_id("x");
        let filter = SearchQuery::all().and_range(x, RangePred::closed(0.25, 0.75));
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let weights = [("x", 1.0), ("y", -0.3)];
        let f = LinearFunction::from_names(d.schema(), &weights).unwrap();
        let norm = Arc::new(Normalizer::from_domains(d.schema()));
        let dense = Arc::new(DenseIndex::in_memory());
        let mut e = TaEngine::new(ctx, filter.clone(), f, norm, dense);
        let want = oracle_ids(&d, &weights, &filter);
        for expected in want.iter().take(6) {
            assert_eq!(e.next().unwrap().unwrap().id, *expected);
        }
    }

    #[test]
    fn ta_early_termination_beats_full_scan_cost() {
        // With strongly correlated data, TA should stop long before
        // enumerating everything.
        let schema = Schema::builder()
            .numeric("x", 0.0, 1.0)
            .numeric("y", 0.0, 1.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..300 {
            let v = i as f64 / 300.0;
            tb.push_row(vec![v, ((i * 7) % 300) as f64 / 300.0])
                .unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", -1.0)]).unwrap();
        let d = Arc::new(SimulatedWebDb::new(tb.build(), ranking, 10));
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let f = LinearFunction::from_names(&schema, &[("x", 1.0), ("y", 1.0)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(&schema));
        let dense = Arc::new(DenseIndex::in_memory());
        let mut e = TaEngine::new(ctx.clone(), SearchQuery::all(), f, norm, dense);
        e.next().unwrap().unwrap();
        // Cost sanity: far fewer queries than tuples.
        assert!(
            ctx.stats().total_queries() < 100,
            "TA top-1 used {} queries",
            ctx.stats().total_queries()
        );
    }
}
