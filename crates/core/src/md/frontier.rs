//! Best-first branch-and-bound over contour-pruned cells: the shared core
//! of `MD-BINARY` and `MD-RERANK`, and the engine behind their get-next.
//!
//! The session state is a *frontier* of disjoint unexplored cells (each
//! with a lower bound on any score inside it) plus a buffer of discovered
//! candidate tuples. A candidate may be served as soon as its score is
//! strictly below every frontier cell's bound — no unseen tuple can beat
//! it. To make progress, all frontier cells that could still hide a better
//! tuple are searched together in one (parallel) round; this is exactly the
//! paper's verification parallelism, and the per-round query counts feed
//! Fig. 2.
//!
//! Each cell carries the tuples of its nearest probed ancestor's
//! overflowing page that lie inside it: its *seen* tuples, the cell's own
//! top tuples in system order. Two rules use them, and both depend only on
//! the answers, never on timing:
//!
//! * A cell holding a whole page of seen tuples is split again before
//!   anyone probes it: its probe could only return that page and an
//!   overflow bit. Dense and atomic cells are probed and crawled instead.
//! * A parallel round fills its spare slots by splitting, instead of
//!   probing, only cells whose seen tuples fill at least half a page: the
//!   denser half of an overflowed parent, which is likely to overflow
//!   too. A round with no such cell stays below the fan-out, so
//!   parallelism buys rounds without paying much for blind splits.
//!
//! A failed probe puts the cells it left unexplored back on the frontier
//! and returns the error; the next get-next searches them again.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use qr2_webdb::{SearchError, SearchQuery, TopKResponse, Tuple, TupleId};

use crate::dense_index::DenseIndex;
use crate::executor::SearchCtx;
use crate::function::LinearFunction;
use crate::md::DEFAULT_DENSE_DELTA_MD;
use crate::normalize::Normalizer;
use crate::space::NBox;

/// A frontier cell: an unexplored box, the best score it could contain,
/// and the tuples already seen inside it.
struct Cell {
    min_score: f64,
    nbox: NBox,
    /// The tuples of the nearest probed ancestor's overflowing page that
    /// lie inside the box, in system order: the box's own top
    /// `seen.len()` tuples, all of them already discovered.
    seen: Vec<Tuple>,
    /// Insertion sequence; tie-breaks heap order deterministically.
    seq: u64,
}

impl PartialEq for Cell {
    fn eq(&self, other: &Self) -> bool {
        self.min_score == other.min_score && self.seq == other.seq
    }
}
impl Eq for Cell {}
impl PartialOrd for Cell {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cell {
    // Reversed: BinaryHeap is a max-heap; we want the smallest bound first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .min_score
            .total_cmp(&self.min_score)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A discovered tuple with its score.
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
    // Reversed (min-heap by score, then id).
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(other.tuple.id.cmp(&self.tuple.id))
    }
}

/// The branch-and-bound engine.
pub struct FrontierEngine {
    ctx: SearchCtx,
    filter: SearchQuery,
    f: LinearFunction,
    norm: Arc<Normalizer>,
    dense: Option<Arc<DenseIndex>>,
    delta: f64,
    cells: BinaryHeap<Cell>,
    candidates: BinaryHeap<Candidate>,
    discovered: HashSet<TupleId>,
    served: usize,
    seq: u64,
}

impl FrontierEngine {
    /// Start a session. `dense = Some(..)` selects MD-RERANK behaviour.
    pub fn new(
        ctx: SearchCtx,
        filter: SearchQuery,
        f: LinearFunction,
        norm: Arc<Normalizer>,
        dense: Option<Arc<DenseIndex>>,
    ) -> Self {
        let attrs: Vec<_> = f.attrs().collect();
        let root = NBox::full(ctx.schema(), &filter, &attrs);
        let mut engine = FrontierEngine {
            ctx,
            filter,
            f,
            norm,
            dense,
            delta: DEFAULT_DENSE_DELTA_MD,
            cells: BinaryHeap::new(),
            candidates: BinaryHeap::new(),
            discovered: HashSet::new(),
            served: 0,
            seq: 0,
        };
        if !root.is_empty() && !engine.filter.is_trivially_empty() {
            engine.push_cell(root, Vec::new());
        }
        engine
    }

    /// Set the dense-cell threshold δ.
    pub fn set_delta(&mut self, delta: f64) {
        assert!(delta >= 0.0);
        self.delta = delta;
    }

    /// Tuples served so far.
    pub fn served(&self) -> usize {
        self.served
    }

    /// Discovered tuples that the next `next()` calls can serve without
    /// issuing any query: candidates provably better than every frontier
    /// cell's bound. Serving them does not change the frontier, so all of
    /// them are free in sequence.
    pub fn buffered(&self) -> usize {
        match self.cells.peek() {
            None => self.candidates.len(),
            Some(cell) => self
                .candidates
                .iter()
                .filter(|c| c.score < cell.min_score)
                .count(),
        }
    }

    fn push_cell(&mut self, nbox: NBox, seen: Vec<Tuple>) {
        let cells = self.cells_of(nbox, seen);
        self.cells.extend(cells);
    }

    /// The frontier cells covering `nbox`, whose seen tuples are `seen`.
    /// A box that holds a whole page of seen tuples is split again before
    /// anyone probes it: those tuples are its top *k*, so its probe could
    /// only return them plus an overflow bit. The splitting stops at parts
    /// holding fewer than *k* seen tuples, and at dense or atomic boxes,
    /// which are probed and crawled. Empty boxes are dropped.
    fn cells_of(&mut self, nbox: NBox, seen: Vec<Tuple>) -> Vec<Cell> {
        let k = self.ctx.system_k().max(1);
        let mut cells = Vec::new();
        let mut todo = vec![(nbox, seen)];
        while let Some((nbox, seen)) = todo.pop() {
            if nbox.is_empty() {
                continue;
            }
            if seen.len() >= k {
                if let Some(dim) = self.split_dim(&nbox) {
                    // Reversed, so the low half is numbered first.
                    todo.extend(self.split(&nbox, dim, seen).into_iter().rev());
                    continue;
                }
            }
            self.seq += 1;
            cells.push(Cell {
                min_score: nbox.min_score(&self.f, &self.norm),
                nbox,
                seen,
                seq: self.seq,
            });
        }
        cells
    }

    /// Split `nbox` on dimension `dim` into two boxes that partition it,
    /// each with the `seen` tuples that lie inside it.
    fn split(&self, nbox: &NBox, dim: usize, seen: Vec<Tuple>) -> [(NBox, Vec<Tuple>); 2] {
        let (a, b) = nbox.split(dim, self.ctx.schema());
        let (in_a, in_b) = seen.into_iter().partition(|t| a.contains(t));
        [(a, in_a), (b, in_b)]
    }

    /// The dimension to split an overflowing box on, or `None` when it is
    /// enumerated by crawling instead: a dense box, or an atomic one (all
    /// ranking attributes pinned: the tie case).
    fn split_dim(&self, nbox: &NBox) -> Option<usize> {
        if self.is_dense(nbox) {
            None
        } else {
            nbox.widest_splittable_dim(&self.f, &self.norm, self.ctx.schema())
        }
    }

    fn add_tuple(&mut self, t: Tuple) {
        if self.discovered.insert(t.id) {
            let score = self.f.score(&t, &self.norm);
            self.candidates.push(Candidate { score, tuple: t });
        }
    }

    /// Serve the next tuple in score order.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Tuple>, SearchError> {
        loop {
            // A candidate is provably next when no frontier cell could
            // contain a strictly better tuple.
            let safe = match (self.candidates.peek(), self.cells.peek()) {
                (Some(c), Some(cell)) => c.score < cell.min_score,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return Ok(None),
            };
            if safe {
                let c = self.candidates.pop().expect("peeked candidate");
                self.served += 1;
                return Ok(Some(c.tuple));
            }
            self.expand_round()?;
        }
    }

    /// Pop every frontier cell that could beat the best candidate (bounded
    /// by the executor fan-out) and search them in one round.
    fn expand_round(&mut self) -> Result<(), SearchError> {
        let bound = self.candidates.peek().map(|c| c.score);
        let batch_limit = self.ctx.kind().fanout().max(1);
        let mut batch: Vec<Cell> = Vec::new();
        while batch.len() < batch_limit {
            let Some(top) = self.cells.peek() else { break };
            // Complement of the serve condition (`score < min_score`): a
            // cell is worth expanding while its bound does not exceed the
            // best candidate's score.
            let beats = match bound {
                None => true,
                Some(b) => top.min_score <= b,
            };
            if !beats {
                break;
            }
            batch.push(self.cells.pop().expect("peeked cell"));
        }
        debug_assert!(!batch.is_empty(), "expand_round called with work to do");

        // Parallel executors partition speculatively: instead of probing a
        // cell and splitting it only on overflow, split it up front and
        // search its halves in the same round (the paper's "the search in
        // subspaces is done independently, [so] it is easily
        // parallelable"). Only a cell whose seen tuples fill at least half
        // a page is split: it is the denser half of an overflowed parent,
        // likely to overflow itself, so its halves are probes a sequential
        // search would also make. Spare slots stay empty when no cell of
        // the round is that dense.
        if batch_limit > 1 {
            let k = self.ctx.system_k();
            while batch.len() < batch_limit {
                let candidate = batch
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| 2 * c.seen.len() >= k)
                    .filter_map(|(i, c)| {
                        self.split_dim(&c.nbox)
                            .map(|dim| (i, dim, c.nbox.weighted_diag(&self.f, &self.norm)))
                    })
                    .max_by(|a, b| a.2.total_cmp(&b.2));
                let Some((i, dim, _)) = candidate else { break };
                let cell = batch.swap_remove(i);
                for (nbox, seen) in self.split(&cell.nbox, dim, cell.seen) {
                    let cells = self.cells_of(nbox, seen);
                    batch.extend(cells);
                }
            }
        }

        let queries: Vec<SearchQuery> = batch
            .iter()
            .map(|c| c.nbox.to_query(&self.filter))
            .collect();
        let responses = match self.ctx.search_batch(&queries) {
            Ok(responses) => responses,
            Err(e) => {
                self.cells.extend(batch);
                return Err(e);
            }
        };

        let mut searched = batch.into_iter().zip(responses);
        while let Some((cell, resp)) = searched.next() {
            let overflow = resp.overflow;
            for t in resp.tuples.iter().cloned() {
                self.add_tuple(t);
            }
            if !overflow {
                continue; // cell fully enumerated
            }
            match self.split_dim(&cell.nbox) {
                Some(dim) => {
                    // Both children stay on the frontier: get-next keeps
                    // serving deeper into the order, so a cell that cannot
                    // beat the *current* best may still hold the tuple
                    // after next. Pruning happens implicitly — cells are
                    // only searched once their bound reaches the front.
                    let page = resp.tuples.to_vec();
                    for (child, seen) in self.split(&cell.nbox, dim, page) {
                        self.push_cell(child, seen);
                    }
                }
                None => {
                    if let Err(e) = self.enumerate_dense(&cell.nbox, resp) {
                        // The failed cell and the ones not yet expanded go
                        // back: their tuples are re-found (and
                        // deduplicated) when they are searched again.
                        self.cells.push(cell);
                        self.cells.extend(searched.map(|(cell, _)| cell));
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    fn is_dense(&self, nbox: &NBox) -> bool {
        if self.dense.is_some() {
            nbox.weighted_diag(&self.f, &self.norm) < self.delta
        } else {
            false
        }
    }

    /// Fully enumerate a cell, whose probe just overflowed with `page`.
    /// MD-RERANK goes through the shared index with an unfiltered region;
    /// MD-BINARY crawls the filtered region directly. Either crawl starts
    /// from `page` instead of probing again when its region is the probed
    /// one.
    fn enumerate_dense(&mut self, nbox: &NBox, page: TopKResponse) -> Result<(), SearchError> {
        let probed = nbox.to_query(&self.filter);
        let tuples: Vec<Tuple> = match &self.dense {
            Some(index) => {
                let region = nbox.to_query(&SearchQuery::all());
                let root = (region == probed).then_some(page);
                index
                    .get_or_crawl(&self.ctx, &region, root)?
                    .into_iter()
                    .filter(|t| self.filter.matches_with(|a| t.value(a)))
                    .collect()
            }
            None => self.ctx.crawl(&probed, Some(page))?.tuples,
        };
        for t in tuples {
            self.add_tuple(t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorKind;
    use qr2_webdb::{Schema, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface};

    fn grid_db(system_k: usize) -> Arc<SimulatedWebDb> {
        let schema = Schema::builder()
            .numeric("x", 0.0, 1.0)
            .numeric("y", 0.0, 1.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..12 {
            for j in 0..12 {
                tb.push_row(vec![i as f64 / 11.0, j as f64 / 11.0]).unwrap();
            }
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0), ("y", 0.3)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, system_k))
    }

    fn engine(d: &Arc<SimulatedWebDb>, dense: bool, kind: ExecutorKind) -> FrontierEngine {
        let ctx = SearchCtx::new(d.clone(), kind);
        let schema = d.schema();
        let f = LinearFunction::from_names(schema, &[("x", 1.0), ("y", -0.5)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(schema));
        let idx = dense.then(|| Arc::new(DenseIndex::in_memory()));
        FrontierEngine::new(ctx, SearchQuery::all(), f, norm, idx)
    }

    fn oracle_scores(d: &SimulatedWebDb) -> Vec<f64> {
        let t = d.ground_truth();
        let schema = t.schema();
        let x = schema.expect_id("x");
        let y = schema.expect_id("y");
        let mut scores: Vec<f64> = (0..t.len())
            .map(|r| t.num(r, x) - 0.5 * t.num(r, y))
            .collect();
        scores.sort_by(f64::total_cmp);
        scores
    }

    #[test]
    fn serves_all_tuples_in_score_order() {
        let d = grid_db(8);
        let mut e = engine(&d, false, ExecutorKind::Sequential);
        let f = LinearFunction::from_names(d.schema(), &[("x", 1.0), ("y", -0.5)]).unwrap();
        let norm = Normalizer::from_domains(d.schema());
        let mut got = Vec::new();
        while let Some(t) = e.next().unwrap() {
            got.push(f.score(&t, &norm));
        }
        let want = oracle_scores(&d);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "scores must match oracle order");
        }
    }

    #[test]
    fn rerank_variant_matches_binary() {
        let d = grid_db(6);
        let mut a = engine(&d, false, ExecutorKind::Sequential);
        let mut b = engine(&d, true, ExecutorKind::Sequential);
        for _ in 0..20 {
            let ta = a.next().unwrap().map(|t| t.id);
            let tb = b.next().unwrap().map(|t| t.id);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn parallel_executor_creates_multi_query_rounds() {
        let d = grid_db(4);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Parallel { fanout: 6 });
        let f = LinearFunction::from_names(d.schema(), &[("x", 1.0), ("y", 1.0)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(d.schema()));
        let mut e = FrontierEngine::new(ctx.clone(), SearchQuery::all(), f, norm, None);
        for _ in 0..5 {
            e.next().unwrap().unwrap();
        }
        let stats = ctx.stats();
        assert!(
            stats.parallel_rounds() > 0,
            "expected parallel rounds, got {:?}",
            stats.rounds
        );
    }

    #[test]
    fn served_counter() {
        let d = grid_db(8);
        let mut e = engine(&d, false, ExecutorKind::Sequential);
        assert_eq!(e.served(), 0);
        e.next().unwrap();
        e.next().unwrap();
        assert_eq!(e.served(), 2);
    }

    /// Records every probe it answers, with its answer.
    struct Recording {
        inner: Arc<SimulatedWebDb>,
        log: parking_lot::Mutex<Vec<(SearchQuery, TopKResponse)>>,
    }

    impl TopKInterface for Recording {
        fn schema(&self) -> &qr2_webdb::Schema {
            self.inner.schema()
        }
        fn system_k(&self) -> usize {
            self.inner.system_k()
        }
        fn search(&self, q: &SearchQuery) -> TopKResponse {
            let resp = self.inner.search(q);
            self.log.lock().push((q.clone(), resp.clone()));
            resp
        }
        fn ledger(&self) -> &qr2_webdb::QueryLedger {
            self.inner.ledger()
        }
    }

    /// The probe log of an MD-BINARY session over the 12×12 grid (system
    /// k 8) that serves 40 tuples, and the engine that made it.
    fn recorded(kind: ExecutorKind) -> (Vec<(SearchQuery, TopKResponse)>, FrontierEngine) {
        let source = Arc::new(Recording {
            inner: grid_db(8),
            log: Default::default(),
        });
        let ctx = SearchCtx::new(source.clone(), kind);
        let schema = source.schema();
        let f = LinearFunction::from_names(schema, &[("x", 1.0), ("y", -0.5)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(schema));
        let mut e = FrontierEngine::new(ctx, SearchQuery::all(), f, norm, None);
        for _ in 0..40 {
            e.next().unwrap().expect("144 tuples");
        }
        let log = source.log.lock().clone();
        (log, e)
    }

    #[test]
    fn a_cell_holding_its_parents_whole_page_is_never_probed() {
        // On the grid the page of an overflowing box often lies in one of
        // its halves: that half holds the whole page, and a probe of it
        // would return the same page.
        for kind in [
            ExecutorKind::Sequential,
            ExecutorKind::Parallel { fanout: 8 },
        ] {
            let (log, _) = recorded(kind);
            for (i, (q, resp)) in log.iter().enumerate() {
                let repeats = log[..i].iter().any(|(parent, page)| {
                    page.overflow && parent != q && parent.covers(q) && page.tuples == resp.tuples
                });
                assert!(!repeats, "{kind:?}: probe {i} returned a page already held");
            }
        }
    }

    #[test]
    fn a_parallel_round_speculates_only_on_cells_half_full_of_seen_tuples() {
        let (log, e) = recorded(ExecutorKind::Parallel { fanout: 8 });
        let k = e.ctx.system_k();
        let all = SearchQuery::all();
        let root = (all.clone(), TopKResponse::empty());
        let mut unprobed_splits = 0;
        for (i, (q, _)) in log.iter().enumerate() {
            // The nearest probed ancestor: the latest earlier probe that
            // overflowed and covers this one (probed boxes nest), else the
            // unprobed root with nothing seen.
            let (parent, page) = log[..i]
                .iter()
                .rev()
                .find(|(p, page)| page.overflow && p != q && p.covers(q))
                .unwrap_or(&root);
            // Walk the split tree from the ancestor down to this probe:
            // every box split on the way below the ancestor was split
            // without being probed, so it must have held at least half a
            // page of the ancestor's tuples.
            let attrs: Vec<_> = e.f.attrs().collect();
            let mut cell = NBox::full(e.ctx.schema(), parent, &attrs);
            let mut below_ancestor = false;
            while cell.to_query(&all) != *q {
                if below_ancestor {
                    let seen = page.tuples.iter().filter(|t| cell.contains(t)).count();
                    assert!(
                        2 * seen >= k,
                        "probe {i}: a box with {seen} seen tuples was split"
                    );
                    unprobed_splits += 1;
                }
                let dim = e.split_dim(&cell).expect("an overflowing box splits");
                let (a, b) = cell.split(dim, e.ctx.schema());
                cell = if a.to_query(&all).covers(q) { a } else { b };
                below_ancestor = true;
            }
        }
        assert!(unprobed_splits > 0, "the session must speculate");
    }

    #[test]
    fn empty_filter_serves_nothing() {
        let d = grid_db(8);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let schema = d.schema();
        let x = schema.expect_id("x");
        let f = LinearFunction::from_names(schema, &[("x", 1.0), ("y", 1.0)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(schema));
        let filter = SearchQuery::all().and_range(x, qr2_webdb::RangePred::closed(2.0, 3.0));
        let mut e = FrontierEngine::new(ctx, filter, f, norm, None);
        assert!(e.next().unwrap().is_none());
    }
}
