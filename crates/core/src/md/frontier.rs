//! Best-first branch-and-bound over disjoint cells: the one region engine
//! behind `1D-BINARY`, `1D-RERANK`, `MD-BINARY`, `MD-RERANK` and MD-TA's
//! sorted-access streams. A 1D session is the one-attribute case: an
//! interval is a one-dimensional box, and its bound is its preferred end.
//!
//! The session state is a *frontier* of disjoint unexplored cells (each
//! with a lower bound on any score inside it) plus a buffer of discovered
//! candidate tuples. A candidate may be served as soon as no frontier cell
//! can hold a tuple that serves before it. To make progress, the frontier
//! cells that could still hide a better tuple are searched together in
//! one (parallel) round; this is exactly the paper's verification
//! parallelism, and the per-round query counts feed Fig. 2.
//!
//! Each cell carries the tuples of its nearest probed ancestor's
//! overflowing page that lie inside it: its *seen* tuples, the cell's own
//! top tuples in system order. The rules below depend only on the
//! answers, never on timing:
//!
//! * **The page already held.** A cell holding a whole page of seen
//!   tuples is split again before anyone probes it: its probe could only
//!   return that page and an overflow bit. Dense and atomic cells are
//!   probed and crawled instead.
//! * **Ties split by value.** An overflowing page whose tuples all share
//!   the value `v` on the split dimension splits its cell three ways:
//!   strictly below `v`, the point `[v, v]` and strictly above (the
//!   three-way split of Sheng et al.'s rank-shrink, PVLDB 2012). For a
//!   one-attribute function, so does a page whose best value sits on the
//!   cell's closed preferred end and holds at least two page tuples.
//! * **Open preferred ends.** A one-attribute function is scored by its
//!   raw value, so values that normalise alike still serve in value
//!   order, and a cell whose preferred end is open cannot hold a tuple
//!   that scores exactly its bound: a candidate at that score is served
//!   before the cell is probed. At an equal bound a closed cell is
//!   searched first. Multi-attribute scores are normalised sums, where
//!   rounding can make a tuple inside a cell score its bound, so every MD
//!   bound counts as closed.
//! * **One cell per round for a one-attribute function.** Its cells are
//!   intervals in serving order, so a round of several would probe cells
//!   past the one that completes the next chunk; on a rate-limited source
//!   those extra probes cost more sessions than the rounds they save.
//! * **Speculate on the denser half only.** A multi-attribute round fills
//!   its spare slots by splitting, instead of probing, only cells whose
//!   seen tuples fill at least half a page: the denser half of an
//!   overflowed parent, which is likely to overflow too. A round with no
//!   such cell stays below the fan-out, so parallelism buys rounds without
//!   paying much for blind splits.
//!
//! A failed probe puts the cells it left unexplored back on the frontier
//! and returns the error; the next get-next searches them again.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use qr2_webdb::{AttrId, SearchError, SearchQuery, TopKResponse, Tuple, TupleId};

use crate::dense_index::DenseIndex;
use crate::executor::SearchCtx;
use crate::function::{LinearFunction, SortDir};
use crate::md::DEFAULT_DENSE_DELTA_MD;
use crate::normalize::Normalizer;
use crate::oned::DEFAULT_DENSE_DELTA_1D;
use crate::space::NBox;

/// A frontier cell: an unexplored box, the best score it could contain,
/// and the tuples already seen inside it.
struct Cell {
    min_score: f64,
    /// No tuple inside the box scores exactly `min_score`: the bound is
    /// the open preferred end of a one-attribute box.
    open: bool,
    nbox: NBox,
    /// The tuples of the nearest probed ancestor's overflowing page that
    /// lie inside the box, in system order: the box's own top
    /// `seen.len()` tuples, all of them already discovered.
    seen: Vec<Tuple>,
    /// Insertion sequence; tie-breaks heap order deterministically.
    seq: u64,
}

impl Cell {
    /// True when the cell may hold a tuple that serves no later than a
    /// candidate scoring `score`: the complement of the serve condition.
    fn may_precede(&self, score: f64) -> bool {
        self.min_score < score || (self.min_score == score && !self.open)
    }
}

impl PartialEq for Cell {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cell {}
impl PartialOrd for Cell {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cell {
    // Reversed: BinaryHeap is a max-heap; we want the smallest bound
    // first, and a closed bound before an open one.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .min_score
            .total_cmp(&self.min_score)
            .then(other.open.cmp(&self.open))
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
    /// The attribute and direction of a one-attribute function, which is
    /// scored by its raw value.
    axis: Option<(AttrId, SortDir)>,
    dense: Option<Arc<DenseIndex>>,
    delta: f64,
    cells: BinaryHeap<Cell>,
    candidates: BinaryHeap<Candidate>,
    discovered: HashSet<TupleId>,
    served: usize,
    seq: u64,
}

impl FrontierEngine {
    /// Start a session. `dense = Some(..)` selects RERANK behaviour: cells
    /// whose `|w|`-weighted relative diameter falls below δ
    /// ([`DEFAULT_DENSE_DELTA_MD`]) are crawled into the shared index.
    pub fn new(
        ctx: SearchCtx,
        filter: SearchQuery,
        f: LinearFunction,
        norm: Arc<Normalizer>,
        dense: Option<Arc<DenseIndex>>,
    ) -> Self {
        let attrs: Vec<_> = f.attrs().collect();
        let root = NBox::full(ctx.schema(), &filter, &attrs);
        let axis = match f.weights() {
            [(attr, w)] if *w >= 0.0 => Some((*attr, SortDir::Asc)),
            [(attr, _)] => Some((*attr, SortDir::Desc)),
            _ => None,
        };
        let mut engine = FrontierEngine {
            ctx,
            filter,
            f,
            norm,
            axis,
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

    /// A 1D session: `ORDER BY attr dir` as the ±1 function on `attr`.
    /// `dense = Some(..)` selects 1D-RERANK, whose δ
    /// ([`DEFAULT_DENSE_DELTA_1D`]) is a fraction of the attribute's
    /// schema domain.
    pub fn one_dim(
        ctx: SearchCtx,
        filter: SearchQuery,
        attr: AttrId,
        dir: SortDir,
        dense: Option<Arc<DenseIndex>>,
    ) -> Self {
        assert!(
            ctx.schema().attr(attr).kind.is_numeric(),
            "1D ranking attribute must be numeric"
        );
        let w = match dir {
            SortDir::Asc => 1.0,
            SortDir::Desc => -1.0,
        };
        let f =
            LinearFunction::new(vec![(attr, w)]).expect("±1 single-attribute function is valid");
        let norm = Arc::new(Normalizer::from_domains(ctx.schema()));
        FrontierEngine::new(ctx, filter, f, norm, dense).with_delta(DEFAULT_DENSE_DELTA_1D)
    }

    /// Override the dense-cell threshold δ (the ablation hook).
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

    /// Discovered tuples that the next `next()` calls can serve without
    /// issuing any query: candidates no frontier cell can precede. Serving
    /// them does not change the frontier, so all of them are free in
    /// sequence.
    pub fn buffered(&self) -> usize {
        match self.cells.peek() {
            None => self.candidates.len(),
            Some(cell) => self
                .candidates
                .iter()
                .filter(|c| !cell.may_precede(c.score))
                .count(),
        }
    }

    fn score(&self, t: &Tuple) -> f64 {
        match self.axis {
            Some((attr, dir)) => signed(dir, t.num_at(attr)),
            None => self.f.score(t, &self.norm),
        }
    }

    /// The best score a tuple inside `nbox` could have, and whether that
    /// bound is open (no tuple inside attains it).
    fn bound(&self, nbox: &NBox) -> (f64, bool) {
        match self.axis {
            Some((_, dir)) => {
                let (end, holds) = preferred_end(nbox, dir);
                (signed(dir, end), !holds)
            }
            None => (nbox.min_score(&self.f, &self.norm), false),
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
            let (min_score, open) = self.bound(&nbox);
            cells.push(Cell {
                min_score,
                open,
                nbox,
                seen,
                seq: self.seq,
            });
        }
        cells
    }

    /// Split `nbox` on dimension `dim` into two boxes that partition it,
    /// each with the `seen` tuples that lie inside it.
    fn split(&self, nbox: &NBox, dim: usize, seen: Vec<Tuple>) -> Vec<(NBox, Vec<Tuple>)> {
        let (a, b) = nbox.split(dim, self.ctx.schema());
        Self::share([a, b], seen)
    }

    /// Split an overflowing `nbox` on dimension `dim` by its `page`: three
    /// ways around a value the page proves to be a tie, else in two.
    fn split_page(&self, nbox: &NBox, dim: usize, page: Vec<Tuple>) -> Vec<(NBox, Vec<Tuple>)> {
        match self.proven_tie(nbox, dim, &page) {
            Some(v) => Self::share(nbox.split_around(dim, v), page),
            None => self.split(nbox, dim, page),
        }
    }

    /// `parts`, which partition a box, each with the `seen` tuples inside it.
    fn share<const N: usize>(parts: [NBox; N], seen: Vec<Tuple>) -> Vec<(NBox, Vec<Tuple>)> {
        let mut shares: Vec<(NBox, Vec<Tuple>)> =
            parts.into_iter().map(|p| (p, Vec::new())).collect();
        for t in seen {
            if let Some((_, share)) = shares.iter_mut().find(|(p, _)| p.contains(&t)) {
                share.push(t);
            }
        }
        shares
    }

    /// The value an overflowing `page` of `nbox` proves to be a tie on
    /// dimension `dim`: every page tuple shares it. For a one-attribute
    /// function also the box's closed preferred end when at least two
    /// page tuples sit on it.
    fn proven_tie(&self, nbox: &NBox, dim: usize, page: &[Tuple]) -> Option<f64> {
        let attr = nbox.dims()[dim].0;
        let v = page.first()?.num_at(attr);
        if page.iter().all(|t| t.num_at(attr) == v) {
            return Some(v);
        }
        let (_, dir) = self.axis?;
        let (end, holds) = preferred_end(nbox, dir);
        let on_end = page.iter().filter(|t| t.num_at(attr) == end).count();
        (holds && on_end >= 2).then_some(end)
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
            let score = self.score(&t);
            self.candidates.push(Candidate { score, tuple: t });
        }
    }

    /// Serve the next tuple in score order.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Tuple>, SearchError> {
        loop {
            // A candidate is provably next when no frontier cell could
            // contain a tuple that serves before it.
            let safe = match (self.candidates.peek(), self.cells.peek()) {
                (Some(c), Some(cell)) => !cell.may_precede(c.score),
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

    /// Pop the frontier cells that could beat the best candidate (bounded
    /// by the executor fan-out, and by one for a one-attribute function)
    /// and search them in one round.
    fn expand_round(&mut self) -> Result<(), SearchError> {
        let bound = self.candidates.peek().map(|c| c.score);
        let batch_limit = match self.axis {
            Some(_) => 1,
            None => self.ctx.kind().fanout().max(1),
        };
        let mut batch: Vec<Cell> = Vec::new();
        while batch.len() < batch_limit {
            let Some(top) = self.cells.peek() else { break };
            if bound.is_some_and(|b| !top.may_precede(b)) {
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
                    // Every part stays on the frontier: get-next keeps
                    // serving deeper into the order, so a cell that cannot
                    // beat the *current* best may still hold the tuple
                    // after next. Pruning happens implicitly — cells are
                    // only searched once their bound reaches the front.
                    let page = resp.tuples.to_vec();
                    for (child, seen) in self.split_page(&cell.nbox, dim, page) {
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
    /// RERANK goes through the shared index with an unfiltered region;
    /// BINARY crawls the filtered region directly. Either crawl starts
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

/// A one-attribute score: the raw value, negated for `Desc`, so that
/// smaller is better either way.
fn signed(dir: SortDir, v: f64) -> f64 {
    match dir {
        SortDir::Asc => v,
        SortDir::Desc => -v,
    }
}

/// The preferred end of a one-attribute box under `dir`, and whether the
/// box holds it.
fn preferred_end(nbox: &NBox, dir: SortDir) -> (f64, bool) {
    let r = nbox.range(0);
    match dir {
        SortDir::Asc => (r.lo, r.lo_inc),
        SortDir::Desc => (r.hi, r.hi_inc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorKind;
    use qr2_webdb::{
        RangePred, Schema, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface,
    };

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
        let filter = SearchQuery::all().and_range(x, RangePred::closed(2.0, 3.0));
        let mut e = FrontierEngine::new(ctx, filter, f, norm, None);
        assert!(e.next().unwrap().is_none());
    }

    #[test]
    fn an_md_page_proving_a_tie_splits_the_point_off() {
        // 30 tuples tie on x = 0.5 and the hidden rank serves them first,
        // so the root's page proves the tie on x, the widest dimension of
        // x + 0.5·y. The point x = 0.5 is split off and probed as such;
        // bisecting toward it would never reach a point.
        let schema = Schema::builder()
            .numeric("x", 0.0, 1.0)
            .numeric("y", 0.0, 1.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..30 {
            tb.push_row(vec![0.5, f64::from(i) / 100.0]).unwrap();
        }
        for i in 0..20 {
            tb.push_row(vec![f64::from(i) / 20.0, 0.5 + f64::from(i) / 50.0])
                .unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("y", -1.0)]).unwrap();
        let source = Arc::new(Recording {
            inner: Arc::new(SimulatedWebDb::new(tb.build(), ranking, 4)),
            log: Default::default(),
        });
        let ctx = SearchCtx::new(source.clone(), ExecutorKind::Sequential);
        let f = LinearFunction::from_names(&schema, &[("x", 1.0), ("y", 0.5)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(&schema));
        let mut e = FrontierEngine::new(ctx, SearchQuery::all(), f.clone(), norm.clone(), None);
        let mut got = Vec::new();
        while let Some(t) = e.next().unwrap() {
            got.push(f.score(&t, &norm));
        }
        assert_eq!(got.len(), 50);
        assert!(
            got.windows(2).all(|w| w[0] <= w[1]),
            "served in score order"
        );
        let x = schema.expect_id("x");
        let point = RangePred::point(0.5);
        let log = source.log.lock();
        assert!(
            log.iter().any(|(q, _)| q.range_of(x) == Some(&point)),
            "the tie's point is probed"
        );
    }
}
