//! `MD-BASELINE`: broad queries over the whole search space, narrowed by
//! the rank contour of the best tuple found so far.
//!
//! The loop queries the tight bounding box of the contour region
//! `{x : f(x) ≤ best}`. When the hidden ranking agrees with the user's
//! function, each page of results slashes the box; when it opposes it, the
//! returned tuples barely move the contour and the engine has to fall back
//! to splitting — the blow-up the paper reports for baseline algorithms.

use std::collections::HashSet;
use std::sync::Arc;

use qr2_webdb::{SearchError, SearchQuery, TopKResponse, Tuple, TupleId};

use crate::executor::SearchCtx;
use crate::function::LinearFunction;
use crate::normalize::Normalizer;
use crate::space::NBox;

/// Relative-volume shrink below which a contour narrowing step counts as
/// "stuck" and the region is split instead.
const MIN_SHRINK: f64 = 0.99;

/// The MD-BASELINE engine.
pub struct BaselineEngine {
    ctx: SearchCtx,
    filter: SearchQuery,
    f: LinearFunction,
    norm: Arc<Normalizer>,
    served_ids: HashSet<TupleId>,
    served: usize,
    /// When a search of the *root* region underflowed, the whole match set
    /// is known; serve from memory thereafter.
    complete: Option<Vec<(f64, Tuple)>>,
}

impl BaselineEngine {
    /// Start a session.
    pub fn new(
        ctx: SearchCtx,
        filter: SearchQuery,
        f: LinearFunction,
        norm: Arc<Normalizer>,
    ) -> Self {
        BaselineEngine {
            ctx,
            filter,
            f,
            norm,
            served_ids: HashSet::new(),
            served: 0,
            complete: None,
        }
    }

    /// Tuples served so far.
    pub fn served(&self) -> usize {
        self.served
    }

    /// Tuples servable without issuing queries: non-zero only once a root
    /// underflow cached the complete match set (every other baseline
    /// get-next re-runs the narrowing search).
    pub fn buffered(&self) -> usize {
        match &self.complete {
            Some(all) => all
                .iter()
                .filter(|(_, t)| !self.served_ids.contains(&t.id))
                .count(),
            None => 0,
        }
    }

    /// Get-next: each call re-runs the narrowing search, excluding tuples
    /// already served (the paper's baseline has no reusable state beyond
    /// the session's seen set). A failed probe returns its error and
    /// leaves that state untouched, so the next call searches afresh.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Tuple>, SearchError> {
        if let Some(all) = &self.complete {
            let next = all
                .iter()
                .find(|(_, t)| !self.served_ids.contains(&t.id))
                .map(|(_, t)| t.clone());
            if let Some(t) = &next {
                self.served_ids.insert(t.id);
                self.served += 1;
            }
            return Ok(next);
        }

        let attrs: Vec<_> = self.f.attrs().collect();
        let root = NBox::full(self.ctx.schema(), &self.filter, &attrs);
        if root.is_empty() || self.filter.is_trivially_empty() {
            return Ok(None);
        }

        let mut best: Option<(f64, Tuple)> = None;
        let mut pending: Vec<NBox> = vec![root];
        let mut is_root_probe = true;

        while let Some(mut region) = pending.pop() {
            // Prune against the current best before spending a query.
            if let Some((s, _)) = &best {
                match region.contour_bbox(&self.f, &self.norm, *s) {
                    Some(r) => region = r,
                    None => continue,
                }
            }
            loop {
                let q = region.to_query(&self.filter);
                let resp = self.ctx.search(&q)?;
                let overflow = resp.overflow;
                let mut improved = false;
                for t in resp.tuples.iter().cloned() {
                    if self.served_ids.contains(&t.id) {
                        continue;
                    }
                    let score = self.f.score(&t, &self.norm);
                    let better = match &best {
                        None => true,
                        Some((bs, bt)) => score < *bs || (score == *bs && t.id < bt.id),
                    };
                    if better {
                        best = Some((score, t));
                        improved = true;
                    }
                }
                if !overflow {
                    if is_root_probe {
                        // Root underflow: the page is the entire match
                        // set. Cache it so later get-nexts are free.
                        let mut all: Vec<(f64, Tuple)> = resp
                            .tuples
                            .iter()
                            .map(|t| (self.f.score(t, &self.norm), t.clone()))
                            .collect();
                        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
                        self.complete = Some(all);
                        return self.next();
                    }
                    break; // region exhausted; try pending stack
                }
                is_root_probe = false;
                let Some((s, _)) = &best else {
                    // Overflow with no usable tuple (all served): split.
                    if !self.split_into(&mut pending, region.clone()) {
                        // Atomic region: enumerate ties by crawling,
                        // starting from the page just returned.
                        self.crawl_region(&region, Some(resp), &mut best)?;
                    }
                    break;
                };
                // Narrow by the contour of the best-known tuple.
                match region.contour_bbox(&self.f, &self.norm, *s) {
                    None => break,
                    Some(narrowed) => {
                        let stuck = !improved
                            || narrowed.rel_volume(&self.norm)
                                > MIN_SHRINK * region.rel_volume(&self.norm);
                        if stuck {
                            if !self.split_into(&mut pending, narrowed.clone()) {
                                self.crawl_region(&narrowed, None, &mut best)?;
                                break;
                            }
                            break;
                        }
                        region = narrowed;
                    }
                }
            }
            is_root_probe = false;
        }

        if let Some((_, t)) = best {
            self.served_ids.insert(t.id);
            self.served += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    /// Split `region` onto the stack; false when unsplittable.
    fn split_into(&self, pending: &mut Vec<NBox>, region: NBox) -> bool {
        match region.widest_splittable_dim(&self.f, &self.norm, self.ctx.schema()) {
            Some(dim) => {
                let (a, b) = region.split(dim, self.ctx.schema());
                // Search the lower-bound half first (LIFO: push it last).
                let (first, second) =
                    if a.min_score(&self.f, &self.norm) <= b.min_score(&self.f, &self.norm) {
                        (a, b)
                    } else {
                        (b, a)
                    };
                if !second.is_empty() {
                    pending.push(second);
                }
                if !first.is_empty() {
                    pending.push(first);
                }
                true
            }
            None => false,
        }
    }

    /// Enumerate an atomic region by crawling (baseline pays full price —
    /// no shared index). `root` is the region's page, if it was just
    /// probed.
    fn crawl_region(
        &self,
        region: &NBox,
        root: Option<TopKResponse>,
        best: &mut Option<(f64, Tuple)>,
    ) -> Result<(), SearchError> {
        let result = self.ctx.crawl(&region.to_query(&self.filter), root)?;
        for t in result.tuples {
            if self.served_ids.contains(&t.id) {
                continue;
            }
            let score = self.f.score(&t, &self.norm);
            let better = match best {
                None => true,
                Some((bs, bt)) => score < *bs || (score == *bs && t.id < bt.id),
            };
            if better {
                *best = Some((score, t));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorKind;
    use qr2_webdb::{Schema, SimulatedWebDb, SystemRanking, TableBuilder, TopKInterface};

    fn db(hidden_weight_x: f64, n: usize, system_k: usize) -> Arc<SimulatedWebDb> {
        let schema = Schema::builder()
            .numeric("x", 0.0, 1.0)
            .numeric("y", 0.0, 1.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        // Deterministic pseudo-grid.
        for i in 0..n {
            let x = (i as f64 * 0.6180339887) % 1.0;
            let y = (i as f64 * 0.4142135623) % 1.0;
            tb.push_row(vec![x, y]).unwrap();
        }
        let ranking =
            SystemRanking::linear(&schema, &[("x", hidden_weight_x), ("y", 0.1)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, system_k))
    }

    fn oracle_ids(d: &SimulatedWebDb, f: &LinearFunction, norm: &Normalizer) -> Vec<TupleId> {
        let t = d.ground_truth();
        let mut rows: Vec<usize> = (0..t.len()).collect();
        let scores: Vec<f64> = (0..t.len()).map(|r| f.score(&t.tuple(r), norm)).collect();
        rows.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        rows.into_iter().map(|r| TupleId(r as u32)).collect()
    }

    #[test]
    fn baseline_top5_matches_oracle() {
        let d = db(-1.0, 60, 7); // hidden prefers small x (correlated)
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let f = LinearFunction::from_names(d.schema(), &[("x", 1.0), ("y", 0.25)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(d.schema()));
        let mut e = BaselineEngine::new(ctx, SearchQuery::all(), f.clone(), norm.clone());
        let want = oracle_ids(&d, &f, &norm);
        for expected in want.iter().take(5) {
            let got = e.next().unwrap().expect("tuple available");
            assert_eq!(got.id, *expected);
        }
    }

    #[test]
    fn baseline_anticorrelated_still_correct() {
        let d = db(1.0, 60, 7); // hidden prefers large x; user wants small
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let f = LinearFunction::from_names(d.schema(), &[("x", 1.0), ("y", -0.5)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(d.schema()));
        let mut e = BaselineEngine::new(ctx, SearchQuery::all(), f.clone(), norm.clone());
        let want = oracle_ids(&d, &f, &norm);
        for expected in want.iter().take(3) {
            assert_eq!(e.next().unwrap().unwrap().id, *expected);
        }
    }

    #[test]
    fn small_database_served_from_complete_cache() {
        let d = db(-1.0, 5, 10); // 5 tuples < system-k ⇒ root underflows
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let f = LinearFunction::from_names(d.schema(), &[("x", 1.0), ("y", 1.0)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(d.schema()));
        let mut e = BaselineEngine::new(ctx.clone(), SearchQuery::all(), f, norm);
        let first = e.next().unwrap().unwrap();
        let cost_after_first = ctx.stats().total_queries();
        assert_eq!(
            cost_after_first, 1,
            "the root's page is the whole match set"
        );
        assert_eq!(d.ledger().total(), 1);
        let mut rest = 0;
        while e.next().unwrap().is_some() {
            rest += 1;
        }
        assert_eq!(rest, 4);
        assert_eq!(
            ctx.stats().total_queries(),
            cost_after_first,
            "complete cache makes follow-ups free"
        );
        assert_ne!(first.id, TupleId(u32::MAX));
    }

    #[test]
    fn exhaustion_returns_none() {
        let d = db(-1.0, 3, 10);
        let ctx = SearchCtx::new(d.clone(), ExecutorKind::Sequential);
        let f = LinearFunction::from_names(d.schema(), &[("x", 1.0), ("y", 1.0)]).unwrap();
        let norm = Arc::new(Normalizer::from_domains(d.schema()));
        let mut e = BaselineEngine::new(ctx, SearchQuery::all(), f, norm);
        for _ in 0..3 {
            assert!(e.next().unwrap().is_some());
        }
        assert!(e.next().unwrap().is_none());
        assert!(e.next().unwrap().is_none());
    }
}
