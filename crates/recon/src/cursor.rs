//! Lazy, exact serving over the reconstructed tuple set.
//!
//! A covered region's answer is every reconstructed tuple that matches
//! the filter, in the engines' serving order ([`ServeOrder`]). Instead of
//! materializing and sorting that set for every session, a
//! [`ReconCursor`] pulls it in order, one tuple at a time, from
//! per-attribute row-indexed columns ([`qr2_webdb::Column`]) and sorted
//! projections ([`qr2_webdb::Projection`]) that the reconstruction builds
//! once per version of its tuple set. Every walk, filter check and score
//! reads the columns; a [`Tuple`] is read only when it is emitted.
//!
//! * **1D orders** walk the ranking attribute's projection inside the
//!   filter's run on that attribute (found by binary search) and re-check
//!   every row against the full filter. `Asc` is the projection's own
//!   order (value, then id). `Desc` takes equal-value groups from the top
//!   and emits each group in ascending id, the engines' tie-break. It
//!   finds a group's first position by galloping down from the top of
//!   the remaining run (1, 2, 4, … rows, then a binary search inside the
//!   last step): O(log g) comparisons for a group of g rows, and one for
//!   a single-row group, whatever the length of the run.
//! * **MD orders** run Fagin's Threshold Algorithm (the paper's MD-TA,
//!   exact here because the reconstruction is complete). Each function
//!   attribute gets one list, walked within its filter run in the
//!   direction that raises the score; lists are read round-robin. A
//!   matching tuple met for the first time is scored once and pushed on a
//!   min-heap ordered by (score, id). Whether another list already passed
//!   a tuple is decided by comparing (value, id) keys, so no seen-set is
//!   kept. The threshold τ is the score of the lists' last-read values;
//!   normalization, weighting and a fixed-order sum are each monotone
//!   under IEEE rounding, so no unseen tuple scores below τ — but one can
//!   tie τ with a smaller id. The heap minimum is therefore emitted only
//!   while its score is strictly below τ. Once any list is exhausted,
//!   every match has been seen and τ = +∞.
//!
//! A cursor's state never grows with the number of matches: the 1D walk
//! keeps a few positions, and the TA heap holds only tuples the lists
//! have already read.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use qr2_core::{Normalizer, Scorer, SortDir};
use qr2_webdb::{AttrId, Column, Projection, SearchQuery, Tuple, TupleId};

use crate::serve::ServeOrder;

/// An immutable snapshot of the reconstructed tuples: ordered by id,
/// deduplicated, with each attribute's column and projection built on
/// first use. A row is a position in `tuples`, so ascending rows are
/// ascending tuple ids.
#[derive(Debug, Default)]
pub(crate) struct TupleSet {
    tuples: Vec<Tuple>,
    columns: Vec<OnceLock<Column>>,
    projections: Vec<OnceLock<Projection>>,
}

/// The value of `row` in a numeric column.
fn at(values: &[f64], row: u32) -> f64 {
    values.get(row as usize).copied().unwrap_or(f64::NAN)
}

impl TupleSet {
    /// Wrap tuples already ordered by id without duplicates.
    fn new(tuples: Vec<Tuple>) -> TupleSet {
        let arity = tuples.first().map_or(0, Tuple::arity);
        TupleSet {
            tuples,
            columns: (0..arity).map(|_| OnceLock::new()).collect(),
            projections: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Merge `batch` into `set` and return the tuples that were new. The
    /// first copy of an id wins, in the set and within the batch. The
    /// snapshot is replaced, never mutated, so cursors over the old one
    /// keep serving it; it is moved rather than copied when nothing
    /// else holds it.
    pub(crate) fn absorb(set: &mut Arc<TupleSet>, batch: Vec<Tuple>) -> Vec<Tuple> {
        let mut fresh = batch;
        fresh.sort_by_key(|t| t.id);
        fresh.dedup_by_key(|t| t.id);
        fresh.retain(|t| !set.contains(t.id));
        if fresh.is_empty() {
            return fresh;
        }
        let mut tuples = match Arc::try_unwrap(std::mem::take(set)) {
            Ok(owned) => owned.tuples,
            Err(shared) => shared.tuples.clone(),
        };
        tuples.extend(fresh.iter().cloned());
        tuples.sort_unstable_by_key(|t| t.id);
        *set = Arc::new(TupleSet::new(tuples));
        fresh
    }

    /// Number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.tuples.len()
    }

    fn contains(&self, id: TupleId) -> bool {
        self.tuples.binary_search_by_key(&id, |t| t.id).is_ok()
    }

    fn get(&self, row: u32) -> Option<&Tuple> {
        self.tuples.get(row as usize)
    }

    /// The column of `attr`, built on first use. `None` when the set has
    /// no such attribute (an empty set has none).
    pub(crate) fn column(&self, attr: AttrId) -> Option<&Column> {
        let cell = self.columns.get(attr.index())?;
        Some(cell.get_or_init(|| {
            if self.tuples.first().is_some_and(|t| t.value(attr).is_num()) {
                Column::Numeric(self.tuples.iter().map(|t| t.num_at(attr)).collect())
            } else {
                Column::Categorical(self.tuples.iter().map(|t| t.value(attr).as_cat()).collect())
            }
        }))
    }

    /// The column of `attr` if it is built already.
    #[cfg(test)]
    pub(crate) fn built_column(&self, attr: AttrId) -> Option<&Column> {
        self.columns.get(attr.index())?.get()
    }

    /// The projection of `attr` if it is built already.
    #[cfg(test)]
    pub(crate) fn built_projection(&self, attr: AttrId) -> Option<&Projection> {
        self.projections.get(attr.index())?.get()
    }

    /// The values of numeric `attr` by row (empty when there are none).
    fn values(&self, attr: AttrId) -> &[f64] {
        self.column(attr).and_then(Column::numeric).unwrap_or(&[])
    }

    /// Numeric value of `attr` at `row`.
    fn num(&self, row: u32, attr: AttrId) -> f64 {
        at(self.values(attr), row)
    }

    /// Whether `row` matches `filter`, read from the columns.
    fn matches(&self, row: u32, filter: &SearchQuery) -> bool {
        filter.predicates().all(|(attr, p)| {
            self.column(attr)
                .and_then(|c| c.value(row as usize))
                .is_some_and(|v| p.matches(v))
        })
    }

    /// The projection of numeric `attr`, built on first use after its
    /// column. `None` when the set has no such numeric attribute.
    pub(crate) fn projection(&self, attr: AttrId) -> Option<&Projection> {
        let values = self.column(attr)?.numeric()?;
        let cell = self.projections.get(attr.index())?;
        Some(cell.get_or_init(|| Projection::build(values.len(), |row| at(values, row))))
    }

    fn rows(&self, attr: AttrId) -> &[u32] {
        self.projection(attr).map_or(&[], Projection::rows)
    }

    /// Positions of `attr`'s projection that `filter`'s predicate on
    /// `attr` admits (all of them when it has none).
    fn run(&self, attr: AttrId, filter: &SearchQuery) -> Range<usize> {
        let Some(projection) = self.projection(attr) else {
            return 0..0;
        };
        match filter.range_of(attr) {
            Some(r) => projection.range(r, |row| self.num(row, attr)),
            None => 0..projection.rows().len(),
        }
    }

    /// (value, id) order of two rows on `attr` — the projection's order.
    fn key_cmp(&self, attr: AttrId, a: u32, b: u32) -> Ordering {
        let values = self.values(attr);
        at(values, a).total_cmp(&at(values, b)).then(a.cmp(&b))
    }
}

/// The first position of the projection run `lo..hi` (non-empty) whose
/// value equals the value at `hi - 1` in `total_cmp` order, so -0.0 and
/// 0.0 are separate groups, as in the engines' sort. Gallops down from
/// the top in steps of 1, 2, 4, … until a step lands below the group or
/// past `lo`, then binary-searches inside that last step.
fn group_start(rows: &[u32], values: &[f64], lo: usize, hi: usize) -> usize {
    let value = |pos: usize| rows.get(pos).map_or(f64::NAN, |&row| at(values, row));
    let top = value(hi.saturating_sub(1));
    let below = |v: f64| v.total_cmp(&top) == Ordering::Less;
    // `eq` holds the top value; every position under `floor` is below it.
    let mut eq = hi.saturating_sub(1);
    let mut step = 1;
    let floor = loop {
        match eq.checked_sub(step).filter(|&pos| pos >= lo) {
            None => break lo,
            Some(pos) if below(value(pos)) => break pos + 1,
            Some(pos) => {
                eq = pos;
                step *= 2;
            }
        }
    };
    floor
        + rows
            .get(floor..eq)
            .map_or(0, |run| run.partition_point(|&row| below(at(values, row))))
}

/// A lazy, exact, engine-ordered stream of one covered region's answer
/// (see the module docs). Holds its snapshot of the reconstruction, so
/// later crawls or drops never change what an open session serves.
pub struct ReconCursor {
    set: Arc<TupleSet>,
    filter: SearchQuery,
    walk: Walk,
}

enum Walk {
    /// Ascending projection order over `pos..end`.
    Asc {
        attr: AttrId,
        pos: usize,
        end: usize,
    },
    /// Equal-value groups from the top of `lo..hi`; the current group is
    /// `pos..group_end`, walked in ascending id.
    Desc {
        attr: AttrId,
        lo: usize,
        hi: usize,
        pos: usize,
        group_end: usize,
    },
    /// Fagin's Threshold Algorithm.
    Ta(Box<Threshold>),
}

impl ReconCursor {
    /// A cursor over the tuples of `set` matching `filter`, in `order`.
    /// `norm` must be the owning reranker's normalizer so MD scores
    /// reproduce the live engines' bits.
    pub(crate) fn new(
        set: Arc<TupleSet>,
        filter: SearchQuery,
        order: &ServeOrder,
        norm: &Normalizer,
    ) -> ReconCursor {
        let walk = match order {
            ServeOrder::OneDim {
                attr,
                dir: SortDir::Asc,
            } => {
                let run = set.run(*attr, &filter);
                Walk::Asc {
                    attr: *attr,
                    pos: run.start,
                    end: run.end,
                }
            }
            ServeOrder::OneDim {
                attr,
                dir: SortDir::Desc,
            } => {
                let run = set.run(*attr, &filter);
                Walk::Desc {
                    attr: *attr,
                    lo: run.start,
                    hi: run.end,
                    pos: run.end,
                    group_end: run.end,
                }
            }
            ServeOrder::Scored(f) => {
                let lists = f
                    .weights()
                    .iter()
                    .map(|&(attr, w)| {
                        let run = set.run(attr, &filter);
                        List {
                            attr,
                            up: w > 0.0,
                            lo: run.start,
                            hi: run.end,
                            last: None,
                        }
                    })
                    .collect();
                Walk::Ta(Box::new(Threshold {
                    scorer: f.scorer(norm),
                    lists,
                    heap: BinaryHeap::new(),
                    tau: f64::NEG_INFINITY,
                    exhausted: false,
                    point: Vec::new(),
                }))
            }
        };
        ReconCursor { set, filter, walk }
    }

    /// The next matching row in serving order.
    fn next_row(&mut self) -> Option<u32> {
        let set = &*self.set;
        let filter = &self.filter;
        let matches = |row: u32| set.matches(row, filter);
        match &mut self.walk {
            Walk::Asc { attr, pos, end } => {
                let rows = set.rows(*attr);
                while *pos < *end {
                    let row = rows.get(*pos).copied();
                    *pos += 1;
                    if let Some(row) = row.filter(|&r| matches(r)) {
                        return Some(row);
                    }
                }
                None
            }
            Walk::Desc {
                attr,
                lo,
                hi,
                pos,
                group_end,
            } => {
                let rows = set.rows(*attr);
                let values = set.values(*attr);
                loop {
                    if *pos < *group_end {
                        let row = rows.get(*pos).copied();
                        *pos += 1;
                        if let Some(row) = row.filter(|&r| matches(r)) {
                            return Some(row);
                        }
                        continue;
                    }
                    if *hi <= *lo {
                        return None;
                    }
                    *pos = group_start(rows, values, *lo, *hi);
                    *group_end = *hi;
                    *hi = *pos;
                }
            }
            Walk::Ta(ta) => ta.next(set, &matches),
        }
    }
}

impl Iterator for ReconCursor {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let row = self.next_row()?;
        self.set.get(row).cloned()
    }
}

/// One TA list: a projection run read from the end that scores lowest.
struct List {
    attr: AttrId,
    /// Read upwards (positive weight) or downwards (negative weight).
    up: bool,
    /// Unread positions `lo..hi`.
    lo: usize,
    hi: usize,
    /// The row read last.
    last: Option<u32>,
}

impl List {
    fn read(&mut self, rows: &[u32]) -> Option<u32> {
        if self.lo >= self.hi {
            return None;
        }
        let row = if self.up {
            self.lo += 1;
            rows.get(self.lo - 1).copied()
        } else {
            self.hi -= 1;
            rows.get(self.hi).copied()
        };
        self.last = row;
        row
    }

    /// True when this list has already read `row` (which lies in its run).
    fn passed(&self, set: &TupleSet, row: u32) -> bool {
        self.last.is_some_and(|last| {
            let ord = set.key_cmp(self.attr, row, last);
            if self.up {
                ord != Ordering::Greater
            } else {
                ord != Ordering::Less
            }
        })
    }
}

/// A scored heap entry, ordered by (score, row) — rows ascend with ids.
#[derive(Debug, Clone, Copy)]
struct Scored {
    score: f64,
    row: u32,
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scored {}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(self.row.cmp(&other.row))
    }
}

/// Fagin's Threshold Algorithm state (see the module docs).
struct Threshold {
    scorer: Scorer,
    lists: Vec<List>,
    heap: BinaryHeap<Reverse<Scored>>,
    /// No unseen matching tuple scores below this.
    tau: f64,
    /// Some list ran out: every matching tuple is in the heap or emitted.
    exhausted: bool,
    /// Scratch for a point on the lists' attributes: a first-seen row's
    /// values, then the lists' last-read values.
    point: Vec<f64>,
}

impl Threshold {
    fn next(&mut self, set: &TupleSet, matches: &impl Fn(u32) -> bool) -> Option<u32> {
        loop {
            match self.heap.peek() {
                // IEEE `<`, not `total_cmp`: with τ = 0.0 an unseen tuple
                // can still score -0.0 and tie a seen -0.0 with a smaller id.
                Some(Reverse(top)) if self.exhausted || top.score < self.tau => {
                    return self.heap.pop().map(|Reverse(s)| s.row);
                }
                None if self.exhausted => return None,
                _ => self.round(set, matches),
            }
        }
    }

    /// Read one row from every list, then raise τ.
    fn round(&mut self, set: &TupleSet, matches: &impl Fn(u32) -> bool) {
        for i in 0..self.lists.len() {
            let Some(list) = self.lists.get_mut(i) else {
                break;
            };
            let Some(row) = list.read(set.rows(list.attr)) else {
                self.exhausted = true;
                return;
            };
            let first_sight = || {
                !self
                    .lists
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && other.passed(set, row))
            };
            if matches(row) && first_sight() {
                // The lists follow the function's weights, as the
                // scorer's terms do.
                self.point.clear();
                self.point
                    .extend(self.lists.iter().map(|l| set.num(row, l.attr)));
                let score = self.scorer.score_point(&self.point);
                self.heap.push(Reverse(Scored { score, row }));
            }
        }
        self.point.clear();
        self.point.extend(
            self.lists
                .iter()
                .map(|l| l.last.map_or(f64::NAN, |row| set.num(row, l.attr))),
        );
        self.tau = self.scorer.score_point(&self.point);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_core::{AttrStats, LinearFunction};
    use qr2_webdb::{CatSet, RangePred, Schema, Value};

    /// xorshift64: deterministic and dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// `x`: a discrete attribute with heavy exact ties and both zeros;
    /// `y`: coarse, with ties; `c`: categorical; `z`: continuous, every
    /// value distinct.
    fn schema() -> Schema {
        Schema::builder()
            .numeric("x", -3.0, 3.0)
            .numeric("y", 0.0, 100.0)
            .categorical("c", ["a", "b", "c", "d"])
            .numeric("z", 0.0, 1000.0)
            .build()
    }

    const XS: [f64; 7] = [-3.0, -1.0, -0.0, 0.0, 0.0, 1.0, 3.0];

    /// `n` random tuples; `heavy` puts most x values in one tie group.
    fn random_set(rng: &mut Rng, n: usize, heavy: bool) -> Arc<TupleSet> {
        // Sparse, shuffled ids with a few duplicates: absorb orders and
        // deduplicates them.
        let tuples = (0..n)
            .map(|_| {
                let id = rng.below(3 * n as u64 + 1) as u32;
                let x = if heavy && rng.below(5) < 3 {
                    1.0
                } else {
                    rng.pick(&XS)
                };
                Tuple::new(
                    TupleId(id),
                    vec![
                        Value::Num(x),
                        Value::Num((rng.unit() * 20.0).round() * 5.0),
                        Value::Cat(rng.below(4) as u32),
                        Value::Num(rng.unit() * 1000.0),
                    ],
                )
            })
            .collect();
        let mut set = Arc::default();
        TupleSet::absorb(&mut set, tuples);
        set
    }

    fn random_range(rng: &mut Rng, lo: f64, hi: f64, grid: &[f64]) -> RangePred {
        let mut a = if rng.below(2) == 0 {
            rng.pick(grid)
        } else {
            lo + rng.unit() * (hi - lo)
        };
        let mut b = if rng.below(2) == 0 {
            rng.pick(grid)
        } else {
            lo + rng.unit() * (hi - lo)
        };
        if a > b && rng.below(8) != 0 {
            std::mem::swap(&mut a, &mut b);
        }
        match rng.below(5) {
            0 => RangePred::closed(a, b),
            1 => RangePred::half_open(a, b),
            2 => RangePred::open(a, b),
            3 => RangePred::open_closed(a, b),
            _ => RangePred::point(a),
        }
    }

    fn random_filter(rng: &mut Rng, s: &Schema) -> SearchQuery {
        let mut q = SearchQuery::all();
        if rng.below(3) != 0 {
            let r = random_range(rng, -3.0, 3.0, &XS);
            q = q.and_range(s.expect_id("x"), r);
        }
        if rng.below(2) == 0 {
            let r = random_range(rng, 0.0, 100.0, &[0.0, 25.0, 50.0, 100.0]);
            q = q.and_range(s.expect_id("y"), r);
        }
        if rng.below(3) == 0 {
            let codes: Vec<u32> = (0..4).filter(|_| rng.below(2) == 0).collect();
            q = q.and_cats(s.expect_id("c"), CatSet::new(codes));
        }
        if rng.below(4) == 0 {
            // Continuous bounds: they cut through x's and y's tie groups.
            let r = random_range(rng, 0.0, 1000.0, &[0.0, 1000.0]);
            q = q.and_range(s.expect_id("z"), r);
        }
        q
    }

    fn random_order(rng: &mut Rng, s: &Schema) -> ServeOrder {
        let attr = s.expect_id(rng.pick(&["x", "y", "z"]));
        match rng.below(4) {
            0 => ServeOrder::OneDim {
                attr,
                dir: SortDir::Asc,
            },
            1 => ServeOrder::OneDim {
                attr,
                dir: SortDir::Desc,
            },
            2 => ServeOrder::Scored(
                LinearFunction::new(vec![(attr, rng.pick(&[1.0, -1.0, 0.05, -0.3]))]).unwrap(),
            ),
            _ => ServeOrder::Scored(random_function(rng, s)),
        }
    }

    /// A two- or three-attribute function: mixed signs, and a small
    /// weight beside a unit one.
    fn random_function(rng: &mut Rng, s: &Schema) -> LinearFunction {
        let mut weights = vec![
            (s.expect_id("x"), rng.pick(&[1.0, -1.0, 0.05, -0.05, 0.4])),
            (s.expect_id("y"), rng.pick(&[1.0, -1.0, 0.05, -0.7])),
        ];
        if rng.below(3) == 0 {
            weights.push((s.expect_id("z"), rng.pick(&[1.0, -0.3, 0.002])));
        }
        LinearFunction::new(weights).unwrap()
    }

    /// A normalizer as a live reranker's may be: the schema domains, or
    /// calibrated to narrower observed bounds.
    fn random_normalizer(rng: &mut Rng, s: &Schema) -> Normalizer {
        let norm = Normalizer::from_domains(s);
        if rng.below(3) == 0 {
            norm.set(
                s.expect_id("y"),
                AttrStats {
                    min: 5.0,
                    max: 95.0,
                },
            );
            let lo = rng.unit() * 100.0;
            norm.set(
                s.expect_id("z"),
                AttrStats {
                    min: lo,
                    max: lo + 1.0 + rng.unit() * 800.0,
                },
            );
        }
        norm
    }

    /// The reference answer: filter, then sort with the engines' comparators.
    fn reference(
        set: &TupleSet,
        q: &SearchQuery,
        order: &ServeOrder,
        norm: &Normalizer,
    ) -> Vec<TupleId> {
        let mut matching: Vec<Tuple> = set
            .tuples
            .iter()
            .filter(|t| q.matches_with(|a| t.value(a)))
            .cloned()
            .collect();
        order.sort(&mut matching, norm);
        matching.iter().map(|t| t.id).collect()
    }

    /// Pull the cursor dry in random page sizes (1 included).
    fn drain(rng: &mut Rng, mut cursor: ReconCursor) -> Vec<TupleId> {
        let mut out = Vec::new();
        loop {
            let max = if rng.below(3) == 0 { 1 } else { 12 };
            let page = 1 + rng.below(max) as usize;
            let before = out.len();
            out.extend(cursor.by_ref().take(page).map(|t| t.id));
            if out.len() < before + page {
                assert!(cursor.next().is_none(), "a short page ends the answer");
                return out;
            }
        }
    }

    /// The longest run of equal (`total_cmp`) `attr` values in `ids`.
    fn longest_tie(set: &TupleSet, ids: &[TupleId], attr: AttrId) -> usize {
        let value = |id: &TupleId| {
            let row = set.tuples.binary_search_by_key(id, |t| t.id).unwrap();
            set.tuples[row].num_at(attr).to_bits()
        };
        let values: Vec<u64> = ids.iter().map(value).collect();
        values
            .chunk_by(|a, b| a == b)
            .map(<[u64]>::len)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn cursors_equal_filter_then_sort() {
        let s = schema();
        let x = s.expect_id("x");
        let mut rng = Rng(0x5EED_C0DE);
        let mut nonempty = 0;
        let mut longest_desc_tie = 0;
        for case in 0..1000 {
            // Every 25th case: a 3,000-tuple set whose x = 1.0 group is
            // longer than 2^10 rows, walked Desc on x half the time.
            let heavy = case % 25 == 0;
            let n = if heavy {
                3000
            } else {
                rng.pick(&[0usize, 1, 7, 60, 250])
            };
            let set = random_set(&mut rng, n, heavy);
            let norm = random_normalizer(&mut rng, &s);
            let q = random_filter(&mut rng, &s);
            let order = if heavy && rng.below(2) == 0 {
                ServeOrder::OneDim {
                    attr: x,
                    dir: SortDir::Desc,
                }
            } else {
                random_order(&mut rng, &s)
            };
            let want = reference(&set, &q, &order, &norm);
            nonempty += usize::from(!want.is_empty());
            if let ServeOrder::OneDim {
                attr,
                dir: SortDir::Desc,
            } = order
            {
                longest_desc_tie = longest_desc_tie.max(longest_tie(&set, &want, attr));
            }
            let got = drain(
                &mut rng,
                ReconCursor::new(Arc::clone(&set), q.clone(), &order, &norm),
            );
            assert_eq!(got, want, "case {case}: filter {q}, order {order:?}");
        }
        assert!(nonempty > 333, "too few cases with matches: {nonempty}");
        assert!(
            longest_desc_tie > 1 << 10,
            "no Desc answer had a tie group over 2^10 rows: {longest_desc_tie}"
        );
    }

    #[test]
    fn group_start_gallops_to_each_group_edge() {
        // Naive: scan down from the top while the value is equal.
        fn naive(values: &[f64], lo: usize, hi: usize) -> usize {
            let top = values[hi - 1];
            (lo..hi)
                .rev()
                .take_while(|&pos| values[pos].total_cmp(&top) == Ordering::Equal)
                .last()
                .unwrap()
        }
        let mut rng = Rng(0x6A11_0B5E);
        // Group lengths 1 (one comparison), runs ending at `lo` (the
        // gallop runs past it) or above a smaller value (a step lands
        // below), over 2^10 rows, and -0.0 below 0.0.
        let lengths = [1usize, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 1025, 1500];
        for case in 0..400 {
            let mut values = Vec::new();
            for v in [-1.0, -0.0, 0.0, 2.0, 7.5] {
                if rng.below(4) != 0 {
                    let len = rng.pick(&lengths);
                    values.extend(std::iter::repeat_n(v, len));
                }
            }
            if values.is_empty() {
                continue;
            }
            // Projection rows are a permutation; any one checks the
            // indirection. Reverse the positions.
            let rows: Vec<u32> = (0..values.len() as u32).rev().collect();
            let by_row: Vec<f64> = values.iter().rev().copied().collect();
            let lo = rng.below(values.len() as u64) as usize;
            let mut hi = values.len();
            while hi > lo {
                let want = naive(&values, lo, hi);
                assert_eq!(
                    group_start(&rows, &by_row, lo, hi),
                    want,
                    "case {case}: lo {lo}, hi {hi}"
                );
                hi = want;
            }
        }
    }

    #[test]
    fn score_point_over_columns_is_bit_identical_to_score() {
        let s = schema();
        let mut rng = Rng(0xB175_EC0D);
        for _ in 0..50 {
            let set = random_set(&mut rng, 200, false);
            let norm = random_normalizer(&mut rng, &s);
            let f = random_function(&mut rng, &s);
            let scorer = f.scorer(&norm);
            for (row, t) in set.tuples.iter().enumerate() {
                let point: Vec<f64> = f.attrs().map(|a| set.num(row as u32, a)).collect();
                assert_eq!(
                    scorer.score_point(&point).to_bits(),
                    scorer.score(t).to_bits(),
                    "{f:?} on {t:?}"
                );
            }
        }
    }

    #[test]
    fn desc_emits_tie_groups_in_ascending_id_and_zeros_apart() {
        let s = schema();
        let x = s.expect_id("x");
        let values = [0.0, -0.0, 1.0, 1.0, -0.0, 0.0, 1.0];
        let tuples = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Tuple::new(
                    TupleId(10 - i as u32),
                    vec![
                        Value::Num(v),
                        Value::Num(0.0),
                        Value::Cat(0),
                        Value::Num(0.0),
                    ],
                )
            })
            .collect();
        let mut set = Arc::default();
        TupleSet::absorb(&mut set, tuples);
        let norm = Normalizer::from_domains(&s);
        let order = ServeOrder::OneDim {
            attr: x,
            dir: SortDir::Desc,
        };
        let ids: Vec<u32> = ReconCursor::new(set, SearchQuery::all(), &order, &norm)
            .map(|t| t.id.0)
            .collect();
        // 1.0 at ids 4, 7, 8; 0.0 at ids 5, 10; -0.0 at ids 6, 9.
        assert_eq!(ids, vec![4, 7, 8, 5, 10, 6, 9]);
    }

    #[test]
    fn absorb_keeps_the_first_copy_and_reports_only_new_tuples() {
        let t = |id: u32, v: f64| Tuple::new(TupleId(id), vec![Value::Num(v)]);
        let mut set = Arc::default();
        let added = TupleSet::absorb(&mut set, vec![t(5, 1.0), t(2, 2.0), t(5, 9.0)]);
        assert_eq!(added.iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![2, 5]);
        let held = Arc::clone(&set);
        let added = TupleSet::absorb(&mut set, vec![t(3, 3.0), t(5, 7.0)]);
        assert_eq!(added.iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![3]);
        let ids: Vec<u32> = set.tuples.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![2, 3, 5]);
        assert_eq!(
            set.tuples.last().map(|t| t.num(0)),
            Some(1.0),
            "first copy wins"
        );
        assert_eq!(held.len(), 2, "an open snapshot is never mutated");
    }
}
