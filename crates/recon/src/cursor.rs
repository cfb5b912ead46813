//! Lazy, exact serving over the reconstructed tuple set.
//!
//! A covered region's answer is every reconstructed tuple that matches
//! the filter, in the engines' serving order ([`ServeOrder`]). Instead of
//! materializing and sorting that set for every session, a
//! [`ReconCursor`] pulls it in order, one tuple at a time, from
//! structures the reconstruction builds once per version of its tuple
//! set: per-attribute row-indexed columns ([`qr2_webdb::Column`]), sorted
//! projections ([`qr2_webdb::Projection`]) and a kd-tree per set of
//! function attributes. Every walk, filter check and score reads these; a
//! [`Tuple`] is read only when it is emitted.
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
//! * **MD orders** walk a kd-tree best-first: branch-and-bound ranked
//!   search (Tao et al., "Branch-and-bound processing of ranked queries",
//!   Information Systems 2007), exact here because the reconstruction is
//!   complete. The tree indexes exactly the function's attributes, so
//!   every split narrows a term of the score; a column the function does
//!   not read would spend levels that tighten no bound. A leaf holds up
//!   to [`LEAF`] rows, contiguous in the tree's row order, and every node
//!   keeps the bounding box of its rows. A node's bound is the function's
//!   score at one corner of that box clipped to the filter's range
//!   predicates on those attributes: each attribute takes the end its
//!   weight prefers, the low end for a positive weight. Normalization,
//!   weighting and a fixed-order sum are each monotone under IEEE
//!   rounding, so no matching row in the node scores below the bound; a
//!   node whose clipped box is empty holds no match and is pruned. Nodes
//!   are expanded in bound order. The rows of a leaf that match the whole
//!   filter (its other predicates included) are scored and pushed on a
//!   min-heap ordered by (score, id). The heap minimum is emitted only
//!   while its score is strictly below the least pending bound: a row not
//!   yet scanned can tie that bound with a smaller id. Once no node is
//!   pending, every match is in the heap.
//!
//! A cursor's state holds only what it has read: the 1D walk keeps a few
//! positions, and the MD walk the nodes it has bounded and the matching
//! rows of the leaves it has scanned.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use qr2_core::{LinearFunction, Normalizer, Scorer, SortDir};
use qr2_webdb::{AttrId, Column, Projection, RangePred, SearchQuery, Tuple, TupleId};

use crate::serve::ServeOrder;

/// An immutable snapshot of the reconstructed tuples: ordered by id,
/// deduplicated, with each attribute's column and projection and the
/// kd-trees built on first use. A row is a position in `tuples`, so
/// ascending rows are ascending tuple ids.
#[derive(Debug, Default)]
pub(crate) struct TupleSet {
    tuples: Vec<Tuple>,
    columns: Vec<OnceLock<Column>>,
    projections: Vec<OnceLock<Projection>>,
    /// The kd-trees built so far, oldest first, at most [`TREES`].
    trees: Mutex<Vec<Arc<KdTree>>>,
}

/// The most kd-trees one [`TupleSet`] keeps: one per set of function
/// attributes. Building another drops the oldest; open cursors keep
/// theirs.
const TREES: usize = 8;

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
            trees: Mutex::default(),
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
        self.find(id).is_some()
    }

    /// The tuple with `id`, if the set holds it.
    pub(crate) fn find(&self, id: TupleId) -> Option<&Tuple> {
        let row = self.tuples.binary_search_by_key(&id, |t| t.id).ok()?;
        self.tuples.get(row)
    }

    fn get(&self, row: u32) -> Option<&Tuple> {
        self.tuples.get(row as usize)
    }

    /// The column of `attr`, built on first use. `None` when the set has
    /// no such attribute (an empty set has none).
    pub(crate) fn column(&self, attr: AttrId) -> Option<&Column> {
        let cell = self.columns.get(attr.index())?;
        Some(cell.get_or_init(|| {
            qr2_obs::span("recon.build", || {
                if self.is_numeric(attr) {
                    Column::Numeric(self.tuples.iter().map(|t| t.num_at(attr)).collect())
                } else {
                    Column::Categorical(
                        self.tuples.iter().map(|t| t.value(attr).as_cat()).collect(),
                    )
                }
            })
        }))
    }

    /// Whether `attr` holds numbers, read from the first tuple.
    fn is_numeric(&self, attr: AttrId) -> bool {
        self.tuples.first().is_some_and(|t| t.value(attr).is_num())
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

    /// The kd-tree over `attrs` if it is built already.
    #[cfg(test)]
    pub(crate) fn built_tree(&self, attrs: &[AttrId]) -> Option<Arc<KdTree>> {
        let key = self.tree_key(attrs);
        self.trees.lock().iter().find(|t| t.attrs == key).cloned()
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
        Some(cell.get_or_init(|| {
            qr2_obs::span("recon.build", || {
                Projection::build(values.len(), |row| at(values, row))
            })
        }))
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

    /// The numeric attributes among `attrs`, ascending and distinct.
    fn tree_key(&self, attrs: &[AttrId]) -> Vec<AttrId> {
        let mut key: Vec<AttrId> = attrs
            .iter()
            .copied()
            .filter(|&a| a.index() < self.columns.len() && self.is_numeric(a))
            .collect();
        key.sort_unstable();
        key.dedup();
        key
    }

    /// The kd-tree over the numeric columns among `attrs`, built on first
    /// use after those columns. An MD order walks the tree over exactly
    /// its function's attributes, so every split narrows a term of the
    /// score. A build holds the lock, so each set is built once per
    /// version and builds of different sets run one after another.
    pub(crate) fn tree(&self, attrs: &[AttrId]) -> Arc<KdTree> {
        let key = self.tree_key(attrs);
        let mut trees = self.trees.lock();
        if let Some(tree) = trees.iter().find(|t| t.attrs == key) {
            return Arc::clone(tree);
        }
        let columns: Vec<(AttrId, &[f64])> = key.iter().map(|&a| (a, self.values(a))).collect();
        let tree = Arc::new(qr2_obs::span("recon.build", || {
            KdTree::build(&columns, self.len())
        }));
        if trees.len() == TREES {
            trees.remove(0);
        }
        trees.push(Arc::clone(&tree));
        tree
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

/// Rows per kd-tree leaf. A node splits while it holds more, at a
/// multiple of this, so every leaf but the last of a run is full.
const LEAF: usize = 32;

/// A kd-tree over some numeric columns of one [`TupleSet`] version. Each
/// node covers a contiguous run of `rows` and keeps the bounding box of
/// those rows. An inner node splits its run at a multiple of [`LEAF`] on
/// the dimension where its region is widest relative to the root's.
#[derive(Debug)]
pub(crate) struct KdTree {
    /// The numeric attributes: dimension `d` is `attrs[d]`.
    attrs: Vec<AttrId>,
    /// Rows in tree order.
    rows: Vec<u32>,
    nodes: Vec<Node>,
    /// Per node, per dimension, the least and greatest value of its rows.
    boxes: Vec<(f64, f64)>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// The node's rows are `rows[start..end]`.
    start: usize,
    end: usize,
    /// The first child's index (the second follows it); 0 for a leaf,
    /// since the root is nobody's child.
    children: usize,
}

impl KdTree {
    /// Index `len` rows by the numeric `columns`. The splits are chosen
    /// on region boxes (a parent's box cut at the split value); once the
    /// rows are placed, every node's box is tightened to its rows.
    fn build(columns: &[(AttrId, &[f64])], len: usize) -> KdTree {
        let values: Vec<&[f64]> = columns.iter().map(|&(_, v)| v).collect();
        let dims = values.len();
        let value = |d: usize, row: u32| values.get(d).map_or(f64::NAN, |v| at(v, row));
        let mut rows: Vec<u32> = (0..len).map_while(|r| u32::try_from(r).ok()).collect();
        let mut nodes = Vec::new();
        let mut boxes = Vec::new();
        if dims > 0 && !rows.is_empty() {
            nodes.push(Node {
                start: 0,
                end: rows.len(),
                children: 0,
            });
            boxes.extend((0..dims).map(|d| bounding(rows.iter().map(|&row| value(d, row)))));
        }
        let root = boxes.clone();
        let mut keyed = Vec::new();
        let mut stack = vec![0];
        while let Some(i) = stack.pop() {
            let Some(&Node { start, end, .. }) = nodes.get(i) else {
                continue;
            };
            if end - start <= LEAF {
                continue;
            }
            let region: Vec<(f64, f64)> = boxes
                .get(i * dims..(i + 1) * dims)
                .map_or_else(Vec::new, <[_]>::to_vec);
            let relative = |(&(lo, hi), &(root_lo, root_hi)): (&(f64, f64), &(f64, f64))| {
                let span = root_hi - root_lo;
                if span > 0.0 {
                    (hi - lo) / span
                } else {
                    0.0
                }
            };
            let d = region
                .iter()
                .zip(&root)
                .map(relative)
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(d, _)| d);
            let mid = start + LEAF * ((end - start).div_ceil(LEAF) / 2);
            let Some(run) = rows.get_mut(start..end) else {
                continue;
            };
            // Select on (value, row) pairs: contiguous keys, not a
            // column read per comparison.
            keyed.clear();
            keyed.extend(run.iter().map(|&row| (value(d, row), row)));
            keyed.select_nth_unstable_by(mid - start, |a, b| {
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
            });
            for (slot, &(_, row)) in run.iter_mut().zip(&keyed) {
                *slot = row;
            }
            let split = keyed.get(mid - start).map_or(f64::NAN, |&(v, _)| v);
            let first = nodes.len();
            if let Some(node) = nodes.get_mut(i) {
                node.children = first;
            }
            for (s, e) in [(start, mid), (mid, end)] {
                let mut child = region.clone();
                if let Some(side) = child.get_mut(d) {
                    if s == start {
                        side.1 = split;
                    } else {
                        side.0 = split;
                    }
                }
                stack.push(nodes.len());
                nodes.push(Node {
                    start: s,
                    end: e,
                    children: 0,
                });
                boxes.extend(child);
            }
        }
        let mut tree = KdTree {
            attrs: columns.iter().map(|&(attr, _)| attr).collect(),
            rows,
            nodes,
            boxes,
        };
        tree.tighten(&values);
        tree
    }

    /// Replace every node's region by the bounding box of its rows,
    /// children before parents: children are stored after their parent.
    fn tighten(&mut self, values: &[&[f64]]) {
        let dims = values.len();
        for i in (0..self.nodes.len()).rev() {
            let Some(&node) = self.nodes.get(i) else {
                continue;
            };
            let tight: Vec<(f64, f64)> = values
                .iter()
                .enumerate()
                .map(|(d, v)| match node.children {
                    0 => bounding(self.rows_of(node).iter().map(|&row| at(v, row))),
                    c => {
                        let (a_lo, a_hi) = self.extent(c, d);
                        let (b_lo, b_hi) = self.extent(c + 1, d);
                        (a_lo.min(b_lo), a_hi.max(b_hi))
                    }
                })
                .collect();
            if let Some(slot) = self.boxes.get_mut(i * dims..(i + 1) * dims) {
                slot.copy_from_slice(&tight);
            }
        }
    }

    /// The rows of `node`.
    fn rows_of(&self, node: Node) -> &[u32] {
        self.rows.get(node.start..node.end).unwrap_or(&[])
    }

    /// Node `node`'s least and greatest value on dimension `d`.
    fn extent(&self, node: usize, d: usize) -> (f64, f64) {
        self.boxes
            .get(node * self.attrs.len() + d)
            .copied()
            .unwrap_or((f64::NAN, f64::NAN))
    }
}

/// The least and greatest of `values` by IEEE comparison.
fn bounding(mut values: impl Iterator<Item = f64>) -> (f64, f64) {
    let first = values.next().unwrap_or(f64::NAN);
    values.fold((first, first), |(lo, hi), v| {
        (if v < lo { v } else { lo }, if v > hi { v } else { hi })
    })
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
    /// Best-first search over the kd-tree of the function's attributes.
    Best {
        tree: Arc<KdTree>,
        walk: Box<BestFirst>,
    },
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
                let attrs: Vec<AttrId> = f.attrs().collect();
                let tree = set.tree(&attrs);
                let walk = Box::new(BestFirst::new(&tree, &filter, f, norm));
                Walk::Best { tree, walk }
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
            Walk::Best { tree, walk } => walk.next(set, tree, &matches),
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

/// A heap entry: a row by its score or a node by its bound, ordered by
/// (score, id). Rows ascend with tuple ids.
#[derive(Debug, Clone, Copy)]
struct Scored {
    score: f64,
    id: usize,
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
            .then(self.id.cmp(&other.id))
    }
}

/// Best-first branch-and-bound over the kd-tree (see the module docs).
struct BestFirst {
    scorer: Scorer,
    /// Each function term's tree dimension, in the scorer's order, and
    /// whether its weight is negative: then a larger value scores lower,
    /// so the high end of a box bounds it.
    terms: Vec<(usize, bool)>,
    /// The filter's range predicate on each tree dimension.
    ranges: Vec<Option<RangePred>>,
    /// Pending nodes by (bound, index).
    nodes: BinaryHeap<Reverse<Scored>>,
    /// The matching rows of scanned leaves by (score, row).
    rows: BinaryHeap<Reverse<Scored>>,
    /// Scratch for a point on the function's attributes.
    point: Vec<f64>,
    /// Leaves scanned so far.
    #[cfg(test)]
    leaves: usize,
}

impl BestFirst {
    /// The walk over `tree` for `f`, with the root queued. Empty when a
    /// function attribute is not a tree dimension: the set has no such
    /// numeric column, so no row can be ranked.
    fn new(tree: &KdTree, filter: &SearchQuery, f: &LinearFunction, norm: &Normalizer) -> Self {
        let dim = |attr: AttrId| tree.attrs.iter().position(|&a| a == attr);
        let terms: Option<Vec<(usize, bool)>> = f
            .weights()
            .iter()
            .map(|&(attr, w)| Some((dim(attr)?, w < 0.0)))
            .collect();
        let mut walk = BestFirst {
            scorer: f.scorer(norm),
            terms: Vec::new(),
            ranges: tree
                .attrs
                .iter()
                .map(|&a| filter.range_of(a).copied())
                .collect(),
            nodes: BinaryHeap::new(),
            rows: BinaryHeap::new(),
            point: Vec::new(),
            #[cfg(test)]
            leaves: 0,
        };
        if let Some(terms) = terms {
            walk.terms = terms;
            walk.push(tree, 0);
        }
        walk
    }

    fn next(
        &mut self,
        set: &TupleSet,
        tree: &KdTree,
        matches: &impl Fn(u32) -> bool,
    ) -> Option<u32> {
        loop {
            let pending = self.nodes.peek().map(|Reverse(node)| node.score);
            match self.rows.peek() {
                // IEEE `<`, not `total_cmp`: with a bound of 0.0 a row not
                // yet scanned can still score -0.0 and tie with a smaller id.
                Some(Reverse(top)) if pending.is_none_or(|bound| top.score < bound) => {
                    return self
                        .rows
                        .pop()
                        .and_then(|Reverse(s)| u32::try_from(s.id).ok());
                }
                None if pending.is_none() => return None,
                _ => self.expand(set, tree, matches),
            }
        }
    }

    /// Pop the node with the least bound: queue its children, or score
    /// its matching rows if it is a leaf.
    fn expand(&mut self, set: &TupleSet, tree: &KdTree, matches: &impl Fn(u32) -> bool) {
        let Some(Reverse(Scored { id, .. })) = self.nodes.pop() else {
            return;
        };
        let Some(&node) = tree.nodes.get(id) else {
            return;
        };
        if node.children != 0 {
            self.push(tree, node.children);
            self.push(tree, node.children + 1);
            return;
        }
        #[cfg(test)]
        {
            self.leaves += 1;
        }
        for &row in tree.rows_of(node).iter().filter(|&&row| matches(row)) {
            // The terms follow the function's weights, as the scorer's do.
            self.point.clear();
            self.point.extend(self.terms.iter().map(|&(d, _)| {
                tree.attrs
                    .get(d)
                    .map_or(f64::NAN, |&attr| set.num(row, attr))
            }));
            let score = self.scorer.score_point(&self.point);
            self.rows.push(Reverse(Scored {
                score,
                id: row as usize,
            }));
        }
    }

    /// Queue `node` by its bound, unless no row in it can match.
    fn push(&mut self, tree: &KdTree, node: usize) {
        if let Some(bound) = self.bound(tree, node) {
            self.nodes.push(Reverse(Scored {
                score: bound,
                id: node,
            }));
        }
    }

    /// No row of `node` that passes the filter's range predicates scores
    /// below this; `None` when none can pass (its clipped box is empty).
    fn bound(&mut self, tree: &KdTree, node: usize) -> Option<f64> {
        let ranges = &self.ranges;
        let clipped = |d: usize| {
            let (lo, hi) = tree.extent(node, d);
            let bounds = RangePred {
                lo,
                hi,
                lo_inc: true,
                hi_inc: true,
            };
            let clipped = match ranges.get(d) {
                Some(Some(r)) => bounds.intersect(r),
                _ => bounds,
            };
            (!clipped.is_empty()).then_some(clipped)
        };
        if (0..ranges.len()).any(|d| clipped(d).is_none()) {
            return None;
        }
        self.point.clear();
        for &(d, high) in &self.terms {
            let c = clipped(d)?;
            self.point.push(if high { c.hi } else { c.lo });
        }
        Some(self.scorer.score_point(&self.point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_core::AttrStats;
    use qr2_webdb::{CatSet, Schema, Value};

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
        if rng.below(3) == 0 {
            // x's minimum at zero: x = -0.0 normalizes to -0.0, so scores
            // of -0.0 and 0.0 tie under IEEE `<` but not under `total_cmp`.
            norm.set(s.expect_id("x"), AttrStats { min: 0.0, max: 3.0 });
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

    /// The longest run of equal (`total_cmp`) keys in `ids`' order.
    fn longest_tie(set: &TupleSet, ids: &[TupleId], key: impl Fn(&Tuple) -> f64) -> usize {
        let values: Vec<u64> = ids
            .iter()
            .map(|&id| key(set.find(id).unwrap()).to_bits())
            .collect();
        values
            .chunk_by(|a, b| a == b)
            .map(<[u64]>::len)
            .max()
            .unwrap_or(0)
    }

    /// A filter of one categorical predicate and nothing else.
    fn categorical_filter(rng: &mut Rng, s: &Schema) -> SearchQuery {
        let codes: Vec<u32> = (0..4).filter(|_| rng.below(3) != 0).collect();
        SearchQuery::all().and_cats(s.expect_id("c"), CatSet::new(codes))
    }

    #[test]
    fn cursors_equal_filter_then_sort() {
        let s = schema();
        let x = s.expect_id("x");
        let mut rng = Rng(0x5EED_C0DE);
        let mut nonempty = 0;
        let mut longest_desc_tie = 0;
        // Deep scored cases: 3-attribute functions, categorical-only
        // filters, the longest score tie, and answers holding both a -0.0
        // and a 0.0 score.
        let (mut deep, mut three, mut categorical) = (0, 0, 0);
        let (mut longest_score_tie, mut signed_zeros) = (0, 0);
        for case in 0..1000 {
            // Every 25th case: a 3,000-tuple set whose x = 1.0 group is
            // longer than 2^10 rows, walked Desc on x half the time.
            let heavy = case % 25 == 0;
            // Every 25th case, offset: a scored order on 3,000 tuples, so
            // the kd-tree is several levels deep and tie groups and both
            // zeros of x span leaf boundaries.
            let deep_scored = case % 25 == 12;
            let n = if heavy || deep_scored {
                3000
            } else {
                rng.pick(&[0usize, 1, 7, 60, 250])
            };
            let ties = heavy || (deep_scored && rng.below(2) == 0);
            let set = random_set(&mut rng, n, ties);
            let norm = random_normalizer(&mut rng, &s);
            let q = if deep_scored && rng.below(3) == 0 {
                categorical += 1;
                categorical_filter(&mut rng, &s)
            } else {
                random_filter(&mut rng, &s)
            };
            let order = if heavy && rng.below(2) == 0 {
                ServeOrder::OneDim {
                    attr: x,
                    dir: SortDir::Desc,
                }
            } else if deep_scored {
                let f = random_function(&mut rng, &s);
                three += usize::from(f.dims() == 3);
                ServeOrder::Scored(f)
            } else {
                random_order(&mut rng, &s)
            };
            let want = reference(&set, &q, &order, &norm);
            nonempty += usize::from(!want.is_empty());
            match &order {
                ServeOrder::OneDim {
                    attr,
                    dir: SortDir::Desc,
                } => {
                    longest_desc_tie =
                        longest_desc_tie.max(longest_tie(&set, &want, |t| t.num_at(*attr)));
                }
                ServeOrder::Scored(f) if deep_scored => {
                    deep += 1;
                    let score = |t: &Tuple| f.score(t, &norm);
                    longest_score_tie = longest_score_tie.max(longest_tie(&set, &want, score));
                    let bits: Vec<u64> = want
                        .iter()
                        .map(|&id| score(set.find(id).unwrap()).to_bits())
                        .collect();
                    signed_zeros += usize::from(
                        bits.contains(&(-0.0f64).to_bits()) && bits.contains(&0.0f64.to_bits()),
                    );
                }
                _ => {}
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
        assert_eq!(deep, 40);
        assert!(three >= 5, "too few deep 3-attribute cases: {three}");
        assert!(
            categorical >= 5,
            "too few deep categorical-only filters: {categorical}"
        );
        assert!(
            longest_score_tie > 2 * LEAF,
            "no deep answer had a score tie spanning leaves: {longest_score_tie}"
        );
        assert!(signed_zeros > 0, "no deep answer scored both -0.0 and 0.0");
    }

    #[test]
    fn node_bounds_never_exceed_a_matching_rows_score() {
        let s = schema();
        let mut rng = Rng(0xB0_0DED);
        let mut checked = 0;
        for case in 0..60 {
            let n = rng.pick(&[1usize, 40, 300, 2000]);
            let ties = rng.below(2) == 0;
            let set = random_set(&mut rng, n, ties);
            let norm = random_normalizer(&mut rng, &s);
            let q = random_filter(&mut rng, &s);
            let f = random_function(&mut rng, &s);
            let scorer = f.scorer(&norm);
            let tree = set.tree(&f.attrs().collect::<Vec<_>>());
            let mut walk = BestFirst::new(&tree, &q, &f, &norm);
            for (i, node) in tree.nodes.iter().enumerate() {
                let bound = walk.bound(&tree, i);
                if node.children == 0 {
                    assert!(node.end - node.start <= LEAF, "case {case}: leaf {node:?}");
                } else {
                    let (a, b) = (&tree.nodes[node.children], &tree.nodes[node.children + 1]);
                    assert_eq!((a.start, a.end, b.end), (node.start, b.start, node.end));
                }
                for &row in tree.rows_of(*node) {
                    let t = set.get(row).unwrap();
                    for (d, &attr) in tree.attrs.iter().enumerate() {
                        let (lo, hi) = tree.extent(i, d);
                        assert!(
                            lo <= t.num_at(attr) && t.num_at(attr) <= hi,
                            "case {case}: box"
                        );
                    }
                    if !set.matches(row, &q) {
                        continue;
                    }
                    let bound = bound.unwrap_or_else(|| panic!("case {case}: node {i} pruned"));
                    let score = scorer.score(t);
                    assert!(
                        bound <= score,
                        "case {case}: node {i} bound {bound} > {score}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 10_000, "too few matching rows checked: {checked}");
    }

    #[test]
    fn top_85_scans_a_small_fraction_of_the_leaves() {
        // Wider than the functions: three numeric columns (`u`, `v`, `w`)
        // that no function reads, as on a real source's form.
        let s = Schema::builder()
            .numeric("x", -3.0, 3.0)
            .numeric("y", 0.0, 100.0)
            .categorical("c", ["a", "b", "c", "d"])
            .numeric("z", 0.0, 1000.0)
            .numeric("u", 0.0, 1.0)
            .numeric("v", 0.0, 1.0)
            .numeric("w", 0.0, 1.0)
            .build();
        let [x, y, z, u] = ["x", "y", "z", "u"].map(|a| s.expect_id(a));
        let mut rng = Rng(0x0C0_FFEE);
        let tuples = (0..20_000)
            .map(|id| {
                let mut values = vec![
                    Value::Num(-3.0 + 6.0 * rng.unit()),
                    Value::Num(100.0 * rng.unit()),
                    Value::Cat(rng.below(4) as u32),
                    Value::Num(1000.0 * rng.unit()),
                ];
                values.extend((0..3).map(|_| Value::Num(rng.unit())));
                Tuple::new(TupleId(id), values)
            })
            .collect();
        let mut set = Arc::default();
        TupleSet::absorb(&mut set, tuples);
        let norm = Normalizer::from_domains(&s);
        let leaves = 20_000usize.div_ceil(LEAF);
        let f = |w: &[(AttrId, f64)]| ServeOrder::Scored(LinearFunction::new(w.to_vec()).unwrap());
        let cases = [
            (SearchQuery::all(), f(&[(x, 1.0), (y, 1.0)])),
            (
                SearchQuery::all().and_range(x, RangePred::closed(0.0, 0.3)),
                f(&[(x, 1.0), (y, -0.5)]),
            ),
            (
                SearchQuery::all().and_range(y, RangePred::half_open(40.0, 45.0)),
                f(&[(x, -1.0), (y, 1.0), (z, 0.2)]),
            ),
            (
                SearchQuery::all().and_cats(s.expect_id("c"), CatSet::single(2)),
                f(&[(x, 0.5), (z, 1.0)]),
            ),
            (
                SearchQuery::all().and_range(u, RangePred::closed(0.2, 0.6)),
                f(&[(y, -1.0), (z, 0.3)]),
            ),
        ];
        for (q, order) in cases {
            let mut cursor = ReconCursor::new(Arc::clone(&set), q.clone(), &order, &norm);
            let got: Vec<TupleId> = cursor.by_ref().take(85).map(|t| t.id).collect();
            let want = reference(&set, &q, &order, &norm);
            assert_eq!(got, want[..85], "filter {q}, order {order:?}");
            let Walk::Best { tree, walk } = &cursor.walk else {
                panic!("an MD order walks the tree");
            };
            let ServeOrder::Scored(function) = &order else {
                unreachable!()
            };
            let mut attrs: Vec<AttrId> = function.attrs().collect();
            attrs.sort_unstable();
            assert_eq!(
                tree.attrs, attrs,
                "the tree indexes the function's attributes"
            );
            let full = tree.nodes.iter().filter(|n| n.children == 0).count();
            assert_eq!(full, leaves, "every leaf full");
            assert!(
                walk.leaves * 20 <= leaves,
                "filter {q}, order {order:?}: scanned {} of {leaves} leaves",
                walk.leaves
            );
        }
    }

    #[test]
    fn a_version_keeps_at_most_eight_trees_dropping_the_oldest() {
        let tuples = (0..100)
            .map(|id| {
                Tuple::new(
                    TupleId(id),
                    (0..5).map(|d| Value::Num(f64::from(id * d))).collect(),
                )
            })
            .collect();
        let mut set = Arc::default();
        TupleSet::absorb(&mut set, tuples);
        // Nine distinct sets of attributes; the reversed first one is the
        // same set.
        let keys: Vec<Vec<AttrId>> = (3u16..=11)
            .map(|bits| {
                (0..5)
                    .filter(|d| bits & (1 << d) != 0)
                    .map(AttrId)
                    .collect()
            })
            .collect();
        let first = set.tree(&keys[0]);
        let mut reversed = keys[0].clone();
        reversed.reverse();
        assert!(
            Arc::ptr_eq(&first, &set.tree(&reversed)),
            "one tree per set"
        );
        for key in &keys[1..] {
            set.tree(key);
        }
        assert_eq!(set.trees.lock().len(), TREES);
        assert!(set.built_tree(&keys[0]).is_none(), "the oldest is dropped");
        assert!(keys[1..].iter().all(|k| set.built_tree(k).is_some()));
        assert_eq!(first.attrs, keys[0], "a holder keeps its tree");
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
