//! The crawl frontier: how a probed region becomes pending regions, an
//! atomic hole or a retired leaf.

use qr2_webdb::{Schema, SearchQuery, TopKResponse};

use crate::splitter::{split_region, SplitPolicy};

/// What [`Frontier::absorb`] did with a probed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absorbed {
    /// It overflowed; its non-empty halves are now pending.
    Split,
    /// It did not overflow: every tuple in it was returned.
    Leaf,
    /// It overflowed but cannot be split (more than `system-k` tuples
    /// identical on every searchable attribute); see [`Frontier::atomic`].
    Atomic,
}

/// A crawl's LIFO stack of pending `(region, depth)`, its atomic regions
/// and its split rule. Popping and absorbing walks the split tree
/// depth-first, left half first. A region's split depends only on the
/// region and its page, so the tree does not depend on the visiting order.
#[derive(Debug)]
pub struct Frontier<'a> {
    schema: &'a Schema,
    policy: SplitPolicy,
    pending: Vec<(SearchQuery, usize)>,
    atomic: Vec<SearchQuery>,
}

impl<'a> Frontier<'a> {
    /// A frontier of `pending` regions (bottom of the stack first, as
    /// [`Frontier::pending`] lists them) and known `atomic` ones. Every
    /// region starts at depth 0.
    pub fn new(
        schema: &'a Schema,
        policy: SplitPolicy,
        pending: impl IntoIterator<Item = SearchQuery>,
        atomic: Vec<SearchQuery>,
    ) -> Self {
        Frontier {
            schema,
            policy,
            pending: pending.into_iter().map(|q| (q, 0)).collect(),
            atomic,
        }
    }

    /// The next region to probe, with its depth in the split tree.
    pub fn pop(&mut self) -> Option<(SearchQuery, usize)> {
        self.pending.pop()
    }

    /// Put a popped region back on top, unprobed.
    pub fn push_back(&mut self, region: SearchQuery, depth: usize) {
        self.pending.push((region, depth));
    }

    /// Take in the answer to a probe of `region`: split it if it
    /// overflowed (between the values of its page, see [`SplitPolicy`]),
    /// pushing right then left so left is probed next and skipping halves
    /// that provably match nothing; record it once as atomic if it
    /// overflowed and cannot be split.
    pub fn absorb(&mut self, region: SearchQuery, depth: usize, resp: &TopKResponse) -> Absorbed {
        if !resp.overflow {
            return Absorbed::Leaf;
        }
        let Some((left, right)) = split_region(self.schema, &region, &resp.tuples, self.policy)
        else {
            if !self.atomic.contains(&region) {
                self.atomic.push(region);
            }
            return Absorbed::Atomic;
        };
        for half in [right, left] {
            if !half.is_trivially_empty() {
                self.pending.push((half, depth + 1));
            }
        }
        Absorbed::Split
    }

    /// The pending regions, bottom of the stack first.
    pub fn pending(&self) -> impl Iterator<Item = &SearchQuery> {
        self.pending.iter().map(|(q, _)| q)
    }

    /// The atomic regions found so far.
    pub fn atomic(&self) -> &[SearchQuery] {
        &self.atomic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::RangePred;

    fn page(overflow: bool) -> TopKResponse {
        TopKResponse::new(Vec::new(), overflow)
    }

    #[test]
    fn overflow_splits_left_first_and_a_leaf_retires() {
        let schema = Schema::builder().numeric("x", 0.0, 8.0).build();
        let x = schema.expect_id("x");
        let mut frontier = Frontier::new(
            &schema,
            SplitPolicy::default(),
            [SearchQuery::all()],
            Vec::new(),
        );
        let (root, depth) = frontier.pop().unwrap();
        assert_eq!(frontier.absorb(root, depth, &page(true)), Absorbed::Split);
        let (left, depth) = frontier.pop().unwrap();
        assert_eq!(depth, 1);
        assert_eq!(
            left,
            SearchQuery::all().and_range(x, RangePred::half_open(0.0, 4.0))
        );
        assert_eq!(frontier.absorb(left, depth, &page(false)), Absorbed::Leaf);
        assert_eq!(frontier.pending().count(), 1, "only the right half is left");
    }

    #[test]
    fn atomic_overflow_is_recorded_once() {
        let schema = Schema::builder().numeric("x", 0.0, 1.0).build();
        let x = schema.expect_id("x");
        let point = SearchQuery::all().and_point(x, 0.5);
        let mut frontier =
            Frontier::new(&schema, SplitPolicy::default(), [point.clone()], Vec::new());
        for _ in 0..2 {
            let (q, depth) = frontier.pop().unwrap();
            assert_eq!(frontier.absorb(q, depth, &page(true)), Absorbed::Atomic);
            frontier.push_back(point.clone(), 0);
        }
        assert_eq!(frontier.atomic(), [point]);
    }
}
