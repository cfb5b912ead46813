//! Region splitting: turn one overflowing region into two disjoint
//! subregions that exactly partition it.
//!
//! The cut goes where the overflowing page says the tuples are: between
//! two adjacent distinct values of the page on one numeric attribute, so
//! both halves hold page tuples and no split child is ever empty. With
//! distinct page values every node of the split tree then holds at least
//! ⌊k/2⌋ tuples (k = the page size), which bounds a crawl of n tuples at
//! about 4n/k probes; a midpoint cut has no such bound on skewed data,
//! where it mostly peels off empty halves. The split depends only on the
//! region and its page, so the split tree does not depend on the order
//! its regions are visited in.

use qr2_webdb::{AttrId, AttrKind, CatSet, Predicate, RangePred, Schema, SearchQuery, Tuple};

use crate::region::{effective_cats, effective_range};

/// Where the crawler cuts an overflowing region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Cut between two adjacent distinct values of the overflowing page,
    /// on the numeric attribute and at the gap that leave the most page
    /// tuples on the smaller side (ties go to the earliest attribute and
    /// the lowest gap). A continuous attribute is cut halfway between the
    /// two values, `[lo, c)` and `[c, hi]`; an integral one `≤ ⌊c⌋` and
    /// `≥ ⌊c⌋ + 1` on its whole-number bounds. Only when no numeric
    /// attribute separates the page does it fall back to
    /// [`SplitPolicy::Midpoint`].
    #[default]
    PageCut,
    /// Cut the numeric attribute with the widest *relative* extent
    /// (width / domain width) at its midpoint; fall back to the
    /// categorical attribute with the most remaining labels. Ignores the
    /// page; the split ablation (A2 in `qr2-bench`'s `experiments.rs`)
    /// compares it against [`SplitPolicy::PageCut`].
    Midpoint,
}

/// Minimum relative width below which a continuous range is treated as
/// unsplittable (all remaining mass is effectively a point — e.g. exact
/// ties). 2^-40 of the domain keeps well clear of f64 noise while allowing
/// ~40 binary splits.
const MIN_REL_WIDTH: f64 = 1.0 / (1u64 << 40) as f64;

/// An attribute the region can still be cut on.
#[derive(Debug)]
enum Candidate {
    Numeric {
        attr: AttrId,
        range: RangePred,
        integral: bool,
        rel_width: f64,
    },
    Categorical {
        attr: AttrId,
        cats: CatSet,
    },
}

fn candidates(schema: &Schema, q: &SearchQuery) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (id, attr) in schema.iter() {
        match &attr.kind {
            AttrKind::Numeric { min, max, integral } => {
                let range = effective_range(schema, q, id);
                if range.is_empty() {
                    continue;
                }
                let dw = max - min;
                let rel = if dw > 0.0 { range.width() / dw } else { 0.0 };
                // An integral range is splittable iff at least two
                // integers remain.
                let rel_width = match integral {
                    true if range.hi - range.lo >= 1.0 => rel.max(MIN_REL_WIDTH * 2.0),
                    false if rel > MIN_REL_WIDTH => rel,
                    _ => continue,
                };
                out.push(Candidate::Numeric {
                    attr: id,
                    range,
                    integral: *integral,
                    rel_width,
                });
            }
            AttrKind::Categorical { .. } => {
                let cats = effective_cats(schema, q, id);
                if cats.len() >= 2 {
                    out.push(Candidate::Categorical { attr: id, cats });
                }
            }
        }
    }
    out
}

/// A cut of one attribute into two predicates.
type Cut = (AttrId, Predicate, Predicate);

/// The cut between two adjacent distinct page values that leaves the most
/// page tuples on its smaller side, or `None` when no numeric candidate
/// separates the page.
fn page_cut(cands: &[Candidate], page: &[Tuple]) -> Option<Cut> {
    let mut best: Option<(usize, Cut)> = None;
    for cand in cands {
        let Candidate::Numeric {
            attr,
            range,
            integral,
            ..
        } = cand
        else {
            continue;
        };
        let mut values: Vec<f64> = page
            .iter()
            .map(|t| t.num_at(*attr))
            .filter(|&v| range.matches(v))
            .collect();
        values.sort_by(f64::total_cmp);
        for (left, pair) in (1..).zip(values.windows(2)) {
            let (a, b) = (pair[0], pair[1]);
            let smaller = left.min(values.len() - left);
            if a == b || best.as_ref().is_some_and(|(s, _)| smaller <= *s) {
                continue;
            }
            // Halfway between the two values, or on `b` when no f64 lies
            // strictly between them.
            let mid = a + (b - a) / 2.0;
            let at = if mid > a { mid } else { b };
            let Some((l, r)) = range.cut(at, *integral) else {
                continue;
            };
            if l.matches(a) && r.matches(b) {
                best = Some((smaller, (*attr, Predicate::Range(l), Predicate::Range(r))));
            }
        }
    }
    best.map(|(_, cut)| cut)
}

/// The midpoint cut of the numeric candidate with the widest relative
/// extent, else a split of the categorical candidate with the most labels;
/// ties break toward the earliest attribute.
fn midpoint_cut(cands: &[Candidate]) -> Option<Cut> {
    let rank = |c: &Candidate| match c {
        Candidate::Numeric { rel_width, .. } => (1, *rel_width),
        Candidate::Categorical { cats, .. } => (0, cats.len() as f64),
    };
    // Keep the *first* strict maximum.
    let chosen = cands.iter().reduce(|best, c| {
        if rank(c).partial_cmp(&rank(best)) == Some(std::cmp::Ordering::Greater) {
            c
        } else {
            best
        }
    })?;
    Some(match chosen {
        Candidate::Numeric {
            attr,
            range,
            integral,
            ..
        } => {
            // `None` only for a continuous range too narrow for f64 to
            // represent a midpoint.
            let (l, r) = range.bisect(*integral)?;
            (*attr, Predicate::Range(l), Predicate::Range(r))
        }
        Candidate::Categorical { attr, cats } => {
            let (a, b) = cats.split();
            (*attr, Predicate::Cats(a), Predicate::Cats(b))
        }
    })
}

/// Split `q`, whose probe overflowed with `page`, into two disjoint
/// subqueries that exactly partition its match set, or `None` when the
/// region is *atomic* (every attribute is pinned to a point / single label
/// and further separation is impossible).
pub(crate) fn split_region(
    schema: &Schema,
    q: &SearchQuery,
    page: &[Tuple],
    policy: SplitPolicy,
) -> Option<(SearchQuery, SearchQuery)> {
    let cands = candidates(schema, q);
    let page_cut = match policy {
        SplitPolicy::PageCut => page_cut(&cands, page),
        SplitPolicy::Midpoint => None,
    };
    let (attr, left, right) = page_cut.or_else(|| midpoint_cut(&cands))?;
    debug_assert!(!left.is_empty() && !right.is_empty());
    Some((q.with(attr, left), q.with(attr, right)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::{TupleId, Value};

    fn schema() -> Schema {
        Schema::builder()
            .numeric("price", 0.0, 100.0)
            .integral("beds", 0.0, 7.0)
            .categorical("cut", ["a", "b", "c"])
            .build()
    }

    /// A page of `(price, beds)` rows, all with cut `a`.
    fn page(rows: &[(f64, f64)]) -> Vec<Tuple> {
        (0..)
            .zip(rows)
            .map(|(i, &(price, beds))| {
                Tuple::new(
                    TupleId(i),
                    vec![Value::Num(price), Value::Num(beds), Value::Cat(0)],
                )
            })
            .collect()
    }

    /// The range `q` puts on `attr`.
    fn range(s: &Schema, q: &SearchQuery, attr: &str) -> RangePred {
        *q.range_of(s.expect_id(attr)).unwrap()
    }

    #[test]
    fn splits_widest_numeric_first() {
        let s = schema();
        let (l, r) = split_region(&s, &SearchQuery::all(), &[], SplitPolicy::default()).unwrap();
        let price = s.expect_id("price");
        // price is continuous with rel width 1.0 → split at 50 into [0,50) and [50,100].
        assert_eq!(l.range_of(price).unwrap(), &RangePred::half_open(0.0, 50.0));
        assert_eq!(r.range_of(price).unwrap(), &RangePred::closed(50.0, 100.0));
    }

    #[test]
    fn halves_partition_numeric_boundary() {
        let s = schema();
        let (l, r) = split_region(&s, &SearchQuery::all(), &[], SplitPolicy::default()).unwrap();
        let price = s.expect_id("price");
        let lp = l.range_of(price).unwrap();
        let rp = r.range_of(price).unwrap();
        // 50.0 belongs to exactly one half.
        assert!(!lp.matches(50.0) && rp.matches(50.0));
        // Every value in [0,100] belongs to exactly one half.
        for v in [0.0, 25.0, 49.999, 50.0, 75.0, 100.0] {
            assert_eq!(lp.matches(v) as u8 + rp.matches(v) as u8, 1, "v={v}");
        }
    }

    #[test]
    fn integral_split_produces_disjoint_integer_ranges() {
        let s = schema();
        let price = s.expect_id("price");
        let beds = s.expect_id("beds");
        // Pin price to a point so the splitter must choose beds.
        let q = SearchQuery::all().and_point(price, 10.0);
        let (l, r) = split_region(&s, &q, &[], SplitPolicy::default()).unwrap();
        assert_eq!(l.range_of(beds).unwrap(), &RangePred::closed(0.0, 3.0));
        assert_eq!(r.range_of(beds).unwrap(), &RangePred::closed(4.0, 7.0));
    }

    #[test]
    fn categorical_split_when_numerics_exhausted() {
        let s = schema();
        let q = SearchQuery::all()
            .and_point(s.expect_id("price"), 10.0)
            .and_point(s.expect_id("beds"), 3.0);
        let (l, r) = split_region(&s, &q, &[], SplitPolicy::default()).unwrap();
        let cut = s.expect_id("cut");
        let lc = match l.predicate(cut).unwrap() {
            Predicate::Cats(c) => c.clone(),
            _ => panic!(),
        };
        let rc = match r.predicate(cut).unwrap() {
            Predicate::Cats(c) => c.clone(),
            _ => panic!(),
        };
        assert_eq!(lc.codes(), &[0, 1]);
        assert_eq!(rc.codes(), &[2]);
    }

    #[test]
    fn atomic_region_cannot_split() {
        let s = schema();
        let q = SearchQuery::all()
            .and_point(s.expect_id("price"), 10.0)
            .and_point(s.expect_id("beds"), 3.0)
            .and(s.expect_id("cut"), Predicate::Cats(CatSet::single(1)));
        assert!(split_region(&s, &q, &[], SplitPolicy::default()).is_none());
    }

    #[test]
    fn tiny_range_reported_unsplittable() {
        let s = Schema::builder().numeric("x", 0.0, 1.0).build();
        let x = s.expect_id("x");
        let v = 0.5;
        let q = SearchQuery::all().and_range(x, RangePred::closed(v, v));
        assert!(split_region(&s, &q, &[], SplitPolicy::default()).is_none());
    }

    #[test]
    fn single_integer_unsplittable() {
        let s = schema();
        let q = SearchQuery::all()
            .and_point(s.expect_id("price"), 1.0)
            .and_range(s.expect_id("beds"), RangePred::closed(3.0, 3.0))
            .and(s.expect_id("cut"), Predicate::Cats(CatSet::single(0)));
        assert!(split_region(&s, &q, &[], SplitPolicy::default()).is_none());
    }

    #[test]
    fn cuts_between_the_page_values_on_an_exclusive_integral_bound() {
        let s = schema();
        let beds = s.expect_id("beds");
        // beds ∈ (1, 7) admits 2..=6; price is pinned, so only beds can
        // separate the page. The gap 2 | 3 leaves 3 page tuples a side.
        let q = SearchQuery::all()
            .and_point(s.expect_id("price"), 10.0)
            .and_range(beds, RangePred::open(1.0, 7.0));
        let rows = page(&[
            (10.0, 2.0),
            (10.0, 2.0),
            (10.0, 2.0),
            (10.0, 3.0),
            (10.0, 5.0),
            (10.0, 6.0),
        ]);
        let (l, r) = split_region(&s, &q, &rows, SplitPolicy::PageCut).unwrap();
        assert_eq!(range(&s, &l, "beds"), RangePred::closed(2.0, 2.0));
        assert_eq!(range(&s, &r, "beds"), RangePred::closed(3.0, 6.0));
        // The midpoint of the snapped [2, 6] ignores the page: 4 | 2.
        let (l, r) = split_region(&s, &q, &rows, SplitPolicy::Midpoint).unwrap();
        assert_eq!(range(&s, &l, "beds"), RangePred::closed(2.0, 4.0));
        assert_eq!(range(&s, &r, "beds"), RangePred::closed(5.0, 6.0));
    }

    #[test]
    fn tied_page_values_move_the_cut_to_the_attribute_that_balances_it() {
        let s = schema();
        // price: five tuples tie at 10, so its best gap leaves 1 a side;
        // beds splits the page 3 | 3 and wins despite coming second.
        let rows = page(&[
            (10.0, 1.0),
            (10.0, 1.0),
            (10.0, 1.0),
            (10.0, 4.0),
            (10.0, 4.0),
            (20.0, 4.0),
        ]);
        let (l, r) = split_region(&s, &SearchQuery::all(), &rows, SplitPolicy::PageCut).unwrap();
        assert_eq!(range(&s, &l, "beds"), RangePred::closed(0.0, 2.0));
        assert_eq!(range(&s, &r, "beds"), RangePred::closed(3.0, 7.0));
        assert!(l.range_of(s.expect_id("price")).is_none());
        // Equal balance goes to the earlier attribute, halfway between the
        // tied run and the next value.
        let rows = page(&[(10.0, 1.0), (10.0, 1.0), (30.0, 4.0), (30.0, 4.0)]);
        let (l, r) = split_region(&s, &SearchQuery::all(), &rows, SplitPolicy::PageCut).unwrap();
        assert_eq!(range(&s, &l, "price"), RangePred::half_open(0.0, 20.0));
        assert_eq!(range(&s, &r, "price"), RangePred::closed(20.0, 100.0));
    }

    #[test]
    fn a_page_no_attribute_separates_falls_back_to_the_midpoint() {
        let s = schema();
        let rows = page(&[(10.0, 3.0), (10.0, 3.0), (10.0, 3.0)]);
        let (l, r) = split_region(&s, &SearchQuery::all(), &rows, SplitPolicy::PageCut).unwrap();
        assert_eq!(range(&s, &l, "price"), RangePred::half_open(0.0, 50.0));
        assert_eq!(range(&s, &r, "price"), RangePred::closed(50.0, 100.0));
        // With every numeric pinned, the fallback splits the labels.
        let q = SearchQuery::all()
            .and_point(s.expect_id("price"), 10.0)
            .and_point(s.expect_id("beds"), 3.0);
        let (l, _) = split_region(&s, &q, &rows, SplitPolicy::PageCut).unwrap();
        assert!(matches!(
            l.predicate(s.expect_id("cut")),
            Some(Predicate::Cats(_))
        ));
    }
}
