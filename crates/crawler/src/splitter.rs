//! Region splitting: turn one overflowing region into two disjoint
//! subregions that exactly partition it.

use qr2_webdb::{AttrId, AttrKind, Predicate, Schema, SearchQuery};

use crate::region::{effective_cats, effective_range};

/// How the crawler picks the attribute to split on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Split the numeric attribute with the widest *relative* extent
    /// (width / domain width); fall back to the categorical attribute with
    /// the most remaining labels. This keeps regions roughly cubical, which
    /// minimizes the number of leaves (Sheng et al.'s analysis).
    #[default]
    WidestRelative,
    /// Rotate through splittable attributes by depth. Used by the split
    /// ablation (A2 in `qr2-bench`'s `experiments.rs`) as the "naive"
    /// comparator.
    RoundRobin {
        /// Current recursion depth (caller-maintained).
        depth: usize,
    },
}

/// Minimum relative width below which a continuous range is treated as
/// unsplittable (all remaining mass is effectively a point — e.g. exact
/// ties). 2^-40 of the domain keeps well clear of f64 noise while allowing
/// ~40 binary splits.
const MIN_REL_WIDTH: f64 = 1.0 / (1u64 << 40) as f64;

/// A candidate split on one attribute.
#[derive(Debug, Clone, PartialEq)]
enum Candidate {
    Numeric { attr: AttrId, rel_width: f64 },
    Categorical { attr: AttrId, len: usize },
}

fn candidates(schema: &Schema, q: &SearchQuery) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (id, attr) in schema.iter() {
        match &attr.kind {
            AttrKind::Numeric { min, max, integral } => {
                let r = effective_range(schema, q, id);
                if r.is_empty() {
                    continue;
                }
                let dw = max - min;
                if *integral {
                    // Splittable iff at least two integers remain.
                    if r.hi - r.lo >= 1.0 {
                        let rel = if dw > 0.0 { r.width() / dw } else { 0.0 };
                        out.push(Candidate::Numeric {
                            attr: id,
                            rel_width: rel.max(MIN_REL_WIDTH * 2.0),
                        });
                    }
                } else {
                    let rel = if dw > 0.0 { r.width() / dw } else { 0.0 };
                    if rel > MIN_REL_WIDTH {
                        out.push(Candidate::Numeric {
                            attr: id,
                            rel_width: rel,
                        });
                    }
                }
            }
            AttrKind::Categorical { .. } => {
                let s = effective_cats(schema, q, id);
                if s.len() >= 2 {
                    out.push(Candidate::Categorical {
                        attr: id,
                        len: s.len(),
                    });
                }
            }
        }
    }
    out
}

/// Split `q` into two disjoint subqueries that exactly partition its match
/// set, or `None` when the region is *atomic* (every attribute is pinned to
/// a point / single label and further separation is impossible).
pub(crate) fn split_region(
    schema: &Schema,
    q: &SearchQuery,
    policy: SplitPolicy,
) -> Option<(SearchQuery, SearchQuery)> {
    let cands = candidates(schema, q);
    if cands.is_empty() {
        return None;
    }
    let chosen = match policy {
        SplitPolicy::WidestRelative => {
            // Numeric candidates ranked by relative width, then categorical
            // by remaining label count; ties break toward the earliest
            // attribute (keep the *first* strict maximum).
            let mut best = cands[0].clone();
            for c in &cands[1..] {
                let better = match (c, &best) {
                    (
                        Candidate::Numeric { rel_width: wa, .. },
                        Candidate::Numeric { rel_width: wb, .. },
                    ) => wa > wb,
                    (Candidate::Numeric { .. }, Candidate::Categorical { .. }) => true,
                    (Candidate::Categorical { .. }, Candidate::Numeric { .. }) => false,
                    (
                        Candidate::Categorical { len: la, .. },
                        Candidate::Categorical { len: lb, .. },
                    ) => la > lb,
                };
                if better {
                    best = c.clone();
                }
            }
            best
        }
        SplitPolicy::RoundRobin { depth } => cands[depth % cands.len()].clone(),
    };

    let (attr, left, right) = match chosen {
        Candidate::Numeric { attr, .. } => {
            // `None` only for a continuous range too narrow for f64 to
            // represent a midpoint.
            let (l, r) =
                effective_range(schema, q, attr).bisect(schema.attr(attr).is_integral())?;
            (attr, Predicate::Range(l), Predicate::Range(r))
        }
        Candidate::Categorical { attr, .. } => {
            let (a, b) = effective_cats(schema, q, attr).split();
            (attr, Predicate::Cats(a), Predicate::Cats(b))
        }
    };
    debug_assert!(!left.is_empty() && !right.is_empty());
    Some((q.with(attr, left), q.with(attr, right)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::{CatSet, RangePred};

    fn schema() -> Schema {
        Schema::builder()
            .numeric("price", 0.0, 100.0)
            .integral("beds", 0.0, 7.0)
            .categorical("cut", ["a", "b", "c"])
            .build()
    }

    #[test]
    fn splits_widest_numeric_first() {
        let s = schema();
        let (l, r) = split_region(&s, &SearchQuery::all(), SplitPolicy::WidestRelative).unwrap();
        let price = s.expect_id("price");
        // price is continuous with rel width 1.0 → split at 50 into [0,50) and [50,100].
        assert_eq!(l.range_of(price).unwrap(), &RangePred::half_open(0.0, 50.0));
        assert_eq!(r.range_of(price).unwrap(), &RangePred::closed(50.0, 100.0));
    }

    #[test]
    fn halves_partition_numeric_boundary() {
        let s = schema();
        let (l, r) = split_region(&s, &SearchQuery::all(), SplitPolicy::WidestRelative).unwrap();
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
        let (l, r) = split_region(&s, &q, SplitPolicy::WidestRelative).unwrap();
        assert_eq!(l.range_of(beds).unwrap(), &RangePred::closed(0.0, 3.0));
        assert_eq!(r.range_of(beds).unwrap(), &RangePred::closed(4.0, 7.0));
    }

    #[test]
    fn categorical_split_when_numerics_exhausted() {
        let s = schema();
        let q = SearchQuery::all()
            .and_point(s.expect_id("price"), 10.0)
            .and_point(s.expect_id("beds"), 3.0);
        let (l, r) = split_region(&s, &q, SplitPolicy::WidestRelative).unwrap();
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
        assert!(split_region(&s, &q, SplitPolicy::WidestRelative).is_none());
    }

    #[test]
    fn round_robin_rotates() {
        let s = schema();
        let a = split_region(
            &s,
            &SearchQuery::all(),
            SplitPolicy::RoundRobin { depth: 0 },
        );
        let b = split_region(
            &s,
            &SearchQuery::all(),
            SplitPolicy::RoundRobin { depth: 1 },
        );
        let (a, _) = a.unwrap();
        let (b, _) = b.unwrap();
        assert_ne!(a, b, "different depths pick different attributes");
    }

    #[test]
    fn tiny_range_reported_unsplittable() {
        let s = Schema::builder().numeric("x", 0.0, 1.0).build();
        let x = s.expect_id("x");
        let v = 0.5;
        let q = SearchQuery::all().and_range(x, RangePred::closed(v, v));
        assert!(split_region(&s, &q, SplitPolicy::WidestRelative).is_none());
    }

    #[test]
    fn single_integer_unsplittable() {
        let s = schema();
        let q = SearchQuery::all()
            .and_point(s.expect_id("price"), 1.0)
            .and_range(s.expect_id("beds"), RangePred::closed(3.0, 3.0))
            .and(s.expect_id("cut"), Predicate::Cats(CatSet::single(0)));
        assert!(split_region(&s, &q, SplitPolicy::WidestRelative).is_none());
    }
}
