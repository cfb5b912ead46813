//! Helpers for reasoning about the *effective* extent of a conjunctive
//! region: a [`SearchQuery`] constrains some attributes; the rest default to
//! their full public domain.

use qr2_webdb::{AttrId, AttrKind, CatSet, RangePred, Schema, SearchQuery};

/// The effective numeric range of `attr` under `q`: the query's predicate if
/// present, otherwise the attribute's full public domain (closed).
///
/// For integral attributes the returned range is snapped to whole numbers
/// with inclusive bounds, which is how the search form presents it.
pub fn effective_range(schema: &Schema, q: &SearchQuery, attr: AttrId) -> RangePred {
    let a = schema.attr(attr);
    let (dmin, dmax) = a.numeric_domain();
    let base = RangePred::closed(dmin, dmax);
    let r = match q.range_of(attr) {
        Some(r) => r.intersect(&base),
        None => base,
    };
    if a.is_integral() {
        snap_integral(r)
    } else {
        r
    }
}

/// Snap a range on an integral attribute to inclusive whole-number bounds.
pub fn snap_integral(r: RangePred) -> RangePred {
    // Smallest integer satisfying the lower bound:
    //   inclusive: ceil(lo); exclusive: floor(lo + 1) (= lo+1 when lo is
    //   already whole, otherwise ceil(lo)).
    let lo = if r.lo_inc {
        r.lo.ceil()
    } else {
        (r.lo + 1.0).floor()
    };
    // Largest integer satisfying the upper bound (mirror image).
    let hi = if r.hi_inc {
        r.hi.floor()
    } else {
        (r.hi - 1.0).ceil()
    };
    RangePred::closed(lo, hi)
}

/// The effective categorical extent of `attr` under `q`: the query's set if
/// present, otherwise all labels.
pub fn effective_cats(schema: &Schema, q: &SearchQuery, attr: AttrId) -> CatSet {
    match &schema.attr(attr).kind {
        AttrKind::Categorical { labels } => match q.predicate(attr) {
            Some(qr2_webdb::Predicate::Cats(s)) => s.clone(),
            _ => CatSet::new(0..labels.len() as u32),
        },
        AttrKind::Numeric { .. } => panic!(
            "attribute '{}' is numeric, not categorical",
            schema.attr(attr).name
        ),
    }
}

/// A scale-free "diagonal" of the region: the sum over numeric attributes of
/// the effective width relative to the domain width, plus the fraction of
/// categorical labels still allowed. Zero means the region is a single
/// point; used by dense-region detection and split ordering.
pub fn region_diag(schema: &Schema, q: &SearchQuery) -> f64 {
    let mut diag = 0.0;
    for (id, attr) in schema.iter() {
        match &attr.kind {
            AttrKind::Numeric { min, max, .. } => {
                let dw = max - min;
                if dw > 0.0 {
                    diag += effective_range(schema, q, id).width() / dw;
                }
            }
            AttrKind::Categorical { labels } => {
                let total = labels.len() as f64;
                let allowed = effective_cats(schema, q, id).len() as f64;
                if total > 1.0 {
                    diag += (allowed - 1.0).max(0.0) / (total - 1.0);
                }
            }
        }
    }
    diag
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::Predicate;

    fn schema() -> Schema {
        Schema::builder()
            .numeric("price", 0.0, 100.0)
            .integral("beds", 0.0, 10.0)
            .categorical("cut", ["a", "b", "c", "d"])
            .build()
    }

    #[test]
    fn effective_range_defaults_to_domain() {
        let s = schema();
        let r = effective_range(&s, &SearchQuery::all(), s.expect_id("price"));
        assert_eq!(r, RangePred::closed(0.0, 100.0));
    }

    #[test]
    fn effective_range_clips_to_domain() {
        let s = schema();
        let price = s.expect_id("price");
        let q = SearchQuery::all().and_range(price, RangePred::closed(-50.0, 40.0));
        assert_eq!(effective_range(&s, &q, price), RangePred::closed(0.0, 40.0));
    }

    #[test]
    fn effective_range_snaps_integral_bounds() {
        let s = schema();
        let beds = s.expect_id("beds");
        let q = SearchQuery::all().and_range(beds, RangePred::half_open(1.2, 6.0));
        // [1.2, 6.0) over integers = [2, 5]
        assert_eq!(effective_range(&s, &q, beds), RangePred::closed(2.0, 5.0));
    }

    #[test]
    fn effective_range_open_integral_bounds() {
        let s = schema();
        let beds = s.expect_id("beds");
        let q = SearchQuery::all().and_range(beds, RangePred::open(2.0, 5.0));
        // (2, 5) over integers = [3, 4]
        assert_eq!(effective_range(&s, &q, beds), RangePred::closed(3.0, 4.0));
    }

    #[test]
    fn effective_cats_defaults_to_all_labels() {
        let s = schema();
        let cut = s.expect_id("cut");
        assert_eq!(
            effective_cats(&s, &SearchQuery::all(), cut).codes(),
            &[0, 1, 2, 3]
        );
        let q = SearchQuery::all().and(cut, Predicate::Cats(CatSet::new([1, 3])));
        assert_eq!(effective_cats(&s, &q, cut).codes(), &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "numeric, not categorical")]
    fn effective_cats_on_numeric_panics() {
        let s = schema();
        effective_cats(&s, &SearchQuery::all(), s.expect_id("price"));
    }

    #[test]
    fn diag_full_space_vs_point() {
        let s = schema();
        let full = region_diag(&s, &SearchQuery::all());
        assert!(full > 2.9, "full space diag ≈ 3, got {full}");
        let price = s.expect_id("price");
        let beds = s.expect_id("beds");
        let cut = s.expect_id("cut");
        let q = SearchQuery::all()
            .and_point(price, 5.0)
            .and_point(beds, 3.0)
            .and(cut, Predicate::Cats(CatSet::single(2)));
        assert_eq!(region_diag(&s, &q), 0.0);
    }

    #[test]
    fn diag_decreases_under_narrowing() {
        let s = schema();
        let price = s.expect_id("price");
        let q1 = SearchQuery::all().and_range(price, RangePred::closed(0.0, 50.0));
        let q2 = q1.and_range(price, RangePred::closed(0.0, 25.0));
        assert!(region_diag(&s, &q2) < region_diag(&s, &q1));
        assert!(region_diag(&s, &q1) < region_diag(&s, &SearchQuery::all()));
    }
}
