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
        r.snap_integral()
    } else {
        r
    }
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
}
