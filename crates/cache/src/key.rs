//! Canonical cache keys for [`SearchQuery`]s.
//!
//! Two users rarely type byte-identical queries, but they frequently type
//! *semantically* identical ones: `price in [0, 1000]` over a form whose
//! price slider ends at 1000 is the same question as no price filter at
//! all, and `beds in (1, 4]` over an integral attribute is the same
//! question as `beds in [2, 4]`. The canonicalizer maps every such query
//! to one representative so they collide in the shared answer cache.
//!
//! Canonicalization is **schema-aware** and *only* applies rewrites that
//! are sound under the web-form contract:
//!
//! * predicates are keyed in attribute-id order with at most one
//!   predicate per attribute (already a [`SearchQuery`] invariant);
//! * `-0.0` bounds are normalized to `+0.0` (they admit the same values
//!   but differ in bit pattern);
//! * range bounds are clamped to the attribute's public domain — values
//!   outside `[min, max]` cannot exist, so looser bounds ask the same
//!   question;
//! * on **integral** attributes (whole-number values by schema contract),
//!   open bounds are converted to the equivalent closed integer bounds,
//!   normalizing bound openness entirely;
//! * a predicate that covers its attribute's whole domain (full range, or
//!   a categorical set naming every label) is dropped;
//! * any unsatisfiable predicate collapses the whole query to a single
//!   canonical *empty* key — every empty query gets the same answer (no
//!   tuples, no overflow).
//!
//! The canonical form is used **only as the cache key**: the original
//! query is what gets executed on a miss, so the observable wire traffic
//! is untouched.

use qr2_store::codec::encode_query;
use qr2_webdb::{AttrKind, Predicate, RangePred, Schema, SearchQuery};

/// The canonical form of a query: either provably empty (all empty
/// queries share one key) or a normalized query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonicalQuery {
    /// No tuple can match: canonical answer is the empty, non-overflowing
    /// response.
    Empty,
    /// The normalized representative.
    Query(SearchQuery),
}

fn positive_zero(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// Canonicalize one range predicate against its attribute's numeric
/// domain. Returns `None` for "drop the predicate" (full coverage) and
/// `Some(None)` is avoided by using a dedicated empty flag.
enum CanonRange {
    Empty,
    Full,
    Keep(RangePred),
}

fn canon_range(r: &RangePred, min: f64, max: f64, integral: bool) -> CanonRange {
    let mut lo = positive_zero(r.lo);
    let mut hi = positive_zero(r.hi);
    let mut lo_inc = r.lo_inc;
    let mut hi_inc = r.hi_inc;

    if lo > hi || (lo == hi && !(lo_inc && hi_inc)) {
        return CanonRange::Empty;
    }
    if integral {
        // Whole-number values only: open bounds have an exact closed
        // integer equivalent, erasing bound openness from the key.
        // (`(-0.5).ceil()` is `-0.0`, so re-normalize the zero sign.)
        let snapped = r.snap_integral();
        lo = positive_zero(snapped.lo);
        hi = positive_zero(snapped.hi);
        lo_inc = true;
        hi_inc = true;
        if lo > hi {
            return CanonRange::Empty;
        }
    }
    // Values outside the public domain cannot exist, so clamping asks the
    // same question with tighter bounds.
    if lo < min {
        lo = min;
        lo_inc = true;
    }
    if hi > max {
        hi = max;
        hi_inc = true;
    }
    if lo > hi || (lo == hi && !(lo_inc && hi_inc)) {
        return CanonRange::Empty;
    }
    if lo == min && lo_inc && hi == max && hi_inc {
        return CanonRange::Full;
    }
    CanonRange::Keep(RangePred {
        lo,
        hi,
        lo_inc,
        hi_inc,
    })
}

/// Compute the canonical form of `q` against `schema`.
pub fn canonicalize(schema: &Schema, q: &SearchQuery) -> CanonicalQuery {
    let mut out = SearchQuery::all();
    for (attr, pred) in q.predicates() {
        if attr.index() >= schema.len() {
            // Out-of-schema predicate (should not happen through the
            // public builders): keep verbatim, never guess.
            out = out.with(attr, pred.clone());
            continue;
        }
        match (&schema.attr(attr).kind, pred) {
            (
                AttrKind::Numeric {
                    min, max, integral, ..
                },
                Predicate::Range(r),
            ) => match canon_range(r, *min, *max, *integral) {
                CanonRange::Empty => return CanonicalQuery::Empty,
                CanonRange::Full => {}
                CanonRange::Keep(r) => out = out.with(attr, Predicate::Range(r)),
            },
            (AttrKind::Categorical { labels }, Predicate::Cats(s)) => {
                if s.is_empty() {
                    return CanonicalQuery::Empty;
                }
                // Codes are label indices; a set naming every label is no
                // constraint at all. (CatSet is already sorted + deduped.)
                let full = s.len() == labels.len()
                    && s.codes().last() == Some(&((labels.len() as u32) - 1));
                if !full {
                    out = out.with(attr, Predicate::Cats(s.clone()));
                }
            }
            // Kind mismatch: keep verbatim rather than guess.
            _ => out = out.with(attr, pred.clone()),
        }
    }
    CanonicalQuery::Query(out)
}

/// The cache key bytes for `q`: a one-byte tag plus the canonical query in
/// the stable `qr2-store` binary format.
pub fn cache_key(schema: &Schema, q: &SearchQuery) -> Vec<u8> {
    match canonicalize(schema, q) {
        CanonicalQuery::Empty => vec![b'E'],
        CanonicalQuery::Query(canon) => {
            let mut key = Vec::with_capacity(16);
            key.push(b'Q');
            encode_query(&mut key, &canon);
            key
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::CatSet;

    fn schema() -> Schema {
        Schema::builder()
            .numeric("price", 0.0, 1000.0)
            .integral("beds", 0.0, 8.0)
            .categorical("cut", ["Good", "Better", "Ideal"])
            .build()
    }

    #[test]
    fn domain_covering_range_equals_no_filter() {
        let s = schema();
        let price = s.expect_id("price");
        let filtered = SearchQuery::all().and_range(price, RangePred::closed(0.0, 1000.0));
        let loose = SearchQuery::all().and_range(price, RangePred::closed(-50.0, 2000.0));
        let all = cache_key(&s, &SearchQuery::all());
        assert_eq!(cache_key(&s, &filtered), all);
        assert_eq!(cache_key(&s, &loose), all);
    }

    #[test]
    fn clamping_preserves_partial_constraints() {
        let s = schema();
        let price = s.expect_id("price");
        let a = SearchQuery::all().and_range(price, RangePred::closed(-10.0, 500.0));
        let b = SearchQuery::all().and_range(price, RangePred::closed(0.0, 500.0));
        let c = SearchQuery::all().and_range(price, RangePred::closed(0.0, 499.0));
        assert_eq!(cache_key(&s, &a), cache_key(&s, &b));
        assert_ne!(cache_key(&s, &b), cache_key(&s, &c));
    }

    #[test]
    fn integral_bound_openness_is_erased() {
        let s = schema();
        let beds = s.expect_id("beds");
        let open = SearchQuery::all().and_range(beds, RangePred::open(1.0, 5.0));
        let closed = SearchQuery::all().and_range(beds, RangePred::closed(2.0, 4.0));
        let half = SearchQuery::all().and_range(beds, RangePred::half_open(2.0, 5.0));
        let frac = SearchQuery::all().and_range(beds, RangePred::closed(1.5, 4.5));
        let k = cache_key(&s, &closed);
        assert_eq!(cache_key(&s, &open), k);
        assert_eq!(cache_key(&s, &half), k);
        assert_eq!(cache_key(&s, &frac), k);
    }

    #[test]
    fn integral_ceil_does_not_reintroduce_negative_zero() {
        // `(-0.5).ceil()` is `-0.0`; the canonical key must not differ
        // from the `0.0` spelling (encode_query serializes raw bits).
        let s = schema();
        let beds = s.expect_id("beds");
        let below = SearchQuery::all().and_range(beds, RangePred::closed(-0.5, 4.0));
        let at_zero = SearchQuery::all().and_range(beds, RangePred::closed(0.0, 4.0));
        assert_eq!(cache_key(&s, &below), cache_key(&s, &at_zero));
    }

    #[test]
    fn real_valued_openness_is_preserved() {
        let s = schema();
        let price = s.expect_id("price");
        let open = SearchQuery::all().and_range(price, RangePred::half_open(1.0, 5.0));
        let closed = SearchQuery::all().and_range(price, RangePred::closed(1.0, 5.0));
        assert_ne!(cache_key(&s, &open), cache_key(&s, &closed));
    }

    #[test]
    fn negative_zero_normalized() {
        let s = schema();
        let price = s.expect_id("price");
        let neg = SearchQuery::all().and_range(price, RangePred::closed(-0.0, 5.0));
        let pos = SearchQuery::all().and_range(price, RangePred::closed(0.0, 5.0));
        assert_ne!((-0.0f64).to_bits(), 0.0f64.to_bits(), "precondition");
        assert_eq!(cache_key(&s, &neg), cache_key(&s, &pos));
    }

    #[test]
    fn all_empty_queries_share_one_key() {
        let s = schema();
        let price = s.expect_id("price");
        let beds = s.expect_id("beds");
        let cut = s.expect_id("cut");
        let empties = [
            SearchQuery::all().and_range(price, RangePred::closed(5.0, 1.0)),
            SearchQuery::all().and_range(price, RangePred::open(3.0, 3.0)),
            SearchQuery::all().and_range(beds, RangePred::open(2.0, 3.0)),
            SearchQuery::all().and_cats(cut, CatSet::new([])),
            SearchQuery::all().and_range(price, RangePred::closed(2000.0, 3000.0)),
        ];
        let k = cache_key(&s, &empties[0]);
        assert_eq!(k, vec![b'E']);
        for q in &empties {
            assert_eq!(cache_key(&s, q), k, "{q}");
        }
        assert_ne!(cache_key(&s, &SearchQuery::all()), k);
    }

    #[test]
    fn full_label_set_equals_no_filter() {
        let s = schema();
        let cut = s.expect_id("cut");
        let full = SearchQuery::all().and_cats(cut, CatSet::new([0, 1, 2]));
        let partial = SearchQuery::all().and_cats(cut, CatSet::new([0, 2]));
        assert_eq!(cache_key(&s, &full), cache_key(&s, &SearchQuery::all()));
        assert_ne!(cache_key(&s, &partial), cache_key(&s, &SearchQuery::all()));
    }

    #[test]
    fn distinct_queries_stay_distinct() {
        let s = schema();
        let price = s.expect_id("price");
        let beds = s.expect_id("beds");
        let qs = [
            SearchQuery::all(),
            SearchQuery::all().and_range(price, RangePred::closed(0.0, 500.0)),
            SearchQuery::all().and_range(price, RangePred::closed(0.0, 501.0)),
            SearchQuery::all().and_range(beds, RangePred::closed(2.0, 4.0)),
            SearchQuery::all()
                .and_range(price, RangePred::closed(0.0, 500.0))
                .and_range(beds, RangePred::closed(2.0, 4.0)),
        ];
        let keys: std::collections::HashSet<Vec<u8>> =
            qs.iter().map(|q| cache_key(&s, q)).collect();
        assert_eq!(keys.len(), qs.len());
    }

    #[test]
    fn canonical_form_is_idempotent() {
        let s = schema();
        let beds = s.expect_id("beds");
        let q = SearchQuery::all().and_range(beds, RangePred::open(0.5, 6.5));
        match canonicalize(&s, &q) {
            CanonicalQuery::Query(c) => {
                assert_eq!(canonicalize(&s, &c), CanonicalQuery::Query(c.clone()));
                assert_eq!(cache_key(&s, &c), cache_key(&s, &q));
            }
            CanonicalQuery::Empty => panic!("non-empty query"),
        }
    }
}
