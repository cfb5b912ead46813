//! Geometry of the MD search space: axis-aligned boxes over the ranking
//! attributes (raw scale) and rank-contour arithmetic (normalized scale).
//!
//! The central object of the MD algorithms is the *rank contour* of the
//! best-known tuple `t*`: the hyperplane `f(x) = f(t*)`. Only tuples on the
//! better side of the contour can improve on `t*`, and because the web
//! interface accepts only conjunctive (box) queries, the algorithms cover
//! that region with boxes ([`NBox`]) and prune any box whose best corner
//! cannot beat `t*` ([`NBox::min_score`]).

use qr2_webdb::{AttrId, Predicate, RangePred, Schema, SearchQuery, Tuple};

use crate::function::LinearFunction;
use crate::normalize::Normalizer;

/// An axis-aligned box over the ranking attributes, in raw attribute scale.
///
/// Bounds carry inclusivity so sibling boxes produced by splitting partition
/// their parent exactly (no tuple is seen twice or lost).
#[derive(Debug, Clone, PartialEq)]
pub struct NBox {
    dims: Vec<(AttrId, RangePred)>,
}

impl NBox {
    /// The full box spanned by `attrs` under `base` (query predicates
    /// intersected with public domains).
    pub fn full(schema: &Schema, base: &SearchQuery, attrs: &[AttrId]) -> Self {
        let dims = attrs
            .iter()
            .map(|&a| (a, qr2_crawler::effective_range(schema, base, a)))
            .collect();
        NBox { dims }
    }

    /// Construct from explicit `(attr, range)` pairs.
    pub fn from_dims(dims: Vec<(AttrId, RangePred)>) -> Self {
        assert!(!dims.is_empty(), "box needs >= 1 dimension");
        NBox { dims }
    }

    /// The box's dimensions.
    pub fn dims(&self) -> &[(AttrId, RangePred)] {
        &self.dims
    }

    /// Range of dimension `i`.
    pub fn range(&self, i: usize) -> &RangePred {
        &self.dims[i].1
    }

    /// True when some dimension admits no value.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(|(_, r)| r.is_empty())
    }

    /// True when `t` lies inside the box.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.dims.iter().all(|(a, r)| r.matches(t.num_at(*a)))
    }

    /// Conjoin the box onto a base query (replacing any ranking-attribute
    /// ranges the base already had — the box is already the intersection).
    pub fn to_query(&self, base: &SearchQuery) -> SearchQuery {
        let mut q = base.clone();
        for (a, r) in &self.dims {
            q = q.with(*a, Predicate::Range(*r));
        }
        q
    }

    /// Lower bound on the score of any point in the box (corner rule:
    /// linear functions attain extrema at corners). Uses the closure of the
    /// box, so the bound is safe for open edges too.
    pub fn min_score(&self, f: &LinearFunction, norm: &Normalizer) -> f64 {
        f.weights()
            .iter()
            .map(|(attr, w)| {
                let r = self
                    .dims
                    .iter()
                    .find(|(a, _)| a == attr)
                    .map(|(_, r)| *r)
                    .unwrap_or_else(|| panic!("ranking attribute {attr} missing from box"));
                if *w >= 0.0 {
                    w * norm.normalize(*attr, r.lo)
                } else {
                    w * norm.normalize(*attr, r.hi)
                }
            })
            .sum()
    }

    /// Normalized width of dimension `i` (fraction of the attribute's
    /// normalization span).
    pub fn rel_width(&self, i: usize, norm: &Normalizer) -> f64 {
        let (attr, r) = &self.dims[i];
        let s = norm.stats(*attr);
        let span = s.max - s.min;
        if span <= 0.0 {
            0.0
        } else {
            r.width() / span
        }
    }

    /// Weighted diameter: `Σ |wᵢ| · rel_width(i)`. The dense-cell detector
    /// compares this against the RERANK threshold δ.
    pub fn weighted_diag(&self, f: &LinearFunction, norm: &Normalizer) -> f64 {
        f.weights()
            .iter()
            .map(|(attr, w)| {
                let i = self
                    .dims
                    .iter()
                    .position(|(a, _)| a == attr)
                    .unwrap_or_else(|| panic!("ranking attribute {attr} missing from box"));
                w.abs() * self.rel_width(i, norm)
            })
            .sum()
    }

    /// The dimension with the largest `|wᵢ|`-weighted relative width that is
    /// still splittable, or `None` when every dimension is effectively a
    /// point.
    pub fn widest_splittable_dim(
        &self,
        f: &LinearFunction,
        norm: &Normalizer,
        schema: &Schema,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, (attr, r)) in self.dims.iter().enumerate() {
            if r.bisect(schema.attr(*attr).is_integral()).is_none() {
                continue;
            }
            let w = f
                .weights()
                .iter()
                .find(|(a, _)| a == attr)
                .map(|(_, w)| w.abs())
                .unwrap_or(1.0);
            let extent = w * self.rel_width(i, norm);
            match best {
                Some((_, e)) if e >= extent => {}
                _ => best = Some((i, extent)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Split dimension `i` at its midpoint ([`RangePred::bisect`], without
    /// snapping) into two boxes that partition this one. Integral
    /// attributes split on whole numbers. Panics when the dimension cannot
    /// be cut ([`NBox::widest_splittable_dim`] skips those).
    pub fn split(&self, i: usize, schema: &Schema) -> (NBox, NBox) {
        let (attr, r) = self.dims[i];
        let (left, right) = r
            .bisect(schema.attr(attr).is_integral())
            .unwrap_or_else(|| panic!("dimension {i} too narrow to split"));
        let mut a = self.clone();
        a.dims[i].1 = left;
        let mut b = self.clone();
        b.dims[i].1 = right;
        (a, b)
    }

    /// Shrink the box to the tight bounding box of the region
    /// `{x ∈ box : f(x) ≤ s}` (the rank-contour region of score `s`).
    /// Returns `None` when no point of the box can score ≤ `s`.
    ///
    /// For each dimension `i`, the extreme admissible value solves
    /// `wᵢ·norm(xᵢ) ≤ s − Σ_{j≠i} min contribution of j`, clipped to the
    /// box. This is MD-BASELINE's narrowing step.
    pub fn contour_bbox(&self, f: &LinearFunction, norm: &Normalizer, s: f64) -> Option<NBox> {
        let total_min = self.min_score(f, norm);
        if total_min > s {
            return None;
        }
        let mut out = self.clone();
        for (attr, w) in f.weights() {
            let i = self
                .dims
                .iter()
                .position(|(a, _)| a == attr)
                .unwrap_or_else(|| panic!("ranking attribute {attr} missing from box"));
            let r = self.dims[i].1;
            let st = norm.stats(*attr);
            let span = st.max - st.min;
            if span <= 0.0 {
                continue;
            }
            // Minimum contribution of the other dimensions.
            let own_min = if *w >= 0.0 {
                w * norm.normalize(*attr, r.lo)
            } else {
                w * norm.normalize(*attr, r.hi)
            };
            let others_min = total_min - own_min;
            let budget = s - others_min; // wᵢ·norm(xᵢ) ≤ budget
            let new_r = if *w > 0.0 {
                let x_hi = norm.denormalize(*attr, (budget / w).min(1.0));
                RangePred {
                    lo: r.lo,
                    hi: r.hi.min(x_hi),
                    lo_inc: r.lo_inc,
                    hi_inc: r.hi_inc || x_hi < r.hi,
                }
            } else {
                let x_lo = norm.denormalize(*attr, (budget / w).max(0.0));
                RangePred {
                    lo: r.lo.max(x_lo),
                    hi: r.hi,
                    lo_inc: r.lo_inc || x_lo > r.lo,
                    hi_inc: r.hi_inc,
                }
            };
            out.dims[i].1 = new_r;
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// Volume proxy: product of relative widths (0 for empty/point boxes).
    pub fn rel_volume(&self, norm: &Normalizer) -> f64 {
        (0..self.dims.len())
            .map(|i| self.rel_width(i, norm))
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::Schema;

    fn setup() -> (Schema, Normalizer, LinearFunction) {
        let schema = Schema::builder()
            .numeric("x", 0.0, 10.0)
            .numeric("y", 0.0, 100.0)
            .build();
        let norm = Normalizer::from_domains(&schema);
        let f = LinearFunction::from_names(&schema, &[("x", 1.0), ("y", -0.5)]).unwrap();
        (schema, norm, f)
    }

    fn full_box(schema: &Schema) -> NBox {
        let attrs = vec![schema.expect_id("x"), schema.expect_id("y")];
        NBox::full(schema, &SearchQuery::all(), &attrs)
    }

    #[test]
    fn full_box_spans_domains() {
        let (schema, _, _) = setup();
        let b = full_box(&schema);
        assert_eq!(b.range(0), &RangePred::closed(0.0, 10.0));
        assert_eq!(b.range(1), &RangePred::closed(0.0, 100.0));
        assert!(!b.is_empty());
    }

    #[test]
    fn min_score_at_corner() {
        let (schema, norm, f) = setup();
        let b = full_box(&schema);
        // Best corner: x = 0 (w=+1), y = 100 (w=-0.5) → 0 - 0.5 = -0.5.
        assert!((b.min_score(&f, &norm) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn split_partitions_exactly() {
        let (schema, _, _) = setup();
        let b = full_box(&schema);
        let (l, r) = b.split(0, &schema);
        assert_eq!(l.range(0), &RangePred::half_open(0.0, 5.0));
        assert_eq!(r.range(0), &RangePred::closed(5.0, 10.0));
        for v in [0.0, 4.999, 5.0, 10.0] {
            let in_l = l.range(0).matches(v);
            let in_r = r.range(0).matches(v);
            assert_eq!(in_l as u8 + in_r as u8, 1, "v={v}");
        }
    }

    #[test]
    fn integral_split() {
        let schema = Schema::builder().integral("n", 0.0, 9.0).build();
        let norm = Normalizer::from_domains(&schema);
        let f = LinearFunction::from_names(&schema, &[("n", 1.0)]).unwrap();
        let b = NBox::full(&schema, &SearchQuery::all(), &[schema.expect_id("n")]);
        let i = b.widest_splittable_dim(&f, &norm, &schema).unwrap();
        let (l, r) = b.split(i, &schema);
        assert_eq!(l.range(0), &RangePred::closed(0.0, 4.0));
        assert_eq!(r.range(0), &RangePred::closed(5.0, 9.0));
    }

    #[test]
    fn widest_dim_weighs_by_function() {
        let (schema, norm, _) = setup();
        // y has rel width 1.0 like x, but weight 10 on x dominates.
        let f = LinearFunction::from_names(&schema, &[("x", 10.0), ("y", 0.1)]).unwrap();
        let b = full_box(&schema);
        assert_eq!(b.widest_splittable_dim(&f, &norm, &schema), Some(0));
    }

    #[test]
    fn no_splittable_dim_on_point_box() {
        let (schema, norm, f) = setup();
        let b = NBox::from_dims(vec![
            (schema.expect_id("x"), RangePred::point(1.0)),
            (schema.expect_id("y"), RangePred::point(2.0)),
        ]);
        assert_eq!(b.widest_splittable_dim(&f, &norm, &schema), None);
        assert_eq!(b.weighted_diag(&f, &norm), 0.0);
    }

    #[test]
    fn to_query_replaces_ranges() {
        let (schema, _, _) = setup();
        let x = schema.expect_id("x");
        let base = SearchQuery::all().and_range(x, RangePred::closed(0.0, 3.0));
        let b = NBox::from_dims(vec![(x, RangePred::closed(5.0, 7.0))]);
        let q = b.to_query(&base);
        assert_eq!(q.range_of(x), Some(&RangePred::closed(5.0, 7.0)));
    }

    #[test]
    fn contour_bbox_tightens_positive_weight_dim() {
        let (schema, norm, _) = setup();
        let f = LinearFunction::from_names(&schema, &[("x", 1.0)]).unwrap();
        let b = NBox::from_dims(vec![(schema.expect_id("x"), RangePred::closed(0.0, 10.0))]);
        // Score ≤ 0.3 → norm(x) ≤ 0.3 → x ≤ 3.
        let t = b.contour_bbox(&f, &norm, 0.3).unwrap();
        let r = t.range(0);
        assert_eq!(r.lo, 0.0);
        assert!((r.hi - 3.0).abs() < 1e-9);
    }

    #[test]
    fn contour_bbox_tightens_negative_weight_dim() {
        let (schema, norm, _) = setup();
        let f = LinearFunction::from_names(&schema, &[("y", -1.0)]).unwrap();
        let b = NBox::from_dims(vec![(schema.expect_id("y"), RangePred::closed(0.0, 100.0))]);
        // Score ≤ -0.6 → -norm(y) ≤ -0.6 → norm(y) ≥ 0.6 → y ≥ 60.
        let t = b.contour_bbox(&f, &norm, -0.6).unwrap();
        let r = t.range(0);
        assert!((r.lo - 60.0).abs() < 1e-9);
        assert_eq!(r.hi, 100.0);
    }

    #[test]
    fn contour_bbox_empty_when_unreachable() {
        let (schema, norm, _) = setup();
        let f = LinearFunction::from_names(&schema, &[("x", 1.0)]).unwrap();
        let b = NBox::from_dims(vec![(schema.expect_id("x"), RangePred::closed(5.0, 10.0))]);
        // min score = 0.5 > 0.2 → impossible.
        assert!(b.contour_bbox(&f, &norm, 0.2).is_none());
    }

    #[test]
    fn contour_bbox_multi_dim_budget() {
        let (schema, norm, f) = setup();
        let b = full_box(&schema);
        // s = -0.5 is the global minimum: bbox collapses toward the corner.
        let t = b.contour_bbox(&f, &norm, -0.5).unwrap();
        assert!((t.range(0).hi - 0.0).abs() < 1e-9, "x pinned to 0");
        assert!((t.range(1).lo - 100.0).abs() < 1e-9, "y pinned to 100");
    }

    #[test]
    fn rel_volume() {
        let (schema, norm, _) = setup();
        let b = NBox::from_dims(vec![
            (schema.expect_id("x"), RangePred::closed(0.0, 5.0)),
            (schema.expect_id("y"), RangePred::closed(0.0, 25.0)),
        ]);
        assert!((b.rel_volume(&norm) - 0.5 * 0.25).abs() < 1e-12);
    }
}
