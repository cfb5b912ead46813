//! Conjunctive search predicates — the only query language web search forms
//! expose: a numeric range per slider and a value subset per drop-down.

use std::fmt;

use crate::attr::AttrId;
use crate::value::Value;

/// A numeric range predicate with independently inclusive/exclusive bounds.
///
/// Exclusive bounds matter: binary-search style algorithms repeatedly query
/// half-open intervals such as `[lo, mid)` so the two halves partition the
/// space without double-counting boundary tuples. [`RangePred::cut`] is
/// the one cut: the crawler cuts a range between the values of a page,
/// and the MD boxes, the 1D chunk finder and the crawler's fallback cut it
/// at its midpoint through [`RangePred::bisect`].
/// [`RangePred::snap_integral`] is the one rounding of a range onto whole
/// numbers.
#[derive(Debug, Clone, Copy)]
pub struct RangePred {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Whether `lo` itself matches.
    pub lo_inc: bool,
    /// Whether `hi` itself matches.
    pub hi_inc: bool,
}

impl RangePred {
    /// Closed interval `[lo, hi]`.
    pub fn closed(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN bound");
        RangePred {
            lo,
            hi,
            lo_inc: true,
            hi_inc: true,
        }
    }

    /// Half-open interval `[lo, hi)`.
    pub fn half_open(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN bound");
        RangePred {
            lo,
            hi,
            lo_inc: true,
            hi_inc: false,
        }
    }

    /// Open interval `(lo, hi)`.
    pub fn open(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN bound");
        RangePred {
            lo,
            hi,
            lo_inc: false,
            hi_inc: false,
        }
    }

    /// Interval `(lo, hi]`.
    pub fn open_closed(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN bound");
        RangePred {
            lo,
            hi,
            lo_inc: false,
            hi_inc: true,
        }
    }

    /// Degenerate point interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Self::closed(v, v)
    }

    /// Whether `v` satisfies the predicate.
    #[inline]
    pub fn matches(&self, v: f64) -> bool {
        let lo_ok = if self.lo_inc {
            v >= self.lo
        } else {
            v > self.lo
        };
        let hi_ok = if self.hi_inc {
            v <= self.hi
        } else {
            v < self.hi
        };
        lo_ok && hi_ok
    }

    /// True when no real number can satisfy the predicate.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && !(self.lo_inc && self.hi_inc))
    }

    /// Interval width (`hi - lo`, 0 for empty/point intervals).
    pub fn width(&self) -> f64 {
        (self.hi - self.lo).max(0.0)
    }

    /// True when every value matching `other` also matches `self`
    /// (`other ⊆ self`). Empty `other` is covered by anything.
    pub fn contains_range(&self, other: &RangePred) -> bool {
        if other.is_empty() {
            return true;
        }
        let lo_ok = self.lo < other.lo || (self.lo == other.lo && (self.lo_inc || !other.lo_inc));
        let hi_ok = self.hi > other.hi || (self.hi == other.hi && (self.hi_inc || !other.hi_inc));
        lo_ok && hi_ok
    }

    /// Intersection of two ranges (possibly empty).
    pub fn intersect(&self, other: &RangePred) -> RangePred {
        let (lo, lo_inc) = if self.lo > other.lo {
            (self.lo, self.lo_inc)
        } else if other.lo > self.lo {
            (other.lo, other.lo_inc)
        } else {
            (self.lo, self.lo_inc && other.lo_inc)
        };
        let (hi, hi_inc) = if self.hi < other.hi {
            (self.hi, self.hi_inc)
        } else if other.hi < self.hi {
            (other.hi, other.hi_inc)
        } else {
            (self.hi, self.hi_inc && other.hi_inc)
        };
        RangePred {
            lo,
            hi,
            lo_inc,
            hi_inc,
        }
    }

    /// The whole numbers the range admits, as inclusive bounds (empty when
    /// it admits none). An exclusive bound steps from its neighbouring
    /// integer, `floor(lo) + 1` and `ceil(hi) - 1`, which is exact in f64:
    /// `floor(lo + 1)` would round a bound one ulp below an integer up to
    /// the next one and drop that integer.
    pub fn snap_integral(&self) -> RangePred {
        let lo = if self.lo_inc {
            self.lo.ceil()
        } else {
            self.lo.floor() + 1.0
        };
        let hi = if self.hi_inc {
            self.hi.floor()
        } else {
            self.hi.ceil() - 1.0
        };
        RangePred::closed(lo, hi)
    }

    /// Cut the range into a low and a high half that partition it, or
    /// `None` when it cannot be cut: [`cut`](Self::cut) at the midpoint,
    /// `(lo + hi) / 2`.
    ///
    /// `integral`: `[lo, m]` and `[m + 1, hi]` at `m = floor((lo + hi) / 2)`,
    /// which partition the whole numbers of a closed range; `None` unless
    /// `hi - lo >= 1`. The bounds are not snapped first: callers that need
    /// whole-number bounds call [`snap_integral`](Self::snap_integral).
    /// Otherwise `[lo, mid)` and `[mid, hi]` at `mid = lo + (hi - lo) / 2`,
    /// keeping the outer bounds' inclusivity; `None` when no f64 lies
    /// strictly between `lo` and `hi`.
    pub fn bisect(&self, integral: bool) -> Option<(RangePred, RangePred)> {
        let mid = if integral {
            (self.lo + self.hi) / 2.0
        } else {
            self.lo + (self.hi - self.lo) / 2.0
        };
        self.cut(mid, integral)
    }

    /// Cut the range at `at` into a low and a high part that partition it,
    /// or `None` when `at` leaves one of them empty.
    ///
    /// `integral`: `[lo, m]` and `[m + 1, hi]` at `m = floor(at)`, on a
    /// closed range of whole numbers (see [`bisect`](Self::bisect)); `None`
    /// unless `lo <= m` and `m + 1 <= hi`. Otherwise `[lo, at)` and
    /// `[at, hi]`, keeping the outer bounds' inclusivity; `None` unless
    /// `lo < at < hi`.
    pub fn cut(&self, at: f64, integral: bool) -> Option<(RangePred, RangePred)> {
        if integral {
            let m = at.floor();
            if !(self.lo <= m && m + 1.0 <= self.hi) {
                return None;
            }
            return Some((
                RangePred::closed(self.lo, m),
                RangePred::closed(m + 1.0, self.hi),
            ));
        }
        if !(at > self.lo && at < self.hi) {
            return None;
        }
        Some((
            RangePred {
                hi: at,
                hi_inc: false,
                ..*self
            },
            RangePred {
                lo: at,
                lo_inc: true,
                ..*self
            },
        ))
    }
}

impl PartialEq for RangePred {
    fn eq(&self, other: &Self) -> bool {
        self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.lo_inc == other.lo_inc
            && self.hi_inc == other.hi_inc
    }
}
impl Eq for RangePred {}

impl std::hash::Hash for RangePred {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.lo.to_bits().hash(state);
        self.hi.to_bits().hash(state);
        self.lo_inc.hash(state);
        self.hi_inc.hash(state);
    }
}

impl fmt::Display for RangePred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}, {}{}",
            if self.lo_inc { '[' } else { '(' },
            self.lo,
            self.hi,
            if self.hi_inc { ']' } else { ')' },
        )
    }
}

/// A set of categorical codes (sorted, deduplicated).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CatSet {
    codes: Vec<u32>,
}

impl CatSet {
    /// Build from any iterator of codes; sorts and deduplicates.
    pub fn new(codes: impl IntoIterator<Item = u32>) -> Self {
        let mut codes: Vec<u32> = codes.into_iter().collect();
        codes.sort_unstable();
        codes.dedup();
        CatSet { codes }
    }

    /// Single-code set.
    pub fn single(code: u32) -> Self {
        CatSet { codes: vec![code] }
    }

    /// Number of codes in the set.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the set is empty (matches nothing).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, code: u32) -> bool {
        self.codes.binary_search(&code).is_ok()
    }

    /// True when every code of `other` is in `self` (`other ⊆ self`).
    pub fn is_superset(&self, other: &CatSet) -> bool {
        other.codes.iter().all(|c| self.contains(*c))
    }

    /// Set intersection.
    pub fn intersect(&self, other: &CatSet) -> CatSet {
        let codes = self
            .codes
            .iter()
            .copied()
            .filter(|c| other.contains(*c))
            .collect();
        CatSet { codes }
    }

    /// The sorted codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Split the set into two halves (for crawler fan-out). The first half
    /// receives the extra element when `len` is odd. Panics when `len < 2`.
    pub fn split(&self) -> (CatSet, CatSet) {
        assert!(self.codes.len() >= 2, "cannot split a set of < 2 codes");
        let mid = self.codes.len().div_ceil(2);
        (
            CatSet {
                codes: self.codes[..mid].to_vec(),
            },
            CatSet {
                codes: self.codes[mid..].to_vec(),
            },
        )
    }
}

/// A per-attribute predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Numeric range (sliders / min-max boxes).
    Range(RangePred),
    /// Categorical membership (check-boxes / drop-downs).
    Cats(CatSet),
}

impl Predicate {
    /// Whether a value satisfies the predicate. Kind mismatches panic —
    /// queries are validated against the schema at build time.
    #[inline]
    pub fn matches(&self, v: Value) -> bool {
        match self {
            Predicate::Range(r) => r.matches(v.as_num()),
            Predicate::Cats(s) => s.contains(v.as_cat()),
        }
    }

    /// True when the predicate can match no value at all.
    pub fn is_empty(&self) -> bool {
        match self {
            Predicate::Range(r) => r.is_empty(),
            Predicate::Cats(s) => s.is_empty(),
        }
    }

    /// True when every value matching `other` also matches `self`
    /// (`other ⊆ self`). Predicates of different kinds never cover each
    /// other.
    pub fn contains(&self, other: &Predicate) -> bool {
        match (self, other) {
            (Predicate::Range(a), Predicate::Range(b)) => a.contains_range(b),
            (Predicate::Cats(a), Predicate::Cats(b)) => a.is_superset(b),
            _ => false,
        }
    }

    /// Conjunction of two predicates on the same attribute.
    pub fn intersect(&self, other: &Predicate) -> Predicate {
        match (self, other) {
            (Predicate::Range(a), Predicate::Range(b)) => Predicate::Range(a.intersect(b)),
            (Predicate::Cats(a), Predicate::Cats(b)) => Predicate::Cats(a.intersect(b)),
            _ => panic!("cannot intersect predicates of different kinds"),
        }
    }
}

/// A conjunctive search query: at most one predicate per attribute.
///
/// This is exactly what a web search form can express — every filled-in
/// filter further restricts the result set. Attributes without a predicate
/// are unconstrained.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SearchQuery {
    // Sorted by attribute id; at most one entry per attribute.
    preds: Vec<(AttrId, Predicate)>,
}

impl SearchQuery {
    /// The query that matches every tuple (no filters).
    pub fn all() -> Self {
        SearchQuery { preds: Vec::new() }
    }

    /// Number of constrained attributes.
    pub fn num_predicates(&self) -> usize {
        self.preds.len()
    }

    /// Iterate over `(attr, predicate)` pairs in attribute order.
    pub fn predicates(&self) -> impl Iterator<Item = (AttrId, &Predicate)> {
        self.preds.iter().map(|(id, p)| (*id, p))
    }

    /// The predicate on `attr`, if any.
    pub fn predicate(&self, attr: AttrId) -> Option<&Predicate> {
        self.preds
            .binary_search_by_key(&attr, |(id, _)| *id)
            .ok()
            .map(|i| &self.preds[i].1)
    }

    /// Range predicate on `attr`, if one is set.
    pub fn range_of(&self, attr: AttrId) -> Option<&RangePred> {
        match self.predicate(attr) {
            Some(Predicate::Range(r)) => Some(r),
            _ => None,
        }
    }

    /// Add (or conjoin with an existing) predicate on `attr`, returning the
    /// narrowed query. The original is unchanged.
    #[must_use]
    pub fn and(&self, attr: AttrId, pred: Predicate) -> SearchQuery {
        let mut out = self.clone();
        match out.preds.binary_search_by_key(&attr, |(id, _)| *id) {
            Ok(i) => {
                let merged = out.preds[i].1.intersect(&pred);
                out.preds[i].1 = merged;
            }
            Err(i) => out.preds.insert(i, (attr, pred)),
        }
        out
    }

    /// Convenience: conjoin a numeric range.
    #[must_use]
    pub fn and_range(&self, attr: AttrId, range: RangePred) -> SearchQuery {
        self.and(attr, Predicate::Range(range))
    }

    /// Convenience: conjoin a point constraint `attr = v`.
    #[must_use]
    pub fn and_point(&self, attr: AttrId, v: f64) -> SearchQuery {
        self.and(attr, Predicate::Range(RangePred::point(v)))
    }

    /// Convenience: conjoin a categorical membership constraint.
    #[must_use]
    pub fn and_cats(&self, attr: AttrId, cats: CatSet) -> SearchQuery {
        self.and(attr, Predicate::Cats(cats))
    }

    /// *Replace* the predicate on `attr` (no conjunction), returning the new
    /// query. Used by region-splitting code that re-derives ranges itself.
    #[must_use]
    pub fn with(&self, attr: AttrId, pred: Predicate) -> SearchQuery {
        let mut out = self.clone();
        match out.preds.binary_search_by_key(&attr, |(id, _)| *id) {
            Ok(i) => out.preds[i].1 = pred,
            Err(i) => out.preds.insert(i, (attr, pred)),
        }
        out
    }

    /// True when `self` *covers* `other`: every tuple matching `other` is
    /// guaranteed to match `self` (`other`'s region ⊆ `self`'s region).
    ///
    /// When `self`'s result page is complete it contains every match of
    /// `other` in system-rank order. The recon index uses this to retire
    /// pending regions a probe covers and to serve filters inside its
    /// root; the MD frontier's tests use it to find the overflowing
    /// ancestor page a probe lies in. Per attribute: a predicate of `self`
    /// must be a superset of `other`'s predicate on the same attribute; an
    /// unconstrained attribute of `self` covers anything, while an
    /// attribute `self` constrains but `other` leaves free is *not*
    /// covered.
    pub fn covers(&self, other: &SearchQuery) -> bool {
        self.preds
            .iter()
            .all(|(attr, p)| match other.predicate(*attr) {
                Some(q) => p.contains(q),
                None => false,
            })
    }

    /// True when some predicate is unsatisfiable (query matches nothing).
    pub fn is_trivially_empty(&self) -> bool {
        self.preds.iter().any(|(_, p)| p.is_empty())
    }

    /// Evaluate the conjunction against a tuple accessor.
    ///
    /// `get` maps an attribute id to the tuple's value for that attribute.
    #[inline]
    pub fn matches_with(&self, mut get: impl FnMut(AttrId) -> Value) -> bool {
        self.preds.iter().all(|(id, p)| p.matches(get(*id)))
    }
}

impl fmt::Display for SearchQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.preds.is_empty() {
            return write!(f, "TRUE");
        }
        for (i, (id, p)) in self.preds.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            match p {
                Predicate::Range(r) => write!(f, "{id} in {r}")?,
                Predicate::Cats(s) => write!(f, "{id} in {{{:?}}}", s.codes())?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_matching_respects_bounds() {
        let r = RangePred::half_open(1.0, 2.0);
        assert!(r.matches(1.0));
        assert!(r.matches(1.5));
        assert!(!r.matches(2.0));
        let r = RangePred::open_closed(1.0, 2.0);
        assert!(!r.matches(1.0));
        assert!(r.matches(2.0));
    }

    #[test]
    fn range_emptiness_and_points() {
        assert!(RangePred::half_open(1.0, 1.0).is_empty());
        assert!(RangePred::open(1.0, 1.0).is_empty());
        assert!(!RangePred::point(1.0).is_empty());
        assert!(RangePred::closed(2.0, 1.0).is_empty());
    }

    #[test]
    fn range_intersection() {
        let a = RangePred::closed(0.0, 5.0);
        let b = RangePred::open(3.0, 9.0);
        let c = a.intersect(&b);
        assert_eq!(c, RangePred::open_closed(3.0, 5.0));
        // Equal bounds: inclusivity is the AND of the two.
        let d = RangePred::closed(0.0, 5.0).intersect(&RangePred::half_open(0.0, 5.0));
        assert_eq!(d, RangePred::half_open(0.0, 5.0));
    }

    #[test]
    fn range_width() {
        assert_eq!(RangePred::closed(1.0, 4.0).width(), 3.0);
        assert_eq!(RangePred::closed(4.0, 1.0).width(), 0.0);
    }

    /// Each probe lies in exactly one half when it lies in `parent`, and in
    /// neither otherwise.
    fn assert_partition(parent: RangePred, (low, high): (RangePred, RangePred), probes: &[f64]) {
        for &v in probes {
            let halves = low.matches(v) as u8 + high.matches(v) as u8;
            assert_eq!(
                halves,
                parent.matches(v) as u8,
                "{v} in {parent}: low {low}, high {high}"
            );
        }
    }

    #[test]
    fn bisect_partitions_continuous_ranges_under_every_inclusivity() {
        for (lo_inc, hi_inc) in [(true, true), (true, false), (false, true), (false, false)] {
            let r = RangePred {
                lo: 0.0,
                hi: 10.0,
                lo_inc,
                hi_inc,
            };
            let (low, high) = r.bisect(false).unwrap();
            assert_eq!(
                low,
                RangePred {
                    hi: 5.0,
                    hi_inc: false,
                    ..r
                }
            );
            assert_eq!(
                high,
                RangePred {
                    lo: 5.0,
                    lo_inc: true,
                    ..r
                }
            );
            let probes = [
                -1.0,
                0.0,
                0.0f64.next_up(),
                5.0f64.next_down(),
                5.0,
                5.0f64.next_up(),
                10.0f64.next_down(),
                10.0,
                11.0,
            ];
            assert_partition(r, (low, high), &probes);
        }
    }

    #[test]
    fn bisect_partitions_integral_ranges() {
        for (lo, hi, m) in [
            (0.0, 7.0, 3.0),
            (-3.0, 4.0, 0.0),
            (2.0, 3.0, 2.0),
            (0.0, 20.0, 10.0),
        ] {
            let r = RangePred::closed(lo, hi);
            let (low, high) = r.bisect(true).unwrap();
            assert_eq!(low, RangePred::closed(lo, m));
            assert_eq!(high, RangePred::closed(m + 1.0, hi));
            // The halves partition the whole numbers: every integer from
            // one below the range to one above, so the endpoints and the
            // midpoint `m` with its neighbours.
            let probes: Vec<f64> = ((lo as i64 - 1)..=(hi as i64 + 1))
                .map(|v| v as f64)
                .collect();
            assert_partition(r, (low, high), &probes);
        }
    }

    #[test]
    fn bisect_refuses_a_single_integer_and_a_one_ulp_range() {
        assert_eq!(RangePred::point(4.0).bisect(true), None);
        assert_eq!(RangePred::closed(4.0, 4.5).bisect(true), None);
        assert_eq!(RangePred::closed(1.0, 1.0f64.next_up()).bisect(false), None);
        assert_eq!(RangePred::open(1.0, 1.0f64.next_up()).bisect(false), None);
        assert!(RangePred::closed(1.0, 1.0f64.next_up().next_up())
            .bisect(false)
            .is_some());
    }

    #[test]
    fn snap_integral_keeps_exactly_the_admitted_integers() {
        assert_eq!(
            RangePred::half_open(1.2, 6.0).snap_integral(),
            RangePred::closed(2.0, 5.0)
        );
        assert_eq!(
            RangePred::open(2.0, 5.0).snap_integral(),
            RangePred::closed(3.0, 4.0)
        );
        assert_eq!(
            RangePred::closed(-1.5, 3.7).snap_integral(),
            RangePred::closed(-1.0, 3.0)
        );
        assert!(RangePred::open(2.0, 3.0).snap_integral().is_empty());
    }

    #[test]
    fn snap_integral_keeps_an_integer_one_ulp_above_an_exclusive_bound() {
        // `floor(lo + 1)` rounds these bounds up to the next integer.
        for n in [1.0f64, 2.0, 4.0, 8.0, 1024.0] {
            let r = RangePred::open(n.next_down(), 100.0).snap_integral();
            assert_eq!(r.lo, n, "exclusive lower bound one ulp below {n}");
        }
        let r = RangePred::open(0.0f64.next_down(), 5.0).snap_integral();
        assert_eq!(r, RangePred::closed(0.0, 4.0));
        // The mirror case: an exclusive upper bound one ulp above 0.
        let r = RangePred::open(-5.0, 0.0f64.next_up()).snap_integral();
        assert_eq!(r, RangePred::closed(-4.0, 0.0));
    }

    #[test]
    fn catset_dedup_and_membership() {
        let s = CatSet::new([3, 1, 3, 2]);
        assert_eq!(s.codes(), &[1, 2, 3]);
        assert!(s.contains(2));
        assert!(!s.contains(0));
    }

    #[test]
    fn catset_intersect_and_split() {
        let a = CatSet::new([1, 2, 3, 4, 5]);
        let b = CatSet::new([2, 4, 6]);
        assert_eq!(a.intersect(&b).codes(), &[2, 4]);
        let (l, r) = a.split();
        assert_eq!(l.codes(), &[1, 2, 3]);
        assert_eq!(r.codes(), &[4, 5]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn catset_split_singleton_panics() {
        CatSet::single(1).split();
    }

    #[test]
    fn query_and_merges_predicates() {
        let a = AttrId(0);
        let q = SearchQuery::all()
            .and_range(a, RangePred::closed(0.0, 10.0))
            .and_range(a, RangePred::closed(5.0, 20.0));
        assert_eq!(q.num_predicates(), 1);
        assert_eq!(q.range_of(a), Some(&RangePred::closed(5.0, 10.0)));
    }

    #[test]
    fn query_with_replaces() {
        let a = AttrId(0);
        let q = SearchQuery::all()
            .and_range(a, RangePred::closed(0.0, 10.0))
            .with(a, Predicate::Range(RangePred::closed(50.0, 60.0)));
        assert_eq!(q.range_of(a), Some(&RangePred::closed(50.0, 60.0)));
    }

    #[test]
    fn query_matching() {
        let price = AttrId(0);
        let cut = AttrId(1);
        let q = SearchQuery::all()
            .and_range(price, RangePred::closed(100.0, 200.0))
            .and_cats(cut, CatSet::new([0, 2]));
        let t1 = |id: AttrId| -> Value {
            match id.0 {
                0 => Value::Num(150.0),
                _ => Value::Cat(2),
            }
        };
        let t2 = |id: AttrId| -> Value {
            match id.0 {
                0 => Value::Num(150.0),
                _ => Value::Cat(1),
            }
        };
        assert!(q.matches_with(t1));
        assert!(!q.matches_with(t2));
    }

    #[test]
    fn empty_detection() {
        let a = AttrId(0);
        let q = SearchQuery::all()
            .and_range(a, RangePred::closed(0.0, 1.0))
            .and_range(a, RangePred::closed(2.0, 3.0));
        assert!(q.is_trivially_empty());
    }

    #[test]
    fn query_display() {
        let q = SearchQuery::all().and_range(AttrId(0), RangePred::half_open(0.0, 1.0));
        assert_eq!(q.to_string(), "A0 in [0, 1)");
        assert_eq!(SearchQuery::all().to_string(), "TRUE");
    }

    #[test]
    fn range_containment_respects_bound_inclusivity() {
        let outer = RangePred::closed(0.0, 10.0);
        assert!(outer.contains_range(&RangePred::closed(0.0, 10.0)));
        assert!(outer.contains_range(&RangePred::open(0.0, 10.0)));
        assert!(outer.contains_range(&RangePred::closed(2.0, 8.0)));
        assert!(!outer.contains_range(&RangePred::closed(-1.0, 5.0)));
        assert!(!outer.contains_range(&RangePred::closed(5.0, 11.0)));
        // A half-open outer bound does not cover the closed endpoint.
        let half = RangePred::half_open(0.0, 10.0);
        assert!(!half.contains_range(&RangePred::closed(0.0, 10.0)));
        assert!(half.contains_range(&RangePred::half_open(0.0, 10.0)));
        // Empty inner intervals are vacuously covered.
        assert!(half.contains_range(&RangePred::open(3.0, 3.0)));
    }

    #[test]
    fn catset_superset() {
        let big = CatSet::new([1, 2, 3, 4]);
        assert!(big.is_superset(&CatSet::new([2, 4])));
        assert!(big.is_superset(&CatSet::new([])));
        assert!(!big.is_superset(&CatSet::new([4, 5])));
        assert!(!CatSet::new([]).is_superset(&CatSet::single(1)));
    }

    #[test]
    fn query_covers_subsuming_regions() {
        let price = AttrId(0);
        let cut = AttrId(1);
        let wide = SearchQuery::all().and_range(price, RangePred::closed(0.0, 100.0));
        let narrow = SearchQuery::all().and_range(price, RangePred::closed(20.0, 30.0));
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        // Every query covers itself; the trivial query covers everything.
        assert!(wide.covers(&wide));
        assert!(SearchQuery::all().covers(&narrow));
        assert!(!narrow.covers(&SearchQuery::all()));
        // A cover constrained on an attribute the waiter leaves free does
        // NOT cover it: the cover's page may have dropped matching tuples.
        let wide_cut = wide.and_cats(cut, CatSet::new([0, 1, 2]));
        assert!(!wide_cut.covers(&narrow));
        let narrow_cut = narrow.and_cats(cut, CatSet::new([1]));
        assert!(wide_cut.covers(&narrow_cut));
        // Kind mismatch on the same attribute never covers.
        let cat_price = SearchQuery::all().and_cats(price, CatSet::new([1]));
        assert!(!wide.covers(&cat_price));
    }

    #[test]
    fn queries_hashable() {
        use std::collections::HashSet;
        let a = AttrId(0);
        let mut set = HashSet::new();
        set.insert(SearchQuery::all().and_point(a, 1.0));
        set.insert(SearchQuery::all().and_point(a, 1.0));
        assert_eq!(set.len(), 1);
    }
}
