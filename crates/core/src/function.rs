//! User-specified ranking functions.
//!
//! QR2's ranking section offers two shapes (paper §II-C):
//!
//! * **1D**: an `ORDER BY attr ASC|DESC` — [`OneDimFunction`];
//! * **MD**: a slider weight `wᵢ ∈ [-1, 1]` per chosen attribute, scoring
//!   tuples as `Σ wᵢ·Aᵢ` over *normalized* attribute values —
//!   [`LinearFunction`].
//!
//! Scores are minimized: the best tuple has the smallest score.

use qr2_webdb::{AttrId, Schema, Tuple};

use crate::normalize::{AttrStats, Normalizer};

/// Sort direction for one-dimensional reranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Smallest attribute value first.
    Asc,
    /// Largest attribute value first.
    Desc,
}

impl SortDir {
    /// `true` when `a` is strictly preferred over `b` under this direction.
    #[inline]
    pub fn better(self, a: f64, b: f64) -> bool {
        match self {
            SortDir::Asc => a < b,
            SortDir::Desc => a > b,
        }
    }
}

/// `ORDER BY attr dir` — single-attribute reranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneDimFunction {
    /// The ranking attribute (must be numeric).
    pub attr: AttrId,
    /// Sort direction.
    pub dir: SortDir,
}

impl OneDimFunction {
    /// Ascending order on `attr`.
    pub fn asc(attr: AttrId) -> Self {
        OneDimFunction {
            attr,
            dir: SortDir::Asc,
        }
    }

    /// Descending order on `attr`.
    pub fn desc(attr: AttrId) -> Self {
        OneDimFunction {
            attr,
            dir: SortDir::Desc,
        }
    }
}

/// A linear scoring function over normalized ranking attributes:
/// `score(t) = Σ wᵢ · norm(t[Aᵢ])`, minimized.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFunction {
    weights: Vec<(AttrId, f64)>,
}

impl LinearFunction {
    /// Build from `(attribute, weight)` pairs. Weights must be finite and
    /// non-zero; attributes must be distinct. (Zero weights are rejected
    /// rather than ignored so a caller's typo is caught loudly.)
    pub fn new(weights: Vec<(AttrId, f64)>) -> Result<Self, String> {
        if weights.is_empty() {
            return Err("ranking function needs at least one attribute".into());
        }
        let mut sorted = weights;
        sorted.sort_by_key(|(a, _)| *a);
        for pair in sorted.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(format!("duplicate ranking attribute {}", pair[0].0));
            }
        }
        for (attr, w) in &sorted {
            if !w.is_finite() || *w == 0.0 {
                return Err(format!("weight for {attr} must be finite and non-zero"));
            }
        }
        Ok(LinearFunction { weights: sorted })
    }

    /// Build from attribute names against a schema.
    pub fn from_names(schema: &Schema, weights: &[(&str, f64)]) -> Result<Self, String> {
        let mut resolved = Vec::with_capacity(weights.len());
        for (name, w) in weights {
            let id = schema
                .id_of(name)
                .ok_or_else(|| format!("no attribute named '{name}'"))?;
            if !schema.attr(id).kind.is_numeric() {
                return Err(format!("ranking attribute '{name}' must be numeric"));
            }
            resolved.push((id, *w));
        }
        LinearFunction::new(resolved)
    }

    /// The `(attribute, weight)` pairs, sorted by attribute.
    pub fn weights(&self) -> &[(AttrId, f64)] {
        &self.weights
    }

    /// Ranking attributes, in order.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.weights.iter().map(|(a, _)| *a)
    }

    /// Number of ranking dimensions.
    pub fn dims(&self) -> usize {
        self.weights.len()
    }

    /// Score a tuple (smaller is better).
    pub fn score(&self, t: &Tuple, norm: &Normalizer) -> f64 {
        self.weights
            .iter()
            .map(|(a, w)| w * norm.normalize(*a, t.num_at(*a)))
            .sum()
    }

    /// Score a point given as raw per-dimension values aligned with
    /// [`LinearFunction::weights`].
    pub fn score_point(&self, raw: &[f64], norm: &Normalizer) -> f64 {
        debug_assert_eq!(raw.len(), self.weights.len());
        self.weights
            .iter()
            .zip(raw)
            .map(|((a, w), v)| w * norm.normalize(*a, *v))
            .sum()
    }

    /// This function with each attribute's normalization resolved once
    /// against `norm`, for scoring many tuples without a lock and two hash
    /// lookups per term. Scores are bit-identical to
    /// [`LinearFunction::score`] as long as `norm` is unchanged.
    pub fn scorer(&self, norm: &Normalizer) -> Scorer {
        Scorer {
            terms: self
                .weights
                .iter()
                .map(|&(a, w)| (a, w, norm.stats(a)))
                .collect(),
        }
    }
}

/// A [`LinearFunction`] bound to a snapshot of its attributes'
/// normalization stats (see [`LinearFunction::scorer`]).
#[derive(Debug, Clone)]
pub struct Scorer {
    terms: Vec<(AttrId, f64, AttrStats)>,
}

impl Scorer {
    /// Score a tuple (smaller is better), with the same arithmetic in the
    /// same order as [`LinearFunction::score`].
    pub fn score(&self, t: &Tuple) -> f64 {
        self.terms
            .iter()
            .map(|(a, w, s)| w * s.normalize(t.num_at(*a)))
            .sum()
    }

    /// Score raw per-dimension values aligned with
    /// [`LinearFunction::weights`], like [`LinearFunction::score_point`].
    pub fn score_point(&self, raw: &[f64]) -> f64 {
        debug_assert_eq!(raw.len(), self.terms.len());
        self.terms
            .iter()
            .zip(raw)
            .map(|((_, w, s), v)| w * s.normalize(*v))
            .sum()
    }
}

/// Any user ranking function QR2 supports.
#[derive(Debug, Clone, PartialEq)]
pub enum RankingFunction {
    /// Single-attribute ordering.
    OneDim(OneDimFunction),
    /// Linear combination of normalized attributes.
    Linear(LinearFunction),
}

impl RankingFunction {
    /// The ranking attributes referenced by the function.
    pub fn attrs(&self) -> Vec<AttrId> {
        match self {
            RankingFunction::OneDim(f) => vec![f.attr],
            RankingFunction::Linear(f) => f.attrs().collect(),
        }
    }

    /// Validate the function against a schema (numeric attributes only).
    pub fn validate(&self, schema: &Schema) -> Result<(), String> {
        for attr in self.attrs() {
            if attr.index() >= schema.len() {
                return Err(format!("attribute {attr} out of range"));
            }
            if !schema.attr(attr).kind.is_numeric() {
                return Err(format!(
                    "ranking attribute '{}' must be numeric",
                    schema.attr(attr).name
                ));
            }
        }
        Ok(())
    }
}

impl From<OneDimFunction> for RankingFunction {
    fn from(f: OneDimFunction) -> Self {
        RankingFunction::OneDim(f)
    }
}

impl From<LinearFunction> for RankingFunction {
    fn from(f: LinearFunction) -> Self {
        RankingFunction::Linear(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::{TupleId, Value};

    fn schema() -> Schema {
        Schema::builder()
            .numeric("price", 0.0, 100.0)
            .numeric("size", 0.0, 10.0)
            .categorical("cut", ["g"])
            .build()
    }

    #[test]
    fn sort_dir_better() {
        assert!(SortDir::Asc.better(1.0, 2.0));
        assert!(!SortDir::Asc.better(2.0, 1.0));
        assert!(SortDir::Desc.better(2.0, 1.0));
        assert!(!SortDir::Desc.better(1.0, 1.0));
    }

    #[test]
    fn linear_rejects_bad_inputs() {
        assert!(LinearFunction::new(vec![]).is_err());
        assert!(LinearFunction::new(vec![(AttrId(0), 0.0)]).is_err());
        assert!(LinearFunction::new(vec![(AttrId(0), f64::NAN)]).is_err());
        assert!(LinearFunction::new(vec![(AttrId(0), 1.0), (AttrId(0), 2.0)]).is_err());
    }

    #[test]
    fn from_names_resolves_and_validates() {
        let s = schema();
        let f = LinearFunction::from_names(&s, &[("price", 1.0), ("size", -0.5)]).unwrap();
        assert_eq!(f.dims(), 2);
        assert!(LinearFunction::from_names(&s, &[("cut", 1.0)]).is_err());
        assert!(LinearFunction::from_names(&s, &[("nope", 1.0)]).is_err());
    }

    #[test]
    fn score_uses_normalized_values() {
        let s = schema();
        let norm = Normalizer::from_domains(&s);
        let f = LinearFunction::from_names(&s, &[("price", 1.0), ("size", -1.0)]).unwrap();
        let t = Tuple::new(
            TupleId(0),
            vec![Value::Num(50.0), Value::Num(10.0), Value::Cat(0)],
        );
        // norm(price)=0.5, norm(size)=1.0 → score = 0.5 - 1.0 = -0.5
        assert!((f.score(&t, &norm) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn score_point_matches_score() {
        let s = schema();
        let norm = Normalizer::from_domains(&s);
        let f = LinearFunction::from_names(&s, &[("price", 0.7), ("size", 0.3)]).unwrap();
        let t = Tuple::new(
            TupleId(1),
            vec![Value::Num(20.0), Value::Num(4.0), Value::Cat(0)],
        );
        let via_tuple = f.score(&t, &norm);
        let via_point = f.score_point(&[20.0, 4.0], &norm);
        assert!((via_tuple - via_point).abs() < 1e-12);
    }

    #[test]
    fn scorer_is_bit_identical_to_score() {
        let s = schema();
        let price = s.expect_id("price");
        let norm = Normalizer::from_domains(&s);
        let f = LinearFunction::from_names(&s, &[("price", 0.05), ("size", -1.0)]).unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |scale: f64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * scale
        };
        let check = |norm: &Normalizer, next: &mut dyn FnMut(f64) -> f64| {
            let scorer = f.scorer(norm);
            for i in 0..2_000u32 {
                let (p, z) = (next(120.0) - 10.0, next(10.0));
                let t = Tuple::new(
                    TupleId(i),
                    vec![Value::Num(p), Value::Num(z), Value::Cat(0)],
                );
                assert_eq!(scorer.score(&t).to_bits(), f.score(&t, norm).to_bits());
                assert_eq!(
                    scorer.score_point(&[p, z]).to_bits(),
                    f.score_point(&[p, z], norm).to_bits()
                );
            }
        };
        // Domain-only normalizer, then one refined by `set`.
        check(&norm, &mut next);
        norm.set(
            price,
            crate::normalize::AttrStats {
                min: 3.7,
                max: 91.3,
            },
        );
        check(&norm, &mut next);
    }

    #[test]
    fn ranking_function_validate() {
        let s = schema();
        let ok: RankingFunction = OneDimFunction::asc(s.expect_id("price")).into();
        assert!(ok.validate(&s).is_ok());
        let bad: RankingFunction = OneDimFunction::asc(s.expect_id("cut")).into();
        assert!(bad.validate(&s).is_err());
        let oob: RankingFunction = OneDimFunction::asc(AttrId(99)).into();
        assert!(oob.validate(&s).is_err());
    }

    #[test]
    fn attrs_listing() {
        let s = schema();
        let f = LinearFunction::from_names(&s, &[("size", 1.0), ("price", 2.0)]).unwrap();
        let rf: RankingFunction = f.into();
        assert_eq!(rf.attrs(), vec![s.expect_id("price"), s.expect_id("size")]);
    }
}
