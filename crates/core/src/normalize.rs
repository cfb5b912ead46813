//! Min–max normalization of ranking attributes.
//!
//! Slider weights in `[-1, 1]` only make sense when attribute values share a
//! scale; the paper resolves the "attributes with different cardinalities"
//! challenge with min–max normalization, obtaining the min and max of each
//! attribute through 1D probes against the live interface (§II-B).

use parking_lot::RwLock;
use qr2_webdb::{AttrId, AttrKind, RangePred, Schema, SearchError, SearchQuery, TopKInterface};
use std::collections::HashMap;

use crate::function::SortDir;

/// Discovered (or assumed) extrema of one attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrStats {
    /// Smallest observed/assumed value.
    pub min: f64,
    /// Largest observed/assumed value.
    pub max: f64,
}

impl AttrStats {
    /// Normalize `v` into `[0, 1]` (constant attributes map to 0).
    #[inline]
    pub fn normalize(&self, v: f64) -> f64 {
        let span = self.max - self.min;
        if span <= 0.0 {
            0.0
        } else {
            (v - self.min) / span
        }
    }
}

/// Per-attribute normalization table. Cheap to clone-by-reference; interior
/// mutability lets extrema be refined lazily.
#[derive(Debug)]
pub struct Normalizer {
    stats: RwLock<HashMap<AttrId, AttrStats>>,
    /// Fallback bounds from the schema's public domains.
    domain: HashMap<AttrId, AttrStats>,
}

impl Normalizer {
    /// Normalizer seeded from the schema's public domains (every numeric
    /// attribute gets its form bounds). No queries issued.
    pub fn from_domains(schema: &Schema) -> Self {
        let mut domain = HashMap::new();
        for (id, attr) in schema.iter() {
            if let AttrKind::Numeric { min, max, .. } = attr.kind {
                domain.insert(id, AttrStats { min, max });
            }
        }
        Normalizer {
            stats: RwLock::new(HashMap::new()),
            domain,
        }
    }

    /// Record discovered extrema for an attribute (overrides the domain
    /// fallback).
    pub fn set(&self, attr: AttrId, stats: AttrStats) {
        assert!(stats.min <= stats.max, "min must not exceed max");
        self.stats.write().insert(attr, stats);
    }

    /// The effective stats for `attr` (discovered if present, else domain).
    pub fn stats(&self, attr: AttrId) -> AttrStats {
        if let Some(s) = self.stats.read().get(&attr) {
            return *s;
        }
        *self
            .domain
            .get(&attr)
            .unwrap_or_else(|| panic!("attribute {attr} is not numeric"))
    }

    /// Normalize a raw value of `attr` into `[0, 1]`.
    #[inline]
    pub fn normalize(&self, attr: AttrId, v: f64) -> f64 {
        self.stats(attr).normalize(v)
    }

    /// Map a normalized value back to raw scale.
    pub fn denormalize(&self, attr: AttrId, x: f64) -> f64 {
        let s = self.stats(attr);
        s.min + x * (s.max - s.min)
    }
}

/// Discover the true min (`SortDir::Asc`) or max (`SortDir::Desc`) of
/// `attr` over the whole database with a binary probe sequence — the
/// paper's "simply doable using the 1D-RERANK algorithm".
///
/// Returns the discovered extremum and the number of queries spent, or the
/// error of the first failed probe: a failure must not read as an empty
/// half, or the bisection would move past the true extremum.
pub fn discover_extremum<D: TopKInterface + ?Sized>(
    db: &D,
    attr: AttrId,
    dir: SortDir,
) -> Result<(f64, usize), SearchError> {
    let schema = db.schema();
    let (dmin, dmax) = schema.attr(attr).numeric_domain();
    let mut queries = 0usize;

    // Invariant: the extremum lies in [lo, hi]; probe the preferred half.
    let (mut lo, mut hi) = (dmin, dmax);
    let mut fallback = None; // best value actually observed
    for _ in 0..128 {
        if hi - lo <= 0.0 {
            break;
        }
        let mid = lo + (hi - lo) / 2.0;
        let probe = match dir {
            SortDir::Asc => RangePred::half_open(lo, mid),
            SortDir::Desc => RangePred::open_closed(mid, hi),
        };
        let resp = db.probe(&SearchQuery::all().and_range(attr, probe))?.resp;
        queries += 1;
        if resp.tuples.is_empty() && !resp.overflow {
            // Preferred half empty: move to the other half.
            match dir {
                SortDir::Asc => lo = mid,
                SortDir::Desc => hi = mid,
            }
            continue;
        }
        // Track the best value seen anywhere.
        for t in resp.tuples.iter() {
            let v = t.num_at(attr);
            fallback = Some(match fallback {
                None => v,
                Some(b) => {
                    if dir.better(v, b) {
                        v
                    } else {
                        b
                    }
                }
            });
        }
        if !resp.overflow {
            // Complete view of the preferred half: extremum is its best.
            let best = resp
                .tuples
                .iter()
                .map(|t| t.num_at(attr))
                .fold(None, |acc: Option<f64>, v| match acc {
                    None => Some(v),
                    Some(b) => Some(if dir.better(v, b) { v } else { b }),
                })
                .expect("non-empty response");
            return Ok((best, queries));
        }
        // Overflow: keep narrowing toward the preferred end.
        match dir {
            SortDir::Asc => hi = mid,
            SortDir::Desc => lo = mid,
        }
    }
    // Width exhausted (dense cluster at the extremum): the observed best is
    // the extremum up to f64 resolution.
    Ok((
        fallback.unwrap_or(match dir {
            SortDir::Asc => dmin,
            SortDir::Desc => dmax,
        }),
        queries,
    ))
}

/// Discover and install extrema for every attribute of a ranking function.
/// Returns total queries spent, or the first failed probe's error; the
/// attributes calibrated before it keep their installed extrema.
pub fn calibrate<D: TopKInterface + ?Sized>(
    db: &D,
    norm: &Normalizer,
    attrs: &[AttrId],
) -> Result<usize, SearchError> {
    let mut total = 0;
    for &attr in attrs {
        let (min, q1) = discover_extremum(db, attr, SortDir::Asc)?;
        let (max, q2) = discover_extremum(db, attr, SortDir::Desc)?;
        total += q1 + q2;
        if min <= max {
            norm.set(attr, AttrStats { min, max });
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_webdb::{
        page_or_empty, Answer, QueryLedger, SimulatedWebDb, SystemRanking, TableBuilder,
        TopKResponse,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn db(values: &[f64], system_k: usize) -> SimulatedWebDb {
        let schema = Schema::builder().numeric("x", 0.0, 1000.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for &v in values {
            tb.push_row(vec![v]).unwrap();
        }
        // Hidden ranking: descending x (anti-correlated with min discovery).
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        SimulatedWebDb::new(tb.build(), ranking, system_k)
    }

    #[test]
    fn attr_stats_normalize() {
        let s = AttrStats {
            min: 10.0,
            max: 20.0,
        };
        assert_eq!(s.normalize(10.0), 0.0);
        assert_eq!(s.normalize(20.0), 1.0);
        assert_eq!(s.normalize(15.0), 0.5);
        let degenerate = AttrStats { min: 5.0, max: 5.0 };
        assert_eq!(degenerate.normalize(5.0), 0.0);
    }

    #[test]
    fn normalizer_prefers_discovered_stats() {
        let schema = Schema::builder().numeric("x", 0.0, 100.0).build();
        let n = Normalizer::from_domains(&schema);
        let x = schema.expect_id("x");
        assert_eq!(n.normalize(x, 50.0), 0.5);
        n.set(
            x,
            AttrStats {
                min: 40.0,
                max: 60.0,
            },
        );
        assert_eq!(n.normalize(x, 50.0), 0.5);
        assert_eq!(n.normalize(x, 40.0), 0.0);
        assert_eq!(n.denormalize(x, 1.0), 60.0);
    }

    #[test]
    #[should_panic(expected = "not numeric")]
    fn normalizer_panics_on_categorical() {
        let schema = Schema::builder()
            .numeric("x", 0.0, 1.0)
            .categorical("c", ["a"])
            .build();
        let n = Normalizer::from_domains(&schema);
        n.stats(schema.expect_id("c"));
    }

    #[test]
    fn discovers_min_and_max() {
        let d = db(&[17.0, 100.0, 450.0, 451.0, 999.0], 2);
        let x = d.schema().expect_id("x");
        let (min, _) = discover_extremum(&d, x, SortDir::Asc).unwrap();
        assert_eq!(min, 17.0);
        let (max, _) = discover_extremum(&d, x, SortDir::Desc).unwrap();
        assert_eq!(max, 999.0);
    }

    #[test]
    fn discovery_on_singleton_database() {
        let d = db(&[123.0], 5);
        let x = d.schema().expect_id("x");
        assert_eq!(discover_extremum(&d, x, SortDir::Asc).unwrap().0, 123.0);
        assert_eq!(discover_extremum(&d, x, SortDir::Desc).unwrap().0, 123.0);
    }

    #[test]
    fn discovery_with_duplicates_at_extremum() {
        let d = db(&[5.0, 5.0, 5.0, 5.0, 800.0], 2);
        let x = d.schema().expect_id("x");
        assert_eq!(discover_extremum(&d, x, SortDir::Asc).unwrap().0, 5.0);
    }

    #[test]
    fn discovery_cost_is_logarithmic() {
        let values: Vec<f64> = (0..500).map(|i| i as f64 * 2.0).collect();
        let d = db(&values, 10);
        let x = d.schema().expect_id("x");
        let (min, queries) = discover_extremum(&d, x, SortDir::Asc).unwrap();
        assert_eq!(min, 0.0);
        assert!(
            queries <= 64,
            "binary probing should need ~log queries, used {queries}"
        );
    }

    /// A source whose probe number `fail_at` fails; `search` reads a
    /// failure as an empty page, as the fallible decorators do.
    struct FailsAt {
        inner: SimulatedWebDb,
        fail_at: usize,
        probes: AtomicUsize,
    }

    impl TopKInterface for FailsAt {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn system_k(&self) -> usize {
            self.inner.system_k()
        }
        fn search(&self, q: &SearchQuery) -> TopKResponse {
            page_or_empty(self.probe(q))
        }
        fn ledger(&self) -> &QueryLedger {
            self.inner.ledger()
        }
        fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
            if self.probes.fetch_add(1, Ordering::SeqCst) == self.fail_at {
                return Err(SearchError::Unavailable {
                    retry_after: Duration::ZERO,
                });
            }
            Ok(Answer::paid(self.inner.search(q)))
        }
    }

    #[test]
    fn a_failed_probe_fails_calibration_and_installs_nothing() {
        let values = [17.0, 100.0, 450.0, 451.0, 999.0];
        let healthy = db(&values, 2);
        let x = healthy.schema().expect_id("x");
        let spent = calibrate(&healthy, &Normalizer::from_domains(healthy.schema()), &[x]).unwrap();
        for fail_at in 0..spent {
            let d = FailsAt {
                inner: db(&values, 2),
                fail_at,
                probes: AtomicUsize::new(0),
            };
            let n = Normalizer::from_domains(d.schema());
            let got = calibrate(&d, &n, &[x]);
            assert!(
                matches!(got, Err(SearchError::Unavailable { .. })),
                "probe {fail_at} of {spent} fails calibration, got {got:?}"
            );
            assert_eq!(
                n.stats(x),
                AttrStats {
                    min: 0.0,
                    max: 1000.0
                }
            );
        }
    }

    #[test]
    fn calibrate_installs_stats() {
        let d = db(&[10.0, 20.0, 90.0], 5);
        let schema = d.schema().clone();
        let n = Normalizer::from_domains(&schema);
        let x = schema.expect_id("x");
        let spent = calibrate(&d, &n, &[x]).unwrap();
        assert!(spent > 0);
        let s = n.stats(x);
        assert_eq!((s.min, s.max), (10.0, 90.0));
    }
}
