//! Property tests for the predicate algebra: intersection must be exactly
//! logical conjunction, and query narrowing must be monotone.
//!
//! Each property runs as a seeded loop: case `i` draws from
//! `StdRng::seed_from_u64(base + i)`, and a failure names that seed.

use std::panic::{self, AssertUnwindSafe};

use qr2_webdb::{AttrId, CatSet, Predicate, RangePred, SearchQuery, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 512;

/// Runs `property` on `CASES` seeded cases starting at seed `base`.
fn check(property: &str, base: u64, mut body: impl FnMut(&mut StdRng)) {
    for seed in base..base + CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        assert!(
            run.is_ok(),
            "predicate_props::{property} failed at seed {seed}"
        );
    }
}

/// A range with quarter-unit bounds in [-25, 25) and random inclusivity.
fn range(rng: &mut StdRng) -> RangePred {
    let a = rng.gen_range(-100i32..100);
    let b = rng.gen_range(-100i32..100);
    RangePred {
        lo: a.min(b) as f64 / 4.0,
        hi: a.max(b) as f64 / 4.0,
        lo_inc: rng.gen(),
        hi_inc: rng.gen(),
    }
}

/// A count drawn from `len` of codes below `max_code` (duplicates allowed).
fn codes(rng: &mut StdRng, max_code: u32, len: std::ops::Range<usize>) -> Vec<u32> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(0..max_code)).collect()
}

fn catset(rng: &mut StdRng) -> CatSet {
    CatSet::new(codes(rng, 16, 0..8))
}

/// v ∈ (a ∩ b) ⇔ v ∈ a ∧ v ∈ b — over a dense grid of probe values
/// including the bounds themselves.
#[test]
fn range_intersection_is_conjunction() {
    check("range_intersection_is_conjunction", 0, |rng| {
        let (a, b) = (range(rng), range(rng));
        let c = a.intersect(&b);
        let mut probes = vec![a.lo, a.hi, b.lo, b.hi, c.lo, c.hi];
        for i in -12..=12 {
            probes.push(i as f64 * 2.3);
        }
        for v in probes {
            assert_eq!(
                c.matches(v),
                a.matches(v) && b.matches(v),
                "v={v} a={a:?} b={b:?} c={c:?}"
            );
        }
    });
}

/// Intersection is commutative and idempotent.
#[test]
fn range_intersection_laws() {
    check("range_intersection_laws", 1000, |rng| {
        let (a, b) = (range(rng), range(rng));
        assert_eq!(a.intersect(&b), b.intersect(&a));
        assert_eq!(a.intersect(&a), a);
    });
}

/// Emptiness is consistent with matching: an empty range matches
/// nothing, a non-empty one matches at least one probed point.
#[test]
fn range_emptiness_consistent() {
    check("range_emptiness_consistent", 2000, |rng| {
        let r = range(rng);
        let probes = [r.lo, r.hi, (r.lo + r.hi) / 2.0];
        if r.is_empty() {
            for v in probes {
                assert!(!r.matches(v));
            }
        } else {
            assert!(probes.iter().any(|&v| r.matches(v)));
        }
    });
}

/// CatSet intersection is set intersection.
#[test]
fn catset_intersection_is_conjunction() {
    check("catset_intersection_is_conjunction", 3000, |rng| {
        let (a, b) = (catset(rng), catset(rng));
        let c = a.intersect(&b);
        for code in 0u32..20 {
            assert_eq!(c.contains(code), a.contains(code) && b.contains(code));
        }
    });
}

/// CatSet split partitions the set.
#[test]
fn catset_split_partitions() {
    check("catset_split_partitions", 4000, |rng| {
        // Redraw until the set has two distinct codes to split.
        let s = loop {
            let s = CatSet::new(codes(rng, 64, 2..16));
            if s.len() >= 2 {
                break s;
            }
        };
        let (l, r) = s.split();
        assert_eq!(l.len() + r.len(), s.len());
        for &c in s.codes() {
            assert!(
                l.contains(c) ^ r.contains(c),
                "each code in exactly one half"
            );
        }
    });
}

/// Conjoining predicates onto a query can only shrink its match set.
#[test]
fn query_and_is_monotone() {
    check("query_and_is_monotone", 5000, |rng| {
        let (r1, r2) = (range(rng), range(rng));
        let v = rng.gen_range(-30i32..30) as f64;
        let attr = AttrId(0);
        let q1 = SearchQuery::all().and_range(attr, r1);
        let q2 = q1.and_range(attr, r2);
        let m1 = q1.matches_with(|_| Value::Num(v));
        let m2 = q2.matches_with(|_| Value::Num(v));
        assert!(!m2 || m1, "narrowed query cannot match more");
        // And the narrowed query is exactly the conjunction.
        assert_eq!(m2, r1.matches(v) && r2.matches(v));
    });
}

/// `with` replaces rather than conjoins.
#[test]
fn query_with_replaces() {
    check("query_with_replaces", 6000, |rng| {
        let (r1, r2) = (range(rng), range(rng));
        let attr = AttrId(3);
        let q = SearchQuery::all()
            .and_range(attr, r1)
            .with(attr, Predicate::Range(r2));
        assert_eq!(q.range_of(attr), Some(&r2));
    });
}

/// Display → stable (never panics, deterministic).
#[test]
fn query_display_total() {
    check("query_display_total", 7000, |rng| {
        let q = SearchQuery::all()
            .and_range(AttrId(0), range(rng))
            .and_cats(AttrId(1), catset(rng));
        assert_eq!(q.to_string(), q.to_string());
    });
}
