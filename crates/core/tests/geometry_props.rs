//! Property tests for the MD geometry: the branch-and-bound engines are
//! only exact if (a) `min_score` really lower-bounds every point of a box,
//! (b) splits partition exactly, and (c) `contour_bbox` never cuts off a
//! point on the good side of the contour. These are the invariants that
//! make pruning *safe* — a violation would silently drop tuples.
//!
//! Each property runs as a seeded loop: case `i` draws from
//! `StdRng::seed_from_u64(base + i)`, and a failure names that seed.

use std::panic::{self, AssertUnwindSafe};

use qr2_core::{LinearFunction, NBox, Normalizer};
use qr2_webdb::{AttrId, RangePred, Schema, SearchQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 200;

/// Runs `property` on `CASES` seeded cases starting at seed `base`.
fn check(property: &str, base: u64, mut body: impl FnMut(&mut StdRng)) {
    for seed in base..base + CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        assert!(
            run.is_ok(),
            "geometry_props::{property} failed at seed {seed}"
        );
    }
}

fn schema3() -> Schema {
    Schema::builder()
        .numeric("x0", -5.0, 10.0)
        .numeric("x1", 0.0, 1.0)
        .numeric("x2", 100.0, 900.0)
        .build()
}

/// Three weights of magnitude 0.1..=2.0, each of either sign.
fn function(rng: &mut StdRng) -> LinearFunction {
    let weights = (0..3u16)
        .map(|i| {
            let w = rng.gen_range(1i32..=20) as f64 / 10.0;
            (AttrId(i), if rng.gen() { w } else { -w })
        })
        .collect();
    LinearFunction::new(weights).unwrap()
}

/// A range within `[lo, hi]` on a 1/1000 grid, with random inclusivity
/// (possibly empty).
fn dim(rng: &mut StdRng, lo: f64, hi: f64) -> RangePred {
    let a = rng.gen_range(0u32..1000);
    let b = rng.gen_range(0u32..1000);
    let span = hi - lo;
    RangePred {
        lo: lo + span * (a.min(b) as f64 / 1000.0),
        hi: lo + span * (a.max(b) as f64 / 1000.0),
        lo_inc: rng.gen(),
        hi_inc: rng.gen(),
    }
}

/// A box inside `schema3`'s domains (possibly empty).
fn any_box(rng: &mut StdRng) -> NBox {
    NBox::from_dims(vec![
        (AttrId(0), dim(rng, -5.0, 10.0)),
        (AttrId(1), dim(rng, 0.0, 1.0)),
        (AttrId(2), dim(rng, 100.0, 900.0)),
    ])
}

/// A non-empty box: empty draws are redrawn.
fn nonempty_box(rng: &mut StdRng) -> NBox {
    loop {
        let b = any_box(rng);
        if !b.is_empty() {
            return b;
        }
    }
}

/// Sample deterministic points of a box (corners + interior grid).
fn sample_points(b: &NBox) -> Vec<[f64; 3]> {
    let mut pts = Vec::new();
    let fracs = [0.0, 0.25, 0.5, 0.75, 1.0];
    for &f0 in &fracs {
        for &f1 in &fracs {
            for &f2 in &fracs {
                let p = [
                    b.range(0).lo + f0 * b.range(0).width(),
                    b.range(1).lo + f1 * b.range(1).width(),
                    b.range(2).lo + f2 * b.range(2).width(),
                ];
                pts.push(p);
            }
        }
    }
    pts
}

fn score(f: &LinearFunction, norm: &Normalizer, p: &[f64; 3]) -> f64 {
    f.score_point(p, norm)
}

/// `min_score` lower-bounds the score of every point in the box.
#[test]
fn min_score_is_a_lower_bound() {
    check("min_score_is_a_lower_bound", 0, |rng| {
        let f = function(rng);
        let b = nonempty_box(rng);
        let norm = Normalizer::from_domains(&schema3());
        let bound = b.min_score(&f, &norm);
        for p in sample_points(&b) {
            let s = score(&f, &norm, &p);
            assert!(
                s >= bound - 1e-9,
                "point {p:?} scores {s} below bound {bound}"
            );
        }
    });
}

/// Splitting partitions the box exactly: every sampled point of the
/// parent belongs to exactly one child.
#[test]
fn split_partitions_exactly() {
    check("split_partitions_exactly", 1000, |rng| {
        let schema = schema3();
        // Redraw until the chosen dimension has a representable midpoint.
        let (b, dim) = loop {
            let b = nonempty_box(rng);
            let dim = rng.gen_range(0usize..3);
            let r = b.range(dim);
            let mid = r.lo + (r.hi - r.lo) / 2.0;
            if mid > r.lo && mid < r.hi {
                break (b, dim);
            }
        };
        let (l, rr) = b.split(dim, &schema);
        for p in sample_points(&b) {
            let in_parent = (0..3).all(|i| b.range(i).matches(p[i]));
            if !in_parent {
                continue;
            }
            let in_l = (0..3).all(|i| l.range(i).matches(p[i]));
            let in_r = (0..3).all(|i| rr.range(i).matches(p[i]));
            assert!(in_l ^ in_r, "point {p:?} must be in exactly one half");
        }
    });
}

/// Contour soundness: every point of the box with `f(x) ≤ s` is inside
/// `contour_bbox(s)` — pruning by the bbox can never lose a winner.
#[test]
fn contour_bbox_is_sound() {
    check("contour_bbox_is_sound", 2000, |rng| {
        let f = function(rng);
        let b = nonempty_box(rng);
        let s_frac = rng.gen_range(0.0..1.0);
        let norm = Normalizer::from_domains(&schema3());
        // Pick a contour level between the box's min and max scores.
        let points = sample_points(&b);
        let scores: Vec<f64> = points.iter().map(|p| score(&f, &norm, p)).collect();
        let (lo, hi) = scores
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let s = lo + s_frac * (hi - lo);
        match b.contour_bbox(&f, &norm, s) {
            None => {
                // Empty contour region: no sampled point may score ≤ s
                // (allowing fp slack at the boundary).
                for (p, sc) in points.iter().zip(&scores) {
                    assert!(
                        *sc > s - 1e-9,
                        "bbox claimed empty but {p:?} scores {sc} ≤ {s}"
                    );
                }
            }
            Some(t) => {
                for (p, sc) in points.iter().zip(&scores) {
                    if *sc <= s - 1e-9 {
                        let inside = (0..3).all(|i| {
                            let r = t.range(i);
                            // Closed-tolerance containment: the bbox uses
                            // exact arithmetic, samples may sit on edges.
                            p[i] >= r.lo - 1e-9 && p[i] <= r.hi + 1e-9
                        });
                        assert!(
                            inside,
                            "point {p:?} (score {sc}) cut off by contour bbox at s={s}"
                        );
                    }
                }
            }
        }
    });
}

/// The contour bbox is monotone in `s`: a larger budget yields a
/// superset box.
#[test]
fn contour_bbox_is_monotone() {
    check("contour_bbox_is_monotone", 3000, |rng| {
        let f = function(rng);
        let b = nonempty_box(rng);
        let norm = Normalizer::from_domains(&schema3());
        let base = b.min_score(&f, &norm);
        let small = b.contour_bbox(&f, &norm, base + 0.1);
        let large = b.contour_bbox(&f, &norm, base + 0.5);
        if let (Some(sm), Some(lg)) = (small, large) {
            for i in 0..3 {
                assert!(lg.range(i).lo <= sm.range(i).lo + 1e-12);
                assert!(lg.range(i).hi >= sm.range(i).hi - 1e-12);
            }
        }
    });
}

/// to_query round-trips the box's ranges onto a query.
#[test]
fn to_query_reflects_ranges() {
    check("to_query_reflects_ranges", 4000, |rng| {
        let b = any_box(rng);
        let q = b.to_query(&SearchQuery::all());
        for i in 0..3 {
            assert_eq!(q.range_of(AttrId(i as u16)), Some(b.range(i)));
        }
    });
}
