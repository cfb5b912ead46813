//! Property tests: the JSON serializer and parser are mutually inverse on
//! the full value domain.
//!
//! Each property runs as a seeded loop: case `i` draws from
//! `StdRng::seed_from_u64(base + i)`, and a failure names that seed.

use std::panic::{self, AssertUnwindSafe};

use qr2_http::{parse_json, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 256;

/// Runs `property` on `CASES` seeded cases starting at seed `base`.
fn check(property: &str, base: u64, mut body: impl FnMut(&mut StdRng)) {
    for seed in base..base + CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        assert!(run.is_ok(), "json_props::{property} failed at seed {seed}");
    }
}

/// Up to `max_chars` non-control chars (the regex class `\PC`): half
/// printable ASCII, half drawn from the whole Unicode scalar range.
fn text(rng: &mut StdRng, max_chars: usize) -> String {
    let n = rng.gen_range(0..=max_chars);
    (0..n)
        .map(|_| loop {
            let code = if rng.gen() {
                rng.gen_range(0x20..0x7fu32)
            } else {
                rng.gen_range(0..=char::MAX as u32)
            };
            match char::from_u32(code) {
                Some(c) if !c.is_control() => break c,
                _ => {}
            }
        })
        .collect()
}

/// One to eight chars of `[a-z_]`.
fn key(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";
    (0..rng.gen_range(1..=8))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

fn leaf(rng: &mut StdRng) -> Json {
    match rng.gen_range(0..5) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        // Finite doubles only: JSON cannot carry NaN/Inf.
        2 => Json::Num(rng.gen_range(-1.0e12..1.0e12)),
        3 => Json::Num(rng.gen_range(i32::MIN..=i32::MAX) as f64),
        _ => Json::Str(text(rng, 24)),
    }
}

/// A value nested at most `depth` containers deep, each container holding
/// at most five children.
fn json(rng: &mut StdRng, depth: u32) -> Json {
    if depth == 0 || rng.gen_range(0..3) == 0 {
        return leaf(rng);
    }
    let n = rng.gen_range(0..6);
    if rng.gen() {
        Json::Arr((0..n).map(|_| json(rng, depth - 1)).collect())
    } else {
        Json::Obj((0..n).map(|_| (key(rng), json(rng, depth - 1))).collect())
    }
}

#[test]
fn serialize_parse_roundtrip() {
    check("serialize_parse_roundtrip", 0, |rng| {
        let v = json(rng, 4);
        let text = v.to_string();
        let back = parse_json(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert!(
            json_eq(&v, &back),
            "mismatch:\n  in:  {v:?}\n  out: {back:?}"
        );
    });
}

/// Parsing arbitrary strings either fails cleanly or yields a value
/// that reserializes to something parseable (no panics, ever).
#[test]
fn parser_never_panics() {
    check("parser_never_panics", 1000, |rng| {
        let s = text(rng, 64);
        if let Ok(v) = parse_json(&s) {
            let _ = parse_json(&v.to_string()).expect("reserialized JSON parses");
        }
    });
}

/// Equality modulo f64 printing round-trips (serializer prints shortest
/// representation; parse gives back a bit-identical double for it).
fn json_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x == y || (x - y).abs() < f64::EPSILON * x.abs(),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| json_eq(p, q))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && json_eq(va, vb))
        }
        _ => a == b,
    }
}
