//! Property tests for the storage formats: every encoder/decoder pair must
//! be a bijection on its domain, and the log must recover the longest valid
//! prefix after arbitrary truncation.
//!
//! Each property runs as a seeded loop: case `i` draws from
//! `StdRng::seed_from_u64(base + i)`, and a failure names that seed.

use std::panic::{self, AssertUnwindSafe};

use qr2_store::codec::{
    decode_query, decode_tuples, encode_query, encode_tuples, get_bytes, get_f64, get_signed,
    get_str, get_varint, put_bytes, put_f64, put_signed, put_str, put_varint, unzigzag, zigzag,
};
use qr2_store::Log;
use qr2_webdb::{AttrId, CatSet, Predicate, RangePred, SearchQuery, Tuple, TupleId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per scalar round trip.
const SCALAR_CASES: u64 = 256;
/// Cases per structured round trip and log truncation.
const STRUCT_CASES: u64 = 64;

/// Runs `property` on `cases` seeded cases starting at seed `base`.
fn check(property: &str, base: u64, cases: u64, mut body: impl FnMut(&mut StdRng)) {
    for seed in base..base + cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        assert!(run.is_ok(), "codec_props::{property} failed at seed {seed}");
    }
}

/// A u64 of random bit width, so short varints are drawn as often as long.
fn any_u64(rng: &mut StdRng) -> u64 {
    rng.gen::<u64>() >> rng.gen_range(0..64u32)
}

fn any_i64(rng: &mut StdRng) -> i64 {
    // Shift as signed so small negatives are drawn as often as small
    // positives.
    (rng.gen::<u64>() as i64) >> rng.gen_range(0..64u32)
}

fn any_i32(rng: &mut StdRng) -> i32 {
    rng.gen_range(i32::MIN..=i32::MAX)
}

fn bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen_range(0..=u8::MAX)).collect()
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

#[test]
fn varint_roundtrip() {
    check("varint_roundtrip", 0, SCALAR_CASES, |rng| {
        let v = any_u64(rng);
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        assert_eq!(get_varint(&mut &buf[..]).unwrap(), v);
    });
}

#[test]
fn signed_roundtrip() {
    check("signed_roundtrip", 1000, SCALAR_CASES, |rng| {
        let v = any_i64(rng);
        let mut buf = Vec::new();
        put_signed(&mut buf, v);
        assert_eq!(get_signed(&mut &buf[..]).unwrap(), v);
        assert_eq!(unzigzag(zigzag(v)), v);
    });
}

#[test]
fn f64_roundtrip_bit_exact() {
    check("f64_roundtrip_bit_exact", 2000, SCALAR_CASES, |rng| {
        let bits = rng.gen::<u64>();
        let mut buf = Vec::new();
        put_f64(&mut buf, f64::from_bits(bits));
        assert_eq!(get_f64(&mut &buf[..]).unwrap().to_bits(), bits);
    });
}

#[test]
fn bytes_roundtrip() {
    check("bytes_roundtrip", 3000, SCALAR_CASES, |rng| {
        let data = bytes(rng, 512);
        let mut buf = Vec::new();
        put_bytes(&mut buf, &data);
        assert_eq!(get_bytes(&mut &buf[..]).unwrap(), data);
    });
}

#[test]
fn str_roundtrip() {
    check("str_roundtrip", 4000, SCALAR_CASES, |rng| {
        let s = text(rng, 64);
        let mut buf = Vec::new();
        put_str(&mut buf, &s);
        assert_eq!(get_str(&mut &buf[..]).unwrap(), s);
    });
}

#[test]
fn concatenated_values_decode_in_order() {
    check(
        "concatenated_values_decode_in_order",
        5000,
        SCALAR_CASES,
        |rng| {
            let (a, b, s) = (any_u64(rng), any_i64(rng), text(rng, 32));
            let mut buf = Vec::new();
            put_varint(&mut buf, a);
            put_signed(&mut buf, b);
            put_str(&mut buf, &s);
            let mut r = &buf[..];
            assert_eq!(get_varint(&mut r).unwrap(), a);
            assert_eq!(get_signed(&mut r).unwrap(), b);
            assert_eq!(get_str(&mut r).unwrap(), s);
            assert!(r.is_empty());
        },
    );
}

/// Up to four predicates on attributes 0..6: ranges with hundredth-unit
/// bounds or sets of up to five codes.
fn query(rng: &mut StdRng) -> SearchQuery {
    let mut q = SearchQuery::all();
    for _ in 0..rng.gen_range(0..5) {
        let attr = AttrId(rng.gen_range(0u16..6));
        let pred = if rng.gen() {
            let lo = any_i32(rng) as f64 / 100.0;
            let hi = any_i32(rng) as f64 / 100.0;
            Predicate::Range(RangePred {
                lo: lo.min(hi),
                hi: lo.max(hi),
                lo_inc: rng.gen(),
                hi_inc: rng.gen(),
            })
        } else {
            let n = rng.gen_range(1..6);
            Predicate::Cats(CatSet::new((0..n).map(|_| rng.gen_range(0u32..32))))
        };
        q = q.with(attr, pred);
    }
    q
}

/// Up to 19 tuples of one to five numeric or categorical values.
fn tuples(rng: &mut StdRng) -> Vec<Tuple> {
    (0..rng.gen_range(0..20))
        .map(|_| {
            let id = TupleId(rng.gen());
            let values = (0..rng.gen_range(1..6))
                .map(|_| {
                    if rng.gen() {
                        Value::Num(any_i32(rng) as f64 / 7.0)
                    } else {
                        Value::Cat(rng.gen_range(0u32..1000))
                    }
                })
                .collect();
            Tuple::new(id, values)
        })
        .collect()
}

#[test]
fn query_codec_bijective() {
    check("query_codec_bijective", 6000, STRUCT_CASES, |rng| {
        let q = query(rng);
        let mut buf = Vec::new();
        encode_query(&mut buf, &q);
        assert_eq!(decode_query(&mut &buf[..]).unwrap(), q);
    });
}

#[test]
fn tuple_codec_bijective() {
    check("tuple_codec_bijective", 7000, STRUCT_CASES, |rng| {
        let ts = tuples(rng);
        let mut buf = Vec::new();
        encode_tuples(&mut buf, &ts);
        assert_eq!(decode_tuples(&mut &buf[..]).unwrap(), ts);
    });
}

/// Crash-recovery property: truncating a synced log at any byte
/// position yields some *prefix* of the appended records — never a
/// corrupted or reordered view.
#[test]
fn log_truncation_recovers_prefix() {
    check(
        "log_truncation_recovers_prefix",
        8000,
        STRUCT_CASES,
        |rng| {
            let records: Vec<Vec<u8>> = (0..rng.gen_range(1..12)).map(|_| bytes(rng, 64)).collect();
            let cut = rng.gen_range(0..=u16::MAX);
            let mut path = std::env::temp_dir();
            path.push(format!(
                "qr2-log-prop-{}-{:016x}.log",
                std::process::id(),
                rng.gen::<u64>()
            ));
            {
                let (mut log, _) = Log::open(&path).unwrap();
                for r in &records {
                    log.append(r).unwrap();
                }
                log.sync().unwrap();
            }
            let full_len = std::fs::metadata(&path).unwrap().len();
            let keep = 8 + (cut as u64 % (full_len - 8 + 1)); // keep header at least
            {
                let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                f.set_len(keep).unwrap();
            }
            let (_, recovered) = Log::open(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert!(recovered.len() <= records.len());
            for (a, b) in recovered.iter().zip(&records) {
                assert_eq!(a, b);
            }
        },
    );
}
