//! Compact binary codec: LEB128 varints, zig-zag signed integers, IEEE-754
//! bit patterns for floats, and length-prefixed strings/bytes — and, on
//! top of them, the stable formats for [`SearchQuery`]s and tuple lists
//! that the answer store, the rank index and `qr2-cache`'s keys share.
//!
//! All multi-byte fixed-width values are little-endian. The codec is the
//! foundation of the log-record, key/value, and tuple formats; it is fully
//! round-trip tested (including the seeded property loops in
//! `tests/codec_props.rs`).
//!
//! Writers append to a `Vec<u8>`; readers consume a `&[u8]` cursor in
//! place, checking the remaining length before every read.

use qr2_webdb::{AttrId, CatSet, Predicate, RangePred, SearchQuery, Tuple, TupleId, Value};

use crate::{Result, StoreError};

/// Append an unsigned LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(StoreError::Corrupt("truncated varint".into()));
        };
        *buf = rest;
        if shift == 63 && byte > 1 {
            return Err(StoreError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(StoreError::Corrupt("varint too long".into()));
        }
    }
}

/// Zig-zag encode a signed integer (small magnitudes → small varints).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed varint (zig-zag + LEB128).
pub fn put_signed(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, zigzag(v));
}

/// Read a signed varint.
pub fn get_signed(buf: &mut &[u8]) -> Result<i64> {
    Ok(unzigzag(get_varint(buf)?))
}

/// Append an `f64` as its little-endian bit pattern (total-order exact; NaN
/// payloads preserved).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Read an `f64` bit pattern.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64> {
    let Some((raw, rest)) = buf.split_first_chunk::<8>() else {
        return Err(StoreError::Corrupt("truncated f64".into()));
    };
    *buf = rest;
    Ok(f64::from_bits(u64::from_le_bytes(*raw)))
}

/// Append a fixed-width `u32` (little-endian).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a fixed-width `u32`.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    let Some((raw, rest)) = buf.split_first_chunk::<4>() else {
        return Err(StoreError::Corrupt("truncated u32".into()));
    };
    *buf = rest;
    Ok(u32::from_le_bytes(*raw))
}

/// Append length-prefixed bytes.
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_varint(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

/// Read length-prefixed bytes.
pub fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>> {
    let len = get_varint(buf)? as usize;
    let Some((data, rest)) = buf.split_at_checked(len) else {
        return Err(StoreError::Corrupt(format!(
            "truncated bytes: want {len}, have {}",
            buf.len()
        )));
    };
    *buf = rest;
    Ok(data.to_vec())
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> Result<String> {
    let raw = get_bytes(buf)?;
    String::from_utf8(raw).map_err(|e| StoreError::Corrupt(format!("invalid utf-8: {e}")))
}

// ---------------------------------------------------------------------------
// Queries and tuples: the formats every store and the cache key share.
// ---------------------------------------------------------------------------

const PRED_RANGE: u64 = 1;
const PRED_CATS: u64 = 2;
const VAL_NUM: u64 = 0;
const VAL_CAT: u64 = 1;

/// Serialize a [`SearchQuery`] canonically (predicates are already sorted by
/// attribute id inside the query).
pub fn encode_query(buf: &mut Vec<u8>, q: &SearchQuery) {
    put_varint(buf, q.num_predicates() as u64);
    for (attr, pred) in q.predicates() {
        put_varint(buf, attr.0 as u64);
        match pred {
            Predicate::Range(r) => {
                put_varint(buf, PRED_RANGE);
                put_f64(buf, r.lo);
                put_f64(buf, r.hi);
                let flags = (r.lo_inc as u8) | ((r.hi_inc as u8) << 1);
                buf.push(flags);
            }
            Predicate::Cats(s) => {
                put_varint(buf, PRED_CATS);
                put_varint(buf, s.len() as u64);
                for &c in s.codes() {
                    put_varint(buf, c as u64);
                }
            }
        }
    }
}

/// Inverse of [`encode_query`].
pub fn decode_query(buf: &mut &[u8]) -> Result<SearchQuery> {
    let count = get_varint(buf)? as usize;
    let mut q = SearchQuery::all();
    for _ in 0..count {
        let attr = AttrId(get_varint(buf)? as u16);
        match get_varint(buf)? {
            PRED_RANGE => {
                let lo = get_f64(buf)?;
                let hi = get_f64(buf)?;
                if buf.is_empty() {
                    return Err(StoreError::Corrupt("truncated range flags".into()));
                }
                let flags = buf[0];
                *buf = &buf[1..];
                q = q.with(
                    attr,
                    Predicate::Range(RangePred {
                        lo,
                        hi,
                        lo_inc: flags & 1 != 0,
                        hi_inc: flags & 2 != 0,
                    }),
                );
            }
            PRED_CATS => {
                let n = get_varint(buf)? as usize;
                let mut codes = Vec::with_capacity(n);
                for _ in 0..n {
                    codes.push(get_varint(buf)? as u32);
                }
                q = q.with(attr, Predicate::Cats(CatSet::new(codes)));
            }
            t => return Err(StoreError::Corrupt(format!("unknown predicate tag {t}"))),
        }
    }
    Ok(q)
}

/// Serialize a tuple list.
pub fn encode_tuples(buf: &mut Vec<u8>, tuples: &[Tuple]) {
    put_varint(buf, tuples.len() as u64);
    for t in tuples {
        put_u32(buf, t.id.0);
        put_varint(buf, t.values().len() as u64);
        for v in t.values() {
            match v {
                Value::Num(x) => {
                    put_varint(buf, VAL_NUM);
                    put_f64(buf, *x);
                }
                Value::Cat(c) => {
                    put_varint(buf, VAL_CAT);
                    put_varint(buf, *c as u64);
                }
            }
        }
    }
}

/// Inverse of [`encode_tuples`].
pub fn decode_tuples(buf: &mut &[u8]) -> Result<Vec<Tuple>> {
    let n = get_varint(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let id = TupleId(get_u32(buf)?);
        let arity = get_varint(buf)? as usize;
        let mut values = Vec::with_capacity(arity.min(1 << 10));
        for _ in 0..arity {
            match get_varint(buf)? {
                VAL_NUM => values.push(Value::Num(get_f64(buf)?)),
                VAL_CAT => values.push(Value::Cat(get_varint(buf)? as u32)),
                t => return Err(StoreError::Corrupt(format!("unknown value tag {t}"))),
            }
        }
        out.push(Tuple::new(id, values));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_varint(v: u64) -> u64 {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        get_varint(&mut &buf[..]).unwrap()
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(roundtrip_varint(v), v);
        }
    }

    #[test]
    fn varint_sizes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_truncation_detected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1_000_000);
        let short = &buf[..buf.len() - 1];
        assert!(get_varint(&mut &short[..]).is_err());
    }

    #[test]
    fn varint_overflow_detected() {
        // 11 continuation bytes can never be a valid u64 varint.
        let bad = [0xFFu8; 11];
        assert!(get_varint(&mut &bad[..]).is_err());
    }

    #[test]
    fn zigzag_symmetry() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn signed_roundtrip() {
        let mut buf = Vec::new();
        put_signed(&mut buf, -42);
        put_signed(&mut buf, i64::MIN);
        let mut r = &buf[..];
        assert_eq!(get_signed(&mut r).unwrap(), -42);
        assert_eq!(get_signed(&mut r).unwrap(), i64::MIN);
    }

    #[test]
    fn f64_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
        ] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let back = get_f64(&mut &buf[..]).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // NaN payload preserved.
        let nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let mut buf = Vec::new();
        put_f64(&mut buf, nan);
        assert_eq!(get_f64(&mut &buf[..]).unwrap().to_bits(), nan.to_bits());
        assert!(get_f64(&mut &buf[..7]).is_err());
    }

    #[test]
    fn str_roundtrip_and_invalid_utf8() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo — dense region");
        assert_eq!(get_str(&mut &buf[..]).unwrap(), "héllo — dense region");

        let mut bad = Vec::new();
        put_bytes(&mut bad, &[0xFF, 0xFE]);
        assert!(get_str(&mut &bad[..]).is_err());
    }

    #[test]
    fn bytes_truncation_detected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"abcdef");
        let short = &buf[..4];
        assert!(get_bytes(&mut &short[..]).is_err());
    }

    #[test]
    fn u32_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        assert_eq!(get_u32(&mut &buf[..]).unwrap(), 0xDEAD_BEEF);
        assert!(get_u32(&mut &buf[..3]).is_err());
    }

    fn sample_query() -> SearchQuery {
        SearchQuery::all()
            .and_range(AttrId(0), RangePred::half_open(1.5, 3.75))
            .and(AttrId(2), Predicate::Cats(CatSet::new([0, 3, 7])))
    }

    #[test]
    fn query_codec_roundtrip() {
        let q = sample_query();
        let mut buf = Vec::new();
        encode_query(&mut buf, &q);
        assert_eq!(decode_query(&mut &buf[..]).unwrap(), q);
    }

    #[test]
    fn empty_query_roundtrip() {
        let mut buf = Vec::new();
        encode_query(&mut buf, &SearchQuery::all());
        assert_eq!(decode_query(&mut &buf[..]).unwrap(), SearchQuery::all());
    }

    #[test]
    fn tuple_codec_roundtrip() {
        let ts = vec![
            Tuple::new(
                TupleId(4),
                vec![Value::Num(2.0), Value::Num(-1.0), Value::Cat(3)],
            ),
            Tuple::new(
                TupleId(9),
                vec![Value::Num(3.5), Value::Num(0.25), Value::Cat(7)],
            ),
        ];
        let mut buf = Vec::new();
        encode_tuples(&mut buf, &ts);
        assert_eq!(decode_tuples(&mut &buf[..]).unwrap(), ts);
    }

    #[test]
    fn corrupt_predicate_tag_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // one predicate
        put_varint(&mut buf, 0); // attr 0
        put_varint(&mut buf, 99); // bogus tag
        assert!(decode_query(&mut &buf[..]).is_err());
    }
}
