//! Property tests for the storage formats: every encoder/decoder pair must
//! be a bijection on its domain, and the log must recover the longest valid
//! prefix after arbitrary truncation.

use proptest::prelude::*;
use qr2_store::codec::{
    decode_query, decode_tuples, encode_query, encode_tuples, get_bytes, get_f64, get_signed,
    get_str, get_varint, put_bytes, put_f64, put_signed, put_str, put_varint, unzigzag, zigzag,
};
use qr2_store::Log;
use qr2_webdb::{AttrId, CatSet, Predicate, RangePred, SearchQuery, Tuple, TupleId, Value};

proptest! {
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        prop_assert_eq!(get_varint(&mut &buf[..]).unwrap(), v);
    }

    #[test]
    fn signed_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        put_signed(&mut buf, v);
        prop_assert_eq!(get_signed(&mut &buf[..]).unwrap(), v);
        prop_assert_eq!(unzigzag(zigzag(v)), v);
    }

    #[test]
    fn f64_roundtrip_bit_exact(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let mut buf = Vec::new();
        put_f64(&mut buf, v);
        prop_assert_eq!(get_f64(&mut &buf[..]).unwrap().to_bits(), bits);
    }

    #[test]
    fn bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &data);
        prop_assert_eq!(get_bytes(&mut &buf[..]).unwrap(), data);
    }

    #[test]
    fn str_roundtrip(s in "\\PC{0,64}") {
        let mut buf = Vec::new();
        put_str(&mut buf, &s);
        prop_assert_eq!(get_str(&mut &buf[..]).unwrap(), s);
    }

    #[test]
    fn concatenated_values_decode_in_order(
        a in any::<u64>(),
        b in any::<i64>(),
        s in "\\PC{0,32}",
    ) {
        let mut buf = Vec::new();
        put_varint(&mut buf, a);
        put_signed(&mut buf, b);
        put_str(&mut buf, &s);
        let mut r = &buf[..];
        prop_assert_eq!(get_varint(&mut r).unwrap(), a);
        prop_assert_eq!(get_signed(&mut r).unwrap(), b);
        prop_assert_eq!(get_str(&mut r).unwrap(), s);
        prop_assert!(r.is_empty());
    }
}

fn query_strategy() -> impl Strategy<Value = SearchQuery> {
    proptest::collection::vec(
        (
            0u16..6,
            prop_oneof![
                (any::<i32>(), any::<i32>(), any::<bool>(), any::<bool>()).prop_map(
                    |(a, b, li, hi)| {
                        let lo = a as f64 / 100.0;
                        let hi_v = b as f64 / 100.0;
                        Predicate::Range(RangePred {
                            lo: lo.min(hi_v),
                            hi: lo.max(hi_v),
                            lo_inc: li,
                            hi_inc: hi,
                        })
                    }
                ),
                proptest::collection::vec(0u32..32, 1..6)
                    .prop_map(|codes| Predicate::Cats(CatSet::new(codes))),
            ],
        ),
        0..5,
    )
    .prop_map(|preds| {
        let mut q = SearchQuery::all();
        for (attr, pred) in preds {
            q = q.with(AttrId(attr), pred);
        }
        q
    })
}

fn tuples_strategy() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(
        (
            any::<u32>(),
            proptest::collection::vec(
                prop_oneof![
                    any::<i32>().prop_map(|v| Value::Num(v as f64 / 7.0)),
                    (0u32..1000).prop_map(Value::Cat),
                ],
                1..6,
            ),
        ),
        0..20,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(id, vals)| Tuple::new(TupleId(id), vals))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_codec_bijective(q in query_strategy()) {
        let mut buf = Vec::new();
        encode_query(&mut buf, &q);
        let back = decode_query(&mut &buf[..]).unwrap();
        prop_assert_eq!(back, q);
    }

    #[test]
    fn tuple_codec_bijective(ts in tuples_strategy()) {
        let mut buf = Vec::new();
        encode_tuples(&mut buf, &ts);
        let back = decode_tuples(&mut &buf[..]).unwrap();
        prop_assert_eq!(back, ts);
    }

    /// Crash-recovery property: truncating a synced log at any byte
    /// position yields some *prefix* of the appended records — never a
    /// corrupted or reordered view.
    #[test]
    fn log_truncation_recovers_prefix(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..12),
        cut in any::<u16>(),
    ) {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "qr2-log-prop-{}-{}.log",
            std::process::id(),
            cut as u64 ^ records.len() as u64 ^ std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos() as u64
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
        prop_assert!(recovered.len() <= records.len());
        for (a, b) in recovered.iter().zip(&records) {
            prop_assert_eq!(a, b);
        }
        std::fs::remove_file(&path).ok();
    }
}
