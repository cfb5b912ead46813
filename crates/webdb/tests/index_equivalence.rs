//! Property test: the indexed execution path must be observably identical
//! to the rank-order scan — same tuples, same order, same overflow flag —
//! across randomized schemas, tables, queries, and system-k.
//!
//! Runs on a deterministic seeded generator, like every randomized test
//! in the workspace. 64 random databases × 48 random queries each.

use qr2_webdb::{
    AttrKind, CatSet, ExecMode, RangePred, Schema, SearchQuery, SimulatedWebDb, SystemRanking,
    TableBuilder, TopKInterface, Value,
};

/// splitmix64 — the test's entire randomness budget, fully deterministic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn random_db(rng: &mut Rng) -> (SimulatedWebDb, SimulatedWebDb, SimulatedWebDb) {
    let numeric_attrs = 1 + rng.below(3) as usize;
    let cat_attrs = rng.below(2) as usize;
    let mut builder = Schema::builder();
    for d in 0..numeric_attrs {
        builder = builder.numeric(format!("n{d}"), 0.0, 100.0);
    }
    let labels = 2 + rng.below(5) as usize;
    for d in 0..cat_attrs {
        builder = builder.categorical(format!("c{d}"), (0..labels).map(|l| format!("l{l}")));
    }
    let schema = builder.build();

    let n = 1 + rng.below(400) as usize;
    // Quantize values so exact ties (the scan's trickiest case) are common.
    let quant = [1.0, 5.0, 25.0][rng.below(3) as usize];
    let mut tb = TableBuilder::new(schema.clone());
    for _ in 0..n {
        let mut row = Vec::with_capacity(numeric_attrs + cat_attrs);
        for _ in 0..numeric_attrs {
            row.push(Value::Num((rng.unit() * quant).round() * (100.0 / quant)));
        }
        for _ in 0..cat_attrs {
            row.push(Value::Cat(rng.below(labels as u64) as u32));
        }
        tb.push_values(row).expect("row fits schema");
    }
    let table = tb.build();

    let weights: Vec<(String, f64)> = (0..numeric_attrs)
        .map(|d| (format!("n{d}"), rng.unit() * 2.0 - 1.0))
        .collect();
    let spec: Vec<(&str, f64)> = weights.iter().map(|(s, w)| (s.as_str(), *w)).collect();
    let ranking = SystemRanking::linear(&schema, &spec).expect("valid ranking");
    let system_k = 1 + rng.below(40) as usize;

    let build = |mode: ExecMode| {
        SimulatedWebDb::new(table.clone(), ranking.clone(), system_k).with_exec_mode(mode)
    };
    (
        build(ExecMode::ScanOnly),
        build(ExecMode::IndexOnly),
        build(ExecMode::Auto),
    )
}

fn random_query(rng: &mut Rng, schema: &Schema) -> SearchQuery {
    let mut q = SearchQuery::all();
    for (id, attr) in schema.iter() {
        if rng.below(100) < 45 {
            continue; // attribute unconstrained
        }
        match &attr.kind {
            AttrKind::Numeric { .. } => {
                let a = (rng.unit() * 120.0 - 10.0 * rng.unit()).round();
                let b = (rng.unit() * 120.0 - 10.0 * rng.unit()).round();
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let r = match rng.below(5) {
                    0 => RangePred::closed(lo, hi),
                    1 => RangePred::half_open(lo, hi),
                    2 => RangePred::open(lo, hi),
                    3 => RangePred::open_closed(lo, hi),
                    _ => RangePred::point(lo),
                };
                q = q.and_range(id, r);
            }
            AttrKind::Categorical { labels } => {
                let picks = rng.below(labels.len() as u64 + 1) as usize;
                let set =
                    CatSet::new((0..picks).map(|_| rng.below(labels.len() as u64 + 2) as u32));
                q = q.and_cats(id, set);
            }
        }
    }
    q
}

#[test]
fn indexed_search_is_byte_identical_to_scan() {
    let mut rng = Rng(0x001D_B5E0);
    for db_case in 0..64 {
        let (scan, index, auto) = random_db(&mut rng);
        for q_case in 0..48 {
            let q = random_query(&mut rng, scan.schema());
            let want = scan.search(&q);
            let via_index = index.search(&q);
            let via_auto = auto.search(&q);
            assert_eq!(
                want, via_index,
                "db {db_case} query {q_case} ({q}): index diverged from scan"
            );
            assert_eq!(
                want, via_auto,
                "db {db_case} query {q_case} ({q}): auto diverged from scan"
            );
        }
        // Execution mode must not change cost accounting.
        assert_eq!(scan.ledger().total(), index.ledger().total());
        assert_eq!(scan.ledger().total(), auto.ledger().total());
    }
}

#[test]
fn auto_mode_exercises_both_paths_over_the_suite() {
    let mut rng = Rng(7);
    let mut indexed = 0;
    let mut scanned = 0;
    for _ in 0..32 {
        let (_, _, auto) = random_db(&mut rng);
        for _ in 0..16 {
            let q = random_query(&mut rng, auto.schema());
            auto.search(&q);
        }
        let b = auto.ledger().exec_breakdown();
        indexed += b.indexed;
        scanned += b.scanned;
    }
    assert!(indexed > 0, "cost model never chose the index");
    assert!(scanned > 0, "cost model never fell back to the scan");
}
