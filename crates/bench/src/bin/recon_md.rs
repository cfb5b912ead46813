//! Time MD sessions served from a complete reconstruction of the wide
//! bluenile (5 numeric columns) and zillow (6) sources.
//!
//! ```sh
//! cargo run --release -p qr2-bench --bin recon_md            # 100,000 rows
//! cargo run --release -p qr2-bench --bin recon_md -- 20000   # other sizes
//! ```
//!
//! Each source is crawled to full coverage, then every (function,
//! filter) shape serves 300 seeded sessions of 85 tuples each through
//! `ReconIndex::serve`, as the hybrid tier does. Functions weigh 2 or 3
//! of the numeric columns with random signs; filters are ranges spanning
//! 25–55% of an attribute's values, or one category. Three untimed
//! sessions per shape build what the shape's walk reads first, so the
//! table shows per-session serving cost. The `answer` column hashes
//! every id served: equal hashes on two builds mean identical answers.
//! The program uses only APIs older than the kd-tree walk, so it runs
//! unchanged on earlier checkouts for before/after comparisons.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use qr2_core::{LinearFunction, Normalizer};
use qr2_datagen::{
    bluenile_db, bluenile_table, zillow_db, zillow_table, DiamondsConfig, HomesConfig,
};
use qr2_recon::{JobOptions, ReconIndex, ServeOrder};
use qr2_webdb::{CatSet, RangePred, SearchQuery, SimulatedWebDb, Table, TopKInterface};

const SESSIONS: usize = 300;
const TUPLES: usize = 85;

/// xorshift64: seeded and dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A filter shape: range attributes, and an optional category set.
struct Filter {
    label: &'static str,
    ranges: &'static [&'static str],
    cats: Option<(&'static str, u32)>,
}

const fn ranges(label: &'static str, ranges: &'static [&'static str]) -> Filter {
    Filter {
        label,
        ranges,
        cats: None,
    }
}

/// A range over `sorted` values spanning 25–55% of them.
fn range(rng: &mut Rng, sorted: &[f64]) -> RangePred {
    let width = 0.25 + 0.30 * rng.unit();
    let lo = rng.unit() * (1.0 - width);
    let at = |p: f64| {
        let last = sorted.len() - 1;
        sorted[((p * last as f64).round() as usize).min(last)]
    };
    RangePred::closed(at(lo), at(lo + width))
}

fn session_specs(
    table: &Table,
    function: &[&str],
    filter: &Filter,
    rng: &mut Rng,
) -> Vec<(SearchQuery, ServeOrder)> {
    let schema = table.schema();
    let sorted: Vec<Vec<f64>> = filter
        .ranges
        .iter()
        .map(|name| {
            let id = schema.expect_id(name);
            let mut values: Vec<f64> = (0..table.len()).map(|r| table.num(r, id)).collect();
            values.sort_by(f64::total_cmp);
            values
        })
        .collect();
    (0..SESSIONS)
        .map(|_| {
            let mut q = SearchQuery::all();
            for (name, values) in filter.ranges.iter().zip(&sorted) {
                q = q.and_range(schema.expect_id(name), range(rng, values));
            }
            if let Some((name, code)) = filter.cats {
                q = q.and_cats(schema.expect_id(name), CatSet::single(code));
            }
            let weights: Vec<(&str, f64)> = function
                .iter()
                .map(|&a| {
                    let magnitude = 0.1 + 0.9 * rng.unit();
                    let sign = if rng.next() & 1 == 0 { 1.0 } else { -1.0 };
                    (a, sign * magnitude)
                })
                .collect();
            let f = LinearFunction::from_names(schema, &weights).expect("schema attributes");
            (q, ServeOrder::Scored(f))
        })
        .collect()
}

fn run(source: &str, db: &SimulatedWebDb, table: &Table, shapes: &[(&[&str], &[Filter])]) {
    let idx = ReconIndex::ephemeral();
    let options = JobOptions {
        max_queries: usize::MAX,
        ..JobOptions::default()
    };
    let job = idx.run_job(db, &options, 0).expect("no concurrent job");
    assert_eq!(job.state, "complete", "the crawl must reach full coverage");
    let norm = Normalizer::from_domains(db.schema());
    let mut rng = Rng(0x5EED_0DD5);
    for &(function, filters) in shapes {
        for filter in filters {
            let specs = session_specs(table, function, filter, &mut rng);
            let serve = |q: &SearchQuery, order: &ServeOrder| {
                idx.serve(q, order, &norm, || 0)
                    .expect("full coverage")
                    .take(TUPLES)
                    .map(|t| t.id)
                    .collect::<Vec<_>>()
            };
            for (q, order) in specs.iter().take(3) {
                serve(q, order);
            }
            let mut answer = DefaultHasher::new();
            let mut us: Vec<f64> = specs
                .iter()
                .map(|(q, order)| {
                    let start = Instant::now();
                    let ids = serve(q, order);
                    let elapsed = start.elapsed().as_secs_f64() * 1e6;
                    ids.hash(&mut answer);
                    elapsed
                })
                .collect();
            us.sort_by(f64::total_cmp);
            let mean = us.iter().sum::<f64>() / us.len() as f64;
            println!(
                "{source:<9} {:<20} {:<15} {mean:>8.1} {:>8.1} {:>8.1}  {:016x}",
                function.join(","),
                filter.label,
                us[us.len() / 2],
                us[us.len() * 9 / 10],
                answer.finish()
            );
        }
    }
}

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .map_or(100_000, |s| s.parse().expect("usage: recon_md [rows]"));
    println!(
        "{:<9} {:<20} {:<15} {:>8} {:>8} {:>8}  answer",
        "source", "function", "filter", "mean_us", "p50_us", "p90_us"
    );

    let diamonds = DiamondsConfig {
        n: rows,
        system_k: 2000,
        ..DiamondsConfig::default()
    };
    let filters = [
        ranges("none", &[]),
        ranges("carat", &["carat"]),
        ranges("depth", &["depth"]),
        ranges("table+lw_ratio", &["table", "lw_ratio"]),
        Filter {
            label: "shape",
            ranges: &[],
            cats: Some(("shape", 0)),
        },
    ];
    run(
        "bluenile",
        &bluenile_db(&diamonds),
        &bluenile_table(&diamonds),
        &[
            (&["price", "carat"], &filters),
            (&["carat", "depth", "table"], &filters[..3]),
        ],
    );

    let homes = HomesConfig {
        n: rows,
        system_k: 2000,
        ..HomesConfig::default()
    };
    let filters = [
        ranges("none", &[]),
        ranges("beds+year", &["beds", "year"]),
        ranges("baths+lot", &["baths", "lot"]),
        ranges("price", &["price"]),
        Filter {
            label: "home_type",
            ranges: &[],
            cats: Some(("home_type", 0)),
        },
    ];
    run(
        "zillow",
        &zillow_db(&homes),
        &zillow_table(&homes),
        &[
            (&["price", "sqft"], &filters),
            (&["price", "sqft", "year"], &filters),
        ],
    );
}
