//! The simulated web database: ground-truth table + hidden ranking behind a
//! top-k interface.

use std::sync::OnceLock;
use std::time::Duration;

use crate::index::TableIndex;
use crate::interface::{TopKInterface, TopKResponse};
use crate::metrics::{ExecPath, LatencyModel, QueryLedger};
use crate::predicate::SearchQuery;
use crate::ranking::SystemRanking;
use crate::schema::Schema;
use crate::table::Table;

/// How [`SimulatedWebDb::search`] resolves queries.
///
/// `Auto` (the default) picks per query via the index's cost model;
/// the forced modes exist for equivalence tests and scan-vs-index
/// benchmarks. All modes return **identical** responses — only the
/// execution cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Cost-model choice between index and scan per query.
    #[default]
    Auto,
    /// Always resolve through the sorted-projection index.
    IndexOnly,
    /// Always walk the system-rank order (the pre-index behaviour).
    ScanOnly,
}

/// A simulated hidden web database.
///
/// Substitutes for the live Blue Nile / Zillow search pages of the paper's
/// demonstration: the observable behaviour (conjunctive filters → top-k by
/// an undisclosed ranking + overflow flag, one unit of cost and optional
/// latency per query) is identical to the abstraction the algorithms are
/// defined against (see DESIGN.md §4).
///
/// Queries execute through a per-attribute sorted-projection index with an
/// automatic scan fallback (see [`crate::index`] and [`ExecMode`]); the
/// index is built lazily on the first query that wants it, so scan-only
/// databases never pay for it.
pub struct SimulatedWebDb {
    table: Table,
    /// Row indices in system-rank order (best first).
    order: Vec<u32>,
    /// Sorted projections + rank positions, built on first use.
    index: OnceLock<TableIndex>,
    mode: ExecMode,
    system_k: usize,
    ledger: QueryLedger,
    latency: Option<LatencyModel>,
}

impl SimulatedWebDb {
    /// Build a database from a table, a hidden ranking, and a page size.
    pub fn new(table: Table, ranking: SystemRanking, system_k: usize) -> Self {
        assert!(system_k >= 1, "system-k must be >= 1");
        let order = ranking.rank_rows(&table);
        SimulatedWebDb {
            table,
            order,
            index: OnceLock::new(),
            mode: ExecMode::Auto,
            system_k,
            ledger: QueryLedger::default(),
            latency: None,
        }
    }

    /// Enable per-query latency (used by wall-clock experiments, Fig. 4).
    #[must_use]
    pub fn with_latency(mut self, base: Duration, jitter: Duration, seed: u64) -> Self {
        self.latency = Some(LatencyModel::new(base, jitter, seed));
        self
    }

    /// Force an execution mode (equivalence tests, scan-vs-index benches).
    #[must_use]
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Ground-truth table. **Oracle/test use only** — the reranking service
    /// must never touch this (it would defeat the problem statement).
    pub fn ground_truth(&self) -> &Table {
        &self.table
    }

    /// Number of tuples in the database.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    fn index(&self) -> &TableIndex {
        self.index
            .get_or_init(|| TableIndex::build(&self.table, &self.order))
    }

    /// Build the execution index now. It is otherwise built lazily on the
    /// first query that wants it — wall-clock benchmarks call this so the
    /// one-time O(attrs · n log n) build is not charged to the first
    /// measured query. No-op in [`ExecMode::ScanOnly`].
    pub fn prewarm_index(&self) {
        if self.mode != ExecMode::ScanOnly {
            let _ = self.index();
        }
    }

    /// Walk the rank order, early-exiting after `system_k` matches.
    fn scan(&self, q: &SearchQuery) -> (Vec<u32>, bool) {
        let mut rows = Vec::with_capacity(self.system_k.min(16));
        let mut overflow = false;
        for &row in &self.order {
            if self.table.row_matches(row as usize, q) {
                if rows.len() == self.system_k {
                    overflow = true;
                    break;
                }
                rows.push(row);
            }
        }
        (rows, overflow)
    }
}

impl TopKInterface for SimulatedWebDb {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn system_k(&self) -> usize {
        self.system_k
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        if let Some(lat) = &self.latency {
            std::thread::sleep(lat.sample());
        }
        if q.is_trivially_empty() {
            self.ledger.record_executed(ExecPath::Shortcut);
            return TopKResponse::empty();
        }
        // One planning pass decides the path AND resolves the driver, so
        // the indexed branch never recomputes per-predicate selectivity.
        let (rows, overflow, path) = if self.mode == ExecMode::ScanOnly {
            let (rows, overflow) = self.scan(q);
            (rows, overflow, ExecPath::Scanned)
        } else {
            let index = self.index();
            let plan = index.plan(&self.table, q, self.system_k);
            if plan.prefers_index() || self.mode == ExecMode::IndexOnly {
                let (rows, overflow) = index.execute_plan(&self.table, q, self.system_k, &plan);
                (rows, overflow, ExecPath::Indexed)
            } else {
                let (rows, overflow) = self.scan(q);
                (rows, overflow, ExecPath::Scanned)
            }
        };
        let tuples: Vec<_> = rows
            .into_iter()
            .map(|row| self.table.tuple(row as usize))
            .collect();
        self.ledger.record_executed(path);
        TopKResponse::new(tuples, overflow)
    }

    fn ledger(&self) -> &QueryLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::predicate::RangePred;
    use crate::table::TableBuilder;
    use crate::tuple::TupleId;

    fn db(system_k: usize) -> SimulatedWebDb {
        let schema = Schema::builder()
            .numeric("price", 0.0, 100.0)
            .numeric("size", 0.0, 10.0)
            .build();
        let mut tb = TableBuilder::new(schema.clone());
        // price: 10,20,...,100 ; size: 1..10
        for i in 1..=10 {
            tb.push_row(vec![10.0 * i as f64, i as f64]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("price", 1.0)]).unwrap();
        SimulatedWebDb::new(tb.build(), ranking, system_k)
    }

    #[test]
    fn returns_topk_in_system_order() {
        let db = db(3);
        let resp = db.search(&SearchQuery::all());
        assert!(resp.overflow);
        let prices: Vec<f64> = resp.tuples.iter().map(|t| t.num(0)).collect();
        assert_eq!(prices, vec![100.0, 90.0, 80.0]);
    }

    #[test]
    fn no_overflow_when_all_visible() {
        let db = db(3);
        let q = SearchQuery::all().and_range(AttrId(0), RangePred::closed(0.0, 30.0));
        let resp = db.search(&q);
        assert!(!resp.overflow);
        assert_eq!(resp.tuples.len(), 3);
    }

    #[test]
    fn exact_k_matches_is_not_overflow() {
        let db = db(3);
        let q = SearchQuery::all().and_range(AttrId(0), RangePred::closed(80.0, 100.0));
        let resp = db.search(&q);
        assert_eq!(resp.tuples.len(), 3);
        assert!(!resp.overflow, "exactly k matches must not report overflow");
    }

    #[test]
    fn underflow_on_empty_region() {
        let db = db(3);
        let q = SearchQuery::all().and_range(AttrId(0), RangePred::open(100.0, 200.0));
        let resp = db.search(&q);
        assert!(resp.is_underflow());
    }

    #[test]
    fn trivially_empty_query_skips_scan_but_costs_a_query() {
        let db = db(3);
        let a = AttrId(0);
        let q = SearchQuery::all()
            .and_range(a, RangePred::closed(0.0, 1.0))
            .and_range(a, RangePred::closed(50.0, 60.0));
        let resp = db.search(&q);
        assert!(resp.is_underflow());
        assert_eq!(db.ledger().total(), 1);
        assert_eq!(db.ledger().exec_breakdown().shortcut, 1);
    }

    #[test]
    fn ledger_counts_every_search() {
        let db = db(2);
        for _ in 0..5 {
            db.search(&SearchQuery::all());
        }
        assert_eq!(db.ledger().total(), 5);
    }

    #[test]
    fn tuple_ids_are_row_indices() {
        let db = db(1);
        let resp = db.search(&SearchQuery::all());
        assert_eq!(resp.tuples[0].id, TupleId(9)); // price=100 is row 9
    }

    #[test]
    fn all_exec_modes_agree() {
        let a = AttrId(0);
        let queries = [
            SearchQuery::all(),
            SearchQuery::all().and_range(a, RangePred::closed(0.0, 30.0)),
            SearchQuery::all().and_range(a, RangePred::half_open(30.0, 90.0)),
            SearchQuery::all().and_point(a, 50.0),
            SearchQuery::all().and_range(a, RangePred::open(100.0, 200.0)),
        ];
        let auto = db(3);
        let forced_index = db(3).with_exec_mode(ExecMode::IndexOnly);
        let forced_scan = db(3).with_exec_mode(ExecMode::ScanOnly);
        for q in &queries {
            let r = auto.search(q);
            assert_eq!(r, forced_index.search(q), "{q}");
            assert_eq!(r, forced_scan.search(q), "{q}");
        }
        assert_eq!(auto.ledger().total(), forced_scan.ledger().total());
        let b = forced_scan.ledger().exec_breakdown();
        assert_eq!(b.indexed, 0, "scan-only never touches the index");
        assert_eq!(forced_index.ledger().exec_breakdown().scanned, 0);
    }

    #[test]
    #[should_panic(expected = "system-k must be >= 1")]
    fn zero_system_k_rejected() {
        let schema = Schema::builder().numeric("x", 0.0, 1.0).build();
        let tb = TableBuilder::new(schema.clone());
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        SimulatedWebDb::new(tb.build(), ranking, 0);
    }

    #[test]
    fn latency_delays_queries() {
        let schema = Schema::builder().numeric("x", 0.0, 1.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        tb.push_row(vec![0.5]).unwrap();
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        let db = SimulatedWebDb::new(tb.build(), ranking, 1).with_latency(
            Duration::from_millis(20),
            Duration::ZERO,
            1,
        );
        let start = std::time::Instant::now();
        db.search(&SearchQuery::all());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
