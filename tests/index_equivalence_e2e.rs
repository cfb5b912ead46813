//! Suite-level equivalence of the indexed execution engine: every
//! algorithm family, run end-to-end over a scan-forced database and over
//! the automatic (index + cost-model fallback) database, must serve the
//! identical tuple stream at the identical query cost with identical
//! query ledgers. The engines never see which execution mode is active —
//! any divergence here is a simulator bug, not an algorithm bug.

use std::sync::{Arc, Mutex};

use qr2::core::{
    Algorithm, ExecutorKind, LinearFunction, OneDimFunction, RankingFunction, RerankRequest,
    Reranker,
};
use qr2::datagen::{bluenile_db, DiamondsConfig};
use qr2::webdb::{
    ExecMode, QueryLedger, Schema, SearchQuery, SimulatedWebDb, TopKInterface, TopKResponse,
};

const DEPTH: usize = 10;

/// The simulator with every query it answered, and the answer, in order.
struct Recorded {
    db: SimulatedWebDb,
    log: Mutex<Vec<(SearchQuery, TopKResponse)>>,
}

impl TopKInterface for Recorded {
    fn schema(&self) -> &Schema {
        self.db.schema()
    }
    fn system_k(&self) -> usize {
        self.db.system_k()
    }
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        let resp = self.db.search(q);
        self.log.lock().unwrap().push((q.clone(), resp.clone()));
        resp
    }
    fn ledger(&self) -> &QueryLedger {
        self.db.ledger()
    }
}

fn diamonds(mode: ExecMode) -> Arc<Recorded> {
    Arc::new(Recorded {
        db: bluenile_db(&DiamondsConfig {
            n: 1500,
            seed: 0xB10E_9115,
            lw_tie_fraction: 0.20,
            system_k: 30,
        })
        .with_exec_mode(mode),
        log: Mutex::new(Vec::new()),
    })
}

fn all_algorithms(db: &Recorded) -> Vec<(Algorithm, RankingFunction)> {
    let schema = db.schema();
    let price = schema.expect_id("price");
    let md: RankingFunction =
        LinearFunction::from_names(schema, &[("price", 1.0), ("carat", -0.5)])
            .expect("valid md function")
            .into();
    vec![
        (Algorithm::OneDBaseline, OneDimFunction::desc(price).into()),
        (Algorithm::OneDBinary, OneDimFunction::desc(price).into()),
        (Algorithm::OneDRerank, OneDimFunction::desc(price).into()),
        (Algorithm::MdBaseline, md.clone()),
        (Algorithm::MdBinary, md.clone()),
        (Algorithm::MdRerank, md.clone()),
        (Algorithm::MdTa, md),
    ]
}

/// Serve `DEPTH` tuples with `algorithm`; returns (tuple ids+values page,
/// session query cost).
fn run(
    db: &Arc<Recorded>,
    algorithm: Algorithm,
    function: RankingFunction,
) -> (Vec<qr2::webdb::Tuple>, usize) {
    let reranker = Reranker::builder(db.clone())
        .executor(ExecutorKind::Sequential)
        .build();
    let mut session = reranker.query(RerankRequest {
        filter: SearchQuery::all(),
        function,
        algorithm,
    });
    let page = session.next_page(DEPTH).expect("the simulator never fails");
    (page, session.stats().total_queries())
}

#[test]
fn every_algorithm_is_mode_invariant_with_identical_ledgers() {
    let scan_db = diamonds(ExecMode::ScanOnly);
    let auto_db = diamonds(ExecMode::Auto);
    for (algorithm, function) in all_algorithms(&scan_db) {
        let scan_before = scan_db.ledger().total();
        let auto_before = auto_db.ledger().total();
        let (scan_page, scan_cost) = run(&scan_db, algorithm, function.clone());
        let (auto_page, auto_cost) = run(&auto_db, algorithm, function);
        assert_eq!(
            scan_page,
            auto_page,
            "{}: served stream differs between scan and indexed execution",
            algorithm.paper_name()
        );
        assert_eq!(
            scan_cost,
            auto_cost,
            "{}: query cost differs between execution modes",
            algorithm.paper_name()
        );
        assert_eq!(
            scan_db.ledger().total() - scan_before,
            auto_db.ledger().total() - auto_before,
            "{}: ledger totals diverged",
            algorithm.paper_name()
        );
    }
    // The same queries in the same order, each with the same answer.
    let scan_log = scan_db.log.lock().unwrap();
    let auto_log = auto_db.log.lock().unwrap();
    assert_eq!(scan_log.len(), auto_log.len());
    for ((sq, s), (aq, a)) in scan_log.iter().zip(auto_log.iter()) {
        assert_eq!(sq, aq, "query streams diverged");
        assert_eq!(s, a, "answers diverged for {sq}");
    }
    // And the automatic engine actually used its index along the way.
    assert!(
        auto_db.ledger().exec_breakdown().indexed > 0,
        "auto mode never exercised the indexed path"
    );
}
