//! Smoke scenario `BENCH_pr4.json`: the shared answer cache under a
//! cold-vs-warm two-pass workload through one `CachedInterface`.
//!
//! Each algorithm runs the fixed-seed diamonds workload twice against the
//! same cached interface, with a **fresh reranker (fresh dense index) per
//! pass** so the only state shared between passes is the answer cache.
//! The cold pass pays real queries; the runner checks the contract that
//! the warm pass costs the web database **zero** queries
//! (`warm_db_queries`), and its per-get-next latency shows the cache-hot
//! hot path.
//!
//! Both passes report **two** counters, each from one consistent source:
//! `*_lookups` is the number of cache lookups the pass performed (hits +
//! misses + coalesced, from the cache's own counters) and `*_db_queries`
//! is what the web database really saw (the raw ledger). The two passes
//! run the identical workload, so the runner checks the contract
//! `cold_lookups == warm_lookups`. `cold_db_queries` can be *smaller*
//! than `cold_lookups`: algorithms that re-ask the same question within
//! one run (MD-BASELINE's re-crawled probes) are deduplicated by the
//! cache even on the cold pass.

use std::sync::Arc;
use std::time::Instant;

use qr2_cache::{AnswerCache, CacheConfig, CachedInterface};
use qr2_core::{DenseIndex, ExecutorKind, RerankRequest, Reranker};
use qr2_http::Json;
use qr2_webdb::{SearchQuery, TopKInterface};

use crate::report::{round, Contract, Report};
use crate::smoke::{family, SMOKE_DEPTH};
use crate::workloads::{bluenile, Scale};

/// Run the cold-vs-warm two-pass workload for every algorithm.
pub fn run_cache_smoke() -> Report {
    let raw = bluenile(Scale::Small);
    let (mut counts, mut timings, mut contracts) = (Vec::new(), Vec::new(), Vec::new());
    for (algorithm, function) in crate::smoke::smoke_cases(raw.schema()) {
        // One cache per algorithm: per-record hit counts stay exact.
        let cache = Arc::new(AnswerCache::new(CacheConfig {
            shards: 8,
            capacity: 1 << 16,
        }));
        let cached: Arc<dyn TopKInterface> =
            Arc::new(CachedInterface::new(raw.clone(), Arc::clone(&cache)));
        // (lookups, db_queries, hits, per-get-next µs), each counter
        // from one consistent source across both passes.
        let pass = |label: &str| -> (u64, u64, u64, f64) {
            let ledger_before = raw.ledger().total();
            let stats_before = cache.stats();
            let lookups_before = stats_before.hits + stats_before.misses + stats_before.coalesced;
            let reranker = Reranker::builder(Arc::clone(&cached))
                .executor(ExecutorKind::Sequential)
                .dense_index(Arc::new(DenseIndex::in_memory()))
                .build();
            let mut session = reranker.query(RerankRequest {
                filter: SearchQuery::all(),
                function: function.clone(),
                algorithm,
            });
            let start = Instant::now();
            let tuples = session
                .next_page(SMOKE_DEPTH)
                .expect("the simulator never fails")
                .len();
            let wall = start.elapsed();
            assert_eq!(tuples, SMOKE_DEPTH, "{label}: short page");
            let stats_after = cache.stats();
            (
                stats_after.hits + stats_after.misses + stats_after.coalesced - lookups_before,
                raw.ledger().total() - ledger_before,
                stats_after.hits - stats_before.hits,
                wall.as_secs_f64() * 1e6 / tuples as f64,
            )
        };
        let (cold_lookups, cold_db_queries, _, cold_get_next_us) = pass("cold");
        // The warm pass is replayed three times against the now-stable
        // cache: counters must be identical replay to replay (the
        // workload is deterministic), and the reported latency is the
        // fastest replay — the cold pass can't be replayed, but warm
        // timing would otherwise be dominated by scheduler noise.
        let (warm_lookups, warm_db_queries, warm_hits, mut warm_get_next_us) = pass("warm");
        for _ in 0..2 {
            let (lookups, db_queries, hits, us) = pass("warm-replay");
            assert_eq!(
                (lookups, db_queries, hits),
                (warm_lookups, warm_db_queries, warm_hits),
                "warm replays must be identical"
            );
            warm_get_next_us = warm_get_next_us.min(us);
        }
        let name = algorithm.paper_name();
        contracts.push(Contract::new(
            format!("warm_pass_free/{name}"),
            warm_db_queries == 0,
            format!(
                "{name}: warm pass cost the web database {warm_db_queries} queries; \
                     repeated queries must be free"
            ),
        ));
        contracts.push(Contract::new(
            format!("lookups_agree/{name}"),
            cold_lookups == warm_lookups,
            format!(
                "{name}: cold pass performed {cold_lookups} lookups but warm performed \
                     {warm_lookups}; the accounting diverged"
            ),
        ));
        let hit_rate = if warm_lookups == 0 {
            0.0
        } else {
            warm_hits as f64 / warm_lookups as f64
        };
        counts.push(Json::obj([
            ("algorithm", name.into()),
            ("family", family(algorithm).into()),
            ("tuples", SMOKE_DEPTH.into()),
            ("cold_lookups", Json::Num(cold_lookups as f64)),
            ("cold_db_queries", Json::Num(cold_db_queries as f64)),
            ("warm_lookups", Json::Num(warm_lookups as f64)),
            ("warm_db_queries", Json::Num(warm_db_queries as f64)),
            ("warm_hits", Json::Num(warm_hits as f64)),
            ("warm_hit_rate", round(hit_rate, 3).into()),
        ]));
        timings.push(Json::obj([
            ("algorithm", name.into()),
            ("cold_get_next_us", round(cold_get_next_us, 1).into()),
            ("warm_get_next_us", round(warm_get_next_us, 1).into()),
        ]));
    }
    Report {
        bench: "pr4_cache_smoke".into(),
        workload: "bluenile_diamonds_small_seed_0xB10E9115_cold_vs_warm".into(),
        deterministic: Json::obj([("depth", SMOKE_DEPTH.into()), ("algorithms", counts.into())]),
        measured: Json::obj([("algorithms", timings.into())]),
        contracts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::num;

    #[test]
    fn warm_pass_is_free_for_every_algorithm() {
        let report = run_cache_smoke();
        let records = report.records("algorithms");
        assert_eq!(records.len(), 7);
        for r in &records {
            assert!(num(r, "cold_db_queries") > 0.0, "{r}");
            assert_eq!(
                num(r, "warm_db_queries"),
                0.0,
                "{r}: warm pass must cost the web database nothing"
            );
            assert_eq!(num(r, "warm_hit_rate"), 1.0, "{r}");
            // The same workload measured by the same counter source must
            // agree across passes — this is the accounting the old
            // cold-from-ledger / warm-from-hits split got wrong.
            assert_eq!(
                num(r, "cold_lookups"),
                num(r, "warm_lookups"),
                "{r}: identical workload, identical lookup count"
            );
            assert_eq!(num(r, "warm_hits"), num(r, "warm_lookups"), "{r}");
            // Real web-DB spend never exceeds the lookups that caused it.
            assert!(
                num(r, "cold_db_queries") <= num(r, "cold_lookups"),
                "{r}: ledger cannot exceed lookups"
            );
        }
        assert!(
            report.contracts.iter().all(|c| c.passed),
            "{:?}",
            report.contracts
        );
    }
}
