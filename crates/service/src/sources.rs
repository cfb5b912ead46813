//! Registered web databases ("data sources" in the UI).

use std::sync::Arc;

use qr2_cache::{AnswerCache, CacheConfig, CachedInterface};
use qr2_core::{DenseIndex, ExecutorKind, Reranker};
use qr2_datagen::{bluenile_db, zillow_db, DiamondsConfig, HomesConfig};
use qr2_http::Json;
use qr2_recon::ReconIndex;
use qr2_sched::{SchedConfig, ScheduledInterface, SourceScheduler};
use qr2_webdb::{
    page_or_empty, Answer, BreakerConfig, FaultInjectingInterface, FaultScript, QueryLedger,
    ResilientInterface, RetryPolicy, Schema, SearchError, SearchQuery, SourcePolicy, TopKInterface,
    TopKResponse, TrafficShapedInterface,
};

/// Operator policy for what a source may serve while its circuit breaker
/// is open (see `docs/RESILIENCE.md`).
#[derive(Debug, Clone, Copy)]
pub struct DegradedPolicy {
    /// Allow a reconstruction built at an older staleness epoch to serve
    /// covered queries while the source is down. The response is flagged
    /// `degraded: true`; a fresh-epoch reconstruction serves without the
    /// flag regardless of this setting.
    pub allow_stale_recon: bool,
}

impl Default for DegradedPolicy {
    fn default() -> DegradedPolicy {
        DegradedPolicy {
            allow_stale_recon: true,
        }
    }
}

/// Resilience wiring for one source: an optional deterministic fault
/// script (tests, chaos benches), the retry policy and circuit breaker
/// in front of it, and the operator's degraded-serving policy.
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Deterministic fault injection between the resilience layer and the
    /// traffic shaper; `None` leaves the source fault-free.
    pub script: Option<FaultScript>,
    /// Retry budget and backoff shape per probe.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// What may be served while the breaker is open.
    pub degraded: DegradedPolicy,
}

/// One reranking-enabled web database.
///
/// Every session's query traffic funnels through the source's decorator
/// stack `cache → scheduler → traffic shaping → raw db`: repeated
/// questions from any number of users cost the web database one query,
/// concurrent identical questions coalesce onto a single in-flight
/// request, and cache misses are paced against the source's
/// [`SourcePolicy`] by the per-source [`SourceScheduler`] (which also
/// coalesces *overlapping* probes across sessions).
pub struct Source {
    /// Source key (`"bluenile"`, `"zillow"`).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// The reranker bound to the source (owns the shared dense index);
    /// built over the cached interface, so every engine benefits.
    pub reranker: Arc<Reranker>,
    /// Raw interface handle. Boot verification and freshness checks use
    /// this — checks served from the cache would always look fresh.
    pub db: Arc<dyn TopKInterface>,
    /// The shared cross-session answer cache (stats / flush endpoints,
    /// boot invalidation).
    pub cache: Arc<AnswerCache>,
    /// The per-source scheduler every cache miss is routed through
    /// (admission control, fair share, pacing, frontier coalescing).
    pub sched: Arc<SourceScheduler>,
    /// The source's offline rank reconstruction: covered filter regions
    /// are served with zero web-DB queries (see `qr2-recon`).
    pub recon: Arc<ReconIndex>,
    /// The full decorator stack (`recon feed → cache → scheduler →
    /// traffic shaping → raw db`): what the reranker probes through, and
    /// what the reconstruction driver's background crawl probes through —
    /// recon jobs pay the same pacing and enjoy the same cache as
    /// everyone else.
    pub probe: Arc<dyn TopKInterface>,
    /// Suggested "popular functions" shown in the ranking section
    /// (paper §II-C): label → `(attr, weight)` list.
    pub popular: Vec<(String, Vec<(String, f64)>)>,
    /// What this source may serve while its circuit breaker is open.
    pub degraded_policy: DegradedPolicy,
    /// Pre-resolved `qr2_service_sessions_created_total{served_by=live}`
    /// counter: session creation is on the request hot path and must not
    /// pay the registry lock and label formatting per request.
    pub(crate) obs_created_live: Arc<qr2_obs::Counter>,
    /// Same, for `served_by=recon`.
    pub(crate) obs_created_recon: Arc<qr2_obs::Counter>,
}

/// Decorator that opportunistically feeds every observed answer into the
/// source's reconstruction: a complete (non-overflowing) response that
/// covers still-pending frontier regions retires them for free, growing
/// recon coverage as a side effect of normal serving. Only answers are
/// fed; a failed probe proves nothing.
struct ReconFeedInterface {
    inner: Arc<dyn TopKInterface>,
    recon: Arc<ReconIndex>,
    cache: Arc<AnswerCache>,
}

impl TopKInterface for ReconFeedInterface {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn system_k(&self) -> usize {
        self.inner.system_k()
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        page_or_empty(self.probe(q))
    }

    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }

    fn probe(&self, q: &SearchQuery) -> Result<Answer, SearchError> {
        let answer = self.inner.probe(q)?;
        self.recon
            .feed_observed(q, &answer.resp, self.cache.epoch());
        Ok(answer)
    }
}

impl Source {
    /// Build a source with a fresh reranker over `db` and a default-sized
    /// volatile answer cache.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        db: Arc<dyn TopKInterface>,
        executor: ExecutorKind,
        dense: Arc<DenseIndex>,
        popular: Vec<(String, Vec<(String, f64)>)>,
    ) -> Self {
        Self::with_cache(
            name,
            title,
            db,
            executor,
            dense,
            popular,
            Arc::new(AnswerCache::new(CacheConfig::default())),
            Arc::new(ReconIndex::ephemeral()),
        )
    }

    /// Build a source over an explicit answer cache — per-source capacity
    /// config, or a persistent cache warm-started from an
    /// [`qr2_store::AnswerStore`] — and an explicit reconstruction index
    /// (persistent via [`qr2_store::RankIndex`], or ephemeral). The
    /// source's traffic policy defaults to unlimited (the scheduler
    /// passes probes straight through).
    #[allow(clippy::too_many_arguments)]
    pub fn with_cache(
        name: impl Into<String>,
        title: impl Into<String>,
        db: Arc<dyn TopKInterface>,
        executor: ExecutorKind,
        dense: Arc<DenseIndex>,
        popular: Vec<(String, Vec<(String, f64)>)>,
        cache: Arc<AnswerCache>,
        recon: Arc<ReconIndex>,
    ) -> Self {
        Self::with_scheduler(
            name,
            title,
            db,
            SourcePolicy::unlimited(),
            SchedConfig::default(),
            executor,
            dense,
            popular,
            cache,
            recon,
        )
    }

    /// Build a source with an explicit traffic policy and scheduler
    /// config. Every cache miss is routed through the per-source
    /// scheduler, which paces probes against `policy` (absorbing its
    /// simulated 429s), apportions fair share across sessions, and
    /// coalesces overlapping probes into one covering query.
    #[allow(clippy::too_many_arguments)]
    pub fn with_scheduler(
        name: impl Into<String>,
        title: impl Into<String>,
        db: Arc<dyn TopKInterface>,
        policy: SourcePolicy,
        sched_cfg: SchedConfig,
        executor: ExecutorKind,
        dense: Arc<DenseIndex>,
        popular: Vec<(String, Vec<(String, f64)>)>,
        cache: Arc<AnswerCache>,
        recon: Arc<ReconIndex>,
    ) -> Self {
        Self::with_resilience(
            name,
            title,
            db,
            policy,
            sched_cfg,
            ResilienceConfig::default(),
            executor,
            dense,
            popular,
            cache,
            recon,
        )
    }

    /// Build a source with explicit resilience wiring on top of
    /// [`Source::with_scheduler`]'s stack: the scheduler dispatches
    /// through `resilience.retry`/`resilience.breaker`, optionally over a
    /// deterministic [`FaultScript`] (tests and chaos benches inject
    /// outages here), making the full stack `recon feed → cache →
    /// scheduler → resilient → fault injection → traffic shaping → raw
    /// db`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_resilience(
        name: impl Into<String>,
        title: impl Into<String>,
        db: Arc<dyn TopKInterface>,
        policy: SourcePolicy,
        sched_cfg: SchedConfig,
        resilience: ResilienceConfig,
        executor: ExecutorKind,
        dense: Arc<DenseIndex>,
        popular: Vec<(String, Vec<(String, f64)>)>,
        cache: Arc<AnswerCache>,
        recon: Arc<ReconIndex>,
    ) -> Self {
        let name = name.into();
        // Name the shaping and scheduling layers so their qr2-obs metrics
        // (throttles, search latency, queue delays) carry a `source` label.
        let shaped = Arc::new(TrafficShapedInterface::named(db.clone(), policy, &name));
        let faulty: Arc<dyn TopKInterface> = match resilience.script {
            Some(script) => Arc::new(FaultInjectingInterface::new(shaped.clone(), script)),
            None => shaped.clone(),
        };
        let resilient = Arc::new(ResilientInterface::new(
            Arc::clone(&shaped),
            faulty,
            resilience.retry,
            resilience.breaker,
            &name,
        ));
        let sched = Arc::new(SourceScheduler::with_resilience(
            resilient, sched_cfg, &name,
        ));
        let scheduled: Arc<dyn TopKInterface> =
            Arc::new(ScheduledInterface::new(Arc::clone(&sched)));
        // Cache outermost: warm lookups must not queue behind the
        // scheduler, and a throttled source never delays a cached answer.
        let cached: Arc<dyn TopKInterface> =
            Arc::new(CachedInterface::new(scheduled, Arc::clone(&cache)));
        // Feed layer over the cache: even free (cached) answers can
        // retire reconstruction frontier regions.
        let probe: Arc<dyn TopKInterface> = Arc::new(ReconFeedInterface {
            inner: cached,
            recon: Arc::clone(&recon),
            cache: Arc::clone(&cache),
        });
        let reranker = Arc::new(
            Reranker::builder(Arc::clone(&probe))
                .executor(executor)
                .dense_index(dense)
                .build(),
        );
        let obs_created_live = qr2_obs::counter(
            "qr2_service_sessions_created_total",
            &[("served_by", "live"), ("source", &name)],
        );
        let obs_created_recon = qr2_obs::counter(
            "qr2_service_sessions_created_total",
            &[("served_by", "recon"), ("source", &name)],
        );
        Source {
            name,
            title: title.into(),
            reranker,
            db,
            cache,
            sched,
            recon,
            probe,
            popular,
            degraded_policy: resilience.degraded,
            obs_created_live,
            obs_created_recon,
        }
    }

    /// The source's schema.
    pub fn schema(&self) -> &Schema {
        self.db.schema()
    }

    /// JSON description for the source-list endpoints (delegates to the
    /// [`crate::dto::SourceDescriptor`] DTO).
    pub fn describe(&self) -> Json {
        use qr2_http::IntoJson;
        crate::dto::SourceDescriptor::new(self).to_json()
    }
}

/// The set of sources a service instance exposes.
#[derive(Default)]
pub struct SourceRegistry {
    sources: Vec<Arc<Source>>,
}

impl SourceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        SourceRegistry {
            sources: Vec::new(),
        }
    }

    /// Add a source.
    pub fn register(&mut self, source: Source) {
        assert!(
            self.get(&source.name).is_none(),
            "duplicate source '{}'",
            source.name
        );
        self.sources.push(Arc::new(source));
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Source>> {
        self.sources.iter().find(|s| s.name == name).cloned()
    }

    /// All sources.
    pub fn all(&self) -> &[Arc<Source>] {
        &self.sources
    }

    /// The demo registry of the paper: simulated Blue Nile and Zillow at
    /// the given inventory scale, with volatile answer caches.
    pub fn demo(diamonds: usize, homes: usize, executor: ExecutorKind) -> Self {
        Self::demo_with_cache_dir(diamonds, homes, executor, None)
            // qr2-allow: panic-path Err only comes from persistent-store IO, and cache_dir is None here
            .expect("volatile demo registry cannot fail")
    }

    /// The demo registry with **persistent** answer caches and
    /// reconstruction indexes: each source's cache is warm-started from
    /// (and written through to) an `AnswerStore` log under `cache_dir`,
    /// and its rank reconstruction from a `RankIndex` log next to it, so
    /// repeated queries stay free — and reconstructed coverage keeps
    /// serving — across service restarts. Pass `None` for volatile state.
    pub fn demo_with_cache_dir(
        diamonds: usize,
        homes: usize,
        executor: ExecutorKind,
        cache_dir: Option<&std::path::Path>,
    ) -> qr2_store::Result<Self> {
        let cache_for = |name: &str| -> qr2_store::Result<Arc<AnswerCache>> {
            Ok(Arc::new(match cache_dir {
                Some(dir) => AnswerCache::with_store(
                    CacheConfig::default(),
                    qr2_store::AnswerStore::open(dir.join(format!("{name}-answers.log")))?,
                ),
                None => AnswerCache::new(CacheConfig::default()),
            }))
        };
        let recon_for = |name: &str| -> qr2_store::Result<Arc<ReconIndex>> {
            Ok(Arc::new(match cache_dir {
                Some(dir) => ReconIndex::open(dir.join(format!("{name}-recon.log")))?,
                None => ReconIndex::ephemeral(),
            }))
        };
        let mut reg = SourceRegistry::new();
        let bluenile: Arc<dyn TopKInterface> = Arc::new(bluenile_db(&DiamondsConfig {
            n: diamonds,
            ..DiamondsConfig::default()
        }));
        reg.register(Source::with_cache(
            "bluenile",
            "Blue Nile (diamonds, simulated)",
            bluenile,
            executor,
            Arc::new(DenseIndex::in_memory()),
            vec![
                (
                    "Best value (price − 0.1·carat − 0.5·depth)".to_string(),
                    vec![
                        ("price".to_string(), 1.0),
                        ("carat".to_string(), -0.1),
                        ("depth".to_string(), -0.5),
                    ],
                ),
                (
                    "Big & cheap (price − 0.5·carat)".to_string(),
                    vec![("price".to_string(), 1.0), ("carat".to_string(), -0.5)],
                ),
            ],
            cache_for("bluenile")?,
            recon_for("bluenile")?,
        ));
        let zillow: Arc<dyn TopKInterface> = Arc::new(zillow_db(&HomesConfig {
            n: homes,
            ..HomesConfig::default()
        }));
        reg.register(Source::with_cache(
            "zillow",
            "Zillow (real estate, simulated)",
            zillow,
            executor,
            Arc::new(DenseIndex::in_memory()),
            vec![
                (
                    "Small & affordable (price + sqft)".to_string(),
                    vec![("price".to_string(), 1.0), ("sqft".to_string(), 1.0)],
                ),
                (
                    "Space for money (price − 0.3·sqft)".to_string(),
                    vec![("price".to_string(), 1.0), ("sqft".to_string(), -0.3)],
                ),
            ],
            cache_for("zillow")?,
            recon_for("zillow")?,
        ));
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> SourceRegistry {
        SourceRegistry::demo(500, 500, ExecutorKind::Sequential)
    }

    #[test]
    fn demo_registry_has_both_sources() {
        let reg = registry();
        assert_eq!(reg.all().len(), 2);
        assert!(reg.get("bluenile").is_some());
        assert!(reg.get("zillow").is_some());
        assert!(reg.get("amazon").is_none());
    }

    #[test]
    fn describe_includes_schema_and_popular() {
        let reg = registry();
        let d = reg.get("bluenile").unwrap().describe();
        assert_eq!(d.get("name").unwrap().as_str(), Some("bluenile"));
        let attrs = d.get("attributes").unwrap().as_arr().unwrap();
        assert!(attrs
            .iter()
            .any(|a| a.get("name").unwrap().as_str() == Some("carat")));
        let pop = d.get("popular_functions").unwrap().as_arr().unwrap();
        assert_eq!(pop.len(), 2);
        assert!(d.get("system_k").unwrap().as_usize().unwrap() > 0);
    }

    #[test]
    fn sources_share_one_cache_across_sessions() {
        let reg = registry();
        let s = reg.get("bluenile").unwrap();
        assert_eq!(s.cache.stats().misses, 0);
        // Two sessions over the same reranker share the answer cache.
        let price = s.schema().expect_id("price");
        let req = qr2_core::RerankRequest {
            filter: qr2_webdb::SearchQuery::all(),
            function: qr2_core::OneDimFunction::desc(price).into(),
            algorithm: qr2_core::Algorithm::OneDBinary,
        };
        let mut one = s.reranker.query(req.clone());
        one.next_page(5);
        let ledger_after_first = s.db.ledger().total();
        assert!(ledger_after_first > 0);
        let mut two = s.reranker.query(req);
        two.next_page(5);
        assert_eq!(
            s.db.ledger().total(),
            ledger_after_first,
            "the second session is fully served by the shared cache"
        );
    }

    #[test]
    fn demo_registry_persists_answer_caches() {
        let dir = std::env::temp_dir().join(format!(
            "qr2-sources-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        {
            let reg =
                SourceRegistry::demo_with_cache_dir(300, 300, ExecutorKind::Sequential, Some(&dir))
                    .unwrap();
            let s = reg.get("bluenile").unwrap();
            assert!(s.cache.stats().persistent);
            s.db.search(&qr2_webdb::SearchQuery::all());
            // Populate through the cached interface so it persists.
            let price = s.schema().expect_id("price");
            let mut session = s.reranker.query(qr2_core::RerankRequest {
                filter: qr2_webdb::SearchQuery::all(),
                function: qr2_core::OneDimFunction::desc(price).into(),
                algorithm: qr2_core::Algorithm::OneDBinary,
            });
            session.next_page(3);
        }
        // "Restart": a fresh registry over the same dir warm-starts.
        let reg =
            SourceRegistry::demo_with_cache_dir(300, 300, ExecutorKind::Sequential, Some(&dir))
                .unwrap();
        let s = reg.get("bluenile").unwrap();
        assert!(
            s.cache.stats().entries > 0,
            "answers survive the restart via the AnswerStore"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "duplicate source")]
    fn duplicate_names_rejected() {
        let mut reg = registry();
        let again = SourceRegistry::demo(100, 100, ExecutorKind::Sequential);
        let s = again.get("zillow").unwrap();
        reg.register(Source::new(
            "zillow",
            "again",
            s.db.clone(),
            ExecutorKind::Sequential,
            Arc::new(DenseIndex::in_memory()),
            vec![],
        ));
    }
}
