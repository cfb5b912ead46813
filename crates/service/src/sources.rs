//! Registered web databases ("data sources" in the UI).

use std::sync::Arc;

use qr2_cache::{AnswerCache, CacheConfig, CachedInterface};
use qr2_core::{DenseIndex, ExecutorKind, Reranker};
use qr2_datagen::{bluenile_db, zillow_db, DiamondsConfig, HomesConfig};
use qr2_http::Json;
use qr2_recon::ReconIndex;
use qr2_sched::{SchedConfig, SourceScheduler};
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

/// One reranking-enabled web database, built with [`Source::builder`].
///
/// Every session's query traffic funnels through the source's decorator
/// stack `recon feed → cache → scheduler → resilient → fault injection →
/// traffic shaping → raw db`: repeated questions from any number of
/// users cost the web database one query, concurrent identical questions
/// coalesce onto a single in-flight request, and cache misses are paced
/// against the source's [`SourcePolicy`] by the per-source
/// [`SourceScheduler`] (which also coalesces *overlapping* probes across
/// sessions).
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
    /// The shared cross-session answer cache (stats endpoint; flushed
    /// through [`Source::flush`]).
    pub cache: Arc<AnswerCache>,
    /// The per-source scheduler every cache miss is routed through
    /// (admission control, fair share, pacing, frontier coalescing).
    pub sched: Arc<SourceScheduler>,
    /// The source's offline rank reconstruction: covered filter regions
    /// are served with zero web-DB queries (see `qr2-recon`).
    pub recon: Arc<ReconIndex>,
    /// The full decorator stack (`recon feed → cache → scheduler →
    /// resilient → fault injection → traffic shaping → raw db`): what the
    /// reranker probes through, and what the reconstruction driver's
    /// background crawl probes through — recon jobs pay the same pacing
    /// and enjoy the same cache as everyone else.
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

/// Builder for a [`Source`], from [`Source::builder`].
///
/// Every setter is optional. The defaults are an unlimited
/// [`SourcePolicy`], default scheduler and resilience config (no fault
/// script), a default-sized volatile answer cache, an ephemeral
/// reconstruction index, no popular functions, and the reranker's
/// default executor.
pub struct SourceBuilder {
    name: String,
    title: String,
    db: Arc<dyn TopKInterface>,
    policy: SourcePolicy,
    sched_cfg: SchedConfig,
    resilience: ResilienceConfig,
    executor: Option<ExecutorKind>,
    popular: Vec<(String, Vec<(String, f64)>)>,
    cache: Option<Arc<AnswerCache>>,
    recon: Option<Arc<ReconIndex>>,
    /// The reranker's dense index; set only by [`Source::with_scheduler`]
    /// and removed with it.
    dense: Option<Arc<DenseIndex>>,
}

impl SourceBuilder {
    /// The traffic policy the scheduler paces probes against (absorbing
    /// its simulated 429s).
    #[must_use]
    pub fn policy(mut self, policy: SourcePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The per-source scheduler's config (fair share, pacing, frontier
    /// coalescing, outage parking).
    #[must_use]
    pub fn sched_config(mut self, cfg: SchedConfig) -> Self {
        self.sched_cfg = cfg;
        self
    }

    /// Retry policy, circuit breaker, degraded-serving policy, and an
    /// optional deterministic [`FaultScript`] (tests and chaos benches
    /// inject outages here).
    #[must_use]
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// The reranker's executor.
    #[must_use]
    pub fn executor(mut self, kind: ExecutorKind) -> Self {
        self.executor = Some(kind);
        self
    }

    /// Suggested "popular functions" (label → `(attr, weight)` list).
    #[must_use]
    pub fn popular(mut self, popular: Vec<(String, Vec<(String, f64)>)>) -> Self {
        self.popular = popular;
        self
    }

    /// An explicit answer cache: per-source capacity config, or a
    /// persistent cache warm-started from an [`qr2_store::AnswerStore`].
    #[must_use]
    pub fn cache(mut self, cache: Arc<AnswerCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// An explicit reconstruction index (persistent via
    /// [`qr2_store::RankIndex`], or pre-crawled).
    #[must_use]
    pub fn recon(mut self, recon: Arc<ReconIndex>) -> Self {
        self.recon = Some(recon);
        self
    }

    /// Assemble the source's decorator stack, outermost first: `recon
    /// feed → cache → scheduler → resilient → fault injection → traffic
    /// shaping → raw db`, with a reranker over the top.
    pub fn build(self) -> Source {
        let SourceBuilder {
            name,
            title,
            db,
            policy,
            sched_cfg,
            resilience,
            executor,
            popular,
            cache,
            recon,
            dense,
        } = self;
        let cache = cache.unwrap_or_else(|| Arc::new(AnswerCache::new(CacheConfig::default())));
        let recon = recon.unwrap_or_else(|| Arc::new(ReconIndex::ephemeral()));
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
        let sched = Arc::new(SourceScheduler::new(resilient, sched_cfg, &name));
        // Cache outermost, straight over the scheduler: warm lookups must
        // not queue behind it, and a throttled source never delays a
        // cached answer.
        let cached: Arc<dyn TopKInterface> =
            Arc::new(CachedInterface::new(sched.clone(), Arc::clone(&cache)));
        // Feed layer over the cache: even free (cached) answers can
        // retire reconstruction frontier regions.
        let probe: Arc<dyn TopKInterface> = Arc::new(ReconFeedInterface {
            inner: cached,
            recon: Arc::clone(&recon),
            cache: Arc::clone(&cache),
        });
        let mut reranker = Reranker::builder(Arc::clone(&probe));
        if let Some(kind) = executor {
            reranker = reranker.executor(kind);
        }
        if let Some(dense) = dense {
            reranker = reranker.dense_index(dense);
        }
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
            title,
            reranker: Arc::new(reranker.build()),
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
}

impl Source {
    /// Start building a source named `name` (its key in URLs and metric
    /// labels) over the raw web database `db`.
    pub fn builder(
        name: impl Into<String>,
        title: impl Into<String>,
        db: Arc<dyn TopKInterface>,
    ) -> SourceBuilder {
        SourceBuilder {
            name: name.into(),
            title: title.into(),
            db,
            policy: SourcePolicy::unlimited(),
            sched_cfg: SchedConfig::default(),
            resilience: ResilienceConfig::default(),
            executor: None,
            popular: Vec::new(),
            cache: None,
            recon: None,
            dense: None,
        }
    }

    /// Positional form of [`Source::builder`] with a policy, scheduler
    /// config, executor, dense index, popular functions, cache and recon
    /// index. Kept only for `sessionbench/src/run.rs`; deleted by the
    /// change after the one that moves that caller to the builder
    /// (ROADMAP item 7a).
    #[expect(
        clippy::too_many_arguments,
        reason = "the session benchmark's positional call; goes with this wrapper"
    )]
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
        SourceBuilder {
            dense: Some(dense),
            ..Source::builder(name, title, db)
        }
        .policy(policy)
        .sched_config(sched_cfg)
        .executor(executor)
        .popular(popular)
        .cache(cache)
        .recon(recon)
        .build()
    }

    /// Forget what the source has learned from its web database: flush
    /// the answer cache, which advances its epoch and so stales the
    /// reconstruction, then clear the reranker's dense regions. The
    /// regions are cleared even when the durable store write fails, and
    /// after the epoch advances, so a crawl that read a pre-flush answer
    /// is never remembered. Returns the new epoch.
    pub fn flush(&self) -> qr2_store::Result<u64> {
        let flushed = self.cache.flush();
        self.reranker.dense_index().clear();
        flushed
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
        reg.register(
            Source::builder("bluenile", "Blue Nile (diamonds, simulated)", bluenile)
                .executor(executor)
                .popular(vec![
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
                ])
                .cache(cache_for("bluenile")?)
                .recon(recon_for("bluenile")?)
                .build(),
        );
        let zillow: Arc<dyn TopKInterface> = Arc::new(zillow_db(&HomesConfig {
            n: homes,
            ..HomesConfig::default()
        }));
        reg.register(
            Source::builder("zillow", "Zillow (real estate, simulated)", zillow)
                .executor(executor)
                .popular(vec![
                    (
                        "Small & affordable (price + sqft)".to_string(),
                        vec![("price".to_string(), 1.0), ("sqft".to_string(), 1.0)],
                    ),
                    (
                        "Space for money (price − 0.3·sqft)".to_string(),
                        vec![("price".to_string(), 1.0), ("sqft".to_string(), -0.3)],
                    ),
                ])
                .cache(cache_for("zillow")?)
                .recon(recon_for("zillow")?)
                .build(),
        );
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
        one.next_page(5).unwrap();
        let ledger_after_first = s.db.ledger().total();
        assert!(ledger_after_first > 0);
        let mut two = s.reranker.query(req);
        two.next_page(5).unwrap();
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
            session.next_page(3).unwrap();
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
        reg.register(Source::builder("zillow", "again", s.db.clone()).build());
    }
}
