//! The `queryd` HTTP service: routes, caching, metrics, and engine
//! lifecycle (load-fold-or-build on open, atomic swap on reload).
//!
//! Reloads are **incremental**: a generation change is absorbed by
//! scanning only the manifest delta and folding it into the live index
//! ([`fold_from_base`]), which is byte-identical to a full rebuild;
//! `query.index.full_rebuilds` counts the (expected-never) fallbacks.
//! `/api/live` streams newly folded sandwiches behind an opaque cursor,
//! with a bounded long-poll that waits for the next fold.
//!
//! Consistency model: a handler snapshots the engine `Arc` exactly once
//! per request, so every response is computed against a single manifest
//! generation even while a reload swaps the engine mid-flight — there are
//! no torn reads by construction. The generation that answered is echoed
//! in the `x-query-generation` response header.
//!
//! Degraded mode: the service keeps serving through partial failure
//! instead of dying. Index builds skip unreadable segments (coverage is
//! reported on `/api/summary`), a failed reload keeps the last good
//! engine serving (stale-while-revalidate; `/readyz` flips to 503 until
//! a reload succeeds), and bounded-in-flight admission control sheds
//! excess API load with `503` + `Retry-After` rather than queueing
//! without bound. `/healthz` answers as long as the process serves.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use sandwich_net::{Method, Request, Response, Router};
use sandwich_obs::{names, Registry};
use sandwich_store::{BundleStore, Manifest};

use crate::cache::{CacheOutcome, ResponseCache};
use crate::engine::{error_response, Engine, QueryRequest};
use crate::index::{
    build_index, fold_delta, generation_of, load_index, load_index_any, save_index, IndexReject,
    QueryConfig, QueryIndex, INDEX_FILE,
};

/// How often a long-poll re-checks the engine for rows past its cursor.
const LONG_POLL_TICK: Duration = Duration::from_millis(12);

/// Tunables for one service instance.
#[derive(Clone, Debug)]
pub struct QueryServiceConfig {
    /// Directory of the sealed bundle store (and the persisted index).
    pub store_dir: PathBuf,
    /// Index-build semantics (detector, threshold, clock, threads).
    pub query: QueryConfig,
    /// Response-cache shards.
    pub cache_shards: usize,
    /// Entries per cache shard.
    pub cache_per_shard: usize,
    /// Bound on concurrently-admitted API requests; excess load is shed
    /// with `503` + `Retry-After`. Zero admits nothing (useful in tests);
    /// `/healthz`, `/readyz`, and `/metrics` are always exempt.
    pub max_in_flight: usize,
}

impl QueryServiceConfig {
    /// Paper-default semantics over `store_dir` with a small cache.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        QueryServiceConfig {
            store_dir: store_dir.into(),
            query: QueryConfig::default(),
            cache_shards: 8,
            cache_per_shard: 128,
            max_in_flight: 256,
        }
    }
}

struct ServiceInner {
    config: QueryServiceConfig,
    engine: RwLock<Arc<Engine>>,
    cache: ResponseCache,
    registry: Registry,
    /// API requests currently admitted (admission control).
    in_flight: AtomicUsize,
    /// Whether the most recent reload attempt succeeded. Starts true (an
    /// open that fails never constructs a service at all).
    last_reload_ok: AtomicBool,
}

/// Decrements the in-flight gauge when an admitted request finishes,
/// however it finishes.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The query service: open once, serve many, reload on demand.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

/// Rebuild the whole index from segments, persist it, and record timing.
fn rebuild_all(
    store: &BundleStore,
    config: &QueryConfig,
    registry: &Registry,
) -> std::io::Result<QueryIndex> {
    let started = Instant::now();
    let index = build_index(store, config)?;
    registry
        .histogram(names::QUERY_INDEX_BUILD_SECONDS)
        .observe(started.elapsed().as_secs_f64());
    registry.counter(names::QUERY_INDEX_REBUILDS).inc();
    save_index(store.dir(), &index)?;
    Ok(index)
}

/// Try to absorb a generation change by folding only the manifest delta
/// into `base` (an index built for an earlier generation of the same
/// store). Returns `Ok(None)` when the delta is not foldable — a covered
/// segment left the serving or quarantine list, or the base itself is
/// incomplete — and the caller must rebuild from scratch.
///
/// The fold scans only the *new* segments, merges their un-finalized part
/// with the base's through the same associative merge the full build
/// uses, and finalizes once, so the result is byte-identical to a
/// from-scratch rebuild (the invariant `tests/live_fold_props.rs` pins).
fn fold_from_base(
    store: &BundleStore,
    base: QueryIndex,
    generation: &str,
    config: &QueryConfig,
    registry: &Registry,
) -> std::io::Result<Option<QueryIndex>> {
    // A base that skipped segments (degraded build) or predates per-file
    // coverage tracking cannot prove what it already scanned: folding
    // would bake the gap in forever, so rebuild instead.
    if base.coverage.segments_failed > 0
        || base.segment_files.len() as u64 != base.coverage.segments_total
    {
        return Ok(None);
    }
    // An attribution-stale base — built under a different (or no)
    // validator spec than the manifest now carries — cannot be folded:
    // its refs lack or mis-assign leaders, and the fold would bake that
    // in forever. Rebuild from segments under the current spec instead.
    if base.validator_spec != store.manifest().validators {
        registry.counter(names::ATTRIB_SPEC_MISMATCH_REBUILDS).inc();
        return Ok(None);
    }
    let Some(delta) = store
        .manifest()
        .delta_from(&base.segment_files, &base.quarantined_files)
    else {
        return Ok(None);
    };
    let started = Instant::now();
    let folded = fold_delta(store, base, &delta, generation, config)?;
    registry.counter(names::QUERY_INDEX_FOLDS).inc();
    registry
        .counter(names::QUERY_INDEX_FOLD_SEGMENTS)
        .add(delta.len() as u64);
    registry
        .histogram(names::QUERY_INDEX_FOLD_SECONDS)
        .observe(started.elapsed().as_secs_f64());
    Ok(Some(folded))
}

/// Bring the index to `generation` and persist it: fold the manifest
/// delta into `base` when there is one and it is foldable, rebuild from
/// segments (counted as a full rebuild) otherwise.
fn fold_or_rebuild(
    store: &BundleStore,
    base: Option<QueryIndex>,
    generation: &str,
    config: &QueryConfig,
    registry: &Registry,
) -> std::io::Result<QueryIndex> {
    let folded = match base {
        Some(base) => fold_from_base(store, base, generation, config, registry)?,
        None => None,
    };
    match folded {
        Some(folded) => {
            save_index(store.dir(), &folded)?;
            Ok(folded)
        }
        None => {
            registry.counter(names::QUERY_INDEX_FULL_REBUILDS).inc();
            rebuild_all(store, config, registry)
        }
    }
}

/// Record coverage for an index that is about to go live: segments the
/// build had to skip, one schedule build when a validator spec was in
/// play, plus how many sealed sandwiches joined to a slot leader and how
/// many fell back to the unattributed decode path.
fn record_index_metrics(index: &QueryIndex, registry: &Registry) {
    if index.coverage.segments_failed > 0 {
        registry
            .counter(names::QUERY_INDEX_SEGMENTS_FAILED)
            .add(index.coverage.segments_failed);
    }
    if index.validator_spec.is_some() {
        registry.counter(names::ATTRIB_SCHEDULE_BUILDS).inc();
    }
    let joined = index.refs.iter().filter(|r| r.leader.is_some()).count() as u64;
    let unattributed = index.refs.len() as u64 - joined;
    if joined > 0 {
        registry.counter(names::ATTRIB_JOINS).add(joined);
    }
    if unattributed > 0 {
        registry
            .counter(names::ATTRIB_UNATTRIBUTED)
            .add(unattributed);
    }
}

/// Load the persisted index when it verifies, fold forward when it is
/// merely stale, rebuild from segments only when neither works, and
/// record which happened.
fn load_or_build(
    store: &BundleStore,
    config: &QueryConfig,
    registry: &Registry,
) -> std::io::Result<Engine> {
    let generation = generation_of(store.manifest());
    let index = match load_index(store.dir(), &generation) {
        Ok(index) => {
            registry.counter(names::QUERY_INDEX_LOADS).inc();
            index
        }
        Err(IndexReject::StaleGeneration { .. }) => {
            // The frame is intact, just older: fold the manifest delta
            // into it instead of rescanning the world.
            let base = load_index_any(store.dir(), INDEX_FILE).ok();
            fold_or_rebuild(store, base, &generation, config, registry)?
        }
        Err(reject) => {
            if reject != IndexReject::Missing {
                registry.counter(names::QUERY_INDEX_REJECTED).inc();
            }
            rebuild_all(store, config, registry)?
        }
    };
    record_index_metrics(&index, registry);
    Ok(Engine::new(Arc::new(index)))
}

impl QueryService {
    /// Open the store, load or build the index, and make the service
    /// ready to serve. Metrics land in `registry`.
    pub fn open(config: QueryServiceConfig, registry: Registry) -> std::io::Result<QueryService> {
        let store = BundleStore::open(&config.store_dir)?;
        let engine = load_or_build(&store, &config.query, &registry)?;
        let cache = ResponseCache::new(config.cache_shards, config.cache_per_shard);
        Ok(QueryService {
            inner: Arc::new(ServiceInner {
                config,
                engine: RwLock::new(Arc::new(engine)),
                cache,
                registry,
                in_flight: AtomicUsize::new(0),
                last_reload_ok: AtomicBool::new(true),
            }),
        })
    }

    /// The generation currently being served.
    pub fn generation(&self) -> String {
        self.inner.engine.read().generation().to_string()
    }

    /// The metrics registry this service records into.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The engine snapshot currently serving (for harnesses that compare
    /// live responses against uncached evaluation).
    pub fn engine_snapshot(&self) -> Arc<Engine> {
        self.inner.engine.read().clone()
    }

    /// Re-check the manifest; when its generation changed, load-or-build
    /// the new index and swap it in atomically. Returns `true` when a new
    /// generation went live. In-flight requests keep the engine snapshot
    /// they already took.
    ///
    /// Stale-while-revalidate: a failed reload leaves the last good
    /// engine serving and flips `/readyz` to 503 until a later reload
    /// succeeds. The error is still returned for the caller to log.
    pub fn reload(&self) -> std::io::Result<bool> {
        let result = self.reload_inner();
        self.inner
            .last_reload_ok
            .store(result.is_ok(), Ordering::Release);
        result
    }

    fn reload_inner(&self) -> std::io::Result<bool> {
        let manifest = Manifest::load(&self.inner.config.store_dir)?;
        let generation = generation_of(&manifest);
        // Same generation (including a no-op manifest touch): nothing to
        // do, and crucially the response cache — whose keys are
        // generation-prefixed — keeps every warm entry.
        if *self.inner.engine.read().generation() == generation {
            return Ok(false);
        }
        let store = BundleStore::open(&self.inner.config.store_dir)?;
        let generation = generation_of(store.manifest());
        let registry = &self.inner.registry;
        let config = &self.inner.config.query;
        // Fold forward from the index already in memory — the common
        // seal-only case scans just the new segments. Anything else
        // (compaction, quarantine of a covered segment) falls back to a
        // full rebuild.
        let base = self.inner.engine.read().index().clone();
        let index = fold_or_rebuild(&store, Some(base), &generation, config, registry)?;
        record_index_metrics(&index, registry);
        *self.inner.engine.write() = Arc::new(Engine::new(Arc::new(index)));
        registry.counter(names::QUERY_RELOADS).inc();
        Ok(true)
    }

    /// Try to admit one API request under the in-flight bound.
    fn admit(&self) -> Option<InFlightGuard<'_>> {
        let inner = &self.inner;
        let prev = inner.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= inner.config.max_in_flight {
            inner.in_flight.fetch_sub(1, Ordering::Release);
            inner.registry.counter(names::QUERY_SHED).inc();
            None
        } else {
            Some(InFlightGuard(&inner.in_flight))
        }
    }

    /// `GET /healthz`: liveness. 200 as long as the process can answer at
    /// all — never gated on admission control or reload state.
    fn health_response(&self) -> Response {
        let body = format!(
            "{{\"status\":\"ok\",\"generation\":\"{}\"}}",
            self.generation()
        );
        Response::new(200, body.into_bytes()).header("content-type", "application/json")
    }

    /// `GET /readyz`: readiness. 503 while the last reload attempt
    /// failed (the service keeps serving its stale generation meanwhile);
    /// also reports whether the served index covers the whole store.
    fn ready_response(&self) -> Response {
        let ok = self.inner.last_reload_ok.load(Ordering::Acquire);
        let engine = self.engine_snapshot();
        let body = format!(
            "{{\"ready\":{ok},\"complete\":{},\"generation\":\"{}\"}}",
            engine.index().coverage.complete(),
            engine.generation()
        );
        let response = Response::new(if ok { 200 } else { 503 }, body.into_bytes())
            .header("content-type", "application/json");
        if ok {
            response
        } else {
            response.header("retry-after", "3")
        }
    }

    async fn handle(&self, endpoint: &'static str, request: Request) -> Response {
        let inner = &self.inner;
        inner.registry.counter(names::QUERY_REQUESTS).inc();
        match endpoint {
            "validators" => inner
                .registry
                .counter(names::QUERY_VALIDATORS_REQUESTS)
                .inc(),
            "validator" => inner
                .registry
                .counter(names::QUERY_VALIDATOR_DETAIL_REQUESTS)
                .inc(),
            _ => {}
        }
        let timer = Instant::now();

        // Admission control: bound concurrent API work, shed the rest
        // with an explicit retry hint instead of queueing without bound.
        let Some(_guard) = self.admit() else {
            let shed = error_response(503, "server at capacity, retry shortly");
            return Response::new(shed.status, shed.body)
                .header("content-type", &shed.content_type)
                .header("retry-after", "1");
        };

        let parsed = QueryRequest::parse(endpoint, &request);

        // Live long-poll: before taking the answering snapshot, wait
        // (bounded by the request's `wait_ms`) for a reload to fold in
        // rows past the caller's cursor. The wait itself holds no lock —
        // each tick re-reads the freshest engine.
        if let Ok(QueryRequest::Live {
            after_slot,
            after_id,
            wait_ms,
            ..
        }) = &parsed
        {
            inner.registry.counter(names::QUERY_LIVE_REQUESTS).inc();
            if *wait_ms > 0 {
                inner.registry.counter(names::QUERY_LIVE_LONG_POLLS).inc();
                let waited = Instant::now();
                let deadline = Duration::from_millis(*wait_ms);
                while inner.engine.read().live_rows_after(*after_slot, after_id) == 0
                    && waited.elapsed() < deadline
                {
                    tokio::time::sleep(LONG_POLL_TICK).await;
                }
                inner
                    .registry
                    .histogram(names::QUERY_LIVE_WAIT_SECONDS)
                    .observe(waited.elapsed().as_secs_f64());
            }
        }

        // One engine snapshot per request: everything below answers from
        // this generation, reloads notwithstanding.
        let engine: Arc<Engine> = inner.engine.read().clone();

        if let Ok(QueryRequest::Live {
            after_slot,
            after_id,
            limit,
            ..
        }) = &parsed
        {
            let rows = engine.live_rows_after(*after_slot, after_id).min(*limit);
            if rows > 0 {
                inner
                    .registry
                    .counter(names::QUERY_LIVE_ROWS)
                    .add(rows as u64);
            }
        }

        let response = match parsed {
            Err(message) => {
                // Invalid parameters never reach the cache.
                let cached = error_response(400, message);
                (Arc::new(cached), CacheOutcome::Miss, 0)
            }
            Ok(query) => {
                let key = format!("{}|{}", engine.generation(), query.canonical_key());
                let evaluate = {
                    let engine = engine.clone();
                    move || engine.evaluate(&query)
                };
                inner.cache.get_or_compute(&key, evaluate).await
            }
        };
        let (cached, outcome, evicted) = response;
        match outcome {
            CacheOutcome::Hit => inner.registry.counter(names::QUERY_CACHE_HITS).inc(),
            CacheOutcome::Miss => inner.registry.counter(names::QUERY_CACHE_MISSES).inc(),
            CacheOutcome::Deduped => {
                inner
                    .registry
                    .counter(names::QUERY_CACHE_SINGLE_FLIGHT_WAITS)
                    .inc();
                inner.registry.counter(names::QUERY_CACHE_HITS).inc();
            }
        }
        if evicted > 0 {
            inner
                .registry
                .counter(names::QUERY_CACHE_EVICTIONS)
                .add(evicted);
        }
        inner
            .registry
            .histogram(&format!("{}{endpoint}", names::QUERY_SECONDS_PREFIX))
            .observe(timer.elapsed().as_secs_f64());

        Response::new(cached.status, cached.body.clone())
            .header("content-type", &cached.content_type)
            .header("x-query-generation", engine.generation())
    }

    /// The API router (plus `GET /metrics` from the shared registry).
    pub fn router(&self) -> Router {
        let endpoints: [(&'static str, &'static str); 9] = [
            ("summary", "/api/summary"),
            ("days", "/api/days"),
            ("attackers", "/api/attackers"),
            ("attacker", "/api/attacker/{pubkey}"),
            ("pool", "/api/pool/{mint}"),
            ("sandwiches", "/api/sandwiches"),
            ("live", "/api/live"),
            ("validators", "/api/validators"),
            ("validator", "/api/validator/{pubkey}"),
        ];
        let mut router = Router::new();
        for (endpoint, path) in endpoints {
            let service = self.clone();
            router = router.route(Method::Get, path, move |request: Request| {
                let service = service.clone();
                async move { service.handle(endpoint, request).await }
            });
        }
        let service = self.clone();
        router = router.route(Method::Get, "/healthz", move |_request: Request| {
            let service = service.clone();
            async move { service.health_response() }
        });
        let service = self.clone();
        router = router.route(Method::Get, "/readyz", move |_request: Request| {
            let service = service.clone();
            async move { service.ready_response() }
        });
        router.with_metrics(self.inner.registry.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_net::{HttpClient, Server};
    use sandwich_store::{CollectedBundle, StoreWriter};
    use sandwich_types::{Hash, Keypair, Lamports, Slot};

    fn bundle(seed: u64, slot: u64, tip: u64) -> CollectedBundle {
        let kp = Keypair::from_label("qsvc");
        CollectedBundle {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot: Slot(slot),
            timestamp_ms: slot * 400,
            tip: Lamports(tip),
            tx_ids: vec![kp.sign(&seed.to_le_bytes())],
        }
    }

    fn seed_store(tag: &str, segments: u64) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swqsvc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = StoreWriter::create(&dir).unwrap();
        for seg in 0..segments {
            let bundles: Vec<_> = (0..10)
                .map(|i| bundle(seg * 100 + i, seg * 50 + i, 30_000))
                .collect();
            w.seal_segment(bundles, Vec::new(), Vec::new()).unwrap();
        }
        dir
    }

    fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        tokio::runtime::Builder::new_multi_thread()
            .enable_all()
            .build()
            .unwrap()
            .block_on(fut)
    }

    #[test]
    fn open_builds_then_reopen_loads() {
        let dir = seed_store("reopen", 2);

        let r1 = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), r1.clone()).unwrap();
        let generation = service.generation();
        let snap = r1.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_REBUILDS), Some(1));
        assert_eq!(snap.counter(names::QUERY_INDEX_LOADS), None);

        // Second open against an unchanged manifest: pure load, no rebuild.
        let r2 = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), r2.clone()).unwrap();
        assert_eq!(service.generation(), generation);
        let snap = r2.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_REBUILDS), None);
        assert_eq!(snap.counter(names::QUERY_INDEX_LOADS), Some(1));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_index_is_rejected_and_rebuilt() {
        let dir = seed_store("corrupt", 1);
        QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();

        let path = dir.join(crate::index::INDEX_FILE);
        let mut image = std::fs::read(&path).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x01;
        std::fs::write(&path, &image).unwrap();

        let registry = Registry::new();
        QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_REJECTED), Some(1));
        assert_eq!(snap.counter(names::QUERY_INDEX_REBUILDS), Some(1));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_is_noop_without_manifest_change() {
        let dir = seed_store("noop", 1);
        let registry = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        assert!(!service.reload().unwrap());
        assert_eq!(registry.snapshot().counter(names::QUERY_RELOADS), None);

        // Seal another segment: the reload goes live and says so.
        let sealed = Manifest::load(&dir).unwrap().segments;
        let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
        w.seal_segment(vec![bundle(999, 500, 30_000)], Vec::new(), Vec::new())
            .unwrap();
        assert!(service.reload().unwrap());
        assert_eq!(registry.snapshot().counter(names::QUERY_RELOADS), Some(1));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_folds_the_delta_instead_of_rebuilding() {
        let dir = seed_store("fold", 2);
        // A validator spec in the manifest makes the fold recompute the
        // leaderboard too (the expensive half of a finalize).
        let sealed = Manifest::load(&dir).unwrap().segments;
        let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
        w.set_validators(sandwich_attrib::ValidatorSpec::new(7, 6))
            .unwrap();
        let registry = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        assert_eq!(
            registry.snapshot().counter(names::QUERY_INDEX_REBUILDS),
            Some(1),
            "cold open builds once"
        );

        // Seal two more segments and reload: the new generation must be
        // absorbed by folding exactly the delta, not rebuilding.
        let sealed = Manifest::load(&dir).unwrap().segments;
        let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
        for seg in 2..4u64 {
            let bundles: Vec<_> = (0..10)
                .map(|i| bundle(seg * 100 + i, seg * 50 + i, 30_000))
                .collect();
            w.seal_segment(bundles, Vec::new(), Vec::new()).unwrap();
        }
        assert!(service.reload().unwrap());
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLDS), Some(1));
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLD_SEGMENTS), Some(2));
        assert_eq!(
            snap.counter(names::QUERY_INDEX_REBUILDS),
            Some(1),
            "still just the cold build"
        );
        assert_eq!(snap.counter(names::QUERY_INDEX_FULL_REBUILDS), None);

        // The folded index is byte-identical to a from-scratch build.
        let store = BundleStore::open(&dir).unwrap();
        let full = build_index(&store, &QueryServiceConfig::new(&dir).query).unwrap();
        let folded = service.engine_snapshot().index().clone();
        assert_eq!(
            serde_json::to_string(&folded).unwrap(),
            serde_json::to_string(&full).unwrap()
        );
        // ...and so is the frame the reload persisted.
        let persisted = std::fs::read(dir.join(INDEX_FILE)).unwrap();
        save_index(&dir, &full).unwrap();
        assert_eq!(persisted, std::fs::read(dir.join(INDEX_FILE)).unwrap());

        // The fold was persisted: a cold reopen is a pure load.
        let r2 = Registry::new();
        let reopened = QueryService::open(QueryServiceConfig::new(&dir), r2.clone()).unwrap();
        assert_eq!(reopened.generation(), service.generation());
        assert_eq!(r2.snapshot().counter(names::QUERY_INDEX_LOADS), Some(1));
        assert_eq!(r2.snapshot().counter(names::QUERY_INDEX_REBUILDS), None);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_seal_folds_the_stale_persisted_index_forward() {
        let dir = seed_store("stalefold", 2);
        QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();

        // Seal while no service is running: the persisted index is now
        // one generation stale. A fresh open folds it forward.
        let sealed = Manifest::load(&dir).unwrap().segments;
        let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
        w.seal_segment(vec![bundle(999, 500, 30_000)], Vec::new(), Vec::new())
            .unwrap();

        let registry = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLDS), Some(1));
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLD_SEGMENTS), Some(1));
        assert_eq!(
            snap.counter(names::QUERY_INDEX_REBUILDS),
            None,
            "no rescan of old segments"
        );
        assert_eq!(snap.counter(names::QUERY_INDEX_FULL_REBUILDS), None);

        let store = BundleStore::open(&dir).unwrap();
        let full = build_index(&store, &QueryServiceConfig::new(&dir).query).unwrap();
        assert_eq!(
            serde_json::to_string(service.engine_snapshot().index()).unwrap(),
            serde_json::to_string(&full).unwrap()
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn noop_manifest_touch_keeps_the_response_cache_warm() {
        block_on(async {
            let dir = seed_store("touch", 1);
            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            let first = client.get("/api/summary").await.unwrap();
            let warm = client.get("/api/summary").await.unwrap();
            assert_eq!(first.body, warm.body);
            assert_eq!(
                registry.snapshot().counter(names::QUERY_CACHE_HITS),
                Some(1)
            );

            // Rewrite the manifest byte-for-byte (a no-op touch): the
            // generation is unchanged, so the reload must not swap the
            // engine, and every warm cache entry must stay warm.
            let manifest_path = dir.join(sandwich_store::MANIFEST_FILE);
            let bytes = std::fs::read(&manifest_path).unwrap();
            std::fs::write(&manifest_path, &bytes).unwrap();
            assert!(!service.reload().unwrap());

            let still_warm = client.get("/api/summary").await.unwrap();
            assert_eq!(first.body, still_warm.body);
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::QUERY_CACHE_HITS), Some(2));
            assert_eq!(snap.counter(names::QUERY_CACHE_MISSES), Some(1));
            assert_eq!(snap.counter(names::QUERY_RELOADS), None);

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn live_long_poll_answers_when_a_reload_folds_rows_in() {
        block_on(async {
            let dir = seed_store("livepoll", 1);
            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            // Page-poll from the origin: 200 with an opaque cursor, no rows
            // (the seeded bundles are not sandwiches).
            let page = client.get("/api/live?limit=10").await.unwrap();
            assert_eq!(page.status, 200);
            let text = String::from_utf8_lossy(&page.body).to_string();
            assert!(text.contains("\"cursor\":\"v1."), "{text}");
            assert!(text.contains("\"total_after\":0"), "{text}");

            // Long-poll with a short bound: returns (empty) after the
            // wait rather than hanging.
            let waited = client.get("/api/live?wait_ms=60").await.unwrap();
            assert_eq!(waited.status, 200);
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::QUERY_LIVE_LONG_POLLS), Some(1));
            assert!(snap.counter(names::QUERY_LIVE_REQUESTS) >= Some(2));

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn endpoints_serve_over_a_socket_with_cache_and_generation_header() {
        block_on(async {
            let dir = seed_store("socket", 2);
            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let generation = service.generation();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            let first = client.get("/api/summary").await.unwrap();
            assert_eq!(first.status, 200);
            assert_eq!(
                first.header_value("x-query-generation"),
                Some(generation.as_str()),
                "generation header on every response"
            );
            let second = client.get("/api/summary").await.unwrap();
            assert_eq!(first.body, second.body, "cache returns identical bytes");
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::QUERY_CACHE_MISSES), Some(1));
            assert_eq!(snap.counter(names::QUERY_CACHE_HITS), Some(1));

            // Malformed parameters: 400, never cached, never fatal.
            let bad = client.get("/api/attackers?limit=banana").await.unwrap();
            assert_eq!(bad.status, 400);
            let still_up = client.get("/api/days").await.unwrap();
            assert_eq!(still_up.status, 200);

            // Unknown attacker via a path parameter: 404 JSON.
            let missing = client
                .get("/api/attacker/1111111111111111111111111111111111111111111")
                .await
                .unwrap();
            assert!(missing.status == 404 || missing.status == 400);

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn admission_control_sheds_with_retry_after_but_health_stays_up() {
        block_on(async {
            let dir = seed_store("admit", 1);
            let registry = Registry::new();
            let mut config = QueryServiceConfig::new(&dir);
            config.max_in_flight = 0; // admit nothing: every API call sheds
            let service = QueryService::open(config, registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            let shed = client.get("/api/summary").await.unwrap();
            assert_eq!(shed.status, 503);
            assert_eq!(shed.header_value("retry-after"), Some("1"));
            assert!(String::from_utf8_lossy(&shed.body).contains("capacity"));
            assert_eq!(registry.snapshot().counter(names::QUERY_SHED), Some(1));

            // Liveness and readiness are exempt from admission control.
            let health = client.get("/healthz").await.unwrap();
            assert_eq!(health.status, 200);
            let ready = client.get("/readyz").await.unwrap();
            assert_eq!(ready.status, 200);
            assert!(String::from_utf8_lossy(&ready.body).contains("\"ready\":true"));

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn quarantined_segment_degrades_coverage_but_keeps_serving() {
        block_on(async {
            let dir = seed_store("quarantine", 3);

            // Corrupt one segment body and let the doctor quarantine it.
            let victim = Manifest::load(&dir).unwrap().segments[0].file.clone();
            let path = dir.join(&victim);
            let mut image = std::fs::read(&path).unwrap();
            image[12] ^= 0x40; // inside the body: unrecoverable by design
            std::fs::write(&path, &image).unwrap();
            let report = sandwich_store::doctor::repair(&dir).unwrap();
            assert_eq!(report.quarantined, 1, "doctor quarantined the victim");

            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            let summary = client.get("/api/summary").await.unwrap();
            assert_eq!(summary.status, 200, "queryd serves over a damaged store");
            let text = String::from_utf8_lossy(&summary.body).to_string();
            assert!(text.contains("\"segments_quarantined\":1"), "{text}");
            assert!(text.contains("\"bundles_quarantined\":10"), "{text}");
            assert!(text.contains("\"complete\":false"), "{text}");
            assert!(
                text.contains("\"bundles\":20"),
                "two clean segments: {text}"
            );

            let health = client.get("/healthz").await.unwrap();
            assert_eq!(health.status, 200);
            let ready = client.get("/readyz").await.unwrap();
            assert_eq!(ready.status, 200);
            assert!(String::from_utf8_lossy(&ready.body).contains("\"complete\":false"));

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn spec_change_rebuilds_instead_of_folding_and_serves_validators() {
        block_on(async {
            let dir = seed_store("specswap", 2);
            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            // No validator spec yet: the leaderboard answers, empty.
            let none = client.get("/api/validators").await.unwrap();
            assert_eq!(none.status, 200);
            assert!(String::from_utf8_lossy(&none.body).contains("\"total\":0"));

            // Attach a spec: the generation changes, and the in-memory
            // base (built without attribution) must NOT fold forward —
            // the reload rebuilds from segments under the new spec.
            let sealed = Manifest::load(&dir).unwrap().segments;
            let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
            w.set_validators(sandwich_attrib::ValidatorSpec::new(7, 6))
                .unwrap();
            assert!(service.reload().unwrap());
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::ATTRIB_SPEC_MISMATCH_REBUILDS), Some(1));
            assert_eq!(snap.counter(names::QUERY_INDEX_FULL_REBUILDS), Some(1));
            assert_eq!(snap.counter(names::ATTRIB_SCHEDULE_BUILDS), Some(1));

            // Every spec validator gets a row even with zero sandwiches.
            let page = client.get("/api/validators?limit=10").await.unwrap();
            assert_eq!(page.status, 200);
            let text = String::from_utf8_lossy(&page.body).to_string();
            assert!(text.contains("\"total\":6"), "{text}");
            assert!(text.contains("\"blocks_led\""), "{text}");
            assert!(text.contains("\"stake_pools\""), "{text}");
            assert_eq!(
                registry
                    .snapshot()
                    .counter(names::QUERY_VALIDATORS_REQUESTS),
                Some(2)
            );

            // Unknown validator: 404 JSON, just like unknown attackers.
            let missing = client
                .get("/api/validator/1111111111111111111111111111111111111111111")
                .await
                .unwrap();
            assert!(missing.status == 404 || missing.status == 400);
            assert_eq!(
                registry
                    .snapshot()
                    .counter(names::QUERY_VALIDATOR_DETAIL_REQUESTS),
                Some(1)
            );

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn failed_reload_keeps_serving_stale_and_flips_readyz() {
        block_on(async {
            let dir = seed_store("stale", 1);
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            // Break the store out from under the daemon, then reload.
            let manifest_path = dir.join(sandwich_store::MANIFEST_FILE);
            let manifest_bytes = std::fs::read(&manifest_path).unwrap();
            std::fs::remove_file(&manifest_path).unwrap();
            assert!(service.reload().is_err());

            // Stale-while-revalidate: the old generation keeps answering.
            let summary = client.get("/api/summary").await.unwrap();
            assert_eq!(summary.status, 200);
            let ready = client.get("/readyz").await.unwrap();
            assert_eq!(ready.status, 503);
            assert_eq!(ready.header_value("retry-after"), Some("3"));
            let health = client.get("/healthz").await.unwrap();
            assert_eq!(health.status, 200, "liveness is not readiness");

            // Restore the manifest: the next reload clears readiness.
            std::fs::write(&manifest_path, &manifest_bytes).unwrap();
            assert!(!service.reload().unwrap(), "same generation: no swap");
            let ready = client.get("/readyz").await.unwrap();
            assert_eq!(ready.status, 200);

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }
}
