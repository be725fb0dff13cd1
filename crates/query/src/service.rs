//! [`QueryService`] — the local-engine [`Backend`]: one engine over the
//! whole store behind the [`crate::serve`] skeleton, as `queryd` runs it.
//!
//! Reloads are **incremental**: a generation change is absorbed by the
//! index ladder ([`crate::ladder::bring_up`]) folding only the manifest
//! delta into the live index, which is byte-identical to a full rebuild;
//! `query.index.full_rebuilds` counts the (expected-never) fallbacks.
//! `/api/live` streams newly folded sandwiches behind an opaque cursor,
//! with a bounded long-poll that waits for the next fold. Index builds
//! skip unreadable segments (coverage is reported on `/api/summary` and
//! `/readyz`) rather than failing the open.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use sandwich_net::Router;
use sandwich_obs::{names, Registry};
use sandwich_store::BundleStore;

use crate::cache::CachedResponse;
use crate::engine::{Engine, QueryRequest};
use crate::index::QueryConfig;
use crate::ladder::{bring_up, IndexScope};
use crate::serve::{Backend, Serving};

/// How often a long-poll re-checks the engine for rows past its cursor.
const LONG_POLL_TICK: Duration = Duration::from_millis(12);

/// Tunables for one service instance.
#[derive(Clone, Debug)]
pub struct QueryServiceConfig {
    /// Directory of the sealed bundle store (and the persisted index).
    pub store_dir: PathBuf,
    /// How the index build runs (its worker count).
    pub query: QueryConfig,
    /// Bound on concurrently-admitted API requests; excess load is shed
    /// with `503` + `Retry-After`. Zero admits nothing (useful in tests);
    /// `/healthz`, `/readyz`, and `/metrics` are always exempt.
    pub max_in_flight: usize,
}

impl QueryServiceConfig {
    /// Defaults over `store_dir`.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        QueryServiceConfig {
            store_dir: store_dir.into(),
            query: QueryConfig::default(),
            max_in_flight: 256,
        }
    }
}

/// The local-engine backend: answers come from one in-process [`Engine`].
struct LocalEngine {
    config: QueryServiceConfig,
    engine: RwLock<Arc<Engine>>,
    registry: Registry,
}

impl Backend for LocalEngine {
    const PUBLIC: bool = true;
    type Snapshot = Arc<Engine>;

    fn snapshot(&self) -> Arc<Engine> {
        self.engine.read().clone()
    }

    fn generation(engine: &Arc<Engine>) -> &str {
        engine.generation()
    }

    async fn evaluate(&self, engine: &Arc<Engine>, query: &QueryRequest) -> CachedResponse {
        engine.evaluate(query)
    }

    /// Live long-poll: before taking the answering snapshot, wait
    /// (bounded by the request's `wait_ms`) for a reload to fold in rows
    /// past the caller's cursor. The wait itself holds no lock — each
    /// tick re-reads the freshest engine.
    async fn snapshot_for(&self, query: &QueryRequest) -> (Arc<Engine>, Option<CachedResponse>) {
        let QueryRequest::Live {
            after_slot,
            after_id,
            limit,
            wait_ms,
        } = query
        else {
            return (self.snapshot(), None);
        };
        let registry = &self.registry;
        registry.counter(names::QUERY_LIVE_REQUESTS).inc();
        if *wait_ms > 0 {
            registry.counter(names::QUERY_LIVE_LONG_POLLS).inc();
            let waited = Instant::now();
            let deadline = Duration::from_millis(*wait_ms);
            while self.engine.read().live_rows_after(*after_slot, after_id) == 0
                && waited.elapsed() < deadline
            {
                tokio::time::sleep(LONG_POLL_TICK).await;
            }
            registry
                .histogram(names::QUERY_LIVE_WAIT_SECONDS)
                .observe(waited.elapsed().as_secs_f64());
        }
        let engine = self.snapshot();
        let rows = engine.live_rows_after(*after_slot, after_id).min(*limit);
        if rows > 0 {
            registry.counter(names::QUERY_LIVE_ROWS).add(rows as u64);
        }
        (engine, None)
    }

    /// Also reports whether the served index covers the whole store.
    async fn ready(&self, engine: &Arc<Engine>) -> (bool, String) {
        let complete = engine.index().coverage.complete();
        (true, format!(",\"complete\":{complete}"))
    }
}

/// The query service: open once, serve many, reload on demand.
#[derive(Clone)]
pub struct QueryService {
    serving: Arc<Serving<LocalEngine>>,
}

impl QueryService {
    /// Open the store, load or build the index, and make the service
    /// ready to serve. Metrics land in `registry`.
    pub fn open(config: QueryServiceConfig, registry: Registry) -> std::io::Result<QueryService> {
        let store = BundleStore::open(&config.store_dir)?;
        let scope = IndexScope::whole(&store);
        let index = bring_up(&store, &scope, None, &config.query, &registry)?;
        let max_in_flight = config.max_in_flight;
        let backend = LocalEngine {
            config,
            engine: RwLock::new(Arc::new(Engine::new(Arc::new(index)))),
            registry: registry.clone(),
        };
        Ok(QueryService {
            serving: Serving::new(backend, max_in_flight, registry),
        })
    }

    /// The generation currently being served.
    pub fn generation(&self) -> String {
        self.engine_snapshot().generation().to_string()
    }

    /// The metrics registry this service records into.
    pub fn registry(&self) -> &Registry {
        &self.serving.registry
    }

    /// The engine snapshot currently serving (for harnesses that compare
    /// live responses against uncached evaluation).
    pub fn engine_snapshot(&self) -> Arc<Engine> {
        self.serving.backend.snapshot()
    }

    /// Re-check the manifest; when its generation changed, bring the
    /// index to it and swap the new engine in atomically. Returns `true`
    /// when a new generation went live. In-flight requests keep the
    /// engine snapshot they already took.
    ///
    /// Stale-while-revalidate: a failed reload leaves the last good
    /// engine serving and flips `/readyz` to 503 until a later reload
    /// succeeds. The error is still returned for the caller to log.
    pub fn reload(&self) -> std::io::Result<bool> {
        self.serving.track(self.reload_inner())
    }

    fn reload_inner(&self) -> std::io::Result<bool> {
        let local = &self.serving.backend;
        // One snapshot: the generation compared is the one folded to.
        let store = BundleStore::open(&local.config.store_dir)?;
        // Same generation (including a no-op manifest touch): nothing to
        // do, and crucially the response cache — whose keys are
        // generation-prefixed — keeps every warm entry.
        let live = local.snapshot();
        if live.generation() == store.generation() {
            return Ok(false);
        }
        // Fold forward from the index already in memory — the common
        // seal-only case scans just the new segments.
        let scope = IndexScope::whole(&store);
        let (config, registry) = (&local.config.query, &local.registry);
        let index = bring_up(&store, &scope, Some(live.index()), config, registry)?;
        *local.engine.write() = Arc::new(Engine::new(Arc::new(index)));
        registry.counter(names::QUERY_RELOADS).inc();
        Ok(true)
    }

    /// The API router (plus the probes and `GET /metrics`).
    pub fn router(&self) -> Router {
        self.serving.router()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{build_index, save_index, INDEX_FILE};
    use sandwich_net::{HttpClient, Server};
    use sandwich_store::{CollectedBundle, Manifest, StoreWriter};
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

    /// One detectable sandwich at `slot`: attacker buys, victim buys at a
    /// worse rate, attacker sells back at a profit and tips on the close.
    fn sandwich(n: u8, slot: u64) -> (CollectedBundle, Vec<sandwich_store::CollectedDetail>) {
        use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
        use sandwich_types::{LamportDelta, Pubkey};
        let kp = Keypair::from_label("qsvc-attacker");
        let tx_ids: Vec<_> = (0..3u8).map(|leg| kp.sign(&[n, leg, 0x5A])).collect();
        let bundle_id = sandwich_jito::bundle_id_of(&tx_ids);
        let (attacker, victim) = (Pubkey::derive("qsvc-a"), Pubkey::derive("qsvc-v"));
        let mint = Pubkey::derive("qsvc-pool");
        let tip = 1_000_000u64;
        let legs = [
            (attacker, -2_000_000_000i64, 10_000i128, 0u64),
            (victim, -2_600_000_000, 10_000, 0),
            (attacker, 2_150_000_000, -10_000, tip),
        ];
        let details = legs
            .into_iter()
            .zip(&tx_ids)
            .map(|((signer, sol, tokens, tip), tx_id)| {
                let mut sol_deltas = vec![SolDelta {
                    account: signer,
                    delta: LamportDelta(sol - 5_000 - tip as i64),
                }];
                if tip > 0 {
                    sol_deltas.push(SolDelta {
                        account: sandwich_jito::tip_account(0),
                        delta: LamportDelta(tip as i64),
                    });
                }
                sandwich_store::CollectedDetail {
                    bundle_id,
                    slot: Slot(slot),
                    meta: TransactionMeta {
                        tx_id: *tx_id,
                        signer,
                        fee: Lamports(5_000),
                        priority_fee: Lamports::ZERO,
                        success: true,
                        error: None,
                        sol_deltas,
                        token_deltas: vec![TokenDelta {
                            owner: signer,
                            mint,
                            delta: tokens,
                        }],
                    },
                }
            })
            .collect();
        let bundle = CollectedBundle {
            bundle_id,
            slot: Slot(slot),
            timestamp_ms: slot * 400,
            tip: Lamports(tip),
            tx_ids,
        };
        (bundle, details)
    }

    /// Seal one segment carrying sandwiches `first..first + count`.
    fn seal_sandwiches(w: &mut StoreWriter, first: u8, count: u8) {
        let (bundles, details): (Vec<_>, Vec<_>) = (first..first + count)
            .map(|n| sandwich(n, 100 + u64::from(n) * 10))
            .unzip();
        let details = details.into_iter().flatten().collect();
        w.seal_segment(bundles, details, Vec::new()).unwrap();
    }

    #[test]
    fn attribution_is_counted_on_the_rung_that_did_the_work() {
        let dir = std::env::temp_dir().join(format!("swqsvc-attrib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = StoreWriter::create(&dir).unwrap();
        w.set_validators(sandwich_attrib::ValidatorSpec::new(7, 6))
            .unwrap();
        seal_sandwiches(&mut w, 0, 2);

        // Rebuild: the whole index's joins, one schedule, every leader
        // group of [0, 110] hashed once.
        let registry = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::ATTRIB_JOINS), Some(2));
        assert_eq!(snap.counter(names::ATTRIB_SCHEDULE_BUILDS), Some(1));
        assert_eq!(snap.counter(names::ATTRIB_UNATTRIBUTED), None);
        let hashed = |r: &Registry| r.snapshot().counter(names::ATTRIB_SCHEDULE_GROUPS_HASHED);
        assert_eq!(hashed(&registry), Some(110 / 4 + 1));

        // Two folds: each adds only what its delta joined, never the base
        // again (the whole index re-added per reload would read 2+5+6), and
        // hashes only the groups past the base's max slot — at most
        // ceil(new slots / 4) + 1, the one being the group the base's
        // mid-group tip split (110 → 140: 9 groups, not 36).
        seal_sandwiches(&mut w, 2, 3);
        assert!(service.reload().unwrap());
        assert_eq!(registry.snapshot().counter(names::ATTRIB_JOINS), Some(5));
        assert_eq!(hashed(&registry), Some(28 + 9));
        seal_sandwiches(&mut w, 5, 1);
        assert!(service.reload().unwrap());
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLDS), Some(2));
        assert_eq!(snap.counter(names::ATTRIB_JOINS), Some(6));
        assert_eq!(snap.counter(names::ATTRIB_SCHEDULE_BUILDS), Some(3));
        assert_eq!(hashed(&registry), Some(28 + 9 + 3), "140 → 150");
        assert_eq!(service.engine_snapshot().index().refs.len(), 6);

        // A pure frame load scans nothing, finalizes nothing, schedules
        // nothing: it counts nothing.
        let fresh = Registry::new();
        QueryService::open(QueryServiceConfig::new(&dir), fresh.clone()).unwrap();
        let snap = fresh.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_LOADS), Some(1));
        assert_eq!(snap.counter(names::ATTRIB_JOINS), None);
        assert_eq!(snap.counter(names::ATTRIB_SCHEDULE_BUILDS), None);
        assert_eq!(hashed(&fresh), None);

        // An open on a stale-but-valid frame folds from it: the blocks-led
        // checkpoint survived the save and the load, so 150 → 160 is four
        // groups, not forty-one.
        seal_sandwiches(&mut w, 6, 1);
        let stale = Registry::new();
        let reopened = QueryService::open(QueryServiceConfig::new(&dir), stale.clone()).unwrap();
        let snap = stale.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLDS), Some(1));
        assert_eq!(snap.counter(names::QUERY_INDEX_REBUILDS), None);
        assert_eq!(snap.counter(names::ATTRIB_SCHEDULE_BUILDS), Some(1));
        assert_eq!(hashed(&stale), Some(4));
        let store = BundleStore::open(&dir).unwrap();
        let full = build_index(&store, &QueryServiceConfig::new(&dir).query).unwrap();
        assert_eq!(reopened.engine_snapshot().index(), &full);

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
            // ...and, with no base to extend, hashes every group of [0, 59].
            assert_eq!(
                snap.counter(names::ATTRIB_SCHEDULE_GROUPS_HASHED),
                Some(59 / 4 + 1)
            );

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
