//! The serving skeleton and the index ladder, seen from outside: what the
//! three services (`queryd`'s `QueryService`, a `ShardService`, the
//! `RouterService`) share by construction must look identical on the
//! wire, and a shard must climb the same load → fold → rebuild ladder the
//! single engine does.
//!
//! 1. A shard whose slice only grew folds from its in-memory engine on a
//!    reload instead of re-scanning the slice, and the folded cluster is
//!    byte-identical to a fresh single engine.
//! 2. The `/healthz` and `/readyz` bodies and headers of all three
//!    services are pinned byte-for-byte, ready and after a failed reload,
//!    a failed install and dead shards.
//! 3. A shed request looks the same from the router as from the service.
//! 4. A shard at another generation, one that does not say which it is
//!    at, or one whose partial is malformed, fails the router's fan-out
//!    closed with a 503 that is never cached.
//! 5. A shard map carries the store snapshot it was planned from: a seal
//!    that lands between planning and installing does not fail the
//!    install, and the next cluster reload moves everything to one newer
//!    snapshot.
//! 6. One query language: a shard and the service answer every malformed
//!    request with the same 400.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sandwich_jito::{bundle_id_of, tip_account};
use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
use sandwich_net::{HttpClient, Method, Response, Router, Server};
use sandwich_obs::{names, Registry};
use sandwich_query::partial::DaysPartial;
use sandwich_query::{DayRollup, QueryService, QueryServiceConfig};
use sandwich_shard::{
    ClusterConfig, RouterConfig, RouterService, ServingCluster, ShardConfig, ShardMap, ShardService,
};
use sandwich_store::{
    BundleStore, CollectedBundle, CollectedDetail, Manifest, StoreWriter, ValidatorSpec,
};
use sandwich_types::{Hash, Keypair, LamportDelta, Lamports, Pubkey, Signature, Slot};

fn plain_bundle(seed: u64, slot: u64) -> CollectedBundle {
    let kp = Keypair::from_label("serving-core");
    CollectedBundle {
        bundle_id: Hash::digest(&seed.to_le_bytes()),
        slot: Slot(slot),
        timestamp_ms: slot * 400,
        tip: Lamports(25_000 + seed % 7),
        tx_ids: vec![kp.sign(&seed.to_le_bytes())],
    }
}

fn swap_meta(
    tx_id: Signature,
    signer: Pubkey,
    mint: Pubkey,
    sol: i64,
    tokens: i128,
) -> TransactionMeta {
    TransactionMeta {
        tx_id,
        signer,
        fee: Lamports(5_000),
        priority_fee: Lamports::ZERO,
        success: true,
        error: None,
        sol_deltas: vec![SolDelta {
            account: signer,
            delta: LamportDelta(sol - 5_000),
        }],
        token_deltas: vec![TokenDelta {
            owner: signer,
            mint,
            delta: tokens,
        }],
    }
}

/// One detectable sandwich at `slot`: attacker buys, victim buys at a
/// worse rate, attacker sells back at a profit and tips on the close.
fn sandwich(n: u64, slot: u64) -> (CollectedBundle, Vec<CollectedDetail>) {
    let kp = Keypair::from_label("serving-core-attacker");
    let tx_ids: Vec<Signature> = (0..3u8).map(|leg| kp.sign(&[n as u8, leg, 0xC0])).collect();
    let bundle_id = bundle_id_of(&tx_ids);
    let attacker = Pubkey::derive(&format!("serving-core-attacker-{}", n % 3));
    let victim = Pubkey::derive(&format!("serving-core-victim-{n}"));
    let mint = Pubkey::derive(&format!("serving-core-pool-{}", n % 2));
    let tip = 1_000_000u64;
    let mut close = swap_meta(
        tx_ids[2],
        attacker,
        mint,
        2_150_000_000 - tip as i64,
        -10_000,
    );
    close.sol_deltas.push(SolDelta {
        account: tip_account(0),
        delta: LamportDelta(tip as i64),
    });
    let metas = [
        swap_meta(tx_ids[0], attacker, mint, -2_000_000_000, 10_000),
        swap_meta(tx_ids[1], victim, mint, -2_600_000_000, 10_000),
        close,
    ];
    let details = metas
        .into_iter()
        .map(|meta| CollectedDetail {
            bundle_id,
            slot: Slot(slot),
            meta,
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

/// Seal segment `seg`: nine plain bundles and one planted sandwich, at
/// slots no other segment uses (so the shard plan is a clean slot range).
fn seal_segment(writer: &mut StoreWriter, seg: u64) {
    let base = seg * 1_000;
    let mut bundles: Vec<_> = (0..9)
        .map(|i| plain_bundle(seg * 100 + i, base + i * 3))
        .collect();
    let (planted, details) = sandwich(seg, base + 40);
    bundles.push(planted);
    writer.seal_segment(bundles, details, Vec::new()).unwrap();
}

/// A store of `segments` equal segments under a validator spec, so the
/// attribution half of a finalize runs in every build and fold.
fn seed_store(tag: &str, segments: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sw-serving-core-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create(&dir).unwrap();
    writer
        .set_validators(ValidatorSpec::new(20_250_209, 8))
        .unwrap();
    for seg in 0..segments {
        seal_segment(&mut writer, seg);
    }
    dir
}

fn seal_one_more(dir: &Path, seg: u64) {
    let sealed = Manifest::load(dir).unwrap().segments;
    let mut writer = StoreWriter::resume(dir, &sealed).unwrap();
    seal_segment(&mut writer, seg);
}

/// Every endpoint family over the store's own leaderboards, 404s included.
fn probe_paths(dir: &Path) -> Vec<String> {
    let fresh = QueryService::open(QueryServiceConfig::new(dir), Registry::new()).unwrap();
    let engine = fresh.engine_snapshot();
    let index = engine.index();
    let mut paths: Vec<String> = [
        "/api/summary",
        "/api/days",
        "/api/attackers?limit=2",
        "/api/attackers?limit=2&after=2",
        "/api/validators?limit=3",
        "/api/sandwiches?from_slot=0&to_slot=2500&limit=2&after=1",
        "/api/sandwiches?limit=500",
        "/api/live?limit=64",
        "/api/attacker/1111111111111111111111111111111111111111111",
        "/api/attackers?limit=banana",
    ]
    .iter()
    .map(|p| p.to_string())
    .collect();
    paths.push(format!("/api/attacker/{}", index.attackers[0].attacker));
    paths.push(format!("/api/pool/{}", index.pools[0].mint));
    let validators = index.validators.as_deref().unwrap();
    paths.push(format!("/api/validator/{}", validators[0].pubkey));
    paths
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn a_shard_whose_slice_only_grew_folds_instead_of_rescanning() {
    let dir = seed_store("fold", 3);
    let registry = Registry::new();
    let cluster = ServingCluster::serve(ClusterConfig::new(&dir, 2), registry.clone())
        .await
        .unwrap();
    let before = ShardMap::plan(BundleStore::open(&dir).unwrap(), 2);
    let opened = registry.snapshot();
    assert_eq!(
        opened.counter(names::QUERY_INDEX_REBUILDS),
        Some(2),
        "each shard builds its slice once on a cold open"
    );
    let joined_at_open = opened.counter(names::ATTRIB_JOINS);
    assert_eq!(joined_at_open, Some(3), "shards count attribution too");

    seal_one_more(&dir, 3);
    // The premise: the re-plan only appends to each shard's slice.
    let after = ShardMap::plan(BundleStore::open(&dir).unwrap(), 2);
    for (old, new) in before.shards.iter().zip(&after.shards) {
        assert!(
            new.segments.starts_with(&old.segments),
            "test store must re-plan by growth only: {old:?} -> {new:?}"
        );
    }
    assert!(cluster.reload().unwrap(), "the new generation goes live");

    let snap = registry.snapshot();
    assert!(snap.counter(names::QUERY_INDEX_FOLDS) >= Some(1));
    assert_eq!(snap.counter(names::QUERY_INDEX_FOLD_SEGMENTS), Some(1));
    assert_eq!(snap.counter(names::QUERY_INDEX_FULL_REBUILDS), None);
    assert_eq!(
        snap.counter(names::QUERY_INDEX_REBUILDS),
        Some(2),
        "no slice was re-scanned"
    );
    assert_eq!(
        snap.counter(names::ATTRIB_JOINS),
        Some(4),
        "the fold counts only the sandwich its delta joined"
    );

    // Fold ≡ rebuild, all the way to the socket: the folded cluster answers
    // every path with the bytes of a fresh single engine.
    let single = QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();
    let single_server = Server::bind("127.0.0.1:0", single.router()).await.unwrap();
    let single_client = HttpClient::new(single_server.local_addr());
    let router_client = HttpClient::new(cluster.router_addr());
    assert_eq!(cluster.generation(), single.generation());
    for path in probe_paths(&dir) {
        let want = single_client.get(&path).await.unwrap();
        let got = router_client.get(&path).await.unwrap();
        assert_eq!(got.status, want.status, "{path}");
        assert_eq!(&got.body[..], &want.body[..], "{path}");
        assert_eq!(
            got.header_value("x-query-generation"),
            want.header_value("x-query-generation"),
            "{path}"
        );
    }

    single_server.shutdown().await;
    cluster.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seal segment `seg` holding only its planted sandwich: small enough that
/// a 2-shard re-plan of a 3-segment store, grown by two of these, only
/// appends to each shard's slice.
fn seal_one_sandwich(dir: &Path, seg: u64) {
    let sealed = Manifest::load(dir).unwrap().segments;
    let mut writer = StoreWriter::resume(dir, &sealed).unwrap();
    let (planted, details) = sandwich(seg, seg * 1_000 + 40);
    writer
        .seal_segment(vec![planted], details, Vec::new())
        .unwrap();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn a_map_installs_the_snapshot_it_was_planned_from() {
    let dir = seed_store("snapshot", 3);
    let registry = Registry::new();
    let cluster = ServingCluster::serve(ClusterConfig::new(&dir, 2), registry.clone())
        .await
        .unwrap();
    let opened = ShardMap::plan(BundleStore::open(&dir).unwrap(), 2);

    // Plan from one snapshot, then let a seal land before the install.
    seal_one_sandwich(&dir, 3);
    let map = ShardMap::plan(BundleStore::open(&dir).unwrap(), 2);
    seal_one_sandwich(&dir, 4);
    let latest = ShardMap::plan(BundleStore::open(&dir).unwrap(), 2);
    let snapshot = map.store().generation();
    assert_ne!(snapshot, latest.store().generation());
    // The premise: each re-plan only appends to each shard's slice.
    for plans in [[&opened, &map], [&map, &latest]] {
        for (old, new) in plans[0].shards.iter().zip(&plans[1].shards) {
            assert!(
                new.segments.starts_with(&old.segments),
                "{old:?} -> {new:?}"
            );
        }
    }

    // Every shard installs the generation the map was planned at, not the
    // one the directory has moved on to.
    for service in cluster.services() {
        assert!(service.install(&map).unwrap(), "a new generation went live");
        assert_eq!(service.generation(), snapshot);
    }

    // The next reload takes one new snapshot and moves every shard and the
    // router to it, by folds alone.
    assert!(cluster.reload().unwrap());
    assert_eq!(cluster.generation(), latest.store().generation());
    for service in cluster.services() {
        assert_eq!(service.generation(), latest.store().generation());
    }
    let snap = registry.snapshot();
    assert!(snap.counter(names::QUERY_INDEX_FOLDS) >= Some(1));
    assert_eq!(snap.counter(names::QUERY_INDEX_FOLD_SEGMENTS), Some(2));
    assert_eq!(snap.counter(names::QUERY_INDEX_FULL_REBUILDS), None);
    assert_eq!(
        snap.counter(names::QUERY_INDEX_REBUILDS),
        Some(2),
        "no slice was re-scanned"
    );
    assert_eq!(snap.counter(names::ATTRIB_JOINS), Some(5));

    cluster.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Status, body text and the headers a handler set (the server's own
/// `content-length` / `connection` framing aside), in order.
fn wire(response: &Response) -> (u16, String, Vec<(String, String)>) {
    let headers = response
        .headers
        .iter()
        .filter(|(k, _)| k != "content-length" && k != "connection")
        .cloned()
        .collect();
    let body = String::from_utf8(response.body.to_vec()).unwrap();
    (response.status, body, headers)
}

fn probe(
    status: u16,
    body: String,
    retry_after: Option<&str>,
) -> (u16, String, Vec<(String, String)>) {
    let mut headers = vec![("content-type".to_string(), "application/json".to_string())];
    if let Some(seconds) = retry_after {
        headers.push(("retry-after".to_string(), seconds.to_string()));
    }
    (status, body, headers)
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn probe_bodies_and_headers_are_pinned_for_all_three_services() {
    let dir = seed_store("probes", 3);
    let map = ShardMap::plan(BundleStore::open(&dir).unwrap(), 2);
    let g = map.store().generation().to_string();

    // --- the single-engine service -------------------------------------
    let service = QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();
    let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
    let client = HttpClient::new(server.local_addr());
    assert_eq!(
        wire(&client.get("/healthz").await.unwrap()),
        probe(
            200,
            format!("{{\"status\":\"ok\",\"generation\":\"{g}\"}}"),
            None
        )
    );
    assert_eq!(
        wire(&client.get("/readyz").await.unwrap()),
        probe(
            200,
            format!("{{\"ready\":true,\"complete\":true,\"generation\":\"{g}\"}}"),
            None
        )
    );
    // A failed reload: still serving the old generation, readiness red.
    let manifest_path = dir.join(sandwich_store::MANIFEST_FILE);
    let manifest_bytes = std::fs::read(&manifest_path).unwrap();
    std::fs::remove_file(&manifest_path).unwrap();
    assert!(service.reload().is_err());
    std::fs::write(&manifest_path, &manifest_bytes).unwrap();
    assert_eq!(
        wire(&client.get("/readyz").await.unwrap()),
        probe(
            503,
            format!("{{\"ready\":false,\"complete\":true,\"generation\":\"{g}\"}}"),
            Some("3")
        )
    );
    assert_eq!(
        wire(&client.get("/healthz").await.unwrap()).0,
        200,
        "liveness is not readiness"
    );
    server.shutdown().await;

    // --- two shards and a router, assembled by hand --------------------
    let registry = Registry::new();
    let mut shards = Vec::new();
    let mut servers = Vec::new();
    for shard in 0..2 {
        let service = ShardService::open(ShardConfig::new(shard), &map, registry.clone()).unwrap();
        servers.push(Server::bind("127.0.0.1:0", service.router()).await.unwrap());
        shards.push(service);
    }
    let addrs: Vec<_> = servers.iter().map(Server::local_addr).collect();
    let shard1 = HttpClient::new(addrs[1]);
    assert_eq!(
        wire(&shard1.get("/healthz").await.unwrap()),
        probe(
            200,
            format!("{{\"status\":\"ok\",\"shard\":1,\"generation\":\"{g}\"}}"),
            None
        )
    );
    assert_eq!(
        wire(&shard1.get("/readyz").await.unwrap()),
        probe(
            200,
            format!("{{\"ready\":true,\"shard\":1,\"complete\":true,\"generation\":\"{g}\"}}"),
            None
        )
    );
    // A failed install (a map with no shard 1), an error and not a panic.
    let fewer = ShardMap::plan(map.store().clone(), 1);
    let error = shards[1].install(&fewer).unwrap_err();
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput, "{error}");
    assert_eq!(
        wire(&shard1.get("/readyz").await.unwrap()),
        probe(
            503,
            format!("{{\"ready\":false,\"shard\":1,\"complete\":true,\"generation\":\"{g}\"}}"),
            Some("3")
        )
    );
    let partial = shard1.get("/shard/summary").await.unwrap();
    assert_eq!(partial.status, 200, "the last good engine keeps serving");
    assert_eq!(partial.header_value("x-query-generation"), Some(g.as_str()));

    let router = RouterService::new(addrs, g.clone(), RouterConfig::default(), registry);
    let router_server = Server::bind("127.0.0.1:0", router.router()).await.unwrap();
    let client = HttpClient::new(router_server.local_addr());
    assert_eq!(
        wire(&client.get("/healthz").await.unwrap()),
        probe(
            200,
            format!("{{\"status\":\"ok\",\"generation\":\"{g}\",\"shards\":2}}"),
            None
        )
    );
    // Shard 1 is not ready (its install failed): degraded, still green.
    assert_eq!(
        wire(&client.get("/readyz").await.unwrap()),
        probe(
            200,
            format!(
                "{{\"ready\":true,\"degraded\":true,\"shards\":2,\"ready_shards\":1,\"generation\":\"{g}\"}}"
            ),
            None
        )
    );
    // A good install clears it.
    assert!(
        !shards[1].install(&map).unwrap(),
        "same map: nothing to swap"
    );
    assert_eq!(
        wire(&client.get("/readyz").await.unwrap()),
        probe(
            200,
            format!(
                "{{\"ready\":true,\"degraded\":false,\"shards\":2,\"ready_shards\":2,\"generation\":\"{g}\"}}"
            ),
            None
        )
    );
    // Every shard dead: red, with the retry hint; liveness unaffected.
    for server in servers {
        server.shutdown().await;
    }
    assert_eq!(
        wire(&client.get("/readyz").await.unwrap()),
        probe(
            503,
            format!(
                "{{\"ready\":false,\"degraded\":true,\"shards\":2,\"ready_shards\":0,\"generation\":\"{g}\"}}"
            ),
            Some("3")
        )
    );
    assert_eq!(wire(&client.get("/healthz").await.unwrap()).0, 200);

    router_server.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn a_shed_request_looks_the_same_from_the_router_as_from_the_service() {
    let dir = seed_store("shed", 2);

    let service_registry = Registry::new();
    let mut config = QueryServiceConfig::new(&dir);
    config.max_in_flight = 0; // admit nothing: every API call sheds
    let service = QueryService::open(config, service_registry.clone()).unwrap();
    let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
    let from_service = HttpClient::new(server.local_addr())
        .get("/api/summary")
        .await
        .unwrap();

    // `shards: 0` set on the public field serves one shard, as `new` does.
    for shards in [2, 0] {
        let cluster_registry = Registry::new();
        let mut config = ClusterConfig::new(&dir, 2);
        config.shards = shards;
        config.max_in_flight = 0;
        let cluster = ServingCluster::serve(config, cluster_registry.clone())
            .await
            .unwrap();
        assert_eq!(cluster.shard_addrs().len(), shards.max(1));
        let client = HttpClient::new(cluster.router_addr());
        let from_router = client.get("/api/summary").await.unwrap();

        assert_eq!(wire(&from_router), wire(&from_service));
        assert_eq!(from_router.status, 503);
        assert_eq!(from_router.header_value("retry-after"), Some("1"));
        assert_eq!(from_router.header_value("x-query-generation"), None);
        for registry in [&service_registry, &cluster_registry] {
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::QUERY_SHED), Some(1));
            assert_eq!(snap.counter(names::QUERY_REQUESTS), Some(1));
            // Shed before any parse, cache or engine work.
            assert_eq!(snap.counter(names::QUERY_CACHE_MISSES), None);
            assert_eq!(snap.counter(names::QUERY_SHARD_FANOUTS), None);
        }
        // The probes are exempt from admission.
        assert_eq!(client.get("/healthz").await.unwrap().status, 200);
        assert_eq!(client.get("/readyz").await.unwrap().status, 200);

        cluster.shutdown().await;
    }
    server.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn a_shard_at_another_generation_fails_the_fan_out_closed() {
    let dir = seed_store("wrong-generation", 3);
    let map = ShardMap::plan(BundleStore::open(&dir).unwrap(), 2);
    let registry = Registry::new();
    let mut servers = Vec::new();
    for shard in 0..2 {
        let service = ShardService::open(ShardConfig::new(shard), &map, registry.clone()).unwrap();
        servers.push(Server::bind("127.0.0.1:0", service.router()).await.unwrap());
    }
    let addrs = servers.iter().map(Server::local_addr).collect();
    let expected = "0000000000000000";
    assert_ne!(map.store().generation(), expected);
    let router = RouterService::new(
        addrs,
        expected.to_string(),
        RouterConfig::default(),
        registry,
    );
    let router_server = Server::bind("127.0.0.1:0", router.router()).await.unwrap();
    let client = HttpClient::new(router_server.local_addr());

    // Twice: the first 503 must not be served again from the cache.
    for _ in 0..2 {
        let response = client.get("/api/days").await.unwrap();
        assert_eq!(response.status, 503);
        let body = String::from_utf8_lossy(&response.body).to_string();
        assert!(
            body.contains(&format!("router expects {expected}")),
            "{body}"
        );
    }
    router.set_generation(map.store().generation().to_string());
    assert_eq!(client.get("/api/days").await.unwrap().status, 200);

    router_server.shutdown().await;
    for server in servers {
        server.shutdown().await;
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn a_shard_answer_without_a_generation_header_fails_the_fan_out() {
    // Not a ShardService: a bare server whose body would decode, but which
    // never says what generation it answered at.
    let bare = Router::new().route(Method::Get, "/shard/days", |_request| async {
        Response::new(200, "{\"days\":[]}").header("content-type", "application/json")
    });
    let shard = Server::bind("127.0.0.1:0", bare).await.unwrap();
    let router = RouterService::new(
        vec![shard.local_addr()],
        "0000000000000000".to_string(),
        RouterConfig::default(),
        Registry::new(),
    );
    let router_server = Server::bind("127.0.0.1:0", router.router()).await.unwrap();

    let response = HttpClient::new(router_server.local_addr())
        .get("/api/days")
        .await
        .unwrap();
    assert_eq!(response.status, 503);
    let body = String::from_utf8_lossy(&response.body).to_string();
    assert!(body.contains("scatter-gather failed: shard 0"), "{body}");

    router_server.shutdown().await;
    shard.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn a_shard_answer_of_sparse_day_rollups_fails_the_fan_out_closed() {
    // Not a ShardService: a bare server at the router's generation whose
    // first days partial starts at day 5 — a list the days merge would
    // index past the end of — and whose later ones are well formed.
    let generation = "0000000000000000";
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = calls.clone();
    let bare = Router::new().route(Method::Get, "/shard/days", move |_request| {
        let first = counted.fetch_add(1, Ordering::SeqCst) == 0;
        async move {
            let days = if first {
                vec![DayRollup::new(5)]
            } else {
                Vec::new()
            };
            let body = serde_json::to_vec(&DaysPartial { days }).unwrap();
            Response::new(200, body)
                .header("content-type", "application/json")
                .header("x-query-generation", generation)
        }
    });
    let shard = Server::bind("127.0.0.1:0", bare).await.unwrap();
    let router = RouterService::new(
        vec![shard.local_addr()],
        generation.to_string(),
        RouterConfig::default(),
        Registry::new(),
    );
    let router_server = Server::bind("127.0.0.1:0", router.router()).await.unwrap();
    let client = HttpClient::new(router_server.local_addr());

    let response = client.get("/api/days").await.unwrap();
    assert_eq!(response.status, 503);
    let body = String::from_utf8_lossy(&response.body).to_string();
    assert!(
        body.contains("scatter-gather failed: shard 0 sent an unreadable partial"),
        "{body}"
    );
    assert!(body.contains("not dense from day 0"), "{body}");
    // The router is still up, and the 503 was not cached.
    let response = client.get("/api/days").await.unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        String::from_utf8_lossy(&response.body),
        format!("{{\"generation\":\"{generation}\",\"days\":[]}}")
    );
    assert_eq!(calls.load(Ordering::SeqCst), 2);

    router_server.shutdown().await;
    shard.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn a_shard_and_the_service_word_every_malformed_request_alike() {
    // One query language: a shard parses `/shard/*` exactly as the service
    // parses `/api/*`, so a malformed request is the same 400 from both.
    let dir = seed_store("malformed", 2);
    let service = QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();
    let service_server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
    let map = ShardMap::plan(BundleStore::open(&dir).unwrap(), 1);
    let shard = ShardService::open(ShardConfig::new(0), &map, Registry::new()).unwrap();
    let shard_server = Server::bind("127.0.0.1:0", shard.router()).await.unwrap();
    let (api, wire) = (
        HttpClient::new(service_server.local_addr()),
        HttpClient::new(shard_server.local_addr()),
    );

    for path in [
        "sandwiches?from_slot=banana",
        "sandwiches?to_slot=-1",
        "sandwiches?from_slot=9&to_slot=3",
        "sandwiches?limit=banana",
        "attacker/not-base58!",
        "pool/0OIl",
        "validator/short",
        "live?limit=1.5",
        "live?cursor=v1.0000000000000000.000000000000002a.0OIl",
    ] {
        let from_service = api.get(&format!("/api/{path}")).await.unwrap();
        let from_shard = wire.get(&format!("/shard/{path}")).await.unwrap();
        assert_eq!(from_service.status, 400, "{path}");
        assert_eq!(from_shard.status, 400, "{path}");
        assert_eq!(from_shard.body, from_service.body, "{path}");
        let body = String::from_utf8_lossy(&from_shard.body).to_string();
        assert!(body.starts_with("{\"error\":"), "{path}: {body}");
    }

    service_server.shutdown().await;
    shard_server.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}
