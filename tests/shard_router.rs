//! End-to-end tests for the sharded query router: every `/api/*`
//! response served by an N-shard [`ServingCluster`] must be
//! byte-identical to the legacy single-engine evaluation at every shard
//! count — including pagination, coverage blocks, and 404 bodies — and
//! the cluster must degrade, rebalance, and aggregate health exactly as
//! specified.

use std::collections::HashMap;
use std::path::PathBuf;

use sandwich_bench::scale::{generate, ScaleConfig};
use sandwich_net::{HttpClient, Method, Request, Server};
use sandwich_obs::Registry;
use sandwich_query::{QueryRequest, QueryService, QueryServiceConfig};
use sandwich_shard::merge::{merge_coverage, SummaryPartial};
use sandwich_shard::{
    ClusterConfig, RouterConfig, RouterService, ServingCluster, ShardConfig, ShardMap, ShardService,
};
use sandwich_store::{BundleStore, Manifest, RebalanceConfig, StoreWriter, ValidatorSpec};
use sandwich_types::Keypair;

/// Seed a store with the scale generator so attacker/pool/detail
/// endpoints have real content spread across many segments.
fn seed_scale_store(tag: &str, bundles: u64, segment_bundles: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sw-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create(&dir).unwrap();
    // Stamp a validator spec so the attribution endpoints have a real
    // leader schedule to join against (as the pipeline does).
    writer
        .set_validators(ValidatorSpec::new(20_250_209, 16))
        .unwrap();
    let scale = ScaleConfig {
        bundles,
        segment_bundles,
        days: 2,
        ..ScaleConfig::default()
    };
    generate(&mut writer, &scale).unwrap();
    drop(writer.into_reader());
    dir
}

/// Parse an `/api/*` path (with query string) into its typed request,
/// exactly as the service router would.
fn typed(path: &str) -> QueryRequest {
    let (route, query_string) = path.split_once('?').unwrap_or((path, ""));
    let query: HashMap<String, String> = query_string
        .split('&')
        .filter(|s| !s.is_empty())
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut params = HashMap::new();
    let endpoint = if route == "/api/summary" {
        "summary"
    } else if route == "/api/days" {
        "days"
    } else if route == "/api/attackers" {
        "attackers"
    } else if let Some(rest) = route.strip_prefix("/api/attacker/") {
        params.insert("pubkey".to_string(), rest.to_string());
        "attacker"
    } else if let Some(rest) = route.strip_prefix("/api/pool/") {
        params.insert("mint".to_string(), rest.to_string());
        "pool"
    } else if route == "/api/validators" {
        "validators"
    } else if let Some(rest) = route.strip_prefix("/api/validator/") {
        params.insert("pubkey".to_string(), rest.to_string());
        "validator"
    } else {
        "sandwiches"
    };
    let request = Request {
        method: Method::Get,
        path: route.to_string(),
        query,
        params,
        headers: HashMap::new(),
        body: Default::default(),
    };
    QueryRequest::parse(endpoint, &request).unwrap()
}

/// The legacy single-engine reference: `(generation, per-path (status, body))`.
fn legacy_reference(dir: &PathBuf, paths: &[String]) -> (String, Vec<(u16, Vec<u8>)>) {
    let service = QueryService::open(QueryServiceConfig::new(dir), Registry::new()).unwrap();
    let engine = service.engine_snapshot();
    let generation = engine.generation().to_string();
    let responses = paths
        .iter()
        .map(|path| {
            let response = engine.evaluate(&typed(path));
            (response.status, response.body)
        })
        .collect();
    (generation, responses)
}

/// Probe paths covering every endpoint family, pagination, and 404s,
/// derived from the store's own leaderboards.
fn probe_paths(dir: &PathBuf) -> Vec<String> {
    let service = QueryService::open(QueryServiceConfig::new(dir), Registry::new()).unwrap();
    let engine = service.engine_snapshot();
    let index = engine.index();
    let mut paths = vec![
        "/api/summary".to_string(),
        "/api/days".to_string(),
        "/api/attackers?limit=10".to_string(),
        "/api/attackers?limit=10&after=10".to_string(),
        "/api/attackers?limit=500".to_string(),
    ];
    for entry in index.attackers.iter().take(2) {
        paths.push(format!("/api/attacker/{}", entry.attacker));
    }
    for entry in index.pools.iter().take(2) {
        paths.push(format!("/api/pool/{}", entry.mint));
    }
    let validators = index.validators.as_deref().unwrap_or(&[]);
    paths.push("/api/validators?limit=10".to_string());
    paths.push("/api/validators?limit=5&after=5".to_string());
    paths.push("/api/validators?limit=100".to_string());
    for entry in validators.iter().filter(|v| v.sandwiches > 0).take(2) {
        paths.push(format!("/api/validator/{}", entry.pubkey));
    }
    // A validator that hosted no sandwich, when the store has one.
    if let Some(entry) = validators.iter().find(|v| v.sandwiches == 0) {
        paths.push(format!("/api/validator/{}", entry.pubkey));
    }
    let nobody = Keypair::from_label("shard-router-nobody").pubkey();
    paths.push(format!("/api/attacker/{nobody}"));
    paths.push(format!("/api/pool/{nobody}"));
    // The validator 404 behaves exactly like the attacker 404: same
    // status, a JSON body, merged shards agreeing byte-for-byte.
    paths.push(format!("/api/validator/{nobody}"));
    let max_slot = index.totals.max_slot.max(1);
    paths.push(format!(
        "/api/sandwiches?from_slot=0&to_slot={}&limit=50",
        max_slot + 1
    ));
    paths.push(format!(
        "/api/sandwiches?from_slot=0&to_slot={}&limit=50&after=25",
        max_slot + 1
    ));
    paths.push(format!(
        "/api/sandwiches?from_slot={}&to_slot={}&limit=100",
        max_slot / 3,
        2 * max_slot / 3
    ));
    paths.push(format!(
        "/api/sandwiches?from_slot={}&to_slot={}&limit=10&after=10",
        max_slot / 3,
        2 * max_slot / 3
    ));
    paths.push(format!(
        "/api/sandwiches?from_slot=0&to_slot={}&limit=20&after=1000000",
        max_slot + 1
    ));
    paths
}

/// Fetch every probe through the router and require byte-identity with
/// the legacy reference (status, body, and generation header).
async fn assert_router_matches(
    cluster: &ServingCluster,
    paths: &[String],
    generation: &str,
    reference: &[(u16, Vec<u8>)],
    label: &str,
) {
    let client = HttpClient::new(cluster.router_addr());
    for (path, (status, body)) in paths.iter().zip(reference) {
        let served = client.get(path).await.expect("router request");
        assert_eq!(served.status, *status, "{label}: status for {path}");
        assert_eq!(
            &served.body[..],
            &body[..],
            "{label}: body for {path} diverged from the single engine"
        );
        assert_eq!(
            served.header_value("x-query-generation"),
            Some(generation),
            "{label}: generation header for {path}"
        );
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn router_is_byte_identical_to_single_engine_at_every_shard_count() {
    let dir = seed_scale_store("identity", 4_000, 256);
    let paths = probe_paths(&dir);
    let (generation, reference) = legacy_reference(&dir, &paths);

    for shards in [1usize, 2, 4, 8] {
        let cluster = ServingCluster::serve(ClusterConfig::new(&dir, shards), Registry::new())
            .await
            .expect("serve cluster");
        assert_eq!(cluster.generation(), generation);
        assert_eq!(cluster.shard_addrs().len(), shards);
        assert_router_matches(
            &cluster,
            &paths,
            &generation,
            &reference,
            &format!("{shards} shard(s)"),
        )
        .await;
        cluster.shutdown().await;
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn quarantined_shard_coverage_sums_to_single_engine_coverage() {
    let dir = seed_scale_store("quarantine", 2_000, 128);

    // Quarantine one mid-store segment, exactly as the doctor would.
    let mut manifest = Manifest::load(&dir).unwrap();
    let victim_index = manifest.segments.len() / 2;
    let victim = manifest.segments[victim_index].clone();
    manifest.quarantine(victim_index, "test: planted corruption");
    manifest.save(&dir).unwrap();

    let paths = probe_paths(&dir);
    let (generation, reference) = legacy_reference(&dir, &paths);
    let body = String::from_utf8_lossy(&reference[0].1).to_string();
    assert!(
        body.contains("\"segments_quarantined\":1"),
        "reference summary must carry the quarantine: {body}"
    );

    let cluster = ServingCluster::serve(ClusterConfig::new(&dir, 3), Registry::new())
        .await
        .expect("serve cluster");
    assert_router_matches(&cluster, &paths, &generation, &reference, "quarantined").await;

    // The shard-level accounting is exact too: summing the per-shard
    // coverage blocks reproduces the single-engine coverage field by
    // field, and exactly one shard carries the quarantined bundles.
    let mut partials = Vec::new();
    for addr in cluster.shard_addrs() {
        let client = HttpClient::new(addr);
        let response = client.get("/shard/summary").await.expect("shard summary");
        assert_eq!(response.status, 200);
        assert_eq!(
            response.header_value("x-query-generation"),
            Some(generation.as_str())
        );
        let partial: SummaryPartial = serde_json::from_slice(&response.body).unwrap();
        partials.push(partial);
    }
    let summed = merge_coverage(
        &partials
            .iter()
            .map(|p| p.coverage.clone())
            .collect::<Vec<_>>(),
    );
    let service = QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();
    let engine = service.engine_snapshot();
    assert_eq!(summed, engine.index().coverage, "coverage sum mismatch");
    let carriers: Vec<_> = partials
        .iter()
        .filter(|p| p.coverage.bundles_quarantined > 0)
        .collect();
    assert_eq!(carriers.len(), 1, "exactly one shard owns the quarantine");
    assert_eq!(carriers[0].coverage.bundles_quarantined, victim.bundles);

    cluster.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn readyz_aggregates_and_degrades_as_shards_die() {
    let dir = seed_scale_store("readyz", 1_000, 128);
    let map = ShardMap::plan(BundleStore::open(&dir).unwrap(), 2);
    let registry = Registry::new();

    // Assemble the two shards and the router by hand so one shard can be
    // killed without tearing the rest of the cluster down.
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..2 {
        let service = ShardService::open(ShardConfig::new(shard), &map, registry.clone()).unwrap();
        let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
        addrs.push(server.local_addr());
        servers.push(server);
    }
    let router = RouterService::new(
        addrs,
        map.store().generation().to_string(),
        RouterConfig::default(),
        registry.clone(),
    );
    let router_server = Server::bind("127.0.0.1:0", router.router()).await.unwrap();
    let client = HttpClient::new(router_server.local_addr());

    // Healthy: both shards ready, not degraded.
    let health = client.get("/healthz").await.unwrap();
    assert_eq!(health.status, 200);
    let ready = client.get("/readyz").await.unwrap();
    assert_eq!(ready.status, 200);
    let body = String::from_utf8_lossy(&ready.body).to_string();
    assert!(body.contains("\"ready_shards\":2"), "{body}");
    assert!(body.contains("\"degraded\":false"), "{body}");
    let summary = client.get("/api/summary").await.unwrap();
    assert_eq!(summary.status, 200);

    // One shard down: degraded but still serving readiness; an uncached
    // fan-out fails closed with a retryable 503, never a partial merge.
    servers.pop().unwrap().shutdown().await;
    let ready = client.get("/readyz").await.unwrap();
    assert_eq!(ready.status, 200, "one live shard keeps /readyz green");
    let body = String::from_utf8_lossy(&ready.body).to_string();
    assert!(body.contains("\"degraded\":true"), "{body}");
    assert!(body.contains("\"ready_shards\":1"), "{body}");
    let days = client.get("/api/days").await.unwrap();
    assert_eq!(days.status, 503, "uncached fan-out must fail closed");
    let body = String::from_utf8_lossy(&days.body).to_string();
    assert!(body.contains("scatter-gather failed"), "{body}");
    // The pre-failure summary stays servable from the router cache.
    let summary = client.get("/api/summary").await.unwrap();
    assert_eq!(summary.status, 200);

    // Every shard down: readiness goes red.
    servers.pop().unwrap().shutdown().await;
    let ready = client.get("/readyz").await.unwrap();
    assert_eq!(ready.status, 503);
    assert_eq!(ready.header_value("Retry-After"), Some("3"));

    router_server.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn rebalance_under_live_router_lands_via_reload() {
    // Confetti store: 16 tiny segments that one rebalance compacts.
    let dir = seed_scale_store("rebalance", 2_000, 128);
    let segments_before = Manifest::load(&dir).unwrap().segments.len();
    assert!(segments_before >= 8, "need a fragmented store");

    let cluster = ServingCluster::serve(ClusterConfig::new(&dir, 2), Registry::new())
        .await
        .expect("serve cluster");
    let generation_before = cluster.generation();
    let client = HttpClient::new(cluster.router_addr());
    let before = client.get("/api/summary").await.unwrap();
    assert_eq!(before.status, 200);

    // Compact while the cluster serves; the manifest swap is atomic, so
    // the old generation keeps serving until reload installs the new one.
    let report = sandwich_store::rebalance(&dir, &RebalanceConfig::default()).unwrap();
    assert!(report.changed(), "rebalance must compact the confetti");
    assert!(report.segments_after < segments_before);
    let still = client.get("/api/summary").await.unwrap();
    assert_eq!(still.status, 200);
    assert_eq!(&still.body[..], &before.body[..], "pre-reload bytes stable");

    assert!(cluster.reload().unwrap(), "reload must go live");
    assert_ne!(cluster.generation(), generation_before);

    // Post-rebalance responses match a fresh single engine byte-for-byte.
    let paths = probe_paths(&dir);
    let (generation, reference) = legacy_reference(&dir, &paths);
    assert_eq!(cluster.generation(), generation);
    assert_router_matches(&cluster, &paths, &generation, &reference, "rebalanced").await;

    cluster.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}
