//! The transport seen from above it: the keep-alive pool in
//! `sandwich_net::HttpClient` must be invisible to everything that counts
//! requests. Under every chaos profile the explorer sees exactly as many
//! requests as the collector made attempts (the pool never replays one);
//! where no wall-clock deadline is involved two same-seed runs repeat to
//! the byte, connection counts included; and a router reaches its shards
//! over a bounded handful of connections without changing a body or the
//! fail-closed contract.

use std::path::PathBuf;
use std::time::Duration;

use sandwich_bench::scale::{generate, ScaleConfig};
use sandwich_core::{CollectorConfig, MeasurementRun, PipelineConfig};
use sandwich_explorer::{BurstConfig, ExplorerConfig, FaultPlanConfig, LatencyConfig};
use sandwich_net::{ClientTimeouts, HttpClient, Method, Request, RetryPolicy, Server};
use sandwich_obs::Registry;
use sandwich_query::{QueryRequest, QueryService, QueryServiceConfig};
use sandwich_shard::{RouterConfig, RouterService, ShardConfig, ShardMap, ShardService};
use sandwich_sim::{ScenarioConfig, Simulation};
use sandwich_store::{BundleStore, StoreWriter, ValidatorSpec};

/// The deadline the stall-injecting profiles of `tests/chaos_matrix.rs`
/// run under.
fn tight_deadline() -> ClientTimeouts {
    ClientTimeouts {
        total: Duration::from_millis(200),
        ..Default::default()
    }
}

/// The fault plans of `tests/chaos_matrix.rs`, profile by profile.
fn chaos_profile(name: &str) -> (FaultPlanConfig, ClientTimeouts) {
    let relaxed = ClientTimeouts::default();
    match name {
        "clean" => (FaultPlanConfig::default(), relaxed),
        "outage" => {
            let clock = sandwich_types::SlotClock::default();
            let start = clock.unix_ms(clock.day_start(1));
            let faults = FaultPlanConfig {
                outages_ms: vec![(start, start + 43_200_000)],
                ..Default::default()
            };
            (faults, relaxed)
        }
        "burst" => {
            let faults = FaultPlanConfig {
                burst: Some(BurstConfig {
                    enter: 0.2,
                    exit: 0.5,
                    fail_rate: 1.0,
                }),
                ..Default::default()
            };
            (faults, relaxed)
        }
        "latency" => {
            let faults = FaultPlanConfig {
                latency: Some(LatencyConfig {
                    rate: 0.3,
                    min_ms: 1,
                    max_ms: 20,
                }),
                ..Default::default()
            };
            (faults, relaxed)
        }
        "stall" => {
            let faults = FaultPlanConfig {
                stall_rate: 0.15,
                ..Default::default()
            };
            (faults, tight_deadline())
        }
        "corrupt" => {
            let faults = FaultPlanConfig {
                corrupt_rate: 0.1,
                ..Default::default()
            };
            (faults, relaxed)
        }
        "429" => {
            let faults = FaultPlanConfig {
                rate_429: 0.2,
                retry_after_ms: 20,
                ..Default::default()
            };
            (faults, relaxed)
        }
        "kitchen-sink" => {
            let faults = FaultPlanConfig {
                burst: Some(BurstConfig {
                    enter: 0.1,
                    exit: 0.5,
                    fail_rate: 0.8,
                }),
                uniform_503_rate: 0.05,
                rate_429: 0.05,
                retry_after_ms: 20,
                stall_rate: 0.03,
                truncate_rate: 0.03,
                corrupt_rate: 0.03,
                latency: Some(LatencyConfig {
                    rate: 0.2,
                    min_ms: 1,
                    max_ms: 10,
                }),
                ..Default::default()
            };
            (faults, tight_deadline())
        }
        other => panic!("no chaos profile named {other}"),
    }
}

/// One measurement of the tiny scenario (scheduled downtime cleared) under
/// a chaos profile, with the chaos matrix's test-scale retry ladder.
async fn run_profile(name: &str) -> MeasurementRun {
    let (faults, timeouts) = chaos_profile(name);
    let scenario = ScenarioConfig {
        downtime_days: vec![],
        ..ScenarioConfig::tiny()
    };
    let pipeline = PipelineConfig {
        explorer: ExplorerConfig {
            faults,
            ..Default::default()
        },
        collector: CollectorConfig {
            page_limit: sandwich_core::scaled_page_limit(&scenario, 1),
            detail_batch: 100,
            retry: RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(40),
                ..Default::default()
            },
            timeouts,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sim = Simulation::new(scenario);
    sandwich_core::run_measurement(&mut sim, pipeline)
        .await
        .unwrap()
}

/// `client.connections.{dialed, reused, discarded}` as the run published
/// them.
fn connection_counts(run: &MeasurementRun) -> [u64; 3] {
    ["dialed", "reused", "discarded"].map(|name| {
        run.metrics
            .counter(&format!("client.connections.{name}"))
            .unwrap_or_else(|| panic!("client.connections.{name} was never published"))
    })
}

/// The no-replay property: every attempt the collector made reached an
/// explorer handler exactly once, whatever then happened to the response.
fn assert_requests_equal_attempts(name: &str, run: &MeasurementRun) {
    let seen = run
        .metrics
        .counter("explorer.bundles_requests")
        .unwrap_or(0)
        + run
            .metrics
            .counter("explorer.transactions_requests")
            .unwrap_or(0);
    let attempts = run.collector_stats.attempts;
    assert!(attempts > 0, "{name}: the collector made no attempt");
    assert_eq!(
        seen, attempts,
        "{name}: the explorer handled {seen} requests for {attempts} collector attempts"
    );
    // Every attempt rode a connection, dialled or reused; none was dialled
    // for nothing.
    let [dialed, reused, _] = connection_counts(run);
    assert_eq!(dialed + reused, attempts, "{name}: connections vs attempts");
}

/// What a run put on disk, to the byte: every sealed segment's file name,
/// bundle count and checksum, and the poll ledger.
fn sealed_bytes(run: &MeasurementRun) -> (Vec<(String, u64, String)>, Vec<u8>) {
    let segments = run
        .store
        .as_ref()
        .expect("every run seals a store")
        .segments();
    let sealed = segments
        .iter()
        .map(|m| (m.file.clone(), m.bundles, m.checksum.clone()))
        .collect();
    (sealed, serde_json::to_vec(run.dataset.polls()).unwrap())
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn no_request_is_replayed_under_deadline_driven_profiles() {
    for name in ["latency", "stall", "corrupt", "429", "kitchen-sink"] {
        let run = run_profile(name).await;
        assert_requests_equal_attempts(name, &run);
        assert!(
            run.metrics.counter_sum("faults.injected.") > 0,
            "{name}: the profile injected nothing"
        );
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn deadline_free_profiles_repeat_exactly_connection_counts_included() {
    for name in ["clean", "outage", "burst"] {
        let first = run_profile(name).await;
        let second = run_profile(name).await;
        assert_requests_equal_attempts(name, &first);
        assert_requests_equal_attempts(name, &second);
        assert_eq!(
            first.collector_stats.attempts, second.collector_stats.attempts,
            "{name}: attempts differ between same-seed runs"
        );
        assert_eq!(
            connection_counts(&first),
            connection_counts(&second),
            "{name}: client.connections.* differ between same-seed runs"
        );
        assert!(!sealed_bytes(&first).0.is_empty(), "{name}: sealed nothing");
        assert!(
            sealed_bytes(&first) == sealed_bytes(&second),
            "{name}: same-seed runs sealed different segments or poll ledgers"
        );
        if name == "clean" {
            // With nothing injected the whole run rides one connection.
            assert_eq!(connection_counts(&first)[0], 1, "clean: dialed");
        } else {
            // A dropped or refused exchange costs its connection: the pool
            // is in play on these profiles, not idle.
            assert!(first.collector_stats.polls_failed > 0, "{name} never bit");
        }
    }
}

// ------------------------------------------------------- router → shards

fn seed_scale_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sw-transport-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create(&dir).unwrap();
    writer
        .set_validators(ValidatorSpec::new(20_250_209, 16))
        .unwrap();
    let scale = ScaleConfig {
        bundles: 2_000,
        segment_bundles: 128,
        days: 2,
        ..ScaleConfig::default()
    };
    generate(&mut writer, &scale).unwrap();
    drop(writer.into_reader());
    dir
}

/// `GET /api/sandwiches?from_slot=..&to_slot=..&limit=..` as the typed
/// request the engine evaluates.
fn sandwiches_request(path: &str) -> QueryRequest {
    let (route, query) = path.split_once('?').unwrap();
    let request = Request {
        method: Method::Get,
        path: route.to_string(),
        query: query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        params: Default::default(),
        headers: Default::default(),
        body: Default::default(),
    };
    QueryRequest::parse("sandwiches", &request).unwrap()
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn router_legs_ride_a_bounded_pool_and_still_fail_closed() {
    const QUERIES: u64 = 200;
    const SHARDS: usize = 2;
    let dir = seed_scale_store("router");
    let map = ShardMap::plan(BundleStore::open(&dir).unwrap(), SHARDS);
    let registry = Registry::new();

    // The parts `ServingCluster::serve` assembles, by hand, so that a shard
    // server can be inspected and killed on its own.
    let mut servers = Vec::new();
    for shard in 0..SHARDS {
        let service = ShardService::open(ShardConfig::new(shard), &map, registry.clone()).unwrap();
        servers.push(Server::bind("127.0.0.1:0", service.router()).await.unwrap());
    }
    let router = RouterService::new(
        servers.iter().map(Server::local_addr).collect(),
        map.store().generation().to_string(),
        RouterConfig::default(),
        registry.clone(),
    );
    let router_server = Server::bind("127.0.0.1:0", router.router()).await.unwrap();
    let client = HttpClient::new(router_server.local_addr());

    // 200 distinct slot windows: no router cache hit, so every query fans
    // out to both shards, and every body must match a fresh single engine.
    let reference = QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();
    let engine = reference.engine_snapshot();
    let max_slot = engine.index().totals.max_slot.max(QUERIES);
    for i in 0..QUERIES {
        let path = format!(
            "/api/sandwiches?from_slot={}&to_slot={}&limit=50",
            i * max_slot / (2 * QUERIES),
            max_slot + 1 + i
        );
        let served = client.get(&path).await.unwrap();
        let expected = engine.evaluate(&sandwiches_request(&path));
        assert_eq!(served.status, expected.status, "{path}");
        assert!(
            served.body[..] == expected.body[..],
            "{path}: routed body diverged from the single engine"
        );
    }

    let counter = |name: &str| registry.snapshot().counter(name).unwrap_or(0);
    assert_eq!(counter("query.shard.fanouts"), QUERIES);
    let dialed = counter("query.shard.connections.dialed");
    let reused = counter("query.shard.connections.reused");
    assert_eq!(
        dialed + reused,
        QUERIES * SHARDS as u64,
        "one leg per shard"
    );
    assert!(
        dialed <= (HttpClient::MAX_IDLE * SHARDS) as u64,
        "{dialed} connections dialled for {QUERIES} sequential queries"
    );
    for (shard, server) in servers.iter().enumerate() {
        let open = server.open_connections();
        assert!(
            (1..=HttpClient::MAX_IDLE).contains(&open),
            "shard {shard} holds {open} connections open"
        );
    }
    assert_eq!(client.stats().dialed, 1, "and one to the router itself");

    // Kill a shard: the router's idle connection to it is found dead before
    // a byte is sent, the re-dial is refused, and the uncached fan-out fails
    // closed with the retryable 503 — never a partial merge, never a hang.
    servers.pop().unwrap().shutdown().await;
    let failed = client
        .get(&format!(
            "/api/sandwiches?from_slot=0&to_slot={}&limit=7",
            max_slot + 1_000
        ))
        .await
        .unwrap();
    assert_eq!(failed.status, 503, "uncached fan-out must fail closed");
    let body = String::from_utf8_lossy(&failed.body).to_string();
    assert!(body.contains("scatter-gather failed"), "{body}");
    assert_eq!(counter("query.shard.connections.discarded"), 1);
    assert_eq!(counter("query.shard.fanout_failures"), 1);

    for server in servers {
        server.shutdown().await;
    }
    router_server.shutdown().await;
    std::fs::remove_dir_all(&dir).unwrap();
}
