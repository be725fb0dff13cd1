//! API-contract tests for the explorer service, exercised from the outside
//! over real HTTP — the boundary the paper reverse-engineered.

use std::sync::Arc;

use parking_lot::RwLock;
use sandwich_explorer::{
    Explorer, ExplorerConfig, HistoryStore, RecentBundlesResponse, RetentionPolicy,
    TxDetailsRequest, TxDetailsResponse,
};
use sandwich_jito::LandedBundle;
use sandwich_net::HttpClient;
use sandwich_types::{Hash, Keypair, Lamports, Slot, SlotClock};

fn landed(slot: u64, len: usize, tip: u64, seed: u64) -> LandedBundle {
    let kp = Keypair::from_label("api");
    LandedBundle {
        bundle_id: Hash::digest(&seed.to_le_bytes()),
        slot: Slot(slot),
        tip: Lamports(tip),
        metas: (0..len)
            .map(|i| sandwich_ledger::TransactionMeta {
                tx_id: kp.sign(&(seed * 100 + i as u64).to_le_bytes()),
                signer: kp.pubkey(),
                fee: Lamports(5_000),
                priority_fee: Lamports::ZERO,
                success: true,
                error: None,
                sol_deltas: vec![],
                token_deltas: vec![],
            })
            .collect(),
    }
}

async fn start(bundles: Vec<LandedBundle>, cfg: ExplorerConfig) -> Explorer {
    let mut store = HistoryStore::new(SlotClock::default(), RetentionPolicy::All);
    for b in &bundles {
        store.record_bundle(b);
    }
    Explorer::start(Arc::new(RwLock::new(store)), cfg)
        .await
        .unwrap()
}

#[tokio::test]
async fn wire_format_is_camel_case_json() {
    let explorer = start(vec![landed(7, 2, 9_000, 1)], ExplorerConfig::default()).await;
    let client = HttpClient::new(explorer.addr());
    let raw = client.get("/api/v1/bundles?limit=1").await.unwrap();
    assert_eq!(raw.status, 200);
    assert_eq!(raw.header_value("content-type"), Some("application/json"));
    let text = String::from_utf8_lossy(&raw.body).to_string();
    for field in ["bundleId", "tipLamports", "timestampMs", "transactions"] {
        assert!(text.contains(field), "missing {field} in {text}");
    }
    explorer.shutdown().await;
}

#[tokio::test]
async fn default_page_is_200_like_the_real_site() {
    let bundles: Vec<_> = (0..300).map(|i| landed(i, 1, 1_000, i)).collect();
    let explorer = start(bundles, ExplorerConfig::default()).await;
    let client = HttpClient::new(explorer.addr());
    let page: RecentBundlesResponse = client.get_json("/api/v1/bundles").await.unwrap();
    assert_eq!(
        page.bundles.len(),
        200,
        "undocumented default the paper found"
    );
    explorer.shutdown().await;
}

#[tokio::test]
async fn pages_are_newest_first_and_consistent() {
    let bundles: Vec<_> = (0..50).map(|i| landed(i, 1, 1_000, i)).collect();
    let explorer = start(bundles, ExplorerConfig::default()).await;
    let client = HttpClient::new(explorer.addr());
    let page: RecentBundlesResponse = client.get_json("/api/v1/bundles?limit=50").await.unwrap();
    let slots: Vec<u64> = page.bundles.iter().map(|b| b.slot).collect();
    let mut sorted = slots.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(slots, sorted, "newest first");
    // Smaller page is a strict prefix.
    let small: RecentBundlesResponse = client.get_json("/api/v1/bundles?limit=10").await.unwrap();
    assert_eq!(
        small
            .bundles
            .iter()
            .map(|b| b.bundle_id)
            .collect::<Vec<_>>(),
        page.bundles[..10]
            .iter()
            .map(|b| b.bundle_id)
            .collect::<Vec<_>>(),
    );
    explorer.shutdown().await;
}

#[tokio::test]
async fn detail_response_aligns_with_request_order() {
    let b = landed(3, 3, 5_000, 42);
    let ids = [b.metas[2].tx_id, b.metas[0].tx_id];
    let explorer = start(vec![b], ExplorerConfig::default()).await;
    let client = HttpClient::new(explorer.addr());
    let unknown = Keypair::from_label("ghost").sign(b"x");
    let resp: TxDetailsResponse = client
        .post_json(
            "/api/v1/transactions",
            &TxDetailsRequest {
                tx_ids: vec![ids[0], unknown, ids[1]],
            },
        )
        .await
        .unwrap();
    assert_eq!(resp.transactions.len(), 3);
    assert_eq!(resp.transactions[0].as_ref().unwrap().tx_id, ids[0]);
    assert!(resp.transactions[1].is_none());
    assert_eq!(resp.transactions[2].as_ref().unwrap().tx_id, ids[1]);
    explorer.shutdown().await;
}

#[tokio::test]
async fn unknown_routes_and_methods() {
    let explorer = start(vec![], ExplorerConfig::default()).await;
    let client = HttpClient::new(explorer.addr());
    assert_eq!(client.get("/api/v2/bundles").await.unwrap().status, 404);
    assert_eq!(
        client.post("/api/v1/bundles", vec![]).await.unwrap().status,
        405
    );
    assert_eq!(
        client.get("/api/v1/transactions").await.unwrap().status,
        405
    );
    explorer.shutdown().await;
}

#[tokio::test]
async fn retention_policy_hides_untracked_lengths() {
    let mut store = HistoryStore::new(SlotClock::default(), RetentionPolicy::OnlyBundleLength(3));
    let b1 = landed(1, 1, 1_000, 1);
    let b3 = landed(2, 3, 1_000, 2);
    store.record_bundle(&b1);
    store.record_bundle(&b3);
    let explorer = Explorer::start(Arc::new(RwLock::new(store)), ExplorerConfig::default())
        .await
        .unwrap();
    let client = HttpClient::new(explorer.addr());
    let resp: TxDetailsResponse = client
        .post_json(
            "/api/v1/transactions",
            &TxDetailsRequest {
                tx_ids: vec![b1.metas[0].tx_id, b3.metas[0].tx_id],
            },
        )
        .await
        .unwrap();
    assert!(resp.transactions[0].is_none(), "len-1 details not retained");
    assert!(resp.transactions[1].is_some());
    explorer.shutdown().await;
}

#[tokio::test]
async fn collector_degrades_gracefully_under_rate_limit() {
    // 1 request/sec budget, collector hammers; some polls fail, none panic,
    // dataset stays consistent.
    let bundles: Vec<_> = (0..20).map(|i| landed(i, 1, 1_000, i)).collect();
    let explorer = start(
        bundles,
        ExplorerConfig {
            rate_limit: Some((2, 1.0)),
            ..Default::default()
        },
    )
    .await;
    let mut collector = sandwich_core::Collector::new(
        explorer.addr(),
        sandwich_core::CollectorConfig {
            page_limit: 10,
            retry: sandwich_net::RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let clock = SlotClock::default();
    let now = clock.unix_ms(Slot(20));
    let mut failures = 0;
    for i in 0..6u64 {
        if collector.poll_bundles(&clock, 0, now + i).await.is_err() {
            failures += 1;
        }
    }
    assert!(failures >= 3, "rate limit bit: {failures} failures");
    assert!(collector.dataset.len() <= 10);
    explorer.shutdown().await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn metrics_endpoint_serves_live_counters_during_run() {
    use sandwich_core::{Collector, CollectorConfig};
    use sandwich_obs::Registry;
    use sandwich_sim::{ScenarioConfig, Simulation};

    // One registry shared by every layer, scraped over HTTP mid-run.
    let registry = Registry::new();
    let mut sim = Simulation::new(ScenarioConfig::tiny());
    sim.attach_registry(&registry);
    let clock = sim.clock();

    let store = Arc::new(RwLock::new(HistoryStore::new(clock, RetentionPolicy::All)));
    let explorer =
        Explorer::start_with_registry(store.clone(), ExplorerConfig::default(), registry.clone())
            .await
            .unwrap();
    let mut collector = Collector::with_registry(
        explorer.addr(),
        CollectorConfig {
            page_limit: 500,
            detail_batch: 100,
            ..Default::default()
        },
        &registry,
    );

    let mut tick = 0u64;
    let mut now_ms = 0u64;
    while let Some(outcome) = sim.step() {
        store.write().record_slot(&outcome.result);
        now_ms = clock.unix_ms(outcome.result.block.slot);
        if tick.is_multiple_of(4) {
            let _ = collector.poll_bundles(&clock, outcome.day, now_ms).await;
        }
        tick += 1;
    }
    collector.fetch_pending_details(now_ms).await.unwrap();

    let snap = registry.snapshot();
    for prefix in ["sim.", "engine.", "bank.", "explorer.", "collector."] {
        assert!(snap.counter_sum(prefix) > 0, "no live {prefix} counters");
    }

    // The JSON scrape carries the same live values.
    let client = HttpClient::new(explorer.addr());
    let resp = client.get("/metrics").await.unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header_value("content-type"), Some("application/json"));
    let body = String::from_utf8(resp.body.to_vec()).unwrap();
    for (name, value) in [
        ("sim.ticks", snap.counter("sim.ticks").unwrap()),
        (
            "bank.tx_executed",
            snap.counter("bank.tx_executed").unwrap(),
        ),
        (
            "collector.polls_ok",
            snap.counter("collector.polls_ok").unwrap(),
        ),
        (
            "explorer.bundles_requests",
            snap.counter("explorer.bundles_requests").unwrap(),
        ),
    ] {
        assert!(value > 0, "{name} stayed zero");
        assert!(
            body.contains(&format!("\"{name}\":{value}")),
            "missing {name}={value} in {body}"
        );
    }

    // And the Prometheus rendering serves the same registry.
    let prom = client.get("/metrics?format=prometheus").await.unwrap();
    let text = String::from_utf8(prom.body.to_vec()).unwrap();
    assert!(text.contains("# TYPE sim_ticks counter"), "{text}");
    assert!(text.contains("engine_tip_lamports_bucket"), "{text}");

    explorer.shutdown().await;
}
