//! `shardd` — the sharded analytics API daemon.
//!
//! Opens a sealed bundle store, partitions it across N shard engines per
//! the shard map planned from its manifest, and serves the same `/api/*`
//! surface as `queryd` through a scatter-gather router.
//! Every shard gets its own listener; the router talks to them over HTTP,
//! so a multi-node deployment is a config change, not a rewrite.
//!
//! Environment:
//! - `SANDWICH_SHARD_STORE`   — store directory (default `collector.store`)
//! - `SANDWICH_SHARD_ADDR`    — router bind address (default `127.0.0.1:8080`)
//! - `SANDWICH_SHARDS`        — shard count (default 4)
//! - `SANDWICH_SHARD_THREADS` — total index-build workers, split across
//!   shards (default 4)
//! - `SANDWICH_SHARD_MAX_INFLIGHT` — router admission-control bound
//!   (default 256)
//! - `SANDWICH_SHARDD_ONCE=1` — exit right after startup (smoke tests)
//!
//! `GET /healthz` answers 200 while the router serves; `GET /readyz`
//! aggregates shard readiness and stays 200 while at least one shard is
//! ready (`degraded: true` when some are not).
//!
//! The daemon watches the manifest (cheap stat, no JSON parse) every few
//! seconds; when a seal or a rebalance lands it re-plans the shard map,
//! installs the new slices on every shard, and moves the router forward
//! atomically; a failed reload is retried on the next tick. The router's
//! `/api/live` merges per-shard live pages so the streaming tail is
//! byte-identical to a single-engine `queryd`.

use sandwich_obs::Registry;
use sandwich_query::ladder::follow_seals;
use sandwich_shard::{ClusterConfig, ServingCluster};
use sandwich_types::env::env_or;

fn main() {
    let store_dir = env_or("SANDWICH_SHARD_STORE", String::from("collector.store"));
    let addr = env_or("SANDWICH_SHARD_ADDR", String::from("127.0.0.1:8080"));
    let shards: usize = env_or("SANDWICH_SHARDS", 4);
    let threads: usize = env_or("SANDWICH_SHARD_THREADS", 4);
    let max_in_flight: usize = env_or("SANDWICH_SHARD_MAX_INFLIGHT", 256);
    let once = env_or("SANDWICH_SHARDD_ONCE", String::from("0")) == "1";

    let mut config = ClusterConfig::new(&store_dir, shards);
    config.router_addr = addr.clone();
    config.query.threads = threads;
    config.max_in_flight = max_in_flight;
    let registry = Registry::new();

    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    runtime.block_on(async move {
        let cluster = match ServingCluster::serve(config, registry).await {
            Ok(cluster) => cluster,
            Err(e) => {
                eprintln!("shardd: cannot serve store at {store_dir}: {e}");
                std::process::exit(2);
            }
        };
        println!(
            "shardd: serving store {} on http://{} across {} shards (generation {})",
            store_dir,
            cluster.router_addr(),
            cluster.shard_addrs().len(),
            cluster.generation()
        );
        if once {
            cluster.shutdown().await;
            return;
        }
        let reload = || Ok(cluster.reload()?.then(|| cluster.generation()));
        follow_seals(&store_dir, "shardd", reload).await
    });
}
