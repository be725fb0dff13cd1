//! Single-process cluster assembly: N shard listeners plus the router.
//!
//! The shard boundary is a socket from day one — every shard gets its own
//! listener and the router talks to them over HTTP exactly as it would
//! across machines — so moving a shard to another host is a config
//! change, not a rewrite. [`ServingCluster`] owns the whole stack: open
//! the store once, plan the [`crate::ShardMap`] from that snapshot, build
//! each shard's engine from it, bind the listeners, and put the
//! scatter-gather router in front at the snapshot's generation.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;

use sandwich_net::Server;
use sandwich_obs::Registry;
use sandwich_query::QueryConfig;
use sandwich_store::BundleStore;

use crate::map::{ShardMap, SHARD_INDEX_PREFIX};
use crate::router::{RouterConfig, RouterService};
use crate::shard::{ShardConfig, ShardService};

/// Tunables for one serving cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Directory of the sealed bundle store.
    pub store_dir: PathBuf,
    /// Number of shards to partition the store across (zero serves one).
    pub shards: usize,
    /// How the index builds run, applied to every shard. `query.threads` is
    /// the *total* thread budget; it is split across shard builds.
    pub query: QueryConfig,
    /// Bind address for the router listener.
    pub router_addr: String,
    /// Router admission-control bound.
    pub max_in_flight: usize,
}

/// Bind address of every shard listener: loopback, ephemeral port. Shards
/// are an internal face; only the router's address is a deployment choice.
const SHARD_ADDR: &str = "127.0.0.1:0";

impl ClusterConfig {
    /// Defaults: `shards` shards over `store_dir`, all
    /// listeners on ephemeral loopback ports.
    pub fn new(store_dir: impl Into<PathBuf>, shards: usize) -> Self {
        ClusterConfig {
            store_dir: store_dir.into(),
            shards: shards.max(1),
            query: QueryConfig::default(),
            router_addr: "127.0.0.1:0".to_string(),
            max_in_flight: 256,
        }
    }
}

/// A live sharded deployment: N shard servers, their services, and the
/// router server in front.
pub struct ServingCluster {
    config: ClusterConfig,
    services: Vec<ShardService>,
    shard_servers: Vec<Server>,
    router: RouterService,
    router_server: Server,
}

/// Remove per-shard index files that no current assignment references
/// (left behind by rebalances and shard-count changes). Best-effort: a
/// failure to remove is ignored, a stale file only costs disk.
fn gc_stale_shard_indexes(map: &ShardMap) {
    let expected: std::collections::BTreeSet<&str> =
        map.shards.iter().map(|scope| scope.file.as_str()).collect();
    let Ok(entries) = std::fs::read_dir(map.store().dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with(SHARD_INDEX_PREFIX) && !expected.contains(name.as_str()) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

impl ServingCluster {
    /// Open the store, plan the shard map, build every shard's engine,
    /// and serve: N shard listeners plus the router.
    pub async fn serve(config: ClusterConfig, registry: Registry) -> io::Result<ServingCluster> {
        let map = ShardMap::plan(BundleStore::open(&config.store_dir)?, config.shards);
        gc_stale_shard_indexes(&map);

        // Split the thread budget across shard builds so an N-shard
        // cluster uses the same total parallelism as a single engine.
        let shards = map.shard_count();
        let per_shard_threads = (config.query.threads / shards).max(1);

        let mut services = Vec::with_capacity(shards);
        let mut shard_servers = Vec::with_capacity(shards);
        let mut shard_addrs = Vec::with_capacity(shards);
        for shard in 0..shards {
            let mut shard_config = ShardConfig::new(shard);
            shard_config.query = config.query.clone();
            shard_config.query.threads = per_shard_threads;
            let service = ShardService::open(shard_config, &map, registry.clone())?;
            let server = Server::bind(SHARD_ADDR, service.router()).await?;
            shard_addrs.push(server.local_addr());
            services.push(service);
            shard_servers.push(server);
        }

        let router = RouterService::new(
            shard_addrs,
            map.store().generation().to_string(),
            RouterConfig {
                max_in_flight: config.max_in_flight,
            },
            registry.clone(),
        );
        let router_server = Server::bind(&config.router_addr, router.router()).await?;

        Ok(ServingCluster {
            config,
            services,
            shard_servers,
            router,
            router_server,
        })
    }

    /// Address of the public `/api/*` listener.
    pub fn router_addr(&self) -> SocketAddr {
        self.router_server.local_addr()
    }

    /// Addresses of the shard partial listeners, in shard order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shard_servers.iter().map(Server::local_addr).collect()
    }

    /// The shard services (for tests that drive installs directly).
    pub fn services(&self) -> &[ShardService] {
        &self.services
    }

    /// The generation the router is serving.
    pub fn generation(&self) -> String {
        self.router.generation()
    }

    /// Open the store once; when that snapshot's generation is new (a seal
    /// or a rebalance landed), re-plan the shard map from it, install its
    /// slices on every shard, then move the router to its generation.
    /// Returns `true` when a new generation went live.
    ///
    /// Ordering matters: shards first, router last. A request racing the
    /// reload either sees the old generation everywhere (served from the
    /// old engines — shards keep them until the install swaps), or the
    /// router already moved and any shard still behind answers at the
    /// wrong generation, which the router converts to a retryable 503 —
    /// never a torn merge. If an install fails midway the router stays on
    /// the old generation and the failed shard flips its `/readyz`.
    pub fn reload(&self) -> io::Result<bool> {
        let store = BundleStore::open(&self.config.store_dir)?;
        if store.generation() == self.router.generation() {
            return Ok(false);
        }
        let map = ShardMap::plan(store, self.services.len());
        for service in &self.services {
            service.install(&map)?;
        }
        gc_stale_shard_indexes(&map);
        self.router
            .set_generation(map.store().generation().to_string());
        Ok(true)
    }

    /// Shut the whole cluster down: router first, then the shards.
    pub async fn shutdown(self) {
        self.router_server.shutdown().await;
        for server in self.shard_servers {
            server.shutdown().await;
        }
    }
}
