//! [`ShardService`] — one shard: the `sandwich_query` engine backend over
//! the shard's slice of the manifest, on the skeleton's shard face,
//! answering `/shard/*`.
//!
//! A shard owns an [`sandwich_query::IndexScope`] of the map's snapshot
//! (per the [`crate::ShardMap`] planned for it) and never opens the store:
//! it brings its index over exactly that scope up the same load → fold →
//! rebuild ladder `queryd` uses, persists it under the scope's shard-and-
//! fingerprint-qualified file name (`query-index.shard-{i}of{n}-{fp}.bin`,
//! same `SWQIX02` frame), and serves merge-ready partials from its own
//! response cache. It speaks the `/api` query language: `GET /shard/` plus
//! any `/api/` path answers with `sandwich_query::Partial::of` that
//! request, the partial the router's one answer path folds. A partial's
//! body carries no generation: the skeleton's `x-query-generation` header
//! names the one it was computed at, and that is what the router checks.
//! Coverage is exact per shard: a shard whose slice contains quarantined
//! or unreadable segments reports them in its own coverage block, and the
//! router's sum reproduces the whole-store block.

use std::sync::Arc;

use sandwich_net::Router;
use sandwich_obs::Registry;
use sandwich_query::{Backend, EngineBackend, QueryConfig, Serving};

use crate::map::ShardMap;

/// Tunables for one shard service (the store is the map's snapshot).
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// How the index build runs (its worker count).
    pub query: QueryConfig,
    /// This shard's id (index into the shard map).
    pub shard: usize,
}

impl ShardConfig {
    /// Defaults for shard `shard`.
    pub fn new(shard: usize) -> Self {
        ShardConfig {
            query: QueryConfig::default(),
            shard,
        }
    }
}

/// One shard: an engine over its manifest slice plus the partial API.
#[derive(Clone)]
pub struct ShardService {
    shard: usize,
    serving: Arc<Serving<EngineBackend>>,
}

impl ShardService {
    /// Load or build this shard's slice of the index per `map`, from the
    /// map's snapshot. A shard id the map does not have is an
    /// `InvalidInput` error. Metrics land in `registry`.
    pub fn open(
        config: ShardConfig,
        map: &ShardMap,
        registry: Registry,
    ) -> std::io::Result<ShardService> {
        let shard = config.shard;
        let scope = map.scope(shard)?;
        let backend =
            EngineBackend::open(map.store(), scope, Some(shard), config.query, &registry)?;
        Ok(ShardService {
            shard,
            serving: Serving::shard(backend, registry),
        })
    }

    /// Swap in the engine for a (possibly new) shard map — the reload
    /// path after a seal or a rebalance. Returns `true` when a different
    /// generation or assignment went live. A failed install (a map with
    /// fewer shards than this one's id, say) keeps the last good engine
    /// serving and flips `/readyz` until one succeeds.
    pub fn install(&self, map: &ShardMap) -> std::io::Result<bool> {
        let installed = map
            .scope(self.shard)
            .and_then(|scope| self.serving.backend.install(map.store(), scope));
        self.serving.track(installed)
    }

    /// The generation currently being served.
    pub fn generation(&self) -> String {
        let engine = self.serving.backend.snapshot();
        engine.generation().to_string()
    }

    /// The partial API router (plus the probes and `GET /metrics`).
    pub fn router(&self) -> Router {
        self.serving.router()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_store::{CollectedBundle, StoreWriter};
    use sandwich_types::{Hash, Keypair, Lamports, Slot};

    #[test]
    fn opening_a_shard_the_map_does_not_have_is_an_error() {
        let dir = std::env::temp_dir().join(format!("sw-shard-range-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = StoreWriter::create(&dir).unwrap();
        let kp = Keypair::from_label("shard-range");
        let bundles = (0..4u64)
            .map(|i| CollectedBundle {
                bundle_id: Hash::digest(&i.to_le_bytes()),
                slot: Slot(10 + i),
                timestamp_ms: i * 400,
                tip: Lamports(30_000),
                tx_ids: vec![kp.sign(&i.to_le_bytes())],
            })
            .collect();
        writer
            .seal_segment(bundles, Vec::new(), Vec::new())
            .unwrap();
        let map = ShardMap::plan(writer.into_reader(), 2);

        let error = ShardService::open(ShardConfig::new(2), &map, Registry::new())
            .err()
            .expect("shard 2 of a 2-shard map");
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
        assert!(error.to_string().contains("shard 2"), "{error}");
        assert!(error.to_string().contains("2 shards"), "{error}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
