//! [`ShardService`] — the shard-partial [`Backend`]: one shard's engine
//! behind the `sandwich_query::serve` skeleton, answering `/shard/*`.
//!
//! A shard owns a slice of the manifest (per the [`crate::ShardMap`]
//! planned for it) and never opens the store: it brings its index over
//! exactly that slice of the map's snapshot ([`crate::ShardMap::store`])
//! up the same load → fold → rebuild ladder `queryd` uses
//! (`sandwich_query::ladder`), persists it under a shard-and-fingerprint-
//! qualified file name (`query-index.shard-{i}of{n}-{fp}.bin`, same
//! `SWQIX02` frame), and serves merge-ready partials from its own response
//! cache. A partial's body carries no generation: the skeleton's
//! `x-query-generation` header names the one it was computed at, and that
//! is what the router checks. Coverage is exact per shard: a shard whose
//! slice contains quarantined or unreadable segments reports them in its
//! own coverage block, and the router's sum reproduces the whole-store
//! block.

use std::sync::Arc;

use parking_lot::RwLock;

use sandwich_net::{Request, Router};
use sandwich_obs::{names, Registry};
use sandwich_query::ladder::{bring_up, IndexScope};
use sandwich_query::render::{json_response, DETAIL_REF_CAP};
use sandwich_query::{
    first_ref_after_cursor, live_minutes, AttackerEntry, Backend, CachedResponse, Engine,
    PoolEntry, QueryConfig, QueryIndex, SandwichRef, Serving, ValidatorEntry,
};
use sandwich_types::{Hash, Pubkey};

use crate::map::ShardMap;
use crate::merge::{
    AttackerDetailPartial, AttackersPartial, DaysPartial, LivePartial, PoolDetailPartial,
    RangePartial, ShardQuery, SummaryPartial, ValidatorDetailPartial, ValidatorsPartial,
};

/// File name of one shard's persisted index: qualified by shard id, shard
/// count, and the assignment fingerprint so a re-plan never aliases a
/// stale index (the generation inside the frame is still checked on load).
pub fn shard_index_file(shard: usize, shards: usize, fingerprint: &str) -> String {
    format!("query-index.shard-{shard}of{shards}-{fingerprint}.bin")
}

/// Leading file-name prefix of every per-shard index (for garbage
/// collection of stale fingerprints).
pub const SHARD_INDEX_PREFIX: &str = "query-index.shard-";

/// Tunables for one shard service (the store is the map's snapshot).
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Index-build semantics (detector, threshold, clock, threads).
    pub query: QueryConfig,
    /// This shard's id (index into the shard map).
    pub shard: usize,
}

impl ShardConfig {
    /// Paper-default semantics for shard `shard`.
    pub fn new(shard: usize) -> Self {
        ShardConfig {
            query: QueryConfig::default(),
            shard,
        }
    }
}

/// The engine serving and the index file it persists under — which names
/// the assignment (shard count and fingerprint) it was built for.
struct ShardState {
    engine: Arc<Engine>,
    file: String,
}

/// The shard-partial backend: answers are partials over one slice.
struct ShardPartials {
    config: ShardConfig,
    state: RwLock<ShardState>,
    registry: Registry,
}

/// One shard: an engine over its manifest slice plus the partial API.
#[derive(Clone)]
pub struct ShardService {
    serving: Arc<Serving<ShardPartials>>,
}

/// Bring this shard's slice of the index, as `map` assigns it, to the
/// generation of the map's snapshot — folding forward from `live` (the
/// index being served) when the slice only grew.
fn bring_up_slice(
    config: &ShardConfig,
    map: &ShardMap,
    live: Option<&QueryIndex>,
    registry: &Registry,
) -> std::io::Result<ShardState> {
    let (serving, quarantined) = map.resolve(config.shard)?;
    let scope = IndexScope {
        serving,
        quarantined,
        file: index_file_under(config.shard, map)?,
    };
    let index = bring_up(map.store(), &scope, live, &config.query, registry)?;
    Ok(ShardState {
        engine: Arc::new(Engine::new(Arc::new(index))),
        file: scope.file,
    })
}

/// The index file of `shard` under the assignment `map` gives it.
pub(crate) fn index_file_under(shard: usize, map: &ShardMap) -> std::io::Result<String> {
    let fingerprint = map.fingerprint(shard)?;
    Ok(shard_index_file(shard, map.shard_count(), &fingerprint))
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
        let state = bring_up_slice(&config, map, None, &registry)?;
        let backend = ShardPartials {
            config,
            state: RwLock::new(state),
            registry: registry.clone(),
        };
        Ok(ShardService {
            // Unbounded: the router in front of a shard is what sheds.
            serving: Serving::new(backend, usize::MAX, registry),
        })
    }

    /// Swap in the engine for a (possibly new) shard map — the reload
    /// path after a seal or a rebalance. Returns `true` when a different
    /// generation or assignment went live. A failed install (a map with
    /// fewer shards than this one's id, say) keeps the last good engine
    /// serving and flips `/readyz` until one succeeds.
    pub fn install(&self, map: &ShardMap) -> std::io::Result<bool> {
        self.serving.track(self.install_inner(map))
    }

    fn install_inner(&self, map: &ShardMap) -> std::io::Result<bool> {
        let shard = &self.serving.backend;
        let file = index_file_under(shard.config.shard, map)?;
        let live = {
            let state = shard.state.read();
            if state.engine.generation() == map.store().generation() && state.file == file {
                return Ok(false);
            }
            state.engine.clone()
        };
        let state = bring_up_slice(&shard.config, map, Some(live.index()), &shard.registry)?;
        *shard.state.write() = state;
        shard.registry.counter(names::QUERY_RELOADS).inc();
        Ok(true)
    }

    /// The generation currently being served.
    pub fn generation(&self) -> String {
        self.serving.backend.snapshot().generation().to_string()
    }

    /// The partial API router (plus the probes and `GET /metrics`).
    pub fn router(&self) -> Router {
        self.serving.router()
    }
}

impl Backend for ShardPartials {
    const PUBLIC: bool = false;
    type Query = ShardQuery;
    type Snapshot = Arc<Engine>;

    fn snapshot(&self) -> Arc<Engine> {
        self.state.read().engine.clone()
    }

    fn generation(engine: &Arc<Engine>) -> &str {
        engine.generation()
    }

    fn parse(kind: &str, request: &Request) -> Result<ShardQuery, String> {
        ShardQuery::parse(kind, request)
    }

    fn canonical_key(query: &ShardQuery) -> String {
        query.path()
    }

    async fn evaluate(&self, engine: &Arc<Engine>, query: &ShardQuery) -> CachedResponse {
        match query {
            ShardQuery::Summary => summary_partial(engine),
            ShardQuery::Days => partial(&DaysPartial {
                days: engine.index().days.clone(),
            }),
            ShardQuery::Attackers => partial(&AttackersPartial {
                entries: wire_attackers(engine),
            }),
            ShardQuery::Attacker(pubkey) => attacker_detail_partial(engine, pubkey),
            ShardQuery::Pool(mint) => pool_detail_partial(engine, mint),
            ShardQuery::Validators => partial(&ValidatorsPartial {
                entries: wire_validators(engine),
            }),
            ShardQuery::Validator(pubkey) => validator_detail_partial(engine, pubkey),
            ShardQuery::Range {
                from_slot,
                to_slot,
                need,
            } => range_partial(engine, *from_slot, *to_slot, *need),
            ShardQuery::Live {
                after_slot,
                after_id,
                need,
            } => live_partial(engine, *after_slot, after_id, *need),
        }
    }

    fn health_fields(&self) -> (String, String) {
        (format!(",\"shard\":{}", self.config.shard), String::new())
    }

    async fn ready(&self, engine: &Arc<Engine>) -> (bool, String) {
        let complete = engine.index().coverage.complete();
        let shard = self.config.shard;
        (true, format!(",\"shard\":{shard},\"complete\":{complete}"))
    }
}

/// A wire partial: `200` and the JSON body the router decodes.
fn partial<T: serde::Serialize>(value: &T) -> CachedResponse {
    json_response(200, value)
}

fn summary_partial(engine: &Engine) -> CachedResponse {
    let index = engine.index();
    partial(&SummaryPartial {
        coverage: index.coverage.clone(),
        totals: index.totals.clone(),
        days: index.days.len() as u64,
        attacker_keys: index.attackers.iter().map(|e| e.attacker).collect(),
        pool_keys: index.pools.iter().map(|e| e.mint).collect(),
    })
}

/// Entries with refs cleared: rank and row data only, off the wire.
fn wire_attackers(engine: &Engine) -> Vec<AttackerEntry> {
    engine
        .index()
        .attackers
        .iter()
        .map(|e| AttackerEntry {
            refs: Vec::new(),
            ..e.clone()
        })
        .collect()
}

fn wire_pools(engine: &Engine) -> Vec<PoolEntry> {
    engine
        .index()
        .pools
        .iter()
        .map(|e| PoolEntry {
            refs: Vec::new(),
            ..e.clone()
        })
        .collect()
}

/// Entries with refs cleared; `sandwich_slots` stays on the wire
/// (the router's distinct-block merge needs the slot union).
fn wire_validators(engine: &Engine) -> Vec<ValidatorEntry> {
    engine
        .validator_entries()
        .iter()
        .map(|e| ValidatorEntry {
            refs: Vec::new(),
            ..e.clone()
        })
        .collect()
}

fn validator_detail_partial(engine: &Engine, pubkey: &Pubkey) -> CachedResponse {
    let recent = engine
        .validator_entry(pubkey)
        .map(|(_, entry)| engine.ref_tail(&entry.refs, DETAIL_REF_CAP))
        .unwrap_or_default();
    partial(&ValidatorDetailPartial {
        entries: wire_validators(engine),
        recent,
    })
}

fn attacker_detail_partial(engine: &Engine, pubkey: &Pubkey) -> CachedResponse {
    let recent = engine
        .attacker_entry(pubkey)
        .map(|(_, entry)| engine.ref_tail(&entry.refs, DETAIL_REF_CAP))
        .unwrap_or_default();
    partial(&AttackerDetailPartial {
        entries: wire_attackers(engine),
        recent,
    })
}

fn pool_detail_partial(engine: &Engine, mint: &Pubkey) -> CachedResponse {
    let (attackers, recent) = match engine.pool_entry(mint) {
        None => (Vec::new(), Vec::new()),
        Some((_, entry)) => {
            let all: Vec<SandwichRef> = engine.ref_tail(&entry.refs, usize::MAX);
            let set: std::collections::BTreeSet<Pubkey> = all.iter().map(|r| r.attacker).collect();
            (
                set.into_iter().collect(),
                engine.ref_tail(&entry.refs, DETAIL_REF_CAP),
            )
        }
    };
    partial(&PoolDetailPartial {
        pools: wire_pools(engine),
        attackers,
        recent,
    })
}

fn range_partial(engine: &Engine, from_slot: u64, to_slot: u64, need: usize) -> CachedResponse {
    let refs = &engine.index().refs;
    let start = sandwich_query::index::first_ref_at_or_after(refs, from_slot);
    let end = match to_slot.checked_add(1) {
        Some(bound) => sandwich_query::index::first_ref_at_or_after(refs, bound),
        None => refs.len(),
    };
    let in_range = &refs[start..end];
    partial(&RangePartial {
        total: in_range.len() as u64,
        refs: in_range.iter().take(need).cloned().collect(),
    })
}

fn live_partial(engine: &Engine, after_slot: u64, after_id: &Hash, need: usize) -> CachedResponse {
    let index = engine.index();
    let refs = &index.refs;
    let start = first_ref_after_cursor(refs, after_slot, after_id);
    let after = &refs[start..];
    partial(&LivePartial {
        tip_slot: index.totals.max_slot,
        total_after: after.len() as u64,
        refs: after.iter().take(need).cloned().collect(),
        minutes: live_minutes(refs, index.totals.max_slot),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_store::{CollectedBundle, StoreWriter};
    use sandwich_types::{Keypair, Lamports, Slot};

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
