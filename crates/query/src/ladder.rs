//! The index lifecycle, once: **load → fold → rebuild** over an
//! [`IndexScope`].
//!
//! Every way an engine comes to serve a manifest generation — `queryd`
//! opening or reloading the whole store, a shard opening or installing
//! its slice of it — climbs the same ladder in [`bring_up`]:
//!
//! 1. **load** — on an open, the frame persisted under the scope's file
//!    name, when it verifies *and* already describes this generation;
//! 2. **fold** — otherwise take a base (the live engine's index on a
//!    reload, the stale-but-valid frame on an open), scan only what the
//!    scope gained since, merge and finalize once. Byte-identical to a
//!    rebuild (`tests/live_fold_props.rs`), so which rung answered is
//!    never observable in a response;
//! 3. **rebuild** — scan the whole scope, when there is no base or it is
//!    not foldable. `query.index.full_rebuilds` counts the second case and
//!    a live-tail deployment expects it to stay zero.
//!
//! Metrics are recorded on the rung where the work happens: a load scans
//! nothing and attributes nothing, a fold counts only what its delta
//! contributed — the refs it joined, the leader groups past the base's
//! `max_slot` it hashed — a rebuild counts the whole index.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use sandwich_core::scan::visit_segment;
use sandwich_obs::{names, Registry};
use sandwich_store::{BundleStore, SealWatcher};

use crate::index::{
    fold_onto, load_index_any, save_index_as, whole_store, IndexReject, QueryConfig, QueryIndex,
    INDEX_FILE,
};

/// What one persisted index covers: a set of entries of one store
/// snapshot's manifest, and the file the frame lives in. `queryd`'s is the
/// whole manifest; a shard's is what its `ShardMap` planned for it.
#[derive(Clone, Debug)]
pub struct IndexScope {
    /// Indexes into [`BundleStore::segments`] the index scans, in
    /// manifest order.
    pub segments: Vec<usize>,
    /// Indexes into [`BundleStore::quarantined`] it accounts for, in
    /// manifest order.
    pub quarantined: Vec<usize>,
    /// File name of its persisted index frame inside the store directory.
    pub file: String,
}

impl IndexScope {
    /// Every entry of the manifest, persisted as [`INDEX_FILE`].
    pub fn whole(store: &BundleStore) -> IndexScope {
        let (segments, quarantined) = whole_store(store);
        IndexScope {
            segments,
            quarantined,
            file: INDEX_FILE.to_string(),
        }
    }
}

/// `(joined, unattributed)`: refs with and without a slot leader.
fn attribution(index: &QueryIndex) -> (u64, u64) {
    let joined = index.refs.iter().filter(|r| r.leader.is_some()).count() as u64;
    (joined, index.refs.len() as u64 - joined)
}

/// Count the attribution work behind `index` beyond what `base` (the
/// [`attribution`] of the index it was folded from, zeros for a rebuild)
/// already carried: one leader schedule when a validator spec was in
/// play, the leader groups `hashed` for the blocks-led denominators, and the
/// refs the scan joined or could not.
fn record_attribution(index: &QueryIndex, base: (u64, u64), hashed: u64, registry: &Registry) {
    if index.validator_spec.is_some() {
        registry.counter(names::ATTRIB_SCHEDULE_BUILDS).inc();
        let groups_hashed = registry.counter(names::ATTRIB_SCHEDULE_GROUPS_HASHED);
        groups_hashed.add(hashed);
    }
    let (joined, unattributed) = attribution(index);
    if joined > base.0 {
        registry.counter(names::ATTRIB_JOINS).add(joined - base.0);
    }
    if unattributed > base.1 {
        registry
            .counter(names::ATTRIB_UNATTRIBUTED)
            .add(unattributed - base.1);
    }
}

/// Rung 2: absorb the generation change by scanning only what `scope`
/// gained since `base` was built. `Ok(None)` when that is not sound and
/// the caller must rebuild.
fn fold(
    store: &BundleStore,
    scope: &IndexScope,
    base: QueryIndex,
    config: &QueryConfig,
    registry: &Registry,
) -> io::Result<Option<QueryIndex>> {
    // A base that skipped segments (degraded build) or predates per-file
    // coverage tracking cannot prove what it already scanned: folding
    // would bake the gap in forever.
    if base.coverage.segments_failed > 0
        || base.segment_files.len() as u64 != base.coverage.segments_total
    {
        return Ok(None);
    }
    // An attribution-stale base — built under a different (or no)
    // validator spec than the manifest now carries — has refs that lack
    // or mis-assign leaders.
    if base.validator_spec != store.manifest().validators {
        registry.counter(names::ATTRIB_SPEC_MISMATCH_REBUILDS).inc();
        return Ok(None);
    }
    // Something the base covers left the scope (compaction, a re-plan
    // that moved it to another shard) or crossed between serving and
    // quarantine: folded aggregates cannot be subtracted.
    let Some(delta) = store.manifest().delta_within(
        &base.segment_files,
        &base.quarantined_files,
        &scope.segments,
        &scope.quarantined,
    ) else {
        return Ok(None);
    };
    let started = Instant::now();
    let carried = attribution(&base);
    let (sealed, isolated) = (&delta.new_serving, &delta.new_quarantined);
    let (folded, hashed) = fold_onto(visit_segment, store, Some(base), sealed, isolated, config)?;
    registry.counter(names::QUERY_INDEX_FOLDS).inc();
    registry
        .counter(names::QUERY_INDEX_FOLD_SEGMENTS)
        .add(delta.len() as u64);
    registry
        .histogram(names::QUERY_INDEX_FOLD_SECONDS)
        .observe(started.elapsed().as_secs_f64());
    record_attribution(&folded, carried, hashed, registry);
    Ok(Some(folded))
}

/// Rung 3: scan every segment of `scope`.
fn rebuild(
    store: &BundleStore,
    scope: &IndexScope,
    config: &QueryConfig,
    registry: &Registry,
) -> io::Result<QueryIndex> {
    let started = Instant::now();
    let (segments, quarantined) = (&scope.segments, &scope.quarantined);
    let (index, hashed) = fold_onto(visit_segment, store, None, segments, quarantined, config)?;
    registry
        .histogram(names::QUERY_INDEX_BUILD_SECONDS)
        .observe(started.elapsed().as_secs_f64());
    registry.counter(names::QUERY_INDEX_REBUILDS).inc();
    record_attribution(&index, (0, 0), hashed, registry);
    Ok(index)
}

/// Bring the index over `scope` to the generation `store` is at, by the
/// cheapest sound rung, and leave it persisted under `scope.file`.
///
/// `live` is the index the caller is serving right now (a reload): it is
/// the fold base, and the persisted frame — which the same process wrote
/// from it — is not re-read. Without one (an open) the persisted frame is
/// the load candidate and, when merely stale, the fold base.
pub fn bring_up(
    store: &BundleStore,
    scope: &IndexScope,
    live: Option<&QueryIndex>,
    config: &QueryConfig,
    registry: &Registry,
) -> io::Result<QueryIndex> {
    let base = match live {
        Some(index) => Ok(index.clone()),
        None => load_index_any(store.dir(), &scope.file),
    };
    let index = match base {
        Ok(index) if live.is_none() && index.generation == store.generation() => {
            registry.counter(names::QUERY_INDEX_LOADS).inc();
            return Ok(went_live(index, registry));
        }
        Ok(base) => match fold(store, scope, base, config, registry)? {
            Some(folded) => folded,
            None => {
                registry.counter(names::QUERY_INDEX_FULL_REBUILDS).inc();
                rebuild(store, scope, config, registry)?
            }
        },
        Err(reject) => {
            if reject != IndexReject::Missing {
                registry.counter(names::QUERY_INDEX_REJECTED).inc();
            }
            rebuild(store, scope, config, registry)?
        }
    };
    save_index_as(store.dir(), &index, &scope.file)?;
    Ok(went_live(index, registry))
}

/// Record what an index about to serve could not cover.
fn went_live(index: QueryIndex, registry: &Registry) -> QueryIndex {
    if index.coverage.segments_failed > 0 {
        registry
            .counter(names::QUERY_INDEX_SEGMENTS_FAILED)
            .add(index.coverage.segments_failed);
    }
    index
}

/// The daemons' reload trigger. Every three seconds stat the manifest (no
/// JSON parse) and, when it looks different, run `reload` — which answers
/// the generation that went live, if one did. A failed reload re-arms
/// the watcher: the failure may be transient with the manifest intact
/// (index save out of space, a segment briefly unreadable, one shard's
/// install failing after an earlier shard already moved), so it is
/// retried on the next tick instead of staying red until the next seal.
pub async fn follow_seals(
    store_dir: &str,
    daemon: &str,
    reload: impl Fn() -> io::Result<Option<String>>,
) {
    let mut watcher = SealWatcher::new(Path::new(store_dir));
    watcher.changed(); // arm at the already-served manifest
    loop {
        tokio::time::sleep(Duration::from_secs(3)).await;
        if !watcher.changed() {
            continue;
        }
        match reload() {
            Ok(Some(generation)) => println!("{daemon}: reloaded, generation {generation}"),
            Ok(None) => {}
            Err(e) => {
                eprintln!("{daemon}: reload failed: {e}");
                watcher.rearm();
            }
        }
    }
}
