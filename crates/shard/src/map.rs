//! The [`ShardMap`]: which shard owns which segment.
//!
//! Planning is deterministic: serving segments are ordered by slot range
//! (`min_slot`, then `max_slot`, then file name) and cut into N
//! contiguous groups balanced by cumulative bundle count, so each shard
//! owns a slot range and a roughly equal share of the data. Quarantined
//! segments are assigned to the shard whose slot range covers them, so a
//! disjoint exhaustive partition of *all* manifest entries exists and the
//! router's summed coverage equals the single-engine coverage exactly.
//!
//! The map is never persisted: every open and every reload plans it
//! afresh from one store snapshot, which it keeps ([`ShardMap::store`])
//! and every shard is brought up from. A shard's slice is an
//! [`IndexScope`] of that snapshot — indices into its manifest, and the
//! file the shard's index persists under, named by [`shard_index_file`]
//! with a fingerprint of the slice's segment names.

use std::io;

use sandwich_query::IndexScope;
use sandwich_store::{fnv1a64, BundleStore, SegmentMeta};

/// File name of one shard's persisted index: qualified by shard id, shard
/// count, and the assignment fingerprint so a re-plan never aliases a
/// stale index (the generation inside the frame is still checked on load).
pub fn shard_index_file(shard: usize, shards: usize, fingerprint: &str) -> String {
    format!("query-index.shard-{shard}of{shards}-{fingerprint}.bin")
}

/// Leading file-name prefix of every per-shard index (for garbage
/// collection of stale fingerprints).
pub const SHARD_INDEX_PREFIX: &str = "query-index.shard-";

/// The complete assignment for one store snapshot.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// The snapshot this map partitions.
    store: BundleStore,
    /// One scope per shard; every manifest entry appears in exactly one.
    pub shards: Vec<IndexScope>,
}

/// Slot-order sort key shared by planning and quarantine assignment.
fn slot_key(meta: &SegmentMeta) -> (u64, u64, &str) {
    (meta.min_slot, meta.max_slot, &meta.file)
}

impl ShardMap {
    /// Plan the map for `store` across `shards` shards (at least one).
    /// Deterministic: depends only on the manifest contents.
    pub fn plan(store: BundleStore, shards: usize) -> ShardMap {
        let n = shards.max(1);
        let manifest = store.manifest();
        let (segments, quarantined) = (&manifest.segments, manifest.quarantined());
        // Per shard, in slot order: its segments, its quarantined entries,
        // and the slot its range starts at (meaningful once it has one).
        let mut owned = vec![(Vec::new(), Vec::new(), 0u64); n];

        let mut by_slot: Vec<usize> = (0..segments.len()).collect();
        by_slot.sort_by_key(|&i| slot_key(&segments[i]));
        let total: u64 = segments.iter().map(|m| m.bundles).sum();
        let mut cum = 0u64;
        let mut shard = 0usize;
        for (rank, &i) in by_slot.iter().enumerate() {
            if total == 0 {
                shard = rank % n;
            } else {
                // Advance while this shard has met its pro-rata quota of
                // the total bundle count; contiguity in slot order is
                // what makes a shard a slot range.
                while shard + 1 < n && cum * n as u64 >= total * (shard as u64 + 1) {
                    shard += 1;
                }
            }
            let (mine, _, min_slot) = &mut owned[shard];
            // Slot order: a shard's first segment starts its range.
            if mine.is_empty() {
                *min_slot = segments[i].min_slot;
            }
            mine.push(i);
            cum += segments[i].bundles;
        }

        // Quarantined segments: owned by the last shard whose range
        // starts at or before them (slot affinity), shard 0 otherwise.
        let mut by_slot: Vec<usize> = (0..quarantined.len()).collect();
        by_slot.sort_by_key(|&q| slot_key(&quarantined[q].meta));
        for q in by_slot {
            let meta = &quarantined[q].meta;
            let owner = owned
                .iter()
                .rposition(|(mine, _, min_slot)| !mine.is_empty() && *min_slot <= meta.min_slot)
                .unwrap_or(0);
            owned[owner].1.push(q);
        }

        let shards = owned
            .into_iter()
            .enumerate()
            .map(|(shard, (mut mine, mut isolated, _))| {
                // The fingerprint reads the names in slot order.
                let mut names = Vec::new();
                let files = mine.iter().map(|&i| &segments[i].file);
                for file in files.chain(isolated.iter().map(|&q| &quarantined[q].meta.file)) {
                    names.extend_from_slice(file.as_bytes());
                    names.push(b'\n');
                }
                let fingerprint = format!("{:016x}", fnv1a64(&names));
                // Scanned in manifest order, so a shard folds its partials
                // in the order an unsharded scan would within its slice.
                mine.sort_unstable();
                isolated.sort_unstable();
                IndexScope {
                    segments: mine,
                    quarantined: isolated,
                    file: shard_index_file(shard, n, &fingerprint),
                }
            })
            .collect();
        ShardMap { store, shards }
    }

    /// The store snapshot this map was planned from.
    pub fn store(&self) -> &BundleStore {
        &self.store
    }

    /// Number of shards in this map.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's scope, or an `InvalidInput` error naming shard and count.
    pub fn scope(&self, shard: usize) -> io::Result<&IndexScope> {
        self.shards.get(shard).ok_or_else(|| {
            let count = self.shard_count();
            let message = format!("shard {shard} is out of range for a map of {count} shards");
            io::Error::new(io::ErrorKind::InvalidInput, message)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_store::StoreWriter;
    use sandwich_types::{Hash, Keypair, Lamports, Slot};

    fn seed_store(tag: &str, segments: u64, per_segment: u64) -> sandwich_store::BundleStore {
        let dir = std::env::temp_dir().join(format!("swmap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let kp = Keypair::from_label("map");
        let mut w = StoreWriter::create(&dir).unwrap();
        for seg in 0..segments {
            let bundles: Vec<_> = (0..per_segment)
                .map(|i| sandwich_store::CollectedBundle {
                    bundle_id: Hash::digest(&(seg * 1000 + i).to_le_bytes()),
                    slot: Slot(seg * 500 + i),
                    timestamp_ms: (seg * 500 + i) * 400,
                    tip: Lamports(10_000),
                    tx_ids: vec![kp.sign(&(seg * 1000 + i).to_le_bytes())],
                })
                .collect();
            w.seal_segment(bundles, Vec::new(), Vec::new()).unwrap();
        }
        w.into_reader()
    }

    #[test]
    fn plan_partitions_every_segment_exactly_once() {
        let store = seed_store("plan", 10, 8);
        for n in [1, 2, 3, 4, 8, 16] {
            let map = ShardMap::plan(store.clone(), n);
            assert_eq!(map.shard_count(), n);
            let mut seen: Vec<usize> = map.shards.iter().flat_map(|s| s.segments.clone()).collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 10, "n={n}: every segment exactly once");
            // Contiguity: shard slot ranges are non-decreasing.
            let mins: Vec<u64> = map
                .shards
                .iter()
                .filter_map(|s| {
                    s.segments
                        .iter()
                        .map(|&i| store.segments()[i].min_slot)
                        .min()
                })
                .collect();
            let mut sorted = mins.clone();
            sorted.sort_unstable();
            assert_eq!(mins, sorted, "n={n}: slot-ordered shards");
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn plan_scopes_are_indices_into_the_snapshot() {
        let store = seed_store("scopes", 6, 4);
        let map = ShardMap::plan(store.clone(), 3);
        let mut all: Vec<usize> = Vec::new();
        for scope in &map.shards {
            assert!(scope.quarantined.is_empty());
            assert!(scope.segments.is_sorted(), "manifest order: {scope:?}");
            all.extend(&scope.segments);
        }
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());

        // A shard the map does not have is the caller's error, not a panic.
        let error = map.scope(3).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
        assert!(error.to_string().contains("shard 3"), "{error}");
        assert!(error.to_string().contains("3 shards"), "{error}");
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn fingerprint_tracks_assignment_changes() {
        let store = seed_store("fp", 8, 4);
        let two = ShardMap::plan(store.clone(), 2);
        let four = ShardMap::plan(store.clone(), 4);
        assert_ne!(two.shards[0].file, four.shards[0].file);
        assert_eq!(
            two.shards[0].file,
            ShardMap::plan(store.clone(), 2).shards[0].file
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }
}
