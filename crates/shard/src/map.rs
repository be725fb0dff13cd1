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
//! and every shard is brought up from. What persists is each shard's
//! index, under a file name carrying its [`ShardMap::fingerprint`].

use std::io;

use sandwich_store::{fnv1a64, BundleStore, SegmentMeta};

/// One shard's slice of the manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSpec {
    /// Serving segment file names owned by this shard, slot order.
    pub segments: Vec<String>,
    /// Quarantined segment file names accounted to this shard.
    pub quarantined: Vec<String>,
    /// Lowest slot this shard serves (0 when empty).
    pub min_slot: u64,
}

/// The complete assignment for one store snapshot.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// The snapshot this map partitions.
    store: BundleStore,
    /// One spec per shard; every manifest entry appears in exactly one.
    pub shards: Vec<ShardSpec>,
}

/// Slot-order sort key shared by planning and quarantine assignment.
fn slot_key(meta: &SegmentMeta) -> (u64, u64, String) {
    (meta.min_slot, meta.max_slot, meta.file.clone())
}

impl ShardMap {
    /// Plan the map for `store` across `shards` shards (at least one).
    /// Deterministic: depends only on the manifest contents.
    pub fn plan(store: BundleStore, shards: usize) -> ShardMap {
        let n = shards.max(1);
        let mut specs = vec![ShardSpec::default(); n];
        let manifest = store.manifest();

        let mut serving: Vec<&SegmentMeta> = manifest.segments.iter().collect();
        serving.sort_by_key(|m| slot_key(m));
        let total: u64 = serving.iter().map(|m| m.bundles).sum();
        let mut cum = 0u64;
        let mut shard = 0usize;
        for (i, meta) in serving.iter().enumerate() {
            if total == 0 {
                shard = i % n;
            } else {
                // Advance while this shard has met its pro-rata quota of
                // the total bundle count; contiguity in slot order is
                // what makes a shard a slot range.
                while shard + 1 < n && cum * n as u64 >= total * (shard as u64 + 1) {
                    shard += 1;
                }
            }
            let spec = &mut specs[shard];
            // Slot order: a shard's first segment starts its range.
            if spec.segments.is_empty() {
                spec.min_slot = meta.min_slot;
            }
            spec.segments.push(meta.file.clone());
            cum += meta.bundles;
        }

        // Quarantined segments: owned by the last shard whose range
        // starts at or before them (slot affinity), shard 0 otherwise.
        let mut quarantined: Vec<&sandwich_store::QuarantinedSegment> =
            manifest.quarantined().iter().collect();
        quarantined.sort_by_key(|q| slot_key(&q.meta));
        for q in quarantined {
            let owner = specs
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.segments.is_empty() && s.min_slot <= q.meta.min_slot)
                .map(|(i, _)| i)
                .next_back()
                .unwrap_or(0);
            specs[owner].quarantined.push(q.meta.file.clone());
        }

        ShardMap {
            store,
            shards: specs,
        }
    }

    /// The store snapshot this map was planned from.
    pub fn store(&self) -> &BundleStore {
        &self.store
    }

    /// Number of shards in this map.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's spec, or an `InvalidInput` error naming shard and count.
    fn spec(&self, shard: usize) -> io::Result<&ShardSpec> {
        self.shards.get(shard).ok_or_else(|| {
            let count = self.shard_count();
            let message = format!("shard {shard} is out of range for a map of {count} shards");
            io::Error::new(io::ErrorKind::InvalidInput, message)
        })
    }

    /// A 16-hex FNV-1a 64 fingerprint of one shard's assignment — embedded
    /// in the shard's persisted index file name so a re-plan (different
    /// shard count, rebalanced layout) can never alias a stale index.
    pub fn fingerprint(&self, shard: usize) -> io::Result<String> {
        let spec = self.spec(shard)?;
        let mut bytes = Vec::new();
        for file in spec.segments.iter().chain(&spec.quarantined) {
            bytes.extend_from_slice(file.as_bytes());
            bytes.push(b'\n');
        }
        Ok(format!("{:016x}", fnv1a64(&bytes)))
    }

    /// Resolve one shard's file names back to indices into the snapshot's
    /// `segments` / `quarantined()`. Fails with `InvalidData` when the
    /// map names a file the manifest does not list.
    pub fn resolve(&self, shard: usize) -> io::Result<(Vec<usize>, Vec<usize>)> {
        let missing = |file: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("stale shard map: {file} is not in the manifest"),
            )
        };
        let spec = self.spec(shard)?;
        let manifest = self.store.manifest();
        let mut serving = Vec::with_capacity(spec.segments.len());
        for file in &spec.segments {
            let i = manifest
                .segments
                .iter()
                .position(|m| &m.file == file)
                .ok_or_else(|| missing(file))?;
            serving.push(i);
        }
        // Serve in manifest order so per-shard scans fold partials in the
        // same order an unsharded scan would within this slice.
        serving.sort_unstable();
        let mut quarantined = Vec::with_capacity(spec.quarantined.len());
        for file in &spec.quarantined {
            let i = manifest
                .quarantined()
                .iter()
                .position(|q| &q.meta.file == file)
                .ok_or_else(|| missing(file))?;
            quarantined.push(i);
        }
        quarantined.sort_unstable();
        Ok((serving, quarantined))
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
            let mut seen: Vec<&String> = map.shards.iter().flat_map(|s| &s.segments).collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 10, "n={n}: every segment exactly once");
            // Contiguity: shard slot ranges are non-decreasing.
            let mins: Vec<u64> = map
                .shards
                .iter()
                .filter(|s| !s.segments.is_empty())
                .map(|s| s.min_slot)
                .collect();
            let mut sorted = mins.clone();
            sorted.sort_unstable();
            assert_eq!(mins, sorted, "n={n}: slot-ordered shards");
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn resolve_maps_names_back_to_manifest_indices() {
        let store = seed_store("resolve", 6, 4);
        let map = ShardMap::plan(store.clone(), 3);
        let mut all: Vec<usize> = Vec::new();
        for shard in 0..3 {
            let (serving, quarantined) = map.resolve(shard).unwrap();
            assert!(quarantined.is_empty());
            all.extend(serving);
        }
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());

        let mut stale = map.clone();
        stale.shards[1].segments.push("gone.seg".to_string());
        let error = stale.resolve(1).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("gone.seg"), "{error}");

        // A shard the map does not have is the caller's error, not a panic.
        for error in [map.resolve(3).unwrap_err(), map.fingerprint(3).unwrap_err()] {
            assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
            assert!(error.to_string().contains("shard 3"), "{error}");
            assert!(error.to_string().contains("3 shards"), "{error}");
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn fingerprint_tracks_assignment_changes() {
        let store = seed_store("fp", 8, 4);
        let two = ShardMap::plan(store.clone(), 2);
        let four = ShardMap::plan(store.clone(), 4);
        assert_ne!(two.fingerprint(0).unwrap(), four.fingerprint(0).unwrap());
        assert_eq!(
            two.fingerprint(0).unwrap(),
            ShardMap::plan(store.clone(), 2).fingerprint(0).unwrap()
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }
}
