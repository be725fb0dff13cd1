//! Property tests for the incremental index fold: folding **any
//! partition** of a store's segments, in **any order**, grouped **any
//! way**, must produce an index byte-identical to the from-scratch
//! build. This is the invariant the live-tail reload path rests on — a
//! `queryd` that only ever folds manifest deltas serves exactly the
//! bytes a full rebuild would, so `/api/live` freshness costs nothing in
//! correctness. The battery covers quarantined segments arriving in the
//! delta, mirroring `tests/shard_props.rs` for
//! the merge layer. Every store carries a validator spec, so the identity
//! covers the leaderboard denominators: `blocks_led` is a prefix sum a fold
//! carries forward from whichever part counted furthest, and the stores put
//! those checkpoints mid-group and on both sides of an epoch boundary.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use sandwich_attrib::{ValidatorSpec, EPOCH_SLOTS, LEADER_GROUP_SLOTS};
use sandwich_obs::{names, Registry};
use sandwich_query::{
    build_index, build_index_subset, first_ref_after_cursor, fold_indexes, generation_of,
    live_minutes, window_minutes, QueryConfig, QueryService, QueryServiceConfig, SandwichRef,
};
use sandwich_store::segment::{encode_segment, write_segment_file};
use sandwich_store::{BundleStore, CollectedBundle, Manifest, QuarantinedSegment, SegmentMeta};
use sandwich_types::{Hash, Keypair, Lamports, Slot};

fn bundle(seed: u64, slot: u64, tip: u64) -> CollectedBundle {
    let kp = Keypair::from_label("livefold");
    CollectedBundle {
        bundle_id: Hash::digest(&seed.to_le_bytes()),
        slot: Slot(slot),
        timestamp_ms: slot * 400,
        tip: Lamports(tip),
        tx_ids: vec![kp.sign(&seed.to_le_bytes())],
    }
}

/// Unique scratch directory per call, so parallel proptest cases never
/// collide.
fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("live-fold-props-{}-{n}", std::process::id()))
}

/// Deterministic pseudo-shuffle: a permutation of `0..n` from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    order
}

/// Write a store whose segments follow `specs`: each entry is
/// `(bundles, quarantine)` — bundle count, and whether the segment lands
/// on the quarantine list instead of serving.
/// Segment `i` starts 500 slots after segment `i - 1`, the first at
/// `origin`, and every bundle lands `skew` slots into its leader group, so
/// every part's `max_slot` — the checkpoint a fold resumes from — does too.
/// Returns the directory; remove it when done.
fn seed_store(specs: &[(u64, bool)], origin: u64, skew: u64) -> PathBuf {
    let dir = scratch();
    std::fs::create_dir_all(&dir).unwrap();
    let mut manifest = Manifest::new();
    manifest.validators = Some(ValidatorSpec::new(origin ^ skew, 5));
    let slot_of = |i: u64, b: u64| {
        (origin + i * 500 + b * 3) / LEADER_GROUP_SLOTS * LEADER_GROUP_SLOTS + skew
    };
    let mut quarantined = Vec::new();
    for (i, &(bundles, quarantine)) in specs.iter().enumerate() {
        let data = sandwich_store::codec::SegmentData {
            bundles: (0..bundles)
                .map(|b| bundle(i as u64 * 1_000 + b, slot_of(i as u64, b), 30_000 + b))
                .collect(),
            details: Vec::new(),
            polls: Vec::new(),
        };
        let (image, footer) = encode_segment(&data);
        let file = format!("seg-{i:05}.seg");
        write_segment_file(&dir.join(&file), &image).unwrap();
        let meta = SegmentMeta {
            file,
            bundles: data.bundles.len() as u64,
            details: 0,
            polls: 0,
            min_slot: footer.min_slot,
            max_slot: footer.max_slot,
            bytes: image.len() as u64,
            checksum: format!("{:016x}", footer.checksum),
        };
        if quarantine {
            quarantined.push(QuarantinedSegment {
                meta,
                reason: "body_corrupt".to_string(),
            });
        } else {
            manifest.segments.push(meta);
        }
    }
    if !quarantined.is_empty() {
        manifest.quarantined = Some(quarantined);
    }
    manifest.save(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: per-part subset builds folded in any
    /// order, grouped any way (associativity), reproduce the full build
    /// byte-for-byte — including coverage, totals, leaderboards, day
    /// labels, and the covered-file lists the next fold will key on.
    #[test]
    fn folding_any_partition_in_any_order_matches_the_full_build(
        specs in prop::collection::vec((1u64..6, any::<bool>()), 1..6),
        assignment in prop::collection::vec(0u8..4, 1..8),
        parts_n in 1usize..5,
        seed in any::<u64>(),
        split in 0usize..5,
        near_epoch in any::<bool>(),
        skew in 0u64..LEADER_GROUP_SLOTS,
    ) {
        // Near the epoch boundary, segments 0 and 1 seal below it and the
        // rest above: some part's checkpoint is in epoch 0 and the merged
        // `max_slot` in epoch 1.
        let origin = if near_epoch { EPOCH_SLOTS - 1_000 } else { 0 };
        let dir = seed_store(&specs, origin, skew);
        let store = BundleStore::open(&dir).unwrap();
        let config = QueryConfig { threads: 2, ..QueryConfig::default() };
        let generation = generation_of(store.manifest());
        let built = build_index(&store, &config).unwrap();
        let led: u64 = built.validators.iter().flatten().map(|v| v.blocks_led).sum();
        prop_assert_eq!(led, built.totals.max_slot + 1); // the denominators are in play
        let full = serde_json::to_string(&built).unwrap();

        // Partition serving and quarantined segment indexes across parts.
        let mut serving: Vec<Vec<usize>> = vec![Vec::new(); parts_n];
        for i in 0..store.segments().len() {
            serving[assignment[i % assignment.len()] as usize % parts_n].push(i);
        }
        let mut quarantined: Vec<Vec<usize>> = vec![Vec::new(); parts_n];
        for q in 0..store.quarantined().len() {
            quarantined[assignment[(q + 1) % assignment.len()] as usize % parts_n].push(q);
        }

        let parts: Vec<_> = (0..parts_n)
            .map(|p| build_index_subset(&store, &config, &serving[p], &quarantined[p]).unwrap())
            .collect();

        // Permutation invariance: any arrival order folds identically.
        let order = permutation(parts_n, seed);
        let shuffled: Vec<_> = order.iter().map(|&i| parts[i].clone()).collect();
        let folded = fold_indexes(&generation, shuffled, &config);
        prop_assert_eq!(&serde_json::to_string(&folded).unwrap(), &full);

        // Associativity: fold a prefix first, then fold the fold with
        // the rest — the exact shape of repeated incremental reloads.
        let cut = split.min(parts_n).max(1);
        let head = fold_indexes(&generation, parts[..cut].to_vec(), &config);
        let mut grouped = vec![head];
        grouped.extend(parts[cut..].to_vec());
        let refolded = fold_indexes(&generation, grouped, &config);
        prop_assert_eq!(&serde_json::to_string(&refolded).unwrap(), &full);

        // Late seals: the base has counted furthest and every part folded
        // in after it tops out below — the carried checkpoint must
        // survive them, neither replaced nor rewound.
        let mut by_tip = parts.clone();
        by_tip.sort_by_key(|p| std::cmp::Reverse(p.totals.max_slot));
        let mut late = vec![fold_indexes(&generation, by_tip[..1].to_vec(), &config)];
        late.extend(by_tip[1..].to_vec());
        let refolded = fold_indexes(&generation, late, &config);
        prop_assert_eq!(&serde_json::to_string(&refolded).unwrap(), &full);

        // The reload itself: a service that opened on the first serving
        // segments alone is shown the whole manifest and folds the rest
        // in. No part reaches the new `max_slot`, so the blocks-led prefix
        // is resumed inside a leader group, and across the epoch boundary
        // when the store straddles it.
        let mut early = store.manifest().clone();
        early.segments.truncate(split.max(1));
        early.quarantined = None;
        early.save(&dir).unwrap();
        let registry = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        store.manifest().save(&dir).unwrap();
        service.reload().unwrap();
        let reloaded = service.engine_snapshot();
        prop_assert_eq!(&serde_json::to_string(reloaded.index()).unwrap(), &full);
        prop_assert_eq!(registry.snapshot().counter(names::QUERY_INDEX_FULL_REBUILDS), None);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Walking `/api/live` pages over a folded index with any page size
    /// visits every sandwich exactly once, in `(slot, bundle_id)` order
    /// — the cursor never skips and never repeats.
    #[test]
    fn live_cursor_pages_reconstruct_the_refs_exactly(
        specs in prop::collection::vec(1u64..6, 1..5),
        limit in 1usize..7,
    ) {
        let specs: Vec<(u64, bool)> = specs.into_iter().map(|n| (n, false)).collect();
        let dir = seed_store(&specs, 0, 0);
        let store = BundleStore::open(&dir).unwrap();
        let config = QueryConfig { threads: 2, ..QueryConfig::default() };
        let index = build_index(&store, &config).unwrap();

        let mut cursor = (0u64, Hash([0u8; 32]));
        let mut walked: Vec<SandwichRef> = Vec::new();
        loop {
            let start = first_ref_after_cursor(&index.refs, cursor.0, &cursor.1);
            let page: Vec<SandwichRef> =
                index.refs[start..].iter().take(limit).cloned().collect();
            if page.is_empty() {
                break;
            }
            let last = page.last().unwrap();
            cursor = (last.slot, last.bundle_id);
            walked.extend(page);
        }
        prop_assert_eq!(&walked, &index.refs);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The shard-merge property for rolling minutes: per-part windows at
    /// per-part tips, summed and re-windowed at the global tip, equal the
    /// single-index window — each part's window is a superset of its
    /// contribution to the global one.
    #[test]
    fn minute_windows_rewindow_to_the_global_window(
        specs in prop::collection::vec(1u64..6, 1..5),
        assignment in prop::collection::vec(0u8..4, 1..8),
        parts_n in 1usize..5,
    ) {
        let specs: Vec<(u64, bool)> = specs.into_iter().map(|n| (n, false)).collect();
        let dir = seed_store(&specs, 0, 0);
        let store = BundleStore::open(&dir).unwrap();
        let config = QueryConfig { threads: 2, ..QueryConfig::default() };
        let generation = generation_of(store.manifest());

        let mut serving: Vec<Vec<usize>> = vec![Vec::new(); parts_n];
        for i in 0..store.segments().len() {
            serving[assignment[i % assignment.len()] as usize % parts_n].push(i);
        }
        let parts: Vec<_> = (0..parts_n)
            .map(|p| build_index_subset(&store, &config, &serving[p], &[]).unwrap())
            .collect();
        let full = fold_indexes(&generation, parts.clone(), &config);
        let global = live_minutes(&full.refs, full.totals.max_slot);

        let per_part: Vec<_> = parts
            .iter()
            .flat_map(|p| live_minutes(&p.refs, p.totals.max_slot))
            .collect();
        let tip = parts.iter().map(|p| p.totals.max_slot).max().unwrap_or(0);
        prop_assert_eq!(tip, full.totals.max_slot);
        prop_assert_eq!(&window_minutes(per_part, tip), &global);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
