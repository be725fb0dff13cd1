//! Property tests for the shard merge layer: every merge the router
//! folds shard partials with must be **associative** and **permutation /
//! partition invariant** — the merged value depends only on the multiset
//! of per-shard rows, never on how the segments were sharded or in which
//! order the partials arrived. This is what makes N-shard responses
//! byte-identical to the single engine at every N.

use proptest::prelude::*;

use sandwich_query::{
    AttackerEntry, DayRollup, IndexCoverage, IndexTotals, PoolEntry, SandwichRef, ValidatorEntry,
};
use sandwich_shard::merge::{
    merge_attackers, merge_coverage, merge_days, merge_pools, merge_range, merge_recent,
    merge_totals, merge_validators, RangePartial,
};
use sandwich_types::{Hash, Keypair, Pubkey};

fn pk(i: u8) -> Pubkey {
    Keypair::from_label(&format!("shard-prop-{i}")).pubkey()
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

type CoverageFields = ((u64, u64, u64, u64), (u64, u64, u64));

fn coverage(fields: CoverageFields) -> IndexCoverage {
    let ((segments_total, segments_scanned, segments_quarantined, segments_failed), bundles) =
        fields;
    IndexCoverage {
        segments_total,
        segments_scanned,
        segments_quarantined,
        segments_failed,
        bundles_scanned: bundles.0,
        bundles_quarantined: bundles.1,
        bundles_failed: bundles.2,
    }
}

fn sref(slot: u64, id: u64) -> SandwichRef {
    SandwichRef {
        day: slot / 1_000,
        slot,
        bundle_id: Hash::digest(&id.to_le_bytes()),
        attacker: pk((id % 5) as u8),
        victim: pk(100 + (id % 3) as u8),
        mints: vec![pk(200 + (id % 4) as u8)],
        sol_legged: id.is_multiple_of(2),
        victim_loss_lamports: Some(1_000 + id),
        attacker_gain_lamports: Some(500 + id as i128),
        tip_lamports: 10_000 + slot,
        leader: Some(pk(50 + (slot % 4) as u8)),
    }
}

/// Distinct refs in the global `(slot, bundle_id)` order, plus a shard
/// assignment for each — the arbitrary partition the properties quantify
/// over.
fn partitioned_refs(
    pairs: &[(u64, u64)],
    assignment: &[u8],
    shards: usize,
) -> (Vec<SandwichRef>, Vec<Vec<SandwichRef>>) {
    let mut seen = std::collections::BTreeSet::new();
    let mut global: Vec<SandwichRef> = pairs
        .iter()
        .filter(|(slot, id)| seen.insert((*slot, *id)))
        .map(|&(slot, id)| sref(slot, id))
        .collect();
    global.sort_by_key(|a| (a.slot, a.bundle_id.0));
    let mut parts: Vec<Vec<SandwichRef>> = vec![Vec::new(); shards];
    for (i, r) in global.iter().enumerate() {
        parts[assignment[i % assignment.len()] as usize % shards].push(r.clone());
    }
    (global, parts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Coverage blocks: merging is associative (any grouping of shards
    /// yields the same sum) and permutation invariant.
    #[test]
    fn coverage_merge_is_associative_and_permutation_invariant(
        parts in prop::collection::vec(
            ((0u64..50, 0u64..50, 0u64..10, 0u64..10), (0u64..100_000, 0u64..10_000, 0u64..10_000)),
            0..8,
        ),
        split in 0usize..8,
        seed in any::<u64>(),
    ) {
        let blocks: Vec<IndexCoverage> = parts.into_iter().map(coverage).collect();
        let whole = merge_coverage(&blocks);

        let cut = split.min(blocks.len());
        let grouped = merge_coverage(&[
            merge_coverage(&blocks[..cut]),
            merge_coverage(&blocks[cut..]),
        ]);
        prop_assert_eq!(&grouped, &whole);

        let order = permutation(blocks.len(), seed);
        let shuffled: Vec<IndexCoverage> = order.iter().map(|&i| blocks[i].clone()).collect();
        prop_assert_eq!(&merge_coverage(&shuffled), &whole);
    }

    /// Totals: field-wise sums with `max_slot` by max — associative and
    /// permutation invariant like coverage.
    #[test]
    fn totals_merge_is_associative_and_permutation_invariant(
        parts in prop::collection::vec(
            (0u64..100, 0u64..100_000, 0u64..5_000, 0u64..1_000, 0u64..1_000_000_000),
            0..8,
        ),
        split in 0usize..8,
        seed in any::<u64>(),
    ) {
        let blocks: Vec<IndexTotals> = parts
            .into_iter()
            .map(|(segments, bundles, sandwiches, defensive, max_slot)| IndexTotals {
                segments,
                bundles,
                sandwiches,
                non_sol_sandwiches: sandwiches / 3,
                defensive,
                victim_loss_lamports: bundles as u128 * 7,
                attacker_gain_lamports: sandwiches as i128 * 5 - 1_000,
                tips_lamports: bundles as u128 * 11,
                max_slot,
            })
            .collect();
        let whole = merge_totals(&blocks);

        let cut = split.min(blocks.len());
        let grouped = merge_totals(&[
            merge_totals(&blocks[..cut]),
            merge_totals(&blocks[cut..]),
        ]);
        prop_assert_eq!(&grouped, &whole);

        let order = permutation(blocks.len(), seed);
        let shuffled: Vec<IndexTotals> = order.iter().map(|&i| blocks[i].clone()).collect();
        prop_assert_eq!(&merge_totals(&shuffled), &whole);
    }

    /// Day rollups: dense element-wise sums. Associative, permutation
    /// invariant, and the merged length is the longest input's.
    #[test]
    fn days_merge_is_associative_and_permutation_invariant(
        parts in prop::collection::vec(
            prop::collection::vec((1u64..1_000, 0u64..50, 0u64..20), 0..6),
            0..6,
        ),
        split in 0usize..6,
        seed in any::<u64>(),
    ) {
        let lists: Vec<Vec<DayRollup>> = parts
            .into_iter()
            .map(|days| {
                days.into_iter()
                    .enumerate()
                    .map(|(day, (bundles, sandwiches, defensive))| DayRollup {
                        day: day as u64,
                        label: format!("day {day}"),
                        bundles,
                        bundles_by_len: (0..5).map(|k| bundles / (k + 1)).collect(),
                        sandwiches,
                        defensive,
                        victim_loss_lamports: bundles as u128 * 3,
                        attacker_gain_lamports: sandwiches as i128 * 2,
                        tips_lamports: bundles as u128,
                    })
                    .collect()
            })
            .collect();
        let whole = merge_days(&lists);
        prop_assert_eq!(whole.len(), lists.iter().map(Vec::len).max().unwrap_or(0));

        let cut = split.min(lists.len());
        let grouped = merge_days(&[merge_days(&lists[..cut]), merge_days(&lists[cut..])]);
        prop_assert_eq!(&grouped, &whole);

        let order = permutation(lists.len(), seed);
        let shuffled: Vec<Vec<DayRollup>> = order.iter().map(|&i| lists[i].clone()).collect();
        prop_assert_eq!(&merge_days(&shuffled), &whole);
    }

    /// The attacker leaderboard depends only on the multiset of per-shard
    /// rows: any partition of the rows across any number of shards merges
    /// to the same fully-ordered leaderboard.
    #[test]
    fn attacker_merge_is_partition_invariant(
        rows in prop::collection::vec(
            (0u8..6, 1u64..100, 0i64..1_000_000, 0u64..1_000_000, 0u64..100_000),
            0..40,
        ),
        assignment in prop::collection::vec(0u8..4, 1..40),
        shards in 1usize..5,
    ) {
        let entries: Vec<AttackerEntry> = rows
            .iter()
            .map(|&(key, sandwiches, gain, loss, tips)| AttackerEntry {
                attacker: pk(key),
                sandwiches,
                attacker_gain_lamports: gain as i128,
                victim_loss_lamports: loss as u128,
                tips_lamports: tips as u128,
                refs: vec![1, 2, 3], // must be dropped by the merge
            })
            .collect();
        let whole = merge_attackers(vec![entries.clone()]);
        prop_assert!(whole.iter().all(|e| e.refs.is_empty()), "merge must drop refs");

        let mut parts: Vec<Vec<AttackerEntry>> = vec![Vec::new(); shards];
        for (i, entry) in entries.into_iter().enumerate() {
            parts[assignment[i % assignment.len()] as usize % shards].push(entry);
        }
        prop_assert_eq!(&merge_attackers(parts), &whole);
    }

    /// Same for the pool leaderboard; the non-summable distinct-attacker
    /// count is zeroed on both sides, so ranks and rows still agree.
    #[test]
    fn pool_merge_is_partition_invariant(
        rows in prop::collection::vec((0u8..6, 1u64..100, 0u64..1_000_000, 0u64..20), 0..40),
        assignment in prop::collection::vec(0u8..4, 1..40),
        shards in 1usize..5,
    ) {
        let entries: Vec<PoolEntry> = rows
            .iter()
            .map(|&(key, sandwiches, loss, attackers)| PoolEntry {
                mint: pk(key),
                sandwiches,
                victim_loss_lamports: loss as u128,
                attackers,
                refs: vec![4, 5],
            })
            .collect();
        let whole = merge_pools(vec![entries.clone()]);
        prop_assert!(whole.iter().all(|e| e.attackers == 0 && e.refs.is_empty()));

        let mut parts: Vec<Vec<PoolEntry>> = vec![Vec::new(); shards];
        for (i, entry) in entries.into_iter().enumerate() {
            parts[assignment[i % assignment.len()] as usize % shards].push(entry);
        }
        prop_assert_eq!(&merge_pools(parts), &whole);
    }

    /// The validator leaderboard: `blocks_led` merges by max (each shard
    /// reports the count through its own tip; the global tip is the max),
    /// `sandwich_slots` by sorted union, numerics by sum. Like the other
    /// leaderboards the result must depend only on the multiset of rows —
    /// associative, permutation invariant, partition invariant — because
    /// that is what makes the router's `/api/validators` byte-identical
    /// to the single engine at every shard count.
    #[test]
    fn validator_merge_is_associative_and_partition_invariant(
        rows in prop::collection::vec(
            (0u8..6, 0u64..5_000, prop::collection::vec(0u64..2_000, 0..6), 0u64..100, 0u64..100_000),
            0..40,
        ),
        assignment in prop::collection::vec(0u8..4, 1..40),
        shards in 1usize..5,
        split in 0usize..5,
        seed in any::<u64>(),
    ) {
        // Stake and pool are pure functions of the identity (derived from
        // the manifest's validator spec), so every shard reports the same
        // values for the same pubkey — the proptest mirrors that.
        let entries: Vec<ValidatorEntry> = rows
            .iter()
            .map(|(key, blocks_led, slots, sandwiches, tips)| ValidatorEntry {
                pubkey: pk(*key),
                stake_lamports: (*key as u64 + 1) * 1_000_000_000,
                stake_pool: format!("pool-{}", key % 3),
                blocks_led: *blocks_led,
                sandwich_slots: slots.clone(),
                sandwiches: *sandwiches,
                attacker_gain_lamports: *sandwiches as i128 * 5 - 100,
                victim_loss_lamports: *sandwiches as u128 * 7,
                tips_lamports: *tips as u128,
                refs: vec![1, 2, 3], // must be dropped by the merge
            })
            .collect();
        let whole = merge_validators(vec![entries.clone()]);
        prop_assert!(whole.iter().all(|e| e.refs.is_empty()), "merge must drop refs");
        for entry in &whole {
            prop_assert!(
                entry.sandwich_slots.windows(2).all(|w| w[0] < w[1]),
                "sandwich_slots must come out sorted and deduped"
            );
        }

        // Partition invariance: any assignment of rows to any shard count.
        let mut parts: Vec<Vec<ValidatorEntry>> = vec![Vec::new(); shards];
        for (i, entry) in entries.iter().enumerate() {
            parts[assignment[i % assignment.len()] as usize % shards].push(entry.clone());
        }
        prop_assert_eq!(&merge_validators(parts.clone()), &whole);

        // Associativity: merging two pre-merged groups equals one merge.
        let cut = split.min(parts.len());
        let grouped = merge_validators(vec![
            merge_validators(parts[..cut].to_vec()),
            merge_validators(parts[cut..].to_vec()),
        ]);
        prop_assert_eq!(&grouped, &whole);

        // Permutation invariance: shard arrival order must not matter.
        let order = permutation(parts.len(), seed);
        let shuffled: Vec<Vec<ValidatorEntry>> = order.iter().map(|&i| parts[i].clone()).collect();
        prop_assert_eq!(&merge_validators(shuffled), &whole);
    }

    /// The prefix property behind re-pagination: when every shard ships
    /// the first `need` of its in-range refs, the merged union's first
    /// `min(need, total)` elements are exactly the global first
    /// `min(need, total)` — for any partition of the global order.
    #[test]
    fn range_merge_reconstructs_any_global_prefix(
        pairs in prop::collection::vec((0u64..5_000, 0u64..1_000_000), 0..60),
        assignment in prop::collection::vec(0u8..4, 1..60),
        shards in 1usize..5,
        need in 0usize..70,
    ) {
        let (global, parts) = partitioned_refs(&pairs, &assignment, shards);
        let partials: Vec<RangePartial> = parts
            .into_iter()
            .map(|refs| RangePartial {
                total: refs.len() as u64,
                refs: refs.into_iter().take(need).collect(),
            })
            .collect();
        let (total, merged) = merge_range(partials);
        prop_assert_eq!(total, global.len());
        let page = need.min(global.len());
        prop_assert_eq!(&merged[..page], &global[..page]);
    }

    /// The recency tail is the mirror image: shards ship their newest
    /// `cap` refs oldest-first, and the merged newest-first tail equals
    /// the single engine's — for any partition.
    #[test]
    fn recent_merge_reconstructs_the_global_tail(
        pairs in prop::collection::vec((0u64..5_000, 0u64..1_000_000), 0..60),
        assignment in prop::collection::vec(0u8..4, 1..60),
        shards in 1usize..5,
        cap in 0usize..70,
    ) {
        let (global, parts) = partitioned_refs(&pairs, &assignment, shards);
        let tails: Vec<Vec<SandwichRef>> = parts
            .into_iter()
            .map(|refs| {
                let start = refs.len().saturating_sub(cap);
                refs[start..].to_vec()
            })
            .collect();
        let merged = merge_recent(tails, cap);

        let start = global.len().saturating_sub(cap);
        let mut expected = global[start..].to_vec();
        expected.reverse();
        prop_assert_eq!(&merged, &expected);
    }
}
