//! Secondary indexes over a sealed bundle store: one parallel pass over
//! the segments produces everything the query API answers from, so no
//! endpoint ever decodes a whole segment at request time.
//!
//! The index is keyed to the store's **manifest generation**
//! ([`BundleStore::generation`], an FNV-1a 64 fingerprint of the manifest
//! JSON). It persists next to the manifest as `query-index.bin` in the
//! store's checksummed framing (magic · binary body · FNV footer), and is
//! only trusted when the magic, checksum, *and* generation all agree;
//! anything else is rejected and rebuilt from the segments. The body holds
//! only the index's primary fields, in the segment codec's varints and key
//! table; the totals and the three leaderboards are derived again on load.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use sandwich_attrib::{LeaderSchedule, SlotsLed, ValidatorSpec};
use sandwich_core::scan::{scan_segments, visit_decoded, visit_segment, BundleFacts, Route, Walk};
use sandwich_core::{Currency, DetectorConfig, SandwichFinding};
use sandwich_jito::BundleId;
use sandwich_store::codec::{decode_key_table, get_bytes, get_count, CorruptSegment, KeyTable};
use sandwich_store::crash::{write_durable_with, CrashPlan};
use sandwich_store::varint::{get_i128, get_u128, get_u64, put_i128, put_u128, put_u64};
use sandwich_store::{fnv1a64, BundleStore};
use sandwich_types::{Hash, Pubkey, SlotClock};

/// Index file name inside a store directory (next to `manifest.json`).
pub const INDEX_FILE: &str = "query-index.bin";

/// Leading magic of a persisted index file (includes the format version).
pub const INDEX_MAGIC: &[u8; 8] = b"SWQIX02\n";

/// Trailing magic of a persisted index file.
const INDEX_FOOTER_MAGIC: &[u8; 8] = b"SWQEND2\n";

/// How an index build runs. What it computes is fixed: the paper's
/// detector ([`DetectorConfig::default`]), its defensive-tip threshold
/// (`DEFENSIVE_TIP_THRESHOLD`, applied by the day rollups) and the default
/// slot clock, the one every writer of a store uses.
#[derive(Clone, Debug)]
pub struct QueryConfig {
    /// Worker threads for the segment pass.
    pub threads: usize,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig { threads: 4 }
    }
}

/// One detected sandwich, as the API serves it: enough to render a row on
/// a tracker site without re-reading the segment it came from.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SandwichRef {
    /// Measurement day.
    pub day: u64,
    /// Landing slot.
    pub slot: u64,
    /// The bundle.
    pub bundle_id: BundleId,
    /// Attacker (signer of transactions 1 and 3).
    pub attacker: Pubkey,
    /// Victim (signer of transaction 2).
    pub victim: Pubkey,
    /// Token mints traded (the non-SOL legs).
    pub mints: Vec<Pubkey>,
    /// Whether one traded leg is SOL (only these carry loss/gain figures).
    pub sol_legged: bool,
    /// Victim loss in lamports, when priced.
    pub victim_loss_lamports: Option<u64>,
    /// Attacker gross gain in lamports, when priced.
    pub attacker_gain_lamports: Option<i128>,
    /// Total Jito tip paid inside the bundle.
    pub tip_lamports: u64,
    /// Leader of the landing slot, recomputed from the manifest's
    /// validator spec during the index build. `None` when the store
    /// predates attribution (no spec in the manifest).
    pub leader: Option<Pubkey>,
}

/// Aggregates for one validator of the chain's leader schedule, plus the
/// refs behind them. Entries exist for **every** validator in the spec —
/// including those with zero sandwiches — so shard merges and stake-pool
/// rollups see the same universe everywhere.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidatorEntry {
    /// The validator's identity address.
    pub pubkey: Pubkey,
    /// Derived stake, lamports (public chain data).
    pub stake_lamports: u64,
    /// Stake-pool affiliation (derived, public chain data).
    pub stake_pool: String,
    /// Slots this validator led in `[0, max_slot]`. Monotone
    /// non-decreasing in `max_slot`, which is why the shard router can
    /// merge this field by element-wise max.
    pub blocks_led: u64,
    /// Distinct slots this validator led that contained at least one
    /// detected sandwich, sorted ascending. Shards merge by union.
    pub sandwich_slots: Vec<u64>,
    /// Sandwiches landed in this validator's slots.
    pub sandwiches: u64,
    /// Summed priced attacker gains in this validator's slots, lamports.
    pub attacker_gain_lamports: i128,
    /// Summed priced victim losses in this validator's slots, lamports.
    pub victim_loss_lamports: u128,
    /// Summed sandwich-bundle tips in this validator's slots, lamports.
    pub tips_lamports: u128,
    /// Indices into [`QueryIndex::refs`], slot-ordered.
    pub refs: Vec<u32>,
}

/// Aggregates for one attacker, plus the refs behind them.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackerEntry {
    /// The attacker's address.
    pub attacker: Pubkey,
    /// Sandwiches attributed to this attacker.
    pub sandwiches: u64,
    /// Summed priced gains, lamports.
    pub attacker_gain_lamports: i128,
    /// Summed priced victim losses inflicted, lamports.
    pub victim_loss_lamports: u128,
    /// Summed bundle tips paid, lamports.
    pub tips_lamports: u128,
    /// Indices into [`QueryIndex::refs`], slot-ordered.
    pub refs: Vec<u32>,
}

/// Aggregates for one pool (token mint), plus the refs behind them.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolEntry {
    /// The traded token mint identifying the pool.
    pub mint: Pubkey,
    /// Sandwiches that traded this mint.
    pub sandwiches: u64,
    /// Summed priced victim losses in this pool, lamports.
    pub victim_loss_lamports: u128,
    /// Distinct attackers seen in this pool.
    pub attackers: u64,
    /// Indices into [`QueryIndex::refs`], slot-ordered.
    pub refs: Vec<u32>,
}

/// Per-day rollup for `/api/days`: the scan engine's own per-day
/// bookkeeping, labelled when the index is finalized.
pub use sandwich_core::DayRollup;

/// What fraction of the store this index actually describes: the scan
/// engine's coverage block, with `segments_total` counting the serving
/// segments the build was asked to index. A healthy build scans them all;
/// a degraded one still succeeds but says exactly what it skipped, so
/// `/api/summary` can surface the gap.
pub use sandwich_core::ScanCoverage as IndexCoverage;

/// Store-wide totals for `/api/summary`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexTotals {
    /// Segments indexed.
    pub segments: u64,
    /// All bundles.
    pub bundles: u64,
    /// Detected sandwiches.
    pub sandwiches: u64,
    /// Sandwiches without a SOL leg (unpriced).
    pub non_sol_sandwiches: u64,
    /// Defensive length-1 bundles.
    pub defensive: u64,
    /// Summed victim losses, lamports.
    pub victim_loss_lamports: u128,
    /// Summed attacker gains, lamports.
    pub attacker_gain_lamports: i128,
    /// Summed tips across all bundles, lamports.
    pub tips_lamports: u128,
    /// Highest bundle slot indexed.
    pub max_slot: u64,
}

/// The complete secondary index for one manifest generation.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct QueryIndex {
    /// The manifest generation this index describes.
    pub generation: String,
    /// How much of the store the build covered (degraded-mode accounting).
    pub coverage: IndexCoverage,
    /// Store-wide totals.
    pub totals: IndexTotals,
    /// Per-day rollups, dense from day 0.
    pub days: Vec<DayRollup>,
    /// Every detected sandwich, sorted by `(slot, bundle_id)`.
    pub refs: Vec<SandwichRef>,
    /// Attacker leaderboard: gain desc, then count desc, then address asc.
    /// Derived from `refs`; never persisted.
    pub attackers: Vec<AttackerEntry>,
    /// Pool leaderboard: loss desc, then count desc, then mint asc.
    /// Derived from `refs`; never persisted.
    pub pools: Vec<PoolEntry>,
    /// Sorted file names of the serving segments this index folded — the
    /// snapshot [`sandwich_store::Manifest::delta_within`] diffs against on
    /// the incremental reload path.
    pub segment_files: Vec<String>,
    /// Sorted file names of the quarantined segments accounted for.
    pub quarantined_files: Vec<String>,
    /// The validator spec the leaderboard was computed under (from the
    /// store manifest). `None` for a pre-attribution store.
    pub validator_spec: Option<ValidatorSpec>,
    /// Validator leaderboard: sandwich rate (sandwiches per block led)
    /// desc, then count desc, then address asc. One entry per spec
    /// validator. `None` when the store has no validator spec. Derived
    /// from `refs`, the spec and the blocks-led counts; only the counts
    /// are persisted.
    pub validators: Option<Vec<ValidatorEntry>>,
}

/// An un-finalized index: a [`QueryIndex`] in which only the primary
/// fields mean anything — `days`, `refs`, `coverage`, the two file lists,
/// `validator_spec` and `totals.{segments, non_sol_sandwiches, max_slot}` —
/// and the rest waits for [`finalize`]. Build and fold share this shape:
/// a scan of some segments produces a part, a finalized index *is* one,
/// parts merge associatively, and every entry point finalizes once.
/// The second field is its blocks-led checkpoint: `Some(through)` when
/// `validators[*].blocks_led` counts `[0, through]` under `validator_spec`
/// (a finalized index, at its `max_slot`), for [`finalize`] to extend.
/// The persisted frame is exactly these fields plus that checkpoint.
#[derive(Default)]
struct IndexPart(QueryIndex, Option<u64>);

impl IndexPart {
    /// A finalized index as a part.
    fn of(index: QueryIndex) -> IndexPart {
        let through = index.validators.is_some().then_some(index.totals.max_slot);
        IndexPart(index, through)
    }

    fn day_mut(&mut self, day: u64) -> &mut DayRollup {
        let days = &mut self.0.days;
        while days.len() <= day as usize {
            days.push(DayRollup::new(days.len() as u64));
        }
        &mut days[day as usize]
    }

    /// The part as the sink of the scan engine's walk, under the one
    /// thing the walk itself does not need: the leader schedule the refs
    /// are joined against.
    fn observe(
        &mut self,
        b: &BundleFacts,
        sandwich: Option<(BundleId, SandwichFinding)>,
        schedule: Option<&LeaderSchedule>,
    ) {
        self.0.totals.max_slot = self.0.totals.max_slot.max(b.slot.0);
        let finding = sandwich.as_ref().map(|(_, finding)| finding);
        self.day_mut(b.day).observe(b, finding);
        let Some((bundle_id, finding)) = sandwich else {
            return;
        };
        self.0.totals.non_sol_sandwiches += u64::from(!finding.sol_legged);
        let mints = finding
            .currencies
            .iter()
            .filter_map(|c| match c {
                Currency::Sol => None,
                Currency::Token(mint) => Some(*mint),
            })
            .collect();
        self.0.refs.push(SandwichRef {
            day: b.day,
            slot: b.slot.0,
            bundle_id,
            attacker: finding.attacker,
            victim: finding.victim,
            mints,
            sol_legged: finding.sol_legged,
            victim_loss_lamports: finding.victim_loss_lamports,
            attacker_gain_lamports: finding.attacker_gain_lamports,
            tip_lamports: b.tip.0,
            leader: schedule.map(|s| s.leader_at(b.slot)),
        });
    }

    /// Associative and commutative up to the order of `refs` and the file
    /// lists, which [`finalize`] sorts.
    fn merge(&mut self, other: IndexPart) {
        let IndexPart(other, other_through) = other;
        for rollup in &other.days {
            self.day_mut(rollup.day).add(rollup);
        }
        let into = &mut self.0;
        into.refs.extend(other.refs);
        into.coverage.add(&other.coverage);
        into.totals.segments += other.totals.segments;
        into.totals.non_sol_sandwiches += other.totals.non_sol_sandwiches;
        into.totals.max_slot = into.totals.max_slot.max(other.totals.max_slot);
        into.segment_files.extend(other.segment_files);
        into.quarantined_files.extend(other.quarantined_files);
        // Every part of one store generation carries the same spec (or
        // none); the leaderboard is recomputed from the merged refs under it.
        into.validator_spec = into.validator_spec.or(other.validator_spec);
        // Blocks led is a prefix sum: further under that spec subsumes nearer.
        if other_through > self.1 && other.validator_spec == into.validator_spec {
            into.validators = other.validators;
            self.1 = other_through;
        }
    }
}

pub(crate) fn whole_store(store: &BundleStore) -> (Vec<usize>, Vec<usize>) {
    let all = |n: usize| (0..n).collect();
    (all(store.segments().len()), all(store.quarantined().len()))
}

/// Build the index from every sealed segment of `store` on
/// `config.threads` workers. Deterministic: the result depends only on the
/// store contents, never on the worker count or interleaving.
///
/// Degraded mode: a segment that fails to read or decode is *skipped*,
/// not fatal — the build still returns an index, and
/// [`QueryIndex::coverage`] records exactly which segments (and how many
/// bundles) are missing from it. Quarantined segments are accounted for
/// from the manifest without being read.
pub fn build_index(store: &BundleStore, config: &QueryConfig) -> io::Result<QueryIndex> {
    let (serving, quarantined) = whole_store(store);
    build_index_subset(store, config, &serving, &quarantined)
}

/// Build an index over a **subset** of the store: `serving` indexes into
/// [`BundleStore::segments`], `quarantined` into
/// [`BundleStore::quarantined`]. This is the per-shard build — a shard
/// map partitions the manifest and each shard indexes only its slice. An
/// index outside the manifest (a stale shard map, a stale delta) is an
/// [`io::ErrorKind::InvalidInput`] error naming it.
///
/// The resulting index carries the *full* manifest generation (every
/// shard of one store generation agrees on it) and a coverage block that
/// accounts only for the subset, so summing coverage blocks across a
/// disjoint exhaustive partition reproduces the whole-store coverage
/// exactly.
pub fn build_index_subset(
    store: &BundleStore,
    config: &QueryConfig,
    serving: &[usize],
    quarantined: &[usize],
) -> io::Result<QueryIndex> {
    Ok(fold_onto(visit_segment, store, None, serving, quarantined, config)?.0)
}

/// [`build_index`] that decodes every record of every segment
/// (`visit_decoded` regardless of columns) — the slow reference the
/// columnar route is differential-tested against, like
/// `scan_store_materializing` for the report.
pub fn build_index_materializing(
    store: &BundleStore,
    config: &QueryConfig,
) -> io::Result<QueryIndex> {
    let (serving, quarantined) = whole_store(store);
    Ok(fold_onto(visit_decoded, store, None, &serving, &quarantined, config)?.0)
}

/// Index some segments of `store` on top of `base` — the index ladder's
/// working rungs, and every build: walk the `serving` ones (by `route`, on
/// `config.threads` workers) into one part that also accounts for the
/// `quarantined` ones, merge it into `base` (an index of an earlier
/// generation of the store, under the spec the manifest still carries;
/// `None` builds from nothing) and finalize once, at the store's
/// generation: `finalize(merge(base, scan(delta)))`. A segment that fails
/// to open, verify or decode is skipped and counted in the coverage block;
/// an index that is not in the manifest is the caller's error. Also
/// returns the leader groups the finalize hashed.
pub(crate) fn fold_onto(
    route: Route,
    store: &BundleStore,
    base: Option<QueryIndex>,
    serving: &[usize],
    quarantined: &[usize],
    config: &QueryConfig,
) -> io::Result<(QueryIndex, u64)> {
    let mut onto = base.map_or_else(IndexPart::default, IndexPart::of);
    let mut acc = IndexPart::default();
    acc.0.totals.segments = serving.len() as u64;
    acc.0.coverage.segments_total = serving.len() as u64;
    acc.0.coverage.segments_quarantined = quarantined.len() as u64;
    for &q in quarantined {
        let Some(entry) = store.quarantined().get(q) else {
            let message = format!("quarantined segment index {q} is not in the manifest");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
        };
        acc.0.coverage.bundles_quarantined += entry.meta.bundles;
        acc.0.quarantined_files.push(entry.meta.file.clone());
    }
    // One schedule for the scan and the finalize: recomputed from the
    // manifest's public validator spec, never read from the wire. A
    // pre-attribution store (no spec) indexes with `leader: None`.
    acc.0.validator_spec = store.manifest().validators;
    let schedule = acc.0.validator_spec.as_ref().map(LeaderSchedule::new);
    let walk = Walk {
        clock: &SlotClock::default(),
        detector: &DetectorConfig::default(),
        extended: false,
    };
    let parts = scan_segments(store, serving, config.threads, None, |view| {
        let mut part = IndexPart::default();
        let mut sink = |b: &BundleFacts, s| part.observe(b, s, schedule.as_ref());
        route(view, &walk, &mut sink)?;
        Ok(part)
    })?;
    for (meta, part) in parts {
        acc.0.segment_files.push(meta.file.clone());
        if let Some(part) = acc.0.coverage.record(meta, part) {
            acc.merge(part);
        }
    }
    onto.merge(acc);
    onto.0.generation = store.generation().to_string();
    Ok(finalize(onto, schedule.as_ref()))
}

/// Fold already-built indexes into one, exactly as if their segments had
/// been scanned in a single [`build_index_subset`] pass: merge them as
/// un-finalized parts and finalize once under `generation`.
///
/// Because the merge is associative and commutative and `finalize` is a
/// deterministic function of the merged multiset, folding any partition
/// of the segments in any order is **byte-identical** to a from-scratch
/// rebuild — the invariant `tests/live_fold_props.rs` pins and the whole
/// live-tail reload path rests on. The fold runs on the calling thread, so
/// `_config`'s worker count goes unused.
pub fn fold_indexes(generation: &str, parts: Vec<QueryIndex>, _config: &QueryConfig) -> QueryIndex {
    let mut acc = IndexPart::default();
    for part in parts {
        acc.merge(IndexPart::of(part));
    }
    acc.0.generation = generation.to_string();
    let schedule = acc.0.validator_spec.as_ref().map(LeaderSchedule::new);
    finalize(acc, schedule.as_ref()).0
}

/// Sort attacker entries into leaderboard order: gain desc, then count
/// desc, then address asc. The shard router re-sorts merged entries with
/// this exact comparator so ranks match the single-engine answer.
pub fn sort_attacker_entries(attackers: &mut [AttackerEntry]) {
    attackers.sort_by(|a, b| {
        b.attacker_gain_lamports
            .cmp(&a.attacker_gain_lamports)
            .then(b.sandwiches.cmp(&a.sandwiches))
            .then(a.attacker.cmp(&b.attacker))
    });
}

/// Sort pool entries into leaderboard order: loss desc, then count desc,
/// then mint asc. Shared with the shard router like
/// [`sort_attacker_entries`].
pub fn sort_pool_entries(pools: &mut [PoolEntry]) {
    pools.sort_by(|a, b| {
        b.victim_loss_lamports
            .cmp(&a.victim_loss_lamports)
            .then(b.sandwiches.cmp(&a.sandwiches))
            .then(a.mint.cmp(&b.mint))
    });
}

/// Sort validator entries into leaderboard order: sandwich **rate**
/// (sandwiches per block led) desc, then sandwich count desc, then
/// address asc. The rate comparison cross-multiplies in `u128` —
/// `a.sandwiches * b.blocks_led` vs `b.sandwiches * a.blocks_led` — so
/// there is no float anywhere and the shard router's re-sort of merged
/// entries is bit-identical to the single-engine order.
pub fn sort_validator_entries(validators: &mut [ValidatorEntry]) {
    validators.sort_by(|a, b| {
        let a_rate = u128::from(a.sandwiches) * u128::from(b.blocks_led);
        let b_rate = u128::from(b.sandwiches) * u128::from(a.blocks_led);
        b_rate
            .cmp(&a_rate)
            .then(b.sandwiches.cmp(&a.sandwiches))
            .then(a.pubkey.cmp(&b.pubkey))
    });
}

/// Turn a merged part into the served index: sort the refs and file
/// lists, label the days under the default clock, extend the blocks-led
/// prefix sum to the merged `max_slot` under `schedule` (that of the
/// part's `validator_spec`), and [`derive`] the rest. The one place a
/// leader schedule is walked (from the part's blocks-led checkpoint, else
/// slot 0), so every entry point calls it once; the leader groups it
/// hashed are returned beside the index.
fn finalize(part: IndexPart, schedule: Option<&LeaderSchedule>) -> (QueryIndex, u64) {
    let IndexPart(mut acc, led_through) = part;
    debug_assert_eq!(schedule.map(|s| *s.spec()), acc.validator_spec);
    acc.refs.sort_by_key(|r| (r.slot, r.bundle_id.0));
    acc.segment_files.sort();
    acc.quarantined_files.sort();
    let clock = SlotClock::default();
    for (day, rollup) in acc.days.iter_mut().enumerate() {
        rollup.label = clock.day_label(day as u64);
    }
    let mut groups_hashed = 0;
    let led = schedule.map(|schedule| {
        // The carried prefix, re-keyed from pubkeys to schedule order, is
        // trusted only if it adds up: `[0, through]` is `through + 1` slots.
        // (`through` is some part's `max_slot`: never past the merged one.)
        let mut led = SlotsLed::default();
        if let (Some(through), Some(entries)) = (led_through, &acc.validators) {
            let counts = blocks_led_of(schedule, entries);
            if counts.iter().map(|&c| u128::from(c)).sum::<u128>() == u128::from(through) + 1 {
                (led.counts, led.through) = (counts, Some(through));
            }
        }
        groups_hashed = schedule.advance(&mut led, acc.totals.max_slot);
        (schedule, led.counts)
    });
    (derive(acc, led), groups_hashed)
}

/// The blocks-led counts of leaderboard `entries`, in `schedule` order.
fn blocks_led_of(schedule: &LeaderSchedule, entries: &[ValidatorEntry]) -> Vec<u64> {
    let by_pubkey: HashMap<Pubkey, u64> =
        entries.iter().map(|e| (e.pubkey, e.blocks_led)).collect();
    let led = |v: &sandwich_attrib::Validator| by_pubkey.get(&v.pubkey).copied().unwrap_or(0);
    schedule.validators().iter().map(led).collect()
}

/// The totals and the three leaderboards of `index`, a pure function of
/// its primary fields and, when it has a validator spec, of `led`: that
/// spec's schedule and the blocks led through `max_slot` in schedule
/// order. [`finalize`] ends here and so does a frame load, which is why a
/// frame stores none of it and derived data can never disagree with the
/// refs it came from.
fn derive(mut index: QueryIndex, led: Option<(&LeaderSchedule, Vec<u64>)>) -> QueryIndex {
    let mut attackers: HashMap<Pubkey, AttackerEntry> = HashMap::new();
    let mut pools: HashMap<Pubkey, PoolEntry> = HashMap::new();
    let mut pool_attackers: HashMap<Pubkey, std::collections::BTreeSet<Pubkey>> = HashMap::new();
    for (i, r) in index.refs.iter().enumerate() {
        let entry = attackers
            .entry(r.attacker)
            .or_insert_with(|| AttackerEntry {
                attacker: r.attacker,
                sandwiches: 0,
                attacker_gain_lamports: 0,
                victim_loss_lamports: 0,
                tips_lamports: 0,
                refs: Vec::new(),
            });
        entry.sandwiches += 1;
        entry.attacker_gain_lamports += r.attacker_gain_lamports.unwrap_or(0);
        entry.victim_loss_lamports += u128::from(r.victim_loss_lamports.unwrap_or(0));
        entry.tips_lamports += u128::from(r.tip_lamports);
        entry.refs.push(i as u32);
        for mint in &r.mints {
            let pool = pools.entry(*mint).or_insert_with(|| PoolEntry {
                mint: *mint,
                sandwiches: 0,
                victim_loss_lamports: 0,
                attackers: 0,
                refs: Vec::new(),
            });
            pool.sandwiches += 1;
            pool.victim_loss_lamports += u128::from(r.victim_loss_lamports.unwrap_or(0));
            pool.refs.push(i as u32);
            pool_attackers.entry(*mint).or_default().insert(r.attacker);
        }
    }
    for (mint, set) in pool_attackers {
        if let Some(pool) = pools.get_mut(&mint) {
            pool.attackers = set.len() as u64;
        }
    }

    let mut attackers: Vec<AttackerEntry> = attackers.into_values().collect();
    sort_attacker_entries(&mut attackers);
    let mut pools: Vec<PoolEntry> = pools.into_values().collect();
    sort_pool_entries(&mut pools);

    // The validator leaderboard is a pure function of (refs, spec, blocks
    // led): every fold path recomputes it from the merged refs and extends
    // blocks led to the same `max_slot`, so fold-vs-rebuild byte-identity
    // extends to attribution.
    index.validators = led.map(|(schedule, blocks_led)| {
        let by_pubkey: HashMap<Pubkey, usize> = schedule
            .validators()
            .iter()
            .enumerate()
            .map(|(i, v)| (v.pubkey, i))
            .collect();
        let mut entries: Vec<ValidatorEntry> = schedule
            .validators()
            .iter()
            .enumerate()
            .map(|(i, v)| ValidatorEntry {
                pubkey: v.pubkey,
                stake_lamports: v.stake_lamports,
                stake_pool: v.stake_pool.to_string(),
                blocks_led: blocks_led[i],
                sandwich_slots: Vec::new(),
                sandwiches: 0,
                attacker_gain_lamports: 0,
                victim_loss_lamports: 0,
                tips_lamports: 0,
                refs: Vec::new(),
            })
            .collect();
        let mut slot_sets: Vec<std::collections::BTreeSet<u64>> =
            vec![std::collections::BTreeSet::new(); entries.len()];
        for (i, r) in index.refs.iter().enumerate() {
            let Some(leader) = r.leader else { continue };
            let Some(&v) = by_pubkey.get(&leader) else {
                continue;
            };
            let entry = &mut entries[v];
            entry.sandwiches += 1;
            entry.attacker_gain_lamports += r.attacker_gain_lamports.unwrap_or(0);
            entry.victim_loss_lamports += u128::from(r.victim_loss_lamports.unwrap_or(0));
            entry.tips_lamports += u128::from(r.tip_lamports);
            entry.refs.push(i as u32);
            slot_sets[v].insert(r.slot);
        }
        for (entry, slots) in entries.iter_mut().zip(slot_sets) {
            entry.sandwich_slots = slots.into_iter().collect();
        }
        sort_validator_entries(&mut entries);
        entries
    });

    index.totals.bundles = index.days.iter().map(|d| d.bundles).sum();
    index.totals.sandwiches = index.refs.len() as u64;
    index.totals.defensive = index.days.iter().map(|d| d.defensive).sum();
    index.totals.victim_loss_lamports = index.days.iter().map(|d| d.victim_loss_lamports).sum();
    index.totals.attacker_gain_lamports = index.days.iter().map(|d| d.attacker_gain_lamports).sum();
    index.totals.tips_lamports = index.days.iter().map(|d| d.tips_lamports).sum();
    index.attackers = attackers;
    index.pools = pools;
    index
}

/// Why a persisted index file was not trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexReject {
    /// No persisted index exists yet.
    Missing,
    /// Bad leading or trailing magic, or too short to frame.
    BadFrame,
    /// Body checksum disagrees with the footer (corruption).
    BadChecksum,
    /// The body does not parse as an index.
    BadBody,
    /// The index describes a different manifest generation.
    StaleGeneration {
        /// Generation recorded in the file.
        found: String,
        /// Generation of the live manifest.
        expected: String,
    },
}

impl std::fmt::Display for IndexReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexReject::Missing => write!(f, "no persisted index"),
            IndexReject::BadFrame => write!(f, "bad index framing"),
            IndexReject::BadChecksum => write!(f, "index checksum mismatch"),
            IndexReject::BadBody => write!(f, "index body does not parse"),
            IndexReject::StaleGeneration { found, expected } => {
                write!(f, "index generation {found} != manifest {expected}")
            }
        }
    }
}

const REF_SOL_LEGGED: u8 = 1;
const REF_HAS_LOSS: u8 = 2;
const REF_HAS_GAIN: u8 = 4;
const REF_HAS_LEADER: u8 = 8;

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, CorruptSegment> {
    let len = get_count(buf, pos, 1, "string")?;
    String::from_utf8(get_bytes(buf, pos, len)?.to_vec())
        .map_err(|_| CorruptSegment("string is not utf-8".into()))
}

fn get_flag(buf: &[u8], pos: &mut usize, valid: u8) -> Result<u8, CorruptSegment> {
    let flags = get_bytes(buf, pos, 1)?[0];
    if flags & !valid != 0 {
        return Err(CorruptSegment(format!("unknown flag bits {flags:#04x}")));
    }
    Ok(flags)
}

/// The `SWQIX02` body: the index's primary fields and its blocks-led
/// checkpoint, laid out as `docs/FORMAT.md` specifies, with every pubkey
/// interned into one key table in first-use order over the refs. A pure
/// function of the index's value: no `HashMap` is ever iterated.
fn encode_index(index: &QueryIndex) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &index.generation);
    let c = &index.coverage;
    let t = &index.totals;
    for n in [
        c.segments_total,
        c.segments_scanned,
        c.segments_quarantined,
        c.segments_failed,
        c.bundles_scanned,
        c.bundles_quarantined,
        c.bundles_failed,
        t.segments,
        t.non_sol_sandwiches,
        t.max_slot,
    ] {
        put_u64(&mut out, n);
    }
    put_u64(&mut out, index.days.len() as u64);
    for d in &index.days {
        put_str(&mut out, &d.label);
        put_u64(&mut out, d.bundles);
        put_u64(&mut out, d.bundles_by_len.len() as u64);
        for &n in &d.bundles_by_len {
            put_u64(&mut out, n);
        }
        put_u64(&mut out, d.sandwiches);
        put_u64(&mut out, d.defensive);
        put_u128(&mut out, d.victim_loss_lamports);
        put_i128(&mut out, d.attacker_gain_lamports);
        put_u128(&mut out, d.tips_lamports);
    }
    for files in [&index.segment_files, &index.quarantined_files] {
        put_u64(&mut out, files.len() as u64);
        for file in files {
            put_str(&mut out, file);
        }
    }
    out.push(u8::from(index.validator_spec.is_some()));
    if let Some(spec) = &index.validator_spec {
        put_u64(&mut out, spec.seed);
        put_u64(&mut out, u64::from(spec.count));
        let entries = index.validators.as_deref().unwrap_or_default();
        let led = blocks_led_of(&LeaderSchedule::new(spec), entries);
        put_u64(&mut out, led.len() as u64);
        for n in led {
            put_u64(&mut out, n);
        }
    }
    // Refs go to their own buffer while the key table fills; the table is
    // written ahead of them.
    let mut table = KeyTable::default();
    let mut refs = Vec::with_capacity(48 * index.refs.len() + 8);
    put_u64(&mut refs, index.refs.len() as u64);
    let mut prev_slot = 0u64;
    for r in &index.refs {
        put_u64(&mut refs, r.slot.wrapping_sub(prev_slot));
        prev_slot = r.slot;
        put_u64(&mut refs, r.day);
        refs.extend_from_slice(r.bundle_id.as_bytes());
        put_u64(&mut refs, table.intern(&r.attacker));
        put_u64(&mut refs, table.intern(&r.victim));
        put_u64(&mut refs, r.mints.len() as u64);
        for mint in &r.mints {
            put_u64(&mut refs, table.intern(mint));
        }
        let flag = |on: bool, bit: u8| u8::from(on) * bit;
        refs.push(
            flag(r.sol_legged, REF_SOL_LEGGED)
                | flag(r.victim_loss_lamports.is_some(), REF_HAS_LOSS)
                | flag(r.attacker_gain_lamports.is_some(), REF_HAS_GAIN)
                | flag(r.leader.is_some(), REF_HAS_LEADER),
        );
        if let Some(loss) = r.victim_loss_lamports {
            put_u64(&mut refs, loss);
        }
        if let Some(gain) = r.attacker_gain_lamports {
            put_i128(&mut refs, gain);
        }
        put_u64(&mut refs, r.tip_lamports);
        if let Some(leader) = &r.leader {
            put_u64(&mut refs, table.intern(leader));
        }
    }
    table.put(&mut out);
    out.extend_from_slice(&refs);
    out
}

/// Whether a running total of `values` stays within `limit`, and with it
/// every sum the derivation takes over any subset of them.
fn sums_fit(values: impl IntoIterator<Item = u128>, limit: u128) -> bool {
    let add = |sum: u128, v: u128| sum.checked_add(v).filter(|&s| s <= limit);
    values.into_iter().try_fold(0, add).is_some()
}

/// Decode an [`encode_index`] body and [`derive`] what it leaves out. Any
/// input gives an index or an error, never a panic: counts are bounded by
/// the bytes left ([`get_count`]), refs must be in index order, the
/// blocks-led checkpoint must add up, and every total the derivation
/// takes must fit its type.
fn decode_index(buf: &[u8]) -> Result<QueryIndex, CorruptSegment> {
    let pos = &mut 0;
    let mut index = QueryIndex {
        generation: get_str(buf, pos)?,
        ..QueryIndex::default()
    };
    let mut next = || get_u64(buf, pos);
    index.coverage = IndexCoverage {
        segments_total: next()?,
        segments_scanned: next()?,
        segments_quarantined: next()?,
        segments_failed: next()?,
        bundles_scanned: next()?,
        bundles_quarantined: next()?,
        bundles_failed: next()?,
    };
    index.totals.segments = next()?;
    index.totals.non_sol_sandwiches = next()?;
    index.totals.max_slot = next()?;
    for day in 0..get_count(buf, pos, 1, "day")? as u64 {
        let label = get_str(buf, pos)?;
        let bundles = get_u64(buf, pos)?;
        let bundles_by_len = (0..get_count(buf, pos, 1, "bundle length")?)
            .map(|_| get_u64(buf, pos))
            .collect::<Result<_, _>>()?;
        index.days.push(DayRollup {
            day,
            label,
            bundles,
            bundles_by_len,
            sandwiches: get_u64(buf, pos)?,
            defensive: get_u64(buf, pos)?,
            victim_loss_lamports: get_u128(buf, pos)?,
            attacker_gain_lamports: get_i128(buf, pos)?,
            tips_lamports: get_u128(buf, pos)?,
        });
    }
    for files in [&mut index.segment_files, &mut index.quarantined_files] {
        for _ in 0..get_count(buf, pos, 1, "file")? {
            files.push(get_str(buf, pos)?);
        }
    }
    let mut blocks_led = None;
    if get_flag(buf, pos, 1)? == 1 {
        let seed = get_u64(buf, pos)?;
        let count = u32::try_from(get_u64(buf, pos)?)
            .map_err(|_| CorruptSegment("validator count overflows".into()))?;
        let led = (0..get_count(buf, pos, 1, "blocks led")?)
            .map(|_| get_u64(buf, pos))
            .collect::<Result<Vec<_>, _>>()?;
        // One count per scheduled validator (which also bounds the schedule
        // a load derives), summing to the `[0, max_slot]` checkpoint.
        let sum: u128 = led.iter().map(|&c| u128::from(c)).sum();
        if led.len() != count.max(1) as usize || sum != u128::from(index.totals.max_slot) + 1 {
            return Err(CorruptSegment("blocks led do not add up".into()));
        }
        index.validator_spec = Some(ValidatorSpec { seed, count });
        blocks_led = Some(led);
    }
    let keys = decode_key_table(buf, pos)?;
    let key = |pos: &mut usize| -> Result<Pubkey, CorruptSegment> {
        let i = get_u64(buf, pos)?;
        let key = keys.get(i as usize).copied();
        key.ok_or_else(|| CorruptSegment(format!("pubkey index {i} out of table")))
    };
    // Each ref carries a raw 32-byte bundle id.
    let count = get_count(buf, pos, 32, "ref")?;
    index.refs.reserve_exact(count);
    let mut prev_slot = 0u64;
    for _ in 0..count {
        let slot = prev_slot
            .checked_add(get_u64(buf, pos)?)
            .ok_or_else(|| CorruptSegment("slot delta overflow".into()))?;
        prev_slot = slot;
        let day = get_u64(buf, pos)?;
        let bundle_id = Hash(get_bytes(buf, pos, 32)?.try_into().expect("32 bytes"));
        let (attacker, victim) = (key(pos)?, key(pos)?);
        let mints = (0..get_count(buf, pos, 1, "mint")?)
            .map(|_| key(pos))
            .collect::<Result<_, _>>()?;
        let all = REF_SOL_LEGGED | REF_HAS_LOSS | REF_HAS_GAIN | REF_HAS_LEADER;
        let flags = get_flag(buf, pos, all)?;
        let has = |bit: u8| flags & bit != 0;
        let r = SandwichRef {
            day,
            slot,
            bundle_id,
            attacker,
            victim,
            mints,
            sol_legged: has(REF_SOL_LEGGED),
            victim_loss_lamports: has(REF_HAS_LOSS).then(|| get_u64(buf, pos)).transpose()?,
            attacker_gain_lamports: has(REF_HAS_GAIN).then(|| get_i128(buf, pos)).transpose()?,
            tip_lamports: get_u64(buf, pos)?,
            leader: has(REF_HAS_LEADER).then(|| key(pos)).transpose()?,
        };
        let last = index.refs.last().map(|l| (l.slot, l.bundle_id.0));
        if last > Some((slot, bundle_id.0)) {
            return Err(CorruptSegment("refs out of (slot, bundle id) order".into()));
        }
        index.refs.push(r);
    }
    if *pos != buf.len() {
        return Err(CorruptSegment("trailing bytes after the refs".into()));
    }
    let (u64_max, i128_max) = (u128::from(u64::MAX), i128::MAX as u128);
    let days = &index.days;
    let gain = |d: &DayRollup| d.attacker_gain_lamports.unsigned_abs();
    let ref_gains = index.refs.iter().filter_map(|r| r.attacker_gain_lamports);
    let fits = sums_fit(days.iter().map(|d| d.bundles.into()), u64_max)
        && sums_fit(days.iter().map(|d| d.defensive.into()), u64_max)
        && sums_fit(days.iter().map(|d| d.victim_loss_lamports), u128::MAX)
        && sums_fit(days.iter().map(|d| d.tips_lamports), u128::MAX)
        && sums_fit(days.iter().map(gain), i128_max)
        && sums_fit(ref_gains.map(i128::unsigned_abs), i128_max);
    if !fits {
        return Err(CorruptSegment("a derived total overflows".into()));
    }
    let schedule = index.validator_spec.as_ref().map(LeaderSchedule::new);
    Ok(derive(index, schedule.as_ref().zip(blocks_led)))
}

/// Persist `index` next to the manifest, durably: temp file + fsync +
/// atomic rename + directory fsync, framed as `magic · binary body ·
/// FNV-1a 64 checksum (LE) · footer magic`. The body is
/// [`encode_index`]'s: primary fields only, so it is a fraction of the
/// served index's size. A crash mid-save leaves the previous index (or
/// none) — never a torn frame.
pub fn save_index(dir: &Path, index: &QueryIndex) -> std::io::Result<()> {
    save_index_as(dir, index, INDEX_FILE)
}

/// [`save_index`] under an explicit file name — per-shard indexes persist
/// next to the whole-store one (e.g. `query-index.shard-0of4-<fp>.bin`)
/// without clobbering it.
pub fn save_index_as(dir: &Path, index: &QueryIndex, file: &str) -> std::io::Result<()> {
    save_index_with(dir, index, file, None)
}

/// [`save_index_as`] with an optional [`CrashPlan`] threaded through the
/// durable write: every temp-create / chunk-write / fsync / rename /
/// dir-fsync is an enumerated crash step, and the `write_durable_with`
/// invariant (destination is entirely-old or entirely-new at every step,
/// torn or clean) is what lets the fold-persist crash matrix prove a
/// reader never sees a torn index.
pub fn save_index_with(
    dir: &Path,
    index: &QueryIndex,
    file: &str,
    plan: Option<&mut CrashPlan>,
) -> std::io::Result<()> {
    let body = encode_index(index);
    let mut image = Vec::with_capacity(body.len() + 24);
    image.extend_from_slice(INDEX_MAGIC);
    image.extend_from_slice(&body);
    image.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    image.extend_from_slice(INDEX_FOOTER_MAGIC);
    // Split the frame into thirds so torn-write crash points land inside
    // the body, not only at the frame edges.
    let cuts = [image.len() / 3, 2 * image.len() / 3];
    write_durable_with(&dir.join(file), &image, &cuts, plan)
}

/// Load the persisted whole-store index, trusting it only when the
/// framing, the checksum, and the manifest generation all verify.
pub fn load_index(dir: &Path, expected_generation: &str) -> Result<QueryIndex, IndexReject> {
    let index = load_index_any(dir, INDEX_FILE)?;
    if index.generation != expected_generation {
        return Err(IndexReject::StaleGeneration {
            found: index.generation,
            expected: expected_generation.to_string(),
        });
    }
    Ok(index)
}

/// Load the index persisted as `file` (the whole store's [`INDEX_FILE`],
/// or one shard's) accepting **any** generation, as long as the framing,
/// checksum, and body all verify. What the index ladder opens with: the
/// frame is the answer when it is current, the fold base when it is stale.
pub fn load_index_any(dir: &Path, file: &str) -> Result<QueryIndex, IndexReject> {
    let image = match std::fs::read(dir.join(file)) {
        Ok(image) => image,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(IndexReject::Missing),
        Err(_) => return Err(IndexReject::BadFrame),
    };
    let frame = INDEX_MAGIC.len() + 8 + INDEX_FOOTER_MAGIC.len();
    if image.len() < frame
        || &image[..INDEX_MAGIC.len()] != INDEX_MAGIC
        || &image[image.len() - INDEX_FOOTER_MAGIC.len()..] != INDEX_FOOTER_MAGIC
    {
        return Err(IndexReject::BadFrame);
    }
    let body = &image[INDEX_MAGIC.len()..image.len() - 8 - INDEX_FOOTER_MAGIC.len()];
    let checksum = u64::from_le_bytes(
        image[image.len() - 8 - INDEX_FOOTER_MAGIC.len()..image.len() - INDEX_FOOTER_MAGIC.len()]
            .try_into()
            .expect("8-byte checksum slice"),
    );
    if fnv1a64(body) != checksum {
        return Err(IndexReject::BadChecksum);
    }
    decode_index(body).map_err(|_| IndexReject::BadBody)
}

/// Find the index of the first ref at or after `slot` (refs are
/// slot-sorted).
pub fn first_ref_at_or_after(refs: &[SandwichRef], slot: u64) -> usize {
    refs.partition_point(|r| r.slot < slot)
}

/// Find the index of the first ref strictly after the `(slot, bundle_id)`
/// live cursor position — the resume point for `/api/live` pagination.
pub fn first_ref_after_cursor(refs: &[SandwichRef], slot: u64, bundle_id: &BundleId) -> usize {
    refs.partition_point(|r| (r.slot, r.bundle_id.0) <= (slot, bundle_id.0))
}

/// Slots per wall-clock minute at Solana's 400 ms slot cadence — the
/// bucket width of the `/api/live` rolling aggregates. Derived purely
/// from slot numbers so every shard buckets identically without a clock.
pub const SLOTS_PER_MINUTE: u64 = 150;

/// Dense minutes in the `/api/live` rolling window (newest last).
pub const LIVE_MINUTES: u64 = 10;

/// The minute bucket a slot lands in.
pub fn minute_of(slot: u64) -> u64 {
    slot / SLOTS_PER_MINUTE
}

/// One minute bucket of the `/api/live` rolling aggregates: sandwich
/// counts and priced flows for sandwiches whose bundle landed in this
/// minute. Additive across any partition of the refs, so shard windows
/// sum to the single-engine window.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveMinute {
    /// Absolute minute ordinal (`slot / SLOTS_PER_MINUTE`).
    pub minute: u64,
    /// Sandwiches landing this minute.
    pub sandwiches: u64,
    /// Summed priced victim losses, lamports.
    pub victim_loss_lamports: u128,
    /// Summed priced attacker gains, lamports.
    pub attacker_gain_lamports: i128,
    /// Summed bundle tips of the sandwich bundles, lamports.
    pub tips_lamports: u128,
}

impl LiveMinute {
    fn empty(minute: u64) -> LiveMinute {
        LiveMinute {
            minute,
            ..LiveMinute::default()
        }
    }

    fn absorb_ref(&mut self, r: &SandwichRef) {
        self.sandwiches += 1;
        self.victim_loss_lamports += u128::from(r.victim_loss_lamports.unwrap_or(0));
        self.attacker_gain_lamports += r.attacker_gain_lamports.unwrap_or(0);
        self.tips_lamports += u128::from(r.tip_lamports);
    }

    fn absorb(&mut self, other: &LiveMinute) {
        self.sandwiches += other.sandwiches;
        self.victim_loss_lamports += other.victim_loss_lamports;
        self.attacker_gain_lamports += other.attacker_gain_lamports;
        self.tips_lamports += other.tips_lamports;
    }
}

/// The dense [`LIVE_MINUTES`]-wide rolling window ending at the minute of
/// `tip_slot`, aggregated from slot-sorted `refs`. Buckets with no
/// sandwiches are present and zero, so clients can chart the window
/// without gap-filling.
pub fn live_minutes(refs: &[SandwichRef], tip_slot: u64) -> Vec<LiveMinute> {
    let tip = minute_of(tip_slot);
    let start = tip.saturating_sub(LIVE_MINUTES - 1);
    let mut window: Vec<LiveMinute> = (start..=tip).map(LiveMinute::empty).collect();
    let from = first_ref_at_or_after(refs, start * SLOTS_PER_MINUTE);
    for r in &refs[from..] {
        let minute = minute_of(r.slot);
        if minute > tip {
            continue;
        }
        window[(minute - start) as usize].absorb_ref(r);
    }
    window
}

/// Re-window per-minute aggregates (e.g. concatenated shard windows) onto
/// the dense global window ending at `tip_slot`: sum buckets by absolute
/// minute, then slice the window, filling zeros. Shard windows are a
/// superset of each shard's contribution to the global window (every
/// shard tip is at most the global tip), so this reproduces
/// [`live_minutes`] over the union of the refs — the property the router
/// merge relies on.
pub fn window_minutes(
    minutes: impl IntoIterator<Item = LiveMinute>,
    tip_slot: u64,
) -> Vec<LiveMinute> {
    let mut by_minute: std::collections::BTreeMap<u64, LiveMinute> =
        std::collections::BTreeMap::new();
    for m in minutes {
        by_minute
            .entry(m.minute)
            .or_insert_with(|| LiveMinute::empty(m.minute))
            .absorb(&m);
    }
    let tip = minute_of(tip_slot);
    let start = tip.saturating_sub(LIVE_MINUTES - 1);
    (start..=tip)
        .map(|minute| {
            by_minute
                .remove(&minute)
                .unwrap_or_else(|| LiveMinute::empty(minute))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_store::{generation_of, Manifest, StoreWriter};
    use sandwich_types::{Keypair, Lamports, Slot};

    fn bundle(seed: u64, slot: u64, len: usize, tip: u64) -> sandwich_store::CollectedBundle {
        let kp = Keypair::from_label("qidx");
        sandwich_store::CollectedBundle {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot: Slot(slot),
            timestamp_ms: slot * 400,
            tip: Lamports(tip),
            tx_ids: (0..len)
                .map(|i| kp.sign(&(seed * 16 + i as u64).to_le_bytes()))
                .collect(),
        }
    }

    fn tmp_store(tag: &str, segments: usize) -> BundleStore {
        let dir = std::env::temp_dir().join(format!("swquery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = StoreWriter::create(&dir).unwrap();
        for seg in 0..segments as u64 {
            let bundles: Vec<_> = (0..20)
                .map(|i| bundle(seg * 100 + i, seg * 300 + i * 3, 1, 40_000 + i))
                .collect();
            w.seal_segment(bundles, Vec::new(), Vec::new()).unwrap();
        }
        w.into_reader()
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let store = tmp_store("threads", 5);
        let mut config = QueryConfig { threads: 1 };
        let base = serde_json::to_string(&build_index(&store, &config).unwrap()).unwrap();
        for threads in [2, 8] {
            config.threads = threads;
            let other = serde_json::to_string(&build_index(&store, &config).unwrap()).unwrap();
            assert_eq!(base, other, "threads={threads}");
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn rollups_count_bundles_and_defensive() {
        let store = tmp_store("rollup", 2);
        let index = build_index(&store, &QueryConfig::default()).unwrap();
        assert_eq!(index.totals.segments, 2);
        assert_eq!(index.totals.bundles, 40);
        // Tips of 40,000..40,020 lamports are all under the 100k threshold.
        assert_eq!(index.totals.defensive, 40);
        assert_eq!(index.days.len(), 1, "all slots land on day 0");
        assert_eq!(index.days[0].bundles, 40);
        assert_eq!(index.days[0].bundles_by_len[0], 40);
        assert!(!index.days[0].label.is_empty());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn folding_per_segment_subsets_matches_the_full_build() {
        let store = tmp_store("fold", 4);
        let config = QueryConfig::default();
        let full = build_index(&store, &config).unwrap();
        assert_eq!(full.segment_files.len(), 4, "file coverage is recorded");
        let parts: Vec<QueryIndex> = (0..4)
            .map(|i| build_index_subset(&store, &config, &[i], &[]).unwrap())
            .collect();
        let folded = fold_indexes(&full.generation, parts, &config);
        assert_eq!(
            serde_json::to_string(&folded).unwrap(),
            serde_json::to_string(&full).unwrap(),
            "fold of per-segment builds must be byte-identical to one pass"
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn live_minutes_window_is_dense_and_rewindowable() {
        let store = tmp_store("livemin", 3);
        let index = build_index(&store, &QueryConfig::default()).unwrap();
        let window = live_minutes(&index.refs, index.totals.max_slot);
        assert_eq!(
            window.len() as u64,
            minute_of(index.totals.max_slot).min(LIVE_MINUTES - 1) + 1
        );
        assert_eq!(
            window.last().unwrap().minute,
            minute_of(index.totals.max_slot)
        );
        // Re-windowing the window is the identity (same tip).
        assert_eq!(
            window_minutes(window.clone(), index.totals.max_slot),
            window
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn persisted_index_roundtrips_and_rejects_corruption() {
        let store = tmp_store("persist", 3);
        let dir = store.dir().to_path_buf();
        let index = build_index(&store, &QueryConfig::default()).unwrap();
        save_index(&dir, &index).unwrap();

        let back = load_index(&dir, &index.generation).unwrap();
        assert_eq!(back, index);

        // A stale generation is rejected even when the bytes verify.
        match load_index(&dir, "0000000000000000") {
            Err(IndexReject::StaleGeneration { .. }) => {}
            other => panic!("expected stale-generation reject, got {other:?}"),
        }

        // Flip one body byte: the checksum catches it.
        let path = dir.join(INDEX_FILE);
        let mut image = std::fs::read(&path).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x20;
        std::fs::write(&path, &image).unwrap();
        assert_eq!(
            load_index(&dir, &index.generation).unwrap_err(),
            IndexReject::BadChecksum
        );

        // Truncation breaks the framing.
        std::fs::write(&path, &image[..10]).unwrap();
        assert_eq!(
            load_index(&dir, &index.generation).unwrap_err(),
            IndexReject::BadFrame
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_build_skips_unreadable_segments_with_exact_coverage() {
        let store = tmp_store("degraded", 3);
        let dir = store.dir().to_path_buf();
        let full = build_index(&store, &QueryConfig::default()).unwrap();
        assert!(full.coverage.complete());
        assert_eq!(full.coverage.segments_scanned, 3);
        assert_eq!(full.coverage.bundles_scanned, 60);

        // Delete one segment file out from under the reader: the build
        // degrades to the remaining segments instead of failing.
        std::fs::remove_file(dir.join(&store.segments()[1].file)).unwrap();
        let degraded = build_index(&store, &QueryConfig::default()).unwrap();
        assert!(!degraded.coverage.complete());
        assert_eq!(degraded.coverage.segments_scanned, 2);
        assert_eq!(degraded.coverage.segments_failed, 1);
        assert_eq!(degraded.coverage.bundles_failed, 20);
        assert_eq!(degraded.totals.bundles, 40, "skipped bundles are absent");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_serving_index_is_invalid_input_not_a_panic() {
        let store = tmp_store("staleserving", 2);
        let err = build_index_subset(&store, &QueryConfig::default(), &[0, 2], &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("serving segment index 2"), "{err}");
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn out_of_range_quarantined_index_is_invalid_input_not_dropped() {
        let store = tmp_store("stalequarantine", 2);
        let err = build_index_subset(&store, &QueryConfig::default(), &[0, 1], &[0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().contains("quarantined segment index 0"),
            "{err}"
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn missing_index_is_reported_as_missing() {
        let store = tmp_store("missing", 1);
        assert_eq!(
            load_index(store.dir(), "whatever").unwrap_err(),
            IndexReject::Missing
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    fn tmp_store_with_spec(tag: &str, segments: usize, spec: ValidatorSpec) -> BundleStore {
        let dir = std::env::temp_dir().join(format!("swquery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = StoreWriter::create(&dir).unwrap();
        w.set_validators(spec).unwrap();
        for seg in 0..segments as u64 {
            let bundles: Vec<_> = (0..20)
                .map(|i| bundle(seg * 100 + i, seg * 300 + i * 3, 1, 40_000 + i))
                .collect();
            w.seal_segment(bundles, Vec::new(), Vec::new()).unwrap();
        }
        w.into_reader()
    }

    #[test]
    fn spec_in_manifest_yields_a_full_validator_leaderboard() {
        let spec = ValidatorSpec::new(7, 6);
        let store = tmp_store_with_spec("valboard", 3, spec);
        let index = build_index(&store, &QueryConfig::default()).unwrap();
        assert_eq!(index.validator_spec, Some(spec));
        let validators = index.validators.as_ref().expect("leaderboard present");
        assert_eq!(validators.len(), 6, "one entry per spec validator");
        let led: u64 = validators.iter().map(|v| v.blocks_led).sum();
        assert_eq!(
            led,
            index.totals.max_slot + 1,
            "blocks_led partitions [0, max_slot]"
        );
        assert!(validators.iter().all(|v| !v.stake_pool.is_empty()));
        // No sandwiches in this store, so the tie-break is address order.
        let addrs: Vec<_> = validators.iter().map(|v| v.pubkey).collect();
        let mut sorted = addrs.clone();
        sorted.sort();
        assert_eq!(addrs, sorted);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn fold_with_spec_matches_the_full_build_byte_for_byte() {
        let spec = ValidatorSpec::new(11, 4);
        let store = tmp_store_with_spec("valfold", 4, spec);
        let config = QueryConfig::default();
        let full = build_index(&store, &config).unwrap();
        assert!(full.validators.is_some());
        let parts: Vec<QueryIndex> = (0..4)
            .map(|i| build_index_subset(&store, &config, &[i], &[]).unwrap())
            .collect();
        let folded = fold_indexes(&full.generation, parts, &config);
        assert_eq!(
            serde_json::to_string(&folded).unwrap(),
            serde_json::to_string(&full).unwrap(),
            "fold must recompute the leaderboard byte-identically"
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn fold_recounts_from_slot_zero_when_a_checkpoint_does_not_add_up() {
        let spec = ValidatorSpec::new(11, 4);
        let store = tmp_store_with_spec("valtamper", 4, spec);
        let config = QueryConfig::default();
        let full = build_index(&store, &config).unwrap();
        let mut parts: Vec<QueryIndex> = (0..4)
            .map(|i| build_index_subset(&store, &config, &[i], &[]).unwrap())
            .collect();
        // The part that counted furthest is the one the fold would extend.
        parts[3].validators.as_mut().unwrap()[0].blocks_led += 1;
        let folded = fold_indexes(&full.generation, parts, &config);
        assert_eq!(folded, full);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn validator_sort_ranks_by_rate_without_floats() {
        fn entry(label: &str, sandwiches: u64, blocks_led: u64) -> ValidatorEntry {
            ValidatorEntry {
                pubkey: Pubkey::derive(label),
                stake_lamports: 0,
                stake_pool: "solo".into(),
                blocks_led,
                sandwich_slots: Vec::new(),
                sandwiches,
                attacker_gain_lamports: 0,
                victim_loss_lamports: 0,
                tips_lamports: 0,
                refs: Vec::new(),
            }
        }
        // Rates: a = 3/10, b = 2/4 (= 0.5), c = 0/8, d = 0/0.
        let mut entries = vec![
            entry("a", 3, 10),
            entry("b", 2, 4),
            entry("c", 0, 8),
            entry("d", 0, 0),
        ];
        sort_validator_entries(&mut entries);
        let order: Vec<Pubkey> = entries.iter().map(|e| e.pubkey).collect();
        assert_eq!(order[0], Pubkey::derive("b"), "highest rate first");
        assert_eq!(order[1], Pubkey::derive("a"));
        // Zero-sandwich entries tie on rate and count; address breaks it.
        let mut tail = [order[2], order[3]];
        tail.sort();
        assert_eq!(&order[2..], &tail[..]);
    }

    #[test]
    fn generation_tracks_manifest_changes() {
        let dir = std::env::temp_dir().join(format!("swquery-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = StoreWriter::create(&dir).unwrap();
        w.seal_segment(vec![bundle(1, 10, 1, 1_000)], vec![], vec![])
            .unwrap();
        let g1 = generation_of(&Manifest::load(&dir).unwrap());
        w.seal_segment(vec![bundle(2, 20, 1, 1_000)], vec![], vec![])
            .unwrap();
        let g2 = generation_of(&Manifest::load(&dir).unwrap());
        assert_ne!(g1, g2, "sealing a segment must change the generation");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `index` with synthetic sandwiches folded in, covering every ref
    /// shape the frame encodes: priced or not, zero to two mints, keys
    /// shared across refs and fresh ones, a leader under a spec.
    fn with_refs(mut index: QueryIndex) -> QueryIndex {
        let schedule = index.validator_spec.as_ref().map(LeaderSchedule::new);
        for n in 0..40u64 {
            let slot = n * 37 % (index.totals.max_slot + 1);
            let priced = n % 4 != 0;
            index.refs.push(SandwichRef {
                day: 0,
                slot,
                bundle_id: Hash::digest(&n.to_le_bytes()),
                attacker: Pubkey::derive(&format!("attacker-{}", n % 5)),
                victim: Pubkey::derive(&format!("victim-{n}")),
                mints: (0..n % 3)
                    .map(|m| Pubkey::derive(&format!("mint-{}", (n + m) % 4)))
                    .collect(),
                sol_legged: priced,
                victim_loss_lamports: priced.then_some(n * 1_000_003),
                attacker_gain_lamports: priced.then_some(n as i128 * 7_919 - 150_000),
                tip_lamports: 1_000 + n,
                leader: schedule.as_ref().map(|s| s.leader_at(Slot(slot))),
            });
        }
        let generation = index.generation.clone();
        fold_indexes(&generation, vec![index], &QueryConfig::default())
    }

    #[test]
    fn frame_body_roundtrips_every_index_shape() {
        let config = QueryConfig::default();
        let spec = ValidatorSpec::new(7, 6);
        let plain = tmp_store("rt-plain", 3);
        let specd = tmp_store_with_spec("rt-spec", 3, spec);
        let degraded = tmp_store_with_spec("rt-degraded", 3, spec);
        std::fs::remove_file(degraded.dir().join(&degraded.segments()[1].file)).unwrap();
        let quarantined = {
            let store = tmp_store("rt-quarantine", 3);
            let mut manifest = Manifest::load(store.dir()).unwrap();
            manifest.quarantine(1, "body_corrupt");
            manifest.save(store.dir()).unwrap();
            BundleStore::open(store.dir()).unwrap()
        };
        let build = |store: &BundleStore| with_refs(build_index(store, &config).unwrap());
        let indexes = [
            ("empty", QueryIndex::default()),
            ("spec-less", build(&plain)),
            ("spec'd", build(&specd)),
            ("degraded", build(&degraded)),
            ("quarantined", build(&quarantined)),
        ];
        assert!(indexes[2].1.validators.is_some());
        assert_eq!(indexes[3].1.coverage.segments_failed, 1);
        assert_eq!(indexes[4].1.coverage.segments_quarantined, 1);
        for (name, index) in indexes {
            assert_eq!(decode_index(&encode_index(&index)), Ok(index), "{name}");
        }
        for store in [plain, specd, degraded, quarantined] {
            std::fs::remove_dir_all(store.dir()).unwrap();
        }
    }

    #[test]
    fn independent_builds_encode_to_identical_bytes() {
        let store = tmp_store_with_spec("determinism", 4, ValidatorSpec::new(11, 8));
        let frame = |threads| {
            let config = QueryConfig { threads };
            encode_index(&with_refs(build_index(&store, &config).unwrap()))
        };
        let first = frame(1);
        assert_eq!(first, frame(1));
        assert_eq!(first, frame(4));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    /// A real body to mutate: a spec'd index with synthetic refs.
    fn real_body() -> &'static [u8] {
        static BODY: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BODY.get_or_init(|| {
            let store = tmp_store_with_spec("fuzz", 2, ValidatorSpec::new(3, 5));
            let index = with_refs(build_index(&store, &QueryConfig::default()).unwrap());
            std::fs::remove_dir_all(store.dir()).unwrap();
            encode_index(&index)
        })
    }

    #[test]
    fn every_truncation_and_byte_flip_of_a_body_is_an_error_or_an_index() {
        let body = real_body();
        for cut in 0..body.len() {
            assert!(decode_index(&body[..cut]).is_err(), "cut at {cut}");
        }
        for at in 0..body.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = body.to_vec();
                flipped[at] ^= mask;
                let _ = decode_index(&flipped);
            }
        }
    }

    #[test]
    fn a_count_past_the_bytes_left_is_refused_before_allocating() {
        let mut body = encode_index(&QueryIndex::default());
        assert_eq!(body.pop(), Some(0), "an empty body ends with its ref count");
        for (count, padding) in [(u64::MAX, 0), (100, 100 * 32 - 1)] {
            let mut claim = body.clone();
            put_u64(&mut claim, count);
            claim.resize(claim.len() + padding, 0);
            assert!(decode_index(&claim).is_err(), "{count} refs");
        }
    }

    #[test]
    fn a_body_whose_derived_totals_would_overflow_is_an_error() {
        let mut index = with_refs(QueryIndex::default());
        for r in &mut index.refs[..2] {
            r.attacker_gain_lamports = Some(i128::MAX);
        }
        assert!(decode_index(&encode_index(&index)).is_err(), "gains");
        let mut index = QueryIndex::default();
        for day in 0..2 {
            let mut rollup = DayRollup::new(day);
            rollup.bundles = u64::MAX;
            index.days.push(rollup);
        }
        assert!(decode_index(&encode_index(&index)).is_err(), "bundles");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_bytes_are_an_error_or_an_index(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let _ = decode_index(&bytes);
        }

        #[test]
        fn random_overwrites_of_a_body_are_an_error_or_an_index(
            edits in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
        ) {
            let mut body = real_body().to_vec();
            for (at, byte) in edits {
                let len = body.len();
                body[at as usize % len] = byte;
            }
            let _ = decode_index(&body);
        }
    }
}
