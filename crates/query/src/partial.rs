//! The one answer path: partials, their merges, and [`answer`].
//!
//! Every `/api/*` body is [`answer`] over the [`Partial`]s of the engines
//! that hold the data, called by the serving skeleton ([`crate::serve`]).
//! `queryd` answers from its own engine's one partial (as
//! [`crate::Engine::evaluate`] does); the router answers from one partial
//! per shard, decoded off the `/shard/*` wire with [`Partial::decode`].
//! The same merges and the same renderer run for both, so a one-shard
//! router *is* the engine, and byte-identity at every shard count reduces to the
//! merges reproducing the single-index aggregates, which the property
//! tests pin.
//!
//! On the wire a shard answers `GET /shard/` plus a request's canonical
//! path ([`QueryRequest::canonical_key`]) with its partial's JSON
//! ([`Partial::to_response`]): data only, untagged, because the request
//! names the kind. The generation it was computed at travels in the
//! `x-query-generation` header.
//!
//! Merge semantics per endpoint:
//!
//! - **summary** — coverage and totals are field-wise sums (`max_slot`
//!   by max); distinct attacker/pool counts are *not* summable, so
//!   shards ship their key lists and the merge counts the union.
//! - **days** — rollups are dense from day 0 on every shard; merging is
//!   element-wise addition up to the longest list, labels agree by
//!   construction (same clock).
//! - **attackers / pools** — group by key, sum the aggregates, then
//!   re-sort with the exact leaderboard comparators from
//!   [`crate::index`]; ranks fall out of the merged order.
//! - **detail recency / slot ranges** — refs are globally ordered by
//!   `(slot, bundle_id)`; each shard's refs are a subsequence of the
//!   global order, so any global top/bottom-K is contained in the union
//!   of per-shard top/bottom-Ks (the prefix property re-pagination
//!   relies on).

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use sandwich_types::Pubkey;

use crate::cache::CachedResponse;
use crate::engine::{Engine, QueryRequest};
use crate::index::{
    first_ref_after_cursor, first_ref_at_or_after, live_minutes, sort_attacker_entries,
    sort_pool_entries, sort_validator_entries, window_minutes, AttackerEntry, DayRollup,
    IndexCoverage, IndexTotals, LiveMinute, PoolEntry, SandwichRef, ValidatorEntry,
};
use crate::render::{self, error_response, json_response, DETAIL_REF_CAP};

/// Partial for `GET /api/summary`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SummaryPartial {
    /// This shard's exact coverage block (its slice of the manifest).
    pub coverage: IndexCoverage,
    /// This shard's totals.
    pub totals: IndexTotals,
    /// Days this shard's rollups span (dense from day 0).
    pub days: u64,
    /// Distinct attacker addresses on this shard (for union counting).
    pub attacker_keys: Vec<Pubkey>,
    /// Distinct pool mints on this shard (for union counting).
    pub pool_keys: Vec<Pubkey>,
}

/// Partial for `GET /api/days`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaysPartial {
    /// Per-day rollups, dense from day 0.
    pub days: Vec<DayRollup>,
}

/// Partial for `GET /api/attackers`: every attacker entry, refs cleared
/// (the merge never needs them and they dominate the wire size).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackersPartial {
    /// This shard's attacker entries (any order; the merge re-sorts).
    pub entries: Vec<AttackerEntry>,
}

/// Partial for `GET /api/attacker/{pubkey}`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackerDetailPartial {
    /// Every attacker entry (rank needs the whole leaderboard).
    pub entries: Vec<AttackerEntry>,
    /// The target attacker's newest refs, **oldest first**, capped.
    pub recent: Vec<SandwichRef>,
}

/// Partial for `GET /api/pool/{mint}`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolDetailPartial {
    /// Every pool entry (rank needs the whole leaderboard).
    pub pools: Vec<PoolEntry>,
    /// Distinct attackers in the target pool on this shard.
    pub attackers: Vec<Pubkey>,
    /// The target pool's newest refs, **oldest first**, capped.
    pub recent: Vec<SandwichRef>,
}

/// Partial for `GET /api/validators`: every validator entry, refs
/// cleared but `sandwich_slots` retained — the distinct-block counts
/// merge by slot union, not by sum.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidatorsPartial {
    /// This shard's validator entries (any order; the merge re-sorts).
    pub entries: Vec<ValidatorEntry>,
}

/// Partial for `GET /api/validator/{pubkey}`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidatorDetailPartial {
    /// Every validator entry (rank needs the whole leaderboard).
    pub entries: Vec<ValidatorEntry>,
    /// The target validator's newest refs, **oldest first**, capped.
    pub recent: Vec<SandwichRef>,
}

/// Partial for `GET /api/sandwiches`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangePartial {
    /// In-range sandwiches on this shard (the full count, not `refs.len()`).
    pub total: u64,
    /// The first `min(total, after + limit)` in-range refs, slot order.
    pub refs: Vec<SandwichRef>,
}

/// Partial for `GET /api/live`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LivePartial {
    /// This shard's newest indexed slot (its contribution to the tip).
    pub tip_slot: u64,
    /// Sandwiches strictly after the cursor on this shard (full count).
    pub total_after: u64,
    /// The first `min(total_after, limit)` post-cursor refs, slot order.
    pub refs: Vec<SandwichRef>,
    /// This shard's rolling per-minute window at its own tip.
    pub minutes: Vec<LiveMinute>,
}

/// One engine's contribution to the answer to one request. The variant is
/// the request's endpoint: [`Partial::of`] and [`Partial::decode`] both
/// read it off the request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Partial {
    /// For `summary`.
    Summary(SummaryPartial),
    /// For `days`.
    Days(DaysPartial),
    /// For `attackers`.
    Attackers(AttackersPartial),
    /// For `attacker/{pubkey}`.
    Attacker(AttackerDetailPartial),
    /// For `pool/{mint}`.
    Pool(PoolDetailPartial),
    /// For `validators`.
    Validators(ValidatorsPartial),
    /// For `validator/{pubkey}`.
    Validator(ValidatorDetailPartial),
    /// For `sandwiches`.
    Range(RangePartial),
    /// For `live`.
    Live(LivePartial),
}

impl Partial {
    /// What `engine` contributes to the answer to `query`.
    pub fn of(engine: &Engine, query: &QueryRequest) -> Partial {
        let index = engine.index();
        let refs = &index.refs;
        // Leaderboard entries travel without their refs (rank and row data
        // only), and no ref list is copied to drop them. A validator keeps
        // `sandwich_slots`: the distinct-block merge needs the union.
        let attackers = || {
            index
                .attackers
                .iter()
                .map(|e| AttackerEntry {
                    refs: Vec::new(),
                    ..*e
                })
                .collect()
        };
        let validators = || {
            engine
                .validator_entries()
                .iter()
                .map(|e| ValidatorEntry {
                    stake_pool: e.stake_pool.clone(),
                    sandwich_slots: e.sandwich_slots.clone(),
                    refs: Vec::new(),
                    ..*e
                })
                .collect()
        };
        let tail = |entry_refs: &[u32]| engine.ref_tail(entry_refs, DETAIL_REF_CAP);
        match *query {
            QueryRequest::Summary => Partial::Summary(SummaryPartial {
                coverage: index.coverage.clone(),
                totals: index.totals.clone(),
                days: index.days.len() as u64,
                attacker_keys: index.attackers.iter().map(|e| e.attacker).collect(),
                pool_keys: index.pools.iter().map(|e| e.mint).collect(),
            }),
            QueryRequest::Days => Partial::Days(DaysPartial {
                days: index.days.clone(),
            }),
            QueryRequest::Attackers { .. } => Partial::Attackers(AttackersPartial {
                entries: attackers(),
            }),
            QueryRequest::Attacker { pubkey } => Partial::Attacker(AttackerDetailPartial {
                entries: attackers(),
                recent: engine
                    .attacker_entry(&pubkey)
                    .map(|(_, entry)| tail(&entry.refs))
                    .unwrap_or_default(),
            }),
            QueryRequest::Pool { mint } => {
                let entry = engine.pool_entry(&mint).map(|(_, entry)| entry);
                let in_pool = entry.map_or(&[][..], |entry| &entry.refs[..]);
                let attackers: BTreeSet<Pubkey> = in_pool
                    .iter()
                    .filter_map(|&i| refs.get(i as usize))
                    .map(|r| r.attacker)
                    .collect();
                Partial::Pool(PoolDetailPartial {
                    pools: index
                        .pools
                        .iter()
                        .map(|e| PoolEntry {
                            refs: Vec::new(),
                            ..*e
                        })
                        .collect(),
                    attackers: attackers.into_iter().collect(),
                    recent: entry.map(|entry| tail(&entry.refs)).unwrap_or_default(),
                })
            }
            QueryRequest::Validators { .. } => Partial::Validators(ValidatorsPartial {
                entries: validators(),
            }),
            QueryRequest::Validator { pubkey } => Partial::Validator(ValidatorDetailPartial {
                entries: validators(),
                recent: engine
                    .validator_entry(&pubkey)
                    .map(|(_, entry)| tail(&entry.refs))
                    .unwrap_or_default(),
            }),
            // The first `after + limit` in-range refs: the union over
            // shards holds every ref the page can need, because each
            // shard's refs are a subsequence of the global slot order.
            QueryRequest::Sandwiches {
                from_slot,
                to_slot,
                limit,
                after,
            } => {
                let start = first_ref_at_or_after(refs, from_slot);
                let end = match to_slot.checked_add(1) {
                    Some(bound) => first_ref_at_or_after(refs, bound),
                    None => refs.len(),
                };
                let in_range = &refs[start..end];
                Partial::Range(RangePartial {
                    total: in_range.len() as u64,
                    refs: in_range
                        .iter()
                        .take(after.saturating_add(limit))
                        .cloned()
                        .collect(),
                })
            }
            QueryRequest::Live {
                after_slot,
                after_id,
                limit,
                ..
            } => {
                let after = &refs[first_ref_after_cursor(refs, after_slot, &after_id)..];
                Partial::Live(LivePartial {
                    tip_slot: index.totals.max_slot,
                    total_after: after.len() as u64,
                    refs: after.iter().take(limit).cloned().collect(),
                    minutes: live_minutes(refs, index.totals.max_slot),
                })
            }
        }
    }

    /// The `200` a shard answers with: the partial's own JSON, untagged.
    pub fn to_response(&self) -> CachedResponse {
        match self {
            Partial::Summary(p) => json_response(200, p),
            Partial::Days(p) => json_response(200, p),
            Partial::Attackers(p) => json_response(200, p),
            Partial::Attacker(p) => json_response(200, p),
            Partial::Pool(p) => json_response(200, p),
            Partial::Validators(p) => json_response(200, p),
            Partial::Validator(p) => json_response(200, p),
            Partial::Range(p) => json_response(200, p),
            Partial::Live(p) => json_response(200, p),
        }
    }

    /// Read a shard's body as the partial `query` asks for, or say why it
    /// is unreadable. Day rollups must be dense from day 0, because the
    /// days merge indexes by `day`: a list that is not is refused here,
    /// where the bytes come off the wire.
    pub fn decode(query: &QueryRequest, body: &[u8]) -> Result<Partial, String> {
        fn json<T: DeserializeOwned>(body: &[u8]) -> Result<T, String> {
            serde_json::from_slice(body).map_err(|e| e.to_string())
        }
        Ok(match query {
            QueryRequest::Summary => Partial::Summary(json(body)?),
            QueryRequest::Days => {
                let partial: DaysPartial = json(body)?;
                let sparse = partial.days.iter().zip(0u64..).find(|(r, i)| r.day != *i);
                if let Some((rollup, i)) = sparse {
                    return Err(format!(
                        "day rollups are not dense from day 0: day {} at position {i}",
                        rollup.day
                    ));
                }
                Partial::Days(partial)
            }
            QueryRequest::Attackers { .. } => Partial::Attackers(json(body)?),
            QueryRequest::Attacker { .. } => Partial::Attacker(json(body)?),
            QueryRequest::Pool { .. } => Partial::Pool(json(body)?),
            QueryRequest::Validators { .. } => Partial::Validators(json(body)?),
            QueryRequest::Validator { .. } => Partial::Validator(json(body)?),
            QueryRequest::Sandwiches { .. } => Partial::Range(json(body)?),
            QueryRequest::Live { .. } => Partial::Live(json(body)?),
        })
    }
}

/// The answer to `query` at `generation`, from one partial per engine that
/// holds a slice of the data — the only place an `/api/*` body is
/// computed. Every part must be the variant `query` names (a part of
/// another endpoint is a `500`); by construction it always is.
pub fn answer(generation: &str, query: &QueryRequest, parts: Vec<Partial>) -> CachedResponse {
    macro_rules! take {
        ($variant:ident) => {
            match parts
                .into_iter()
                .map(|part| match part {
                    Partial::$variant(p) => Some(p),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()
            {
                Some(parts) => parts,
                None => {
                    return error_response(500, format!("a partial of another endpoint: {query:?}"))
                }
            }
        };
    }
    match query {
        QueryRequest::Summary => {
            let parts = take!(Summary);
            let coverage: Vec<IndexCoverage> = parts.iter().map(|p| p.coverage.clone()).collect();
            let totals: Vec<IndexTotals> = parts.iter().map(|p| p.totals.clone()).collect();
            let days = parts.iter().map(|p| p.days).max().unwrap_or(0);
            let (attackers, pools): (Vec<_>, Vec<_>) = parts
                .into_iter()
                .map(|p| (p.attacker_keys, p.pool_keys))
                .unzip();
            render::summary(
                generation,
                &merge_coverage(&coverage),
                &merge_totals(&totals),
                days,
                distinct_count(&attackers),
                distinct_count(&pools),
            )
        }
        QueryRequest::Days => {
            let days: Vec<Vec<DayRollup>> = take!(Days).into_iter().map(|p| p.days).collect();
            render::days(generation, &merge_days(&days))
        }
        QueryRequest::Attackers { limit, after } => {
            let entries =
                merge_attackers(take!(Attackers).into_iter().map(|p| p.entries).collect());
            render::attackers_page(generation, &entries, *limit, *after)
        }
        QueryRequest::Attacker { pubkey } => {
            let (entries, recent): (Vec<_>, Vec<_>) = take!(Attacker)
                .into_iter()
                .map(|p| (p.entries, p.recent))
                .unzip();
            let entries = merge_attackers(entries);
            match entries.iter().position(|e| e.attacker == *pubkey) {
                None => render::unknown_attacker(pubkey),
                Some(rank) => {
                    let recent = merge_recent(recent, DETAIL_REF_CAP);
                    render::attacker_detail(generation, rank, &entries[rank], recent)
                }
            }
        }
        QueryRequest::Pool { mint } => {
            let (mut pools, mut attackers, mut recent) = (Vec::new(), Vec::new(), Vec::new());
            for part in take!(Pool) {
                pools.push(part.pools);
                attackers.push(part.attackers);
                recent.push(part.recent);
            }
            let pools = merge_pools(pools);
            match pools.iter().position(|e| e.mint == *mint) {
                None => render::unknown_pool(mint),
                Some(rank) => {
                    // The merged entry's distinct-attacker count is a
                    // placeholder; the unioned lists are exact.
                    let entry = PoolEntry {
                        attackers: distinct_count(&attackers),
                        ..pools[rank].clone()
                    };
                    let recent = merge_recent(recent, DETAIL_REF_CAP);
                    render::pool_detail(generation, rank, &entry, recent)
                }
            }
        }
        QueryRequest::Validators { limit, after } => {
            let entries =
                merge_validators(take!(Validators).into_iter().map(|p| p.entries).collect());
            render::validators_page(generation, &entries, *limit, *after)
        }
        QueryRequest::Validator { pubkey } => {
            let (entries, recent): (Vec<_>, Vec<_>) = take!(Validator)
                .into_iter()
                .map(|p| (p.entries, p.recent))
                .unzip();
            let entries = merge_validators(entries);
            match entries.iter().position(|e| e.pubkey == *pubkey) {
                None => render::unknown_validator(pubkey),
                Some(rank) => {
                    let recent = merge_recent(recent, DETAIL_REF_CAP);
                    render::validator_detail(generation, rank, &entries[rank], recent)
                }
            }
        }
        QueryRequest::Sandwiches {
            from_slot,
            to_slot,
            limit,
            after,
        } => {
            let (total, refs) = merge_range(take!(Range));
            let rows = refs.into_iter().skip(*after).take(*limit).collect();
            render::sandwiches_page(
                generation, *from_slot, *to_slot, total, *limit, *after, rows,
            )
        }
        QueryRequest::Live {
            after_slot,
            after_id,
            limit,
            ..
        } => {
            let (tip, total_after, refs, minutes) = merge_live(take!(Live));
            let rows = refs.into_iter().take(*limit).collect();
            render::live_page(
                generation,
                *after_slot,
                after_id,
                tip,
                total_after,
                *limit,
                rows,
                minutes,
            )
        }
    }
}

/// Field-wise sum of shard coverage blocks. Because the shard map
/// partitions every manifest entry (serving and quarantined) into exactly
/// one shard, the sum equals the single-engine coverage block.
pub fn merge_coverage(parts: &[IndexCoverage]) -> IndexCoverage {
    let mut merged = IndexCoverage::default();
    for c in parts {
        merged.add(c);
    }
    merged
}

/// Field-wise sum of shard totals (`max_slot` by max).
pub fn merge_totals(parts: &[IndexTotals]) -> IndexTotals {
    let mut merged = IndexTotals::default();
    for t in parts {
        merged.segments += t.segments;
        merged.bundles += t.bundles;
        merged.sandwiches += t.sandwiches;
        merged.non_sol_sandwiches += t.non_sol_sandwiches;
        merged.defensive += t.defensive;
        merged.victim_loss_lamports += t.victim_loss_lamports;
        merged.attacker_gain_lamports += t.attacker_gain_lamports;
        merged.tips_lamports += t.tips_lamports;
        merged.max_slot = merged.max_slot.max(t.max_slot);
    }
    merged
}

/// Distinct keys across shard key lists.
pub fn distinct_count(lists: &[Vec<Pubkey>]) -> u64 {
    let set: BTreeSet<&Pubkey> = lists.iter().flatten().collect();
    set.len() as u64
}

/// Element-wise sum of dense day-rollup lists; the merged list is as long
/// as the longest input and every day keeps its label. Every list must be
/// dense from day 0 ([`Partial::decode`] refuses one that is not).
pub fn merge_days(parts: &[Vec<DayRollup>]) -> Vec<DayRollup> {
    let len = parts.iter().map(|d| d.len()).max().unwrap_or(0);
    let mut merged: Vec<DayRollup> = (0..len as u64).map(DayRollup::new).collect();
    for part in parts {
        for rollup in part {
            let into = &mut merged[rollup.day as usize];
            if into.label.is_empty() {
                into.label = rollup.label.clone();
            }
            into.add(rollup);
        }
    }
    merged
}

/// Group entries by `key`, folding each into the first of its key with
/// `add`. First-seen order is kept, so one leaderboard that is already in
/// order (a single engine's) re-sorts in linear time.
fn group_by_key<T>(
    parts: Vec<Vec<T>>,
    key: impl Fn(&T) -> Pubkey,
    add: impl Fn(&mut T, T),
) -> Vec<T> {
    let mut at: HashMap<Pubkey, usize> = HashMap::with_capacity(parts.iter().map(Vec::len).sum());
    let mut merged: Vec<T> = Vec::new();
    for entry in parts.into_iter().flatten() {
        match at.entry(key(&entry)) {
            Entry::Occupied(first) => add(&mut merged[*first.get()], entry),
            Entry::Vacant(first) => {
                first.insert(merged.len());
                merged.push(entry);
            }
        }
    }
    merged
}

/// Group shard attacker entries by address, sum the aggregates, and
/// re-sort into leaderboard order. Refs are dropped (rank and row data
/// never need them).
pub fn merge_attackers(parts: Vec<Vec<AttackerEntry>>) -> Vec<AttackerEntry> {
    let mut merged = group_by_key(
        parts,
        |e| e.attacker,
        |into, e| {
            into.sandwiches += e.sandwiches;
            into.attacker_gain_lamports += e.attacker_gain_lamports;
            into.victim_loss_lamports += e.victim_loss_lamports;
            into.tips_lamports += e.tips_lamports;
        },
    );
    for entry in &mut merged {
        entry.refs = Vec::new();
    }
    sort_attacker_entries(&mut merged);
    merged
}

/// Group shard pool entries by mint, sum the aggregates, and re-sort into
/// leaderboard order. The distinct-attacker count is **not** summable and
/// is zeroed here; [`answer`] overwrites it for the one pool it renders
/// (from the unioned [`PoolDetailPartial::attackers`] lists). The
/// leaderboard comparator never reads it, so ranks are unaffected.
pub fn merge_pools(parts: Vec<Vec<PoolEntry>>) -> Vec<PoolEntry> {
    let mut merged = group_by_key(
        parts,
        |e| e.mint,
        |into, e| {
            into.sandwiches += e.sandwiches;
            into.victim_loss_lamports += e.victim_loss_lamports;
        },
    );
    for entry in &mut merged {
        entry.attackers = 0;
        entry.refs = Vec::new();
    }
    sort_pool_entries(&mut merged);
    merged
}

/// Group shard validator entries by pubkey and merge. The schedule is a
/// pure function of the manifest's spec, so every shard ships the same
/// validator set with the same stakes; only the slot-derived aggregates
/// differ:
///
/// - `blocks_led` merges by **max**: each shard reports the schedule
///   counted through its own tip slot, `blocks_led(v, max_slot)` is
///   monotone non-decreasing in `max_slot`, and the global tip is the
///   max of shard tips — so the element-wise max reproduces the count
///   the single engine computes at the global tip.
/// - `sandwich_slots` merges by **sorted union**: a boundary slot can
///   straddle two shards' segments, so a sum would double-count the
///   block.
/// - Everything else is a field-wise sum.
///
/// The merged list is re-sorted with the exact single-engine comparator.
pub fn merge_validators(parts: Vec<Vec<ValidatorEntry>>) -> Vec<ValidatorEntry> {
    let mut merged = group_by_key(
        parts,
        |e| e.pubkey,
        |into, e| {
            into.blocks_led = into.blocks_led.max(e.blocks_led);
            into.sandwich_slots.extend(e.sandwich_slots);
            into.sandwiches += e.sandwiches;
            into.attacker_gain_lamports += e.attacker_gain_lamports;
            into.victim_loss_lamports += e.victim_loss_lamports;
            into.tips_lamports += e.tips_lamports;
        },
    );
    for entry in &mut merged {
        entry.refs = Vec::new();
        entry.sandwich_slots.sort_unstable();
        entry.sandwich_slots.dedup();
    }
    sort_validator_entries(&mut merged);
    merged
}

/// Merge per-shard recency tails (each oldest-first) into the global
/// newest-first list capped at `cap`. Correct because each shard's tail
/// contains every ref that can appear in the global tail (the prefix
/// property), so concatenating, re-sorting, and keeping the last `cap`
/// reproduces the single-engine answer.
pub fn merge_recent(tails: Vec<Vec<SandwichRef>>, cap: usize) -> Vec<SandwichRef> {
    let mut all: Vec<SandwichRef> = tails.into_iter().flatten().collect();
    all.sort_by_key(|a| (a.slot, a.bundle_id.0));
    let start = all.len().saturating_sub(cap);
    let mut recent = all.split_off(start);
    recent.reverse();
    recent
}

/// Merge range partials: the global in-range total and the slot-ordered
/// union of the shipped prefixes (long enough to slice any page the
/// request can ask for, by the same prefix property).
pub fn merge_range(parts: Vec<RangePartial>) -> (usize, Vec<SandwichRef>) {
    let total: usize = parts.iter().map(|p| p.total as usize).sum();
    let mut refs: Vec<SandwichRef> = parts.into_iter().flat_map(|p| p.refs).collect();
    refs.sort_by_key(|a| (a.slot, a.bundle_id.0));
    (total, refs)
}

/// Merge live partials into the global tail page inputs: the tip is the
/// max of shard tips, the post-cursor total the sum, the rows the
/// slot-ordered union of the shipped prefixes (the same prefix property
/// as [`merge_range`] — each shard ships at least as many post-cursor
/// refs as the page can use), and the minute window is the per-minute
/// sum re-windowed at the global tip. Every shard's window is a superset
/// of its contribution to the global window (its tip is ≤ the global
/// tip, so its window starts at or before the global window's start).
pub fn merge_live(parts: Vec<LivePartial>) -> (u64, usize, Vec<SandwichRef>, Vec<LiveMinute>) {
    let tip = parts.iter().map(|p| p.tip_slot).max().unwrap_or(0);
    let total_after: usize = parts.iter().map(|p| p.total_after as usize).sum();
    let mut refs = Vec::new();
    let mut minutes = Vec::new();
    for p in parts {
        refs.extend(p.refs);
        minutes.extend(p.minutes);
    }
    refs.sort_by_key(|a| (a.slot, a.bundle_id.0));
    let minutes = window_minutes(minutes, tip);
    (tip, total_after, refs, minutes)
}
