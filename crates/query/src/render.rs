//! The shared response-rendering layer: every JSON body the API serves is
//! built here, whether the inputs came from one local engine or from
//! merged shard partials.
//!
//! This is the keystone of the scatter-gather design in `sandwich-shard`:
//! the single-engine [`crate::Engine`] and the shard router both call
//! these functions with structurally identical inputs, so byte-identical
//! responses at every shard count are a property of the code shape, not a
//! test-enforced coincidence. Nothing in this module consults an engine
//! or an index — callers supply fully-merged values.

use serde::Serialize;

use sandwich_types::{Hash, Pubkey};

use crate::cache::CachedResponse;
use crate::engine::encode_live_cursor;
use crate::index::{
    AttackerEntry, DayRollup, IndexCoverage, IndexTotals, LiveMinute, PoolEntry, SandwichRef,
    ValidatorEntry,
};

/// Sandwich rows embedded in an attacker/pool detail response.
pub const DETAIL_REF_CAP: usize = 100;

// The serde_derive shim cannot handle lifetime or type parameters, so
// every response struct owns its data; bodies are built once per cache
// miss, so the clones are off the hot path.

#[derive(Serialize)]
struct SummaryResponse {
    generation: String,
    coverage: IndexCoverage,
    complete: bool,
    totals: IndexTotals,
    days: u64,
    attackers: u64,
    pools: u64,
}

#[derive(Serialize)]
struct DaysResponse {
    generation: String,
    days: Vec<DayRollup>,
}

#[derive(Serialize)]
struct AttackerRow {
    rank: usize,
    attacker: Pubkey,
    sandwiches: u64,
    attacker_gain_lamports: i128,
    victim_loss_lamports: u128,
    tips_lamports: u128,
}

impl AttackerRow {
    fn of(rank: usize, entry: &AttackerEntry) -> Self {
        AttackerRow {
            rank,
            attacker: entry.attacker,
            sandwiches: entry.sandwiches,
            attacker_gain_lamports: entry.attacker_gain_lamports,
            victim_loss_lamports: entry.victim_loss_lamports,
            tips_lamports: entry.tips_lamports,
        }
    }
}

#[derive(Serialize)]
struct AttackersPage {
    generation: String,
    total: usize,
    limit: usize,
    after: usize,
    next: Option<usize>,
    rows: Vec<AttackerRow>,
}

#[derive(Serialize)]
struct AttackerDetailResponse {
    generation: String,
    row: AttackerRow,
    recent: Vec<SandwichRef>,
}

#[derive(Serialize)]
struct PoolRow {
    rank: usize,
    mint: Pubkey,
    sandwiches: u64,
    victim_loss_lamports: u128,
    attackers: u64,
}

impl PoolRow {
    fn of(rank: usize, entry: &PoolEntry) -> Self {
        PoolRow {
            rank,
            mint: entry.mint,
            sandwiches: entry.sandwiches,
            victim_loss_lamports: entry.victim_loss_lamports,
            attackers: entry.attackers,
        }
    }
}

#[derive(Serialize)]
struct PoolDetailResponse {
    generation: String,
    row: PoolRow,
    recent: Vec<SandwichRef>,
}

/// Basis points of `part` in `whole` as exact integer arithmetic — the
/// response carries no floats, so single-engine and router bodies can be
/// byte-compared without epsilon games. Zero denominator renders as 0.
fn bps(part: u64, whole: u64) -> u64 {
    if whole == 0 {
        0
    } else {
        (u128::from(part) * 10_000 / u128::from(whole)) as u64
    }
}

#[derive(Serialize)]
struct ValidatorRow {
    rank: usize,
    pubkey: Pubkey,
    stake_lamports: u64,
    stake_pool: String,
    blocks_led: u64,
    sandwiches: u64,
    /// Distinct slots led by this validator containing a sandwich.
    sandwich_blocks: u64,
    /// `sandwiches / blocks_led` in basis points (integer, no floats).
    sandwiches_per_block_bps: u64,
    /// `sandwich_blocks / blocks_led` in basis points — the paper's
    /// "sandwich-inclusive block proportion" per leader.
    sandwich_block_bps: u64,
    attacker_gain_lamports: i128,
    victim_loss_lamports: u128,
    tips_lamports: u128,
}

impl ValidatorRow {
    fn of(rank: usize, entry: &ValidatorEntry) -> Self {
        let sandwich_blocks = entry.sandwich_slots.len() as u64;
        ValidatorRow {
            rank,
            pubkey: entry.pubkey,
            stake_lamports: entry.stake_lamports,
            stake_pool: entry.stake_pool.clone(),
            blocks_led: entry.blocks_led,
            sandwiches: entry.sandwiches,
            sandwich_blocks,
            sandwiches_per_block_bps: bps(entry.sandwiches, entry.blocks_led),
            sandwich_block_bps: bps(sandwich_blocks, entry.blocks_led),
            attacker_gain_lamports: entry.attacker_gain_lamports,
            victim_loss_lamports: entry.victim_loss_lamports,
            tips_lamports: entry.tips_lamports,
        }
    }
}

#[derive(Serialize)]
struct StakePoolRollup {
    stake_pool: String,
    validators: u64,
    stake_lamports: u128,
    blocks_led: u64,
    sandwiches: u64,
    sandwich_blocks: u64,
    /// Pool-level `sandwich_blocks / blocks_led` in basis points.
    sandwich_block_bps: u64,
}

/// Stake-pool rollups over the **full** entry list (never just the page):
/// a pure function of the entries, computed identically by the single
/// engine and the shard router after its merge.
fn stake_pool_rollups(entries: &[ValidatorEntry]) -> Vec<StakePoolRollup> {
    let mut by_pool: std::collections::BTreeMap<&str, StakePoolRollup> =
        std::collections::BTreeMap::new();
    for entry in entries {
        let rollup = by_pool
            .entry(entry.stake_pool.as_str())
            .or_insert_with(|| StakePoolRollup {
                stake_pool: entry.stake_pool.clone(),
                validators: 0,
                stake_lamports: 0,
                blocks_led: 0,
                sandwiches: 0,
                sandwich_blocks: 0,
                sandwich_block_bps: 0,
            });
        rollup.validators += 1;
        rollup.stake_lamports += u128::from(entry.stake_lamports);
        rollup.blocks_led += entry.blocks_led;
        rollup.sandwiches += entry.sandwiches;
        rollup.sandwich_blocks += entry.sandwich_slots.len() as u64;
    }
    by_pool
        .into_values()
        .map(|mut rollup| {
            rollup.sandwich_block_bps = bps(rollup.sandwich_blocks, rollup.blocks_led);
            rollup
        })
        .collect()
}

#[derive(Serialize)]
struct ValidatorsPage {
    generation: String,
    total: usize,
    limit: usize,
    after: usize,
    next: Option<usize>,
    rows: Vec<ValidatorRow>,
    stake_pools: Vec<StakePoolRollup>,
}

#[derive(Serialize)]
struct ValidatorDetailResponse {
    generation: String,
    row: ValidatorRow,
    recent: Vec<SandwichRef>,
}

#[derive(Serialize)]
struct RangeResponse {
    generation: String,
    from_slot: u64,
    to_slot: u64,
    total: usize,
    limit: usize,
    after: usize,
    next: Option<usize>,
    rows: Vec<SandwichRef>,
}

#[derive(Serialize)]
struct LiveResponse {
    generation: String,
    tip_slot: u64,
    total_after: usize,
    limit: usize,
    more: bool,
    cursor: String,
    rows: Vec<SandwichRef>,
    minutes: Vec<LiveMinute>,
}

#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

/// Serialize `value` as a JSON response body. Public so a shard's wire
/// partials are framed by the same code as the rendered `/api/*` bodies.
pub fn json_response<T: Serialize>(status: u16, value: &T) -> CachedResponse {
    let body = serde_json::to_vec(value)
        .unwrap_or_else(|e| format!("{{\"error\":\"serialization failed: {e}\"}}").into_bytes());
    CachedResponse {
        status,
        content_type: "application/json".to_string(),
        body,
    }
}

/// A 4xx/5xx error body (same shape the engine uses for 404s).
pub fn error_response(status: u16, message: impl Into<String>) -> CachedResponse {
    json_response(
        status,
        &ErrorBody {
            error: message.into(),
        },
    )
}

/// The 404 for an attacker no shard (or the local index) knows.
pub fn unknown_attacker(pubkey: &Pubkey) -> CachedResponse {
    error_response(404, format!("unknown attacker {pubkey}"))
}

/// The 404 for a pool no shard (or the local index) knows.
pub fn unknown_pool(mint: &Pubkey) -> CachedResponse {
    error_response(404, format!("unknown pool {mint}"))
}

/// `GET /api/summary` — `days`/`attackers`/`pools` are the merged
/// cardinalities (distinct-count fields are not plain-summable, so the
/// router unions key sets before calling this).
pub fn summary(
    generation: &str,
    coverage: &IndexCoverage,
    totals: &IndexTotals,
    days: u64,
    attackers: u64,
    pools: u64,
) -> CachedResponse {
    json_response(
        200,
        &SummaryResponse {
            generation: generation.to_string(),
            coverage: coverage.clone(),
            complete: coverage.complete(),
            totals: totals.clone(),
            days,
            attackers,
            pools,
        },
    )
}

/// `GET /api/days` — `days` must be dense from day 0.
pub fn days(generation: &str, days: &[DayRollup]) -> CachedResponse {
    json_response(
        200,
        &DaysResponse {
            generation: generation.to_string(),
            days: days.to_vec(),
        },
    )
}

/// `GET /api/attackers` — `entries` must already be in leaderboard order
/// (see [`crate::index::sort_attacker_entries`]); pagination and `next`
/// are computed here so every caller paginates identically.
pub fn attackers_page(
    generation: &str,
    entries: &[AttackerEntry],
    limit: usize,
    after: usize,
) -> CachedResponse {
    let total = entries.len();
    let rows: Vec<AttackerRow> = entries
        .iter()
        .enumerate()
        .skip(after)
        .take(limit)
        .map(|(rank, entry)| AttackerRow::of(rank, entry))
        .collect();
    let end = after + rows.len();
    json_response(
        200,
        &AttackersPage {
            generation: generation.to_string(),
            total,
            limit,
            after,
            next: (end < total).then_some(end),
            rows,
        },
    )
}

/// `GET /api/attacker/{pubkey}` — `recent` must be the newest refs,
/// newest first, capped at [`DETAIL_REF_CAP`].
pub fn attacker_detail(
    generation: &str,
    rank: usize,
    entry: &AttackerEntry,
    recent: Vec<SandwichRef>,
) -> CachedResponse {
    json_response(
        200,
        &AttackerDetailResponse {
            generation: generation.to_string(),
            row: AttackerRow::of(rank, entry),
            recent,
        },
    )
}

/// `GET /api/pool/{mint}` — like [`attacker_detail`]; `entry.attackers`
/// must be the merged distinct-attacker count.
pub fn pool_detail(
    generation: &str,
    rank: usize,
    entry: &PoolEntry,
    recent: Vec<SandwichRef>,
) -> CachedResponse {
    json_response(
        200,
        &PoolDetailResponse {
            generation: generation.to_string(),
            row: PoolRow::of(rank, entry),
            recent,
        },
    )
}

/// The 404 for a validator outside the chain's leader schedule (shape
/// matches [`unknown_attacker`]).
pub fn unknown_validator(pubkey: &Pubkey) -> CachedResponse {
    error_response(404, format!("unknown validator {pubkey}"))
}

/// `GET /api/validators` — `entries` must already be in leaderboard order
/// (see [`crate::index::sort_validator_entries`]) and cover **every**
/// validator of the spec: the stake-pool rollups aggregate the full list,
/// not the page. A pre-attribution store passes an empty slice.
pub fn validators_page(
    generation: &str,
    entries: &[ValidatorEntry],
    limit: usize,
    after: usize,
) -> CachedResponse {
    let total = entries.len();
    let rows: Vec<ValidatorRow> = entries
        .iter()
        .enumerate()
        .skip(after)
        .take(limit)
        .map(|(rank, entry)| ValidatorRow::of(rank, entry))
        .collect();
    let end = after + rows.len();
    json_response(
        200,
        &ValidatorsPage {
            generation: generation.to_string(),
            total,
            limit,
            after,
            next: (end < total).then_some(end),
            rows,
            stake_pools: stake_pool_rollups(entries),
        },
    )
}

/// `GET /api/validator/{pubkey}` — like [`attacker_detail`]: `recent`
/// must be the newest refs, newest first, capped at [`DETAIL_REF_CAP`].
pub fn validator_detail(
    generation: &str,
    rank: usize,
    entry: &ValidatorEntry,
    recent: Vec<SandwichRef>,
) -> CachedResponse {
    json_response(
        200,
        &ValidatorDetailResponse {
            generation: generation.to_string(),
            row: ValidatorRow::of(rank, entry),
            recent,
        },
    )
}

/// `GET /api/live` — the streaming tail page. `rows` must be the
/// slot-ordered refs strictly after the `(after_slot, after_id)` cursor,
/// already capped at `limit`; `total_after` the uncapped count;
/// `minutes` the merged rolling window at `tip_slot` (see
/// [`crate::index::live_minutes`]). The next cursor points at the last
/// row served, or echoes the caller's position when the page is empty,
/// so resuming from it never skips and never repeats a row.
#[allow(clippy::too_many_arguments)]
pub fn live_page(
    generation: &str,
    after_slot: u64,
    after_id: &Hash,
    tip_slot: u64,
    total_after: usize,
    limit: usize,
    rows: Vec<SandwichRef>,
    minutes: Vec<LiveMinute>,
) -> CachedResponse {
    let (cursor_slot, cursor_id) = rows
        .last()
        .map(|r| (r.slot, r.bundle_id))
        .unwrap_or((after_slot, *after_id));
    json_response(
        200,
        &LiveResponse {
            generation: generation.to_string(),
            tip_slot,
            total_after,
            limit,
            more: total_after > rows.len(),
            cursor: encode_live_cursor(generation, cursor_slot, &cursor_id),
            rows,
            minutes,
        },
    )
}

/// `GET /api/sandwiches` — `total` is the full in-range count and `rows`
/// the `[after, after+limit)` slice of the slot-ordered in-range refs.
pub fn sandwiches_page(
    generation: &str,
    from_slot: u64,
    to_slot: u64,
    total: usize,
    limit: usize,
    after: usize,
    rows: Vec<SandwichRef>,
) -> CachedResponse {
    let next = after + rows.len();
    json_response(
        200,
        &RangeResponse {
            generation: generation.to_string(),
            from_slot,
            to_slot,
            total,
            limit,
            after,
            next: (next < total).then_some(next),
            rows,
        },
    )
}
