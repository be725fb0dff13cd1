//! Shard partials and the pure merge functions that fold them.
//!
//! Every `/api/*` endpoint decomposes into a per-shard partial (served
//! under `/shard/*`) and an associative, commutative-by-construction
//! merge. The merged values feed `sandwich_query::render`, the same
//! rendering code the single-engine path uses — so byte-identity across
//! shard counts reduces to the merge functions reproducing the
//! single-index aggregates, which the property tests pin. A partial body
//! is data only; the generation it was computed at travels in the
//! `x-query-generation` header.
//!
//! Merge semantics per endpoint:
//!
//! - **summary** — coverage and totals are field-wise sums (`max_slot`
//!   by max); distinct attacker/pool counts are *not* summable, so
//!   shards ship their key lists and the router counts the union.
//! - **days** — rollups are dense from day 0 on every shard; merging is
//!   element-wise addition up to the longest list, labels agree by
//!   construction (same clock).
//! - **attackers / pools** — group by key, sum the aggregates, then
//!   re-sort with the exact leaderboard comparators from
//!   `sandwich_query::index`; ranks fall out of the merged order.
//! - **detail recency / slot ranges** — refs are globally ordered by
//!   `(slot, bundle_id)`; each shard's refs are a subsequence of the
//!   global order, so any global top/bottom-K is contained in the union
//!   of per-shard top/bottom-Ks (the prefix property the router's
//!   re-pagination relies on).

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use sandwich_net::Request;
use sandwich_query::engine::{parse_pubkey, parse_u64, parse_usize};
use sandwich_query::{
    sort_attacker_entries, sort_pool_entries, sort_validator_entries, window_minutes,
    AttackerEntry, DayRollup, IndexCoverage, IndexTotals, LiveMinute, PoolEntry, QueryRequest,
    SandwichRef, ValidatorEntry,
};
use sandwich_types::{Hash, Pubkey};

/// One `/shard/*` request: what the router asks of every shard to answer
/// an `/api/*` request. The wire format lives here and nowhere else —
/// [`ShardQuery::path`] writes it, [`ShardQuery::parse`] reads it back,
/// and a round trip is the identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardQuery {
    /// `GET /shard/summary` → [`SummaryPartial`].
    Summary,
    /// `GET /shard/days` → [`DaysPartial`].
    Days,
    /// `GET /shard/attackers` → [`AttackersPartial`]. Paging happens on
    /// the router, after the merge, so no page parameters travel.
    Attackers,
    /// `GET /shard/attacker/{pubkey}` → [`AttackerDetailPartial`].
    Attacker(Pubkey),
    /// `GET /shard/pool/{mint}` → [`PoolDetailPartial`].
    Pool(Pubkey),
    /// `GET /shard/validators` → [`ValidatorsPartial`].
    Validators,
    /// `GET /shard/validator/{pubkey}` → [`ValidatorDetailPartial`].
    Validator(Pubkey),
    /// `GET /shard/sandwiches?from_slot=&to_slot=&need=` → [`RangePartial`].
    Range {
        /// Inclusive lower slot bound.
        from_slot: u64,
        /// Inclusive upper slot bound.
        to_slot: u64,
        /// In-range refs to ship; absent means all of them.
        need: usize,
    },
    /// `GET /shard/live?after_slot=&after_id=&need=` → [`LivePartial`].
    Live {
        /// Cursor slot (exclusive, paired with `after_id`).
        after_slot: u64,
        /// Cursor bundle id (exclusive tie-break within `after_slot`).
        after_id: Hash,
        /// Post-cursor refs to ship; absent means all of them.
        need: usize,
    },
}

impl From<&QueryRequest> for ShardQuery {
    fn from(query: &QueryRequest) -> ShardQuery {
        match *query {
            QueryRequest::Summary => ShardQuery::Summary,
            QueryRequest::Days => ShardQuery::Days,
            QueryRequest::Attackers { .. } => ShardQuery::Attackers,
            QueryRequest::Attacker { pubkey } => ShardQuery::Attacker(pubkey),
            QueryRequest::Pool { mint } => ShardQuery::Pool(mint),
            QueryRequest::Validators { .. } => ShardQuery::Validators,
            QueryRequest::Validator { pubkey } => ShardQuery::Validator(pubkey),
            // Each shard ships its first `after + limit` in-range refs;
            // the union contains every ref the page can need (each
            // shard's refs are a subsequence of the global slot order).
            QueryRequest::Sandwiches {
                from_slot,
                to_slot,
                limit,
                after,
            } => ShardQuery::Range {
                from_slot,
                to_slot,
                need: after.saturating_add(limit),
            },
            QueryRequest::Live {
                after_slot,
                after_id,
                limit,
                ..
            } => ShardQuery::Live {
                after_slot,
                after_id,
                need: limit,
            },
        }
    }
}

impl ShardQuery {
    /// The request path and query string. Distinct per distinct answer,
    /// so it doubles as the shard's cache key.
    pub fn path(&self) -> String {
        match self {
            ShardQuery::Summary => "/shard/summary".to_string(),
            ShardQuery::Days => "/shard/days".to_string(),
            ShardQuery::Attackers => "/shard/attackers".to_string(),
            ShardQuery::Attacker(pubkey) => format!("/shard/attacker/{pubkey}"),
            ShardQuery::Pool(mint) => format!("/shard/pool/{mint}"),
            ShardQuery::Validators => "/shard/validators".to_string(),
            ShardQuery::Validator(pubkey) => format!("/shard/validator/{pubkey}"),
            ShardQuery::Range {
                from_slot,
                to_slot,
                need,
            } => format!("/shard/sandwiches?from_slot={from_slot}&to_slot={to_slot}&need={need}"),
            ShardQuery::Live {
                after_slot,
                after_id,
                need,
            } => format!("/shard/live?after_slot={after_slot}&after_id={after_id}&need={need}"),
        }
    }

    /// Parse a request routed to `kind` (an endpoint name from
    /// `sandwich_query::serve::ENDPOINTS`), or the message of its `400` —
    /// worded by the helpers `QueryRequest::parse` uses. Parameters this
    /// format does not know are ignored, so an `/api/*` query string
    /// under the `/shard` prefix parses too.
    pub fn parse(kind: &str, request: &Request) -> Result<ShardQuery, String> {
        match kind {
            "summary" => Ok(ShardQuery::Summary),
            "days" => Ok(ShardQuery::Days),
            "attackers" => Ok(ShardQuery::Attackers),
            "attacker" => Ok(ShardQuery::Attacker(parse_pubkey(request, "pubkey")?)),
            "pool" => Ok(ShardQuery::Pool(parse_pubkey(request, "mint")?)),
            "validators" => Ok(ShardQuery::Validators),
            "validator" => Ok(ShardQuery::Validator(parse_pubkey(request, "pubkey")?)),
            "sandwiches" => {
                let from_slot = parse_u64(request, "from_slot", 0)?;
                let to_slot = parse_u64(request, "to_slot", u64::MAX)?;
                if from_slot > to_slot {
                    return Err(format!("from_slot {from_slot} exceeds to_slot {to_slot}"));
                }
                Ok(ShardQuery::Range {
                    from_slot,
                    to_slot,
                    need: parse_usize(request, "need", usize::MAX)?,
                })
            }
            "live" => Ok(ShardQuery::Live {
                after_slot: parse_u64(request, "after_slot", 0)?,
                after_id: match request.query.get("after_id") {
                    None => Hash([0u8; 32]),
                    Some(raw) => Hash::from_base58(raw).ok_or_else(|| {
                        format!("query parameter \"after_id\" must be base58, got {raw:?}")
                    })?,
                },
                need: parse_usize(request, "need", usize::MAX)?,
            }),
            other => Err(format!("unknown endpoint {other:?}")),
        }
    }
}

/// Shard partial for `GET /api/summary`.
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

/// Shard partial for `GET /api/days`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaysPartial {
    /// Per-day rollups, dense from day 0.
    pub days: Vec<DayRollup>,
}

/// Shard partial for `GET /api/attackers` (and the leaderboard half of
/// attacker detail): every attacker entry, refs cleared (the router never
/// needs them and they dominate the wire size).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackersPartial {
    /// This shard's attacker entries (any order; the router re-sorts).
    pub entries: Vec<AttackerEntry>,
}

/// Shard partial for `GET /api/attacker/{pubkey}`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackerDetailPartial {
    /// Every attacker entry (rank needs the whole leaderboard).
    pub entries: Vec<AttackerEntry>,
    /// The target attacker's newest refs, **oldest first**, capped.
    pub recent: Vec<SandwichRef>,
}

/// Shard partial for `GET /api/pool/{mint}`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolDetailPartial {
    /// Every pool entry (rank needs the whole leaderboard).
    pub pools: Vec<PoolEntry>,
    /// Distinct attackers in the target pool on this shard.
    pub attackers: Vec<Pubkey>,
    /// The target pool's newest refs, **oldest first**, capped.
    pub recent: Vec<SandwichRef>,
}

/// Shard partial for `GET /api/validators` (and the leaderboard half of
/// validator detail): every validator entry, refs cleared but
/// `sandwich_slots` retained — the distinct-block counts merge by slot
/// union, not by sum.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidatorsPartial {
    /// This shard's validator entries (any order; the router re-sorts).
    pub entries: Vec<ValidatorEntry>,
}

/// Shard partial for `GET /api/validator/{pubkey}`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidatorDetailPartial {
    /// Every validator entry (rank needs the whole leaderboard).
    pub entries: Vec<ValidatorEntry>,
    /// The target validator's newest refs, **oldest first**, capped.
    pub recent: Vec<SandwichRef>,
}

/// Shard partial for `GET /api/sandwiches`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangePartial {
    /// In-range sandwiches on this shard (the full count, not `refs.len()`).
    pub total: u64,
    /// The first `min(total, need)` in-range refs, slot order.
    pub refs: Vec<SandwichRef>,
}

/// Shard partial for `GET /api/live`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LivePartial {
    /// This shard's newest indexed slot (its contribution to the tip).
    pub tip_slot: u64,
    /// Sandwiches strictly after the cursor on this shard (full count).
    pub total_after: u64,
    /// The first `min(total_after, need)` post-cursor refs, slot order.
    pub refs: Vec<SandwichRef>,
    /// This shard's rolling per-minute window at its own tip.
    pub minutes: Vec<LiveMinute>,
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
/// as the longest input and every day keeps its label.
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

/// Group shard attacker entries by address, sum the aggregates, and
/// re-sort into leaderboard order. Refs are dropped (rank and row data
/// never need them on the router).
pub fn merge_attackers(parts: Vec<Vec<AttackerEntry>>) -> Vec<AttackerEntry> {
    let mut by_key: HashMap<Pubkey, AttackerEntry> = HashMap::new();
    for entry in parts.into_iter().flatten() {
        let merged = by_key
            .entry(entry.attacker)
            .or_insert_with(|| AttackerEntry {
                attacker: entry.attacker,
                sandwiches: 0,
                attacker_gain_lamports: 0,
                victim_loss_lamports: 0,
                tips_lamports: 0,
                refs: Vec::new(),
            });
        merged.sandwiches += entry.sandwiches;
        merged.attacker_gain_lamports += entry.attacker_gain_lamports;
        merged.victim_loss_lamports += entry.victim_loss_lamports;
        merged.tips_lamports += entry.tips_lamports;
    }
    let mut merged: Vec<AttackerEntry> = by_key.into_values().collect();
    sort_attacker_entries(&mut merged);
    merged
}

/// Group shard pool entries by mint, sum the aggregates, and re-sort into
/// leaderboard order. The distinct-attacker count is **not** summable and
/// is zeroed here; the router overwrites it for the one pool it renders
/// (from the unioned [`PoolDetailPartial::attackers`] lists). The
/// leaderboard comparator never reads it, so ranks are unaffected.
pub fn merge_pools(parts: Vec<Vec<PoolEntry>>) -> Vec<PoolEntry> {
    let mut by_key: HashMap<Pubkey, PoolEntry> = HashMap::new();
    for entry in parts.into_iter().flatten() {
        let merged = by_key.entry(entry.mint).or_insert_with(|| PoolEntry {
            mint: entry.mint,
            sandwiches: 0,
            victim_loss_lamports: 0,
            attackers: 0,
            refs: Vec::new(),
        });
        merged.sandwiches += entry.sandwiches;
        merged.victim_loss_lamports += entry.victim_loss_lamports;
    }
    let mut merged: Vec<PoolEntry> = by_key.into_values().collect();
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
    let mut by_key: HashMap<Pubkey, ValidatorEntry> = HashMap::new();
    for entry in parts.into_iter().flatten() {
        match by_key.entry(entry.pubkey) {
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert(ValidatorEntry {
                    refs: Vec::new(),
                    ..entry
                });
            }
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                let merged = occupied.get_mut();
                merged.blocks_led = merged.blocks_led.max(entry.blocks_led);
                merged.sandwich_slots.extend(entry.sandwich_slots);
                merged.sandwiches += entry.sandwiches;
                merged.attacker_gain_lamports += entry.attacker_gain_lamports;
                merged.victim_loss_lamports += entry.victim_loss_lamports;
                merged.tips_lamports += entry.tips_lamports;
            }
        }
    }
    let mut merged: Vec<ValidatorEntry> = by_key.into_values().collect();
    for entry in &mut merged {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sandwich_net::http::parse_query;
    use sandwich_net::{HttpClient, Method, Server};
    use sandwich_obs::Registry;
    use sandwich_store::{CollectedBundle, StoreWriter};
    use sandwich_types::{Keypair, Lamports, Slot};
    use std::collections::HashMap;

    /// What the shard's HTTP router hands the parser for `path`: the
    /// endpoint kind, and a request with the query string and the `{name}`
    /// path parameter split out.
    fn request_for(path: &str) -> (String, Request) {
        let (route, query) = path.split_once('?').unwrap_or((path, ""));
        let mut segments = route.trim_start_matches("/shard/").splitn(2, '/');
        let kind = segments.next().unwrap().to_string();
        let mut params = HashMap::new();
        if let Some(key) = segments.next() {
            let name = if kind == "pool" { "mint" } else { "pubkey" };
            params.insert(name.to_string(), key.to_string());
        }
        let request = Request {
            method: Method::Get,
            path: route.to_string(),
            query: parse_query(query),
            params,
            headers: HashMap::new(),
            body: Default::default(),
        };
        (kind, request)
    }

    /// Variant `which` of [`QueryRequest`] over the generated parameters.
    fn api_query(which: usize, a: u64, b: u64, limit: usize, after: usize) -> QueryRequest {
        let key = Pubkey::derive(&format!("wire-{a}"));
        match which {
            0 => QueryRequest::Summary,
            1 => QueryRequest::Days,
            2 => QueryRequest::Attackers { limit, after },
            3 => QueryRequest::Attacker { pubkey: key },
            4 => QueryRequest::Pool { mint: key },
            5 => QueryRequest::Validators { limit, after },
            6 => QueryRequest::Validator { pubkey: key },
            7 => QueryRequest::Sandwiches {
                from_slot: a.min(b),
                to_slot: a.max(b),
                limit,
                after,
            },
            _ => QueryRequest::Live {
                after_slot: a,
                after_id: Hash::digest(&b.to_le_bytes()),
                limit,
                wait_ms: b % 5_000,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `parse` inverts `path` for whatever the router can ask.
        #[test]
        fn shard_wire_format_round_trips(
            which in 0usize..9,
            a in any::<u64>(),
            b in any::<u64>(),
            limit in 1usize..501,
            after in any::<usize>(),
        ) {
            let query = api_query(which, a, b, limit, after);
            let wire = ShardQuery::from(&query);
            let (kind, request) = request_for(&wire.path());
            prop_assert_eq!(ShardQuery::parse(&kind, &request), Ok(wire));
        }
    }

    #[test]
    fn malformed_parameters_are_worded_like_the_api_parser() {
        // A parameter both formats know fails with the same message.
        for path in [
            "/shard/sandwiches?from_slot=banana",
            "/shard/sandwiches?to_slot=-1",
            "/shard/sandwiches?from_slot=9&to_slot=3",
            "/shard/attacker/not-base58!",
            "/shard/pool/0OIl",
            "/shard/validator/short",
        ] {
            let (kind, request) = request_for(path);
            let wire = ShardQuery::parse(&kind, &request).expect_err(path);
            let api = QueryRequest::parse(&kind, &request).expect_err(path);
            assert_eq!(wire, api, "{path}");
        }
        // `need` / `after_slot` are the shard's own: same helper, so the
        // same wording as the API's `limit` / `from_slot`.
        for (path, ours, api_path, theirs) in [
            (
                "/shard/sandwiches?need=banana",
                "need",
                "/shard/sandwiches?limit=banana",
                "limit",
            ),
            (
                "/shard/live?need=1.5",
                "need",
                "/shard/live?limit=1.5",
                "limit",
            ),
            (
                "/shard/live?after_slot=x",
                "after_slot",
                "/shard/sandwiches?from_slot=x",
                "from_slot",
            ),
        ] {
            let (kind, request) = request_for(path);
            let wire = ShardQuery::parse(&kind, &request).expect_err(path);
            let (kind, request) = request_for(api_path);
            let api = QueryRequest::parse(&kind, &request).expect_err(api_path);
            assert_eq!(wire, api.replace(theirs, ours), "{path}");
        }
        let (kind, request) = request_for("/shard/live?after_id=0OIl");
        let message = ShardQuery::parse(&kind, &request).unwrap_err();
        assert!(message.contains("\"after_id\" must be base58"), "{message}");
    }

    /// `bench-trace`'s leg probe: an `/api/sandwiches` path with only the
    /// prefix swapped still answers a decodable [`RangePartial`], and a
    /// malformed parameter is a `400` over the socket.
    #[test]
    fn an_api_query_string_under_the_shard_prefix_answers_a_range_partial() {
        let dir = std::env::temp_dir().join(format!("sw-wire-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = StoreWriter::create(&dir).unwrap();
        let kp = Keypair::from_label("wire");
        let bundles = (0..10u64)
            .map(|i| CollectedBundle {
                bundle_id: Hash::digest(&i.to_le_bytes()),
                slot: Slot(100 + i),
                timestamp_ms: i * 400,
                tip: Lamports(30_000),
                tx_ids: vec![kp.sign(&i.to_le_bytes())],
            })
            .collect();
        writer
            .seal_segment(bundles, Vec::new(), Vec::new())
            .unwrap();
        let map = crate::ShardMap::plan(writer.into_reader(), 1);

        tokio::runtime::Builder::new_multi_thread()
            .enable_all()
            .build()
            .unwrap()
            .block_on(async {
                let config = crate::ShardConfig::new(0);
                let shard = crate::ShardService::open(config, &map, Registry::new()).unwrap();
                let server = Server::bind("127.0.0.1:0", shard.router()).await.unwrap();
                let client = HttpClient::new(server.local_addr());

                let api_path = "/api/sandwiches?from_slot=0&to_slot=5000&limit=20&after=40";
                let leg = client
                    .get(&api_path.replacen("/api/", "/shard/", 1))
                    .await
                    .unwrap();
                assert_eq!(leg.status, 200);
                assert_eq!(
                    leg.header_value("x-query-generation"),
                    Some(map.store().generation())
                );
                let partial: RangePartial = serde_json::from_slice(&leg.body).unwrap();
                assert_eq!(partial.total, 0, "plain bundles, no sandwiches");

                let bad = client.get("/shard/sandwiches?need=banana").await.unwrap();
                assert_eq!(bad.status, 400);
                let body = String::from_utf8_lossy(&bad.body).to_string();
                assert!(
                    body.contains("\"need\\\" must be a non-negative integer"),
                    "{body}"
                );
                server.shutdown().await;
            });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
