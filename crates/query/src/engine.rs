//! The query engine: typed requests, canonical cache keys, and
//! deterministic evaluation against one immutable [`QueryIndex`].
//!
//! Every endpoint answers from the secondary indexes — evaluation never
//! touches segment files, so request latency is independent of store size
//! (modulo the one-time index build). Pagination uses numeric offsets
//! carried in `after=`; responses echo the paging state and include `next`
//! when more rows remain.

use std::collections::HashMap;
use std::sync::Arc;

use sandwich_net::Request;
use sandwich_types::{Hash, Pubkey};

use crate::cache::CachedResponse;
use crate::index::{
    first_ref_after_cursor, AttackerEntry, PoolEntry, QueryIndex, SandwichRef, ValidatorEntry,
};
use crate::partial::{answer, Partial};

/// Default page size when `limit=` is absent.
pub const DEFAULT_LIMIT: usize = 20;

/// Hard ceiling on `limit=` to bound response sizes.
pub const MAX_LIMIT: usize = 500;

/// Hard ceiling on `/api/live` long-poll waits, milliseconds. Well under
/// the HTTP client's total-request timeout, so a long-poll that finds
/// nothing still answers cleanly.
pub const MAX_LIVE_WAIT_MS: u64 = 5_000;

/// The origin live cursor position: strictly-after `(0, zero-hash)`,
/// i.e. the beginning of the stream.
pub fn origin_cursor() -> (u64, Hash) {
    (0, Hash([0u8; 32]))
}

/// Render a live cursor: `v1.<generation>.<slot hex>.<bundle id base58>`.
/// Opaque to clients; the generation is informational (positions stay
/// valid across folds because folding never reorders existing refs).
pub fn encode_live_cursor(generation: &str, slot: u64, bundle_id: &Hash) -> String {
    format!("v1.{generation}.{slot:016x}.{bundle_id}")
}

/// Parse a live cursor produced by [`encode_live_cursor`].
pub fn decode_live_cursor(raw: &str) -> Result<(u64, Hash), String> {
    let reject = || format!("malformed live cursor {raw:?}");
    let mut parts = raw.splitn(4, '.');
    let (v, generation, slot, id) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(v), Some(g), Some(s), Some(i)) => (v, g, s, i),
        _ => return Err(reject()),
    };
    if v != "v1" || generation.len() != 16 || !generation.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(reject());
    }
    let slot = u64::from_str_radix(slot, 16).map_err(|_| reject())?;
    let bundle_id = Hash::from_base58(id).ok_or_else(reject)?;
    Ok((slot, bundle_id))
}

/// A parsed, validated API request. Construction validates all
/// parameters, so evaluation is infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryRequest {
    /// `GET /api/summary`
    Summary,
    /// `GET /api/days`
    Days,
    /// `GET /api/attackers?limit=&after=`
    Attackers {
        /// Page size.
        limit: usize,
        /// Leaderboard offset of the first row.
        after: usize,
    },
    /// `GET /api/attacker/{pubkey}`
    Attacker {
        /// The attacker address.
        pubkey: Pubkey,
    },
    /// `GET /api/pool/{mint}`
    Pool {
        /// The pool's token mint.
        mint: Pubkey,
    },
    /// `GET /api/validators?limit=&after=` — the stake-weighted colluder
    /// leaderboard plus stake-pool rollups.
    Validators {
        /// Page size.
        limit: usize,
        /// Leaderboard offset of the first row.
        after: usize,
    },
    /// `GET /api/validator/{pubkey}`
    Validator {
        /// The validator's identity address.
        pubkey: Pubkey,
    },
    /// `GET /api/sandwiches?from_slot=&to_slot=&limit=&after=`
    Sandwiches {
        /// Inclusive lower slot bound.
        from_slot: u64,
        /// Inclusive upper slot bound.
        to_slot: u64,
        /// Page size.
        limit: usize,
        /// In-range offset of the first row.
        after: usize,
    },
    /// `GET /api/live?cursor=&limit=&wait_ms=` — the streaming tail:
    /// sandwiches strictly after the cursor position plus the rolling
    /// per-minute window. `wait_ms > 0` long-polls until a row lands or
    /// the bound expires; it never changes the response body shape.
    Live {
        /// Cursor slot (exclusive, paired with `after_id`).
        after_slot: u64,
        /// Cursor bundle id (exclusive tie-break within `after_slot`).
        after_id: Hash,
        /// Page size.
        limit: usize,
        /// Long-poll bound, ms; 0 answers immediately. Excluded from the
        /// cache key — at one generation the body is wait-invariant.
        wait_ms: u64,
    },
}

/// An optional non-negative `usize` query parameter, or the 400 message.
fn parse_usize(request: &Request, key: &str, default: usize) -> Result<usize, String> {
    match request.query.get(key) {
        None => Ok(default),
        Some(raw) => raw.parse::<usize>().map_err(|_| {
            format!("query parameter {key:?} must be a non-negative integer, got {raw:?}")
        }),
    }
}

/// An optional non-negative `u64` query parameter, or the 400 message.
fn parse_u64(request: &Request, key: &str, default: u64) -> Result<u64, String> {
    match request.query.get(key) {
        None => Ok(default),
        Some(raw) => raw.parse::<u64>().map_err(|_| {
            format!("query parameter {key:?} must be a non-negative integer, got {raw:?}")
        }),
    }
}

/// A required base58 address path parameter, or the 400 message.
fn parse_pubkey(request: &Request, param: &str) -> Result<Pubkey, String> {
    let raw = request
        .path_param(param)
        .ok_or_else(|| format!("missing path parameter {param:?}"))?;
    raw.parse::<Pubkey>()
        .map_err(|_| format!("{param:?} is not a valid base58 address: {raw:?}"))
}

impl QueryRequest {
    /// Parse an HTTP request for `endpoint` into a typed query, or a
    /// human-readable 400 message. `endpoint` is one of the names in
    /// [`crate::serve::ENDPOINTS`].
    pub fn parse(endpoint: &str, request: &Request) -> Result<QueryRequest, String> {
        match endpoint {
            "summary" => Ok(QueryRequest::Summary),
            "days" => Ok(QueryRequest::Days),
            "attackers" => Ok(QueryRequest::Attackers {
                limit: parse_usize(request, "limit", DEFAULT_LIMIT)?.clamp(1, MAX_LIMIT),
                after: parse_usize(request, "after", 0)?,
            }),
            "attacker" => Ok(QueryRequest::Attacker {
                pubkey: parse_pubkey(request, "pubkey")?,
            }),
            "pool" => Ok(QueryRequest::Pool {
                mint: parse_pubkey(request, "mint")?,
            }),
            "validators" => Ok(QueryRequest::Validators {
                limit: parse_usize(request, "limit", DEFAULT_LIMIT)?.clamp(1, MAX_LIMIT),
                after: parse_usize(request, "after", 0)?,
            }),
            "validator" => Ok(QueryRequest::Validator {
                pubkey: parse_pubkey(request, "pubkey")?,
            }),
            "sandwiches" => {
                let from_slot = parse_u64(request, "from_slot", 0)?;
                let to_slot = parse_u64(request, "to_slot", u64::MAX)?;
                if from_slot > to_slot {
                    return Err(format!("from_slot {from_slot} exceeds to_slot {to_slot}"));
                }
                Ok(QueryRequest::Sandwiches {
                    from_slot,
                    to_slot,
                    limit: parse_usize(request, "limit", DEFAULT_LIMIT)?.clamp(1, MAX_LIMIT),
                    after: parse_usize(request, "after", 0)?,
                })
            }
            "live" => {
                let (after_slot, after_id) = match request.query.get("cursor") {
                    None => origin_cursor(),
                    Some(raw) => decode_live_cursor(raw)?,
                };
                Ok(QueryRequest::Live {
                    after_slot,
                    after_id,
                    limit: parse_usize(request, "limit", DEFAULT_LIMIT)?.clamp(1, MAX_LIMIT),
                    wait_ms: parse_u64(request, "wait_ms", 0)?.min(MAX_LIVE_WAIT_MS),
                })
            }
            other => Err(format!("unknown endpoint {other:?}")),
        }
    }

    /// The canonical path of this request below `/api/` (and `/shard/`):
    /// every parameter spelled out, in one order, so [`QueryRequest::parse`]
    /// reads it back as this request. It is the cache key within one
    /// generation (the cache prepends that) and the path the router asks
    /// every shard for. `wait_ms` is left out: at one generation a
    /// long-poll answers with the same bytes as a page-poll at its
    /// position, and a shard never waits.
    pub fn canonical_key(&self) -> String {
        match self {
            QueryRequest::Summary => "summary".to_string(),
            QueryRequest::Days => "days".to_string(),
            QueryRequest::Attackers { limit, after } => {
                format!("attackers?limit={limit}&after={after}")
            }
            QueryRequest::Attacker { pubkey } => format!("attacker/{pubkey}"),
            QueryRequest::Pool { mint } => format!("pool/{mint}"),
            QueryRequest::Validators { limit, after } => {
                format!("validators?limit={limit}&after={after}")
            }
            QueryRequest::Validator { pubkey } => format!("validator/{pubkey}"),
            QueryRequest::Sandwiches {
                from_slot,
                to_slot,
                limit,
                after,
            } => format!(
                "sandwiches?from_slot={from_slot}&to_slot={to_slot}&limit={limit}&after={after}"
            ),
            // A request names a position, not a generation: the cursor's
            // generation field is zero.
            QueryRequest::Live {
                after_slot,
                after_id,
                limit,
                ..
            } => format!(
                "live?cursor={}&limit={limit}",
                encode_live_cursor("0000000000000000", *after_slot, after_id)
            ),
        }
    }
}

/// Immutable evaluation over one index snapshot, plus the lookup maps the
/// persisted form does not carry.
pub struct Engine {
    index: Arc<QueryIndex>,
    attacker_rank: HashMap<Pubkey, usize>,
    pool_rank: HashMap<Pubkey, usize>,
    validator_rank: HashMap<Pubkey, usize>,
}

impl Engine {
    /// Wrap `index`, building the runtime lookup maps.
    pub fn new(index: Arc<QueryIndex>) -> Self {
        let attacker_rank = index
            .attackers
            .iter()
            .enumerate()
            .map(|(i, e)| (e.attacker, i))
            .collect();
        let pool_rank = index
            .pools
            .iter()
            .enumerate()
            .map(|(i, e)| (e.mint, i))
            .collect();
        let validator_rank = index
            .validators
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .map(|(i, e)| (e.pubkey, i))
            .collect();
        Engine {
            index,
            attacker_rank,
            pool_rank,
            validator_rank,
        }
    }

    /// The index this engine answers from.
    pub fn index(&self) -> &QueryIndex {
        &self.index
    }

    /// The manifest generation this engine answers for.
    pub fn generation(&self) -> &str {
        &self.index.generation
    }

    /// Rank and entry for an attacker, when the index knows it.
    pub fn attacker_entry(&self, pubkey: &Pubkey) -> Option<(usize, &AttackerEntry)> {
        let &rank = self.attacker_rank.get(pubkey)?;
        Some((rank, &self.index.attackers[rank]))
    }

    /// Rank and entry for a pool, when the index knows it.
    pub fn pool_entry(&self, mint: &Pubkey) -> Option<(usize, &PoolEntry)> {
        let &rank = self.pool_rank.get(mint)?;
        Some((rank, &self.index.pools[rank]))
    }

    /// The validator leaderboard; empty for a pre-attribution store.
    pub fn validator_entries(&self) -> &[ValidatorEntry] {
        self.index.validators.as_deref().unwrap_or(&[])
    }

    /// Rank and entry for a validator, when the schedule knows it.
    pub fn validator_entry(&self, pubkey: &Pubkey) -> Option<(usize, &ValidatorEntry)> {
        let &rank = self.validator_rank.get(pubkey)?;
        Some((rank, &self.validator_entries()[rank]))
    }

    /// How many refs sit strictly after the live cursor position — what a
    /// long-poll loop checks per snapshot without rendering anything.
    pub fn live_rows_after(&self, after_slot: u64, after_id: &Hash) -> usize {
        let refs = &self.index.refs;
        refs.len() - first_ref_after_cursor(refs, after_slot, after_id)
    }

    /// The newest `cap` refs behind `refs`, **oldest first** (ascending
    /// slot order) — the shape a shard ships so the router can merge
    /// tails from several shards before reversing once.
    pub fn ref_tail(&self, refs: &[u32], cap: usize) -> Vec<SandwichRef> {
        let start = refs.len().saturating_sub(cap);
        refs[start..]
            .iter()
            .filter_map(|&i| self.index.refs.get(i as usize).cloned())
            .collect()
    }

    /// Evaluate a validated request: [`answer`] over this engine's own
    /// [`Partial`], the path a one-shard router takes too. Pure: identical
    /// requests against the same index yield byte-identical bodies.
    pub fn evaluate(&self, request: &QueryRequest) -> CachedResponse {
        answer(self.generation(), request, vec![Partial::of(self, request)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexCoverage, IndexTotals, QueryIndex, SandwichRef};
    use proptest::prelude::*;
    use sandwich_types::Hash;

    fn key(n: u8) -> Pubkey {
        Pubkey([n; 32])
    }

    /// The deterministic JSON body as text (shim output has no whitespace).
    fn body_text(response: &CachedResponse) -> String {
        String::from_utf8(response.body.clone()).unwrap()
    }

    fn sandwich(slot: u64, attacker: u8, mint: u8, gain: i128) -> SandwichRef {
        SandwichRef {
            day: slot / 216_000,
            slot,
            bundle_id: Hash::digest(&slot.to_le_bytes()),
            attacker: key(attacker),
            victim: key(200),
            mints: vec![key(mint)],
            sol_legged: true,
            victim_loss_lamports: Some(1_000),
            attacker_gain_lamports: Some(gain),
            tip_lamports: 50_000,
            leader: Some(key(100)),
        }
    }

    fn toy_index() -> QueryIndex {
        let refs = vec![
            sandwich(10, 1, 30, 500),
            sandwich(20, 1, 30, 700),
            sandwich(30, 2, 31, 300),
            sandwich(40, 1, 31, 900),
        ];
        let mut attackers = vec![
            AttackerEntry {
                attacker: key(1),
                sandwiches: 3,
                attacker_gain_lamports: 2_100,
                victim_loss_lamports: 3_000,
                tips_lamports: 150_000,
                refs: vec![0, 1, 3],
            },
            AttackerEntry {
                attacker: key(2),
                sandwiches: 1,
                attacker_gain_lamports: 300,
                victim_loss_lamports: 1_000,
                tips_lamports: 50_000,
                refs: vec![2],
            },
        ];
        attackers.sort_by_key(|a| std::cmp::Reverse(a.attacker_gain_lamports));
        let pools = vec![
            PoolEntry {
                mint: key(30),
                sandwiches: 2,
                victim_loss_lamports: 2_000,
                attackers: 1,
                refs: vec![0, 1],
            },
            PoolEntry {
                mint: key(31),
                sandwiches: 2,
                victim_loss_lamports: 2_000,
                attackers: 2,
                refs: vec![2, 3],
            },
        ];
        QueryIndex {
            generation: "cafebabecafebabe".to_string(),
            coverage: IndexCoverage {
                segments_total: 1,
                segments_scanned: 1,
                bundles_scanned: 4,
                ..IndexCoverage::default()
            },
            totals: IndexTotals {
                segments: 1,
                bundles: 4,
                sandwiches: 4,
                ..IndexTotals::default()
            },
            days: vec![],
            refs,
            attackers,
            pools,
            segment_files: vec!["seg-00000.seg".to_string()],
            quarantined_files: Vec::new(),
            validator_spec: Some(sandwich_attrib::ValidatorSpec::new(5, 2)),
            validators: Some(vec![
                ValidatorEntry {
                    pubkey: key(100),
                    stake_lamports: 7_000_000_000,
                    stake_pool: "jito".into(),
                    blocks_led: 30,
                    sandwich_slots: vec![10, 20, 30, 40],
                    sandwiches: 4,
                    attacker_gain_lamports: 2_400,
                    victim_loss_lamports: 4_000,
                    tips_lamports: 200_000,
                    refs: vec![0, 1, 2, 3],
                },
                ValidatorEntry {
                    pubkey: key(101),
                    stake_lamports: 5_000_000_000,
                    stake_pool: "solo".into(),
                    blocks_led: 11,
                    sandwich_slots: Vec::new(),
                    sandwiches: 0,
                    attacker_gain_lamports: 0,
                    victim_loss_lamports: 0,
                    tips_lamports: 0,
                    refs: Vec::new(),
                },
            ]),
        }
    }

    fn http(query: &[(&str, &str)], params: &[(&str, &str)]) -> Request {
        Request {
            method: sandwich_net::Method::Get,
            path: "/api/test".to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: HashMap::new(),
            body: bytes::Bytes::new(),
        }
    }

    #[test]
    fn parse_validates_parameters() {
        assert!(QueryRequest::parse("summary", &http(&[], &[])).is_ok());
        assert!(QueryRequest::parse("attackers", &http(&[("limit", "5")], &[])).is_ok());
        assert!(QueryRequest::parse("attackers", &http(&[("limit", "nope")], &[])).is_err());
        assert!(QueryRequest::parse("attackers", &http(&[("after", "-3")], &[])).is_err());
        assert!(QueryRequest::parse(
            "sandwiches",
            &http(&[("from_slot", "9"), ("to_slot", "3")], &[])
        )
        .is_err());
        assert!(QueryRequest::parse("attacker", &http(&[], &[("pubkey", "!!!")],)).is_err());
        let ok = QueryRequest::parse("attacker", &http(&[], &[("pubkey", &key(9).to_string())]));
        assert_eq!(ok.unwrap(), QueryRequest::Attacker { pubkey: key(9) });
        assert!(QueryRequest::parse("nope", &http(&[], &[])).is_err());
    }

    #[test]
    fn limits_are_clamped_not_rejected() {
        let parsed = QueryRequest::parse("attackers", &http(&[("limit", "100000")], &[])).unwrap();
        assert_eq!(
            parsed,
            QueryRequest::Attackers {
                limit: MAX_LIMIT,
                after: 0
            }
        );
        let parsed = QueryRequest::parse("attackers", &http(&[("limit", "0")], &[])).unwrap();
        assert_eq!(parsed, QueryRequest::Attackers { limit: 1, after: 0 });
    }

    #[test]
    fn pagination_walks_the_leaderboard() {
        let engine = Engine::new(Arc::new(toy_index()));
        let page1 = engine.evaluate(&QueryRequest::Attackers { limit: 1, after: 0 });
        assert_eq!(page1.status, 200);
        let text = body_text(&page1);
        assert!(text.contains("\"total\":2"), "{text}");
        assert!(text.contains("\"next\":1"), "{text}");
        let page2 = engine.evaluate(&QueryRequest::Attackers { limit: 1, after: 1 });
        let text = body_text(&page2);
        assert!(text.contains("\"next\":null"), "{text}");
        assert_ne!(page1.body, page2.body);
    }

    #[test]
    fn slot_ranges_use_binary_search_bounds() {
        let engine = Engine::new(Arc::new(toy_index()));
        let response = engine.evaluate(&QueryRequest::Sandwiches {
            from_slot: 15,
            to_slot: 30,
            limit: 10,
            after: 0,
        });
        let text = body_text(&response);
        assert!(text.contains("\"total\":2"), "slots 20 and 30: {text}");
        // An unbounded range covers everything without overflow.
        let all = engine.evaluate(&QueryRequest::Sandwiches {
            from_slot: 0,
            to_slot: u64::MAX,
            limit: 500,
            after: 0,
        });
        let text = body_text(&all);
        assert!(text.contains("\"total\":4"), "{text}");
    }

    #[test]
    fn live_cursor_roundtrips_and_rejects_garbage() {
        let id = Hash::digest(b"cursor");
        let cursor = encode_live_cursor("cafebabecafebabe", 42, &id);
        assert_eq!(decode_live_cursor(&cursor).unwrap(), (42, id));
        for bad in [
            "",
            "v1.cafebabecafebabe.10",
            "v2.cafebabecafebabe.000000000000002a.11111111111111111111111111111111",
            "v1.nothex!!!!!!!!!!.000000000000002a.11111111111111111111111111111111",
            "v1.cafebabecafebabe.nothex.11111111111111111111111111111111",
            "v1.cafebabecafebabe.000000000000002a.!!!",
        ] {
            assert!(decode_live_cursor(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn live_streams_strictly_after_the_cursor_without_skips_or_dups() {
        let engine = Engine::new(Arc::new(toy_index()));
        // From the origin: all four rows, cursor advances to the last row.
        let all = engine.evaluate(&QueryRequest::Live {
            after_slot: 0,
            after_id: Hash([0u8; 32]),
            limit: 500,
            wait_ms: 0,
        });
        assert_eq!(all.status, 200);
        let text = body_text(&all);
        assert!(text.contains("\"total_after\":4"), "{text}");
        assert!(text.contains("\"more\":false"), "{text}");

        // Page through with limit 1: each page advances by exactly one
        // row and the union is all four rows, no skips, no duplicates.
        let mut cursor = origin_cursor();
        let mut seen = Vec::new();
        for _ in 0..4 {
            let page = engine.evaluate(&QueryRequest::Live {
                after_slot: cursor.0,
                after_id: cursor.1,
                limit: 1,
                wait_ms: 0,
            });
            let text = body_text(&page);
            let row_slot = engine
                .index()
                .refs
                .iter()
                .find(|r| (r.slot, r.bundle_id.0) > (cursor.0, cursor.1 .0))
                .map(|r| (r.slot, r.bundle_id))
                .unwrap();
            assert!(text.contains(&format!("\"slot\":{}", row_slot.0)), "{text}");
            seen.push(row_slot);
            cursor = (row_slot.0, row_slot.1);
        }
        assert_eq!(seen.len(), 4);
        seen.dedup();
        assert_eq!(seen.len(), 4, "no duplicates across pages");
        // Past the end: empty page, same-position cursor echoed.
        let done = engine.evaluate(&QueryRequest::Live {
            after_slot: cursor.0,
            after_id: cursor.1,
            limit: 1,
            wait_ms: 0,
        });
        assert!(body_text(&done).contains("\"total_after\":0"));
    }

    /// What the HTTP router hands the parser for a canonical path: the
    /// endpoint, and a request with the query string and the `{name}` path
    /// parameter split out.
    fn routed(path: &str) -> (String, Request) {
        let (route, query) = path.split_once('?').unwrap_or((path, ""));
        let (endpoint, key) = route.split_once('/').unwrap_or((route, ""));
        let param = if endpoint == "pool" { "mint" } else { "pubkey" };
        let params: &[(&str, &str)] = if key.is_empty() { &[] } else { &[(param, key)] };
        let mut request = http(&[], params);
        request.query = sandwich_net::http::parse_query(query);
        (endpoint.to_string(), request)
    }

    /// Variant `which` of [`QueryRequest`] over the generated parameters.
    fn request_of(which: usize, a: u64, b: u64, limit: usize, after: usize) -> QueryRequest {
        let key = Pubkey::derive(&format!("canonical-{a}"));
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
                wait_ms: b % (MAX_LIVE_WAIT_MS + 1),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The canonical path is the wire the router asks shards with:
        /// parsing it gives the request back, less a live long-poll's wait.
        #[test]
        fn parse_reads_back_the_canonical_path(
            which in 0usize..9,
            a in any::<u64>(),
            b in any::<u64>(),
            limit in 1usize..MAX_LIMIT + 1,
            after in any::<usize>(),
        ) {
            let request = request_of(which, a, b, limit, after);
            let (endpoint, http_request) = routed(&request.canonical_key());
            let mut expected = request.clone();
            if let QueryRequest::Live { wait_ms, .. } = &mut expected {
                *wait_ms = 0;
            }
            prop_assert_eq!(QueryRequest::parse(&endpoint, &http_request), Ok(expected));
        }
    }

    #[test]
    fn wait_ms_is_excluded_from_the_cache_key() {
        let quick = QueryRequest::Live {
            after_slot: 7,
            after_id: Hash::digest(b"x"),
            limit: 20,
            wait_ms: 0,
        };
        let slow = QueryRequest::Live {
            after_slot: 7,
            after_id: Hash::digest(b"x"),
            limit: 20,
            wait_ms: 5_000,
        };
        assert_eq!(quick.canonical_key(), slow.canonical_key());
    }

    #[test]
    fn unknown_entities_get_404_json() {
        let engine = Engine::new(Arc::new(toy_index()));
        let response = engine.evaluate(&QueryRequest::Attacker { pubkey: key(99) });
        assert_eq!(response.status, 404);
        assert!(body_text(&response).contains("unknown attacker"));
        let response = engine.evaluate(&QueryRequest::Pool { mint: key(99) });
        assert_eq!(response.status, 404);
        let response = engine.evaluate(&QueryRequest::Validator { pubkey: key(99) });
        assert_eq!(response.status, 404);
        assert!(body_text(&response).contains("unknown validator"));
    }

    #[test]
    fn validators_page_carries_bps_rates_and_pool_rollups() {
        let engine = Engine::new(Arc::new(toy_index()));
        let page = engine.evaluate(&QueryRequest::Validators {
            limit: 10,
            after: 0,
        });
        assert_eq!(page.status, 200);
        let text = body_text(&page);
        assert!(text.contains("\"total\":2"), "{text}");
        // 4 sandwiches over 30 blocks = 1333 bps; 4 distinct sandwich
        // blocks over 30 = 1333 bps.
        assert!(text.contains("\"sandwiches_per_block_bps\":1333"), "{text}");
        assert!(text.contains("\"sandwich_block_bps\":1333"), "{text}");
        assert!(text.contains("\"stake_pool\":\"jito\""), "{text}");
        assert!(text.contains("\"stake_pool\":\"solo\""), "{text}");
        assert!(text.contains("\"stake_pools\":["), "{text}");

        // The zero-sandwich validator still gets a row (full universe).
        let page2 = engine.evaluate(&QueryRequest::Validators { limit: 1, after: 1 });
        let text = body_text(&page2);
        assert!(
            text.contains(&format!("\"pubkey\":\"{}\"", key(101))),
            "{text}"
        );
        // Rollups are over the full list even on a 1-row page.
        assert!(text.contains("\"stake_pool\":\"jito\""), "{text}");
    }

    #[test]
    fn validator_detail_matches_its_leaderboard_row() {
        let engine = Engine::new(Arc::new(toy_index()));
        let response = engine.evaluate(&QueryRequest::Validator { pubkey: key(100) });
        assert_eq!(response.status, 200);
        let text = body_text(&response);
        assert!(text.contains("\"rank\":0"), "{text}");
        assert!(text.contains("\"blocks_led\":30"), "{text}");
        assert!(text.contains("\"recent\":["), "{text}");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let engine = Engine::new(Arc::new(toy_index()));
        for request in [
            QueryRequest::Summary,
            QueryRequest::Days,
            QueryRequest::Attackers {
                limit: 20,
                after: 0,
            },
            QueryRequest::Attacker { pubkey: key(1) },
            QueryRequest::Pool { mint: key(30) },
            QueryRequest::Sandwiches {
                from_slot: 0,
                to_slot: u64::MAX,
                limit: 20,
                after: 0,
            },
        ] {
            let a = engine.evaluate(&request);
            let b = engine.evaluate(&request);
            assert_eq!(a.body, b.body, "{request:?}");
            assert_eq!(a.status, b.status);
        }
    }
}
