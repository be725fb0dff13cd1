//! Read-side analytics over a sealed bundle store.
//!
//! The measurement pipeline writes segments; this crate serves them:
//!
//! - [`index`] — one parallel pass over the segments builds secondary
//!   indexes (per-day rollups, attacker and pool leaderboards, a
//!   slot-sorted sandwich list), persisted next to the manifest in the
//!   store's checksummed framing and keyed to the manifest generation.
//! - [`engine`] + [`render`] + [`cache`] — typed requests evaluate
//!   against one immutable index snapshot; a sharded LRU with
//!   single-flight deduplication means a hot key is evaluated once per
//!   generation (a hit still copies the cached body into its response).
//! - [`partial`] — the one answer path: an engine's [`Partial`] for a
//!   request, the merges that fold one or many, and [`answer`], which
//!   renders every `/api/*` body. `queryd` answers over its own engine's
//!   one partial, the router over one per shard, so a one-shard router is
//!   the engine by construction.
//! - [`serve`] — the one serving skeleton: endpoint table, admission,
//!   cache and its accounting, the answer, the `/api/live` long-poll,
//!   response tail, health probes. It is generic over a [`Backend`],
//!   which only gathers partials; there are two: the [`EngineBackend`]
//!   ([`service`]), which `queryd` runs over the whole store and every
//!   shard over its slice, and the router's fan-out in `sandwich-shard`.
//! - [`ladder`] — the one index lifecycle: load the persisted frame,
//!   else fold the manifest delta into a base, else rebuild, over an
//!   [`IndexScope`] (the whole store, or one shard's slice of it).
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod index;
pub mod ladder;
pub mod partial;
pub mod render;
pub mod serve;
pub mod service;

pub use cache::{CacheOutcome, CachedResponse, ResponseCache};
pub use engine::{
    decode_live_cursor, encode_live_cursor, origin_cursor, Engine, QueryRequest, DEFAULT_LIMIT,
    MAX_LIMIT, MAX_LIVE_WAIT_MS,
};
pub use index::{
    build_index, build_index_materializing, build_index_subset, first_ref_after_cursor,
    fold_indexes, live_minutes, load_index, load_index_any, minute_of, save_index, save_index_as,
    save_index_with, sort_attacker_entries, sort_pool_entries, sort_validator_entries,
    window_minutes, AttackerEntry, DayRollup, IndexCoverage, IndexReject, IndexTotals, LiveMinute,
    PoolEntry, QueryConfig, QueryIndex, SandwichRef, ValidatorEntry, INDEX_FILE, INDEX_MAGIC,
    LIVE_MINUTES, SLOTS_PER_MINUTE,
};
pub use ladder::IndexScope;
pub use partial::{answer, Partial};
pub use sandwich_store::generation_of;
pub use serve::{Backend, Gathered, Serving};
pub use service::{EngineBackend, QueryService, QueryServiceConfig};
