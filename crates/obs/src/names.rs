//! Well-known metric names for the storage and scan layers.
//!
//! Layers that share a registry must agree on names; most of the stack
//! uses ad-hoc string literals scoped to one module, but the store/scan
//! metrics are recorded from `sandwich-core` and asserted by the suite and
//! the benchmarks, so the names live here as constants.

/// Counter: segments sealed by the collector's store sink.
pub const STORE_SEGMENTS_SEALED: &str = "store.segments_sealed";

/// Counter: bytes of sealed segment files written (manifest excluded).
pub const STORE_BYTES_WRITTEN: &str = "store.bytes_written";

/// Counter: segments read and folded by scans.
pub const SCAN_SEGMENTS_SCANNED: &str = "scan.segments_scanned";

/// Histogram: per-worker busy time inside one parallel scan, seconds.
pub const SCAN_WORKER_BUSY_SECONDS: &str = "scan.worker_busy_seconds";

/// Histogram: wall-clock duration of one whole parallel scan, seconds.
pub const SCAN_SECONDS: &str = "scan.seconds";

/// Counter: query indexes rebuilt from segments (a persisted-index reuse
/// shows up as zero rebuilds).
pub const QUERY_INDEX_REBUILDS: &str = "query.index.rebuilds";

/// Counter: query indexes loaded from a valid persisted file.
pub const QUERY_INDEX_LOADS: &str = "query.index.loads";

/// Counter: persisted index files rejected (bad magic, checksum, or stale
/// generation) and rebuilt instead of trusted.
pub const QUERY_INDEX_REJECTED: &str = "query.index.rejected";

/// Histogram: wall-clock seconds to build one query index from segments.
pub const QUERY_INDEX_BUILD_SECONDS: &str = "query.index.build_seconds";

/// Counter: query API requests served (all endpoints).
pub const QUERY_REQUESTS: &str = "query.requests";

/// Counter: responses answered from the response cache.
pub const QUERY_CACHE_HITS: &str = "query.cache.hits";

/// Counter: responses that had to be evaluated (cache miss).
pub const QUERY_CACHE_MISSES: &str = "query.cache.misses";

/// Counter: cache entries evicted by the per-shard LRU.
pub const QUERY_CACHE_EVICTIONS: &str = "query.cache.evictions";

/// Counter: requests that waited on an identical in-flight evaluation
/// instead of decoding again (single-flight dedup).
pub const QUERY_CACHE_SINGLE_FLIGHT_WAITS: &str = "query.cache.single_flight_waits";

/// Counter: engine reloads after a manifest generation change.
pub const QUERY_RELOADS: &str = "query.reloads";

/// Prefix for the per-endpoint latency histograms (seconds); the endpoint
/// name is appended, e.g. `query.seconds.summary`.
pub const QUERY_SECONDS_PREFIX: &str = "query.seconds.";

/// Counter: segments skipped by a degraded (coverage-accounted) scan
/// because they failed to read or verify.
pub const SCAN_SEGMENTS_FAILED: &str = "scan.segments_failed";

/// Counter: quarantined segments a degraded scan accounted for (never
/// read, reported in the coverage block).
pub const SCAN_SEGMENTS_QUARANTINED: &str = "scan.segments_quarantined";

/// Counter: segments an index build skipped because they failed to read
/// or verify (the index serves with a degraded coverage block).
pub const QUERY_INDEX_SEGMENTS_FAILED: &str = "query.index.segments_failed";

/// Counter: requests shed by admission control (503 + Retry-After)
/// because the bounded in-flight limit was reached.
pub const QUERY_SHED: &str = "query.shed";

/// Counter: scatter-gather fanouts executed by the shard router (one per
/// cache-missing API request).
pub const QUERY_SHARD_FANOUTS: &str = "query.shard.fanouts";

/// Histogram: shards contacted per fanout (the fanout width).
pub const QUERY_SHARD_FANOUT_WIDTH: &str = "query.shard.fanout_width";

/// Prefix for the per-shard request latency histograms (seconds); the
/// shard id is appended, e.g. `query.shard.latency.2`.
pub const QUERY_SHARD_LATENCY_PREFIX: &str = "query.shard.latency.";

/// Counter: straggler shard responses (slower than twice the fastest
/// shard in the same fanout).
pub const QUERY_SHARD_STRAGGLERS: &str = "query.shard.stragglers";

/// Counter: fanouts that failed (a shard was unreachable, answered a
/// non-200, or disagreed on the store generation) and were answered 503.
pub const QUERY_SHARD_FANOUT_FAILURES: &str = "query.shard.fanout_failures";

/// Prefix for the router's shard-leg connection pool counters, summed over
/// its per-shard clients: `query.shard.connections.dialed` (connections
/// established), `.reused` (legs sent on an idle connection) and
/// `.discarded` (idle connections found closed at checkout).
pub const QUERY_SHARD_CONNECTIONS_PREFIX: &str = "query.shard.connections.";

/// Prefix for the collector's connection pool counters, same three
/// suffixes: `client.connections.dialed`, `.reused`, `.discarded`.
pub const CLIENT_CONNECTIONS_PREFIX: &str = "client.connections.";

/// Counter: generation changes where the delta was **not** foldable (a
/// covered segment left the serving or quarantine list) and the whole
/// index had to be rebuilt from segments. A live-tail deployment expects
/// this to stay at zero forever — seals only ever append.
pub const QUERY_INDEX_FULL_REBUILDS: &str = "query.index.full_rebuilds";

/// Counter: incremental index folds applied (one per generation change
/// absorbed by folding only the new segments into the live index).
pub const QUERY_INDEX_FOLDS: &str = "query.index.fold.applied";

/// Counter: segments scanned by incremental folds (only the manifest
/// delta, never the whole store).
pub const QUERY_INDEX_FOLD_SEGMENTS: &str = "query.index.fold.segments";

/// Histogram: wall-clock seconds to scan a manifest delta and fold it
/// into the live index (compare `query.index.build_seconds`).
pub const QUERY_INDEX_FOLD_SECONDS: &str = "query.index.fold.seconds";

/// Histogram: wall-clock seconds a public face (`queryd`, the router)
/// spent in `answer` — merging the partials of a cache miss and rendering
/// the body (excludes gathering them: the engine's partial, the fan-out).
pub const QUERY_ANSWER_SECONDS: &str = "query.answer_seconds";

/// Counter: `/api/live` requests a public face served (page-poll and
/// long-poll).
pub const QUERY_LIVE_REQUESTS: &str = "query.live.requests";

/// Counter: `/api/live` requests that asked to long-poll (`wait_ms` > 0).
pub const QUERY_LIVE_LONG_POLLS: &str = "query.live.long_polls";

/// Counter: sandwich rows `/api/live` long-polls answered with — the
/// page's `min(limit, rows past the cursor)`, counted once per long-poll
/// at the probe it stops on (page-polls are not counted).
pub const QUERY_LIVE_ROWS: &str = "query.live.rows";

/// Histogram: seconds a long-poll actually waited before answering
/// (bounded by the request's `wait_ms`).
pub const QUERY_LIVE_WAIT_SECONDS: &str = "query.live.wait_seconds";

/// Counter: leader schedules derived from a store's validator spec (one
/// per index build or fold that attributed sandwiches to slot leaders).
pub const ATTRIB_SCHEDULE_BUILDS: &str = "attrib.schedule.builds";

/// Counter: four-slot leader groups hashed to extend the blocks-led
/// denominators (one SHA-256 each). A rebuild adds `max_slot / 4 + 1`; a
/// fold only the groups past its base's `max_slot`, because blocks led is a
/// carried prefix sum; a load adds none.
pub const ATTRIB_SCHEDULE_GROUPS_HASHED: &str = "attrib.schedule.groups_hashed";

/// Counter: sealed sandwiches joined to their slot leader during an
/// index build (the attribution join).
pub const ATTRIB_JOINS: &str = "attrib.joins";

/// Counter: sealed sandwiches with **no** leader attribution (the store
/// predates the validator spec, or a ref was folded from a pre-attribution
/// base index). These rows fall back to the unattributed decode path.
pub const ATTRIB_UNATTRIBUTED: &str = "attrib.unattributed_slots";

/// Counter: incremental folds refused because the persisted base index
/// was built under a different (or missing) validator spec than the
/// manifest now carries — the service rebuilds from segments instead of
/// folding attribution-stale rows forward.
pub const ATTRIB_SPEC_MISMATCH_REBUILDS: &str = "attrib.spec_mismatch_rebuilds";

/// Counter: `/api/validators` leaderboard requests served.
pub const QUERY_VALIDATORS_REQUESTS: &str = "query.validators.requests";

/// Counter: `/api/validator/{pubkey}` detail requests served.
pub const QUERY_VALIDATOR_DETAIL_REQUESTS: &str = "query.validators.detail_requests";
