//! Horizontal sharding for the query-serving subsystem.
//!
//! One `queryd` owns one store directory and one index; this crate
//! partitions the sealed segments by slot range across N shard engines
//! and serves them behind a scatter-gather router:
//!
//! - [`map`] — the [`ShardMap`]: the store snapshot it was planned from
//!   and an assignment of its every manifest segment to exactly one shard,
//!   by slot order and balanced by bundle count, on every open and reload
//!   — never persisted.
//! - [`shard`] — [`ShardService`], the shard-partial backend of the
//!   `sandwich_query::serve` skeleton: one engine per shard, brought up
//!   the `sandwich_query::ladder` over the shard's slice of the manifest
//!   and persisted per-shard.
//! - [`router`] — [`RouterService`], the skeleton's scatter-gather
//!   backend: fans `/api/*` out to the shards as `/shard/*`, checks each
//!   answer's `x-query-generation` against the pinned generation, decodes
//!   the partials and answers with `sandwich_query::answer` — the path
//!   `queryd` answers its own engine's one partial with — and aggregates
//!   `/readyz` (degraded-but-serving while at least one shard is ready).
//! - [`cluster`] — single-process assembly: N shard listeners plus the
//!   router over real sockets, so multi-node is a config change, not a
//!   rewrite.

#![warn(missing_docs)]

pub mod cluster;
pub mod map;
pub mod router;
pub mod shard;

/// The partials and their merges, which live in `sandwich_query::partial`
/// beside the one answer path; kept importable under their old path.
pub use sandwich_query::partial as merge;

pub use cluster::{ClusterConfig, ServingCluster};
pub use map::{ShardMap, ShardSpec};
pub use router::{RouterConfig, RouterService};
pub use shard::{shard_index_file, ShardConfig, ShardService, SHARD_INDEX_PREFIX};
