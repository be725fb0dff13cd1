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
//! - [`merge`] — the `/shard/*` wire format (the [`merge::ShardQuery`]
//!   the router sends and the partials a shard answers) and the pure,
//!   associative merge functions the router folds them with. Merged
//!   inputs feed the same `sandwich-query` render layer the single-engine
//!   path uses, so responses are byte-identical at every shard count.
//! - [`shard`] — [`ShardService`], the shard-partial backend of the
//!   `sandwich_query::serve` skeleton: one engine per shard, brought up
//!   the `sandwich_query::ladder` over the shard's slice of the manifest
//!   and persisted per-shard.
//! - [`router`] — [`RouterService`], the skeleton's scatter-gather
//!   backend: fans `/api/*` out to the shards, checks each answer's
//!   `x-query-generation` against the pinned generation, merges
//!   partials, re-paginates, and aggregates `/readyz`
//!   (degraded-but-serving while at least one shard is ready).
//! - [`cluster`] — single-process assembly: N shard listeners plus the
//!   router over real sockets, so multi-node is a config change, not a
//!   rewrite.

#![warn(missing_docs)]

pub mod cluster;
pub mod map;
pub mod merge;
pub mod router;
pub mod shard;

pub use cluster::{ClusterConfig, ServingCluster};
pub use map::{ShardMap, ShardSpec};
pub use router::{RouterConfig, RouterService};
pub use shard::{shard_index_file, ShardConfig, ShardService, SHARD_INDEX_PREFIX};
