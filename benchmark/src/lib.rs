//! The repository's benchmark: five workloads, six end-to-end metrics, a
//! per-layer trace. See `benchmark/README.md` for what is measured and why.
//!
//! `bench-run` and this library drive the system only through its top-level
//! public entry points; the finer-grained calls the per-layer table needs
//! live in `bench-trace` alone, so that a refactor underneath cannot stop
//! the end-to-end benchmark building.
#![warn(missing_docs)]

pub mod checks;
pub mod cli;
pub mod gen;
pub mod http;
pub mod keys;
pub mod layers;
pub mod ops;
pub mod protocol;
pub mod setup;
pub mod slice;
pub mod spans;
pub mod stats;
pub mod workload;
