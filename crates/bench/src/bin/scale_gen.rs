//! Synthesize a mainnet-scale bundle store without running the simulator.
//!
//! The store is a pure function of the configuration (all overridable):
//!
//! * `SANDWICH_SCALE_BUNDLES`  — total bundles (default 1,000,000)
//! * `SANDWICH_SCALE_SEGMENT`  — bundles per segment (default 8,192)
//! * `SANDWICH_SCALE_DENSITY`  — detectable-sandwich fraction (default 0.02)
//! * `SANDWICH_SCALE_SEED`     — RNG seed (default 20250209)
//! * `SANDWICH_SCALE_DAYS`     — days the slots span (default 8)
//! * `SANDWICH_STORE_DIR`      — output directory (default `scale.store`;
//!   removed and rebuilt on every run)
//!
//! Prints the planted ground truth (sandwiches, near misses) so scans of
//! the store can be checked against it.

use sandwich_bench::env_or;
use sandwich_bench::scale::{generate, ScaleConfig};
use sandwich_store::StoreWriter;

fn main() {
    let defaults = ScaleConfig::default();
    let config = ScaleConfig {
        bundles: env_or("SANDWICH_SCALE_BUNDLES", defaults.bundles),
        segment_bundles: env_or("SANDWICH_SCALE_SEGMENT", defaults.segment_bundles),
        sandwich_density: env_or("SANDWICH_SCALE_DENSITY", defaults.sandwich_density),
        seed: env_or("SANDWICH_SCALE_SEED", defaults.seed),
        days: env_or("SANDWICH_SCALE_DAYS", defaults.days),
        ..defaults
    };
    let dir = env_or("SANDWICH_STORE_DIR", String::from("scale.store"));
    let _ = std::fs::remove_dir_all(&dir);

    let started = std::time::Instant::now();
    let mut writer = StoreWriter::create(&dir).expect("create store");
    let stats = generate(&mut writer, &config).expect("generate");
    let elapsed = started.elapsed().as_secs_f64();
    let store = writer.into_reader();
    let bytes = store.manifest().total_bytes();

    println!(
        "scale_gen: {} bundles ({} details) in {} segments over {} days → {dir}",
        stats.bundles, stats.details, stats.segments, config.days
    );
    println!(
        "  planted ground truth: {} sandwiches, {} near misses (seed {})",
        stats.sandwiches, stats.near_misses, config.seed
    );
    println!(
        "  {:.1} MB on disk ({:.1} B/bundle), generated in {elapsed:.1}s ({:.0} bundles/sec)",
        bytes as f64 / 1e6,
        bytes as f64 / stats.bundles.max(1) as f64,
        stats.bundles as f64 / elapsed,
    );
}
