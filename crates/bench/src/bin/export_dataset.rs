//! Run a measurement and archive what it collected: the segmented binary
//! bundle store the run sealed as it polled (the paper's four-month-archive
//! equivalent), reported in bytes per bundle. Then reopen the archive from
//! disk alone, re-analyze it, and verify the parallel scan is
//! byte-identical to a record-by-record decode of the same segments.

use sandwich_bench::env_or;
use sandwich_core::{scan_store, scan_store_materializing, AnalysisConfig, StoreOptions};
use sandwich_store::BundleStore;

fn main() {
    let store_dir = env_or("SANDWICH_STORE_DIR", "dataset.store".to_string());
    let _ = std::fs::remove_dir_all(&store_dir);
    let scenario = sandwich_sim::ScenarioConfig {
        days: env_or("SANDWICH_DAYS", 5),
        ..sandwich_bench::figure_scenario()
    };
    let fr = sandwich_bench::run_pipeline_with(scenario, Some(StoreOptions::new(&store_dir)));
    println!(
        "collected {} bundles, {} details, {} polls",
        fr.run.dataset.len(),
        fr.run.dataset.detail_count(),
        fr.run.dataset.polls().len(),
    );

    let archive = BundleStore::open(&store_dir).expect("reopen the archive");
    let store_bytes = archive.manifest().total_bytes();
    println!(
        "sealed {} segments → {store_dir} ({:.1} MiB, {:.1} B/bundle)",
        archive.segments().len(),
        store_bytes as f64 / (1024.0 * 1024.0),
        store_bytes as f64 / fr.run.dataset.len() as f64,
    );

    // Offline re-analysis from the archive alone, every record decoded.
    let config = AnalysisConfig::paper_defaults(fr.scenario.days);
    let offline = scan_store_materializing(&archive, &fr.clock, &config, 1).expect("decode");
    assert_eq!(offline.total_sandwiches(), fr.report.total_sandwiches());
    assert_eq!(offline.defense.defensive, fr.report.defense.defensive);
    println!(
        "offline re-analysis matches the live run: {} sandwiches, {} defensive bundles",
        offline.total_sandwiches(),
        offline.defense.defensive,
    );

    let scanned = scan_store(&archive, &fr.clock, &config, 4).expect("store scan");
    assert_eq!(
        serde_json::to_string(&scanned).unwrap(),
        serde_json::to_string(&offline).unwrap(),
        "store scan must be byte-identical to the record-by-record decode"
    );
    println!("parallel store scan (4 threads) is byte-identical to the record-by-record decode");
}
