//! Run a measurement and archive what it collected both ways — JSONL (the
//! paper's four-month-archive equivalent) and the segmented binary bundle
//! store the run sealed as it went — reporting bytes-per-bundle for each,
//! then reload the JSONL and verify the offline analysis is identical to
//! the store's.

use std::io::BufReader;

use sandwich_bench::env_or;
use sandwich_core::{analyze, scan_store, AnalysisConfig, Dataset, StoreOptions};

fn main() {
    let path = env_or("SANDWICH_OUT", "dataset.jsonl".to_string());
    let store_dir = env_or("SANDWICH_STORE_DIR", "dataset.store".to_string());
    let _ = std::fs::remove_dir_all(&store_dir);
    let scenario = sandwich_sim::ScenarioConfig {
        days: env_or("SANDWICH_DAYS", 5),
        ..sandwich_bench::figure_scenario()
    };
    let fr = sandwich_bench::run_pipeline_with(scenario, Some(StoreOptions::new(&store_dir)));
    let bundles = fr.run.dataset.len() as f64;

    // JSONL path: one walk over the sealed segments, measured, reloaded,
    // re-analyzed. The durable file write (temp + fsync + atomic rename)
    // means a killed export never leaves a half-written archive behind.
    fr.run.write_jsonl_file(&path).expect("write archive");
    let jsonl_bytes = std::fs::metadata(&path).unwrap().len();
    println!(
        "archived {} bundles, {} details, {} polls → {path} ({:.1} MiB, {:.1} B/bundle)",
        fr.run.dataset.len(),
        fr.run.dataset.detail_count(),
        fr.run.dataset.polls().len(),
        jsonl_bytes as f64 / (1024.0 * 1024.0),
        jsonl_bytes as f64 / bundles,
    );

    // Binary store path: what the run sealed while it polled.
    let store = fr.run.store.as_ref().expect("every run seals a store");
    let store_bytes = store.manifest().total_bytes();
    println!(
        "sealed {} segments → {store_dir} ({:.1} MiB, {:.1} B/bundle, {:.1}x smaller than JSONL)",
        store.segments().len(),
        store_bytes as f64 / (1024.0 * 1024.0),
        store_bytes as f64 / bundles,
        jsonl_bytes as f64 / store_bytes as f64,
    );

    // Offline re-analysis from each archive alone.
    let reloaded =
        Dataset::read_jsonl(BufReader::new(std::fs::File::open(&path).unwrap())).expect("reload");
    let config = AnalysisConfig::paper_defaults(fr.scenario.days);
    let offline = analyze(&reloaded, &fr.clock, &config);
    assert_eq!(offline.total_sandwiches(), fr.report.total_sandwiches());
    assert_eq!(offline.defense.defensive, fr.report.defense.defensive);
    println!(
        "offline re-analysis matches the live run: {} sandwiches, {} defensive bundles",
        offline.total_sandwiches(),
        offline.defense.defensive,
    );

    let scanned = scan_store(store, &fr.clock, &config, 4).expect("store scan");
    assert_eq!(
        serde_json::to_string(&scanned).unwrap(),
        serde_json::to_string(&offline).unwrap(),
        "store scan must be byte-identical to the in-memory analysis"
    );
    println!("parallel store scan (4 threads) is byte-identical to the in-memory analysis");
}
