//! Recorder: single-thread scan rates on the 1 M-bundle `scale_gen` store,
//! which the repository benchmark (`benchmark/README.md`, "Deliberately not
//! covered") leaves out because generating it does not fit a 25 s run.
//!
//! Synthesizes the store, then times two routes over it, best of three:
//!
//! * **zero-copy** — the default `scan_store`: segments are memory-mapped
//!   and the columnar fast path decodes a bundle only after the detector
//!   pre-filters pass;
//! * **materializing** — `scan_store_materializing`: every record of every
//!   segment is decoded, the reference route.
//!
//! Asserts in-process that the scan finds exactly what `scale_gen` planted,
//! that every route and thread count serializes byte-identically, and — at
//! ≥ 200k bundles — that zero-copy is ≥ 2x materializing on one thread (both
//! sides of the ratio run on the same thread, so it survives any core
//! count). The 1/2/4/8-thread sweep is recorded, never gated. Nothing reads
//! the snapshot back: a failed assert is the only gate.
//!
//! Knobs: `SANDWICH_SCAN_BUNDLES` (store size, default 1,000,000 — ~100 MB
//! of disk), `SANDWICH_STORE_DIR` (scratch store, removed on exit),
//! `SANDWICH_BENCH_OUT` (default `results/BENCH_scan.json`).

use sandwich_bench::scale::{generate, ScaleConfig};
use sandwich_bench::{env_or, write_snapshot};
use sandwich_core::{scan_store, scan_store_materializing, AnalysisConfig, AnalysisReport};
use sandwich_store::StoreWriter;
use sandwich_types::SlotClock;

/// The speedup the zero-copy path must hold over materializing on a
/// single thread, once the store is big enough to measure reliably.
const GATE_MIN_SPEEDUP: f64 = 2.0;
const GATE_MIN_BUNDLES: u64 = 200_000;
const REPS: usize = 3;

#[derive(serde::Serialize)]
struct ThreadRate {
    threads: usize,
    bundles_per_sec: u64,
}

#[derive(serde::Serialize)]
struct Snapshot {
    bundles: u64,
    segments: usize,
    sandwiches: u64,
    cores: usize,
    materializing_bundles_per_sec: u64,
    zero_copy_bundles_per_sec: Vec<ThreadRate>,
    zero_copy_speedup_1_thread: f64,
}

fn main() {
    let config = ScaleConfig {
        bundles: env_or("SANDWICH_SCAN_BUNDLES", 1_000_000),
        ..ScaleConfig::default()
    };
    let store_dir = env_or("SANDWICH_STORE_DIR", String::from("scan_bench.store"));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut writer = StoreWriter::create(&store_dir).expect("create store");
    let stats = generate(&mut writer, &config).expect("generate store");
    let store = writer.into_reader();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "scan_bench: {} bundles ({} sandwiches, {} near misses) in {} segments, best of {REPS}, {cores} core(s)",
        stats.bundles,
        stats.sandwiches,
        stats.near_misses,
        store.segments().len(),
    );

    let clock = SlotClock::default();
    let cfg = AnalysisConfig::paper_defaults(config.days);
    // Best-of-REPS rate of one route, and the report bytes it produced.
    let bench = |label: &str, scan: &dyn Fn() -> AnalysisReport| {
        let mut best = f64::INFINITY;
        let mut report = None;
        for _ in 0..REPS {
            let t = std::time::Instant::now();
            report = Some(scan());
            best = best.min(t.elapsed().as_secs_f64());
        }
        let report = report.expect("REPS > 0");
        let rate = (stats.bundles as f64 / best).round() as u64;
        println!("  {label}: {:.1} ms, {rate} bundles/sec", best * 1e3);
        (rate, report)
    };

    let (mat_rate, reference) = bench("materializing threads=1", &|| {
        scan_store_materializing(&store, &clock, &cfg, 1).expect("scan")
    });
    assert_eq!(
        reference.findings.len() as u64,
        stats.sandwiches,
        "scan found a different sandwich count than scale_gen planted"
    );
    let reference = serde_json::to_string(&reference).expect("report serializes");

    let rates: Vec<ThreadRate> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            let (bundles_per_sec, report) = bench(&format!("zero-copy threads={threads}"), &|| {
                scan_store(&store, &clock, &cfg, threads).expect("scan")
            });
            assert_eq!(
                serde_json::to_string(&report).expect("report serializes"),
                reference,
                "zero-copy scan at {threads} threads diverged from the materializing scan"
            );
            ThreadRate {
                threads,
                bundles_per_sec,
            }
        })
        .collect();

    let speedup = rates[0].bundles_per_sec as f64 / mat_rate as f64;
    println!("  zero-copy over materializing (1 thread): {speedup:.2}x");
    assert!(
        stats.bundles < GATE_MIN_BUNDLES || speedup >= GATE_MIN_SPEEDUP,
        "zero-copy speedup {speedup:.2}x under the {GATE_MIN_SPEEDUP}x gate at {} bundles",
        stats.bundles
    );

    write_snapshot(
        "scan",
        &Snapshot {
            bundles: stats.bundles,
            segments: store.segments().len(),
            sandwiches: stats.sandwiches,
            cores,
            materializing_bundles_per_sec: mat_rate,
            zero_copy_bundles_per_sec: rates,
            zero_copy_speedup_1_thread: (speedup * 100.0).round() / 100.0,
        },
    );
    let _ = std::fs::remove_dir_all(&store_dir);
}
