//! The segment store and parallel scan engine, end to end:
//!
//! * collection is unchanged by sealing: a run that seals every 100 bundles
//!   while polling collects exactly what a run that drains nothing until
//!   its final flush collects;
//! * the parallel scan produces a byte-identical `AnalysisReport` at 1, 2,
//!   and 8 threads, byte-identical to the materializing reference scan;
//! * every segment a real run sealed is a fixpoint of the codec: decoding
//!   and re-encoding it gives back its bytes;
//! * a halted run's report, which scans its unsealed residue as one more
//!   in-memory segment, equals the materializing scan of a copy of its
//!   store with that residue sealed in;
//! * a mid-run checkpoint references the store by manifest, stays small,
//!   and resumes into a run identical to an uninterrupted one.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sandwich_core::{
    run_measurement_with, scan_store_materializing, scan_store_observed, AnalysisConfig,
    Checkpoint, CollectorConfig, MeasurementRun, PipelineConfig, RunOptions, StoreOptions,
};
use sandwich_explorer::{ExplorerConfig, FaultPlanConfig};
use sandwich_net::RetryPolicy;
use sandwich_obs::Registry;
use sandwich_sim::{ScenarioConfig, Simulation};
use sandwich_store::segment::{decode_segment, encode_segment};
use sandwich_store::StoreWriter;

fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        downtime_days: vec![],
        ..ScenarioConfig::tiny()
    }
}

fn pipeline(scenario: &ScenarioConfig, store: Option<StoreOptions>) -> PipelineConfig {
    PipelineConfig {
        explorer: ExplorerConfig {
            faults: FaultPlanConfig::uniform_503(0.2, 7),
            ..Default::default()
        },
        collector: CollectorConfig {
            page_limit: sandwich_core::scaled_page_limit(scenario, 1),
            detail_batch: 100,
            retry: RetryPolicy {
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(10),
                ..Default::default()
            },
            ..Default::default()
        },
        store,
        ..Default::default()
    }
}

fn store_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-scan-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every collected bundle id, sorted, each exactly as often as the walk
/// yields it.
fn collected_ids(run: &MeasurementRun) -> Vec<sandwich_jito::BundleId> {
    let mut ids = Vec::new();
    run.walk(|b, _| ids.push(b.bundle_id)).unwrap();
    ids.sort_by_key(|id| id.0);
    ids
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn store_scan_matches_legacy_and_is_thread_invariant() {
    let scenario = scenario();
    let days = scenario.days;
    let cfg = AnalysisConfig::paper_defaults(days);

    // Reference: the same seed with a seal threshold no run reaches, so
    // nothing drains until the final flush — everything stays resident
    // while polling.
    let dir_late = store_dir("late");
    let mut sim_late = Simulation::new(scenario.clone());
    let unreachable = StoreOptions {
        dir: dir_late.clone(),
        segment_bundles: usize::MAX,
    };
    let late = run_measurement_with(
        &mut sim_late,
        pipeline(&scenario, Some(unreachable)),
        RunOptions::default(),
    )
    .await
    .unwrap();
    assert_eq!(late.store.as_ref().unwrap().segments().len(), 1);
    let late_report = serde_json::to_string(&late.analyze(&cfg)).unwrap();

    // Small segments, so many seal mid-run.
    let dir = store_dir("matches");
    let mut sim_store = Simulation::new(scenario.clone());
    let run = run_measurement_with(
        &mut sim_store,
        pipeline(
            &scenario,
            Some(StoreOptions {
                dir: dir.clone(),
                segment_bundles: 100,
            }),
        ),
        RunOptions::default(),
    )
    .await
    .unwrap();

    // Collection is unchanged by flushing: same ids, same totals.
    assert_eq!(collected_ids(&run), collected_ids(&late));
    assert_eq!(run.dataset.len(), late.dataset.len());
    assert_eq!(run.dataset.detail_count(), late.dataset.detail_count());
    assert_eq!(run.dataset.polls().len(), late.dataset.polls().len());
    // ...and nothing is left resident: everything sealed to disk.
    assert!(
        run.dataset.resident().is_empty(),
        "final flush left residue"
    );
    assert!(run.dataset.fully_spilled());

    let store = run.store.as_ref().expect("every run returns its store");
    assert!(
        store.segments().len() >= 3,
        "expected several segments, got {}",
        store.segments().len()
    );
    assert_eq!(
        store.manifest().total_bundles(),
        run.dataset.len() as u64,
        "every collected bundle is in exactly one sealed segment"
    );
    assert_eq!(
        run.collector_stats.segments_sealed,
        store.segments().len() as u64
    );
    assert!(run.collector_stats.store_bytes_written > 0);

    // The scan is byte-identical across thread counts and equal to the
    // late-sealing run's.
    let base = serde_json::to_string(&run.try_analyze(&cfg, 1).unwrap()).unwrap();
    for threads in [2, 8] {
        let r = serde_json::to_string(&run.try_analyze(&cfg, threads).unwrap()).unwrap();
        assert_eq!(base, r, "report diverged at {threads} threads");
    }
    assert_eq!(base, late_report, "report moved with the seal threshold");

    // Every segment the run sealed is a fixpoint of the codec: what the
    // store decodes is exactly what it encoded, byte for byte.
    for meta in store.segments() {
        let image = std::fs::read(dir.join(&meta.file)).unwrap();
        let (data, _) = decode_segment(&image).unwrap();
        assert!(
            encode_segment(&data).0 == image,
            "{} re-encodes differently",
            meta.file
        );
    }

    // The zero-copy columnar scan (the default path above) is byte-identical
    // to a forced record-by-record materializing scan of the same store.
    let materialized =
        serde_json::to_string(&scan_store_materializing(store, &run.clock, &cfg, 2).unwrap())
            .unwrap();
    assert_eq!(
        base, materialized,
        "zero-copy scan diverged from the materializing scan"
    );

    // Store/scan metrics reached the shared registry.
    let m = &run.metrics;
    assert_eq!(
        m.counter(sandwich_obs::names::STORE_SEGMENTS_SEALED),
        Some(store.segments().len() as u64)
    );
    assert_eq!(
        m.counter(sandwich_obs::names::STORE_BYTES_WRITTEN),
        Some(run.collector_stats.store_bytes_written)
    );

    // A standalone observed scan records the scan.* metrics too.
    let registry = Registry::new();
    let _ = scan_store_observed(store, &run.clock, &cfg, 4, Some(&registry)).unwrap();
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(sandwich_obs::names::SCAN_SEGMENTS_SCANNED),
        Some(store.segments().len() as u64)
    );
    assert!(
        snap.histogram(sandwich_obs::names::SCAN_WORKER_BUSY_SECONDS)
            .unwrap()
            .count
            > 0
    );

    // A strict scan that fails on one segment reports the segments it
    // actually scanned, not every segment it was asked for.
    std::fs::remove_file(dir.join(&store.segments()[2].file)).unwrap();
    let registry = Registry::new();
    assert!(scan_store_observed(store, &run.clock, &cfg, 4, Some(&registry)).is_err());
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(sandwich_obs::names::SCAN_SEGMENTS_SCANNED),
        Some(store.segments().len() as u64 - 1)
    );
    assert_eq!(
        snap.counter(sandwich_obs::names::SCAN_SEGMENTS_FAILED),
        Some(1)
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_late).unwrap();
}

/// Copy a store directory's files (manifest and segments) into `to`.
fn copy_store(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn halted_report_equals_the_store_with_its_residue_sealed() {
    let scenario = scenario();
    let dir = store_dir("halted");
    let mut sim = Simulation::new(scenario.clone());
    let options = StoreOptions {
        dir: dir.clone(),
        segment_bundles: 100,
    };
    let halted = run_measurement_with(
        &mut sim,
        pipeline(&scenario, Some(options)),
        RunOptions {
            halt_at_tick: Some(70),
            resume: None,
        },
    )
    .await
    .unwrap();
    let segments = halted.store.as_ref().unwrap().segments().to_vec();
    assert!(!segments.is_empty(), "no segment sealed before the halt");
    assert!(
        !halted.dataset.resident().is_empty(),
        "no residue at the halt"
    );

    // The same records, sealed: a copy of the store with the residue as
    // its last segment.
    let copy = store_dir("halted-copy");
    copy_store(&dir, &copy);
    let mut writer = StoreWriter::resume(&copy, &segments).unwrap();
    let residue = halted.dataset.residue();
    writer
        .seal_segment(residue.bundles, residue.details, residue.polls)
        .unwrap();
    let sealed = writer.into_reader();

    // Both routes: the columnar walk, and the full decode the extended
    // configuration forces.
    let days = scenario.days;
    for cfg in [
        AnalysisConfig::paper_defaults(days),
        AnalysisConfig::extended(days),
    ] {
        let reference = scan_store_materializing(&sealed, &halted.clock, &cfg, 2).unwrap();
        let reference = serde_json::to_string(&reference).unwrap();
        for threads in [1, 4] {
            let report = halted.try_analyze(&cfg, threads).unwrap();
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                reference,
                "extended={} threads={threads}",
                cfg.extended
            );
        }
    }

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&copy).unwrap();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn store_checkpoint_resumes_from_manifest() {
    let scenario = scenario();
    let days = scenario.days;
    let cfg = AnalysisConfig::paper_defaults(days);
    let options = |dir: &PathBuf| StoreOptions {
        dir: dir.clone(),
        segment_bundles: 100,
    };

    // Reference: an uninterrupted store-mode run.
    let dir_full = store_dir("full");
    let mut sim_full = Simulation::new(scenario.clone());
    let full = run_measurement_with(
        &mut sim_full,
        pipeline(&scenario, Some(options(&dir_full))),
        RunOptions::default(),
    )
    .await
    .unwrap();
    let full_report = serde_json::to_string(&full.try_analyze(&cfg, 2).unwrap()).unwrap();

    // The same run killed mid-flight, after several segments sealed.
    let dir = store_dir("resume");
    let mut sim1 = Simulation::new(scenario.clone());
    let halted = run_measurement_with(
        &mut sim1,
        pipeline(&scenario, Some(options(&dir))),
        RunOptions {
            halt_at_tick: Some(70),
            resume: None,
        },
    )
    .await
    .unwrap();
    assert!(halted.halted);
    let sealed_at_halt = halted.store.as_ref().unwrap().segments().len();
    assert!(sealed_at_halt >= 1, "no segment sealed before the halt");
    let halted_sums: Vec<String> = halted
        .store
        .as_ref()
        .unwrap()
        .segments()
        .iter()
        .map(|m| m.checksum.clone())
        .collect();
    let total_at_halt = halted.dataset.len();
    let resident_at_halt = halted.dataset.resident().len();
    assert!(
        resident_at_halt < total_at_halt,
        "nothing was drained out of memory before the halt"
    );

    // Checkpoint through the wire format: the store rides as a manifest
    // reference; sealed bundles are NOT re-serialized into the checkpoint.
    let mut buf = Vec::new();
    halted.into_checkpoint().write(&mut buf).unwrap();
    let cp = Checkpoint::read(BufReader::new(&buf[..])).unwrap();
    let cp_store = &cp.store;
    assert_eq!(cp_store.segments.len(), sealed_at_halt);
    assert_eq!(cp.dataset.resident().len(), resident_at_halt);
    assert_eq!(cp.dataset.len(), total_at_halt, "drained ids still counted");

    // Segment files referenced by the checkpoint exist on disk, sealed.
    for meta in &cp_store.segments {
        let path = dir.join(&meta.file);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), meta.bytes);
    }

    // Resume against a fresh simulation of the same seed. The resumed
    // writer picks up from the manifest; no sealed segment is decoded.
    let mut sim2 = Simulation::new(scenario.clone());
    let resumed = run_measurement_with(
        &mut sim2,
        pipeline(&scenario, Some(options(&dir))),
        RunOptions {
            halt_at_tick: None,
            resume: Some(cp),
        },
    )
    .await
    .unwrap();
    assert!(!resumed.halted);

    // The checkpointed segments are a strict prefix of the final manifest.
    let resumed_store = resumed.store.as_ref().unwrap();
    let prefix: Vec<String> = resumed_store.segments()[..sealed_at_halt]
        .iter()
        .map(|m| m.checksum.clone())
        .collect();
    assert_eq!(prefix, halted_sums);
    assert!(resumed_store.segments().len() > sealed_at_halt);

    // No loss, no duplication: the resumed run's analysis is byte-identical
    // to the uninterrupted run's.
    assert_eq!(resumed.dataset.len(), full.dataset.len());
    let resumed_report = serde_json::to_string(&resumed.try_analyze(&cfg, 2).unwrap()).unwrap();
    assert_eq!(resumed_report, full_report);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_full).unwrap();
}
