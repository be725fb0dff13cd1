//! The calls into the system that set-up and the slices share.
//!
//! Everything here goes through the repository's public entry points only
//! (`run_measurement`, `scan_store`, `build_index`, `save_index`,
//! `StoreWriter`, `Manifest::load`, …), so a refactor underneath them cannot
//! stop the benchmark building. Spans are opened here, in the benchmark's own
//! file, around each such call.

use std::io;
use std::path::Path;

use sandwich_core::{
    run_measurement, scaled_page_limit, scan_store, AnalysisConfig, CollectorConfig,
    PipelineConfig, StoreOptions,
};
use sandwich_query::{build_index, save_index, QueryConfig, INDEX_FILE};
use sandwich_sim::{ScenarioConfig, Simulation};
use sandwich_store::{BundleStore, Manifest, StoreWriter, ValidatorSpec};
use sandwich_types::SlotClock;

use crate::checks::CollectOutcome;
use crate::gen::{self, LiveSegment, ScaleConfig, ScaleStats};
use crate::spans::{SpanGuard, Tracer};

/// A two-worker runtime: the box has two cores.
pub fn runtime() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .expect("tokio runtime")
}

/// Index builds and scans run on one thread: single-thread throughput is
/// what a shared two-core box measures honestly.
pub fn query_config() -> QueryConfig {
    QueryConfig {
        threads: 1,
        ..QueryConfig::default()
    }
}

/// The `collect_1d` scenario: one day at 1/4000 of mainnet volume, no
/// scheduled downtime (so no poll may fail), seeded by `seed`.
pub fn collect_scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        days: 1,
        volume_scale: 1.0 / 4_000.0,
        downtime_days: Vec::new(),
        ..ScenarioConfig::default()
    }
}

/// The pipeline configuration `collect_1d` runs: the paper's page size
/// scaled to the scenario, sealing into a fresh store at `store_dir`.
pub fn collect_pipeline(scenario: &ScenarioConfig, store_dir: &Path) -> PipelineConfig {
    PipelineConfig {
        collector: CollectorConfig {
            page_limit: scaled_page_limit(scenario, 1),
            ..CollectorConfig::default()
        },
        store: Some(StoreOptions::new(store_dir)),
        ..PipelineConfig::default()
    }
}

/// What a sealed `collect_1d` store holds, for the per-op check.
pub fn collect_outcome(
    store: &BundleStore,
    clock: &SlotClock,
    polls_failed: u64,
) -> io::Result<CollectOutcome> {
    let report = scan_store(store, clock, &AnalysisConfig::paper_defaults(1), 1)?;
    Ok(CollectOutcome {
        polls_failed,
        sealed: store.manifest().total_bundles(),
        findings: report.findings.len() as u64,
    })
}

/// One `collect_1d` op: simulate the day, serve it from the explorer over
/// loopback, poll it, seal it into a fresh store at `store_dir`. Returns the
/// op's latency in ms (the check that follows is not part of it) and what
/// was collected.
pub fn collect_once(
    runtime: &tokio::runtime::Runtime,
    seed: u64,
    store_dir: &Path,
    tracer: &Tracer,
    op: u64,
) -> io::Result<(f64, CollectOutcome)> {
    let scenario = collect_scenario(seed);
    let pipeline = collect_pipeline(&scenario, store_dir);
    let root = tracer.start("pipeline.run_measurement", op, None);
    let mut sim = Simulation::new(scenario);
    let run = runtime.block_on(run_measurement(&mut sim, pipeline))?;
    let latency_ms = root.elapsed_ms();
    drop(root);
    let store = run
        .store
        .as_ref()
        .ok_or_else(|| io::Error::other("run_measurement sealed no store"))?;
    Ok((
        latency_ms,
        collect_outcome(store, &run.clock, run.polls_failed)?,
    ))
}

/// Create the generated store at `dir`: `bundles` bundles under `seed`, with
/// a validator spec stamped so the attribution join runs.
pub fn generate_store(dir: &Path, seed: u64, bundles: u64) -> io::Result<ScaleStats> {
    let mut writer = StoreWriter::create(dir)?;
    writer.set_validators(ValidatorSpec::new(seed, gen::VALIDATORS))?;
    gen::generate(&mut writer, &ScaleConfig::new(seed, bundles))
}

/// What one analysis pass produced.
pub struct AnalysisOutput {
    /// Sandwiches the scan found.
    pub findings: u64,
    /// The report, as JSON.
    pub report: Vec<u8>,
}

/// One `analyze_250k` op: open the store, scan it, render the report, build
/// the index and save it — the batch path, one thread, no socket.
pub fn analysis_pass(
    store_dir: &Path,
    tracer: &Tracer,
    op: u64,
    root: Option<&SpanGuard<'_>>,
) -> io::Result<AnalysisOutput> {
    let store = {
        let _s = tracer.start("store.open", op, root);
        BundleStore::open(store_dir)?
    };
    let report = {
        let _s = tracer.start("scan.store", op, root);
        scan_store(
            &store,
            &SlotClock::default(),
            &AnalysisConfig::paper_defaults(gen::DAYS),
            1,
        )?
    };
    let report_json = {
        let _s = tracer.start("report.json", op, root);
        serde_json::to_vec(&report).map_err(io::Error::other)?
    };
    let index = {
        let _s = tracer.start("index.build", op, root);
        build_index(&store, &query_config())?
    };
    {
        let _s = tracer.start("index.save", op, root);
        save_index(store_dir, &index)?;
    }
    Ok(AnalysisOutput {
        findings: report.findings.len() as u64,
        report: report_json,
    })
}

/// The index frame `save_index` persisted at `store_dir`, as written.
pub fn index_frame(store_dir: &Path) -> io::Result<Vec<u8>> {
    std::fs::read(store_dir.join(INDEX_FILE))
}

/// Build and persist the whole-store index at `store_dir`, so a service
/// opened on it loads instead of building.
pub fn index_store(store_dir: &Path) -> io::Result<()> {
    let store = BundleStore::open(store_dir)?;
    save_index(store_dir, &build_index(&store, &query_config())?)
}

/// Seal live-tail segment `n` onto the store at `store_dir`, the way a
/// writer beside a running service does: reload the manifest, resume,
/// seal (fsync as the program does). Returns the segment's planted sandwich.
pub fn seal_live(store_dir: &Path, seed: u64, n: u64) -> io::Result<LiveSegment> {
    let sealed = Manifest::load(store_dir)?.segments;
    let mut writer = StoreWriter::resume(store_dir, &sealed)?;
    let mut segment = gen::live_segment(seed, n);
    writer.seal_segment(
        std::mem::take(&mut segment.bundles),
        std::mem::take(&mut segment.details),
        Vec::new(),
    )?;
    Ok(segment)
}

/// All bytes under `dir`, recursively.
pub fn disk_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            disk_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copy a store directory (flat: segments, manifest, index frames, shard map).
pub fn copy_store(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
