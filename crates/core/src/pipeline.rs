//! The end-to-end measurement pipeline: simulated chain → explorer API over
//! HTTP → polling collector → segment store → analysis.
//!
//! This is the whole paper in one function: the simulation produces blocks,
//! the explorer serves its two endpoints (injecting whatever faults its
//! plan schedules — including the configured downtime windows, which
//! become Figure 1's shaded gaps), and the collector polls every two
//! simulated minutes, riding out faults with retries, a circuit breaker,
//! and overlap backfill, sealing what it collected into a segment store as
//! it goes. The analysis scans that store into the figures: there is one
//! route from collector to report, and it is the one `benchmark/` times.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use sandwich_explorer::{Explorer, ExplorerConfig, HistoryStore, RetentionPolicy};
use sandwich_obs::{Registry, Snapshot};
use sandwich_sim::Simulation;
use sandwich_store::{BundleStore, StoreWriter};
use sandwich_types::SlotClock;

use crate::analysis::{AnalysisConfig, AnalysisReport};
use crate::checkpoint::{Checkpoint, StoreCheckpoint};
use crate::collector::{Collector, CollectorConfig, CollectorStats};
use crate::dataset::{detail_map, tagged, write_file_durable, CollectedBundle, Dataset, DetailMap};
use crate::scan::scan_store_partial;

/// Bundles per sealed segment unless [`StoreOptions`] says otherwise.
const SEGMENT_BUNDLES: usize = 5_000;

/// Pipeline tunables.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Explorer service behaviour, including its fault-injection plan.
    /// The scenario's `downtime_days` are appended to the plan's outage
    /// windows automatically — downtime is a server-side fault the
    /// collector must survive, not a voluntary skip.
    pub explorer: ExplorerConfig,
    /// Collector behaviour. `page_limit` should be the scaled equivalent
    /// of the paper's 50,000 (see [`scaled_page_limit`]).
    pub collector: CollectorConfig,
    /// Poll the bundles endpoint every N ticks (1 tick = 2 sim-minutes).
    pub poll_every_ticks: u64,
    /// Fetch pending length-3 details every N ticks.
    pub detail_every_ticks: u64,
    /// Where the run seals what it collects. `None` is a path default, not
    /// a mode: a scratch directory under [`std::env::temp_dir`] that the
    /// [`MeasurementRun`] owns and removes when it is dropped.
    pub store: Option<StoreOptions>,
}

/// Where and how finely a measurement run seals its segment store.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Directory for the manifest and segment files. Must not already hold
    /// a store (fresh runs) — resumed runs reattach via the checkpoint.
    pub dir: PathBuf,
    /// Bundles per sealed segment (the flush threshold).
    pub segment_bundles: usize,
}

impl StoreOptions {
    /// Store at `dir` with the default segment size.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreOptions {
            dir: dir.into(),
            segment_bundles: SEGMENT_BUNDLES,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            explorer: ExplorerConfig::default(),
            collector: CollectorConfig::default(),
            poll_every_ticks: 1,
            detail_every_ticks: 30,
            store: None,
        }
    }
}

/// Run control: where to stop and where to pick up.
#[derive(Default)]
pub struct RunOptions {
    /// Stop before processing this tick, as if the process were killed.
    /// The run returns with `next_tick` set so it can be checkpointed.
    pub halt_at_tick: Option<u64>,
    /// Resume from a previous run's checkpoint: the simulation is replayed
    /// deterministically (feeding the explorer's history) without polling
    /// until the checkpointed cursor, then collection continues.
    pub resume: Option<Checkpoint>,
}

/// The paper's 50,000-bundle page, scaled to the scenario.
///
/// On mainnet a 50,000-bundle page covers ≈ 2.43× the bundle volume of one
/// two-minute polling interval (50,000 ÷ 14.8M/720). The scaled page keeps
/// that coverage ratio relative to the scenario's per-poll volume, so
/// overlap dynamics — including occasional misses under volume spikes —
/// are preserved.
pub fn scaled_page_limit(scenario: &sandwich_sim::ScenarioConfig, poll_every_ticks: u64) -> usize {
    let per_poll =
        scenario.bundles_per_day() / scenario.ticks_per_day as f64 * poll_every_ticks as f64;
    ((per_poll * 2.43).round() as usize).max(10)
}

/// A run-owned store directory, removed when its owner — the run, the
/// checkpoint made from it, or the run resumed from that — is dropped.
#[derive(Debug)]
pub(crate) struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A directory name under the system temp dir no other run of this
    /// process has; whatever a killed process of the same pid left there
    /// is cleared.
    fn new() -> Self {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let name = format!("sandwich-run-{}-{run}.store", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Result of a full measurement run.
pub struct MeasurementRun {
    /// The collector's staging area as the run left it: the totals
    /// (`len`, `detail_count`), the poll ledger, and whatever never sealed
    /// — nothing after a completed run, a halted run's residue otherwise.
    /// Everything collected is [`MeasurementRun::walk`].
    pub dataset: Dataset,
    /// Collector health counters.
    pub collector_stats: CollectorStats,
    /// Requests the explorer actually served.
    pub explorer_requests: u64,
    /// Polls that failed even after retries (missed epochs).
    pub polls_failed: u64,
    /// The first tick a resumed run would process. Equal to the tick count
    /// for a run that finished; the halt point for a halted run.
    pub next_tick: u64,
    /// Whether the run stopped at `halt_at_tick` rather than completing.
    pub halted: bool,
    /// Final metrics snapshot across every layer (`sim.`, `engine.`,
    /// `bank.`, `explorer.`, `collector.`, `pipeline.`, `store.`).
    pub metrics: Snapshot,
    /// The slot clock shared by chain and collector.
    pub clock: SlotClock,
    /// The segment store the run sealed into. Always `Some`.
    pub store: Option<BundleStore>,
    /// Held when the store is the run's own scratch directory.
    scratch: Option<ScratchDir>,
}

impl MeasurementRun {
    fn sealed(&self) -> &BundleStore {
        self.store.as_ref().expect("every run seals into a store")
    }

    /// Analyze the collected data with the given configuration on one scan
    /// thread (use [`MeasurementRun::try_analyze`] for a thread count).
    pub fn analyze(&self, config: &AnalysisConfig) -> AnalysisReport {
        self.try_analyze(config, 1)
            .expect("segment store scan failed")
    }

    /// Scan the sealed segments on `threads` workers, then fold in whatever
    /// never sealed (a halted run's residue; nothing after a completed
    /// run's final flush). The report is byte-identical for any thread
    /// count.
    pub fn try_analyze(
        &self,
        config: &AnalysisConfig,
        threads: usize,
    ) -> io::Result<AnalysisReport> {
        let mut acc = scan_store_partial(self.sealed(), &self.clock, config, threads, None)?;
        for bundle in self.dataset.resident() {
            acc.observe_bundle(bundle, self.dataset.details(), &self.clock, config);
        }
        acc.observe_polls(self.dataset.unspilled_polls());
        Ok(acc.finalize(config))
    }

    /// Visit every collected bundle exactly once, with the details that
    /// travel with it: the sealed segments in manifest order (each read and
    /// checksum-verified by [`BundleStore::read_segment`]), then the
    /// unsealed residue. This is the one way to enumerate what a run
    /// collected; one segment is resident at a time.
    pub fn walk(&self, mut visit: impl FnMut(&CollectedBundle, &DetailMap)) -> io::Result<()> {
        let store = self.sealed();
        for index in 0..store.segments().len() {
            let data = store.read_segment(index)?;
            let details = detail_map(data.details);
            for bundle in &data.bundles {
                visit(bundle, &details);
            }
        }
        for bundle in self.dataset.resident() {
            visit(bundle, self.dataset.details());
        }
        Ok(())
    }

    /// Archive everything collected as JSON lines — the poll ledger, then
    /// each bundle of [`MeasurementRun::walk`] followed by its details —
    /// which [`Dataset::read_jsonl`] reloads for offline re-analysis.
    pub fn write_jsonl<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        fn bundle_lines<W: io::Write>(
            w: &mut W,
            bundle: &CollectedBundle,
            details: &DetailMap,
        ) -> io::Result<()> {
            tagged(w, "bundle", bundle)?;
            let mut fetched = bundle.tx_ids.iter().filter_map(|id| details.get(id));
            fetched.try_for_each(|d| tagged(w, "detail", d))
        }
        for poll in self.dataset.polls() {
            tagged(&mut w, "poll", poll)?;
        }
        let mut written = Ok(());
        self.walk(|bundle, details| {
            if written.is_ok() {
                written = bundle_lines(&mut w, bundle, details);
            }
        })?;
        written
    }

    /// [`MeasurementRun::write_jsonl`] straight to a file, durably: the
    /// archive streams into a temp file which is fsynced, atomically renamed
    /// over `path`, and made durable with a parent-directory fsync — a crash
    /// mid-export leaves either the old archive or the new one, never a
    /// half-written file.
    pub fn write_jsonl_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_file_durable(path.as_ref(), |w| self.write_jsonl(w))
    }

    /// Convert a (typically halted) run into a resumable checkpoint. The
    /// store rides by reference: the manifest entry list, not the segment
    /// data.
    pub fn into_checkpoint(self) -> Checkpoint {
        let store = self.sealed();
        let store = StoreCheckpoint {
            dir: store.dir().to_string_lossy().into_owned(),
            segments: store.segments().to_vec(),
        };
        Checkpoint {
            next_tick: self.next_tick,
            stats: self.collector_stats,
            store,
            dataset: self.dataset,
            scratch: self.scratch,
        }
    }
}

/// Drive `sim` to completion while collecting through a live explorer
/// instance over real HTTP.
pub async fn run_measurement(
    sim: &mut Simulation,
    config: PipelineConfig,
) -> io::Result<MeasurementRun> {
    run_measurement_with(sim, config, RunOptions::default()).await
}

/// [`run_measurement`] with halt/resume control.
pub async fn run_measurement_with(
    sim: &mut Simulation,
    config: PipelineConfig,
    opts: RunOptions,
) -> io::Result<MeasurementRun> {
    let clock = sim.clock();
    // Retain details exactly where the collector will ask for them.
    let retention = if config.collector.detail_bundle_lens == [3] {
        RetentionPolicy::OnlyBundleLength(3)
    } else {
        RetentionPolicy::BundleLengths(config.collector.detail_bundle_lens)
    };
    let store = Arc::new(RwLock::new(HistoryStore::new(clock, retention)));
    // One registry shared by every layer, live at the explorer's /metrics.
    let registry = Registry::new();
    sim.attach_registry(&registry);
    // Scheduled downtime is served as a hard outage by the explorer, so the
    // collector's retry/breaker path — not a voluntary skip — produces the
    // Figure 1 gaps.
    let mut explorer_config = config.explorer.clone();
    explorer_config
        .faults
        .outages_ms
        .extend(sim.config().downtime_windows_ms(&clock));
    let explorer =
        Explorer::start_with_registry(store.clone(), explorer_config, registry.clone()).await?;
    let mut collector = Collector::with_registry(explorer.addr(), config.collector, &registry);
    let poll_errors = registry.counter("pipeline.poll_errors");
    let detail_errors = registry.counter("pipeline.detail_errors");

    // The store the run seals into: the one its checkpoint references
    // (reattached from the manifest — no sealed segment is re-read into
    // memory), the one the caller named, or a scratch directory it owns.
    let segment_bundles = config
        .store
        .as_ref()
        .map_or(SEGMENT_BUNDLES, |options| options.segment_bundles);
    let (start_tick, writer, scratch) = match opts.resume {
        // Resume: restore the collected state, then fast-forward the (fully
        // deterministic) simulation to the cursor without touching the
        // network.
        Some(cp) => {
            // Keep the pipeline-level ledger in step with the restored
            // collector counters (poll_errors mirrors polls_failed).
            poll_errors.add(cp.stats.polls_failed);
            collector.restore(cp.stats, cp.dataset);
            let writer = StoreWriter::resume(Path::new(&cp.store.dir), &cp.store.segments)?;
            (cp.next_tick, writer, cp.scratch)
        }
        None => {
            let (dir, scratch) = match &config.store {
                Some(options) => (options.dir.clone(), None),
                None => {
                    let scratch = ScratchDir::new();
                    (scratch.0.clone(), Some(scratch))
                }
            };
            let mut writer = StoreWriter::create(dir)?;
            // Stamp the chain's validator spec into the manifest: public
            // chain data from which the index recomputes the full leader
            // schedule, attributing each sandwich to its slot leader.
            writer.set_validators(sim.config().validator_spec())?;
            (0, writer, scratch)
        }
    };
    collector.attach_store(writer, segment_bundles);

    let mut tick_counter = 0u64;
    let mut halted = false;
    while let Some(outcome) = sim.step() {
        if opts.halt_at_tick.is_some_and(|h| tick_counter >= h) {
            halted = true;
            break;
        }
        store.write().record_slot(&outcome.result);
        let now_ms = clock.unix_ms(outcome.result.block.slot);
        explorer.set_now_ms(now_ms);

        if tick_counter >= start_tick {
            if tick_counter.is_multiple_of(config.poll_every_ticks) {
                // Transient failures are survived by retries; a poll that
                // still fails after them is a missed epoch, like the
                // paper's — but it is counted, not discarded. A poll the
                // open circuit breaker skipped is neither.
                if collector
                    .poll_bundles(&clock, outcome.day, now_ms)
                    .await
                    .is_err()
                {
                    poll_errors.inc();
                }
            }
            if tick_counter.is_multiple_of(config.detail_every_ticks)
                && collector.fetch_pending_details(now_ms).await.is_err()
            {
                detail_errors.inc();
            }
            // Seal every full segment's worth of drained records, keeping
            // resident memory bounded while the run is still polling.
            collector.flush_store(false)?;
        }
        tick_counter += 1;
    }

    // Final sweep for any details still pending, then seal everything left
    // — unless we are emulating a kill, which gets no goodbye (the residue
    // rides in the checkpoint instead).
    if !halted {
        let now_ms = explorer.now_ms();
        if collector.fetch_pending_details(now_ms).await.is_err() {
            detail_errors.inc();
        }
        collector.flush_store(true)?;
    }

    let explorer_requests = explorer.requests_served();
    explorer.shutdown().await;

    let sealed_store = collector.take_store().map(StoreWriter::into_reader);
    Ok(MeasurementRun {
        dataset: collector.dataset,
        polls_failed: collector.stats.polls_failed,
        collector_stats: collector.stats,
        explorer_requests,
        next_tick: tick_counter,
        halted,
        metrics: registry.snapshot(),
        clock,
        store: sealed_store,
        scratch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use sandwich_sim::ScenarioConfig;

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn tiny_end_to_end_measurement() {
        let scenario = ScenarioConfig::tiny();
        let days = scenario.days;
        let page_limit = scaled_page_limit(&scenario, 1);
        let mut sim = Simulation::new(scenario);
        let pipeline = PipelineConfig {
            collector: CollectorConfig {
                page_limit,
                detail_batch: 100,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = run_measurement(&mut sim, pipeline).await.unwrap();
        assert!(
            run.dataset.len() > 100,
            "collected {} bundles",
            run.dataset.len()
        );
        assert!(run.collector_stats.polls_ok > 0);
        // Downtime is now a server-side outage: polls during it fail (or
        // are skipped by the open breaker) instead of being silently
        // withheld, and they are all accounted for.
        assert!(run.polls_failed > 0, "downtime produced no failed polls");

        let report = run.analyze(&AnalysisConfig::paper_defaults(days));

        // Detection matches ground truth: nothing is found that did not
        // land as a sandwich.
        let truth = sim.truth();
        assert!(!report.findings.is_empty());
        for f in &report.findings {
            assert!(
                truth.sandwich_ids.contains(&f.bundle_id),
                "false positive: {f:?} is not a ground-truth sandwich"
            );
        }
        // The collector missed at most the downtime window; outside it,
        // detection should recover the bulk of ground truth.
        assert!(
            report.total_sandwiches() as f64 >= truth.total_sandwiches() as f64 * 0.4,
            "found {} of {}",
            report.total_sandwiches(),
            truth.total_sandwiches()
        );

        // No poll *succeeds* during the downtime day (day 1 in the tiny
        // scenario): the explorer drops every connection in the window.
        assert!(run.dataset.polls().iter().all(|p| p.day != 1));
        // The first poll after the outage backfills the gap's trailing
        // edge, recovering bundles no successful poll ever covered.
        assert!(
            run.collector_stats.bundles_recovered > 0,
            "post-outage backfill recovered nothing"
        );

        // Defensive classification catches ground-truth defensive bundles.
        assert!(report.defense.defensive > 0);
        assert!(report.defense.defensive_fraction() > 0.5);

        // Every layer reported into the shared registry.
        let m = &run.metrics;
        for prefix in ["sim.", "engine.", "bank.", "explorer.", "collector."] {
            assert!(
                m.counter_sum(prefix) > 0,
                "no non-zero {prefix} counters in {:?}",
                m.counters
            );
        }
        assert_eq!(m.counter("collector.polls_failed"), Some(run.polls_failed));
        assert_eq!(m.counter("pipeline.poll_errors"), Some(run.polls_failed));
        // The outage is injected (and counted) by the fault plan.
        assert!(m.counter("faults.injected.outage").unwrap_or(0) > 0);
        assert!(m.histogram("explorer.bundles_seconds").unwrap().count > 0);
        assert!(m.histogram("sim.tick_seconds").unwrap().count > 0);
    }
}
