//! Checkpoint/resume: killing the collector mid-run and resuming from the
//! checkpoint must collect exactly what an uninterrupted run over the same
//! seed collects — same bundles, same details, same poll ledger. Faults
//! are injected throughout to prove the plan replays identically on the
//! simulated clock. A checkpoint written out needs a store directory that
//! outlives the process; one resumed in-process may ride the run's own
//! scratch store, which lives exactly as long as whoever holds it.

use std::io::BufReader;
use std::time::Duration;

use sandwich_core::{
    run_measurement_with, Checkpoint, CollectorConfig, MeasurementRun, PipelineConfig, RunOptions,
    StoreOptions,
};
use sandwich_explorer::{ExplorerConfig, FaultPlanConfig};
use sandwich_net::RetryPolicy;
use sandwich_sim::{ScenarioConfig, Simulation};

fn faulty_pipeline(scenario: &ScenarioConfig, store: Option<StoreOptions>) -> PipelineConfig {
    PipelineConfig {
        explorer: ExplorerConfig {
            // Enough 503s that retries fire constantly; decisions are keyed
            // on (seed, sim-time bucket, ordinal), so both runs see the
            // same faults at the same ticks.
            faults: FaultPlanConfig::uniform_503(0.3, 11),
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

/// A fresh store directory sealing every 100 bundles, so a run halted at
/// tick 70 has sealed segments *and* a residue.
fn small_segments(label: &str) -> StoreOptions {
    let dir = std::env::temp_dir().join(format!("ckpt-resume-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StoreOptions {
        dir,
        segment_bundles: 100,
    }
}

/// Everything the run collected, in walk order: sealed segments, then the
/// residue.
fn bundle_ids(run: &MeasurementRun) -> Vec<sandwich_jito::BundleId> {
    let mut ids = Vec::new();
    run.walk(|b, _| ids.push(b.bundle_id)).unwrap();
    ids
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn killed_run_resumed_from_checkpoint_equals_uninterrupted_run() {
    let scenario = ScenarioConfig {
        downtime_days: vec![],
        ..ScenarioConfig::tiny()
    };

    // Reference: one uninterrupted run.
    let store_full = small_segments("full");
    let mut sim = Simulation::new(scenario.clone());
    let full = run_measurement_with(
        &mut sim,
        faulty_pipeline(&scenario, Some(store_full.clone())),
        RunOptions::default(),
    )
    .await
    .unwrap();
    assert!(!full.halted);

    // The same run killed at tick 70...
    let store = small_segments("killed");
    let mut sim1 = Simulation::new(scenario.clone());
    let halted = run_measurement_with(
        &mut sim1,
        faulty_pipeline(&scenario, Some(store.clone())),
        RunOptions {
            halt_at_tick: Some(70),
            resume: None,
        },
    )
    .await
    .unwrap();
    assert!(halted.halted);
    assert_eq!(halted.next_tick, 70);
    let collected_at_halt = halted.dataset.len();
    assert!(collected_at_halt > 0);
    assert!(collected_at_halt < full.dataset.len());
    // The walk yields every id collected so far exactly once, sealed or not.
    assert!(!halted.store.as_ref().unwrap().segments().is_empty());
    assert!(!halted.dataset.resident().is_empty());
    let at_halt = bundle_ids(&halted);
    assert_eq!(at_halt.len(), collected_at_halt);
    let distinct: std::collections::HashSet<_> = at_halt.iter().collect();
    assert_eq!(distinct.len(), collected_at_halt, "walk repeated an id");

    // ...checkpointed through the wire format...
    let mut buf = Vec::new();
    halted.into_checkpoint().write(&mut buf).unwrap();
    let cp = Checkpoint::read(BufReader::new(&buf[..])).unwrap();
    assert_eq!(cp.next_tick, 70);
    assert_eq!(cp.dataset.len(), collected_at_halt);

    // ...and resumed against a fresh simulation of the same seed.
    let mut sim2 = Simulation::new(scenario.clone());
    let resumed = run_measurement_with(
        &mut sim2,
        faulty_pipeline(&scenario, Some(store.clone())),
        RunOptions {
            halt_at_tick: None,
            resume: Some(cp),
        },
    )
    .await
    .unwrap();
    assert!(!resumed.halted);

    // No data loss, no duplication: identical bundles in identical order,
    // identical detail coverage, identical poll ledger.
    assert_eq!(bundle_ids(&full), bundle_ids(&resumed));
    assert_eq!(full.dataset.detail_count(), resumed.dataset.detail_count());
    assert_eq!(full.dataset.polls().len(), resumed.dataset.polls().len());
    assert_eq!(
        full.collector_stats.polls_ok,
        resumed.collector_stats.polls_ok
    );

    // The resumed run's ledger still balances after restoring counters.
    assert_eq!(
        resumed.metrics.counter("pipeline.poll_errors"),
        Some(resumed.polls_failed),
    );
    assert_eq!(
        resumed.metrics.counter("collector.polls_failed"),
        Some(resumed.collector_stats.polls_failed),
    );

    // And the analysis downstream of the two datasets agrees.
    let days = scenario.days;
    let cfg = sandwich_core::AnalysisConfig::paper_defaults(days);
    assert_eq!(
        full.analyze(&cfg).total_sandwiches(),
        resumed.analyze(&cfg).total_sandwiches()
    );

    std::fs::remove_dir_all(&store.dir).unwrap();
    std::fs::remove_dir_all(&store_full.dir).unwrap();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn halting_at_tick_zero_resumes_into_a_complete_run() {
    // Degenerate kill: nothing collected yet. Resume must still collect
    // everything — here without naming a store, so the runs seal into
    // scratch directories of their own.
    let scenario = ScenarioConfig {
        downtime_days: vec![],
        ..ScenarioConfig::tiny()
    };
    let mut sim1 = Simulation::new(scenario.clone());
    let halted = run_measurement_with(
        &mut sim1,
        faulty_pipeline(&scenario, None),
        RunOptions {
            halt_at_tick: Some(0),
            resume: None,
        },
    )
    .await
    .unwrap();
    assert!(halted.dataset.is_empty());

    // The scratch store belongs to whoever holds the run: it passes to the
    // checkpoint, which can be resumed but not written out...
    let scratch = halted.store.as_ref().unwrap().dir().to_path_buf();
    assert!(scratch.starts_with(std::env::temp_dir()));
    let cp = halted.into_checkpoint();
    assert!(scratch.is_dir(), "scratch store died with the halted run");
    assert!(cp.write(Vec::new()).is_err());

    let mut sim2 = Simulation::new(scenario.clone());
    let resumed = run_measurement_with(
        &mut sim2,
        faulty_pipeline(&scenario, None),
        RunOptions {
            halt_at_tick: None,
            resume: Some(cp),
        },
    )
    .await
    .unwrap();
    // ...then to the resumed run, which sealed into it...
    assert_eq!(resumed.store.as_ref().unwrap().dir(), scratch);
    assert!(!resumed.store.as_ref().unwrap().segments().is_empty());

    let pipeline = faulty_pipeline(&scenario, None);
    let mut sim3 = Simulation::new(scenario);
    let full = run_measurement_with(&mut sim3, pipeline, RunOptions::default())
        .await
        .unwrap();
    assert_eq!(bundle_ids(&full), bundle_ids(&resumed));

    // ...and is removed with it.
    drop(resumed);
    assert!(!scratch.exists(), "scratch store outlived its run");
}
