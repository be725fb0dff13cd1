//! End-to-end integration: simulated chain → explorer over HTTP →
//! collector → analysis, validated against the simulator's ground truth.

use std::collections::HashSet;

use sandwich_core::{AnalysisConfig, CollectorConfig, MeasurementRun, PipelineConfig};
use sandwich_sim::{ScenarioConfig, Simulation};

/// The id of every bundle the run collected.
fn collected_ids(run: &MeasurementRun) -> HashSet<sandwich_jito::BundleId> {
    let mut ids = HashSet::new();
    run.walk(|b, _| {
        ids.insert(b.bundle_id);
    })
    .unwrap();
    ids
}

fn tiny_pipeline(scenario: &ScenarioConfig) -> PipelineConfig {
    PipelineConfig {
        collector: CollectorConfig {
            page_limit: sandwich_core::scaled_page_limit(scenario, 1),
            ..Default::default()
        },
        ..Default::default()
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn detector_has_no_false_positives_and_high_recall() {
    let scenario = ScenarioConfig {
        downtime_days: vec![], // full coverage for exact accounting
        ..ScenarioConfig::tiny()
    };
    let days = scenario.days;
    let pipeline = tiny_pipeline(&scenario);
    let mut sim = Simulation::new(scenario);
    let run = sandwich_core::run_measurement(&mut sim, pipeline)
        .await
        .unwrap();
    let report = run.analyze(&AnalysisConfig::paper_defaults(days));
    let truth = sim.truth();

    // Precision: every detected bundle is a ground-truth sandwich.
    let detected: HashSet<_> = report.findings.iter().map(|f| f.bundle_id).collect();
    for id in &detected {
        assert!(
            truth.sandwich_ids.contains(id),
            "false positive bundle {id}"
        );
    }

    // Recall: every *collected*, *undisguised* ground-truth sandwich is
    // detected. (Disguised length-4 attacks are invisible to the paper's
    // length-3 methodology by design — see the lower_bound bench.)
    let collected = collected_ids(&run);
    for id in &truth.sandwich_ids {
        if collected.contains(id) && !truth.disguised_sandwich_ids.contains(id) {
            assert!(detected.contains(id), "missed collected sandwich {id}");
        }
    }

    // Coverage sanity: the vast majority of bundles was collected.
    let total_truth: u64 = truth.per_day.iter().map(|d| d.total_bundles()).sum();
    let coverage = run.dataset.len() as f64 / total_truth as f64;
    assert!(coverage > 0.9, "collected {coverage:.2} of ground truth");
    assert!(run.dataset.overlap_rate() > 0.5);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn downtime_creates_gaps_without_breaking_analysis() {
    let scenario = ScenarioConfig::tiny(); // downtime on day 1
    let days = scenario.days;
    let pipeline = tiny_pipeline(&scenario);
    let mut sim = Simulation::new(scenario);
    let run = sandwich_core::run_measurement(&mut sim, pipeline)
        .await
        .unwrap();

    // Downtime is served as a hard outage, so no poll *succeeds* on the
    // downtime day — the failures are counted instead of silently skipped.
    assert!(run.dataset.polls().iter().all(|p| p.day != 1));
    assert!(run.polls_failed > 0, "outage produced no failed polls");
    // The chain kept producing; day 1 ground truth is non-empty but the
    // collected dataset for day 1 is mostly missing — the Figure 1 gap.
    // The first post-outage poll backfills up to `backfill_max_pages`
    // pages of the gap's trailing edge (~40% of the day at the tiny
    // scale), so the gap shrinks but must remain clearly visible.
    let truth_day1 = sim.truth().per_day[1].total_bundles();
    assert!(truth_day1 > 0);
    let report = run.analyze(&AnalysisConfig::paper_defaults(days));
    let collected_day1 = report
        .bundles_by_len_per_day
        .iter()
        .map(|s| s.values[1])
        .sum::<f64>();
    assert!(
        collected_day1 < truth_day1 as f64 * 0.6,
        "day-1 gap: collected {collected_day1} of {truth_day1}"
    );
    assert!(
        run.collector_stats.bundles_recovered > 0,
        "backfill recovered nothing from the gap's trailing edge"
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn financial_estimates_track_ground_truth() {
    let scenario = ScenarioConfig {
        downtime_days: vec![],
        ..ScenarioConfig::tiny()
    };
    let days = scenario.days;
    let pipeline = tiny_pipeline(&scenario);
    let mut sim = Simulation::new(scenario);
    let run = sandwich_core::run_measurement(&mut sim, pipeline)
        .await
        .unwrap();
    let report = run.analyze(&AnalysisConfig::paper_defaults(days));
    let truth = sim.truth();

    // The detector's loss estimate (attacker-rate methodology, §4.1) must
    // agree with the simulator's intent-level accounting within 25%.
    let truth_loss_sol = truth.total_victim_loss_lamports() as f64 / 1e9;
    let measured_loss_sol = report.victim_loss_sol_per_day.total();
    assert!(truth_loss_sol > 0.0);
    let ratio = measured_loss_sol / truth_loss_sol;
    assert!(
        (0.75..=1.25).contains(&ratio),
        "loss ratio {ratio}: measured {measured_loss_sol} vs truth {truth_loss_sol}"
    );

    // Non-SOL share matches ground truth exactly on collected, undisguised
    // bundles (disguised length-4 attacks are invisible to this analysis).
    let collected = collected_ids(&run);
    let truth_non_sol_collected = truth
        .non_sol_sandwich_ids
        .iter()
        .filter(|id| collected.contains(*id) && !truth.disguised_sandwich_ids.contains(*id))
        .count() as u64;
    assert_eq!(report.non_sol_sandwiches, truth_non_sol_collected);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn defensive_classification_matches_ground_truth() {
    let scenario = ScenarioConfig {
        downtime_days: vec![],
        ..ScenarioConfig::tiny()
    };
    let days = scenario.days;
    let pipeline = tiny_pipeline(&scenario);
    let mut sim = Simulation::new(scenario);
    let run = sandwich_core::run_measurement(&mut sim, pipeline)
        .await
        .unwrap();
    let report = run.analyze(&AnalysisConfig::paper_defaults(days));
    let truth = sim.truth();

    // Every ground-truth defensive bundle that was collected classifies as
    // defensive (tips were generated ≤ 100k by construction).
    let mut matched = 0u64;
    run.walk(|b, _| {
        if truth.defensive_ids.contains(&b.bundle_id) {
            assert!(sandwich_core::is_defensive(b), "missed defensive {b:?}");
            matched += 1;
        }
    })
    .unwrap();
    assert!(matched > 0);
    // And the classifier's overall count only adds bundles that ground
    // truth also considers defensive (priority tips are > 100k by
    // construction, so equality holds).
    assert_eq!(report.defense.defensive, matched);
}
