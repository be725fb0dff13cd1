//! Detector-criteria ablation (DESIGN.md §4): re-analyze the same collected
//! dataset with each criterion disabled and report false-positive
//! inflation against simulator ground truth.

use std::collections::HashSet;

use sandwich_core::{AnalysisConfig, DetectorConfig};

fn main() {
    // A shorter period suffices; ablation is about classification, not trends.
    let scenario = sandwich_sim::ScenarioConfig {
        days: sandwich_bench::env_or("SANDWICH_DAYS", 15),
        downtime_days: vec![],
        ..sandwich_bench::figure_scenario()
    };
    let days = scenario.days;
    let mut sim = sandwich_sim::Simulation::new(scenario.clone());
    let pipeline = sandwich_core::PipelineConfig {
        collector: sandwich_core::CollectorConfig {
            page_limit: sandwich_core::scaled_page_limit(&scenario, 1),
            ..Default::default()
        },
        ..Default::default()
    };
    let runtime = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .unwrap();
    let run = runtime
        .block_on(sandwich_core::run_measurement(&mut sim, pipeline))
        .unwrap();
    let truth_ids = &sim.truth().sandwich_ids;
    let mut collected_truth = HashSet::new();
    run.walk(|b, _| {
        if truth_ids.contains(&b.bundle_id) {
            collected_truth.insert(b.bundle_id);
        }
    })
    .expect("walk the run's store");

    println!("=== detector criteria ablation ===");
    println!(
        "{:<44} {:>10} {:>8} {:>8}",
        "configuration", "detected", "FPs", "FNs"
    );
    let eval = |name: &str, detector: DetectorConfig| {
        let config = AnalysisConfig {
            detector,
            ..AnalysisConfig::paper_defaults(days)
        };
        let report = run.analyze(&config);
        let detected: HashSet<_> = report.findings.iter().map(|f| f.bundle_id).collect();
        let fps = detected.difference(truth_ids).count();
        let fns = collected_truth.difference(&detected).count();
        println!("{name:<44} {:>10} {fps:>8} {fns:>8}", detected.len());
    };

    eval("all five criteria (paper)", DetectorConfig::default());
    eval(
        "without c1 (same outer signer)",
        DetectorConfig::without_criterion(1).unwrap(),
    );
    eval(
        "without c2 (same traded currencies)",
        DetectorConfig::without_criterion(2).unwrap(),
    );
    eval(
        "without c3 (rate moves against victim)",
        DetectorConfig::without_criterion(3).unwrap(),
    );
    eval(
        "without c4 (attacker profits)",
        DetectorConfig::without_criterion(4).unwrap(),
    );
    eval(
        "without c5 (exclude tip-only final)",
        DetectorConfig::without_criterion(5).unwrap(),
    );
    println!(
        "\nground truth: {} sandwiches landed; {} bundles collected",
        truth_ids.len(),
        run.dataset.len()
    );
    println!("(each criterion's FPs are its engineered near-miss decoys slipping");
    println!(" through; conformance_bench breaks the same admissions out per family.)");
}
