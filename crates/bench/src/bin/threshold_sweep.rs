//! Defensive-threshold sensitivity (DESIGN.md §4): how the "86% of length-1
//! bundles are defensive" figure moves as the 100k-lamport threshold is
//! swept.

use sandwich_core::DefenseStats;
use sandwich_dex::SolUsdOracle;
use sandwich_types::Lamports;

fn main() {
    let scenario = sandwich_sim::ScenarioConfig {
        days: sandwich_bench::env_or("SANDWICH_DAYS", 15),
        downtime_days: vec![],
        ..sandwich_bench::figure_scenario()
    };
    let fr = sandwich_bench::run_pipeline_with(scenario, None);
    let oracle = SolUsdOracle::default();

    println!("=== defensive-bundling threshold sweep ===");
    println!(
        "{:>14} {:>12} {:>16} {:>16} {:>14}",
        "threshold", "defensive", "share of len-1", "mean tip (lam)", "spend (USD)"
    );
    let thresholds = [
        1_000u64, 5_000, 10_000, 50_000, 100_000, 200_000, 500_000, 1_000_000,
    ];
    // One pass over everything collected, every threshold folded per bundle.
    let mut sweep = thresholds.map(|t| (Lamports(t), DefenseStats::default()));
    fr.run
        .walk(|bundle, _| {
            for (threshold, stats) in &mut sweep {
                stats.observe(bundle, *threshold);
            }
        })
        .expect("walk the run's store");
    for (threshold, stats) in sweep {
        println!(
            "{:>14} {:>12} {:>15.1}% {:>16.0} {:>14.2}",
            threshold.0,
            stats.defensive,
            stats.defensive_fraction() * 100.0,
            stats.mean_defensive_tip(),
            oracle.lamports_to_usd(Lamports(stats.defensive_tips_lamports)),
        );
    }
    println!("\npaper's operating point: 100,000 lamports → 86% of length-1 bundles.");
}
