//! Regenerates Table 1: a worked sandwich example drawn from an actual
//! detected attack in the simulated dataset.

use sandwich_core::report;

fn main() {
    // Table 1 needs one good example, not a 120-day run.
    let scenario = sandwich_sim::ScenarioConfig {
        days: 2,
        ..sandwich_sim::ScenarioConfig::tiny()
    };
    let fr = sandwich_bench::run_pipeline_with(scenario, None);
    println!("=== Table 1: example sandwiching MEV transaction ===\n");
    println!("{}", report::table1(&fr.report));
}
