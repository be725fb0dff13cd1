//! The paper's text outputs (the `paper` binary), the `scale_gen` corpus
//! generator and the three `*_bench` snapshot writers.
//!
//! Every paper output reads a run of the same full measurement pipeline
//! (simulated chain → explorer HTTP API → collector → segment store →
//! analysis); [`paper`] groups the outputs by the scenario they read, so each
//! scenario runs once. Scale and length are overridable via environment
//! variables so the default stays laptop-friendly:
//!
//! * `SANDWICH_DAYS`  — days to simulate (default 120, the paper's period,
//!   for the figures; 15 or 5 for the shorter groups, see [`paper`])
//! * `SANDWICH_SCALE` — denominator of the volume scale, a positive integer
//!   (default 4000, i.e. 1/4000 of mainnet's 14.8M bundles/day)
//! * `SANDWICH_SEED`  — RNG seed (default the paper's start date)
//!
//! A variable that is set but does not parse stops the binary ([`env_or`]).

pub mod paper;
pub mod scale;

pub use sandwich_types::env::env_or;

use std::num::NonZeroU64;

use sandwich_core::{AnalysisConfig, AnalysisReport, MeasurementRun, PipelineConfig};
use sandwich_sim::{ScenarioConfig, Simulation};

/// One finished measurement: the simulator (its scenario, ground truth and
/// labels), what the collector sealed, and the paper-default analysis of it.
pub struct FigureRun {
    /// The simulator after the run; `sim.config()` is the scenario that ran.
    pub sim: Simulation,
    /// The collector's output and stats.
    pub run: MeasurementRun,
    /// The paper-default analysis over everything the run sealed.
    pub report: AnalysisReport,
}

/// Write a recorder's snapshot as one line of JSON to `$SANDWICH_BENCH_OUT`,
/// or `results/BENCH_<name>.json` when unset.
pub fn write_snapshot<T: serde::Serialize>(name: &str, snapshot: &T) {
    let out = env_or("SANDWICH_BENCH_OUT", format!("results/BENCH_{name}.json"));
    let json = serde_json::to_string(snapshot).expect("snapshot serializes");
    std::fs::write(&out, json + "\n").expect("write snapshot");
    println!("snapshot → {out}");
}

/// The paper's scenario at `SANDWICH_DAYS` (default `default_days`),
/// `SANDWICH_SCALE` and `SANDWICH_SEED`.
pub fn figure_scenario(default_days: u64) -> ScenarioConfig {
    let days = env_or("SANDWICH_DAYS", default_days);
    let scale_denominator = env_or("SANDWICH_SCALE", NonZeroU64::new(4_000).expect("non-zero"));
    let seed = env_or("SANDWICH_SEED", 20_250_209);
    ScenarioConfig {
        days,
        seed,
        volume_scale: 1.0 / scale_denominator.get() as f64,
        ..Default::default()
    }
}

/// Run the full pipeline over `scenario` and analyze what it sealed. The
/// collector's page is set to the scenario's scaled equivalent of the
/// paper's 50 000 (`scaled_page_limit`); everything else comes from
/// `pipeline`.
pub fn run_pipeline(scenario: ScenarioConfig, mut pipeline: PipelineConfig) -> FigureRun {
    let days = scenario.days;
    let page_limit = sandwich_core::scaled_page_limit(&scenario, 1);
    pipeline.collector.page_limit = page_limit;
    eprintln!(
        "[bench] {} days at 1/{:.0} volume (≈{:.0} bundles/day, page limit {page_limit})",
        days,
        1.0 / scenario.volume_scale,
        scenario.bundles_per_day(),
    );
    let started = std::time::Instant::now();
    let mut sim = Simulation::new(scenario);
    let runtime = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .expect("tokio runtime");
    let run = runtime
        .block_on(sandwich_core::run_measurement(&mut sim, pipeline))
        .expect("pipeline");
    eprintln!(
        "[bench] simulated + collected {} bundles in {:.1}s (overlap {:.1}%)",
        run.dataset.len(),
        started.elapsed().as_secs_f64(),
        run.dataset.overlap_rate() * 100.0,
    );
    eprintln!("[bench] metrics {}", run.metrics.to_json_string());
    let report = run.analyze(&AnalysisConfig::paper_defaults(days));
    FigureRun { sim, run, report }
}
