//! Shared harness for the figure/table regeneration binaries, the
//! `scale_gen` corpus generator and the three `*_bench` snapshot writers.
//!
//! Every binary runs the same full measurement pipeline (simulated chain →
//! explorer HTTP API → collector → analysis) at a configurable scale, then
//! prints its figure. Scale and length are overridable via environment
//! variables so the default stays laptop-friendly:
//!
//! * `SANDWICH_DAYS`  — days to simulate (default 120, the paper's period)
//! * `SANDWICH_SCALE` — denominator of the volume scale (default 4000,
//!   i.e. 1/4000 of mainnet's 14.8M bundles/day)
//! * `SANDWICH_SEED`  — RNG seed (default the paper's start date)

pub mod scale;

use sandwich_core::{
    AnalysisConfig, AnalysisReport, CollectorConfig, MeasurementRun, PipelineConfig, StoreOptions,
};
use sandwich_sim::{DayTruth, ScenarioConfig, Simulation};
use sandwich_types::SlotClock;

/// Everything a figure binary needs.
pub struct FigureRun {
    /// The scenario that ran.
    pub scenario: ScenarioConfig,
    /// The collector's output and stats.
    pub run: MeasurementRun,
    /// The analysis over everything the run sealed.
    pub report: AnalysisReport,
    /// Per-day simulator ground truth.
    pub truth_per_day: Vec<DayTruth>,
    /// Total ground-truth sandwiches landed.
    pub truth_sandwiches: u64,
    /// The shared slot clock.
    pub clock: SlotClock,
}

/// An environment knob: `name` parsed as `T`, or `default` when unset or
/// unparsable.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Write a recorder's snapshot as one line of JSON to `$SANDWICH_BENCH_OUT`,
/// or `results/BENCH_<name>.json` when unset.
pub fn write_snapshot<T: serde::Serialize>(name: &str, snapshot: &T) {
    let out = env_or("SANDWICH_BENCH_OUT", format!("results/BENCH_{name}.json"));
    let json = serde_json::to_string(snapshot).expect("snapshot serializes");
    std::fs::write(&out, json + "\n").expect("write snapshot");
    println!("snapshot → {out}");
}

/// The scenario used by all figure binaries.
pub fn figure_scenario() -> ScenarioConfig {
    let days = env_or("SANDWICH_DAYS", 120);
    let scale_denominator: u64 = env_or("SANDWICH_SCALE", 4_000).max(1);
    let seed = env_or("SANDWICH_SEED", 20_250_209);
    ScenarioConfig {
        days,
        seed,
        volume_scale: 1.0 / scale_denominator as f64,
        ..Default::default()
    }
}

/// Run the full pipeline for the figure scenario.
pub fn run_figure_pipeline() -> FigureRun {
    run_pipeline_with(figure_scenario(), None)
}

/// Run the full pipeline for an explicit scenario, sealing into `store` so
/// the segments outlive the run (`None`: a scratch directory removed with
/// the [`FigureRun`]).
pub fn run_pipeline_with(scenario: ScenarioConfig, store: Option<StoreOptions>) -> FigureRun {
    let days = scenario.days;
    let page_limit = sandwich_core::scaled_page_limit(&scenario, 1);
    eprintln!(
        "[bench] {} days at 1/{:.0} volume (≈{:.0} bundles/day, page limit {page_limit})",
        days,
        1.0 / scenario.volume_scale,
        scenario.bundles_per_day(),
    );
    let started = std::time::Instant::now();
    let mut sim = Simulation::new(scenario.clone());
    let pipeline = PipelineConfig {
        collector: CollectorConfig {
            page_limit,
            ..Default::default()
        },
        store,
        ..Default::default()
    };
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
    let clock = run.clock;
    let truth = sim.truth();
    FigureRun {
        scenario,
        report,
        truth_per_day: truth.per_day.clone(),
        truth_sandwiches: truth.total_sandwiches(),
        run,
        clock,
    }
}
