//! The paper's contribution: measurement of sandwich MEV on Jito.
//!
//! * [`collector`] — poll the (simulated) Jito Explorer every two minutes,
//!   ingest overlapping pages of recent bundles, batch-fetch length-3
//!   transaction details (paper §3.1);
//! * [`detector`] — the five-criteria sandwich detector over balance
//!   deltas, with financial quantification (§3.2, §4.1);
//! * [`defense`] — the defensive-bundling classifier (§3.3, §4.2);
//! * [`conformance`] — the ground-truth oracle: per-bundle precision and
//!   recall against the simulator's labels, quantification-error
//!   distributions, and the criterion ablation grid;
//! * [`analysis`] / [`report`] — per-day series, CDFs, and text renderers
//!   for Table 1 and Figures 1–4;
//! * [`counterfactual`] — the §5 what-ifs: defense economics quantified;
//! * [`scan`] — the one walk over a sealed segment and its sinks (report
//!   partials here, the query index's parts in `sandwich-query`) and the one
//!   parallel driver over segments;
//! * [`pipeline`] — the whole measurement end to end over real HTTP, sealed
//!   into a `sandwich-store` segment store as it runs and analyzed from it;
//! * [`dataset`] — the collector's staging area ahead of the store, and the
//!   JSONL archive reader behind the in-memory reference analysis.

#![warn(missing_docs)]

pub mod analysis;
pub mod checkpoint;
pub mod collector;
pub mod conformance;
pub mod counterfactual;
pub mod dataset;
pub mod defense;
pub mod detector;
pub mod pipeline;
pub mod report;
pub mod scan;
pub mod stats;

pub use analysis::{analyze, AnalysisConfig, AnalysisReport, DatedFinding};
pub use checkpoint::{Checkpoint, StoreCheckpoint};
pub use collector::{Collector, CollectorConfig, CollectorStats};
pub use conformance::{
    ablation_grid, defensive_confusion, score, score_findings, AblationRow, Conformance,
    ConfusionMatrix, QuantErrors,
};
pub use counterfactual::{
    defense_economics, defensive_counterfactual, slippage_counterfactual, DefenseEconomics,
    DefensiveCounterfactual, SlippageCounterfactual,
};
pub use dataset::{CollectedBundle, CollectedDetail, Dataset, DetailMap, PollRecord};
pub use defense::{is_defensive, is_defensive_at, threshold_sweep, DefenseStats};
pub use detector::{
    detect, detect_in_bundle, extract_trade, Currency, DetectorConfig, InvalidCriterion,
    SandwichFinding, Trade,
};
pub use pipeline::{
    run_measurement, run_measurement_with, scaled_page_limit, MeasurementRun, PipelineConfig,
    RunOptions, StoreOptions,
};
pub use scan::{
    scan_store, scan_store_degraded, scan_store_materializing, scan_store_observed, DayRollup,
    ScanCoverage, ScanPartial,
};
pub use stats::{Cdf, DailySeries};
