//! The detector scorecard: run the full measurement pipeline over a labeled
//! scenario, join the findings back to the simulator's per-bundle labels,
//! and score the detector exactly — confusion matrix, quantification error,
//! the per-criterion ablation grid, the defensive classifier, and the
//! adversarial near-miss fuzzer sweep. Asserts the headline contract
//! (precision = recall = 1.0, every criterion load-bearing, every fuzzer
//! family rejected, a second same-seed lab byte-identical — each also held
//! by `tests/conformance.rs` at tiny scale) and writes the scorecard to
//! `$SANDWICH_BENCH_OUT` (default `results/BENCH_conformance.json`).
//!
//! Knobs: `SANDWICH_DAYS` (default 8), `SANDWICH_SCALE` and `SANDWICH_SEED`
//! as for `paper`, `SANDWICH_FUZZ_CASES` (cases per fuzzer family, default
//! 50).

use sandwich_bench::{env_or, run_pipeline, write_snapshot, FigureRun};
use sandwich_core::{
    ablation_grid, defensive_confusion, detect, detect_in_bundle, score, AblationRow,
    AnalysisConfig, Conformance, ConfusionMatrix, DetectorConfig,
};
use sandwich_sim::{NearMissFamily, NearMissFuzzer};
use sandwich_types::DEFENSIVE_TIP_THRESHOLD;

/// Everything one labeled run scores; serialized whole as the scorecard.
#[derive(serde::Serialize)]
struct Lab {
    days: u64,
    seed: u64,
    bundles_collected: usize,
    bundles_labeled: usize,
    findings: usize,
    precision: f64,
    recall: f64,
    conformance: Conformance,
    /// The detector with criterion 1..=5 disabled, scored against the same labels.
    per_criterion_ablated: Vec<ConfusionMatrix>,
    ablation_grid: Vec<AblationRow>,
    defensive_at_paper_threshold: ConfusionMatrix,
}

#[derive(serde::Serialize)]
struct Fuzzer {
    cases: usize,
    mutants: usize,
    families: usize,
}

#[derive(serde::Serialize)]
struct Snapshot {
    lab: Lab,
    fuzzer: Fuzzer,
}

fn run_lab(scenario: &sandwich_sim::ScenarioConfig) -> Lab {
    let FigureRun { sim, run, report } =
        run_pipeline(scenario.clone(), sandwich_core::PipelineConfig::default());
    let paper = AnalysisConfig::paper_defaults(scenario.days);
    let labels = sim.labels();
    let conformance = score(&report, labels);

    // Re-analyze with each criterion disabled and score the ablated
    // detector against the same labels.
    let per_criterion_ablated = (1..=5u8)
        .map(|n| {
            let config = AnalysisConfig {
                detector: DetectorConfig::without_criterion(n).expect("1-5"),
                ..paper.clone()
            };
            score(&run.analyze(&config), labels).detector
        })
        .collect();
    let defensive = defensive_confusion(&run, labels, &[DEFENSIVE_TIP_THRESHOLD.0])
        .expect("walk the run's store");

    Lab {
        days: scenario.days,
        seed: scenario.seed,
        bundles_collected: run.dataset.len(),
        bundles_labeled: labels.len(),
        findings: report.findings.len(),
        precision: conformance.detector.precision(),
        recall: conformance.detector.recall(),
        conformance,
        per_criterion_ablated,
        ablation_grid: ablation_grid(&run, labels).expect("walk the run's store"),
        defensive_at_paper_threshold: defensive[0].1,
    }
}

/// Every fuzzer mutant is rejected by the full detector (or, for the
/// metamorphic families, behaves as its family specifies), every original
/// is caught, and each criterion family slips through once its criterion is
/// disabled.
fn run_fuzzer(seed: u64) -> Fuzzer {
    let full = DetectorConfig::default();
    let cases = NearMissFuzzer::new(seed).cases(env_or("SANDWICH_FUZZ_CASES", 50));
    let mut mutants = 0usize;
    for case in &cases {
        let o = &case.original;
        assert!(
            detect(&full, [&o[0], &o[1], &o[2]]).is_some(),
            "original sandwich must be caught ({})",
            case.family
        );
        for bundle in &case.mutated {
            mutants += 1;
            match case.family {
                NearMissFamily::SplitAcrossBundles => {
                    assert!(bundle.len() < 3, "split bundles carry no triple")
                }
                NearMissFamily::ZeroDeltaPadding => {
                    let metas: Vec<_> = bundle.iter().collect();
                    assert_eq!(
                        detect_in_bundle(&full, &metas).len(),
                        1,
                        "extended scan still finds the padded triple"
                    );
                }
                _ => {
                    assert!(
                        detect(&full, [&bundle[0], &bundle[1], &bundle[2]]).is_none(),
                        "mutant must be rejected ({})",
                        case.family
                    );
                }
            }
            if let Some(n) = case.family.criterion() {
                let ablated = DetectorConfig::without_criterion(n).unwrap();
                assert!(
                    detect(&ablated, [&bundle[0], &bundle[1], &bundle[2]]).is_some(),
                    "without c{n} the {} mutant must slip through",
                    case.family
                );
            }
        }
    }
    Fuzzer {
        cases: cases.len(),
        mutants,
        families: NearMissFamily::all().len(),
    }
}

fn main() {
    let scenario = sandwich_sim::ScenarioConfig {
        downtime_days: vec![],
        ..sandwich_bench::figure_scenario(8)
    };
    println!(
        "conformance_bench: {} days, seed {}",
        scenario.days, scenario.seed
    );
    let lab = run_lab(&scenario);
    let c = &lab.conformance;

    // --- headline contract -------------------------------------------------
    let m = &c.detector;
    println!(
        "detector: TP={} FP={} FN={} TN={}  precision={:.4} recall={:.4} f1={:.4}",
        m.true_positives,
        m.false_positives,
        m.false_negatives,
        m.true_negatives,
        m.precision(),
        m.recall(),
        m.f1()
    );
    assert!(m.true_positives > 0, "scenario produced sandwiches");
    assert_eq!(m.precision(), 1.0, "no false positives on labeled traffic");
    assert_eq!(m.recall(), 1.0, "every detectable sandwich found");
    assert_eq!(c.unlabeled_findings, 0, "every finding joins to a label");
    assert!(
        c.near_misses_all_rejected(),
        "near-miss flagged: {:?}",
        c.near_miss_flagged
    );
    assert!(c.near_misses_labeled_total() > 0, "decoys present");

    // --- quantification error ---------------------------------------------
    let gain_exact = c
        .quant
        .gain_err_lamports
        .iter()
        .filter(|&&e| e == 0)
        .count();
    println!(
        "loss error: max |detected - expected| = {} lamports over {} priced TPs; gain error: {gain_exact}/{} exact after tip netting",
        c.quant.max_abs_loss_err(),
        c.quant.loss_err_lamports.len(),
        c.quant.gain_err_lamports.len()
    );

    // --- ablation grid -----------------------------------------------------
    println!("per-criterion ablated detectors (scored against the same labels):");
    for (n, m) in (1..).zip(&lab.per_criterion_ablated) {
        println!(
            "  without c{n}: precision={:.4} recall={:.4} f1={:.4}",
            m.precision(),
            m.recall(),
            m.f1()
        );
    }
    println!("ablation grid (criterion disabled -> matching family admitted):");
    for row in &lab.ablation_grid {
        println!(
            "  c{}: {:<24} labeled={:<4} admitted={:<4} admitted_any={:<4} full_detector={}",
            row.criterion,
            row.family,
            row.labeled_matching,
            row.admitted_matching,
            row.admitted_total,
            row.full_detector_admitted
        );
        assert!(
            row.labeled_matching > 0,
            "scenario landed no c{} decoys",
            row.criterion
        );
        assert!(
            row.admitted_matching > 0,
            "criterion {} not load-bearing: its near-miss family survives ablation",
            row.criterion
        );
        assert_eq!(row.full_detector_admitted, 0);
    }

    // --- defensive classifier ----------------------------------------------
    let dm = &lab.defensive_at_paper_threshold;
    println!(
        "defensive @ {} lamports: TP={} FP={} FN={} TN={} precision={:.4} recall={:.4}",
        DEFENSIVE_TIP_THRESHOLD.0,
        dm.true_positives,
        dm.false_positives,
        dm.false_negatives,
        dm.true_negatives,
        dm.precision(),
        dm.recall()
    );

    // --- adversarial fuzzer sweep -------------------------------------------
    let fuzzer = run_fuzzer(scenario.seed);
    println!(
        "fuzzer: {} cases / {} mutants across {} families — all rejected, originals caught",
        fuzzer.cases, fuzzer.mutants, fuzzer.families
    );

    // --- determinism --------------------------------------------------------
    assert_eq!(
        serde_json::to_string(&lab).unwrap(),
        serde_json::to_string(&run_lab(&scenario)).unwrap(),
        "scorecard must be deterministic for a fixed seed"
    );
    println!("determinism: second identical run produced a byte-identical scorecard");

    write_snapshot("conformance", &Snapshot { lab, fuzzer });
}
