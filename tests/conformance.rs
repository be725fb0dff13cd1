//! Ground-truth conformance: the oracle joins analysis output back to the
//! simulator's per-bundle labels and the near-miss fuzzer probes every
//! criterion boundary. Together they pin the detector's precision, recall,
//! and the load-bearing-ness of each of the paper's five criteria.

use sandwich_core::{
    conformance, detect, detect_in_bundle, AnalysisConfig, CollectorConfig, DetectorConfig,
    PipelineConfig,
};
use sandwich_sim::{NearMissFamily, NearMissFuzzer, ScenarioConfig, Simulation};
use sandwich_types::DEFENSIVE_TIP_THRESHOLD;

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
async fn oracle_scores_the_detector_perfectly_on_labeled_ground_truth() {
    let scenario = ScenarioConfig {
        downtime_days: vec![], // full coverage so recall is exact
        ..ScenarioConfig::tiny()
    };
    let days = scenario.days;
    let pipeline = tiny_pipeline(&scenario);
    let mut sim = Simulation::new(scenario.clone());
    let run = sandwich_core::run_measurement(&mut sim, pipeline)
        .await
        .unwrap();
    let report = run.analyze(&AnalysisConfig::paper_defaults(days));
    let labels = sim.labels();
    assert!(!labels.is_empty(), "the sim labels every landed bundle");

    let c = conformance::score(&report, labels);

    // The scorecard is a pure function of the scenario: a second lab on
    // the same seed serializes byte-identically.
    let mut sim2 = Simulation::new(scenario.clone());
    let run2 = sandwich_core::run_measurement(&mut sim2, tiny_pipeline(&scenario))
        .await
        .unwrap();
    let report2 = run2.analyze(&AnalysisConfig::paper_defaults(days));
    assert_eq!(
        serde_json::to_string(&c).unwrap(),
        serde_json::to_string(&conformance::score(&report2, sim2.labels())).unwrap(),
        "scorecard must be deterministic for a fixed seed"
    );

    // The headline acceptance: perfect precision and recall per bundle,
    // every finding joined to a label, every near-miss rejected outright.
    assert_eq!(c.detector.false_positives, 0, "{c:?}");
    assert_eq!(c.detector.false_negatives, 0, "{c:?}");
    assert!(c.detector.true_positives > 0, "no sandwiches landed at all");
    assert_eq!(c.detector.precision(), 1.0);
    assert_eq!(c.detector.recall(), 1.0);
    assert_eq!(c.unlabeled_findings, 0, "finding failed to join to a label");
    assert!(c.near_misses_all_rejected(), "{:?}", c.near_miss_flagged);
    assert!(c.near_misses_labeled_total() > 0, "no decoys generated");

    // Victim-loss quantification is exact at the sim's single-pool scale,
    // and gains match once the bundle tip is netted out of the gross gain.
    assert_eq!(c.quant.max_abs_loss_err(), 0, "{:?}", c.quant);
    assert!(c.quant.gain_err_lamports.iter().all(|&e| e == 0));

    // The ablation grid: the full detector admits no near-miss, and every
    // criterion with labeled decoys in this run is load-bearing (disabling
    // it admits its matching family).
    let grid = conformance::ablation_grid(&run, labels).unwrap();
    assert_eq!(grid.len(), 5);
    let mut load_bearing = 0;
    for row in &grid {
        assert_eq!(row.full_detector_admitted, 0, "{row:?}");
        if row.labeled_matching > 0 {
            assert!(row.admitted_matching > 0, "criterion inert: {row:?}");
            load_bearing += 1;
        }
    }
    assert!(
        load_bearing >= 3,
        "too few families at tiny scale: {grid:?}"
    );

    // Defensive classifier: perfect at the paper's 100k threshold.
    let sweep =
        conformance::defensive_confusion(&run, labels, &[DEFENSIVE_TIP_THRESHOLD.0]).unwrap();
    let (_, m) = &sweep[0];
    assert!(m.true_positives > 0);
    assert_eq!(m.false_positives, 0, "{m:?}");
    assert_eq!(m.false_negatives, 0, "{m:?}");
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn oracle_scores_attribution_perfectly_on_labeled_ground_truth() {
    let scenario = ScenarioConfig {
        downtime_days: vec![], // full coverage so every sandwich is joined
        ..ScenarioConfig::tiny()
    };
    let pipeline = PipelineConfig {
        store: Some(sandwich_core::StoreOptions {
            segment_bundles: 500,
            ..sandwich_core::StoreOptions::new(
                std::env::temp_dir().join(format!("swattrib-conf-{}", std::process::id())),
            )
        }),
        ..tiny_pipeline(&scenario)
    };
    let _ = std::fs::remove_dir_all(&pipeline.store.as_ref().unwrap().dir);
    let mut sim = Simulation::new(scenario);
    let run = sandwich_core::run_measurement(&mut sim, pipeline)
        .await
        .unwrap();
    let store = run.store.as_ref().expect("store mode");
    let labels = sim.labels();

    // The index joins each sealed sandwich to its slot leader from the
    // manifest's validator spec — public chain data only, no labels.
    let index =
        sandwich_query::build_index(store, &sandwich_query::QueryConfig::default()).unwrap();
    let validators = index
        .validators
        .as_ref()
        .expect("the pipeline stamps the validator spec into the manifest");
    let leaderboard: Vec<_> = validators
        .iter()
        .map(|v| (v.pubkey, v.sandwiches))
        .collect();

    let a = conformance::score_attribution(
        index.refs.iter().map(|r| (&r.bundle_id, r.leader.as_ref())),
        &leaderboard,
        labels,
    );

    // The headline acceptance: every detected sandwich attributed to the
    // right leader, the colluder set recovered exactly, counts agreeing.
    assert!(a.attributed > 0, "no sandwiches attributed at all");
    assert_eq!(a.wrong_leaders, 0, "{a:?}");
    assert_eq!(a.unattributed, 0, "{a:?}");
    assert_eq!(a.unprovenanced, 0, "{a:?}");
    assert_eq!(a.leader_accuracy(), 1.0);
    assert_eq!(a.colluders.precision(), 1.0, "{a:?}");
    assert_eq!(a.colluders.recall(), 1.0, "{a:?}");
    assert!(
        a.colluders.true_positives > 0,
        "no colluders inferred: {a:?}"
    );
    assert!(
        a.colluders.true_negatives > 0,
        "honest validators must stay unaccused: {a:?}"
    );
    assert!(a.counts_match, "{a:?}");
    assert!(a.perfect(), "{a:?}");

    // Sandwiches land *only* in colluder-led slots: every leaderboard
    // entry with sandwiches is a ground-truth colluder by construction.
    let colluders = a.colluders.true_positives as usize;
    assert!(
        validators.iter().filter(|v| v.sandwiches > 0).count() == colluders,
        "sandwiches outside colluder-led slots"
    );

    std::fs::remove_dir_all(store.dir()).unwrap();
}

#[test]
fn fuzzer_probes_every_criterion_boundary() {
    let full = DetectorConfig::default();
    let mut fuzzer = NearMissFuzzer::new(0xC0FFEE);
    for family in NearMissFamily::all() {
        for _ in 0..4 {
            let case = fuzzer.case(family);
            let metas: Vec<_> = case.original.iter().collect();
            let original: [&_; 3] = [metas[0], metas[1], metas[2]];
            assert!(
                detect(&full, original).is_some(),
                "{}: original sandwich not detected",
                family.name()
            );
            for bundle in &case.mutated {
                let refs: Vec<_> = bundle.iter().collect();
                match family.criterion() {
                    Some(n) => {
                        // Criterion families: one length-3 bundle that only
                        // the targeted criterion rejects.
                        let m: [&_; 3] = [refs[0], refs[1], refs[2]];
                        assert!(
                            detect(&full, m).is_none(),
                            "{}: mutant slipped past the full detector",
                            family.name()
                        );
                        let ablated = DetectorConfig::without_criterion(n).unwrap();
                        assert!(
                            detect(&ablated, m).is_some(),
                            "{}: criterion {n} not load-bearing for its mutant",
                            family.name()
                        );
                    }
                    None => match family {
                        // Metamorphic: reordering breaks the sandwich...
                        NearMissFamily::PermutedOrder => {
                            let m: [&_; 3] = [refs[0], refs[1], refs[2]];
                            assert!(detect(&full, m).is_none(), "permutation detected");
                        }
                        // ...splitting destroys the length-3 window...
                        NearMissFamily::SplitAcrossBundles => {
                            assert!(bundle.len() < 3, "split bundle still length-3");
                        }
                        // ...but zero-delta padding must NOT hide it: the
                        // windowed scan still finds exactly the one attack.
                        NearMissFamily::ZeroDeltaPadding => {
                            assert_eq!(detect_in_bundle(&full, &refs).len(), 1);
                        }
                        _ => unreachable!("criterion families handled above"),
                    },
                }
            }
        }
    }
}

#[test]
fn fuzzer_is_deterministic_per_seed() {
    let ids = |seed: u64| -> Vec<_> {
        NearMissFuzzer::new(seed)
            .cases(2)
            .iter()
            .flat_map(|c| c.original.iter().map(|m| m.tx_id))
            .collect()
    };
    assert_eq!(ids(7), ids(7), "same seed must replay identically");
    assert_ne!(ids(7), ids(8), "seed must actually enter the stream");
}
