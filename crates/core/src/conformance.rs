//! Ground-truth conformance oracle.
//!
//! The simulator labels every bundle it lands ([`sandwich_sim::LabelBook`],
//! keyed by bundle id); the measured pipeline never sees those labels. This
//! module joins analysis output back to that ground truth and scores the
//! detector *per bundle* — precision, recall, F1, quantification error
//! distributions, the defensive classifier's confusion matrix across the
//! threshold sweep, and the per-criterion ablation grid showing that each
//! of the paper's five criteria is load-bearing (disabling it admits the
//! near-miss family engineered against it).
//!
//! This is the validation a measurement paper cannot do on mainnet: there,
//! ground truth does not exist; here, we generated it.

use std::collections::{BTreeMap, HashSet};

use sandwich_jito::BundleId;
use sandwich_sim::{BundleLabel, LabelBook, NearMissFamily};
use sandwich_types::Lamports;

use crate::analysis::AnalysisReport;
use crate::dataset::metas3;
use crate::defense::is_defensive_at;
use crate::detector::{detect, DetectorConfig, SandwichFinding};
use crate::pipeline::MeasurementRun;
use crate::stats::Cdf;

/// A 2x2 confusion matrix with the derived scores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct ConfusionMatrix {
    /// Flagged and labeled positive.
    pub true_positives: u64,
    /// Flagged but labeled negative.
    pub false_positives: u64,
    /// Labeled positive but not flagged.
    pub false_negatives: u64,
    /// Labeled negative and not flagged.
    pub true_negatives: u64,
}

impl ConfusionMatrix {
    /// TP / (TP + FP); 1.0 when nothing was flagged (vacuously precise).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// TP / (TP + FN); 1.0 when nothing was labeled positive.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Signed quantification errors over matched true positives, lamports
/// (detected value minus the simulator's expected value).
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct QuantErrors {
    /// Victim-loss errors, one per priced true positive.
    pub loss_err_lamports: Vec<i128>,
    /// Attacker-gain errors (detector gain is gross of tip; the bundle tip
    /// is subtracted before comparing with the sim's net expectation).
    pub gain_err_lamports: Vec<i128>,
}

impl QuantErrors {
    /// CDF of absolute victim-loss errors.
    pub fn loss_abs_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.loss_err_lamports
                .iter()
                .map(|e| e.unsigned_abs() as f64)
                .collect(),
        )
    }

    /// CDF of absolute attacker-gain errors.
    pub fn gain_abs_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.gain_err_lamports
                .iter()
                .map(|e| e.unsigned_abs() as f64)
                .collect(),
        )
    }

    /// Largest absolute victim-loss error, lamports.
    pub fn max_abs_loss_err(&self) -> u64 {
        self.loss_err_lamports
            .iter()
            .map(|e| e.unsigned_abs() as u64)
            .max()
            .unwrap_or(0)
    }
}

/// The full conformance scorecard for one analysis run.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct Conformance {
    /// Detector confusion over *detectable* labeled bundles (disguised
    /// sandwiches are excluded from the positives — the paper's length-3
    /// methodology cannot see them; they are broken out below).
    pub detector: ConfusionMatrix,
    /// Labeled sandwiches with `disguised = true` that were not found
    /// (quantifies the lower-bound narrative, not a detector defect).
    pub missed_disguised: u64,
    /// Findings whose bundle id has no label (join failures; must be 0 on
    /// a fully labeled run).
    pub unlabeled_findings: u64,
    /// Labeled near-miss bundles per family.
    pub near_miss_labeled: BTreeMap<String, u64>,
    /// Near-miss bundles the detector (wrongly) flagged, per family.
    pub near_miss_flagged: BTreeMap<String, u64>,
    /// Quantification errors over matched true positives.
    pub quant: QuantErrors,
}

impl Conformance {
    /// True when every near-miss family was rejected outright.
    pub fn near_misses_all_rejected(&self) -> bool {
        self.near_miss_flagged.values().all(|&v| v == 0)
    }

    /// Total labeled near-miss bundles.
    pub fn near_misses_labeled_total(&self) -> u64 {
        self.near_miss_labeled.values().sum()
    }
}

/// Join analysis findings back to ground truth.
pub fn score(report: &AnalysisReport, labels: &LabelBook) -> Conformance {
    score_findings(
        report.findings.iter().map(|f| (&f.bundle_id, &f.finding)),
        labels,
    )
}

/// Score any (bundle id, finding) stream against a label book. The
/// convenience [`score`] maps an [`AnalysisReport`] through this.
pub fn score_findings<'a>(
    findings: impl Iterator<Item = (&'a BundleId, &'a SandwichFinding)>,
    labels: &LabelBook,
) -> Conformance {
    let mut c = Conformance::default();
    let mut flagged: HashSet<BundleId> = HashSet::new();

    for (id, finding) in findings {
        flagged.insert(*id);
        match labels.get(id) {
            Some(BundleLabel::Sandwich(truth)) => {
                c.detector.true_positives += 1;
                if truth.sol_legged {
                    if let Some(loss) = finding.victim_loss_lamports {
                        c.quant
                            .loss_err_lamports
                            .push(loss as i128 - truth.expected_loss_lamports as i128);
                    }
                    if let Some(gain) = finding.attacker_gain_lamports {
                        let net = gain - finding.bundle_tip.0 as i128;
                        c.quant
                            .gain_err_lamports
                            .push(net - truth.expected_gain_lamports);
                    }
                }
            }
            Some(BundleLabel::NearMiss(family)) => {
                c.detector.false_positives += 1;
                *c.near_miss_flagged
                    .entry(family.name().to_string())
                    .or_insert(0) += 1;
            }
            Some(_) => c.detector.false_positives += 1,
            None => {
                c.detector.false_positives += 1;
                c.unlabeled_findings += 1;
            }
        }
    }

    for (id, label) in labels.iter() {
        if let BundleLabel::NearMiss(family) = label {
            *c.near_miss_labeled
                .entry(family.name().to_string())
                .or_insert(0) += 1;
        }
        if flagged.contains(id) {
            continue;
        }
        match label {
            BundleLabel::Sandwich(truth) if truth.disguised => c.missed_disguised += 1,
            BundleLabel::Sandwich(_) => c.detector.false_negatives += 1,
            _ => c.detector.true_negatives += 1,
        }
    }

    c
}

/// Attribution scorecard: the slot-leader assignment the index computed
/// from public chain data, joined back to the simulator's per-bundle
/// provenance, plus the colluder inference scored as a classifier over
/// the whole validator set.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct Attribution {
    /// Detected sandwiches carrying a leader assignment.
    pub attributed: u64,
    /// Assignments matching the ground-truth slot leader.
    pub correct_leaders: u64,
    /// Assignments naming the wrong validator (must be 0: the schedule
    /// is a pure function of public data).
    pub wrong_leaders: u64,
    /// Detected sandwiches with no leader (pre-attribution fallback rows).
    pub unattributed: u64,
    /// Detected sandwiches with no recorded provenance (join failures;
    /// must be 0 on a fully labeled run).
    pub unprovenanced: u64,
    /// Colluder inference over the validator set: predicted = at least
    /// one sandwich attributed, actual = led at least one detectable
    /// labeled sandwich. (A colluder whose slots never hosted one is
    /// invisible to *any* chain-data inference and is out of scope;
    /// [`Attribution::colluder_consistent`] checks the sim's invariant
    /// that every sandwich-hosting leader really is a colluder.)
    pub colluders: ConfusionMatrix,
    /// Whether every leader of a labeled sandwich slot carries the
    /// ground-truth colluder flag — the sim lands sandwiches only in
    /// colluder-led slots, so a `false` here means the scenario (not the
    /// measurement) is broken.
    pub colluder_consistent: bool,
    /// Whether the measured per-leader sandwich counts equal the
    /// ground-truth counts exactly (implies identical leaderboard
    /// ranking under the deterministic comparator).
    pub counts_match: bool,
}

impl Attribution {
    /// Fraction of detected sandwiches whose assigned leader matches
    /// ground truth; unattributed rows count against. 1.0 when there was
    /// nothing to attribute.
    pub fn leader_accuracy(&self) -> f64 {
        let denom = self.attributed + self.unattributed;
        if denom == 0 {
            1.0
        } else {
            self.correct_leaders as f64 / denom as f64
        }
    }

    /// True when every assignment is right, every sandwich joined, the
    /// colluder classifier is exact, and the ranking counts agree.
    pub fn perfect(&self) -> bool {
        self.wrong_leaders == 0
            && self.unattributed == 0
            && self.unprovenanced == 0
            && self.colluders.false_positives == 0
            && self.colluders.false_negatives == 0
            && self.colluder_consistent
            && self.counts_match
    }
}

/// Score an index's leader attribution against ground truth.
///
/// `assigned` streams every *detected* sandwich with the leader the index
/// joined it to (`None` for pre-attribution fallback rows); `leaderboard`
/// is the measured validator leaderboard as `(validator, sandwiches)` —
/// it must cover the **whole** validator set, zero-count rows included,
/// since the colluder classifier needs true negatives.
pub fn score_attribution<'a>(
    assigned: impl Iterator<Item = (&'a BundleId, Option<&'a sandwich_types::Pubkey>)>,
    leaderboard: &[(sandwich_types::Pubkey, u64)],
    labels: &LabelBook,
) -> Attribution {
    let mut a = Attribution::default();

    // Ground-truth per-leader sandwich counts over the detected set.
    let mut truth_counts: BTreeMap<sandwich_types::Pubkey, u64> = BTreeMap::new();
    for (id, leader) in assigned {
        let Some(prov) = labels.provenance(id) else {
            a.unprovenanced += 1;
            continue;
        };
        *truth_counts.entry(prov.leader).or_insert(0) += 1;
        match leader {
            None => a.unattributed += 1,
            Some(leader) => {
                a.attributed += 1;
                if *leader == prov.leader {
                    a.correct_leaders += 1;
                } else {
                    a.wrong_leaders += 1;
                }
            }
        }
    }

    // Ground-truth positives: validators that led at least one
    // *detectable* labeled sandwich (disguised ones are invisible to the
    // paper's length-3 scan and excluded here as everywhere else). Along
    // the way, check the scenario invariant that each such leader really
    // is a flagged colluder.
    let mut sandwich_leaders: std::collections::BTreeSet<sandwich_types::Pubkey> =
        std::collections::BTreeSet::new();
    a.colluder_consistent = true;
    for (id, prov) in labels.provenances() {
        if let Some(BundleLabel::Sandwich(truth)) = labels.get(id) {
            if truth.disguised {
                continue;
            }
            sandwich_leaders.insert(prov.leader);
            if !prov.colluder {
                a.colluder_consistent = false;
            }
        }
    }

    a.counts_match = true;
    for (validator, sandwiches) in leaderboard {
        let truth = sandwich_leaders.contains(validator);
        match (*sandwiches > 0, truth) {
            (true, true) => a.colluders.true_positives += 1,
            (true, false) => a.colluders.false_positives += 1,
            (false, true) => a.colluders.false_negatives += 1,
            (false, false) => a.colluders.true_negatives += 1,
        }
        if truth_counts.get(validator).copied().unwrap_or(0) != *sandwiches {
            a.counts_match = false;
        }
    }
    // A non-zero truth count for a validator the leaderboard omits is a
    // mismatch too (the leaderboard must cover the whole set).
    for (validator, count) in &truth_counts {
        if *count > 0 && !leaderboard.iter().any(|(l, _)| l == validator) {
            a.counts_match = false;
        }
    }

    a
}

/// Defensive-classifier confusion at each sweep threshold over everything
/// `run` collected: predicted = `is_defensive_at(bundle, threshold)`, actual
/// = the simulator's label. Unlabeled bundles are skipped.
pub fn defensive_confusion(
    run: &MeasurementRun,
    labels: &LabelBook,
    thresholds: &[u64],
) -> std::io::Result<Vec<(Lamports, ConfusionMatrix)>> {
    let mut sweep: Vec<_> = thresholds
        .iter()
        .map(|&t| (Lamports(t), ConfusionMatrix::default()))
        .collect();
    run.walk(|b, _| {
        let Some(label) = labels.get(&b.bundle_id) else {
            return;
        };
        for (threshold, m) in &mut sweep {
            match (is_defensive_at(b, *threshold), label.is_defensive()) {
                (true, true) => m.true_positives += 1,
                (true, false) => m.false_positives += 1,
                (false, true) => m.false_negatives += 1,
                (false, false) => m.true_negatives += 1,
            }
        }
    })?;
    Ok(sweep)
}

/// One row of the criterion ablation grid.
#[derive(Clone, Debug, serde::Serialize)]
pub struct AblationRow {
    /// The disabled criterion (1–5).
    pub criterion: u8,
    /// The near-miss family engineered against this criterion.
    pub family: String,
    /// Labeled bundles of that family in the dataset.
    pub labeled_matching: u64,
    /// Matching-family bundles admitted once the criterion is disabled.
    /// Non-zero proves the criterion is load-bearing.
    pub admitted_matching: u64,
    /// All labeled near-miss bundles admitted by the ablated detector.
    pub admitted_total: u64,
    /// Near-miss bundles admitted by the *full* detector (must be 0).
    pub full_detector_admitted: u64,
}

/// Run the `without_criterion(1..=5)` grid over the labeled near-miss
/// bundles `run` collected: for each criterion, how many bundles of its
/// matching family slip through once it is disabled, and that none slip
/// through the full detector.
pub fn ablation_grid(
    run: &MeasurementRun,
    labels: &LabelBook,
) -> std::io::Result<Vec<AblationRow>> {
    // Gather the labeled near-miss length-3 bundles with details once.
    let mut near_misses = Vec::new();
    run.walk(|b, details| {
        if let Some(BundleLabel::NearMiss(family)) = labels.get(&b.bundle_id) {
            if let Some(metas) = metas3(b, details) {
                near_misses.push((*family, metas.map(Clone::clone)));
            }
        }
    })?;

    let full = DetectorConfig::default();
    let mut rows = Vec::with_capacity(5);
    for n in 1..=5u8 {
        let ablated = DetectorConfig::without_criterion(n).expect("criteria 1-5 exist");
        let family = NearMissFamily::for_criterion(n).expect("families cover 1-5");
        let mut row = AblationRow {
            criterion: n,
            family: family.name().to_string(),
            labeled_matching: 0,
            admitted_matching: 0,
            admitted_total: 0,
            full_detector_admitted: 0,
        };
        for (f, metas) in &near_misses {
            if *f == family {
                row.labeled_matching += 1;
            }
            let metas = metas.each_ref();
            if detect(&ablated, metas).is_some() {
                row.admitted_total += 1;
                if *f == family {
                    row.admitted_matching += 1;
                }
            }
            if n == 1 && detect(&full, metas).is_some() {
                row.full_detector_admitted += 1;
            }
        }
        rows.push(row);
    }
    // The full-detector count is criterion-independent; copy it across.
    let full_admitted = rows[0].full_detector_admitted;
    for row in &mut rows {
        row.full_detector_admitted = full_admitted;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_sim::SandwichLabel;
    use sandwich_types::{Hash, Pubkey};

    fn finding(loss: Option<u64>, gain: Option<i128>, tip: u64) -> SandwichFinding {
        SandwichFinding {
            attacker: Pubkey::derive("a"),
            victim: Pubkey::derive("v"),
            currencies: vec![],
            sol_legged: loss.is_some(),
            victim_loss_lamports: loss,
            attacker_gain_lamports: gain,
            bundle_tip: Lamports(tip),
        }
    }

    fn sandwich_label(loss: u64, gain: i128, disguised: bool) -> BundleLabel {
        BundleLabel::Sandwich(SandwichLabel {
            attacker: Pubkey::derive("a"),
            victim: Pubkey::derive("v"),
            expected_loss_lamports: loss,
            expected_gain_lamports: gain,
            sol_legged: true,
            disguised,
        })
    }

    #[test]
    fn score_joins_and_classifies() {
        let mut labels = LabelBook::new();
        let tp = Hash::digest(b"tp");
        let fn_ = Hash::digest(b"fn");
        let nm = Hash::digest(b"nm");
        let benign = Hash::digest(b"benign");
        let disguised = Hash::digest(b"disguised");
        labels.insert(tp, sandwich_label(100, 40, false));
        labels.insert(fn_, sandwich_label(50, 10, false));
        labels.insert(disguised, sandwich_label(7, 1, true));
        labels.insert(nm, BundleLabel::NearMiss(NearMissFamily::TipOnlyFinal));
        labels.insert(benign, BundleLabel::Benign(sandwich_sim::BenignKind::Batch));

        // Flag the true sandwich (loss off by +3, gain gross 45 − tip 5 =
        // net 40 → exact) and the near-miss (a false positive).
        let f_tp = finding(Some(103), Some(45), 5);
        let f_nm = finding(Some(9), None, 0);
        let found = [(&tp, &f_tp), (&nm, &f_nm)];
        let c = score_findings(found.iter().map(|(id, f)| (*id, *f)), &labels);

        assert_eq!(c.detector.true_positives, 1);
        assert_eq!(c.detector.false_positives, 1);
        assert_eq!(c.detector.false_negatives, 1, "undisguised miss counts");
        assert_eq!(c.detector.true_negatives, 1, "benign unflagged");
        assert_eq!(c.missed_disguised, 1, "disguised miss broken out");
        assert_eq!(c.unlabeled_findings, 0);
        assert_eq!(c.quant.loss_err_lamports, vec![3]);
        assert_eq!(c.quant.gain_err_lamports, vec![0]);
        assert_eq!(c.near_miss_labeled["tip_only_final"], 1);
        assert_eq!(c.near_miss_flagged["tip_only_final"], 1);
        assert!(!c.near_misses_all_rejected());
        assert!((c.detector.precision() - 0.5).abs() < 1e-12);
        assert!((c.detector.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unlabeled_finding_is_a_join_failure() {
        let labels = LabelBook::new();
        let id = Hash::digest(b"mystery");
        let f = finding(None, None, 0);
        let found = [(&id, &f)];
        let c = score_findings(found.iter().map(|(id, f)| (*id, *f)), &labels);
        assert_eq!(c.unlabeled_findings, 1);
        assert_eq!(c.detector.false_positives, 1);
    }

    #[test]
    fn matrix_scores_degenerate_cases() {
        let empty = ConfusionMatrix::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.f1(), 1.0);

        let perfect = ConfusionMatrix {
            true_positives: 10,
            true_negatives: 90,
            ..Default::default()
        };
        assert_eq!(perfect.precision(), 1.0);
        assert_eq!(perfect.recall(), 1.0);
        assert_eq!(perfect.f1(), 1.0);

        let useless = ConfusionMatrix {
            false_positives: 5,
            false_negatives: 5,
            ..Default::default()
        };
        assert_eq!(useless.precision(), 0.0);
        assert_eq!(useless.recall(), 0.0);
        assert_eq!(useless.f1(), 0.0);
    }

    #[test]
    fn attribution_scores_leaders_and_colluders() {
        let mut labels = LabelBook::new();
        let v1 = Pubkey::derive("v1"); // colluder, two sandwiches
        let v2 = Pubkey::derive("v2"); // colluder, one sandwich
        let v3 = Pubkey::derive("v3"); // honest, benign traffic only
        let s1 = Hash::digest(b"s1");
        let s2 = Hash::digest(b"s2");
        let s3 = Hash::digest(b"s3");
        let benign = Hash::digest(b"benign");
        for (id, leader, colluder) in [
            (s1, v1, true),
            (s2, v1, true),
            (s3, v2, true),
            (benign, v3, false),
        ] {
            labels.insert_provenance(id, sandwich_sim::BundleProvenance { leader, colluder });
        }
        for id in [s1, s2, s3] {
            labels.insert(id, sandwich_label(10, 5, false));
        }
        labels.insert(benign, BundleLabel::Benign(sandwich_sim::BenignKind::Batch));

        let assigned = [(&s1, Some(&v1)), (&s2, Some(&v1)), (&s3, Some(&v2))];
        let leaderboard = [(v1, 2u64), (v2, 1), (v3, 0)];
        let a = score_attribution(assigned.into_iter(), &leaderboard, &labels);
        assert_eq!(a.attributed, 3);
        assert_eq!(a.correct_leaders, 3);
        assert_eq!(a.leader_accuracy(), 1.0);
        assert_eq!(a.colluders.true_positives, 2);
        assert_eq!(a.colluders.true_negatives, 1);
        assert_eq!(a.colluders.precision(), 1.0);
        assert_eq!(a.colluders.recall(), 1.0);
        assert!(a.counts_match);
        assert!(a.perfect());

        // A wrong assignment, a dropped one, and the resulting skewed
        // counts each break perfection.
        let wrong = [(&s1, Some(&v2)), (&s2, Some(&v1)), (&s3, None)];
        let board = [(v1, 1u64), (v2, 2), (v3, 0)];
        let a = score_attribution(wrong.into_iter(), &board, &labels);
        assert_eq!(a.wrong_leaders, 1);
        assert_eq!(a.unattributed, 1);
        assert!(a.leader_accuracy() < 1.0);
        assert!(!a.counts_match);
        assert!(!a.perfect());

        // A leaderboard that omits a sandwich-bearing validator cannot
        // claim matching counts, and an unknown bundle is a join failure.
        let mystery = Hash::digest(b"mystery");
        let assigned = [(&s1, Some(&v1)), (&mystery, Some(&v1))];
        let board = [(v2, 0u64), (v3, 0)];
        let a = score_attribution(assigned.into_iter(), &board, &labels);
        assert_eq!(a.unprovenanced, 1);
        assert!(!a.counts_match);
        assert_eq!(a.colluders.false_negatives, 1, "v2 is a missed colluder");
    }

    #[test]
    fn quant_error_cdfs() {
        let q = QuantErrors {
            loss_err_lamports: vec![-3, 0, 4],
            gain_err_lamports: vec![0],
        };
        assert_eq!(q.max_abs_loss_err(), 4);
        let cdf = q.loss_abs_cdf();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf.quantile(1.0), Some(4.0));
        assert_eq!(q.gain_abs_cdf().quantile(0.5), Some(0.0));
    }
}
