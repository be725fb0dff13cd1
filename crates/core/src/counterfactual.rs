//! Counterfactual defense analysis — the paper's concluding discussion
//! (§5) made computable.
//!
//! The paper observes an apparent paradox: only 0.038% of bundles are
//! sandwiches, yet users spent $2.4M on defensive bundling. This module
//! quantifies both sides of that trade:
//!
//! * what detected victims *would have saved* had they defensively bundled
//!   (their loss, minus the tip a defensive bundle costs), and
//! * what tighter slippage tolerances would have capped their losses at —
//!   the mitigation prior work analyzed on Ethereum (§2.2),
//! * the expected-value framing: per-transaction defense cost versus the
//!   attack probability times the loss distribution.

use serde::{Deserialize, Serialize};

use sandwich_dex::SolUsdOracle;
use sandwich_types::Lamports;

use crate::analysis::AnalysisReport;
use crate::stats::Cdf;

/// Counterfactual: every detected victim had used defensive bundling.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DefensiveCounterfactual {
    /// Victims considered (SOL-legged detections only).
    pub victims: u64,
    /// Their aggregate realized loss, USD.
    pub realized_loss_usd: f64,
    /// What the defensive tips would have cost them, USD.
    pub defense_cost_usd: f64,
    /// Net saving had they all defensively bundled, USD.
    pub net_saving_usd: f64,
}

/// Counterfactual: every detected victim had set slippage at `cap_bps`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SlippageCounterfactual {
    /// The tolerance analyzed, basis points.
    pub cap_bps: u32,
    /// Victims considered.
    pub victims: u64,
    /// Aggregate realized loss, USD.
    pub realized_loss_usd: f64,
    /// Aggregate loss under the cap, USD (losses are bounded by the
    /// tolerance, per prior work on Ethereum).
    pub capped_loss_usd: f64,
    /// Loss avoided, USD.
    pub avoided_usd: f64,
}

/// The expected-value framing of §5.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DefenseEconomics {
    /// Probability any given bundle-visible transaction is sandwiched.
    pub attack_probability: f64,
    /// Mean loss conditional on being attacked, USD.
    pub mean_loss_usd: f64,
    /// 95th-percentile loss conditional on being attacked, USD.
    pub p95_loss_usd: f64,
    /// Expected loss per transaction without defense, USD.
    pub expected_loss_usd: f64,
    /// Cost of defense per transaction (mean defensive tip), USD.
    pub defense_cost_usd: f64,
    /// Expected-value ratio: defense cost / expected loss. Below 1 defense
    /// is EV-positive; the paper argues users buy it even when it is not,
    /// because the tail is fat.
    pub cost_to_ev_ratio: f64,
}

/// Defensive-bundling counterfactual over an analysis report.
///
/// `tip_lamports` is the defensive tip a victim would have paid (the
/// paper's observed mean is ≈ 11.6k lamports ≈ $0.0028).
pub fn defensive_counterfactual(
    report: &AnalysisReport,
    tip_lamports: Lamports,
    oracle: &SolUsdOracle,
) -> DefensiveCounterfactual {
    let mut victims = 0u64;
    let mut realized = 0.0f64;
    for f in &report.findings {
        if let Some(loss) = f.finding.victim_loss_lamports {
            victims += 1;
            realized += oracle.lamports_to_usd(Lamports(loss));
        }
    }
    let defense_cost = victims as f64 * oracle.lamports_to_usd(tip_lamports);
    DefensiveCounterfactual {
        victims,
        realized_loss_usd: realized,
        defense_cost_usd: defense_cost,
        net_saving_usd: realized - defense_cost,
    }
}

/// Slippage-cap counterfactual: each victim's loss is bounded by what the
/// attacker could extract under a `cap_bps` tolerance — approximately the
/// victim's volume times the tolerance (prior work's cap result, §2.2).
///
/// Victim volume is recovered from the finding: loss ≈ volume × realized
/// slippage, and the realized slippage is bounded by the victim's own
/// tolerance, so `capped = min(loss, volume × cap)`. Since the detector
/// does not retain volumes, we conservatively use the loss CDF: any loss
/// above the cap-quantile of observed losses is truncated proportionally.
pub fn slippage_counterfactual(
    report: &AnalysisReport,
    cap_bps: u32,
    assumed_tolerance_bps: u32,
    oracle: &SolUsdOracle,
) -> SlippageCounterfactual {
    let scale = cap_bps as f64 / assumed_tolerance_bps.max(1) as f64;
    let mut victims = 0u64;
    let mut realized = 0.0f64;
    let mut capped = 0.0f64;
    for f in &report.findings {
        if let Some(loss) = f.finding.victim_loss_lamports {
            victims += 1;
            let usd = oracle.lamports_to_usd(Lamports(loss));
            realized += usd;
            // A tighter tolerance caps extraction roughly proportionally.
            capped += usd * scale.min(1.0);
        }
    }
    SlippageCounterfactual {
        cap_bps,
        victims,
        realized_loss_usd: realized,
        capped_loss_usd: capped,
        avoided_usd: realized - capped,
    }
}

/// The §5 expected-value comparison.
pub fn defense_economics(report: &AnalysisReport) -> DefenseEconomics {
    let attack_probability = report.sandwich_fraction();
    let losses: &Cdf = &report.loss_cdf_usd;
    let mean_loss = losses.mean().unwrap_or(0.0);
    let p95_loss = losses.quantile(0.95).unwrap_or(0.0);
    let expected_loss = attack_probability * mean_loss;
    let defense_cost = report.mean_defensive_tip_usd();
    DefenseEconomics {
        attack_probability,
        mean_loss_usd: mean_loss,
        p95_loss_usd: p95_loss,
        expected_loss_usd: expected_loss,
        defense_cost_usd: defense_cost,
        cost_to_ev_ratio: if expected_loss > 0.0 {
            defense_cost / expected_loss
        } else {
            f64::INFINITY
        },
    }
    // The paper's point survives arithmetic: defense is usually EV-negative
    // per transaction, yet rational under fat-tailed loss aversion.
    // (Returned struct lets callers make the argument quantitatively.)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{AnalysisReport, DatedFinding};
    use crate::defense::DefenseStats;
    use crate::detector::{Currency, SandwichFinding};
    use crate::stats::{Cdf, DailySeries};
    use sandwich_types::{Hash, Keypair};

    fn report_with_losses(losses_lamports: &[u64]) -> AnalysisReport {
        let oracle = SolUsdOracle::default();
        let findings: Vec<DatedFinding> = losses_lamports
            .iter()
            .enumerate()
            .map(|(i, &loss)| DatedFinding {
                day: 0,
                bundle_id: Hash::digest(&(i as u64).to_le_bytes()),
                finding: SandwichFinding {
                    attacker: Keypair::from_label("a").pubkey(),
                    victim: Keypair::from_label("v").pubkey(),
                    currencies: vec![Currency::Sol],
                    sol_legged: true,
                    victim_loss_lamports: Some(loss),
                    attacker_gain_lamports: Some(loss as i128 / 2),
                    bundle_tip: Lamports(2_000_000),
                },
            })
            .collect();
        let loss_cdf_usd = Cdf::from_samples(
            losses_lamports
                .iter()
                .map(|&l| oracle.lamports_to_usd(Lamports(l)))
                .collect(),
        );
        let defense = DefenseStats {
            length_one: 100,
            defensive: 86,
            defensive_tips_lamports: 86 * 10_000,
        };
        AnalysisReport {
            days: 1,
            bundles_by_len_per_day: std::array::from_fn(|i| {
                let mut s = DailySeries::zeros(1);
                s.add(0, if i == 0 { 100.0 } else { 10.0 });
                s
            }),
            sandwiches_per_day: DailySeries::zeros(1),
            defensive_per_day: DailySeries::zeros(1),
            victim_loss_sol_per_day: DailySeries::zeros(1),
            attacker_gain_sol_per_day: DailySeries::zeros(1),
            loss_cdf_usd,
            tip_cdf_len1: Cdf::from_samples(vec![]),
            tip_cdf_len3: Cdf::from_samples(vec![]),
            tip_cdf_sandwich: Cdf::from_samples(vec![]),
            defense,
            findings,
            non_sol_sandwiches: 0,
            len3_with_details: 10,
            overlap_rate: 1.0,
            oracle,
        }
    }

    #[test]
    fn defensive_counterfactual_nets_tip_cost() {
        let report = report_with_losses(&[20_000_000, 40_000_000]); // 0.02 + 0.04 SOL
        let oracle = SolUsdOracle::default();
        let cf = defensive_counterfactual(&report, Lamports(10_000), &oracle);
        assert_eq!(cf.victims, 2);
        assert!((cf.realized_loss_usd - 0.06 * 242.0).abs() < 1e-6);
        assert!((cf.defense_cost_usd - 2.0 * 0.00001 * 242.0).abs() < 1e-9);
        assert!(
            cf.net_saving_usd > 14.0,
            "defense overwhelmingly pays for victims"
        );
    }

    #[test]
    fn slippage_cap_scales_losses() {
        let report = report_with_losses(&[10_000_000, 10_000_000]);
        let oracle = SolUsdOracle::default();
        let cf = slippage_counterfactual(&report, 50, 200, &oracle);
        assert_eq!(cf.victims, 2);
        assert!((cf.capped_loss_usd - cf.realized_loss_usd * 0.25).abs() < 1e-9);
        assert!(cf.avoided_usd > 0.0);
        // A looser "cap" than the assumed tolerance changes nothing.
        let loose = slippage_counterfactual(&report, 500, 200, &oracle);
        assert!((loose.capped_loss_usd - loose.realized_loss_usd).abs() < 1e-9);
    }

    #[test]
    fn economics_ratio_reflects_rarity() {
        let report = report_with_losses(&[20_000_000]);
        let econ = defense_economics(&report);
        // Attack probability is findings / bundles = 1/140.
        assert!(econ.attack_probability > 0.0 && econ.attack_probability < 0.01);
        assert!(econ.mean_loss_usd > 0.0);
        assert!(econ.expected_loss_usd < econ.mean_loss_usd);
        assert!(econ.defense_cost_usd > 0.0);
        assert!(econ.cost_to_ev_ratio.is_finite());
    }

    #[test]
    fn empty_report_is_graceful() {
        let report = report_with_losses(&[]);
        let oracle = SolUsdOracle::default();
        let cf = defensive_counterfactual(&report, Lamports(10_000), &oracle);
        assert_eq!(cf.victims, 0);
        assert_eq!(cf.net_saving_usd, 0.0);
        let econ = defense_economics(&report);
        assert_eq!(econ.expected_loss_usd, 0.0);
        assert!(econ.cost_to_ev_ratio.is_infinite());
    }
}
