//! Turning the collected dataset into the paper's results: per-day series
//! (Figures 1–2), the loss CDF (Figure 3), tip CDFs (Figure 4), and the
//! headline aggregates of §4.

use serde::{Deserialize, Serialize};

use sandwich_dex::SolUsdOracle;

use crate::defense::DefenseStats;
use crate::detector::{DetectorConfig, SandwichFinding};
use crate::stats::{Cdf, DailySeries};

/// Analysis configuration.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Detection criteria. (The defensive-tip threshold is not a setting:
    /// it is `DEFENSIVE_TIP_THRESHOLD`, the paper's 100,000 lamports.)
    pub detector: DetectorConfig,
    /// USD conversion (paper: $242/SOL).
    pub oracle: SolUsdOracle,
    /// Days in the measurement period (sizes the per-day series).
    pub days: u64,
    /// Extended detection: also scan bundles of length 4–5 for sandwich
    /// triples (quantifies how much the paper's length-3 methodology
    /// undercounts). Requires the collector to have fetched those details.
    pub extended: bool,
}

impl AnalysisConfig {
    /// Paper-default configuration for a period of `days`.
    pub fn paper_defaults(days: u64) -> Self {
        AnalysisConfig {
            detector: DetectorConfig::default(),
            oracle: SolUsdOracle::default(),
            days,
            extended: false,
        }
    }

    /// Paper defaults plus extended (length-4/5) detection.
    pub fn extended(days: u64) -> Self {
        AnalysisConfig {
            extended: true,
            ..Self::paper_defaults(days)
        }
    }
}

/// A detected sandwich annotated with its day.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DatedFinding {
    /// Measurement day.
    pub day: u64,
    /// The bundle the sandwich landed in.
    pub bundle_id: sandwich_jito::BundleId,
    /// The finding.
    pub finding: SandwichFinding,
}

/// Everything the figures need.
///
/// Serializable so reports can be diffed byte-for-byte: the suite asserts
/// that the parallel segment scan produces the identical JSON at any
/// thread count, and over either walk of a segment.
#[derive(Clone, Debug, Serialize)]
pub struct AnalysisReport {
    /// Days covered.
    pub days: u64,
    /// Bundles per day split by length (Figure 1): index 0 = length 1.
    pub bundles_by_len_per_day: [DailySeries; 5],
    /// Sandwiches per day (Figure 2 top).
    pub sandwiches_per_day: DailySeries,
    /// Defensive bundles per day (Figure 2 top).
    pub defensive_per_day: DailySeries,
    /// Victim losses per day in SOL (Figure 2 bottom).
    pub victim_loss_sol_per_day: DailySeries,
    /// Attacker gains per day in SOL (Figure 2 bottom).
    pub attacker_gain_sol_per_day: DailySeries,
    /// Per-victim USD losses (Figure 3).
    pub loss_cdf_usd: Cdf,
    /// Tips of all length-1 bundles, lamports (Figure 4).
    pub tip_cdf_len1: Cdf,
    /// Tips of all length-3 bundles, lamports (Figure 4).
    pub tip_cdf_len3: Cdf,
    /// Tips of detected sandwich bundles, lamports (Figure 4).
    pub tip_cdf_sandwich: Cdf,
    /// Defensive aggregates (§4.2).
    pub defense: DefenseStats,
    /// Every finding, dated.
    pub findings: Vec<DatedFinding>,
    /// Sandwiches without a SOL leg (unpriced, §4.1's 28%).
    pub non_sol_sandwiches: u64,
    /// Total length-3 bundles whose details were available for detection.
    pub len3_with_details: u64,
    /// Successive-poll overlap rate (§3.1's 95%).
    pub overlap_rate: f64,
    /// Oracle used for USD figures.
    pub oracle: SolUsdOracle,
}

impl AnalysisReport {
    /// Total collected bundles.
    pub fn total_bundles(&self) -> f64 {
        self.bundles_by_len_per_day
            .iter()
            .map(DailySeries::total)
            .sum()
    }

    /// Total detected sandwiches.
    pub fn total_sandwiches(&self) -> u64 {
        self.findings.len() as u64
    }

    /// Sandwiches as a fraction of all bundles (paper: 0.038%).
    pub fn sandwich_fraction(&self) -> f64 {
        let total = self.total_bundles();
        if total == 0.0 {
            0.0
        } else {
            self.total_sandwiches() as f64 / total
        }
    }

    /// Length-3 bundles as a fraction of all bundles (paper: 2.77%).
    pub fn len3_fraction(&self) -> f64 {
        let total = self.total_bundles();
        if total == 0.0 {
            0.0
        } else {
            self.bundles_by_len_per_day[2].total() / total
        }
    }

    /// Total victim losses in USD (paper: $7.7M at full scale).
    pub fn total_victim_loss_usd(&self) -> f64 {
        self.oracle.sol_to_usd(self.victim_loss_sol_per_day.total())
    }

    /// Total attacker gains in USD (paper: $9.7M at full scale).
    pub fn total_attacker_gain_usd(&self) -> f64 {
        self.oracle
            .sol_to_usd(self.attacker_gain_sol_per_day.total())
    }

    /// Total defensive spend in USD (paper: $2.4M at full scale).
    pub fn total_defensive_spend_usd(&self) -> f64 {
        self.oracle
            .sol_to_usd(self.defense.defensive_tips_lamports as f64 / 1e9)
    }

    /// Mean defensive tip in USD (paper: $0.0028).
    pub fn mean_defensive_tip_usd(&self) -> f64 {
        self.oracle
            .sol_to_usd(self.defense.mean_defensive_tip() / 1e9)
    }

    /// Fraction of sandwiches with no SOL leg (paper: 28%).
    pub fn non_sol_fraction(&self) -> f64 {
        if self.findings.is_empty() {
            0.0
        } else {
            self.non_sol_sandwiches as f64 / self.findings.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use sandwich_explorer::{BundleSummaryJson, TxDetailJson};
    use sandwich_jito::tip_account;
    use sandwich_store::{segment::encode_segment, SegmentView};
    use sandwich_types::{Hash, Keypair, Pubkey, SlotClock};

    /// The report over a dataset's residue, scanned as one segment.
    fn report_of(ds: &Dataset, clock: &SlotClock, config: &AnalysisConfig) -> AnalysisReport {
        let view = SegmentView::from_image(encode_segment(&ds.residue()).0).unwrap();
        let partial = crate::scan::partial_of_view_or_segment(&view, clock, config).unwrap();
        partial.finalize(config)
    }

    fn mint() -> Pubkey {
        Pubkey::derive("mint:AN")
    }

    fn summary(
        seed: u64,
        slot: u64,
        tip: u64,
        tx_ids: Vec<sandwich_ledger::TransactionId>,
    ) -> BundleSummaryJson {
        BundleSummaryJson {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot,
            timestamp_ms: 0,
            tip_lamports: tip,
            transactions: tx_ids,
        }
    }

    fn detail(
        bundle_seed: u64,
        slot: u64,
        label: &str,
        n: u64,
        sol_trade: i64,
        tokens: i128,
        tip: u64,
    ) -> TxDetailJson {
        let kp = Keypair::from_label(label);
        let mut sol_deltas = vec![sandwich_explorer::SolDeltaJson {
            account: kp.pubkey(),
            delta: sol_trade - 5_000 - tip as i64,
        }];
        if tip > 0 {
            sol_deltas.push(sandwich_explorer::SolDeltaJson {
                account: tip_account(0),
                delta: tip as i64,
            });
        }
        TxDetailJson {
            tx_id: kp.sign(&n.to_le_bytes()),
            bundle_id: Hash::digest(&bundle_seed.to_le_bytes()),
            slot,
            signer: kp.pubkey(),
            fee_lamports: 5_000,
            priority_fee_lamports: 0,
            success: true,
            sol_deltas,
            token_deltas: if tokens != 0 {
                vec![sandwich_explorer::TokenDeltaJson {
                    owner: kp.pubkey(),
                    mint: mint(),
                    delta: tokens,
                }]
            } else {
                vec![]
            },
        }
    }

    #[test]
    fn analysis_counts_everything() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();

        // Day 0: one defensive bundle, one priority bundle, one sandwich.
        let d1 = detail(10, 5, "atk", 1, -100_000_000_000, 10_000, 0);
        let d2 = detail(10, 5, "vic", 2, -120_000_000_000, 10_000, 0);
        let d3 = detail(10, 5, "atk", 3, 115_000_000_000, -10_000, 2_000_000);
        let page = vec![
            summary(1, 1, 5_000, vec![Keypair::from_label("d").sign(b"1")]),
            summary(2, 2, 900_000, vec![Keypair::from_label("p").sign(b"2")]),
            summary(10, 5, 2_000_000, vec![d1.tx_id, d2.tx_id, d3.tx_id]),
        ];
        ds.ingest_page(&page, &clock, 0);
        ds.ingest_details(&[Some(d1), Some(d2), Some(d3)]);

        let report = report_of(&ds, &clock, &AnalysisConfig::paper_defaults(2));
        assert_eq!(report.total_bundles(), 3.0);
        assert_eq!(report.total_sandwiches(), 1);
        assert_eq!(report.defense.defensive, 1);
        assert_eq!(report.defensive_per_day.values[0], 1.0);
        assert_eq!(report.sandwiches_per_day.values[0], 1.0);
        // Loss: 20 SOL at $242 = $4,840.
        assert!((report.loss_cdf_usd.median().unwrap() - 4_840.0).abs() < 1.0);
        assert!((report.victim_loss_sol_per_day.total() - 20.0).abs() < 1e-6);
        assert!((report.attacker_gain_sol_per_day.total() - 15.0).abs() < 1e-6);
        assert_eq!(report.tip_cdf_sandwich.len(), 1);
        assert_eq!(report.tip_cdf_len1.len(), 2);
        assert_eq!(report.len3_with_details, 1);
        assert!((report.len3_fraction() - 1.0 / 3.0).abs() < 1e-9);
        assert!((report.sandwich_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn missing_details_mean_no_detection() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        let kp = Keypair::from_label("x");
        let page = vec![summary(
            1,
            1,
            2_000_000,
            vec![kp.sign(b"a"), kp.sign(b"b"), kp.sign(b"c")],
        )];
        ds.ingest_page(&page, &clock, 0);
        let report = report_of(&ds, &clock, &AnalysisConfig::paper_defaults(1));
        assert_eq!(report.total_sandwiches(), 0);
        assert_eq!(report.len3_with_details, 0);
        assert_eq!(report.tip_cdf_len3.len(), 1, "tip still observed");
    }
}
