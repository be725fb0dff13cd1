//! Per-bundle ground-truth labels.
//!
//! The simulator knows what every bundle it submits *is* — a genuine
//! sandwich, a defensive self-bundle, benign app traffic, or a near-miss
//! decoy engineered against one detection criterion. That knowledge is the
//! one thing the paper could never have on mainnet, and it is what makes an
//! exact per-bundle precision/recall oracle possible here.
//!
//! Labels ride *alongside* the measured system, never inside it: nothing in
//! the explorer wire formats, the collector, or the segment store carries a
//! label. The [`LabelBook`] is keyed by the bundle id (the hash of the
//! ordered transaction ids, [`sandwich_jito::bundle_id_of`]), so analysis
//! output joins back to ground truth only after the fact.

use std::collections::HashMap;

use sandwich_jito::BundleId;
use sandwich_types::Pubkey;

/// The near-miss families: each one mutates a true sandwich along exactly
/// one criterion boundary (or a metamorphic axis) so that the full detector
/// must reject it while the matching `without_criterion(n)` ablation admits
/// it — the proof that each criterion is load-bearing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NearMissFamily {
    /// Criterion 1 boundary: sandwich-shaped price action but the back-run
    /// is signed by a third party, not the front-runner.
    DifferentOuterSigner,
    /// Criterion 2 boundary: front and victim trade the same pair, but the
    /// "attacker" exits through a different token (disjoint currency set in
    /// the final leg).
    DisjointCurrencies,
    /// Criterion 3 boundary: the first trade moves the rate *for* the
    /// victim (a sell improving the victim's buy), not against them.
    RateMovedForVictim,
    /// Criterion 4 boundary: sandwich-shaped but the "attacker" exits at a
    /// loss (sells only part of the inventory, proceeds below cost).
    UnprofitableAttacker,
    /// Criterion 5 boundary: two swaps by different users plus a pure tip
    /// transaction by the first — the app-bundler pattern.
    TipOnlyFinal,
    /// Metamorphic: a true sandwich with its transactions permuted.
    PermutedOrder,
    /// Metamorphic: a true sandwich split across two bundles.
    SplitAcrossBundles,
    /// Metamorphic: a true sandwich padded with a zero-market-effect
    /// transaction (length 4 — invisible to the paper's length-3 scan, but
    /// the extended scan must still find the embedded triple).
    ZeroDeltaPadding,
    /// Criterion 1 boundary, its other half: a self-sandwich — the
    /// front-runner also signs the middle transaction, so tx 2's signer is
    /// not distinct from the outer one.
    SelfSandwich,
    /// Criterion 3 boundary, its strict `>`: the victim fills at exactly
    /// the front-run's rate, so the rate did not move against them.
    VictimAtAttackersRate,
}

impl NearMissFamily {
    /// All families: the five criterion boundaries, the three metamorphic
    /// variants, then the two second boundaries of criteria 1 and 3.
    pub fn all() -> [NearMissFamily; 10] {
        [
            NearMissFamily::DifferentOuterSigner,
            NearMissFamily::DisjointCurrencies,
            NearMissFamily::RateMovedForVictim,
            NearMissFamily::UnprofitableAttacker,
            NearMissFamily::TipOnlyFinal,
            NearMissFamily::PermutedOrder,
            NearMissFamily::SplitAcrossBundles,
            NearMissFamily::ZeroDeltaPadding,
            NearMissFamily::SelfSandwich,
            NearMissFamily::VictimAtAttackersRate,
        ]
    }

    /// The detection criterion (1–5) this family probes, if any.
    pub fn criterion(&self) -> Option<u8> {
        match self {
            NearMissFamily::DifferentOuterSigner | NearMissFamily::SelfSandwich => Some(1),
            NearMissFamily::DisjointCurrencies => Some(2),
            NearMissFamily::RateMovedForVictim | NearMissFamily::VictimAtAttackersRate => Some(3),
            NearMissFamily::UnprofitableAttacker => Some(4),
            NearMissFamily::TipOnlyFinal => Some(5),
            _ => None,
        }
    }

    /// The first family probing criterion `n` (1–5): the one the simulated
    /// lab plants.
    pub fn for_criterion(n: u8) -> Option<NearMissFamily> {
        NearMissFamily::all()
            .into_iter()
            .find(|f| f.criterion() == Some(n))
    }

    /// Stable snake_case name (used in reports and JSON snapshots).
    pub fn name(&self) -> &'static str {
        match self {
            NearMissFamily::DifferentOuterSigner => "different_outer_signer",
            NearMissFamily::DisjointCurrencies => "disjoint_currencies",
            NearMissFamily::RateMovedForVictim => "rate_moved_for_victim",
            NearMissFamily::UnprofitableAttacker => "unprofitable_attacker",
            NearMissFamily::TipOnlyFinal => "tip_only_final",
            NearMissFamily::PermutedOrder => "permuted_order",
            NearMissFamily::SplitAcrossBundles => "split_across_bundles",
            NearMissFamily::ZeroDeltaPadding => "zero_delta_padding",
            NearMissFamily::SelfSandwich => "self_sandwich",
            NearMissFamily::VictimAtAttackersRate => "victim_at_attackers_rate",
        }
    }
}

impl std::fmt::Display for NearMissFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Ground truth for one landed sandwich bundle.
#[derive(Clone, Copy, Debug)]
pub struct SandwichLabel {
    /// The attacker (signer of the outer transactions).
    pub attacker: Pubkey,
    /// The victim (signer of the middle transaction).
    pub victim: Pubkey,
    /// Victim loss at the pre-attack rate, lamports (0 when unpriceable).
    pub expected_loss_lamports: u64,
    /// Attacker gain after tip, lamports (0 when unpriceable).
    pub expected_gain_lamports: i128,
    /// Whether one traded leg is SOL (only these are priced).
    pub sol_legged: bool,
    /// Disguised as a length-4 bundle (invisible to the paper's scan).
    pub disguised: bool,
}

/// Benign (non-attack, non-defensive) bundle sub-kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BenignKind {
    /// Length-1 priority bundle (tip above the defensive threshold).
    Priority,
    /// Length-2 app bundle (action + separate tip transaction).
    AppPair,
    /// Length-3 bundle of unrelated swaps (no single criterion boundary).
    UnrelatedSwaps,
    /// Length-4/5 transfer batch.
    Batch,
}

/// What one landed bundle *is*, per the simulator.
#[derive(Clone, Debug)]
pub enum BundleLabel {
    /// A genuine sandwich attack.
    Sandwich(SandwichLabel),
    /// A defensive self-bundle (length 1, tiny tip).
    Defensive,
    /// Benign traffic.
    Benign(BenignKind),
    /// A near-miss decoy engineered against one criterion boundary.
    NearMiss(NearMissFamily),
}

impl BundleLabel {
    /// True for sandwich labels.
    pub fn is_sandwich(&self) -> bool {
        matches!(self, BundleLabel::Sandwich(_))
    }

    /// True for defensive labels.
    pub fn is_defensive(&self) -> bool {
        matches!(self, BundleLabel::Defensive)
    }
}

/// Ground-truth provenance of one landed bundle: which validator led the
/// slot it landed in, and whether that leader is a colluder (forwards its
/// mempool view to the private channel).
///
/// Like every other label, provenance never crosses the explorer wire —
/// the measured system must recompute leaders from the public validator
/// spec and *infer* colluders from attribution counts; this record is what
/// the conformance oracle scores that inference against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BundleProvenance {
    /// Leader of the slot the bundle landed in.
    pub leader: Pubkey,
    /// Whether that leader is a ground-truth colluder.
    pub colluder: bool,
}

/// Per-bundle ground truth for a whole run, keyed by bundle id.
#[derive(Debug, Default)]
pub struct LabelBook {
    labels: HashMap<BundleId, BundleLabel>,
    provenance: HashMap<BundleId, BundleProvenance>,
}

impl LabelBook {
    /// An empty book.
    pub fn new() -> Self {
        LabelBook::default()
    }

    /// Record the label of a landed bundle.
    pub fn insert(&mut self, id: BundleId, label: BundleLabel) {
        self.labels.insert(id, label);
    }

    /// Record which validator led the slot bundle `id` landed in.
    pub fn insert_provenance(&mut self, id: BundleId, provenance: BundleProvenance) {
        self.provenance.insert(id, provenance);
    }

    /// Look up a bundle's label.
    pub fn get(&self, id: &BundleId) -> Option<&BundleLabel> {
        self.labels.get(id)
    }

    /// Look up a bundle's slot-leader provenance.
    pub fn provenance(&self, id: &BundleId) -> Option<&BundleProvenance> {
        self.provenance.get(id)
    }

    /// Number of labeled bundles.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no bundle has been labeled.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate over all (id, label) pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&BundleId, &BundleLabel)> {
        self.labels.iter()
    }

    /// Iterate over all (id, provenance) pairs (unordered). The oracle
    /// derives the ground-truth colluder set from these — a validator is
    /// a colluder iff any bundle landed in its slots says so.
    pub fn provenances(&self) -> impl Iterator<Item = (&BundleId, &BundleProvenance)> {
        self.provenance.iter()
    }

    /// Ids of all labeled sandwiches.
    pub fn sandwich_ids(&self) -> impl Iterator<Item = &BundleId> {
        self.labels
            .iter()
            .filter(|(_, l)| l.is_sandwich())
            .map(|(id, _)| id)
    }

    /// Count of labels per near-miss family.
    pub fn near_miss_counts(&self) -> HashMap<NearMissFamily, u64> {
        let mut counts = HashMap::new();
        for label in self.labels.values() {
            if let BundleLabel::NearMiss(family) = label {
                *counts.entry(*family).or_insert(0) += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_types::Hash;

    #[test]
    fn families_cover_all_criteria() {
        for n in 1..=5u8 {
            let family = NearMissFamily::for_criterion(n).expect("family per criterion");
            assert_eq!(family.criterion(), Some(n));
        }
        assert_eq!(NearMissFamily::PermutedOrder.criterion(), None);
        let mut names: Vec<_> = NearMissFamily::all().iter().map(|f| f.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(
            names.len(),
            NearMissFamily::all().len(),
            "names are distinct"
        );
    }

    #[test]
    fn book_insert_lookup_counts() {
        let mut book = LabelBook::new();
        assert!(book.is_empty());
        let id1 = Hash::digest(b"b1");
        let id2 = Hash::digest(b"b2");
        let id3 = Hash::digest(b"b3");
        book.insert(
            id1,
            BundleLabel::Sandwich(SandwichLabel {
                attacker: Pubkey::derive("a"),
                victim: Pubkey::derive("v"),
                expected_loss_lamports: 7,
                expected_gain_lamports: 5,
                sol_legged: true,
                disguised: false,
            }),
        );
        book.insert(id2, BundleLabel::NearMiss(NearMissFamily::TipOnlyFinal));
        book.insert(id3, BundleLabel::Defensive);
        assert_eq!(book.len(), 3);
        assert!(book.get(&id1).unwrap().is_sandwich());
        assert!(book.get(&id3).unwrap().is_defensive());
        assert_eq!(book.sandwich_ids().count(), 1);
        assert_eq!(book.near_miss_counts()[&NearMissFamily::TipOnlyFinal], 1);
    }

    #[test]
    fn provenance_joins_on_bundle_id() {
        let mut book = LabelBook::new();
        let id = Hash::digest(b"b1");
        let prov = BundleProvenance {
            leader: Pubkey::derive("leader"),
            colluder: true,
        };
        book.insert(id, BundleLabel::Defensive);
        book.insert_provenance(id, prov);
        assert_eq!(book.provenance(&id), Some(&prov));
        assert_eq!(book.provenance(&Hash::digest(b"other")), None);
    }
}
