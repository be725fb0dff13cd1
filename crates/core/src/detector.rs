//! The sandwich detector: the paper's five criteria (§3.2) applied to the
//! balance deltas of length-3 bundles, plus the financial quantification of
//! §4.1.
//!
//! 1. txs 1 and 3 signed by the same account A; tx 2 by a different B;
//! 2. the same set of traded currencies in all three transactions;
//! 3. A's first trade moves the exchange rate *against* B;
//! 4. A ends the bundle with a net gain in some traded currency and no net
//!    loss in any other (the MEV profit);
//! 5. bundles whose final transaction only tips a Jito validator are
//!    excluded (app-bundler pattern, not an attack).
//!
//! Each criterion can be disabled individually for the ablation bench.

use serde::{Deserialize, Serialize};

use sandwich_jito::{is_tip_only, realized_tip};
use sandwich_ledger::TransactionMeta;
use sandwich_types::{Lamports, Pubkey};

/// A currency moved by a trade: native SOL or a token mint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Currency {
    /// Native SOL.
    Sol,
    /// A token mint.
    Token(Pubkey),
}

/// One signer's trade extracted from a transaction's balance deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trade {
    /// Currency paid and amount (raw units / lamports).
    pub paid: (Currency, u128),
    /// Currency received and amount.
    pub received: (Currency, u128),
}

impl Trade {
    /// Execution rate: paid per unit received.
    pub fn rate(&self) -> f64 {
        self.paid.1 as f64 / self.received.1 as f64
    }

    /// The set of currencies this trade touches, sorted.
    pub fn currencies(&self) -> [Currency; 2] {
        let mut c = [self.paid.0, self.received.0];
        c.sort();
        c
    }
}

/// Extract the signer's trade from a transaction's deltas, netting out the
/// fee and any Jito tips so that only the market trade remains.
///
/// Returns `None` when the transaction is not a two-currency trade (plain
/// transfers, tip-only transactions, multi-leg spaghetti).
pub fn extract_trade(meta: &TransactionMeta) -> Option<Trade> {
    let signer = meta.signer;
    let mut paid: Option<(Currency, u128)> = None;
    let mut received: Option<(Currency, u128)> = None;

    for d in &meta.token_deltas {
        if d.owner != signer || d.delta == 0 {
            continue;
        }
        let entry = (Currency::Token(d.mint), d.delta.unsigned_abs());
        if d.delta < 0 {
            if paid.replace(entry).is_some() {
                return None; // more than one currency paid
            }
        } else if received.replace(entry).is_some() {
            return None;
        }
    }

    // SOL leg: the signer's net SOL excluding fee and tips paid.
    let tips = realized_tip(meta);
    let sol_net = meta.sol_delta_of(&signer).0 + meta.fee.0 as i64 + tips.0 as i64;
    // Ignore dust below the fee scale (rounding of internal transfers).
    if sol_net < -1_000 {
        let entry = (Currency::Sol, sol_net.unsigned_abs() as u128);
        if paid.replace(entry).is_some() {
            return None;
        }
    } else if sol_net > 1_000 {
        let entry = (Currency::Sol, sol_net as u128);
        if received.replace(entry).is_some() {
            return None;
        }
    }

    match (paid, received) {
        (Some(p), Some(r)) if p.1 > 0 && r.1 > 0 => Some(Trade {
            paid: p,
            received: r,
        }),
        _ => None,
    }
}

/// Which criteria the detector applies (all on by default; toggles exist
/// for the ablation study).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Criterion 1: outer transactions share a signer distinct from the middle.
    pub same_outer_signer: bool,
    /// Criterion 2: identical traded-currency sets.
    pub same_currencies: bool,
    /// Criterion 3: the front-run worsens the victim's rate.
    pub rate_moves_against_victim: bool,
    /// Criterion 4: the attacker nets a gain.
    pub attacker_profits: bool,
    /// Criterion 5: exclude tip-only final transactions.
    pub exclude_tip_only_final: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            same_outer_signer: true,
            same_currencies: true,
            rate_moves_against_victim: true,
            attacker_profits: true,
            exclude_tip_only_final: true,
        }
    }
}

/// Error for a criterion number outside the paper's 1–5 numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidCriterion(pub u8);

impl std::fmt::Display for InvalidCriterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "criteria are numbered 1-5, got {}", self.0)
    }
}

impl std::error::Error for InvalidCriterion {}

impl DetectorConfig {
    /// A config with the numbered criterion (1–5) disabled.
    pub fn without_criterion(n: u8) -> Result<Self, InvalidCriterion> {
        let mut c = DetectorConfig::default();
        match n {
            1 => c.same_outer_signer = false,
            2 => c.same_currencies = false,
            3 => c.rate_moves_against_victim = false,
            4 => c.attacker_profits = false,
            5 => c.exclude_tip_only_final = false,
            _ => return Err(InvalidCriterion(n)),
        }
        Ok(c)
    }
}

/// A detected sandwich with its financial quantification.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SandwichFinding {
    /// The attacker (signer of transactions 1 and 3).
    pub attacker: Pubkey,
    /// The victim (signer of transaction 2).
    pub victim: Pubkey,
    /// Currencies traded.
    pub currencies: Vec<Currency>,
    /// True when one traded leg is SOL (only these are priced, §3.2).
    pub sol_legged: bool,
    /// Victim loss in lamports at the attacker's rate (`None` when the
    /// trade has no SOL leg).
    pub victim_loss_lamports: Option<u64>,
    /// Attacker gross gain in lamports (`None` when no SOL leg).
    pub attacker_gain_lamports: Option<i128>,
    /// Total Jito tip paid inside the bundle.
    pub bundle_tip: Lamports,
}

/// Apply the five criteria to the metas of a length-3 bundle.
pub fn detect(config: &DetectorConfig, metas: [&TransactionMeta; 3]) -> Option<SandwichFinding> {
    let [m1, m2, m3] = metas;

    // Criterion 5 first: it is an exclusion, independent of trade shape.
    if is_tip_only(m3) {
        if config.exclude_tip_only_final {
            return None;
        }
        // With criterion 5 disabled, fall back to the naive bundle-level
        // reading the criterion exists to exclude: two swaps whose price
        // action looks sandwich-shaped, with the "attacker" ending the
        // bundle holding appreciated inventory. The ablation bench uses
        // this to show the criterion is load-bearing.
        return detect_naive_final_tip(config, m1, m2, m3);
    }

    // Criterion 1.
    if config.same_outer_signer && !(m1.signer == m3.signer && m1.signer != m2.signer) {
        return None;
    }

    let t1 = extract_trade(m1)?;
    let t2 = extract_trade(m2)?;
    let t3 = extract_trade(m3)?;

    // Criterion 2: same currency sets across all three trades.
    if config.same_currencies
        && !(t1.currencies() == t2.currencies() && t2.currencies() == t3.currencies())
    {
        return None;
    }

    // Criterion 3: same direction for front-run and victim, and the
    // victim's realized rate is strictly worse than the attacker's.
    if config.rate_moves_against_victim {
        if t1.paid.0 != t2.paid.0 || t1.received.0 != t2.received.0 {
            return None;
        }
        if t2.rate() <= t1.rate() {
            return None;
        }
    }

    // Criterion 4: attacker's net across the bundle, per traded currency
    // (fees and tips excluded — they are not market flows). The paper's
    // wording has two branches: "net gains currency with no payment", OR
    // "ends with net profit when looking at quantity of coin sold" — the
    // latter covers attackers who dump extra inventory in the back-run
    // (footnote 7), ending token-negative but proceeds-positive.
    if config.attacker_profits {
        let mut nets: std::collections::BTreeMap<Currency, i128> =
            std::collections::BTreeMap::new();
        for t in [&t1, &t3] {
            *nets.entry(t.paid.0).or_insert(0) -= t.paid.1 as i128;
            *nets.entry(t.received.0).or_insert(0) += t.received.1 as i128;
        }
        let any_gain = nets.values().any(|&v| v > 0);
        let no_loss = nets.values().all(|&v| v >= 0);
        let pure_profit = any_gain && no_loss;
        let proceeds_profit = nets.get(&t3.received.0).copied().unwrap_or(0) > 0;
        if !(pure_profit || proceeds_profit) {
            return None;
        }
    }

    let currencies: Vec<Currency> = t2.currencies().to_vec();
    let sol_legged = currencies.contains(&Currency::Sol);

    let (victim_loss_lamports, attacker_gain_lamports) = if sol_legged {
        (
            quantify_victim_loss(&t1, &t2),
            quantify_attacker_gain(&t1, &t3),
        )
    } else {
        (None, None)
    };

    let bundle_tip = realized_tip(m1) + realized_tip(m2) + realized_tip(m3);

    Some(SandwichFinding {
        attacker: m1.signer,
        victim: m2.signer,
        currencies,
        sol_legged,
        victim_loss_lamports,
        attacker_gain_lamports,
        bundle_tip,
    })
}

/// The naive two-legged reading of a bundle whose final transaction only
/// tips: criteria 1–3 applied to the first two trades, with "profit" read
/// as the first signer holding inventory the second trade appreciated.
/// Reached only when criterion 5 is disabled — the real detector excludes
/// these bundles outright, and the ablation grid asserts exactly which
/// near-miss family this admits.
fn detect_naive_final_tip(
    config: &DetectorConfig,
    m1: &TransactionMeta,
    m2: &TransactionMeta,
    m3: &TransactionMeta,
) -> Option<SandwichFinding> {
    if config.same_outer_signer && !(m1.signer == m3.signer && m1.signer != m2.signer) {
        return None;
    }
    let t1 = extract_trade(m1)?;
    let t2 = extract_trade(m2)?;
    if config.same_currencies && t1.currencies() != t2.currencies() {
        return None;
    }
    if config.rate_moves_against_victim {
        if t1.paid.0 != t2.paid.0 || t1.received.0 != t2.received.0 {
            return None;
        }
        if t2.rate() <= t1.rate() {
            return None;
        }
    }
    if config.attacker_profits && t1.received.1 == 0 {
        return None;
    }

    let currencies: Vec<Currency> = t2.currencies().to_vec();
    let sol_legged = currencies.contains(&Currency::Sol);
    let victim_loss_lamports = if sol_legged {
        quantify_victim_loss(&t1, &t2)
    } else {
        None
    };
    let bundle_tip = realized_tip(m1) + realized_tip(m2) + realized_tip(m3);

    Some(SandwichFinding {
        attacker: m1.signer,
        victim: m2.signer,
        currencies,
        sol_legged,
        victim_loss_lamports,
        attacker_gain_lamports: None,
        bundle_tip,
    })
}

/// Extended detection beyond the paper: scan *every ordered triple* inside
/// a bundle of any length for the sandwich pattern. This catches the
/// disguised attacks (extra unrelated transactions appended) that the
/// paper's length-3 methodology explicitly counts as missed — quantifying
/// how much of a lower bound the published numbers are.
///
/// Returns each detected triple as (indices, finding). Overlapping triples
/// are deduplicated by keeping the first hit per victim transaction.
pub fn detect_in_bundle(
    config: &DetectorConfig,
    metas: &[&TransactionMeta],
) -> Vec<([usize; 3], SandwichFinding)> {
    let n = metas.len();
    let mut findings: Vec<([usize; 3], SandwichFinding)> = Vec::new();
    let mut claimed_victims = std::collections::HashSet::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if claimed_victims.contains(&j) {
                continue;
            }
            for k in (j + 1)..n {
                if let Some(finding) = detect(config, [metas[i], metas[j], metas[k]]) {
                    claimed_victims.insert(j);
                    findings.push(([i, j, k], finding));
                    break;
                }
            }
        }
    }
    findings
}

/// Victim loss (§4.1): the attacker's rate times the victim's volume gives
/// the price the victim *would* have paid; the difference is the loss.
fn quantify_victim_loss(t1: &Trade, t2: &Trade) -> Option<u64> {
    match (t2.paid.0, t2.received.0) {
        // Victim pays SOL for tokens: loss in SOL paid.
        (Currency::Sol, Currency::Token(_)) => {
            let fair_sol = t1.rate() * t2.received.1 as f64;
            let loss = t2.paid.1 as f64 - fair_sol;
            Some(loss.max(0.0) as u64)
        }
        // Victim sells tokens for SOL: loss is the SOL they missed out on.
        (Currency::Token(_), Currency::Sol) => {
            // Attacker's rate in SOL per token sold: received/paid of t1.
            let fair_sol = t2.paid.1 as f64 * (t1.received.1 as f64 / t1.paid.1 as f64);
            let loss = fair_sol - t2.received.1 as f64;
            Some(loss.max(0.0) as u64)
        }
        _ => None,
    }
}

/// Attacker gross gain (§4.1): SOL out of the back-run minus SOL into the
/// front-run (tips/fees already excluded by trade extraction).
fn quantify_attacker_gain(t1: &Trade, t3: &Trade) -> Option<i128> {
    match (t1.paid.0, t3.received.0) {
        (Currency::Sol, Currency::Sol) => Some(t3.received.1 as i128 - t1.paid.1 as i128),
        _ => match (t1.received.0, t3.paid.0) {
            // Attacker sold SOL-priced tokens first, re-bought after.
            (Currency::Sol, Currency::Sol) => Some(t1.received.1 as i128 - t3.paid.1 as i128),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_jito::tip_account;
    use sandwich_ledger::{SolDelta, TokenDelta};
    use sandwich_types::{Keypair, LamportDelta};

    fn pk(label: &str) -> Pubkey {
        Keypair::from_label(label).pubkey()
    }

    fn mint() -> Pubkey {
        Pubkey::derive("mint:DET")
    }

    /// A swap meta: signer pays `sol_paid` lamports (besides fee/tip) and
    /// receives `tokens` (negative = sells tokens, receives SOL).
    fn swap_meta(
        signer_label: &str,
        n: u64,
        sol_delta_trade: i64,
        tokens: i128,
        tip: u64,
    ) -> TransactionMeta {
        let kp = Keypair::from_label(signer_label);
        let fee = 5_000i64;
        let mut sol_deltas = vec![SolDelta {
            account: kp.pubkey(),
            delta: LamportDelta(sol_delta_trade - fee - tip as i64),
        }];
        if tip > 0 {
            sol_deltas.push(SolDelta {
                account: tip_account(0),
                delta: LamportDelta(tip as i64),
            });
        }
        TransactionMeta {
            tx_id: kp.sign(&n.to_le_bytes()),
            signer: kp.pubkey(),
            fee: Lamports(fee as u64),
            priority_fee: Lamports::ZERO,
            success: true,
            error: None,
            sol_deltas,
            token_deltas: if tokens != 0 {
                vec![TokenDelta {
                    owner: kp.pubkey(),
                    mint: mint(),
                    delta: tokens,
                }]
            } else {
                vec![]
            },
        }
    }

    /// The canonical Table-1 sandwich: attacker buys 10,000 tokens for
    /// 100 SOL-ish, victim buys at a worse rate, attacker sells at a profit.
    fn canonical() -> (TransactionMeta, TransactionMeta, TransactionMeta) {
        let front = swap_meta("attacker", 1, -100_000_000_000, 10_000, 0);
        let victim = swap_meta("victim", 2, -120_000_000_000, 10_000, 0); // worse rate
        let back = swap_meta("attacker", 3, 115_000_000_000, -10_000, 2_000_000);
        (front, victim, back)
    }

    #[test]
    fn canonical_sandwich_detected_and_priced() {
        let (f, v, b) = canonical();
        let finding = detect(&DetectorConfig::default(), [&f, &v, &b]).expect("detected");
        assert_eq!(finding.attacker, pk("attacker"));
        assert_eq!(finding.victim, pk("victim"));
        assert!(finding.sol_legged);
        // Victim paid 120 SOL for 10,000 tokens; at the attacker's rate
        // (100 SOL) they'd have paid 100 → loss 20 SOL.
        assert_eq!(finding.victim_loss_lamports, Some(20_000_000_000));
        // Attacker: out 115, in 100 → gain 15 SOL (tip excluded from trade).
        assert_eq!(finding.attacker_gain_lamports, Some(15_000_000_000));
        assert_eq!(finding.bundle_tip, Lamports(2_000_000));
    }

    #[test]
    fn criterion1_rejects_three_signers() {
        let (f, v, _) = canonical();
        let b = swap_meta("other", 3, 115_000_000_000, -10_000, 0);
        assert!(detect(&DetectorConfig::default(), [&f, &v, &b]).is_none());
        assert!(detect(&DetectorConfig::without_criterion(1).unwrap(), [&f, &v, &b]).is_some());
    }

    #[test]
    fn criterion1_rejects_same_victim_and_attacker() {
        let f = swap_meta("attacker", 1, -100_000_000_000, 10_000, 0);
        let v = swap_meta("attacker", 2, -120_000_000_000, 10_000, 0);
        let b = swap_meta("attacker", 3, 115_000_000_000, -10_000, 0);
        assert!(detect(&DetectorConfig::default(), [&f, &v, &b]).is_none());
    }

    #[test]
    fn criterion2_rejects_different_mints() {
        let (f, v, b) = canonical();
        let mut v2 = v.clone();
        v2.token_deltas[0].mint = Pubkey::derive("mint:OTHER");
        assert!(detect(&DetectorConfig::default(), [&f, &v2, &b]).is_none());
        // Criterion 3's direction check partially subsumes criterion 2 for
        // this shape: only with both disabled does the mismatch slip through
        // (the outer legs still satisfy criteria 1 and 4).
        let mut relaxed = DetectorConfig::without_criterion(2).unwrap();
        relaxed.rate_moves_against_victim = false;
        assert!(detect(&relaxed, [&f, &v2, &b]).is_some());
    }

    #[test]
    fn criterion3_rejects_rate_improving_first_leg() {
        // Attacker sells first (improves the victim's buy rate).
        let f = swap_meta("attacker", 1, 100_000_000_000, -10_000, 0);
        let v = swap_meta("victim", 2, -90_000_000_000, 10_000, 0);
        let b = swap_meta("attacker", 3, -95_000_000_000, 10_000, 2_000_000);
        assert!(detect(&DetectorConfig::default(), [&f, &v, &b]).is_none());
    }

    #[test]
    fn criterion3_rejects_victim_with_better_rate() {
        let f = swap_meta("attacker", 1, -100_000_000_000, 10_000, 0);
        let v = swap_meta("victim", 2, -90_000_000_000, 10_000, 0); // better rate!
        let b = swap_meta("attacker", 3, 95_000_000_000, -10_000, 0);
        assert!(detect(&DetectorConfig::default(), [&f, &v, &b]).is_none());
    }

    #[test]
    fn criterion4_rejects_unprofitable_attacker() {
        let f = swap_meta("attacker", 1, -100_000_000_000, 10_000, 0);
        let v = swap_meta("victim", 2, -120_000_000_000, 10_000, 0);
        // Attacker sells at a loss.
        let b = swap_meta("attacker", 3, 90_000_000_000, -10_000, 0);
        assert!(detect(&DetectorConfig::default(), [&f, &v, &b]).is_none());
        assert!(detect(&DetectorConfig::without_criterion(4).unwrap(), [&f, &v, &b]).is_some());
    }

    #[test]
    fn criterion5_excludes_tip_only_final() {
        // Two swaps then a pure tip transaction by the same first signer —
        // an app pattern, not an attack.
        let f = swap_meta("app-user", 1, -100_000_000_000, 10_000, 0);
        let v = swap_meta("someone", 2, -120_000_000_000, 10_000, 0);
        let tip_only = swap_meta("app-user", 3, 0, 0, 10_000);
        assert!(detect(&DetectorConfig::default(), [&f, &v, &tip_only]).is_none());
        // Without criterion 5 the naive bundle-level reading kicks in: the
        // first signer holds inventory the second swap appreciated, so the
        // pattern is (wrongly) admitted — exactly what the criterion is for.
        let finding = detect(
            &DetectorConfig::without_criterion(5).unwrap(),
            [&f, &v, &tip_only],
        )
        .expect("naive reading admits the app pattern");
        assert_eq!(finding.attacker, pk("app-user"));
        assert_eq!(finding.attacker_gain_lamports, None, "no exit leg");
        assert!(finding.victim_loss_lamports.unwrap() > 0);
    }

    #[test]
    fn without_criterion_rejects_out_of_range() {
        assert!(DetectorConfig::without_criterion(0).is_err());
        assert!(DetectorConfig::without_criterion(6).is_err());
        assert_eq!(
            DetectorConfig::without_criterion(9).unwrap_err(),
            InvalidCriterion(9)
        );
        for n in 1..=5 {
            assert!(DetectorConfig::without_criterion(n).is_ok());
        }
    }

    #[test]
    fn non_sol_sandwich_detected_but_unpriced() {
        // Token–token: A pays mint X for mint Y, etc.
        let mint_x = Pubkey::derive("mint:X");
        let mint_y = Pubkey::derive("mint:Y");
        let make = |label: &str, n: u64, dx: i128, dy: i128| {
            let kp = Keypair::from_label(label);
            TransactionMeta {
                tx_id: kp.sign(&n.to_le_bytes()),
                signer: kp.pubkey(),
                fee: Lamports(5_000),
                priority_fee: Lamports::ZERO,
                success: true,
                error: None,
                sol_deltas: vec![SolDelta {
                    account: kp.pubkey(),
                    delta: LamportDelta(-5_000),
                }],
                token_deltas: vec![
                    TokenDelta {
                        owner: kp.pubkey(),
                        mint: mint_x,
                        delta: dx,
                    },
                    TokenDelta {
                        owner: kp.pubkey(),
                        mint: mint_y,
                        delta: dy,
                    },
                ],
            }
        };
        let f = make("attacker", 1, -1_000_000, 500_000);
        let v = make("victim", 2, -1_300_000, 500_000);
        let b = make("attacker", 3, 1_200_000, -500_000);
        let finding = detect(&DetectorConfig::default(), [&f, &v, &b]).expect("detected");
        assert!(!finding.sol_legged);
        assert_eq!(finding.victim_loss_lamports, None);
        assert_eq!(finding.attacker_gain_lamports, None);
    }

    #[test]
    fn sell_direction_sandwich_priced() {
        // Victim SELLS tokens; attacker sells first, re-buys after.
        let f = swap_meta("attacker", 1, 100_000_000_000, -10_000, 0);
        let v = swap_meta("victim", 2, 80_000_000_000, -10_000, 0); // victim receives less per token
        let b = swap_meta("attacker", 3, -85_000_000_000, 10_000, 0);
        let finding = detect(&DetectorConfig::default(), [&f, &v, &b]).expect("detected");
        // At the attacker's rate the victim would have received 100 SOL;
        // they got 80 → loss 20 SOL.
        assert_eq!(finding.victim_loss_lamports, Some(20_000_000_000));
        // Attacker: received 100, re-bought for 85 → gain 15 SOL.
        assert_eq!(finding.attacker_gain_lamports, Some(15_000_000_000));
    }

    #[test]
    fn trade_extraction_strips_fee_and_tip() {
        let m = swap_meta("attacker", 9, -1_000_000, 42, 777_000);
        let t = extract_trade(&m).unwrap();
        assert_eq!(t.paid, (Currency::Sol, 1_000_000));
        assert_eq!(t.received, (Currency::Token(mint()), 42));
    }

    #[test]
    fn transfer_only_is_not_a_trade() {
        let m = swap_meta("someone", 9, -1_000_000, 0, 0);
        assert!(extract_trade(&m).is_none());
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn extract_orientation_matches_delta_signs(
            sol_mag in 1_001i64..1_000_000_000_000,
            sol_sign in prop::bool::ANY,
            tok_mag in 1i128..1_000_000_000_000,
            tok_sign in prop::bool::ANY,
            tip in 0u64..10_000_000,
        ) {
            // Opposite-signed legs form a trade whose paid/received sides
            // follow the delta signs; same-signed legs are not a trade.
            let sol = if sol_sign { sol_mag } else { -sol_mag };
            let tokens = if tok_sign { tok_mag } else { -tok_mag };
            let m = swap_meta("prop", 1, sol, tokens, tip);
            match extract_trade(&m) {
                Some(t) => {
                    prop_assert!(sol_sign != tok_sign, "one leg in, one leg out");
                    let (sol_leg, tok_leg) = if sol_sign {
                        (t.received, t.paid)
                    } else {
                        (t.paid, t.received)
                    };
                    prop_assert_eq!(sol_leg, (Currency::Sol, sol_mag as u128));
                    prop_assert_eq!(
                        tok_leg,
                        (Currency::Token(mint()), tok_mag as u128)
                    );
                    // Rate is finite and positive for every extracted trade.
                    prop_assert!(t.rate().is_finite());
                    prop_assert!(t.rate() > 0.0);
                }
                None => prop_assert!(
                    sol_sign == tok_sign,
                    "opposite-signed legs above dust must extract"
                ),
            }
        }

        #[test]
        fn zero_amount_legs_rejected(
            sol in -1_000i64..1_001,
            tip in 0u64..10_000_000,
        ) {
            // A dust-scale SOL move with no token leg is never a trade, and
            // a zero token delta contributes no leg at all.
            let no_tokens = swap_meta("prop", 2, sol, 0, tip);
            prop_assert!(extract_trade(&no_tokens).is_none());

            let mut zero_tok = swap_meta("prop", 3, sol, 1, tip);
            zero_tok.token_deltas[0].delta = 0;
            prop_assert!(extract_trade(&zero_tok).is_none());
        }

        #[test]
        fn fee_and_tip_never_leak_into_the_trade(
            sol_mag in 1_001i64..1_000_000_000,
            tok in 1i128..1_000_000,
            tip in 0u64..50_000_000,
        ) {
            // The extracted SOL leg must equal the market move exactly,
            // regardless of how large the tip was.
            let m = swap_meta("prop", 4, -sol_mag, tok, tip);
            let t = extract_trade(&m).expect("valid trade");
            prop_assert_eq!(t.paid, (Currency::Sol, sol_mag as u128));
        }
    }
}
