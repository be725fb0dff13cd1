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
//! [`judge`] extracts a trio's trades and evaluates every criterion once,
//! without stopping at the first that fails; its [`Verdict`] records which
//! failed. [`detect`] asks the verdict whether a [`DetectorConfig`] — the
//! mask of criteria applied — admits the trio, so the ablation study
//! answers every mask from one verdict instead of re-running the detector.

use std::collections::BTreeMap;

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
    let tokens = (meta.token_deltas.iter())
        .filter(|d| d.owner == signer && d.delta != 0)
        .map(|d| (Currency::Token(d.mint), d.delta));
    // SOL leg: the signer's net SOL excluding fee and tips paid, ignoring
    // dust below the fee scale (rounding of internal transfers).
    let sol_net = meta.sol_delta_of(&signer).0 + meta.fee.0 as i64 + realized_tip(meta).0 as i64;
    let sol = (!(-1_000..=1_000).contains(&sol_net)).then_some((Currency::Sol, sol_net.into()));
    let (mut paid, mut received) = (None, None);
    for (currency, delta) in tokens.chain(sol) {
        let side = if delta < 0 { &mut paid } else { &mut received };
        if side.replace((currency, delta.unsigned_abs())).is_some() {
            return None; // more than one currency paid, or received
        }
    }
    Some(Trade {
        paid: paid?,
        received: received?,
    })
}

/// A set of the paper's criteria: criterion `n` is bit `n - 1`.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Criteria(u8);

impl Criteria {
    /// The set of the listed criteria, each numbered 1–5.
    pub fn of(ns: &[u8]) -> Result<Criteria, InvalidCriterion> {
        ns.iter().try_fold(Criteria(0), |set, &n| match n {
            1..=5 => Ok(set.with(n, true)),
            _ => Err(InvalidCriterion(n)),
        })
    }

    /// The set with criterion `n` added when `member` holds.
    fn with(self, n: u8, member: bool) -> Criteria {
        Criteria(self.0 | u8::from(member) << (n - 1))
    }
}

impl std::fmt::Debug for Criteria {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let members = (1..=5u8).filter(|n| self.0 & 1 << (n - 1) != 0);
        f.debug_set().entries(members).finish()
    }
}

/// Which criteria the detector applies: a mask over the five, all of them
/// by default; the ablation study switches some off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorConfig {
    /// The criteria switched off.
    disabled: Criteria,
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
        DetectorConfig::default().without(n)
    }

    /// This config with criterion `n` (1–5) disabled as well.
    pub fn without(self, n: u8) -> Result<Self, InvalidCriterion> {
        let disabled = Criteria(self.disabled.0 | Criteria::of(&[n])?.0);
        Ok(DetectorConfig { disabled })
    }

    /// Whether criterion `n` (1–5) is applied.
    pub fn applies(&self, n: u8) -> bool {
        self.disabled.0 & 1 << (n - 1) == 0
    }

    /// Whether a trio failing exactly `failed` passes the applied criteria.
    fn passes(&self, failed: Criteria) -> bool {
        failed.0 & !self.disabled.0 == 0
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

/// The detector's judgement of one length-3 trio: its three trades and
/// every criterion it fails, each evaluated once with no early exit, so one
/// verdict answers every [`DetectorConfig`] ([`Verdict::admitted_by`]).
#[derive(Clone, Debug)]
pub struct Verdict<'a> {
    metas: [&'a TransactionMeta; 3],
    trades: [Option<Trade>; 3],
    failed: Criteria,
    /// Set exactly when the final transaction only tips.
    naive_failed: Option<Criteria>,
}

/// Judge the metas of a length-3 bundle against all five criteria. Criteria
/// 2–4 read trades, so they are judged only when all three transactions
/// extract one; a trio where one does not is rejected under every mask with
/// no criterion to blame. A tip-only final is also judged in the naive
/// reading criterion 5 exists to exclude: criteria 1–3 over the first two
/// trades, "profit" read as the first signer holding inventory the second
/// trade appreciated (every extracted trade does: it never fails 4).
pub fn judge(metas: [&TransactionMeta; 3]) -> Verdict<'_> {
    let [m1, m2, m3] = metas;
    let trades = metas.map(extract_trade);
    let tip_only_final = is_tip_only(m3);
    // Criterion 1: txs 1 and 3 share a signer distinct from tx 2's.
    let outer = Criteria(0).with(1, !(m1.signer == m3.signer && m1.signer != m2.signer));
    let (mut failed, mut naive) = (outer.with(5, tip_only_final), outer);
    if let [Some(t1), Some(t2), t3] = &trades {
        let against = rate_moves_against(t1, t2);
        naive = outer.with(2, !same_currencies(&[t1, t2])).with(3, !against);
        if let Some(t3) = t3 {
            failed = failed
                .with(2, !same_currencies(&[t1, t2, t3]))
                .with(3, !against)
                .with(4, !attacker_profits(t1, t3));
        }
    }
    let naive_failed = tip_only_final.then_some(naive);
    Verdict {
        metas,
        trades,
        failed,
        naive_failed,
    }
}

/// Criterion 2: the same currency set in every trade.
fn same_currencies(trades: &[&Trade]) -> bool {
    trades
        .windows(2)
        .all(|w| w[0].currencies() == w[1].currencies())
}

/// Criterion 3: the front-run trades in the victim's direction, and the
/// victim's realized rate is strictly worse than the attacker's.
fn rate_moves_against(t1: &Trade, t2: &Trade) -> bool {
    t1.paid.0 == t2.paid.0 && t1.received.0 == t2.received.0 && t2.rate() > t1.rate()
}

/// The attacker's net in each currency a leg of the front- or back-run
/// trades, in leg order (fees and tips excluded — not market flows).
fn attacker_nets(t1: &Trade, t3: &Trade) -> [(Currency, i128); 4] {
    let net = |currency| -> i128 {
        let leg = |(c, amount): (Currency, u128)| if c == currency { amount as i128 } else { 0 };
        [t1, t3].iter().map(|t| leg(t.received) - leg(t.paid)).sum()
    };
    [t1.paid.0, t1.received.0, t3.paid.0, t3.received.0].map(|c| (c, net(c)))
}

/// Criterion 4. The paper's wording has two branches: "net gains currency
/// with no payment", OR "ends with net profit when looking at quantity of
/// coin sold" — the latter (the net in what the back-run receives) covers
/// attackers who dump extra inventory in the back-run (footnote 7), ending
/// token-negative but proceeds-positive.
fn attacker_profits(t1: &Trade, t3: &Trade) -> bool {
    let nets = attacker_nets(t1, t3);
    let pure_profit = nets.iter().any(|&(_, v)| v > 0) && nets.iter().all(|&(_, v)| v >= 0);
    pure_profit || nets[3].1 > 0
}

impl Verdict<'_> {
    /// The criteria the trio fails (2–4 only when every trade extracted).
    pub fn failed(&self) -> Criteria {
        self.failed
    }

    /// For a tip-only final transaction, the criteria the naive reading
    /// fails: what disabling criterion 5 falls back to.
    pub fn naive_failed(&self) -> Option<Criteria> {
        self.naive_failed
    }

    /// The first transaction (0–2) that is not a two-currency trade.
    pub fn unextracted(&self) -> Option<usize> {
        self.trades.iter().position(Option::is_none)
    }

    /// The three signers (criterion 1's evidence).
    pub fn signers(&self) -> [Pubkey; 3] {
        self.metas.map(|m| m.signer)
    }

    /// Each trade's currency set (criterion 2's evidence).
    pub fn currencies(&self) -> [Option<[Currency; 2]>; 3] {
        self.trades.map(|t| t.map(|t| t.currencies()))
    }

    /// The front-run's and the victim's rates (criterion 3's evidence).
    pub fn rates(&self) -> Option<(f64, f64)> {
        Some((self.trades[0]?.rate(), self.trades[1]?.rate()))
    }

    /// The attacker's per-currency nets (criterion 4's evidence).
    pub fn attacker_nets(&self) -> Option<BTreeMap<Currency, i128>> {
        Some(attacker_nets(&self.trades[0]?, &self.trades[2]?).into())
    }

    /// The trades `config` admits the trio on; no back-run in the naive reading.
    fn admitted_trades(&self, config: &DetectorConfig) -> Option<(&Trade, &Trade, Option<&Trade>)> {
        match (&self.trades, self.naive_failed) {
            ([Some(t1), Some(t2), _], Some(naive)) => {
                (!config.applies(5) && config.passes(naive)).then_some((t1, t2, None))
            }
            ([Some(t1), Some(t2), Some(t3)], _) => {
                config.passes(self.failed).then_some((t1, t2, Some(t3)))
            }
            _ => None,
        }
    }

    /// Whether `config` admits the trio as a sandwich.
    pub fn admits(&self, config: &DetectorConfig) -> bool {
        self.admitted_trades(config).is_some()
    }

    /// The finding `config` admits, priced (§4.1); built only on admission.
    pub fn admitted_by(&self, config: &DetectorConfig) -> Option<SandwichFinding> {
        let (t1, t2, t3) = self.admitted_trades(config)?;
        let currencies = t2.currencies().to_vec();
        let sol_legged = currencies.contains(&Currency::Sol);
        let [m1, m2, m3] = self.metas;
        Some(SandwichFinding {
            attacker: m1.signer,
            victim: m2.signer,
            currencies,
            sol_legged,
            victim_loss_lamports: quantify_victim_loss(t1, t2).filter(|_| sol_legged),
            attacker_gain_lamports: t3
                .and_then(|t3| quantify_attacker_gain(t1, t3))
                .filter(|_| sol_legged),
            bundle_tip: realized_tip(m1) + realized_tip(m2) + realized_tip(m3),
        })
    }
}

/// Apply the criteria `config` applies to the metas of a length-3 bundle.
pub fn detect(config: &DetectorConfig, metas: [&TransactionMeta; 3]) -> Option<SandwichFinding> {
    judge(metas).admitted_by(config)
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
    for i in 0..n {
        for j in (i + 1)..n {
            if findings.iter().any(|([_, victim, _], _)| *victim == j) {
                continue;
            }
            findings.extend(
                ((j + 1)..n).find_map(|k| {
                    Some(([i, j, k], detect(config, [metas[i], metas[j], metas[k]])?))
                }),
            );
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

    fn failed(ns: &[u8]) -> Criteria {
        Criteria::of(ns).unwrap()
    }

    #[test]
    fn canonical_sandwich_detected_and_priced() {
        let (f, v, b) = canonical();
        assert_eq!(judge([&f, &v, &b]).failed(), failed(&[]));
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
        assert_eq!(judge([&f, &v, &b]).failed(), failed(&[1]));
        assert!(detect(&DetectorConfig::default(), [&f, &v, &b]).is_none());
        assert!(detect(&DetectorConfig::without_criterion(1).unwrap(), [&f, &v, &b]).is_some());
    }

    #[test]
    fn criterion1_rejects_same_victim_and_attacker() {
        let f = swap_meta("attacker", 1, -100_000_000_000, 10_000, 0);
        let v = swap_meta("attacker", 2, -120_000_000_000, 10_000, 0);
        let b = swap_meta("attacker", 3, 115_000_000_000, -10_000, 0);
        assert_eq!(judge([&f, &v, &b]).failed(), failed(&[1]));
        assert!(detect(&DetectorConfig::default(), [&f, &v, &b]).is_none());
    }

    #[test]
    fn criterion2_rejects_different_mints() {
        let (f, v, b) = canonical();
        let mut v2 = v.clone();
        v2.token_deltas[0].mint = Pubkey::derive("mint:OTHER");
        // Criterion 3's direction check partially subsumes criterion 2 for
        // this shape: the trio fails both, so only with both disabled does
        // the mismatch slip through (the outer legs satisfy criteria 1 and 4).
        assert_eq!(judge([&f, &v2, &b]).failed(), failed(&[2, 3]));
        assert!(detect(&DetectorConfig::default(), [&f, &v2, &b]).is_none());
        let relaxed = DetectorConfig::without_criterion(2)
            .unwrap()
            .without(3)
            .unwrap();
        assert!(detect(&relaxed, [&f, &v2, &b]).is_some());
    }

    #[test]
    fn criterion3_rejects_rate_improving_first_leg() {
        // Attacker sells first (improves the victim's buy rate).
        let f = swap_meta("attacker", 1, 100_000_000_000, -10_000, 0);
        let v = swap_meta("victim", 2, -90_000_000_000, 10_000, 0);
        let b = swap_meta("attacker", 3, -95_000_000_000, 10_000, 2_000_000);
        assert_eq!(judge([&f, &v, &b]).failed(), failed(&[3]));
        assert!(detect(&DetectorConfig::default(), [&f, &v, &b]).is_none());
    }

    #[test]
    fn criterion3_rejects_victim_with_better_rate() {
        let f = swap_meta("attacker", 1, -100_000_000_000, 10_000, 0);
        let v = swap_meta("victim", 2, -90_000_000_000, 10_000, 0); // better rate!
        let b = swap_meta("attacker", 3, 95_000_000_000, -10_000, 0);
        // The exit recovers 95 of the 100 paid, so criterion 4 fails too.
        assert_eq!(judge([&f, &v, &b]).failed(), failed(&[3, 4]));
        assert!(detect(&DetectorConfig::default(), [&f, &v, &b]).is_none());
    }

    #[test]
    fn criterion3_rejects_victim_at_the_attackers_rate() {
        // "Strictly worse": a victim filled at the front-run's own rate was
        // not moved against, however profitable the exit.
        let (f, _, b) = canonical();
        let v = swap_meta("victim", 2, -100_000_000_000, 10_000, 0);
        assert_eq!(judge([&f, &v, &b]).failed(), failed(&[3]));
        assert!(detect(&DetectorConfig::without_criterion(3).unwrap(), [&f, &v, &b]).is_some());
    }

    #[test]
    fn criterion4_rejects_unprofitable_attacker() {
        let f = swap_meta("attacker", 1, -100_000_000_000, 10_000, 0);
        let v = swap_meta("victim", 2, -120_000_000_000, 10_000, 0);
        // Attacker sells at a loss.
        let b = swap_meta("attacker", 3, 90_000_000_000, -10_000, 0);
        assert_eq!(judge([&f, &v, &b]).failed(), failed(&[4]));
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
        let verdict = judge([&f, &v, &tip_only]);
        assert_eq!(verdict.failed(), failed(&[5]));
        assert_eq!(verdict.unextracted(), Some(2), "a tip is not a trade");
        assert_eq!(verdict.naive_failed(), Some(failed(&[])));
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
    fn verdict_evidence_reads_the_trades() {
        let (f, v, b) = canonical();
        let verdict = judge([&f, &v, &b]);
        assert_eq!(
            verdict.signers(),
            [pk("attacker"), pk("victim"), pk("attacker")]
        );
        let pair = [Currency::Sol, Currency::Token(mint())];
        assert_eq!(verdict.currencies(), [Some(pair); 3]);
        let (front, victim) = verdict.rates().unwrap();
        assert!(victim > front, "the victim pays more per token");
        let nets = verdict.attacker_nets().unwrap();
        assert_eq!(nets[&Currency::Sol], 15_000_000_000);
        assert_eq!(nets[&Currency::Token(mint())], 0);
        assert_eq!(verdict.unextracted(), None);
        assert_eq!(verdict.naive_failed(), None, "the final tx trades");
        assert_eq!(format!("{:?}", failed(&[2, 5])), "{2, 5}");
        assert_eq!(Criteria::of(&[0]), Err(InvalidCriterion(0)));
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
