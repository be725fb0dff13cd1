//! Adversarial near-miss generator.
//!
//! Starts from a randomized *true* sandwich (front-run, victim, back-run as
//! executed transaction metas) and mutates it along exactly one criterion
//! boundary per family, plus metamorphic variants (permuted order, split
//! across bundles, zero-delta padding). The detector must reject every
//! mutant while still catching the unmutated original — the conformance
//! suite and `conformance_bench` assert exactly that, per family.
//!
//! The generator is fully seeded: the same seed yields the same cases, so
//! failures reproduce and the bench snapshot is stable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sandwich_jito::tip_account;
use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
use sandwich_types::{Keypair, LamportDelta, Lamports, Pubkey};

use crate::labels::NearMissFamily;

/// One generated case: the true sandwich and its mutants.
#[derive(Clone, Debug)]
pub struct NearMissCase {
    /// The family every mutant belongs to.
    pub family: NearMissFamily,
    /// The unmutated true sandwich (three metas, bundle order).
    pub original: Vec<TransactionMeta>,
    /// The mutants, each inner vec one bundle's worth of metas. Most
    /// families produce a single length-3 bundle; `SplitAcrossBundles`
    /// produces two bundles, `ZeroDeltaPadding` one length-4 bundle, and
    /// `PermutedOrder` one bundle per non-identity permutation.
    pub mutated: Vec<Vec<TransactionMeta>>,
}

/// Seeded generator of [`NearMissCase`]s.
pub struct NearMissFuzzer {
    rng: StdRng,
    seed: u64,
    counter: u64,
}

impl NearMissFuzzer {
    /// A fuzzer that will generate the same cases for the same seed.
    pub fn new(seed: u64) -> Self {
        NearMissFuzzer {
            rng: StdRng::seed_from_u64(seed),
            seed,
            counter: 0,
        }
    }

    /// Generate `per_family` cases for every family, in family order.
    pub fn cases(&mut self, per_family: usize) -> Vec<NearMissCase> {
        let mut out = Vec::with_capacity(per_family * NearMissFamily::all().len());
        for family in NearMissFamily::all() {
            for _ in 0..per_family {
                out.push(self.case(family));
            }
        }
        out
    }

    /// Generate one case of the given family.
    pub fn case(&mut self, family: NearMissFamily) -> NearMissCase {
        let s = self.sandwich_shape();
        let original = vec![
            self.swap_meta(
                &s.attacker,
                -(s.front_sol as i64),
                s.tokens as i128,
                s.mint,
                0,
            ),
            self.swap_meta(
                &s.victim,
                -(s.victim_sol as i64),
                s.tokens as i128,
                s.mint,
                0,
            ),
            self.swap_meta(
                &s.attacker,
                s.back_sol as i64,
                -(s.tokens as i128),
                s.mint,
                s.tip,
            ),
        ];

        let mutated: Vec<Vec<TransactionMeta>> = match family {
            NearMissFamily::DifferentOuterSigner => {
                // The profitable back-run is signed by a third party: the
                // price action is identical, only criterion 1 can object.
                let third = self.keypair("third");
                vec![vec![
                    original[0].clone(),
                    original[1].clone(),
                    self.swap_meta(
                        &third,
                        s.back_sol as i64,
                        -(s.tokens as i128),
                        s.mint,
                        s.tip,
                    ),
                ]]
            }
            NearMissFamily::DisjointCurrencies => {
                // The exit leg sells a *different* token for the same SOL
                // proceeds: front/victim still match (criteria 1, 3, 4 all
                // hold) but the final currency set is disjoint.
                let other_mint = self.fresh_mint("other");
                vec![vec![
                    original[0].clone(),
                    original[1].clone(),
                    self.swap_meta(
                        &s.attacker,
                        s.back_sol as i64,
                        -(s.tokens as i128),
                        other_mint,
                        s.tip,
                    ),
                ]]
            }
            NearMissFamily::RateMovedForVictim => {
                // The victim pays *less* per token than the front-run — the
                // rate moved for them, so there is no sandwich. Everything
                // else (signers, currencies, attacker profit) still holds.
                let better_sol = (s.front_sol as f64 * (0.55 + self.rng.gen::<f64>() * 0.4)) as u64;
                vec![vec![
                    original[0].clone(),
                    self.swap_meta(
                        &s.victim,
                        -(better_sol.max(2_000) as i64),
                        s.tokens as i128,
                        s.mint,
                        0,
                    ),
                    original[2].clone(),
                ]]
            }
            NearMissFamily::UnprofitableAttacker => {
                // The exit recovers less SOL than the entry paid: both
                // profit branches of criterion 4 fail, everything else holds.
                let loss_sol = (s.front_sol as f64 * (0.5 + self.rng.gen::<f64>() * 0.45)) as u64;
                vec![vec![
                    original[0].clone(),
                    original[1].clone(),
                    self.swap_meta(
                        &s.attacker,
                        loss_sol.max(2_000) as i64,
                        -(s.tokens as i128),
                        s.mint,
                        s.tip,
                    ),
                ]]
            }
            NearMissFamily::TipOnlyFinal => {
                // The app-bundler pattern: front-run-shaped buy, victim-
                // shaped buy, and a final transaction that only tips. The
                // naive bundle-level reading of criteria 1–4 flags it (the
                // first signer holds appreciated inventory); criterion 5
                // exists to exclude exactly this.
                vec![vec![
                    original[0].clone(),
                    original[1].clone(),
                    self.tip_only_meta(&s.attacker, s.tip),
                ]]
            }
            NearMissFamily::PermutedOrder => {
                // Every non-identity order of the true sandwich.
                [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
                    .iter()
                    .map(|perm| perm.iter().map(|&i| original[i].clone()).collect())
                    .collect()
            }
            NearMissFamily::SplitAcrossBundles => {
                // Front + victim land in one bundle, the back-run in another:
                // no single bundle contains the triple.
                vec![
                    vec![original[0].clone(), original[1].clone()],
                    vec![original[2].clone()],
                ]
            }
            NearMissFamily::ZeroDeltaPadding => {
                // A zero-market-effect transaction wedged before the back-
                // run makes the bundle length-4: the paper's length-3
                // methodology never fetches it (the extended scan must
                // still find the embedded triple at [0, 1, 3]).
                let bystander = self.keypair("bystander");
                vec![vec![
                    original[0].clone(),
                    original[1].clone(),
                    self.zero_delta_meta(&bystander),
                    original[2].clone(),
                ]]
            }
            NearMissFamily::SelfSandwich => {
                // The front-runner signs the victim-shaped trade too: the
                // price action is a sandwich's, only criterion 1's "distinct
                // from tx 2" can object.
                vec![vec![
                    original[0].clone(),
                    self.swap_meta(
                        &s.attacker,
                        -(s.victim_sol as i64),
                        s.tokens as i128,
                        s.mint,
                        0,
                    ),
                    original[2].clone(),
                ]]
            }
            NearMissFamily::VictimAtAttackersRate => {
                // The victim pays what the front-run paid for the same
                // tokens: equal rates, so only criterion 3's strict `>`
                // can object.
                vec![vec![
                    original[0].clone(),
                    self.swap_meta(
                        &s.victim,
                        -(s.front_sol as i64),
                        s.tokens as i128,
                        s.mint,
                        0,
                    ),
                    original[2].clone(),
                ]]
            }
        };

        NearMissCase {
            family,
            original,
            mutated,
        }
    }

    // ----- shape sampling and meta construction --------------------------

    fn sandwich_shape(&mut self) -> Shape {
        let case = self.counter;
        let front_sol = self.rng.gen_range(1_000_000_000u64..200_000_000_000);
        // Victim pays 5–50% more per token; attacker exits 2–20% up.
        let victim_sol = (front_sol as f64 * (1.05 + self.rng.gen::<f64>() * 0.45)) as u64;
        let back_sol = (front_sol as f64 * (1.02 + self.rng.gen::<f64>() * 0.18)) as u64;
        let tokens = self.rng.gen_range(10_000u64..10_000_000);
        let tip = self.rng.gen_range(150_000u64..5_000_000);
        Shape {
            attacker: self.keypair(&format!("attacker-{case}")),
            victim: self.keypair(&format!("victim-{case}")),
            mint: self.fresh_mint("pool"),
            front_sol,
            victim_sol,
            back_sol,
            tokens,
            tip,
        }
    }

    fn keypair(&mut self, role: &str) -> Keypair {
        self.counter += 1;
        Keypair::from_label(&format!("fuzz-{}-{role}-{}", self.seed, self.counter))
    }

    fn fresh_mint(&mut self, tag: &str) -> Pubkey {
        self.counter += 1;
        Pubkey::derive(&format!("fuzz-mint-{}-{tag}-{}", self.seed, self.counter))
    }

    fn next_id(&mut self, kp: &Keypair) -> sandwich_ledger::TransactionId {
        self.counter += 1;
        kp.sign(&self.counter.to_le_bytes())
    }

    /// A swap meta: the signer's SOL moves by `sol_trade` (before fee/tip)
    /// and their `mint` balance by `tokens`.
    fn swap_meta(
        &mut self,
        kp: &Keypair,
        sol_trade: i64,
        tokens: i128,
        mint: Pubkey,
        tip: u64,
    ) -> TransactionMeta {
        let fee = 5_000i64;
        let mut sol_deltas = vec![SolDelta {
            account: kp.pubkey(),
            delta: LamportDelta(sol_trade - fee - tip as i64),
        }];
        if tip > 0 {
            sol_deltas.push(SolDelta {
                account: tip_account(self.counter),
                delta: LamportDelta(tip as i64),
            });
        }
        TransactionMeta {
            tx_id: self.next_id(kp),
            signer: kp.pubkey(),
            fee: Lamports(fee as u64),
            priority_fee: Lamports::ZERO,
            success: true,
            error: None,
            sol_deltas,
            token_deltas: if tokens != 0 {
                vec![TokenDelta {
                    owner: kp.pubkey(),
                    mint,
                    delta: tokens,
                }]
            } else {
                vec![]
            },
        }
    }

    /// A transaction whose only effect is a Jito tip (plus fee).
    fn tip_only_meta(&mut self, kp: &Keypair, tip: u64) -> TransactionMeta {
        self.swap_meta(kp, 0, 0, Pubkey::derive("unused"), tip.max(1_000))
    }

    /// A transaction with no market effect at all (fee only).
    fn zero_delta_meta(&mut self, kp: &Keypair) -> TransactionMeta {
        let fee = 5_000i64;
        TransactionMeta {
            tx_id: self.next_id(kp),
            signer: kp.pubkey(),
            fee: Lamports(fee as u64),
            priority_fee: Lamports::ZERO,
            success: true,
            error: None,
            sol_deltas: vec![SolDelta {
                account: kp.pubkey(),
                delta: LamportDelta(-fee),
            }],
            token_deltas: vec![],
        }
    }
}

struct Shape {
    attacker: Keypair,
    victim: Keypair,
    mint: Pubkey,
    front_sol: u64,
    victim_sol: u64,
    back_sol: u64,
    tokens: u64,
    tip: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let a: Vec<_> = NearMissFuzzer::new(7).cases(2);
        let b: Vec<_> = NearMissFuzzer::new(7).cases(2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.family, y.family);
            assert_eq!(
                x.original.iter().map(|m| m.tx_id).collect::<Vec<_>>(),
                y.original.iter().map(|m| m.tx_id).collect::<Vec<_>>()
            );
        }
        let c = NearMissFuzzer::new(8).case(NearMissFamily::TipOnlyFinal);
        let d = NearMissFuzzer::new(9).case(NearMissFamily::TipOnlyFinal);
        assert_ne!(c.original[0].tx_id, d.original[0].tx_id, "seeds differ");
    }

    #[test]
    fn every_family_produced_with_expected_shapes() {
        let mut fuzzer = NearMissFuzzer::new(3);
        for family in NearMissFamily::all() {
            let case = fuzzer.case(family);
            assert_eq!(case.family, family);
            assert_eq!(case.original.len(), 3);
            match family {
                NearMissFamily::PermutedOrder => assert_eq!(case.mutated.len(), 5),
                NearMissFamily::SplitAcrossBundles => {
                    assert_eq!(case.mutated.len(), 2);
                    assert_eq!(case.mutated[0].len(), 2);
                    assert_eq!(case.mutated[1].len(), 1);
                }
                NearMissFamily::ZeroDeltaPadding => {
                    assert_eq!(case.mutated.len(), 1);
                    assert_eq!(case.mutated[0].len(), 4);
                }
                _ => {
                    assert_eq!(case.mutated.len(), 1);
                    assert_eq!(case.mutated[0].len(), 3);
                }
            }
        }
    }
}
