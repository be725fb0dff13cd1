//! Jito tip accounts.
//!
//! Jito designates eight well-known tip payment accounts; a bundle pays its
//! tip by including a plain SOL transfer to any of them. The tip is the
//! auction bid that decides bundle priority (paper §2.3).

use std::sync::LazyLock;

use sandwich_ledger::{Instruction, SystemInstruction, Transaction, TransactionMeta};
use sandwich_types::{Lamports, Pubkey};

/// Number of designated tip accounts (as on mainnet Jito).
pub const TIP_ACCOUNT_COUNT: usize = 8;

/// Derived once: the detector asks for these on every candidate
/// transaction, and each derivation is a `format!` plus a SHA-256.
static TIP_ACCOUNTS: LazyLock<[Pubkey; TIP_ACCOUNT_COUNT]> =
    LazyLock::new(|| std::array::from_fn(|i| Pubkey::derive(&format!("jito-tip-account-{i}"))));

/// The eight canonical tip accounts.
pub fn tip_accounts() -> &'static [Pubkey; TIP_ACCOUNT_COUNT] {
    &TIP_ACCOUNTS
}

/// True if `key` is one of the designated tip accounts.
pub fn is_tip_account(key: &Pubkey) -> bool {
    tip_accounts().contains(key)
}

/// A convenient tip account for builders (round-robins by seed).
pub fn tip_account(seed: u64) -> Pubkey {
    tip_accounts()[(seed % TIP_ACCOUNT_COUNT as u64) as usize]
}

/// Build a tip-paying instruction.
pub fn tip_ix(amount: Lamports, seed: u64) -> Instruction {
    Instruction::transfer(tip_account(seed), amount)
}

/// Declared tip of a transaction: the sum of its plain transfers to tip
/// accounts (inspected pre-execution for auction ordering).
pub fn declared_tip(tx: &Transaction) -> Lamports {
    tx.message
        .instructions
        .iter()
        .filter_map(|ix| match ix {
            Instruction::System(SystemInstruction::Transfer { to, lamports })
                if is_tip_account(to) =>
            {
                Some(*lamports)
            }
            _ => None,
        })
        .sum()
}

/// Realized tip of an executed transaction: lamports actually credited to
/// tip accounts according to its meta.
pub fn realized_tip(meta: &TransactionMeta) -> Lamports {
    meta.sol_deltas
        .iter()
        .filter(|d| d.delta.is_gain() && is_tip_account(&d.account))
        .map(|d| d.delta.magnitude())
        .sum()
}

/// True when the transaction's effects are nothing but tipping (plus fee):
/// the pattern excluded by detection criterion 5 (paper §3.2).
pub fn is_tip_only(meta: &TransactionMeta) -> bool {
    meta.is_sol_transfer_only_to(tip_accounts()) && realized_tip(meta) > Lamports::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_ledger::{Bank, TransactionBuilder};
    use sandwich_types::Keypair;

    #[test]
    fn eight_distinct_tip_accounts() {
        let accounts = tip_accounts();
        let mut dedup = accounts.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
        for a in accounts {
            assert!(is_tip_account(a));
        }
    }

    #[test]
    fn tip_accounts_are_derived_once() {
        assert!(std::ptr::eq(tip_accounts(), tip_accounts()));
    }

    #[test]
    fn derived_addresses_are_pinned() {
        // Base58 of every constant address the pipeline derives, as the
        // per-call derivation produced them: memoising them (or changing
        // the hash kernel) must not move one.
        let tips = [
            "BdCxWApwegKRk5ePtiNEeDabuXyLcVKSrELEHpxJQYYR",
            "9bkrMVmkqrzHVx4cHJLFZmZ5bdBGZ8vmXKKFqeTN5Bsd",
            "EcfB8B5yMynJJoAAfNeG1FbXdrfRqPZpAj5tH2ruinSz",
            "BoxoerDmLSvzKkUtzgiUHQmJEnHmLpBLVcff9KJZmfSC",
            "3V2fn7vLgiYca1EfZEhc1DwMajo3DkVqoJ4xHB8D5ikt",
            "CBmPgvD1nFkgw1fztHBtiXnHDMvAs1Co3VCdJ8S4oS3p",
            "38dBph5LxMH3W24Egh3GbXe9TBJGn3UraiiaV6BtL1PW",
            "7unwTroEZS9zSDwU6XMidVdVqkLzwERzERx7exRRLJFc",
        ];
        let got: Vec<String> = tip_accounts().iter().map(Pubkey::to_string).collect();
        assert_eq!(got, tips);
        let ids = [
            (
                sandwich_ledger::system_program_id(),
                "cMJZhGtJ5hWWnKKztFQUs64MjTh3X2C3LpfGwxvEpoV",
            ),
            (
                sandwich_ledger::token_program_id(),
                "4etwWYcziAanreJZ8jNJidENYmeNeLp853vCqJQzLvzu",
            ),
            (
                sandwich_ledger::native_sol_mint(),
                "4vxuHUVu1YMvWbdoi5nMzCWfN2Z2sAfQesBs2LPVfz24",
            ),
            (
                sandwich_dex::amm_program_id(),
                "ADiQfLxxHATyQSiDVc8TaqfxQnnr2BbEEJe7ChjXstyE",
            ),
        ];
        for (id, pinned) in ids {
            assert_eq!(id.to_string(), pinned);
        }
    }

    #[test]
    fn declared_tip_sums_tip_transfers() {
        let kp = Keypair::from_label("tipper");
        let tx = TransactionBuilder::new(kp)
            .instruction(tip_ix(Lamports(1_000), 0))
            .instruction(tip_ix(Lamports(2_000), 3))
            .transfer(Keypair::from_label("friend").pubkey(), Lamports(500))
            .build();
        assert_eq!(declared_tip(&tx), Lamports(3_000));
    }

    #[test]
    fn realized_tip_and_tip_only_from_meta() {
        let validator = Keypair::from_label("validator").pubkey();
        let bank = Bank::new(validator);
        let kp = Keypair::from_label("tipper");
        bank.airdrop(kp.pubkey(), Lamports::from_sol(1.0));
        let tx = TransactionBuilder::new(kp)
            .instruction(tip_ix(Lamports(5_000), 1))
            .build();
        let meta = bank.execute_transaction(&tx).unwrap();
        assert_eq!(realized_tip(&meta), Lamports(5_000));
        assert!(is_tip_only(&meta));
    }

    #[test]
    fn transfer_to_friend_is_not_tip_only() {
        let validator = Keypair::from_label("validator").pubkey();
        let bank = Bank::new(validator);
        let kp = Keypair::from_label("tipper");
        bank.airdrop(kp.pubkey(), Lamports::from_sol(1.0));
        let tx = TransactionBuilder::new(kp)
            .instruction(tip_ix(Lamports(5_000), 1))
            .transfer(Keypair::from_label("friend").pubkey(), Lamports(100))
            .build();
        let meta = bank.execute_transaction(&tx).unwrap();
        assert_eq!(realized_tip(&meta), Lamports(5_000));
        assert!(!is_tip_only(&meta));
    }
}
