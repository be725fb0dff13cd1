//! Accounts and their typed state.
//!
//! Real Solana accounts are raw byte blobs owned by programs. The detector
//! and the explorer API only ever look at *decoded* state (balances, mints,
//! pool reserves), so this simulation stores accounts in decoded form, with
//! an opaque byte variant reserved for third-party programs such as the DEX.

use std::sync::LazyLock;

use serde::{Deserialize, Serialize};

use sandwich_types::{Lamports, Pubkey};

// Each derivation is a SHA-256, and the simulator and the AMM ask for the
// SOL mint on every swap, so the built-in addresses are derived once.
static SYSTEM_PROGRAM_ID: LazyLock<Pubkey> = LazyLock::new(|| Pubkey::derive("system_program"));
static TOKEN_PROGRAM_ID: LazyLock<Pubkey> = LazyLock::new(|| Pubkey::derive("token_program"));
static NATIVE_SOL_MINT: LazyLock<Pubkey> = LazyLock::new(|| Pubkey::derive("native_sol_mint"));

/// Address of the built-in system program.
pub fn system_program_id() -> Pubkey {
    *SYSTEM_PROGRAM_ID
}

/// Address of the built-in token program.
pub fn token_program_id() -> Pubkey {
    *TOKEN_PROGRAM_ID
}

/// The mint address used to denote native SOL in trade records.
///
/// Solana wraps SOL as the WSOL mint for DEX trades; we use a fixed derived
/// address the same way.
pub fn native_sol_mint() -> Pubkey {
    *NATIVE_SOL_MINT
}

/// Typed account state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccountData {
    /// A plain wallet with no extra state.
    Wallet,
    /// A token mint.
    Mint {
        /// Who may issue new supply.
        authority: Pubkey,
        /// Decimal places of the token.
        decimals: u8,
        /// Total issued supply (raw units).
        supply: u64,
        /// Human-readable symbol for reports.
        symbol: String,
    },
    /// A token balance held by `owner` for `mint`.
    TokenAccount {
        /// The wallet that owns this balance.
        owner: Pubkey,
        /// The token mint.
        mint: Pubkey,
        /// Raw token amount.
        amount: u64,
    },
    /// Program-owned opaque state (e.g. AMM pool reserves).
    ProgramState {
        /// The owning program.
        program: Pubkey,
        /// Program-defined serialized state.
        bytes: Vec<u8>,
    },
}

/// An on-ledger account: lamport balance plus typed state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Account {
    /// SOL balance.
    pub lamports: Lamports,
    /// Typed state.
    pub data: AccountData,
}

impl Account {
    /// A wallet holding `lamports`.
    pub fn wallet(lamports: Lamports) -> Self {
        Account {
            lamports,
            data: AccountData::Wallet,
        }
    }

    /// An empty wallet.
    pub fn empty_wallet() -> Self {
        Account::wallet(Lamports::ZERO)
    }

    /// Token amount if this is a token account.
    pub fn token_amount(&self) -> Option<u64> {
        match &self.data {
            AccountData::TokenAccount { amount, .. } => Some(*amount),
            _ => None,
        }
    }
}

/// Derived address of the token account holding `owner`'s balance of `mint`.
///
/// Mirrors Solana's associated-token-account derivation: one canonical
/// address per (owner, mint) pair.
pub fn token_account_address(owner: &Pubkey, mint: &Pubkey) -> Pubkey {
    Pubkey::derive_with(owner, &format!("ata:{mint}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_types::Keypair;

    #[test]
    fn ata_derivation_is_canonical() {
        let owner = Keypair::from_label("o").pubkey();
        let mint = Pubkey::derive("mint:DOGE");
        assert_eq!(
            token_account_address(&owner, &mint),
            token_account_address(&owner, &mint)
        );
        let other_mint = Pubkey::derive("mint:CAT");
        assert_ne!(
            token_account_address(&owner, &mint),
            token_account_address(&owner, &other_mint)
        );
    }

    #[test]
    fn program_ids_are_distinct() {
        assert_ne!(system_program_id(), token_program_id());
        assert_ne!(system_program_id(), native_sol_mint());
    }

    #[test]
    fn wallet_constructor() {
        let a = Account::wallet(Lamports(10));
        assert_eq!(a.lamports, Lamports(10));
        assert_eq!(a.token_amount(), None);
    }
}
