//! The instruction set executed by the bank.
//!
//! Built-in system and token instructions are typed; third-party programs
//! (the DEX) receive opaque payloads they decode themselves, mirroring how
//! Solana programs own their instruction encodings.

use serde::{Deserialize, Serialize};

use sandwich_types::{Lamports, Pubkey};

/// System-program instructions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemInstruction {
    /// Move lamports from the transaction signer to `to`.
    Transfer {
        /// Recipient.
        to: Pubkey,
        /// Amount moved.
        lamports: Lamports,
    },
}

/// Token-program instructions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TokenInstruction {
    /// Create a new mint controlled by the signer.
    CreateMint {
        /// Address of the new mint.
        mint: Pubkey,
        /// Decimal places.
        decimals: u8,
        /// Display symbol.
        symbol: String,
    },
    /// Issue `amount` of `mint` to `to` (signer must be mint authority).
    MintTo {
        /// The mint being issued.
        mint: Pubkey,
        /// Receiving owner.
        to: Pubkey,
        /// Raw amount issued.
        amount: u64,
    },
    /// Move `amount` of `mint` from the signer to `to`.
    Transfer {
        /// The token mint.
        mint: Pubkey,
        /// Receiving owner.
        to: Pubkey,
        /// Raw amount moved.
        amount: u64,
    },
}

/// One instruction inside a transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instruction {
    /// Built-in system program.
    System(SystemInstruction),
    /// Built-in token program.
    Token(TokenInstruction),
    /// A registered third-party program with a program-defined payload.
    Program {
        /// The program to dispatch to.
        program_id: Pubkey,
        /// Serialized program-specific instruction.
        data: Vec<u8>,
    },
}

impl Instruction {
    /// Convenience: a SOL transfer from the signer.
    pub fn transfer(to: Pubkey, lamports: Lamports) -> Self {
        Instruction::System(SystemInstruction::Transfer { to, lamports })
    }

    /// Convenience: a token transfer from the signer.
    pub fn token_transfer(mint: Pubkey, to: Pubkey, amount: u64) -> Self {
        Instruction::Token(TokenInstruction::Transfer { mint, to, amount })
    }
}
