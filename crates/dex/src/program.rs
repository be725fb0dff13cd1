//! The AMM as an on-chain program executed by the bank.
//!
//! Native SOL legs move as lamports on the pool account; token legs move
//! through token accounts owned by the pool address.

use std::sync::LazyLock;

use serde::{Deserialize, Serialize};

use sandwich_ledger::{native_sol_mint, Instruction, Program, TxContext, TxError};
use sandwich_types::{Lamports, Pubkey};

use crate::pool::PoolState;

static AMM_PROGRAM_ID: LazyLock<Pubkey> = LazyLock::new(|| Pubkey::derive("amm_program"));

/// Address of the AMM program (derived once: building and executing a
/// swap asks for it several times, and each derivation is a SHA-256).
pub fn amm_program_id() -> Pubkey {
    *AMM_PROGRAM_ID
}

/// Instructions understood by the AMM program.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AmmInstruction {
    /// Seed a new pool from the signer's balances.
    CreatePool {
        /// One side of the pair (native SOL sentinel allowed).
        mint_a: Pubkey,
        /// Deposit of `mint_a` (lamports when native).
        amount_a: u64,
        /// The other side of the pair.
        mint_b: Pubkey,
        /// Deposit of `mint_b`.
        amount_b: u64,
        /// LP fee in basis points.
        fee_bps: u16,
    },
    /// Exact-input swap with a slippage guard.
    Swap {
        /// Mint the signer pays.
        mint_in: Pubkey,
        /// Mint the signer receives (identifies the pool with `mint_in`).
        mint_out: Pubkey,
        /// Exact input amount.
        amount_in: u64,
        /// Minimum acceptable output — the user's slippage tolerance
        /// (paper §2.2); the whole transaction fails below it.
        min_amount_out: u64,
    },
}

/// Build the `CreatePool` instruction.
pub fn create_pool_ix(
    mint_a: Pubkey,
    amount_a: u64,
    mint_b: Pubkey,
    amount_b: u64,
    fee_bps: u16,
) -> Instruction {
    Instruction::Program {
        program_id: amm_program_id(),
        data: serde_json::to_vec(&AmmInstruction::CreatePool {
            mint_a,
            amount_a,
            mint_b,
            amount_b,
            fee_bps,
        })
        .unwrap(),
    }
}

/// Build the `Swap` instruction.
pub fn swap_ix(
    mint_in: Pubkey,
    mint_out: Pubkey,
    amount_in: u64,
    min_amount_out: u64,
) -> Instruction {
    Instruction::Program {
        program_id: amm_program_id(),
        data: serde_json::to_vec(&AmmInstruction::Swap {
            mint_in,
            mint_out,
            amount_in,
            min_amount_out,
        })
        .unwrap(),
    }
}

/// The AMM program.
pub struct AmmProgram;

impl AmmProgram {
    fn fail(message: impl Into<String>) -> TxError {
        TxError::Program {
            program: amm_program_id(),
            message: message.into(),
        }
    }

    /// Move `amount` of `mint` from `from` to `to`, using lamports for the
    /// native sentinel and token accounts otherwise.
    fn move_asset(
        ctx: &mut TxContext<'_>,
        mint: &Pubkey,
        from: Pubkey,
        to: Pubkey,
        amount: u64,
    ) -> Result<(), TxError> {
        if *mint == native_sol_mint() {
            ctx.transfer_lamports(from, to, Lamports(amount))
        } else {
            ctx.transfer_tokens(*mint, from, to, amount)
        }
    }

    fn create_pool(
        ctx: &mut TxContext<'_>,
        mint_a: Pubkey,
        amount_a: u64,
        mint_b: Pubkey,
        amount_b: u64,
        fee_bps: u16,
    ) -> Result<(), TxError> {
        if mint_a == mint_b {
            return Err(Self::fail("pair must be two distinct mints"));
        }
        if amount_a == 0 || amount_b == 0 {
            return Err(Self::fail("pool must be seeded on both sides"));
        }
        if fee_bps >= 10_000 {
            return Err(Self::fail("fee must be under 100%"));
        }
        let addr = PoolState::address_for(&mint_a, &mint_b);
        if ctx.program_state(&addr, &amm_program_id()).is_ok() {
            return Err(Self::fail("pool already exists"));
        }
        let signer = ctx.signer();
        Self::move_asset(ctx, &mint_a, signer, addr, amount_a)?;
        Self::move_asset(ctx, &mint_b, signer, addr, amount_b)?;
        let state = PoolState::new(mint_a, amount_a, mint_b, amount_b, fee_bps);
        ctx.set_program_state(addr, amm_program_id(), state.to_bytes());
        Ok(())
    }

    fn swap(
        ctx: &mut TxContext<'_>,
        mint_in: Pubkey,
        mint_out: Pubkey,
        amount_in: u64,
        min_amount_out: u64,
    ) -> Result<(), TxError> {
        let addr = PoolState::address_for(&mint_in, &mint_out);
        let bytes = ctx
            .program_state(&addr, &amm_program_id())
            .map_err(|_| Self::fail("no pool for pair"))?;
        let mut state =
            PoolState::from_bytes(&bytes).ok_or_else(|| Self::fail("corrupt pool state"))?;
        if state.other_mint(&mint_in) != Some(mint_out) {
            return Err(Self::fail("pair does not match pool"));
        }
        let amount_out = state
            .quote(&mint_in, amount_in)
            .ok_or_else(|| Self::fail("unquotable swap"))?;
        if amount_out < min_amount_out {
            return Err(Self::fail(format!(
                "slippage tolerance exceeded: out {amount_out} < min {min_amount_out}"
            )));
        }
        if amount_out == 0 {
            return Err(Self::fail("swap yields nothing"));
        }
        let signer = ctx.signer();
        Self::move_asset(ctx, &mint_in, signer, addr, amount_in)?;
        Self::move_asset(ctx, &mint_out, addr, signer, amount_out)?;
        state.apply(&mint_in, amount_in, amount_out);
        ctx.set_program_state(addr, amm_program_id(), state.to_bytes());
        Ok(())
    }
}

impl Program for AmmProgram {
    fn id(&self) -> Pubkey {
        amm_program_id()
    }

    fn execute(&self, data: &[u8], ctx: &mut TxContext<'_>) -> Result<(), TxError> {
        let ix: AmmInstruction =
            serde_json::from_slice(data).map_err(|_| TxError::MalformedInstruction)?;
        match ix {
            AmmInstruction::CreatePool {
                mint_a,
                amount_a,
                mint_b,
                amount_b,
                fee_bps,
            } => Self::create_pool(ctx, mint_a, amount_a, mint_b, amount_b, fee_bps),
            AmmInstruction::Swap {
                mint_in,
                mint_out,
                amount_in,
                min_amount_out,
            } => Self::swap(ctx, mint_in, mint_out, amount_in, min_amount_out),
        }
    }
}

/// Read a pool's current state straight from a bank.
pub fn pool_state(
    bank: &sandwich_ledger::Bank,
    mint_a: &Pubkey,
    mint_b: &Pubkey,
) -> Option<PoolState> {
    let addr = PoolState::address_for(mint_a, mint_b);
    match bank.account(&addr)?.data {
        sandwich_ledger::AccountData::ProgramState { bytes, .. } => PoolState::from_bytes(&bytes),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use sandwich_ledger::{Bank, TokenInstruction, TransactionBuilder};
    use sandwich_types::Keypair;

    fn create_mint_and_fund(
        bank: &Bank,
        lp: &Keypair,
        name: &str,
        amount: u64,
        nonce: u64,
    ) -> Pubkey {
        let mint = Pubkey::derive(&format!("mint:{name}"));
        let tx = TransactionBuilder::new(*lp)
            .nonce(nonce)
            .instruction(Instruction::Token(TokenInstruction::CreateMint {
                mint,
                decimals: 6,
                symbol: name.into(),
            }))
            .instruction(Instruction::Token(TokenInstruction::MintTo {
                mint,
                to: lp.pubkey(),
                amount,
            }))
            .build();
        let meta = bank.execute_transaction(&tx).unwrap();
        assert!(meta.success, "{:?}", meta.error);
        mint
    }

    fn setup_sol_pool() -> (Bank, Keypair, Pubkey) {
        let bank = Bank::new(Keypair::from_label("validator").pubkey());
        bank.register_program(Arc::new(AmmProgram));
        let lp = Keypair::from_label("lp");
        bank.airdrop(lp.pubkey(), Lamports::from_sol(2_000.0));
        let mint = create_mint_and_fund(&bank, &lp, "MEME", 10_000_000_000_000, 100);
        let tx = TransactionBuilder::new(lp)
            .nonce(101)
            .instruction(create_pool_ix(
                native_sol_mint(),
                1_000_000_000_000,
                mint,
                5_000_000_000_000,
                30,
            ))
            .build();
        let meta = bank.execute_transaction(&tx).unwrap();
        assert!(meta.success, "{:?}", meta.error);
        (bank, lp, mint)
    }

    #[test]
    fn create_pool_moves_reserves() {
        let (bank, _, mint) = setup_sol_pool();
        let state = pool_state(&bank, &native_sol_mint(), &mint).unwrap();
        let addr = state.address();
        assert_eq!(bank.lamports(&addr), Lamports(1_000_000_000_000));
        assert_eq!(bank.token_balance(&addr, &mint), 5_000_000_000_000);
    }

    #[test]
    fn buy_swap_executes_and_updates_pool() {
        let (bank, _, mint) = setup_sol_pool();
        let sol = native_sol_mint();
        let trader = Keypair::from_label("trader");
        bank.airdrop(trader.pubkey(), Lamports::from_sol(10.0));
        let quote = pool_state(&bank, &sol, &mint)
            .unwrap()
            .quote(&sol, 1_000_000_000)
            .unwrap();
        let tx = TransactionBuilder::new(trader)
            .instruction(swap_ix(sol, mint, 1_000_000_000, quote))
            .build();
        let meta = bank.execute_transaction(&tx).unwrap();
        assert!(meta.success, "{:?}", meta.error);
        assert_eq!(bank.token_balance(&trader.pubkey(), &mint), quote);
        // Detector-visible effects: SOL debit, token credit.
        assert!(meta.sol_delta_of(&trader.pubkey()).0 < 0);
        assert_eq!(meta.token_delta_of(&trader.pubkey(), &mint), quote as i128);
    }

    #[test]
    fn slippage_guard_fails_transaction() {
        let (bank, _, mint) = setup_sol_pool();
        let sol = native_sol_mint();
        let trader = Keypair::from_label("trader");
        bank.airdrop(trader.pubkey(), Lamports::from_sol(10.0));
        let quote = pool_state(&bank, &sol, &mint)
            .unwrap()
            .quote(&sol, 1_000_000_000)
            .unwrap();
        let tx = TransactionBuilder::new(trader)
            .instruction(swap_ix(sol, mint, 1_000_000_000, quote + 1))
            .build();
        let meta = bank.execute_transaction(&tx).unwrap();
        assert!(!meta.success);
        assert!(meta.error.as_deref().unwrap().contains("slippage"));
        assert_eq!(bank.token_balance(&trader.pubkey(), &mint), 0);
    }

    #[test]
    fn token_token_pool_swaps_without_sol_legs() {
        let bank = Bank::new(Keypair::from_label("validator").pubkey());
        bank.register_program(Arc::new(AmmProgram));
        let lp = Keypair::from_label("lp");
        bank.airdrop(lp.pubkey(), Lamports::from_sol(10.0));
        let a = create_mint_and_fund(&bank, &lp, "AAA", 1_000_000_000, 1);
        let b = create_mint_and_fund(&bank, &lp, "BBB", 2_000_000_000, 2);
        let tx = TransactionBuilder::new(lp)
            .nonce(3)
            .instruction(create_pool_ix(a, 500_000_000, b, 1_000_000_000, 30))
            .build();
        assert!(bank.execute_transaction(&tx).unwrap().success);

        let trader = Keypair::from_label("trader");
        bank.airdrop(trader.pubkey(), Lamports::from_sol(1.0));
        let fund = TransactionBuilder::new(lp)
            .nonce(4)
            .token_transfer(a, trader.pubkey(), 10_000_000)
            .build();
        assert!(bank.execute_transaction(&fund).unwrap().success);

        let swap = TransactionBuilder::new(trader)
            .instruction(swap_ix(a, b, 1_000_000, 0))
            .build();
        let meta = bank.execute_transaction(&swap).unwrap();
        assert!(meta.success, "{:?}", meta.error);
        // No SOL moves besides the fee — this is the 28% "non-SOL" class.
        assert_eq!(meta.sol_deltas.len(), 2); // trader fee debit + validator credit
        assert!(meta.token_delta_of(&trader.pubkey(), &a) < 0);
        assert!(meta.token_delta_of(&trader.pubkey(), &b) > 0);
    }

    #[test]
    fn sell_swap_round_trips_at_a_loss() {
        let (bank, _, mint) = setup_sol_pool();
        let sol = native_sol_mint();
        let trader = Keypair::from_label("trader");
        bank.airdrop(trader.pubkey(), Lamports::from_sol(10.0));
        let buy = TransactionBuilder::new(trader)
            .nonce(1)
            .instruction(swap_ix(sol, mint, 1_000_000_000, 0))
            .build();
        bank.execute_transaction(&buy).unwrap();
        let held = bank.token_balance(&trader.pubkey(), &mint);
        let sell = TransactionBuilder::new(trader)
            .nonce(2)
            .instruction(swap_ix(mint, sol, held, 0))
            .build();
        let meta = bank.execute_transaction(&sell).unwrap();
        assert!(meta.success, "{:?}", meta.error);
        assert!(bank.lamports(&trader.pubkey()) < Lamports::from_sol(10.0));
    }

    #[test]
    fn duplicate_pool_rejected() {
        let (bank, lp, mint) = setup_sol_pool();
        let tx = TransactionBuilder::new(lp)
            .nonce(999)
            .instruction(create_pool_ix(native_sol_mint(), 1_000, mint, 1_000, 30))
            .build();
        let meta = bank.execute_transaction(&tx).unwrap();
        assert!(!meta.success);
        assert!(meta.error.as_deref().unwrap().contains("already exists"));
    }

    #[test]
    fn swap_against_missing_pool_fails() {
        let bank = Bank::new(Keypair::from_label("validator").pubkey());
        bank.register_program(Arc::new(AmmProgram));
        let trader = Keypair::from_label("trader");
        bank.airdrop(trader.pubkey(), Lamports::from_sol(1.0));
        let tx = TransactionBuilder::new(trader)
            .instruction(swap_ix(
                native_sol_mint(),
                Pubkey::derive("mint:NONE"),
                100,
                0,
            ))
            .build();
        let meta = bank.execute_transaction(&tx).unwrap();
        assert!(!meta.success);
        assert!(meta.error.as_deref().unwrap().contains("no pool"));
    }
}
