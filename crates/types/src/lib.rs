//! Primitive types shared by every crate in the Jito sandwich-MEV
//! measurement reproduction: lamport amounts, account addresses, signatures,
//! slots, and the from-scratch hashing/encoding they rest on; plus the
//! environment-knob parser every binary reads its settings with.
//!
//! See the workspace `DESIGN.md` for how these map onto the paper's system.

#![warn(missing_docs)]

pub mod base58;
pub mod env;
pub mod hash;
pub mod lamports;
pub mod pubkey;
pub mod schnorr;
pub mod signature;
pub mod slot;

pub use hash::{Hash, OneBlock};
pub use lamports::{
    LamportDelta, Lamports, BASE_FEE, DEFENSIVE_TIP_THRESHOLD, LAMPORTS_PER_SOL, MIN_JITO_TIP,
};
pub use pubkey::{Keypair, Pubkey};
pub use signature::Signature;
pub use slot::{Slot, SlotClock, MEASUREMENT_DAYS, MS_PER_SLOT, SLOTS_PER_DAY};
