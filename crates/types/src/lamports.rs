//! Lamport amounts and SOL conversions.
//!
//! One SOL is one billion lamports. Balances are [`Lamports`] (unsigned);
//! per-transaction balance changes are [`LamportDelta`] (signed), which the
//! sandwich detector uses to compute an account's net flow across a bundle.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of lamports in one SOL.
pub const LAMPORTS_PER_SOL: u64 = 1_000_000_000;

/// Solana's base transaction fee (5,000 lamports, per the paper §2.1).
pub const BASE_FEE: Lamports = Lamports(5_000);

/// Minimum Jito tip accepted when bundling (1,000 lamports, paper §3.3).
pub const MIN_JITO_TIP: Lamports = Lamports(1_000);

/// Tip threshold below which a length-1 bundle is classified as defensive
/// (100,000 lamports, paper §3.3).
pub const DEFENSIVE_TIP_THRESHOLD: Lamports = Lamports(100_000);

/// An unsigned lamport amount.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Lamports(pub u64);

impl Lamports {
    /// Zero lamports.
    pub const ZERO: Lamports = Lamports(0);

    /// Construct from whole SOL.
    pub fn from_sol(sol: f64) -> Self {
        assert!(sol >= 0.0, "negative SOL amount");
        Lamports((sol * LAMPORTS_PER_SOL as f64).round() as u64)
    }

    /// Value in SOL as a float (for reporting only).
    pub fn as_sol(&self) -> f64 {
        self.0 as f64 / LAMPORTS_PER_SOL as f64
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Lamports) -> Option<Lamports> {
        self.0.checked_add(rhs.0).map(Lamports)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Lamports) -> Option<Lamports> {
        self.0.checked_sub(rhs.0).map(Lamports)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Lamports) -> Lamports {
        Lamports(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Lamports {
    type Output = Lamports;
    fn add(self, rhs: Lamports) -> Lamports {
        Lamports(self.0.checked_add(rhs.0).expect("lamport overflow"))
    }
}

impl AddAssign for Lamports {
    fn add_assign(&mut self, rhs: Lamports) {
        *self = *self + rhs;
    }
}

impl Sub for Lamports {
    type Output = Lamports;
    fn sub(self, rhs: Lamports) -> Lamports {
        Lamports(self.0.checked_sub(rhs.0).expect("lamport underflow"))
    }
}

impl SubAssign for Lamports {
    fn sub_assign(&mut self, rhs: Lamports) {
        *self = *self - rhs;
    }
}

impl Sum for Lamports {
    fn sum<I: Iterator<Item = Lamports>>(iter: I) -> Lamports {
        iter.fold(Lamports::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Lamports {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} lamports", self.0)
    }
}

impl fmt::Debug for Lamports {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lamports({})", self.0)
    }
}

/// A signed lamport change (positive = credit, negative = debit).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct LamportDelta(pub i64);

impl LamportDelta {
    /// Zero change.
    pub const ZERO: LamportDelta = LamportDelta(0);

    /// Value in SOL as a float (for reporting only).
    pub fn as_sol(&self) -> f64 {
        self.0 as f64 / LAMPORTS_PER_SOL as f64
    }

    /// True when this delta is a net credit.
    pub fn is_gain(&self) -> bool {
        self.0 > 0
    }

    /// Magnitude as unsigned lamports.
    pub fn magnitude(&self) -> Lamports {
        Lamports(self.0.unsigned_abs())
    }
}

impl Add for LamportDelta {
    type Output = LamportDelta;
    fn add(self, rhs: LamportDelta) -> LamportDelta {
        LamportDelta(self.0.checked_add(rhs.0).expect("delta overflow"))
    }
}

impl AddAssign for LamportDelta {
    fn add_assign(&mut self, rhs: LamportDelta) {
        *self = *self + rhs;
    }
}

impl Sub for LamportDelta {
    type Output = LamportDelta;
    fn sub(self, rhs: LamportDelta) -> LamportDelta {
        LamportDelta(self.0.checked_sub(rhs.0).expect("delta overflow"))
    }
}

impl Neg for LamportDelta {
    type Output = LamportDelta;
    fn neg(self) -> LamportDelta {
        LamportDelta(-self.0)
    }
}

impl Sum for LamportDelta {
    fn sum<I: Iterator<Item = LamportDelta>>(iter: I) -> LamportDelta {
        iter.fold(LamportDelta::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for LamportDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+} lamports", self.0)
    }
}

impl fmt::Debug for LamportDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LamportDelta({:+})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sol_conversion_roundtrip() {
        let l = Lamports::from_sol(1.5);
        assert_eq!(l.0, 1_500_000_000);
        assert!((l.as_sol() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn checked_arithmetic() {
        assert_eq!(Lamports(5).checked_sub(Lamports(10)), None);
        assert_eq!(Lamports(5).saturating_sub(Lamports(10)), Lamports::ZERO);
        assert_eq!(Lamports(u64::MAX).checked_add(Lamports(1)), None);
    }

    #[test]
    #[should_panic(expected = "lamport underflow")]
    fn sub_underflow_panics() {
        let _ = Lamports(1) - Lamports(2);
    }

    #[test]
    fn delta_sum_and_sign() {
        let deltas = [LamportDelta(10), LamportDelta(-4), LamportDelta(-3)];
        let total: LamportDelta = deltas.into_iter().sum();
        assert_eq!(total, LamportDelta(3));
        assert!(total.is_gain());
        assert_eq!((-total).magnitude(), Lamports(3));
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(BASE_FEE.0, 5_000);
        assert_eq!(MIN_JITO_TIP.0, 1_000);
        assert_eq!(DEFENSIVE_TIP_THRESHOLD.0, 100_000);
    }

    #[test]
    fn serde_is_transparent() {
        let json = serde_json::to_string(&Lamports(42)).unwrap();
        assert_eq!(json, "42");
        let back: Lamports = serde_json::from_str("42").unwrap();
        assert_eq!(back, Lamports(42));
    }
}
