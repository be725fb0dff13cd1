//! Constant-product (x·y = k) AMM math.
//!
//! This is the price-impact mechanism sandwiching exploits: a front-run buy
//! moves the marginal rate against the victim, and the back-run sell
//! captures the difference (paper §2.2, Table 1).

/// Basis points denominator.
pub const BPS: u64 = 10_000;

/// Output amount for an exact-input swap against reserves, after the LP fee.
///
/// Returns `None` on empty reserves or overflow-free degenerate input.
pub fn quote_exact_in(
    amount_in: u64,
    reserve_in: u64,
    reserve_out: u64,
    fee_bps: u16,
) -> Option<u64> {
    if reserve_in == 0 || reserve_out == 0 || amount_in == 0 {
        return None;
    }
    let in_after_fee = (amount_in as u128) * (BPS - fee_bps as u64) as u128 / BPS as u128;
    if in_after_fee == 0 {
        return Some(0);
    }
    let numerator = in_after_fee * reserve_out as u128;
    let denominator = reserve_in as u128 + in_after_fee;
    Some((numerator / denominator) as u64)
}

/// Input amount required to receive exactly `amount_out`, inverse of
/// [`quote_exact_in`]. Returns `None` if `amount_out` exceeds reserves.
pub fn quote_exact_out(
    amount_out: u64,
    reserve_in: u64,
    reserve_out: u64,
    fee_bps: u16,
) -> Option<u64> {
    if reserve_in == 0 || reserve_out == 0 || amount_out >= reserve_out {
        return None;
    }
    let numerator = reserve_in as u128 * amount_out as u128;
    let denominator = (reserve_out - amount_out) as u128;
    let in_after_fee = numerator / denominator + 1; // round up
    let amount_in = in_after_fee * BPS as u128 / (BPS - fee_bps as u64) as u128 + 1;
    u64::try_from(amount_in).ok()
}

/// Reserves after applying an exact-input swap.
pub fn apply_swap(
    amount_in: u64,
    amount_out: u64,
    reserve_in: u64,
    reserve_out: u64,
) -> (u64, u64) {
    (reserve_in + amount_in, reserve_out - amount_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_quote() {
        // 1:1 pool, tiny trade, 0 fee: out slightly below in.
        let out = quote_exact_in(1_000, 1_000_000, 1_000_000, 0).unwrap();
        assert_eq!(out, 999); // 1000 * 1e6 / (1e6 + 1000) = 999.000999
    }

    #[test]
    fn fee_reduces_output() {
        let no_fee = quote_exact_in(10_000, 1_000_000, 1_000_000, 0).unwrap();
        let with_fee = quote_exact_in(10_000, 1_000_000, 1_000_000, 30).unwrap();
        assert!(with_fee < no_fee);
    }

    #[test]
    fn empty_reserves_rejected() {
        assert_eq!(quote_exact_in(100, 0, 1_000, 0), None);
        assert_eq!(quote_exact_in(100, 1_000, 0, 0), None);
        assert_eq!(quote_exact_in(0, 1_000, 1_000, 0), None);
    }

    #[test]
    fn exact_out_inverts_exact_in() {
        let (r_in, r_out, fee) = (5_000_000u64, 2_000_000u64, 30u16);
        let want_out = 12_345u64;
        let need_in = quote_exact_out(want_out, r_in, r_out, fee).unwrap();
        let got_out = quote_exact_in(need_in, r_in, r_out, fee).unwrap();
        assert!(got_out >= want_out, "paying the quoted input must deliver");
        // And it should not overshoot wildly (within rounding of a few units).
        let less = quote_exact_in(need_in.saturating_sub(3), r_in, r_out, fee).unwrap();
        assert!(less <= got_out);
    }

    #[test]
    fn front_run_worsens_victim_rate() {
        // The heart of the sandwich: the victim's rate after a front-run buy
        // is strictly worse than before.
        let (mut sol, mut tok) = (10_000_000_000u64, 50_000_000_000u64);
        let victim_in = 100_000_000u64;
        let clean_out = quote_exact_in(victim_in, sol, tok, 30).unwrap();

        let attacker_in = 500_000_000u64;
        let attacker_out = quote_exact_in(attacker_in, sol, tok, 30).unwrap();
        (sol, tok) = apply_swap(attacker_in, attacker_out, sol, tok);

        let sandwiched_out = quote_exact_in(victim_in, sol, tok, 30).unwrap();
        assert!(sandwiched_out < clean_out);
    }

    proptest! {
        #[test]
        fn output_never_exceeds_reserve(
            amount_in in 1u64..u32::MAX as u64,
            reserve_in in 1u64..u64::MAX / 2,
            reserve_out in 1u64..u32::MAX as u64,
            fee_bps in 0u16..1000,
        ) {
            if let Some(out) = quote_exact_in(amount_in, reserve_in, reserve_out, fee_bps) {
                prop_assert!(out < reserve_out);
            }
        }

        #[test]
        fn k_never_decreases(
            amount_in in 1u64..u32::MAX as u64,
            reserve_in in 1_000u64..u32::MAX as u64,
            reserve_out in 1_000u64..u32::MAX as u64,
            fee_bps in 0u16..1000,
        ) {
            if let Some(out) = quote_exact_in(amount_in, reserve_in, reserve_out, fee_bps) {
                let k_before = reserve_in as u128 * reserve_out as u128;
                let (ri, ro) = apply_swap(amount_in, out, reserve_in, reserve_out);
                let k_after = ri as u128 * ro as u128;
                prop_assert!(k_after >= k_before);
            }
        }

        #[test]
        fn bigger_input_never_yields_less(
            small in 1u64..u32::MAX as u64 / 2,
            extra in 1u64..u32::MAX as u64 / 2,
            reserve_in in 1_000u64..u32::MAX as u64,
            reserve_out in 1_000u64..u32::MAX as u64,
            fee_bps in 0u16..1000,
        ) {
            let a = quote_exact_in(small, reserve_in, reserve_out, fee_bps);
            let b = quote_exact_in(small + extra, reserve_in, reserve_out, fee_bps);
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert!(b >= a);
            }
        }

        #[test]
        fn round_trip_never_profits(
            amount_in in 1_000u64..u32::MAX as u64,
            reserve_in in 1_000_000u64..u32::MAX as u64,
            reserve_out in 1_000_000u64..u32::MAX as u64,
            fee_bps in 0u16..1000,
        ) {
            // Buying then immediately selling back cannot yield more than
            // was paid (no free arbitrage against a single pool).
            if let Some(out) = quote_exact_in(amount_in, reserve_in, reserve_out, fee_bps) {
                if out > 0 {
                    let (ri, ro) = apply_swap(amount_in, out, reserve_in, reserve_out);
                    if let Some(back) = quote_exact_in(out, ro, ri, fee_bps) {
                        prop_assert!(back <= amount_in);
                    }
                }
            }
        }
    }
}
