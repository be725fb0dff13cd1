//! Property tests for the resilience layer: jittered backoff bounds, the
//! circuit-breaker state machine, and overlap backfill, for arbitrary
//! inputs rather than crafted ones.

use std::time::Duration;

use proptest::prelude::*;

use sandwich_core::Dataset;
use sandwich_net::{BackoffSchedule, BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use sandwich_types::{Hash, Keypair, SlotClock};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every jittered delay stays within `[base_delay, max_delay]` for any
    /// policy shape and any seed, no matter how long the schedule runs.
    #[test]
    fn jittered_backoff_stays_within_bounds(
        base_ms in 1u64..2_000,
        extra_ms in 0u64..10_000,
        seed in any::<u64>(),
        steps in 1usize..40,
    ) {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(base_ms),
            max_delay: Duration::from_millis(base_ms + extra_ms),
            jitter_seed: Some(seed),
            ..Default::default()
        };
        let mut schedule = BackoffSchedule::new(policy);
        for _ in 0..steps {
            let d = schedule.next_delay(None);
            prop_assert!(d >= policy.base_delay, "{d:?} below base");
            prop_assert!(d <= policy.max_delay, "{d:?} above cap");
        }
    }

    /// A `Retry-After` hint always wins over the computed backoff but is
    /// still capped at `max_delay`.
    #[test]
    fn retry_after_hint_is_honored_and_capped(
        base_ms in 1u64..500,
        cap_ms in 500u64..5_000,
        hint_ms in 0u64..20_000,
    ) {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(base_ms),
            max_delay: Duration::from_millis(cap_ms),
            ..Default::default()
        };
        let mut schedule = BackoffSchedule::new(policy);
        let d = schedule.next_delay(Some(Duration::from_millis(hint_ms)));
        prop_assert_eq!(d, Duration::from_millis(hint_ms.min(cap_ms)));
    }

    /// Breaker invariants under arbitrary success/failure/time sequences:
    /// it only opens after `failure_threshold` consecutive failures, a
    /// success always closes it, and once the cooldown has elapsed it
    /// always lets a probe through (never wedges shut).
    #[test]
    fn breaker_state_machine_invariants(
        threshold in 1u32..6,
        cooldown in 1u64..10_000,
        events in prop::collection::vec((any::<bool>(), 0u64..5_000), 1..60),
    ) {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown_ms: cooldown,
        });
        let mut now = 0u64;
        let mut consecutive = 0u32;
        for (ok, dt) in events {
            now += dt;
            let state = breaker.state_at(now);
            // Closed and half-open both admit traffic.
            prop_assert_eq!(breaker.allow(now), state != BreakerState::Open);
            if ok {
                breaker.record_success();
                consecutive = 0;
                prop_assert_eq!(breaker.state_at(now), BreakerState::Closed);
            } else {
                breaker.record_failure(now);
                consecutive += 1;
                let after = breaker.state_at(now);
                if consecutive < threshold && state == BreakerState::Closed {
                    prop_assert_eq!(after, BreakerState::Closed);
                } else {
                    // Tripped (or re-tripped from half-open): open now,
                    // probing again once the cooldown has elapsed.
                    prop_assert_eq!(after, BreakerState::Open);
                    prop_assert_eq!(
                        breaker.state_at(now + cooldown),
                        BreakerState::HalfOpen
                    );
                }
            }
        }
    }

    /// Backfill recovers an arbitrarily-sized dropped page: after a gap of
    /// `gap` bundles between two polls, walking back in pages of `page`
    /// reaches the previously-known range and restores every bundle in
    /// chronological order.
    #[test]
    fn backfill_recovers_any_dropped_page(
        head in 2u64..30,
        gap in 1u64..60,
        tail in 2u64..30,
        page in 1usize..25,
    ) {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        let entry = |slot: u64| page_entry(slot);

        // First poll: slots [0, head), newest first.
        let p1: Vec<_> = (0..head).rev().map(entry).collect();
        ds.ingest_page(&p1, &clock, 0);
        // Second poll misses [head, head+gap): slots [head+gap, head+gap+tail).
        let p2: Vec<_> = (head + gap..head + gap + tail).rev().map(entry).collect();
        let rec = ds.ingest_page(&p2, &clock, 0);
        prop_assert!(!rec.overlapped_previous);

        // Walk back from the oldest fetched slot in pages of `page`.
        let mut cursor = head + gap;
        let mut reached = false;
        for _ in 0..200 {
            let lo = cursor.saturating_sub(page as u64);
            let fill: Vec<_> = (lo..cursor).rev().map(entry).collect();
            if fill.is_empty() {
                reached = true; // start of history
                break;
            }
            let (_, touched_known) = ds.ingest_backfill_page(&fill, &clock);
            if touched_known {
                reached = true;
                break;
            }
            cursor = lo;
        }
        prop_assert!(reached, "never reached known bundles");
        ds.sort_chronological();

        // Every slot in [0, head+gap+tail) present exactly once, in order.
        let slots: Vec<u64> = ds.resident().iter().map(|b| b.slot.0).collect();
        let expect: Vec<u64> = (0..head + gap + tail).collect();
        prop_assert_eq!(slots, expect);
    }
}

/// A minimal explorer page entry for slot `slot` (bundle id derived from
/// the slot, one transaction).
fn page_entry(slot: u64) -> sandwich_explorer::BundleSummaryJson {
    let kp = Keypair::from_label("props");
    sandwich_explorer::BundleSummaryJson {
        bundle_id: Hash::digest(&slot.to_le_bytes()),
        slot,
        timestamp_ms: slot * 400,
        tip_lamports: 1_000,
        transactions: vec![kp.sign(&slot.to_le_bytes())],
    }
}
