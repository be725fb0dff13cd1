//! Retry with exponential backoff, decorrelated jitter, and `Retry-After`.
//!
//! The paper's collector ran for four months through "instability or
//! changes to the Jito interface, bugs, and other transient errors" (§3.1);
//! the collector wraps every fetch in this policy so one 503 never kills a
//! polling epoch. Jitter desynchronizes retry storms; a server pacing hint
//! (429 + `Retry-After`) overrides the computed backoff.

use std::future::Future;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Retry policy: attempts and backoff shape.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts (≥ 1).
    pub max_attempts: u32,
    /// Delay before the second attempt.
    pub base_delay: Duration,
    /// Multiplier applied per subsequent attempt.
    pub factor: f64,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Seed for decorrelated-jitter delays. `None` keeps the deterministic
    /// exponential ladder (synchronized retries — only sensible in tests).
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            factor: 2.0,
            max_delay: Duration::from_secs(5),
            jitter_seed: Some(0x5eed_0001),
        }
    }
}

impl RetryPolicy {
    /// Deterministic (unjittered) delay before attempt `n` (0-based;
    /// attempt 0 has no delay).
    pub fn delay_for_attempt(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let ms = self.base_delay.as_millis() as f64 * self.factor.powi(attempt as i32 - 1);
        Duration::from_millis(ms as u64).min(self.max_delay)
    }
}

/// How a failed attempt should be handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryClass {
    /// Not worth retrying; surface the error immediately.
    Permanent,
    /// Retry after the policy's (jittered) backoff delay.
    Transient,
    /// Retry after the server's pacing hint instead of the computed backoff
    /// (still capped at the policy's `max_delay`).
    AfterHint(Duration),
}

/// A stateful delay sequence: decorrelated jitter when the policy carries a
/// seed, the deterministic exponential ladder otherwise.
///
/// Decorrelated jitter (`delay = clamp(base, min(cap, uniform(base,
/// prev·3)))`) keeps every delay within `[base_delay, max_delay]` while
/// decorrelating concurrent clients — the property the suite's proptest
/// asserts.
#[derive(Debug)]
pub struct BackoffSchedule {
    policy: RetryPolicy,
    rng: Option<StdRng>,
    prev: Duration,
    attempt: u32,
}

impl BackoffSchedule {
    /// A fresh schedule for `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        BackoffSchedule {
            rng: policy.jitter_seed.map(StdRng::seed_from_u64),
            prev: policy.base_delay,
            attempt: 0,
            policy,
        }
    }

    /// The delay to sleep before the next retry. A `hint` (from
    /// `Retry-After`) overrides the computed backoff, capped at
    /// `max_delay`.
    pub fn next_delay(&mut self, hint: Option<Duration>) -> Duration {
        self.attempt += 1;
        if let Some(hint) = hint {
            let d = hint.min(self.policy.max_delay);
            self.prev = d.max(self.policy.base_delay);
            return d;
        }
        match &mut self.rng {
            Some(rng) => {
                let base = self.policy.base_delay.as_millis() as u64;
                let cap = self.policy.max_delay.as_millis() as u64;
                let hi = (self.prev.as_millis() as u64).saturating_mul(3).max(base);
                let ms = if hi > base {
                    rng.gen_range(base..hi + 1)
                } else {
                    base
                };
                let ms = ms.clamp(base, cap.max(base));
                self.prev = Duration::from_millis(ms);
                self.prev
            }
            None => self.policy.delay_for_attempt(self.attempt),
        }
    }
}

/// Outcome of a retried operation.
#[derive(Debug)]
pub struct RetryOutcome<T, E> {
    /// The final result.
    pub result: Result<T, E>,
    /// Total attempts made.
    pub attempts: u32,
}

/// Run `op` until it succeeds, the error is classified permanent, or
/// attempts run out; honors [`RetryClass::AfterHint`] pacing hints.
pub async fn retry_classified<T, E, F, Fut, C>(
    policy: RetryPolicy,
    mut op: F,
    classify: C,
) -> RetryOutcome<T, E>
where
    F: FnMut() -> Fut,
    Fut: Future<Output = Result<T, E>>,
    C: Fn(&E) -> RetryClass,
{
    let mut schedule = BackoffSchedule::new(policy);
    let mut attempts = 0;
    let mut hint: Option<Duration> = None;
    loop {
        if attempts > 0 {
            let delay = schedule.next_delay(hint.take());
            if !delay.is_zero() {
                tokio::time::sleep(delay).await;
            }
        }
        attempts += 1;
        match op().await {
            Ok(v) => {
                return RetryOutcome {
                    result: Ok(v),
                    attempts,
                }
            }
            Err(e) => {
                let class = classify(&e);
                if attempts >= policy.max_attempts || class == RetryClass::Permanent {
                    return RetryOutcome {
                        result: Err(e),
                        attempts,
                    };
                }
                if let RetryClass::AfterHint(d) = class {
                    hint = Some(d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            factor: 2.0,
            max_delay: Duration::from_millis(4),
            jitter_seed: None,
        }
    }

    #[tokio::test(start_paused = true)]
    async fn succeeds_after_transient_failures() {
        let calls = AtomicU32::new(0);
        let outcome = retry_classified(
            fast_policy(),
            || {
                let n = calls.fetch_add(1, Ordering::SeqCst);
                async move {
                    if n < 2 {
                        Err("transient")
                    } else {
                        Ok(n)
                    }
                }
            },
            |_| RetryClass::Transient,
        )
        .await;
        assert_eq!(outcome.result.unwrap(), 2);
        assert_eq!(outcome.attempts, 3);
    }

    #[tokio::test(start_paused = true)]
    async fn permanent_error_stops_immediately() {
        let calls = AtomicU32::new(0);
        let outcome: RetryOutcome<(), &str> = retry_classified(
            fast_policy(),
            || {
                calls.fetch_add(1, Ordering::SeqCst);
                async { Err("permanent") }
            },
            |_| RetryClass::Permanent,
        )
        .await;
        assert!(outcome.result.is_err());
        assert_eq!(outcome.attempts, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[tokio::test(start_paused = true)]
    async fn gives_up_after_max_attempts() {
        let outcome: RetryOutcome<(), &str> = retry_classified(
            fast_policy(),
            || async { Err("transient") },
            |_| RetryClass::Transient,
        )
        .await;
        assert!(outcome.result.is_err());
        assert_eq!(outcome.attempts, 4);
    }

    #[test]
    fn backoff_shape() {
        let p = fast_policy();
        assert_eq!(p.delay_for_attempt(0), Duration::ZERO);
        assert_eq!(p.delay_for_attempt(1), Duration::from_millis(1));
        assert_eq!(p.delay_for_attempt(2), Duration::from_millis(2));
        assert_eq!(p.delay_for_attempt(3), Duration::from_millis(4));
        assert_eq!(p.delay_for_attempt(10), Duration::from_millis(4)); // capped
    }

    #[test]
    fn jittered_delays_stay_within_bounds() {
        let policy = RetryPolicy {
            jitter_seed: Some(7),
            ..RetryPolicy::default()
        };
        let mut schedule = BackoffSchedule::new(policy);
        for _ in 0..64 {
            let d = schedule.next_delay(None);
            assert!(d >= policy.base_delay, "{d:?} below base");
            assert!(d <= policy.max_delay, "{d:?} above cap");
        }
    }

    #[test]
    fn retry_after_hint_overrides_backoff_and_is_capped() {
        let policy = RetryPolicy {
            jitter_seed: Some(7),
            ..RetryPolicy::default()
        };
        let mut schedule = BackoffSchedule::new(policy);
        let hinted = schedule.next_delay(Some(Duration::from_millis(123)));
        assert_eq!(hinted, Duration::from_millis(123));
        let capped = schedule.next_delay(Some(Duration::from_secs(3600)));
        assert_eq!(capped, policy.max_delay);
    }

    #[tokio::test(start_paused = true)]
    async fn classified_retry_honors_hint_then_succeeds() {
        let calls = AtomicU32::new(0);
        let outcome = retry_classified(
            fast_policy(),
            || {
                let n = calls.fetch_add(1, Ordering::SeqCst);
                async move {
                    if n == 0 {
                        Err("rate limited")
                    } else {
                        Ok(n)
                    }
                }
            },
            |_| RetryClass::AfterHint(Duration::from_millis(2)),
        )
        .await;
        assert_eq!(outcome.result.unwrap(), 1);
        assert_eq!(outcome.attempts, 2);
    }
}
