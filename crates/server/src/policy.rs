//! The retry/timeout/backoff policy engine.
//!
//! Every error a tenant operation can surface is classified into a
//! [`FaultClass`], and the policy maps `(class, attempt)` to a
//! [`RetryDecision`]: transient faults retry with bounded attempts and
//! exponential backoff (deterministic seeded jitter — no wall clock),
//! media damage escalates to the scrub/quarantine recovery path, and
//! anything unexpected propagates as a hard error.

use pmo_runtime::{mix, RuntimeError};

/// What kind of failure an error represents, policy-wise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Power-failure-style loss of volatile state: the pool's durable
    /// contents are intact (modulo the last transaction), so the
    /// operation is retryable after fault-domain recovery.
    Transient,
    /// Typed media damage: deterministic, so retrying the same reads
    /// hits the same poison — escalate to scrub instead of retrying.
    Media,
    /// The pool's recovery metadata is damaged; only the scrub/release
    /// path can bring the tenant back.
    Quarantine,
    /// Anything else (programming errors, resource exhaustion): not a
    /// chaos outcome, propagate to the caller.
    Hard,
}

/// Classifies a runtime error for the policy engine.
#[must_use]
pub fn classify(error: &RuntimeError) -> FaultClass {
    match error {
        RuntimeError::PowerFailure => FaultClass::Transient,
        RuntimeError::MediaError { .. } => FaultClass::Media,
        RuntimeError::PoolQuarantined { .. } => FaultClass::Quarantine,
        _ => FaultClass::Hard,
    }
}

/// What the policy tells the server to do about one failed attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryDecision {
    /// Retry the operation after backing off this many logical ticks.
    RetryAfter(u64),
    /// Stop retrying in place and run the scrub/quarantine recovery
    /// ladder (data loss is accepted in exchange for availability).
    Escalate,
    /// The retry budget is exhausted; give up on this operation (the
    /// tenant stays admitted and later operations start fresh).
    GiveUp,
}

/// Bounded-retry policy with exponential backoff and seeded jitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (1 = no retry).
    pub max_attempts: u32,
    /// Backoff after the first failure, in logical ticks.
    pub base_backoff: u64,
    /// Backoff ceiling, in logical ticks.
    pub max_backoff: u64,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_backoff: 16, max_backoff: 1024, jitter_seed: 0x5eed }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based) on behalf of
    /// `lane` (a tenant-unique stream id): exponential growth capped at
    /// [`RetryPolicy::max_backoff`], plus up to 50% deterministic jitter
    /// so colliding tenants deterministically de-synchronize.
    #[must_use]
    pub fn backoff_ticks(&self, attempt: u32, lane: u64) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let base = self.base_backoff.saturating_mul(1u64 << exp).min(self.max_backoff);
        let jitter_span = base / 2 + 1;
        base + mix(self.jitter_seed, lane ^ (u64::from(attempt) << 48)) % jitter_span
    }

    /// Maps one failed attempt to a decision. `attempt` counts the
    /// failures so far, 1-based.
    #[must_use]
    pub fn decide(&self, class: FaultClass, attempt: u32, lane: u64) -> RetryDecision {
        match class {
            FaultClass::Transient => {
                if attempt < self.max_attempts {
                    RetryDecision::RetryAfter(self.backoff_ticks(attempt, lane))
                } else {
                    RetryDecision::GiveUp
                }
            }
            FaultClass::Media | FaultClass::Quarantine => RetryDecision::Escalate,
            FaultClass::Hard => RetryDecision::GiveUp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_chaos_vocabulary() {
        assert_eq!(classify(&RuntimeError::PowerFailure), FaultClass::Transient);
        assert_eq!(
            classify(&RuntimeError::MediaError { pmo: pmo_trace::PmoId::new(1), offset: 64 }),
            FaultClass::Media
        );
        assert_eq!(
            classify(&RuntimeError::PoolQuarantined { name: "t".into(), reason: "x" }),
            FaultClass::Quarantine
        );
        assert_eq!(classify(&RuntimeError::InvalidSize(0)), FaultClass::Hard);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy { max_attempts: 8, base_backoff: 16, max_backoff: 128, jitter_seed: 1 };
        let b1 = p.backoff_ticks(1, 0);
        let b2 = p.backoff_ticks(2, 0);
        let b4 = p.backoff_ticks(4, 0);
        assert!((16..=24).contains(&b1), "{b1}");
        assert!((32..=48).contains(&b2), "{b2}");
        // Attempt 4 wants 128 (capped); jitter adds at most 50%.
        assert!((128..=192).contains(&b4), "{b4}");
        // Far-out attempts do not overflow.
        let _ = p.backoff_ticks(u32::MAX, u64::MAX);
    }

    #[test]
    fn jitter_is_deterministic_and_lane_separated() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ticks(2, 7), p.backoff_ticks(2, 7));
        let spread: std::collections::BTreeSet<u64> =
            (0..16).map(|lane| p.backoff_ticks(2, lane)).collect();
        assert!(spread.len() > 1, "lanes must de-synchronize: {spread:?}");
    }

    #[test]
    fn decisions_follow_the_ladder() {
        let p = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        assert!(matches!(p.decide(FaultClass::Transient, 1, 0), RetryDecision::RetryAfter(_)));
        assert!(matches!(p.decide(FaultClass::Transient, 2, 0), RetryDecision::RetryAfter(_)));
        assert_eq!(p.decide(FaultClass::Transient, 3, 0), RetryDecision::GiveUp);
        assert_eq!(p.decide(FaultClass::Media, 1, 0), RetryDecision::Escalate);
        assert_eq!(p.decide(FaultClass::Quarantine, 1, 0), RetryDecision::Escalate);
        assert_eq!(p.decide(FaultClass::Hard, 1, 0), RetryDecision::GiveUp);
    }
}
