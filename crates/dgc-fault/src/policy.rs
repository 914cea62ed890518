//! Recovery policy and the recovery story.
//!
//! [`RecoveryPolicy`] says how hard the executor tries before giving up
//! on an instance; [`RecoveryStats`] records what recovery did, for the
//! metrics rollup and exit-status decisions.

use dgc_obs::{InstanceMetrics, RpcCallCounts};
use gpu_sim::StallBuckets;

/// How hard to try before giving up on an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Launch attempts per instance (≥ 1; 1 disables retries). The
    /// executor refuses 0 with `EnsembleError::NoAttempts`.
    pub max_attempts: u32,
    /// Simulated wait before the first retry round, seconds.
    pub backoff_base_s: f64,
    /// Exponential growth of the wait per further retry round.
    pub backoff_factor: f64,
    /// Ceiling on a single backoff wait, seconds. The exponential
    /// `base * factor^(attempt-1)` overflows to `inf` within a few dozen
    /// rounds under a large `max_attempts`; the clamp keeps `backoff_s`
    /// and `total_time_s` finite no matter the policy.
    pub backoff_max_s: f64,
    /// Halve the concurrent batch after a round with device OOMs.
    pub oom_split: bool,
    /// Watchdog: per-instance cycle budget for every launch.
    pub instance_cycle_budget: Option<f64>,
    /// Abort all remaining work once one instance exhausts its attempts.
    pub fail_fast: bool,
    /// Opt-in deterministic backoff jitter: `Some(seed)` de-synchronizes
    /// retry storms by scaling each instance's wait with a splitmix64
    /// hash of seed × instance × attempt (factor in `[0.5, 1.0)`). The
    /// default `None` keeps every existing golden bit-identical.
    pub jitter_seed: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_s: 1e-3,
            backoff_factor: 2.0,
            backoff_max_s: 10.0,
            oom_split: true,
            instance_cycle_budget: None,
            fail_fast: false,
            jitter_seed: None,
        }
    }
}

impl RecoveryPolicy {
    /// Simulated wait before retry round `attempt` (≥ 1):
    /// `base * factor^(attempt-1)`, saturating at
    /// [`RecoveryPolicy::backoff_max_s`]. A non-finite intermediate
    /// (overflowed exponential) also lands on the ceiling, so the wait is
    /// always finite.
    pub fn backoff_wait_s(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(i32::MAX as u32) as i32;
        let raw = self.backoff_base_s * self.backoff_factor.powi(exp);
        if raw.is_finite() {
            raw.min(self.backoff_max_s)
        } else {
            self.backoff_max_s
        }
    }

    /// `instance`'s wait before retry round `attempt` under the opt-in
    /// jitter: the clamped exponential scaled by a deterministic factor
    /// in `[0.5, 1.0)` drawn from splitmix64 over
    /// `jitter_seed × instance × attempt`. Identical policies replay
    /// identical waits; instances sharing a round spread out instead of
    /// retrying in lockstep. With [`RecoveryPolicy::jitter_seed`] unset
    /// this is exactly [`RecoveryPolicy::backoff_wait_s`].
    pub fn backoff_wait_jittered_s(&self, attempt: u32, instance: u32) -> f64 {
        let base = self.backoff_wait_s(attempt);
        let Some(seed) = self.jitter_seed else {
            return base;
        };
        let mut state = seed
            .wrapping_add(u64::from(instance).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        // 53 high-quality bits → uniform in [0, 1).
        let unit = (crate::plan::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        base * (0.5 + 0.5 * unit)
    }
}

/// What recovery did, for the metrics rollup and exit-status decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Recovery rounds executed (1 = no retries were needed).
    pub attempts: u32,
    /// Distinct instances re-launched at least once.
    pub retried: u32,
    /// Instances that failed at least once but ultimately succeeded.
    pub recovered: u32,
    /// Instances still failed (or skipped) at the end.
    pub unrecovered: u32,
    /// Instances never launched or re-launched because of `fail_fast`
    /// (subset of `unrecovered`).
    pub skipped: u32,
    /// Cumulative failed instance-attempts across all rounds.
    pub failures: u32,
    /// Cumulative device-OOM instance-attempts.
    pub oom_failures: u32,
    /// Cumulative watchdog kills.
    pub timeouts: u32,
    /// Times the concurrent batch was halved.
    pub oom_splits: u32,
    /// Concurrent batch size in effect at the end.
    pub final_batch: u32,
    /// Total simulated backoff wait, seconds (part of `total_time_s`).
    pub backoff_s: f64,
}

/// Placeholder metrics for an instance that was never (re-)launched.
pub(crate) fn skipped_metrics(instance: u32, end_time_s: f64) -> InstanceMetrics {
    InstanceMetrics {
        instance,
        exit_code: None,
        trapped: true,
        oom: false,
        timed_out: false,
        attempt: 0,
        device: 0,
        end_time_s,
        cycles: 0.0,
        warp_insts: 0.0,
        useful_bytes: 0.0,
        moved_bytes: 0.0,
        sectors: 0,
        heap_peak_bytes: 0,
        rpc: RpcCallCounts::default(),
        rpc_stall_s: 0.0,
        stall: StallBuckets::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_below_the_clamp() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_wait_s(1), 1e-3);
        assert_eq!(p.backoff_wait_s(2), 2e-3);
        assert_eq!(p.backoff_wait_s(3), 4e-3);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RecoveryPolicy {
            max_attempts: u32::MAX,
            ..RecoveryPolicy::default()
        };
        // factor^(attempt-1) overflows f64 far before u32::MAX rounds;
        // the wait must clamp to the ceiling, never inf or NaN.
        for attempt in [64, 1100, 100_000, u32::MAX] {
            let w = p.backoff_wait_s(attempt);
            assert!(w.is_finite(), "attempt {attempt}: {w}");
            assert_eq!(w, p.backoff_max_s, "attempt {attempt}");
        }
        // A cumulative sum over many rounds stays finite too.
        let total: f64 = (1..10_000).map(|a| p.backoff_wait_s(a)).sum();
        assert!(total.is_finite());
    }

    #[test]
    fn jitter_off_is_the_plain_wait() {
        let p = RecoveryPolicy::default();
        for attempt in 1..6 {
            for instance in [0, 3, 77] {
                assert_eq!(
                    p.backoff_wait_jittered_s(attempt, instance),
                    p.backoff_wait_s(attempt)
                );
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_spread() {
        let p = RecoveryPolicy {
            jitter_seed: Some(42),
            ..RecoveryPolicy::default()
        };
        let q = RecoveryPolicy {
            jitter_seed: Some(42),
            ..RecoveryPolicy::default()
        };
        let mut waits = Vec::new();
        for instance in 0..32 {
            let w = p.backoff_wait_jittered_s(2, instance);
            // Same seed replays the same wait.
            assert_eq!(w, q.backoff_wait_jittered_s(2, instance));
            // Scaled into [base/2, base).
            let base = p.backoff_wait_s(2);
            assert!(w >= base * 0.5 && w < base, "instance {instance}: {w}");
            waits.push(w.to_bits());
        }
        // The whole point: instances do not retry in lockstep.
        waits.sort_unstable();
        waits.dedup();
        assert!(waits.len() > 16, "only {} distinct waits", waits.len());
        // A different seed draws a different schedule.
        let r = RecoveryPolicy {
            jitter_seed: Some(43),
            ..RecoveryPolicy::default()
        };
        assert_ne!(
            p.backoff_wait_jittered_s(2, 5),
            r.backoff_wait_jittered_s(2, 5)
        );
    }

    #[test]
    fn backoff_clamp_is_configurable() {
        let p = RecoveryPolicy {
            backoff_max_s: 3e-3,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff_wait_s(1), 1e-3);
        assert_eq!(p.backoff_wait_s(2), 2e-3);
        assert_eq!(p.backoff_wait_s(3), 3e-3);
        assert_eq!(p.backoff_wait_s(30), 3e-3);
    }
}
