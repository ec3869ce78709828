//! Seeded, bounded exponential backoff for transient job failures.
//!
//! Retry is reserved for failures classified *transient* by the fault
//! taxonomy (`codesign-fault`'s `retryable`: hardware faults model
//! recoverable bus glitches; everything else is a deterministic
//! property of the run and would only recur). The schedule is a pure
//! function of `(config, job key)` — deterministic jitter comes from a
//! splitmix64 stream, never a wall clock — so a chaos campaign replays
//! bit-identically and a property test can pin the bounds.

use codesign_trace::hash::fnv1a;

/// Retry policy for transient job failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Total attempts including the first (1 = never retry).
    pub max_attempts: u32,
    /// Delay before the first retry, milliseconds.
    pub base_delay_ms: u64,
    /// Hard ceiling on any single delay, milliseconds.
    pub max_delay_ms: u64,
    /// Server-level seed folded into every job's jitter stream.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 3,
            base_delay_ms: 5,
            max_delay_ms: 100,
            seed: 0x5EED,
        }
    }
}

/// The finalizer of splitmix64 — the workspace's standard seed spreader.
#[must_use]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a job id — the per-job key the jitter stream is split by.
#[must_use]
pub fn job_key(id: &str) -> u64 {
    fnv1a(id.as_bytes())
}

/// The delay in milliseconds before retry number `retry` (0-based: the
/// delay between the first failure and the second attempt is
/// `backoff_delay(cfg, key, 0)`). Exponential in `retry` with ±0..50%
/// deterministic jitter, clamped to `max_delay_ms`.
#[must_use]
pub fn backoff_delay(cfg: &RetryConfig, key: u64, retry: u32) -> u64 {
    let exp = cfg
        .base_delay_ms
        .saturating_mul(1u64.checked_shl(retry).unwrap_or(u64::MAX))
        .min(cfg.max_delay_ms);
    let jitter_span = exp / 2;
    if jitter_span == 0 {
        return exp;
    }
    let jitter = splitmix64(cfg.seed ^ key ^ (u64::from(retry) << 32)) % (jitter_span + 1);
    (exp + jitter).min(cfg.max_delay_ms)
}

/// The whole schedule: one delay per permitted retry
/// (`max_attempts - 1` entries).
#[must_use]
pub fn backoff_schedule(cfg: &RetryConfig, key: u64) -> Vec<u64> {
    (0..cfg.max_attempts.saturating_sub(1))
        .map(|r| backoff_delay(cfg, key, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_sized() {
        let cfg = RetryConfig::default();
        let a = backoff_schedule(&cfg, job_key("job-17"));
        assert_eq!(a, backoff_schedule(&cfg, job_key("job-17")));
        assert_eq!(a.len(), 2, "3 attempts = 2 retries");
        // A different job gets a different jitter stream (with these
        // constants the first delays differ; pinned to catch a seed
        // plumbing regression).
        assert_ne!(a, backoff_schedule(&cfg, job_key("job-18")));
    }

    #[test]
    fn delays_never_exceed_the_ceiling() {
        let cfg = RetryConfig {
            max_attempts: 12,
            base_delay_ms: 7,
            max_delay_ms: 50,
            seed: 9,
        };
        for (i, d) in backoff_schedule(&cfg, job_key("x")).iter().enumerate() {
            assert!(*d <= cfg.max_delay_ms, "retry {i}: {d}");
        }
    }

    #[test]
    fn one_attempt_means_no_retries() {
        let cfg = RetryConfig {
            max_attempts: 1,
            ..RetryConfig::default()
        };
        assert!(backoff_schedule(&cfg, 0).is_empty());
    }

    #[test]
    fn huge_retry_index_saturates_instead_of_overflowing() {
        let cfg = RetryConfig {
            max_attempts: 80,
            base_delay_ms: 3,
            max_delay_ms: 40,
            seed: 1,
        };
        assert!(backoff_delay(&cfg, 5, 70) <= 40);
    }
}
