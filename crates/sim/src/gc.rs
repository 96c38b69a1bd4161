//! Pluggable garbage-collection preemption/admission policies.
//!
//! Garbage collection competes with host traffic for the same dies: a GC
//! program or erase occupying a die stalls every host read queued behind it,
//! and the closed-loop replay of [`crate::replay`] plus the multi-queue front
//! end of [`crate::hostq`] expose exactly *which* host queue absorbs those
//! stalls. A [`GcPolicy`] decides, at the engine's three GC decision points,
//!
//! 1. whether a **non-critical** GC job may *start* when the FTL hints that a
//!    plane crossed its free-block threshold (`Ssd::maybe_start_gc`);
//! 2. whether a waiting read may *preempt* (suspend) an in-flight GC program
//!    or erase beyond the default suspension-benefit rule
//!    (`Ssd::maybe_suspend`);
//! 3. whether queued GC programs/erases *yield* to host operations on the
//!    die's P2 queue (the issue path of `Ssd::pump_die`).
//!
//! A plane that runs **critically** low on free blocks (≤ 1) always
//! collects, regardless of policy — no policy may starve the FTL of pages.
//! Every GC-induced stall the engine observes is attributed to the host
//! queue that was waiting and reported per queue as
//! [`crate::metrics::GcStalls`].
//!
//! The default [`GcPolicy::Greedy`] reproduces the engine's historical
//! behavior bit-for-bit (`tests/gc_policy.rs` and `tests/hotpath_equiv.rs`
//! pin this).

use crate::config::ConfigError;
use rr_util::time::SimTime;

/// Default [`GcPolicy::WindowedTokens`] replenishment window, µs.
pub const DEFAULT_TOKEN_WINDOW_US: u64 = 1_000;

/// When garbage collection may run and who may preempt it.
///
/// # Example
///
/// ```
/// use rr_sim::config::SsdConfig;
/// use rr_sim::gc::GcPolicy;
///
/// // Shield host queue 0: while it has reads outstanding, non-critical GC
/// // is deferred and its reads preempt in-flight GC programs/erases.
/// let cfg = SsdConfig::scaled_for_tests()
///     .with_gc_policy(GcPolicy::QueueShield { queue: 0 });
/// assert_eq!(cfg.gc_policy.name(), "queue-shield");
/// cfg.validate().expect("policy is valid");
/// // The default policy is the engine's historical greedy behavior.
/// assert_eq!(GcPolicy::default(), GcPolicy::Greedy);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcPolicy {
    /// Start GC whenever the FTL hints a plane is at its threshold and let
    /// the default suspension-benefit rule arbitrate reads vs. GC — the
    /// engine's historical behavior, bit-identical to pre-policy output.
    #[default]
    Greedy,
    /// Like [`GcPolicy::Greedy`], but each GC job carries a preemption
    /// budget: while budget remains, a waiting host read suspends the job's
    /// in-flight program/erase *unconditionally* (ignoring the
    /// minimum-benefit rule); once the budget is spent, the job's operations
    /// run to completion and can no longer be suspended at all.
    ReadPreempt {
        /// Unconditional preemptions granted per GC job (≥ 1).
        budget: u32,
    },
    /// Rate-limit GC under load: starting a non-critical GC job consumes a
    /// token from a bucket of `tokens` replenished every `window_us`
    /// microseconds of simulated time; when the bucket is dry, the job is
    /// deferred until a later allocation re-hints the plane.
    WindowedTokens {
        /// Non-critical GC jobs allowed per window (≥ 1).
        tokens: u32,
        /// Replenishment window in µs of simulated time (≥ 1).
        window_us: u64,
    },
    /// Shield a latency-critical host queue: while `queue` has admitted
    /// reads outstanding, non-critical GC jobs are deferred, the shielded
    /// queue's reads preempt in-flight GC programs/erases unconditionally,
    /// and queued GC operations yield to host operations on each die.
    QueueShield {
        /// Index of the shielded host submission queue. An index beyond the
        /// front end's queue count disables the shield (the policy then
        /// behaves like [`GcPolicy::Greedy`]).
        queue: u16,
    },
}

impl GcPolicy {
    /// The policy's CLI / display name.
    pub fn name(&self) -> &'static str {
        match self {
            GcPolicy::Greedy => "greedy",
            GcPolicy::ReadPreempt { .. } => "read-preempt",
            GcPolicy::WindowedTokens { .. } => "windowed-tokens",
            GcPolicy::QueueShield { .. } => "queue-shield",
        }
    }

    /// Builds a policy from its CLI name and the `--gc-budget` knob, whose
    /// meaning is per policy: the preemption budget per job
    /// (`read-preempt`, default 4), the tokens per window
    /// (`windowed-tokens`, default 8, window [`DEFAULT_TOKEN_WINDOW_US`]),
    /// or the shielded queue index (`queue-shield`, default 0).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an unknown policy name, a budget the
    /// policy cannot use (`greedy`), or an out-of-range budget value.
    pub fn parse(name: &str, budget: Option<u32>) -> Result<Self, ConfigError> {
        let policy = match name {
            "greedy" => {
                if budget.is_some() {
                    return Err(ConfigError::new(
                        "--gc-budget has no effect under the greedy GC policy",
                    ));
                }
                GcPolicy::Greedy
            }
            "read-preempt" => GcPolicy::ReadPreempt {
                budget: budget.unwrap_or(4),
            },
            "windowed-tokens" => GcPolicy::WindowedTokens {
                tokens: budget.unwrap_or(8),
                window_us: DEFAULT_TOKEN_WINDOW_US,
            },
            "queue-shield" => {
                let queue = budget.unwrap_or(0);
                if queue > u16::MAX as u32 {
                    return Err(ConfigError::new(format!(
                        "queue-shield queue index {queue} exceeds {}",
                        u16::MAX
                    )));
                }
                GcPolicy::QueueShield {
                    queue: queue as u16,
                }
            }
            other => {
                return Err(ConfigError::new(format!(
                    "unknown GC policy '{other}' \
                     (expected greedy, read-preempt, windowed-tokens, or queue-shield)"
                )))
            }
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first zero-valued knob.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            GcPolicy::Greedy | GcPolicy::QueueShield { .. } => Ok(()),
            GcPolicy::ReadPreempt { budget } => {
                if budget < 1 {
                    return Err(ConfigError::new(
                        "read-preempt budget must be at least 1 preemption per GC job",
                    ));
                }
                Ok(())
            }
            GcPolicy::WindowedTokens { tokens, window_us } => {
                if tokens < 1 {
                    return Err(ConfigError::new(
                        "windowed-tokens requires at least 1 token per window",
                    ));
                }
                if window_us < 1 {
                    return Err(ConfigError::new(
                        "windowed-tokens window must be at least 1 µs",
                    ));
                }
                Ok(())
            }
        }
    }

    /// Unconditional preemptions each new GC job is granted (0 for policies
    /// without a per-job budget).
    pub(crate) fn job_preempt_budget(&self) -> u32 {
        match *self {
            GcPolicy::ReadPreempt { budget } => budget,
            _ => 0,
        }
    }

    /// The shielded queue, if this policy designates one.
    pub(crate) fn shield_queue(&self) -> Option<u16> {
        match *self {
            GcPolicy::QueueShield { queue } => Some(queue),
            _ => None,
        }
    }
}

/// Deterministic token bucket backing [`GcPolicy::WindowedTokens`]: `used`
/// counts the jobs started in the window beginning at `window_start`. The
/// window advances lazily (on the first take at or past its end), so the
/// bucket needs no timer events of its own.
#[derive(Debug, Clone, Default)]
pub(crate) struct GcThrottle {
    window_start: SimTime,
    used: u32,
}

impl GcThrottle {
    /// Returns the bucket to its initial (full, window-at-zero) state.
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
    }

    /// Takes one token at simulated time `now` under a `tokens`-per-`window`
    /// budget; `false` means the bucket is dry for the current window.
    pub(crate) fn try_take(&mut self, now: SimTime, tokens: u32, window: SimTime) -> bool {
        if now >= self.window_start + window {
            self.window_start = now;
            self.used = 0;
        }
        if self.used < tokens {
            self.used += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_greedy() {
        assert_eq!(GcPolicy::default(), GcPolicy::Greedy);
        assert_eq!(GcPolicy::Greedy.job_preempt_budget(), 0);
        assert_eq!(GcPolicy::Greedy.shield_queue(), None);
    }

    #[test]
    fn parse_builds_each_policy_with_budget_defaults() {
        assert_eq!(GcPolicy::parse("greedy", None), Ok(GcPolicy::Greedy));
        assert_eq!(
            GcPolicy::parse("read-preempt", None),
            Ok(GcPolicy::ReadPreempt { budget: 4 })
        );
        assert_eq!(
            GcPolicy::parse("read-preempt", Some(2)),
            Ok(GcPolicy::ReadPreempt { budget: 2 })
        );
        assert_eq!(
            GcPolicy::parse("windowed-tokens", Some(3)),
            Ok(GcPolicy::WindowedTokens {
                tokens: 3,
                window_us: DEFAULT_TOKEN_WINDOW_US
            })
        );
        assert_eq!(
            GcPolicy::parse("queue-shield", Some(1)),
            Ok(GcPolicy::QueueShield { queue: 1 })
        );
        assert_eq!(
            GcPolicy::parse("queue-shield", None),
            Ok(GcPolicy::QueueShield { queue: 0 })
        );
    }

    #[test]
    fn parse_rejects_unknown_names_and_unusable_budgets() {
        assert!(GcPolicy::parse("eager", None).is_err());
        assert!(GcPolicy::parse("greedy", Some(4)).is_err());
        assert!(GcPolicy::parse("read-preempt", Some(0)).is_err());
        assert!(GcPolicy::parse("windowed-tokens", Some(0)).is_err());
        assert!(GcPolicy::parse("queue-shield", Some(u16::MAX as u32 + 1)).is_err());
    }

    #[test]
    fn validation_rejects_zero_knobs() {
        assert!(GcPolicy::Greedy.validate().is_ok());
        assert!(GcPolicy::ReadPreempt { budget: 0 }.validate().is_err());
        assert!(GcPolicy::WindowedTokens {
            tokens: 0,
            window_us: 10
        }
        .validate()
        .is_err());
        assert!(GcPolicy::WindowedTokens {
            tokens: 1,
            window_us: 0
        }
        .validate()
        .is_err());
        assert!(GcPolicy::QueueShield { queue: 7 }.validate().is_ok());
    }

    #[test]
    fn throttle_grants_tokens_per_window_and_replenishes() {
        let mut t = GcThrottle::default();
        let window = SimTime::from_us(100);
        assert!(t.try_take(SimTime::ZERO, 2, window));
        assert!(t.try_take(SimTime::from_us(10), 2, window));
        // Bucket dry for the rest of the window.
        assert!(!t.try_take(SimTime::from_us(50), 2, window));
        assert!(!t.try_take(SimTime::from_us(99), 2, window));
        // A take at or past the window end replenishes.
        assert!(t.try_take(SimTime::from_us(100), 2, window));
        assert!(t.try_take(SimTime::from_us(100), 2, window));
        assert!(!t.try_take(SimTime::from_us(150), 2, window));
        t.reset();
        assert!(t.try_take(SimTime::ZERO, 1, window));
    }
}
