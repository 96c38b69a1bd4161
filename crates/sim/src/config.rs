//! SSD configuration (§7.1 of the paper) and validation.

use crate::gc::GcPolicy;
use rr_flash::calibration::OperatingCondition;
use rr_flash::geometry::ChipGeometry;
use rr_flash::timing::NandTimings;
use std::fmt;

/// A rejected configuration value, carrying a human-readable description of
/// the first inconsistency found.
///
/// Returned by the fallible constructors and validators of the host-side
/// front end ([`ReplayMode::try_open_loop_rate`](crate::replay::ReplayMode),
/// [`HostQueueConfig::validate`](crate::hostq::HostQueueConfig)) so callers
/// driven by external input (CLI flags, sweep scripts) can surface the
/// problem instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates an error from a description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> Self {
        e.message
    }
}

/// How the device-side arbiter drains the host submission queues
/// (NVMe §4.13-style command arbitration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbPolicy {
    /// Plain round-robin: every queue gets `burst` consecutive commands per
    /// turn, idle queues forfeit their turn.
    #[default]
    RoundRobin,
    /// Weighted round-robin: queue `q` gets `weight_q × burst` consecutive
    /// commands per turn — higher-weight queues drain proportionally faster
    /// while backlogged, and a starved queue still progresses every round.
    WeightedRoundRobin,
}

/// Configuration of the simulated SSD.
///
/// The paper's evaluation SSD: 512 GiB-class, 4 channels × 4 dies × 2 planes,
/// 1,888 blocks/plane, 576 × 16-KiB pages/block, 72 b/1 KiB ECC with
/// tECC = 20 µs, 1 Gb/s channels (tDMA = 16 µs), out-of-order read-priority
/// scheduling and program/erase suspension.
///
/// # Example
///
/// ```
/// use rr_sim::config::SsdConfig;
/// let cfg = SsdConfig::scaled_for_tests();
/// cfg.validate().expect("preset configurations are valid");
/// assert!(cfg.total_pages() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Number of channels (each with its own DMA bus and ECC decoder).
    pub channels: u32,
    /// Geometry of the chip behind each channel (dies/planes/blocks/pages).
    pub chip: ChipGeometry,
    /// NAND + channel timing parameters (Table 1).
    pub timings: NandTimings,
    /// The preconditioned operating point: all blocks carry this P/E-cycle
    /// count, and data written *before* the simulated run (cold data) carries
    /// this retention age. Data written during the run has ~zero retention.
    pub condition: OperatingCondition,
    /// Seed for the per-page error-model variation and any generator noise.
    pub seed: u64,
    /// Ideal-SSD switch: when set, no read ever requires a retry (the paper's
    /// `NoRR` upper-bound configuration).
    pub ideal_no_retry: bool,
    /// Probability that a page is an error-model outlier (see
    /// `ErrorModel::with_outlier_rate`); 0 per the paper's measurements.
    pub outlier_rate: f64,
    /// Free-block low-water mark per plane at which garbage collection starts.
    pub gc_threshold_blocks: u32,
    /// When garbage collection may run and who may preempt it (see
    /// [`crate::gc`]). The default [`GcPolicy::Greedy`] is bit-identical to
    /// the engine's historical behavior.
    pub gc_policy: GcPolicy,
    /// Remaining program/erase time below which suspension is not worth it.
    pub min_suspend_benefit_us: u64,
}

impl SsdConfig {
    /// The paper's §7.1 configuration (full 512 GiB-class geometry).
    pub fn asplos21() -> Self {
        Self {
            channels: 4,
            chip: ChipGeometry::asplos21(),
            timings: NandTimings::table1(),
            condition: OperatingCondition::new(0.0, 0.0, 30.0),
            seed: 0x55D_0001,
            ideal_no_retry: false,
            outlier_rate: 0.0,
            gc_threshold_blocks: 4,
            gc_policy: GcPolicy::Greedy,
            min_suspend_benefit_us: 100,
        }
    }

    /// The paper geometry scaled down (64 blocks/plane instead of 1,888) so a
    /// simulation run fits in test budgets. Per-request latency math is
    /// identical; only capacity shrinks, and `tests/scaling.rs` asserts that
    /// response-time *ratios* between mechanisms are insensitive to this.
    pub fn scaled_for_tests() -> Self {
        let mut cfg = Self::asplos21();
        cfg.chip.blocks_per_plane = 64;
        cfg
    }

    /// Sets the operating point (builder-style).
    pub fn with_condition(mut self, condition: OperatingCondition) -> Self {
        self.condition = condition;
        self
    }

    /// Sets the seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the garbage-collection policy (builder-style).
    pub fn with_gc_policy(mut self, policy: GcPolicy) -> Self {
        self.gc_policy = policy;
        self
    }

    /// Marks this configuration as the ideal no-read-retry SSD (builder-style).
    pub fn ideal(mut self) -> Self {
        self.ideal_no_retry = true;
        self
    }

    /// Total dies across all channels.
    pub fn total_dies(&self) -> u32 {
        self.channels * self.chip.dies
    }

    /// Total planes across all channels.
    pub fn total_planes(&self) -> u32 {
        self.total_dies() * self.chip.planes_per_die
    }

    /// Total physical blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() as u64 * self.chip.blocks_per_plane as u64
    }

    /// Total physical pages.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.chip.pages_per_block as u64
    }

    /// Largest LPN count the FTL will accept, leaving room for
    /// over-provisioning (one free block per plane beyond the GC threshold).
    pub fn max_lpns(&self) -> u64 {
        let reserve_blocks = (self.gc_threshold_blocks as u64 + 2) * self.total_planes() as u64;
        let usable_blocks = self.total_blocks().saturating_sub(reserve_blocks);
        usable_blocks * self.chip.pages_per_block as u64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("at least one channel is required".into());
        }
        self.chip.validate()?;
        if !(0.0..=1.0).contains(&self.outlier_rate) {
            return Err(format!(
                "outlier rate {} must be in [0, 1]",
                self.outlier_rate
            ));
        }
        if self.gc_threshold_blocks < 1 {
            return Err("gc threshold must be at least 1 block".into());
        }
        if self.chip.blocks_per_plane <= self.gc_threshold_blocks + 2 {
            return Err("geometry too small for the GC reserve".into());
        }
        self.gc_policy.validate().map_err(String::from)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_flash::calibration::ECC_CAPABILITY_PER_KIB;

    #[test]
    fn paper_config_matches_section_7_1() {
        let cfg = SsdConfig::asplos21();
        cfg.validate().unwrap();
        assert_eq!(cfg.channels, 4);
        assert_eq!(cfg.chip.dies, 4);
        assert_eq!(cfg.chip.planes_per_die, 2);
        assert_eq!(cfg.chip.blocks_per_plane, 1888);
        assert_eq!(cfg.chip.pages_per_block, 576);
        assert_eq!(ECC_CAPABILITY_PER_KIB, 72);
        assert!(cfg.max_lpns() > 0);
    }

    #[test]
    fn scaled_config_preserves_latency_parameters() {
        let full = SsdConfig::asplos21();
        let small = SsdConfig::scaled_for_tests();
        small.validate().unwrap();
        assert_eq!(full.timings, small.timings);
        assert_eq!(full.chip.pages_per_block, small.chip.pages_per_block);
        assert!(small.total_pages() < full.total_pages());
    }

    #[test]
    fn default_gc_policy_is_greedy() {
        assert_eq!(SsdConfig::asplos21().gc_policy, GcPolicy::Greedy);
        assert_eq!(SsdConfig::scaled_for_tests().gc_policy, GcPolicy::Greedy);
    }

    #[test]
    fn builder_methods() {
        let cfg = SsdConfig::scaled_for_tests()
            .with_seed(99)
            .with_condition(OperatingCondition::new(2000.0, 12.0, 30.0))
            .ideal();
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.condition.pec, 2000.0);
        assert!(cfg.ideal_no_retry);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = SsdConfig::scaled_for_tests();
        cfg.channels = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::scaled_for_tests();
        cfg.outlier_rate = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::scaled_for_tests();
        cfg.chip.blocks_per_plane = 5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn max_lpns_leaves_overprovisioning() {
        let cfg = SsdConfig::scaled_for_tests();
        assert!(cfg.max_lpns() < cfg.total_pages());
        // At least the GC reserve per plane is held back.
        let held_back = cfg.total_pages() - cfg.max_lpns();
        assert!(held_back >= cfg.total_planes() as u64 * cfg.chip.pages_per_block as u64);
    }
}
