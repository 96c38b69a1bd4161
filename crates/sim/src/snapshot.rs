//! Warm-start device images: the snapshotable boundary around all mutable
//! device state.
//!
//! Every sweep cell used to re-age and re-precondition the whole device from
//! scratch even though that work never varies across cells. A
//! [`DeviceImage`] turns the aged device into a first-class value: capture
//! it once (from a preconditioned or mid-life [`crate::ssd::Ssd`]), then fork
//! it across sweep cells, `--jobs` workers, or a long-lived `repro serve`
//! process — each restore is allocation-retaining and bit-identical to
//! rebuilding from scratch. A restore costs what the last run changed, not
//! what the image holds: when the target FTL last restored the same image,
//! [`crate::ftl::Ftl::restore`] copies back only the 64-entry table chunks
//! that run marked dirty. Redundant arrays (`--redundancy replicate:R` /
//! `ec:K:N`) fork the same footprint image across every device of a replica
//! or stripe set: each copy carries identical preconditioned state, so the
//! wait-for-k order statistic measures scheduling and GC skew, not
//! initial-state skew. An [`ImageBank`] holds one image per distinct trace
//! footprint, so a whole multi-workload experiment preconditions once.
//!
//! # What is (and is not) in an image
//!
//! * **In**: the FTL's tables — logical→physical map, reverse map,
//!   per-block metadata, per-plane open blocks and free lists, the
//!   write-striping cursor, and the per-page freshness bitmap (which pages
//!   still hold their long-retention preconditioned data vs. having been
//!   reprogrammed). That is the whole of an aged device's state: the error
//!   model is stationary, a hash of (seed, page, condition), and every run
//!   rebuilds it from its configuration.
//! * **Out**: the operating condition (P/E cycles, retention age,
//!   temperature) — that is an *input* of a run, not device state; the same
//!   image replays under every operating point of a sweep matrix. Also out:
//!   the model's seed and outlier rate, for the same reason: an image
//!   preconditioned under one seed replays bit-identically under another.
//!   And in-flight events, transactions and host queues (images are
//!   captured at quiescence, where those are empty by construction).
//!
//! # Example
//!
//! ```
//! use rr_sim::config::SsdConfig;
//! use rr_sim::snapshot::ImageBank;
//!
//! let cfg = SsdConfig::scaled_for_tests();
//! let bank = ImageBank::preconditioned(&cfg, [10_000]).expect("footprint fits");
//! let devices = bank.fork_for_array(10_000, 2).expect("bank holds the footprint");
//! assert!(std::ptr::eq(devices[0], devices[1]));
//! assert_eq!(devices[0].lpn_count(), 10_000);
//! ```

use crate::config::{ConfigError, SsdConfig};
pub use crate::ftl::DeviceImage;

/// The unit of warm starts: one [`DeviceImage`] per distinct trace
/// footprint, so a multi-workload sweep (whose traces legitimately differ in
/// footprint) preconditions each footprint once and forks it everywhere.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImageBank {
    images: Vec<DeviceImage>,
}

impl ImageBank {
    /// Preconditions one image per *distinct* footprint — the "age once,
    /// fork everywhere" constructor every sweep runner calls internally.
    ///
    /// # Errors
    ///
    /// Propagates configuration/footprint validation.
    pub fn preconditioned(
        cfg: &SsdConfig,
        footprints: impl IntoIterator<Item = u64>,
    ) -> Result<Self, ConfigError> {
        let mut bank = Self::default();
        for lpn_count in footprints {
            if bank.get(lpn_count).is_none() {
                bank.images
                    .push(DeviceImage::preconditioned(cfg, lpn_count)?);
            }
        }
        Ok(bank)
    }

    /// The image for a footprint, if the bank holds one.
    pub fn get(&self, lpn_count: u64) -> Option<&DeviceImage> {
        self.images.iter().find(|i| i.lpn_count() == lpn_count)
    }

    /// Forks one warm image across every device of an array: `devices`
    /// references to the bank's image for `lpn_count` (the devices are
    /// full-footprint replicas, so they all restore from the *same* image).
    /// No image bytes are cloned here — each device's
    /// [`crate::array::DeviceSet`] slot restores from the shared reference
    /// into its own retained allocations, query after query.
    ///
    /// # Errors
    ///
    /// A typed [`ConfigError`] when `devices` is zero or the bank holds no
    /// image for the footprint (a device-count/footprint mismatch must not
    /// silently fall back to a cold start).
    pub fn fork_for_array(
        &self,
        lpn_count: u64,
        devices: u32,
    ) -> Result<Vec<&DeviceImage>, ConfigError> {
        if devices == 0 {
            return Err(ConfigError::new(
                "an array needs at least one device (devices = 0)",
            ));
        }
        let image = self.get(lpn_count).ok_or_else(|| {
            ConfigError::new(format!(
                "image bank holds no {lpn_count}-page image to fork across {devices} devices"
            ))
        })?;
        Ok(vec![image; devices as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SsdConfig {
        let mut cfg = SsdConfig::scaled_for_tests();
        cfg.chip.blocks_per_plane = 16;
        cfg.chip.pages_per_block = 12;
        cfg
    }

    #[test]
    fn fork_for_array_shares_one_image_without_cloning() {
        let cfg = small_cfg();
        // Duplicate footprints collapse to one image.
        let bank = ImageBank::preconditioned(&cfg, [300, 200, 300]).unwrap();
        assert_eq!(bank.images.len(), 2);
        assert_eq!(bank.get(300).unwrap().lpn_count(), 300);
        assert_eq!(bank.get(200).unwrap().lpn_count(), 200);
        assert!(bank.get(250).is_none());
        let forks = bank.fork_for_array(300, 4).unwrap();
        assert_eq!(forks.len(), 4);
        let base = bank.get(300).unwrap() as *const DeviceImage;
        // Every device slot points at the same image — forking is free.
        assert!(forks.iter().all(|f| std::ptr::eq(*f, base)));
        assert!(bank.fork_for_array(300, 0).is_err());
        assert!(bank.fork_for_array(301, 4).is_err());
    }
}
