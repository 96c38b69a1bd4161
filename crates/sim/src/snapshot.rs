//! Warm-start device images: the snapshotable boundary around all mutable
//! device state.
//!
//! Every sweep cell used to re-age and re-precondition the whole device from
//! scratch even though that work never varies across cells. A
//! [`DeviceImage`] turns the aged device into a first-class artifact: capture
//! it once (from a preconditioned or mid-life [`crate::ssd::Ssd`]), then fork
//! it across sweep cells, `--jobs` workers, or a long-lived `repro serve`
//! process — each restore is allocation-retaining and bit-identical to
//! rebuilding from scratch. Redundant arrays (`--redundancy replicate:R` /
//! `ec:K:N`) fork the same footprint image across every device of a replica
//! or stripe set: each copy carries identical preconditioned state, so the
//! wait-for-k order statistic measures scheduling and GC skew, not
//! initial-state skew. An [`ImageBank`] is the on-disk unit: one image
//! per distinct trace footprint, so a whole multi-workload experiment
//! warm-starts from a single `.rrimg` file.
//!
//! # What is (and is not) in an image
//!
//! * **In**: the full [`FtlState`] — logical→physical map, reverse map,
//!   per-block metadata, per-plane open blocks and free lists, the
//!   write-striping cursor, and the per-page freshness bitmap (which pages
//!   still hold their long-retention preconditioned data vs. having been
//!   reprogrammed). Plus the error model's [`ModelState`] (seed + outlier
//!   rate): the model is stationary, so those two numbers *are* its entire
//!   replayable state.
//! * **Out**: the operating condition (P/E cycles, retention age,
//!   temperature) — that is an *input* of a run, not device state; the same
//!   image replays under every operating point of a sweep matrix. Also out:
//!   in-flight events, transactions and host queues (images are captured at
//!   quiescence, where those are empty by construction).
//!
//! # Version policy
//!
//! Image files carry the `RRIMG` magic, a format version, and a trailing
//! checksum (see [`rr_util::codec`]). Version bumps append fields; a reader
//! accepts any version from 1 up to [`ImageBank::VERSION`] so a checked-in
//! v1 image keeps loading forever, and rejects newer versions loudly.
//!
//! # Example
//!
//! ```
//! use rr_sim::config::SsdConfig;
//! use rr_sim::snapshot::{DeviceImage, ImageBank};
//!
//! let cfg = SsdConfig::scaled_for_tests();
//! let image = DeviceImage::preconditioned(&cfg, 10_000).expect("footprint fits");
//! let bank = ImageBank::single(image);
//! let bytes = bank.to_bytes();
//! let back = ImageBank::from_bytes(&bytes).expect("intact file");
//! assert_eq!(bank, back);
//! assert!(back.get(10_000).is_some());
//! ```

use crate::config::{ConfigError, SsdConfig};
use crate::ftl::{Ftl, FtlState};
use rr_flash::error_model::ModelState;
use rr_util::codec::{CodecError, Decoder, Encoder, MAGIC_LEN};
use std::fmt;
use std::path::Path;

/// A snapshot of all mutable device state for one footprint: the artifact a
/// sweep forks across cells and a `repro serve` process answers queries
/// against.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceImage {
    ftl: FtlState,
    model: ModelState,
}

/// Why an image file could not be loaded.
#[derive(Debug)]
pub enum ImageLoadError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// The bytes were not an intact, current-or-older device image.
    Codec(CodecError),
}

impl fmt::Display for ImageLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageLoadError::Io(e) => write!(f, "reading image: {e}"),
            ImageLoadError::Codec(e) => write!(f, "decoding image: {e}"),
        }
    }
}

impl std::error::Error for ImageLoadError {}

impl From<CodecError> for ImageLoadError {
    fn from(e: CodecError) -> Self {
        ImageLoadError::Codec(e)
    }
}

impl From<std::io::Error> for ImageLoadError {
    fn from(e: std::io::Error) -> Self {
        ImageLoadError::Io(e)
    }
}

impl DeviceImage {
    /// Builds an image from already-captured parts (see
    /// [`Ftl::capture`] and `ErrorModel::capture`).
    pub fn from_parts(ftl: FtlState, model: ModelState) -> Self {
        Self { ftl, model }
    }

    /// The cheap capture point: a freshly preconditioned device. This is
    /// exactly the state every sweep cell used to rebuild from scratch —
    /// capturing it once and forking is what `--from-image` and the sweep
    /// runners' internal warm start skip per cell.
    ///
    /// # Errors
    ///
    /// Propagates configuration/footprint validation.
    pub fn preconditioned(cfg: &SsdConfig, lpn_count: u64) -> Result<Self, ConfigError> {
        let mut ftl = Ftl::new(cfg, lpn_count)?;
        ftl.precondition();
        Ok(Self {
            ftl: ftl.capture(),
            model: ModelState {
                seed: cfg.seed,
                outlier_rate: cfg.outlier_rate,
            },
        })
    }

    /// The captured FTL state.
    pub fn ftl(&self) -> &FtlState {
        &self.ftl
    }

    /// The captured error-model state.
    pub fn model(&self) -> ModelState {
        self.model
    }

    /// Number of logical pages the imaged device serves.
    pub fn lpn_count(&self) -> u64 {
        self.ftl.lpn_count()
    }

    /// Checks that a run under `cfg` with `lpn_count` logical pages may be
    /// warm-started from this image and stay bit-identical to a cold start:
    /// the footprint and the model inputs must match exactly (geometry is
    /// checked by [`Ftl::restore`] itself). The operating condition is
    /// deliberately *not* checked — it is a run input, and one image serves
    /// every operating point of a sweep.
    ///
    /// # Errors
    ///
    /// A typed description of the first mismatch.
    pub fn validate_for(&self, cfg: &SsdConfig, lpn_count: u64) -> Result<(), ConfigError> {
        if self.ftl.lpn_count() != lpn_count {
            return Err(ConfigError::new(format!(
                "image holds a {}-page footprint but the run needs {lpn_count} pages",
                self.ftl.lpn_count()
            )));
        }
        if self.model.seed != cfg.seed {
            return Err(ConfigError::new(format!(
                "image was captured under seed {:#x}, run uses {:#x}",
                self.model.seed, cfg.seed
            )));
        }
        if self.model.outlier_rate.to_bits() != cfg.outlier_rate.to_bits() {
            return Err(ConfigError::new(format!(
                "image was captured with outlier rate {}, run uses {}",
                self.model.outlier_rate, cfg.outlier_rate
            )));
        }
        Ok(())
    }

    /// Appends this image to an artifact being encoded.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.model.seed);
        enc.put_f64(self.model.outlier_rate);
        self.ftl.encode(enc);
    }

    /// Reads one image section written by [`DeviceImage::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a structurally impossible device.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let seed = dec.take_u64()?;
        let outlier_rate = dec.take_f64()?;
        if !(0.0..=1.0).contains(&outlier_rate) {
            return Err(CodecError::invalid(format!(
                "outlier rate {outlier_rate} out of [0, 1]"
            )));
        }
        let ftl = FtlState::decode(dec)?;
        Ok(Self {
            ftl,
            model: ModelState { seed, outlier_rate },
        })
    }
}

/// The on-disk unit of warm starts: one [`DeviceImage`] per distinct trace
/// footprint, so a multi-workload sweep (whose traces legitimately differ in
/// footprint) forks from a single `.rrimg` file. A single-workload file is
/// simply a bank of one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImageBank {
    images: Vec<DeviceImage>,
}

impl ImageBank {
    /// Artifact-kind magic of an image file.
    pub const MAGIC: [u8; MAGIC_LEN] = *b"RRIMG\0\0\0";
    /// Newest format version this build writes (and the newest it reads).
    pub const VERSION: u32 = 1;

    /// A bank of one image.
    pub fn single(image: DeviceImage) -> Self {
        Self {
            images: vec![image],
        }
    }

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

    /// The images, in insertion order.
    pub fn images(&self) -> &[DeviceImage] {
        &self.images
    }

    /// Number of images in the bank.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Encodes the bank in the framed `RRIMG` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new(Self::MAGIC, Self::VERSION);
        enc.put_u64(self.images.len() as u64);
        for image in &self.images {
            image.encode(&mut enc);
        }
        enc.finish()
    }

    /// Decodes a bank, verifying framing, checksum, version and the
    /// structural consistency of every image. Never panics on arbitrary
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError`] describing the first problem found.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes, Self::MAGIC)?;
        let version = dec.version();
        if version == 0 || version > Self::VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: Self::VERSION,
            });
        }
        let n = dec.take_u64()?;
        if n > dec.remaining() as u64 {
            return Err(CodecError::Truncated { what: "image bank" });
        }
        let mut images = Vec::with_capacity(n as usize);
        for _ in 0..n {
            images.push(DeviceImage::decode(&mut dec)?);
        }
        if version == Self::VERSION {
            dec.finish()?;
        } else {
            // A version-1 reader decoding a newer-but-compatible file
            // tolerates appended fields; at version 1 this arm is
            // unreachable and exists to document the policy.
            dec.finish_lenient();
        }
        Ok(Self { images })
    }

    /// Writes the bank to a file.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a bank from a file.
    ///
    /// # Errors
    ///
    /// [`ImageLoadError`] on I/O or decode failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ImageLoadError> {
        let bytes = std::fs::read(path)?;
        Ok(Self::from_bytes(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SsdConfig {
        let mut cfg = SsdConfig::scaled_for_tests();
        cfg.chip.blocks_per_plane = 16;
        cfg.chip.pages_per_block = 12;
        cfg.with_seed(0xA6ED)
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let cfg = small_cfg();
        let bank = ImageBank::preconditioned(&cfg, [400, 200, 400]).unwrap();
        // Duplicate footprints collapse to one image.
        assert_eq!(bank.len(), 2);
        let bytes = bank.to_bytes();
        let back = ImageBank::from_bytes(&bytes).unwrap();
        assert_eq!(bank, back);
        assert_eq!(back.get(400).unwrap().lpn_count(), 400);
        assert_eq!(back.get(200).unwrap().model().seed, 0xA6ED);
        assert!(back.get(300).is_none());
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let cfg = small_cfg();
        let bank = ImageBank::preconditioned(&cfg, [200]).unwrap();
        let dir = std::env::temp_dir().join("rr_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.rrimg");
        bank.save(&path).unwrap();
        let back = ImageBank::load(&path).unwrap();
        assert_eq!(bank, back);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(ImageBank::load(&path), Err(ImageLoadError::Io(_))));
    }

    #[test]
    fn wrong_version_is_rejected_with_the_typed_error() {
        let cfg = small_cfg();
        let bank = ImageBank::preconditioned(&cfg, [100]).unwrap();
        // Re-frame the same payload under a future version.
        let mut enc = Encoder::new(ImageBank::MAGIC, ImageBank::VERSION + 1);
        enc.put_u64(1);
        bank.images()[0].encode(&mut enc);
        let future = enc.finish();
        assert!(matches!(
            ImageBank::from_bytes(&future),
            Err(CodecError::UnsupportedVersion {
                found,
                supported: ImageBank::VERSION,
            }) if found == ImageBank::VERSION + 1
        ));
    }

    #[test]
    fn corrupt_image_count_is_rejected_without_allocation() {
        let mut enc = Encoder::new(ImageBank::MAGIC, ImageBank::VERSION);
        enc.put_u64(u64::MAX);
        let bytes = enc.finish();
        assert!(matches!(
            ImageBank::from_bytes(&bytes),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn fork_for_array_shares_one_image_without_cloning() {
        let cfg = small_cfg();
        let bank = ImageBank::preconditioned(&cfg, [300]).unwrap();
        let forks = bank.fork_for_array(300, 4).unwrap();
        assert_eq!(forks.len(), 4);
        let base = bank.get(300).unwrap() as *const DeviceImage;
        // Every device slot points at the same image — forking is free.
        assert!(forks.iter().all(|f| std::ptr::eq(*f, base)));
        assert!(bank.fork_for_array(300, 0).is_err());
        assert!(bank.fork_for_array(301, 4).is_err());
    }

    #[test]
    fn validate_for_pins_footprint_and_model_inputs() {
        let cfg = small_cfg();
        let image = DeviceImage::preconditioned(&cfg, 300).unwrap();
        image.validate_for(&cfg, 300).unwrap();
        assert!(image.validate_for(&cfg, 301).is_err());
        let reseeded = cfg.clone().with_seed(1);
        assert!(image.validate_for(&reseeded, 300).is_err());
        let mut outliers = cfg.clone();
        outliers.outlier_rate = 0.5;
        assert!(image.validate_for(&outliers, 300).is_err());
        // The operating condition is a run input, not device state.
        let aged = cfg
            .clone()
            .with_condition(rr_flash::calibration::OperatingCondition::new(
                8000.0, 12.0, 55.0,
            ));
        image.validate_for(&aged, 300).unwrap();
    }
}
