//! # rr-util — deterministic foundations for the read-retry reproduction
//!
//! This crate provides the small, dependency-free building blocks shared by every
//! other crate in the workspace:
//!
//! * [`rng`] — a deterministic, splittable pseudo-random number generator
//!   (SplitMix64 seeding a xoshiro256++ core). Every figure in the paper
//!   reproduction must be bit-for-bit reproducible from a seed, which is why we do
//!   not use OS entropy anywhere.
//! * [`dist`] — samplers needed by the flash error model and the workload
//!   generators: normal, Zipf, Poisson-process arrivals.
//! * [`stats`] — online statistics (Welford), percentile tracking, and fixed-width
//!   histograms used by the simulator's metrics and the characterization figures.
//! * [`time`] — [`time::SimTime`], a nanosecond-resolution fixed-point simulated
//!   clock, and duration helpers matching the paper's µs-scale timing parameters.
//! * [`interp`] — clamped bilinear interpolation over anchor grids; the flash
//!   error-model calibration (DESIGN.md §5) is expressed as anchor grids over
//!   (P/E cycles × retention months).
//!
//! # Example
//!
//! ```
//! use rr_util::rng::Rng;
//! use rr_util::dist::Zipf;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let zipf = Zipf::new(1000, 0.99).expect("valid parameters");
//! let key = zipf.sample(&mut rng);
//! assert!(key < 1000);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod interp;
pub mod rng;
pub mod stats;
pub mod time;

pub use rng::Rng;
pub use time::SimTime;
