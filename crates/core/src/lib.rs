//! # rr-core — PR² and AR²: the paper's contribution
//!
//! This crate implements the two read-retry optimizations of Park et al.,
//! *"Reducing Solid-State Drive Read Latency by Optimizing Read-Retry"*
//! (ASPLOS 2021), on top of the `rr-sim` SSD simulator:
//!
//! * [`mechanisms::ReadRetryController`] — one state machine with two
//!   features. **Pipelined Read-Retry** (PR²) overlaps each retry step's
//!   sensing with the previous step's transfer + decode via `CACHE READ`,
//!   killing the one speculative extra step with `RESET` (Eq. 4, Fig. 12).
//!   **Adaptive Read-Retry** (AR²) spends the final retry step's large
//!   ECC-capability margin on a 40–54 % shorter bit-line precharge, looked
//!   up per (P/E cycles, retention age) in the
//!   [`rpt::ReadTimingParamTable`] and installed with `SET FEATURE`
//!   (Eq. 5, Fig. 13). PnAR² combines both, and the [`extensions`] of §8
//!   only change when the timing is installed. A third feature, the entry
//!   each read's walk starts from, adds PSO, the MICRO'19 retry-*count*
//!   reducer the paper compares against and composes with (§7.3), with its
//!   [`pso::PsoPredictor`];
//! * [`experiment`] — the §7 evaluation harness producing Fig. 14/15 and
//!   the load sweeps: one [`RunSpec`] (workloads × mechanisms × a matrix,
//!   QD-sweep or rate-sweep shape, behind a front end, on one device or an
//!   array) replayed by one [`run`]; [`run_one`] replays a single cell.
//!
//! # Example
//!
//! ```
//! use rr_core::experiment::{run_one, Mechanism, OperatingPoint};
//! use rr_core::rpt::ReadTimingParamTable;
//! use rr_sim::config::SsdConfig;
//! use rr_sim::request::{HostRequest, IoOp};
//! use rr_workloads::trace::Trace;
//! use rr_util::time::SimTime;
//!
//! let base = SsdConfig::scaled_for_tests();
//! let rpt = ReadTimingParamTable::default();
//! let trace = Trace::new(
//!     "demo",
//!     (0..50).map(|i| HostRequest::new(SimTime::from_us(500 * i), IoOp::Read, i * 11, 1)).collect(),
//!     2_000,
//! );
//! let point = OperatingPoint::new(2000.0, 12.0); // end-of-life SSD
//! let baseline = run_one(&base, Mechanism::Baseline, point, &trace, &rpt);
//! let pnar2 = run_one(&base, Mechanism::PnAr2, point, &trace, &rpt);
//! // The paper's headline: PnAR2 substantially cuts response time.
//! assert!(pnar2.avg_response_us() < 0.8 * baseline.avg_response_us());
//!
//! // The same comparison as a Fig. 14-style matrix, normalized to Baseline.
//! let traces = [(trace, true)];
//! let spec = rr_core::RunSpec::matrix(&base, &traces, &[point], &[Mechanism::PnAr2]);
//! let cells = rr_core::run(&spec, None).expect("valid spec").matrix;
//! assert!(cells[0].normalized < 0.8);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod export;
pub mod extensions;
pub mod mechanisms;
pub mod pso;
pub mod rpt;

pub use experiment::{run, run_one, Mechanism, OperatingPoint, RunSpec};
pub use mechanisms::ReadRetryController;
pub use pso::PsoPredictor;
pub use rpt::ReadTimingParamTable;
