//! # ssd-readretry — a reproduction of "Reducing Solid-State Drive Read
//! # Latency by Optimizing Read-Retry" (ASPLOS 2021)
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`util`] | `rr-util` | deterministic RNG, distributions, statistics, simulated time |
//! | [`flash`] | `rr-flash` | 3D TLC NAND model: geometry, Table-1 timings, calibrated error model, retry table |
//! | [`sim`] | `rr-sim` | event-driven multi-queue SSD simulator (MQSim-equivalent) |
//! | [`workloads`] | `rr-workloads` | MSRC + YCSB block workloads (Table 2) |
//! | [`charact`] | `rr-charact` | virtual chip-characterization platform (Figs. 4b, 5, 7–11) |
//! | [`core`] | `rr-core` | **the paper's contribution**: PR², AR², PnAR², PSO, RPT, experiments |
//!
//! # Quickstart
//!
//! ```
//! use ssd_readretry::prelude::*;
//!
//! // An end-of-life SSD (2K P/E cycles) holding year-old cold data.
//! let base = SsdConfig::scaled_for_tests();
//! let point = OperatingPoint::new(2000.0, 12.0);
//! let rpt = ReadTimingParamTable::default();
//! let trace = MsrcWorkload::Mds1.synthesize(500, 42);
//!
//! let baseline = run_one(&base, Mechanism::Baseline, point, &trace, &rpt);
//! let pnar2 = run_one(&base, Mechanism::PnAr2, point, &trace, &rpt);
//! assert!(pnar2.avg_response_us() < baseline.avg_response_us());
//!
//! // Every evaluation grid is one `RunSpec`: here a two-depth closed-loop
//! // sweep of both mechanisms, replayed by `run`.
//! let traces = [trace];
//! let spec = RunSpec::qd_sweep(&base, &traces, point, &[1, 8], &[Mechanism::Baseline, Mechanism::PnAr2]);
//! let cells = run(&spec, None).expect("valid spec").qd;
//! assert_eq!(cells.len(), 4);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rr_charact as charact;
pub use rr_core as core;
pub use rr_flash as flash;
pub use rr_sim as sim;
pub use rr_util as util;
pub use rr_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use rr_charact::platform::TestPlatform;
    pub use rr_core::experiment::{
        run, run_one, run_one_with_mode, ArrayCellStats, ArraySetup, DeviceTail, MatrixCell,
        Mechanism, OperatingPoint, QdSweepCell, QueueSetup, RateSweepCell, RunContext, RunReport,
        RunSpec, Shape,
    };
    pub use rr_core::rpt::ReadTimingParamTable;
    pub use rr_core::ReadRetryController;
    pub use rr_flash::prelude::*;
    pub use rr_sim::array::{
        route_redundant, worker_budget, ArrayReport, DeviceSet, FailurePlan, PlacementPolicy,
        Redundancy, RedundancyStats, RedundantRouting,
    };
    pub use rr_sim::config::{ArbPolicy, ConfigError, SsdConfig};
    pub use rr_sim::gc::GcPolicy;
    pub use rr_sim::hostq::HostQueueConfig;
    pub use rr_sim::metrics::{GcStalls, LatencySummary, QueueLatency};
    pub use rr_sim::readflow::BaselineController;
    pub use rr_sim::replay::ReplayMode;
    pub use rr_sim::request::{HostRequest, IoOp};
    pub use rr_sim::scheduler::Arbiter;
    pub use rr_sim::snapshot::{DeviceImage, ImageBank};
    pub use rr_sim::ssd::{SimArena, Ssd};
    pub use rr_util::rng::Rng;
    pub use rr_util::time::SimTime;
    pub use rr_workloads::msrc::MsrcWorkload;
    pub use rr_workloads::trace::Trace;
    pub use rr_workloads::ycsb::YcsbWorkload;
}
