//! The one place the benchmark calls into `rr_core::experiment`.
//!
//! Every runner goes through the serial engine: one cell at a time
//! (`jobs = 1`), no channel shards, the default event queue. The sharded,
//! timing-wheel and event-backend paths are never called, so a change to the
//! experiment API (or the removal of those paths) has one file to touch here.

use rr_core::experiment::{self as exp, ArraySetup, MatrixCell, QdSweepCell, QueueSetup};
use rr_core::rpt::ReadTimingParamTable;
use rr_flash::calibration::OperatingCondition;
use rr_sim::config::{ConfigError, SsdConfig};
use rr_sim::readflow::RetryController;
use rr_sim::snapshot::ImageBank;
use rr_workloads::trace::Trace;
use std::sync::Arc;

pub use rr_core::experiment::{Mechanism, OperatingPoint};

/// Cells simulated concurrently by every runner call.
const JOBS: usize = 1;
/// Channel shards per cell: 0 selects the serial engine.
const SERIAL_ENGINE: u32 = 0;

/// The Fig. 14 matrix (`repro fig14`'s runner), warm-started from `bank`.
pub fn matrix(
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
    bank: &ImageBank,
) -> Result<Vec<MatrixCell>, ConfigError> {
    exp::run_matrix_parallel_from(base, traces, points, mechanisms, JOBS, bank)
}

/// A closed-loop queue-depth sweep on one device (`repro sweep-qd`).
#[allow(clippy::too_many_arguments)]
pub fn qd_sweep(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    queue_depths: &[u32],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    bank: &ImageBank,
) -> Result<Vec<QdSweepCell>, ConfigError> {
    exp::run_qd_sweep_queued_from(
        base,
        traces,
        point,
        queue_depths,
        mechanisms,
        setup,
        JOBS,
        bank,
    )
}

/// A closed-loop queue-depth sweep across a device array
/// (`repro sweep-qd --devices N`).
#[allow(clippy::too_many_arguments)]
pub fn qd_sweep_array(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    queue_depths: &[u32],
    mechanisms: &[Mechanism],
    array: ArraySetup,
    bank: &ImageBank,
) -> Result<Vec<QdSweepCell>, ConfigError> {
    exp::run_qd_sweep_array_from(
        base,
        traces,
        point,
        queue_depths,
        mechanisms,
        &QueueSetup::single(),
        JOBS,
        SERIAL_ENGINE,
        array,
        bank,
    )
}

/// Grid-mean response-time reduction of `mechanism` vs Baseline, in %.
pub fn grid_reduction_pct(cells: &[MatrixCell], mechanism: Mechanism) -> f64 {
    100.0 * exp::reduction_vs(cells, mechanism.name(), Mechanism::Baseline.name(), false).mean
}

/// The retry controller implementing `mechanism`.
pub fn controller(mechanism: Mechanism) -> Box<dyn RetryController + Send> {
    mechanism.make_controller(&ReadTimingParamTable::default())
}

/// The configuration the runners give one cell: `base` aged to `point`,
/// with the ideal no-retry switch set for NoRR. The experiment module keeps
/// its own copy private, so every layer-by-layer cell of every workload
/// takes its configuration from here, and the benchmark checks each such
/// cell's events, read latency distribution and mean response against the
/// runner's cell for the same inputs.
pub fn cell_config(
    base: &SsdConfig,
    point: OperatingPoint,
    mechanism: Mechanism,
) -> Arc<SsdConfig> {
    let mut cfg = base.clone().with_condition(OperatingCondition::new(
        point.pec,
        point.retention_months,
        base.condition.temp_c,
    ));
    cfg.ideal_no_retry = mechanism.is_ideal();
    Arc::new(cfg)
}
