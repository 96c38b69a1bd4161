//! The §7 evaluation harness: mechanisms × workloads × operating conditions.
//!
//! [`Mechanism`] enumerates the SSD configurations of Fig. 14 and Fig. 15;
//! [`run_matrix`] replays workload traces under a grid of (P/E-cycle,
//! retention-age) operating points and reports response times normalized to
//! `Baseline`, exactly the quantity both figures plot.

use crate::extensions::{EagerPnAr2Controller, ExpectedStepsTable, RegularAr2Controller};
use crate::mechanisms::{Ar2Controller, PnAr2Controller, Pr2Controller};
use crate::pso::PsoController;
use crate::rpt::ReadTimingParamTable;
use rr_flash::calibration::OperatingCondition;
use rr_sim::array::{
    route_redundant, worker_budget, ArrayReport, DeviceSet, FailurePlan, PlacementPolicy,
    Redundancy, RedundancyStats, RedundantRouting,
};
use rr_sim::config::{ArbPolicy, ConfigError, SsdConfig};
use rr_sim::hostq::HostQueueConfig;
use rr_sim::metrics::{GcStalls, LatencySummary, SimReport};
use rr_sim::readflow::{BaselineController, RetryController};
use rr_sim::replay::ReplayMode;
use rr_sim::request::HostRequest;
use rr_sim::snapshot::{DeviceImage, ImageBank};
use rr_sim::ssd::{SimArena, Ssd};
use rr_workloads::trace::Trace;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The SSD configurations evaluated in §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mechanism {
    /// Regular read-retry (Fig. 12(a)) on the high-end baseline SSD.
    Baseline,
    /// Pipelined Read-Retry alone (§6.1).
    Pr2,
    /// Adaptive Read-Retry alone (§6.2).
    Ar2,
    /// PR² + AR² combined.
    PnAr2,
    /// Ideal SSD where no read-retry ever occurs (upper bound).
    NoRR,
    /// The MICRO'19 state-of-the-art retry-count reducer \[84\].
    Pso,
    /// PSO with PR² + AR² on top (Fig. 15's headline).
    PsoPnAr2,
    /// §8 extension: skip the doomed default initial read on aged data.
    EagerPnAr2,
    /// §8 extension: reduced-tPRE sensing for regular (no-retry) reads too.
    RegularAr2,
}

impl Mechanism {
    /// The five configurations of Fig. 14.
    pub const FIG14: [Mechanism; 5] = [
        Mechanism::Baseline,
        Mechanism::Pr2,
        Mechanism::Ar2,
        Mechanism::PnAr2,
        Mechanism::NoRR,
    ];

    /// The configurations of Fig. 15 (normalized to `Baseline`).
    pub const FIG15: [Mechanism; 4] = [
        Mechanism::Baseline,
        Mechanism::Pso,
        Mechanism::PsoPnAr2,
        Mechanism::NoRR,
    ];

    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::Baseline => "Baseline",
            Mechanism::Pr2 => "PR2",
            Mechanism::Ar2 => "AR2",
            Mechanism::PnAr2 => "PnAR2",
            Mechanism::NoRR => "NoRR",
            Mechanism::Pso => "PSO",
            Mechanism::PsoPnAr2 => "PSO+PnAR2",
            Mechanism::EagerPnAr2 => "Eager-PnAR2",
            Mechanism::RegularAr2 => "AR2-Regular",
        }
    }

    /// Builds the retry controller implementing this mechanism.
    ///
    /// The controller is `Send`, so a caller may build it on one thread and
    /// run it on another; the simulator takes the same box unchanged (it
    /// coerces to `Box<dyn RetryController>`).
    pub fn make_controller(&self, rpt: &ReadTimingParamTable) -> Box<dyn RetryController + Send> {
        match self {
            Mechanism::Baseline | Mechanism::NoRR => Box::new(BaselineController::new()),
            Mechanism::Pr2 => Box::new(Pr2Controller::new()),
            Mechanism::Ar2 => Box::new(Ar2Controller::new(rpt.clone())),
            Mechanism::PnAr2 => Box::new(PnAr2Controller::new(rpt.clone())),
            Mechanism::Pso => Box::new(PsoController::new(BaselineController::new())),
            Mechanism::PsoPnAr2 => Box::new(PsoController::new(PnAr2Controller::new(rpt.clone()))),
            Mechanism::EagerPnAr2 => Box::new(EagerPnAr2Controller::new(
                rpt.clone(),
                ExpectedStepsTable::default(),
                2.0,
            )),
            Mechanism::RegularAr2 => Box::new(RegularAr2Controller::new(rpt.clone())),
        }
    }

    /// Whether this mechanism runs on the ideal no-read-retry SSD.
    pub fn is_ideal(&self) -> bool {
        matches!(self, Mechanism::NoRR)
    }
}

/// One (P/E cycles, retention age) operating point of Fig. 14/15's x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// P/E-cycle count of all blocks.
    pub pec: f64,
    /// Retention age of cold (preconditioned) data, months.
    pub retention_months: f64,
}

impl OperatingPoint {
    /// Creates an operating point.
    pub fn new(pec: f64, retention_months: f64) -> Self {
        Self {
            pec,
            retention_months,
        }
    }

    /// The grid used for the Fig. 14/15 reproduction (DESIGN.md §6): the
    /// prose highlights (2K, 6 mo) and 1-year ages; fresh data is covered by
    /// the hot pages inside every workload.
    pub fn evaluation_grid() -> Vec<OperatingPoint> {
        let mut grid = Vec::new();
        for pec in [1000.0, 2000.0] {
            for months in [0.0, 6.0, 12.0] {
                grid.push(OperatingPoint::new(pec, months));
            }
        }
        grid
    }
}

/// Runs one mechanism on one trace at one operating point (open-loop).
///
/// # Panics
///
/// Panics if the configuration or trace is invalid (these are programming
/// errors in experiment setup, not runtime conditions).
pub fn run_one(
    base: &SsdConfig,
    mechanism: Mechanism,
    point: OperatingPoint,
    trace: &Trace,
    rpt: &ReadTimingParamTable,
) -> SimReport {
    run_one_with_mode(base, mechanism, point, trace, rpt, ReplayMode::OpenLoop)
}

/// Runs one mechanism on one trace at one operating point under an explicit
/// replay mode (open-loop trace timestamps, rate-scaled open loop, or
/// closed-loop queue depth).
///
/// # Panics
///
/// Panics if the configuration, trace, or replay mode is invalid.
pub fn run_one_with_mode(
    base: &SsdConfig,
    mechanism: Mechanism,
    point: OperatingPoint,
    trace: &Trace,
    rpt: &ReadTimingParamTable,
    mode: ReplayMode,
) -> SimReport {
    let mut arena = SimArena::new();
    let cfg = prepared_config(base, point, mechanism.is_ideal());
    run_one_prepared(&mut arena, &cfg, mechanism, trace, rpt, mode, None)
}

/// Runs one closed-loop replay of `trace` under `mechanism` at `queue_depth`,
/// reusing `arena`'s simulation buffers and warm-starting from `image` when
/// one is given — the per-query unit of work behind `repro serve`, where the
/// image skips preconditioning and the arena skips reallocation between
/// queries.
#[allow(clippy::too_many_arguments)]
pub fn run_one_queued_from(
    arena: &mut SimArena,
    base: &SsdConfig,
    mechanism: Mechanism,
    point: OperatingPoint,
    trace: &Trace,
    rpt: &ReadTimingParamTable,
    setup: &QueueSetup,
    queue_depth: u32,
    image: Option<&DeviceImage>,
) -> SimReport {
    let cfg = prepared_config(base, point, mechanism.is_ideal());
    let front = setup.front(ReplayMode::closed_loop(queue_depth), Some(queue_depth));
    run_one_prepared_queued(arena, &cfg, mechanism, trace, rpt, &front, image)
}

/// [`run_one_queued_from`] across a device array — the per-query unit
/// behind `repro serve` with `devices > 1`. `device_traces` is the routed
/// split of the query's workload (the server caches it per device count),
/// `images` the per-device warm-start fork from
/// [`rr_sim::snapshot::ImageBank::fork_for_array`].
///
/// # Errors
///
/// Returns a typed error on a device-count mismatch between `set`,
/// `device_traces`, and `images`, or on any device-run configuration error.
#[allow(clippy::too_many_arguments)]
pub fn run_one_queued_array_from(
    set: &mut DeviceSet,
    base: &SsdConfig,
    mechanism: Mechanism,
    point: OperatingPoint,
    device_traces: &[Trace],
    footprint: u64,
    rpt: &ReadTimingParamTable,
    setup: &QueueSetup,
    queue_depth: u32,
    images: Option<&[&DeviceImage]>,
) -> Result<ArrayReport, ConfigError> {
    let cfg = prepared_config(base, point, mechanism.is_ideal());
    let front = setup.front(ReplayMode::closed_loop(queue_depth), Some(queue_depth));
    let slices: Vec<&[HostRequest]> = device_traces
        .iter()
        .map(|t| t.requests.as_slice())
        .collect();
    set.run_queued_from(
        &cfg,
        &|| mechanism.make_controller(rpt),
        footprint,
        &slices,
        &front,
        images,
        worker_budget(set.devices(), 1),
    )
}

/// Builds the `Arc`-shared per-cell configuration once: `base` at `point`,
/// with the ideal-SSD switch set for `NoRR`-style mechanisms. Sharing the
/// `Arc` across a cell group keeps sweep setup from cloning the full config
/// (chip geometry, timing and ECC tables) per simulator.
fn prepared_config(base: &SsdConfig, point: OperatingPoint, ideal: bool) -> Arc<SsdConfig> {
    let mut cfg = base.clone().with_condition(OperatingCondition::new(
        point.pec,
        point.retention_months,
        base.condition.temp_c,
    ));
    cfg.ideal_no_retry = ideal;
    Arc::new(cfg)
}

/// The `Arc`-shared configs one cell group needs: the regular config plus
/// the ideal-SSD variant, the latter built only when an ideal mechanism is
/// in the set. Every runner selects per mechanism through [`Self::get`].
struct CellConfigs {
    regular: Arc<SsdConfig>,
    ideal: Option<Arc<SsdConfig>>,
}

impl CellConfigs {
    fn new(base: &SsdConfig, point: OperatingPoint, mechanisms: &[Mechanism]) -> Self {
        Self {
            regular: prepared_config(base, point, false),
            ideal: mechanisms
                .iter()
                .any(Mechanism::is_ideal)
                .then(|| prepared_config(base, point, true)),
        }
    }

    fn get(&self, m: Mechanism) -> &Arc<SsdConfig> {
        if m.is_ideal() {
            self.ideal.as_ref().expect("built for ideal mechanisms")
        } else {
            &self.regular
        }
    }
}

/// Runs one mechanism on a prepared (point-adjusted, `Arc`-shared) config,
/// reusing `arena`'s simulation buffers — the unit of work every matrix and
/// sweep runner dispatches per worker.
fn run_one_prepared(
    arena: &mut SimArena,
    cfg: &Arc<SsdConfig>,
    mechanism: Mechanism,
    trace: &Trace,
    rpt: &ReadTimingParamTable,
    mode: ReplayMode,
    image: Option<&DeviceImage>,
) -> SimReport {
    run_one_prepared_queued(
        arena,
        cfg,
        mechanism,
        trace,
        rpt,
        &HostQueueConfig::single(mode),
        image,
    )
}

/// [`run_one_prepared`] under an explicit multi-queue host front end,
/// warm-started from `image` when one is given (bit-identical either way —
/// the device image carries exactly the state preconditioning rebuilds).
fn run_one_prepared_queued(
    arena: &mut SimArena,
    cfg: &Arc<SsdConfig>,
    mechanism: Mechanism,
    trace: &Trace,
    rpt: &ReadTimingParamTable,
    queues: &HostQueueConfig,
    image: Option<&DeviceImage>,
) -> SimReport {
    Ssd::run_pooled_queued_from(
        arena,
        Arc::clone(cfg),
        mechanism.make_controller(rpt),
        trace.footprint_pages,
        &trace.requests,
        queues,
        image,
    )
    .expect("experiment configuration must be valid")
}

/// The device-count axis of every array-aware runner: how many
/// full-footprint replica devices the trace is routed across (`--devices`)
/// and which [`PlacementPolicy`] does the routing (`--placement`).
/// [`ArraySetup::single`] makes every `run_*_array*` runner delegate
/// bit-identically to its single-device sibling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySetup {
    /// Number of devices in the array (≥ 1).
    pub devices: u32,
    /// Which device each request lands on (the redundancy anchor when a
    /// scheme fans out).
    pub placement: PlacementPolicy,
    /// How requests fan out across the array (`--redundancy`);
    /// [`Redundancy::None`] keeps the placement-only path byte-identical.
    pub redundancy: Redundancy,
    /// A mid-run device loss (`--fail-device D --fail-at-us T`), routed and
    /// rebuilt as [`route_redundant`] describes.
    pub failure: Option<FailurePlan>,
}

impl ArraySetup {
    /// The single-device setup: array runners reduce to today's paths.
    pub fn single() -> Self {
        Self {
            devices: 1,
            placement: PlacementPolicy::default(),
            redundancy: Redundancy::None,
            failure: None,
        }
    }

    /// An array of `devices` devices routed by `placement` (no redundancy,
    /// no failure — PR 9's signature).
    pub fn new(devices: u32, placement: PlacementPolicy) -> Self {
        Self {
            devices,
            placement,
            redundancy: Redundancy::None,
            failure: None,
        }
    }

    /// This setup with a redundancy scheme.
    pub fn with_redundancy(mut self, redundancy: Redundancy) -> Self {
        self.redundancy = redundancy;
        self
    }

    /// This setup with a mid-run device loss.
    pub fn with_failure(mut self, failure: Option<FailurePlan>) -> Self {
        self.failure = failure;
        self
    }

    /// Whether this setup actually fans out (more than one device).
    pub fn is_array(&self) -> bool {
        self.devices > 1
    }

    /// Whether runs take the redundant routing/merge path — any fan-out
    /// scheme, or a failure plan (which re-routes even under `none`). The
    /// placement-only path stays byte-identical when this is false.
    pub fn is_redundant(&self) -> bool {
        self.is_array() && (self.redundancy.is_redundant() || self.failure.is_some())
    }
}

impl Default for ArraySetup {
    fn default() -> Self {
        Self::single()
    }
}

/// Per-device tail diagnostics of one array cell: enough to attribute an
/// array-level p99.9 excursion to the device (and the GC activity) that
/// caused it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceTail {
    /// Requests this device completed.
    pub completed: u64,
    /// This device's read latency distribution (µs).
    pub reads: LatencySummary,
    /// GC-induced stall attribution summed over this device's queues.
    pub gc: GcStalls,
    /// Discrete simulator events this device processed.
    pub events: u64,
}

/// Array-level statistics attached to a cell that ran on `devices > 1`:
/// per-device distributions plus the tail-amplification quantities (array
/// quantile ÷ best-device quantile), so one device's GC storm is visible in
/// the array p99.9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayCellStats {
    /// Number of devices the cell ran across.
    pub devices: u32,
    /// Placement policy name (`rr`, `hash`, `tier`).
    pub placement: String,
    /// Per-device tails, indexed by device id.
    pub per_device: Vec<DeviceTail>,
    /// Array read p99 ÷ best-device read p99.
    pub amplification_p99: Option<f64>,
    /// Array read p99.9 ÷ best-device read p99.9.
    pub amplification_p999: Option<f64>,
    /// Best (lowest) per-device read p99.9, µs.
    pub best_read_p999: Option<f64>,
    /// Median per-device read p99.9, µs.
    pub median_read_p999: Option<f64>,
    /// Device with the worst read p99.9 — the array-tail suspect.
    pub slowest_device: Option<u32>,
    /// Redundancy attribution when the cell fanned requests out
    /// (wait-for-k latency, rescued reads, fan-out and rebuild counters);
    /// `None` on the placement-only path.
    pub redundancy: Option<RedundancyStats>,
}

impl ArrayCellStats {
    fn from_report(report: &ArrayReport, placement: PlacementPolicy) -> Self {
        Self {
            redundancy: report.redundancy.clone(),
            devices: report.device_count(),
            placement: placement.name().to_string(),
            per_device: report
                .devices
                .iter()
                .enumerate()
                .map(|(d, r)| DeviceTail {
                    completed: r.requests_completed,
                    reads: r.read_latency,
                    gc: report.device_gc(d),
                    events: r.events_processed,
                })
                .collect(),
            amplification_p99: report.amplification_p99(),
            amplification_p999: report.amplification_p999(),
            best_read_p999: report.best_device_read_p999(),
            median_read_p999: report.median_device_read_p999(),
            slowest_device: report.slowest_device(),
        }
    }
}

/// Average retry steps per read across the array, weighted by each device's
/// retry-histogram population — the exact pooled mean, since every device's
/// histogram covers the full step range (the overflow bin is structurally
/// empty).
fn array_avg_retry_steps(report: &ArrayReport) -> f64 {
    let total: u64 = report.devices.iter().map(|d| d.retry_steps.total()).sum();
    if total == 0 {
        return 0.0;
    }
    report
        .devices
        .iter()
        .map(|d| d.retry_steps.mean() * d.retry_steps.total() as f64)
        .sum::<f64>()
        / total as f64
}

/// [`run_one_prepared_queued`] across a device array: the routed sub-traces
/// in `device_traces` run on `set`'s devices — at most `device_workers`
/// devices concurrently — and merge into one [`ArrayReport`].
#[allow(clippy::too_many_arguments)]
fn run_one_prepared_array(
    set: &mut DeviceSet,
    device_workers: usize,
    cfg: &Arc<SsdConfig>,
    mechanism: Mechanism,
    footprint: u64,
    device_traces: &[Trace],
    rpt: &ReadTimingParamTable,
    queues: &HostQueueConfig,
    images: Option<&[&DeviceImage]>,
) -> ArrayReport {
    let slices: Vec<&[HostRequest]> = device_traces
        .iter()
        .map(|t| t.requests.as_slice())
        .collect();
    set.run_queued_from(
        cfg,
        &|| mechanism.make_controller(rpt),
        footprint,
        &slices,
        queues,
        images,
        device_workers,
    )
    .expect("experiment configuration must be valid")
}

/// One trace routed for an array run: the plain per-device split (the
/// placement-only path, byte-frozen) or the redundant routing with its copy
/// map (any fan-out scheme or failure plan).
enum RoutedTrace {
    /// Placement-only: one sub-trace per device.
    Plain(Vec<Trace>),
    /// Redundant: per-device copy/rebuild streams plus the merge bookkeeping.
    Redundant(RedundantRouting),
}

/// Routes `t` for `array`: the redundant path when a scheme fans out or a
/// failure plan re-routes, the plain split otherwise.
fn route_for_array(t: &Trace, array: &ArraySetup) -> RoutedTrace {
    if array.is_redundant() {
        RoutedTrace::Redundant(route_redundant(
            &t.requests,
            array.devices,
            array.placement,
            t.footprint_pages,
            array.redundancy,
            array.failure,
        ))
    } else {
        RoutedTrace::Plain(t.split_routed(array.devices, |i, r| {
            array
                .placement
                .route(i, r, array.devices, t.footprint_pages)
        }))
    }
}

/// [`run_one_prepared_array`] over either routing: the plain path merges
/// per-device populations, the redundant path reassembles logical requests
/// at their wait-for-k order statistic.
#[allow(clippy::too_many_arguments)]
fn run_one_prepared_routed(
    set: &mut DeviceSet,
    device_workers: usize,
    cfg: &Arc<SsdConfig>,
    mechanism: Mechanism,
    footprint: u64,
    routed: &RoutedTrace,
    rpt: &ReadTimingParamTable,
    queues: &HostQueueConfig,
    images: Option<&[&DeviceImage]>,
) -> ArrayReport {
    match routed {
        RoutedTrace::Plain(device_traces) => run_one_prepared_array(
            set,
            device_workers,
            cfg,
            mechanism,
            footprint,
            device_traces,
            rpt,
            queues,
            images,
        ),
        RoutedTrace::Redundant(routing) => set
            .run_redundant_from(
                cfg,
                &|| mechanism.make_controller(rpt),
                footprint,
                routing,
                queues,
                images,
                0,
                device_workers,
            )
            .expect("experiment configuration must be valid"),
    }
}

/// [`run_one_queued_array_from`] under an [`ArraySetup`]'s redundancy scheme
/// and failure plan: routes `trace` itself (fanning copies out and
/// injecting rebuild reads as [`route_redundant`] describes) and runs the
/// resulting streams across the set — the per-query unit redundancy tests
/// build on. An `array` that is neither redundant nor failed takes the
/// plain split, bit-identical to [`run_one_queued_array_from`].
///
/// # Errors
///
/// As [`run_one_queued_array_from`].
#[allow(clippy::too_many_arguments)]
pub fn run_one_queued_redundant_from(
    set: &mut DeviceSet,
    base: &SsdConfig,
    mechanism: Mechanism,
    point: OperatingPoint,
    trace: &Trace,
    array: &ArraySetup,
    rpt: &ReadTimingParamTable,
    setup: &QueueSetup,
    queue_depth: u32,
    images: Option<&[&DeviceImage]>,
) -> Result<ArrayReport, ConfigError> {
    let cfg = prepared_config(base, point, mechanism.is_ideal());
    let front = setup.front(ReplayMode::closed_loop(queue_depth), Some(queue_depth));
    let device_workers = worker_budget(set.devices(), 1);
    match route_for_array(trace, array) {
        RoutedTrace::Plain(device_traces) => {
            let slices: Vec<&[HostRequest]> = device_traces
                .iter()
                .map(|t| t.requests.as_slice())
                .collect();
            set.run_queued_from(
                &cfg,
                &|| mechanism.make_controller(rpt),
                trace.footprint_pages,
                &slices,
                &front,
                images,
                device_workers,
            )
        }
        RoutedTrace::Redundant(routing) => set.run_redundant_from(
            &cfg,
            &|| mechanism.make_controller(rpt),
            trace.footprint_pages,
            &routing,
            &front,
            images,
            0,
            device_workers,
        ),
    }
}

/// Builds the warm-start bank every runner forks across its cells: one
/// preconditioned image per distinct footprint in `traces`. This is the
/// "precondition once" half of the tentpole — per-cell work then reduces to
/// an allocation-retaining restore.
fn preconditioned_bank<'a>(
    base: &SsdConfig,
    traces: impl IntoIterator<Item = &'a Trace>,
) -> ImageBank {
    ImageBank::preconditioned(base, traces.into_iter().map(|t| t.footprint_pages))
        .expect("experiment configuration must be valid")
}

/// Checks that an externally supplied bank (`--from-image`) can warm-start
/// every cell of a run over `traces`: each footprint needs a matching image
/// captured under the same seed/outlier inputs.
fn validate_bank<'a>(
    bank: &ImageBank,
    base: &SsdConfig,
    traces: impl IntoIterator<Item = &'a Trace>,
) -> Result<(), ConfigError> {
    for trace in traces {
        let image = bank.get(trace.footprint_pages).ok_or_else(|| {
            ConfigError::new(format!(
                "image bank holds no image for the {}-page footprint of workload {}",
                trace.footprint_pages, trace.name
            ))
        })?;
        image.validate_for(base, trace.footprint_pages)?;
    }
    Ok(())
}

/// The host front-end axis of the load sweeps: how many NVMe-style
/// submission queues feed the device, under which arbitration policy, and
/// with what device admission window — the `--queues N --arb rr|wrr` knobs
/// of `repro sweep-qd` / `repro sweep-rate`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueSetup {
    /// Number of submission queues (trace striped request *i* → queue
    /// *i mod N*).
    pub queues: u32,
    /// Round-robin or weighted-round-robin device arbitration.
    pub arb: ArbPolicy,
    /// Consecutive commands fetched per arbitration credit.
    pub burst: u32,
    /// Per-queue WRR weights. `None` defaults to all-1 under round-robin
    /// and to descending `[N, N−1, …, 1]` under weighted-round-robin, so the
    /// WRR skew is visible without extra flags.
    pub weights: Option<Vec<u32>>,
    /// Device admission window. `None` picks each sweep's natural default:
    /// the swept queue depth for QD sweeps (each queue backfills the shared
    /// window, so arbitration apportions a load comparable to the
    /// single-queue sweep), unbounded for open-loop rate sweeps.
    pub window: Option<u32>,
}

impl QueueSetup {
    /// The single-queue front end — sweeps behave bit-identically to the
    /// plain (pre-multi-queue) runners.
    pub fn single() -> Self {
        Self {
            queues: 1,
            arb: ArbPolicy::RoundRobin,
            burst: 1,
            weights: None,
            window: None,
        }
    }

    /// `queues` submission queues under `arb` with default burst/weights.
    pub fn multi(queues: u32, arb: ArbPolicy) -> Self {
        Self {
            queues,
            arb,
            ..Self::single()
        }
    }

    /// Resolved per-queue weights (see the `weights` field for defaults).
    pub fn resolved_weights(&self) -> Vec<u32> {
        match (&self.weights, self.arb) {
            (Some(w), _) => w.clone(),
            (None, ArbPolicy::WeightedRoundRobin) => (1..=self.queues).rev().collect(),
            (None, ArbPolicy::RoundRobin) => vec![1; self.queues as usize],
        }
    }

    /// Builds the concrete front end for one sweep cell: every queue
    /// replays `mode`, and the window falls back to `default_window` for
    /// multi-queue setups with no explicit window.
    fn front(&self, mode: ReplayMode, default_window: Option<u32>) -> HostQueueConfig {
        let mut cfg = HostQueueConfig::uniform(self.queues, mode)
            .with_arb(self.arb)
            .with_burst(self.burst)
            .with_weights(&self.resolved_weights());
        let window = self
            .window
            .or_else(|| (self.queues > 1).then_some(default_window).flatten());
        if let Some(w) = window {
            cfg = cfg.with_window(w);
        }
        cfg
    }
}

impl Default for QueueSetup {
    fn default() -> Self {
        Self::single()
    }
}

/// One cell of a Fig. 14/15-style matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Workload name.
    pub workload: String,
    /// Whether the workload is read-dominant (Fig. 14/15 grouping).
    pub read_dominant: bool,
    /// Operating point.
    pub point: OperatingPoint,
    /// Mechanism name.
    pub mechanism: String,
    /// Average response time, µs.
    pub avg_response_us: f64,
    /// Average response time normalized to Baseline at the same
    /// (workload, point).
    pub normalized: f64,
    /// Average retry steps per read (diagnostic).
    pub avg_retry_steps: f64,
    /// Read latency distribution (p50/p95/p99/p99.9, µs); quantiles are
    /// `None` when the workload completed no reads.
    pub read_latency: LatencySummary,
    /// Discrete simulator events this cell processed (the `repro perf`
    /// throughput numerator).
    pub events: u64,
    /// Array-level statistics when the cell ran on `devices > 1`; `None`
    /// for every single-device run (all pre-array output).
    pub array: Option<ArrayCellStats>,
}

/// Computes the cells of one (trace, operating-point) group: the `Baseline`
/// reference run first (every other mechanism is normalized to it), then each
/// requested mechanism.
///
/// This is the unit of work both [`run_matrix`] and [`run_matrix_parallel`]
/// share: every cell is a pure function of `(base, mechanism, point, trace,
/// rpt)` — the SSD seed comes from `base` and each [`run_one`] builds a fresh
/// simulator — so the result is identical no matter which thread (or order)
/// computes it.
#[allow(clippy::too_many_arguments)]
fn run_cell_group(
    arena: &mut SimArena,
    base: &SsdConfig,
    trace: &Trace,
    read_dominant: bool,
    point: OperatingPoint,
    mechanisms: &[Mechanism],
    rpt: &ReadTimingParamTable,
    bank: &ImageBank,
) -> Vec<MatrixCell> {
    // One shared config per (point, ideal-switch) — built once for the whole
    // group instead of cloned per mechanism run.
    let cfgs = CellConfigs::new(base, point, mechanisms);
    let image = bank.get(trace.footprint_pages);
    let queues = HostQueueConfig::single(ReplayMode::OpenLoop);
    let run = |arena: &mut SimArena, m: Mechanism| {
        run_one_prepared_queued(arena, cfgs.get(m), m, trace, rpt, &queues, image)
    };
    let baseline = run(arena, Mechanism::Baseline);
    let base_rt = baseline.avg_response_us();
    mechanisms
        .iter()
        .map(|&m| {
            let report = if m == Mechanism::Baseline {
                baseline.clone()
            } else {
                run(arena, m)
            };
            MatrixCell {
                workload: trace.name.clone(),
                read_dominant,
                point,
                mechanism: m.name().to_string(),
                avg_response_us: report.avg_response_us(),
                normalized: if base_rt > 0.0 {
                    report.avg_response_us() / base_rt
                } else {
                    1.0
                },
                avg_retry_steps: report.avg_retry_steps(),
                read_latency: report.read_latency,
                events: report.events_processed,
                array: None,
            }
        })
        .collect()
}

/// Runs `mechanisms` × `points` over each trace, normalizing response times
/// to the `Baseline` mechanism (which is therefore always included).
///
/// `read_dominant` tags each trace for the Fig. 14/15 grouping.
pub fn run_matrix(
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
) -> Vec<MatrixCell> {
    run_matrix_parallel(base, traces, points, mechanisms, 1)
}

/// The shared matrix core: every (trace × point) group forks its trace's
/// image out of `bank` instead of re-preconditioning per cell.
fn run_matrix_with_bank(
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
    jobs: usize,
    bank: &ImageBank,
) -> Vec<MatrixCell> {
    let rpt = ReadTimingParamTable::default();
    let groups: Vec<(&Trace, bool, OperatingPoint)> = traces
        .iter()
        .flat_map(|(trace, rd)| points.iter().map(move |&p| (trace, *rd, p)))
        .collect();
    parallel_ordered(
        &groups,
        jobs,
        SimArena::new,
        |arena, &(trace, read_dominant, point)| {
            run_cell_group(
                arena,
                base,
                trace,
                read_dominant,
                point,
                mechanisms,
                &rpt,
                bank,
            )
        },
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Maps `groups` through `f` on up to `jobs` worker threads, returning
/// results **in input order**. Each worker owns one context built by `ctx`
/// (a [`SimArena`] in the experiment runners), so simulation buffers are
/// recycled across the cells a worker processes instead of reallocated per
/// cell.
///
/// Work is distributed over a work-stealing index; each result lands in a
/// slot keyed by its input position, so the output is bit-identical to a
/// serial `groups.iter().map(..)` regardless of thread count or scheduling —
/// provided `f` itself is a pure function of its input (no shared mutable
/// state observable in the result), which every experiment runner here
/// guarantees by seeding each simulator from the configuration alone and by
/// the arena's reset-to-pristine contract.
fn parallel_ordered<T: Sync, R: Send, C>(
    groups: &[T],
    jobs: usize,
    ctx: impl Fn() -> C + Sync,
    f: impl Fn(&mut C, &T) -> R + Sync,
) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let jobs = jobs.max(1).min(groups.len());
    if jobs <= 1 {
        let mut c = ctx();
        return groups.iter().map(|g| f(&mut c, g)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = groups.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut c = ctx();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(g) = groups.get(i) else {
                        break;
                    };
                    *slots[i]
                        .lock()
                        .expect("no worker panicked holding the slot lock") = Some(f(&mut c, g));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding the slot lock")
                .expect("every slot below the group count was filled")
        })
        .collect()
}

/// [`run_matrix`] spread across `jobs` worker threads.
///
/// The (trace × point) groups run under the crate's order-preserving
/// work-stealing helper (`parallel_ordered`), so the returned vector is
/// **bit-identical to [`run_matrix`]'s output** regardless of thread count
/// or scheduling.
pub fn run_matrix_parallel(
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
    jobs: usize,
) -> Vec<MatrixCell> {
    let bank = preconditioned_bank(base, traces.iter().map(|(t, _)| t));
    run_matrix_with_bank(base, traces, points, mechanisms, jobs, &bank)
}

/// [`run_matrix_parallel`] warm-started from an externally supplied image
/// bank (`repro fig14 --from-image`): every cell restores its trace's aged
/// image instead of preconditioning, with bit-identical output.
///
/// # Errors
///
/// Returns a typed error when the bank lacks an image for some trace
/// footprint or an image was captured under different model inputs.
pub fn run_matrix_parallel_from(
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
    jobs: usize,
    bank: &ImageBank,
) -> Result<Vec<MatrixCell>, ConfigError> {
    validate_bank(bank, base, traces.iter().map(|(t, _)| t))?;
    Ok(run_matrix_with_bank(
        base, traces, points, mechanisms, jobs, bank,
    ))
}

/// [`run_matrix_parallel`]'s array sibling: routes every trace across
/// `array.devices` full-footprint replica devices (preconditioning one image
/// per footprint and forking it across the array) and reports array-merged
/// cells. `array.devices ≤ 1` delegates **bit-identically** to
/// [`run_matrix_parallel`] — the array layer adds no code to that path.
pub fn run_matrix_array(
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
    jobs: usize,
    array: ArraySetup,
) -> Vec<MatrixCell> {
    if !array.is_array() {
        return run_matrix_parallel(base, traces, points, mechanisms, jobs);
    }
    let bank = preconditioned_bank(base, traces.iter().map(|(t, _)| t));
    matrix_array_with_bank(base, traces, points, mechanisms, jobs, array, &bank)
        .expect("the preconditioned bank covers every footprint")
}

/// [`run_matrix_array`] warm-started from an externally supplied image bank
/// (`repro fig14 --from-image --devices N`): each footprint's single image
/// is forked across all `array.devices` devices. `array.devices ≤ 1`
/// delegates bit-identically to [`run_matrix_parallel_from`].
///
/// # Errors
///
/// Returns a typed error when the bank lacks an image for some trace
/// footprint, an image was captured under different model inputs, or the
/// fork cannot cover the device count.
pub fn run_matrix_array_from(
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
    jobs: usize,
    array: ArraySetup,
    bank: &ImageBank,
) -> Result<Vec<MatrixCell>, ConfigError> {
    if !array.is_array() {
        return run_matrix_parallel_from(base, traces, points, mechanisms, jobs, bank);
    }
    validate_bank(bank, base, traces.iter().map(|(t, _)| t))?;
    matrix_array_with_bank(base, traces, points, mechanisms, jobs, array, bank)
}

/// The shared array-matrix core (`array.devices ≥ 2`): each trace is routed
/// once up front, its image forked across the array once, and every (trace
/// × point) group runs on a per-worker [`DeviceSet`] whose device arenas
/// persist across the groups that worker processes.
fn matrix_array_with_bank(
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
    jobs: usize,
    array: ArraySetup,
    bank: &ImageBank,
) -> Result<Vec<MatrixCell>, ConfigError> {
    let devices = array.devices;
    let rpt = ReadTimingParamTable::default();
    let device_workers = worker_budget(devices, jobs.max(1));
    let routed: Vec<RoutedTrace> = traces
        .iter()
        .map(|(t, _)| route_for_array(t, &array))
        .collect();
    let mut forks: Vec<Vec<&DeviceImage>> = Vec::with_capacity(traces.len());
    for (t, _) in traces {
        forks.push(bank.fork_for_array(t.footprint_pages, devices)?);
    }
    let groups: Vec<(usize, OperatingPoint)> = (0..traces.len())
        .flat_map(|ti| points.iter().map(move |&p| (ti, p)))
        .collect();
    Ok(parallel_ordered(
        &groups,
        jobs,
        || DeviceSet::new(devices).expect("array setups have at least one device"),
        |set, &(ti, point)| {
            let (trace, read_dominant) = &traces[ti];
            run_array_cell_group(
                set,
                device_workers,
                base,
                trace,
                &routed[ti],
                &forks[ti],
                *read_dominant,
                point,
                mechanisms,
                &rpt,
                array.placement,
            )
        },
    )
    .into_iter()
    .flatten()
    .collect())
}

/// The array sibling of [`run_cell_group`]: one (trace, point) group across
/// the device set, `Baseline` first so every other mechanism normalizes to
/// it, with each mechanism's report merged from the per-device runs.
#[allow(clippy::too_many_arguments)]
fn run_array_cell_group(
    set: &mut DeviceSet,
    device_workers: usize,
    base: &SsdConfig,
    trace: &Trace,
    routed: &RoutedTrace,
    images: &[&DeviceImage],
    read_dominant: bool,
    point: OperatingPoint,
    mechanisms: &[Mechanism],
    rpt: &ReadTimingParamTable,
    placement: PlacementPolicy,
) -> Vec<MatrixCell> {
    let cfgs = CellConfigs::new(base, point, mechanisms);
    let queues = HostQueueConfig::single(ReplayMode::OpenLoop);
    let run = |set: &mut DeviceSet, m: Mechanism| {
        run_one_prepared_routed(
            set,
            device_workers,
            cfgs.get(m),
            m,
            trace.footprint_pages,
            routed,
            rpt,
            &queues,
            Some(images),
        )
    };
    let baseline = run(set, Mechanism::Baseline);
    let base_rt = baseline.avg_response_us();
    mechanisms
        .iter()
        .map(|&m| {
            let report = if m == Mechanism::Baseline {
                baseline.clone()
            } else {
                run(set, m)
            };
            MatrixCell {
                workload: trace.name.clone(),
                read_dominant,
                point,
                mechanism: m.name().to_string(),
                avg_response_us: report.avg_response_us(),
                normalized: if base_rt > 0.0 {
                    report.avg_response_us() / base_rt
                } else {
                    1.0
                },
                avg_retry_steps: array_avg_retry_steps(&report),
                read_latency: report.read_latency,
                events: report.events_processed,
                array: Some(ArrayCellStats::from_report(&report, placement)),
            }
        })
        .collect()
}

/// One cell of a queue-depth sweep: closed-loop replay of one workload at
/// one queue depth under one mechanism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QdSweepCell {
    /// Workload name.
    pub workload: String,
    /// Mechanism name.
    pub mechanism: String,
    /// Closed-loop queue depth (outstanding requests).
    pub queue_depth: u32,
    /// Operating point.
    pub point: OperatingPoint,
    /// Read latency distribution (µs).
    pub reads: LatencySummary,
    /// Write latency distribution (µs).
    pub writes: LatencySummary,
    /// Latency distribution of reads that needed ≥ 1 retry step (µs).
    pub retried_reads: LatencySummary,
    /// Average response time over all requests, µs.
    pub avg_response_us: f64,
    /// Throughput in thousands of IOPS of simulated time.
    pub kiops: f64,
    /// Discrete simulator events this cell processed.
    pub events: u64,
    /// Number of host submission queues feeding the device (1 = the plain
    /// single-generator closed loop).
    pub queues: u32,
    /// Per-queue read latency distributions, one entry per submission queue
    /// (submission-queue wait included).
    pub per_queue_reads: Vec<LatencySummary>,
    /// Per-queue GC-induced stall attribution (suspensions, preemptions,
    /// waits, deferrals, total stall µs), one entry per submission queue.
    /// Empty for array cells (per-device attribution lives in `array`).
    pub per_queue_gc: Vec<GcStalls>,
    /// Array-level statistics when the cell ran on `devices > 1`; `None`
    /// for every single-device run (all pre-array output).
    pub array: Option<ArrayCellStats>,
}

/// Sweeps closed-loop queue depths over `traces` × `queue_depths` ×
/// `mechanisms` at one operating point, on `jobs` worker threads.
///
/// Load is the independent variable here (the concurrency axis of
/// tail-latency plots): each cell replays the trace with `queue_depth`
/// requests kept outstanding and reports the full per-class latency
/// distribution plus throughput. Like [`run_matrix_parallel`], the output
/// is bit-identical for any `jobs` value.
pub fn run_qd_sweep(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    queue_depths: &[u32],
    mechanisms: &[Mechanism],
    jobs: usize,
) -> Vec<QdSweepCell> {
    run_qd_sweep_queued(
        base,
        traces,
        point,
        queue_depths,
        mechanisms,
        &QueueSetup::single(),
        jobs,
    )
}

/// [`run_qd_sweep`] under a multi-queue host front end.
///
/// Each cell stripes the trace over `setup.queues` submission queues; every
/// queue runs closed-loop at the swept depth and the device window defaults
/// to that same depth, so the queues permanently backfill their submission
/// queues and the RR/WRR arbiter decides whose requests occupy the window —
/// host-side queueing (and any WRR weight skew) lands in the per-queue
/// tails. With [`QueueSetup::single`] this is exactly [`run_qd_sweep`].
/// Output is bit-identical for any `jobs` value.
pub fn run_qd_sweep_queued(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    queue_depths: &[u32],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
) -> Vec<QdSweepCell> {
    let bank = preconditioned_bank(base, traces);
    qd_sweep_with_bank(
        base,
        traces,
        point,
        queue_depths,
        mechanisms,
        setup,
        jobs,
        &bank,
    )
}

/// [`run_qd_sweep_queued`] warm-started from an externally supplied image
/// bank (`repro sweep-qd --from-image`), bit-identical to the cold-start
/// sweep.
///
/// # Errors
///
/// Returns a typed error when the bank lacks an image for some trace
/// footprint or an image was captured under different model inputs.
#[allow(clippy::too_many_arguments)]
pub fn run_qd_sweep_queued_from(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    queue_depths: &[u32],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    bank: &ImageBank,
) -> Result<Vec<QdSweepCell>, ConfigError> {
    validate_bank(bank, base, traces)?;
    Ok(qd_sweep_with_bank(
        base,
        traces,
        point,
        queue_depths,
        mechanisms,
        setup,
        jobs,
        bank,
    ))
}

/// [`run_qd_sweep_queued`]'s array sibling: each cell routes its trace
/// across `array.devices` replica devices (every device closed-loop at the
/// swept depth) and reports the array-merged distributions plus per-device
/// tails. `array.devices ≤ 1` delegates bit-identically to
/// [`run_qd_sweep_queued`].
#[allow(clippy::too_many_arguments)]
pub fn run_qd_sweep_array(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    queue_depths: &[u32],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    array: ArraySetup,
) -> Vec<QdSweepCell> {
    if !array.is_array() {
        return run_qd_sweep_queued(base, traces, point, queue_depths, mechanisms, setup, jobs);
    }
    let bank = preconditioned_bank(base, traces);
    qd_sweep_array_with_bank(
        base,
        traces,
        point,
        queue_depths,
        mechanisms,
        setup,
        jobs,
        array,
        &bank,
    )
    .expect("the preconditioned bank covers every footprint")
}

/// [`run_qd_sweep_array`] warm-started from an externally supplied image
/// bank. `array.devices ≤ 1` delegates bit-identically to
/// [`run_qd_sweep_queued_from`].
///
/// `shards` must be 0, the serial engine. The channel-sharded engine it
/// once selected was removed; the parameter goes with the `RunSpec` runner
/// refactor, together with the benchmark adapter that passes the literal 0.
///
/// # Errors
///
/// Returns a typed error when `shards` is nonzero, the bank lacks an image
/// for some trace footprint, an image was captured under different model
/// inputs, or the fork cannot cover the device count.
#[allow(clippy::too_many_arguments)]
pub fn run_qd_sweep_array_from(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    queue_depths: &[u32],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    shards: u32,
    array: ArraySetup,
    bank: &ImageBank,
) -> Result<Vec<QdSweepCell>, ConfigError> {
    if shards != 0 {
        return Err(ConfigError::new(format!(
            "shards = {shards}: the channel-sharded engine was removed; pass 0"
        )));
    }
    if !array.is_array() {
        return run_qd_sweep_queued_from(
            base,
            traces,
            point,
            queue_depths,
            mechanisms,
            setup,
            jobs,
            bank,
        );
    }
    validate_bank(bank, base, traces)?;
    qd_sweep_array_with_bank(
        base,
        traces,
        point,
        queue_depths,
        mechanisms,
        setup,
        jobs,
        array,
        bank,
    )
}

/// The shared array-QD-sweep core (`array.devices ≥ 2`).
#[allow(clippy::too_many_arguments)]
fn qd_sweep_array_with_bank(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    queue_depths: &[u32],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    array: ArraySetup,
    bank: &ImageBank,
) -> Result<Vec<QdSweepCell>, ConfigError> {
    let devices = array.devices;
    let rpt = ReadTimingParamTable::default();
    let cfgs = CellConfigs::new(base, point, mechanisms);
    let device_workers = worker_budget(devices, jobs.max(1));
    let routed: Vec<RoutedTrace> = traces.iter().map(|t| route_for_array(t, &array)).collect();
    let mut forks: Vec<Vec<&DeviceImage>> = Vec::with_capacity(traces.len());
    for t in traces {
        forks.push(bank.fork_for_array(t.footprint_pages, devices)?);
    }
    let groups: Vec<(usize, u32, Mechanism)> = (0..traces.len())
        .flat_map(|ti| {
            queue_depths
                .iter()
                .flat_map(move |&qd| mechanisms.iter().map(move |&m| (ti, qd, m)))
        })
        .collect();
    Ok(parallel_ordered(
        &groups,
        jobs,
        || DeviceSet::new(devices).expect("array setups have at least one device"),
        |set, &(ti, queue_depth, m)| {
            let trace = &traces[ti];
            let front = setup.front(ReplayMode::closed_loop(queue_depth), Some(queue_depth));
            let report = run_one_prepared_routed(
                set,
                device_workers,
                cfgs.get(m),
                m,
                trace.footprint_pages,
                &routed[ti],
                &rpt,
                &front,
                Some(forks[ti].as_slice()),
            );
            QdSweepCell {
                workload: trace.name.clone(),
                mechanism: m.name().to_string(),
                queue_depth,
                point,
                reads: report.read_latency,
                writes: report.write_latency,
                retried_reads: report.retried_read_latency,
                avg_response_us: report.avg_response_us(),
                kiops: report.kiops(),
                events: report.events_processed,
                queues: setup.queues,
                per_queue_reads: Vec::new(),
                per_queue_gc: Vec::new(),
                array: Some(ArrayCellStats::from_report(&report, array.placement)),
            }
        },
    ))
}

#[allow(clippy::too_many_arguments)]
fn qd_sweep_with_bank(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    queue_depths: &[u32],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    bank: &ImageBank,
) -> Vec<QdSweepCell> {
    let rpt = ReadTimingParamTable::default();
    let cfgs = CellConfigs::new(base, point, mechanisms);
    // Unlike the figure matrices, no cell depends on another (there is no
    // in-group Baseline normalization), so mechanisms flatten into the
    // parallel work units too.
    let groups: Vec<(&Trace, u32, Mechanism)> = traces
        .iter()
        .flat_map(|t| {
            queue_depths
                .iter()
                .flat_map(move |&qd| mechanisms.iter().map(move |&m| (t, qd, m)))
        })
        .collect();
    parallel_ordered(
        &groups,
        jobs,
        SimArena::new,
        |arena, &(trace, queue_depth, m)| {
            let front = setup.front(ReplayMode::closed_loop(queue_depth), Some(queue_depth));
            let image = bank.get(trace.footprint_pages);
            let report = run_one_prepared_queued(arena, cfgs.get(m), m, trace, &rpt, &front, image);
            QdSweepCell {
                workload: trace.name.clone(),
                mechanism: m.name().to_string(),
                queue_depth,
                point,
                reads: report.read_latency,
                writes: report.write_latency,
                retried_reads: report.retried_read_latency,
                avg_response_us: report.avg_response_us(),
                kiops: report.kiops(),
                events: report.events_processed,
                queues: setup.queues,
                per_queue_reads: report.per_queue.iter().map(|q| q.reads).collect(),
                per_queue_gc: report.per_queue.iter().map(|q| q.gc).collect(),
                array: None,
            }
        },
    )
}

/// One cell of an offered-load (arrival-rate) sweep: open-loop replay with
/// inter-arrival times scaled by `rate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSweepCell {
    /// Workload name.
    pub workload: String,
    /// Mechanism name.
    pub mechanism: String,
    /// Arrival-rate multiplier over the trace's native timing (2.0 = twice
    /// the offered load).
    pub rate: f64,
    /// Operating point.
    pub point: OperatingPoint,
    /// Read latency distribution (µs).
    pub reads: LatencySummary,
    /// Write latency distribution (µs).
    pub writes: LatencySummary,
    /// Latency distribution of reads that needed ≥ 1 retry step (µs).
    pub retried_reads: LatencySummary,
    /// Average response time over all requests, µs.
    pub avg_response_us: f64,
    /// Throughput in thousands of IOPS of simulated time.
    pub kiops: f64,
    /// Discrete simulator events this cell processed.
    pub events: u64,
    /// Number of host submission queues feeding the device (1 = the plain
    /// single-generator open loop).
    pub queues: u32,
    /// Per-queue read latency distributions, one entry per submission queue
    /// (submission-queue wait included).
    pub per_queue_reads: Vec<LatencySummary>,
    /// Per-queue GC-induced stall attribution (suspensions, preemptions,
    /// waits, deferrals, total stall µs), one entry per submission queue.
    /// Empty for array cells (per-device attribution lives in `array`).
    pub per_queue_gc: Vec<GcStalls>,
    /// Array-level statistics when the cell ran on `devices > 1`; `None`
    /// for every single-device run (all pre-array output).
    pub array: Option<ArrayCellStats>,
}

/// Sweeps open-loop offered load over `traces` × `rates` × `mechanisms` at
/// one operating point, on `jobs` worker threads.
///
/// The rate axis is the open-loop sibling of [`run_qd_sweep`]'s queue-depth
/// axis: instead of pinning concurrency, each cell replays the trace with
/// every inter-arrival time divided by `rate`, producing the classic
/// latency-vs-offered-load hockey-stick as `rate` passes the device's
/// saturation point. Output is bit-identical for any `jobs` value.
pub fn run_rate_sweep(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    rates: &[f64],
    mechanisms: &[Mechanism],
    jobs: usize,
) -> Vec<RateSweepCell> {
    run_rate_sweep_queued(
        base,
        traces,
        point,
        rates,
        mechanisms,
        &QueueSetup::single(),
        jobs,
    )
}

/// [`run_rate_sweep`] under a multi-queue host front end.
///
/// Each cell stripes the trace over `setup.queues` open-loop queues, all
/// rate-scaled by the swept multiplier. The window defaults to unbounded
/// (arrivals admit at their timestamps); set [`QueueSetup::window`] to make
/// past-saturation arrivals park in their submission queues, where RR/WRR
/// arbitration splits the queueing delay between the queues. With
/// [`QueueSetup::single`] this is exactly [`run_rate_sweep`]. Output is
/// bit-identical for any `jobs` value.
pub fn run_rate_sweep_queued(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    rates: &[f64],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
) -> Vec<RateSweepCell> {
    let bank = preconditioned_bank(base, traces);
    rate_sweep_with_bank(base, traces, point, rates, mechanisms, setup, jobs, &bank)
}

/// [`run_rate_sweep_queued`] warm-started from an externally supplied image
/// bank (`repro sweep-rate --from-image`), bit-identical to the cold-start
/// sweep.
///
/// # Errors
///
/// Returns a typed error when the bank lacks an image for some trace
/// footprint or an image was captured under different model inputs.
#[allow(clippy::too_many_arguments)]
pub fn run_rate_sweep_queued_from(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    rates: &[f64],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    bank: &ImageBank,
) -> Result<Vec<RateSweepCell>, ConfigError> {
    validate_bank(bank, base, traces)?;
    Ok(rate_sweep_with_bank(
        base, traces, point, rates, mechanisms, setup, jobs, bank,
    ))
}

/// [`run_rate_sweep_queued`]'s array sibling: each cell routes its
/// rate-scaled open-loop trace across `array.devices` replica devices and
/// reports the array-merged distributions plus per-device tails.
/// `array.devices ≤ 1` delegates bit-identically to
/// [`run_rate_sweep_queued`].
#[allow(clippy::too_many_arguments)]
pub fn run_rate_sweep_array(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    rates: &[f64],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    array: ArraySetup,
) -> Vec<RateSweepCell> {
    if !array.is_array() {
        return run_rate_sweep_queued(base, traces, point, rates, mechanisms, setup, jobs);
    }
    let bank = preconditioned_bank(base, traces);
    rate_sweep_array_with_bank(
        base, traces, point, rates, mechanisms, setup, jobs, array, &bank,
    )
    .expect("the preconditioned bank covers every footprint")
}

/// [`run_rate_sweep_array`] warm-started from an externally supplied image
/// bank. `array.devices ≤ 1` delegates bit-identically to
/// [`run_rate_sweep_queued_from`].
///
/// # Errors
///
/// Returns a typed error when the bank lacks an image for some trace
/// footprint, an image was captured under different model inputs, or the
/// fork cannot cover the device count.
#[allow(clippy::too_many_arguments)]
pub fn run_rate_sweep_array_from(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    rates: &[f64],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    array: ArraySetup,
    bank: &ImageBank,
) -> Result<Vec<RateSweepCell>, ConfigError> {
    if !array.is_array() {
        return run_rate_sweep_queued_from(
            base, traces, point, rates, mechanisms, setup, jobs, bank,
        );
    }
    validate_bank(bank, base, traces)?;
    rate_sweep_array_with_bank(
        base, traces, point, rates, mechanisms, setup, jobs, array, bank,
    )
}

/// The shared array-rate-sweep core (`array.devices ≥ 2`).
#[allow(clippy::too_many_arguments)]
fn rate_sweep_array_with_bank(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    rates: &[f64],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    array: ArraySetup,
    bank: &ImageBank,
) -> Result<Vec<RateSweepCell>, ConfigError> {
    let devices = array.devices;
    let rpt = ReadTimingParamTable::default();
    let cfgs = CellConfigs::new(base, point, mechanisms);
    let device_workers = worker_budget(devices, jobs.max(1));
    let routed: Vec<RoutedTrace> = traces.iter().map(|t| route_for_array(t, &array)).collect();
    let mut forks: Vec<Vec<&DeviceImage>> = Vec::with_capacity(traces.len());
    for t in traces {
        forks.push(bank.fork_for_array(t.footprint_pages, devices)?);
    }
    let groups: Vec<(usize, f64, Mechanism)> = (0..traces.len())
        .flat_map(|ti| {
            rates
                .iter()
                .flat_map(move |&rate| mechanisms.iter().map(move |&m| (ti, rate, m)))
        })
        .collect();
    Ok(parallel_ordered(
        &groups,
        jobs,
        || DeviceSet::new(devices).expect("array setups have at least one device"),
        |set, &(ti, rate, m)| {
            let trace = &traces[ti];
            let front = setup.front(ReplayMode::open_loop_rate(rate), None);
            let report = run_one_prepared_routed(
                set,
                device_workers,
                cfgs.get(m),
                m,
                trace.footprint_pages,
                &routed[ti],
                &rpt,
                &front,
                Some(forks[ti].as_slice()),
            );
            RateSweepCell {
                workload: trace.name.clone(),
                mechanism: m.name().to_string(),
                rate,
                point,
                reads: report.read_latency,
                writes: report.write_latency,
                retried_reads: report.retried_read_latency,
                avg_response_us: report.avg_response_us(),
                kiops: report.kiops(),
                events: report.events_processed,
                queues: setup.queues,
                per_queue_reads: Vec::new(),
                per_queue_gc: Vec::new(),
                array: Some(ArrayCellStats::from_report(&report, array.placement)),
            }
        },
    ))
}

#[allow(clippy::too_many_arguments)]
fn rate_sweep_with_bank(
    base: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    rates: &[f64],
    mechanisms: &[Mechanism],
    setup: &QueueSetup,
    jobs: usize,
    bank: &ImageBank,
) -> Vec<RateSweepCell> {
    let rpt = ReadTimingParamTable::default();
    let cfgs = CellConfigs::new(base, point, mechanisms);
    let groups: Vec<(&Trace, f64, Mechanism)> = traces
        .iter()
        .flat_map(|t| {
            rates
                .iter()
                .flat_map(move |&rate| mechanisms.iter().map(move |&m| (t, rate, m)))
        })
        .collect();
    parallel_ordered(&groups, jobs, SimArena::new, |arena, &(trace, rate, m)| {
        let front = setup.front(ReplayMode::open_loop_rate(rate), None);
        let image = bank.get(trace.footprint_pages);
        let report = run_one_prepared_queued(arena, cfgs.get(m), m, trace, &rpt, &front, image);
        RateSweepCell {
            workload: trace.name.clone(),
            mechanism: m.name().to_string(),
            rate,
            point,
            reads: report.read_latency,
            writes: report.write_latency,
            retried_reads: report.retried_read_latency,
            avg_response_us: report.avg_response_us(),
            kiops: report.kiops(),
            events: report.events_processed,
            queues: setup.queues,
            per_queue_reads: report.per_queue.iter().map(|q| q.reads).collect(),
            per_queue_gc: report.per_queue.iter().map(|q| q.gc).collect(),
            array: None,
        }
    })
}

/// Aggregate reduction statistics the paper quotes in prose
/// ("PnAR2 reduces SSD response time by up to X % (Y % on average)").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReductionSummary {
    /// Mean reduction vs. the reference, as a fraction (0.29 = 29 %).
    pub mean: f64,
    /// Maximum reduction vs. the reference.
    pub max: f64,
}

/// Summarizes the response-time reduction of `mechanism` relative to
/// `reference` over matching (workload, point) cells, optionally restricted
/// to read-dominant workloads.
pub fn reduction_vs(
    cells: &[MatrixCell],
    mechanism: &str,
    reference: &str,
    read_dominant_only: bool,
) -> ReductionSummary {
    let mut reductions = Vec::new();
    for c in cells.iter().filter(|c| c.mechanism == mechanism) {
        if read_dominant_only && !c.read_dominant {
            continue;
        }
        let reference_cell = cells.iter().find(|r| {
            r.mechanism == reference
                && r.workload == c.workload
                && r.point.pec == c.point.pec
                && r.point.retention_months == c.point.retention_months
        });
        if let Some(r) = reference_cell {
            if r.avg_response_us > 0.0 {
                reductions.push(1.0 - c.avg_response_us / r.avg_response_us);
            }
        }
    }
    if reductions.is_empty() {
        return ReductionSummary {
            mean: 0.0,
            max: 0.0,
        };
    }
    ReductionSummary {
        mean: reductions.iter().sum::<f64>() / reductions.len() as f64,
        max: reductions.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_sim::request::{HostRequest, IoOp};
    use rr_util::time::SimTime;

    fn tiny_trace(name: &str, reads: usize) -> Trace {
        let requests = (0..reads)
            .map(|i| {
                HostRequest::new(
                    SimTime::from_us(400 * i as u64),
                    IoOp::Read,
                    (i as u64 * 37) % 5_000,
                    1,
                )
            })
            .collect();
        Trace::new(name, requests, 8_000)
    }

    #[test]
    fn mechanism_names_and_sets() {
        assert_eq!(Mechanism::FIG14.len(), 5);
        assert_eq!(Mechanism::FIG15.len(), 4);
        assert_eq!(Mechanism::PsoPnAr2.name(), "PSO+PnAR2");
        assert!(Mechanism::NoRR.is_ideal());
        assert!(!Mechanism::PnAr2.is_ideal());
    }

    #[test]
    fn fig14_ordering_holds_on_a_small_matrix() {
        // The fundamental shape of Fig. 14: NoRR ≤ PnAR2 ≤ {PR2, AR2} ≤
        // Baseline under aged conditions.
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![(tiny_trace("t", 150), true)];
        let points = [OperatingPoint::new(2000.0, 12.0)];
        let cells = run_matrix(&base, &traces, &points, &Mechanism::FIG14);
        let norm = |m: &str| {
            cells
                .iter()
                .find(|c| c.mechanism == m)
                .expect("cell present")
                .normalized
        };
        assert_eq!(norm("Baseline"), 1.0);
        assert!(norm("PR2") < 1.0, "PR2 = {}", norm("PR2"));
        assert!(norm("AR2") < 1.0, "AR2 = {}", norm("AR2"));
        assert!(norm("PnAR2") < norm("PR2"));
        assert!(norm("PnAR2") < norm("AR2"));
        assert!(norm("NoRR") < norm("PnAR2"));
    }

    #[test]
    fn pso_reduces_retry_steps_but_keeps_a_floor() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![(tiny_trace("t", 200), true)];
        let points = [OperatingPoint::new(2000.0, 12.0)];
        let cells = run_matrix(
            &base,
            &traces,
            &points,
            &[Mechanism::Baseline, Mechanism::Pso],
        );
        let base_steps = cells
            .iter()
            .find(|c| c.mechanism == "Baseline")
            .unwrap()
            .avg_retry_steps;
        let pso_steps = cells
            .iter()
            .find(|c| c.mechanism == "PSO")
            .unwrap()
            .avg_retry_steps;
        // ~70 % fewer steps (§3.1), but never below the ~3-step guard.
        assert!(
            pso_steps < 0.55 * base_steps,
            "PSO {pso_steps} vs baseline {base_steps}"
        );
        assert!(
            pso_steps >= 3.0,
            "PSO keeps at least three steps, got {pso_steps}"
        );
    }

    #[test]
    fn parallel_matrix_is_bit_identical_to_serial() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![
            (tiny_trace("a", 80), true),
            (tiny_trace("b", 60), false),
            (tiny_trace("c", 40), true),
        ];
        let points = [
            OperatingPoint::new(1000.0, 6.0),
            OperatingPoint::new(2000.0, 12.0),
        ];
        let serial = run_matrix(&base, &traces, &points, &Mechanism::FIG14);
        for jobs in [2, 4, 16] {
            let parallel = run_matrix_parallel(&base, &traces, &points, &Mechanism::FIG14, jobs);
            assert_eq!(serial, parallel, "jobs = {jobs} diverged from serial");
        }
    }

    #[test]
    fn parallel_matrix_degenerate_inputs() {
        let base = SsdConfig::scaled_for_tests();
        // More jobs than groups, and the jobs=1 serial fallback.
        let traces = vec![(tiny_trace("only", 30), true)];
        let points = [OperatingPoint::new(2000.0, 6.0)];
        let serial = run_matrix(&base, &traces, &points, &[Mechanism::PnAr2]);
        assert_eq!(
            serial,
            run_matrix_parallel(&base, &traces, &points, &[Mechanism::PnAr2], 8)
        );
        assert_eq!(
            serial,
            run_matrix_parallel(&base, &traces, &points, &[Mechanism::PnAr2], 1)
        );
        // Empty work lists must not hang or panic.
        assert!(run_matrix_parallel(&base, &[], &points, &Mechanism::FIG14, 4).is_empty());
        assert!(run_matrix_parallel(&base, &traces, &[], &Mechanism::FIG14, 4).is_empty());
    }

    #[test]
    fn reduction_summary_math() {
        let cells = vec![
            MatrixCell {
                workload: "w".into(),
                read_dominant: true,
                point: OperatingPoint::new(1000.0, 6.0),
                mechanism: "Baseline".into(),
                avg_response_us: 100.0,
                normalized: 1.0,
                avg_retry_steps: 10.0,
                read_latency: LatencySummary::default(),
                events: 0,
                array: None,
            },
            MatrixCell {
                workload: "w".into(),
                read_dominant: true,
                point: OperatingPoint::new(1000.0, 6.0),
                mechanism: "PnAR2".into(),
                avg_response_us: 70.0,
                normalized: 0.7,
                avg_retry_steps: 10.0,
                read_latency: LatencySummary::default(),
                events: 0,
                array: None,
            },
        ];
        let s = reduction_vs(&cells, "PnAR2", "Baseline", true);
        assert!((s.mean - 0.3).abs() < 1e-12);
        assert!((s.max - 0.3).abs() < 1e-12);
    }

    #[test]
    fn matrix_cells_carry_read_tails() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![(tiny_trace("t", 120), true)];
        let points = [OperatingPoint::new(2000.0, 12.0)];
        let cells = run_matrix(&base, &traces, &points, &[Mechanism::Baseline]);
        let c = &cells[0];
        assert_eq!(c.read_latency.count, 120);
        let p50 = c.read_latency.p50.expect("reads happened");
        let p99 = c.read_latency.p99.expect("reads happened");
        let p999 = c.read_latency.p999.expect("reads happened");
        assert!(p50 <= p99 && p99 <= p999, "{p50} / {p99} / {p999}");
    }

    #[test]
    fn qd_sweep_is_bit_identical_across_jobs() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![tiny_trace("a", 60), tiny_trace("b", 40)];
        let point = OperatingPoint::new(2000.0, 6.0);
        let qds = [1, 4];
        let serial = run_qd_sweep(&base, &traces, point, &qds, &[Mechanism::Baseline], 1);
        assert_eq!(serial.len(), 4);
        for jobs in [2, 8] {
            let parallel = run_qd_sweep(&base, &traces, point, &qds, &[Mechanism::Baseline], jobs);
            assert_eq!(serial, parallel, "jobs = {jobs} diverged");
        }
        // Cells arrive in (trace × qd) input order.
        assert_eq!(serial[0].workload, "a");
        assert_eq!(serial[0].queue_depth, 1);
        assert_eq!(serial[1].queue_depth, 4);
        assert_eq!(serial[2].workload, "b");
        // Every cell of this read-only workload reports a real read tail.
        assert!(serial.iter().all(|c| c.reads.p99.is_some()));
        assert!(serial.iter().all(|c| c.writes.p99.is_none()));
    }

    #[test]
    fn queued_sweeps_with_single_setup_match_the_plain_runners() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![tiny_trace("a", 50)];
        let point = OperatingPoint::new(2000.0, 6.0);
        let plain_qd = run_qd_sweep(&base, &traces, point, &[1, 8], &[Mechanism::Baseline], 1);
        let queued_qd = run_qd_sweep_queued(
            &base,
            &traces,
            point,
            &[1, 8],
            &[Mechanism::Baseline],
            &QueueSetup::single(),
            1,
        );
        assert_eq!(plain_qd, queued_qd);
        // Single-queue cells still carry their (one) per-queue distribution,
        // and it matches the aggregate read class.
        assert_eq!(plain_qd[0].queues, 1);
        assert_eq!(plain_qd[0].per_queue_reads, vec![plain_qd[0].reads]);
        let plain_rate = run_rate_sweep(&base, &traces, point, &[2.0], &[Mechanism::Baseline], 1);
        let queued_rate = run_rate_sweep_queued(
            &base,
            &traces,
            point,
            &[2.0],
            &[Mechanism::Baseline],
            &QueueSetup::single(),
            1,
        );
        assert_eq!(plain_rate, queued_rate);
    }

    #[test]
    fn multi_queue_sweeps_are_bit_identical_across_jobs() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![tiny_trace("a", 60), tiny_trace("b", 40)];
        let point = OperatingPoint::new(2000.0, 6.0);
        let setup = QueueSetup::multi(2, ArbPolicy::WeightedRoundRobin);
        assert_eq!(setup.resolved_weights(), vec![2, 1]);
        let serial = run_qd_sweep_queued(
            &base,
            &traces,
            point,
            &[4, 16],
            &[Mechanism::Baseline],
            &setup,
            1,
        );
        for jobs in [2, 8] {
            let parallel = run_qd_sweep_queued(
                &base,
                &traces,
                point,
                &[4, 16],
                &[Mechanism::Baseline],
                &setup,
                jobs,
            );
            assert_eq!(serial, parallel, "jobs = {jobs} diverged");
        }
        // Every cell carries one read distribution per queue, covering the
        // whole trace between them.
        for c in &serial {
            assert_eq!(c.queues, 2);
            assert_eq!(c.per_queue_reads.len(), 2);
            let per_queue: u64 = c.per_queue_reads.iter().map(|q| q.count).sum();
            assert_eq!(per_queue, c.reads.count);
        }
        let rate_serial = run_rate_sweep_queued(
            &base,
            &traces,
            point,
            &[1.0, 4.0],
            &[Mechanism::Baseline],
            &setup,
            1,
        );
        let rate_parallel = run_rate_sweep_queued(
            &base,
            &traces,
            point,
            &[1.0, 4.0],
            &[Mechanism::Baseline],
            &setup,
            4,
        );
        assert_eq!(rate_serial, rate_parallel);
    }

    #[test]
    fn rate_sweep_is_bit_identical_and_rate_one_matches_open_loop() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![tiny_trace("a", 60)];
        let point = OperatingPoint::new(2000.0, 6.0);
        let rates = [0.5, 1.0, 4.0];
        let serial = run_rate_sweep(&base, &traces, point, &rates, &[Mechanism::Baseline], 1);
        assert_eq!(serial.len(), 3);
        for jobs in [2, 8] {
            let parallel =
                run_rate_sweep(&base, &traces, point, &rates, &[Mechanism::Baseline], jobs);
            assert_eq!(serial, parallel, "jobs = {jobs} diverged");
        }
        // Rate 1.0 must be exactly the plain open-loop replay.
        let rpt = ReadTimingParamTable::default();
        let open = run_one(&base, Mechanism::Baseline, point, &traces[0], &rpt);
        assert_eq!(serial[1].reads, open.read_latency);
        assert!((serial[1].avg_response_us - open.avg_response_us()).abs() < 1e-12);
        // Offered load can only hurt (or leave) latency: the rate-4 replay's
        // mean response is at least the rate-0.5 replay's.
        assert!(serial[2].avg_response_us >= serial[0].avg_response_us - 1e-9);
    }

    #[test]
    fn evaluation_grid_covers_prose_conditions() {
        let grid = OperatingPoint::evaluation_grid();
        assert!(grid
            .iter()
            .any(|p| p.pec == 2000.0 && p.retention_months == 6.0));
        assert!(grid
            .iter()
            .any(|p| p.pec == 2000.0 && p.retention_months == 12.0));
    }
}
