//! The §7 evaluation harness: mechanisms × workloads × operating conditions.
//!
//! [`Mechanism`] enumerates the SSD configurations of Fig. 14 and Fig. 15.
//! A [`RunSpec`] names one grid of replays: workloads × mechanisms × a
//! [`Shape`] (the Fig. 14/15 matrix over (P/E-cycle, retention-age)
//! operating points, or a queue-depth or arrival-rate load sweep), behind
//! one host front end, on one device or an array. [`run`] replays it into a
//! [`RunReport`]; matrix cells report response times normalized to
//! `Baseline`, exactly the quantity both figures plot.

use crate::extensions::ExpectedStepsTable;
use crate::mechanisms::ReadRetryController;
use crate::pso::PsoPredictor;
use crate::rpt::ReadTimingParamTable;
use rr_flash::calibration::OperatingCondition;
use rr_sim::array::{
    parallel_ordered, route_redundant, run_array_cells, worker_budget, ArrayCell, ArrayReport,
    FailurePlan, PlacementPolicy, Redundancy, RedundancyStats, RedundantRouting,
};
use rr_sim::config::{ArbPolicy, ConfigError, SsdConfig};
use rr_sim::hostq::HostQueueConfig;
use rr_sim::metrics::{EventCounts, GcStalls, HighWater, LatencySummary, SimReport};
use rr_sim::readflow::{BaselineController, RetryController};
use rr_sim::replay::ReplayMode;
use rr_sim::snapshot::{DeviceImage, ImageBank};
use rr_sim::ssd::{SimArena, Ssd};
use rr_workloads::trace::Trace;
use std::fmt;
use std::sync::Arc;

/// The SSD configurations evaluated in §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
            Mechanism::Pr2 => Box::new(ReadRetryController::pr2()),
            Mechanism::Ar2 => Box::new(ReadRetryController::ar2(rpt.clone())),
            Mechanism::PnAr2 => Box::new(ReadRetryController::pnar2(rpt.clone())),
            Mechanism::Pso => Box::new(ReadRetryController::pso(PsoPredictor::new())),
            Mechanism::PsoPnAr2 => Box::new(ReadRetryController::pso_pnar2(
                rpt.clone(),
                PsoPredictor::new(),
            )),
            Mechanism::EagerPnAr2 => Box::new(ReadRetryController::eager_pnar2(
                rpt.clone(),
                ExpectedStepsTable::default(),
                2.0,
            )),
            Mechanism::RegularAr2 => Box::new(ReadRetryController::regular_ar2(rpt.clone())),
        }
    }

    /// Whether this mechanism runs on the ideal no-read-retry SSD.
    pub fn is_ideal(&self) -> bool {
        matches!(self, Mechanism::NoRR)
    }
}

/// One (P/E cycles, retention age) operating point of Fig. 14/15's x-axis.
#[derive(Debug, Clone, Copy, PartialEq)]
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

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}mo", self.pec, self.retention_months)
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
    Ssd::run_pooled_queued_from(
        &mut SimArena::new(),
        prepared_config(base, point, mechanism.is_ideal()),
        mechanism.make_controller(rpt),
        trace.footprint_pages,
        &trace.requests,
        &HostQueueConfig::single(mode),
        None,
    )
    .expect("experiment configuration must be valid")
}

/// Builds the `Arc`-shared per-cell configuration once: `base` at `point`
/// (keeping `base`'s temperature), with the ideal-SSD switch set for
/// `NoRR`-style mechanisms. Sharing the `Arc` across a run keeps setup from
/// cloning the full config (chip geometry and timing tables) per
/// simulator.
pub fn prepared_config(base: &SsdConfig, point: OperatingPoint, ideal: bool) -> Arc<SsdConfig> {
    let mut cfg = base.clone().with_condition(OperatingCondition::new(
        point.pec,
        point.retention_months,
        base.condition.temp_c,
    ));
    cfg.ideal_no_retry = ideal;
    Arc::new(cfg)
}

/// The `Arc`-shared configs one operating point needs: the regular config
/// plus the ideal-SSD variant, the latter built only when an ideal mechanism
/// is in the set. Every cell selects per mechanism through [`Self::get`].
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

/// The device-count axis of a [`RunSpec`]: how many full-footprint replica
/// devices each trace is routed across (`--devices`), which
/// [`PlacementPolicy`] does the routing (`--placement`), and the redundancy
/// and failure layered on top. [`ArraySetup::single`] runs every cell on
/// one device and reports `array: None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySetup {
    /// Number of devices in the array (≥ 1).
    pub devices: u32,
    /// Which device each request lands on (the redundancy anchor when a
    /// scheme fans out).
    pub placement: PlacementPolicy,
    /// How requests fan out across the array (`--redundancy`);
    /// [`Redundancy::None`] routes each request to its placement's device
    /// alone.
    pub redundancy: Redundancy,
    /// A mid-run device loss (`--fail-device D --fail-at-us T`), routed and
    /// rebuilt as [`route_redundant`] describes.
    pub failure: Option<FailurePlan>,
}

impl ArraySetup {
    /// The single-device setup.
    pub fn single() -> Self {
        Self::new(1, PlacementPolicy::default())
    }

    /// An array of `devices` devices routed by `placement` (no redundancy,
    /// no failure).
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
}

impl Default for ArraySetup {
    fn default() -> Self {
        Self::single()
    }
}

/// Per-device tail diagnostics of one array cell: enough to attribute an
/// array-level p99.9 excursion to the device (and the GC activity) that
/// caused it.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Redundancy attribution when the cell fanned requests out or ran
    /// with a failure plan (wait-for-k latency, rescued reads, fan-out and
    /// rebuild counters); `None` otherwise.
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

/// The host front-end axis of a [`RunSpec`]: how many NVMe-style submission
/// queues feed the device, under which arbitration policy, and with what
/// device admission window — the `--queues N --arb rr|wrr` knobs of
/// `repro sweep-qd` / `repro sweep-rate`.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Device admission window. `None` picks each shape's natural default:
    /// the swept queue depth for QD sweeps (each queue backfills the shared
    /// window, so arbitration apportions a load comparable to the
    /// single-queue sweep), unbounded for open-loop replay.
    pub window: Option<u32>,
}

impl QueueSetup {
    /// The single-queue front end: every replay behaves bit-identically to
    /// the plain (pre-multi-queue) engine.
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

    /// Builds the concrete front end for one cell: every queue replays
    /// `mode`, and the window falls back to `default_window` for
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
#[derive(Debug, Clone, PartialEq)]
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

/// One cell of a queue-depth sweep: closed-loop replay of one workload at
/// one queue depth under one mechanism.
#[derive(Debug, Clone, PartialEq)]
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

/// One cell of an offered-load (arrival-rate) sweep: open-loop replay with
/// inter-arrival times scaled by `rate`.
#[derive(Debug, Clone, PartialEq)]
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

/// The cells a [`RunSpec`] holds: the operating points and load levels its
/// workloads replay at.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// The Fig. 14/15 matrix: open-loop replay at every point, each
    /// mechanism normalized to `Baseline` at the same (workload, point).
    Matrix {
        /// Operating points, in output order.
        points: Vec<OperatingPoint>,
    },
    /// Closed-loop replay at each queue depth (≥ 1): load as concurrency,
    /// the axis of tail-latency plots.
    QdSweep {
        /// Operating point of every cell.
        point: OperatingPoint,
        /// Queue depths, in output order.
        depths: Vec<u32>,
    },
    /// Open-loop replay with every inter-arrival time divided by the rate
    /// (finite, > 0): the latency-vs-offered-load hockey stick.
    RateSweep {
        /// Operating point of every cell.
        point: OperatingPoint,
        /// Arrival-rate multipliers, in output order.
        rates: Vec<f64>,
    },
}

/// One load level of a [`Shape`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// The matrix's open loop at the trace's own timing.
    Open,
    /// A closed loop at this queue depth.
    Qd(u32),
    /// An open loop at this arrival-rate multiplier.
    Rate(f64),
}

impl Load {
    /// The sweep coordinate: the queue depth or the rate multiplier;
    /// `None` for the matrix's open loop.
    pub fn level(self) -> Option<String> {
        match self {
            Load::Open => None,
            Load::Qd(qd) => Some(qd.to_string()),
            Load::Rate(rate) => Some(rate.to_string()),
        }
    }

    /// The concrete front end of one cell at this load.
    fn front(self, setup: &QueueSetup) -> HostQueueConfig {
        match self {
            Load::Open => setup.front(ReplayMode::OpenLoop, None),
            Load::Qd(qd) => setup.front(ReplayMode::closed_loop(qd), Some(qd)),
            Load::Rate(rate) => setup.front(ReplayMode::open_loop_rate(rate), None),
        }
    }
}

/// One evaluation grid: every workload × every mechanism at every point and
/// load level of `shape`, behind one host front end, on one device or an
/// array. It borrows the configuration and the traces, so building a spec
/// copies no trace; [`run`] replays it into a [`RunReport`].
///
/// Its [`Display`](fmt::Display) is canonical: one line naming the shape,
/// every workload with its request count, the mechanisms, the seed, the GC
/// policy, the front end, the array and `jobs` — every axis the `repro`
/// flags vary, which is what keys the `repro perf` archive.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// The simulator configuration every cell starts from (seed, geometry,
    /// GC policy); each cell ages it to its operating point.
    pub base: &'a SsdConfig,
    /// Workload traces, each tagged read-dominant or not (the Fig. 14/15
    /// grouping; ignored by the sweeps).
    pub workloads: Vec<(&'a Trace, bool)>,
    /// Mechanisms, in output order. Matrices always run `Baseline` too, as
    /// the normalization reference.
    pub mechanisms: Vec<Mechanism>,
    /// Matrix, QD sweep or rate sweep.
    pub shape: Shape,
    /// Host front end of every cell.
    pub front: QueueSetup,
    /// Devices, placement, redundancy and failure of every cell.
    pub array: ArraySetup,
    /// Worker threads; the report is bit-identical for any value.
    pub jobs: usize,
}

impl<'a> RunSpec<'a> {
    /// A Fig. 14/15 matrix of `traces` × `points` × `mechanisms` on one
    /// device behind the single-queue front end, on one worker.
    pub fn matrix(
        base: &'a SsdConfig,
        traces: &'a [(Trace, bool)],
        points: &[OperatingPoint],
        mechanisms: &[Mechanism],
    ) -> Self {
        Self::new(
            base,
            traces.iter().map(|(t, rd)| (t, *rd)).collect(),
            mechanisms,
            Shape::Matrix {
                points: points.to_vec(),
            },
        )
    }

    /// A closed-loop sweep of `traces` × `depths` × `mechanisms` at `point`.
    pub fn qd_sweep(
        base: &'a SsdConfig,
        traces: &'a [Trace],
        point: OperatingPoint,
        depths: &[u32],
        mechanisms: &[Mechanism],
    ) -> Self {
        let depths = depths.to_vec();
        Self::new(
            base,
            traces.iter().map(|t| (t, false)).collect(),
            mechanisms,
            Shape::QdSweep { point, depths },
        )
    }

    /// An open-loop sweep of `traces` × `rates` × `mechanisms` at `point`.
    pub fn rate_sweep(
        base: &'a SsdConfig,
        traces: &'a [Trace],
        point: OperatingPoint,
        rates: &[f64],
        mechanisms: &[Mechanism],
    ) -> Self {
        let rates = rates.to_vec();
        Self::new(
            base,
            traces.iter().map(|t| (t, false)).collect(),
            mechanisms,
            Shape::RateSweep { point, rates },
        )
    }

    fn new(
        base: &'a SsdConfig,
        workloads: Vec<(&'a Trace, bool)>,
        mechanisms: &[Mechanism],
        shape: Shape,
    ) -> Self {
        Self {
            base,
            workloads,
            mechanisms: mechanisms.to_vec(),
            shape,
            front: QueueSetup::single(),
            array: ArraySetup::single(),
            jobs: 1,
        }
    }

    /// This spec behind the host front end `front`.
    pub fn with_front(mut self, front: QueueSetup) -> Self {
        self.front = front;
        self
    }

    /// This spec on the device array `array`.
    pub fn with_array(mut self, array: ArraySetup) -> Self {
        self.array = array;
        self
    }

    /// This spec on `jobs` worker threads.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Rejects, with a typed error and before any simulation, every input
    /// the engine would otherwise panic on.
    fn validate(&self) -> Result<(), ConfigError> {
        let front = &self.front;
        if front.queues == 0 {
            return Err(ConfigError::new("a front end needs at least one queue"));
        }
        if front.resolved_weights().len() != front.queues as usize {
            let queues = front.queues;
            return Err(ConfigError::new(format!(
                "{queues} queues need {queues} weights"
            )));
        }
        match &self.shape {
            Shape::QdSweep { depths, .. } if depths.contains(&0) => {
                return Err(ConfigError::new("queue depths must be at least 1"));
            }
            Shape::RateSweep { rates, .. } => {
                for &rate in rates {
                    ReplayMode::try_open_loop_rate(rate)?;
                }
            }
            _ => {}
        }
        let devices = self.array.devices;
        if devices == 0 {
            return Err(ConfigError::new(
                "an array needs at least one device (devices = 0)",
            ));
        }
        for (t, _) in &self.workloads {
            if self.array.is_array() && devices as usize > t.requests.len() {
                return Err(ConfigError::new(format!(
                    "{devices} devices exceed the {} requests of workload {}",
                    t.requests.len(),
                    t.name
                )));
            }
        }
        Ok(())
    }

    /// The parallel work units in output order. A matrix has one per
    /// (workload, point) group, normalized to `Baseline`. On an array, every
    /// mechanism at one (workload, load) shares a routing and a front end,
    /// so they form one unit, replayed as one batch on one device pool. A
    /// single-device sweep has one unit per (workload, load, mechanism) cell.
    fn units(&self) -> Vec<Unit> {
        let levels: Vec<(usize, Load)> = match &self.shape {
            Shape::Matrix { points } => (0..points.len()).map(|p| (p, Load::Open)).collect(),
            Shape::QdSweep { depths, .. } => depths.iter().map(|&d| (0, Load::Qd(d))).collect(),
            Shape::RateSweep { rates, .. } => rates.iter().map(|&r| (0, Load::Rate(r))).collect(),
        };
        let grouped = matches!(self.shape, Shape::Matrix { .. }) || self.array.is_array();
        let groups: Vec<Vec<Mechanism>> = if grouped {
            vec![self.mechanisms.clone()]
        } else {
            self.mechanisms.iter().map(|&m| vec![m]).collect()
        };
        let mut units = Vec::new();
        for workload in 0..self.workloads.len() {
            for &(point, load) in &levels {
                for mechanisms in &groups {
                    units.push(Unit {
                        workload,
                        point,
                        load,
                        mechanisms: mechanisms.clone(),
                    });
                }
            }
        }
        units
    }

    fn points(&self) -> Vec<OperatingPoint> {
        match &self.shape {
            Shape::Matrix { points } => points.clone(),
            Shape::QdSweep { point, .. } | Shape::RateSweep { point, .. } => vec![*point],
        }
    }
}

impl fmt::Display for RunSpec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
            let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
            items.join(",")
        }
        match &self.shape {
            Shape::Matrix { points } => write!(f, "matrix points={}", list(points))?,
            Shape::QdSweep { point, depths } => {
                write!(f, "qd-sweep point={point} depths={}", list(depths))?
            }
            Shape::RateSweep { point, rates } => {
                write!(f, "rate-sweep point={point} rates={}", list(rates))?
            }
        }
        let front = &self.front;
        let array = &self.array;
        write!(
            f,
            " workloads={} mechanisms={} seed={} gc={:?} queues={} arb={} burst={} \
             weights={} window={} devices={} placement={} redundancy={} fail={} jobs={}",
            list(
                self.workloads
                    .iter()
                    .map(|(t, _)| format!("{}:{}", t.name, t.requests.len()))
            ),
            list(self.mechanisms.iter().map(Mechanism::name)),
            self.base.seed,
            self.base.gc_policy,
            front.queues,
            match front.arb {
                ArbPolicy::RoundRobin => "rr",
                ArbPolicy::WeightedRoundRobin => "wrr",
            },
            front.burst,
            list(front.resolved_weights()),
            front.window.map_or_else(|| "-".into(), |w| w.to_string()),
            array.devices,
            array.placement.name(),
            array.redundancy.name(),
            array.failure.map_or_else(
                || "none".into(),
                |p| format!("d{}@{}us", p.device, p.at.as_us())
            ),
            self.jobs,
        )
    }
}

/// The cells of one [`run`], one vector per [`Shape`]; the two vectors the
/// spec's shape does not produce stay empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Matrix cells in (workload, point, mechanism) order.
    pub matrix: Vec<MatrixCell>,
    /// QD-sweep cells in (workload, depth, mechanism) order.
    pub qd: Vec<QdSweepCell>,
    /// Rate-sweep cells in (workload, rate, mechanism) order.
    pub rate: Vec<RateSweepCell>,
    /// Simulator events over every cell, by kind (`total()` is the
    /// `repro perf` throughput numerator).
    pub event_kinds: EventCounts,
    /// The highest event-queue and transaction-slab marks any cell's
    /// device reached.
    pub high_water: HighWater,
    /// Valid pages GC moved over every cell and device.
    pub gc_pages_moved: u64,
}

impl RunReport {
    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.matrix.len() + self.qd.len() + self.rate.len()
    }
}

/// One parallel work unit: the cells of `mechanisms` at one (workload,
/// point, load), in output order (see [`RunSpec::units`]).
struct Unit {
    workload: usize,
    point: usize,
    load: Load,
    mechanisms: Vec<Mechanism>,
}

/// One workload ready to replay: its warm image on one device, or its
/// routing and per-device image fork on an array.
enum Target<'b> {
    Device(&'b DeviceImage),
    Array(RedundantRouting, Vec<&'b DeviceImage>),
}

/// What every cell of one run shares, built once before any replay.
struct Plan<'p> {
    spec: &'p RunSpec<'p>,
    /// One entry per operating point of the shape.
    configs: Vec<CellConfigs>,
    /// One entry per workload: routed once, image forked once.
    targets: Vec<Target<'p>>,
    device_workers: usize,
    rpt: ReadTimingParamTable,
}

/// The measured quantities of one cell, whichever shape it lands in.
#[derive(Clone)]
struct Cell {
    mechanism: Mechanism,
    normalized: f64,
    avg_response_us: f64,
    avg_retry_steps: f64,
    reads: LatencySummary,
    writes: LatencySummary,
    retried_reads: LatencySummary,
    kiops: f64,
    event_kinds: EventCounts,
    high_water: HighWater,
    gc_pages_moved: u64,
    per_queue_reads: Vec<LatencySummary>,
    per_queue_gc: Vec<GcStalls>,
    array: Option<ArrayCellStats>,
}

impl Cell {
    fn device(mechanism: Mechanism, r: &SimReport) -> Self {
        Self {
            mechanism,
            normalized: 1.0,
            avg_response_us: r.avg_response_us(),
            avg_retry_steps: r.avg_retry_steps(),
            reads: r.read_latency,
            writes: r.write_latency,
            retried_reads: r.retried_read_latency,
            kiops: r.kiops(),
            event_kinds: r.event_kinds,
            high_water: r.high_water,
            gc_pages_moved: r.gc_pages_moved,
            per_queue_reads: r.per_queue.iter().map(|q| q.reads).collect(),
            per_queue_gc: r.per_queue.iter().map(|q| q.gc).collect(),
            array: None,
        }
    }

    fn array(mechanism: Mechanism, r: &ArrayReport, placement: PlacementPolicy) -> Self {
        Self {
            mechanism,
            normalized: 1.0,
            avg_response_us: r.avg_response_us(),
            avg_retry_steps: array_avg_retry_steps(r),
            reads: r.read_latency,
            writes: r.write_latency,
            retried_reads: r.retried_read_latency,
            kiops: r.kiops(),
            event_kinds: r.event_kinds,
            high_water: r.high_water,
            gc_pages_moved: r.devices.iter().map(|d| d.gc_pages_moved).sum(),
            per_queue_reads: Vec::new(),
            per_queue_gc: Vec::new(),
            array: Some(ArrayCellStats::from_report(r, placement)),
        }
    }
}

/// One worker's retained simulation state, reused across every unit (and
/// every run) the worker processes: the first arena replays single-device
/// cells, and an array batch runs on the first `device_workers`.
#[derive(Debug, Default)]
struct Worker {
    arenas: Vec<SimArena>,
}

impl Worker {
    /// Runs one work unit into its cells, in order. Matrix cells are
    /// normalized to `Baseline`, which is replayed for that even when the
    /// spec does not list it.
    fn unit(&mut self, plan: &Plan, unit: &Unit) -> Result<Vec<Cell>, ConfigError> {
        let spec = plan.spec;
        let normalize = matches!(unit.load, Load::Open);
        let hidden_baseline = normalize && !unit.mechanisms.contains(&Mechanism::Baseline);
        let mechanisms: Vec<Mechanism> = hidden_baseline
            .then_some(Mechanism::Baseline)
            .into_iter()
            .chain(unit.mechanisms.iter().copied())
            .collect();
        let (trace, _) = spec.workloads[unit.workload];
        let configs = &plan.configs[unit.point];
        let queues = unit.load.front(&spec.front);
        let mut cells = match &plan.targets[unit.workload] {
            Target::Device(image) => mechanisms
                .iter()
                .map(|&m| {
                    let report = Ssd::run_pooled_queued_from(
                        &mut self.arenas(1)[0],
                        Arc::clone(configs.get(m)),
                        m.make_controller(&plan.rpt),
                        trace.footprint_pages,
                        &trace.requests,
                        &queues,
                        Some(image),
                    )
                    .map_err(ConfigError::new)?;
                    Ok(Cell::device(m, &report))
                })
                .collect::<Result<Vec<_>, ConfigError>>()?,
            Target::Array(routing, images) => {
                let makers: Vec<_> = mechanisms
                    .iter()
                    .map(|&m| move || m.make_controller(&plan.rpt))
                    .collect();
                let batch: Vec<ArrayCell> = mechanisms
                    .iter()
                    .zip(&makers)
                    .map(|(&m, make_controller)| ArrayCell {
                        cfg: configs.get(m),
                        make_controller,
                        lpn_count: trace.footprint_pages,
                        routing,
                        queues: &queues,
                        images: Some(images),
                    })
                    .collect();
                run_array_cells(self.arenas(plan.device_workers), &batch)?
                    .iter()
                    .zip(&mechanisms)
                    .map(|(report, &m)| Cell::array(m, report, spec.array.placement))
                    .collect()
            }
        };
        if normalize {
            let base_rt = cells
                .iter()
                .find(|c| c.mechanism == Mechanism::Baseline)
                .expect("a matrix unit replays Baseline")
                .avg_response_us;
            if base_rt > 0.0 {
                for cell in &mut cells {
                    cell.normalized = cell.avg_response_us / base_rt;
                }
            }
        }
        if hidden_baseline {
            cells.remove(0);
        }
        Ok(cells)
    }

    /// The first `n` of this worker's arenas, growing the set to `n`.
    fn arenas(&mut self, n: usize) -> &mut [SimArena] {
        if self.arenas.len() < n {
            self.arenas.resize_with(n, SimArena::new);
        }
        &mut self.arenas[..n]
    }
}

/// Simulation buffers retained across runs: one worker context per job.
/// [`run`] starts from an empty context; `repro serve` keeps one across
/// queries, so each query restores its image into warm buffers instead of
/// reallocating them. Reuse is bit-identical to a fresh context.
#[derive(Debug, Default)]
pub struct RunContext {
    workers: Vec<Worker>,
}

impl RunContext {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`run`] on this context's retained buffers.
    ///
    /// # Errors
    ///
    /// As [`run`].
    pub fn run(
        &mut self,
        spec: &RunSpec,
        bank: Option<&ImageBank>,
    ) -> Result<RunReport, ConfigError> {
        spec.validate()?;
        let preconditioned;
        let bank = match bank {
            Some(bank) => bank,
            None => {
                preconditioned = ImageBank::preconditioned(
                    spec.base,
                    spec.workloads.iter().map(|(t, _)| t.footprint_pages),
                )?;
                &preconditioned
            }
        };
        let points = spec.points();
        let mut targets = Vec::with_capacity(spec.workloads.len());
        for (t, _) in &spec.workloads {
            targets.push(if spec.array.is_array() {
                Target::Array(
                    route_redundant(
                        &t.requests,
                        spec.array.devices,
                        spec.array.placement,
                        t.footprint_pages,
                        spec.array.redundancy,
                        spec.array.failure,
                    ),
                    bank.fork_for_array(t.footprint_pages, spec.array.devices)?,
                )
            } else {
                // A bank preconditioned for other workloads must fail here,
                // not fall back to a cold start.
                Target::Device(bank.get(t.footprint_pages).ok_or_else(|| {
                    ConfigError::new(format!(
                        "image bank holds no image for the {}-page footprint of workload {}",
                        t.footprint_pages, t.name
                    ))
                })?)
            });
        }
        let plan = Plan {
            spec,
            configs: points
                .iter()
                .map(|&p| CellConfigs::new(spec.base, p, &spec.mechanisms))
                .collect(),
            targets,
            device_workers: worker_budget(spec.array.devices, spec.jobs.max(1)),
            rpt: ReadTimingParamTable::default(),
        };
        let units = spec.units();
        let workers = spec.jobs.clamp(1, units.len().max(1));
        if self.workers.len() < workers {
            self.workers.resize_with(workers, Worker::default);
        }
        let outcomes = parallel_ordered(
            units.iter().collect(),
            &mut self.workers[..workers],
            |w, unit| w.unit(&plan, unit),
        );
        let mut report = RunReport::default();
        for (unit, cells) in units.iter().zip(outcomes) {
            let (trace, read_dominant) = spec.workloads[unit.workload];
            let point = points[unit.point];
            for c in cells? {
                report.event_kinds += c.event_kinds;
                report.high_water.merge(c.high_water);
                report.gc_pages_moved += c.gc_pages_moved;
                let workload = trace.name.clone();
                let mechanism = c.mechanism.name().to_string();
                match unit.load {
                    Load::Open => report.matrix.push(MatrixCell {
                        workload,
                        read_dominant,
                        point,
                        mechanism,
                        avg_response_us: c.avg_response_us,
                        normalized: c.normalized,
                        avg_retry_steps: c.avg_retry_steps,
                        read_latency: c.reads,
                        events: c.event_kinds.total(),
                        array: c.array,
                    }),
                    Load::Qd(queue_depth) => report.qd.push(QdSweepCell {
                        workload,
                        mechanism,
                        queue_depth,
                        point,
                        reads: c.reads,
                        writes: c.writes,
                        retried_reads: c.retried_reads,
                        avg_response_us: c.avg_response_us,
                        kiops: c.kiops,
                        events: c.event_kinds.total(),
                        queues: spec.front.queues,
                        per_queue_reads: c.per_queue_reads,
                        per_queue_gc: c.per_queue_gc,
                        array: c.array,
                    }),
                    Load::Rate(rate) => report.rate.push(RateSweepCell {
                        workload,
                        mechanism,
                        rate,
                        point,
                        reads: c.reads,
                        writes: c.writes,
                        retried_reads: c.retried_reads,
                        avg_response_us: c.avg_response_us,
                        kiops: c.kiops,
                        events: c.event_kinds.total(),
                        queues: spec.front.queues,
                        per_queue_reads: c.per_queue_reads,
                        per_queue_gc: c.per_queue_gc,
                        array: c.array,
                    }),
                }
            }
        }
        Ok(report)
    }
}

/// Replays every cell of `spec`, warm-starting each from `bank`'s image of
/// its workload's footprint (`None` preconditions a bank in-process first,
/// with bit-identical output).
///
/// Cells are independent pure functions of the spec — each simulator is
/// seeded from the configuration alone and every worker's buffers reset to
/// pristine between cells — so the report is bit-identical for any `jobs`.
/// A `devices: 1` spec runs every cell on one device and reports
/// `array: None`.
///
/// # Errors
///
/// A typed [`ConfigError`] when the spec is malformed (no queues, a weight
/// count that differs from the queue count, a zero queue depth, a
/// non-positive rate, zero devices, or more devices than some workload has
/// requests), when `bank` lacks an image for some workload's footprint or
/// holds one built for another geometry, or when a cell's simulator
/// rejects its configuration. A bank preconditioned under another seed or
/// outlier rate is no error: an image holds only FTL tables, which those
/// inputs do not touch, so it replays bit-identically.
pub fn run(spec: &RunSpec, bank: Option<&ImageBank>) -> Result<RunReport, ConfigError> {
    RunContext::new().run(spec, bank)
}

/// [`run`] over a matrix spec warm-started from `bank`. Kept only because
/// `perfbench/src/adapter.rs` calls it with this signature.
///
/// # Errors
///
/// As [`run`].
pub fn run_matrix_parallel_from(
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
    jobs: usize,
    bank: &ImageBank,
) -> Result<Vec<MatrixCell>, ConfigError> {
    let spec = RunSpec::matrix(base, traces, points, mechanisms).with_jobs(jobs);
    Ok(run(&spec, Some(bank))?.matrix)
}

/// [`run`] over a QD-sweep spec warm-started from `bank`. Kept only because
/// `perfbench/src/adapter.rs` calls it with this signature.
///
/// # Errors
///
/// As [`run`].
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
    let spec = RunSpec::qd_sweep(base, traces, point, queue_depths, mechanisms)
        .with_front(setup.clone())
        .with_jobs(jobs);
    Ok(run(&spec, Some(bank))?.qd)
}

/// [`run`] over a QD-sweep spec on `array`, warm-started from `bank`. Kept
/// only because `perfbench/src/adapter.rs` calls it with this signature,
/// including `shards`, which must be 0: the channel-sharded engine it once
/// selected was removed.
///
/// # Errors
///
/// As [`run`], plus a typed error when `shards` is nonzero.
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
    let spec = RunSpec::qd_sweep(base, traces, point, queue_depths, mechanisms)
        .with_front(setup.clone())
        .with_array(array)
        .with_jobs(jobs);
    Ok(run(&spec, Some(bank))?.qd)
}

/// Aggregate reduction statistics the paper quotes in prose
/// ("PnAR2 reduces SSD response time by up to X % (Y % on average)").
#[derive(Debug, Clone, Copy, PartialEq)]
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

    fn matrix(
        base: &SsdConfig,
        traces: &[(Trace, bool)],
        points: &[OperatingPoint],
        mechanisms: &[Mechanism],
        jobs: usize,
    ) -> Vec<MatrixCell> {
        let spec = RunSpec::matrix(base, traces, points, mechanisms).with_jobs(jobs);
        run(&spec, None).expect("valid spec").matrix
    }

    fn qd_sweep(spec: RunSpec, jobs: usize) -> Vec<QdSweepCell> {
        run(&spec.with_jobs(jobs), None).expect("valid spec").qd
    }

    fn rate_sweep(spec: RunSpec, jobs: usize) -> Vec<RateSweepCell> {
        run(&spec.with_jobs(jobs), None).expect("valid spec").rate
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
        let cells = matrix(&base, &traces, &points, &Mechanism::FIG14, 1);
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
        let cells = matrix(
            &base,
            &traces,
            &points,
            &[Mechanism::Baseline, Mechanism::Pso],
            1,
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
        let serial = matrix(&base, &traces, &points, &Mechanism::FIG14, 1);
        for jobs in [2, 4, 16] {
            let parallel = matrix(&base, &traces, &points, &Mechanism::FIG14, jobs);
            assert_eq!(serial, parallel, "jobs = {jobs} diverged from serial");
        }
    }

    #[test]
    fn parallel_matrix_degenerate_inputs() {
        let base = SsdConfig::scaled_for_tests();
        // More jobs than groups, and the jobs=1 serial fallback.
        let traces = vec![(tiny_trace("only", 30), true)];
        let points = [OperatingPoint::new(2000.0, 6.0)];
        let serial = matrix(&base, &traces, &points, &[Mechanism::PnAr2], 1);
        assert_eq!(
            serial,
            matrix(&base, &traces, &points, &[Mechanism::PnAr2], 8)
        );
        assert_eq!(
            serial,
            matrix(&base, &traces, &points, &[Mechanism::PnAr2], 0)
        );
        // Empty work lists must not hang or panic.
        assert!(matrix(&base, &[], &points, &Mechanism::FIG14, 4).is_empty());
        assert!(matrix(&base, &traces, &[], &Mechanism::FIG14, 4).is_empty());
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
        let cells = matrix(&base, &traces, &points, &[Mechanism::Baseline], 1);
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
        let spec = RunSpec::qd_sweep(&base, &traces, point, &[1, 4], &[Mechanism::Baseline]);
        let serial = qd_sweep(spec.clone(), 1);
        assert_eq!(serial.len(), 4);
        for jobs in [2, 8] {
            assert_eq!(
                serial,
                qd_sweep(spec.clone(), jobs),
                "jobs = {jobs} diverged"
            );
        }
        // Cells arrive in (trace × qd) input order.
        assert_eq!(serial[0].workload, "a");
        assert_eq!(serial[0].queue_depth, 1);
        assert_eq!(serial[1].queue_depth, 4);
        assert_eq!(serial[2].workload, "b");
        // Every cell of this read-only workload reports a real read tail.
        assert!(serial.iter().all(|c| c.reads.p99.is_some()));
        assert!(serial.iter().all(|c| c.writes.p99.is_none()));
        // Single-queue cells still carry their (one) per-queue distribution,
        // and it matches the aggregate read class.
        assert_eq!(serial[0].queues, 1);
        assert_eq!(serial[0].per_queue_reads, vec![serial[0].reads]);
    }

    #[test]
    fn multi_queue_sweeps_are_bit_identical_across_jobs() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![tiny_trace("a", 60), tiny_trace("b", 40)];
        let point = OperatingPoint::new(2000.0, 6.0);
        let setup = QueueSetup::multi(2, ArbPolicy::WeightedRoundRobin);
        assert_eq!(setup.resolved_weights(), vec![2, 1]);
        let spec = RunSpec::qd_sweep(&base, &traces, point, &[4, 16], &[Mechanism::Baseline])
            .with_front(setup.clone());
        let serial = qd_sweep(spec.clone(), 1);
        for jobs in [2, 8] {
            assert_eq!(
                serial,
                qd_sweep(spec.clone(), jobs),
                "jobs = {jobs} diverged"
            );
        }
        // Every cell carries one read distribution per queue, covering the
        // whole trace between them.
        for c in &serial {
            assert_eq!(c.queues, 2);
            assert_eq!(c.per_queue_reads.len(), 2);
            let per_queue: u64 = c.per_queue_reads.iter().map(|q| q.count).sum();
            assert_eq!(per_queue, c.reads.count);
        }
        let spec = RunSpec::rate_sweep(&base, &traces, point, &[1.0, 4.0], &[Mechanism::Baseline])
            .with_front(setup);
        assert_eq!(rate_sweep(spec.clone(), 1), rate_sweep(spec, 4));
    }

    #[test]
    fn rate_sweep_is_bit_identical_and_rate_one_matches_open_loop() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![tiny_trace("a", 60)];
        let point = OperatingPoint::new(2000.0, 6.0);
        let spec = RunSpec::rate_sweep(
            &base,
            &traces,
            point,
            &[0.5, 1.0, 4.0],
            &[Mechanism::Baseline],
        );
        let serial = rate_sweep(spec.clone(), 1);
        assert_eq!(serial.len(), 3);
        for jobs in [2, 8] {
            assert_eq!(
                serial,
                rate_sweep(spec.clone(), jobs),
                "jobs = {jobs} diverged"
            );
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
    fn malformed_specs_are_typed_errors() {
        let base = SsdConfig::scaled_for_tests();
        let traces = vec![tiny_trace("a", 4)];
        let point = OperatingPoint::new(2000.0, 6.0);
        let qd = RunSpec::qd_sweep(&base, &traces, point, &[1], &[Mechanism::Baseline]);
        let rejects = |spec: RunSpec, what: &str| {
            let err = run(&spec, None).expect_err(what);
            assert!(err.to_string().contains(what), "{err}");
        };
        rejects(
            qd.clone()
                .with_array(ArraySetup::new(5, PlacementPolicy::RoundRobin)),
            "5 devices exceed the 4 requests",
        );
        rejects(
            qd.clone()
                .with_array(ArraySetup::new(0, PlacementPolicy::RoundRobin)),
            "devices = 0",
        );
        rejects(
            qd.clone()
                .with_front(QueueSetup::multi(0, ArbPolicy::RoundRobin)),
            "at least one queue",
        );
        let mut weighted = QueueSetup::multi(2, ArbPolicy::WeightedRoundRobin);
        weighted.weights = Some(vec![3]);
        rejects(qd.with_front(weighted), "2 queues need 2 weights");
        rejects(
            RunSpec::qd_sweep(&base, &traces, point, &[0], &[Mechanism::Baseline]),
            "at least 1",
        );
        rejects(
            RunSpec::rate_sweep(&base, &traces, point, &[-1.0], &[Mechanism::Baseline]),
            "finite and positive",
        );
        // As many devices as requests is still a valid array.
        let spec = RunSpec::qd_sweep(&base, &traces, point, &[1], &[Mechanism::Baseline])
            .with_array(ArraySetup::new(4, PlacementPolicy::RoundRobin));
        assert_eq!(run(&spec, None).expect("4 devices, 4 requests").qd.len(), 1);
    }

    #[test]
    fn spec_display_names_every_axis() {
        let base = SsdConfig::scaled_for_tests().with_seed(7);
        let traces = vec![tiny_trace("a", 3)];
        let point = OperatingPoint::new(2000.0, 6.0);
        let spec = RunSpec::rate_sweep(&base, &traces, point, &[0.5, 2.0], &[Mechanism::PnAr2])
            .with_front(QueueSetup::multi(2, ArbPolicy::WeightedRoundRobin))
            .with_array(
                ArraySetup::new(2, PlacementPolicy::LpnHash)
                    .with_redundancy(Redundancy::Replicate { r: 2 })
                    .with_failure(Some(FailurePlan {
                        device: 1,
                        at: SimTime::from_us(500),
                    })),
            )
            .with_jobs(3);
        assert_eq!(
            spec.to_string(),
            "rate-sweep point=2000/6mo rates=0.5,2 workloads=a:3 mechanisms=PnAR2 seed=7 \
             gc=Greedy queues=2 arb=wrr burst=1 weights=2,1 window=- devices=2 placement=hash \
             redundancy=replicate:2 fail=d1@500us jobs=3"
        );
        let single = RunSpec::qd_sweep(&base, &traces, point, &[1], &[Mechanism::PnAr2]);
        assert!(single
            .to_string()
            .ends_with("redundancy=none fail=none jobs=1"));
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
