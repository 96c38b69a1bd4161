//! The three benchmark workloads: their fixed shapes, their seeded inputs,
//! the untraced runner round, and the layer-by-layer replay the traced run
//! wraps in spans.

use crate::adapter::{self, Mechanism, OperatingPoint};
use crate::spans::Tracer;
use rr_core::experiment::{ArraySetup, MatrixCell, QdSweepCell, QueueSetup};
use rr_sim::array::{
    route_redundant, ArrayReport, DeviceSet, FailurePlan, PlacementPolicy, Redundancy,
};
use rr_sim::config::{ArbPolicy, ConfigError, SsdConfig};
use rr_sim::gc::GcPolicy;
use rr_sim::hostq::HostQueueConfig;
use rr_sim::metrics::{LatencySummary, SimReport};
use rr_sim::replay::ReplayMode;
use rr_sim::request::{HostRequest, IoOp};
use rr_sim::snapshot::ImageBank;
use rr_sim::ssd::{SimArena, Ssd};
use rr_util::rng::Rng;
use rr_util::time::SimTime;
use rr_workloads::msrc::MsrcWorkload;
use rr_workloads::trace::Trace;
use rr_workloads::ycsb::YcsbWorkload;

/// Which workload a run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 14: 12 traces × 6 operating points × 5 mechanisms, open loop.
    EvalMatrix,
    /// Reads beside hot writes on a shrunken SSD, 2 WRR host queues.
    GcMixed,
    /// 4-device `replicate:2` array with a mid-run device loss.
    ArrayReplicate,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::EvalMatrix, Kind::GcMixed, Kind::ArrayReplicate];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::EvalMatrix => "eval-matrix",
            Kind::GcMixed => "gc-mixed",
            Kind::ArrayReplicate => "array-replicate",
        }
    }

    /// Requests per trace at the benchmark size (`smoke` = self-test size).
    /// The load workloads keep at least [`MIN_HEADLINE_READS`] reads in
    /// their QD 16 cells at either size.
    pub fn requests_per_trace(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Kind::EvalMatrix, false) => EVAL_MATRIX_REQUESTS,
            (Kind::GcMixed, false) => 100_000,
            (Kind::ArrayReplicate, false) => 200_000,
            (Kind::EvalMatrix, true) => 150,
            (Kind::GcMixed, true) => 24_000,
            (Kind::ArrayReplicate, true) => 40_000,
        }
    }

    /// Runner rounds a run of `seconds` replays. It depends on `seconds`
    /// alone, never on how fast the rounds run, so every commit replays the
    /// same work; the divisor is the host seconds one round took on the
    /// 2-CPU host the benchmark was sized on.
    pub fn rounds(self, seconds: f64) -> usize {
        let nominal_round_s = match self {
            Kind::EvalMatrix => 10.0,
            Kind::GcMixed => 2.5,
            Kind::ArrayReplicate => 1.0,
        };
        ((seconds / nominal_round_s).round() as usize).max(1)
    }

    /// Separately timed parts one round is made of: one per trace on
    /// `eval-matrix` and one per queue depth on `gc-mixed` (each about a
    /// second), the whole round on `array-replicate`.
    pub fn slices(self) -> usize {
        match self {
            Kind::EvalMatrix => MsrcWorkload::ALL.len() + YcsbWorkload::ALL.len(),
            Kind::GcMixed => self.queue_depths().len(),
            Kind::ArrayReplicate => 1,
        }
    }

    pub fn mechanisms(self) -> &'static [Mechanism] {
        match self {
            Kind::EvalMatrix => &Mechanism::FIG14,
            Kind::GcMixed | Kind::ArrayReplicate => &[Mechanism::Baseline, Mechanism::PnAr2],
        }
    }

    /// Operating points of the grid (one point for the load workloads).
    pub fn points(self) -> Vec<OperatingPoint> {
        match self {
            Kind::EvalMatrix => OperatingPoint::evaluation_grid(),
            Kind::GcMixed | Kind::ArrayReplicate => vec![OperatingPoint::new(2000.0, 6.0)],
        }
    }

    /// Closed-loop queue depths (empty: open loop on trace timestamps).
    pub fn queue_depths(self) -> &'static [u32] {
        match self {
            Kind::EvalMatrix => &[],
            Kind::GcMixed => &[4, 16],
            Kind::ArrayReplicate => &[16],
        }
    }
}

/// Requests per `eval-matrix` trace: the Fig. 14 size of 12 traces × 30
/// cells that `repro fig14` replays.
const EVAL_MATRIX_REQUESTS: usize = 5_000;
/// Reads the load workloads' headline cell must complete, so that its
/// p99.9 has at least ten samples beyond it.
pub const MIN_HEADLINE_READS: u64 = 10_000;
/// Devices in the `array-replicate` array.
const ARRAY_DEVICES: u32 = 4;
/// The device that fails mid-run.
const FAILED_DEVICE: u32 = 1;
/// Salt separating the gc-mixed request stream from the SSD seed.
const GC_MIXED_SALT: u64 = 0x6763_5f6d_6978_6564;

/// The seeded inputs of one run: the SSD configuration and the traces
/// (with their Fig. 14 read-dominant tag).
#[derive(Debug, Clone)]
pub struct Inputs {
    pub kind: Kind,
    pub base: SsdConfig,
    pub traces: Vec<(Trace, bool)>,
}

impl Inputs {
    /// Builds the configuration and generates every trace from `seed`;
    /// `synth` is called around each trace's generation (the traced run
    /// wraps it in a `workloads.synthesize` span).
    pub fn generate(
        kind: Kind,
        seed: u64,
        smoke: bool,
        mut synth: impl FnMut(&mut dyn FnMut() -> Trace) -> Trace,
    ) -> Self {
        let n = kind.requests_per_trace(smoke);
        let stock = SsdConfig::scaled_for_tests().with_seed(seed);
        let (base, traces) = match kind {
            Kind::EvalMatrix => {
                let mut traces = Vec::new();
                for w in MsrcWorkload::ALL {
                    traces.push((synth(&mut || w.synthesize(n, seed)), w.read_dominant()));
                }
                for w in YcsbWorkload::ALL {
                    traces.push((synth(&mut || w.synthesize(n, seed)), w.read_dominant()));
                }
                (stock, traces)
            }
            Kind::GcMixed => {
                let mut base = stock.with_gc_policy(GcPolicy::Greedy);
                base.chip.blocks_per_plane = 16;
                base.chip.pages_per_block = 12;
                let footprint = base.max_lpns();
                let trace = synth(&mut || gc_mixed_trace(footprint, n, seed));
                (base, vec![(trace, false)])
            }
            Kind::ArrayReplicate => {
                let w = MsrcWorkload::Hm0;
                let trace = synth(&mut || w.synthesize(n, seed));
                (stock, vec![(trace, w.read_dominant())])
            }
        };
        Self { kind, base, traces }
    }

    pub fn plain_traces(&self) -> Vec<Trace> {
        self.traces.iter().map(|(t, _)| t.clone()).collect()
    }

    /// The array layout: hash placement, 2 copies per request, and device
    /// `FAILED_DEVICE` lost fail-stop at the trace's middle arrival.
    pub fn array_setup(&self) -> ArraySetup {
        let trace = &self.traces[0].0;
        let at = trace
            .requests
            .get(trace.len() / 2)
            .map_or(SimTime::ZERO, |r| r.arrival);
        ArraySetup::new(ARRAY_DEVICES, PlacementPolicy::LpnHash)
            .with_redundancy(Redundancy::Replicate { r: 2 })
            .with_failure(Some(FailurePlan {
                device: FAILED_DEVICE,
                at,
            }))
    }

    /// Logical host requests one replay round simulates.
    pub fn requests_per_round(&self) -> u64 {
        let per_pass: u64 = self.traces.iter().map(|(t, _)| t.len() as u64).sum();
        let passes = match self.kind {
            Kind::EvalMatrix => self.kind.points().len() * self.kind.mechanisms().len(),
            _ => self.kind.queue_depths().len() * self.kind.mechanisms().len(),
        };
        per_pass * passes as u64
    }
}

/// Alternating single-page reads over the whole footprint and writes to its
/// hot quarter, 60 µs apart, with seeded addresses. Striped over two host
/// queues, every read lands on queue 0 and every write on queue 1.
pub fn gc_mixed_trace(footprint: u64, n: usize, seed: u64) -> Trace {
    let hot = (footprint / 4).max(1);
    let mut rng = Rng::seed_from_u64(seed ^ GC_MIXED_SALT);
    let requests = (0..n)
        .map(|i| {
            let at = SimTime::from_us(60 * i as u64);
            if i % 2 == 0 {
                HostRequest::new(at, IoOp::Read, rng.below(footprint), 1)
            } else {
                HostRequest::new(at, IoOp::Write, rng.below(hot), 1)
            }
        })
        .collect();
    Trace::new("gc_mixed", requests, footprint)
}

/// The gc-mixed front end the runner builds: two queues, weighted
/// round-robin.
fn gc_queue_setup() -> QueueSetup {
    QueueSetup::multi(2, ArbPolicy::WeightedRoundRobin)
}

/// The same front end for the layer replay: the runner's defaults for
/// [`gc_queue_setup`] spelled out (burst 1, weights 2:1, admission window =
/// queue depth). The per-cell cross-check against the runner catches any
/// drift between the two.
fn gc_front(queue_depth: u32) -> HostQueueConfig {
    HostQueueConfig::uniform(2, ReplayMode::closed_loop(queue_depth))
        .with_arb(ArbPolicy::WeightedRoundRobin)
        .with_burst(1)
        .with_weights(&[2, 1])
        .with_window(queue_depth)
}

/// What one untraced runner round returns.
#[derive(Debug, Clone, PartialEq)]
pub enum RunnerCells {
    Matrix(Vec<MatrixCell>),
    Sweep(Vec<QdSweepCell>),
}

impl RunnerCells {
    /// Joins the slices of one round, in slice order.
    pub fn join(slices: Vec<RunnerCells>) -> RunnerCells {
        let mut it = slices.into_iter();
        let mut out = it.next().expect("a round has at least one slice");
        for s in it {
            match (&mut out, s) {
                (RunnerCells::Matrix(a), RunnerCells::Matrix(b)) => a.extend(b),
                (RunnerCells::Sweep(a), RunnerCells::Sweep(b)) => a.extend(b),
                _ => unreachable!("the slices of one workload have one kind"),
            }
        }
        out
    }
}

/// Slice `slice` (below [`Kind::slices`]) of one replay round through the
/// experiment runners, in the order one call over the whole round replays
/// them: one trace's 30 cells on `eval-matrix`, one queue depth's cells on
/// `gc-mixed`, the whole round on `array-replicate`.
pub fn runner_slice(
    inputs: &Inputs,
    bank: &ImageBank,
    slice: usize,
) -> Result<RunnerCells, ConfigError> {
    let kind = inputs.kind;
    let point = kind.points()[0];
    Ok(match kind {
        Kind::EvalMatrix => RunnerCells::Matrix(adapter::matrix(
            &inputs.base,
            &inputs.traces[slice..=slice],
            &kind.points(),
            kind.mechanisms(),
            bank,
        )?),
        Kind::GcMixed => RunnerCells::Sweep(adapter::qd_sweep(
            &inputs.base,
            &inputs.plain_traces(),
            point,
            &kind.queue_depths()[slice..=slice],
            kind.mechanisms(),
            &gc_queue_setup(),
            bank,
        )?),
        Kind::ArrayReplicate => RunnerCells::Sweep(adapter::qd_sweep_array(
            &inputs.base,
            &inputs.plain_traces(),
            point,
            kind.queue_depths(),
            kind.mechanisms(),
            inputs.array_setup(),
            bank,
        )?),
    })
}

/// The result of one cell replayed layer by layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerReport {
    Device(SimReport),
    Array(ArrayReport),
}

impl LayerReport {
    /// The device reports (one for a single device).
    pub fn devices(&self) -> &[SimReport] {
        match self {
            LayerReport::Device(r) => std::slice::from_ref(r),
            LayerReport::Array(a) => &a.devices,
        }
    }

    pub fn events(&self) -> u64 {
        self.devices().iter().map(|d| d.events_processed).sum()
    }

    /// The read latency distribution a runner cell reports.
    pub fn read_latency(&self) -> LatencySummary {
        match self {
            LayerReport::Device(r) => r.read_latency,
            LayerReport::Array(a) => a.read_latency,
        }
    }

    /// The mean response time a runner cell reports, µs.
    pub fn avg_response_us(&self) -> f64 {
        match self {
            LayerReport::Device(r) => r.avg_response_us(),
            LayerReport::Array(a) => a.avg_response_us(),
        }
    }
}

/// One cell of the layer-by-layer replay.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCell {
    /// Span cell id (unique within the run).
    pub id: u32,
    pub trace: usize,
    pub point: OperatingPoint,
    pub mechanism: Mechanism,
    pub queue_depth: Option<u32>,
    pub report: LayerReport,
    /// Requests each device was handed (copies and rebuild reads included).
    pub device_requests: Vec<u64>,
}

/// Slice `slice` of one replay round that calls the device and array layers
/// directly, with the cells of [`runner_slice`] in the same order and a span
/// around every call. Every cell takes its configuration from
/// [`adapter::cell_config`].
pub fn layer_slice(
    inputs: &Inputs,
    bank: &ImageBank,
    tracer: &mut Tracer,
    next_cell: &mut u32,
    slice: usize,
) -> Result<Vec<LayerCell>, ConfigError> {
    let kind = inputs.kind;
    let mut cells = Vec::new();
    let mut arena = SimArena::new();
    let mut new_cell = || {
        *next_cell += 1;
        *next_cell
    };
    // One device cell: a trace from its warm image through the serial engine.
    let mut device_cell =
        |tracer: &mut Tracer,
         id: u32,
         (ti, point, m, queue_depth): (usize, OperatingPoint, Mechanism, Option<u32>),
         queues: &HostQueueConfig|
         -> Result<LayerCell, ConfigError> {
            let trace = &inputs.traces[ti].0;
            let cfg = adapter::cell_config(&inputs.base, point, m);
            let report = tracer
                .span("ssd.replay", id, |_| {
                    Ssd::run_pooled_queued_from(
                        &mut arena,
                        cfg,
                        adapter::controller(m),
                        trace.footprint_pages,
                        &trace.requests,
                        queues,
                        bank.get(trace.footprint_pages),
                    )
                })
                .map_err(ConfigError::new)?;
            Ok(LayerCell {
                id,
                trace: ti,
                point,
                mechanism: m,
                queue_depth,
                report: LayerReport::Device(report),
                device_requests: vec![trace.len() as u64],
            })
        };
    match kind {
        Kind::EvalMatrix => {
            let queues = HostQueueConfig::single(ReplayMode::OpenLoop);
            for point in kind.points() {
                for &m in kind.mechanisms() {
                    let id = new_cell();
                    cells.push(device_cell(tracer, id, (slice, point, m, None), &queues)?);
                }
            }
        }
        Kind::GcMixed => {
            let point = kind.points()[0];
            let qd = kind.queue_depths()[slice];
            for &m in kind.mechanisms() {
                let id = new_cell();
                cells.push(device_cell(
                    tracer,
                    id,
                    (0, point, m, Some(qd)),
                    &gc_front(qd),
                )?);
            }
        }
        Kind::ArrayReplicate => {
            let trace = &inputs.traces[0].0;
            let point = kind.points()[0];
            let array = inputs.array_setup();
            let round = new_cell();
            let routing = tracer.span("array.route", round, |_| {
                route_redundant(
                    &trace.requests,
                    array.devices,
                    array.placement,
                    trace.footprint_pages,
                    array.redundancy,
                    array.failure,
                )
            });
            let forks = tracer.span("snapshot.fork", round, |_| {
                bank.fork_for_array(trace.footprint_pages, array.devices)
            })?;
            let device_requests: Vec<u64> = routing
                .device_requests()
                .iter()
                .map(|d| d.len() as u64)
                .collect();
            let mut set = DeviceSet::new(array.devices)?;
            let device_workers = std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .clamp(1, array.devices as usize);
            for &qd in kind.queue_depths() {
                for &m in kind.mechanisms() {
                    let id = new_cell();
                    let cfg = adapter::cell_config(&inputs.base, point, m);
                    let report = tracer.span("array.run", id, |_| {
                        set.run_redundant_from(
                            &cfg,
                            &|| adapter::controller(m),
                            trace.footprint_pages,
                            &routing,
                            &HostQueueConfig::single(ReplayMode::closed_loop(qd)),
                            Some(&forks),
                            0,
                            device_workers,
                        )
                    })?;
                    cells.push(LayerCell {
                        id,
                        trace: 0,
                        point,
                        mechanism: m,
                        queue_depth: Some(qd),
                        report: LayerReport::Array(report),
                        device_requests: device_requests.clone(),
                    });
                }
            }
        }
    }
    Ok(cells)
}
