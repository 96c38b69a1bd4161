//! Metric derivation and output: the human-readable table and the final
//! JSON line.

use crate::adapter::{self, Mechanism};
use crate::probe;
use crate::spans::{Span, Tracer};
use crate::workload::{Inputs, Kind, LayerCell, LayerReport, RunnerCells};
use std::fmt::Write as _;

/// The paper's average response-time reductions vs Baseline (§7.2), the
/// reference `paper_gap_pp` is measured against.
pub const PAPER_AVG_REDUCTION_PCT: [(Mechanism, f64); 3] = [
    (Mechanism::Pr2, 17.7),
    (Mechanism::Ar2, 11.9),
    (Mechanism::PnAr2, 28.9),
];

/// The highlight operating point: 2K P/E cycles, 6 months retention.
const HIGHLIGHT: (f64, f64) = (2000.0, 6.0);
/// The queue depth of the load workloads' headline cell.
const HEADLINE_QD: u32 = 16;

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Time the simulator takes on the host.
    Host,
    /// Time in the simulated SSD.
    Sim,
    /// A count or ratio of simulated work.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// One named, measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, clock: Clock, note: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        clock,
        note: note.to_string(),
    }
}

/// The median of `xs` (mean of the middle pair on even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The PnAR² QD 16 cell of a load workload.
pub struct Headline {
    pub read_p999_us: f64,
    pub kiops: f64,
    /// Reads the cell completed (its p99.9 needs `MIN_HEADLINE_READS`).
    pub reads: u64,
}

/// The simulated results the end-to-end sim metrics read.
pub struct SimResults {
    pub resp_reduction_pct: f64,
    /// The load workloads' headline cell; `None` on `eval-matrix` (and when
    /// a load workload lacks the cell, which its floor check then fails).
    pub headline: Option<Headline>,
    /// Grid-mean reductions of PR², AR², PnAR² (eval-matrix only).
    pub grid_reductions: Option<[f64; 3]>,
}

impl SimResults {
    /// `eval-matrix`: the grid means. The load workloads: the QD 16 cells.
    pub fn derive(runner: &RunnerCells) -> Self {
        match runner {
            RunnerCells::Matrix(cells) => {
                let grid =
                    PAPER_AVG_REDUCTION_PCT.map(|(m, _)| adapter::grid_reduction_pct(cells, m));
                SimResults {
                    resp_reduction_pct: grid[2],
                    headline: None,
                    grid_reductions: Some(grid),
                }
            }
            RunnerCells::Sweep(cells) => {
                let cell = |m: Mechanism| {
                    cells
                        .iter()
                        .find(|c| c.mechanism == m.name() && c.queue_depth == HEADLINE_QD)
                };
                let (Some(pnar2), Some(base)) = (cell(Mechanism::PnAr2), cell(Mechanism::Baseline))
                else {
                    return SimResults {
                        resp_reduction_pct: 0.0,
                        headline: None,
                        grid_reductions: None,
                    };
                };
                SimResults {
                    resp_reduction_pct: 100.0
                        * (1.0 - pnar2.avg_response_us / base.avg_response_us),
                    headline: Some(Headline {
                        read_p999_us: pnar2.reads.p999.unwrap_or(0.0),
                        kiops: pnar2.kiops,
                        reads: pnar2.reads.count,
                    }),
                    grid_reductions: None,
                }
            }
        }
    }

    /// Mean over PR², AR², PnAR² of |simulated − paper| grid-mean reduction.
    pub fn paper_gap_pp(&self) -> Option<f64> {
        self.grid_reductions.map(|g| {
            g.iter()
                .zip(PAPER_AVG_REDUCTION_PCT)
                .map(|(sim, (_, paper))| (sim - paper).abs())
                .sum::<f64>()
                / g.len() as f64
        })
    }
}

/// The host times of one timed phase of a run.
pub struct Timings {
    /// Each slice's seconds in every round, scaled to the reference speed.
    pub slice_s: Vec<Vec<f64>>,
    /// Each round's raw host seconds (the sum of its slices).
    pub round_s: Vec<f64>,
}

impl Timings {
    /// One round: the sum over its slices of each slice's median scaled time.
    pub fn round_median_s(&self) -> f64 {
        self.slice_s.iter().map(|s| median(s)).sum()
    }

    pub fn rounds(&self) -> usize {
        self.round_s.len()
    }
}

/// Host timings of one run.
pub struct HostTimes {
    /// Every set-up's seconds, scaled to the reference speed.
    pub setup_s: Vec<f64>,
    /// The untraced runner rounds.
    pub runner: Timings,
    /// The layer-by-layer rounds (traced with `--trace 1`).
    pub layers: Timings,
    /// Every probe's raw host seconds.
    pub probes: Vec<f64>,
}

/// The end-to-end metrics of the JSON line, in `BENCHMARK.json` order:
/// the ones every workload has.
pub fn end_to_end(
    inputs: &Inputs,
    host: &HostTimes,
    sim: &SimResults,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let run_s = host.runner.round_median_s();
    let reps = format!("median of {}, scaled", host.setup_s.len());
    let rounds = format!(
        "{} slice(s), median of {} rounds each, scaled",
        host.runner.slice_s.len(),
        host.runner.rounds()
    );
    let reduction = match inputs.kind {
        Kind::EvalMatrix => "PnAR2 vs Baseline mean response, grid mean",
        _ => "PnAR2 vs Baseline mean response, QD 16",
    };
    vec![
        metric(
            "setup_s",
            median(&host.setup_s),
            "s",
            Clock::Host,
            &format!("synthesis + precondition + forks, {reps}"),
        ),
        metric(
            "run_s",
            run_s,
            "s",
            Clock::Host,
            &format!("replay through the runner, {rounds}"),
        ),
        metric(
            "req_per_s",
            inputs.requests_per_round() as f64 / run_s,
            "1/s",
            Clock::Host,
            "simulated host requests per host second",
        ),
        metric(
            "peak_rss_mb",
            peak_rss_mb,
            "MiB",
            Clock::Host,
            "VmHWM after set-up and runner rounds",
        ),
        metric(
            "resp_reduction_pct",
            sim.resp_reduction_pct,
            "%",
            Clock::Sim,
            reduction,
        ),
    ]
}

/// The end-to-end metrics only some workloads have, the request counts,
/// and the raw host figures behind the scaled times; printed in the table,
/// not in the JSON line.
pub fn workload_specific(
    host: &HostTimes,
    sim: &SimResults,
    attempted: u64,
    failed: u64,
    read_failures: u64,
) -> Vec<Metric> {
    let mut out = vec![
        metric(
            "raw_run_s",
            median(&host.runner.round_s),
            "s",
            Clock::Host,
            "runner round, unscaled host seconds, median",
        ),
        metric(
            "host_speed",
            probe::REFERENCE_S / median(&host.probes),
            "x",
            Clock::Host,
            &format!(
                "this run's speed relative to the reference, median of {} probes",
                host.probes.len()
            ),
        ),
    ];
    if let Some(h) = &sim.headline {
        let note = format!("PnAR2 at QD 16, {} reads", h.reads);
        out.push(metric(
            "sim_read_p999_us",
            h.read_p999_us,
            "us",
            Clock::Sim,
            &note,
        ));
        out.push(metric("sim_kiops", h.kiops, "kIOPS", Clock::Sim, &note));
    }
    if let (Some(gap), Some(g)) = (sim.paper_gap_pp(), sim.grid_reductions) {
        out.push(metric(
            "paper_gap_pp",
            gap,
            "pp",
            Clock::Sim,
            &format!(
                "model validation vs the paper's section 7.2 averages: PR2 {:.1}/17.7, AR2 {:.1}/11.9, PnAR2 {:.1}/28.9 %",
                g[0], g[1], g[2]
            ),
        ));
    }
    for (name, value, note) in [
        ("ops", attempted, "simulated host requests attempted"),
        (
            "ops_failed",
            failed,
            "not completed, read failures, or in a failed check",
        ),
        (
            "read_failures",
            read_failures,
            "reads that exhausted the retry table, per round",
        ),
    ] {
        out.push(metric(name, value as f64, "count", Clock::Count, note));
    }
    out
}

/// Sums over the device reports of one layer round.
#[derive(Default)]
struct Totals {
    events: u64,
    reads: u64,
    senses: u64,
    resets: u64,
    set_features: u64,
    retry_steps: f64,
    retry_reads: u64,
    suspensions: u64,
    gc_collections: u64,
    gc_stalls: u64,
    gc_stall_us: f64,
    gc_deferrals: u64,
    copies: u64,
    logical_reads: u64,
    rescued_reads: u64,
    rescued_saved_us: f64,
    rebuild_reads: u64,
}

fn totals(cells: &[LayerCell]) -> Totals {
    let mut t = Totals::default();
    for c in cells {
        for d in c.report.devices() {
            t.events += d.events_processed;
            t.reads += d.read_latency.count;
            t.senses += d.senses;
            t.resets += d.resets;
            t.set_features += d.set_features;
            t.retry_steps += d.retry_steps.mean() * d.retry_steps.total() as f64;
            t.retry_reads += d.retry_steps.total();
            t.suspensions += d.suspensions;
            t.gc_collections += d.gc_collections;
            for q in &d.per_queue {
                t.gc_stalls += q.gc.stalls();
                t.gc_stall_us += q.gc.stall_us;
                t.gc_deferrals += q.gc.deferrals;
            }
        }
        if let LayerReport::Array(a) = &c.report {
            if let Some(r) = &a.redundancy {
                t.copies += r.fanout_reads.iter().sum::<u64>();
                t.logical_reads += r.wait_for_k.count;
                t.rescued_reads += r.rescued_reads;
                t.rescued_saved_us += r.rescued_saved_us;
                t.rebuild_reads += r.rebuild_reads.iter().sum::<u64>();
            }
        }
    }
    t
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order, from
/// one round's `cells` and the spans of every round (`cell_mechanisms` maps
/// each traced cell id to its mechanism). Times are per set-up or per
/// replay round; counters are per round. A layer the workload never calls
/// reports 0 and is marked absent in the table.
pub fn per_layer(
    inputs: &Inputs,
    tracer: &Tracer,
    cells: &[LayerCell],
    cell_mechanisms: &[(u32, Mechanism)],
    host: &HostTimes,
) -> Vec<Metric> {
    let setups = host.setup_s.len().max(1) as f64;
    let rounds = host.layers.rounds().max(1) as f64;
    let is_array = inputs.kind == Kind::ArrayReplicate;
    let replay_span = if is_array { "array.run" } else { "ssd.replay" };
    let in_round = |name: &'static str| move |s: &Span| s.name == name && s.cell != 0;
    let t = totals(cells);
    let replay_s = tracer.seconds(in_round(replay_span)) / rounds;
    let mut out = vec![
        metric(
            "workloads.synth_s",
            tracer.seconds(|s| s.name == "workloads.synthesize") / setups,
            "s",
            Clock::Host,
            "per set-up",
        ),
        metric(
            "snapshot.precondition_s",
            tracer.seconds(|s| s.name == "snapshot.precondition") / setups,
            "s",
            Clock::Host,
            "per set-up",
        ),
        metric(
            "snapshot.fork_s",
            tracer.seconds(in_round("snapshot.fork")) / rounds,
            "s",
            Clock::Host,
            "per round",
        ),
        metric(
            "experiment.run_s",
            host.runner.round_median_s(),
            "s",
            Clock::Host,
            "untraced runner round, as run_s",
        ),
        metric(
            "ssd.replay_s",
            replay_s,
            "s",
            Clock::Host,
            if is_array {
                "per round; device replays run inside array.run"
            } else {
                "per round"
            },
        ),
    ];
    for m in Mechanism::FIG14 {
        let ids: Vec<u32> = cell_mechanisms
            .iter()
            .filter(|&&(_, cm)| cm == m)
            .map(|&(id, _)| id)
            .collect();
        out.push(metric(
            &format!("ssd.replay_s.{}", m.name()),
            tracer.seconds(|s| s.name == replay_span && ids.contains(&s.cell)) / rounds,
            "s",
            Clock::Host,
            "per round",
        ));
    }
    let requests = inputs.requests_per_round() as f64;
    let headline: Vec<&LayerCell> = cells
        .iter()
        .filter(|c| {
            c.mechanism == Mechanism::PnAr2
                && match c.queue_depth {
                    Some(qd) => qd == HEADLINE_QD,
                    None => (c.point.pec, c.point.retention_months) == HIGHLIGHT,
                }
        })
        .collect();
    let worst = |q: usize, read: bool| {
        headline
            .iter()
            .flat_map(|c| c.report.devices())
            .filter_map(|d| d.per_queue.get(q))
            .filter_map(|pq| if read { pq.reads.p99 } else { pq.writes.p99 })
            .fold(0.0, f64::max)
    };
    let amp = headline
        .iter()
        .filter_map(|c| match &c.report {
            LayerReport::Array(a) => a.amplification_p99(),
            LayerReport::Device(_) => None,
        })
        .fold(0.0, f64::max);
    let counts = [
        ("ssd.events", t.events as f64, "count", "per round"),
        (
            "ssd.ns_per_event",
            ratio(replay_s * 1e9, t.events as f64),
            "ns",
            "host ns per simulated event",
        ),
        (
            "ssd.events_per_request",
            ratio(t.events as f64, requests),
            "1/req",
            "per logical host request",
        ),
        (
            "mechanisms.senses_per_read",
            ratio(t.senses as f64, t.reads as f64),
            "1/read",
            "device reads",
        ),
        (
            "mechanisms.retry_steps_per_read",
            ratio(t.retry_steps, t.retry_reads as f64),
            "1/read",
            "device reads",
        ),
        (
            "mechanisms.set_features_per_read",
            ratio(t.set_features as f64, t.reads as f64),
            "1/read",
            "device reads",
        ),
        (
            "mechanisms.reset_ratio",
            ratio(t.resets as f64, t.senses as f64),
            "ratio",
            "resets / senses",
        ),
        (
            "scheduler.suspensions",
            t.suspensions as f64,
            "count",
            "per round",
        ),
        (
            "gc.collections",
            t.gc_collections as f64,
            "count",
            "per round",
        ),
        ("gc.stalls", t.gc_stalls as f64, "count", "per round"),
        ("gc.stall_us", t.gc_stall_us, "us", "sim, per round"),
        ("gc.deferrals", t.gc_deferrals as f64, "count", "per round"),
        (
            "hostq.q0_read_p99_us",
            worst(0, true),
            "us",
            "sim, headline cell, worst device/trace",
        ),
        (
            "hostq.q1_write_p99_us",
            worst(1, false),
            "us",
            "sim, headline cell; 0 = no queue 1",
        ),
    ];
    for (name, value, unit, note) in counts {
        let clock = if unit == "us" {
            Clock::Sim
        } else {
            Clock::Count
        };
        let clock = if unit == "ns" { Clock::Host } else { clock };
        out.push(metric(name, value, unit, clock, note));
    }
    out.extend([
        metric(
            "array.route_s",
            tracer.seconds(in_round("array.route")) / rounds,
            "s",
            Clock::Host,
            "per round",
        ),
        metric(
            "array.run_s",
            tracer.seconds(in_round("array.run")) / rounds,
            "s",
            Clock::Host,
            "per round",
        ),
        metric(
            "array.copies_per_read",
            ratio(t.copies as f64, t.logical_reads as f64),
            "1/read",
            Clock::Count,
            "read copies per logical read",
        ),
        metric(
            "array.rescued_reads",
            t.rescued_reads as f64,
            "count",
            Clock::Count,
            "per round",
        ),
        metric(
            "array.rescued_saved_us",
            t.rescued_saved_us,
            "us",
            Clock::Sim,
            "per round",
        ),
        metric(
            "array.rebuild_reads",
            t.rebuild_reads as f64,
            "count",
            Clock::Count,
            "per round",
        ),
        metric("array.amp_p99", amp, "ratio", Clock::Count, "headline cell"),
        metric(
            "trace.overhead_pct",
            100.0 * (host.layers.round_median_s() / host.runner.round_median_s() - 1.0),
            "%",
            Clock::Host,
            "traced layer round vs untraced runner round, scaled medians",
        ),
    ]);
    out
}

/// Whether the workload calls the layer a per-layer metric belongs to.
fn layer_called(kind: Kind, name: &str) -> bool {
    let array_only = name.starts_with("array.") || name == "snapshot.fork_s";
    !array_only || kind == Kind::ArrayReplicate
}

/// Prints the table of every metric with its unit and clock.
pub fn print_table(kind: Kind, title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "{:<34} {:>16}  {:<7} {:<6} note",
        "metric", "value", "unit", "clock"
    );
    for m in metrics {
        let value = if layer_called(kind, &m.name) {
            format!("{:.4}", m.value)
        } else {
            "absent".to_string()
        };
        println!(
            "{:<34} {:>16}  {:<7} {:<6} {}",
            m.name,
            value,
            m.unit,
            m.clock.label(),
            m.note
        );
    }
}

/// The final result line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
