//! Host-time benchmark of the read-retry simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload eval-matrix|gc-mixed|array-replicate --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! One run replays the workload through the experiment runners for a fixed
//! number of rounds that `--seconds` sets (see `Kind::rounds`), each made of
//! one or more separately timed slices, and sets the workload up afresh
//! before every slice. Every set-up and slice time is scaled to a reference
//! host speed by a fixed probe workload run around it (see `probe`);
//! `setup_s` and `run_s` are medians of the scaled samples. The run checks
//! every cell and prints a table of every metric followed by one JSON line.
//! `--trace 0` reports the end-to-end metrics. `--trace 1` spends half of
//! the rounds on the runners and half on rounds that call the device and
//! array layers directly with a span around each call, reports the
//! per-layer metrics, and writes the spans to `perfbench/out/`.
//! `--smoke` shrinks every trace for the self-test. `perfbench/README.md`
//! defines the metrics.

mod adapter;
mod probe;
mod report;
mod spans;
mod workload;

use adapter::Mechanism;
use probe::Gauge;
use report::{HostTimes, SimResults, Timings};
use rr_sim::config::ConfigError;
use rr_sim::request::IoOp;
use rr_sim::snapshot::ImageBank;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Inputs, Kind, LayerCell, RunnerCells, MIN_HEADLINE_READS};

/// Set-ups before each runner slice; the last one is replayed.
const SETUPS_PER_SLICE: usize = 3;

const USAGE: &str = "usage: perfbench --workload eval-matrix|gc-mixed|array-replicate \
                     --seed N --seconds S --trace 0|1 [--smoke]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut kind, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    kind = Some(
                        Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds {value} out of range"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Failed correctness checks, with the simulated requests they fail.
#[derive(Default)]
struct Checks {
    failed_per_round: u64,
    messages: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, requests: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_per_round += requests;
            self.messages.push(what());
        }
    }
}

/// Synthesizes the traces, preconditions one image per footprint and, for
/// the array, forks the image across the devices.
fn setup(args: &Args, tracer: &mut Tracer) -> Result<(Inputs, ImageBank), ConfigError> {
    let inputs = Inputs::generate(args.kind, args.seed, args.smoke, |synth| {
        tracer.span("workloads.synthesize", 0, |_| synth())
    });
    let footprints: Vec<u64> = inputs
        .traces
        .iter()
        .map(|(t, _)| t.footprint_pages)
        .collect();
    let bank = tracer.span("snapshot.precondition", 0, |_| {
        ImageBank::preconditioned(&inputs.base, footprints.iter().copied())
    })?;
    if args.kind == Kind::ArrayReplicate {
        let devices = inputs.array_setup().devices;
        tracer.span("snapshot.fork", 0, |_| {
            bank.fork_for_array(footprints[0], devices)
        })?;
    }
    Ok((inputs, bank))
}

/// One timed phase: the host times of its rounds, the scaled seconds of
/// the set-ups its slices did, the first round's joined output, and whether
/// every round joined to the same output.
struct Phase<J> {
    timings: Timings,
    setup_s: Vec<f64>,
    first: J,
    same: bool,
}

/// Runs `rounds` rounds (at least one) of `slices` slices. `slice(i, setups)`
/// runs slice `i` and returns its output and its own raw host seconds,
/// pushing the raw seconds of any set-up it did to `setups`. The probe that
/// follows every slice scales its times; `join` joins a round's outputs.
fn phase<R, J: PartialEq>(
    rounds: usize,
    slices: usize,
    gauge: &mut Gauge,
    mut slice: impl FnMut(usize, &mut Vec<f64>) -> Result<(R, f64), ConfigError>,
    join: impl Fn(Vec<R>) -> J,
) -> Result<Phase<J>, ConfigError> {
    let mut timings = Timings {
        slice_s: vec![Vec::new(); slices],
        round_s: Vec::new(),
    };
    let mut setup_s = Vec::new();
    let mut first = None;
    let mut same = true;
    for _ in 0..rounds.max(1) {
        let mut parts = Vec::new();
        let mut round_s = 0.0;
        for (i, times) in timings.slice_s.iter_mut().enumerate() {
            let mut setups = Vec::new();
            let (out, t) = slice(i, &mut setups)?;
            let scale = gauge.scale();
            setup_s.extend(setups.iter().map(|s| s * scale));
            times.push(t * scale);
            round_s += t;
            parts.push(out);
        }
        timings.round_s.push(round_s);
        let joined = join(parts);
        match &first {
            None => first = Some(joined),
            Some(f) => same &= *f == joined,
        }
    }
    Ok(Phase {
        timings,
        setup_s,
        first: first.expect("at least one round ran"),
        same,
    })
}

/// Sets the workload up [`SETUPS_PER_SLICE`] times, pushing each one's host
/// seconds to `setup_s`, and returns the last set-up.
fn set_up(
    args: &Args,
    tracer: &mut Tracer,
    setup_s: &mut Vec<f64>,
) -> Result<(Inputs, ImageBank), ConfigError> {
    let mut prepared = None;
    for _ in 0..SETUPS_PER_SLICE {
        // Free the previous set-up first, so peak RSS never holds two banks.
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(tracer.span("setup", 0, |tr| setup(args, tr))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    Ok(prepared.expect("SETUPS_PER_SLICE > 0"))
}

fn run(args: &Args) -> Result<(), ConfigError> {
    let kind = args.kind;
    let mut tracer = Tracer::new(args.trace);
    let rounds = match (kind.rounds(args.seconds), args.trace) {
        (r, true) => r.div_ceil(2),
        (r, false) => r,
    };

    // Runner rounds. Every slice replays fresh set-ups, so that set-up and
    // replay samples spread over the whole run; the set-up is freed before
    // the probe, so every probe runs beside the same live memory.
    let mut gauge = Gauge::start();
    let runner = phase(
        rounds,
        kind.slices(),
        &mut gauge,
        |slice, setups| {
            let (inputs, bank) = set_up(args, &mut tracer, setups)?;
            let t0 = Instant::now();
            let cells = workload::runner_slice(&inputs, &bank, slice)?;
            Ok((cells, t0.elapsed().as_secs_f64()))
        },
        RunnerCells::join,
    )?;
    // Read before the cross-checks below build inputs and reports of their own.
    let peak_rss_mb = report::peak_rss_mb();
    // The inputs the checks and the layer replay use: one more set-up, untimed.
    let (inputs, bank) = setup(args, &mut Tracer::new(false))?;
    let per_round = inputs.requests_per_round();

    let mut checks = Checks::default();
    checks.require(runner.same, per_round, || "runner rounds differ".into());

    // The layer-by-layer replay: timed and traced with `--trace 1`, a single
    // untraced cross-check otherwise.
    let mut next_cell = 0u32;
    let mut cell_mechanisms: Vec<(u32, Mechanism)> = Vec::new();
    let layer_rounds = if args.trace { rounds } else { 1 };
    let layers = phase(
        layer_rounds,
        kind.slices(),
        &mut gauge,
        |slice, _| {
            let t0 = Instant::now();
            let cells = tracer.span("replay.slice", 0, |tr| {
                workload::layer_slice(&inputs, &bank, tr, &mut next_cell, slice)
            })?;
            cell_mechanisms.extend(cells.iter().map(|c| (c.id, c.mechanism)));
            Ok((cells, t0.elapsed().as_secs_f64()))
        },
        // Cell ids differ between rounds; compare the reports only.
        |parts| LayerRound(parts.concat()),
    )?;
    checks.require(layers.same, per_round, || "layer rounds differ".into());
    let (runner_cells, layer_cells) = (runner.first, layers.first.0);
    check_cells(&inputs, &runner_cells, &layer_cells, &mut checks);

    let again = Inputs::generate(kind, args.seed, args.smoke, |synth| synth());
    let other = Inputs::generate(kind, args.seed.wrapping_add(1), args.smoke, |synth| synth());
    checks.require(again.traces == inputs.traces, per_round, || {
        "the same seed generated different requests".into()
    });
    checks.require(other.traces != inputs.traces, per_round, || {
        "another seed generated the same requests".into()
    });
    checks.require(inputs.base.seed == args.seed, per_round, || {
        "the SSD configuration does not carry the seed".into()
    });

    let read_failures: u64 = layer_cells
        .iter()
        .flat_map(|c| c.report.devices())
        .map(|d| d.read_failures)
        .sum();
    checks.failed_per_round += read_failures;

    let sim = SimResults::derive(&runner_cells);
    if kind != Kind::EvalMatrix {
        let reads = sim.headline.as_ref().map_or(0, |h| h.reads);
        checks.require(reads >= MIN_HEADLINE_READS, per_round, || {
            format!("the PnAR2 QD 16 cell completed {reads} reads, fewer than {MIN_HEADLINE_READS}")
        });
    }

    let host = HostTimes {
        setup_s: runner.setup_s,
        runner: runner.timings,
        layers: layers.timings,
        probes: gauge.probes().to_vec(),
    };
    let replays = (host.runner.rounds() + host.layers.rounds()) as u64;
    let attempted = per_round * replays;
    let failed = (checks.failed_per_round * replays).min(attempted);
    let correct = checks.messages.is_empty() && read_failures == 0;

    let title = format!(
        "# perfbench {} seed={} seconds={} trace={} | {} rounds of {} cells and {} requests, serial engine",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rounds,
        layer_cells.len(),
        per_round
    );
    let metrics = if args.trace {
        let per_layer = report::per_layer(&inputs, &tracer, &layer_cells, &cell_mechanisms, &host);
        report::print_table(kind, &title, &per_layer);
        let path = PathBuf::from("perfbench/out").join(format!(
            "spans-{}-seed{}.jsonl",
            kind.name(),
            args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.count_all(),
                path.display()
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
        per_layer
    } else {
        let e2e = report::end_to_end(&inputs, &host, &sim, peak_rss_mb);
        let mut table = e2e.clone();
        table.extend(report::workload_specific(
            &host,
            &sim,
            attempted,
            failed,
            read_failures,
        ));
        report::print_table(kind, &title, &table);
        e2e
    };
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# runner rounds, raw (s): {}", list(&host.runner.round_s));
    let label = if args.trace {
        "traced layer"
    } else {
        "untimed cross-check"
    };
    println!("# {label} rounds, raw (s): {}", list(&host.layers.round_s));
    println!("# set-ups, scaled (s): {}", list(&host.setup_s));
    println!("# probes (s): {}", list(&host.probes));
    for m in &checks.messages {
        println!("# check failed: {m}");
    }
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    Ok(())
}

/// One layer round's cells, compared across rounds by report only.
struct LayerRound(Vec<LayerCell>);

impl PartialEq for LayerRound {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| a.report == b.report)
    }
}

/// Per-cell checks pairing each runner cell with the layer cell at the same
/// position: read count, completion, and the simulated results both paths
/// report (events, read latency distribution, mean response), which also
/// pins the layer replay's per-cell configuration to the runner's.
fn check_cells(inputs: &Inputs, runner: &RunnerCells, layers: &[LayerCell], checks: &mut Checks) {
    let reads_of = |ti: usize| {
        inputs.traces[ti]
            .0
            .requests
            .iter()
            .filter(|r| r.op == IoOp::Read)
            .count() as u64
    };
    // (label, runner read summary, completions if known, mean response, events)
    let runner_cells: Vec<_> = match runner {
        RunnerCells::Matrix(cells) => cells
            .iter()
            .map(|c| {
                (
                    format!(
                        "{} ({}, {} mo) {}",
                        c.workload, c.point.pec, c.point.retention_months, c.mechanism
                    ),
                    c.read_latency,
                    None,
                    c.avg_response_us,
                    c.events,
                )
            })
            .collect(),
        RunnerCells::Sweep(cells) => cells
            .iter()
            .map(|c| {
                (
                    format!("{} QD {} {}", c.workload, c.queue_depth, c.mechanism),
                    c.reads,
                    Some(c.reads.count + c.writes.count),
                    c.avg_response_us,
                    c.events,
                )
            })
            .collect(),
    };
    checks.require(
        runner_cells.len() == layers.len(),
        inputs.requests_per_round(),
        || {
            format!(
                "{} runner cells vs {} layer cells",
                runner_cells.len(),
                layers.len()
            )
        },
    );
    for ((label, reads, completed, avg_response_us, events), layer) in
        runner_cells.iter().zip(layers)
    {
        let trace = &inputs.traces[layer.trace].0;
        let requests = trace.len() as u64;
        let expected_reads = reads_of(layer.trace);
        checks.require(reads.count == expected_reads, requests, || {
            format!(
                "{label}: {} reads completed, trace has {expected_reads}",
                reads.count
            )
        });
        checks.require(completed.is_none_or(|c| c == requests), requests, || {
            format!("{label}: {completed:?} of {requests} requests completed")
        });
        let devices_done = layer
            .report
            .devices()
            .iter()
            .zip(&layer.device_requests)
            .all(|(d, &n)| d.requests_completed == n);
        checks.require(devices_done, requests, || {
            format!("{label}: a device left requests incomplete")
        });
        checks.require(*events == layer.report.events(), requests, || {
            format!(
                "{label}: runner {events} events, layer replay {}",
                layer.report.events()
            )
        });
        let same_results = *reads == layer.report.read_latency()
            && avg_response_us.to_bits() == layer.report.avg_response_us().to_bits();
        checks.require(same_results, requests, || {
            format!("{label}: the layer replay's latencies differ from the runner's")
        });
    }
    if let RunnerCells::Matrix(cells) = runner {
        let grid_mean = |m: Mechanism| {
            let v: Vec<f64> = cells
                .iter()
                .filter(|c| c.mechanism == m.name())
                .map(|c| c.normalized)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let [base, pr2, ar2, pnar2, norr] = Mechanism::FIG14.map(grid_mean);
        checks.require(
            norr < pnar2 && pnar2 < pr2.min(ar2) && pr2.min(ar2) < base,
            inputs.requests_per_round(),
            || format!("Fig. 14 order broken: NoRR {norr:.4}, PnAR2 {pnar2:.4}, PR2 {pr2:.4}, AR2 {ar2:.4}, Baseline {base:.4}"),
        );
    }
}
