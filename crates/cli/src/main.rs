//! `repro` — regenerate every table and figure of the ASPLOS'21 read-retry
//! paper from this repository's models and simulator.
//!
//! ```text
//! repro <command> [--quick] [--seed N] [--jobs N]
//!
//! commands:
//!   table1   NAND timing parameters
//!   table2   workload read/cold ratios (synthesized traces vs. paper)
//!   fig4b    RBER collapse over the last retry steps
//!   fig5     retry-step probability map vs. (P/E cycles, retention)
//!   fig7     M_ERR / ECC-capability margin in the final retry step
//!   fig8     ΔM_ERR vs. individual timing-parameter reduction
//!   fig9     M_ERR vs. joint (ΔtPRE, ΔtDISCH) reduction
//!   fig10    temperature effect on tPRE reduction
//!   fig11    minimum safe tPRE (the RPT source data)
//!   rpt      the derived Read-timing Parameter Table
//!   fig14    response time: Baseline / PR2 / AR2 / PnAR2 / NoRR
//!   fig15    response time: PSO vs. PSO+PnAR2
//!   matrix   the full Fig. 14 evaluation matrix (wall-clock on stderr)
//!   sweep-qd closed-loop tail latency vs. queue depth (--queue-depth list;
//!            --queues N --arb rr|wrr adds the NVMe multi-queue front end;
//!            --gc-policy NAME [--gc-budget N] picks the GC policy)
//!   sweep-rate  open-loop tail latency vs. offered load (--rate list;
//!            same --queues/--arb/--weights/--burst/--window and
//!            --gc-policy/--gc-budget/--gc-stress knobs as sweep-qd)
//!   perf     simulator events/sec over matrix + sweeps → BENCH_sim.json,
//!            gated at 0.7× the trailing-10 median of comparable runs
//!            (--plot renders the archived trajectory instead)
//!   snapshot precondition the current flag set's device images once and
//!            write them as a warm-start bank (--out img.rrimg); fig14,
//!            sweep-qd, sweep-rate, export, and serve replay from it via
//!            --from-image img.rrimg with byte-identical stdout
//!   serve    load an image bank once, then answer '<workload> <mechanism>
//!            <qd> [devices]' replay queries from stdin in milliseconds each
//!   extensions  the §8 future-work mechanisms (Eager-PnAR2, AR2-Regular)
//!   ablation    design-choice ablations (fixed vs adaptive tPRE, PSO guard)
//!   all      everything above
//! ```

mod commands;
mod render;

use commands::{Grid, Options};
use rr_core::experiment::{ArraySetup, QueueSetup};
use rr_sim::array::FailurePlan;
use rr_util::time::SimTime;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut quick = false;
    let mut seed = 0x5EED_2021u64;
    let mut jobs = 1usize;
    let mut queue_depths = vec![1u32, 4, 16];
    let mut rates = vec![0.5f64, 1.0, 2.0, 4.0];
    let mut queues = 1u32;
    let mut arb = rr_sim::config::ArbPolicy::RoundRobin;
    let mut burst = 1u32;
    let mut weights: Option<Vec<u32>> = None;
    let mut window: Option<u32> = None;
    let mut gc_policy_name: Option<String> = None;
    let mut gc_budget: Option<u32> = None;
    let mut gc_stress = false;
    let mut plot = false;
    let mut devices = 1u32;
    let mut placement = rr_sim::array::PlacementPolicy::RoundRobin;
    let mut redundancy = rr_sim::array::Redundancy::None;
    let mut fail_device: Option<u32> = None;
    let mut fail_at_us: Option<u64> = None;
    let mut csv_dir: Option<String> = None;
    let mut from_image: Option<String> = None;
    let mut out: Option<String> = None;
    let mut given: Vec<(&str, Axis)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(axis) = axis_of(&args[i]) {
            given.push((&args[i], axis));
        }
        match args[i].as_str() {
            "--quick" | "-q" => quick = true,
            "--seed" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--seed requires an integer value");
                    return ExitCode::FAILURE;
                };
                seed = v;
            }
            "--jobs" | "-j" => {
                i += 1;
                let Some(v) = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&v| v >= 1)
                else {
                    eprintln!("--jobs requires an integer value >= 1");
                    return ExitCode::FAILURE;
                };
                jobs = v;
            }
            "--queue-depth" | "--qd" => {
                i += 1;
                let parsed: Option<Option<Vec<u32>>> = args.get(i).map(|s| {
                    s.split(',')
                        .map(|d| d.trim().parse::<u32>().ok().filter(|&v| v >= 1))
                        .collect::<Option<Vec<u32>>>()
                });
                let Some(Some(v)) = parsed else {
                    eprintln!("--queue-depth requires a comma-separated list of integers >= 1 (e.g. 1,4,16)");
                    return ExitCode::FAILURE;
                };
                if v.is_empty() {
                    eprintln!("--queue-depth requires at least one depth");
                    return ExitCode::FAILURE;
                }
                queue_depths = v;
            }
            "--rate" => {
                i += 1;
                let parsed: Option<Option<Vec<f64>>> = args.get(i).map(|s| {
                    s.split(',')
                        .map(|d| {
                            // Any finite positive rate is accepted;
                            // ReplayMode::try_open_loop_rate clamps sub-ppm
                            // values to its 1 ppm fixed-point floor.
                            d.trim()
                                .parse::<f64>()
                                .ok()
                                .filter(|v| v.is_finite() && *v > 0.0)
                        })
                        .collect::<Option<Vec<f64>>>()
                });
                let Some(Some(v)) = parsed else {
                    eprintln!("--rate requires a comma-separated list of positive multipliers (e.g. 0.5,1,2,4)");
                    return ExitCode::FAILURE;
                };
                if v.is_empty() {
                    eprintln!("--rate requires at least one multiplier");
                    return ExitCode::FAILURE;
                }
                rates = v;
            }
            "--queues" => {
                i += 1;
                let Some(v) = args
                    .get(i)
                    .and_then(|s| s.parse::<u32>().ok())
                    .filter(|&v| v >= 1)
                else {
                    eprintln!("--queues requires an integer value >= 1");
                    return ExitCode::FAILURE;
                };
                queues = v;
            }
            "--arb" => {
                i += 1;
                arb = match args.get(i).map(String::as_str) {
                    Some("rr") => rr_sim::config::ArbPolicy::RoundRobin,
                    Some("wrr") => rr_sim::config::ArbPolicy::WeightedRoundRobin,
                    _ => {
                        eprintln!("--arb requires 'rr' or 'wrr'");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--burst" => {
                i += 1;
                let Some(v) = args
                    .get(i)
                    .and_then(|s| s.parse::<u32>().ok())
                    .filter(|&v| v >= 1)
                else {
                    eprintln!("--burst requires an integer value >= 1");
                    return ExitCode::FAILURE;
                };
                burst = v;
            }
            "--weights" => {
                i += 1;
                let parsed: Option<Option<Vec<u32>>> = args.get(i).map(|s| {
                    s.split(',')
                        .map(|d| d.trim().parse::<u32>().ok().filter(|&v| v >= 1))
                        .collect::<Option<Vec<u32>>>()
                });
                let Some(Some(v)) = parsed else {
                    eprintln!(
                        "--weights requires a comma-separated list of integers >= 1 (e.g. 3,1)"
                    );
                    return ExitCode::FAILURE;
                };
                if v.is_empty() {
                    eprintln!("--weights requires at least one weight");
                    return ExitCode::FAILURE;
                }
                weights = Some(v);
            }
            "--window" => {
                i += 1;
                let Some(v) = args
                    .get(i)
                    .and_then(|s| s.parse::<u32>().ok())
                    .filter(|&v| v >= 1)
                else {
                    eprintln!("--window requires an integer value >= 1");
                    return ExitCode::FAILURE;
                };
                window = Some(v);
            }
            "--gc-policy" => {
                i += 1;
                let Some(v) = args.get(i).filter(|s| !s.starts_with('-')) else {
                    eprintln!(
                        "--gc-policy requires a policy name \
                         (greedy, read-preempt, windowed-tokens, or queue-shield)"
                    );
                    return ExitCode::FAILURE;
                };
                gc_policy_name = Some(v.clone());
            }
            "--gc-budget" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<u32>().ok()) else {
                    eprintln!("--gc-budget requires a non-negative integer value");
                    return ExitCode::FAILURE;
                };
                gc_budget = Some(v);
            }
            "--plot" => plot = true,
            "--devices" => {
                i += 1;
                let Some(v) = args
                    .get(i)
                    .and_then(|s| s.parse::<u32>().ok())
                    .filter(|&v| v >= 1)
                else {
                    eprintln!("--devices requires an integer value >= 1");
                    return ExitCode::FAILURE;
                };
                devices = v;
            }
            "--placement" => {
                i += 1;
                let parsed = args
                    .get(i)
                    .and_then(|s| rr_sim::array::PlacementPolicy::parse(s));
                let Some(v) = parsed else {
                    eprintln!("--placement requires 'rr', 'hash', or 'tier'");
                    return ExitCode::FAILURE;
                };
                placement = v;
            }
            "--redundancy" => {
                i += 1;
                let parsed = args
                    .get(i)
                    .and_then(|s| rr_sim::array::Redundancy::parse(s));
                let Some(v) = parsed else {
                    eprintln!(
                        "--redundancy requires 'none', 'replicate:R' (R >= 2), or \
                         'ec:K:N' (1 <= K < N)"
                    );
                    return ExitCode::FAILURE;
                };
                redundancy = v;
            }
            "--fail-device" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<u32>().ok()) else {
                    eprintln!("--fail-device requires a device index");
                    return ExitCode::FAILURE;
                };
                fail_device = Some(v);
            }
            "--fail-at-us" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("--fail-at-us requires a trace time in microseconds");
                    return ExitCode::FAILURE;
                };
                fail_at_us = Some(v);
            }
            "--gc-stress" => gc_stress = true,
            "--csv" => {
                i += 1;
                let Some(v) = args.get(i).filter(|s| !s.starts_with('-')) else {
                    eprintln!("--csv requires an output directory");
                    return ExitCode::FAILURE;
                };
                csv_dir = Some(v.clone());
            }
            "--from-image" => {
                i += 1;
                let Some(v) = args.get(i).filter(|s| !s.starts_with('-')) else {
                    eprintln!("--from-image requires an image-bank file path");
                    return ExitCode::FAILURE;
                };
                from_image = Some(v.clone());
            }
            "--out" => {
                i += 1;
                let Some(v) = args.get(i).filter(|s| !s.starts_with('-')) else {
                    eprintln!("--out requires an output file path");
                    return ExitCode::FAILURE;
                };
                out = Some(v.clone());
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            // Attached short form: -j4 (as in `repro matrix -j1`).
            j if j.len() > 2 && j.starts_with("-j") && !j.starts_with("--") => {
                let Ok(v) = j[2..].parse::<usize>() else {
                    eprintln!("-jN requires an integer value >= 1");
                    return ExitCode::FAILURE;
                };
                if v < 1 {
                    eprintln!("-jN requires an integer value >= 1");
                    return ExitCode::FAILURE;
                }
                jobs = v;
            }
            c if command.is_none() && !c.starts_with('-') => command = Some(c.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                print_help();
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(command) = command else {
        print_help();
        return ExitCode::FAILURE;
    };
    if !COMMANDS.contains(&command.as_str()) {
        eprintln!("unknown command: {command}");
        print_help();
        return ExitCode::FAILURE;
    }
    // A flag the command would ignore is an error: it names the commands
    // that read its axis instead of printing results it never shaped.
    for (flag, axis) in given {
        if !axes(&command).contains(&axis) {
            let accepting: Vec<&str> = COMMANDS
                .into_iter()
                .filter(|c| axes(c).contains(&axis))
                .collect();
            eprintln!("{flag} applies to {} only", accepting.join(", "));
            return ExitCode::FAILURE;
        }
    }
    if let Some(w) = &weights {
        if w.len() != queues as usize {
            eprintln!(
                "--weights expects one weight per queue ({} queues, {} weights)",
                queues,
                w.len()
            );
            return ExitCode::FAILURE;
        }
        // Round-robin ignores weights; accepting them would label the
        // per-queue tables with weights that never took effect.
        if arb == rr_sim::config::ArbPolicy::RoundRobin {
            eprintln!("--weights requires --arb wrr (round-robin ignores weights)");
            return ExitCode::FAILURE;
        }
    }
    if gc_budget.is_some() && gc_policy_name.is_none() {
        eprintln!("--gc-budget requires --gc-policy read-preempt|windowed-tokens|queue-shield");
        return ExitCode::FAILURE;
    }
    let gc_policy =
        match rr_sim::gc::GcPolicy::parse(gc_policy_name.as_deref().unwrap_or("greedy"), gc_budget)
        {
            Ok(p) => p,
            Err(e) => {
                eprintln!("--gc-policy: {e}");
                return ExitCode::FAILURE;
            }
        };
    if redundancy.is_redundant() {
        let span = match redundancy {
            rr_sim::array::Redundancy::Replicate { r } => r,
            rr_sim::array::Redundancy::Ec { n, .. } => n,
            rr_sim::array::Redundancy::None => 1,
        };
        if devices < 2 {
            eprintln!("--redundancy {} requires --devices >= 2", redundancy.name());
            return ExitCode::FAILURE;
        }
        if span > devices {
            eprintln!(
                "--redundancy {} spans {span} devices but the array has only {devices}",
                redundancy.name()
            );
            return ExitCode::FAILURE;
        }
    }
    if fail_device.is_some() != fail_at_us.is_some() {
        eprintln!("--fail-device and --fail-at-us must be given together");
        return ExitCode::FAILURE;
    }
    if let Some(d) = fail_device {
        if devices < 2 {
            eprintln!("--fail-device requires --devices >= 2 (survivors must exist)");
            return ExitCode::FAILURE;
        }
        if d >= devices {
            eprintln!("--fail-device {d} is out of range for {devices} devices");
            return ExitCode::FAILURE;
        }
    }
    if command == "snapshot" && out.is_none() {
        eprintln!("snapshot requires --out FILE (the image bank to write)");
        return ExitCode::FAILURE;
    }
    let opts = Options {
        quick,
        seed,
        jobs,
        queue_depths,
        rates,
        front: QueueSetup {
            queues,
            arb,
            burst,
            weights,
            window,
        },
        gc_policy,
        gc_stress,
        plot,
        array: ArraySetup {
            devices,
            placement,
            redundancy,
            failure: fail_device.zip(fail_at_us).map(|(device, t)| FailurePlan {
                device,
                at: SimTime::from_us(t),
            }),
        },
        csv_dir,
        from_image,
        out,
    };
    let run = |name: &str| -> bool {
        match name {
            "table1" => commands::table1(),
            "table2" => commands::table2(&opts),
            "fig4b" => commands::fig4b(&opts),
            "fig5" => commands::fig5(&opts),
            "fig7" => commands::fig7(&opts),
            "fig8" => commands::fig8(&opts),
            "fig9" => commands::fig9(&opts),
            "fig10" => commands::fig10(&opts),
            "fig11" => commands::fig11(&opts),
            "rpt" => commands::rpt(&opts),
            "ablation" => commands::ablation(&opts),
            "extensions" => return commands::extensions(&opts),
            "export" => return commands::export(&opts),
            "fig14" => return commands::fig14(&opts),
            "fig15" => return commands::fig15(&opts),
            "matrix" => return commands::matrix(&opts),
            "sweep-qd" => return commands::sweep(&opts, Grid::Qd),
            "sweep-rate" => return commands::sweep(&opts, Grid::Rate),
            "snapshot" => return commands::snapshot(&opts),
            "serve" => return commands::serve(&opts),
            "perf" if opts.plot => return commands::perf_plot(&opts),
            "perf" => return commands::perf(&opts),
            _ => unreachable!("main checks the command name"),
        }
        true
    };
    if command == "all" {
        for name in [
            "table1",
            "table2",
            "fig4b",
            "fig5",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "rpt",
            "fig14",
            "fig15",
            "sweep-qd",
            "sweep-rate",
            "extensions",
            "ablation",
        ] {
            run(name);
        }
        ExitCode::SUCCESS
    } else if run(&command) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every command, in help order.
const COMMANDS: [&str; 22] = [
    "table1",
    "table2",
    "fig4b",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "rpt",
    "fig14",
    "fig15",
    "matrix",
    "sweep-qd",
    "sweep-rate",
    "perf",
    "extensions",
    "ablation",
    "export",
    "snapshot",
    "serve",
    "all",
];

/// The part of a run a flag shapes. A command reads a fixed set of axes
/// ([`axes`]); a flag of any other axis is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    /// `--queue-depth`: the QD-sweep load list.
    QueueDepths,
    /// `--rate`: the rate-sweep load list.
    Rates,
    /// `--queues`, `--arb`, `--weights`, `--burst`, `--window`.
    FrontEnd,
    /// `--gc-policy`, `--gc-budget`, `--gc-stress`.
    Gc,
    /// `--devices`, `--placement`.
    Array,
    /// `--redundancy`, `--fail-device`, `--fail-at-us`.
    Redundancy,
    /// `--from-image`.
    Image,
    /// `--csv`.
    Csv,
    /// `--plot`.
    Plot,
    /// `--out`.
    Out,
}

/// The axis `flag` sets; `None` for the global flags (`--quick`, `--seed`,
/// `--jobs`, `--help`) and for non-flags.
fn axis_of(flag: &str) -> Option<Axis> {
    Some(match flag {
        "--queue-depth" | "--qd" => Axis::QueueDepths,
        "--rate" => Axis::Rates,
        "--queues" | "--arb" | "--weights" | "--burst" | "--window" => Axis::FrontEnd,
        "--gc-policy" | "--gc-budget" | "--gc-stress" => Axis::Gc,
        "--devices" | "--placement" => Axis::Array,
        "--redundancy" | "--fail-device" | "--fail-at-us" => Axis::Redundancy,
        "--from-image" => Axis::Image,
        "--csv" => Axis::Csv,
        "--plot" => Axis::Plot,
        "--out" => Axis::Out,
        _ => return None,
    })
}

/// The axes `command` reads.
fn axes(command: &str) -> &'static [Axis] {
    use Axis::*;
    match command {
        "fig14" => &[Array, Redundancy, Image],
        "sweep-qd" => &[QueueDepths, FrontEnd, Gc, Array, Redundancy, Image],
        "sweep-rate" => &[Rates, FrontEnd, Gc, Array, Redundancy, Image],
        "perf" => &[QueueDepths, Rates, Array, Redundancy, Plot],
        "export" => &[
            QueueDepths,
            Rates,
            FrontEnd,
            Gc,
            Array,
            Redundancy,
            Image,
            Csv,
        ],
        "snapshot" => &[Gc, Out],
        "serve" => &[FrontEnd, Gc, Array, Image],
        // `all` runs both sweeps, so it reads their load lists and front
        // end; `--csv` stays accepted so existing `all` invocations run.
        "all" => &[QueueDepths, Rates, FrontEnd, Csv],
        _ => &[],
    }
}

fn print_help() {
    println!(
        "repro — regenerate the ASPLOS'21 read-retry paper's tables and figures\n\
         \n\
         usage: repro <command> [--quick] [--seed N] [--jobs N] [--queue-depth L]\n\
         \n\
         commands: table1 table2 fig4b fig5 fig7 fig8 fig9 fig10 fig11 rpt fig14 fig15\n           matrix sweep-qd sweep-rate perf extensions ablation export snapshot serve all\n\
         \n\
         --quick   smaller populations / traces (fast smoke run)\n\
         --seed N  deterministic seed (default 0x5EED2021)\n\
         --jobs N  worker threads for the evaluation matrices and sweeps\n           (default 1; any N produces results identical to the serial run)\n\
         --queue-depth L  comma-separated closed-loop queue depths for sweep-qd\n           (default 1,4,16; alias --qd)\n\
         --rate L  comma-separated arrival-rate multipliers for sweep-rate\n           (default 0.5,1,2,4)\n\
         --queues N  host submission queues feeding the device in the sweeps\n           (default 1 = plain front end; trace striped request i -> queue i mod N)\n\
         --arb rr|wrr  queue arbitration policy (default rr; wrr defaults to\n           descending weights N..1 unless --weights is given)\n\
         --weights L  comma-separated per-queue WRR weights (e.g. 3,1)\n\
         --burst N  commands fetched per arbitration credit (default 1)\n\
         --window N  device admission window; default: the swept queue depth\n           for sweep-qd, unbounded for sweep-rate\n\
         --gc-policy NAME  GC policy for sweep-qd/sweep-rate/export: greedy\n           (default, bit-identical to the pre-policy engine), read-preempt,\n           windowed-tokens, or queue-shield\n\
         --gc-budget N  per-policy knob: preemptions per GC job (read-preempt,\n           default 4), tokens per 1 ms window (windowed-tokens, default 8),\n           or the shielded queue index (queue-shield, default 0)\n\
         --gc-stress  run the sweeps on the GC-stress workload (shrunken\n           geometry, write-heavy hot range filling the usable space) so GC\n           contends with host traffic; with --queues 2 every read lands on\n           queue 0 and every write on queue 1\n\
         --plot    for perf: render the BENCH_history.jsonl events/sec\n           trajectory (sparkline + BENCH_trajectory.csv) instead of measuring\n\
         --devices N  route each trace across an array of N full-footprint\n           replica devices (fig14/sweep-qd/sweep-rate/export/perf/serve;\n           default 1 = byte-identical to the single-device stack) and report\n           array-merged distributions plus per-device tails\n\
         --placement rr|hash|tier  how requests pick a device with\n           --devices N: rr stripes round-robin (default), hash routes by\n           LPN hash, tier sends the hot low-LPN quarter to the first half\n           of the array and hashes the rest over the other half\n\
         --redundancy none|replicate:R|ec:K:N  fan each request out across\n           the array (fig14/sweep-qd/sweep-rate/export/perf, needs\n           --devices >= 2): replicated reads complete at the 1st of R\n           copies, EC reads at the K-th of their stripe fan-out; 'none'\n           (default) is byte-identical to the flag being absent\n\
         --fail-device D --fail-at-us T  kill device D at trace time T:\n           later requests route around it and deterministic rebuild reads\n           land on the survivors; a T beyond the trace horizon is\n           byte-identical to no failure\n\
         --csv DIR for export: write figure + evaluation CSVs into DIR\n\
         --out FILE  for snapshot: write the preconditioned device-image bank\n           (with --gc-stress: the stress image under the GC geometry;\n           otherwise every MSRC/YCSB evaluation footprint)\n\
         --from-image FILE  warm-start fig14/sweep-qd/sweep-rate/export/serve\n           from a snapshot bank instead of preconditioning — stdout is\n           byte-identical; stderr's 'precondition' phase collapses to the\n           file load\n\
         \n\
         a flag a command does not read exits 1 and names the commands that read it\n\
         \n\
         perf regression gate: fails below 0.7x the median of the last 10\n\
         archived runs with the same run spec (every flag above that shapes\n\
         the run); engages once 3 such runs exist — see README 'Perf\n\
         regression gate'"
    );
}
