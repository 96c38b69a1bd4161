//! `repro` — regenerate every table and figure of the ASPLOS'21 read-retry
//! paper from this repository's models and simulator.
//!
//! `repro --help` lists the commands and flags. Both are declared once, in
//! [`COMMANDS`] and [`FLAGS`]: parsing, dispatch, the check that a command
//! reads every flag it is given, and the help all come from those tables.

mod commands;
mod render;

use commands::{Grid, Options};
use rr_sim::array::{FailurePlan, PlacementPolicy};
use rr_sim::config::ArbPolicy;
use rr_sim::gc::GcPolicy;
use rr_util::time::SimTime;
use std::process::ExitCode;
use std::str::FromStr;
use Axis::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(Stop::Help) => {
            println!("{}", help());
            return ExitCode::SUCCESS;
        }
        Err(Stop::Usage(message)) => {
            if let Some(message) = message {
                eprintln!("{message}");
            }
            eprintln!("{}", help());
            return ExitCode::FAILURE;
        }
        Err(Stop::Invalid(message)) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if (command.run)(&opts) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Why `repro` stops before running a command.
enum Stop {
    /// `--help`: print the help on stdout and exit 0.
    Help,
    /// A malformed command line: the message (none when no command was
    /// given), then the help, on stderr; exit 1.
    Usage(Option<String>),
    /// A rejected flag value or flag combination: the message; exit 1.
    Invalid(String),
}

/// One `repro` command.
struct Command {
    name: &'static str,
    /// The axes of the flags it reads; a flag of any other axis is rejected.
    axes: &'static [Axis],
    /// Runs the command; `false` exits 1.
    run: fn(&Options) -> bool,
    /// Whether `all` runs it.
    in_all: bool,
}

/// Every command, in help order (which is also the order `all` runs its
/// steps in).
const COMMANDS: &[Command] = &[
    cmd("table1", &[], commands::table1, true),
    cmd("table2", &[], commands::table2, true),
    cmd("fig4b", &[], commands::fig4b, true),
    cmd("fig5", &[], commands::fig5, true),
    cmd("fig7", &[], commands::fig7, true),
    cmd("fig8", &[], commands::fig8, true),
    cmd("fig9", &[], commands::fig9, true),
    cmd("fig10", &[], commands::fig10, true),
    cmd("fig11", &[], commands::fig11, true),
    cmd("rpt", &[], commands::rpt, true),
    cmd("fig14", &[Array, Redundancy], commands::fig14, true),
    cmd("fig15", &[], commands::fig15, true),
    cmd(
        "sweep-qd",
        &[QueueDepths, FrontEnd, Gc, Array, Redundancy],
        |o| commands::sweep(o, Grid::Qd),
        true,
    ),
    cmd(
        "sweep-rate",
        &[Rates, FrontEnd, Gc, Array, Redundancy],
        |o| commands::sweep(o, Grid::Rate),
        true,
    ),
    cmd(
        "perf",
        &[QueueDepths, Rates, Gc, Array, Redundancy],
        commands::perf,
        false,
    ),
    cmd("extensions", &[], commands::extensions, true),
    cmd("ablation", &[], commands::ablation, true),
    cmd(
        "export",
        &[QueueDepths, Rates, FrontEnd, Gc, Array, Redundancy, Csv],
        commands::export,
        false,
    ),
    cmd("serve", &[FrontEnd, Gc, Array], commands::serve, false),
    // `all` runs both sweeps, so it reads their load lists and front end.
    cmd("all", &[QueueDepths, Rates, FrontEnd], all, false),
];

const fn cmd(
    name: &'static str,
    axes: &'static [Axis],
    run: fn(&Options) -> bool,
    in_all: bool,
) -> Command {
    Command {
        name,
        axes,
        run,
        in_all,
    }
}

/// `repro all`: runs every step [`COMMANDS`] marks, then fails if any step
/// failed.
fn all(opts: &Options) -> bool {
    let mut ok = true;
    for step in COMMANDS.iter().filter(|c| c.in_all) {
        ok &= (step.run)(opts);
    }
    ok
}

/// The part of a run a flag shapes. A command reads a fixed set of axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    /// The QD-sweep load list.
    QueueDepths,
    /// The rate-sweep load list.
    Rates,
    /// The host front end: queues, arbitration, burst, admission window.
    FrontEnd,
    /// The GC policy and the GC-stress workload.
    Gc,
    /// The device count and placement.
    Array,
    /// Redundancy and device failure.
    Redundancy,
    /// `export`'s CSV directory.
    Csv,
}

/// One command-line flag.
struct Flag {
    /// Its spellings; help and value errors name the first. A two-character
    /// spelling of a flag that takes a value also takes it attached (`-j4`).
    names: &'static [&'static str],
    /// The axis it shapes; `None` for the global flags every command reads.
    axis: Option<Axis>,
    /// The value it takes, as help names it, and what a valid one is;
    /// `None` for a switch.
    value: Option<(&'static str, &'static str)>,
    /// Applies the flag to the command line being parsed, given its value
    /// (`""` for a switch); `None` when the value is not valid.
    set: fn(&mut Parsed, &str) -> Option<()>,
    /// Its help text. A flag without one shares the next flag's help line;
    /// the last, `--help`, is not listed.
    help: &'static str,
}

/// Every flag, in help order.
const FLAGS: &[Flag] = &[
    Flag {
        names: &["--quick", "-q"],
        axis: None,
        value: None,
        set: |p, _| switch(&mut p.opts.quick),
        help: "smaller populations / traces (fast smoke run)",
    },
    Flag {
        names: &["--seed"],
        axis: None,
        value: Some(("N", "an integer value")),
        set: |p, v| number(v).map(|s| p.opts.seed = s),
        help: "deterministic seed (default 0x5EED2021)",
    },
    Flag {
        names: &["--jobs", "-j"],
        axis: None,
        value: Some(("N", "an integer value >= 1")),
        set: |p, v| positive(v).map(|j| p.opts.jobs = j),
        help: "worker threads for the evaluation matrices and sweeps\n\
               (default 1; any N produces results identical to the serial run)",
    },
    Flag {
        names: &["--queue-depth", "--qd"],
        axis: Some(QueueDepths),
        value: Some(("L", "a comma-separated list of integers >= 1 (e.g. 1,4,16)")),
        set: |p, v| list(v, positive).map(|d| p.opts.queue_depths = d),
        help: "comma-separated closed-loop queue depths for sweep-qd\n\
               (default 1,4,16; alias --qd)",
    },
    Flag {
        names: &["--rate"],
        axis: Some(Rates),
        value: Some((
            "L",
            "a comma-separated list of positive multipliers (e.g. 0.5,1,2,4)",
        )),
        // Any finite positive rate is accepted; ReplayMode::try_open_loop_rate
        // clamps sub-ppm values to its 1 ppm fixed-point floor.
        set: |p, v| {
            list(v, |r| number(r).filter(|r: &f64| r.is_finite() && *r > 0.0))
                .map(|r| p.opts.rates = r)
        },
        help: "comma-separated arrival-rate multipliers for sweep-rate\n\
               (default 0.5,1,2,4)",
    },
    Flag {
        names: &["--queues"],
        axis: Some(FrontEnd),
        value: Some(("N", "an integer value >= 1")),
        set: |p, v| positive(v).map(|q| p.opts.front.queues = q),
        help: "host submission queues feeding the device in the sweeps\n\
               (default 1 = plain front end; trace striped request i -> queue i mod N)",
    },
    Flag {
        names: &["--arb"],
        axis: Some(FrontEnd),
        value: Some(("rr|wrr", "'rr' or 'wrr'")),
        set: |p, v| {
            let arbs = [
                ("rr", ArbPolicy::RoundRobin),
                ("wrr", ArbPolicy::WeightedRoundRobin),
            ];
            named(v, &arbs).map(|a| p.opts.front.arb = a)
        },
        help: "queue arbitration policy (default rr; wrr defaults to\n\
               descending weights N..1 unless --weights is given)",
    },
    Flag {
        names: &["--weights"],
        axis: Some(FrontEnd),
        value: Some(("L", "a comma-separated list of integers >= 1 (e.g. 3,1)")),
        set: |p, v| list(v, positive).map(|w| p.opts.front.weights = Some(w)),
        help: "comma-separated per-queue WRR weights (e.g. 3,1)",
    },
    Flag {
        names: &["--burst"],
        axis: Some(FrontEnd),
        value: Some(("N", "an integer value >= 1")),
        set: |p, v| positive(v).map(|b| p.opts.front.burst = b),
        help: "commands fetched per arbitration credit (default 1)",
    },
    Flag {
        names: &["--window"],
        axis: Some(FrontEnd),
        value: Some(("N", "an integer value >= 1")),
        set: |p, v| positive(v).map(|w| p.opts.front.window = Some(w)),
        help: "device admission window; default: the swept queue depth\n\
               for sweep-qd, unbounded for sweep-rate",
    },
    Flag {
        names: &["--gc-policy"],
        axis: Some(Gc),
        value: Some((
            "NAME",
            "a policy name (greedy, read-preempt, windowed-tokens, or queue-shield)",
        )),
        set: |p, v| path(v).map(|g| p.gc_policy = Some(g)),
        help: "GC policy for sweep-qd/sweep-rate/perf/export: greedy\n\
               (default, bit-identical to the pre-policy engine), read-preempt,\n\
               windowed-tokens, or queue-shield",
    },
    Flag {
        names: &["--gc-budget"],
        axis: Some(Gc),
        value: Some(("N", "a non-negative integer value")),
        set: |p, v| number(v).map(|b| p.gc_budget = Some(b)),
        help: "per-policy knob: preemptions per GC job (read-preempt,\n\
               default 4), tokens per 1 ms window (windowed-tokens, default 8),\n\
               or the shielded queue index (queue-shield, default 0)",
    },
    Flag {
        names: &["--gc-stress"],
        axis: Some(Gc),
        value: None,
        set: |p, _| switch(&mut p.opts.gc_stress),
        help: "run the sweeps on the GC-stress workload (shrunken\n\
               geometry, write-heavy hot range filling the usable space) so GC\n\
               contends with host traffic; with --queues 2 every read lands on\n\
               queue 0 and every write on queue 1",
    },
    Flag {
        names: &["--devices"],
        axis: Some(Array),
        value: Some(("N", "an integer value >= 1")),
        set: |p, v| positive(v).map(|d| p.opts.array.devices = d),
        help: "route each trace across an array of N full-footprint\n\
               replica devices (fig14/sweep-qd/sweep-rate/export/perf/serve;\n\
               default 1 = byte-identical to the single-device stack) and report\n\
               array-merged distributions plus per-device tails",
    },
    Flag {
        names: &["--placement"],
        axis: Some(Array),
        value: Some(("rr|hash|tier", "'rr', 'hash', or 'tier'")),
        set: |p, v| PlacementPolicy::parse(v).map(|pl| p.opts.array.placement = pl),
        help: "how requests pick a device with\n\
               --devices N: rr stripes round-robin (default), hash routes by\n\
               LPN hash, tier sends the hot low-LPN quarter to the first half\n\
               of the array and hashes the rest over the other half",
    },
    Flag {
        names: &["--redundancy"],
        axis: Some(Redundancy),
        value: Some((
            "none|replicate:R|ec:K:N",
            "'none', 'replicate:R' (R >= 2), or 'ec:K:N' (1 <= K < N)",
        )),
        set: |p, v| rr_sim::array::Redundancy::parse(v).map(|r| p.opts.array.redundancy = r),
        help: "fan each request out across\n\
               the array (fig14/sweep-qd/sweep-rate/export/perf, needs\n\
               --devices >= 2): replicated reads complete at the 1st of R\n\
               copies, EC reads at the K-th of their stripe fan-out; 'none'\n\
               (default) is byte-identical to the flag being absent",
    },
    Flag {
        names: &["--fail-device"],
        axis: Some(Redundancy),
        value: Some(("D", "a device index")),
        set: |p, v| number(v).map(|d| p.fail_device = Some(d)),
        help: "",
    },
    Flag {
        names: &["--fail-at-us"],
        axis: Some(Redundancy),
        value: Some(("T", "a trace time in microseconds")),
        set: |p, v| number(v).map(|t| p.fail_at_us = Some(t)),
        help: "kill device D at trace time T:\n\
               later requests route around it and deterministic rebuild reads\n\
               land on the survivors; a T beyond the trace horizon is\n\
               byte-identical to no failure",
    },
    Flag {
        names: &["--csv"],
        axis: Some(Csv),
        value: Some(("DIR", "an output directory")),
        set: |p, v| path(v).map(|d| p.opts.csv_dir = Some(d)),
        help: "for export: write figure + evaluation CSVs into DIR",
    },
    Flag {
        names: &["--help", "-h"],
        axis: None,
        value: None,
        set: |p, _| switch(&mut p.help),
        help: "",
    },
];

/// A switch: sets `flag`.
fn switch(flag: &mut bool) -> Option<()> {
    *flag = true;
    Some(())
}

/// An integer ≥ 1.
pub(crate) fn positive<T: FromStr + PartialOrd + From<u8>>(s: &str) -> Option<T> {
    number(s).filter(|v| *v >= T::from(1))
}

/// A plain number.
fn number<T: FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// A comma-separated list of `item`s, each trimmed.
fn list<T>(s: &str, item: fn(&str) -> Option<T>) -> Option<Vec<T>> {
    s.split(',').map(|d| item(d.trim())).collect()
}

/// A path, or a name checked once every flag is in: any value but a flag.
fn path(s: &str) -> Option<String> {
    (!s.starts_with('-')).then(|| s.to_string())
}

/// The value `names` gives to `s`.
fn named<T: Copy>(s: &str, names: &[(&str, T)]) -> Option<T> {
    names.iter().find(|(n, _)| *n == s).map(|&(_, v)| v)
}

/// A command line as its flags leave it, before the cross-flag checks.
#[derive(Default)]
struct Parsed {
    opts: Options,
    /// `--gc-policy` and `--gc-budget`, which `GcPolicy::parse` resolves
    /// together.
    gc_policy: Option<String>,
    gc_budget: Option<u32>,
    /// `--fail-device` and `--fail-at-us`, which come together.
    fail_device: Option<u32>,
    fail_at_us: Option<u64>,
    help: bool,
}

/// The flag `arg` spells, the spelling, and the value attached to a
/// two-character spelling (`-j4`).
fn lookup(arg: &str) -> Option<(&'static Flag, &'static str, Option<&str>)> {
    FLAGS.iter().find_map(|flag| {
        flag.names.iter().find_map(|&name| {
            if arg == name {
                Some((flag, name, None))
            } else if name.len() == 2 && flag.value.is_some() {
                arg.strip_prefix(name).map(|v| (flag, name, Some(v)))
            } else {
                None
            }
        })
    })
}

/// Parses the arguments after the program name into the command to run and
/// its options.
fn parse(args: &[String]) -> Result<(&'static Command, Options), Stop> {
    let mut p = Parsed::default();
    let mut command = None;
    let mut given = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some((flag, name, attached)) = lookup(arg) else {
            if command.is_none() && !arg.starts_with('-') {
                command = Some(arg);
                continue;
            }
            return Err(Stop::Usage(Some(format!("unknown argument: {arg}"))));
        };
        if let Some(axis) = flag.axis {
            given.push((arg, axis));
        }
        let value = match flag.value {
            None => Some(""),
            Some(_) => attached.or_else(|| args.next().map(String::as_str)),
        };
        if value.and_then(|v| (flag.set)(&mut p, v)).is_none() {
            let (meta, needs) = flag.value.expect("a switch takes any value");
            let name = match attached {
                Some(_) => format!("{name}{meta}"),
                None => flag.names[0].to_string(),
            };
            return Err(Stop::Invalid(format!("{name} requires {needs}")));
        }
        if p.help {
            return Err(Stop::Help);
        }
    }
    let Some(name) = command else {
        return Err(Stop::Usage(None));
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(Stop::Usage(Some(format!("unknown command: {name}"))));
    };
    // A flag the command would ignore is an error: it names the commands
    // that read its axis instead of printing results it never shaped.
    if let Some((flag, axis)) = given.into_iter().find(|(_, a)| !command.axes.contains(a)) {
        let accepting: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| c.axes.contains(&axis))
            .map(|c| c.name)
            .collect();
        return Err(Stop::Invalid(format!(
            "{flag} applies to {} only",
            accepting.join(", ")
        )));
    }
    p.finish()
        .map(|opts| (command, opts))
        .map_err(Stop::Invalid)
}

impl Parsed {
    /// The options, once the checks that span several flags pass.
    fn finish(self) -> Result<Options, String> {
        let mut opts = self.opts;
        let front = &opts.front;
        if let Some(w) = &front.weights {
            if w.len() != front.queues as usize {
                return Err(format!(
                    "--weights expects one weight per queue ({} queues, {} weights)",
                    front.queues,
                    w.len()
                ));
            }
            // Round-robin ignores weights; accepting them would label the
            // per-queue tables with weights that never took effect.
            if front.arb == ArbPolicy::RoundRobin {
                return Err("--weights requires --arb wrr (round-robin ignores weights)".into());
            }
        }
        if self.gc_budget.is_some() && self.gc_policy.is_none() {
            return Err(
                "--gc-budget requires --gc-policy read-preempt|windowed-tokens|queue-shield".into(),
            );
        }
        let name = self.gc_policy.as_deref().unwrap_or("greedy");
        opts.gc_policy =
            GcPolicy::parse(name, self.gc_budget).map_err(|e| format!("--gc-policy: {e}"))?;
        let (devices, redundancy) = (opts.array.devices, opts.array.redundancy);
        if redundancy.is_redundant() {
            let span = match redundancy {
                rr_sim::array::Redundancy::Replicate { r } => r,
                rr_sim::array::Redundancy::Ec { n, .. } => n,
                rr_sim::array::Redundancy::None => 1,
            };
            if devices < 2 {
                return Err(format!(
                    "--redundancy {} requires --devices >= 2",
                    redundancy.name()
                ));
            }
            if span > devices {
                return Err(format!(
                    "--redundancy {} spans {span} devices but the array has only {devices}",
                    redundancy.name()
                ));
            }
        }
        if self.fail_device.is_some() != self.fail_at_us.is_some() {
            return Err("--fail-device and --fail-at-us must be given together".into());
        }
        if let Some(d) = self.fail_device {
            if devices < 2 {
                return Err("--fail-device requires --devices >= 2 (survivors must exist)".into());
            }
            if d >= devices {
                return Err(format!(
                    "--fail-device {d} is out of range for {devices} devices"
                ));
            }
        }
        opts.array.failure = self
            .fail_device
            .zip(self.fail_at_us)
            .map(|(device, t)| FailurePlan {
                device,
                at: SimTime::from_us(t),
            });
        Ok(opts)
    }
}

/// Indent of a continued help line.
const CONTINUED: &str = "\n           ";

/// The help: the commands and flags as their tables declare them.
fn help() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let lines: Vec<String> = names.chunks(12).map(|c| c.join(" ")).collect();
    let mut help = format!(
        "repro — regenerate the ASPLOS'21 read-retry paper's tables and figures\n\n\
         usage: repro <command> [--quick] [--seed N] [--jobs N] [--queue-depth L]\n\n\
         commands: {}\n\n",
        lines.join(CONTINUED)
    );
    let mut shared = String::new();
    for flag in FLAGS {
        let head = match flag.value {
            Some((meta, _)) => format!("{shared}{} {meta}", flag.names[0]),
            None => format!("{shared}{}", flag.names[0]),
        };
        if flag.help.is_empty() {
            shared = head + " ";
            continue;
        }
        shared.clear();
        let text = flag.help.replace('\n', CONTINUED);
        help += &format!("{head:<8}  {text}\n");
    }
    format!(
        "{help}\n\
         a flag a command does not read exits 1 and names the commands that read it\n\
         \n\
         perf regression gate: fails when simulated requests/sec falls below\n\
         0.7x the median of the last 10 archived runs with the same run spec\n\
         (every flag above that shapes the run); engages once 3 such runs\n\
         exist — see README 'Perf regression gate'"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Options {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let Ok((_, opts)) = parse(&args) else {
            panic!("repro {args:?} does not parse");
        };
        opts
    }

    #[test]
    fn no_spelling_is_declared_twice() {
        let mut spellings: Vec<&str> = FLAGS
            .iter()
            .flat_map(|f| f.names.iter().copied())
            .chain(COMMANDS.iter().map(|c| c.name))
            .collect();
        let declared = spellings.len();
        spellings.sort_unstable();
        spellings.dedup();
        assert_eq!(spellings.len(), declared);
    }

    #[test]
    fn every_flag_axis_is_read_by_a_command() {
        for flag in FLAGS {
            if let Some(axis) = flag.axis {
                let read = COMMANDS.iter().any(|c| c.axes.contains(&axis));
                assert!(read, "no command reads {}", flag.names[0]);
            }
        }
    }

    #[test]
    fn all_runs_the_paper_sequence() {
        let steps: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| c.in_all)
            .map(|c| c.name)
            .collect();
        let paper = "table1 table2 fig4b fig5 fig7 fig8 fig9 fig10 fig11 rpt fig14 fig15 \
                     sweep-qd sweep-rate extensions ablation";
        assert_eq!(steps, paper.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn short_forms_and_aliases_parse_like_the_long_flags() {
        let jobs = parsed(&["fig14", "-j4"]);
        assert_eq!(jobs.jobs, 4);
        assert_eq!(jobs, parsed(&["fig14", "--jobs", "4"]));
        let depths = parsed(&["sweep-qd", "--qd", "2,8"]);
        assert_eq!(depths.queue_depths, [2, 8]);
        assert_eq!(depths, parsed(&["sweep-qd", "--queue-depth", "2,8"]));
    }
}
