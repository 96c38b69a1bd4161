//! `repro` contract checks beyond the goldens: a flag the command does not
//! read exits 1 and names the commands that read it, no flag value makes
//! `repro` panic, a `serve` query the server cannot answer gets an `err`
//! reply without ending the session, and `perf` reads the GC axis.

use proptest::prelude::*;
use std::io::Write;
use std::process::{Command, Output, Stdio};

fn repro(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait for repro")
}

fn assert_rejected(args: &[&str], message: &str) {
    let out = repro(args, "");
    assert_eq!(out.status.code(), Some(1), "repro {}", args.join(" "));
    assert!(out.stdout.is_empty(), "rejected before any output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{stderr}");
}

/// Every flag that takes a value, in each spelling the parser accepts.
/// `help_names_exactly_the_listed_flags` keeps it in step with `--help`.
const VALUE_FLAGS: [&str; 19] = [
    "--seed",
    "--jobs",
    "-j",
    "--queue-depth",
    "--qd",
    "--rate",
    "--queues",
    "--arb",
    "--burst",
    "--weights",
    "--window",
    "--gc-policy",
    "--gc-budget",
    "--devices",
    "--placement",
    "--redundancy",
    "--fail-device",
    "--fail-at-us",
    "--csv",
];

/// The flags that take no value.
const SWITCHES: [&str; 2] = ["--quick", "--gc-stress"];

/// `--help` is rendered from the flag table, so every long spelling it
/// names must be listed here as a value flag or a switch, and every listed
/// long spelling must appear in it: a flag added to the table but not to
/// `VALUE_FLAGS` would never be fed the edge values.
#[test]
fn help_names_exactly_the_listed_flags() {
    let out = repro(&["--help"], "");
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("help is UTF-8");
    let mut in_help: Vec<&str> = help
        .match_indices("--")
        .map(|(at, _)| {
            let rest = &help[at..];
            let end = 2 + rest[2..]
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(rest.len() - 2);
            &rest[..end]
        })
        .collect();
    in_help.sort_unstable();
    in_help.dedup();
    let mut listed: Vec<&str> = VALUE_FLAGS
        .iter()
        .chain(&SWITCHES)
        .copied()
        .filter(|f| f.starts_with("--"))
        .collect();
    listed.sort_unstable();
    assert_eq!(in_help, listed);
}

/// Values at the edges of every parser: empty, zero, negative, non-finite,
/// past `u32`/`u64`/`f64`, malformed lists, other flags' syntax, a flag.
const EDGE_VALUES: [&str; 13] = [
    "",
    "0",
    "-1",
    "NaN",
    "inf",
    "1e309",
    "4294967296",
    "18446744073709551616",
    ",",
    "1,,2",
    "replicate:1",
    "ec:3:2",
    "--quick",
];

/// `table1` exits before any run on a parse error, and otherwise either
/// rejects the flag's axis or prints a 2 ms table, so it probes the whole
/// parser cheaply.
fn assert_clean_exit(flags: &[(&str, &str)]) {
    let mut args = vec!["table1"];
    for (flag, value) in flags {
        args.extend([*flag, *value]);
    }
    let out = repro(&args, "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    match out.status.code() {
        Some(0) => {}
        Some(1) => assert!(
            !stderr.trim().is_empty(),
            "repro {:?} exited 1 without a message",
            args
        ),
        other => panic!("repro {args:?} exited with {other:?}:\n{stderr}"),
    }
}

#[test]
fn every_flag_value_exits_cleanly() {
    for flag in VALUE_FLAGS {
        for value in EDGE_VALUES {
            assert_clean_exit(&[(flag, value)]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Combinations of edge values never panic either: the cross-flag
    /// checks (weights per queue, redundancy span, failure plan) see them.
    #[test]
    fn flag_value_combinations_exit_cleanly(
        flags in prop::collection::vec(
            (prop::sample::select(VALUE_FLAGS.to_vec()), prop::sample::select(EDGE_VALUES.to_vec())),
            1..4,
        ),
    ) {
        assert_clean_exit(&flags);
    }
}

#[test]
fn fig14_rejects_the_front_end_flags_it_ignores() {
    assert_rejected(
        &["fig14", "--quick", "--queues", "2"],
        "--queues applies to sweep-qd, sweep-rate, export, serve, all only",
    );
}

#[test]
fn sweep_qd_rejects_the_rate_list() {
    assert_rejected(
        &["sweep-qd", "--quick", "--rate", "2"],
        "--rate applies to sweep-rate, perf, export, all only",
    );
}

#[test]
fn all_rejects_the_csv_directory_no_step_reads() {
    assert_rejected(&["all", "--csv", "out"], "--csv applies to export only");
}

/// A script still passing a removed flag or command (the device-image
/// file flags, `snapshot`, `matrix`) stops with an error instead of quietly
/// running something else. Like every usage error, it prints the help on
/// stderr and nothing on stdout.
#[test]
fn removed_image_file_flags_and_command_are_rejected() {
    for (args, message) in [
        (
            &["fig14", "--quick", "--from-image", "x.rrimg"][..],
            "unknown argument: --from-image",
        ),
        (&["snapshot", "--out", "x"][..], "unknown argument: --out"),
        (&["snapshot"][..], "unknown command: snapshot"),
        (&["fig14", "--bogus"][..], "unknown argument: --bogus"),
        (&["nosuch"][..], "unknown command: nosuch"),
        (&["matrix", "--quick"][..], "unknown command: matrix"),
    ] {
        assert_rejected(args, message);
    }
}

#[test]
fn serve_answers_err_for_an_unfeedable_width_and_keeps_serving() {
    let out = repro(
        &["serve", "--quick"],
        "mds_1 PnAR2 8 4294967295\nmds_1 PnAR2 8\nquit\n",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].starts_with("ready "), "{stdout}");
    assert_eq!(
        lines[1],
        "err 4294967295 devices exceed the 2000 requests of workload mds_1"
    );
    assert!(
        lines[2].starts_with("ok workload=mds_1 mechanism=PnAR2 qd=8 reads="),
        "{stdout}"
    );
}

/// `repro perf` reads the GC axis: `--gc-stress` moves its sweeps onto the
/// GC-stress workload, so their `BENCH_sim.json` rows count GC pages moved.
#[test]
fn perf_reads_gc_stress_and_its_sweeps_move_gc_pages() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf-gc-stress");
    std::fs::create_dir_all(&dir).expect("create the run directory");
    // No archived runs: the perf gate compares against earlier runs of the
    // same spec, and host speed is not what this test checks.
    let _ = std::fs::remove_file(dir.join("BENCH_history.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["perf", "--quick", "--gc-stress"])
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bench = std::fs::read_to_string(dir.join("BENCH_sim.json")).expect("perf writes its rows");
    let moved: Vec<u64> = bench
        .split("\"gc_pages_moved\": ")
        .skip(1)
        .map(|row| {
            row.split(',')
                .next()
                .and_then(|n| n.trim().parse().ok())
                .expect("a page count")
        })
        .collect();
    assert_eq!(moved.len(), 3, "one row per workload:\n{bench}");
    assert!(
        moved.iter().any(|&m| m > 0),
        "no row moved a page:\n{bench}"
    );
}
