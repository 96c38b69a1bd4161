//! `repro` contract checks beyond the goldens: a flag the command does not
//! read exits 1 and names the commands that read it, and a `serve` query the
//! server cannot answer gets an `err` reply without ending the session.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn repro(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
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
