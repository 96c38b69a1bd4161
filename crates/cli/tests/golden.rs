//! Golden stdout for the `repro` CLI.
//!
//! Every other byte-identity check in the workspace is relative (flag A
//! vs flag B, `--jobs 1` vs `--jobs 2`), so a change that shifts both
//! sides equally passes it. These tests pin absolute output: each one
//! runs the built `repro` binary and compares its stdout with a
//! checked-in file under `tests/golden/`. Wall-clock timings go to
//! stderr, so stdout is stable across reruns and `--jobs` values.
//!
//! After an intended output change, regenerate the files with
//! `BLESS=1 cargo test -p repro --test golden` and review the diff.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Lines of context printed around the first difference.
const CONTEXT: usize = 3;

fn golden(name: &str, args: &[&str], stdin: &str) {
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
    let out = child.wait_with_output().expect("wait for repro");
    assert!(
        out.status.success(),
        "repro {} exited with {}:\n{}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run with BLESS=1 to create it)",
            path.display()
        )
    });
    if got == want {
        return;
    }
    let got_lines: Vec<&str> = got.lines().collect();
    let want_lines: Vec<&str> = want.lines().collect();
    let first = got_lines
        .iter()
        .zip(&want_lines)
        .position(|(g, w)| g != w)
        .unwrap_or(got_lines.len().min(want_lines.len()));
    let from = first.saturating_sub(CONTEXT);
    let show = |lines: &[&str]| {
        lines[from.min(lines.len())..(first + CONTEXT + 1).min(lines.len())]
            .iter()
            .enumerate()
            .map(|(i, l)| format!("{:>5} | {l}\n", from + i + 1))
            .collect::<String>()
    };
    panic!(
        "repro {} differs from {} at line {} ({} vs {} lines)\n--- expected\n{}+++ actual\n{}\
         (run with BLESS=1 to accept the new output)",
        args.join(" "),
        path.display(),
        first + 1,
        want_lines.len(),
        got_lines.len(),
        show(&want_lines),
        show(&got_lines),
    );
}

#[test]
fn fig14_quick() {
    golden("fig14_quick", &["fig14", "--quick"], "");
}

#[test]
fn sweep_qd_quick() {
    golden("sweep_qd_quick", &["sweep-qd", "--quick"], "");
}

#[test]
fn sweep_rate_quick() {
    golden("sweep_rate_quick", &["sweep-rate", "--quick"], "");
}

#[test]
fn sweep_qd_gc_stress_wrr() {
    golden(
        "sweep_qd_gc_stress_wrr",
        &[
            "sweep-qd",
            "--quick",
            "--gc-stress",
            "--queue-depth",
            "16",
            "--queues",
            "2",
            "--arb",
            "wrr",
        ],
        "",
    );
}

#[test]
fn sweep_qd_replicated_array_with_device_loss() {
    golden(
        "sweep_qd_replicated_array_with_device_loss",
        &[
            "sweep-qd",
            "--quick",
            "--devices",
            "4",
            "--placement",
            "hash",
            "--redundancy",
            "replicate:2",
            "--fail-device",
            "1",
            "--fail-at-us",
            "20000",
            "--gc-stress",
            "--queue-depth",
            "16",
        ],
        "",
    );
}

#[test]
fn serve_two_queries() {
    golden(
        "serve_two_queries",
        &["serve", "--quick"],
        "mds_1 PnAR2 8\nmds_1 Baseline 4\nquit\n",
    );
}
