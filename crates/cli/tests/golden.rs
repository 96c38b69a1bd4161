//! Golden stdout for the `repro` CLI.
//!
//! Every other byte-identity check in the workspace is relative (flag A
//! vs flag B, `--jobs 1` vs `--jobs 2`), so a change that shifts both
//! sides equally passes it. These tests pin absolute output: each one
//! runs the built `repro` binary and compares its stdout with a
//! checked-in file under `tests/golden/`. Wall-clock timings go to
//! stderr, so stdout is stable across reruns and `--jobs` values.
//! Commands that write files (`export --csv`) run in an empty temporary
//! directory, and every file they write is pinned too, under
//! `tests/golden/<name>/`.
//!
//! Variant runs turn relative checks into absolute ones: a flag set that
//! must not change output (`--jobs 4`, `--devices 1`, `--gc-policy
//! greedy`) runs and must reproduce the golden file of the plain command.
//!
//! After an intended output change, regenerate the files with
//! `BLESS=1 cargo test -p repro --test golden` and review the diff. Blessing
//! writes only the plain commands' files; the variants are checked against
//! them by the next run without `BLESS`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Lines of context printed around the first difference.
const CONTEXT: usize = 3;

/// The two-query `serve` session pinned by `serve_two_queries.txt`.
const SERVE_TWO_QUERIES: &str = "mds_1 PnAR2 8\nmds_1 Baseline 4\nquit\n";

fn golden(name: &str, args: &[&str], stdin: &str) {
    let got = run_repro(args, stdin, None);
    check(&golden_dir().join(format!("{name}.txt")), &got, args);
}

/// Runs `args`, a flag set that must not change output, and compares its
/// stdout with the existing golden file `{golden}.txt`. It never writes
/// that file: under `BLESS=1` the plain command's test rewrites it, so the
/// variant is skipped until the next plain run.
fn variant(golden: &str, args: &[&str], stdin: &str) {
    if blessing() {
        return;
    }
    let got = run_repro(args, stdin, None);
    compare(
        &golden_dir().join(format!("{golden}.txt")),
        &got,
        args,
        "these flags must not change output; BLESS=1 does not rewrite the file for a variant",
    );
}

/// Runs `args` in an empty temporary directory, then pins stdout as
/// `{name}.txt` and each file written under `out_dir` as `{name}/<file>`:
/// every file when `only` is empty, else just the files it names.
fn golden_files(name: &str, args: &[&str], out_dir: &str, only: &[&str]) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{name}"));
    if cwd.exists() {
        std::fs::remove_dir_all(&cwd).expect("clear temporary dir");
    }
    std::fs::create_dir_all(&cwd).expect("create temporary dir");
    let got = run_repro(args, "", Some(&cwd));
    check(&golden_dir().join(format!("{name}.txt")), &got, args);
    let mut files: Vec<PathBuf> = std::fs::read_dir(cwd.join(out_dir))
        .expect("read output dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| only.is_empty() || only.iter().any(|f| p.ends_with(f)))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "repro {} wrote no files", args.join(" "));
    for file in files {
        let got = std::fs::read_to_string(&file).expect("output is UTF-8");
        let file_name = file.file_name().expect("file name");
        check(&golden_dir().join(name).join(file_name), &got, args);
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn run_repro(args: &[&str], stdin: &str, cwd: Option<&Path>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    if let Some(dir) = cwd {
        cmd.current_dir(dir);
    }
    let mut child = cmd
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
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn blessing() -> bool {
    std::env::var("BLESS").is_ok_and(|v| v == "1")
}

/// Compares `got` with the golden file at `path`, or writes it under
/// `BLESS=1`.
fn check(path: &Path, got: &str, args: &[&str]) {
    if blessing() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(path, got).expect("write golden file");
        return;
    }
    compare(path, got, args, "run with BLESS=1 to accept the new output");
}

/// Panics with the first line where `got` differs from the golden file at
/// `path`, in context, followed by `hint`.
fn compare(path: &Path, got: &str, args: &[&str], hint: &str) {
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
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
         ({hint})",
        args.join(" "),
        path.display(),
        first + 1,
        want_lines.len(),
        got_lines.len(),
        show(&want_lines),
        show(&got_lines),
    );
}

/// The arguments of a command line that quotes nothing.
fn cli(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

#[test]
fn fig14_quick() {
    golden("fig14_quick", &cli("fig14 --quick"), "");
}

#[test]
fn sweep_qd_quick() {
    golden("sweep_qd_quick", &cli("sweep-qd --quick"), "");
}

#[test]
fn sweep_rate_quick() {
    golden("sweep_rate_quick", &cli("sweep-rate --quick"), "");
}

/// The two-queue GC-stress sweep under WRR arbitration.
const WRR_SWEEP: &str = "sweep-qd --quick --gc-stress --queue-depth 16 --queues 2 --arb wrr";

#[test]
fn sweep_qd_gc_stress_wrr() {
    golden("sweep_qd_gc_stress_wrr", &cli(WRR_SWEEP), "");
}

/// The two-queue GC-stress sweep of README's GC-policy table, up to the
/// policy name.
const GC_POLICY_SWEEP: &str =
    "sweep-qd --quick --gc-stress --queue-depth 16 --queues 2 --gc-policy";

#[test]
fn sweep_qd_gc_stress_read_preempt() {
    let args = format!("{GC_POLICY_SWEEP} read-preempt");
    golden("sweep_qd_gc_stress_read_preempt", &cli(&args), "");
}

/// Budget 1 is the one whose quick run records deferrals; the default
/// budget of 8 records none.
#[test]
fn sweep_qd_gc_stress_windowed_tokens() {
    let args = format!("{GC_POLICY_SWEEP} windowed-tokens --gc-budget 1");
    golden("sweep_qd_gc_stress_windowed_tokens", &cli(&args), "");
}

#[test]
fn sweep_qd_gc_stress_queue_shield() {
    let args = format!("{GC_POLICY_SWEEP} queue-shield");
    golden("sweep_qd_gc_stress_queue_shield", &cli(&args), "");
}

#[test]
fn sweep_qd_gc_stress_windowed_tokens_parallel() {
    let args = format!("{GC_POLICY_SWEEP} windowed-tokens --gc-budget 1 --jobs 4");
    variant("sweep_qd_gc_stress_windowed_tokens", &cli(&args), "");
}

#[test]
fn sweep_qd_gc_stress_queue_shield_parallel() {
    let args = format!("{GC_POLICY_SWEEP} queue-shield --jobs 4");
    variant("sweep_qd_gc_stress_queue_shield", &cli(&args), "");
}

#[test]
fn fig14_quick_parallel_single_device() {
    variant(
        "fig14_quick",
        &cli("fig14 --quick --jobs 4 --devices 1"),
        "",
    );
}

#[test]
fn sweep_qd_quick_parallel() {
    variant("sweep_qd_quick", &cli("sweep-qd --quick --jobs 4"), "");
}

#[test]
fn sweep_qd_quick_single_device_explicit_greedy() {
    let args = cli("sweep-qd --quick --devices 1 --gc-policy greedy");
    variant("sweep_qd_quick", &args, "");
}

#[test]
fn sweep_rate_quick_parallel() {
    variant("sweep_rate_quick", &cli("sweep-rate --quick --jobs 4"), "");
}

#[test]
fn sweep_qd_gc_stress_wrr_parallel() {
    let args = format!("{WRR_SWEEP} --jobs 4");
    variant("sweep_qd_gc_stress_wrr", &cli(&args), "");
}

/// A 4-device GC-stress array without redundancy.
const HASHED_ARRAY_SWEEP: &str =
    "sweep-qd --quick --gc-stress --queue-depth 16 --devices 4 --placement hash";

#[test]
fn sweep_qd_gc_stress_array_hash() {
    golden(
        "sweep_qd_gc_stress_array_hash",
        &cli(HASHED_ARRAY_SWEEP),
        "",
    );
}

#[test]
fn sweep_qd_gc_stress_array_hash_parallel() {
    let args = format!("{HASHED_ARRAY_SWEEP} --jobs 2");
    variant("sweep_qd_gc_stress_array_hash", &cli(&args), "");
}

/// A replicated 4-device GC-stress array that loses device 1 mid-run.
const REPLICATED_ARRAY_SWEEP: &str = "sweep-qd --quick --devices 4 --placement hash \
     --redundancy replicate:2 --fail-device 1 --fail-at-us 20000 --gc-stress --queue-depth 16";

#[test]
fn sweep_qd_replicated_array_with_device_loss() {
    let args = cli(REPLICATED_ARRAY_SWEEP);
    golden("sweep_qd_replicated_array_with_device_loss", &args, "");
}

#[test]
fn sweep_qd_replicated_array_with_device_loss_parallel() {
    let args = format!("{REPLICATED_ARRAY_SWEEP} --jobs 2");
    variant(
        "sweep_qd_replicated_array_with_device_loss",
        &cli(&args),
        "",
    );
}

#[test]
fn serve_two_queries() {
    golden(
        "serve_two_queries",
        &cli("serve --quick"),
        SERVE_TWO_QUERIES,
    );
}

/// Under the default round-robin placement, the 3-field query and its
/// explicit 1-device form answer alike, and a 4-device query answers with
/// `devices=4`.
#[test]
fn serve_single_and_multi_device_queries() {
    golden(
        "serve_single_and_multi_device_queries",
        &cli("serve --quick"),
        "mds_1 PnAR2 8\nmds_1 PnAR2 8 1\nmds_1 PnAR2 8 4\nquit\n",
    );
}

#[test]
fn export_csv_on_a_hashed_array() {
    let args =
        cli("export --quick --csv out --devices 2 --placement hash --queue-depth 4 --rate 2");
    golden_files("export_csv_hashed_array", &args, "out", &[]);
}

/// The three evaluation CSVs of `export --csv`; the characterization
/// CSVs beside them are already pinned by `export_csv_hashed_array`.
const EVAL_CSVS: [&str; 3] = ["matrix.csv", "sweep_qd.csv", "sweep_rate.csv"];

/// Single-device evaluation CSVs, with two host queues so the per-queue
/// columns are pinned too.
#[test]
fn export_csv_single_device_two_queues() {
    let args = cli("export --quick --csv out --queues 2 --queue-depth 1,8 --rate 1,2");
    golden_files(
        "export_csv_single_device_two_queues",
        &args,
        "out",
        &EVAL_CSVS,
    );
}

/// A replicated 4-device array that loses device 1 mid-run: pins the
/// redundancy columns.
#[test]
fn export_csv_replicated_array_with_device_loss() {
    let args = cli(
        "export --quick --csv out --devices 4 --placement hash --redundancy replicate:2 \
         --fail-device 1 --fail-at-us 20000 --queue-depth 4 --rate 2",
    );
    golden_files(
        "export_csv_replicated_array_with_device_loss",
        &args,
        "out",
        &EVAL_CSVS,
    );
}

#[test]
fn fig14_quick_replicated_array() {
    let args = cli("fig14 --quick --devices 4 --placement hash --redundancy replicate:2");
    golden("fig14_quick_replicated_array", &args, "");
}

#[test]
fn sweep_rate_replicated_array_with_device_loss() {
    let args = cli(
        "sweep-rate --quick --gc-stress --rate 2 --devices 4 --placement hash \
         --redundancy replicate:2 --fail-device 1 --fail-at-us 20000",
    );
    golden("sweep_rate_replicated_array_with_device_loss", &args, "");
}

#[test]
fn serve_array_queries_and_errors() {
    golden(
        "serve_array_queries_and_errors",
        &cli("serve --quick --placement hash"),
        "mds_1 PnAR2 8\nmds_1 PnAR2 8 1\nmds_1 PnAR2 8 4\nmds_1 bogus 8\nmds_1 PnAR2 0\nquit\n",
    );
}

#[test]
fn fig15_quick() {
    golden("fig15_quick", &cli("fig15 --quick"), "");
}

#[test]
fn extensions_quick() {
    golden("extensions_quick", &cli("extensions --quick"), "");
}

#[test]
fn ablation_quick() {
    golden("ablation_quick", &cli("ablation --quick"), "");
}

#[test]
fn table1() {
    golden("table1", &cli("table1"), "");
}

#[test]
fn table2_quick() {
    golden("table2_quick", &cli("table2 --quick"), "");
}

#[test]
fn rpt() {
    golden("rpt", &cli("rpt"), "");
}

#[test]
fn characterization_figures_quick() {
    for fig in ["fig4b", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11"] {
        golden(&format!("{fig}_quick"), &[fig, "--quick"], "");
    }
}

/// The full-size rate sweep under GC stress, past the device's GC
/// throughput, where host writes wait for GC erases.
#[test]
fn sweep_rate_gc_stress() {
    const SWEEP: &str = "sweep-rate --gc-stress --rate 1,4";
    golden("sweep_rate_gc_stress", &cli(SWEEP), "");
    let shielded = format!("{SWEEP} --queues 2 --gc-policy queue-shield");
    golden("sweep_rate_gc_stress_queue_shield", &cli(&shielded), "");
}
