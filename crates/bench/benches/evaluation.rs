//! Benches for the system-level evaluation figures: `fig14` (one group per
//! mechanism) and `fig15` (PSO composition), plus `table2` (workload
//! generation + statistics), `matrix` (`rr_core::experiment::run` over a
//! matrix spec on one vs. several workers), and `sweep_qd` (closed-loop replay cost vs.
//! queue depth). Each iteration performs one full simulator run of a
//! representative workload cell.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rr_bench::{
    matrix_traces, run_bench_matrix, run_mechanism, run_mechanism_closed_loop, Mechanism,
};
use rr_workloads::msrc::MsrcWorkload;
use rr_workloads::ycsb::YcsbWorkload;
use std::hint::black_box;

fn table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2");
    g.sample_size(20);
    g.bench_function("synthesize_and_stat_all_workloads", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for w in MsrcWorkload::ALL {
                acc += w.synthesize(1_000, 7).stats().read_ratio;
            }
            for w in YcsbWorkload::ALL {
                acc += w.synthesize(1_000, 7).stats().cold_ratio;
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn fig14(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14");
    g.sample_size(10);
    let trace = MsrcWorkload::Usr1.synthesize(1_000, 3);
    for m in Mechanism::FIG14 {
        g.bench_function(format!("usr_1/{}", m.name()), |b| {
            b.iter_batched(
                || trace.clone(),
                |t| black_box(run_mechanism(m, &t).avg_response_us()),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn fig15(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig15");
    g.sample_size(10);
    let trace = YcsbWorkload::C.synthesize(1_000, 3);
    for m in [Mechanism::Pso, Mechanism::PsoPnAr2] {
        g.bench_function(format!("YCSB-C/{}", m.name()), |b| {
            b.iter_batched(
                || trace.clone(),
                |t| black_box(run_mechanism(m, &t).avg_response_us()),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// The Fig. 14 matrix on one thread vs. `--jobs`-style worker pools. Any
/// worker count is bit-identical to the serial run (asserted in rr-bench's
/// tests); this group measures the wall-clock ratio, which approaches the
/// machine's core count for the 8-group workload (≥ 1.5× at 4 threads on a
/// 4-core host; on a single-core host all variants degenerate to serial
/// speed).
fn matrix(c: &mut Criterion) {
    let mut g = c.benchmark_group("matrix");
    g.sample_size(10);
    let traces = matrix_traces(400);
    for jobs in [1usize, 2, 4] {
        g.bench_function(format!("fig14_grid/jobs={jobs}"), |b| {
            b.iter(|| black_box(run_bench_matrix(&traces, jobs).len()))
        });
    }
    g.finish();
}

/// Closed-loop replay at increasing queue depth. The simulated work is the
/// same trace; what grows with QD is event-queue pressure (more overlapping
/// transactions), so this group tracks the scheduler's wall-clock scaling
/// with device load. The reported per-class tails (p50…p99.9) come along
/// for free in the returned report.
fn sweep_qd(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_qd");
    g.sample_size(10);
    let trace = YcsbWorkload::C.synthesize(600, 3);
    for qd in [1u32, 8, 32] {
        g.bench_function(format!("YCSB-C/Baseline/qd={qd}"), |b| {
            b.iter_batched(
                || trace.clone(),
                |t| {
                    let report = run_mechanism_closed_loop(Mechanism::Baseline, &t, qd);
                    black_box(report.read_latency.p999)
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, table2, fig14, fig15, matrix, sweep_qd);
criterion_main!(benches);
