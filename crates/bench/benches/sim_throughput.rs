//! The tracked hot-path baseline: simulator throughput in **events per
//! second of wall-clock**, measured over the same workload shapes `repro
//! perf` reports into `BENCH_sim.json`.
//!
//! Unlike the per-figure groups in `evaluation.rs` (which time whole
//! regenerations), each bench here runs one simulator configuration and
//! reports the wall-clock of a fixed amount of simulated work, so
//! regressions in the event loop, the scheduler queues, the transaction
//! pool, or the error-model cache show up directly.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rr_bench::{
    matrix_traces, run_bench_matrix, run_mechanism, run_mechanism_closed_loop, run_mechanism_rate,
    Mechanism,
};
use rr_workloads::msrc::MsrcWorkload;
use rr_workloads::ycsb::YcsbWorkload;
use std::hint::black_box;

fn sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);

    // The `repro matrix -j1` proxy: the Fig. 14 grid on one worker, with the
    // arena reusing buffers across cells.
    let traces = matrix_traces(400);
    g.bench_function("matrix_grid/j1", |b| {
        b.iter(|| black_box(run_bench_matrix(&traces, 1).len()))
    });

    // Open-loop replay of an aged read-heavy trace: the deep-retry hot path
    // (per-read error inputs + pooled transactions + linked queues).
    let mds = MsrcWorkload::Mds1.synthesize(1_500, 9);
    g.bench_function("open_loop/mds_1/Baseline", |b| {
        b.iter_batched(
            || mds.clone(),
            |t| {
                let r = run_mechanism(Mechanism::Baseline, &t);
                black_box(r.events_processed)
            },
            BatchSize::LargeInput,
        )
    });

    // Closed-loop at depth 16: event-heap pressure from overlapping
    // transactions across dies.
    let ycsb = YcsbWorkload::C.synthesize(1_000, 9);
    g.bench_function("closed_loop/YCSB-C/qd16", |b| {
        b.iter_batched(
            || ycsb.clone(),
            |t| {
                let r = run_mechanism_closed_loop(Mechanism::Baseline, &t, 16);
                black_box(r.events_processed)
            },
            BatchSize::LargeInput,
        )
    });

    // Open-loop at 4× offered load: saturation behaviour (long device
    // queues, GC under pressure).
    g.bench_function("rate_scaled/mds_1/x4", |b| {
        b.iter_batched(
            || mds.clone(),
            |t| {
                let r = run_mechanism_rate(Mechanism::PnAr2, &t, 4.0);
                black_box(r.events_processed)
            },
            BatchSize::LargeInput,
        )
    });

    g.finish();
}

criterion_group!(benches, sim_throughput);
criterion_main!(benches);
