//! Closed-loop queue-depth replay: correctness and determinism.
//!
//! * QD = 1 is the legacy serial device — per-request latencies must match a
//!   fully spaced-out open-loop replay of the same trace, request for
//!   request;
//! * read p99 must be monotone non-decreasing across a QD sweep on a fixed
//!   workload (more outstanding requests can only add contention);
//! * the multi-die closed-loop path must be bit-identical across `--jobs`
//!   settings and across repeated runs.

use ssd_readretry::prelude::*;

/// A closed-loop sweep of `traces` × `qds` × `mechanisms` on `jobs` worker
/// threads.
fn qd_sweep(
    cfg: &SsdConfig,
    traces: &[Trace],
    point: OperatingPoint,
    qds: &[u32],
    mechanisms: &[Mechanism],
    jobs: usize,
) -> Vec<QdSweepCell> {
    let spec = RunSpec::qd_sweep(cfg, traces, point, qds, mechanisms).with_jobs(jobs);
    run(&spec, None).expect("valid spec").qd
}

fn respaced(trace: &Trace, spacing_us: u64) -> Trace {
    let requests: Vec<HostRequest> = trace
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            HostRequest::new(
                SimTime::from_us(i as u64 * spacing_us),
                r.op,
                r.lpn,
                r.len_pages,
            )
        })
        .collect();
    Trace::new(trace.name.clone(), requests, trace.footprint_pages)
}

#[test]
fn qd1_matches_legacy_serial_device_replay() {
    // With 10 ms between open-loop arrivals every request runs in complete
    // isolation (worst-case read ≈ 2.4 ms, erase 5 ms), which is exactly
    // what a closed-loop window of one outstanding request enforces — so
    // the two replays must produce identical per-request latency
    // distributions and flash-activity counters.
    let cfg = SsdConfig::scaled_for_tests();
    let rpt = ReadTimingParamTable::default();
    let point = OperatingPoint::new(1000.0, 6.0);
    let trace = MsrcWorkload::Mds1.synthesize(400, 9);
    let spaced = respaced(&trace, 10_000);
    let open = run_one(&cfg, Mechanism::Baseline, point, &spaced, &rpt);
    let closed = run_one_with_mode(
        &cfg,
        Mechanism::Baseline,
        point,
        &trace,
        &rpt,
        ReplayMode::closed_loop(1),
    );
    assert_eq!(open.read_latency, closed.read_latency);
    assert_eq!(open.write_latency, closed.write_latency);
    assert_eq!(open.retried_read_latency, closed.retried_read_latency);
    assert_eq!(open.senses, closed.senses);
    assert_eq!(open.retry_steps, closed.retry_steps);
    assert_eq!(open.requests_completed, closed.requests_completed);
    assert!(
        (open.avg_response_us() - closed.avg_response_us()).abs() < 1e-9,
        "open {} vs closed {}",
        open.avg_response_us(),
        closed.avg_response_us()
    );
}

#[test]
fn read_p99_is_monotone_across_qd_sweep() {
    let cfg = SsdConfig::scaled_for_tests();
    let traces = vec![MsrcWorkload::Mds1.synthesize(800, 5)];
    let point = OperatingPoint::new(2000.0, 6.0);
    let cells = qd_sweep(&cfg, &traces, point, &[1, 4, 16], &[Mechanism::Baseline], 2);
    assert_eq!(cells.len(), 3);
    let p99s: Vec<f64> = cells
        .iter()
        .map(|c| c.reads.p99.expect("the workload has reads"))
        .collect();
    for w in p99s.windows(2) {
        assert!(
            w[1] >= w[0],
            "read p99 must not improve under load: {p99s:?}"
        );
    }
    // Throughput, by contrast, grows with depth (multi-die interleaving).
    assert!(cells[2].kiops > cells[0].kiops, "{cells:?}");
}

#[test]
fn multi_die_closed_loop_is_bit_identical_across_jobs_and_reruns() {
    let cfg = SsdConfig::scaled_for_tests();
    let traces = vec![
        MsrcWorkload::Mds1.synthesize(250, 3),
        YcsbWorkload::C.synthesize(250, 3),
    ];
    let point = OperatingPoint::new(2000.0, 6.0);
    let qds = [1, 4, 16];
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let serial = qd_sweep(&cfg, &traces, point, &qds, &mechanisms, 1);
    assert_eq!(serial.len(), traces.len() * qds.len() * mechanisms.len());
    for jobs in [2, 4, 8] {
        let parallel = qd_sweep(&cfg, &traces, point, &qds, &mechanisms, jobs);
        assert_eq!(serial, parallel, "--jobs {jobs} diverged from serial");
    }
    let rerun = qd_sweep(&cfg, &traces, point, &qds, &mechanisms, 4);
    let rerun2 = qd_sweep(&cfg, &traces, point, &qds, &mechanisms, 4);
    assert_eq!(rerun, rerun2, "repeated parallel runs diverged");
}

#[test]
fn same_tick_completion_bursts_admit_backlog_in_trace_order() {
    // On a fresh SSD every read costs the same Eq. 2 latency, so a QD-8
    // window of 8 reads striped over 8 distinct dies completes as one
    // same-tick burst — and each burst admits the next 8 backlog requests
    // within that tick. Admission must follow (tick, trace index): each
    // completion pops the backlog front (FIFO = trace order), never the
    // completion-heap pop order of whichever die finished "first". The
    // replay must be bit-identical across reruns and `--jobs`, and QD = 1
    // on the same trace must still equal the fully spaced open-loop replay.
    let cfg = SsdConfig::scaled_for_tests();
    let rpt = ReadTimingParamTable::default();
    let point = OperatingPoint::new(0.0, 0.0);
    // 64 single-page reads, 8 waves of 8 distinct dies (consecutive LPNs
    // stripe across planes), all with arrival 0 → every wave is one
    // same-tick completion burst under closed loop.
    let requests: Vec<HostRequest> = (0..64)
        .map(|i| HostRequest::new(SimTime::ZERO, IoOp::Read, i, 1))
        .collect();
    let trace = Trace::new("burst", requests, 1_000);
    let mk = |qd| {
        run_one_with_mode(
            &cfg,
            Mechanism::Baseline,
            point,
            &trace,
            &rpt,
            ReplayMode::closed_loop(qd),
        )
    };
    let a = mk(8);
    let b = mk(8);
    assert_eq!(a, b, "same-tick bursts must replay bit-identically");
    assert_eq!(a.requests_completed, 64);
    // Trace-order admission keeps every wave's 8 reads on 8 distinct dies,
    // so waves stay fully parallel: the makespan is ~8 isolated-read
    // latencies, not serialized die contention.
    let serial = mk(1);
    assert!(
        a.makespan.as_us_f64() < 0.3 * serial.makespan.as_us_f64(),
        "QD-8 bursts must overlap: {} vs serial {}",
        a.makespan,
        serial.makespan
    );
    // The sweep over the bursty trace is job-count-invariant like any other.
    let cells_serial = qd_sweep(
        &cfg,
        std::slice::from_ref(&trace),
        point,
        &[1, 8],
        &[Mechanism::Baseline],
        1,
    );
    let cells_parallel = qd_sweep(
        &cfg,
        std::slice::from_ref(&trace),
        point,
        &[1, 8],
        &[Mechanism::Baseline],
        4,
    );
    assert_eq!(cells_serial, cells_parallel);
    // And QD = 1 ≡ the spaced-out serial device, request for request.
    let spaced = respaced(&trace, 10_000);
    let open = run_one(&cfg, Mechanism::Baseline, point, &spaced, &rpt);
    assert_eq!(open.read_latency, serial.read_latency);
    assert_eq!(open.senses, serial.senses);
}

#[test]
fn qd_sweep_covers_msrc_and_ycsb_with_full_distributions() {
    // The acceptance shape: QD ∈ {1, 4, 16} on an MSRC and a YCSB workload,
    // every cell reporting p50/p95/p99/p99.9 for reads.
    let cfg = SsdConfig::scaled_for_tests();
    let traces = vec![
        MsrcWorkload::Mds1.synthesize(300, 7),
        YcsbWorkload::C.synthesize(300, 7),
    ];
    let point = OperatingPoint::new(2000.0, 6.0);
    let cells = qd_sweep(&cfg, &traces, point, &[1, 4, 16], &[Mechanism::Baseline], 4);
    assert_eq!(cells.len(), 6);
    for c in &cells {
        assert!(c.reads.count > 0, "{} has reads", c.workload);
        for (name, q) in [
            ("p50", c.reads.p50),
            ("p95", c.reads.p95),
            ("p99", c.reads.p99),
            ("p99.9", c.reads.p999),
        ] {
            assert!(
                q.is_some(),
                "{} QD={} missing {name}",
                c.workload,
                c.queue_depth
            );
        }
        // Empty classes report no tail; non-empty ones report one. Never a
        // fabricated 0 µs quantile.
        for class in [&c.writes, &c.retried_reads] {
            assert_eq!(class.p99.is_some(), class.count > 0);
            if let Some(p99) = class.p99 {
                assert!(p99 > 0.0);
            }
        }
    }
}
