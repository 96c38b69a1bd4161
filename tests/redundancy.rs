//! Redundancy-layer suite: the `Redundancy`/`RedundantRouting` stack must
//! (1) reduce to one copy per request on its placement's device under
//! `none`, with exact summaries and no redundancy stats, (2) complete
//! replicated reads at the first copy and EC reads at the k-th (the
//! wait-for-k order statistic), (3) demonstrably cut the GC-stress array
//! read tail with r=2 replication, (4) stay bit-identical across reruns
//! and sweep worker counts, and (5) report, for every runner cell, exactly
//! what a lone per-cell replay of the same routing reports, however the
//! runner batches cells onto its device pools.

use ssd_readretry::core::experiment::prepared_config;
use ssd_readretry::prelude::*;

fn base_cfg() -> SsdConfig {
    SsdConfig::scaled_for_tests().with_seed(0xA88A_71E5)
}

fn trace() -> Trace {
    MsrcWorkload::Mds1.synthesize(400, 17)
}

/// Runs one closed-loop array replay through the two layers `run` drives
/// for an array cell: the routing, then the device runs and the wait-for-k
/// merge.
#[allow(clippy::too_many_arguments)]
fn redundant_run(
    base: &SsdConfig,
    t: &Trace,
    devices: u32,
    policy: PlacementPolicy,
    redundancy: Redundancy,
    failure: Option<FailurePlan>,
    mechanism: Mechanism,
    qd: u32,
) -> ArrayReport {
    let cfg = std::sync::Arc::new(base.clone().with_condition(OperatingCondition::new(
        2000.0,
        6.0,
        base.condition.temp_c,
    )));
    let rpt = ReadTimingParamTable::default();
    let make_controller = || mechanism.make_controller(&rpt);
    let queues = HostQueueConfig::single(ReplayMode::closed_loop(qd));
    let footprint = t.footprint_pages;
    let routing = route_redundant(&t.requests, devices, policy, footprint, redundancy, failure);
    DeviceSet::new(devices)
        .expect("devices >= 1")
        .run_redundant_from(
            &cfg,
            &make_controller,
            footprint,
            &routing,
            &queues,
            None,
            0,
            1,
        )
        .expect("valid redundant configuration")
}

#[test]
fn none_array_cells_are_exact_with_no_redundancy_stats() {
    // `--redundancy none` sends each request to its placement's device
    // alone. Every device report must equal an independent single-device
    // run of that device's placement share; the cell `run` reports must
    // carry the layer-level read/write summaries and the summed events
    // exactly, one completion per request and no redundancy stats; and its
    // average response must match the devices' pooled mean up to float
    // accumulation order.
    let base = base_cfg();
    let traces = [trace()];
    let t = &traces[0];
    let devices = 3u32;
    let policy = PlacementPolicy::LpnHash;
    let array = ArraySetup::new(devices, policy).with_redundancy(Redundancy::None);
    let point = OperatingPoint::new(2000.0, 6.0);
    let rpt = ReadTimingParamTable::default();
    let cfg =
        base.clone()
            .with_condition(OperatingCondition::new(2000.0, 6.0, base.condition.temp_c));
    for mechanism in [Mechanism::Baseline, Mechanism::PnAr2] {
        for qd in [1u32, 8] {
            let what = format!("{} at qd={qd}", mechanism.name());
            let spec =
                RunSpec::qd_sweep(&base, &traces, point, &[qd], &[mechanism]).with_array(array);
            let via_run = run(&spec, None)
                .expect("valid array configuration")
                .qd
                .remove(0);
            let layer = redundant_run(
                &base,
                t,
                devices,
                policy,
                Redundancy::None,
                None,
                mechanism,
                qd,
            );
            for (d, report) in layer.devices.iter().enumerate() {
                let share: Vec<HostRequest> = t
                    .requests
                    .iter()
                    .enumerate()
                    .filter(|&(i, r)| policy.route(i, r, devices, t.footprint_pages) == d as u32)
                    .map(|(_, r)| *r)
                    .collect();
                let alone = Ssd::new(
                    cfg.clone(),
                    mechanism.make_controller(&rpt),
                    t.footprint_pages,
                )
                .expect("valid configuration")
                .run_with_queues(
                    &share,
                    &HostQueueConfig::single(ReplayMode::closed_loop(qd)),
                );
                assert_eq!(*report, alone, "{what}: device {d}");
            }
            assert_eq!(via_run.reads, layer.read_latency, "{what}");
            assert_eq!(via_run.writes, layer.write_latency, "{what}");
            let events: u64 = layer.devices.iter().map(|d| d.events_processed).sum();
            assert_eq!(via_run.events, events, "{what}");
            assert_eq!(layer.event_kinds.total(), events, "{what}");
            assert_eq!(layer.requests_completed, t.len() as u64, "{what}");
            let reads: u64 = layer.devices.iter().map(|d| d.read_latency.count).sum();
            assert_eq!(via_run.reads.count, reads, "{what}");
            let pooled = layer
                .devices
                .iter()
                .map(|d| d.avg_response_us() * d.requests_completed as f64)
                .sum::<f64>()
                / t.len() as f64;
            let rel = (via_run.avg_response_us - pooled).abs() / pooled;
            assert!(
                rel < 1e-12,
                "{what}: avg response {} vs pooled {pooled}",
                via_run.avg_response_us
            );
            let stats = via_run.array.expect("array cell");
            assert!(stats.redundancy.is_none(), "{what}");
            assert!(layer.redundancy.is_none(), "{what}");
        }
    }
}

#[test]
fn replicated_reads_complete_at_the_first_copy() {
    // devices=2 + replicate:2 puts one copy of every read on *each* device,
    // so each logical read latency is the min of its two copies: every
    // wait-for-k quantile is dominated by the same quantile of either
    // device's copy population, and the array read class *is* the
    // wait-for-k class.
    let base = base_cfg();
    let t = trace();
    let report = redundant_run(
        &base,
        &t,
        2,
        PlacementPolicy::RoundRobin,
        Redundancy::Replicate { r: 2 },
        None,
        Mechanism::PnAr2,
        8,
    );
    let stats = report.redundancy.as_ref().expect("redundant run has stats");
    assert_eq!(stats.scheme, "replicate:2");
    let logical_reads = t.requests.iter().filter(|r| r.op == IoOp::Read).count() as u64;
    let logical_writes = t.requests.len() as u64 - logical_reads;
    // One logical completion per request, not per copy.
    assert_eq!(report.requests_completed, t.requests.len() as u64);
    assert_eq!(stats.wait_for_k.count, logical_reads);
    assert_eq!(report.read_latency, stats.wait_for_k);
    // Full fan-out: every device serves a copy of every request.
    assert_eq!(stats.fanout_reads, vec![logical_reads, logical_reads]);
    assert_eq!(stats.fanout_writes, vec![logical_writes, logical_writes]);
    assert!(stats.rebuild_reads.iter().all(|&n| n == 0));
    assert_eq!(stats.failed_device, None);
    // min(a_i, b_i) <= a_i pointwise => every empirical quantile of the
    // completions is <= the same quantile of each device's copies.
    for d in &report.devices {
        for (got, copy) in [
            (stats.wait_for_k.p50, d.read_latency.p50),
            (stats.wait_for_k.p99, d.read_latency.p99),
            (stats.wait_for_k.p999, d.read_latency.p999),
        ] {
            assert!(
                got.expect("reads exist") <= copy.expect("copies exist"),
                "first-copy completion must dominate the copy population"
            );
        }
    }
    // Writes wait for both copies: the array write tail cannot beat either
    // device's write tail.
    for d in &report.devices {
        assert!(
            report.write_latency.p99.expect("writes exist")
                >= d.write_latency.p99.expect("writes exist"),
            "a write completes only when its last copy does"
        );
    }
}

#[test]
fn ec_reads_complete_at_the_kth_copy() {
    // ec:2:4 fans each read to k=2 stripe members and completes at the
    // *last* of them; writes update the whole n=4 span.
    let base = base_cfg();
    let t = trace();
    let report = redundant_run(
        &base,
        &t,
        4,
        PlacementPolicy::RoundRobin,
        Redundancy::Ec { k: 2, n: 4 },
        None,
        Mechanism::PnAr2,
        8,
    );
    let stats = report.redundancy.as_ref().expect("redundant run has stats");
    assert_eq!(stats.scheme, "ec:2:4");
    let logical_reads = t.requests.iter().filter(|r| r.op == IoOp::Read).count() as u64;
    let logical_writes = t.requests.len() as u64 - logical_reads;
    assert_eq!(report.requests_completed, t.requests.len() as u64);
    assert_eq!(stats.wait_for_k.count, logical_reads);
    assert_eq!(stats.fanout_reads.iter().sum::<u64>(), 2 * logical_reads);
    assert_eq!(stats.fanout_writes.iter().sum::<u64>(), 4 * logical_writes);
    // max(a_i, b_i) >= both copies => the completion distribution dominates
    // the pooled copy population, whose quantiles in turn are at least the
    // *fastest* device's: the k-th order statistic cannot beat the best
    // single device.
    let best_copy_p50 = report
        .devices
        .iter()
        .filter_map(|d| d.read_latency.p50)
        .min_by(|a, b| a.partial_cmp(b).expect("finite"))
        .expect("reads exist");
    assert!(
        stats.wait_for_k.p50.expect("reads exist") >= best_copy_p50,
        "k-th-response completion cannot beat the fastest copy population"
    );
}

#[test]
fn replication_cuts_the_gc_stress_array_read_tail() {
    // The acceptance case: on the GC-stress workload one device's GC storm
    // dominates the array read tail; hedging every read across 2 replicas
    // completes at the first copy, so the post-redundancy array p99 must
    // beat both the unredundant array p99 and the median single-device p99.
    let mut base = base_cfg();
    base.chip.blocks_per_plane = 16;
    base.chip.pages_per_block = 12;
    let t = ssd_readretry::workloads::synth::gc_stress_trace(base.max_lpns(), 5_000);
    let policy = PlacementPolicy::LpnHash;
    let none = redundant_run(
        &base,
        &t,
        4,
        policy,
        Redundancy::None,
        None,
        Mechanism::PnAr2,
        16,
    );
    let rep = redundant_run(
        &base,
        &t,
        4,
        policy,
        Redundancy::Replicate { r: 2 },
        None,
        Mechanism::PnAr2,
        16,
    );
    let stats = rep.redundancy.as_ref().expect("redundant run has stats");
    let rep_p99 = stats.wait_for_k.p99.expect("reads exist");
    let none_array_p99 = none.read_latency.p99.expect("reads exist");
    let none_median_p99 = none.median_device_read_p99().expect("reads exist");
    assert!(
        rep_p99 <= none_array_p99,
        "r=2 replication must cut the array read p99: {rep_p99} vs {none_array_p99}"
    );
    assert!(
        rep_p99 <= none_median_p99,
        "the order-statistic p99 must beat the median single-device p99: \
         {rep_p99} vs {none_median_p99}"
    );
    // The rescue counter attributes the win: some reads escaped the slowest
    // device's GC window via their other copy.
    assert!(
        stats.rescued_reads > 0,
        "GC-stress hedges must rescue reads"
    );
    assert!(stats.rescued_saved_us > 0.0);
}

#[test]
fn redundant_runs_are_bit_identical_across_reruns_and_device_workers() {
    // Device workers only choose *where* a device simulates; the wait-for-k
    // merge must not move across reruns or worker counts, even with a
    // mid-run failure injecting rebuild traffic.
    let base = base_cfg();
    let t = trace();
    let failure = Some(FailurePlan {
        device: 1,
        at: t.requests[t.requests.len() / 2].arrival,
    });
    let replicate = Redundancy::Replicate { r: 2 };
    let run = || {
        redundant_run(
            &base,
            &t,
            4,
            PlacementPolicy::LpnHash,
            replicate,
            failure,
            Mechanism::PnAr2,
            8,
        )
    };
    let reference = run();
    assert_eq!(reference, run(), "redundant rerun diverged");
    let routing = route_redundant(
        &t.requests,
        4,
        PlacementPolicy::LpnHash,
        t.footprint_pages,
        replicate,
        failure,
    );
    let cfg = std::sync::Arc::new(
        base.clone()
            .with_condition(OperatingCondition::new(2000.0, 6.0, 30.0)),
    );
    let rpt = ReadTimingParamTable::default();
    let mut set = DeviceSet::new(4).expect("devices >= 1");
    let mut by_workers = |device_workers: usize| {
        set.run_redundant_from(
            &cfg,
            &|| Mechanism::PnAr2.make_controller(&rpt),
            t.footprint_pages,
            &routing,
            &HostQueueConfig::single(ReplayMode::closed_loop(8)),
            None,
            0,
            device_workers,
        )
        .expect("valid redundant configuration")
    };
    let serial = by_workers(1);
    assert!(serial.redundancy.is_some());
    for device_workers in [2usize, 4] {
        assert_eq!(
            serial,
            by_workers(device_workers),
            "redundant run diverged at device_workers={device_workers}"
        );
    }
}

#[test]
fn redundant_sweep_is_bit_identical_across_jobs() {
    let base = base_cfg();
    let traces = vec![trace()];
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let setup = QueueSetup::single();
    let array = ArraySetup::new(4, PlacementPolicy::RoundRobin)
        .with_redundancy(Redundancy::Replicate { r: 2 });
    let point = OperatingPoint::new(2000.0, 6.0);
    let spec = RunSpec::qd_sweep(&base, &traces, point, &[1, 8], &mechanisms)
        .with_front(setup)
        .with_array(array);
    let sweep = |jobs: usize| {
        run(&spec.clone().with_jobs(jobs), None)
            .expect("valid redundant configuration")
            .qd
    };
    let reference = sweep(1);
    for jobs in [1usize, 2] {
        assert_eq!(
            reference,
            sweep(jobs),
            "redundant sweep diverged at jobs={jobs}"
        );
    }
    for c in &reference {
        let a = c.array.as_ref().expect("array cells carry array stats");
        let r = a.redundancy.as_ref().expect("redundant cells carry stats");
        assert_eq!(r.scheme, "replicate:2");
        // The cell's read class is the logical (wait-for-k) population.
        assert_eq!(c.reads.count, r.wait_for_k.count);
    }
}

/// The array statistics `run` attaches to a cell replayed into `report`.
fn array_stats(report: &ArrayReport, placement: PlacementPolicy) -> ArrayCellStats {
    ArrayCellStats {
        devices: report.device_count(),
        placement: placement.name().to_string(),
        per_device: report
            .devices
            .iter()
            .enumerate()
            .map(|(d, r)| DeviceTail {
                completed: r.requests_completed,
                reads: r.read_latency,
                gc: report.device_gc(d),
                events: r.events_processed,
            })
            .collect(),
        amplification_p99: report.amplification_p99(),
        amplification_p999: report.amplification_p999(),
        best_read_p999: report.best_device_read_p999(),
        median_read_p999: report.median_device_read_p999(),
        slowest_device: report.slowest_device(),
        redundancy: report.redundancy.clone(),
    }
}

#[test]
fn batched_runner_cells_match_lone_per_cell_replays() {
    // The runner replays every mechanism at one (workload, point, load) as
    // one batch on a shared device pool, heaviest device stream first. Each
    // of its cells, at any `jobs`, must equal the same cell replayed alone
    // through `DeviceSet::run_redundant_from` on one device worker, with a
    // device failing mid-run so rebuild reads ride along.
    let base = base_cfg();
    let t = trace();
    let placement = PlacementPolicy::LpnHash;
    let redundancy = Redundancy::Replicate { r: 2 };
    let failure = Some(FailurePlan {
        device: 1,
        at: t.requests[t.requests.len() / 2].arrival,
    });
    let array = ArraySetup::new(4, placement)
        .with_redundancy(redundancy)
        .with_failure(failure);
    let routing = route_redundant(
        &t.requests,
        4,
        placement,
        t.footprint_pages,
        redundancy,
        failure,
    );
    let bank = ImageBank::preconditioned(&base, [t.footprint_pages]).expect("valid configuration");
    let forks = bank
        .fork_for_array(t.footprint_pages, 4)
        .expect("bank covers the trace");
    let rpt = ReadTimingParamTable::default();
    let lone = |point: OperatingPoint, mechanism: Mechanism, mode: ReplayMode| {
        DeviceSet::new(4)
            .expect("devices >= 1")
            .run_redundant_from(
                &prepared_config(&base, point, mechanism.is_ideal()),
                &|| mechanism.make_controller(&rpt),
                t.footprint_pages,
                &routing,
                &HostQueueConfig::single(mode),
                Some(&forks),
                0,
                1,
            )
            .expect("valid redundant configuration")
    };
    let retry_steps = |r: &ArrayReport| {
        let total: u64 = r.devices.iter().map(|d| d.retry_steps.total()).sum();
        if total == 0 {
            return 0.0;
        }
        r.devices
            .iter()
            .map(|d| d.retry_steps.mean() * d.retry_steps.total() as f64)
            .sum::<f64>()
            / total as f64
    };

    let traces = vec![(t.clone(), true)];
    let points = [
        OperatingPoint::new(1000.0, 6.0),
        OperatingPoint::new(2000.0, 12.0),
    ];
    let mut matrix = Vec::new();
    for &point in &points {
        let baseline = lone(point, Mechanism::Baseline, ReplayMode::OpenLoop).avg_response_us();
        for mechanism in Mechanism::FIG14 {
            let r = lone(point, mechanism, ReplayMode::OpenLoop);
            matrix.push(MatrixCell {
                workload: t.name.clone(),
                read_dominant: true,
                point,
                mechanism: mechanism.name().to_string(),
                avg_response_us: r.avg_response_us(),
                normalized: r.avg_response_us() / baseline,
                avg_retry_steps: retry_steps(&r),
                read_latency: r.read_latency,
                events: r.event_kinds.total(),
                array: Some(array_stats(&r, placement)),
            });
        }
    }
    let point = OperatingPoint::new(2000.0, 6.0);
    let depths = [1u32, 8];
    let mut qd = Vec::new();
    for &depth in &depths {
        for mechanism in Mechanism::FIG14 {
            let r = lone(point, mechanism, ReplayMode::closed_loop(depth));
            qd.push(QdSweepCell {
                workload: t.name.clone(),
                mechanism: mechanism.name().to_string(),
                queue_depth: depth,
                point,
                reads: r.read_latency,
                writes: r.write_latency,
                retried_reads: r.retried_read_latency,
                avg_response_us: r.avg_response_us(),
                kiops: r.kiops(),
                events: r.event_kinds.total(),
                queues: 1,
                per_queue_reads: Vec::new(),
                per_queue_gc: Vec::new(),
                array: Some(array_stats(&r, placement)),
            });
        }
    }
    let stats = matrix
        .iter()
        .map(|c| &c.array)
        .chain(qd.iter().map(|c| &c.array));
    for a in stats {
        let r = a.as_ref().and_then(|a| a.redundancy.as_ref());
        assert_eq!(
            r.and_then(|r| r.failed_device),
            Some(1),
            "every cell must replay the failure"
        );
    }

    let sweeps = [t];
    let matrix_spec = RunSpec::matrix(&base, &traces, &points, &Mechanism::FIG14).with_array(array);
    let qd_spec =
        RunSpec::qd_sweep(&base, &sweeps, point, &depths, &Mechanism::FIG14).with_array(array);
    for jobs in [1usize, 2, 3] {
        let batched = run(&matrix_spec.clone().with_jobs(jobs), Some(&bank))
            .expect("valid array configuration")
            .matrix;
        assert_eq!(batched, matrix, "matrix cells diverged at jobs = {jobs}");
        let batched = run(&qd_spec.clone().with_jobs(jobs), Some(&bank))
            .expect("valid array configuration")
            .qd;
        assert_eq!(batched, qd, "QD-sweep cells diverged at jobs = {jobs}");
    }
}
