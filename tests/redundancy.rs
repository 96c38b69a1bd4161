//! Redundancy-layer suite: the `Redundancy`/`RedundantRouting` stack must
//! (1) reduce to the plain array path bit-for-bit under `none`, (2) complete
//! replicated reads at the first copy and EC reads at the k-th (the
//! wait-for-k order statistic), (3) demonstrably cut the GC-stress array
//! read tail with r=2 replication, and (4) stay bit-identical across
//! reruns and sweep worker counts.

use ssd_readretry::prelude::*;

fn base_cfg() -> SsdConfig {
    SsdConfig::scaled_for_tests().with_seed(0xA88A_71E5)
}

fn trace() -> Trace {
    MsrcWorkload::Mds1.synthesize(400, 17)
}

/// Runs one closed-loop redundant array replay through the per-query runner.
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
    let array = ArraySetup::new(devices, policy)
        .with_redundancy(redundancy)
        .with_failure(failure);
    let mut set = DeviceSet::new(devices).expect("devices >= 1");
    run_one_queued_redundant_from(
        &mut set,
        base,
        mechanism,
        OperatingPoint::new(2000.0, 6.0),
        t,
        &array,
        &ReadTimingParamTable::default(),
        &QueueSetup::single(),
        qd,
        None,
    )
    .expect("valid redundant configuration")
}

#[test]
fn none_redundancy_matches_the_plain_array_across_mechanisms_and_qd() {
    // `--redundancy none` must take the literal plain-array code path: the
    // whole merged report — float-accumulation order included — equals the
    // placement-only runner bit for bit.
    let base = base_cfg();
    let t = trace();
    let policy = PlacementPolicy::LpnHash;
    let routed = t.split_routed(3, |i, r| policy.route(i, r, 3, t.footprint_pages));
    for mechanism in [Mechanism::Baseline, Mechanism::PnAr2] {
        for qd in [1u32, 8] {
            let via_redundant =
                redundant_run(&base, &t, 3, policy, Redundancy::None, None, mechanism, qd);
            let mut set = DeviceSet::new(3).expect("devices >= 1");
            let plain = run_one_queued_array_from(
                &mut set,
                &base,
                mechanism,
                OperatingPoint::new(2000.0, 6.0),
                &routed,
                t.footprint_pages,
                &ReadTimingParamTable::default(),
                &QueueSetup::single(),
                qd,
                None,
            )
            .expect("valid array configuration");
            assert_eq!(
                via_redundant,
                plain,
                "redundancy=none diverged from the plain array for {} at qd={qd}",
                mechanism.name()
            );
            assert!(via_redundant.redundancy.is_none());
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
    let reference = run_qd_sweep_array(
        &base,
        &traces,
        OperatingPoint::new(2000.0, 6.0),
        &[1, 8],
        &mechanisms,
        &setup,
        1,
        array,
    );
    for jobs in [1usize, 2] {
        let rerun = run_qd_sweep_array(
            &base,
            &traces,
            OperatingPoint::new(2000.0, 6.0),
            &[1, 8],
            &mechanisms,
            &setup,
            jobs,
            array,
        );
        assert_eq!(reference, rerun, "redundant sweep diverged at jobs={jobs}");
    }
    for c in &reference {
        let a = c.array.as_ref().expect("array cells carry array stats");
        let r = a.redundancy.as_ref().expect("redundant cells carry stats");
        assert_eq!(r.scheme, "replicate:2");
        // The cell's read class is the logical (wait-for-k) population.
        assert_eq!(c.reads.count, r.wait_for_k.count);
    }
}
