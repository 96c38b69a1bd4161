//! Array-layer suite: the `DeviceSet`/`Placement` stack must (1) route
//! every request to exactly one device under every policy, (2) reduce to
//! the legacy single-device engine bit-for-bit at `devices = 1`, (3) stay
//! deterministic across reruns and worker counts, (4) attribute array-tail
//! excursions to the per-device GC activity that caused them, and (5) keep
//! computing array quantiles from concatenated raw samples — never from
//! per-device quantiles — when redundancy fans requests out.

use ssd_readretry::prelude::*;
use ssd_readretry::sim::array::route_indices;

fn base_cfg() -> SsdConfig {
    SsdConfig::scaled_for_tests().with_seed(0xA88A_71E5)
}

fn trace() -> Trace {
    MsrcWorkload::Mds1.synthesize(400, 17)
}

const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::RoundRobin,
    PlacementPolicy::LpnHash,
    PlacementPolicy::HotCold,
];

#[test]
fn every_placement_is_an_exact_partition() {
    // Each request lands on exactly one in-range device, and splitting the
    // trace by the routing preserves per-device arrival order and loses
    // nothing: the split sub-traces re-interleave to the original trace.
    let t = trace();
    for devices in [2u32, 3, 4, 7] {
        for policy in POLICIES {
            let routed = route_indices(&t.requests, devices, policy, t.footprint_pages);
            assert_eq!(routed.len(), t.requests.len());
            assert!(
                routed.iter().all(|&d| d < devices),
                "{policy:?} out of range"
            );
            let split = t.split_routed(devices, |i, r| {
                policy.route(i, r, devices, t.footprint_pages)
            });
            assert_eq!(split.len(), devices as usize);
            let total: usize = split.iter().map(|s| s.requests.len()).sum();
            assert_eq!(total, t.requests.len(), "{policy:?} dropped requests");
            // Walk the original trace and consume each sub-trace in order:
            // per-device order preserved ⇔ each cursor advances monotonically.
            let mut cursors = vec![0usize; devices as usize];
            for (i, &d) in routed.iter().enumerate() {
                let sub = &split[d as usize];
                let k = cursors[d as usize];
                assert_eq!(
                    sub.requests[k].lpn, t.requests[i].lpn,
                    "{policy:?} reordered device {d} at request {i}"
                );
                cursors[d as usize] += 1;
            }
            assert_eq!(
                cursors,
                split.iter().map(|s| s.requests.len()).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn round_robin_stripes_by_request_index() {
    let t = trace();
    let routed = route_indices(
        &t.requests,
        4,
        PlacementPolicy::RoundRobin,
        t.footprint_pages,
    );
    for (i, &d) in routed.iter().enumerate() {
        assert_eq!(d as usize, i % 4, "stripe must be exact round-robin");
    }
}

#[test]
fn hash_routing_is_stable_and_lpn_consistent() {
    // Same trace, same answer (reruns cannot re-balance), and one LPN never
    // splits across devices — the consistent-hashing contract.
    let t = trace();
    let a = route_indices(&t.requests, 5, PlacementPolicy::LpnHash, t.footprint_pages);
    let b = route_indices(&t.requests, 5, PlacementPolicy::LpnHash, t.footprint_pages);
    assert_eq!(a, b, "hash routing must be deterministic");
    let mut by_lpn = std::collections::HashMap::new();
    for (req, &d) in t.requests.iter().zip(&a) {
        let prev = by_lpn.insert(req.lpn, d);
        assert!(
            prev.is_none() || prev == Some(d),
            "lpn {} split across devices",
            req.lpn
        );
    }
}

#[test]
fn tier_routing_pins_the_hot_quarter_to_the_first_half() {
    let t = trace();
    let devices = 4u32;
    let hot_devices = devices.div_ceil(2);
    let routed = route_indices(
        &t.requests,
        devices,
        PlacementPolicy::HotCold,
        t.footprint_pages,
    );
    for (req, &d) in t.requests.iter().zip(&routed) {
        if req.lpn < t.footprint_pages / 4 {
            assert!(d < hot_devices, "hot lpn {} left the hot tier", req.lpn);
        } else {
            assert!(
                d >= hot_devices,
                "cold lpn {} entered the hot tier",
                req.lpn
            );
        }
    }
}

/// Runs one closed-loop array replay through the serve-style per-query
/// runner and returns its report.
fn array_run(devices: u32, policy: PlacementPolicy, mechanism: Mechanism, qd: u32) -> ArrayReport {
    let base = base_cfg();
    let t = trace();
    let routed = t.split_routed(devices, |i, r| {
        policy.route(i, r, devices, t.footprint_pages)
    });
    let mut set = DeviceSet::new(devices).expect("devices >= 1");
    run_one_queued_array_from(
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
    .expect("valid array configuration")
}

#[test]
fn single_device_array_matches_the_legacy_engine_across_mechanisms_and_qd() {
    // `devices = 1` routes everything to device 0; the lone device's report
    // must equal the legacy per-query runner bit for bit.
    let base = base_cfg();
    let t = trace();
    let rpt = ReadTimingParamTable::default();
    let setup = QueueSetup::single();
    let point = OperatingPoint::new(2000.0, 6.0);
    for mechanism in [Mechanism::Baseline, Mechanism::Pr2, Mechanism::PnAr2] {
        for qd in [1u32, 8] {
            let array = array_run(1, PlacementPolicy::RoundRobin, mechanism, qd);
            let mut arena = SimArena::new();
            let legacy = run_one_queued_from(
                &mut arena, &base, mechanism, point, &t, &rpt, &setup, qd, None,
            );
            assert_eq!(array.devices.len(), 1);
            assert_eq!(
                array.devices[0],
                legacy,
                "single-device array diverged for {} at qd={qd}",
                mechanism.name()
            );
            assert_eq!(array.requests_completed, legacy.requests_completed);
            assert_eq!(array.events_processed, legacy.events_processed);
        }
    }
}

#[test]
fn array_runs_are_bit_identical_across_reruns_and_worker_budgets() {
    // Device workers only choose *where* a device simulates; the merged
    // report must not move across reruns or worker counts.
    let reference = array_run(3, PlacementPolicy::LpnHash, Mechanism::PnAr2, 8);
    assert_eq!(reference.device_count(), 3);
    assert!(reference.requests_completed > 0);
    assert_eq!(
        reference,
        array_run(3, PlacementPolicy::LpnHash, Mechanism::PnAr2, 8),
        "array rerun diverged"
    );
    let t = trace();
    let routed = t.split_routed(3, |i, r| {
        PlacementPolicy::LpnHash.route(i, r, 3, t.footprint_pages)
    });
    let slices: Vec<&[HostRequest]> = routed.iter().map(|s| s.requests.as_slice()).collect();
    let cfg =
        std::sync::Arc::new(base_cfg().with_condition(OperatingCondition::new(2000.0, 6.0, 30.0)));
    let rpt = ReadTimingParamTable::default();
    let mut set = DeviceSet::new(3).expect("devices >= 1");
    let mut run = |device_workers: usize| {
        set.run_queued_from(
            &cfg,
            &|| Mechanism::PnAr2.make_controller(&rpt),
            t.footprint_pages,
            &slices,
            &HostQueueConfig::single(ReplayMode::closed_loop(8)),
            None,
            device_workers,
        )
        .expect("valid array configuration")
    };
    let serial = run(1);
    for device_workers in [2usize, 3, 8] {
        assert_eq!(
            serial,
            run(device_workers),
            "array run diverged at device_workers={device_workers}"
        );
    }
}

#[test]
fn array_sweep_is_bit_identical_across_jobs_and_reruns() {
    let base = base_cfg();
    let traces = vec![trace()];
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let setup = QueueSetup::single();
    let array = ArraySetup::new(4, PlacementPolicy::RoundRobin);
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
        assert_eq!(reference, rerun, "array sweep diverged at jobs={jobs}");
    }
    for c in &reference {
        let a = c.array.as_ref().expect("array cells carry array stats");
        assert_eq!(a.devices, 4);
        assert_eq!(a.placement, "rr");
        assert_eq!(a.per_device.len(), 4);
        // Per-device attribution lives in `array`, not the per-queue fields.
        assert!(c.per_queue_reads.is_empty());
        assert!(c.per_queue_gc.is_empty());
        let merged: u64 = a.per_device.iter().map(|d| d.reads.count).sum();
        assert_eq!(merged, c.reads.count, "array reads must partition exactly");
        let slowest = a.slowest_device.expect("reads exist") as usize;
        assert!(slowest < 4);
        // The slowest device is the per-device p99.9 argmax.
        let slow_p999 = a.per_device[slowest].reads.p999.expect("device has reads");
        for d in &a.per_device {
            assert!(d.reads.p999.expect("device has reads") <= slow_p999);
        }
        // The array tail cannot beat the best device's tail.
        let best = a.best_read_p999.expect("reads exist");
        assert!(c.reads.p999.expect("reads exist") >= best);
        assert!(a.amplification_p999.expect("median exists") > 0.0);
    }
}

#[test]
fn gc_storm_on_one_device_is_attributed_in_the_array_tail() {
    // The acceptance case: a GC-stressed array run must report nonzero
    // per-device GC stalls, and the merged report's stall totals must be
    // exactly the sum of the per-device attributions.
    let mut base = base_cfg();
    base.chip.blocks_per_plane = 16;
    base.chip.pages_per_block = 12;
    let t = ssd_readretry::workloads::synth::gc_stress_trace(base.max_lpns(), 5_000);
    let devices = 4u32;
    let policy = PlacementPolicy::LpnHash;
    let routed = t.split_routed(devices, |i, r| {
        policy.route(i, r, devices, t.footprint_pages)
    });
    let mut set = DeviceSet::new(devices).expect("devices >= 1");
    let report = run_one_queued_array_from(
        &mut set,
        &base,
        Mechanism::PnAr2,
        OperatingPoint::new(2000.0, 6.0),
        &routed,
        t.footprint_pages,
        &ReadTimingParamTable::default(),
        &QueueSetup::single(),
        16,
        None,
    )
    .expect("valid array configuration");
    let stalls: u64 = (0..devices as usize)
        .map(|d| report.device_gc(d).stalls())
        .sum();
    assert!(stalls > 0, "GC-stress array run must record GC stalls");
    assert!(
        (0..devices as usize).any(|d| report.device_gc(d).stall_us > 0.0),
        "some device must absorb GC stall time"
    );
    assert!(report.slowest_device().is_some());
}

#[test]
fn device_count_mismatches_are_typed_errors() {
    // Trace-slice and image-fork width must both match the device set.
    let base = base_cfg();
    let t = trace();
    let policy = PlacementPolicy::RoundRobin;
    let routed = t.split_routed(2, |i, r| policy.route(i, r, 2, t.footprint_pages));
    let mut set = DeviceSet::new(3).expect("devices >= 1");
    let wrong_traces = run_one_queued_array_from(
        &mut set,
        &base,
        Mechanism::Baseline,
        OperatingPoint::new(2000.0, 6.0),
        &routed,
        t.footprint_pages,
        &ReadTimingParamTable::default(),
        &QueueSetup::single(),
        4,
        None,
    );
    assert!(
        wrong_traces.is_err(),
        "2 traces into 3 devices must be refused"
    );

    let bank = ImageBank::preconditioned(&base, [t.footprint_pages]).expect("valid configuration");
    let forks = bank
        .fork_for_array(t.footprint_pages, 2)
        .expect("bank covers");
    let routed3 = t.split_routed(3, |i, r| policy.route(i, r, 3, t.footprint_pages));
    let wrong_images = run_one_queued_array_from(
        &mut set,
        &base,
        Mechanism::Baseline,
        OperatingPoint::new(2000.0, 6.0),
        &routed3,
        t.footprint_pages,
        &ReadTimingParamTable::default(),
        &QueueSetup::single(),
        4,
        Some(forks.as_slice()),
    );
    assert!(
        wrong_images.is_err(),
        "a 2-slot fork into 3 devices must be refused"
    );
    assert!(bank.fork_for_array(t.footprint_pages, 0).is_err());
}

#[test]
fn array_quantiles_are_concatenated_samples_not_quantiles_of_quantiles() {
    // Under redundancy the array's latency classes must be computed from
    // the raw per-logical-request samples (each the wait-for-k order
    // statistic over its copies), never by aggregating per-device
    // quantiles: the counts expose the basis, and the wait-for-1 quantiles
    // sit *below* every per-device quantile — impossible for any
    // average/median of the per-device quantiles.
    let base = base_cfg();
    let t = trace();
    let array = ArraySetup::new(2, PlacementPolicy::RoundRobin)
        .with_redundancy(Redundancy::Replicate { r: 2 });
    let mut set = DeviceSet::new(2).expect("devices >= 1");
    let report = run_one_queued_redundant_from(
        &mut set,
        &base,
        Mechanism::PnAr2,
        OperatingPoint::new(2000.0, 6.0),
        &t,
        &array,
        &ReadTimingParamTable::default(),
        &QueueSetup::single(),
        8,
        None,
    )
    .expect("valid redundant configuration");
    let logical_reads = t.requests.iter().filter(|r| r.op == IoOp::Read).count() as u64;
    // The array read class counts logical requests; the per-device copy
    // populations are strictly larger (2x under full replication).
    assert_eq!(report.read_latency.count, logical_reads);
    let copy_total: u64 = report.devices.iter().map(|d| d.read_latency.count).sum();
    assert_eq!(copy_total, 2 * logical_reads);
    let per_device_p99: Vec<f64> = report
        .devices
        .iter()
        .map(|d| d.read_latency.p99.expect("copies exist"))
        .collect();
    let array_p99 = report.read_latency.p99.expect("reads exist");
    for &device_p99 in &per_device_p99 {
        assert!(
            array_p99 <= device_p99,
            "wait-for-1 p99 {array_p99} must not exceed device p99 {device_p99}"
        );
    }
    // amplification_p99 divides the *post-redundancy* array tail by the
    // best device tail, so hedged reads drive it to <= 1 here.
    let best_p99 = per_device_p99
        .iter()
        .copied()
        .min_by(|a, b| a.partial_cmp(b).expect("finite"))
        .expect("reads exist");
    let amp = report.amplification_p99().expect("reads exist");
    assert_eq!(amp, array_p99 / best_p99);
    assert!(
        amp <= 1.0,
        "replication across both devices must not amplify the p99: {amp}"
    );
}

#[test]
fn warm_started_array_sweep_matches_the_cold_start() {
    // Forking one preconditioned image across all N devices may only change
    // wall-clock: the warm cells must equal the cold re-preconditioning
    // path bit for bit.
    let base = base_cfg();
    let traces = vec![trace()];
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let setup = QueueSetup::single();
    let array = ArraySetup::new(2, PlacementPolicy::HotCold);
    let point = OperatingPoint::new(2000.0, 6.0);
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
        .expect("valid configuration");
    let cold = run_qd_sweep_array(&base, &traces, point, &[8], &mechanisms, &setup, 1, array);
    for jobs in [1usize, 2] {
        let warm = run_qd_sweep_array_from(
            &base,
            &traces,
            point,
            &[8],
            &mechanisms,
            &setup,
            jobs,
            0,
            array,
            &bank,
        )
        .expect("bank covers the sweep");
        assert_eq!(
            cold, warm,
            "warm-started array sweep diverged at jobs={jobs}"
        );
    }
}

#[test]
fn nonzero_shards_is_a_typed_error_on_the_kept_signatures() {
    // The channel-sharded engine is gone; the two signatures that still
    // carry its parameter accept only 0 and reject anything else with a
    // typed error before simulating.
    let base = base_cfg();
    let t = trace();
    let bank = ImageBank::preconditioned(&base, [t.footprint_pages]).expect("valid configuration");
    for devices in [1u32, 2] {
        let err: ConfigError = run_qd_sweep_array_from(
            &base,
            std::slice::from_ref(&t),
            OperatingPoint::new(2000.0, 6.0),
            &[8],
            &[Mechanism::Baseline],
            &QueueSetup::single(),
            1,
            2,
            ArraySetup::new(devices, PlacementPolicy::RoundRobin),
            &bank,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("sharded engine was removed"),
            "{err}"
        );
    }
    let routing = route_redundant(
        &t.requests,
        2,
        PlacementPolicy::RoundRobin,
        t.footprint_pages,
        Redundancy::Replicate { r: 2 },
        None,
    );
    let rpt = ReadTimingParamTable::default();
    let err: ConfigError = DeviceSet::new(2)
        .expect("devices >= 1")
        .run_redundant_from(
            &std::sync::Arc::new(base),
            &|| Mechanism::Baseline.make_controller(&rpt),
            t.footprint_pages,
            &routing,
            &HostQueueConfig::single(ReplayMode::closed_loop(8)),
            None,
            1,
            1,
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("sharded engine was removed"),
        "{err}"
    );
}
