//! Array-layer suite: the `DeviceSet`/`Placement` stack must (1) route
//! every request to exactly one device under every policy, (2) reduce to
//! the legacy single-device engine bit-for-bit at `devices = 1`, (3) stay
//! deterministic across reruns and worker counts, (4) attribute array-tail
//! excursions to the per-device GC activity that caused them, and (5) keep
//! computing array quantiles from concatenated raw samples — never from
//! per-device quantiles — when redundancy fans requests out.

use ssd_readretry::core::experiment::run_qd_sweep_array_from;
use ssd_readretry::prelude::*;

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

/// Routes `t` across `devices` under `policy` with no redundancy and no
/// failure — the routing `run` builds for a plain array cell.
fn route_none(t: &Trace, devices: u32, policy: PlacementPolicy) -> RedundantRouting {
    route_redundant(
        &t.requests,
        devices,
        policy,
        t.footprint_pages,
        Redundancy::None,
        None,
    )
}

/// The device each request of `t` lands on under `policy`: its single
/// `none` copy.
fn primaries(t: &Trace, devices: u32, policy: PlacementPolicy) -> Vec<u32> {
    let routing = route_none(t, devices, policy);
    (0..routing.logical_len())
        .map(|i| routing.copies_of(i)[0].0)
        .collect()
}

#[test]
fn every_placement_is_an_exact_partition() {
    // Under `none` each logical request has exactly one copy, on its
    // placement's device, waited for alone; the per-device streams keep
    // arrival order and lose nothing: they re-interleave to the original
    // trace.
    let t = trace();
    for devices in [2u32, 3, 4, 7] {
        for policy in POLICIES {
            let routing = route_none(&t, devices, policy);
            assert_eq!(routing.logical_len(), t.requests.len());
            assert!(routing.rebuild_reads().iter().all(|&n| n == 0));
            let streams = routing.device_requests();
            assert_eq!(streams.len(), devices as usize);
            let total: usize = streams.iter().map(Vec::len).sum();
            assert_eq!(total, t.requests.len(), "{policy:?} dropped requests");
            // Walk the original trace and consume each stream in order:
            // per-device order preserved ⇔ each cursor advances by one.
            let mut cursors = vec![0u32; devices as usize];
            for (i, r) in t.requests.iter().enumerate() {
                let &[(d, pos)] = routing.copies_of(i) else {
                    panic!("{policy:?}: request {i} must have exactly one copy");
                };
                assert_eq!(d, policy.route(i, r, devices, t.footprint_pages));
                assert_eq!(routing.wait_for(i), 1);
                assert_eq!(pos, cursors[d as usize], "{policy:?} reordered device {d}");
                assert_eq!(streams[d as usize][pos as usize], *r);
                cursors[d as usize] += 1;
            }
            assert_eq!(
                cursors,
                streams.iter().map(|s| s.len() as u32).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn round_robin_stripes_by_request_index() {
    let t = trace();
    let routed = primaries(&t, 4, PlacementPolicy::RoundRobin);
    for (i, &d) in routed.iter().enumerate() {
        assert_eq!(d as usize, i % 4, "stripe must be exact round-robin");
    }
}

#[test]
fn hash_routing_is_stable_and_lpn_consistent() {
    // Same trace, same answer (reruns cannot re-balance), and one LPN never
    // splits across devices — the consistent-hashing contract.
    let t = trace();
    let a = primaries(&t, 5, PlacementPolicy::LpnHash);
    let b = primaries(&t, 5, PlacementPolicy::LpnHash);
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
    let routed = primaries(&t, devices, PlacementPolicy::HotCold);
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

/// One closed-loop array cell through `run`: `mechanism` at `qd` across
/// `devices` devices routed by `policy`.
fn array_cell(devices: u32, policy: PlacementPolicy, mechanism: Mechanism, qd: u32) -> QdSweepCell {
    let base = base_cfg();
    let traces = [trace()];
    let point = OperatingPoint::new(2000.0, 6.0);
    let spec = RunSpec::qd_sweep(&base, &traces, point, &[qd], &[mechanism])
        .with_array(ArraySetup::new(devices, policy));
    run(&spec, None)
        .expect("valid array configuration")
        .qd
        .remove(0)
}

/// `base_cfg` aged to the (2K, 6 mo) point every array test runs at.
fn aged_cfg() -> std::sync::Arc<SsdConfig> {
    let base = base_cfg();
    let temp_c = base.condition.temp_c;
    std::sync::Arc::new(base.with_condition(OperatingCondition::new(2000.0, 6.0, temp_c)))
}

#[test]
fn single_device_array_matches_the_legacy_engine_across_mechanisms_and_qd() {
    // A one-device set routes everything to device 0; the lone device's
    // report must equal the single-device engine bit for bit, also when the
    // set's worker arena is reused across runs.
    let base = base_cfg();
    let t = trace();
    let rpt = ReadTimingParamTable::default();
    let point = OperatingPoint::new(2000.0, 6.0);
    let cfg = aged_cfg();
    let routing = route_none(&t, 1, PlacementPolicy::RoundRobin);
    let mut set = DeviceSet::new(1).expect("devices >= 1");
    for mechanism in [Mechanism::Baseline, Mechanism::Pr2, Mechanism::PnAr2] {
        for qd in [1u32, 8] {
            let array = set
                .run_redundant_from(
                    &cfg,
                    &|| mechanism.make_controller(&rpt),
                    t.footprint_pages,
                    &routing,
                    &HostQueueConfig::single(ReplayMode::closed_loop(qd)),
                    None,
                    0,
                    1,
                )
                .expect("valid array configuration");
            let legacy = run_one_with_mode(
                &base,
                mechanism,
                point,
                &t,
                &rpt,
                ReplayMode::closed_loop(qd),
            );
            assert_eq!(array.devices.len(), 1);
            assert_eq!(
                array.devices[0],
                legacy,
                "single-device array diverged for {} at qd={qd}",
                mechanism.name()
            );
            assert_eq!(array.requests_completed, legacy.requests_completed);
            assert_eq!(array.event_kinds, legacy.event_kinds);
            assert!(array.redundancy.is_none());
        }
    }
}

#[test]
fn array_runs_are_bit_identical_across_reruns_and_worker_budgets() {
    // Device workers only choose *where* a device simulates; the merged
    // report must not move across reruns or worker counts.
    let reference = array_cell(3, PlacementPolicy::LpnHash, Mechanism::PnAr2, 8);
    let stats = reference.array.as_ref().expect("array cell");
    assert_eq!(stats.devices, 3);
    assert!(stats.per_device.iter().map(|d| d.completed).sum::<u64>() > 0);
    assert_eq!(
        reference,
        array_cell(3, PlacementPolicy::LpnHash, Mechanism::PnAr2, 8),
        "array rerun diverged"
    );
    let t = trace();
    let routing = route_none(&t, 3, PlacementPolicy::LpnHash);
    let cfg = aged_cfg();
    let rpt = ReadTimingParamTable::default();
    let mut set = DeviceSet::new(3).expect("devices >= 1");
    let mut run = |device_workers: usize| {
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
        .expect("valid array configuration")
    };
    let serial = run(1);
    for device_workers in [2usize, 3, 8, 1] {
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
    let point = OperatingPoint::new(2000.0, 6.0);
    let spec = RunSpec::qd_sweep(&base, &traces, point, &[1, 8], &mechanisms)
        .with_front(setup)
        .with_array(array);
    let sweep = |jobs: usize| {
        run(&spec.clone().with_jobs(jobs), None)
            .expect("valid array configuration")
            .qd
    };
    let reference = sweep(1);
    for jobs in [1usize, 2] {
        assert_eq!(
            reference,
            sweep(jobs),
            "array sweep diverged at jobs={jobs}"
        );
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
    // per-device GC stalls and name the device behind the array tail.
    let mut base = base_cfg();
    base.chip.blocks_per_plane = 16;
    base.chip.pages_per_block = 12;
    let traces = [ssd_readretry::workloads::synth::gc_stress_trace(
        base.max_lpns(),
        5_000,
    )];
    let point = OperatingPoint::new(2000.0, 6.0);
    let spec = RunSpec::qd_sweep(&base, &traces, point, &[16], &[Mechanism::PnAr2])
        .with_array(ArraySetup::new(4, PlacementPolicy::LpnHash));
    let cell = run(&spec, None)
        .expect("valid array configuration")
        .qd
        .remove(0);
    let report = cell.array.expect("array cell");
    let stalls: u64 = report.per_device.iter().map(|d| d.gc.stalls()).sum();
    assert!(stalls > 0, "GC-stress array run must record GC stalls");
    assert!(
        report.per_device.iter().any(|d| d.gc.stall_us > 0.0),
        "some device must absorb GC stall time"
    );
    assert!(report.slowest_device.is_some());
}

#[test]
fn device_count_mismatches_are_typed_errors() {
    // Routing and image-fork width must both match the device set, and
    // `run` refuses an array wider than the workload it must feed.
    let base = base_cfg();
    let t = trace();
    let cfg = aged_cfg();
    let rpt = ReadTimingParamTable::default();
    let policy = PlacementPolicy::RoundRobin;
    let mut set = DeviceSet::new(3).expect("devices >= 1");
    let mut run_on = |routing: &RedundantRouting, images: Option<&[&DeviceImage]>| {
        set.run_redundant_from(
            &cfg,
            &|| Mechanism::Baseline.make_controller(&rpt),
            t.footprint_pages,
            routing,
            &HostQueueConfig::single(ReplayMode::closed_loop(4)),
            images,
            0,
            1,
        )
    };
    assert!(
        run_on(&route_none(&t, 2, policy), None).is_err(),
        "a 2-device routing into 3 devices must be refused"
    );

    let bank = ImageBank::preconditioned(&base, [t.footprint_pages]).expect("valid configuration");
    let forks = bank
        .fork_for_array(t.footprint_pages, 2)
        .expect("bank covers");
    assert!(
        run_on(&route_none(&t, 3, policy), Some(forks.as_slice())).is_err(),
        "a 2-slot fork into 3 devices must be refused"
    );
    assert!(bank.fork_for_array(t.footprint_pages, 0).is_err());

    let traces = [t];
    let too_wide = traces[0].len() as u32 + 1;
    let spec = RunSpec::qd_sweep(
        &base,
        &traces,
        OperatingPoint::new(2000.0, 6.0),
        &[4],
        &[Mechanism::Baseline],
    )
    .with_array(ArraySetup::new(too_wide, policy));
    let err = run(&spec, Some(&bank)).unwrap_err();
    assert!(err.to_string().contains("exceed"), "{err}");
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
    let logical_reads = t.requests.iter().filter(|r| r.op == IoOp::Read).count() as u64;
    let traces = [t];
    let point = OperatingPoint::new(2000.0, 6.0);
    let spec =
        RunSpec::qd_sweep(&base, &traces, point, &[8], &[Mechanism::PnAr2]).with_array(array);
    let cell = run(&spec, None)
        .expect("valid redundant configuration")
        .qd
        .remove(0);
    let report = cell.array.expect("array cell");
    // The array read class counts logical requests; the per-device copy
    // populations are strictly larger (2x under full replication).
    assert_eq!(cell.reads.count, logical_reads);
    let copy_total: u64 = report.per_device.iter().map(|d| d.reads.count).sum();
    assert_eq!(copy_total, 2 * logical_reads);
    let per_device_p99: Vec<f64> = report
        .per_device
        .iter()
        .map(|d| d.reads.p99.expect("copies exist"))
        .collect();
    let array_p99 = cell.reads.p99.expect("reads exist");
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
    let amp = report.amplification_p99.expect("reads exist");
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
    let spec = RunSpec::qd_sweep(&base, &traces, point, &[8], &mechanisms).with_array(array);
    let cold = run(&spec, None).expect("valid array configuration").qd;
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
