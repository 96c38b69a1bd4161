//! Failure injection — two layers of it:
//!
//! * page-level: outlier pages whose final-step RBER exceeds the reduced-tPRE
//!   budget must trigger AR²'s documented fallback (§6.2 — restore default
//!   timing and repeat the read-retry) without losing any read;
//! * device-level: a `--fail-device` loss mid-run must reroute new requests
//!   to the survivors, inject deterministic rebuild reads across them, and
//!   conserve every logical completion — while a failure beyond the trace
//!   horizon must be structurally invisible.

use ssd_readretry::prelude::*;

fn outlier_cfg(rate: f64) -> SsdConfig {
    let mut cfg = SsdConfig::scaled_for_tests();
    cfg.outlier_rate = rate;
    cfg
}

fn cold_read_trace(n: u64) -> Trace {
    let requests = (0..n)
        .map(|i| HostRequest::new(SimTime::from_us(i * 2_000), IoOp::Read, i * 13, 1))
        .collect();
    Trace::new("outliers", requests, 20_000)
}

#[test]
fn outliers_still_complete_under_ar2_fallback() {
    let cfg = outlier_cfg(0.25);
    let point = OperatingPoint::new(2000.0, 12.0);
    let rpt = ReadTimingParamTable::default();
    let trace = cold_read_trace(120);
    for m in [Mechanism::Ar2, Mechanism::PnAr2] {
        let report = run_one(&cfg, m, point, &trace, &rpt);
        assert_eq!(
            report.read_failures,
            0,
            "{}: outliers must fall back to default timing, not fail",
            m.name()
        );
        assert_eq!(report.requests_completed, 120);
    }
}

#[test]
fn outlier_fallback_costs_latency_but_baseline_unaffected() {
    let point = OperatingPoint::new(2000.0, 12.0);
    let rpt = ReadTimingParamTable::default();
    let trace = cold_read_trace(120);

    // Baseline uses default timing throughout: outliers are invisible
    // (their final-step errors still fit the 72-bit capability).
    let clean = run_one(&outlier_cfg(0.0), Mechanism::Baseline, point, &trace, &rpt);
    let dirty = run_one(&outlier_cfg(0.25), Mechanism::Baseline, point, &trace, &rpt);
    assert_eq!(clean.avg_response_us(), dirty.avg_response_us());

    // AR2 pays for outliers (a full reduced walk + restore + default walk),
    // so its advantage shrinks as the outlier rate grows.
    let ar2_clean = run_one(&outlier_cfg(0.0), Mechanism::Ar2, point, &trace, &rpt);
    let ar2_dirty = run_one(&outlier_cfg(0.25), Mechanism::Ar2, point, &trace, &rpt);
    assert!(
        ar2_dirty.avg_response_us() > ar2_clean.avg_response_us(),
        "outliers must cost AR2 latency: {} vs {}",
        ar2_dirty.avg_response_us(),
        ar2_clean.avg_response_us()
    );
    // ...but fallback reads remain bounded: even with 25 % outliers AR2 must
    // not collapse to worse than Baseline by more than the documented
    // worst-case (double walk).
    assert!(ar2_dirty.avg_response_us() < 2.5 * dirty.avg_response_us());
}

#[test]
fn zero_outlier_rate_matches_paper_observation() {
    // The paper never observed an outlier in 10⁷ pages; at rate 0 the AR2
    // fallback path must never run: exactly 2 SET FEATUREs per retried read
    // (install + rollback).
    let cfg = outlier_cfg(0.0);
    let point = OperatingPoint::new(2000.0, 12.0);
    let rpt = ReadTimingParamTable::default();
    let trace = cold_read_trace(50);
    let report = run_one(&cfg, Mechanism::Ar2, point, &trace, &rpt);
    assert_eq!(report.set_features, 2 * 50);
}

/// Runs one closed-loop replicated array replay with an optional device
/// loss through the layers `run` drives for a redundant array cell: the
/// failure-aware routing, then the wait-for-k merge of the device runs.
fn replicated_run(t: &Trace, failure: Option<FailurePlan>) -> ArrayReport {
    array_run(t, Redundancy::Replicate { r: 2 }, failure)
}

/// [`replicated_run`] under any redundancy scheme.
fn array_run(t: &Trace, redundancy: Redundancy, failure: Option<FailurePlan>) -> ArrayReport {
    let base = SsdConfig::scaled_for_tests().with_seed(0xA88A_71E5);
    let temp_c = base.condition.temp_c;
    let cfg =
        std::sync::Arc::new(base.with_condition(OperatingCondition::new(2000.0, 6.0, temp_c)));
    let routing = route_redundant(
        &t.requests,
        4,
        PlacementPolicy::LpnHash,
        t.footprint_pages,
        redundancy,
        failure,
    );
    let rpt = ReadTimingParamTable::default();
    DeviceSet::new(4)
        .expect("devices >= 1")
        .run_redundant_from(
            &cfg,
            &|| Mechanism::PnAr2.make_controller(&rpt),
            t.footprint_pages,
            &routing,
            &HostQueueConfig::single(ReplayMode::closed_loop(8)),
            None,
            0,
            1,
        )
        .expect("valid redundant configuration")
}

#[test]
fn device_loss_reroutes_to_survivors_and_conserves_completions() {
    let t = MsrcWorkload::Mds1.synthesize(400, 17);
    let failed = 1u32;
    let fail_at = t.requests[t.requests.len() / 2].arrival;
    let report = replicated_run(
        &t,
        Some(FailurePlan {
            device: failed,
            at: fail_at,
        }),
    );
    let stats = report.redundancy.as_ref().expect("redundant run has stats");
    assert_eq!(stats.failed_device, Some(failed));
    // Every logical request still completes exactly once: the loss moves
    // copies, it does not lose requests.
    assert_eq!(report.requests_completed, t.requests.len() as u64);
    assert_eq!(
        stats.wait_for_k.count,
        t.requests.iter().filter(|r| r.op == IoOp::Read).count() as u64
    );
    // The dead device absorbs no rebuild traffic; the survivors absorb all
    // of it, and each device's completion count decomposes exactly into its
    // copy fan-out plus its rebuild share.
    assert_eq!(stats.rebuild_reads[failed as usize], 0);
    let rebuild_total: u64 = stats.rebuild_reads.iter().sum();
    assert!(
        rebuild_total > 0,
        "a mid-run loss must inject rebuild reads"
    );
    for d in 0..4usize {
        assert_eq!(
            report.devices[d].requests_completed,
            stats.fanout_reads[d] + stats.fanout_writes[d] + stats.rebuild_reads[d],
            "device {d} completions must be copies + rebuild reads"
        );
    }
    // The mid-trace loss is visible in the fan-out: the failed device served
    // copies before `fail_at` but fewer than any survivor.
    let failed_copies = stats.fanout_reads[failed as usize] + stats.fanout_writes[failed as usize];
    assert!(failed_copies > 0, "pre-failure copies complete normally");
    for d in (0..4usize).filter(|&d| d != failed as usize) {
        assert!(
            stats.fanout_reads[d] + stats.fanout_writes[d] > failed_copies,
            "survivor {d} must serve more copies than the failed device"
        );
    }
}

#[test]
fn failure_beyond_the_trace_horizon_is_structurally_invisible() {
    // A `--fail-at-us` after the last arrival never reroutes anything and
    // never injects rebuild reads: the run must be bit-identical to the
    // same replicated run with no failure at all.
    let t = MsrcWorkload::Mds1.synthesize(400, 17);
    let horizon = t.requests.last().expect("non-empty trace").arrival;
    let beyond = replicated_run(
        &t,
        Some(FailurePlan {
            device: 1,
            at: horizon + SimTime::from_us(1),
        }),
    );
    let unfailed = replicated_run(&t, None);
    assert_eq!(
        beyond, unfailed,
        "a failure beyond the horizon must be byte-identical to no failure"
    );
    assert_eq!(
        beyond
            .redundancy
            .as_ref()
            .expect("redundant run has stats")
            .failed_device,
        None
    );
    // The failure plan alone is what attaches redundancy stats, even under
    // `none` and even when the routing drops the failure: such a run
    // differs from the unfailed `none` run only by carrying them.
    let none_beyond = array_run(
        &t,
        Redundancy::None,
        Some(FailurePlan {
            device: 1,
            at: horizon + SimTime::from_us(1),
        }),
    );
    let mut none_unfailed = array_run(&t, Redundancy::None, None);
    assert!(none_unfailed.redundancy.is_none());
    let stats = none_beyond
        .redundancy
        .clone()
        .expect("a failure plan attaches stats");
    assert_eq!(stats.scheme, "none");
    assert_eq!(stats.failed_device, None);
    assert!(stats.rebuild_reads.iter().all(|&n| n == 0));
    let reads = t.requests.iter().filter(|r| r.op == IoOp::Read).count() as u64;
    assert_eq!(stats.fanout_reads.iter().sum::<u64>(), reads);
    none_unfailed.redundancy = Some(stats);
    assert_eq!(none_beyond, none_unfailed);
}
