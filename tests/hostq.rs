//! NVMe multi-queue front-end: arbitration fairness, starvation drain, and
//! determinism.
//!
//! * WRR with weights `[3, 1]` fetches admitted requests in an exact 3:1
//!   ratio while both queues are backlogged (arbiter level), and the skew
//!   surfaces in the per-queue latency distributions (device level);
//! * a starved low-weight queue still drains completely once the
//!   high-weight queue idles;
//! * multi-queue sweeps are bit-identical across `--jobs` and reruns.

use ssd_readretry::prelude::*;

fn fresh_reads(n: u64) -> Vec<HostRequest> {
    (0..n)
        .map(|i| HostRequest::new(SimTime::ZERO, IoOp::Read, i, 1))
        .collect()
}

fn run_queued(trace: &[HostRequest], queues: &HostQueueConfig) -> ssd_readretry::sim::SimReport {
    run_queued_at(trace, queues, 0.0, 0.0)
}

fn run_queued_at(
    trace: &[HostRequest],
    queues: &HostQueueConfig,
    pec: f64,
    months: f64,
) -> ssd_readretry::sim::SimReport {
    let cfg = SsdConfig::scaled_for_tests().with_condition(
        ssd_readretry::flash::calibration::OperatingCondition::new(pec, months, 30.0),
    );
    Ssd::new(cfg, Box::new(BaselineController::new()), 1_000)
        .expect("valid configuration")
        .run_with_queues(trace, queues)
}

#[test]
fn wrr_arbiter_admits_in_an_exact_3_to_1_ratio_while_backlogged() {
    let mut arb = Arbiter::new(ArbPolicy::WeightedRoundRobin, 1, vec![3, 1]);
    let mut counts = [0u64; 2];
    for _ in 0..4_000 {
        counts[arb.pick(|_| true).expect("both queues backlogged")] += 1;
    }
    assert_eq!(counts, [3_000, 1_000], "WRR [3,1] must fetch exactly 3:1");
    // Burst scales both sides of the ratio, preserving it.
    let mut arb = Arbiter::new(ArbPolicy::WeightedRoundRobin, 2, vec![3, 1]);
    let picks: Vec<usize> = (0..16).map(|_| arb.pick(|_| true).unwrap()).collect();
    assert_eq!(picks.iter().filter(|&&q| q == 0).count(), 12);
}

#[test]
fn wrr_weight_skew_surfaces_in_per_queue_tails() {
    // Both queues closed-loop over equal 120-request stripes, sharing an
    // 8-slot device window at an aged operating point (cold reads retry, so
    // service times are heterogeneous and completions spread out — on a
    // fresh SSD identical latencies complete in same-tick bursts that
    // alternate the freed slots 1:1 regardless of weights): while both are
    // backlogged the 3:1 arbitration gives queue 0 most of the window, so
    // queue 1's requests wait far longer in their submission queue.
    let trace = fresh_reads(240);
    let wrr = HostQueueConfig::uniform(2, ReplayMode::closed_loop(8))
        .with_arb(ArbPolicy::WeightedRoundRobin)
        .with_weights(&[3, 1])
        .with_window(8);
    let report = run_queued_at(&trace, &wrr, 2000.0, 6.0);
    assert_eq!(report.requests_completed, 240);
    assert_eq!(report.per_queue.len(), 2);
    // Favoritism protects the favored queue's *tail*: when admission
    // contention peaks, queue 0's credits win the freed slots and queue 1's
    // unlucky requests absorb the wait (medians stay close — the freed-slot
    // handoff serves both queues when the other's backlog is empty).
    let p95_fast = report.per_queue[0].reads.p95.expect("queue 0 has reads");
    let p95_slow = report.per_queue[1].reads.p95.expect("queue 1 has reads");
    assert!(
        p95_slow > 1.8 * p95_fast,
        "weight-1 queue's tail must stretch: q0 p95 {p95_fast} vs q1 p95 {p95_slow}"
    );
    // The aggregate classes still cover every request.
    assert_eq!(report.read_latency.count, 240);
    assert_eq!(
        report.per_queue.iter().map(|q| q.completed).sum::<u64>(),
        240
    );

    // Control: plain RR over the same topology treats the queues equally.
    let rr = HostQueueConfig::uniform(2, ReplayMode::closed_loop(8)).with_window(8);
    let fair = run_queued_at(&trace, &rr, 2000.0, 6.0);
    let p95_a = fair.per_queue[0].reads.p95.expect("reads");
    let p95_b = fair.per_queue[1].reads.p95.expect("reads");
    assert!(
        (p95_a - p95_b).abs() <= 0.35 * p95_a.max(p95_b),
        "RR queues must see comparable tails: {p95_a} vs {p95_b}"
    );
}

#[test]
fn starved_queue_drains_after_the_bursty_queue_idles() {
    // Queue 0 carries a heavy weight and three quarters of the trace; once
    // its stripe is exhausted the arbiter's rotation serves queue 1 alone,
    // so the starved queue must still drain completely (the simulator's
    // drain asserts would fail loudly otherwise).
    let trace = fresh_reads(200);
    let queues = HostQueueConfig::uniform(2, ReplayMode::closed_loop(16))
        .with_arb(ArbPolicy::WeightedRoundRobin)
        .with_weights(&[7, 1])
        .with_window(4);
    let report = run_queued(&trace, &queues);
    assert_eq!(report.requests_completed, 200);
    assert_eq!(report.per_queue[0].completed, 100);
    assert_eq!(report.per_queue[1].completed, 100);
    // Every queue-1 read completed with a real (positive) latency tail.
    let q1 = &report.per_queue[1].reads;
    assert_eq!(q1.count, 100);
    assert!(q1.p999.expect("drained queue has a tail") > 0.0);
}

#[test]
fn multi_queue_sweep_is_bit_identical_across_jobs_and_reruns() {
    let cfg = SsdConfig::scaled_for_tests();
    let traces = vec![
        MsrcWorkload::Mds1.synthesize(250, 3),
        YcsbWorkload::C.synthesize(250, 3),
    ];
    let point = OperatingPoint::new(2000.0, 6.0);
    let setup = QueueSetup {
        queues: 4,
        arb: ArbPolicy::WeightedRoundRobin,
        burst: 2,
        weights: Some(vec![4, 3, 2, 1]),
        window: None,
    };
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let qd =
        RunSpec::qd_sweep(&cfg, &traces, point, &[4, 16], &mechanisms).with_front(setup.clone());
    let sweep = |jobs: usize| {
        run(&qd.clone().with_jobs(jobs), None)
            .expect("valid spec")
            .qd
    };
    let serial = sweep(1);
    assert_eq!(serial.len(), 8);
    for jobs in [2, 4, 8] {
        assert_eq!(serial, sweep(jobs), "--jobs {jobs} diverged from serial");
    }
    assert_eq!(serial, sweep(4), "repeated parallel runs diverged");
    for c in &serial {
        assert_eq!(c.queues, 4);
        assert_eq!(c.per_queue_reads.len(), 4);
    }
    // The rate-sweep sibling holds the same invariant.
    let rate = RunSpec::rate_sweep(&cfg, &traces, point, &[1.0, 4.0], &[Mechanism::Baseline])
        .with_front(setup);
    let rate_sweep = |jobs: usize| {
        run(&rate.clone().with_jobs(jobs), None)
            .expect("valid spec")
            .rate
    };
    assert_eq!(rate_sweep(1), rate_sweep(4));
}

#[test]
fn invalid_front_end_configurations_are_rejected() {
    let zero_window = HostQueueConfig::single(ReplayMode::OpenLoop).with_window(0);
    assert!(zero_window.validate().is_err());
    let err: ConfigError = zero_window.validate().unwrap_err();
    assert!(String::from(err).contains("window"));
    assert!(HostQueueConfig::uniform(3, ReplayMode::closed_loop(2))
        .with_arb(ArbPolicy::WeightedRoundRobin)
        .with_weights(&[3, 2, 1])
        .validate()
        .is_ok());
}
