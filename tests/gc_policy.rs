//! GC-policy suite: the pluggable garbage-collection policies of
//! `rr_sim::gc`.
//!
//! Two contracts are pinned here:
//!
//! 1. **Default neutrality** — `GcPolicy::Greedy` (the default) is
//!    bit-identical to a config that never mentions the policy, across
//!    replay modes and the multi-queue front end, so the policy subsystem
//!    cannot perturb the repository's baseline outputs.
//! 2. **Policies bite** — on a write-heavy workload that keeps garbage
//!    collection running, `QueueShield` strictly flattens the shielded
//!    queue's read p99 at QD ≥ 16 versus the greedy control, `ReadPreempt`
//!    spends its per-job preemption budget, `WindowedTokens` defers job
//!    starts, and every GC-induced stall is attributed to the host queue
//!    that was waiting.

use ssd_readretry::prelude::*;
use ssd_readretry::sim::metrics::SimReport;

/// The GC-pressure geometry of the FTL/engine unit tests: few small blocks,
/// so a short write-heavy trace exhausts the free pool and GC runs
/// continuously.
fn gc_cfg(policy: GcPolicy) -> SsdConfig {
    let mut cfg = SsdConfig::scaled_for_tests()
        .with_seed(0x6C_9011)
        .with_gc_policy(policy);
    cfg.chip.blocks_per_plane = 16;
    cfg.chip.pages_per_block = 12;
    cfg
}

/// The shared GC-stress generator (`rr_workloads::synth::gc_stress_trace`,
/// the same one `repro --gc-stress` runs): alternating reads over the whole
/// footprint and writes hammering a hot quarter of it. Striped over two
/// host queues, every read lands on queue 0 (the latency-critical reader)
/// and every write on queue 1 (the hammer).
fn write_heavy_trace(footprint: u64, n: usize) -> Vec<HostRequest> {
    ssd_readretry::workloads::synth::gc_stress_trace(footprint, n).requests
}

/// Two closed-loop queues at `qd` each, WRR 2:1 favoring the reader queue,
/// window = `qd` — the front end of the QD sweeps.
fn two_queue_front(qd: u32) -> HostQueueConfig {
    HostQueueConfig::uniform(2, ReplayMode::closed_loop(qd))
        .with_arb(ArbPolicy::WeightedRoundRobin)
        .with_weights(&[2, 1])
        .with_window(qd)
}

fn run_policy(policy: GcPolicy, qd: u32) -> SimReport {
    let cfg = gc_cfg(policy);
    let footprint = cfg.max_lpns();
    let trace = write_heavy_trace(footprint, 2_000);
    Ssd::new(cfg, Box::new(BaselineController::new()), footprint)
        .expect("valid configuration")
        .run_with_queues(&trace, &two_queue_front(qd))
}

#[test]
fn default_config_is_bit_identical_to_explicit_greedy() {
    // A config that never mentions the GC policy and one that sets
    // `GcPolicy::Greedy` explicitly must be indistinguishable, mode by mode.
    let implicit = {
        let mut cfg = SsdConfig::scaled_for_tests().with_seed(0x6C_9011);
        cfg.chip.blocks_per_plane = 16;
        cfg.chip.pages_per_block = 12;
        cfg
    };
    assert_eq!(implicit.gc_policy, GcPolicy::Greedy);
    let explicit = gc_cfg(GcPolicy::Greedy);
    let footprint = implicit.max_lpns();
    let trace = write_heavy_trace(footprint, 1_200);
    for mode in [
        ReplayMode::OpenLoop,
        ReplayMode::open_loop_rate(4.0),
        ReplayMode::closed_loop(16),
    ] {
        let run = |cfg: &SsdConfig| {
            Ssd::new(cfg.clone(), Box::new(BaselineController::new()), footprint)
                .expect("valid configuration")
                .run_with_queues(&trace, &HostQueueConfig::single(mode))
        };
        let a = run(&implicit);
        let b = run(&explicit);
        assert_eq!(a, b, "explicit Greedy diverged under {mode:?}");
        assert!(a.gc_collections > 0, "workload must exercise GC");
    }
}

#[test]
fn greedy_attributes_gc_stalls_to_the_waiting_queue() {
    let report = run_policy(GcPolicy::Greedy, 16);
    assert!(report.gc_collections > 0, "workload must exercise GC");
    assert_eq!(report.per_queue.len(), 2);
    let q0 = &report.per_queue[0].gc;
    // Queue 0 (all reads) absorbs GC interference: its reads enqueue behind
    // (or suspend) in-flight GC operations, and that shows up as attributed
    // stalls with real stall time.
    assert!(q0.stalls() > 0, "reader queue saw no GC stalls: {q0:?}");
    assert!(q0.stall_us > 0.0);
    // Greedy grants no policy-forced preemptions and defers nothing.
    assert_eq!(q0.preemptions, 0);
    assert_eq!(q0.deferrals, 0);
    assert_eq!(report.per_queue[1].gc.deferrals, 0);
}

#[test]
fn queue_shield_flattens_the_shielded_queues_p99_at_qd16() {
    // The ISSUE's acceptance scenario: under a write-heavy workload at
    // QD ≥ 16, shielding queue 0 must leave its read p99 strictly below the
    // unshielded (greedy) control's.
    let control = run_policy(GcPolicy::Greedy, 16);
    let shielded = run_policy(GcPolicy::QueueShield { queue: 0 }, 16);
    assert!(control.gc_collections > 0);
    assert!(
        shielded.gc_collections > 0,
        "the shield defers GC, it must not starve it"
    );
    assert_eq!(shielded.requests_completed, control.requests_completed);
    let control_p99 = control.per_queue[0].reads.p99.expect("queue 0 reads");
    let shielded_p99 = shielded.per_queue[0].reads.p99.expect("queue 0 reads");
    assert!(
        shielded_p99 < control_p99,
        "shielded q0 p99 {shielded_p99} must be strictly below the control's {control_p99}"
    );
    // The shield works by deferring GC starts on queue 0's behalf.
    assert!(
        shielded.per_queue[0].gc.deferrals > 0,
        "shield recorded no deferrals: {:?}",
        shielded.per_queue[0].gc
    );
}

#[test]
fn read_preempt_spends_its_per_job_budget_on_forced_suspensions() {
    let greedy = run_policy(GcPolicy::Greedy, 16);
    let preempt = run_policy(GcPolicy::ReadPreempt { budget: 4 }, 16);
    assert!(preempt.gc_collections > 0);
    assert_eq!(preempt.requests_completed, greedy.requests_completed);
    let q0 = &preempt.per_queue[0].gc;
    assert!(
        q0.preemptions > 0,
        "read-preempt recorded no forced preemptions: {q0:?}"
    );
    // Forced preemptions replace (a subset of) default-rule suspensions and
    // waits; they never appear under greedy.
    assert_eq!(greedy.per_queue[0].gc.preemptions, 0);
}

#[test]
fn windowed_tokens_defers_jobs_and_throttles_collections() {
    let greedy = run_policy(GcPolicy::Greedy, 16);
    let throttled = run_policy(
        GcPolicy::WindowedTokens {
            tokens: 1,
            window_us: 10_000,
        },
        16,
    );
    assert_eq!(throttled.requests_completed, greedy.requests_completed);
    assert!(
        throttled.gc_collections > 0,
        "critical planes still collect"
    );
    assert!(
        throttled.gc_collections <= greedy.gc_collections,
        "a 1-token/10ms bucket cannot collect more than greedy \
         ({} vs {})",
        throttled.gc_collections,
        greedy.gc_collections
    );
    let deferrals: u64 = throttled.per_queue.iter().map(|q| q.gc.deferrals).sum();
    assert!(deferrals > 0, "dry token bucket recorded no deferrals");
}

#[test]
fn policies_are_deterministic_across_reruns() {
    for policy in [
        GcPolicy::Greedy,
        GcPolicy::ReadPreempt { budget: 2 },
        GcPolicy::WindowedTokens {
            tokens: 2,
            window_us: 5_000,
        },
        GcPolicy::QueueShield { queue: 0 },
    ] {
        let a = run_policy(policy, 8);
        let b = run_policy(policy, 8);
        assert_eq!(a, b, "{policy:?} is not deterministic");
    }
}

#[test]
fn shield_of_an_out_of_range_queue_behaves_like_greedy() {
    // A shield queue the front end does not have never activates: the run
    // must be bit-identical to greedy (guard for single-queue replays that
    // keep a stale shield index around).
    let greedy = run_policy(GcPolicy::Greedy, 8);
    let inert = run_policy(GcPolicy::QueueShield { queue: 9 }, 8);
    assert_eq!(
        SimReport {
            per_queue: Vec::new(),
            ..inert.clone()
        },
        SimReport {
            per_queue: Vec::new(),
            ..greedy.clone()
        },
        "an inert shield changed simulation behavior"
    );
    // Attribution is also untouched: no deferrals anywhere.
    assert!(inert.per_queue.iter().all(|q| q.gc.deferrals == 0));
}

#[test]
fn qd_sweep_carries_per_queue_gc_attribution_and_stays_parallel_safe() {
    // End-to-end through `run`: per-queue GC stalls ride the
    // cells, and the sweep stays bit-identical across worker counts.
    let base = gc_cfg(GcPolicy::QueueShield { queue: 0 });
    let footprint = base.max_lpns();
    let trace = Trace::new("gc_heavy", write_heavy_trace(footprint, 2_500), footprint);
    let setup = QueueSetup {
        queues: 2,
        arb: ArbPolicy::WeightedRoundRobin,
        burst: 1,
        weights: Some(vec![2, 1]),
        window: None,
    };
    let point = OperatingPoint::new(0.0, 0.0);
    let traces = [trace];
    let spec = RunSpec::qd_sweep(&base, &traces, point, &[4, 16], &[Mechanism::Baseline])
        .with_front(setup);
    let sweep = |jobs: usize| {
        run(&spec.clone().with_jobs(jobs), None)
            .expect("valid spec")
            .qd
    };
    let (serial, parallel) = (sweep(1), sweep(4));
    assert_eq!(serial, parallel, "GC-policy sweep diverged across jobs");
    for cell in &serial {
        assert_eq!(cell.per_queue_gc.len(), 2);
        let deferrals: u64 = cell.per_queue_gc.iter().map(|g| g.deferrals).sum();
        assert!(
            deferrals > 0,
            "QD={} cell recorded no shield deferrals",
            cell.queue_depth
        );
    }
}

#[test]
fn gc_pages_moved_counts_every_gc_program_and_only_those() {
    // The `--gc-stress` sweep: the same geometry and trace generator.
    let base = gc_cfg(GcPolicy::Greedy);
    let footprint = base.max_lpns();
    let stress = write_heavy_trace(footprint, 2_000);
    let reads: Vec<HostRequest> = stress
        .iter()
        .filter(|r| r.op == IoOp::Read)
        .copied()
        .collect();
    let traces = [
        Trace::new("gc_stress", stress, footprint),
        Trace::new("reads_only", reads, footprint),
    ];
    let point = OperatingPoint::new(0.0, 0.0);
    let moved = |trace: &Trace, jobs: usize| {
        let spec = RunSpec::qd_sweep(
            &base,
            std::slice::from_ref(trace),
            point,
            &[4, 16],
            &[Mechanism::Baseline, Mechanism::PnAr2],
        )
        .with_jobs(jobs);
        run(&spec, None).expect("valid spec").gc_pages_moved
    };
    let [stress, reads] = &traces;
    assert_eq!(moved(reads, 1), 0, "an all-read trace moved pages");
    let serial = moved(stress, 1);
    assert!(serial > 0, "the GC-stress sweep moved no pages");
    assert_eq!(serial, moved(stress, 2), "the sum diverged across jobs");
}
