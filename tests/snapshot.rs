//! Device-image snapshot suite: replaying from a warm-start image must be
//! bit-identical to a cold preconditioned run — across mechanisms, replay
//! modes, reused arenas and reused run contexts.

use ssd_readretry::prelude::*;
use ssd_readretry::sim::replay::ReplayMode as Mode;

fn base_cfg() -> SsdConfig {
    SsdConfig::scaled_for_tests().with_seed(0x51AB_5EED)
}

/// The aged operating condition the warm-start runs replay under.
fn aged(cfg: SsdConfig) -> SsdConfig {
    cfg.with_condition(OperatingCondition::new(2000.0, 6.0, 30.0))
}

#[test]
fn capture_image_then_replay_matches_the_straight_run() {
    // `Ssd::capture_image` at quiescence, restored through the pooled
    // warm-start path, must replay exactly like the device it was captured
    // from.
    let rpt = ReadTimingParamTable::default();
    let trace = MsrcWorkload::Mds1.synthesize(250, 7);
    let cfg = aged(base_cfg());
    let ssd = Ssd::new(
        cfg.clone(),
        Mechanism::PnAr2.make_controller(&rpt),
        trace.footprint_pages,
    )
    .expect("valid configuration");
    let image = ssd.capture_image();
    let straight = ssd.run_with_queues(
        &trace.requests,
        &HostQueueConfig::single(Mode::closed_loop(8)),
    );
    let mut arena = SimArena::new();
    let warm = Ssd::run_pooled_queued_from(
        &mut arena,
        cfg.clone(),
        Mechanism::PnAr2.make_controller(&rpt),
        trace.footprint_pages,
        &trace.requests,
        &HostQueueConfig::single(Mode::closed_loop(8)),
        Some(&image),
    )
    .expect("captured image matches its own device");
    assert_eq!(straight, warm, "captured image diverged from its device");
    // An image of another footprint is refused, not replayed.
    let err = Ssd::run_pooled_queued_from(
        &mut arena,
        cfg,
        Mechanism::PnAr2.make_controller(&rpt),
        trace.footprint_pages + 1,
        &trace.requests,
        &HostQueueConfig::single(Mode::closed_loop(8)),
        Some(&image),
    )
    .unwrap_err();
    assert!(err.contains("footprint"), "{err}");
}

#[test]
fn image_restore_into_a_reused_arena_matches_fresh_cold_runs() {
    // One arena serving every warm-started cell back to back — different
    // traces, footprints, mechanisms, and replay modes — must report
    // exactly what a fresh cold-preconditioned simulator reports per cell.
    let rpt = ReadTimingParamTable::default();
    let mut arena = SimArena::new();
    let traces = [
        MsrcWorkload::Mds1.synthesize(250, 7),
        YcsbWorkload::C.synthesize(200, 7),
    ];
    for trace in &traces {
        let cfg = aged(base_cfg());
        let image =
            DeviceImage::preconditioned(&cfg, trace.footprint_pages).expect("valid configuration");
        for mechanism in [Mechanism::Baseline, Mechanism::PnAr2] {
            for mode in [Mode::OpenLoop, Mode::closed_loop(8)] {
                let warm = Ssd::run_pooled_queued_from(
                    &mut arena,
                    cfg.clone(),
                    mechanism.make_controller(&rpt),
                    trace.footprint_pages,
                    &trace.requests,
                    &HostQueueConfig::single(mode),
                    Some(&image),
                )
                .expect("image matches config");
                let fresh = Ssd::new(
                    cfg.clone(),
                    mechanism.make_controller(&rpt),
                    trace.footprint_pages,
                )
                .expect("valid configuration")
                .run_with_queues(&trace.requests, &HostQueueConfig::single(mode));
                assert_eq!(
                    warm,
                    fresh,
                    "warm restore into the reused arena diverged: {} on {} under {:?}",
                    mechanism.name(),
                    trace.name,
                    mode
                );
            }
        }
    }
}

#[test]
fn reused_context_answers_queries_like_a_fresh_run() {
    // `repro serve` runs every query as a one-cell spec on one `RunContext`
    // kept across queries. Whatever widths and mechanisms earlier queries
    // left in its buffers, each answer must equal a fresh `run` of the same
    // spec.
    let base = base_cfg();
    let traces = [MsrcWorkload::Mds1.synthesize(250, 7)];
    let point = OperatingPoint::new(2000.0, 6.0);
    let bank = ImageBank::preconditioned(&base, [traces[0].footprint_pages]).expect("valid config");
    let mut ctx = RunContext::new();
    for (mechanism, qd, devices) in [
        (Mechanism::PnAr2, 8, 1),
        (Mechanism::PnAr2, 8, 4),
        (Mechanism::Baseline, 4, 2),
        (Mechanism::PnAr2, 8, 1),
        (Mechanism::Pr2, 16, 4),
        (Mechanism::PnAr2, 8, 4),
    ] {
        let spec = RunSpec::qd_sweep(&base, &traces, point, &[qd], &[mechanism])
            .with_array(ArraySetup::new(devices, PlacementPolicy::LpnHash));
        let reused = ctx.run(&spec, Some(&bank)).expect("bank covers the query");
        let fresh = run(&spec, Some(&bank)).expect("bank covers the query");
        assert_eq!(
            reused,
            fresh,
            "reused context diverged for {} qd={qd} devices={devices}",
            mechanism.name()
        );
        assert_eq!(reused.qd.len(), 1);
        assert_eq!(reused.qd[0].array.is_some(), devices > 1);
    }
}
