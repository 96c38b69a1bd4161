//! Device-image snapshot suite: replaying from a warm-start image must be
//! bit-identical to a cold preconditioned run — across mechanisms, replay
//! modes, reused arenas, and a serialize/deserialize round trip — and the
//! on-disk codec must reject damaged bytes with a typed error, never a
//! panic or a silently wrong device.

use proptest::prelude::*;
use ssd_readretry::prelude::*;
use ssd_readretry::sim::replay::ReplayMode as Mode;
use ssd_readretry::util::codec::{CodecError, Encoder};

fn base_cfg() -> SsdConfig {
    SsdConfig::scaled_for_tests().with_seed(0x51AB_5EED)
}

/// The aged operating condition the warm-start runs replay under.
fn aged(cfg: SsdConfig) -> SsdConfig {
    cfg.with_condition(OperatingCondition::new(2000.0, 6.0, 30.0))
}

/// A small GC-heavy geometry, so image round trips cover non-trivial FTL
/// state (short free lists, open blocks mid-plane) cheaply.
fn small_cfg() -> SsdConfig {
    let mut cfg = base_cfg();
    cfg.chip.blocks_per_plane = 16;
    cfg.chip.pages_per_block = 12;
    cfg
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
    let straight = ssd.run_with(&trace.requests, Mode::closed_loop(8));
    let mut arena = SimArena::new();
    let warm = Ssd::run_pooled_queued_from(
        &mut arena,
        cfg,
        Mechanism::PnAr2.make_controller(&rpt),
        trace.footprint_pages,
        &trace.requests,
        &HostQueueConfig::single(Mode::closed_loop(8)),
        Some(&image),
    )
    .expect("captured image matches its own device");
    assert_eq!(straight, warm, "captured image diverged from its device");
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
                .run_with(&trace.requests, mode);
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
fn bank_byte_round_trip_preserves_replay() {
    // An image that went through the full binary codec must drive the same
    // replay as the in-memory original.
    let rpt = ReadTimingParamTable::default();
    let trace = MsrcWorkload::Mds1.synthesize(200, 9);
    let cfg = aged(base_cfg());
    let bank = ImageBank::preconditioned(&cfg, [trace.footprint_pages]).expect("valid config");
    let decoded = ImageBank::from_bytes(&bank.to_bytes()).expect("round trip");
    let run = |image: &DeviceImage| {
        let mut arena = SimArena::new();
        Ssd::run_pooled_queued_from(
            &mut arena,
            cfg.clone(),
            Mechanism::PnAr2.make_controller(&rpt),
            trace.footprint_pages,
            &trace.requests,
            &HostQueueConfig::single(Mode::closed_loop(4)),
            Some(image),
        )
        .expect("image matches config")
    };
    let original = run(bank.get(trace.footprint_pages).expect("image in bank"));
    let reloaded = run(decoded.get(trace.footprint_pages).expect("image in bank"));
    assert_eq!(original, reloaded, "codec round trip changed the replay");
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

#[test]
fn checked_in_v1_image_keeps_loading() {
    // The backward-compat half of the version policy: this tiny bank was
    // written by the first format version and is checked in; every future
    // reader must keep accepting it (bump `VERSION`, add decode arms —
    // never break v1). If this test fails, the codec change is a silent
    // break for every image users have on disk.
    let bytes = include_bytes!("data/v1_tiny.rrimg");
    let bank = ImageBank::from_bytes(bytes).expect("v1 images must keep loading");
    assert_eq!(bank.len(), 1);
    assert_eq!(bank.images()[0].lpn_count(), 100);
    // The decoded image still drives a replay on a matching config.
    let cfg = small_cfg();
    let image = bank.get(100).expect("footprint present");
    image
        .validate_for(&cfg, 100)
        .expect("v1 image validates against the geometry it was captured under");
}

#[test]
fn future_version_banks_are_rejected_with_the_typed_error() {
    // A valid payload re-framed under a future format version must be
    // refused up front (the forward-compat half of the version policy).
    let bank = ImageBank::preconditioned(&small_cfg(), [100]).expect("valid config");
    let mut enc = Encoder::new(ImageBank::MAGIC, ImageBank::VERSION + 1);
    enc.put_u64(1);
    bank.images()[0].encode(&mut enc);
    assert!(matches!(
        ImageBank::from_bytes(&enc.finish()),
        Err(CodecError::UnsupportedVersion { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flipping any byte anywhere in a serialized bank — magic, version,
    /// payload, or checksum — is rejected with a typed error: the image
    /// loader must never panic on, or silently accept, damaged state.
    #[test]
    fn corrupt_bank_bytes_are_rejected_cleanly(pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let bank = ImageBank::preconditioned(&small_cfg(), [small_cfg().max_lpns()])
            .expect("valid config");
        let mut bytes = bank.to_bytes();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= flip;
        prop_assert!(ImageBank::from_bytes(&bytes).is_err());
    }

    /// Any strict prefix of a serialized bank is rejected cleanly — a
    /// truncated download or interrupted write must not load.
    #[test]
    fn truncated_bank_bytes_are_rejected_cleanly(keep_frac in 0.0f64..1.0) {
        let bank = ImageBank::preconditioned(&small_cfg(), [small_cfg().max_lpns()])
            .expect("valid config");
        let bytes = bank.to_bytes();
        let keep = ((bytes.len() - 1) as f64 * keep_frac) as usize;
        prop_assert!(ImageBank::from_bytes(&bytes[..keep]).is_err());
    }
}
