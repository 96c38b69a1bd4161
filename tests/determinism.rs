//! Determinism regression tests: identical inputs must produce *identical*
//! outputs — field-for-field equal [`SimReport`]s from `run_one`, and
//! bit-identical matrices from `run` regardless of thread
//! count. Any hidden nondeterminism (hash-map iteration order, shared RNG
//! state, scheduling-dependent seeding) fails these tests.

use ssd_readretry::prelude::*;

/// The Fig. 14/15 matrix of `traces` × `points` × `mechanisms` on `jobs`
/// worker threads.
fn matrix(
    cfg: &SsdConfig,
    traces: &[(Trace, bool)],
    points: &[OperatingPoint],
    mechanisms: &[Mechanism],
    jobs: usize,
) -> Vec<MatrixCell> {
    let spec = RunSpec::matrix(cfg, traces, points, mechanisms).with_jobs(jobs);
    run(&spec, None).expect("valid spec").matrix
}

#[test]
fn run_one_is_byte_identical_for_identical_inputs() {
    let cfg = SsdConfig::scaled_for_tests().with_seed(0xD5EED);
    let rpt = ReadTimingParamTable::default();
    let point = OperatingPoint::new(2000.0, 12.0);
    for mechanism in [
        Mechanism::Baseline,
        Mechanism::Pr2,
        Mechanism::Ar2,
        Mechanism::PnAr2,
        Mechanism::NoRR,
        Mechanism::Pso,
        Mechanism::PsoPnAr2,
    ] {
        let trace = MsrcWorkload::Mds1.synthesize(600, 21);
        let a = run_one(&cfg, mechanism, point, &trace, &rpt);
        let b = run_one(&cfg, mechanism, point, &trace, &rpt);
        // Full structural equality: every statistic, histogram bin, and
        // counter — not just the headline average.
        assert_eq!(a, b, "{} diverged across identical runs", mechanism.name());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn trace_synthesis_is_deterministic_per_seed() {
    let a = YcsbWorkload::A.synthesize(800, 7);
    let b = YcsbWorkload::A.synthesize(800, 7);
    assert_eq!(a, b);
    let other_seed = YcsbWorkload::A.synthesize(800, 8);
    assert_ne!(a, other_seed, "different seeds must give different traces");
}

#[test]
fn parallel_matrix_equals_serial_matrix() {
    let cfg = SsdConfig::scaled_for_tests().with_seed(77);
    let traces = vec![
        (MsrcWorkload::Mds1.synthesize(250, 3), true),
        (MsrcWorkload::Stg0.synthesize(250, 3), false),
        (YcsbWorkload::C.synthesize(250, 3), true),
    ];
    let points = [
        OperatingPoint::new(1000.0, 6.0),
        OperatingPoint::new(2000.0, 12.0),
    ];
    let serial = matrix(&cfg, &traces, &points, &Mechanism::FIG14, 1);
    for jobs in [2, 3, 8] {
        let parallel = matrix(&cfg, &traces, &points, &Mechanism::FIG14, jobs);
        assert_eq!(
            serial, parallel,
            "--jobs {jobs} diverged from the serial matrix"
        );
    }
}

#[test]
fn parallel_matrix_is_itself_deterministic() {
    // Two parallel runs (same thread count) must agree with each other, not
    // just with the serial path.
    let cfg = SsdConfig::scaled_for_tests();
    let traces = vec![
        (YcsbWorkload::A.synthesize(200, 5), false),
        (YcsbWorkload::C.synthesize(200, 5), true),
    ];
    let points = [OperatingPoint::new(2000.0, 6.0)];
    let a = matrix(&cfg, &traces, &points, &Mechanism::FIG15, 4);
    let b = matrix(&cfg, &traces, &points, &Mechanism::FIG15, 4);
    assert_eq!(a, b);
}
