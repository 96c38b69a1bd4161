//! Cross-crate property-based tests (proptest): invariants that must hold for
//! *arbitrary* workloads and operating conditions — not just the
//! hand-picked cases of the unit tests.

use proptest::prelude::*;
use ssd_readretry::flash::calibration::{Calibration, OperatingCondition};
use ssd_readretry::flash::error_model::{ErrorModel, PageId};
use ssd_readretry::flash::timing::SensePhases;
use ssd_readretry::prelude::*;
// proptest's prelude also exports a `Rng` trait; disambiguate ours.
use ssd_readretry::util::rng::Rng as SimRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random small trace completes on any mechanism, with every host
    /// request answered and no read failures.
    #[test]
    fn random_traces_always_complete(
        seed in 0u64..1_000,
        n_requests in 1usize..120,
        write_pct in 0u32..100,
        pec in prop::sample::select(vec![0.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 3.0, 12.0]),
        mech_idx in 0usize..4,
    ) {
        let mechanisms = [Mechanism::Baseline, Mechanism::Pr2, Mechanism::Ar2, Mechanism::PnAr2];
        let mechanism = mechanisms[mech_idx];
        let mut rng = SimRng::seed_from_u64(seed);
        let requests: Vec<HostRequest> = (0..n_requests)
            .map(|i| {
                let op = if rng.below(100) < write_pct as u64 { IoOp::Write } else { IoOp::Read };
                let lpn = rng.below(4_000);
                let len = 1 + rng.below(3) as u32;
                HostRequest::new(SimTime::from_us(i as u64 * rng.range_u64(20, 500)), op, lpn, len)
            })
            .collect();
        let trace = Trace::new("prop", requests, 5_000);
        let cfg = SsdConfig::scaled_for_tests().with_seed(seed ^ 0xF00D);
        let rpt = ReadTimingParamTable::default();
        let report = run_one(&cfg, mechanism, OperatingPoint::new(pec, months), &trace, &rpt);
        prop_assert_eq!(report.requests_completed, n_requests as u64);
        prop_assert_eq!(report.read_failures, 0);
    }

    /// For a single isolated read, PR2 and PnAR2 are never slower than the
    /// baseline, at any operating point (the paper's "latency benefit is
    /// always higher than its overhead" for N_RR ≥ 1; for N_RR = 0 PR2 pays
    /// only the small RESET overhead, bounded below).
    #[test]
    fn pipelining_never_hurts_retried_reads(
        lpn in 0u64..3_000,
        pec in prop::sample::select(vec![500.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![1.0, 3.0, 6.0, 12.0]),
    ) {
        let cfg = SsdConfig::scaled_for_tests();
        let rpt = ReadTimingParamTable::default();
        let point = OperatingPoint::new(pec, months);
        let trace = Trace::new(
            "one",
            vec![HostRequest::new(SimTime::ZERO, IoOp::Read, lpn, 1)],
            4_000,
        );
        let baseline = run_one(&cfg, Mechanism::Baseline, point, &trace, &rpt).avg_response_us();
        let pr2 = run_one(&cfg, Mechanism::Pr2, point, &trace, &rpt).avg_response_us();
        let pnar2 = run_one(&cfg, Mechanism::PnAr2, point, &trace, &rpt).avg_response_us();
        // At these ages every read retries at least once, so both mechanisms
        // strictly win (Eq. 3 vs Eq. 4/5).
        prop_assert!(pr2 <= baseline + 1e-9, "PR2 {} vs baseline {}", pr2, baseline);
        prop_assert!(pnar2 <= baseline + 1e-9, "PnAR2 {} vs baseline {}", pnar2, baseline);
    }

    /// Error-model monotonicity: more wear or more retention never *reduces*
    /// the required retry steps or the final-step error count.
    #[test]
    fn error_model_is_monotone(
        block in 0u64..500,
        page in 0u32..576,
        pec_a in 0f64..2000.0,
        pec_extra in 0f64..500.0,
        months_a in 0f64..12.0,
        months_extra in 0f64..3.0,
    ) {
        let model = ErrorModel::new(0xBEEF);
        let id = PageId::new(block, page);
        let a = OperatingCondition::new(pec_a, months_a, 30.0);
        let b = OperatingCondition::new(pec_a + pec_extra, months_a + months_extra, 30.0);
        prop_assert!(model.required_step_index(id, a) <= model.required_step_index(id, b));
        prop_assert!(model.final_step_errors(id, a) <= model.final_step_errors(id, b) + 1);
    }

    /// Calibration safety: for every condition, the RPT's chosen reduction
    /// keeps worst-case final-step errors within the ECC capability.
    #[test]
    fn rpt_reduction_is_always_safe(
        pec in 0f64..2500.0,
        months in 0f64..14.0,
        temp in prop::sample::select(vec![30.0, 55.0, 85.0]),
    ) {
        let cal = Calibration::asplos21();
        let rpt = ReadTimingParamTable::default();
        let cond = OperatingCondition::new(pec, months, temp);
        let reduction = rpt.pre_reduction(cond);
        let m = cal.m_err_with_timing(cond, reduction, 0.0, 0.0);
        prop_assert!(m <= 72.0, "unsafe at ({pec:.0}, {months:.1}, {temp}): {m}");
    }

    /// Sensing-phase reduction fractions round-trip through SensePhases.
    #[test]
    fn sense_phase_reduction_roundtrip(
        pre in 0.0f64..0.9,
        eval in 0.0f64..0.9,
        disch in 0.0f64..0.9,
    ) {
        let d = SensePhases::table1();
        let r = d.with_reduction(pre, eval, disch);
        prop_assert!((d.pre_reduction_vs(&r) - pre).abs() < 0.01);
        prop_assert!((d.eval_reduction_vs(&r) - eval).abs() < 0.01);
        prop_assert!((d.disch_reduction_vs(&r) - disch).abs() < 0.01);
        prop_assert!(r.sense_time() <= d.sense_time());
    }
}
