//! AR² (§6.2, Fig. 13 without pipelining): sequential retry steps at the
//! RPT-reduced tPRE, as built by
//! [`ReadRetryController::ar2`](super::ReadRetryController::ar2).

mod tests {
    use crate::mechanisms::ReadRetryController;
    use crate::rpt::ReadTimingParamTable;
    use rr_flash::calibration::OperatingCondition;
    use rr_flash::timing::SensePhases;
    use rr_sim::readflow::{ReadAction, ReadContext, RetryController};
    use rr_sim::request::TxnId;

    fn controller() -> ReadRetryController {
        ReadRetryController::ar2(ReadTimingParamTable::default())
    }

    fn ctx(max_step: u32) -> ReadContext {
        ReadContext {
            txn: TxnId(3),
            die: 0,
            condition: OperatingCondition::new(2000.0, 12.0, 30.0),
            cold: true,
            max_step,
        }
    }

    #[test]
    fn reduces_timing_after_initial_failure() {
        let mut c = controller();
        let x = ctx(40);
        assert_eq!(c.on_start(&x).to_vec(), vec![ReadAction::Sense { step: 0 }]);
        assert_eq!(c.on_sense_done(&x, 0).to_vec(), vec![]);
        let acts = c.on_decode_done(&x, 0, false).to_vec();
        // SET FEATURE installs reduced tPRE (40 % at the worst-case bucket).
        let ReadAction::SetFeature { phases: Some(p) } = acts[0] else {
            panic!("expected SET FEATURE, got {acts:?}");
        };
        let reduction = SensePhases::table1().pre_reduction_vs(&p);
        assert!((reduction - 0.40).abs() < 0.03, "reduction = {reduction}");
        // Retry steps begin after the feature is applied.
        assert_eq!(
            c.on_feature_applied(&x).to_vec(),
            vec![ReadAction::Sense { step: 1 }]
        );
        // Failed steps walk the table sequentially.
        assert_eq!(
            c.on_decode_done(&x, 1, false).to_vec(),
            vec![ReadAction::Sense { step: 2 }]
        );
        // Success restores the default timing after completing.
        assert_eq!(
            c.on_decode_done(&x, 2, true).to_vec(),
            vec![
                ReadAction::CompleteSuccess { step: 2 },
                ReadAction::SetFeature { phases: None },
            ]
        );
    }

    #[test]
    fn initial_success_needs_no_feature_change() {
        let mut c = controller();
        let x = ctx(40);
        c.on_start(&x);
        assert_eq!(
            c.on_decode_done(&x, 0, true).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 0 }]
        );
    }

    #[test]
    fn outlier_fallback_retries_with_default_timing() {
        let mut c = controller();
        let x = ctx(2);
        c.on_start(&x);
        c.on_decode_done(&x, 0, false);
        c.on_feature_applied(&x);
        c.on_decode_done(&x, 1, false);
        // Table exhausted under reduced timing → restore defaults...
        assert_eq!(
            c.on_decode_done(&x, 2, false).to_vec(),
            vec![ReadAction::SetFeature { phases: None }]
        );
        // ...and walk the table once more at default tPRE (§6.2).
        assert_eq!(
            c.on_feature_applied(&x).to_vec(),
            vec![ReadAction::Sense { step: 1 }]
        );
        assert_eq!(
            c.on_decode_done(&x, 1, true).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 1 }]
        );
    }

    #[test]
    fn fallback_exhaustion_is_a_read_failure() {
        let mut c = controller();
        let x = ctx(1);
        c.on_start(&x);
        c.on_decode_done(&x, 0, false);
        c.on_feature_applied(&x);
        c.on_decode_done(&x, 1, false); // reduced walk exhausted
        c.on_feature_applied(&x); // fallback begins
        assert_eq!(
            c.on_decode_done(&x, 1, false).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }
}
