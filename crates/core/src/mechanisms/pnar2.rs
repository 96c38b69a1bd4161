//! PnAR² (§7.2, Fig. 13): pipelined retry steps at the RPT-reduced tPRE, as
//! built by [`ReadRetryController::pnar2`](super::ReadRetryController::pnar2).

mod tests {
    use crate::mechanisms::ReadRetryController;
    use crate::rpt::ReadTimingParamTable;
    use rr_flash::calibration::OperatingCondition;
    use rr_sim::readflow::{ReadAction, ReadContext, RetryController};
    use rr_sim::request::TxnId;

    fn controller() -> ReadRetryController {
        ReadRetryController::pnar2(ReadTimingParamTable::default())
    }

    fn ctx(max_step: u32) -> ReadContext {
        ReadContext {
            txn: TxnId(9),
            die: 2,
            condition: OperatingCondition::new(1000.0, 6.0, 30.0),
            cold: true,
            max_step,
        }
    }

    #[test]
    fn fig13_flow_reduce_then_pipeline_then_reset_and_restore() {
        let mut c = controller();
        let x = ctx(40);
        c.on_start(&x);
        // Initial read: no speculation before the timing switch.
        assert_eq!(c.on_sense_done(&x, 0).to_vec(), vec![]);
        // ECC fail → ② SET FEATURE (reduced).
        let acts = c.on_decode_done(&x, 0, false).to_vec();
        assert!(matches!(
            acts[0],
            ReadAction::SetFeature { phases: Some(_) }
        ));
        // ③ pipelined retries at reduced tR.
        assert_eq!(
            c.on_feature_applied(&x).to_vec(),
            vec![ReadAction::Sense { step: 1 }]
        );
        assert_eq!(
            c.on_sense_done(&x, 1).to_vec(),
            vec![ReadAction::Sense { step: 2 }]
        );
        assert_eq!(c.on_decode_done(&x, 1, false).to_vec(), vec![]);
        // Success while step 2 is being sensed: RESET + complete + ④ restore.
        assert_eq!(
            c.on_sense_done(&x, 2).to_vec(),
            vec![ReadAction::Sense { step: 3 }]
        );
        assert_eq!(
            c.on_decode_done(&x, 2, true).to_vec(),
            vec![
                ReadAction::Reset,
                ReadAction::CompleteSuccess { step: 2 },
                ReadAction::SetFeature { phases: None },
            ]
        );
    }

    #[test]
    fn initial_success_completes_without_feature_traffic() {
        let mut c = controller();
        let x = ctx(40);
        c.on_start(&x);
        c.on_sense_done(&x, 0);
        assert_eq!(
            c.on_decode_done(&x, 0, true).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 0 }]
        );
    }

    #[test]
    fn outlier_fallback_re_walks_with_default_timing() {
        let mut c = controller();
        let x = ctx(2);
        c.on_start(&x);
        c.on_sense_done(&x, 0);
        c.on_decode_done(&x, 0, false);
        c.on_feature_applied(&x);
        c.on_sense_done(&x, 1);
        assert_eq!(c.on_decode_done(&x, 1, false).to_vec(), vec![]);
        // Last entry sensed, decode fails with nothing in flight: restore.
        assert_eq!(c.on_sense_done(&x, 2).to_vec(), vec![]);
        assert_eq!(
            c.on_decode_done(&x, 2, false).to_vec(),
            vec![ReadAction::SetFeature { phases: None }]
        );
        // Fallback pipeline at default timing.
        assert_eq!(
            c.on_feature_applied(&x).to_vec(),
            vec![ReadAction::Sense { step: 1 }]
        );
        c.on_sense_done(&x, 1);
        c.on_sense_done(&x, 2);
        // Second exhaustion is a read failure; no restore needed (already
        // at default timing).
        assert_eq!(c.on_decode_done(&x, 1, false).to_vec(), vec![]);
        assert_eq!(
            c.on_decode_done(&x, 2, false).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }
}
