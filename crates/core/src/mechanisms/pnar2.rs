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

    fn walk(from: u32, to: u32, pipelined: bool) -> ReadAction {
        ReadAction::Walk {
            from,
            to,
            pipelined,
        }
    }

    #[test]
    fn fig13_flow_reduce_then_pipeline_then_reset_and_restore() {
        let mut c = controller();
        let x = ctx(40);
        // ① Initial read: one step, no speculation before the timing switch.
        assert_eq!(c.on_start(&x).to_vec(), vec![walk(0, 0, false)]);
        // ECC fail → ② SET FEATURE (reduced), then ③ pipelined retries at
        // reduced tR.
        let acts = c.on_walk_end(&x, None).to_vec();
        assert!(matches!(
            acts[0],
            ReadAction::SetFeature { phases: Some(_) }
        ));
        assert_eq!(acts[1..], [walk(1, 40, true)]);
        // Success (the engine RESETs the step sensed past it): complete and
        // ④ restore.
        assert_eq!(
            c.on_walk_end(&x, Some(2)).to_vec(),
            vec![
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
        assert_eq!(
            c.on_walk_end(&x, Some(0)).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 0 }]
        );
    }

    #[test]
    fn outlier_fallback_re_walks_with_default_timing() {
        let mut c = controller();
        let x = ctx(2);
        c.on_start(&x);
        c.on_walk_end(&x, None);
        // The reduced walk is exhausted: restore, and pipeline the fallback
        // walk at default timing.
        assert_eq!(
            c.on_walk_end(&x, None).to_vec(),
            vec![ReadAction::SetFeature { phases: None }, walk(1, 2, true)]
        );
        // Second exhaustion is a read failure; no restore needed (already
        // at default timing).
        assert_eq!(
            c.on_walk_end(&x, None).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }
}
