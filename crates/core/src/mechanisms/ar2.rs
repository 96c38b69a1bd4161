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

    fn walk(from: u32, to: u32) -> ReadAction {
        ReadAction::Walk {
            from,
            to,
            pipelined: false,
        }
    }

    #[test]
    fn reduces_timing_after_initial_failure() {
        let mut c = controller();
        let x = ctx(40);
        // The initial read is a one-step walk at default timing.
        assert_eq!(c.on_start(&x).to_vec(), vec![walk(0, 0)]);
        let acts = c.on_walk_end(&x, None).to_vec();
        // SET FEATURE installs reduced tPRE (40 % at the worst-case bucket).
        let ReadAction::SetFeature { phases: Some(p) } = acts[0] else {
            panic!("expected SET FEATURE, got {acts:?}");
        };
        let reduction = SensePhases::table1().pre_reduction_vs(&p);
        assert!((reduction - 0.40).abs() < 0.03, "reduction = {reduction}");
        // The retry steps walk the table sequentially once it applies.
        assert_eq!(acts[1..], [walk(1, 40)]);
        // Success restores the default timing after completing.
        assert_eq!(
            c.on_walk_end(&x, Some(2)).to_vec(),
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
            c.on_walk_end(&x, Some(0)).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 0 }]
        );
    }

    #[test]
    fn outlier_fallback_retries_with_default_timing() {
        let mut c = controller();
        let x = ctx(2);
        c.on_start(&x);
        c.on_walk_end(&x, None);
        // Table exhausted under reduced timing → restore defaults and walk
        // the table once more at default tPRE (§6.2).
        assert_eq!(
            c.on_walk_end(&x, None).to_vec(),
            vec![ReadAction::SetFeature { phases: None }, walk(1, 2)]
        );
        assert_eq!(
            c.on_walk_end(&x, Some(1)).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 1 }]
        );
    }

    #[test]
    fn fallback_exhaustion_is_a_read_failure() {
        let mut c = controller();
        let x = ctx(1);
        c.on_start(&x);
        c.on_walk_end(&x, None); // initial read failed
        c.on_walk_end(&x, None); // reduced walk exhausted
        assert_eq!(
            c.on_walk_end(&x, None).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }
}
