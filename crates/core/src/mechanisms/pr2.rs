//! PR² (§6.1, Fig. 12(b)): pipelined retry steps at default timing, as
//! built by [`ReadRetryController::pr2`](super::ReadRetryController::pr2).

mod tests {
    use crate::mechanisms::ReadRetryController;
    use rr_flash::calibration::OperatingCondition;
    use rr_sim::readflow::{ReadAction, ReadContext, RetryController};
    use rr_sim::request::TxnId;

    fn ctx(max_step: u32) -> ReadContext {
        ReadContext {
            txn: TxnId(7),
            die: 1,
            condition: OperatingCondition::new(1000.0, 6.0, 30.0),
            cold: true,
            max_step,
        }
    }

    #[test]
    fn pipelines_next_sense_at_sense_done() {
        let mut c = ReadRetryController::pr2();
        let x = ctx(40);
        assert_eq!(c.on_start(&x).to_vec(), vec![ReadAction::Sense { step: 0 }]);
        // Sensing of step 0 completes: step 1 starts while it decodes.
        assert_eq!(
            c.on_sense_done(&x, 0).to_vec(),
            vec![ReadAction::Sense { step: 1 }]
        );
        // Decode failure needs no action: step 1 already runs.
        assert_eq!(c.on_decode_done(&x, 0, false).to_vec(), vec![]);
    }

    #[test]
    fn success_resets_speculative_step() {
        let mut c = ReadRetryController::pr2();
        let x = ctx(40);
        c.on_start(&x);
        c.on_sense_done(&x, 0);
        c.on_sense_done(&x, 1); // step 2 speculation starts
        assert_eq!(c.on_decode_done(&x, 0, false).to_vec(), vec![]);
        // Step 1 decodes successfully while step 2 is sensing: RESET it.
        assert_eq!(
            c.on_decode_done(&x, 1, true).to_vec(),
            vec![ReadAction::Reset, ReadAction::CompleteSuccess { step: 1 }]
        );
        c.on_end(&x, Some(1));
    }

    #[test]
    fn no_speculation_past_table_end() {
        let mut c = ReadRetryController::pr2();
        let x = ctx(2);
        c.on_start(&x);
        c.on_sense_done(&x, 0);
        c.on_sense_done(&x, 1);
        // Last entry: no further speculation.
        assert_eq!(c.on_sense_done(&x, 2).to_vec(), vec![]);
        // Success with no speculation in flight: no RESET needed.
        assert_eq!(
            c.on_decode_done(&x, 2, true).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 2 }]
        );
    }

    #[test]
    fn exhaustion_fails_without_speculation() {
        let mut c = ReadRetryController::pr2();
        let x = ctx(1);
        c.on_start(&x);
        c.on_sense_done(&x, 0);
        c.on_sense_done(&x, 1);
        assert_eq!(c.on_decode_done(&x, 0, false).to_vec(), vec![]);
        assert_eq!(
            c.on_decode_done(&x, 1, false).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }
}
