//! PR² (§6.1, Fig. 12(b)): pipelined retry steps at default timing, as
//! built by [`ReadRetryController::pr2`](super::ReadRetryController::pr2).

mod tests {
    use crate::mechanisms::ReadRetryController;
    use rr_flash::calibration::OperatingCondition;
    use rr_sim::config::SsdConfig;
    use rr_sim::readflow::{ReadAction, ReadContext, RetryController};
    use rr_sim::request::{HostRequest, IoOp, TxnId};
    use rr_sim::ssd::Ssd;
    use rr_util::time::SimTime;

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
        // One walk over the whole table, each step sensed as soon as the
        // previous step's sensing ends.
        assert_eq!(
            c.on_start(&x).to_vec(),
            vec![ReadAction::Walk {
                from: 0,
                to: 40,
                pipelined: true
            }]
        );
    }

    #[test]
    fn success_resets_speculative_step() {
        // The controller only completes; the engine kills the speculative
        // sense in flight when the walk's decoded step ends it.
        let mut c = ReadRetryController::pr2();
        let x = ctx(40);
        c.on_start(&x);
        assert_eq!(
            c.on_walk_end(&x, Some(1)).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 1 }]
        );
        // An isolated aged read on the engine: one RESET, and the one
        // speculative sense past the decoded step is all it costs.
        let cfg = SsdConfig::scaled_for_tests()
            .with_condition(OperatingCondition::new(1000.0, 6.0, 30.0));
        let ssd = Ssd::new(cfg, Box::new(ReadRetryController::pr2()), 50_000).unwrap();
        let report = ssd.run(&[HostRequest::new(SimTime::ZERO, IoOp::Read, 17, 1)]);
        assert_eq!(report.read_failures, 0);
        assert_eq!(report.resets, 1);
        assert_eq!(report.event_kinds.stale_die_done, 1);
        assert!(report.senses >= 2, "senses = {}", report.senses);
    }

    #[test]
    fn no_speculation_past_table_end() {
        let mut c = ReadRetryController::pr2();
        let x = ctx(2);
        // The walk ends at the last entry: nothing is sensed past it.
        assert_eq!(
            c.on_start(&x).to_vec(),
            vec![ReadAction::Walk {
                from: 0,
                to: 2,
                pipelined: true
            }]
        );
        assert_eq!(
            c.on_walk_end(&x, Some(2)).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 2 }]
        );
    }

    #[test]
    fn exhaustion_fails_without_speculation() {
        let mut c = ReadRetryController::pr2();
        let x = ctx(1);
        c.on_start(&x);
        assert_eq!(
            c.on_walk_end(&x, None).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }
}
