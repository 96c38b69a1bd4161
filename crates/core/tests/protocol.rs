//! Protocol-conformance harness: drives every retry mechanism through an
//! abstract (timing-free) flash protocol against a synthetic page oracle and
//! checks the contract every [`RetryController`] must honour:
//!
//! * the read always terminates (Complete, never a stuck state);
//! * it completes *successfully* whenever some reachable step succeeds;
//! * `SET FEATURE` installations are balanced by rollbacks at completion
//!   (the die must never be left with stale reduced timing);
//! * `Reset` is only issued while the mechanism has speculation in flight;
//! * once `on_sense_done(step)` answers with a `Sense`, a failed decode of
//!   `step` answers nothing (the simulator pushes no event for it);
//! * a failed decode the simulator may answer as soon as its sense completes
//!   (the sense answered nothing and the read has nothing else in flight)
//!   answers the same whatever other reads do before the decode ends.
//!
//! This complements the full event simulator: here the *ordering freedom* of
//! the protocol is explored (decodes delivered with arbitrary lag behind
//! senses), which wall-clock simulation only exercises at specific timings.

use proptest::prelude::*;
use rr_core::experiment::Mechanism;
use rr_core::rpt::ReadTimingParamTable;
use rr_flash::calibration::OperatingCondition;
use rr_sim::readflow::{ReadAction, ReadContext, RetryController};
use rr_sim::request::TxnId;
use std::collections::VecDeque;

/// The outcome of driving one read through a controller.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Success { step: u32 },
    Failure,
}

/// Runs other reads on the controller between a read's sense and its failed
/// decode.
type Between<'a> = &'a mut dyn FnMut(&mut dyn RetryController);

/// A timing-free protocol harness with a configurable decode lag: like the
/// simulator, it queues a decode for every sensing it delivers, and delivers
/// decodes `lag` sensings behind (lag 0 ≈ sequential baseline timing, larger
/// lags ≈ deep pipelining). Before each failed decode the simulator may
/// answer early, it calls `between`. Returns the outcome and every answer
/// the controller gave, in order.
fn drive(
    controller: &mut dyn RetryController,
    ctx: &ReadContext,
    required_step: u32,
    plateau: u32,
    lag: usize,
    between: Between,
) -> (Outcome, Vec<Vec<ReadAction>>) {
    // Success window mirrors the error model: [required, required+plateau],
    // with reduced timing irrelevant here (the oracle is timing-blind; the
    // event-simulator tests cover timing interactions).
    let succeeds = |step: u32| step >= required_step && step <= required_step + plateau;

    // Queued, unsensed.
    let mut pending_senses: VecDeque<u32> = VecDeque::new();
    // Sensed, undecoded, and whether the sense's answer queued a `Sense`.
    let mut pending_decodes: VecDeque<(u32, bool)> = VecDeque::new();
    let mut feature_installs = 0i64;
    let mut feature_rollbacks = 0i64;
    let mut awaiting_feature = false;
    let mut outcome = None;
    let mut answers = Vec::new();
    let mut heard = |answer: rr_sim::readflow::Actions| {
        answers.push(answer.to_vec());
        answer
    };

    let mut actions: VecDeque<ReadAction> = heard(controller.on_start(ctx)).into_iter().collect();
    let mut guard = 0;
    while outcome.is_none() {
        guard += 1;
        assert!(guard < 10_000, "protocol did not terminate");
        // Execute all queued actions first.
        if let Some(a) = actions.pop_front() {
            match a {
                ReadAction::Sense { step } => pending_senses.push_back(step),
                ReadAction::SetFeature { phases } => {
                    if phases.is_some() {
                        feature_installs += 1;
                    } else {
                        feature_rollbacks += 1;
                    }
                    awaiting_feature = true;
                }
                ReadAction::Reset => {
                    // Reset kills any in-flight/queued speculation.
                    pending_senses.clear();
                }
                ReadAction::CompleteSuccess { step } => outcome = Some(Outcome::Success { step }),
                ReadAction::CompleteFailure => outcome = Some(Outcome::Failure),
            }
            continue;
        }
        // Deliver one protocol event, feature completions first (they block
        // the die), then sensings, then (lagged) decodes.
        if awaiting_feature {
            awaiting_feature = false;
            actions.extend(heard(controller.on_feature_applied(ctx)));
        } else if !pending_senses.is_empty()
            && (pending_decodes.len() <= lag || pending_decodes.is_empty())
        {
            let step = pending_senses.pop_front().expect("non-empty");
            let answer = heard(controller.on_sense_done(ctx, step));
            let pipelined = answer.iter().any(|a| matches!(a, ReadAction::Sense { .. }));
            if pipelined {
                let failed = controller.on_decode_done(ctx, step, false);
                assert!(
                    failed.is_empty(),
                    "{}: a failed decode of pipelined step {step} answered {:?}",
                    controller.name(),
                    failed.to_vec()
                );
            }
            pending_decodes.push_back((step, pipelined));
            actions.extend(answer);
        } else if let Some((step, pipelined)) = pending_decodes.pop_front() {
            // The sense answered nothing (`on_sense_done` answers a `Sense`
            // or nothing) and nothing else of the read is in flight.
            if !succeeds(step) && !pipelined && pending_decodes.is_empty() {
                between(controller);
            }
            let answer = heard(controller.on_decode_done(ctx, step, succeeds(step)));
            assert!(
                !pipelined || succeeds(step) || answer.is_empty(),
                "{}: the failed decode of pipelined step {step} answered {:?}",
                controller.name(),
                answer.to_vec()
            );
            actions.extend(answer);
        } else {
            panic!("protocol stalled: no actions, no events, no completion");
        }
    }
    // Any installed reduced timing must be rolled back by completion time
    // (counting actions issued up to and including the completing batch).
    // AR2-Regular is exempt: leaving the reduction installed die-wide is its
    // documented design (§8's regular-read extension).
    for a in actions {
        if let ReadAction::SetFeature { phases: None } = a {
            feature_rollbacks += 1;
        }
    }
    assert!(
        controller.name() == "AR2-Regular" || feature_rollbacks >= feature_installs,
        "reduced timing left installed: {feature_installs} installs vs {feature_rollbacks} rollbacks"
    );
    (outcome.expect("loop exits only with an outcome"), answers)
}

/// The step a read's outcome succeeded at, as `on_end` takes it.
fn success_step(outcome: &Outcome) -> Option<u32> {
    match outcome {
        Outcome::Success { step } => Some(*step),
        Outcome::Failure => None,
    }
}

/// Every `Mechanism` variant.
const MECHANISMS: [Mechanism; 9] = [
    Mechanism::Baseline,
    Mechanism::Pr2,
    Mechanism::Ar2,
    Mechanism::PnAr2,
    Mechanism::NoRR,
    Mechanism::Pso,
    Mechanism::PsoPnAr2,
    Mechanism::EagerPnAr2,
    Mechanism::RegularAr2,
];

fn controllers() -> Vec<Box<dyn RetryController + Send>> {
    let rpt = ReadTimingParamTable::default();
    MECHANISMS.iter().map(|m| m.make_controller(&rpt)).collect()
}

fn ctx_for(txn: u32, pec: f64, months: f64, max_step: u32) -> ReadContext {
    ReadContext {
        txn: TxnId(txn),
        die: 0,
        condition: OperatingCondition::new(pec, months, 30.0),
        cold: true,
        max_step,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every mechanism completes successfully when a reachable step succeeds,
    /// at any decode lag, and reports a step inside the success window.
    #[test]
    fn all_mechanisms_succeed_on_reachable_pages(
        required in 0u32..38,
        plateau in 0u32..4,
        lag in 0usize..4,
        pec in prop::sample::select(vec![0.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 6.0, 12.0]),
    ) {
        for (i, mut c) in controllers().into_iter().enumerate() {
            let ctx = ctx_for(1000 + i as u32, pec, months, 40);
            let (out, _) = drive(c.as_mut(), &ctx, required, plateau, lag, &mut |_| {});
            match out {
                Outcome::Success { step } => {
                    prop_assert!(
                        step >= required && step <= required + plateau,
                        "{}: succeeded at {step}, window [{required}, {}]",
                        c.name(),
                        required + plateau
                    );
                    c.on_end(&ctx, Some(step));
                }
                Outcome::Failure => {
                    prop_assert!(false, "{} failed a reachable page (N={required})", c.name());
                }
            }
        }
    }

    /// When no step can succeed, every mechanism reports failure (and still
    /// terminates and rolls back timing).
    #[test]
    fn all_mechanisms_fail_cleanly_on_unreadable_pages(
        lag in 0usize..4,
        max_step in 3u32..20,
    ) {
        for (i, mut c) in controllers().into_iter().enumerate() {
            let ctx = ctx_for(2000 + i as u32, 2000.0, 12.0, max_step);
            // required step beyond the table ⇒ nothing succeeds.
            let (out, _) = drive(c.as_mut(), &ctx, max_step + 10, 0, lag, &mut |_| {});
            prop_assert_eq!(out, Outcome::Failure);
            c.on_end(&ctx, None);
        }
    }

    /// The simulator answers a failed decode as soon as its sense completes
    /// when the sense answered nothing and the read has nothing else in
    /// flight, ahead of other reads' events. Running other reads' whole
    /// lifecycles on the same die at each such point must leave the read's
    /// answers and outcome those of the plain drive, for every mechanism.
    /// A first read teaches PSO an entry, so its walks can start past the
    /// page's optimum and restart from entry 0.
    #[test]
    fn early_failed_decodes_do_not_depend_on_other_reads(
        warm in 0u32..38,
        required in 0u32..44,
        plateau in 0u32..4,
        other in 0u32..38,
        lag in 0usize..4,
        max_step in prop::sample::select(vec![12u32, 40]),
        pec in prop::sample::select(vec![0.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 6.0, 12.0]),
    ) {
        let rpt = ReadTimingParamTable::default();
        for m in MECHANISMS {
            let ctx = ctx_for(1, pec, months, max_step);
            let warm_up = |c: &mut dyn RetryController| {
                let first = ctx_for(0, pec, months, max_step);
                let (out, _) = drive(c, &first, warm, plateau, 0, &mut |_| {});
                c.on_end(&first, success_step(&out));
            };
            let mut plain = m.make_controller(&rpt);
            warm_up(plain.as_mut());
            let want = drive(plain.as_mut(), &ctx, required, plateau, lag, &mut |_| {});
            let mut shared = m.make_controller(&rpt);
            warm_up(shared.as_mut());
            let mut others = 0;
            let mut between = |c: &mut dyn RetryController| {
                others += 1;
                let read = ctx_for(100 + others, pec, months, max_step);
                let (out, _) = drive(c, &read, other, plateau, 0, &mut |_| {});
                c.on_end(&read, success_step(&out));
            };
            let got = drive(shared.as_mut(), &ctx, required, plateau, lag, &mut between);
            prop_assert_eq!(&got, &want, "{}", plain.name());
            // The sequential walks from entry 0 fail every step below N.
            if required > 0 && matches!(m, Mechanism::Baseline | Mechanism::Ar2) {
                prop_assert!(others > 0, "{}: no early answer was exercised", plain.name());
            }
        }
    }
}
