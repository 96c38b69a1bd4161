//! Protocol-conformance harness: drives every retry mechanism through the
//! abstract (timing-free) walk protocol against a synthetic page oracle and
//! checks the contract every [`RetryController`] must honour:
//!
//! * the read always terminates (Complete, never a stuck state);
//! * it completes *successfully* whenever some reachable step succeeds;
//! * every walk stays inside the retry table, and every answer that does
//!   not complete the read walks on;
//! * `SET FEATURE` installations are balanced by rollbacks at completion
//!   (the die must never be left with stale reduced timing);
//! * the end of an exhausted walk, which the simulator may deliver as soon
//!   as the walk's last sense completes, answers the same whatever other
//!   reads do before the decode ends.
//!
//! The simulator walks the table itself and stops at the first step that
//! decodes, so the harness hands each walk's end to the controller
//! directly; the event simulator's tests cover the timing of the steps.

use proptest::prelude::*;
use rr_core::experiment::Mechanism;
use rr_core::rpt::ReadTimingParamTable;
use rr_flash::calibration::OperatingCondition;
use rr_sim::readflow::{ReadAction, ReadContext, RetryController};
use rr_sim::request::TxnId;

/// The outcome of driving one read through a controller.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Success { step: u32 },
    Failure,
}

/// Runs other reads on the controller between a walk's last sense and its
/// failed decode.
type Between<'a> = &'a mut dyn FnMut(&mut dyn RetryController);

/// A timing-free walk protocol: every walk ends at its first step inside
/// the success window `[required_step, required_step + plateau]`, or
/// exhausted. Before each exhausted walk's end, which the simulator may
/// deliver early, it calls `between`. Returns the outcome and every answer
/// the controller gave, in order.
fn drive(
    controller: &mut dyn RetryController,
    ctx: &ReadContext,
    required_step: u32,
    plateau: u32,
    between: Between,
) -> (Outcome, Vec<Vec<ReadAction>>) {
    // Success window mirrors the error model: [required, required+plateau],
    // with reduced timing irrelevant here (the oracle is timing-blind; the
    // event-simulator tests cover timing interactions).
    let succeeds = |step: u32| step >= required_step && step <= required_step + plateau;
    let name = controller.name().to_string();
    let mut feature_installs = 0i64;
    let mut feature_rollbacks = 0i64;
    let mut answers = Vec::new();
    let mut answer = controller.on_start(ctx);
    let outcome = loop {
        assert!(answers.len() < 1_000, "{name}: protocol did not terminate");
        answers.push(answer.to_vec());
        let mut walk = None;
        let mut outcome = None;
        for a in answer {
            match a {
                ReadAction::Walk { from, to, .. } => {
                    assert!(
                        walk.is_none() && from <= to && to <= ctx.max_step,
                        "{name}: walk {from}..={to} in {:?}",
                        answers.last()
                    );
                    walk = Some(from..=to);
                }
                ReadAction::SetFeature { phases: Some(_) } => feature_installs += 1,
                ReadAction::SetFeature { phases: None } => feature_rollbacks += 1,
                ReadAction::CompleteSuccess { step } => outcome = Some(Outcome::Success { step }),
                ReadAction::CompleteFailure => outcome = Some(Outcome::Failure),
            }
        }
        if let Some(outcome) = outcome {
            assert!(walk.is_none(), "{name}: walked on after completing");
            break outcome;
        }
        let walk = walk.unwrap_or_else(|| panic!("{name}: stalled on {:?}", answers.last()));
        let decoded = walk.into_iter().find(|&step| succeeds(step));
        if decoded.is_none() {
            between(controller);
        }
        answer = controller.on_walk_end(ctx, decoded);
    };
    // Any installed reduced timing must be rolled back by completion time
    // (counting actions issued up to and including the completing answer).
    // AR2-Regular is exempt: leaving the reduction installed die-wide is its
    // documented design (§8's regular-read extension).
    assert!(
        name == "AR2-Regular" || feature_rollbacks >= feature_installs,
        "reduced timing left installed: {feature_installs} installs vs {feature_rollbacks} rollbacks"
    );
    (outcome, answers)
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

    /// Every mechanism completes successfully when a reachable step succeeds
    /// and reports a step inside the success window.
    #[test]
    fn all_mechanisms_succeed_on_reachable_pages(
        required in 0u32..38,
        plateau in 0u32..4,
        pec in prop::sample::select(vec![0.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 6.0, 12.0]),
    ) {
        for (i, mut c) in controllers().into_iter().enumerate() {
            let ctx = ctx_for(1000 + i as u32, pec, months, 40);
            match drive(c.as_mut(), &ctx, required, plateau, &mut |_| {}).0 {
                Outcome::Success { step } => {
                    prop_assert!(
                        step >= required && step <= required + plateau,
                        "{}: succeeded at {step}, window [{required}, {}]",
                        c.name(),
                        required + plateau
                    );
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
    fn all_mechanisms_fail_cleanly_on_unreadable_pages(max_step in 3u32..20) {
        for (i, mut c) in controllers().into_iter().enumerate() {
            let ctx = ctx_for(2000 + i as u32, 2000.0, 12.0, max_step);
            // required step beyond the table ⇒ nothing succeeds.
            let (out, _) = drive(c.as_mut(), &ctx, max_step + 10, 0, &mut |_| {});
            prop_assert_eq!(out, Outcome::Failure);
        }
    }

    /// The simulator may deliver an exhausted walk's end as soon as the
    /// walk's last sense completes, ahead of other reads' events. Running
    /// other reads' whole lifecycles on the same die at each such point
    /// must leave the read's answers and outcome those of the plain drive,
    /// for every mechanism. A first read teaches PSO an entry, so its walks
    /// can start past the page's optimum and restart from entry 0.
    #[test]
    fn early_failed_decodes_do_not_depend_on_other_reads(
        warm in 0u32..38,
        required in 0u32..44,
        plateau in 0u32..4,
        other in 0u32..38,
        max_step in prop::sample::select(vec![12u32, 40]),
        pec in prop::sample::select(vec![0.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 6.0, 12.0]),
    ) {
        let rpt = ReadTimingParamTable::default();
        for m in MECHANISMS {
            let ctx = ctx_for(1, pec, months, max_step);
            let warm_up = |c: &mut dyn RetryController| {
                let first = ctx_for(0, pec, months, max_step);
                drive(c, &first, warm, plateau, &mut |_| {});
            };
            let mut plain = m.make_controller(&rpt);
            warm_up(plain.as_mut());
            let want = drive(plain.as_mut(), &ctx, required, plateau, &mut |_| {});
            let mut shared = m.make_controller(&rpt);
            warm_up(shared.as_mut());
            let mut others = 0;
            let mut between = |c: &mut dyn RetryController| {
                others += 1;
                let read = ctx_for(100 + others, pec, months, max_step);
                drive(c, &read, other, plateau, &mut |_| {});
            };
            let got = drive(shared.as_mut(), &ctx, required, plateau, &mut between);
            prop_assert_eq!(&got, &want, "{}", plain.name());
            // The initial read at entry 0 is a one-step walk that fails below N.
            if required > 0 && matches!(m, Mechanism::Ar2 | Mechanism::PnAr2) {
                prop_assert!(others > 0, "{}: no early answer was exercised", plain.name());
            }
        }
    }
}
