//! The paper's read-retry mechanisms as one [`RetryController`] over the
//! `rr-sim` engine: [`ReadRetryController`] implements PR² (§6.1), AR²
//! (§6.2), PnAR², the two §8 extensions and PSO (§7.3) from three features.
//!
//! * **Pipelining** (PR², Fig. 12(b)) starts each retry step right after
//!   the previous one's sensing, using `CACHE READ`, and kills the one
//!   speculative extra step with `RESET`: `tRETRY = N_RR·tR + tDMA + tECC`
//!   (Eq. 4).
//! * **RPT timing** (AR², Fig. 13) spends the final step's ECC margin on a
//!   40–54 % shorter tPRE, looked up per (P/E cycles, retention age) and
//!   installed with `SET FEATURE`: with pipelining,
//!   `tRETRY = tSET + ρ·N_RR·tR + tDMA + tECC` (Eq. 5).
//! * **PSO's start entry** (\[84\], Fig. 15) starts each read's walk a
//!   guard band before its cluster's recent optimum (see [`crate::pso`]).
//!
//! The regular baseline is `rr_sim::readflow::BaselineController`; `NoRR`
//! is the baseline on `SsdConfig::ideal()`.
//! [`crate::experiment::Mechanism::make_controller`] builds each of them.

use crate::extensions::ExpectedStepsTable;
use crate::pso::{PsoPredictor, PSO_GUARD_STEPS};
use crate::rpt::ReadTimingParamTable;
use rr_flash::calibration::OperatingCondition;
use rr_flash::timing::SensePhases;
use rr_sim::readflow::{Actions, ReadAction, ReadContext, RetryController, TxnTable};
use std::collections::HashSet;

#[cfg(test)]
mod ar2;
#[cfg(test)]
mod pnar2;
#[cfg(test)]
mod pr2;

/// When the RPT-reduced tPRE is installed with `SET FEATURE`.
#[derive(Debug)]
enum RptTiming {
    /// Never: every step senses at default timing (PR²).
    Never,
    /// After the initial read fails; rolled back when the read completes
    /// (AR², PnAR²).
    AfterInitialFailure,
    /// Before the initial read when the expected retry count reaches
    /// `threshold`, otherwise after it fails; rolled back at completion
    /// (§8's speculative retry start).
    Eager {
        expected: ExpectedStepsTable,
        threshold: f64,
    },
    /// Once per die, by the die's first read, and never rolled back (§8's
    /// regular-read latency reduction).
    PerDie { installed: HashSet<u32> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Default-timing initial read; its failure installs the reduced timing.
    Initial,
    /// Retry walk under timing this read installed: success rolls it back,
    /// exhaustion restores the default and walks once more (§6.2).
    Reduced,
    /// Walk under the die's standing timing: exhaustion is a read failure.
    Standing,
}

#[derive(Debug, Clone, Copy)]
struct ReadState {
    phase: Phase,
    /// The entry the walk counts from: PSO's predicted start, otherwise 0.
    first: u32,
    /// The first step of the default-timing fallback walk: `first` when the
    /// initial read was skipped, `first + 1` otherwise.
    fallback_from: u32,
}

/// The read-retry controller behind PR², AR², PnAR², the §8 variants and
/// PSO.
///
/// Three features set its behaviour: whether retry steps are pipelined with
/// `CACHE READ` (§6.1, Eq. 4), when the RPT timing of §6.2 (Eq. 5) is
/// installed, and which entry each read's walk starts from. The simulator
/// walks the table; the controller decides only at walk boundaries. A
/// pipelined walk senses step `n + 1` as soon as step `n`'s sensing
/// completes, and the simulator kills the one speculative extra step with
/// `RESET` on success. The pipeline starts only once the read's timing is
/// final, so a default-timing initial read that may be followed by a `SET
/// FEATURE` is a one-step walk, never speculated past (Fig. 13).
///
/// | mechanism | pipelined | RPT timing installed |
/// |---|---|---|
/// | PR² | yes | never |
/// | AR² | no | after the initial read fails, rolled back |
/// | PnAR² | yes | after the initial read fails, rolled back |
/// | Eager-PnAR² | yes | before the initial read if predicted deep, rolled back |
/// | AR²-Regular | yes | once per die, kept |
/// | PSO | no | never |
/// | PSO+PnAR² | yes | after the initial read fails, rolled back |
///
/// A read walks from entry 0, or under PSO from the entry its
/// [`PsoPredictor`] forecasts (at most `max_step − PSO_GUARD_STEPS`), which
/// learns each successful entry.
///
/// If the table is exhausted under timing the read installed itself (an
/// outlier page beyond the RPT margin), the controller restores the default
/// timing and walks the table once more. If it is exhausted after a PSO
/// start past entry 0 (the prediction overshot), the read starts over once
/// from entry 0.
#[derive(Debug)]
pub struct ReadRetryController {
    name: &'static str,
    pipelined: bool,
    timing: RptTiming,
    rpt: ReadTimingParamTable,
    /// Boxed: only PSO reads it, and the other controllers keep their size.
    pso: Option<Box<PsoPredictor>>,
    states: TxnTable<ReadState>,
}

const UNKNOWN_READ: &str = "event for an unknown read";

fn install(phases: SensePhases) -> ReadAction {
    ReadAction::SetFeature {
        phases: Some(phases),
    }
}

impl ReadRetryController {
    fn new(
        name: &'static str,
        pipelined: bool,
        timing: RptTiming,
        rpt: ReadTimingParamTable,
    ) -> Self {
        Self {
            name,
            pipelined,
            timing,
            rpt,
            pso: None,
            states: TxnTable::new(),
        }
    }

    /// PR²: pipelined retry steps at default timing (§6.1).
    pub fn pr2() -> Self {
        // Never consulted: PR² installs no timing.
        let rpt = ReadTimingParamTable::fixed(0.0);
        Self::new("PR2", true, RptTiming::Never, rpt)
    }

    /// AR²: sequential retry steps at the RPT-reduced tPRE (§6.2).
    pub fn ar2(rpt: ReadTimingParamTable) -> Self {
        Self::new("AR2", false, RptTiming::AfterInitialFailure, rpt)
    }

    /// PnAR²: pipelined retry steps at the RPT-reduced tPRE (§7.2).
    pub fn pnar2(rpt: ReadTimingParamTable) -> Self {
        Self::new("PnAR2", true, RptTiming::AfterInitialFailure, rpt)
    }

    /// PnAR² that skips the default initial read when `expected` predicts at
    /// least `threshold` retry steps for the block (§8).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is below 1.
    pub fn eager_pnar2(
        rpt: ReadTimingParamTable,
        expected: ExpectedStepsTable,
        threshold: f64,
    ) -> Self {
        assert!(
            threshold >= 1.0,
            "a threshold below 1 would skip reads that need no retry"
        );
        let timing = RptTiming::Eager {
            expected,
            threshold,
        };
        Self::new("Eager-PnAR2", true, timing, rpt)
    }

    /// PnAR² with the reduced tPRE installed once per die and kept, so
    /// retry-free reads sense faster too (§8).
    pub fn regular_ar2(rpt: ReadTimingParamTable) -> Self {
        let timing = RptTiming::PerDie {
            installed: HashSet::new(),
        };
        Self::new("AR2-Regular", true, timing, rpt)
    }

    /// PSO: the regular sequential walk at default timing, started at the
    /// entry `predictor` forecasts (\[84\], Fig. 15).
    pub fn pso(predictor: PsoPredictor) -> Self {
        // Never consulted: PSO installs no timing.
        let rpt = ReadTimingParamTable::fixed(0.0);
        Self {
            pso: Some(Box::new(predictor)),
            ..Self::new("PSO", false, RptTiming::Never, rpt)
        }
    }

    /// PnAR² started at the entry `predictor` forecasts (Fig. 15).
    pub fn pso_pnar2(rpt: ReadTimingParamTable, predictor: PsoPredictor) -> Self {
        Self {
            pso: Some(Box::new(predictor)),
            ..Self::new("PSO+PnAR2", true, RptTiming::AfterInitialFailure, rpt)
        }
    }

    /// The walk read `ctx` takes from entry `from` in `phase`: the initial
    /// read is one default-timing step, any other walk runs to the table's
    /// end.
    fn walk(&self, ctx: &ReadContext, phase: Phase, from: u32) -> ReadAction {
        let initial = phase == Phase::Initial;
        ReadAction::Walk {
            from,
            to: if initial { from } else { ctx.max_step },
            pipelined: self.pipelined && !initial,
        }
    }

    /// Starts read `ctx`'s walk at entry `first`.
    fn start(&mut self, ctx: &ReadContext, first: u32) -> Actions {
        let (phase, install_for) = match &mut self.timing {
            RptTiming::Never => (Phase::Standing, None),
            RptTiming::AfterInitialFailure => (Phase::Initial, None),
            RptTiming::Eager {
                expected,
                threshold,
            } if expected.expected_steps(ctx.condition) >= *threshold => {
                // Skip the doomed default read: install the timing now.
                (Phase::Reduced, Some(ctx.condition))
            }
            RptTiming::Eager { .. } => (Phase::Initial, None),
            RptTiming::PerDie { installed } => {
                // The die serves pages of every age: install the reduction
                // the RPT marks safe for its oldest bucket at this wear.
                let oldest = OperatingCondition {
                    retention_months: f64::MAX,
                    ..ctx.condition
                };
                (Phase::Standing, installed.insert(ctx.die).then_some(oldest))
            }
        };
        let state = ReadState {
            phase,
            first,
            fallback_from: first + u32::from(install_for.is_none()),
        };
        self.states.insert(ctx.txn, state);
        match install_for {
            None => Actions::one(self.walk(ctx, phase, first)),
            // A read-level install retries from `first + 1` (`first` would
            // fail like the skipped initial read); a die-level one precedes
            // the initial read.
            Some(cond) => {
                let from = first + u32::from(phase == Phase::Reduced);
                Actions::two(
                    install(self.rpt.reduced_phases(cond)),
                    self.walk(ctx, phase, from),
                )
            }
        }
    }
}

impl RetryController for ReadRetryController {
    fn on_start(&mut self, ctx: &ReadContext) -> Actions {
        let first = self.pso.as_ref().map_or(0, |p| {
            p.predict(ctx.die, ctx.cold)
                .min(ctx.max_step.saturating_sub(PSO_GUARD_STEPS))
        });
        self.start(ctx, first)
    }

    fn on_walk_end(&mut self, ctx: &ReadContext, decoded: Option<u32>) -> Actions {
        let s = self.states.get_mut(ctx.txn).expect(UNKNOWN_READ);
        let ReadState {
            phase,
            first,
            fallback_from,
        } = *s;
        match (decoded, phase) {
            (Some(step), _) => {
                self.states.remove(ctx.txn);
                if let Some(pso) = &mut self.pso {
                    pso.record(ctx.die, ctx.cold, step);
                }
                let mut actions = Actions::one(ReadAction::CompleteSuccess { step });
                if phase == Phase::Reduced {
                    // Roll the timing back; completion does not wait for it.
                    actions.push(ReadAction::SetFeature { phases: None });
                }
                actions
            }
            (None, Phase::Initial) => {
                // Query the RPT and install the reduced tPRE for the retry
                // walk.
                s.phase = Phase::Reduced;
                Actions::two(
                    install(self.rpt.reduced_phases(ctx.condition)),
                    self.walk(ctx, Phase::Reduced, first + 1),
                )
            }
            (None, Phase::Reduced) => {
                // §6.2 outlier fallback: restore the default and walk once
                // more.
                s.phase = Phase::Standing;
                Actions::two(
                    ReadAction::SetFeature { phases: None },
                    self.walk(ctx, Phase::Standing, fallback_from),
                )
            }
            // PSO's start overshot the page's optimum: walk once more, from
            // entry 0.
            (None, Phase::Standing) if first > 0 => self.start(ctx, 0),
            (None, Phase::Standing) => {
                self.states.remove(ctx.txn);
                Actions::one(ReadAction::CompleteFailure)
            }
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}
