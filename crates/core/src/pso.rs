//! PSO — Process-Similarity-aware Optimization (Shim et al., MICRO'19 \[84\]),
//! the state-of-the-art read-retry *reduction* technique the paper compares
//! against and composes with (§7.3, Fig. 15).
//!
//! PSO reuses the V_REF values recently found by read-retry on pages with
//! similar error characteristics: instead of walking the retry table from
//! entry 0, a read starts a few entries *before* the most recent successful
//! entry for its similarity cluster. The paper reports PSO cuts the retry
//! step count by ~70 % but can never eliminate retries — "every read still
//! incurs at least three retry steps in an aged SSD" — because V_OPT drifts
//! and a guard band is required.
//!
//! PSO's one idea is where a read's retry walk starts, so it is a feature of
//! [`ReadRetryController`](crate::mechanisms::ReadRetryController): the
//! controller asks the [`PsoPredictor`] for each read's first entry and
//! teaches it each successful one. `PSO` (the regular walk) and `PSO+PnAR2`
//! (Fig. 15) are its `pso` and `pso_pnar2` constructors. Clusters are per
//! (die, thermal-class) — cold (long-retention) and hot (recently written)
//! pages have very different V_OPT and must not share predictions.

use std::collections::{HashMap, VecDeque};

/// How many retry-table entries before the cluster's recent optimum a read
/// starts — the guard band that makes PSO's "at least three retry steps".
pub const PSO_GUARD_STEPS: u32 = 3;

/// Sliding-window length of remembered successful entries per cluster.
const PSO_WINDOW: usize = 8;

/// The per-cluster V_REF (retry-entry) predictor.
#[derive(Debug)]
pub struct PsoPredictor {
    guard: u32,
    cache: HashMap<(u32, bool), VecDeque<u32>>,
}

impl Default for PsoPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl PsoPredictor {
    /// Creates an empty predictor (all clusters cold) with the default guard.
    pub fn new() -> Self {
        Self::with_guard(PSO_GUARD_STEPS)
    }

    /// Creates a predictor with an explicit guard band (ablation knob: a
    /// smaller guard means fewer retry steps but more overshoot fallbacks).
    pub fn with_guard(guard: u32) -> Self {
        Self {
            guard,
            cache: HashMap::new(),
        }
    }

    /// The retry-table entry a read on `die` with thermal class `cold`
    /// should start from (0 when the cluster has no history).
    pub fn predict(&self, die: u32, cold: bool) -> u32 {
        self.cache
            .get(&(die, cold))
            .and_then(|w| w.iter().min().copied())
            .map(|m| m.saturating_sub(self.guard))
            .unwrap_or(0)
    }

    /// Records the entry at which a read on `die`/`cold` finally succeeded.
    pub fn record(&mut self, die: u32, cold: bool, successful_entry: u32) {
        let w = self.cache.entry((die, cold)).or_default();
        w.push_back(successful_entry);
        if w.len() > PSO_WINDOW {
            w.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::ReadRetryController;
    use crate::rpt::ReadTimingParamTable;
    use rr_flash::calibration::OperatingCondition;
    use rr_sim::readflow::{ReadAction, ReadContext, RetryController};
    use rr_sim::request::TxnId;

    fn pso() -> impl RetryController {
        ReadRetryController::pso(PsoPredictor::new())
    }

    fn pso_pnar2() -> impl RetryController {
        ReadRetryController::pso_pnar2(ReadTimingParamTable::default(), PsoPredictor::new())
    }

    fn ctx(txn: u32, die: u32, cold: bool) -> ReadContext {
        ReadContext {
            txn: TxnId(txn),
            die,
            condition: OperatingCondition::new(1000.0, 6.0, 30.0),
            cold,
            max_step: 40,
        }
    }

    /// Teaches `c`'s predictor that a cold read on die 0 succeeded at `step`.
    fn teach(c: &mut impl RetryController, step: u32) {
        let x = ctx(1, 0, true);
        c.on_start(&x);
        c.on_walk_end(&x, Some(step));
    }

    /// Drives read `x` through `c` until it completes, with every walk
    /// failing, and returns each action in the order it was issued.
    fn exhaust(c: &mut impl RetryController, x: &ReadContext) -> Vec<ReadAction> {
        let mut log = c.on_start(x).to_vec();
        while !matches!(log.last(), Some(ReadAction::CompleteFailure)) {
            assert!(log.len() < 1_000, "the read did not complete");
            log.extend(c.on_walk_end(x, None));
        }
        log
    }

    fn walk(from: u32, to: u32, pipelined: bool) -> ReadAction {
        ReadAction::Walk {
            from,
            to,
            pipelined,
        }
    }

    #[test]
    fn cold_cache_starts_from_zero() {
        let mut pso = pso();
        assert_eq!(pso.name(), "PSO");
        let x = ctx(1, 0, true);
        assert_eq!(pso.on_start(&x).to_vec(), vec![walk(0, 40, false)]);
    }

    #[test]
    fn warm_cache_skips_ahead_with_guard() {
        let mut pso = pso();
        // Teach the predictor: die 0's cold pages succeed around entry 12.
        teach(&mut pso, 12);
        // The next cold read on die 0 starts at 12 − guard = 9.
        let y = ctx(2, 0, true);
        assert_eq!(pso.on_start(&y).to_vec(), vec![walk(9, 40, false)]);
        // ...which guarantees at least `guard` retry rounds ("at least three
        // retry steps", §3.1) when the page's optimum matches the cluster's.
    }

    #[test]
    fn clusters_are_per_die_and_thermal_class() {
        let mut p = PsoPredictor::new();
        p.record(0, true, 15);
        assert_eq!(p.predict(0, true), 12);
        assert_eq!(p.predict(0, false), 0, "hot pages have their own cluster");
        assert_eq!(p.predict(1, true), 0, "other dies are unaffected");
    }

    #[test]
    fn predictor_tracks_minimum_of_window() {
        let mut p = PsoPredictor::new();
        for s in [20, 18, 22, 19] {
            p.record(3, true, s);
        }
        assert_eq!(p.predict(3, true), 18 - PSO_GUARD_STEPS);
    }

    #[test]
    fn steps_are_translated_between_virtual_and_physical() {
        // PSO over the regular walk: the walk counts from the predicted
        // entry, and every step a read reports is a retry-table entry.
        let mut pso = pso();
        teach(&mut pso, 10);
        let y = ctx(2, 0, true);
        assert_eq!(pso.on_start(&y).to_vec(), vec![walk(7, 40, false)]);
        // Success at entry 9 completes with the table entry.
        assert_eq!(
            pso.on_walk_end(&y, Some(9)).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 9 }]
        );
        // The predictor learned entry 9: the next read starts at 9 − guard.
        let z = ctx(3, 0, true);
        assert_eq!(pso.on_start(&z).to_vec(), vec![walk(6, 40, false)]);

        // PSO+PnAR²: the default-timing initial read senses the predicted
        // entry, and the reduced-timing pipeline resumes one entry later.
        let mut pso = pso_pnar2();
        teach(&mut pso, 10);
        let y = ctx(2, 0, true);
        // No speculation before the timing switch.
        assert_eq!(pso.on_start(&y).to_vec(), vec![walk(7, 7, false)]);
        let reduced = ReadTimingParamTable::default().reduced_phases(y.condition);
        assert_eq!(
            pso.on_walk_end(&y, None).to_vec(),
            vec![
                ReadAction::SetFeature {
                    phases: Some(reduced)
                },
                walk(8, 40, true)
            ]
        );
        // Success at entry 9 completes with the table entry and rolls the
        // timing back.
        assert_eq!(
            pso.on_walk_end(&y, Some(9)).to_vec(),
            vec![
                ReadAction::CompleteSuccess { step: 9 },
                ReadAction::SetFeature { phases: None },
            ]
        );
        let z = ctx(3, 0, true);
        assert_eq!(pso.on_start(&z).to_vec(), vec![walk(6, 6, false)]);
    }

    #[test]
    fn overshoot_falls_back_to_full_walk() {
        // The cluster thinks the optimum is deep: reads start at 39 − 3.
        // Walking to the end of the table without success restarts the
        // walk once from entry 0; the second exhaustion genuinely fails.
        let mut pso = pso();
        teach(&mut pso, 39);
        let log = exhaust(&mut pso, &ctx(2, 0, true));
        let expected = [walk(36, 40, false), walk(0, 40, false)];
        assert_eq!(
            log,
            [&expected[..], &[ReadAction::CompleteFailure]].concat()
        );

        // PSO+PnAR²: default-timing initial read at entry 36, install,
        // reduced-timing pipeline from 37, rollback, default-timing fallback
        // walk from 37; then the same from entry 0.
        let mut pso = pso_pnar2();
        teach(&mut pso, 39);
        let x = ctx(2, 0, true);
        let install = ReadAction::SetFeature {
            phases: Some(ReadTimingParamTable::default().reduced_phases(x.condition)),
        };
        let rollback = ReadAction::SetFeature { phases: None };
        let log = exhaust(&mut pso, &x);
        let from = |first: u32| {
            vec![
                walk(first, first, false),
                install,
                walk(first + 1, 40, true),
                rollback,
                walk(first + 1, 40, true),
            ]
        };
        let expected = [from(36), from(0), vec![ReadAction::CompleteFailure]].concat();
        assert_eq!(log, expected);
    }

    #[test]
    fn name_composes_with_inner() {
        assert_eq!(pso_pnar2().name(), "PSO+PnAR2");
    }
}
