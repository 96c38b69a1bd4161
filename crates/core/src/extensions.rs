//! The paper's §8 "Discussion" extensions (the paper sketches them as
//! future work). Both are features of
//! [`ReadRetryController`](crate::mechanisms::ReadRetryController):
//!
//! * *"speculatively starting read-retry"* (`Eager-PnAR2`): when the
//!   block's operating condition predicts that the default initial read
//!   would fail anyway (its expected retry count is high), skip it — install
//!   the reduced timing immediately and start the pipelined retry burst at
//!   the first retry entry. Saves the wasted default-timing read plus its
//!   transfer/decode on deeply-retried pages.
//! * *"latency reduction for regular reads"* (`AR2-Regular`): the
//!   ECC-capability margin exists for regular (no-retry) reads too, so
//!   install the RPT-reduced tPRE once per die and leave it on — every read,
//!   including retry-free ones, senses ~25 % faster. The die serves pages of
//!   every age, so the reduction is the RPT's for the oldest retention
//!   bucket at the die's P/E count; its margin guarantees the final (or
//!   only) read step of every page still decodes.
//!
//! The speculative start consults an [`ExpectedStepsTable`] — a
//! controller-plausible profile of the mean retry count per (P/E cycles,
//! retention) bucket, the same shape of offline knowledge the RPT already
//! requires.

use rr_flash::calibration::{Calibration, OperatingCondition};

/// Offline-profiled mean retry steps per (PEC, retention) bucket — the
/// §8 "accurate error model" a controller could ship alongside the RPT.
#[derive(Debug, Clone)]
pub struct ExpectedStepsTable {
    pec_buckets: Vec<f64>,
    ret_buckets: Vec<f64>,
    /// Row-major mean retry steps per bucket corner.
    means: Vec<f64>,
}

impl ExpectedStepsTable {
    /// Builds the table from the chip calibration (Fig. 5's means).
    pub fn from_calibration(cal: &Calibration) -> Self {
        let pec_buckets = vec![250.0, 500.0, 1000.0, 1500.0, 2000.0, f64::MAX];
        let ret_buckets = vec![0.25, 1.0, 3.0, 6.0, 12.0, f64::MAX];
        let mut means = Vec::new();
        for &p in &pec_buckets {
            for &r in &ret_buckets {
                let cond = OperatingCondition::new(p.min(2000.0), r.min(12.0), 30.0);
                means.push(cal.mean_retry_steps(cond));
            }
        }
        Self {
            pec_buckets,
            ret_buckets,
            means,
        }
    }

    /// Expected retry steps at an operating condition (bucket upper corner —
    /// a conservative over-estimate, like the RPT).
    pub fn expected_steps(&self, cond: OperatingCondition) -> f64 {
        let pi = self
            .pec_buckets
            .iter()
            .position(|&b| cond.pec <= b)
            .expect("last bucket is unbounded");
        let ri = self
            .ret_buckets
            .iter()
            .position(|&b| cond.retention_months <= b)
            .expect("last bucket is unbounded");
        self.means[pi * self.ret_buckets.len() + ri]
    }
}

impl Default for ExpectedStepsTable {
    fn default() -> Self {
        Self::from_calibration(&Calibration::asplos21())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::ReadRetryController;
    use crate::rpt::ReadTimingParamTable;
    use rr_sim::readflow::{ReadAction, ReadContext, RetryController};
    use rr_sim::request::TxnId;

    fn ctx(txn: u32, pec: f64, months: f64) -> ReadContext {
        ReadContext {
            txn: TxnId(txn),
            die: 0,
            condition: OperatingCondition::new(pec, months, 30.0),
            cold: true,
            max_step: 40,
        }
    }

    #[test]
    fn expected_steps_table_tracks_fig5() {
        let t = ExpectedStepsTable::default();
        assert!(t.expected_steps(OperatingCondition::new(0.0, 0.1, 30.0)) < 2.0);
        assert!(t.expected_steps(OperatingCondition::new(2000.0, 12.0, 30.0)) > 18.0);
        // Bucketed lookups over-estimate (conservative).
        let exact =
            Calibration::asplos21().mean_retry_steps(OperatingCondition::new(800.0, 5.0, 30.0));
        assert!(t.expected_steps(OperatingCondition::new(800.0, 5.0, 30.0)) >= exact);
    }

    fn walk(from: u32, to: u32, pipelined: bool) -> ReadAction {
        ReadAction::Walk {
            from,
            to,
            pipelined,
        }
    }

    #[test]
    fn eager_skips_initial_read_on_aged_data() {
        let mut c = ReadRetryController::eager_pnar2(
            ReadTimingParamTable::default(),
            ExpectedStepsTable::default(),
            2.0,
        );
        let x = ctx(1, 2000.0, 12.0);
        let acts = c.on_start(&x).to_vec();
        assert!(
            matches!(acts[0], ReadAction::SetFeature { phases: Some(_) }),
            "aged reads must start with the timing switch, got {acts:?}"
        );
        // The pipelined retry walk starts at the first retry entry.
        assert_eq!(acts[1..], [walk(1, 40, true)]);
    }

    #[test]
    fn eager_keeps_default_read_on_fresh_data() {
        let mut c = ReadRetryController::eager_pnar2(
            ReadTimingParamTable::default(),
            ExpectedStepsTable::default(),
            2.0,
        );
        let x = ctx(1, 0.0, 0.0);
        assert_eq!(c.on_start(&x).to_vec(), vec![walk(0, 0, false)]);
    }

    #[test]
    fn eager_misprediction_fallback_covers_entry_zero() {
        let mut c = ReadRetryController::eager_pnar2(
            ReadTimingParamTable::default(),
            ExpectedStepsTable::default(),
            2.0,
        );
        let mut x = ctx(1, 2000.0, 12.0);
        x.max_step = 2;
        // Pipelined from entry 1 under the reduced timing.
        assert_eq!(c.on_start(&x).to_vec()[1..], [walk(1, 2, true)]);
        // Exhausted: restore, and the fallback walk starts at entry 0 (it
        // was skipped).
        assert_eq!(
            c.on_walk_end(&x, None).to_vec(),
            vec![ReadAction::SetFeature { phases: None }, walk(0, 2, true)]
        );
    }

    #[test]
    fn regular_ar2_reduces_once_per_die() {
        let mut c = ReadRetryController::regular_ar2(ReadTimingParamTable::default());
        let x = ctx(1, 1000.0, 6.0);
        let acts = c.on_start(&x).to_vec();
        assert!(matches!(
            acts[0],
            ReadAction::SetFeature { phases: Some(_) }
        ));
        assert_eq!(acts[1..], [walk(0, 40, true)]);
        // The reduction stays installed after the read.
        assert_eq!(
            c.on_walk_end(&x, Some(0)).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 0 }]
        );
        // Second read on the same die goes straight to sensing.
        let y = ctx(2, 1000.0, 6.0);
        assert_eq!(c.on_start(&y).to_vec(), vec![walk(0, 40, true)]);
    }

    #[test]
    fn regular_ar2_installs_the_oldest_bucket_whatever_the_first_read() {
        // A hot first read must not install the 54 % a fresh page tolerates:
        // the die's year-old pages sense at the same timing afterwards.
        let rpt = ReadTimingParamTable::default();
        let oldest = rpt.reduced_phases(OperatingCondition::new(2000.0, 12.0, 30.0));
        assert_ne!(
            oldest,
            rpt.reduced_phases(OperatingCondition::new(2000.0, 0.0, 30.0))
        );
        for months in [0.0, 6.0, 12.0] {
            let mut c = ReadRetryController::regular_ar2(rpt.clone());
            assert_eq!(
                c.on_start(&ctx(1, 2000.0, months)).to_vec(),
                vec![
                    ReadAction::SetFeature {
                        phases: Some(oldest)
                    },
                    walk(0, 40, true)
                ],
                "first read at {months} months"
            );
        }
    }

    #[test]
    #[should_panic(expected = "threshold below 1")]
    fn eager_threshold_validated() {
        ReadRetryController::eager_pnar2(
            ReadTimingParamTable::default(),
            ExpectedStepsTable::default(),
            0.5,
        );
    }
}
