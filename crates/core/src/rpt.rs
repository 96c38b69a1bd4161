//! The Read-timing Parameter Table (RPT) — AR²'s lookup table (§6.2, Fig. 13).
//!
//! SSD manufacturers profile each chip generation offline and store, per
//! (P/E-cycle count, retention age) bucket, the best (largest safe) tPRE
//! reduction. At run time the controller queries the RPT once per read-retry
//! operation and installs the reduced timing with `SET FEATURE`.
//!
//! Two constructors exist:
//!
//! * [`ReadTimingParamTable::from_calibration`] derives the table analytically
//!   from the `rr-flash` calibration with the paper's 14-bit safety margin —
//!   7 bits for temperature-induced errors, 7 for outlier pages (Fig. 11);
//! * `rr-charact::rpt` builds the same table the way the paper does, by
//!   sweeping a simulated chip population (the two must agree; an integration
//!   test checks it).

use rr_flash::calibration::{
    Calibration, OperatingCondition, ECC_CAPABILITY_PER_KIB, RPT_SAFETY_MARGIN_BITS,
    TPRE_MAX_PROFILED_REDUCTION,
};
use rr_flash::timing::SensePhases;

/// One RPT row: the largest safe tPRE reduction for all conditions up to
/// (`pec_max`, `retention_months_max`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RptRow {
    /// Upper bound (inclusive) of the P/E-cycle bucket.
    pub pec_max: f64,
    /// Upper bound (inclusive) of the retention bucket, in months.
    pub retention_months_max: f64,
    /// Safe tPRE reduction fraction for this bucket.
    pub pre_reduction: f64,
    /// Table 1's phases with `pre_reduction` applied, resolved once here so
    /// that every `SET FEATURE` AR² issues is a lookup.
    phases: SensePhases,
}

impl RptRow {
    fn new(pec_max: f64, retention_months_max: f64, pre_reduction: f64) -> Self {
        Self {
            pec_max,
            retention_months_max,
            pre_reduction,
            phases: SensePhases::table1().with_reduction(pre_reduction, 0.0, 0.0),
        }
    }
}

/// The Read-timing Parameter Table.
///
/// # Example
///
/// ```
/// use rr_core::rpt::ReadTimingParamTable;
/// use rr_flash::calibration::{Calibration, OperatingCondition};
///
/// let rpt = ReadTimingParamTable::from_calibration(&Calibration::asplos21());
/// // Fig. 11: between 40 % (worst case) and 54 % (best case) reduction.
/// let worst = rpt.pre_reduction(OperatingCondition::new(2000.0, 12.0, 30.0));
/// let best = rpt.pre_reduction(OperatingCondition::new(0.0, 0.0, 30.0));
/// assert!(worst >= 0.40 - 1e-9);
/// assert!(best <= 0.54 + 1e-9);
/// assert!(best > worst);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReadTimingParamTable {
    /// Rows sorted by (pec_max, retention_months_max); lookup picks the first
    /// row whose bounds cover the query.
    rows: Vec<RptRow>,
    /// PEC bucket upper bounds.
    pec_buckets: Vec<f64>,
    /// Retention bucket upper bounds (months).
    ret_buckets: Vec<f64>,
}

/// The paper's bucket granularity (§6.2 estimates ~36 combinations, 144 B).
const PEC_BUCKETS: [f64; 6] = [250.0, 500.0, 1000.0, 1500.0, 2000.0, f64::MAX];
const RET_BUCKETS: [f64; 6] = [0.25, 1.0, 3.0, 6.0, 12.0, f64::MAX];

/// Reduction search granularity (1 %).
const SEARCH_STEP: f64 = 0.01;

impl ReadTimingParamTable {
    /// Builds the RPT from the analytic calibration, reserving the 14-bit
    /// safety margin of Fig. 11 and capping at the 54 % maximum the paper
    /// ever profiles.
    pub fn from_calibration(cal: &Calibration) -> Self {
        Self::build(|pec, months, reduction| {
            // Profiling is done at 85 °C; the margin covers lower-temperature
            // and outlier-page extra errors (Fig. 11's 7 + 7 bits).
            let cond = OperatingCondition::new(pec, months, 85.0);
            cal.m_err_with_timing(cond, reduction, 0.0, 0.0) + RPT_SAFETY_MARGIN_BITS as f64
                <= ECC_CAPABILITY_PER_KIB as f64
        })
    }

    /// Builds an RPT from an arbitrary safety oracle
    /// (`is_safe(pec, retention_months, reduction)`), used by the
    /// characterization crate's measured-profile construction.
    pub fn build(is_safe: impl Fn(f64, f64, f64) -> bool) -> Self {
        let mut rows = Vec::new();
        for &pec_max in &PEC_BUCKETS {
            for &ret_max in &RET_BUCKETS {
                // Evaluate at the bucket's worst corner (clamped to the
                // characterized range).
                let pec = pec_max.min(2000.0);
                let months = ret_max.min(12.0);
                let mut best = 0.0f64;
                let mut x = SEARCH_STEP;
                while x <= TPRE_MAX_PROFILED_REDUCTION + 1e-9 {
                    if is_safe(pec, months, x) {
                        best = x;
                    }
                    x += SEARCH_STEP;
                }
                rows.push(RptRow::new(pec_max, ret_max, best));
            }
        }
        Self {
            rows,
            pec_buckets: PEC_BUCKETS.to_vec(),
            ret_buckets: RET_BUCKETS.to_vec(),
        }
    }

    /// A *non-adaptive* table applying the same reduction to every bucket —
    /// the ablation baseline showing why AR² "carefully decides the reduction
    /// amount considering the current operating conditions" (§6.2): a fixed
    /// aggressive value is unsafe on worn/old blocks, a fixed conservative
    /// one wastes margin on fresh ones.
    ///
    /// # Panics
    ///
    /// Panics if `reduction` is not within `[0, 0.58)` (the hard-fail wall).
    pub fn fixed(reduction: f64) -> Self {
        assert!(
            (0.0..0.58).contains(&reduction),
            "fixed reduction {reduction} outside the physically meaningful range"
        );
        let mut table = Self::build(|_, _, _| false);
        for row in &mut table.rows {
            *row = RptRow::new(row.pec_max, row.retention_months_max, reduction);
        }
        table
    }

    /// The rows (bucket grid in row-major PEC × retention order).
    pub fn rows(&self) -> &[RptRow] {
        &self.rows
    }

    /// Estimated on-device size in bytes (§6.2: ~4 B per entry).
    pub fn storage_bytes(&self) -> usize {
        self.rows.len() * 4
    }

    /// The safe tPRE reduction for an operating condition.
    pub fn pre_reduction(&self, cond: OperatingCondition) -> f64 {
        self.row(cond).pre_reduction
    }

    /// The reduced sensing phases AR² installs for a condition.
    pub fn reduced_phases(&self, cond: OperatingCondition) -> SensePhases {
        self.row(cond).phases
    }

    /// The row whose bucket covers a condition.
    fn row(&self, cond: OperatingCondition) -> &RptRow {
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
        &self.rows[pi * self.ret_buckets.len() + ri]
    }

    /// Eq. 5's ρ — the tR ratio achieved at a condition.
    pub fn rho(&self, cond: OperatingCondition) -> f64 {
        SensePhases::table1().rho_vs(&self.reduced_phases(cond))
    }
}

impl Default for ReadTimingParamTable {
    fn default() -> Self {
        Self::from_calibration(&Calibration::asplos21())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rpt() -> ReadTimingParamTable {
        ReadTimingParamTable::from_calibration(&Calibration::asplos21())
    }

    #[test]
    fn fig11_reduction_range_40_to_54_pct() {
        // Fig. 11: "we can significantly reduce tPRE by at least 40 % (up to
        // 54 %) under any operating condition", with the 14-bit margin.
        let t = rpt();
        for row in t.rows() {
            assert!(
                row.pre_reduction >= 0.40 - 1e-9,
                "bucket ({}, {}) got only {:.0}%",
                row.pec_max,
                row.retention_months_max,
                row.pre_reduction * 100.0
            );
            assert!(row.pre_reduction <= TPRE_MAX_PROFILED_REDUCTION + 1e-9);
        }
        let worst = t.pre_reduction(OperatingCondition::new(2000.0, 12.0, 30.0));
        let best = t.pre_reduction(OperatingCondition::new(0.0, 0.0, 30.0));
        assert!(
            (worst - 0.40).abs() < 0.03,
            "worst-case ≈ 40 %, got {worst}"
        );
        assert!((best - 0.54).abs() < 0.01, "best-case ≈ 54 %, got {best}");
    }

    #[test]
    fn reduction_monotone_in_wear_and_age() {
        let t = rpt();
        let mut prev = 1.0;
        for pec in [0.0, 500.0, 1000.0, 1500.0, 2000.0] {
            let r = t.pre_reduction(OperatingCondition::new(pec, 12.0, 30.0));
            assert!(r <= prev + 1e-9, "reduction must not grow with wear");
            prev = r;
        }
        let young = t.pre_reduction(OperatingCondition::new(1000.0, 0.1, 30.0));
        let old = t.pre_reduction(OperatingCondition::new(1000.0, 12.0, 30.0));
        assert!(old <= young);
    }

    #[test]
    fn rho_reflects_25pct_tr_cut() {
        // §6.2: "a 25 % tR reduction (= 22.5 µs) ... is easily possible".
        let t = rpt();
        let rho = t.rho(OperatingCondition::new(2000.0, 12.0, 30.0));
        assert!(
            (1.0 - rho) >= 0.24,
            "worst-case tR cut should be ≈ 25 %, got {:.1} %",
            (1.0 - rho) * 100.0
        );
    }

    #[test]
    fn storage_matches_paper_estimate() {
        // §6.2: "with 36 (PEC, t_RET) combinations, we estimate the table
        // size to be only 144 bytes per chip."
        let t = rpt();
        assert_eq!(t.rows().len(), 36);
        assert_eq!(t.storage_bytes(), 144);
    }

    #[test]
    fn reduced_phases_only_touch_tpre() {
        let t = rpt();
        let p = t.reduced_phases(OperatingCondition::new(1000.0, 6.0, 30.0));
        let d = SensePhases::table1();
        assert!(p.t_pre < d.t_pre);
        assert_eq!(p.t_eval, d.t_eval);
        assert_eq!(p.t_disch, d.t_disch);
    }

    #[test]
    fn reduced_phases_are_resolved_from_each_bucket_reduction() {
        // Every bucket corner, its neighbours and the unbounded buckets; a
        // fixed table re-resolves the phases it overrides.
        let pecs = [
            0.0, 250.0, 250.5, 500.0, 1000.0, 1500.0, 2000.0, 2000.5, 1e9,
        ];
        let months = [0.0, 0.25, 0.3, 1.0, 3.0, 6.0, 12.0, 12.5, 1e9];
        for t in [rpt(), ReadTimingParamTable::fixed(0.30)] {
            for &pec in &pecs {
                for &m in &months {
                    let cond = OperatingCondition::new(pec, m, 30.0);
                    let expected =
                        SensePhases::table1().with_reduction(t.pre_reduction(cond), 0.0, 0.0);
                    assert_eq!(t.reduced_phases(cond), expected, "at ({pec}, {m})");
                }
            }
        }
    }

    #[test]
    fn final_step_stays_safe_with_rpt_reduction() {
        // End-to-end safety: with the RPT's reduction, M_ERR plus the margin
        // stays within capability at every bucket corner and temperature.
        let t = rpt();
        let cal = Calibration::asplos21();
        for pec in [0.0, 250.0, 1000.0, 2000.0] {
            for months in [0.0, 1.0, 6.0, 12.0] {
                for temp in [30.0, 55.0, 85.0] {
                    let cond = OperatingCondition::new(pec, months, temp);
                    let red = t.pre_reduction(cond);
                    let m = cal.m_err_with_timing(cond, red, 0.0, 0.0);
                    assert!(
                        m <= ECC_CAPABILITY_PER_KIB as f64,
                        "unsafe at ({pec}, {months}, {temp}): {m}"
                    );
                }
            }
        }
    }
}
