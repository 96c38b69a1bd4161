//! Calibration of the NAND error model to the paper's measured data.
//!
//! The paper characterizes 160 real 48-layer 3D TLC chips; we have none, so
//! (per DESIGN.md §2) we substitute an analytic model whose outputs are pinned
//! to every quantitative statement in §3.1 and §5 of the paper:
//!
//! * **Retry-step counts** (Fig. 5) — bilinear anchor grid over
//!   (P/E cycles × retention months), `mean_retry_steps`.
//! * **M_ERR, the max raw bit errors per 1 KiB in the final retry step**
//!   (Fig. 7) — anchor grid at 85 °C plus additive temperature offsets,
//!   `m_err`.
//! * **ΔM_ERR from read-timing reduction** (Figs. 8–10) — exponential penalty
//!   curves per parameter with a super-additive tPRE×tDISCH coupling term,
//!   `delta_m_err`.
//! * **The "Fail" boundary** (Fig. 11) — reductions beyond a hard threshold
//!   make sensing collapse outright, [`TPRE_HARD_FAIL_REDUCTION`].
//!
//! Unit tests at the bottom of this file assert each anchor from the paper;
//! DESIGN.md §5 lists them with their source sentences.

use rr_util::interp::Grid2;

/// ECC correction capability: 72 raw bit errors per 1-KiB codeword (§2.4,
/// quoting Micron's 3D NAND flyer \[73\]).
pub const ECC_CAPABILITY_PER_KIB: u32 = 72;

/// Codewords per 16-KiB page (1-KiB codewords).
pub const CODEWORDS_PER_PAGE: u32 = 16;

/// The safety margin Fig. 11 reserves when choosing reduced tPRE: 7 bits for
/// temperature-induced errors + 7 bits for outlier pages.
pub const RPT_SAFETY_MARGIN_BITS: u32 = 14;

/// Largest tPRE reduction the paper's Fig. 11 ever selects (54 %).
pub const TPRE_MAX_PROFILED_REDUCTION: f64 = 0.54;

/// tPRE reductions at or beyond this fraction make the precharge phase fail
/// outright (the "Fail" column at ΔtPRE = 60 % in Fig. 11): the bit lines can
/// no longer reach V_PRE at all and the page reads as garbage.
pub const TPRE_HARD_FAIL_REDUCTION: f64 = 0.58;

/// tEVAL reductions at or beyond this fraction fail outright (§5.2.1 shows
/// even 20 % adds 30 errors on a fresh page; the curve explodes shortly after).
pub const TEVAL_HARD_FAIL_REDUCTION: f64 = 0.35;

/// tDISCH reductions at or beyond this fraction fail outright.
pub const TDISCH_HARD_FAIL_REDUCTION: f64 = 0.45;

/// Sentinel error count returned once a timing reduction crosses its hard-fail
/// boundary — far beyond any ECC capability.
pub const HARD_FAIL_ERRORS: f64 = 10_000.0;

/// Largest number of retry steps the manufacturer's retry table supports.
/// Fig. 5 tops out around 25 steps at (2K P/E, 12 months); real vendor tables
/// for this chip generation have a few dozen entries.
pub const MAX_RETRY_STEPS: u32 = 40;

/// An operating condition: the triple the paper varies in every experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingCondition {
    /// Program/erase cycle count of the block.
    pub pec: f64,
    /// Effective retention age in months at 30 °C (footnote 7).
    pub retention_months: f64,
    /// Operating temperature in °C when the page is read.
    pub temp_c: f64,
}

impl OperatingCondition {
    /// Creates a condition.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or non-finite (temperatures below
    /// 0 °C are outside the characterized range).
    pub fn new(pec: f64, retention_months: f64, temp_c: f64) -> Self {
        assert!(
            pec.is_finite() && pec >= 0.0,
            "P/E cycle count must be finite and non-negative"
        );
        assert!(
            retention_months.is_finite() && retention_months >= 0.0,
            "retention age must be finite and non-negative"
        );
        assert!(
            temp_c.is_finite() && temp_c >= 0.0,
            "temperature must be finite and non-negative"
        );
        Self {
            pec,
            retention_months,
            temp_c,
        }
    }

    /// The paper's reference temperature for retention accounting (30 °C).
    pub const ROOM: f64 = 30.0;
}

impl Default for OperatingCondition {
    /// Fresh block, no retention, 30 °C.
    fn default() -> Self {
        Self::new(0.0, 0.0, 30.0)
    }
}

/// The calibrated chip model parameters. One value of this type describes one
/// chip *population* (the paper's 160 chips of a single generation);
/// per-chip/block/page variation is layered on top by the error model.
#[derive(Debug, Clone)]
pub struct Calibration {
    retry_mean: Grid2,
    m_err_85c: Grid2,
}

impl Calibration {
    /// The calibration matching the paper's 48-layer 3D TLC chips.
    pub fn asplos21() -> Self {
        // Mean retry steps, Fig. 5 anchors (see DESIGN.md §5):
        //   (0, 0) = 0        fresh page: no read-retry
        //   (0, 3) = 5.5      "every read requires more than three retry steps"
        //                     (population minimum stays above 3 with the
        //                     error model's ±2σ page spread)
        //   (0, 6) = 6.6      "54.4 % of reads incur at least seven retry
        //                     steps": P(steps ≥ 7) ≈ 0.54 with the ±2σ spread
        //   (0, 12) = 11.0    trend continuation (Fig. 5 left panel)
        //   (1K, 3) = 10.2    "at least eight retry steps ... after a 3-month
        //                     age": population minimum ≥ 8 with the ±2σ spread
        //   (2K, 12) = 19.9   "the average number of retry steps ... increases
        //                     to 19.9"
        let retry_mean = Grid2::new(
            vec![0.0, 1000.0, 2000.0],
            vec![0.0, 3.0, 6.0, 9.0, 12.0],
            vec![
                vec![0.0, 5.5, 6.6, 9.0, 11.0],
                vec![1.5, 10.2, 12.5, 14.5, 16.5],
                vec![3.0, 12.5, 16.0, 18.2, 19.9],
            ],
        )
        .expect("static anchor grid is well-formed");

        // M_ERR at 85 °C, Fig. 7 anchors:
        //   (0, 3) = 15 and (1K, 12) = 30  (§5.1 second observation)
        //   (2K, 12) = 35                  (§5.2.1: "where M_ERR = 35")
        let m_err_85c = Grid2::new(
            vec![0.0, 1000.0, 2000.0],
            vec![0.0, 3.0, 6.0, 9.0, 12.0],
            vec![
                vec![8.0, 15.0, 18.0, 20.0, 22.0],
                vec![12.0, 22.0, 26.0, 28.0, 30.0],
                vec![15.0, 26.0, 31.0, 33.0, 35.0],
            ],
        )
        .expect("static anchor grid is well-formed");

        Self {
            retry_mean,
            m_err_85c,
        }
    }

    /// Mean number of retry steps for a read at `cond` (Fig. 5).
    ///
    /// Temperature has no first-order effect on the retry count in the paper's
    /// characterization (Fig. 5 is measured per (PEC, t_RET) only), so `cond.temp_c`
    /// is ignored here; it matters for [`Calibration::m_err`].
    pub fn mean_retry_steps(&self, cond: OperatingCondition) -> f64 {
        self.retry_mean.at(cond.pec, cond.retention_months)
    }

    /// Maximum raw bit errors per 1-KiB codeword in the *final* retry step
    /// (Fig. 7), including the temperature offset (§5.1 third observation:
    /// +3 errors at 55 °C and +5 at 30 °C relative to 85 °C).
    pub fn m_err(&self, cond: OperatingCondition) -> f64 {
        self.m_err_85c.at(cond.pec, cond.retention_months) + temp_offset_errors(cond.temp_c)
    }

    /// ECC-capability margin in the final retry step (§3.2.2 footnote 5):
    /// capability − M_ERR, floored at zero.
    pub fn ecc_margin(&self, cond: OperatingCondition) -> f64 {
        (ECC_CAPABILITY_PER_KIB as f64 - self.m_err(cond)).max(0.0)
    }

    /// ΔM_ERR: the maximum *additional* raw bit errors per 1 KiB caused by
    /// reducing the read-timing parameters by the given fractions
    /// (Figs. 8, 9, 10).
    ///
    /// `pre`, `eval` and `disch` are reduction fractions in `[0, 1)`. The
    /// model is exponential in each fraction, scaled by (PEC, retention)
    /// severity factors, with a super-additive coupling between tPRE and
    /// tDISCH (§5.2.2: the discharge phase of one read feeds the precharge
    /// phase of the next, so reducing both interacts destructively). Crossing
    /// a hard-fail boundary returns [`HARD_FAIL_ERRORS`].
    ///
    /// The penalty factors into a per-condition half
    /// ([`Calibration::penalty_amplitudes`]) and a per-timing half
    /// ([`Reductions::new`]); a simulator resolves each once and combines
    /// them per sense with [`PenaltyAmplitudes::delta_m_err`].
    pub fn delta_m_err(&self, cond: OperatingCondition, pre: f64, eval: f64, disch: f64) -> f64 {
        self.penalty_amplitudes(cond)
            .delta_m_err(&Reductions::new(pre, eval, disch))
    }

    /// The operating-condition half of [`Calibration::delta_m_err`]: how
    /// strongly each phase's reduction hurts under `cond`.
    pub fn penalty_amplitudes(&self, cond: OperatingCondition) -> PenaltyAmplitudes {
        let p = cond.pec / 1000.0;
        let t = cond.retention_months;
        PenaltyAmplitudes {
            // tPRE penalty: A · (e^{k·x} − 1); §5.2.1 calibration (DESIGN.md §5).
            pre: 0.8 * (1.0 + 0.3 * p) * (1.0 + 0.4 * (1.0 + t / 3.0).ln()),
            // Temperature makes the tPRE penalty worse at *lower* temperatures
            // (Fig. 10): +5 % of the 85 °C value at 30 °C. Together with the
            // +5-bit M_ERR offset this keeps the *total* cold-vs-85 °C extra at
            // ≤ 7 bits under (2K, 12 mo, ≤47 %) — §5.2.3's bound, and the 7 bits
            // the RPT margin reserves for temperature.
            pre_cold: 1.0 + 0.05 * temp_cold_fraction(cond.temp_c),
            eval: 4.7 * (1.0 + 0.15 * p) * (1.0 + 0.15 * (1.0 + t / 3.0).ln()),
            disch: 1.5 * (1.0 + 0.3 * p) * (1.0 + 0.3 * (1.0 + t / 3.0).ln()),
        }
    }

    /// M_ERR in the final retry step when reading with reduced timings:
    /// `m_err(cond) + delta_m_err(cond, …)` (the quantity plotted in Fig. 9
    /// and Fig. 11).
    pub fn m_err_with_timing(
        &self,
        cond: OperatingCondition,
        pre: f64,
        eval: f64,
        disch: f64,
    ) -> f64 {
        self.m_err(cond) + self.delta_m_err(cond, pre, eval, disch)
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::asplos21()
    }
}

/// The sensing-timing half of [`Calibration::delta_m_err`]: the
/// `[tPRE, tEVAL, tDISCH]` reduction fractions and each one's exponential
/// growth term `e^{k·x} − 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reductions {
    fractions: [f64; 3],
    /// `None` once any fraction crosses its hard-fail boundary.
    growth: Option<[f64; 3]>,
}

impl Reductions {
    /// Resolves the reduction fractions `pre`, `eval` and `disch`.
    ///
    /// # Panics
    ///
    /// Panics if a fraction is outside `[0, 1)`.
    pub fn new(pre: f64, eval: f64, disch: f64) -> Self {
        for (name, f) in [("pre", pre), ("eval", eval), ("disch", disch)] {
            assert!(
                (0.0..1.0).contains(&f),
                "{name} reduction fraction {f} must be in [0, 1)"
            );
        }
        let fail = pre >= TPRE_HARD_FAIL_REDUCTION
            || eval >= TEVAL_HARD_FAIL_REDUCTION
            || disch >= TDISCH_HARD_FAIL_REDUCTION;
        Self {
            fractions: [pre, eval, disch],
            growth: (!fail).then(|| {
                [
                    (K_PRE * pre).exp() - 1.0,
                    (K_EVAL * eval).exp() - 1.0,
                    (K_DISCH * disch).exp() - 1.0,
                ]
            }),
        }
    }

    /// Whether no phase is reduced (the default timings).
    pub fn is_none(&self) -> bool {
        self.fractions == [0.0; 3]
    }
}

/// The operating-condition half of [`Calibration::delta_m_err`]; built by
/// [`Calibration::penalty_amplitudes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyAmplitudes {
    pre: f64,
    pre_cold: f64,
    eval: f64,
    disch: f64,
}

impl PenaltyAmplitudes {
    /// ΔM_ERR for `reductions` under the amplitudes' condition — exactly
    /// [`Calibration::delta_m_err`].
    pub fn delta_m_err(&self, reductions: &Reductions) -> f64 {
        let Some([g_pre, g_eval, g_disch]) = reductions.growth else {
            return HARD_FAIL_ERRORS;
        };
        let d_pre = self.pre * g_pre * self.pre_cold;
        let d_eval = self.eval * g_eval;
        let d_disch = self.disch * g_disch;
        d_pre + d_eval + d_disch + COUPLING_PRE_DISCH * d_pre * d_disch
    }
}

/// Exponential steepness of the tPRE penalty curve.
const K_PRE: f64 = 6.0;
/// Exponential steepness of the tEVAL penalty curve (§5.2.1: "reducing tEVAL
/// by 20 % introduces 30 additional bit errors even for a fresh page").
const K_EVAL: f64 = 10.0;
/// Exponential steepness of the tDISCH penalty curve.
const K_DISCH: f64 = 9.0;
/// Super-additive coupling between simultaneous tPRE and tDISCH reduction.
const COUPLING_PRE_DISCH: f64 = 0.2;

/// Additive M_ERR offset versus temperature (§5.1: +5 errors at 30 °C, +3 at
/// 55 °C, 0 at 85 °C; linear between the characterized points, clamped
/// outside).
pub fn temp_offset_errors(temp_c: f64) -> f64 {
    rr_util::interp::lerp_table(&[30.0, 55.0, 85.0], &[5.0, 3.0, 0.0], temp_c)
}

/// 1.0 at 30 °C, 0.0 at 85 °C, linear in between — how "cold" the chip is
/// relative to the characterization sweep (drives the Fig. 10 effect).
fn temp_cold_fraction(temp_c: f64) -> f64 {
    rr_util::interp::lerp_table(&[30.0, 85.0], &[1.0, 0.0], temp_c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::asplos21()
    }

    fn cond(pec: f64, months: f64, temp: f64) -> OperatingCondition {
        OperatingCondition::new(pec, months, temp)
    }

    // ---- Fig. 5 anchors -------------------------------------------------

    #[test]
    fn fig5_fresh_page_needs_no_retry() {
        assert_eq!(cal().mean_retry_steps(cond(0.0, 0.0, 30.0)), 0.0);
    }

    #[test]
    fn fig5_avg_19_9_steps_at_2k_12mo() {
        // §3.1: "significantly increases to 19.9 under a 1-year retention age
        // at 2K P/E cycles, which in turn increases tREAD by 21× on average."
        let steps = cal().mean_retry_steps(cond(2000.0, 12.0, 30.0));
        assert!((steps - 19.9).abs() < 1e-9);
        // tREAD multiplier sanity: with Table-1 latencies a 19.9-step retry
        // multiplies tREAD by ~1 + 19.9·(tR+tDMA+tECC)/(tR+tDMA+tECC) = 20.9×.
        let one: f64 = 91.0 + 16.0 + 20.0;
        let mult: f64 = (one + 19.9 * one) / one;
        assert!((mult - 20.9).abs() < 0.01, "paper rounds this to 21×");
    }

    #[test]
    fn fig5_3month_fresh_exceeds_3_steps() {
        // §3.1: "under a 3-month retention age at zero P/E cycles ... every
        // read requires more than three retry steps."
        assert!(cal().mean_retry_steps(cond(0.0, 3.0, 30.0)) > 4.0);
    }

    #[test]
    fn fig5_1k_pec_3month_at_least_8() {
        // §3.1: "At 1K P/E cycles, at least eight read-retry steps are needed
        // ... only after a 3-month retention age."
        assert!(cal().mean_retry_steps(cond(1000.0, 3.0, 30.0)) > 8.0);
    }

    #[test]
    fn retry_steps_monotonic_in_pec_and_retention() {
        let c = cal();
        for pec in [0.0, 500.0, 1000.0, 1500.0, 2000.0] {
            for m in [0.0, 1.0, 3.0, 6.0, 12.0] {
                let here = c.mean_retry_steps(cond(pec, m, 30.0));
                let more_pec = c.mean_retry_steps(cond(pec + 250.0, m, 30.0));
                let more_ret = c.mean_retry_steps(cond(pec, m + 1.0, 30.0));
                assert!(more_pec >= here, "PEC monotonicity at ({pec}, {m})");
                assert!(more_ret >= here, "retention monotonicity at ({pec}, {m})");
            }
        }
    }

    // ---- Fig. 7 anchors -------------------------------------------------

    #[test]
    fn fig7_m_err_anchor_points() {
        let c = cal();
        // §5.1: "M_ERR(0, 3) = 15 while M_ERR(1K, 12) = 30 at 85 °C".
        assert_eq!(c.m_err(cond(0.0, 3.0, 85.0)), 15.0);
        assert_eq!(c.m_err(cond(1000.0, 12.0, 85.0)), 30.0);
        // §5.2.1: "under a 1-year retention age at 2K P/E cycles (where
        // M_ERR = 35)".
        assert_eq!(c.m_err(cond(2000.0, 12.0, 85.0)), 35.0);
    }

    #[test]
    fn fig7_temperature_offsets() {
        let c = cal();
        // §5.1: "Compared to 85 °C, M_ERR at 30 °C and 55 °C is higher by 5
        // and 3 errors, respectively, all other conditions being equal."
        for (pec, m) in [(0.0, 3.0), (1000.0, 6.0), (2000.0, 12.0)] {
            let at85 = c.m_err(cond(pec, m, 85.0));
            assert_eq!(c.m_err(cond(pec, m, 55.0)) - at85, 3.0);
            assert_eq!(c.m_err(cond(pec, m, 30.0)) - at85, 5.0);
        }
    }

    #[test]
    fn fig7_worst_case_margin_44_4_pct() {
        // §5.1: "even M_ERR(2K, 12) at 30 °C is quite low, leaving a margin as
        // large as 44.4 % of the ECC capability." 72 × 44.4 % = 32 ⇒ M_ERR 40.
        let c = cal();
        let m = c.m_err(cond(2000.0, 12.0, 30.0));
        assert_eq!(m, 40.0);
        let margin = c.ecc_margin(cond(2000.0, 12.0, 30.0));
        assert!((margin / ECC_CAPABILITY_PER_KIB as f64 - 0.444).abs() < 0.001);
    }

    // ---- Fig. 8 anchors -------------------------------------------------

    #[test]
    fn fig8_individual_safe_reductions_at_worst_condition() {
        // §5.2.1: "Even under a 1-year retention age at 2K P/E cycles (where
        // M_ERR = 35), we can safely reduce tPRE, tEVAL, and tDISCH by 47 %,
        // 10 %, and 27 %, respectively."
        let c = cal();
        let worst = cond(2000.0, 12.0, 85.0);
        let cap = ECC_CAPABILITY_PER_KIB as f64;
        assert!(c.m_err_with_timing(worst, 0.47, 0.0, 0.0) <= cap);
        assert!(c.m_err_with_timing(worst, 0.0, 0.10, 0.0) <= cap);
        assert!(c.m_err_with_timing(worst, 0.0, 0.0, 0.27) <= cap);
    }

    #[test]
    fn fig8_tpre_retention_sensitivity_60pct() {
        // §5.2.1: "When reducing tPRE by 47 % ... ΔM_ERR(2K, 12) is 60 %
        // higher than ΔM_ERR(2K, 0)."
        let c = cal();
        let d12 = c.delta_m_err(cond(2000.0, 12.0, 85.0), 0.47, 0.0, 0.0);
        let d0 = c.delta_m_err(cond(2000.0, 0.0, 85.0), 0.47, 0.0, 0.0);
        let ratio = d12 / d0;
        assert!((ratio - 1.6).abs() < 0.1, "ratio {ratio} should be ≈ 1.6");
    }

    #[test]
    fn fig8_teval_20pct_adds_30_errors_fresh() {
        // §5.2.1: "Reducing tEVAL by 20 % introduces 30 additional bit errors
        // (i.e., 41.7 % of the ECC capability) even for a fresh page."
        let c = cal();
        let d = c.delta_m_err(cond(0.0, 0.0, 85.0), 0.0, 0.20, 0.0);
        assert!((d - 30.0).abs() < 1.5, "ΔM_ERR = {d}, expected ≈ 30");
        assert!((d / ECC_CAPABILITY_PER_KIB as f64 - 0.417).abs() < 0.03);
    }

    #[test]
    fn fig8_tpre_safe_at_40pct_everywhere() {
        // §5.2.1 conclusion: "tPRE can be safely reduced by at least 40 %
        // under every tested condition."
        let c = cal();
        for pec in [0.0, 1000.0, 2000.0] {
            for m in [0.0, 3.0, 6.0, 12.0] {
                for temp in [30.0, 55.0, 85.0] {
                    let v = c.m_err_with_timing(cond(pec, m, temp), 0.40, 0.0, 0.0);
                    assert!(
                        v <= ECC_CAPABILITY_PER_KIB as f64,
                        "40 % tPRE cut unsafe at ({pec}, {m}, {temp}): {v}"
                    );
                }
            }
        }
    }

    // ---- Fig. 9 anchors -------------------------------------------------

    #[test]
    fn fig9_joint_reduction_blows_capability() {
        // §5.2.2: at (1K, 0), tPRE −54 % alone ⇒ ΔM_ERR ≈ 35 and tDISCH −20 %
        // alone ⇒ ΔM_ERR ≈ 8, but reducing both together goes far beyond the
        // ECC capability.
        let c = cal();
        let at = cond(1000.0, 0.0, 85.0);
        let dp = c.delta_m_err(at, 0.54, 0.0, 0.0);
        let dd = c.delta_m_err(at, 0.0, 0.0, 0.20);
        assert!((dp - 35.0).abs() < 10.0, "ΔM_ERR(tPRE 54 %) = {dp} ≈ 35");
        assert!((dd - 8.0).abs() < 3.0, "ΔM_ERR(tDISCH 20 %) = {dd} ≈ 8");
        let joint = c.m_err_with_timing(at, 0.54, 0.0, 0.20);
        assert!(
            joint > ECC_CAPABILITY_PER_KIB as f64 + 10.0,
            "joint = {joint}"
        );
    }

    #[test]
    fn fig9_tdisch_7pct_adds_at_most_4() {
        // §5.2.2: "reducing tDISCH by 7 % hardly increases the number of bit
        // errors (by 4 at most) under every operating condition."
        let c = cal();
        for pec in [0.0, 1000.0, 2000.0] {
            for m in [0.0, 3.0, 6.0, 12.0] {
                let d = c.delta_m_err(cond(pec, m, 85.0), 0.0, 0.0, 0.07);
                assert!(d <= 4.0, "ΔM_ERR(tDISCH 7 %) = {d} at ({pec}, {m})");
            }
        }
    }

    #[test]
    fn fig9_tpre_beats_tdisch_unit_for_unit() {
        // §5.2.2: "M_ERR is smaller when ⟨ΔtPRE, ΔtDISCH⟩ = ⟨x %, y %⟩ compared
        // to ⟨y %, x %⟩" for x > y in most cases (tPRE is the better lever
        // because the discharge penalty curve is steeper).
        let c = cal();
        let at = cond(1000.0, 0.0, 85.0);
        let pre_heavy = c.m_err_with_timing(at, 0.40, 0.0, 0.20);
        let disch_heavy = c.m_err_with_timing(at, 0.20, 0.0, 0.40);
        assert!(pre_heavy < disch_heavy);
    }

    // ---- Fig. 10 anchors ------------------------------------------------

    #[test]
    fn fig10_temperature_adds_at_most_7_errors() {
        // §5.2.3: "it is only up to 7 additional bit errors even under a
        // 1-year retention age at 2K P/E cycles." Fig. 10's ΔM_ERR includes
        // both the M_ERR temperature offset (+5 at 30 °C) and the
        // reduction-dependent part, so the total must stay ≤ 7.
        let c = cal();
        let at = |temp: f64| {
            c.m_err(cond(2000.0, 12.0, temp))
                + c.delta_m_err(cond(2000.0, 12.0, temp), 0.47, 0.0, 0.0)
        };
        let extra = at(30.0) - at(85.0);
        assert!(extra > 5.0 && extra <= 7.0, "temperature extra = {extra}");
        // Colder ⇒ strictly more extra errors, monotone in temperature.
        let mid = at(55.0);
        assert!(at(85.0) < mid && mid < at(30.0));
    }

    // ---- Fig. 11 anchors ------------------------------------------------

    #[test]
    fn fig11_minimum_40pct_reduction_with_margin_at_worst_case() {
        // With the 14-bit safety margin, 40 % tPRE reduction must still be
        // safe at (2K, 12) — that is Fig. 11's "min. reduction = 40 %".
        let c = cal();
        let worst = cond(2000.0, 12.0, 85.0);
        let v = c.m_err_with_timing(worst, 0.40, 0.0, 0.0);
        assert!(v + RPT_SAFETY_MARGIN_BITS as f64 <= ECC_CAPABILITY_PER_KIB as f64);
        // ...but 47 % is NOT safe once the margin is reserved (the margin is
        // what pulls Fig. 11's choice below Fig. 8's raw 47 %).
        let v47 = c.m_err_with_timing(worst, 0.47, 0.0, 0.0);
        assert!(v47 + RPT_SAFETY_MARGIN_BITS as f64 > ECC_CAPABILITY_PER_KIB as f64);
    }

    #[test]
    fn fig11_54pct_safe_at_best_case() {
        // Fig. 11's "max. reduction = 54 %" on a fresh block.
        let c = cal();
        let best = cond(0.0, 0.0, 85.0);
        let v = c.m_err_with_timing(best, TPRE_MAX_PROFILED_REDUCTION, 0.0, 0.0);
        assert!(v + RPT_SAFETY_MARGIN_BITS as f64 <= ECC_CAPABILITY_PER_KIB as f64);
    }

    #[test]
    fn fig11_hard_fail_at_58pct() {
        let c = cal();
        let v = c.delta_m_err(cond(0.0, 0.0, 85.0), TPRE_HARD_FAIL_REDUCTION, 0.0, 0.0);
        assert_eq!(v, HARD_FAIL_ERRORS);
    }

    // ---- misc -----------------------------------------------------------

    #[test]
    fn delta_m_err_zero_reduction_is_zero() {
        let c = cal();
        assert_eq!(c.delta_m_err(cond(2000.0, 12.0, 30.0), 0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn delta_m_err_monotonic_in_each_fraction() {
        let c = cal();
        let at = cond(1000.0, 6.0, 55.0);
        let mut last = -1.0;
        for i in 0..=10 {
            let x = i as f64 * 0.05;
            let v = c.delta_m_err(at, x, 0.0, 0.0);
            assert!(v >= last, "tPRE penalty must be non-decreasing");
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn delta_m_err_rejects_out_of_range() {
        cal().delta_m_err(OperatingCondition::default(), 1.5, 0.0, 0.0);
    }

    #[test]
    fn condition_constructors() {
        let d = OperatingCondition::default();
        assert_eq!(d.pec, 0.0);
    }

    #[test]
    #[should_panic(expected = "retention age")]
    fn condition_rejects_negative_retention() {
        OperatingCondition::new(0.0, -1.0, 30.0);
    }
}
