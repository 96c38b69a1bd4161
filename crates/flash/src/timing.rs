//! NAND timing parameters and the Eq. (1) sensing-latency model.
//!
//! Table 1 of the paper (all values from the characterized real chips):
//!
//! | Parameter | Value | Parameter | Value |
//! |---|---|---|---|
//! | tR (avg) | 90 µs | tPROG | 700 µs |
//! | tPRE | 24 µs | tBERS | 5 ms |
//! | tEVAL | 5 µs | tSET | 1 µs |
//! | tDISCH | 10 µs | tRST | 5 µs (read) |
//!
//! `tR = N_SENSE × (tPRE + tEVAL + tDISCH)` (Eq. 1) with `N_SENSE = ⟨2,3,2⟩`
//! for ⟨LSB, CSB, MSB⟩ pages — giving 78/117/78 µs, i.e. the quoted ~90 µs
//! average.

use crate::geometry::PageKind;
use rr_util::time::SimTime;

/// The three page-sensing phase latencies of Fig. 2 / Eq. (1).
///
/// AR² adjusts `t_pre` at run time through `SET FEATURE`; the other two are
/// shown by §5.2 to be cost-ineffective to reduce (tEVAL) or to conflict with
/// tPRE reduction (tDISCH).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SensePhases {
    /// Bit-line precharge latency (default 24 µs).
    pub t_pre: SimTime,
    /// Sense-amplifier evaluation latency (default 5 µs).
    pub t_eval: SimTime,
    /// Bit-line discharge latency (default 10 µs).
    pub t_disch: SimTime,
}

impl SensePhases {
    /// Table-1 defaults: ⟨24, 5, 10⟩ µs (≈ 5:1:2 ratio, §4).
    pub const fn table1() -> Self {
        Self {
            t_pre: SimTime::from_us(24),
            t_eval: SimTime::from_us(5),
            t_disch: SimTime::from_us(10),
        }
    }

    /// One sensing iteration: `tPRE + tEVAL + tDISCH`.
    pub fn sense_time(&self) -> SimTime {
        self.t_pre + self.t_eval + self.t_disch
    }

    /// Chip-level read latency `tR` for a page kind (Eq. 1).
    pub fn t_r(&self, kind: PageKind) -> SimTime {
        self.sense_time().mul(kind.n_sense() as u64)
    }

    /// Average `tR` over the three TLC page kinds (Table 1's "tR (avg)").
    pub fn t_r_avg(&self) -> SimTime {
        let total = self.t_r(PageKind::Lsb) + self.t_r(PageKind::Csb) + self.t_r(PageKind::Msb);
        SimTime::from_ns(total.as_ns() / 3)
    }

    /// Returns phases with each parameter reduced by the given fractions
    /// (`0.0` = unchanged, `0.47` = 47 % shorter). This is what `SET FEATURE`
    /// applies in AR².
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1)`.
    pub fn with_reduction(&self, pre: f64, eval: f64, disch: f64) -> Self {
        for (name, f) in [("tPRE", pre), ("tEVAL", eval), ("tDISCH", disch)] {
            assert!(
                (0.0..1.0).contains(&f),
                "{name} reduction fraction {f} must be in [0, 1)"
            );
        }
        Self {
            t_pre: self.t_pre.scale(1.0 - pre),
            t_eval: self.t_eval.scale(1.0 - eval),
            t_disch: self.t_disch.scale(1.0 - disch),
        }
    }

    /// The fraction by which `other`'s tPRE is reduced relative to `self`.
    pub fn pre_reduction_vs(&self, other: &SensePhases) -> f64 {
        reduction_fraction(self.t_pre, other.t_pre)
    }

    /// The fraction by which `other`'s tEVAL is reduced relative to `self`.
    pub fn eval_reduction_vs(&self, other: &SensePhases) -> f64 {
        reduction_fraction(self.t_eval, other.t_eval)
    }

    /// The fraction by which `other`'s tDISCH is reduced relative to `self`.
    pub fn disch_reduction_vs(&self, other: &SensePhases) -> f64 {
        reduction_fraction(self.t_disch, other.t_disch)
    }

    /// `tR(reduced) / tR(default)` — the ρ of Eq. (5).
    pub fn rho_vs(&self, reduced: &SensePhases) -> f64 {
        reduced.sense_time().as_ns() as f64 / self.sense_time().as_ns() as f64
    }
}

impl Default for SensePhases {
    fn default() -> Self {
        Self::table1()
    }
}

fn reduction_fraction(default: SimTime, reduced: SimTime) -> f64 {
    if default == SimTime::ZERO {
        return 0.0;
    }
    let d = default.as_ns() as f64;
    ((d - reduced.as_ns() as f64) / d).max(0.0)
}

/// Full NAND operation timing set (Table 1 plus channel constants of §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NandTimings {
    /// Page-sensing phase latencies (tPRE/tEVAL/tDISCH).
    pub sense: SensePhases,
    /// Page program latency `tPROG` (default 700 µs).
    pub t_prog: SimTime,
    /// Block erase latency `tBERS` (default 5 ms).
    pub t_bers: SimTime,
    /// `SET FEATURE` latency `tSET` (default 1 µs).
    pub t_set: SimTime,
    /// `RESET` latency for an in-flight read `tRST` (default 5 µs).
    pub t_rst_read: SimTime,
    /// Per-page channel transfer latency `tDMA` (16 µs for 16 KiB @ 1 Gb/s).
    pub t_dma: SimTime,
    /// Per-page ECC decode latency `tECC` (20 µs, §7.1).
    pub t_ecc: SimTime,
    /// Latency to suspend an in-flight program/erase so a read can proceed
    /// (program/erase suspension, §7.2 baseline; not in Table 1 — taken from
    /// the erase-suspension literature the paper cites [50, 91]).
    pub t_suspend: SimTime,
}

impl NandTimings {
    /// Table-1 values with the §7.1 channel constants.
    pub const fn table1() -> Self {
        Self {
            sense: SensePhases::table1(),
            t_prog: SimTime::from_us(700),
            t_bers: SimTime::from_ms(5),
            t_set: SimTime::from_us(1),
            t_rst_read: SimTime::from_us(5),
            t_dma: SimTime::from_us(16),
            t_ecc: SimTime::from_us(20),
            t_suspend: SimTime::from_us(20),
        }
    }

    /// Chip-level read latency for a page kind with the default phases.
    pub fn t_r(&self, kind: PageKind) -> SimTime {
        self.sense.t_r(kind)
    }
}

impl Default for NandTimings {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let t = NandTimings::table1();
        assert_eq!(t.sense.t_pre, SimTime::from_us(24));
        assert_eq!(t.sense.t_eval, SimTime::from_us(5));
        assert_eq!(t.sense.t_disch, SimTime::from_us(10));
        assert_eq!(t.t_prog, SimTime::from_us(700));
        assert_eq!(t.t_bers, SimTime::from_ms(5));
        assert_eq!(t.t_set, SimTime::from_us(1));
        assert_eq!(t.t_rst_read, SimTime::from_us(5));
        assert_eq!(t.t_dma, SimTime::from_us(16));
        assert_eq!(t.t_ecc, SimTime::from_us(20));
    }

    #[test]
    fn eq1_sensing_latency() {
        let s = SensePhases::table1();
        assert_eq!(s.sense_time(), SimTime::from_us(39));
        assert_eq!(s.t_r(PageKind::Lsb), SimTime::from_us(78));
        assert_eq!(s.t_r(PageKind::Csb), SimTime::from_us(117));
        assert_eq!(s.t_r(PageKind::Msb), SimTime::from_us(78));
        // Table 1: tR (avg) = 90 µs — exactly (78 + 117 + 78) / 3 = 91 µs;
        // the paper rounds to 90. We assert the exact value of our model.
        assert_eq!(s.t_r_avg(), SimTime::from_us(91));
    }

    #[test]
    fn reduction_produces_expected_rho() {
        let dflt = SensePhases::table1();
        // §5.2.1 conclusion: ≥ 40 % tPRE reduction ⇒ ~25 % shorter tR.
        let reduced = dflt.with_reduction(0.40, 0.0, 0.0);
        let rho = dflt.rho_vs(&reduced);
        assert!((rho - (14.4 + 5.0 + 10.0) / 39.0).abs() < 1e-9);
        assert!((1.0 - rho - 0.246).abs() < 0.002, "tR reduction ≈ 24.6 %");
    }

    #[test]
    fn reduction_fraction_roundtrip() {
        let dflt = SensePhases::table1();
        let r = dflt.with_reduction(0.47, 0.10, 0.27);
        assert!((dflt.pre_reduction_vs(&r) - 0.47).abs() < 1e-3);
        assert!((dflt.eval_reduction_vs(&r) - 0.10).abs() < 1e-3);
        assert!((dflt.disch_reduction_vs(&r) - 0.27).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "reduction fraction")]
    fn full_reduction_is_rejected() {
        SensePhases::table1().with_reduction(1.0, 0.0, 0.0);
    }

    #[test]
    fn paper_example_25pct_tr_cut() {
        // §6.2: "a 25 % tR reduction (= 22.5 µs)" — on the 90 µs average tR.
        let dflt = SensePhases::table1();
        let avg = dflt.t_r_avg().as_us_f64();
        assert!((avg * 0.25 - 22.75).abs() < 0.5, "25 % of avg tR ≈ 22.5 µs");
    }
}
