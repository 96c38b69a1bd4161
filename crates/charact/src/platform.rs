//! The virtual chip-testing platform (paper §4).
//!
//! The paper characterizes 160 real 48-layer 3D TLC chips on an FPGA platform
//! with a custom flash controller (full command set + `SET FEATURE` timing
//! control) and a ±1 °C temperature controller used to accelerate retention
//! loss via Arrhenius's law. We have no chips, so this module recreates the
//! *methodology* against the calibrated `rr-flash` error model: a population
//! of per-seed chip instances, pseudo-random block/page sampling (the paper
//! samples 120 blocks per chip and tests every page) and temperature control;
//! retention is an operating-condition input, not a bake.

use rr_flash::calibration::OperatingCondition;
use rr_flash::error_model::{ErrorModel, PageId};
use rr_flash::geometry::ChipGeometry;
use rr_flash::timing::SensePhases;
use rr_util::rng::Rng;

/// One page selected for testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestPage {
    /// Index of the chip in the platform's population.
    pub chip: usize,
    /// The page identity within that chip.
    pub page: PageId,
}

/// The virtual test platform: a chip population plus a temperature chamber.
///
/// # Example
///
/// ```
/// use rr_charact::platform::TestPlatform;
///
/// let mut platform = TestPlatform::new(4, 42);
/// platform.set_temperature(85.0);
/// let pages = platform.sample_pages(10);
/// assert_eq!(pages.len(), 4 * 10);
/// ```
#[derive(Debug)]
pub struct TestPlatform {
    chips: Vec<ErrorModel>,
    geometry: ChipGeometry,
    temp_c: f64,
    seed: u64,
}

impl TestPlatform {
    /// Creates a platform with `n_chips` independent chip instances.
    ///
    /// # Panics
    ///
    /// Panics if `n_chips` is zero.
    pub fn new(n_chips: usize, seed: u64) -> Self {
        assert!(n_chips > 0, "a platform needs at least one chip");
        let chips = (0..n_chips)
            .map(|i| ErrorModel::new(seed ^ (0xC41F_0000 + i as u64)))
            .collect();
        Self {
            chips,
            geometry: ChipGeometry::asplos21(),
            temp_c: 85.0,
            seed,
        }
    }

    /// Sets the chamber temperature (the temperature at which pages are
    /// *read*; retention accounting stays at the 30 °C reference).
    pub fn set_temperature(&mut self, temp_c: f64) {
        assert!(
            (0.0..=125.0).contains(&temp_c),
            "chamber range is 0–125 °C, got {temp_c}"
        );
        self.temp_c = temp_c;
    }

    /// Current chamber temperature.
    pub fn temperature(&self) -> f64 {
        self.temp_c
    }

    /// Deterministically samples `per_chip` pages from random blocks of every
    /// chip (the paper's random 120-blocks-per-chip methodology).
    pub fn sample_pages(&self, per_chip: usize) -> Vec<TestPage> {
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x5a_3b1e);
        let blocks = self.geometry.blocks_per_chip();
        let pages = self.geometry.pages_per_block as u64;
        let mut out = Vec::with_capacity(self.chips.len() * per_chip);
        for chip in 0..self.chips.len() {
            for _ in 0..per_chip {
                let block = rng.below(blocks);
                let page = rng.below(pages) as u32;
                out.push(TestPage {
                    chip,
                    page: PageId::new(block, page),
                });
            }
        }
        out
    }

    fn condition(&self, pec: f64, months: f64) -> OperatingCondition {
        OperatingCondition::new(pec, months, self.temp_c)
    }

    /// The retry-table entry at which this page first reads successfully.
    pub fn required_steps(&self, p: TestPage, pec: f64, months: f64) -> u32 {
        self.chips[p.chip].required_step_index(p.page, self.condition(pec, months))
    }

    /// Raw bit errors per worst codeword at the final retry step with
    /// default timing (the per-page quantity under Fig. 7's max).
    pub fn final_errors(&self, p: TestPage, pec: f64, months: f64) -> u32 {
        self.chips[p.chip].final_step_errors(p.page, self.condition(pec, months))
    }

    /// Raw bit errors when reading at `step` with explicit sensing phases
    /// (the platform's `SET FEATURE` + read test of §4).
    pub fn errors_at(
        &self,
        p: TestPage,
        pec: f64,
        months: f64,
        step: u32,
        phases: &SensePhases,
    ) -> u32 {
        self.chips[p.chip].errors_at_step(p.page, self.condition(pec, months), step, phases)
    }

    /// Max final-step errors across a page sample — the measured M_ERR.
    pub fn measure_m_err(&self, pages: &[TestPage], pec: f64, months: f64) -> u32 {
        pages
            .iter()
            .map(|&p| self.final_errors(p, pec, months))
            .max()
            .unwrap_or(0)
    }

    /// Max final-step errors across a sample when reading with reduced
    /// timing parameters — Fig. 9/11's `M_ERR` under (ΔtPRE, ΔtDISCH).
    pub fn measure_m_err_with_phases(
        &self,
        pages: &[TestPage],
        pec: f64,
        months: f64,
        phases: &SensePhases,
    ) -> u32 {
        pages
            .iter()
            .map(|&p| {
                let n = self.required_steps(p, pec, months);
                self.errors_at(p, pec, months, n, phases)
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chips_are_distinct_instances() {
        let p = TestPlatform::new(3, 7);
        let pages = p.sample_pages(20);
        let per_chip: Vec<u32> = (0..3)
            .map(|c| {
                pages
                    .iter()
                    .filter(|t| t.chip == c)
                    .map(|&t| p.required_steps(t, 2000.0, 12.0))
                    .sum()
            })
            .collect();
        assert!(
            per_chip[0] != per_chip[1] || per_chip[1] != per_chip[2],
            "chip instances must differ"
        );
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = TestPlatform::new(2, 9).sample_pages(5);
        let b = TestPlatform::new(2, 9).sample_pages(5);
        assert_eq!(a, b);
    }

    #[test]
    fn m_err_measurement_tracks_calibration() {
        let p = TestPlatform::new(8, 11);
        let pages = p.sample_pages(400);
        let mut hot = TestPlatform::new(8, 11);
        hot.set_temperature(85.0);
        let measured = hot.measure_m_err(&pages, 2000.0, 12.0);
        // Fig. 7 anchor: M_ERR(2K, 12) = 35 at 85 °C.
        assert!(
            (33..=35).contains(&measured),
            "measured M_ERR = {measured}, expected ≈ 35"
        );
    }

    #[test]
    fn temperature_changes_measured_m_err() {
        let mut p = TestPlatform::new(4, 13);
        let pages = p.sample_pages(300);
        p.set_temperature(85.0);
        let at85 = p.measure_m_err(&pages, 1000.0, 12.0);
        p.set_temperature(30.0);
        let at30 = p.measure_m_err(&pages, 1000.0, 12.0);
        // §5.1: +5 errors at 30 °C.
        assert_eq!(at30 - at85, 5);
    }

    #[test]
    #[should_panic(expected = "chamber range")]
    fn chamber_range_enforced() {
        TestPlatform::new(1, 0).set_temperature(200.0);
    }
}
