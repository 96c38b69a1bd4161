//! Per-page deterministic error behaviour, layered on the [`Calibration`].
//!
//! The paper's MQSim extension (§7.1) maps every simulated block to a real
//! characterized block so that "a simulated block can accurately emulate the
//! same read-retry behavior as the corresponding real block for every read".
//! We reproduce that by deriving, for every (chip, block, page), *stationary*
//! pseudo-random process variation from a hash of its address — the same page
//! under the same operating condition always behaves identically, within and
//! across simulation runs.
//!
//! Three quantities drive everything the mechanisms can observe:
//!
//! 1. [`ErrorModel::required_step_index`] — the retry-table index whose V_REF
//!    values first bring the page below the ECC capability (0 ⇒ the initial
//!    read succeeds; N ⇒ N retry steps after the failed initial read).
//! 2. [`ErrorModel::final_step_errors`] — raw bit errors per worst 1-KiB
//!    codeword in that final, successful step (the quantity whose population
//!    max is Fig. 7's M_ERR).
//! 3. [`ErrorModel::errors_at_step`] — raw bit errors when the page is read
//!    at an arbitrary step with arbitrary sensing timings (Figs. 4b, 8–11).
//!
//! A simulated read senses the same page many times under one condition, and
//! reads the same pages again and again across runs, so the simulator
//! resolves the third quantity in four parts:
//!
//! * **per page**: [`ErrorModel::page_variation`] is the page's process
//!   variation in its retry count (Fig. 5's block-level plus page-level
//!   spread), a clamped normal `z` that depends on the seed and the page
//!   alone. Its block part, [`ErrorModel::block_variation`], is shared by
//!   the block's pages. They are two Box–Muller variates, the only
//!   per-page quantities that need an `ln` and a `cos`, so the simulator
//!   draws each once per seed and geometry and keeps it;
//! * **per condition**: [`ErrorModel::condition_inputs`] resolves the
//!   calibration at a condition once per run (the simulator has two
//!   conditions: cold and freshly written data);
//! * **per read**: [`ErrorModel::read_inputs_with`] joins the page's `z` to
//!   the condition and adds the page's hashed uniforms (final errors,
//!   outlier, timing factor), once when the read spawns;
//! * **per sense**: [`ErrorModel::sense_errors`] adds the per-step and
//!   per-timing part on each sense.
//!
//! `errors_at_step` is exactly that composition, and
//! [`ErrorModel::read_inputs`] is `read_inputs_with` drawing `z` in place:
//! the two give bit-identical inputs, since `z` is one `f64` either way.
//!
//! Every per-page quantity is a [`unit_hash`](rr_util::rng::unit_hash) of
//! `(seed, key, salt, stream)` with `key` the page's block key or page key.
//! The hash joins `mix64(seed, key)` with a constant salt half, so a read
//! hashes its page once, and each quantity's formula takes that hash: the
//! one-shot functions (`required_step_index`, `final_step_errors`,
//! `is_outlier`) and `read_inputs` share it.
//!
//! The simulator's ECC decoder only needs a pass/fail verdict, so each
//! simulated sense asks [`ErrorModel::decodes`], which answers exactly
//! `sense_errors(..) <= ECC_CAPABILITY_PER_KIB` without counting: a step
//! off the near-optimal plateau never decodes. The error counts remain for
//! the characterisation figures.

use crate::calibration::{
    Calibration, OperatingCondition, PenaltyAmplitudes, Reductions, ECC_CAPABILITY_PER_KIB,
    MAX_RETRY_STEPS,
};
use crate::retry_table::RetryTable;
use crate::timing::SensePhases;
use rr_util::rng::{mix64, unit_hash_join, unit_hash_salt};

/// Stationary identity of a page for the error model: which chip, block and
/// page it is. Keys must be unique per physical page across the whole SSD
/// (the sim crate builds them from channel/chip/die/plane/block/page).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId {
    /// Unique key of the containing block across the SSD.
    pub block_key: u64,
    /// Page index within the block.
    pub page_in_block: u32,
}

impl PageId {
    /// Creates a page identity.
    pub const fn new(block_key: u64, page_in_block: u32) -> Self {
        Self {
            block_key,
            page_in_block,
        }
    }

    fn page_key(&self) -> u64 {
        mix64(self.block_key, self.page_in_block as u64 + 1)
    }
}

/// Everything a read-retry mechanism can learn about one page read under one
/// operating condition, computed once per flash read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageReadProfile {
    /// Retry-table index of the first successful read (0 ⇒ no retry needed).
    pub required_step: u32,
    /// Raw bit errors per worst codeword at the final (successful) step with
    /// default timings.
    pub final_errors: u32,
    /// Whether this page is an injected outlier (exceeds the population
    /// M_ERR; see [`ErrorModel::with_outlier_rate`]).
    pub outlier: bool,
}

impl PageReadProfile {
    /// Number of retry steps a regular read-retry performs (Eq. 3's N_RR).
    pub fn n_rr(&self) -> u32 {
        self.required_step
    }

    /// ECC-capability margin in the final step (footnote 5 of the paper).
    pub fn ecc_margin(&self) -> u32 {
        ECC_CAPABILITY_PER_KIB.saturating_sub(self.final_errors)
    }
}

/// The calibration at one operating condition, as every read under it
/// needs it: built once by [`ErrorModel::condition_inputs`], then handed to
/// [`ErrorModel::read_inputs`] for each read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConditionInputs {
    /// [`Calibration::mean_retry_steps`] at the condition.
    mean_steps: f64,
    /// [`Calibration::m_err`] at the condition.
    m_err: f64,
    /// [`Calibration::penalty_amplitudes`] at the condition.
    penalty: PenaltyAmplitudes,
}

/// The per-read inputs of [`ErrorModel::sense_errors`]: everything about one
/// page under one operating condition that stays the same across the senses
/// of a read. Built by [`ErrorModel::read_inputs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadInputs {
    /// The page's read profile under the condition.
    pub profile: PageReadProfile,
    /// `mix64(seed, page_key)`: the address half of the page's hashes.
    page_hash: u64,
    /// The condition's half of the population-max timing penalty.
    penalty: PenaltyAmplitudes,
    /// Per-page scale of the population-max timing penalty, in `[0.6, 1.0]`.
    timing_factor: f64,
}

/// The reductions of `phases` relative to Table 1's defaults — the timing
/// input of [`ErrorModel::sense_errors`].
pub fn reductions_of(phases: &SensePhases) -> Reductions {
    let default = SensePhases::table1();
    Reductions::new(
        default.pre_reduction_vs(phases),
        default.eval_reduction_vs(phases),
        default.disch_reduction_vs(phases),
    )
}

/// The calibrated, deterministic per-page error model.
///
/// # Example
///
/// ```
/// use rr_flash::error_model::{ErrorModel, PageId};
/// use rr_flash::calibration::OperatingCondition;
///
/// let model = ErrorModel::new(42);
/// let cond = OperatingCondition::new(2000.0, 12.0, 30.0);
/// let profile = model.page_profile(PageId::new(7, 3), cond);
/// // An aged page needs many retry steps (Fig. 5: mean 19.9 at this point).
/// assert!(profile.required_step > 10);
/// // ...but once the final step is reached, errors fit within the ECC
/// // capability with a large margin (Fig. 7).
/// assert!(profile.final_errors <= 72);
/// ```
#[derive(Debug, Clone)]
pub struct ErrorModel {
    seed: u64,
    cal: Calibration,
    retry_table: RetryTable,
    outlier_rate: f64,
}

/// Fraction of block-level (vs. page-level) process variation in the retry
/// step count; blocks differ from each other, and pages within a block differ
/// less (the paper randomly samples 120 blocks per chip for this reason).
const BLOCK_NOISE_WEIGHT: f64 = 0.55;
const PAGE_NOISE_WEIGHT: f64 = 0.83;

/// Extra errors an injected outlier page exhibits beyond its nominal final
/// step errors (stays within ECC capability at default timings — outliers in
/// the paper only fail when timing is reduced, §6.2).
const OUTLIER_EXTRA_ERRORS: u32 = 20;

/// How far past the required step the near-optimal V_REF plateau extends:
/// reading with a slightly "too late" retry entry still succeeds, which is
/// what lets PSO start a few steps early/late without restarting from zero.
const OVERSHOOT_TOLERANCE: u32 = 3;

/// The stream of the stationary uniforms (the `c` of
/// [`unit_hash`](rr_util::rng::unit_hash)).
const U_STREAM: u64 = 0xcafe;
/// The salt halves of each per-page quantity's hashes.
const Z_BLOCK: [u64; 2] = z_salts(0xb10c);
const Z_PAGE: [u64; 2] = z_salts(0x9a9e);
const U_FINAL: u64 = unit_hash_salt(0xe44, U_STREAM);
const U_OUTLIER: u64 = unit_hash_salt(0x0017, U_STREAM);
const U_TIMING: u64 = unit_hash_salt(0xde17a, U_STREAM);

/// The salt halves of the two uniforms behind one [`stationary_z`].
const fn z_salts(salt: u64) -> [u64; 2] {
    [unit_hash_salt(salt, 0x5eed), unit_hash_salt(salt, 0xfeed)]
}

impl ErrorModel {
    /// Creates a model for one chip population with the paper's calibration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            cal: Calibration::asplos21(),
            retry_table: RetryTable::asplos21(),
            outlier_rate: 0.0,
        }
    }

    /// Sets the probability that a page is an "outlier" whose final-step RBER
    /// exceeds the population M_ERR. The paper observed none across 10⁷ pages
    /// (§6.2), so the default is 0; failure-injection tests raise it to
    /// exercise AR²'s fallback-to-default-timings path.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    pub fn with_outlier_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "outlier rate must be in [0, 1]"
        );
        self.outlier_rate = rate;
        self
    }

    /// The underlying calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// The manufacturer retry table this model assumes.
    pub fn retry_table(&self) -> &RetryTable {
        &self.retry_table
    }

    /// The model seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `mix64(seed, key)`: the address half of every stationary hash of
    /// `key`.
    fn hash(&self, key: u64) -> u64 {
        mix64(self.seed, key)
    }

    /// Retry-table index of the first read that succeeds for this page
    /// (0 = the initial read; Fig. 5 when aggregated over pages).
    pub fn required_step_index(&self, page: PageId, cond: OperatingCondition) -> u32 {
        required_step(self.cal.mean_retry_steps(cond), || {
            self.page_variation(page, self.block_variation(page.block_key))
        })
    }

    /// The block-level process variation of the block with key
    /// `block_key`: a normal variate folded into `[-2, 2]`, shared by the
    /// block's pages. Independent of any operating condition.
    pub fn block_variation(&self, block_key: u64) -> f64 {
        stationary_z(self.hash(block_key), Z_BLOCK)
    }

    /// The page's process variation in its retry count, given its block's
    /// [`Self::block_variation`]: `clamp(0.55·z_block + 0.83·z_page, ±2)`.
    /// The page's required step at a condition is its mean step count plus
    /// this `z` times the condition's spread, so it is the whole
    /// condition-free part of [`Self::required_step_index`].
    pub fn page_variation(&self, page: PageId, block_variation: f64) -> f64 {
        let zp = stationary_z(self.hash(page.page_key()), Z_PAGE);
        (BLOCK_NOISE_WEIGHT * block_variation + PAGE_NOISE_WEIGHT * zp).clamp(-2.0, 2.0)
    }

    /// Whether this page is an injected outlier.
    pub fn is_outlier(&self, page: PageId) -> bool {
        self.outlier(self.hash(page.page_key()))
    }

    /// [`Self::is_outlier`] for the page with hash `page_hash`.
    fn outlier(&self, page_hash: u64) -> bool {
        self.outlier_rate > 0.0 && unit_hash_join(page_hash, U_OUTLIER) < self.outlier_rate
    }

    /// Raw bit errors per worst 1-KiB codeword at the final (successful) retry
    /// step, with default timings. The population max of this quantity is
    /// Fig. 7's M_ERR; individual pages sit below it.
    pub fn final_step_errors(&self, page: PageId, cond: OperatingCondition) -> u32 {
        let page_hash = self.hash(page.page_key());
        final_errors(self.cal.m_err(cond), page_hash, self.outlier(page_hash))
    }

    /// The full per-read profile.
    pub fn page_profile(&self, page: PageId, cond: OperatingCondition) -> PageReadProfile {
        self.read_inputs(page, &self.condition_inputs(cond)).profile
    }

    /// Resolves the calibration at `cond` for [`Self::read_inputs`].
    pub fn condition_inputs(&self, cond: OperatingCondition) -> ConditionInputs {
        ConditionInputs {
            mean_steps: self.cal.mean_retry_steps(cond),
            m_err: self.cal.m_err(cond),
            penalty: self.cal.penalty_amplitudes(cond),
        }
    }

    /// Resolves the per-page inputs of a read of `page` under the condition
    /// `cond` was resolved at, so each of its senses costs only
    /// [`ErrorModel::sense_errors`]. Draws the page's
    /// [`Self::page_variation`] in place.
    pub fn read_inputs(&self, page: PageId, cond: &ConditionInputs) -> ReadInputs {
        self.read_inputs_with(page, cond, || {
            self.page_variation(page, self.block_variation(page.block_key))
        })
    }

    /// [`Self::read_inputs`] with the page's [`Self::page_variation`]
    /// supplied by `variation`, which is called at most once: not at all
    /// under a condition whose mean retry count is within 0.05 of zero,
    /// where every page reads at step 0. Bit-identical to `read_inputs`
    /// whenever `variation` returns the page's variation.
    pub fn read_inputs_with(
        &self,
        page: PageId,
        cond: &ConditionInputs,
        variation: impl FnOnce() -> f64,
    ) -> ReadInputs {
        let page_hash = self.hash(page.page_key());
        let outlier = self.outlier(page_hash);
        ReadInputs {
            profile: PageReadProfile {
                required_step: required_step(cond.mean_steps, variation),
                final_errors: final_errors(cond.m_err, page_hash, outlier),
                outlier,
            },
            page_hash,
            penalty: cond.penalty,
            // Population-max penalty scaled by a per-page factor in
            // [0.6, 1.0]; the max is attained by the worst pages, which is
            // what the 14-bit RPT margin is sized against.
            timing_factor: 0.6 + 0.4 * unit_hash_join(page_hash, U_TIMING),
        }
    }

    /// Raw bit errors per worst codeword when reading this page at retry-table
    /// index `step` with sensing phases `phases` (defaults = Table 1).
    ///
    /// * For `step < required_step`, the V_REF values are too far from V_OPT
    ///   and errors grow quadratically with the distance (Fig. 4b): these
    ///   steps fail at default timings *and* at reduced timings — the paper's
    ///   argument for why AR² may shorten them freely.
    /// * For `required_step <= step <= required_step + tolerance`, the page is
    ///   on the near-optimal plateau and errors are [`Self::final_step_errors`]
    ///   plus the timing penalty.
    /// * Past the plateau the V_REF has overshot and errors grow again.
    pub fn errors_at_step(
        &self,
        page: PageId,
        cond: OperatingCondition,
        step: u32,
        phases: &SensePhases,
    ) -> u32 {
        let inputs = self.read_inputs(page, &self.condition_inputs(cond));
        self.sense_errors(&inputs, step, &reductions_of(phases))
    }

    /// [`Self::errors_at_step`] for a page whose inputs were resolved by
    /// [`Self::read_inputs`], with the sensing phases given as their
    /// [`reductions_of`] Table 1: arithmetic, plus one jitter hash for a step
    /// off the plateau. A simulated read asks [`Self::decodes`] instead.
    pub fn sense_errors(&self, inputs: &ReadInputs, step: u32, reductions: &Reductions) -> u32 {
        let required = inputs.profile.required_step;
        let final_errors = inputs.profile.final_errors as f64;

        let base = if on_plateau(required, step) {
            final_errors
        } else {
            // Distance from the near-optimal plateau, in retry-table entries.
            let d = if step < required {
                (required - step) as f64
            } else {
                (step - required - OVERSHOOT_TOLERANCE) as f64
            };
            let salt = unit_hash_salt(0x57e9 ^ step as u64, U_STREAM);
            let jitter = 0.9 + 0.2 * unit_hash_join(inputs.page_hash, salt);
            off_plateau_errors(final_errors, d, jitter)
        };

        (base + timing_penalty(inputs, reductions)).round() as u32
    }

    /// Whether a sense of the page at `step` under `reductions` decodes:
    /// exactly `sense_errors(inputs, step, reductions) <=`
    /// [`ECC_CAPABILITY_PER_KIB`], the pass/fail answer of the ECC engine.
    ///
    /// Off the plateau the answer is `false` without arithmetic: the count
    /// there is at least `73 + 0.9 · (40 + 45) = 149.5` (distance 1, the
    /// least jitter) before a timing penalty that is never negative. On the
    /// plateau it rounds the same float sum `sense_errors` does.
    pub fn decodes(&self, inputs: &ReadInputs, step: u32, reductions: &Reductions) -> bool {
        on_plateau(inputs.profile.required_step, step)
            && (inputs.profile.final_errors as f64 + timing_penalty(inputs, reductions)).round()
                as u32
                <= ECC_CAPABILITY_PER_KIB
    }

    /// Convenience: does a read of `page` at `step` with `phases` succeed
    /// (errors within ECC capability)?
    pub fn read_succeeds(
        &self,
        page: PageId,
        cond: OperatingCondition,
        step: u32,
        phases: &SensePhases,
    ) -> bool {
        let inputs = self.read_inputs(page, &self.condition_inputs(cond));
        self.decodes(&inputs, step, &reductions_of(phases))
    }
}

/// A standard-normal-ish variate in `[-2, 2]` from the hash `hash` of a
/// key and the salt halves of two uniforms.
fn stationary_z(hash: u64, salts: [u64; 2]) -> f64 {
    // Box–Muller from two stationary uniforms, truncated to ±2 by
    // folding (keeps the value deterministic without rejection loops).
    let u1 = unit_hash_join(hash, salts[0]).max(1e-12);
    let u2 = unit_hash_join(hash, salts[1]);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    // Fold the tails back inside ±2 (|z| ≤ 4 covers essentially all mass).
    let z = z.clamp(-4.0, 4.0);
    if z > 2.0 {
        4.0 - z
    } else if z < -2.0 {
        -4.0 - z
    } else {
        z
    }
}

/// The required step of a page whose [`ErrorModel::page_variation`] is
/// `variation()` at a condition whose mean retry count is `mean`.
fn required_step(mean: f64, variation: impl FnOnce() -> f64) -> u32 {
    if mean <= 0.05 {
        return 0;
    }
    let z = variation();
    let sigma = 0.5 + 0.08 * mean;
    let steps = (mean + z * sigma).round();
    (steps.max(0.0) as u32).min(MAX_RETRY_STEPS)
}

/// The final-step errors of a page with hash `page_hash` at a condition
/// whose population max is `m_err`.
fn final_errors(m_err: f64, page_hash: u64, outlier: bool) -> u32 {
    let u = unit_hash_join(page_hash, U_FINAL);
    // Per-page spread: [0.5·M_ERR, M_ERR], right-skewed so the max is
    // actually attained by some pages (charact sweeps recover M_ERR).
    let e = m_err * (0.5 + 0.5 * u * u.sqrt());
    let mut errors = e.round() as u32;
    if outlier {
        errors += OUTLIER_EXTRA_ERRORS;
    }
    errors
}

/// Whether retry-table index `step` lies on the near-optimal V_REF plateau
/// `[required, required + OVERSHOOT_TOLERANCE]` of a page.
fn on_plateau(required: u32, step: u32) -> bool {
    step >= required && step <= required + OVERSHOOT_TOLERANCE
}

/// The timing penalty a sense under `reductions` adds to a page's errors:
/// zero at default timings, never negative.
fn timing_penalty(inputs: &ReadInputs, reductions: &Reductions) -> f64 {
    if reductions.is_none() {
        0.0
    } else {
        inputs.penalty.delta_m_err(reductions) * inputs.timing_factor
    }
}

/// Errors at default timings `d` retry-table entries off the plateau, for
/// a page with `final_errors` on it and a per-step `jitter` in `[0.9, 1.1)`.
///
/// Fig. 4b: errors collapse from ~500+/KiB three steps out to below the
/// 72-bit capability at the final step. Quadratic growth with a floor just
/// above the capability, so steps off the plateau always fail.
fn off_plateau_errors(final_errors: f64, d: f64, jitter: f64) -> f64 {
    let above_capability = (ECC_CAPABILITY_PER_KIB as f64 + 1.0).max(final_errors);
    above_capability + (40.0 * d + 45.0 * d * d) * jitter
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_util::stats::Histogram;

    fn model() -> ErrorModel {
        ErrorModel::new(0xA5)
    }

    fn cond(pec: f64, months: f64) -> OperatingCondition {
        OperatingCondition::new(pec, months, 30.0)
    }

    fn sample_pages(n: u64) -> impl Iterator<Item = PageId> {
        (0..n).map(|i| PageId::new(i / 64, (i % 64) as u32))
    }

    #[test]
    fn deterministic_per_page() {
        let m = model();
        let p = PageId::new(123, 45);
        let c = cond(1000.0, 6.0);
        assert_eq!(m.required_step_index(p, c), m.required_step_index(p, c));
        assert_eq!(m.final_step_errors(p, c), m.final_step_errors(p, c));
    }

    #[test]
    fn fresh_pages_never_retry() {
        let m = model();
        for p in sample_pages(2000) {
            assert_eq!(m.required_step_index(p, cond(0.0, 0.0)), 0);
        }
    }

    #[test]
    fn fig5_every_read_exceeds_3_steps_at_3mo() {
        // §3.1: at (0 PEC, 3 months) every read needs > 3 retry steps.
        let m = model();
        for p in sample_pages(5000) {
            let steps = m.required_step_index(p, cond(0.0, 3.0));
            assert!(steps > 3, "page {p:?} needed only {steps} steps");
        }
    }

    #[test]
    fn fig5_54pct_at_least_7_steps_at_6mo() {
        // §3.1: 54.4 % of reads incur ≥ 7 retry steps at (0 PEC, 6 months).
        let m = model();
        let mut h = Histogram::new(64);
        for p in sample_pages(20_000) {
            h.record(m.required_step_index(p, cond(0.0, 6.0)) as usize);
        }
        let frac = h.fraction_at_least(7);
        assert!(
            (0.48..=0.60).contains(&frac),
            "fraction ≥ 7 steps = {frac}, expected ≈ 0.544"
        );
    }

    #[test]
    fn fig5_min_8_steps_at_1k_3mo() {
        // §3.1: at 1K P/E cycles, ≥ 8 retry steps after a 3-month age.
        let m = model();
        for p in sample_pages(5000) {
            let steps = m.required_step_index(p, cond(1000.0, 3.0));
            assert!(steps >= 8, "page {p:?} needed only {steps} steps");
        }
    }

    #[test]
    fn fig5_mean_19_9_at_2k_12mo() {
        let m = model();
        let mut h = Histogram::new(64);
        for p in sample_pages(20_000) {
            h.record(m.required_step_index(p, cond(2000.0, 12.0)) as usize);
        }
        let mean = h.mean();
        assert!(
            (mean - 19.9).abs() < 0.5,
            "mean steps = {mean}, expected ≈ 19.9"
        );
        // Fig. 4b shows pages needing 16 and 21 steps under aged conditions.
        assert!(h.count(16) > 0 && h.count(21) > 0);
    }

    #[test]
    fn final_errors_bounded_by_m_err_population() {
        let m = model();
        let c = cond(2000.0, 12.0);
        let m_err = m.calibration().m_err(c);
        let mut max_seen = 0;
        for p in sample_pages(20_000) {
            let e = m.final_step_errors(p, c);
            assert!(
                e as f64 <= m_err + 0.5,
                "page errors {e} exceed M_ERR {m_err}"
            );
            max_seen = max_seen.max(e);
        }
        // The spread should actually reach near the population max.
        assert!(
            max_seen as f64 >= m_err - 2.0,
            "max seen {max_seen} vs M_ERR {m_err}"
        );
        // And every page still fits in the ECC capability at default timings.
        assert!(max_seen <= ECC_CAPABILITY_PER_KIB);
    }

    #[test]
    fn fig4b_error_collapse_shape() {
        let m = model();
        let c = cond(2000.0, 12.0);
        let dflt = SensePhases::table1();
        // Find a page needing 16+ steps.
        let page = sample_pages(5000)
            .find(|&p| m.required_step_index(p, c) >= 16)
            .expect("aged condition must produce deep retries");
        let n = m.required_step_index(page, c);
        let at = |s: u32| m.errors_at_step(page, c, s, &dflt);
        // Final step succeeds; previous steps fail with growing error counts.
        assert!(at(n) <= ECC_CAPABILITY_PER_KIB);
        assert!(at(n - 1) > ECC_CAPABILITY_PER_KIB);
        assert!(at(n - 1) < at(n - 2));
        assert!(at(n - 2) < at(n - 3));
        // Fig. 4b: roughly 400–700 errors three steps before the final one.
        let three_out = at(n - 3);
        assert!(
            (250..=800).contains(&three_out),
            "errors at N-3 = {three_out}, expected hundreds"
        );
    }

    #[test]
    fn earlier_steps_fail_even_with_default_timing() {
        let m = model();
        let c = cond(1000.0, 6.0);
        let dflt = SensePhases::table1();
        for p in sample_pages(300) {
            let n = m.required_step_index(p, c);
            for s in 0..n {
                assert!(
                    !m.read_succeeds(p, c, s, &dflt),
                    "step {s} of {n} succeeded"
                );
            }
            assert!(m.read_succeeds(p, c, n, &dflt));
        }
    }

    #[test]
    fn reduced_tpre_40pct_preserves_final_step_success() {
        // §5.2/6.2: with the RPT-chosen reduction the final step still
        // succeeds for all (non-outlier) pages, at any temperature.
        let m = model();
        let reduced = SensePhases::table1().with_reduction(0.40, 0.0, 0.0);
        for temp in [30.0, 55.0, 85.0] {
            let c = OperatingCondition::new(2000.0, 12.0, temp);
            for p in sample_pages(3000) {
                let n = m.required_step_index(p, c);
                assert!(
                    m.read_succeeds(p, c, n, &reduced),
                    "final step failed with reduced tPRE at {temp}°C for {p:?}"
                );
            }
        }
    }

    #[test]
    fn excessive_tpre_reduction_fails_reads() {
        let m = model();
        let broken = SensePhases::table1().with_reduction(0.58, 0.0, 0.0);
        let c = cond(0.0, 0.0);
        let p = PageId::new(1, 1);
        assert!(!m.read_succeeds(p, c, 0, &broken));
    }

    #[test]
    fn outlier_injection_exceeds_population_max() {
        let m = ErrorModel::new(0xA5).with_outlier_rate(1.0);
        let c = cond(2000.0, 12.0);
        let p = PageId::new(9, 9);
        assert!(m.is_outlier(p));
        let base = ErrorModel::new(0xA5).final_step_errors(p, c);
        assert_eq!(m.final_step_errors(p, c), base + OUTLIER_EXTRA_ERRORS);
        // Outliers still succeed at default timings...
        assert!(m.read_succeeds(p, c, m.required_step_index(p, c), &SensePhases::table1()));
    }

    #[test]
    fn overshoot_plateau_then_failure() {
        let m = model();
        let c = cond(1000.0, 6.0);
        let dflt = SensePhases::table1();
        let p = sample_pages(1000)
            .find(|&p| m.required_step_index(p, c) >= 5)
            .unwrap();
        let n = m.required_step_index(p, c);
        // Near-optimal plateau: a few steps past N still succeed.
        for s in n..=n + OVERSHOOT_TOLERANCE {
            assert!(m.read_succeeds(p, c, s, &dflt));
        }
        // Far past the plateau, V_REF has overshot and the read fails again.
        assert!(!m.read_succeeds(p, c, n + OVERSHOOT_TOLERANCE + 2, &dflt));
    }

    #[test]
    fn off_plateau_floor_exceeds_capability() {
        // The least count off the plateau: one entry away, the least jitter,
        // a page with no errors on the plateau and no timing penalty.
        let floor = off_plateau_errors(0.0, 1.0, 0.9);
        assert!((floor - 149.5).abs() < 1e-9, "floor {floor}");
        assert!(floor.round() as u32 > ECC_CAPABILITY_PER_KIB);
        // More distance, jitter or plateau errors only raise it.
        assert!(off_plateau_errors(0.0, 2.0, 0.9) > floor);
        assert!(off_plateau_errors(0.0, 1.0, 1.1) > floor);
        assert!(off_plateau_errors(92.0, 1.0, 0.9) > floor);
    }

    #[test]
    fn profile_matches_parts() {
        let m = model();
        let c = cond(1000.0, 3.0);
        let p = PageId::new(4, 2);
        let prof = m.page_profile(p, c);
        assert_eq!(prof.required_step, m.required_step_index(p, c));
        assert_eq!(prof.final_errors, m.final_step_errors(p, c));
        assert_eq!(prof.n_rr(), prof.required_step);
        assert_eq!(prof.ecc_margin(), 72 - prof.final_errors);
    }

    #[test]
    fn salt_halves_join_into_each_quantitys_unit_hash() {
        use rr_util::rng::unit_hash;
        for (seed, key) in [(0, 0), (0xA5, 7), (u64::MAX, 1 << 40)] {
            let hash = mix64(seed, key);
            let u = |salt| unit_hash_join(hash, salt);
            assert_eq!(u(Z_BLOCK[0]), unit_hash(seed, key, 0xb10c, 0x5eed));
            assert_eq!(u(Z_BLOCK[1]), unit_hash(seed, key, 0xb10c, 0xfeed));
            assert_eq!(u(Z_PAGE[0]), unit_hash(seed, key, 0x9a9e, 0x5eed));
            assert_eq!(u(Z_PAGE[1]), unit_hash(seed, key, 0x9a9e, 0xfeed));
            assert_eq!(u(U_FINAL), unit_hash(seed, key, 0xe44, 0xcafe));
            assert_eq!(u(U_OUTLIER), unit_hash(seed, key, 0x0017, 0xcafe));
            assert_eq!(u(U_TIMING), unit_hash(seed, key, 0xde17a, 0xcafe));
        }
    }

    #[test]
    fn different_seeds_give_different_populations() {
        let a = ErrorModel::new(1);
        let b = ErrorModel::new(2);
        let c = cond(1000.0, 6.0);
        let diff = sample_pages(200)
            .filter(|&p| a.required_step_index(p, c) != b.required_step_index(p, c))
            .count();
        assert!(diff > 20, "only {diff}/200 pages differ between seeds");
    }
}
