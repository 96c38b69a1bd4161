//! Online statistics and histograms for simulator metrics and figure data.

/// Streaming mean / variance / extrema via Welford's algorithm.
///
/// # Example
///
/// ```
/// use rr_util::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Minimum observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Exact percentile tracking over a stored sample vector.
///
/// The simulator produces at most a few hundred thousand request latencies per
/// run, so storing them exactly is cheaper than maintaining a sketch and keeps
/// the reported percentiles reproducible to the bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN: a NaN has no rank.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "a latency sample is NaN");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Adds every observation of `other`.
    pub fn append(&mut self, other: &Percentiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest-rank, or `None` when empty.
    ///
    /// Nearest-rank: the smallest sample whose cumulative relative frequency
    /// is at least `q`, i.e. the sample of 1-based rank `⌈q·n⌉` (`q = 0` maps
    /// to the first sample). The median of `[1, 2, 3, 4]` is therefore `2`,
    /// not `3`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            // Samples are never NaN (`push` refuses one) nor -0.0, so the
            // total order agrees with `<`, and equal samples are the same
            // bits: an unstable sort returns the stable sort's quantiles.
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        Some(self.samples[self.rank_index(q)])
    }

    /// The 0-based index of the `q`-quantile's nearest rank among the
    /// sorted samples (non-empty).
    fn rank_index(&self, q: f64) -> usize {
        let n = self.samples.len();
        // The epsilon absorbs f64 representation error in q·n: e.g.
        // 0.07 · 100 evaluates to 7.0000000000000009, whose ceil would
        // overshoot the true rank ⌈7⌉ = 7 by one.
        let rank = (q * n as f64 - 1e-9).ceil() as usize;
        rank.clamp(1, n) - 1
    }

    /// Summarizes the collection into the fixed tail quantiles reports carry.
    ///
    /// Unsorted samples are not sorted: each rank, in ascending order, is
    /// selected within the suffix past the previous one, which holds every
    /// larger rank. That leaves the samples permuted; a later
    /// [`Percentiles::quantile`] still sorts them.
    pub fn summary(&mut self) -> LatencySummary {
        let mut values = [None; 4];
        // `samples[..selected]` holds the ranks below `selected`, in place.
        let mut selected = 0;
        if !self.samples.is_empty() {
            for (value, q) in values.iter_mut().zip([0.50, 0.95, 0.99, 0.999]) {
                let at = self.rank_index(q);
                if !self.sorted && at >= selected {
                    // As in `quantile`, equal samples are the same bits, so
                    // the selected sample is the one a sort puts at `at`.
                    self.samples[selected..].select_nth_unstable_by(at - selected, f64::total_cmp);
                    selected = at + 1;
                }
                *value = Some(self.samples[at]);
            }
        }
        let [p50, p95, p99, p999] = values;
        LatencySummary {
            count: self.samples.len() as u64,
            p50,
            p95,
            p99,
            p999,
        }
    }
}

/// Fixed tail quantiles (p50/p95/p99/p99.9) of one latency class, as carried
/// by simulation reports.
///
/// Every quantile is `None` when the class recorded no observations — an
/// empty class has *no* tail, and rendering it as `0.0` would fabricate an
/// impossibly good one.
///
/// # Example
///
/// ```
/// use rr_util::stats::Percentiles;
/// let mut p = Percentiles::new();
/// for x in 1..=1000 { p.push(x as f64); }
/// let s = p.summary();
/// assert_eq!(s.count, 1000);
/// assert_eq!(s.p50, Some(500.0));
/// assert_eq!(s.p999, Some(999.0));
/// assert_eq!(Percentiles::new().summary().p99, None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of observations in this class.
    pub count: u64,
    /// Median (µs for latency classes).
    pub p50: Option<f64>,
    /// 95th percentile.
    pub p95: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
    /// 99.9th percentile.
    pub p999: Option<f64>,
}

/// A fixed-bin integer histogram, used e.g. for "number of retry steps" counts
/// (Fig. 5) where the domain is small and dense.
///
/// The `Default` histogram has zero bins (every record lands in overflow);
/// use [`Histogram::new`] with a real bin count for anything meaningful.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    bins: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with bins `0..len`; larger values land in overflow.
    pub fn new(len: usize) -> Self {
        Self {
            bins: vec![0; len],
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation of `value`.
    ///
    /// Debug builds assert that the histogram has at least one bin: recording
    /// into a zero-bin (`Default`) histogram silently lands *every* value in
    /// overflow, which reads as "all observations out of range".
    pub fn record(&mut self, value: usize) {
        debug_assert!(
            !self.bins.is_empty(),
            "recording into a zero-bin histogram (every value would land in \
             overflow) — construct it with Histogram::new(len)"
        );
        if value < self.bins.len() {
            self.bins[value] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Count in bin `value` (0 if out of range).
    pub fn count(&self, value: usize) -> u64 {
        self.bins.get(value).copied().unwrap_or(0)
    }

    /// Count of observations that exceeded the binned range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Probability mass of bin `value`.
    pub fn probability(&self, value: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Fraction of observations `>= value`.
    pub fn fraction_at_least(&self, value: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let tail: u64 = self.bins[value.min(self.bins.len())..].iter().sum::<u64>() + self.overflow;
        tail as f64 / self.total as f64
    }

    /// Mean of the recorded values (overflow excluded).
    pub fn mean(&self) -> f64 {
        let counted: u64 = self.bins.iter().sum();
        if counted == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .bins
            .iter()
            .enumerate()
            .map(|(v, &c)| v as f64 * c as f64)
            .sum();
        sum / counted as f64
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min_value(&self) -> Option<usize> {
        self.bins.iter().position(|&c| c > 0)
    }

    /// Largest recorded (binned) value, or `None` if only overflow/empty.
    pub fn max_value(&self) -> Option<usize> {
        self.bins.iter().rposition(|&c| c > 0)
    }

    /// Iterates over `(value, count)` for non-empty bins.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            whole.push(x);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.push(x as f64);
        }
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        let median = p.quantile(0.5).unwrap();
        assert!((50.0..=51.0).contains(&median), "median {median}");
        let p99 = p.quantile(0.99).unwrap();
        assert!((99.0..=100.0).contains(&p99));
    }

    #[test]
    #[should_panic(expected = "latency sample is NaN")]
    fn percentiles_refuse_a_nan_sample() {
        Percentiles::new().push(f64::NAN);
    }

    #[test]
    fn percentiles_empty_is_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        assert_eq!(p.summary(), LatencySummary::default());
    }

    #[test]
    fn nearest_rank_is_unbiased_at_small_n() {
        // The old round(q·(n−1)) formula returned 3 for the median of
        // [1, 2, 3, 4]; nearest-rank (rank ⌈0.5·4⌉ = 2) says 2.
        let mut p = Percentiles::new();
        for x in [4.0, 2.0, 1.0, 3.0] {
            p.push(x);
        }
        assert_eq!(p.quantile(0.5), Some(2.0));
        assert_eq!(p.quantile(0.25), Some(1.0));
        assert_eq!(p.quantile(0.75), Some(3.0));
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(4.0));
        // A single sample is every quantile.
        let mut one = Percentiles::new();
        one.push(7.0);
        assert_eq!(one.quantile(0.0), Some(7.0));
        assert_eq!(one.quantile(0.999), Some(7.0));
    }

    #[test]
    fn quantile_rank_survives_f64_representation_error() {
        // 0.07 · 100 = 7.0000000000000009 in f64; a naive ceil would return
        // the 8th-smallest sample instead of the true nearest-rank 7th.
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.push(x as f64);
        }
        assert_eq!(p.quantile(0.07), Some(7.0));
        assert_eq!(p.quantile(0.29), Some(29.0));
    }

    #[test]
    fn summary_reports_fixed_quantiles() {
        let mut p = Percentiles::new();
        for x in 1..=1000 {
            p.push(x as f64);
        }
        let s = p.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, Some(500.0));
        assert_eq!(s.p95, Some(950.0));
        assert_eq!(s.p99, Some(990.0));
        assert_eq!(s.p999, Some(999.0));
    }

    #[test]
    fn histogram_counts_and_tail() {
        let mut h = Histogram::new(10);
        for v in [0, 1, 1, 7, 7, 7, 12] {
            h.record(v);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.overflow(), 1);
        // >= 7: three 7s + one overflow = 4/7.
        assert!((h.fraction_at_least(7) - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(h.min_value(), Some(0));
        assert_eq!(h.max_value(), Some(7));
        // Mean excludes overflow: (0 + 1 + 1 + 7*3)/6.
        assert!((h.mean() - 23.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_iter_skips_empty_bins() {
        let mut h = Histogram::new(5);
        h.record(2);
        h.record(2);
        h.record(4);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(2, 2), (4, 1)]);
    }
}
