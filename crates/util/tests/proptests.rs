//! Property-based tests for the util crate's invariants.

use proptest::prelude::*;
use rr_util::dist::{Discrete, Exponential, Zipf};
use rr_util::interp::{lerp_table, Grid2};
use rr_util::rng::{unit_hash, Rng as SimRng};
use rr_util::stats::{Histogram, OnlineStats, Percentiles};
use rr_util::time::SimTime;

/// Definition-based nearest-rank reference over ascending samples: the
/// smallest sample whose cumulative relative frequency is at least `q`.
fn naive_nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    for &x in sorted {
        let cumulative = sorted.partition_point(|&y| y <= x) as f64;
        // Same f64-representation-error epsilon as the implementation: the
        // exact product q·n can land an ULP above its true value.
        if cumulative >= q * n - 1e-9 {
            return x;
        }
    }
    *sorted.last().expect("non-empty input")
}

proptest! {
    #[test]
    fn quantile_matches_naive_nearest_rank(
        draws in prop::collection::vec(-1e6f64..1e6, 1..5000),
        distinct in 0u32..6,
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        // Up to 5 000 samples, so that p99.9 is not always the maximum; a
        // nonzero `distinct` folds the draws onto that many values, so that
        // ranks fall inside long runs of equal samples.
        let xs: Vec<f64> = draws
            .iter()
            .map(|&x| match distinct {
                0 => x,
                d => ((x + 1e6) / 2e6 * d as f64).floor(),
            })
            .collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut p = Percentiles::new();
        for &x in &xs {
            p.push(x);
        }
        // The summary of unsorted samples selects its ranks.
        let s = p.summary();
        prop_assert_eq!(s.count, xs.len() as u64);
        prop_assert_eq!(s.p50, Some(naive_nearest_rank(&sorted, 0.50)));
        prop_assert_eq!(s.p95, Some(naive_nearest_rank(&sorted, 0.95)));
        prop_assert_eq!(s.p99, Some(naive_nearest_rank(&sorted, 0.99)));
        prop_assert_eq!(s.p999, Some(naive_nearest_rank(&sorted, 0.999)));
        // The permutation the summary left behind changes no quantile, and
        // a summary of the then sorted samples is the same.
        for &q in &qs {
            let expected = naive_nearest_rank(&sorted, q);
            prop_assert_eq!(p.quantile(q), Some(expected), "q = {}", q);
        }
        prop_assert_eq!(p.summary(), s);
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_below_respects_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn forked_streams_match_for_equal_ids(seed in any::<u64>(), id in any::<u64>()) {
        let root = SimRng::seed_from_u64(seed);
        let mut a = root.fork(id);
        let mut b = root.fork(id);
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_hash_is_in_unit_interval(s in any::<u64>(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let v = unit_hash(s, a, b, c);
        prop_assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn zipf_samples_in_range(n in 1u64..10_000, seed in any::<u64>()) {
        let z = Zipf::new(n, 0.99).expect("valid parameters");
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn exponential_samples_positive(rate in 0.001f64..1e6, seed in any::<u64>()) {
        let e = Exponential::new(rate).expect("valid rate");
        let mut rng = SimRng::seed_from_u64(seed);
        prop_assert!(e.sample(&mut rng) >= 0.0);
    }

    #[test]
    fn discrete_sampling_stays_in_bounds(weights in prop::collection::vec(0.01f64..10.0, 1..16), seed in any::<u64>()) {
        let d = Discrete::new(&weights).expect("positive weights");
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(d.sample(&mut rng) < weights.len());
        }
    }

    #[test]
    fn online_stats_mean_within_minmax(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        prop_assert!(s.mean() >= s.min() - 1e-6);
        prop_assert!(s.mean() <= s.max() + 1e-6);
        prop_assert!(s.variance() >= 0.0);
    }

    #[test]
    fn stats_merge_matches_sequential(xs in prop::collection::vec(-1e3f64..1e3, 2..100), split in 1usize..50) {
        let split = split.min(xs.len() - 1);
        let mut whole = OnlineStats::new();
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            if i < split { left.push(x); } else { right.push(x); }
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-4);
    }

    #[test]
    fn histogram_total_is_conserved(values in prop::collection::vec(0usize..64, 0..200)) {
        let mut h = Histogram::new(32);
        for &v in &values {
            h.record(v);
        }
        let binned: u64 = (0..32).map(|v| h.count(v)).sum();
        prop_assert_eq!(binned + h.overflow(), values.len() as u64);
        prop_assert!((0.0..=1.0).contains(&h.fraction_at_least(10)));
    }

    #[test]
    fn grid_interpolation_bounded_by_values(
        x in -10.0f64..10.0,
        y in -10.0f64..10.0,
        v in prop::collection::vec(0.0f64..100.0, 4),
    ) {
        let g = Grid2::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![vec![v[0], v[1]], vec![v[2], v[3]]])
            .expect("valid grid");
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let z = g.at(x, y);
        prop_assert!(z >= lo - 1e-9 && z <= hi + 1e-9, "{z} outside [{lo}, {hi}]");
    }

    #[test]
    fn lerp_table_clamps(x in -1e3f64..1e3) {
        let v = lerp_table(&[0.0, 10.0], &[5.0, 25.0], x);
        prop_assert!((5.0..=25.0).contains(&v));
    }

    #[test]
    fn simtime_scale_bounded(us in 0u64..1_000_000, f in 0.0f64..1.0) {
        let t = SimTime::from_us(us);
        let s = t.scale(f);
        prop_assert!(s <= t);
    }
}
