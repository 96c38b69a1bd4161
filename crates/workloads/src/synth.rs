//! The shared synthetic-trace engine behind the MSRC-like and YCSB-like
//! generators.
//!
//! The paper's evaluation (Table 2) characterizes each workload by its
//! **read ratio** (fraction of read requests) and **cold ratio** (fraction of
//! read requests whose pages are never updated during the run — these reads
//! hit long-retention pages and therefore deep read-retry). This generator
//! hits both statistics by construction:
//!
//! * the LPN footprint is split into a small **hot region** receiving all
//!   writes, and a large **cold region** that is never written;
//! * each read draws "cold?" with the target cold ratio and then picks a page
//!   from the cold region, or from the set of already-written hot pages;
//! * arrivals are a bursty Poisson process (exponential gaps with occasional
//!   long pauses), the shape enterprise block traces exhibit.

use crate::trace::Trace;
use rr_sim::request::{HostRequest, IoOp};
use rr_util::dist::{Exponential, Zipf};
use rr_util::rng::Rng;
use rr_util::time::SimTime;

/// How read targets are chosen within the hot (already-written) set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotReadBias {
    /// Zipf over write popularity (most-written pages most-read) — the MSRC
    /// and YCSB-A/B/F shape.
    Popularity,
    /// Prefer the most recently written pages (YCSB-D's "latest").
    Latest,
}

/// Parameters of one synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Workload name for reports.
    pub name: String,
    /// Number of requests to generate.
    pub n_requests: usize,
    /// Target fraction of read requests (Table 2 "read ratio").
    pub read_ratio: f64,
    /// Target fraction of cold reads (Table 2 "cold ratio").
    pub cold_ratio: f64,
    /// Logical footprint in pages.
    pub footprint_pages: u64,
    /// Mean arrival gap in microseconds (1e6 / IOPS).
    pub mean_interarrival_us: f64,
    /// Probability that an arrival gap is a long pause (burstiness).
    pub pause_probability: f64,
    /// Pause length multiplier over the mean gap.
    pub pause_factor: f64,
    /// Zipf exponent for hot-region write popularity.
    pub zipf_theta: f64,
    /// Maximum request length in pages for ordinary reads/writes.
    pub max_len_pages: u32,
    /// If set, reads may be long scans of up to this many pages (YCSB-E).
    pub scan_max_pages: Option<u32>,
    /// Hot-read target selection.
    pub hot_read_bias: HotReadBias,
    /// Read-modify-write pairing: writes target the last page read (YCSB-F).
    pub rmw: bool,
    /// Generator seed.
    pub seed: u64,
}

impl SynthConfig {
    /// A neutral starting point; presets override the Table-2 ratios.
    pub fn base(name: &str) -> Self {
        Self {
            name: name.to_string(),
            n_requests: 20_000,
            read_ratio: 0.5,
            cold_ratio: 0.5,
            footprint_pages: 200_000,
            // ≈2.5k IOPS over 64 dies: moderate queueing even when deep
            // read-retry inflates service times (the paper replays real trace
            // timestamps; this keeps the baseline out of saturation at the
            // worst operating points, as theirs is).
            mean_interarrival_us: 400.0,
            pause_probability: 0.02,
            pause_factor: 40.0,
            zipf_theta: 0.99,
            max_len_pages: 4,
            scan_max_pages: None,
            hot_read_bias: HotReadBias::Popularity,
            rmw: false,
            seed: 0x7ace,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_requests == 0 {
            return Err("n_requests must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.read_ratio) || !(0.0..=1.0).contains(&self.cold_ratio) {
            return Err("ratios must be within [0, 1]".into());
        }
        if self.footprint_pages < 1024 {
            return Err("footprint must be at least 1024 pages".into());
        }
        if self.mean_interarrival_us <= 0.0 {
            return Err("mean interarrival must be positive".into());
        }
        if self.max_len_pages == 0 {
            return Err("max request length must be positive".into());
        }
        Ok(())
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (call [`Self::validate`] for a
    /// `Result`).
    pub fn generate(&self) -> Trace {
        self.validate()
            .expect("invalid synthetic workload configuration");
        let mut rng = Rng::seed_from_u64(self.seed);

        // Hot region sizing: small enough that the workload's writes cover
        // most of it (so hot reads reliably target updated pages), capped at
        // a quarter of the footprint.
        let writes_expected = (self.n_requests as f64 * (1.0 - self.read_ratio)).ceil() as u64;
        let hot_pages = (writes_expected / 6)
            .max(32)
            .min(self.footprint_pages / 4)
            .max(1);
        let cold_base = hot_pages;
        let cold_pages = self.footprint_pages - cold_base;

        let hot_zipf = Zipf::new(hot_pages, self.zipf_theta).expect("validated parameters");
        let gap = Exponential::new(1.0 / self.mean_interarrival_us).expect("validated rate");

        let mut written: Vec<u64> = Vec::new(); // hot pages in write order
        let mut written_set = vec![false; hot_pages as usize];
        let mut last_hot_read: Option<u64> = None;

        let mut requests = Vec::with_capacity(self.n_requests);
        let mut now_us = 0.0f64;
        for _ in 0..self.n_requests {
            let mut dt = gap.sample(&mut rng);
            if rng.chance(self.pause_probability) {
                dt += self.mean_interarrival_us * self.pause_factor * rng.next_f64();
            }
            now_us += dt;
            let arrival = SimTime::from_us_f64(now_us);

            if rng.chance(self.read_ratio) {
                let (lpn, len) = if rng.chance(self.cold_ratio) || written.is_empty() {
                    // Cold read: the cold region is never written.
                    let len = self.sample_read_len(&mut rng);
                    let lpn = cold_base + rng.below(cold_pages.saturating_sub(len as u64).max(1));
                    (lpn, len)
                } else {
                    // Hot read: target a page that the trace writes.
                    let idx = match self.hot_read_bias {
                        HotReadBias::Popularity => {
                            // Re-sample the write popularity distribution and
                            // map to a written page.
                            let rank = hot_zipf.sample(&mut rng);
                            if written_set[rank as usize] {
                                rank
                            } else {
                                written[rng.below_usize(written.len())]
                            }
                        }
                        HotReadBias::Latest => {
                            // Bias toward the most recent writes.
                            let back = (rng.next_f64().powi(2) * written.len() as f64) as usize;
                            written[written.len() - 1 - back.min(written.len() - 1)]
                        }
                    };
                    last_hot_read = Some(idx);
                    (idx, 1)
                };
                requests.push(HostRequest::new(arrival, IoOp::Read, lpn, len));
            } else {
                let lpn = if self.rmw {
                    // Read-modify-write: update what was just read when possible.
                    last_hot_read
                        .take()
                        .unwrap_or_else(|| hot_zipf.sample(&mut rng))
                } else {
                    hot_zipf.sample(&mut rng)
                };
                let max_len = (self.max_len_pages as u64).min(hot_pages - lpn).max(1);
                let len = 1 + rng.below(max_len) as u32;
                for p in lpn..lpn + len as u64 {
                    if !written_set[p as usize] {
                        written_set[p as usize] = true;
                        written.push(p);
                    }
                }
                requests.push(HostRequest::new(arrival, IoOp::Write, lpn, len));
            }
        }
        Trace::new(self.name.clone(), requests, self.footprint_pages)
    }

    fn sample_read_len(&self, rng: &mut Rng) -> u32 {
        if let Some(scan_max) = self.scan_max_pages {
            // Scans: uniform 1..=scan_max (YCSB-E's uniform scan lengths).
            1 + rng.below(scan_max as u64) as u32
        } else {
            // Short requests, geometric-ish: mostly 1 page.
            let mut len = 1;
            while len < self.max_len_pages && rng.chance(0.25) {
                len += 1;
            }
            len
        }
    }
}

/// The GC-stress workload: alternating single-page reads over the whole
/// `footprint_pages` and writes hammering a hot quarter of it, at a fixed
/// 60 µs spacing. Sized to a footprint that fills the device's usable
/// space (`SsdConfig::max_lpns`), the write stream exhausts the free pool
/// and keeps garbage collection running for the rest of the replay.
///
/// Striped over two host submission queues (request *i* → queue
/// *i mod 2*), every read lands on queue 0 (the latency-critical reader)
/// and every write on queue 1 (the hammer) — the split the
/// `queue-shield` GC policy is designed for. This one definition backs
/// `repro --gc-stress`, `tests/gc_policy.rs`, and the GC cases of
/// `tests/hotpath_equiv.rs`, so what the tests pin is exactly what the
/// CLI ships.
pub fn gc_stress_trace(footprint_pages: u64, n_requests: usize) -> Trace {
    let hot = (footprint_pages / 4).max(1);
    let requests = (0..n_requests)
        .map(|i| {
            let at = SimTime::from_us(60 * i as u64);
            if i % 2 == 0 {
                HostRequest::new(
                    at,
                    IoOp::Read,
                    (i as u64).wrapping_mul(97) % footprint_pages,
                    1,
                )
            } else {
                HostRequest::new(at, IoOp::Write, (i as u64).wrapping_mul(31) % hot, 1)
            }
        })
        .collect();
    Trace::new("gc_stress", requests, footprint_pages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_targets() {
        for (rr, cr) in [(0.15, 0.38), (0.89, 0.96), (0.98, 0.72), (0.5, 0.5)] {
            let mut cfg = SynthConfig::base("t");
            cfg.read_ratio = rr;
            cfg.cold_ratio = cr;
            cfg.n_requests = 10_000;
            let stats = cfg.generate().stats();
            assert!(
                (stats.read_ratio - rr).abs() < 0.03,
                "read ratio {} vs target {rr}",
                stats.read_ratio
            );
            assert!(
                (stats.cold_ratio - cr).abs() < 0.05,
                "cold ratio {} vs target {cr}",
                stats.cold_ratio
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SynthConfig::base("t");
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        assert_ne!(a, cfg2.generate());
    }

    #[test]
    fn arrivals_are_monotone_and_bursty() {
        let cfg = SynthConfig::base("t");
        let t = cfg.generate();
        let mut gaps = Vec::new();
        for w in t.requests.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
            gaps.push((w[1].arrival - w[0].arrival).as_us_f64());
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        assert!(max > 5.0 * mean, "bursty traces need long pauses");
    }

    #[test]
    fn scans_produce_long_reads() {
        let mut cfg = SynthConfig::base("scan");
        cfg.scan_max_pages = Some(16);
        cfg.read_ratio = 0.99;
        let t = cfg.generate();
        let max_len = t
            .requests
            .iter()
            .filter(|r| r.op == IoOp::Read)
            .map(|r| r.len_pages)
            .max()
            .unwrap();
        assert!(max_len > 4, "scans should exceed ordinary request sizes");
    }

    #[test]
    fn gc_stress_trace_splits_reads_and_writes_by_stripe_parity() {
        let t = gc_stress_trace(4_000, 200);
        assert_eq!(t.requests.len(), 200);
        assert_eq!(t.footprint_pages, 4_000);
        // Even indices (queue 0 under 2-queue striping) are single-page
        // reads over the whole footprint; odd indices (queue 1) are writes
        // confined to the hot quarter.
        for (i, r) in t.requests.iter().enumerate() {
            assert_eq!(r.len_pages, 1);
            if i % 2 == 0 {
                assert_eq!(r.op, IoOp::Read);
                assert!(r.lpn < 4_000);
            } else {
                assert_eq!(r.op, IoOp::Write);
                assert!(r.lpn < 1_000, "write at {} left the hot quarter", r.lpn);
            }
        }
        // Arrivals are the fixed 60 µs spacing, already time-sorted.
        assert_eq!(t.requests[1].arrival, SimTime::from_us(60));
        // A degenerate footprint still produces a valid trace.
        let tiny = gc_stress_trace(2, 10);
        assert!(tiny.requests.iter().all(|r| r.lpn < 2));
    }

    #[test]
    fn rmw_pairs_write_after_read() {
        let mut cfg = SynthConfig::base("rmw");
        cfg.rmw = true;
        cfg.read_ratio = 0.6;
        cfg.cold_ratio = 0.1;
        let t = cfg.generate();
        // Find at least one write that targets the immediately preceding
        // read's page.
        let paired = t
            .requests
            .windows(2)
            .any(|w| w[0].op == IoOp::Read && w[1].op == IoOp::Write && w[0].lpn == w[1].lpn);
        assert!(paired, "RMW workloads pair updates with reads");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SynthConfig::base("t");
        cfg.read_ratio = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = SynthConfig::base("t");
        cfg.footprint_pages = 10;
        assert!(cfg.validate().is_err());
        let mut cfg = SynthConfig::base("t");
        cfg.n_requests = 0;
        assert!(cfg.validate().is_err());
    }
}
