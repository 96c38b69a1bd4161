//! Property-based tests: the synthetic-trace generator must hit its target
//! statistics and structural invariants for arbitrary parameterizations.

use proptest::prelude::*;
use rr_sim::request::IoOp;
use rr_workloads::msrc::MsrcWorkload;
use rr_workloads::synth::{HotReadBias, SynthConfig};
use rr_workloads::ycsb::YcsbWorkload;

fn config(
    rr: f64,
    cr: f64,
    n: usize,
    seed: u64,
    latest: bool,
    rmw: bool,
    scans: bool,
) -> SynthConfig {
    let mut cfg = SynthConfig::base("prop");
    cfg.read_ratio = rr;
    cfg.cold_ratio = cr;
    cfg.n_requests = n;
    cfg.seed = seed;
    cfg.hot_read_bias = if latest {
        HotReadBias::Latest
    } else {
        HotReadBias::Popularity
    };
    cfg.rmw = rmw;
    cfg.scan_max_pages = scans.then_some(8);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_traces_hit_targets(
        rr in 0.1f64..0.99,
        cr in 0.05f64..0.98,
        seed in any::<u64>(),
        latest in any::<bool>(),
        rmw in any::<bool>(),
        scans in any::<bool>(),
    ) {
        let cfg = config(rr, cr, 4_000, seed, latest, rmw, scans);
        let trace = cfg.generate();
        let stats = trace.stats();
        prop_assert!((stats.read_ratio - rr).abs() < 0.05,
            "read ratio {} vs target {rr}", stats.read_ratio);
        prop_assert!((stats.cold_ratio - cr).abs() < 0.08,
            "cold ratio {} vs target {cr}", stats.cold_ratio);
        // Structural invariants.
        prop_assert_eq!(stats.requests as usize, 4_000);
        for w in trace.requests.windows(2) {
            prop_assert!(w[1].arrival >= w[0].arrival, "arrivals sorted");
        }
        for r in &trace.requests {
            prop_assert!(r.lpn + r.len_pages as u64 <= trace.footprint_pages);
            prop_assert!(r.len_pages >= 1);
        }
    }

    /// Table 2 contract for the named MSRC workloads: a synthesized trace of
    /// arbitrary length and seed measures the paper's read/cold ratios
    /// within tolerance (looser on short traces, where sampling noise
    /// dominates).
    #[test]
    fn msrc_synthesis_hits_table2_ratios(
        w in prop::sample::select(MsrcWorkload::ALL.to_vec()),
        len in 1_000usize..6_000,
        seed in any::<u64>(),
    ) {
        let (paper_rr, paper_cr) = w.table2_ratios();
        let stats = w.synthesize(len, seed).stats();
        let tol = 0.03 + 40.0 / len as f64;
        prop_assert_eq!(stats.requests as usize, len);
        prop_assert!(
            (stats.read_ratio - paper_rr).abs() < tol,
            "{:?}: read ratio {:.3} vs Table-2 {:.2} (len {}, tol {:.3})",
            w, stats.read_ratio, paper_rr, len, tol
        );
        prop_assert!(
            (stats.cold_ratio - paper_cr).abs() < tol + 0.03,
            "{:?}: cold ratio {:.3} vs Table-2 {:.2} (len {}, tol {:.3})",
            w, stats.cold_ratio, paper_cr, len, tol + 0.03
        );
    }

    /// Table 2 contract for the YCSB workloads, same tolerances.
    #[test]
    fn ycsb_synthesis_hits_table2_ratios(
        w in prop::sample::select(YcsbWorkload::ALL.to_vec()),
        len in 1_000usize..6_000,
        seed in any::<u64>(),
    ) {
        let (paper_rr, paper_cr) = w.table2_ratios();
        let stats = w.synthesize(len, seed).stats();
        let tol = 0.03 + 40.0 / len as f64;
        prop_assert_eq!(stats.requests as usize, len);
        prop_assert!(
            (stats.read_ratio - paper_rr).abs() < tol,
            "{:?}: read ratio {:.3} vs Table-2 {:.2} (len {}, tol {:.3})",
            w, stats.read_ratio, paper_rr, len, tol
        );
        prop_assert!(
            (stats.cold_ratio - paper_cr).abs() < tol + 0.03,
            "{:?}: cold ratio {:.3} vs Table-2 {:.2} (len {}, tol {:.3})",
            w, stats.cold_ratio, paper_cr, len, tol + 0.03
        );
    }

    #[test]
    fn generation_is_deterministic(seed in any::<u64>()) {
        let cfg = config(0.8, 0.6, 500, seed, false, false, false);
        prop_assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn cold_reads_really_target_unwritten_pages(
        seed in any::<u64>(),
        cr in 0.3f64..0.95,
    ) {
        // Every write in a generated trace must land in the hot region, so
        // the measured cold ratio can never be *under*-delivered by writes
        // leaking into the cold region.
        let cfg = config(0.7, cr, 2_000, seed, false, false, false);
        let trace = cfg.generate();
        let max_write_page = trace
            .requests
            .iter()
            .filter(|r| r.op == IoOp::Write)
            .map(|r| r.lpn + r.len_pages as u64)
            .max()
            .unwrap_or(0);
        let min_cold_read = trace
            .requests
            .iter()
            .filter(|r| r.op == IoOp::Read && r.lpn >= max_write_page)
            .count();
        prop_assert!(min_cold_read > 0, "some reads must land beyond the write region");
    }
}

/// Field values for MSRC CSV rows: zero, small numbers, `u64::MAX`, sizes
/// and offsets at the page-span and `u64` overflow edges, timestamps at the
/// nanosecond-overflow edge, both I/O types in two spellings, and garbage.
const MSRC_TOKENS: [&str; 16] = [
    "0",
    "1",
    "16384",
    "18446744073709551615",
    "18446744073709551614",
    "18446744073709535232",
    "9223372036854775808",
    "70368744177664",
    "1073741824",
    "184467440737095516",
    "184467440737095517",
    "Read",
    "write",
    "Frobnicate",
    "-1",
    "",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn msrc_parser_returns_ok_or_err_and_never_panics(
        rows in prop::collection::vec(
            (
                prop::sample::select(MSRC_TOKENS.to_vec()),
                prop::sample::select(vec!["Read", "Write", "write", "Frobnicate"]),
                prop::sample::select(MSRC_TOKENS.to_vec()),
                prop::sample::select(MSRC_TOKENS.to_vec()),
                prop::sample::select(MSRC_TOKENS.to_vec()),
                3usize..9,
            ),
            1..6,
        ),
    ) {
        // Each row is Timestamp,Hostname,DiskNumber,Type,Offset,Size,
        // ResponseTime (plus one extra field), cut to 3..=8 fields so rows
        // can miss fields or carry extras.
        let csv: Vec<String> = rows
            .iter()
            .map(|&(ts, op, offset, size, response, fields)| {
                let all = [ts, "h", "0", op, offset, size, response, "extra"];
                all[..fields].join(",")
            })
            .collect();
        match rr_workloads::msrc::parse_msrc_csv(&csv.join("\n"), "p", 16384) {
            Ok(trace) => {
                prop_assert_eq!(trace.len(), rows.len());
                for r in &trace.requests {
                    prop_assert!(r.lpn + r.len_pages as u64 <= trace.footprint_pages);
                }
            }
            Err(e) => prop_assert!(e.starts_with("line "), "untyped error {e:?}"),
        }
    }
}
