//! Microsoft Research Cambridge (MSRC) enterprise traces: the real-trace CSV
//! parser and Table-2-faithful synthetic stand-ins.
//!
//! The paper evaluates six of the 36 MSRC block traces \[76\], chosen for their
//! spread of read and cold ratios (Table 2). The raw traces are not
//! redistributable with this repository, so [`MsrcWorkload::synthesize`]
//! generates traces matching each workload's Table-2 signature; when you have
//! the real `.csv` files, [`parse_msrc_csv`] loads them directly.

use crate::synth::{HotReadBias, SynthConfig};
use crate::trace::Trace;
use rr_sim::request::{HostRequest, IoOp};
use rr_util::time::SimTime;

/// The six MSRC workloads of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsrcWorkload {
    /// Web staging server, volume 0 — write-dominant (read ratio 0.15).
    Stg0,
    /// Hardware monitoring server, volume 0 (read ratio 0.36).
    Hm0,
    /// Print server, volume 1 (read ratio 0.75).
    Prn1,
    /// Project directories, volume 1 (read ratio 0.89, cold ratio 0.96).
    Proj1,
    /// Media server, volume 1 (read ratio 0.92, cold ratio 0.98).
    Mds1,
    /// User home directories, volume 1 (read ratio 0.96).
    Usr1,
}

impl MsrcWorkload {
    /// All six workloads in Table-2 order.
    pub const ALL: [MsrcWorkload; 6] = [
        MsrcWorkload::Stg0,
        MsrcWorkload::Hm0,
        MsrcWorkload::Prn1,
        MsrcWorkload::Proj1,
        MsrcWorkload::Mds1,
        MsrcWorkload::Usr1,
    ];

    /// Trace name as the paper spells it.
    pub fn name(&self) -> &'static str {
        match self {
            MsrcWorkload::Stg0 => "stg_0",
            MsrcWorkload::Hm0 => "hm_0",
            MsrcWorkload::Prn1 => "prn_1",
            MsrcWorkload::Proj1 => "proj_1",
            MsrcWorkload::Mds1 => "mds_1",
            MsrcWorkload::Usr1 => "usr_1",
        }
    }

    /// Table 2's (read ratio, cold ratio) for this workload.
    pub fn table2_ratios(&self) -> (f64, f64) {
        match self {
            MsrcWorkload::Stg0 => (0.15, 0.38),
            MsrcWorkload::Hm0 => (0.36, 0.22),
            MsrcWorkload::Prn1 => (0.75, 0.72),
            MsrcWorkload::Proj1 => (0.89, 0.96),
            MsrcWorkload::Mds1 => (0.92, 0.98),
            MsrcWorkload::Usr1 => (0.96, 0.73),
        }
    }

    /// Whether the paper classes this workload as read-dominant (§7.2/Fig. 14
    /// groups stg_0 and hm_0 as write-dominant, the rest as read-dominant).
    pub fn read_dominant(&self) -> bool {
        self.table2_ratios().0 >= 0.5
    }

    /// The synthesis configuration matching this workload's signature.
    pub fn synth_config(&self, n_requests: usize, seed: u64) -> SynthConfig {
        let (read_ratio, cold_ratio) = self.table2_ratios();
        let mut cfg = SynthConfig::base(self.name());
        cfg.n_requests = n_requests;
        cfg.read_ratio = read_ratio;
        cfg.cold_ratio = cold_ratio;
        cfg.hot_read_bias = HotReadBias::Popularity;
        cfg.seed = seed ^ 0x4d5e_0000 ^ (*self as u64);
        cfg
    }

    /// Generates a synthetic stand-in trace with this workload's Table-2
    /// signature.
    pub fn synthesize(&self, n_requests: usize, seed: u64) -> Trace {
        self.synth_config(n_requests, seed).generate()
    }
}

/// Largest page span one CSV request may cover. Real MSRC requests span a
/// few MiB at most; the cap keeps a corrupt size field from densifying into
/// an unbounded footprint.
const MAX_REQUEST_PAGES: u32 = 1 << 16;

/// Parses the MSRC trace CSV format:
/// `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`, where
/// `Timestamp` is a Windows filetime (100 ns ticks), `Offset`/`Size` are in
/// bytes, and `Type` is `Read` or `Write`.
///
/// Byte offsets are converted to `page_bytes`-sized LPNs; timestamps are
/// rebased so the first request arrives at time zero.
///
/// # Errors
///
/// Returns a message naming the first malformed line: too few fields, an
/// unparsable number or I/O type, an offset + size past `u64::MAX`, a
/// request spanning more than 65 536 pages, or a timestamp whose distance
/// from the first request overflows `u64` nanoseconds.
pub fn parse_msrc_csv(content: &str, name: &str, page_bytes: u64) -> Result<Trace, String> {
    assert!(page_bytes > 0, "page size must be positive");
    // (line number, timestamp, op, first LPN, pages)
    let mut raw: Vec<(usize, u64, IoOp, u64, u32)> = Vec::new();
    for (no, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 6 {
            return Err(format!("line {}: expected at least 6 CSV fields", no + 1));
        }
        let ts: u64 = fields[0]
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad timestamp {:?}", no + 1, fields[0]))?;
        let op = match fields[3].trim().to_ascii_lowercase().as_str() {
            "read" => IoOp::Read,
            "write" => IoOp::Write,
            other => return Err(format!("line {}: unknown I/O type {other:?}", no + 1)),
        };
        let offset: u64 = fields[4]
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad offset {:?}", no + 1, fields[4]))?;
        let size: u64 = fields[5]
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad size {:?}", no + 1, fields[5]))?;
        let end = offset
            .checked_add(size.max(1) - 1)
            .ok_or_else(|| format!("line {}: offset {offset} + size {size} overflows", no + 1))?;
        let lpn = offset / page_bytes;
        let len = u32::try_from(end / page_bytes - lpn + 1)
            .ok()
            .filter(|&len| len <= MAX_REQUEST_PAGES)
            .ok_or_else(|| {
                format!(
                    "line {}: size {size} spans more than {MAX_REQUEST_PAGES} pages",
                    no + 1
                )
            })?;
        raw.push((no + 1, ts, op, lpn, len));
    }
    if raw.is_empty() {
        return Err("trace contains no requests".into());
    }
    raw.sort_by_key(|r| r.1);
    let t0 = raw[0].1;

    // Densify the sparse LPN space so the preconditioned footprint stays
    // proportional to the touched pages rather than the device size.
    let mut pages: Vec<u64> = raw
        .iter()
        .flat_map(|&(_, _, _, lpn, len)| lpn..=lpn + u64::from(len) - 1)
        .collect();
    pages.sort_unstable();
    pages.dedup();
    let remap = |lpn: u64| pages.binary_search(&lpn).expect("collected above") as u64;

    let requests = raw
        .into_iter()
        .map(|(line, ts, op, lpn, len)| {
            // Windows filetime ticks are 100 ns.
            let ns = (ts - t0).checked_mul(100).ok_or_else(|| {
                format!("line {line}: timestamp {ts} lies too far after the first request {t0}")
            })?;
            Ok(HostRequest::new(SimTime::from_ns(ns), op, remap(lpn), len))
        })
        .collect::<Result<_, String>>()?;
    Ok(Trace::new(name, requests, pages.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_msrc_row_values() {
        assert_eq!(MsrcWorkload::Stg0.table2_ratios(), (0.15, 0.38));
        assert_eq!(MsrcWorkload::Proj1.table2_ratios(), (0.89, 0.96));
        assert_eq!(MsrcWorkload::Usr1.table2_ratios(), (0.96, 0.73));
        assert!(!MsrcWorkload::Stg0.read_dominant());
        assert!(!MsrcWorkload::Hm0.read_dominant());
        assert!(MsrcWorkload::Mds1.read_dominant());
    }

    #[test]
    fn synthesized_traces_match_table2() {
        for w in MsrcWorkload::ALL {
            let t = w.synthesize(8_000, 1);
            let s = t.stats();
            let (rr, cr) = w.table2_ratios();
            assert!(
                (s.read_ratio - rr).abs() < 0.04,
                "{}: read ratio {} vs {rr}",
                w.name(),
                s.read_ratio
            );
            assert!(
                (s.cold_ratio - cr).abs() < 0.06,
                "{}: cold ratio {} vs {cr}",
                w.name(),
                s.cold_ratio
            );
        }
    }

    #[test]
    fn parser_handles_msrc_format() {
        let csv = "\
128166372003061629,hm,0,Read,65536,16384,100\n\
128166372003061630,hm,0,Write,131072,32768,200\n\
128166372003061700,hm,0,Read,65536,16384,80\n";
        let t = parse_msrc_csv(csv, "hm_0", 16384).unwrap();
        assert_eq!(t.len(), 3);
        // Offsets 65536 (page 4) and 131072–163839 (pages 8–9) densify to
        // pages {4, 8, 9} → LPNs {0, 1, 2}.
        assert_eq!(t.footprint_pages, 3);
        assert_eq!(t.requests[0].arrival, SimTime::ZERO);
        assert_eq!(t.requests[0].op, IoOp::Read);
        assert_eq!(t.requests[1].op, IoOp::Write);
        assert_eq!(t.requests[1].len_pages, 2);
        // 71 × 100 ns-ticks later... the third row is (1700-1629)=71 ticks.
        assert_eq!(t.requests[2].arrival, SimTime::from_ns(7100));
        let s = t.stats();
        assert!((s.read_ratio - 2.0 / 3.0).abs() < 1e-12);
        // The read at page 4 is never written → cold; both reads hit page 4.
        assert_eq!(s.cold_ratio, 1.0);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_msrc_csv("not,a,trace", "x", 16384).is_err());
        assert!(parse_msrc_csv("1,h,0,Frobnicate,0,1,1", "x", 16384).is_err());
        assert!(parse_msrc_csv("abc,h,0,Read,0,1,1", "x", 16384).is_err());
        assert!(parse_msrc_csv("", "x", 16384).is_err());
    }

    #[test]
    fn parser_rejects_overflowing_lines_with_errors_not_panics() {
        let err = |csv: &str| parse_msrc_csv(csv, "x", 16384).unwrap_err();
        // A 2^32-page span does not fit a request length.
        assert!(err("0,h,0,Read,0,70368744177664").starts_with("line 1:"));
        // Offset + size overflows u64.
        assert!(err("0,h,0,Read,18446744073709551615,2").starts_with("line 1:"));
        // Timestamps 2^64 / 100 ticks apart overflow u64 nanoseconds; the
        // error names the later line, whatever its position in the file.
        let far = "184467440737095517,h,0,Read,0,1";
        assert!(err(&format!("0,h,0,Read,0,1\n{far}")).starts_with("line 2:"));
        assert!(err(&format!("{far}\n0,h,0,Read,0,1")).starts_with("line 1:"));
        // One tick closer is still representable.
        let t = parse_msrc_csv(
            "0,h,0,Read,0,1\n184467440737095516,h,0,Read,0,1",
            "x",
            16384,
        )
        .unwrap();
        assert_eq!(
            t.requests[1].arrival,
            SimTime::from_ns(18_446_744_073_709_551_600)
        );
    }

    #[test]
    fn parser_skips_comments_and_blank_lines() {
        let csv = "# header\n\n1,h,0,Read,0,16384,1\n";
        let t = parse_msrc_csv(csv, "x", 16384).unwrap();
        assert_eq!(t.len(), 1);
    }
}
