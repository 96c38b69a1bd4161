//! Block-I/O traces and their Table-2 statistics.

use rr_sim::request::{HostRequest, IoOp};

/// A block-level I/O trace plus the footprint it plays in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Human-readable workload name ("stg_0", "YCSB-A", ...).
    pub name: String,
    /// The requests, sorted by arrival time.
    pub requests: Vec<HostRequest>,
    /// Number of logical pages the SSD must precondition for this trace.
    pub footprint_pages: u64,
}

impl Trace {
    /// Creates a trace, sorting requests by arrival.
    ///
    /// # Panics
    ///
    /// Panics if any request exceeds the footprint.
    pub fn new(
        name: impl Into<String>,
        mut requests: Vec<HostRequest>,
        footprint_pages: u64,
    ) -> Self {
        requests.sort_by_key(|r| r.arrival);
        for r in &requests {
            assert!(
                r.lpn + r.len_pages as u64 <= footprint_pages,
                "request at lpn {} exceeds footprint {footprint_pages}",
                r.lpn
            );
        }
        Self {
            name: name.into(),
            requests,
            footprint_pages,
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Computes the paper's Table-2 statistics for this trace.
    pub fn stats(&self) -> TraceStats {
        let mut written = FootprintSet::new(self.footprint_pages);
        for r in &self.requests {
            if r.op == IoOp::Write {
                for lpn in r.lpns() {
                    written.insert(lpn);
                }
            }
        }
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut cold_reads = 0u64;
        for r in &self.requests {
            match r.op {
                IoOp::Read => {
                    reads += 1;
                    // Table 2 / §7.1: a read is *cold* when its target page is
                    // never updated during the entire execution.
                    if r.lpns().all(|lpn| !written.contains(lpn)) {
                        cold_reads += 1;
                    }
                }
                IoOp::Write => writes += 1,
            }
        }
        TraceStats {
            requests: reads + writes,
            reads,
            writes,
            read_ratio: if reads + writes == 0 {
                0.0
            } else {
                reads as f64 / (reads + writes) as f64
            },
            cold_ratio: if reads == 0 {
                0.0
            } else {
                cold_reads as f64 / reads as f64
            },
        }
    }
}

/// The workload characteristics of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Total requests.
    pub requests: u64,
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Fraction of read requests among all requests.
    pub read_ratio: f64,
    /// Fraction of read requests whose target pages are never updated during
    /// the trace.
    pub cold_ratio: f64,
}

/// A dense bitset over the LPN footprint.
#[derive(Debug, Clone)]
struct FootprintSet {
    bits: Vec<u64>,
}

impl FootprintSet {
    fn new(footprint: u64) -> Self {
        Self {
            bits: vec![0; (footprint as usize).div_ceil(64)],
        }
    }

    fn insert(&mut self, lpn: u64) {
        self.bits[(lpn / 64) as usize] |= 1 << (lpn % 64);
    }

    fn contains(&self, lpn: u64) -> bool {
        self.bits[(lpn / 64) as usize] >> (lpn % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_util::time::SimTime;

    fn req(t_us: u64, op: IoOp, lpn: u64, len: u32) -> HostRequest {
        HostRequest::new(SimTime::from_us(t_us), op, lpn, len)
    }

    #[test]
    fn stats_compute_table2_quantities() {
        let trace = Trace::new(
            "t",
            vec![
                req(0, IoOp::Write, 0, 1), // page 0 written
                req(1, IoOp::Read, 0, 1),  // hot read (page updated in trace)
                req(2, IoOp::Read, 10, 1), // cold read
                req(3, IoOp::Read, 20, 2), // cold read (2 pages, untouched)
            ],
            100,
        );
        let s = trace.stats();
        assert_eq!(s.requests, 4);
        assert_eq!(s.reads, 3);
        assert_eq!(s.writes, 1);
        assert!((s.read_ratio - 0.75).abs() < 1e-12);
        assert!((s.cold_ratio - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn read_before_write_is_still_hot() {
        // "Never updated during the entire execution" is page-based, not
        // time-based: a read *before* the page's write is still non-cold.
        let trace = Trace::new(
            "t",
            vec![req(0, IoOp::Read, 5, 1), req(1, IoOp::Write, 5, 1)],
            10,
        );
        assert_eq!(trace.stats().cold_ratio, 0.0);
    }

    #[test]
    fn requests_sorted_by_arrival() {
        let trace = Trace::new(
            "t",
            vec![req(10, IoOp::Read, 1, 1), req(5, IoOp::Read, 2, 1)],
            10,
        );
        assert!(trace.requests[0].arrival <= trace.requests[1].arrival);
        assert_eq!(trace.requests[0].lpn, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds footprint")]
    fn footprint_violation_panics() {
        Trace::new("t", vec![req(0, IoOp::Read, 99, 2)], 100);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::new("t", vec![], 10);
        assert!(t.is_empty());
        let s = t.stats();
        assert_eq!(s.read_ratio, 0.0);
        assert_eq!(s.cold_ratio, 0.0);
    }
}
