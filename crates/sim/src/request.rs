//! Host requests and flash transactions.

use rr_util::time::SimTime;

/// Host I/O direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Page read.
    Read,
    /// Page write.
    Write,
}

/// One host request as submitted to the SSD (block-trace granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRequest {
    /// Arrival (submission) time.
    pub arrival: SimTime,
    /// Read or write.
    pub op: IoOp,
    /// First logical page number.
    pub lpn: u64,
    /// Number of consecutive pages.
    pub len_pages: u32,
}

impl HostRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `len_pages` is zero.
    pub fn new(arrival: SimTime, op: IoOp, lpn: u64, len_pages: u32) -> Self {
        assert!(len_pages > 0, "requests must cover at least one page");
        Self {
            arrival,
            op,
            lpn,
            len_pages,
        }
    }

    /// Iterates over the LPNs this request touches.
    pub fn lpns(&self) -> impl Iterator<Item = u64> {
        self.lpn..self.lpn + self.len_pages as u64
    }
}

/// Identifier of an in-flight host request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u32);

/// Identifier of an in-flight flash transaction (one page operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u32);

/// Why a flash transaction exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// Host read of one page.
    HostRead,
    /// Host write of one page.
    HostWrite,
    /// Garbage-collection read (valid-page move, read half).
    GcRead,
    /// Garbage-collection write (valid-page move, program half).
    GcWrite,
    /// Garbage-collection block erase.
    GcErase,
}

impl TxnKind {
    /// Whether this transaction serves a host request directly.
    pub fn is_host(&self) -> bool {
        matches!(self, TxnKind::HostRead | TxnKind::HostWrite)
    }

    /// Whether this is any kind of read (needs sensing + transfer + decode).
    pub fn is_read(&self) -> bool {
        matches!(self, TxnKind::HostRead | TxnKind::GcRead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lpn_iteration() {
        let r = HostRequest::new(SimTime::ZERO, IoOp::Read, 10, 3);
        assert_eq!(r.lpns().collect::<Vec<_>>(), vec![10, 11, 12]);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_length_rejected() {
        HostRequest::new(SimTime::ZERO, IoOp::Write, 0, 0);
    }

    #[test]
    fn txn_kind_classification() {
        assert!(TxnKind::HostRead.is_host());
        assert!(TxnKind::HostRead.is_read());
        assert!(TxnKind::GcRead.is_read());
        assert!(!TxnKind::GcErase.is_read());
        assert!(!TxnKind::GcWrite.is_host());
    }
}
