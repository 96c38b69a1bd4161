//! # rr-flash — 3D TLC NAND flash device model
//!
//! This crate models the NAND flash chips of Park et al., *"Reducing
//! Solid-State Drive Read Latency by Optimizing Read-Retry"* (ASPLOS 2021):
//!
//! * [`geometry`] — chip organization (dies / planes / blocks / wordlines /
//!   TLC pages, paper §2.1, Fig. 1);
//! * [`timing`] — Table-1 timing parameters and the Eq. (1) sensing-latency
//!   model `tR = N_SENSE × (tPRE + tEVAL + tDISCH)`;
//! * [`calibration`] — the error-model calibration pinned to every
//!   quantitative anchor in the paper's characterization (§3.1, §5);
//! * [`error_model`] — stationary per-page retry/RBER behaviour, substituting
//!   for the paper's 160 characterized real chips (DESIGN.md §2);
//! * [`retry_table`] — the manufacturer read-retry V_REF table (§2.4).
//!
//! The chip commands the paper's mechanisms use (`CACHE READ`,
//! `SET FEATURE`, `RESET`) are modelled by the SSD simulator's die
//! protocol in `rr_sim::scheduler` and `rr_sim::ssd`.
//!
//! # Example
//!
//! ```
//! use rr_flash::prelude::*;
//!
//! // How bad is read-retry at end-of-life (2K P/E cycles, 1 year retention)?
//! let model = ErrorModel::new(7);
//! let cond = OperatingCondition::new(2000.0, 12.0, 30.0);
//! let profile = model.page_profile(PageId::new(0, 0), cond);
//! assert!(profile.required_step > 10); // Fig. 5: ~19.9 steps on average
//! assert!(profile.ecc_margin() >= 14); // Fig. 7: large final-step margin
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod error_model;
pub mod geometry;
pub mod retry_table;
pub mod timing;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::calibration::{
        Calibration, OperatingCondition, ECC_CAPABILITY_PER_KIB, MAX_RETRY_STEPS,
    };
    pub use crate::error_model::{ErrorModel, PageId, PageReadProfile};
    pub use crate::geometry::{ChipGeometry, PageKind};
    pub use crate::retry_table::RetryTable;
    pub use crate::timing::{NandTimings, SensePhases};
}
