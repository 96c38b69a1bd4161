//! NAND flash organization (paper §2.1, Fig. 1).
//!
//! A chip contains dies (independent), each die contains planes (concurrent
//! under row-decoder constraints), each plane contains blocks (erase unit),
//! each block contains wordlines, and in TLC NAND each wordline stores three
//! 16-KiB pages (LSB / CSB / MSB).

/// Bits stored per cell; determines pages per wordline and sensing counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellTech {
    /// 1 bit/cell: one page per wordline, single sensing.
    Slc,
    /// 2 bits/cell.
    Mlc,
    /// 3 bits/cell — the paper's 48-layer 3D TLC chips.
    Tlc,
    /// 4 bits/cell.
    Qlc,
}

impl CellTech {
    /// Bits stored per cell.
    pub const fn bits_per_cell(self) -> u32 {
        match self {
            CellTech::Slc => 1,
            CellTech::Mlc => 2,
            CellTech::Tlc => 3,
            CellTech::Qlc => 4,
        }
    }

    /// Pages stored per wordline (= bits per cell).
    pub const fn pages_per_wordline(self) -> u32 {
        self.bits_per_cell()
    }
}

/// Which page of a TLC wordline a physical page is (paper footnote 14).
///
/// The number of sensing operations `N_SENSE` in Eq. (1) depends on this:
/// `⟨2, 3, 2⟩` for `⟨LSB, CSB, MSB⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Least-significant-bit page (2 sensing levels).
    Lsb,
    /// Central-significant-bit page (3 sensing levels).
    Csb,
    /// Most-significant-bit page (2 sensing levels).
    Msb,
}

impl PageKind {
    /// `N_SENSE`: how many read-reference sensings this page needs (TLC).
    pub const fn n_sense(self) -> u32 {
        match self {
            PageKind::Lsb => 2,
            PageKind::Csb => 3,
            PageKind::Msb => 2,
        }
    }

    /// All kinds in wordline order.
    pub const ALL: [PageKind; 3] = [PageKind::Lsb, PageKind::Csb, PageKind::Msb];
}

/// Geometry of one NAND flash chip.
///
/// The paper's simulated SSD (§7.1) uses 4 dies/chip-channel, 2 planes/die,
/// 1,888 blocks/plane, 576 16-KiB pages/block. [`ChipGeometry::asplos21`]
/// returns exactly that; tests use [`ChipGeometry::tiny`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipGeometry {
    /// Independent dies in the chip.
    pub dies: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block (must be divisible by pages-per-wordline).
    pub pages_per_block: u32,
    /// Page payload size in bytes.
    pub page_bytes: u32,
    /// Cell technology (pages per wordline, V_TH states).
    pub cell_tech: CellTech,
}

impl ChipGeometry {
    /// The paper's evaluation geometry (§7.1): 4 dies × 2 planes ×
    /// 1,888 blocks × 576 pages × 16 KiB, TLC.
    pub const fn asplos21() -> Self {
        Self {
            dies: 4,
            planes_per_die: 2,
            blocks_per_plane: 1888,
            pages_per_block: 576,
            page_bytes: 16 * 1024,
            cell_tech: CellTech::Tlc,
        }
    }

    /// A small geometry for unit tests and fast integration runs.
    pub const fn tiny() -> Self {
        Self {
            dies: 2,
            planes_per_die: 2,
            blocks_per_plane: 8,
            pages_per_block: 24,
            page_bytes: 16 * 1024,
            cell_tech: CellTech::Tlc,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message if any dimension is zero or `pages_per_block` is not
    /// a multiple of the pages-per-wordline implied by the cell technology.
    pub fn validate(&self) -> Result<(), String> {
        if self.dies == 0
            || self.planes_per_die == 0
            || self.blocks_per_plane == 0
            || self.pages_per_block == 0
            || self.page_bytes == 0
        {
            return Err("all geometry dimensions must be non-zero".into());
        }
        let ppw = self.cell_tech.pages_per_wordline();
        if !self.pages_per_block.is_multiple_of(ppw) {
            return Err(format!(
                "pages_per_block ({}) must be a multiple of pages per wordline ({ppw})",
                self.pages_per_block
            ));
        }
        Ok(())
    }

    /// Total blocks in the chip.
    pub const fn blocks_per_chip(&self) -> u64 {
        self.dies as u64 * self.planes_per_die as u64 * self.blocks_per_plane as u64
    }

    /// Total pages in the chip.
    pub const fn pages_per_chip(&self) -> u64 {
        self.blocks_per_chip() * self.pages_per_block as u64
    }

    /// The [`PageKind`] of a page index within its block.
    ///
    /// Pages are striped across wordlines in LSB/CSB/MSB order, the common
    /// shared-page programming order in 3D TLC NAND.
    pub const fn page_kind(&self, page_in_block: u32) -> PageKind {
        match self.cell_tech {
            CellTech::Slc | CellTech::Mlc | CellTech::Qlc => PageKind::Lsb,
            CellTech::Tlc => match page_in_block % 3 {
                0 => PageKind::Lsb,
                1 => PageKind::Csb,
                _ => PageKind::Msb,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asplos_geometry_matches_paper() {
        let g = ChipGeometry::asplos21();
        g.validate().unwrap();
        assert_eq!(g.pages_per_block, 576); // §7.1
        assert_eq!(g.page_bytes, 16 * 1024);
        // One chip = 4 dies × 2 planes × 1888 blocks × 576 pages × 16 KiB
        // ≈ 132.7 GiB raw; 4 channels of these ≈ 531 GiB raw, exposing the
        // paper's 512 GiB usable capacity after over-provisioning (§7.1).
        let chip_bytes = g.pages_per_chip() * g.page_bytes as u64;
        assert_eq!(chip_bytes, 142_539_227_136);
        let raw_4ch = 4 * chip_bytes;
        let usable = 512u64 * 1024 * 1024 * 1024;
        assert!(raw_4ch > usable, "raw capacity must cover 512 GiB usable");
        let op = raw_4ch as f64 / usable as f64 - 1.0;
        assert!((0.0..0.1).contains(&op), "over-provisioning ratio {op}");
    }

    #[test]
    fn tlc_page_kinds_stripe_lsb_csb_msb() {
        let g = ChipGeometry::asplos21();
        assert_eq!(g.page_kind(0), PageKind::Lsb);
        assert_eq!(g.page_kind(1), PageKind::Csb);
        assert_eq!(g.page_kind(2), PageKind::Msb);
        assert_eq!(g.page_kind(3), PageKind::Lsb);
    }

    #[test]
    fn n_sense_matches_footnote_14() {
        assert_eq!(PageKind::Lsb.n_sense(), 2);
        assert_eq!(PageKind::Csb.n_sense(), 3);
        assert_eq!(PageKind::Msb.n_sense(), 2);
    }

    #[test]
    fn invalid_geometry_rejected() {
        let mut g = ChipGeometry::tiny();
        g.pages_per_block = 25; // not a multiple of 3 for TLC
        assert!(g.validate().is_err());
        g.pages_per_block = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn cell_tech_properties() {
        assert_eq!(CellTech::Slc.pages_per_wordline(), 1);
        assert_eq!(CellTech::Tlc.pages_per_wordline(), 3);
    }
}
