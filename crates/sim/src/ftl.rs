//! Flash Translation Layer: page-level mapping, write allocation, and
//! greedy garbage collection bookkeeping.
//!
//! The FTL here is deliberately the *standard* design MQSim implements
//! (page-level mapping, channel/die/plane-striped write allocation, greedy
//! min-valid GC) — the paper's contribution sits below it, in how individual
//! flash reads are retried. All timing lives in the event engine
//! ([`crate::ssd`]); this module is pure bookkeeping.

use crate::config::{ConfigError, SsdConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// A physical page number: flat index over the whole SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppn(pub u32);

const UNMAPPED: u32 = u32::MAX;
const NO_LPN: u32 = u32::MAX;

/// Table entries behind one dirty bit: a chunk of LPNs covers their `map`
/// entries and exactly one `fresh` word, a chunk of PPNs their `rmap`
/// entries and the records of their blocks.
const CHUNK: usize = 64;

/// Marks the chunk holding entry `index` in a dirty bitmap.
fn mark(dirty: &mut [u64], index: u32) {
    let chunk = index as usize / CHUNK;
    dirty[chunk / 64] |= 1 << (chunk % 64);
}

/// A dirty bitmap, all clear, for a table of `entries`.
fn reset_marks(dirty: &mut Vec<u64>, entries: usize) {
    dirty.clear();
    dirty.resize(entries.div_ceil(CHUNK * 64), 0);
}

/// Takes every set bit out of a dirty bitmap, yielding the marked chunks.
fn drain_marks(dirty: &mut [u64]) -> impl Iterator<Item = usize> + '_ {
    dirty.iter_mut().enumerate().flat_map(|(w, word)| {
        let mut bits = std::mem::take(word);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
}

/// Where a physical page lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpnLocation {
    /// Channel index.
    pub channel: u32,
    /// Die index *within the channel's chip*.
    pub die_in_chip: u32,
    /// Global die index across the SSD (`channel·dies + die`).
    pub die_global: u32,
    /// Global plane index across the SSD.
    pub plane_global: u32,
    /// Global block index across the SSD (the error model's block key).
    pub block_global: u64,
    /// Page index within the block.
    pub page_in_block: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Free,
    Open,
    Full,
    GcVictim,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockMeta {
    state: BlockState,
    next_page: u32,
    valid_count: u32,
}

/// Result of allocating a physical page for a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAlloc {
    /// The newly allocated physical page.
    pub ppn: Ppn,
    /// A plane whose free-block count dropped to the GC threshold, if any —
    /// the engine should start garbage collection there.
    pub gc_hint: Option<u32>,
}

/// Page-level FTL state.
///
/// # Example
///
/// ```
/// use rr_sim::config::SsdConfig;
/// use rr_sim::ftl::Ftl;
///
/// let cfg = SsdConfig::scaled_for_tests();
/// let mut ftl = Ftl::new(&cfg, 1000).expect("footprint fits");
/// ftl.precondition();
/// let ppn = ftl.translate(42).expect("preconditioned LPN is mapped");
/// assert!(ftl.is_cold(42));
/// let alloc = ftl.allocate_for_write(42).expect("space available");
/// assert_ne!(alloc.ppn, ppn, "overwrite moves the page");
/// assert!(!ftl.is_cold(42));
/// ```
///
/// `Ftl::default()` holds no tables: it is only a target for
/// [`Ftl::restore`].
#[derive(Debug, Default)]
pub struct Ftl {
    // Geometry (copied out of the config for locality).
    channels: u32,
    dies_per_chip: u32,
    planes_per_die: u32,
    blocks_per_plane: u32,
    pages_per_block: u32,
    gc_threshold: u32,

    lpn_count: u64,
    /// lpn → ppn.
    map: Vec<u32>,
    /// ppn → lpn.
    rmap: Vec<u32>,
    blocks: Vec<BlockMeta>,
    /// Per plane: the block currently receiving writes (global block id).
    open_block: Vec<Option<u32>>,
    /// Per plane: free block list (global block ids).
    free_blocks: Vec<Vec<u32>>,
    /// Round-robin plane cursor for write striping (CWDP order).
    next_plane: u32,
    /// lpn bit: physically (re)programmed during the run ⇒ zero retention.
    fresh: Vec<u64>,
    /// The id of the [`DeviceImage`] these tables equal, apart from the
    /// chunks marked in `dirty_lpns` and `dirty_ppns`; `None` before the
    /// first restore and after a precondition.
    restored: Option<u64>,
    /// One bit per [`CHUNK`] LPNs written since the last restore.
    dirty_lpns: Vec<u64>,
    /// One bit per [`CHUNK`] PPNs whose reverse-map entry or block record
    /// changed since the last restore.
    dirty_ppns: Vec<u64>,
}

impl Ftl {
    /// Creates an FTL for `lpn_count` logical pages.
    ///
    /// # Errors
    ///
    /// Returns an error when the footprint exceeds
    /// [`SsdConfig::max_lpns`] or the config is invalid.
    pub fn new(cfg: &SsdConfig, lpn_count: u64) -> Result<Self, ConfigError> {
        cfg.validate().map_err(ConfigError::new)?;
        if lpn_count == 0 {
            return Err(ConfigError::new("lpn_count must be positive"));
        }
        if lpn_count > cfg.max_lpns() {
            return Err(ConfigError::new(format!(
                "footprint of {lpn_count} pages exceeds usable capacity of {} pages",
                cfg.max_lpns()
            )));
        }
        let total_pages = cfg.total_pages();
        if total_pages > u32::MAX as u64 || lpn_count > NO_LPN as u64 {
            return Err(ConfigError::new("geometry exceeds 32-bit page indexing"));
        }
        let blocks_per_plane = cfg.chip.blocks_per_plane;
        let free_block = BlockMeta {
            state: BlockState::Free,
            next_page: 0,
            valid_count: 0,
        };
        let mut ftl = Self {
            channels: cfg.channels,
            dies_per_chip: cfg.chip.dies,
            planes_per_die: cfg.chip.planes_per_die,
            blocks_per_plane,
            pages_per_block: cfg.chip.pages_per_block,
            gc_threshold: cfg.gc_threshold_blocks,
            lpn_count,
            map: vec![UNMAPPED; lpn_count as usize],
            rmap: vec![NO_LPN; total_pages as usize],
            blocks: vec![free_block; cfg.total_blocks() as usize],
            open_block: vec![None; cfg.total_planes() as usize],
            // Highest ids first so pops allocate in ascending order.
            free_blocks: (0..cfg.total_planes())
                .map(|p| {
                    (0..blocks_per_plane)
                        .rev()
                        .map(|b| p * blocks_per_plane + b)
                        .collect()
                })
                .collect(),
            fresh: vec![0; (lpn_count as usize).div_ceil(64)],
            ..Self::default()
        };
        reset_marks(&mut ftl.dirty_lpns, ftl.map.len());
        reset_marks(&mut ftl.dirty_ppns, ftl.rmap.len());
        Ok(ftl)
    }

    /// Number of logical pages.
    pub fn lpn_count(&self) -> u64 {
        self.lpn_count
    }

    /// Decomposes a PPN into its physical location.
    pub fn locate(&self, ppn: Ppn) -> PpnLocation {
        let page_in_block = ppn.0 % self.pages_per_block;
        let block_global = (ppn.0 / self.pages_per_block) as u64;
        let plane_global = (block_global / self.blocks_per_plane as u64) as u32;
        let die_global = plane_global / self.planes_per_die;
        let channel = die_global / self.dies_per_chip;
        PpnLocation {
            channel,
            die_in_chip: die_global % self.dies_per_chip,
            die_global,
            plane_global,
            block_global,
            page_in_block,
        }
    }

    /// Current mapping of an LPN.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the footprint.
    pub fn translate(&self, lpn: u64) -> Option<Ppn> {
        let v = self.map[lpn as usize];
        (v != UNMAPPED).then_some(Ppn(v))
    }

    /// The LPN stored at a physical page, if the page is valid.
    pub fn reverse(&self, ppn: Ppn) -> Option<u64> {
        let v = self.rmap[ppn.0 as usize];
        (v != NO_LPN).then_some(v as u64)
    }

    /// Whether the LPN still holds its preconditioned (long-retention) data —
    /// i.e. it has not been physically reprogrammed during the run.
    pub fn is_cold(&self, lpn: u64) -> bool {
        self.fresh[(lpn / 64) as usize] >> (lpn % 64) & 1 == 0
    }

    fn mark_fresh(&mut self, lpn: u64) {
        self.fresh[(lpn / 64) as usize] |= 1 << (lpn % 64);
    }

    /// Free blocks currently available in a plane.
    pub fn free_blocks_in_plane(&self, plane: u32) -> u32 {
        self.free_blocks[plane as usize].len() as u32
    }

    /// Whether a plane urgently needs GC to make progress.
    pub fn plane_is_critical(&self, plane: u32) -> bool {
        self.free_blocks_in_plane(plane) <= 1
    }

    /// Maps the whole footprint sequentially, striped across planes — the
    /// "preconditioned SSD" starting state (§7.1: the retention age of this
    /// data is the configured operating condition).
    ///
    /// # Panics
    ///
    /// Panics if called on a non-empty FTL.
    pub fn precondition(&mut self) {
        assert!(
            self.map.iter().all(|&m| m == UNMAPPED),
            "precondition requires an empty FTL"
        );
        // It writes without dirty marks, so the next restore copies in full.
        self.restored = None;
        // Equivalent to `allocate_raw((lpn % planes) as u32)` + commit per
        // LPN, but filling each plane's blocks wholesale: the per-page
        // allocator bookkeeping (open-block checks, free-list pops) runs
        // once per block instead of once per page, which matters because
        // every experiment cell preconditions a fresh footprint.
        let planes = self.total_planes() as u64;
        let ppb = self.pages_per_block as u64;
        for plane in 0..planes.min(self.lpn_count) {
            // LPNs striped onto this plane: plane, plane + planes, ...
            let lpns_here = (self.lpn_count - plane).div_ceil(planes);
            let mut open: Option<u32> = None;
            let mut filled = 0u64;
            for k in 0..lpns_here {
                if open.is_none() || filled == ppb {
                    // Retire the filled block and open a fresh one, exactly
                    // as the per-page allocator would (the last block stays
                    // Open even when exactly full — retirement is lazy).
                    if let Some(b) = open {
                        let meta = &mut self.blocks[b as usize];
                        meta.state = BlockState::Full;
                        meta.next_page = ppb as u32;
                        meta.valid_count = ppb as u32;
                    }
                    let b = self.free_blocks[plane as usize]
                        .pop()
                        .expect("footprint was validated to fit");
                    self.blocks[b as usize] = BlockMeta {
                        state: BlockState::Open,
                        next_page: 0,
                        valid_count: 0,
                    };
                    open = Some(b);
                    filled = 0;
                }
                let b = open.expect("just opened");
                let lpn = plane + k * planes;
                let ppn = b as u64 * ppb + filled;
                self.map[lpn as usize] = ppn as u32;
                self.rmap[ppn as usize] = lpn as u32;
                filled += 1;
            }
            if let Some(b) = open {
                let meta = &mut self.blocks[b as usize];
                meta.next_page = filled as u32;
                meta.valid_count = filled as u32;
            }
            self.open_block[plane as usize] = open;
        }
        // Preconditioned data is cold, not fresh.
        self.fresh.fill(0);
    }

    fn total_planes(&self) -> u32 {
        self.channels * self.dies_per_chip * self.planes_per_die
    }

    /// Allocates the next physical page for a host write of `lpn`, striping
    /// writes round-robin across planes, and invalidates the old copy.
    ///
    /// A host write never leaves a plane without a free block: that block is
    /// the room GC moves a victim's valid pages into, so a host write may
    /// neither open it nor fill a block GC opened with it. `None` means
    /// every plane is down to that reserve; the write has to wait for a GC
    /// erase.
    pub fn allocate_for_write(&mut self, lpn: u64) -> Option<WriteAlloc> {
        assert!(lpn < self.lpn_count, "lpn {lpn} outside footprint");
        // Round-robin over the planes with room to spare.
        let planes = self.total_planes();
        let plane = (0..planes)
            .map(|offset| (self.next_plane + offset) % planes)
            .find(|&plane| self.host_may_write(plane))?;
        self.next_plane = (plane + 1) % planes;
        let alloc = self.allocate_raw(plane).expect("the plane has room");
        self.invalidate(lpn);
        self.commit_write(lpn, alloc);
        self.mark_fresh(lpn);
        Some(WriteAlloc {
            ppn: alloc.0,
            gc_hint: self.gc_hint(plane),
        })
    }

    /// Whether a host write can take a page of `plane` and leave it a free
    /// block.
    fn host_may_write(&self, plane: u32) -> bool {
        let open_has_room = self.open_block[plane as usize]
            .is_some_and(|b| self.blocks[b as usize].next_page < self.pages_per_block);
        self.free_blocks_in_plane(plane) > u32::from(!open_has_room)
    }

    /// Allocates a page *in a specific plane* for a GC move of `lpn`.
    ///
    /// # Errors
    ///
    /// Returns an error if the plane is completely out of pages.
    pub fn allocate_for_gc(&mut self, lpn: u64, plane: u32) -> Result<Ppn, String> {
        let alloc = self
            .allocate_raw(plane)
            .ok_or_else(|| format!("plane {plane} out of free pages during GC"))?;
        self.invalidate(lpn);
        self.commit_write(lpn, alloc);
        // A GC move physically reprograms the data: retention resets.
        self.mark_fresh(lpn);
        Ok(alloc.0)
    }

    /// `(ppn, block)` of a fresh page in `plane`, or `None` if exhausted.
    fn allocate_raw(&mut self, plane: u32) -> Option<(Ppn, u32)> {
        let open = match self.open_block[plane as usize] {
            Some(b) if self.blocks[b as usize].next_page < self.pages_per_block => b,
            _ => {
                // Retire the filled open block and open a fresh one.
                if let Some(b) = self.open_block[plane as usize] {
                    self.blocks[b as usize].state = BlockState::Full;
                    mark(&mut self.dirty_ppns, b * self.pages_per_block);
                }
                let b = self.free_blocks[plane as usize].pop()?;
                self.blocks[b as usize] = BlockMeta {
                    state: BlockState::Open,
                    next_page: 0,
                    valid_count: 0,
                };
                self.open_block[plane as usize] = Some(b);
                b
            }
        };
        let meta = &mut self.blocks[open as usize];
        let page = meta.next_page;
        meta.next_page += 1;
        meta.valid_count += 1;
        Some((Ppn(open * self.pages_per_block + page), open))
    }

    fn commit_write(&mut self, lpn: u64, alloc: (Ppn, u32)) {
        self.map[lpn as usize] = alloc.0 .0;
        self.rmap[alloc.0 .0 as usize] = lpn as u32;
        mark(&mut self.dirty_lpns, lpn as u32);
        mark(&mut self.dirty_ppns, alloc.0 .0);
    }

    /// Invalidates the current copy of `lpn`, if any.
    fn invalidate(&mut self, lpn: u64) {
        let old = self.map[lpn as usize];
        if old != UNMAPPED {
            self.rmap[old as usize] = NO_LPN;
            mark(&mut self.dirty_ppns, old);
            let block = (old / self.pages_per_block) as usize;
            debug_assert!(self.blocks[block].valid_count > 0);
            self.blocks[block].valid_count -= 1;
        }
    }

    fn gc_hint(&self, plane: u32) -> Option<u32> {
        (self.free_blocks_in_plane(plane) <= self.gc_threshold).then_some(plane)
    }

    /// Picks the greedy (min-valid) GC victim in a plane and marks it,
    /// returning the block and the LPNs that must be moved. Returns `None`
    /// when no Full block exists.
    pub fn start_gc(&mut self, plane: u32) -> Option<GcJob> {
        let base = plane * self.blocks_per_plane;
        let mut best: Option<(u32, u32)> = None;
        for b in base..base + self.blocks_per_plane {
            let meta = &self.blocks[b as usize];
            if meta.state == BlockState::Full {
                let better = match best {
                    None => true,
                    Some((_, v)) => meta.valid_count < v,
                };
                if better {
                    best = Some((b, meta.valid_count));
                }
            }
        }
        let (victim, _) = best?;
        self.blocks[victim as usize].state = BlockState::GcVictim;
        let first = victim * self.pages_per_block;
        mark(&mut self.dirty_ppns, first);
        let moves: Vec<(u64, Ppn)> = (first..first + self.pages_per_block)
            .filter_map(|p| self.reverse(Ppn(p)).map(|lpn| (lpn, Ppn(p))))
            .collect();
        Some(GcJob {
            plane,
            victim_block: victim,
            moves,
        })
    }

    /// Whether a page still holds the same valid LPN it did when a GC job was
    /// created (a host overwrite invalidates the move).
    pub fn gc_move_still_needed(&self, lpn: u64, src: Ppn) -> bool {
        self.map[lpn as usize] == src.0
    }

    /// Completes GC of a victim: returns the (now empty) block to the free
    /// list. The engine calls this after the erase transaction finishes.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages (GC logic bug) or was not
    /// marked as a victim.
    pub fn finish_gc(&mut self, victim_block: u32) {
        let meta = &mut self.blocks[victim_block as usize];
        assert_eq!(meta.state, BlockState::GcVictim, "finish_gc on non-victim");
        assert_eq!(meta.valid_count, 0, "erasing a block with valid pages");
        meta.state = BlockState::Free;
        meta.next_page = 0;
        mark(&mut self.dirty_ppns, victim_block * self.pages_per_block);
        let plane = victim_block / self.blocks_per_plane;
        self.free_blocks[plane as usize].push(victim_block);
    }

    /// Valid-page count of a block (test/diagnostic aid).
    pub fn block_valid_count(&self, block: u32) -> u32 {
        self.blocks[block as usize].valid_count
    }

    /// Snapshots the FTL's entire mutable state — mapping tables, block
    /// metadata, open blocks, free lists, the write-striping cursor, and the
    /// per-page freshness (retention) bitmap — as a [`DeviceImage`];
    /// feeding it back through [`Ftl::restore`] reproduces this FTL bit for
    /// bit.
    pub fn capture(&self) -> DeviceImage {
        self.image(
            self.map.clone(),
            self.rmap.clone(),
            self.blocks.clone(),
            self.free_blocks.clone(),
            self.fresh.clone(),
        )
    }

    /// [`Ftl::capture`] that moves the tables into the image instead of
    /// cloning them.
    pub fn into_image(mut self) -> DeviceImage {
        let map = std::mem::take(&mut self.map);
        let rmap = std::mem::take(&mut self.rmap);
        let blocks = std::mem::take(&mut self.blocks);
        let free_blocks = std::mem::take(&mut self.free_blocks);
        let fresh = std::mem::take(&mut self.fresh);
        self.image(map, rmap, blocks, free_blocks, fresh)
    }

    /// A [`DeviceImage`] of this FTL's geometry and cursors around the given
    /// tables, with a fresh id.
    fn image(
        &self,
        map: Vec<u32>,
        rmap: Vec<u32>,
        blocks: Vec<BlockMeta>,
        free_blocks: Vec<Vec<u32>>,
        fresh: Vec<u64>,
    ) -> DeviceImage {
        DeviceImage {
            channels: self.channels,
            dies_per_chip: self.dies_per_chip,
            planes_per_die: self.planes_per_die,
            blocks_per_plane: self.blocks_per_plane,
            pages_per_block: self.pages_per_block,
            lpn_count: self.lpn_count,
            map,
            rmap,
            blocks,
            open_block: self.open_block.clone(),
            free_blocks,
            next_plane: self.next_plane,
            fresh,
            identity: Identity::default(),
        }
    }

    /// Restores a captured image into this FTL, reusing its allocations.
    ///
    /// The cost is what the run since the last restore changed, not what
    /// the image holds: when this FTL last restored the same `image` (the
    /// same [`DeviceImage`] value, not an equal clone), only the table
    /// chunks its writes, GC moves and erases marked are copied back. Any
    /// other restore copies every table. The per-plane open blocks, free
    /// lists and striping cursor are small and always copied in full.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `cfg` is invalid, when the image was
    /// captured under a different geometry, or when its footprint exceeds
    /// the usable capacity of `cfg`.
    pub fn restore(&mut self, cfg: &SsdConfig, image: &DeviceImage) -> Result<(), ConfigError> {
        cfg.validate().map_err(ConfigError::new)?;
        image.check_geometry(cfg)?;
        if image.lpn_count > cfg.max_lpns() {
            return Err(ConfigError::new(format!(
                "image footprint of {} pages exceeds usable capacity of {} pages",
                image.lpn_count,
                cfg.max_lpns()
            )));
        }
        self.channels = image.channels;
        self.dies_per_chip = image.dies_per_chip;
        self.planes_per_die = image.planes_per_die;
        self.blocks_per_plane = image.blocks_per_plane;
        self.pages_per_block = image.pages_per_block;
        self.gc_threshold = cfg.gc_threshold_blocks;
        self.lpn_count = image.lpn_count;
        if self.restored == Some(image.identity.id) {
            self.restore_marked(image);
        } else {
            self.map.clone_from(&image.map);
            self.rmap.clone_from(&image.rmap);
            self.blocks.clone_from(&image.blocks);
            self.fresh.clone_from(&image.fresh);
            reset_marks(&mut self.dirty_lpns, self.map.len());
            reset_marks(&mut self.dirty_ppns, self.rmap.len());
            self.restored = Some(image.identity.id);
        }
        // `clone_from` reuses every allocation, the free lists' included.
        self.open_block.clone_from(&image.open_block);
        self.free_blocks.clone_from(&image.free_blocks);
        self.next_plane = image.next_plane;
        Ok(())
    }

    /// Copies back from `image`, which these tables last equalled, every
    /// chunk marked since, and clears the marks.
    fn restore_marked(&mut self, image: &DeviceImage) {
        let lpns = self.map.len();
        for c in drain_marks(&mut self.dirty_lpns) {
            let range = c * CHUNK..(c * CHUNK + CHUNK).min(lpns);
            self.map[range.clone()].copy_from_slice(&image.map[range]);
            self.fresh[c] = image.fresh[c];
        }
        let pages = self.rmap.len();
        let ppb = self.pages_per_block as usize;
        for c in drain_marks(&mut self.dirty_ppns) {
            let range = c * CHUNK..(c * CHUNK + CHUNK).min(pages);
            let blocks = range.start / ppb..(range.end - 1) / ppb + 1;
            self.rmap[range.clone()].copy_from_slice(&image.rmap[range]);
            self.blocks[blocks.clone()].copy_from_slice(&image.blocks[blocks]);
        }
        debug_assert!(
            self.map == image.map
                && self.rmap == image.rmap
                && self.blocks == image.blocks
                && self.fresh == image.fresh,
            "a change since the last restore left no dirty mark"
        );
    }
}

/// A warm-start device image: a verbatim snapshot of an [`Ftl`]'s mutable
/// state, the only state an aged device has (see [`crate::snapshot`]).
///
/// Built only from a live FTL, by [`Ftl::capture`], [`Ftl::into_image`]
/// and [`DeviceImage::preconditioned`]; consumed by [`Ftl::restore`]. The
/// geometry fields pin the configuration the image was taken under; restore
/// refuses a mismatched target instead of reinterpreting the tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceImage {
    channels: u32,
    dies_per_chip: u32,
    planes_per_die: u32,
    blocks_per_plane: u32,
    pages_per_block: u32,
    lpn_count: u64,
    map: Vec<u32>,
    rmap: Vec<u32>,
    blocks: Vec<BlockMeta>,
    open_block: Vec<Option<u32>>,
    free_blocks: Vec<Vec<u32>>,
    next_plane: u32,
    fresh: Vec<u64>,
    identity: Identity,
}

/// A process-unique id, by which [`Ftl::restore`] knows the image its
/// tables came from. Equality ignores it, and a clone gets a fresh one.
#[derive(Debug)]
struct Identity {
    id: u64,
}

impl Default for Identity {
    fn default() -> Self {
        // Only uniqueness matters: the counter publishes no other data.
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl Clone for Identity {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for Identity {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Identity {}

impl DeviceImage {
    /// The cheap capture point: a freshly preconditioned device, the state
    /// every warm start replays from. The preconditioned tables move into
    /// the image ([`Ftl::into_image`]); nothing is cloned.
    ///
    /// # Errors
    ///
    /// Propagates configuration/footprint validation.
    pub fn preconditioned(cfg: &SsdConfig, lpn_count: u64) -> Result<Self, ConfigError> {
        let mut ftl = Ftl::new(cfg, lpn_count)?;
        ftl.precondition();
        Ok(ftl.into_image())
    }

    /// Number of logical pages the imaged device serves.
    pub fn lpn_count(&self) -> u64 {
        self.lpn_count
    }

    fn check_geometry(&self, cfg: &SsdConfig) -> Result<(), ConfigError> {
        let same = self.channels == cfg.channels
            && self.dies_per_chip == cfg.chip.dies
            && self.planes_per_die == cfg.chip.planes_per_die
            && self.blocks_per_plane == cfg.chip.blocks_per_plane
            && self.pages_per_block == cfg.chip.pages_per_block;
        if !same {
            return Err(ConfigError::new(format!(
                "image geometry {}ch × {}d × {}p × {}b × {}pg does not match the target \
                 configuration ({}ch × {}d × {}p × {}b × {}pg)",
                self.channels,
                self.dies_per_chip,
                self.planes_per_die,
                self.blocks_per_plane,
                self.pages_per_block,
                cfg.channels,
                cfg.chip.dies,
                cfg.chip.planes_per_die,
                cfg.chip.blocks_per_plane,
                cfg.chip.pages_per_block
            )));
        }
        Ok(())
    }
}

/// A garbage-collection unit of work: move the `moves`, then erase the victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcJob {
    /// The plane being collected.
    pub plane: u32,
    /// Victim block (global id).
    pub victim_block: u32,
    /// `(lpn, source ppn)` pairs that were valid when GC started.
    pub moves: Vec<(u64, Ppn)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SsdConfig {
        let mut cfg = SsdConfig::scaled_for_tests();
        cfg.chip.blocks_per_plane = 16;
        cfg.chip.pages_per_block = 12;
        cfg
    }

    #[test]
    fn precondition_maps_everything_cold() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, 500).unwrap();
        ftl.precondition();
        for lpn in 0..500 {
            assert!(ftl.translate(lpn).is_some());
            assert!(ftl.is_cold(lpn));
        }
        // Mapping is injective.
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..500 {
            assert!(seen.insert(ftl.translate(lpn).unwrap()));
        }
    }

    #[test]
    fn precondition_stripes_across_planes() {
        let cfg = small_cfg();
        let planes = cfg.total_planes() as u64;
        let mut ftl = Ftl::new(&cfg, 4 * planes).unwrap();
        ftl.precondition();
        // Consecutive LPNs land on different planes (CWDP striping).
        let p0 = ftl.locate(ftl.translate(0).unwrap()).plane_global;
        let p1 = ftl.locate(ftl.translate(1).unwrap()).plane_global;
        assert_ne!(p0, p1);
    }

    #[test]
    fn overwrite_moves_and_invalidates() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, 100).unwrap();
        ftl.precondition();
        let old = ftl.translate(7).unwrap();
        let old_block = ftl.locate(old).block_global as u32;
        let before = ftl.block_valid_count(old_block);
        let alloc = ftl.allocate_for_write(7).unwrap();
        assert_ne!(alloc.ppn, old);
        assert_eq!(ftl.block_valid_count(old_block), before - 1);
        assert_eq!(ftl.reverse(old), None);
        assert_eq!(ftl.reverse(alloc.ppn), Some(7));
        assert!(!ftl.is_cold(7));
    }

    #[test]
    fn locate_roundtrip_consistency() {
        let cfg = small_cfg();
        let ftl = Ftl::new(&cfg, 10).unwrap();
        let pages_per_plane = cfg.chip.blocks_per_plane * cfg.chip.pages_per_block;
        // Page 0 of plane 1.
        let ppn = Ppn(pages_per_plane);
        let loc = ftl.locate(ppn);
        assert_eq!(loc.plane_global, 1);
        assert_eq!(loc.page_in_block, 0);
        assert_eq!(loc.channel, 0);
        // Last page of the SSD.
        let last = Ppn(cfg.total_pages() as u32 - 1);
        let loc = ftl.locate(last);
        assert_eq!(loc.channel, cfg.channels - 1);
        assert_eq!(loc.page_in_block, cfg.chip.pages_per_block - 1);
    }

    #[test]
    fn gc_picks_min_valid_victim() {
        let cfg = small_cfg();
        let planes = cfg.total_planes() as u64;
        let ppb = cfg.chip.pages_per_block as u64;
        // Fill several blocks in plane 0 by writing LPNs striped there.
        let mut ftl = Ftl::new(&cfg, planes * ppb * 4).unwrap();
        ftl.precondition();
        // Overwrite most of one early plane-0 block's LPNs to make it sparse:
        // plane-0 pages hold LPNs ≡ 0 (mod planes) in precondition order.
        for i in 0..ppb - 2 {
            ftl.allocate_for_write(i * planes).unwrap();
        }
        let job = ftl.start_gc(0).expect("a full block exists");
        assert_eq!(job.plane, 0);
        assert!(
            job.moves.len() as u64 <= 2,
            "victim should be the sparsest block, had {} moves",
            job.moves.len()
        );
    }

    #[test]
    fn gc_move_and_finish_cycle() {
        let cfg = small_cfg();
        let planes = cfg.total_planes() as u64;
        let ppb = cfg.chip.pages_per_block as u64;
        let mut ftl = Ftl::new(&cfg, planes * ppb * 3).unwrap();
        ftl.precondition();
        let job = ftl.start_gc(0).unwrap();
        for &(lpn, src) in &job.moves {
            assert!(ftl.gc_move_still_needed(lpn, src));
            ftl.allocate_for_gc(lpn, job.plane).unwrap();
            assert!(!ftl.gc_move_still_needed(lpn, src));
            // Moved data is physically fresh now.
            assert!(!ftl.is_cold(lpn));
        }
        assert_eq!(ftl.block_valid_count(job.victim_block), 0);
        let free_before = ftl.free_blocks_in_plane(0);
        ftl.finish_gc(job.victim_block);
        assert_eq!(ftl.free_blocks_in_plane(0), free_before + 1);
    }

    #[test]
    fn footprint_validation() {
        let cfg = small_cfg();
        assert!(Ftl::new(&cfg, 0).is_err());
        assert!(Ftl::new(&cfg, cfg.max_lpns() + 1).is_err());
        assert!(Ftl::new(&cfg, cfg.max_lpns()).is_ok());
    }

    #[test]
    fn bulk_precondition_matches_per_page_allocator() {
        let cfg = small_cfg();
        for count in [1u64, 5, 37, 500, cfg.max_lpns()] {
            let mut fast = Ftl::new(&cfg, count).unwrap();
            fast.precondition();
            // The reference: the per-page allocator the bulk path replaces.
            let mut slow = Ftl::new(&cfg, count).unwrap();
            let planes = slow.total_planes() as u64;
            for lpn in 0..count {
                let alloc = slow.allocate_raw((lpn % planes) as u32).unwrap();
                slow.commit_write(lpn, alloc);
            }
            slow.fresh.fill(0);
            assert_eq!(fast.map, slow.map, "map diverged at footprint {count}");
            assert_eq!(fast.rmap, slow.rmap, "rmap diverged at footprint {count}");
            assert_eq!(
                fast.blocks, slow.blocks,
                "blocks diverged at footprint {count}"
            );
            assert_eq!(fast.open_block, slow.open_block);
            assert_eq!(fast.free_blocks, slow.free_blocks);
            assert_eq!(fast.fresh, slow.fresh);
        }
    }

    /// An FTL dirtied by host writes and a full GC cycle — the state a
    /// warm-start image is meant to carry.
    fn aged_ftl(cfg: &SsdConfig) -> Ftl {
        let mut ftl = Ftl::new(cfg, 500).unwrap();
        ftl.precondition();
        for lpn in 0..300 {
            ftl.allocate_for_write(lpn % 120).unwrap();
        }
        let job = ftl.start_gc(0).expect("full blocks exist");
        for &(lpn, src) in &job.moves {
            if ftl.gc_move_still_needed(lpn, src) {
                ftl.allocate_for_gc(lpn, job.plane).unwrap();
            }
        }
        ftl.finish_gc(job.victim_block);
        ftl
    }

    #[test]
    fn capture_restore_round_trip_is_exact() {
        let cfg = small_cfg();
        let ftl = aged_ftl(&cfg);
        let state = ftl.capture();
        // Restore into a recycled FTL of a *different* footprint.
        let mut restored = Ftl::new(&cfg, 64).unwrap();
        restored.precondition();
        restored.restore(&cfg, &state).unwrap();
        assert_eq!(restored.lpn_count(), ftl.lpn_count());
        for lpn in 0..500 {
            assert_eq!(restored.translate(lpn), ftl.translate(lpn), "lpn {lpn}");
            assert_eq!(restored.is_cold(lpn), ftl.is_cold(lpn), "lpn {lpn}");
        }
        assert_eq!(restored.capture(), state);
        // And the two devices evolve identically afterwards.
        let mut a = ftl;
        let mut b = restored;
        for lpn in 0..100 {
            assert_eq!(a.allocate_for_write(lpn), b.allocate_for_write(lpn));
        }
        assert_eq!(a.capture(), b.capture());
    }

    #[test]
    fn restoring_the_same_state_copies_back_the_marked_chunks() {
        let cfg = small_cfg();
        // Captured between a GC's last move and its erase.
        let mut ftl = aged_ftl(&cfg);
        let job = ftl.start_gc(1).expect("full blocks exist");
        for &(lpn, src) in &job.moves {
            if ftl.gc_move_still_needed(lpn, src) {
                ftl.allocate_for_gc(lpn, job.plane).unwrap();
            }
        }
        let state = ftl.into_image();
        let mut target = Ftl::default();
        target.restore(&cfg, &state).unwrap();
        target.finish_gc(job.victim_block);
        let marked = |bits: &[u64]| bits.iter().map(|w| w.count_ones()).sum::<u32>();
        assert_eq!(marked(&target.dirty_ppns), 1, "the erase marks its block");
        target.restore(&cfg, &state).unwrap();
        assert_eq!(target.capture(), state);
        assert_eq!(marked(&target.dirty_ppns), 0, "restore clears the marks");
        assert_eq!(target.restored, Some(state.identity.id));
        // An equal clone is another state: the next restore copies in full.
        let clone = state.clone();
        assert_ne!(clone.identity.id, state.identity.id);
        target.restore(&cfg, &clone).unwrap();
        assert_eq!(target.restored, Some(clone.identity.id));
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let cfg = small_cfg();
        let state = aged_ftl(&cfg).capture();
        let mut other = cfg.clone();
        other.chip.blocks_per_plane = 32;
        let mut target = Ftl::new(&other, 500).unwrap();
        let err = target.restore(&other, &state).unwrap_err();
        assert!(err.to_string().contains("geometry"), "{err}");
    }

    #[test]
    fn gc_hint_fires_at_threshold() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, cfg.max_lpns()).unwrap();
        ftl.precondition();
        // Writing continuously must eventually produce a GC hint.
        let mut hinted = false;
        for lpn in 0..cfg.max_lpns() {
            if ftl.allocate_for_write(lpn).unwrap().gc_hint.is_some() {
                hinted = true;
                break;
            }
        }
        assert!(hinted, "filling the SSD should trigger a GC hint");
    }
}
