//! The simulated physical memory: a pool of page frames with real bytes.
//!
//! Frames carry actual data so the whole stack is testable end-to-end: a
//! value written through one mapping must be readable through another, a
//! forked child must see pre-fork data but not post-fork parent writes,
//! and so on. Allocation, zero-fill and copies are charged to the shared
//! [`CostModel`] (the paper's `bzero`/`bcopy` costs).
//!
//! The pool is organized as a **binary buddy allocator**: per-order free
//! lists of naturally-aligned power-of-two blocks, split on demand and
//! lazily re-merged on release. Single-frame callers see exactly the old
//! flat-pool behavior (ascending first-fit allocation, one
//! `FrameAlloc`/`FrameFree` charge per frame), while the memory manager
//! above can ask for *contiguous runs* with [`PhysicalMemory::alloc_run`]
//! — the physical tier under large-page mappings. Splits and merges are
//! pure bookkeeping and charge nothing, so the simulated tables are
//! bit-identical to the flat allocator's.

use crate::addr::{PageGeometry, PhysAddr};
use crate::cost::{CostModel, OpKind};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// A physical page frame number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FrameNo(pub u32);

/// Counters describing the state and history of the frame pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Frames currently allocated.
    pub in_use: u64,
    /// High-water mark of allocated frames.
    pub peak: u64,
    /// Total allocations since creation.
    pub allocs: u64,
    /// Total frees since creation.
    pub frees: u64,
    /// Frames zero-filled.
    pub zeroed: u64,
    /// Bytes zero-filled (counts one-pass run zeroing accurately).
    pub zeroed_bytes: u64,
    /// Frame-to-frame copies.
    pub copied: u64,
    /// Buddy blocks split while servicing an allocation.
    pub splits: u64,
    /// Buddy pairs merged back while servicing a release.
    pub merges: u64,
}

/// A fixed-size pool of physical page frames over a buddy allocator.
pub struct PhysicalMemory {
    geom: PageGeometry,
    model: Arc<CostModel>,
    /// The frames' bytes, frame `n` at `n * page_size`.
    bytes: Vec<u8>,
    /// Per-order free lists of aligned block base frames. Ordered sets so
    /// allocation is deterministic lowest-address-first.
    free_lists: Vec<BTreeSet<u32>>,
    allocated: Vec<bool>,
    free_count: u32,
    stats: MemStats,
}

impl PhysicalMemory {
    /// Creates a pool of `frames` frames of `geom.page_size()` bytes each.
    pub fn new(geom: PageGeometry, frames: u32, model: Arc<CostModel>) -> PhysicalMemory {
        let page = geom.page_size() as usize;
        let max_order = if frames <= 1 {
            0
        } else {
            31 - frames.leading_zeros()
        };
        let mut free_lists: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); max_order as usize + 1];
        // Seed with maximal naturally-aligned blocks covering [0, frames):
        // a power-of-two pool is one block; anything else decomposes into
        // a descending run of aligned blocks.
        let mut base = 0u32;
        while base < frames {
            let align = if base == 0 {
                max_order
            } else {
                base.trailing_zeros().min(max_order)
            };
            let fit = 31 - (frames - base).leading_zeros();
            let order = align.min(fit);
            free_lists[order as usize].insert(base);
            base += 1 << order;
        }
        PhysicalMemory {
            geom,
            model,
            bytes: vec![0u8; page * frames as usize],
            free_lists,
            allocated: vec![false; frames as usize],
            free_count: frames,
            stats: MemStats::default(),
        }
    }

    /// The page geometry of this pool.
    #[inline]
    pub fn geometry(&self) -> PageGeometry {
        self.geom
    }

    /// The shared cost model.
    #[inline]
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.model
    }

    /// Total number of frames in the pool.
    pub fn total_frames(&self) -> u32 {
        self.allocated.len() as u32
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> u32 {
        self.free_count
    }

    /// Pool statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// The largest order any single allocation could currently satisfy:
    /// free-block counts per order, index = order. A fragmentation
    /// metric: `sum(count[k] << k)` equals [`PhysicalMemory::free_frames`],
    /// and the highest non-zero index bounds the largest contiguous run.
    pub fn free_blocks_per_order(&self) -> Vec<u32> {
        self.free_lists.iter().map(|l| l.len() as u32).collect()
    }

    /// The order of the largest free block, or `None` when exhausted.
    pub fn largest_free_order(&self) -> Option<u32> {
        (0..self.free_lists.len())
            .rev()
            .find(|&k| !self.free_lists[k].is_empty())
            .map(|k| k as u32)
    }

    /// Takes the lowest-address free block of order >= `order`, splitting
    /// larger blocks as needed (lower half kept, upper halves parked).
    fn take_block(&mut self, order: u32) -> Option<u32> {
        let mut k =
            (order as usize..self.free_lists.len()).find(|&k| !self.free_lists[k].is_empty())?;
        let base = *self.free_lists[k].iter().next().expect("non-empty list");
        self.free_lists[k].remove(&base);
        while k > order as usize {
            k -= 1;
            self.free_lists[k].insert(base + (1u32 << k));
            self.stats.splits += 1;
        }
        Some(base)
    }

    /// Inserts a free block and lazily merges it with its buddy upward.
    fn insert_block(&mut self, mut base: u32, order: u32) {
        let total = self.total_frames();
        let mut k = order as usize;
        while k + 1 < self.free_lists.len() {
            let buddy = base ^ (1u32 << k);
            // The buddy must be a whole block inside the pool and free at
            // this very order (partially-free buddies stay split).
            if u64::from(buddy) + (1u64 << k) > u64::from(total)
                || !self.free_lists[k].remove(&buddy)
            {
                break;
            }
            self.stats.merges += 1;
            base = base.min(buddy);
            k += 1;
        }
        self.free_lists[k].insert(base);
    }

    /// Marks `count` frames from `base` allocated and updates the stats;
    /// one `FrameAlloc` charge per frame, as the flat pool did.
    fn mark_allocated(&mut self, base: u32, count: u32) {
        for f in base..base + count {
            debug_assert!(!self.allocated[f as usize], "frame {f} double-allocated");
            self.allocated[f as usize] = true;
        }
        self.free_count -= count;
        self.stats.in_use += u64::from(count);
        self.stats.allocs += u64::from(count);
        self.stats.peak = self.stats.peak.max(self.stats.in_use);
        self.model.charge_n(OpKind::FrameAlloc, u64::from(count));
    }

    /// Allocates a frame without initializing its contents.
    ///
    /// Returns `None` when the pool is exhausted — the caller (the memory
    /// manager) is expected to run page replacement and retry.
    pub fn alloc(&mut self) -> Option<FrameNo> {
        let n = self.take_block(0)?;
        self.mark_allocated(n, 1);
        Some(FrameNo(n))
    }

    /// Allocates a frame and fills it with zeroes (demand-zero path).
    ///
    /// The zeroing happens in place as part of the allocation — one pass,
    /// not an alloc followed by a separate `zero()` walk — with the same
    /// charges (`FrameAlloc` + `BzeroPage`) as the two-step sequence.
    pub fn alloc_zeroed(&mut self) -> Option<FrameNo> {
        let n = self.take_block(0)?;
        self.mark_allocated(n, 1);
        let page = self.geom.page_size() as usize;
        self.frame_mut(FrameNo(n)).fill(0);
        self.stats.zeroed += 1;
        self.stats.zeroed_bytes += page as u64;
        self.model.charge(OpKind::BzeroPage);
        Some(FrameNo(n))
    }

    /// Allocates `2^order` physically contiguous frames whose base is
    /// naturally aligned (`base % 2^order == 0`): the backing for a
    /// large-page mapping. Returns the first frame of the run, or `None`
    /// when no sufficiently large contiguous block exists (the pool may
    /// still have plenty of scattered single frames).
    ///
    /// Charges `FrameAlloc` once per frame, so a run costs exactly what
    /// allocating its frames one by one would.
    pub fn alloc_run(&mut self, order: u32) -> Option<FrameNo> {
        if order as usize >= self.free_lists.len() {
            return None;
        }
        let base = self.take_block(order)?;
        self.mark_allocated(base, 1u32 << order);
        Some(FrameNo(base))
    }

    /// Allocates a contiguous run like [`PhysicalMemory::alloc_run`] and
    /// zeroes it with a single `memset`-style pass over the whole run.
    /// Charges `BzeroPage` once per frame (cost parity with per-frame
    /// zeroing; the one-pass fill is a host-side optimization).
    pub fn alloc_run_zeroed(&mut self, order: u32) -> Option<FrameNo> {
        let run = self.alloc_run(order)?;
        let frames = 1u64 << order;
        let page = self.geom.page_size() as usize;
        let len = page * frames as usize;
        let start = self.byte_range(run).start;
        self.bytes[start..start + len].fill(0);
        self.stats.zeroed += frames;
        self.stats.zeroed_bytes += len as u64;
        self.model.charge_n(OpKind::BzeroPage, frames);
        Some(run)
    }

    /// Releases a whole contiguous run allocated with
    /// [`PhysicalMemory::alloc_run`] in one step, re-inserting it as a
    /// single block (merging upward where possible).
    ///
    /// # Panics
    ///
    /// Panics if the base is not aligned to the order or any frame of the
    /// run is not currently allocated.
    pub fn release_run(&mut self, base: FrameNo, order: u32) {
        let count = 1u32 << order;
        assert!(
            base.0.is_multiple_of(count),
            "run base {base:?} is not aligned to order {order}"
        );
        for f in base.0..base.0 + count {
            self.check_live(FrameNo(f));
            self.allocated[f as usize] = false;
        }
        self.free_count += count;
        self.stats.in_use -= u64::from(count);
        self.stats.frees += u64::from(count);
        self.model.charge_n(OpKind::FrameFree, u64::from(count));
        self.insert_block(base.0, order);
    }

    /// Fills a frame with zeroes (`bzero`).
    pub fn zero(&mut self, f: FrameNo) {
        let page = self.geom.page_size() as usize;
        self.frame_mut(f).fill(0);
        self.stats.zeroed += 1;
        self.stats.zeroed_bytes += page as u64;
        self.model.charge(OpKind::BzeroPage);
    }

    /// Lands a `fillUp` chunk (possibly a short trailing one) in a fresh
    /// frame: `data` followed by zeroes, each byte written once, charged
    /// and counted as the `bzero` + copy it replaces (`BzeroPage`,
    /// `zeroed`), so the simulated clock cannot tell the difference.
    /// `zeroed_bytes` counts the bytes actually cleared.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than a page or the frame is not live.
    pub fn fill(&mut self, f: FrameNo, data: &[u8]) {
        let (head, tail) = self.frame_mut(f).split_at_mut(data.len());
        head.copy_from_slice(data);
        tail.fill(0);
        self.stats.zeroed += 1;
        self.stats.zeroed_bytes += self.geom.page_size() - data.len() as u64;
        self.model.charge(OpKind::BzeroPage);
    }

    /// Copies the full contents of frame `src` into frame `dst` (`bcopy`).
    ///
    /// # Panics
    ///
    /// Panics if the frames are not both live, or if `src == dst`.
    pub fn copy_frame(&mut self, src: FrameNo, dst: FrameNo) {
        assert_ne!(src, dst, "copy_frame with identical frames");
        self.check_live(src);
        self.check_live(dst);
        let (src, dst) = (self.byte_range(src), self.byte_range(dst));
        self.bytes.copy_within(src, dst.start);
        self.stats.copied += 1;
        self.model.charge(OpKind::BcopyPage);
    }

    /// Releases a frame back to the pool.
    ///
    /// # Panics
    ///
    /// Panics on double free or an out-of-range frame number.
    pub fn release(&mut self, f: FrameNo) {
        self.check_live(f);
        self.allocated[f.0 as usize] = false;
        self.free_count += 1;
        self.stats.in_use -= 1;
        self.stats.frees += 1;
        self.model.charge(OpKind::FrameFree);
        self.insert_block(f.0, 0);
    }

    /// Read-only view of a live frame's bytes.
    pub fn frame(&self, f: FrameNo) -> &[u8] {
        self.check_live(f);
        &self.bytes[self.byte_range(f)]
    }

    /// Mutable view of a live frame's bytes.
    ///
    /// This is the `fillUp` path: data arriving from a segment mapper is
    /// written straight into the frame.
    pub fn frame_mut(&mut self, f: FrameNo) -> &mut [u8] {
        self.check_live(f);
        let range = self.byte_range(f);
        &mut self.bytes[range]
    }

    /// Reads `buf.len()` bytes from a frame starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn read(&self, f: FrameNo, offset: u64, buf: &mut [u8]) {
        let frame = self.frame(f);
        let off = offset as usize;
        buf.copy_from_slice(&frame[off..off + buf.len()]);
    }

    /// Writes `buf` into a frame starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn write(&mut self, f: FrameNo, offset: u64, buf: &[u8]) {
        let frame = self.frame_mut(f);
        let off = offset as usize;
        frame[off..off + buf.len()].copy_from_slice(buf);
    }

    /// The physical address of a byte within a frame.
    pub fn addr_of(&self, f: FrameNo, offset: u64) -> PhysAddr {
        debug_assert!(offset < self.geom.page_size());
        PhysAddr(f.0 as u64 * self.geom.page_size() + offset)
    }

    /// Splits a physical address into its frame and in-frame offset.
    pub fn frame_of(&self, pa: PhysAddr) -> (FrameNo, u64) {
        let page = self.geom.page_size();
        (FrameNo((pa.0 / page) as u32), pa.0 % page)
    }

    /// Reads through a translated physical address.
    pub fn read_phys(&self, pa: PhysAddr, buf: &mut [u8]) {
        let (f, off) = self.frame_of(pa);
        self.read(f, off, buf);
    }

    /// Writes through a translated physical address.
    pub fn write_phys(&mut self, pa: PhysAddr, buf: &[u8]) {
        let (f, off) = self.frame_of(pa);
        self.write(f, off, buf);
    }

    /// True if the frame is currently allocated.
    pub fn is_allocated(&self, f: FrameNo) -> bool {
        (f.0 as usize) < self.allocated.len() && self.allocated[f.0 as usize]
    }

    /// Where frame `f`'s bytes sit in the plane.
    fn byte_range(&self, f: FrameNo) -> Range<usize> {
        let page = self.geom.page_size() as usize;
        let start = f.0 as usize * page;
        start..start + page
    }

    fn check_live(&self, f: FrameNo) {
        assert!(
            (f.0 as usize) < self.allocated.len() && self.allocated[f.0 as usize],
            "frame {f:?} is not allocated"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: u32) -> PhysicalMemory {
        PhysicalMemory::new(
            PageGeometry::new(64),
            frames,
            Arc::new(CostModel::counting()),
        )
    }

    #[test]
    fn alloc_until_exhausted_then_release() {
        let mut pm = pool(2);
        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        assert_ne!(a, b);
        assert!(pm.alloc().is_none());
        assert_eq!(pm.stats().in_use, 2);
        pm.release(a);
        assert_eq!(pm.free_frames(), 1);
        let c = pm.alloc().unwrap();
        assert_eq!(c, a, "released frame is reused");
        assert_eq!(pm.stats().peak, 2);
    }

    #[test]
    fn zeroed_allocation_really_zeroes() {
        let mut pm = pool(1);
        let f = pm.alloc().unwrap();
        pm.frame_mut(f).fill(0xAB);
        pm.release(f);
        let g = pm.alloc_zeroed().unwrap();
        assert_eq!(g, f);
        assert!(pm.frame(g).iter().all(|&b| b == 0));
        assert_eq!(pm.stats().zeroed, 1);
        assert_eq!(pm.stats().zeroed_bytes, 64);
    }

    #[test]
    fn copy_frame_copies_bytes_and_charges() {
        let model = Arc::new(CostModel::new(crate::cost::CostParams::sun3()));
        let mut pm = PhysicalMemory::new(PageGeometry::new(64), 2, model.clone());
        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        pm.frame_mut(a).fill(7);
        pm.copy_frame(a, b);
        assert!(pm.frame(b).iter().all(|&x| x == 7));
        assert_eq!(model.count(OpKind::BcopyPage), 1);
        assert_eq!(pm.stats().copied, 1);
    }

    #[test]
    fn fill_pads_a_short_chunk_and_costs_what_zero_plus_write_did() {
        let run = |fill: bool, data: &[u8]| {
            let model = Arc::new(CostModel::new(crate::cost::CostParams::sun3()));
            let mut pm = PhysicalMemory::new(PageGeometry::new(64), 1, model.clone());
            let f = pm.alloc().unwrap();
            pm.frame_mut(f).fill(0xAB);
            if fill {
                pm.fill(f, data);
            } else {
                pm.zero(f);
                pm.write(f, 0, data);
            }
            (pm.frame(f).to_vec(), pm.stats().zeroed, model.now())
        };
        for data in [&b"hello"[..], &[7u8; 64][..], &[][..]] {
            let (bytes, zeroed, now) = run(true, data);
            assert_eq!(&bytes[..data.len()], data);
            assert!(bytes[data.len()..].iter().all(|&b| b == 0), "stale tail");
            assert_eq!((bytes, zeroed, now), run(false, data));
        }
        let mut pm = pool(1);
        let f = pm.alloc().unwrap();
        pm.fill(f, b"hello");
        assert_eq!(pm.stats().zeroed_bytes, 64 - 5, "only the tail is cleared");
    }

    #[test]
    fn read_write_subranges() {
        let mut pm = pool(1);
        let f = pm.alloc_zeroed().unwrap();
        pm.write(f, 10, b"hello");
        let mut buf = [0u8; 5];
        pm.read(f, 10, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn phys_addr_roundtrip() {
        let mut pm = pool(4);
        let _ = pm.alloc().unwrap();
        let f = pm.alloc().unwrap();
        let pa = pm.addr_of(f, 12);
        assert_eq!(pm.frame_of(pa), (f, 12));
        pm.write_phys(pa, b"xy");
        let mut buf = [0u8; 2];
        pm.read_phys(pa, &mut buf);
        assert_eq!(&buf, b"xy");
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_free_panics() {
        let mut pm = pool(1);
        let f = pm.alloc().unwrap();
        pm.release(f);
        pm.release(f);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn access_to_free_frame_panics() {
        let pm = pool(1);
        let _ = pm.frame(FrameNo(0));
    }

    #[test]
    fn single_frame_allocation_is_ascending() {
        let mut pm = pool(8);
        let frames: Vec<u32> = (0..8).map(|_| pm.alloc().unwrap().0).collect();
        assert_eq!(frames, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn run_allocation_is_aligned_and_contiguous() {
        let mut pm = pool(16);
        let a = pm.alloc().unwrap(); // Frame 0: forces the run elsewhere.
        let run = pm.alloc_run(2).unwrap();
        assert_eq!(run.0 % 4, 0, "run base naturally aligned");
        assert_ne!(run.0, a.0);
        for k in 0..4 {
            assert!(pm.is_allocated(FrameNo(run.0 + k)));
        }
        assert_eq!(pm.stats().in_use, 5);
        assert_eq!(pm.free_frames(), 11);
        pm.release_run(run, 2);
        assert_eq!(pm.free_frames(), 15);
    }

    #[test]
    fn run_zeroing_is_one_pass_but_charges_per_frame() {
        let model = Arc::new(CostModel::new(crate::cost::CostParams::sun3()));
        let mut pm = PhysicalMemory::new(PageGeometry::new(64), 8, model.clone());
        let run = pm.alloc_run_zeroed(3).unwrap();
        assert_eq!(run.0, 0);
        for k in 0..8 {
            assert!(pm.frame(FrameNo(k)).iter().all(|&b| b == 0));
        }
        assert_eq!(model.count(OpKind::BzeroPage), 8);
        assert_eq!(model.count(OpKind::FrameAlloc), 8);
        assert_eq!(pm.stats().zeroed, 8);
        assert_eq!(pm.stats().zeroed_bytes, 8 * 64);
    }

    #[test]
    fn merge_restores_max_order_block() {
        let mut pm = pool(8);
        let frames: Vec<FrameNo> = (0..8).map(|_| pm.alloc().unwrap()).collect();
        assert_eq!(pm.largest_free_order(), None);
        for f in frames {
            pm.release(f);
        }
        assert_eq!(pm.largest_free_order(), Some(3), "fully merged back");
        assert_eq!(pm.free_blocks_per_order(), vec![0, 0, 0, 1]);
        assert!(pm.stats().merges >= 7);
        let run = pm.alloc_run(3).unwrap();
        assert_eq!(run.0, 0);
    }

    #[test]
    fn run_allocation_fails_under_fragmentation_without_leaking() {
        let mut pm = pool(8);
        // Allocate everything, free every other frame: 4 free frames but
        // no contiguous pair.
        let frames: Vec<FrameNo> = (0..8).map(|_| pm.alloc().unwrap()).collect();
        for f in frames.iter().step_by(2) {
            pm.release(*f);
        }
        assert_eq!(pm.free_frames(), 4);
        assert!(pm.alloc_run(1).is_none(), "no aligned pair exists");
        assert_eq!(pm.free_frames(), 4, "failed run probe leaks nothing");
        assert_eq!(pm.alloc().unwrap().0, 0, "single frames still served");
    }

    #[test]
    fn non_power_of_two_pool_works() {
        let mut pm = pool(6);
        // Seeded as [0,4) order 2 + [4,6) order 1.
        assert_eq!(pm.free_blocks_per_order(), vec![0, 1, 1]);
        let run = pm.alloc_run(2).unwrap();
        assert_eq!(run.0, 0);
        let pair = pm.alloc_run(1).unwrap();
        assert_eq!(pair.0, 4);
        assert!(pm.alloc().is_none());
        pm.release_run(run, 2);
        pm.release_run(pair, 1);
        assert_eq!(pm.free_frames(), 6);
        // The order-1 tail must never merge past the pool end.
        assert_eq!(pm.free_blocks_per_order(), vec![0, 1, 1]);
    }
}
