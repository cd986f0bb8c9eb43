//! The simulated physical memory: a pool of page frames with real bytes.
//!
//! Frames carry actual data so the whole stack is testable end-to-end: a
//! value written through one mapping must be readable through another, a
//! forked child must see pre-fork data but not post-fork parent writes,
//! and so on. Allocation, zero-fill and copies are charged to the shared
//! [`CostModel`] (the paper's `bzero`/`bcopy` costs).
//!
//! The pool is flat: every allocation hands out the lowest free frame,
//! so frame numbers are deterministic.

use crate::addr::{PageGeometry, PhysAddr};
use crate::cost::{CostModel, OpKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    /// Bytes zero-filled (a short `fill` clears only its tail).
    pub zeroed_bytes: u64,
    /// Frame-to-frame copies.
    pub copied: u64,
}

/// A fixed-size pool of physical page frames.
pub struct PhysicalMemory {
    geom: PageGeometry,
    model: Arc<CostModel>,
    /// The frames' bytes, frame `n` at `n * page_size`.
    bytes: Vec<u8>,
    /// The free frames, lowest number first.
    free: BinaryHeap<Reverse<u32>>,
    allocated: Vec<bool>,
    stats: MemStats,
}

impl PhysicalMemory {
    /// Creates a pool of `frames` frames of `geom.page_size()` bytes each.
    pub fn new(geom: PageGeometry, frames: u32, model: Arc<CostModel>) -> PhysicalMemory {
        let page = geom.page_size() as usize;
        PhysicalMemory {
            geom,
            model,
            bytes: vec![0u8; page * frames as usize],
            free: (0..frames).map(Reverse).collect(),
            allocated: vec![false; frames as usize],
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
        self.free.len() as u32
    }

    /// Pool statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Allocates a frame without initializing its contents.
    ///
    /// Returns `None` when the pool is exhausted — the caller (the memory
    /// manager) is expected to run page replacement and retry.
    pub fn alloc(&mut self) -> Option<FrameNo> {
        let Reverse(n) = self.free.pop()?;
        debug_assert!(!self.allocated[n as usize], "frame {n} double-allocated");
        self.allocated[n as usize] = true;
        self.stats.in_use += 1;
        self.stats.allocs += 1;
        self.stats.peak = self.stats.peak.max(self.stats.in_use);
        self.model.charge(OpKind::FrameAlloc);
        Some(FrameNo(n))
    }

    /// Allocates a frame and fills it with zeroes (demand-zero path).
    ///
    /// Allocation does not touch the bytes, so this is one pass over the
    /// frame, charged `FrameAlloc` + `BzeroPage`.
    pub fn alloc_zeroed(&mut self) -> Option<FrameNo> {
        let f = self.alloc()?;
        self.zero(f);
        Some(f)
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
        self.free.push(Reverse(f.0));
        self.stats.in_use -= 1;
        self.stats.frees += 1;
        self.model.charge(OpKind::FrameFree);
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
    fn non_power_of_two_pool_works() {
        let mut pm = pool(6);
        let frames: Vec<FrameNo> = (0..6).map(|_| pm.alloc().unwrap()).collect();
        assert_eq!(frames.last(), Some(&FrameNo(5)));
        assert!(pm.alloc().is_none());
        pm.release(frames[4]);
        pm.release(frames[1]);
        assert_eq!(pm.alloc(), Some(FrameNo(1)), "lowest free frame first");
        assert_eq!(pm.free_frames(), 1);
    }
}
