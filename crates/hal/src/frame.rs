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
//!
//! Each frame's bytes are a [`Page`], a buffer that may be shared by
//! reference with whoever else holds it: a mapper's segment after a
//! `fillUp` or `pushOut` hands it over ([`PhysicalMemory::share`],
//! [`PhysicalMemory::adopt`]), or a `copyBack` reading it with the
//! frame's lock dropped. A shared buffer is never written: every writer
//! takes a private one first, so a write through a frame is seen by no
//! other holder, and a page that is only read is never copied at all.
//! Sharing moves no simulated time: the charges are those of the copies
//! the exchange stands for.

use crate::addr::{PageGeometry, PhysAddr};
use crate::cost::{CostModel, OpKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

/// A page's bytes, shared by reference between the frame that holds
/// them and any other holder (a mapper's segment store, a `copyBack`
/// reply). Immutable while shared: a holder that writes copies first.
pub type Page = Arc<[u8]>;

/// Page buffers whose last holder let them go, kept for the next private
/// copy: a stream of copies and releases then reuses the same buffers
/// instead of going to the allocator, whose per-thread arenas keep a
/// buffer freed by another thread than the one that will allocate next
/// resident beside the new one (the measuring thread of a scoreboard run
/// releases pages its set-up thread allocated). At most [`SPARES_MAX`].
static SPARES: Mutex<Vec<Page>> = Mutex::new(Vec::new());

/// The most spare buffers kept (8 MiB of Sun-3 pages).
const SPARES_MAX: usize = 1024;

/// Lets `page` go: kept as a spare if this was its last reference.
pub fn recycle(page: Page) {
    if Arc::strong_count(&page) == 1 {
        let mut spares = SPARES.lock().unwrap_or_else(|e| e.into_inner());
        if spares.len() < SPARES_MAX {
            spares.push(page);
        }
    }
}

/// A spare buffer of `len` bytes, if one is kept.
fn take_spare(len: usize) -> Option<Page> {
    let mut spares = SPARES.lock().unwrap_or_else(|e| e.into_inner());
    let at = spares.iter().rposition(|page| page.len() == len)?;
    Some(spares.swap_remove(at))
}

/// A private copy of `bytes`, in a spare buffer if one of the size is
/// kept.
pub fn private_copy(bytes: &[u8]) -> Page {
    match take_spare(bytes.len()) {
        Some(mut page) => {
            Arc::get_mut(&mut page)
                .expect("a spare has one holder")
                .copy_from_slice(bytes);
            page
        }
        None => Page::from(bytes),
    }
}

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
    /// Pages copied because a write found its frame's buffer shared
    /// with another holder: the deferred copies that came due. A write
    /// of the whole page (`zero`, `fill`, `copy_frame`) takes a fresh
    /// buffer instead and copies nothing, and a write to a frame that
    /// holds the pool's zero page (never written since the pool was
    /// created, or zeroed while shared) is not counted.
    pub shared_copies: u64,
}

/// A fixed-size pool of physical page frames.
pub struct PhysicalMemory {
    geom: PageGeometry,
    model: Arc<CostModel>,
    /// Each frame's bytes. A frame never written holds `zero`.
    pages: Vec<Page>,
    /// The one all-zero page every untouched frame shares.
    zero: Page,
    /// The free frames, lowest number first.
    free: BinaryHeap<Reverse<u32>>,
    allocated: Vec<bool>,
    stats: MemStats,
}

impl PhysicalMemory {
    /// Creates a pool of `frames` frames of `geom.page_size()` bytes each.
    pub fn new(geom: PageGeometry, frames: u32, model: Arc<CostModel>) -> PhysicalMemory {
        let zero: Page = vec![0u8; geom.page_size() as usize].into();
        PhysicalMemory {
            geom,
            model,
            pages: vec![zero.clone(); frames as usize],
            zero,
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

    /// Fills a frame with zeroes (`bzero`). A frame whose buffer is
    /// shared takes the pool's zero page instead of a copy to clear.
    pub fn zero(&mut self, f: FrameNo) {
        self.check_live(f);
        let slot = &mut self.pages[f.0 as usize];
        match Arc::get_mut(slot) {
            Some(bytes) => bytes.fill(0),
            None => recycle(std::mem::replace(slot, self.zero.clone())),
        }
        self.stats.zeroed += 1;
        self.stats.zeroed_bytes += self.geom.page_size();
        self.model.charge(OpKind::BzeroPage);
    }

    /// Lands a `fillUp` page (possibly a short trailing chunk) in a
    /// fresh frame, as [`Self::adopt`] does, charged and counted as the
    /// `bzero` + copy it replaces (`BzeroPage`, `zeroed`), so the
    /// simulated clock cannot tell a page handed over from one copied.
    /// `zeroed_bytes` counts the bytes a short chunk leaves to clear.
    ///
    /// # Panics
    ///
    /// Panics if `page` is longer than a page or the frame is not live.
    pub fn fill(&mut self, f: FrameNo, page: Page) {
        let tail = self.geom.page_size().saturating_sub(page.len() as u64);
        self.adopt(f, page);
        self.stats.zeroed += 1;
        self.stats.zeroed_bytes += tail;
        self.model.charge(OpKind::BzeroPage);
    }

    /// Installs `page` as frame `f`'s bytes, uncharged. A full page is
    /// taken by reference: no byte moves, and whoever else holds it
    /// keeps seeing its own copy, since the frame's first write copies
    /// it. A shorter one (the trailing chunk of a `fillUp`) is copied
    /// in, its tail zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if `page` is longer than a page or the frame is not live.
    pub fn adopt(&mut self, f: FrameNo, page: Page) {
        self.check_live(f);
        let size = self.geom.page_size() as usize;
        assert!(page.len() <= size, "a page of {} bytes", page.len());
        if page.len() == size {
            recycle(std::mem::replace(&mut self.pages[f.0 as usize], page));
            return;
        }
        let (head, tail) = self.private(f, false).split_at_mut(page.len());
        head.copy_from_slice(&page);
        tail.fill(0);
    }

    /// Hands out a reference to frame `f`'s bytes: the frame's next
    /// write copies them first, so the holder's page never changes.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live.
    pub fn share(&self, f: FrameNo) -> Page {
        self.check_live(f);
        self.pages[f.0 as usize].clone()
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
        let bytes = self.pages[src.0 as usize].clone();
        self.private(dst, false).copy_from_slice(&bytes);
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
        &self.pages[f.0 as usize]
    }

    /// Mutable view of a live frame's bytes.
    ///
    /// A frame whose buffer is shared copies it first (counted in
    /// `shared_copies`), so no other holder sees the write.
    pub fn frame_mut(&mut self, f: FrameNo) -> &mut [u8] {
        self.check_live(f);
        self.private(f, true)
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

    /// Frame `f`'s buffer, made private first if it is shared: a copy
    /// of the shared one for a partial write (`keep`), else one whose
    /// bytes the caller overwrites in whole.
    fn private(&mut self, f: FrameNo, keep: bool) -> &mut [u8] {
        let slot = &mut self.pages[f.0 as usize];
        if Arc::get_mut(slot).is_none() {
            *slot = match keep {
                true if Arc::ptr_eq(slot, &self.zero) => private_copy(slot),
                true => {
                    self.stats.shared_copies += 1;
                    private_copy(slot)
                }
                false => take_spare(slot.len())
                    .unwrap_or_else(|| std::iter::repeat_n(0, slot.len()).collect()),
            };
        }
        Arc::get_mut(slot).expect("a private buffer")
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
                pm.fill(f, Page::from(data));
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
        pm.fill(f, Page::from(&b"hello"[..]));
        assert_eq!(pm.stats().zeroed_bytes, 64 - 5, "only the tail is cleared");
    }

    /// A pool of two frames, the first holding a page that is also held
    /// outside the pool.
    fn shared_frame() -> (PhysicalMemory, FrameNo, Page) {
        let mut pm = pool(2);
        let f = pm.alloc().unwrap();
        let page = Page::from(&[7u8; 64][..]);
        pm.adopt(f, page.clone());
        (pm, f, page)
    }

    #[test]
    fn share_then_adopt_round_trips_bytes_by_reference() {
        let mut pm = pool(2);
        let (a, b) = (pm.alloc().unwrap(), pm.alloc().unwrap());
        pm.write(a, 3, b"page");
        let page = pm.share(a);
        pm.adopt(b, page.clone());
        assert_eq!(pm.frame(b), pm.frame(a));
        assert_eq!(&pm.frame(b)[3..7], b"page");
        assert!(Arc::ptr_eq(&page, &pm.share(b)), "no byte moved");
        assert_eq!(pm.stats().shared_copies, 0);
        // A short page is copied in and zero-padded.
        pm.adopt(b, Page::from(&b"ab"[..]));
        assert_eq!(&pm.frame(b)[..3], b"ab\0");
    }

    #[test]
    fn a_write_to_a_shared_page_copies_it_first() {
        let (mut pm, f, page) = shared_frame();
        pm.write(f, 1, b"x");
        assert_eq!(pm.frame(f)[..3], [7, b'x', 7]);
        assert!(
            page.iter().all(|&b| b == 7),
            "the other holder saw the write"
        );
        assert_eq!(pm.stats().shared_copies, 1);
        // The frame's buffer is its own now: the next write copies nothing.
        pm.write(f, 2, b"y");
        assert_eq!(pm.stats().shared_copies, 1);
        // The same through `frame_mut`.
        let (mut pm, f, page) = shared_frame();
        pm.frame_mut(f)[0] = 1;
        assert_eq!(
            (page[0], pm.frame(f)[0], pm.stats().shared_copies),
            (7, 1, 1)
        );
    }

    #[test]
    fn whole_page_writes_to_a_shared_page_leave_it_alone() {
        let (mut pm, f, page) = shared_frame();
        pm.zero(f);
        assert!(pm.frame(f).iter().all(|&b| b == 0));
        let (mut pm2, g, page2) = shared_frame();
        pm2.fill(g, Page::from(&b"hello"[..]));
        assert_eq!(&pm2.frame(g)[..6], b"hello\0");
        let (mut pm3, h, page3) = shared_frame();
        let other = pm3.alloc_zeroed().unwrap();
        pm3.copy_frame(other, h);
        assert!(pm3.frame(h).iter().all(|&b| b == 0));
        for (pm, page) in [(&pm, page), (&pm2, page2), (&pm3, page3)] {
            assert!(
                page.iter().all(|&b| b == 7),
                "the other holder saw the write"
            );
            assert_eq!(pm.stats().shared_copies, 0, "nothing to copy");
        }
    }

    #[test]
    fn a_page_let_go_by_its_last_holder_is_reused() {
        // A length no other test uses, so no other test takes the spare.
        let page = Page::from(&[1u8; 37][..]);
        let held = page.clone();
        recycle(page);
        let copy = private_copy(&[2u8; 37]);
        assert!(
            !Arc::ptr_eq(&copy, &held),
            "a page still held is not reused"
        );
        let addr = Arc::as_ptr(&held) as *const u8;
        recycle(held);
        let reused = private_copy(&[3u8; 37]);
        assert_eq!(Arc::as_ptr(&reused) as *const u8, addr);
        assert_eq!(&reused[..], &[3u8; 37][..]);
    }

    #[test]
    fn a_frames_first_write_is_not_a_shared_copy() {
        let mut pm = pool(1);
        let f = pm.alloc().unwrap();
        assert!(pm.frame(f).iter().all(|&b| b == 0));
        pm.write(f, 0, b"first");
        assert_eq!(pm.stats().shared_copies, 0);
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
