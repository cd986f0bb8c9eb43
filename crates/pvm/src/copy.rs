//! Explicit cache access: `copy` and `move` (Table 1), plus the internal
//! byte-granular read/write used to implement them and the kernel's
//! explicit-I/O path.
//!
//! The unified cache (§3.2) means these operations and mapped access see
//! the same data — the dual-caching problem cannot arise. Deferred copies
//! dispatch to the history-object technique (§4.2) or the
//! per-virtual-page technique (§4.3) according to the [`CopyMode`].

use crate::descriptors::{CacheDesc, CowSource, Slot};
use crate::keys::CacheKey;
use crate::resolve::Version;
use crate::state::{blocked, Attempt, Blocked, PvmState};
use crate::stats::Counter;
use chorus_gmi::{CopyMode, GmiError, Result, SegmentId};
use chorus_hal::{Access, OpKind};

impl PvmState {
    /// `cacheCreate(segment)`.
    pub fn cache_create_locked(&mut self, segment: Option<SegmentId>) -> CacheKey {
        self.charge(OpKind::ObjectCreate);
        self.caches.insert(CacheDesc {
            segment,
            fully_backed: segment.is_some(),
            ..CacheDesc::new(self.ps())
        })
    }

    /// Chooses the deferred-copy technique for `CopyMode::Auto` (§4.3:
    /// per-page for small fragments, history objects for large ones;
    /// unaligned transfers copy eagerly).
    pub fn choose_mode(&self, src_off: u64, dst_off: u64, size: u64) -> CopyMode {
        let aligned = self.geom.is_aligned(src_off)
            && self.geom.is_aligned(dst_off)
            && self.geom.is_aligned(size);
        if !aligned {
            return CopyMode::Eager;
        }
        if self.geom.pages_for(size) <= crate::config::IPC_MESSAGE_PAGES {
            CopyMode::PerPage
        } else {
            CopyMode::HistoryCow
        }
    }

    /// One attempt of `cache.copy` with an explicit mode. `progress` is a
    /// byte cursor owned by the driver: blocked attempts resume where
    /// they left off instead of restarting (which could otherwise
    /// livelock with page replacement by re-dirtying just-cleaned pages).
    #[allow(clippy::too_many_arguments)] // Mirrors the Table 1 copy signature plus the driver's progress cursor.
    pub fn cache_copy_attempt(
        &mut self,
        src: CacheKey,
        src_off: u64,
        dst: CacheKey,
        dst_off: u64,
        size: u64,
        mode: CopyMode,
        progress: &mut u64,
    ) -> Attempt<()> {
        self.cache(src)?;
        self.cache(dst)?;
        self.check_not_poisoned(src)?;
        self.check_not_poisoned(dst)?;
        if size == 0 {
            return Ok(());
        }
        let mode = match mode {
            CopyMode::Auto => self.choose_mode(src_off, dst_off, size),
            m => m,
        };
        match mode {
            CopyMode::Auto => unreachable!(),
            CopyMode::HistoryCow => {
                self.check_deferred_args(src, src_off, dst, dst_off, size)?;
                self.link_copy(src, src_off, dst, dst_off, size, false)
            }
            CopyMode::HistoryCor => {
                self.check_deferred_args(src, src_off, dst, dst_off, size)?;
                self.link_copy(src, src_off, dst, dst_off, size, true)
            }
            CopyMode::PerPage => {
                self.check_deferred_args(src, src_off, dst, dst_off, size)?;
                self.per_page_copy_attempt(src, src_off, dst, dst_off, size)
            }
            CopyMode::Eager => self.eager_copy_attempt(src, src_off, dst, dst_off, size, progress),
        }
    }

    fn check_deferred_args(
        &self,
        src: CacheKey,
        src_off: u64,
        dst: CacheKey,
        dst_off: u64,
        size: u64,
    ) -> Result<()> {
        self.check_aligned(src_off, "deferred copy source offset")?;
        self.check_aligned(dst_off, "deferred copy destination offset")?;
        self.check_aligned(size, "deferred copy size")?;
        if src == dst {
            return Err(GmiError::InvalidArgument("deferred copy within one cache"));
        }
        Ok(())
    }

    /// One attempt of `cache.move`: re-assigns page frames from source to
    /// destination where possible (§3.3.1: "changing the
    /// real-page-to-cache assignments, rather than by copying, whenever
    /// possible") and hands per-page stubs over as they stand, keeping
    /// their place in the stub order. A page that cannot be stolen, or a
    /// stub the source's history child needs, degrades to a per-page
    /// deferred copy. The source fragment becomes undefined. `progress`
    /// counts completed pages so blocked attempts resume.
    pub fn cache_move_attempt(
        &mut self,
        src: CacheKey,
        src_off: u64,
        dst: CacheKey,
        dst_off: u64,
        size: u64,
        progress: &mut u64,
    ) -> Attempt<()> {
        self.cache(src)?;
        self.cache(dst)?;
        self.check_not_poisoned(src)?;
        self.check_not_poisoned(dst)?;
        if size == 0 {
            return Ok(());
        }
        let aligned = self.geom.is_aligned(src_off)
            && self.geom.is_aligned(dst_off)
            && self.geom.is_aligned(size);
        if !aligned {
            // No frame re-assignment possible; plain copy (the source
            // may keep its contents — "undefined" allows that).
            return self.eager_copy_attempt(src, src_off, dst, dst_off, size, progress);
        }
        if src == dst {
            return Err(GmiError::InvalidArgument("move within one cache").into());
        }
        if *progress == 0 {
            self.overwrite_range(dst, dst_off, size)?;
        }
        let ps = self.ps();
        let pages = self.geom.pages_for(size);
        let start = *progress / ps;
        for k in start..pages {
            let so = src_off + k * ps;
            let dstoff = dst_off + k * ps;
            match self.slot(src, so) {
                Some(Slot::Sync) => return blocked(Blocked::WaitStub(src, so)),
                Some(Slot::Cow(from)) if !self.has_history_covering(src, so) => {
                    if let CowSource::Page(p) = from {
                        self.unmap_via(p, src);
                        let stub = self.page_mut(p).stubs.iter_mut().find(|s| **s == (src, so));
                        *stub.expect("stub threaded on its source page") = (dst, dstoff);
                        self.set_slot(dst, dstoff, Slot::Cow(from));
                    } else {
                        // Threaded first: the source never loses its last stub.
                        self.thread_cow_stub(dst, dstoff, from);
                        self.unthread_cow_stub(src, so, from);
                    }
                    self.clear_slot(src, so);
                }
                Some(Slot::Present(p))
                    if self.page(p).stubs.is_empty()
                        && self.page(p).lock_count == 0
                        && !self.page(p).cleaning
                        && !self.has_history_covering(src, so) =>
                {
                    let writable = !self.has_history_covering(dst, dstoff);
                    self.rehome_page(p, (dst, dstoff), writable);
                    self.stats.bump(Counter::MovedFrames);
                }
                _ => {
                    // A page that cannot be stolen, or a stub the history
                    // child needs: install a per-page stub instead.
                    self.per_page_copy_attempt(src, so, dst, dstoff, ps)?;
                }
            }
            *progress = (k + 1) * ps;
        }
        Ok(())
    }

    // ----- byte-granular access ------------------------------------------

    /// Reads the current logical contents of a cache range, pulling
    /// non-resident owned data in as needed (the faulting Table 1 access
    /// path, as opposed to `copyBack`). `progress` lets blocked attempts
    /// resume mid-range.
    pub fn cache_read_attempt(
        &mut self,
        cache: CacheKey,
        off: u64,
        buf: &mut [u8],
        progress: &mut u64,
    ) -> Attempt<()> {
        self.cache(cache)?;
        self.check_not_poisoned(cache)?;
        let ps = self.ps();
        let mut cur = off + *progress;
        let end = off + buf.len() as u64;
        while cur < end {
            let page_off = self.geom.round_down(cur);
            let in_page = (page_off + ps).min(end) - cur;
            let version = self.resolve_version(cache, page_off, Access::Read)?;
            let dst = &mut buf[(cur - off) as usize..(cur - off + in_page) as usize];
            match version {
                Version::Page(p) => {
                    let frame = self.page(p).frame;
                    self.phys.read(frame, cur - page_off, dst);
                }
                Version::Zero => dst.fill(0),
            }
            cur += in_page;
            *progress = cur - off;
        }
        Ok(())
    }

    /// Writes bytes into a cache range, materializing own writable pages
    /// (running the full write-violation algorithm where needed).
    /// `progress` lets blocked attempts resume mid-range.
    pub fn cache_write_attempt(
        &mut self,
        cache: CacheKey,
        off: u64,
        data: &[u8],
        progress: &mut u64,
    ) -> Attempt<()> {
        self.cache(cache)?;
        self.check_not_poisoned(cache)?;
        let ps = self.ps();
        let mut cur = off + *progress;
        let end = off + data.len() as u64;
        while cur < end {
            let page_off = self.geom.round_down(cur);
            let in_page = (page_off + ps).min(end) - cur;
            let page = self.own_writable_page(cache, page_off)?;
            let frame = self.page(page).frame;
            self.phys.write(
                frame,
                cur - page_off,
                &data[(cur - off) as usize..(cur - off + in_page) as usize],
            );
            self.page_mut(page).dirty = true;
            self.charge(OpKind::BcopyPage);
            cur += in_page;
            *progress = cur - off;
        }
        Ok(())
    }

    /// Ensures (cache, page_off) has an own, writable, resident page
    /// holding the current logical value, and returns it.
    pub fn own_writable_page(
        &mut self,
        cache: CacheKey,
        page_off: u64,
    ) -> Attempt<crate::keys::PageKey> {
        match self.slot(cache, page_off) {
            Some(Slot::Present(p)) => {
                if !self.page(p).write_allowed() {
                    self.promote_page(cache, page_off, p)?;
                }
                Ok(p)
            }
            Some(Slot::Sync) => blocked(Blocked::WaitStub(cache, page_off)),
            _ => {
                // Cow stub or absent: materialize an own copy of the
                // current value, promoted.
                let version = self.current_version(cache, page_off, Access::Read)?;
                self.own_page(cache, page_off, version, true)
            }
        }
    }

    /// Eager (non-deferred) copy: byte-granular, page-by-page. `progress`
    /// counts completed bytes so blocked attempts resume.
    pub fn eager_copy_attempt(
        &mut self,
        src: CacheKey,
        src_off: u64,
        dst: CacheKey,
        dst_off: u64,
        size: u64,
        progress: &mut u64,
    ) -> Attempt<()> {
        if src == dst {
            let (a, b) = (src_off, src_off + size);
            let (c, d) = (dst_off, dst_off + size);
            if a < d && c < b {
                return Err(GmiError::InvalidArgument("overlapping eager copy").into());
            }
        }
        let ps = self.ps();
        let mut moved = *progress;
        let mut chunk = vec![0u8; ps as usize];
        while moved < size {
            let n = ps.min(size - moved);
            let buf = &mut chunk[..n as usize];
            let mut sub = 0u64;
            self.cache_read_attempt(src, src_off + moved, buf, &mut sub)?;
            let data = chunk[..n as usize].to_vec();
            let mut sub = 0u64;
            self.cache_write_attempt(dst, dst_off + moved, &data, &mut sub)?;
            moved += n;
            *progress = moved;
        }
        Ok(())
    }
}
