//! The minimal memory manager proper.

use chorus_gmi::{
    Access, CacheId, CacheIo, CopyMode, CtxId, Gmi, GmiError, PageGeometry, Prot, PullRequest,
    PushRequest, RegionId, RegionStatus, Result, SegmentId, SegmentManagerV2, VirtAddr,
};
use chorus_hal::{
    Arena, CostModel, CostParams, FrameNo, Id, Mmu, MmuCtx, OpKind, PhysicalMemory, SoftMmu,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Construction options.
#[derive(Clone, Debug)]
pub struct MinimalOptions {
    /// Page geometry.
    pub geometry: PageGeometry,
    /// Physical frames (all memory there is: no backing swap).
    pub frames: u32,
    /// Per-operation simulated costs.
    pub cost: CostParams,
}

impl Default for MinimalOptions {
    fn default() -> MinimalOptions {
        MinimalOptions {
            geometry: PageGeometry::sun3(),
            frames: 256,
            cost: CostParams::zero(),
        }
    }
}

/// Event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimalStats {
    /// Faults handled (allocation or pull, never COW).
    pub faults: u64,
    /// Zero-filled pages.
    pub zero_fills: u64,
    /// Pages pulled from segments.
    pub pull_ins: u64,
    /// Pages pushed to segments.
    pub push_outs: u64,
    /// Pages copied eagerly by `cache.copy`.
    pub eager_copied_pages: u64,
}

struct RtPage {
    frame: FrameNo,
    dirty: bool,
}

#[derive(Default)]
struct RtCache {
    segment: Option<SegmentId>,
    fully_backed: bool,
    pages: BTreeMap<u64, RtPage>,
    mapped_regions: u32,
}

struct RtRegion {
    ctx: Id<RtContext>,
    addr: VirtAddr,
    size: u64,
    prot: Prot,
    cache: Id<RtCache>,
    offset: u64,
    locked: bool,
}

struct RtContext {
    mmu_ctx: MmuCtx,
    regions: Vec<Id<RtRegion>>,
}

struct RtState {
    geom: PageGeometry,
    phys: PhysicalMemory,
    mmu: Box<dyn Mmu>,
    caches: Arena<RtCache>,
    regions: Arena<RtRegion>,
    contexts: Arena<RtContext>,
    stats: MinimalStats,
}

/// The minimal, fully-resident, eager-copy memory manager.
pub struct MinimalMm {
    state: Mutex<RtState>,
    seg_mgr: Arc<dyn SegmentManagerV2>,
    model: Arc<CostModel>,
}

fn pub_cache(k: Id<RtCache>) -> CacheId {
    CacheId::pack(k.index(), k.generation())
}

fn cache_key(id: CacheId) -> Id<RtCache> {
    let (i, g) = id.unpack();
    Id::from_raw_parts(i, g)
}

fn pub_ctx(k: Id<RtContext>) -> CtxId {
    CtxId::pack(k.index(), k.generation())
}

fn ctx_key(id: CtxId) -> Id<RtContext> {
    let (i, g) = id.unpack();
    Id::from_raw_parts(i, g)
}

fn pub_region(k: Id<RtRegion>) -> RegionId {
    RegionId::pack(k.index(), k.generation())
}

fn region_key(id: RegionId) -> Id<RtRegion> {
    let (i, g) = id.unpack();
    Id::from_raw_parts(i, g)
}

impl MinimalMm {
    /// Creates the manager over a [`SegmentManagerV2`].
    pub fn new(options: MinimalOptions, seg_mgr: Arc<dyn SegmentManagerV2>) -> MinimalMm {
        let model = Arc::new(CostModel::new(options.cost.clone()));
        let phys = PhysicalMemory::new(options.geometry, options.frames, model.clone());
        let mmu: Box<dyn Mmu> = Box::new(SoftMmu::new(options.geometry, model.clone()));
        MinimalMm {
            state: Mutex::new(RtState {
                geom: options.geometry,
                phys,
                mmu,
                caches: Arena::new(),
                regions: Arena::new(),
                contexts: Arena::new(),
                stats: MinimalStats::default(),
            }),
            seg_mgr,
            model,
        }
    }

    /// The shared cost model.
    pub fn cost_model(&self) -> Arc<CostModel> {
        self.model.clone()
    }

    /// Event counters.
    pub fn stats(&self) -> MinimalStats {
        self.state.lock().stats
    }

    /// Ensures (cache, page_off) is resident, pulling from the segment
    /// or zero-filling. Runs the upcall without the state lock.
    fn ensure_resident(&self, cache: Id<RtCache>, page_off: u64) -> Result<()> {
        let (need_pull, segment) = {
            let s = self.state.lock();
            let c = s
                .caches
                .get(cache)
                .ok_or(GmiError::NoSuchCache(pub_cache(cache)))?;
            if c.pages.contains_key(&page_off) {
                return Ok(());
            }
            (c.fully_backed, c.segment)
        };
        if need_pull {
            let segment = segment.expect("fully backed without segment");
            let ps = self.state.lock().geom.page_size();
            self.seg_mgr.submit_pull(
                self,
                &PullRequest {
                    cache: pub_cache(cache),
                    segment,
                    offset: page_off,
                    size: ps,
                    access: Access::Read,
                },
            )?;
            let mut s = self.state.lock();
            s.stats.pull_ins += 1;
            s.model_io(1);
            if !s
                .caches
                .get(cache)
                .map(|c| c.pages.contains_key(&page_off))
                .unwrap_or(false)
            {
                return Err(GmiError::SegmentIo {
                    segment,
                    cause: "pullIn returned without fillUp".into(),
                    transient: true,
                });
            }
            Ok(())
        } else {
            let mut s = self.state.lock();
            if s.caches
                .get(cache)
                .map(|c| c.pages.contains_key(&page_off))
                .unwrap_or(false)
            {
                return Ok(());
            }
            let frame = s.phys.alloc().ok_or(GmiError::OutOfMemory)?;
            s.phys.zero(frame);
            s.stats.zero_fills += 1;
            let c = s
                .caches
                .get_mut(cache)
                .ok_or(GmiError::NoSuchCache(pub_cache(cache)))?;
            c.pages.insert(
                page_off,
                RtPage {
                    frame,
                    dirty: false,
                },
            );
            Ok(())
        }
    }
}

impl RtState {
    fn ps(&self) -> u64 {
        self.geom.page_size()
    }

    fn model_io(&self, pages: u64) {
        self.phys.cost_model().charge(OpKind::IpcOp);
        self.phys
            .cost_model()
            .charge_n(OpKind::SegmentIoPage, pages);
    }

    fn cache(&self, k: Id<RtCache>) -> Result<&RtCache> {
        self.caches
            .get(k)
            .ok_or(GmiError::NoSuchCache(pub_cache(k)))
    }

    fn find_region(&self, ctx: Id<RtContext>, va: VirtAddr) -> Result<Id<RtRegion>> {
        let c = self
            .contexts
            .get(ctx)
            .ok_or(GmiError::NoSuchContext(pub_ctx(ctx)))?;
        c.regions
            .iter()
            .copied()
            .find(|&r| {
                self.regions
                    .get(r)
                    .map(|rd| va >= rd.addr && va.0 < rd.addr.0 + rd.size)
                    .unwrap_or(false)
            })
            .ok_or(GmiError::SegmentationFault {
                ctx: pub_ctx(ctx),
                va,
                access: Access::Read,
            })
    }
}

impl CacheIo for MinimalMm {
    fn fill_up(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let key = cache_key(cache);
        let mut s = self.state.lock();
        let ps = s.ps();
        let mut cur = 0u64;
        while cur < data.len() as u64 {
            let page_off = offset + cur;
            let n = ps.min(data.len() as u64 - cur);
            if !s.cache(key)?.pages.contains_key(&page_off) {
                let frame = s.phys.alloc().ok_or(GmiError::OutOfMemory)?;
                s.phys.zero(frame);
                s.phys
                    .write(frame, 0, &data[cur as usize..(cur + n) as usize]);
                s.caches.get_mut(key).expect("checked above").pages.insert(
                    page_off,
                    RtPage {
                        frame,
                        dirty: false,
                    },
                );
            }
            cur += n;
        }
        Ok(())
    }

    fn copy_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = cache_key(cache);
        let s = self.state.lock();
        let ps = s.ps();
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let o = offset + cur;
            let page_off = s.geom.round_down(o);
            let in_page = (page_off + ps - o).min(buf.len() as u64 - cur);
            let page = s
                .cache(key)?
                .pages
                .get(&page_off)
                .ok_or(GmiError::OutOfRange {
                    offset: page_off,
                    size: ps,
                    what: "copyBack",
                })?;
            s.phys.read(
                page.frame,
                o - page_off,
                &mut buf[cur as usize..(cur + in_page) as usize],
            );
            cur += in_page;
        }
        Ok(())
    }

    fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.copy_back(cache, offset, buf)
    }
}

impl Gmi for MinimalMm {
    fn cache_create(&self, segment: Option<SegmentId>) -> Result<CacheId> {
        let mut s = self.state.lock();
        s.phys.cost_model().charge(OpKind::ObjectCreate);
        Ok(pub_cache(s.caches.insert(RtCache {
            segment,
            fully_backed: segment.is_some(),
            ..RtCache::default()
        })))
    }

    fn cache_destroy(&self, cache: CacheId) -> Result<()> {
        let key = cache_key(cache);
        // Write dirty permanent data back first.
        self.cache_sync(cache, 0, u64::MAX)?;
        let mut s = self.state.lock();
        let c = s.caches.get(key).ok_or(GmiError::NoSuchCache(cache))?;
        if c.mapped_regions > 0 {
            return Err(GmiError::InvalidArgument("destroying a mapped cache"));
        }
        let pages = s.caches.remove(key).expect("checked above").pages;
        for (_, p) in pages {
            s.phys.release(p.frame);
        }
        Ok(())
    }

    fn cache_copy_with(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
        _mode: CopyMode,
    ) -> Result<()> {
        // The minimal MM copies eagerly whatever the hint: deterministic
        // cost, no deferred machinery (real-time trade-off).
        if size == 0 {
            return Ok(());
        }
        if src == dst {
            let (a, b) = (src_offset, src_offset + size);
            let (c, d) = (dst_offset, dst_offset + size);
            if a < d && c < b {
                return Err(GmiError::InvalidArgument("overlapping eager copy"));
            }
        }
        let mut buf = vec![0u8; size as usize];
        self.cache_read(src, src_offset, &mut buf)?;
        self.cache_write(dst, dst_offset, &buf)?;
        let pages = {
            let s = self.state.lock();
            s.geom.pages_for(size)
        };
        self.state.lock().stats.eager_copied_pages += pages;
        Ok(())
    }

    fn cache_move(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
    ) -> Result<()> {
        self.cache_copy_with(src, src_offset, dst, dst_offset, size, CopyMode::Eager)
    }

    fn cache_read(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = cache_key(cache);
        let (ps, geom) = {
            let s = self.state.lock();
            (s.ps(), s.geom)
        };
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let o = offset + cur;
            let page_off = geom.round_down(o);
            let in_page = (page_off + ps - o).min(buf.len() as u64 - cur);
            // Only materialize pages that exist somewhere; absent
            // anonymous pages read as zeroes without allocating.
            let resident_or_backed = {
                let s = self.state.lock();
                let c = s.cache(key)?;
                c.pages.contains_key(&page_off) || c.fully_backed
            };
            if resident_or_backed {
                self.ensure_resident(key, page_off)?;
                let s = self.state.lock();
                let page = &s.cache(key)?.pages[&page_off];
                s.phys.read(
                    page.frame,
                    o - page_off,
                    &mut buf[cur as usize..(cur + in_page) as usize],
                );
            } else {
                buf[cur as usize..(cur + in_page) as usize].fill(0);
            }
            cur += in_page;
        }
        Ok(())
    }

    fn cache_write(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let key = cache_key(cache);
        let (ps, geom) = {
            let s = self.state.lock();
            (s.ps(), s.geom)
        };
        let mut cur = 0u64;
        while cur < data.len() as u64 {
            let o = offset + cur;
            let page_off = geom.round_down(o);
            let in_page = (page_off + ps - o).min(data.len() as u64 - cur);
            self.ensure_resident(key, page_off)?;
            let mut s = self.state.lock();
            let page = s
                .caches
                .get_mut(key)
                .ok_or(GmiError::NoSuchCache(cache))?
                .pages
                .get_mut(&page_off)
                .expect("just ensured");
            page.dirty = true;
            let frame = page.frame;
            s.phys.write(
                frame,
                o - page_off,
                &data[cur as usize..(cur + in_page) as usize],
            );
            s.phys.cost_model().charge(OpKind::BcopyPage);
            cur += in_page;
        }
        Ok(())
    }

    fn context_create(&self) -> Result<CtxId> {
        let mut s = self.state.lock();
        let mmu_ctx = s.mmu.ctx_create();
        Ok(pub_ctx(s.contexts.insert(RtContext {
            mmu_ctx,
            regions: Vec::new(),
        })))
    }

    fn context_destroy(&self, ctx: CtxId) -> Result<()> {
        let key = ctx_key(ctx);
        let regions = {
            let s = self.state.lock();
            s.contexts
                .get(key)
                .ok_or(GmiError::NoSuchContext(ctx))?
                .regions
                .clone()
        };
        for r in regions {
            let _ = self.region_unlock(pub_region(r));
            self.region_destroy(pub_region(r))?;
        }
        let mut s = self.state.lock();
        let c = s.contexts.remove(key).ok_or(GmiError::NoSuchContext(ctx))?;
        s.mmu.ctx_destroy(c.mmu_ctx);
        Ok(())
    }

    fn context_switch(&self, ctx: CtxId) -> Result<()> {
        let mut s = self.state.lock();
        let mmu_ctx = s
            .contexts
            .get(ctx_key(ctx))
            .ok_or(GmiError::NoSuchContext(ctx))?
            .mmu_ctx;
        s.mmu.switch(mmu_ctx);
        Ok(())
    }

    fn region_list(&self, ctx: CtxId) -> Result<Vec<(RegionId, RegionStatus)>> {
        let s = self.state.lock();
        let c = s
            .contexts
            .get(ctx_key(ctx))
            .ok_or(GmiError::NoSuchContext(ctx))?;
        c.regions
            .iter()
            .map(|&r| {
                let rd = s.regions.get(r).expect("dead region listed");
                Ok((pub_region(r), status_of(&s, rd)))
            })
            .collect()
    }

    fn find_region(&self, ctx: CtxId, va: VirtAddr) -> Result<RegionId> {
        let s = self.state.lock();
        s.find_region(ctx_key(ctx), va).map(pub_region)
    }

    fn region_create(
        &self,
        ctx: CtxId,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        cache: CacheId,
        offset: u64,
    ) -> Result<RegionId> {
        let mut s = self.state.lock();
        for (v, what) in [
            (addr.0, "region address"),
            (size, "region size"),
            (offset, "offset"),
        ] {
            if !s.geom.is_aligned(v) {
                return Err(GmiError::Unaligned { value: v, what });
            }
        }
        if size == 0 {
            return Err(GmiError::InvalidArgument("zero-size region"));
        }
        let ckey = cache_key(cache);
        s.cache(ckey)?;
        let ctx_k = ctx_key(ctx);
        let overlap = {
            let c = s.contexts.get(ctx_k).ok_or(GmiError::NoSuchContext(ctx))?;
            c.regions.iter().any(|&r| {
                s.regions
                    .get(r)
                    .map(|rd| rd.addr.0 < addr.0 + size && addr.0 < rd.addr.0 + rd.size)
                    .unwrap_or(false)
            })
        };
        if overlap {
            return Err(GmiError::RegionOverlap { ctx, addr, size });
        }
        let key = s.regions.insert(RtRegion {
            ctx: ctx_k,
            addr,
            size,
            prot,
            cache: ckey,
            offset,
            locked: false,
        });
        s.contexts
            .get_mut(ctx_k)
            .expect("ctx vanished")
            .regions
            .push(key);
        s.caches
            .get_mut(ckey)
            .expect("cache vanished")
            .mapped_regions += 1;
        s.phys.cost_model().charge(OpKind::RegionCreate);
        Ok(pub_region(key))
    }

    fn region_split(&self, region: RegionId, offset: u64) -> Result<RegionId> {
        let mut s = self.state.lock();
        if !s.geom.is_aligned(offset) {
            return Err(GmiError::Unaligned {
                value: offset,
                what: "split offset",
            });
        }
        let key = region_key(region);
        let (ctx, addr, size, prot, cache, base_off, locked) = {
            let r = s.regions.get(key).ok_or(GmiError::NoSuchRegion(region))?;
            (r.ctx, r.addr, r.size, r.prot, r.cache, r.offset, r.locked)
        };
        if offset == 0 || offset >= size {
            return Err(GmiError::OutOfRange {
                offset,
                size: 0,
                what: "region split",
            });
        }
        let upper = s.regions.insert(RtRegion {
            ctx,
            addr: VirtAddr(addr.0 + offset),
            size: size - offset,
            prot,
            cache,
            offset: base_off + offset,
            locked,
        });
        s.regions.get_mut(key).expect("region vanished").size = offset;
        s.contexts
            .get_mut(ctx)
            .expect("dead ctx")
            .regions
            .push(upper);
        s.caches.get_mut(cache).expect("dead cache").mapped_regions += 1;
        Ok(pub_region(upper))
    }

    fn region_set_protection(&self, region: RegionId, prot: Prot) -> Result<()> {
        let mut s = self.state.lock();
        let key = region_key(region);
        let (ctx, addr, size) = {
            let r = s
                .regions
                .get_mut(key)
                .ok_or(GmiError::NoSuchRegion(region))?;
            r.prot = prot;
            (r.ctx, r.addr, r.size)
        };
        let mmu_ctx = s.contexts.get(ctx).expect("dead ctx").mmu_ctx;
        let (lo, hi) = (s.geom.vpn(addr), s.geom.vpn(VirtAddr(addr.0 + size - 1)));
        let mut vpn = lo;
        while vpn <= hi {
            s.mmu.protect(mmu_ctx, vpn, prot);
            vpn = vpn.next();
        }
        Ok(())
    }

    fn region_lock_in_memory(&self, region: RegionId) -> Result<()> {
        // Everything is always resident: materialize the whole region.
        let (ctx, addr, size) = {
            let s = self.state.lock();
            let r = s
                .regions
                .get(region_key(region))
                .ok_or(GmiError::NoSuchRegion(region))?;
            (pub_ctx(r.ctx), r.addr, r.size)
        };
        let ps = self.geometry().page_size();
        for i in 0..size / ps {
            self.handle_fault(ctx, VirtAddr(addr.0 + i * ps), Access::Read)?;
        }
        let mut s = self.state.lock();
        s.regions
            .get_mut(region_key(region))
            .expect("region vanished")
            .locked = true;
        Ok(())
    }

    fn region_unlock(&self, region: RegionId) -> Result<()> {
        let mut s = self.state.lock();
        if let Some(r) = s.regions.get_mut(region_key(region)) {
            r.locked = false;
            Ok(())
        } else {
            Err(GmiError::NoSuchRegion(region))
        }
    }

    fn region_status(&self, region: RegionId) -> Result<RegionStatus> {
        let s = self.state.lock();
        let r = s
            .regions
            .get(region_key(region))
            .ok_or(GmiError::NoSuchRegion(region))?;
        Ok(status_of(&s, r))
    }

    fn region_destroy(&self, region: RegionId) -> Result<()> {
        let mut s = self.state.lock();
        let key = region_key(region);
        let (ctx, addr, size, cache, locked) = {
            let r = s.regions.get(key).ok_or(GmiError::NoSuchRegion(region))?;
            (r.ctx, r.addr, r.size, r.cache, r.locked)
        };
        if locked {
            return Err(GmiError::Locked);
        }
        let mmu_ctx = s.contexts.get(ctx).expect("dead ctx").mmu_ctx;
        let (lo, hi) = (s.geom.vpn(addr), s.geom.vpn(VirtAddr(addr.0 + size - 1)));
        let mut vpn = lo;
        while vpn <= hi {
            s.mmu.unmap(mmu_ctx, vpn);
            vpn = vpn.next();
        }
        s.phys
            .cost_model()
            .charge_n(OpKind::VaInvalidatePage, s.geom.pages_for(size));
        s.regions.remove(key);
        if let Some(c) = s.contexts.get_mut(ctx) {
            c.regions.retain(|&r| r != key);
        }
        s.caches.get_mut(cache).expect("dead cache").mapped_regions -= 1;
        s.phys.cost_model().charge(OpKind::RegionDestroy);
        Ok(())
    }

    fn cache_flush(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        self.cache_sync(cache, offset, size)?;
        let key = cache_key(cache);
        let mut s = self.state.lock();
        let end = offset.saturating_add(size);
        let offsets: Vec<u64> = s
            .cache(key)?
            .pages
            .range(offset..end)
            .map(|(&o, _)| o)
            .collect();
        // Flushing is only meaningful for backed caches; anonymous data
        // has nowhere to go and stays (fully-resident semantics).
        if s.cache(key)?.fully_backed {
            for o in offsets {
                let page = s
                    .caches
                    .get_mut(key)
                    .expect("checked")
                    .pages
                    .remove(&o)
                    .expect("listed");
                s.phys.release(page.frame);
            }
        }
        Ok(())
    }

    fn cache_sync(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        loop {
            let (segment, dirty_off, ps) = {
                let s = self.state.lock();
                let c = match s.caches.get(key) {
                    Some(c) => c,
                    None => return Err(GmiError::NoSuchCache(cache)),
                };
                let end = offset.saturating_add(size);
                let dirty = c
                    .pages
                    .range(offset..end)
                    .find(|(_, p)| p.dirty)
                    .map(|(&o, _)| o);
                match (dirty, c.segment) {
                    (None, _) => return Ok(()),
                    (Some(_), None) => return Ok(()), // Anonymous: nothing to sync to.
                    (Some(o), Some(seg)) => (seg, o, s.ps()),
                }
            };
            self.seg_mgr.submit_push(
                self,
                &PushRequest {
                    cache,
                    segment,
                    offset: dirty_off,
                    size: ps,
                },
            )?;
            let mut s = self.state.lock();
            s.stats.push_outs += 1;
            s.model_io(1);
            if let Some(c) = s.caches.get_mut(key) {
                if let Some(p) = c.pages.get_mut(&dirty_off) {
                    p.dirty = false;
                }
            }
        }
    }

    fn cache_invalidate(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        let mut s = self.state.lock();
        let end = offset.saturating_add(size);
        let offsets: Vec<u64> = s
            .cache(key)?
            .pages
            .range(offset..end)
            .map(|(&o, _)| o)
            .collect();
        for o in offsets {
            let page = s
                .caches
                .get_mut(key)
                .expect("checked")
                .pages
                .remove(&o)
                .expect("listed");
            s.phys.release(page.frame);
        }
        Ok(())
    }

    fn cache_set_protection(&self, _c: CacheId, _o: u64, _s: u64, _p: Prot) -> Result<()> {
        Err(GmiError::Unsupported("minimal MM has no coherence control"))
    }

    fn cache_lock_in_memory(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        // Pull everything resident; it stays (no pageout exists).
        let ps = self.geometry().page_size();
        let base = {
            let s = self.state.lock();
            s.geom.round_down(offset)
        };
        for k in 0..size.div_ceil(ps) {
            self.ensure_resident(cache_key(cache), base + k * ps)?;
        }
        Ok(())
    }

    fn cache_unlock(&self, _cache: CacheId, _offset: u64, _size: u64) -> Result<()> {
        Ok(())
    }

    fn handle_fault(&self, ctx: CtxId, va: VirtAddr, access: Access) -> Result<()> {
        let ctx_k = ctx_key(ctx);
        let (cache, page_off, vpn, prot, mmu_ctx) = {
            let mut s = self.state.lock();
            s.stats.faults += 1;
            s.phys.cost_model().charge(OpKind::FaultEntry);
            let reg = s
                .find_region(ctx_k, va)
                .map_err(|_| GmiError::SegmentationFault { ctx, va, access })?;
            let r = s.regions.get(reg).expect("found region");
            if !r.prot.allows(access, false) {
                return Err(GmiError::ProtectionViolation { ctx, va, access });
            }
            let off = s.geom.round_down(r.offset + (va.0 - r.addr.0));
            let mmu_ctx = s.contexts.get(ctx_k).expect("dead ctx").mmu_ctx;
            (r.cache, off, s.geom.vpn(va), r.prot, mmu_ctx)
        };
        self.ensure_resident(cache, page_off)?;
        let mut s = self.state.lock();
        let page = &mut s
            .caches
            .get_mut(cache)
            .ok_or(GmiError::NoSuchCache(pub_cache(cache)))?
            .pages;
        let entry = page.get_mut(&page_off).expect("just ensured");
        // Writable mappings mark the page dirty eagerly (no write faults
        // later: bounded latency).
        if prot.contains(Prot::WRITE) {
            entry.dirty = true;
        }
        let frame = entry.frame;
        s.mmu.map(mmu_ctx, vpn, frame, prot);
        Ok(())
    }

    fn vm_read(&self, ctx: CtxId, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.vm_access(
            ctx,
            va,
            Access::Read,
            buf.len(),
            |s, pa, range, b: &mut &mut [u8]| {
                s.phys.read_phys(pa, &mut b[range]);
            },
            buf,
        )
    }

    fn vm_write(&self, ctx: CtxId, va: VirtAddr, data: &[u8]) -> Result<()> {
        self.vm_access(
            ctx,
            va,
            Access::Write,
            data.len(),
            |s, pa, range, d: &mut &[u8]| {
                s.phys.write_phys(pa, &d[range]);
            },
            data,
        )
    }

    fn geometry(&self) -> PageGeometry {
        self.state.lock().geom
    }

    fn cache_resident_pages(&self, cache: CacheId) -> Result<u64> {
        let s = self.state.lock();
        Ok(s.cache(cache_key(cache))?.pages.len() as u64)
    }
}

impl MinimalMm {
    fn vm_access<B>(
        &self,
        ctx: CtxId,
        va: VirtAddr,
        access: Access,
        len: usize,
        apply: impl Fn(&mut RtState, chorus_hal::PhysAddr, core::ops::Range<usize>, &mut B),
        mut buf: B,
    ) -> Result<()> {
        let key = ctx_key(ctx);
        let ps = self.geometry().page_size();
        let mut cur = 0u64;
        while cur < len as u64 {
            let addr = VirtAddr(va.0 + cur);
            let n = (ps - addr.0 % ps).min(len as u64 - cur) as usize;
            loop {
                let mut s = self.state.lock();
                let mmu_ctx = s
                    .contexts
                    .get(key)
                    .ok_or(GmiError::NoSuchContext(ctx))?
                    .mmu_ctx;
                match s.mmu.translate(mmu_ctx, addr, access, false) {
                    Ok(pa) => {
                        apply(&mut s, pa, cur as usize..cur as usize + n, &mut buf);
                        break;
                    }
                    Err(_) => {
                        drop(s);
                        self.handle_fault(ctx, addr, access)?;
                    }
                }
            }
            cur += n as u64;
        }
        Ok(())
    }
}

fn status_of(s: &RtState, r: &RtRegion) -> RegionStatus {
    let resident = s
        .caches
        .get(r.cache)
        .map(|c| c.pages.range(r.offset..r.offset + r.size).count() as u64)
        .unwrap_or(0);
    RegionStatus {
        addr: r.addr,
        size: r.size,
        prot: r.prot,
        cache: pub_cache(r.cache),
        offset: r.offset,
        locked: r.locked,
        resident_pages: resident,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_gmi::testing::MemSegmentManager;

    const PS: u64 = 256;

    fn mm(frames: u32) -> (MinimalMm, Arc<MemSegmentManager>) {
        let mgr = Arc::new(MemSegmentManager::new());
        (
            MinimalMm::new(
                MinimalOptions {
                    geometry: PageGeometry::new(PS),
                    frames,
                    cost: CostParams::zero(),
                },
                mgr.clone(),
            ),
            mgr,
        )
    }

    #[test]
    fn zero_fill_and_roundtrip() {
        let (mm, _) = mm(16);
        let ctx = mm.context_create().unwrap();
        let cache = mm.cache_create(None).unwrap();
        mm.region_create(ctx, VirtAddr(0x1000), 4 * PS, Prot::RW, cache, 0)
            .unwrap();
        let mut buf = vec![1u8; 8];
        mm.vm_read(ctx, VirtAddr(0x1000), &mut buf).unwrap();
        assert_eq!(buf, vec![0; 8]);
        mm.vm_write(ctx, VirtAddr(0x1000 + 100), b"rt data")
            .unwrap();
        let mut got = vec![0u8; 7];
        mm.vm_read(ctx, VirtAddr(0x1000 + 100), &mut got).unwrap();
        assert_eq!(&got, b"rt data");
    }

    #[test]
    fn eager_copy_isolates_immediately() {
        let (mm, _) = mm(32);
        let a = mm.cache_create(None).unwrap();
        mm.cache_write(a, 0, &[7u8; 512]).unwrap();
        let b = mm.cache_create(None).unwrap();
        mm.cache_copy(a, 0, b, 0, 2 * PS).unwrap();
        assert!(
            mm.stats().eager_copied_pages >= 2,
            "no deferral in the minimal MM"
        );
        mm.cache_write(a, 0, &[9u8; 4]).unwrap();
        let mut buf = vec![0u8; 4];
        mm.cache_read(b, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 4]);
    }

    #[test]
    fn mapped_segment_pull_and_sync() {
        let (mm, mgr) = mm(16);
        let seg = mgr.create_segment(&[0x42u8; 512]);
        let cache = mm.cache_create(Some(seg)).unwrap();
        let ctx = mm.context_create().unwrap();
        mm.region_create(ctx, VirtAddr(0), 2 * PS, Prot::RW, cache, 0)
            .unwrap();
        let mut buf = vec![0u8; 4];
        mm.vm_read(ctx, VirtAddr(PS), &mut buf).unwrap();
        assert_eq!(buf, vec![0x42; 4]);
        mm.vm_write(ctx, VirtAddr(0), b"sync me").unwrap();
        mm.cache_sync(cache, 0, 2 * PS).unwrap();
        assert_eq!(&mgr.segment_data(seg)[..7], b"sync me");
    }

    #[test]
    fn out_of_memory_is_immediate() {
        let (mm, _) = mm(2);
        let cache = mm.cache_create(None).unwrap();
        mm.cache_write(cache, 0, &[1]).unwrap();
        mm.cache_write(cache, PS, &[2]).unwrap();
        assert_eq!(
            mm.cache_write(cache, 2 * PS, &[3]).unwrap_err(),
            GmiError::OutOfMemory
        );
    }

    #[test]
    fn lock_in_memory_is_trivial() {
        let (mm, _) = mm(8);
        let ctx = mm.context_create().unwrap();
        let cache = mm.cache_create(None).unwrap();
        let r = mm
            .region_create(ctx, VirtAddr(0), 2 * PS, Prot::RW, cache, 0)
            .unwrap();
        mm.region_lock_in_memory(r).unwrap();
        assert_eq!(mm.region_status(r).unwrap().resident_pages, 2);
        assert!(mm.region_status(r).unwrap().locked);
        assert!(matches!(mm.region_destroy(r), Err(GmiError::Locked)));
        mm.region_unlock(r).unwrap();
        mm.region_destroy(r).unwrap();
    }

    #[test]
    fn copy_hints_are_ignored_uniformly() {
        let (mm, _) = mm(64);
        let a = mm.cache_create(None).unwrap();
        mm.cache_write(a, 0, &[3u8; 256]).unwrap();
        for mode in [
            CopyMode::Auto,
            CopyMode::HistoryCow,
            CopyMode::PerPage,
            CopyMode::HistoryCor,
        ] {
            let b = mm.cache_create(None).unwrap();
            mm.cache_copy_with(a, 0, b, 0, PS, mode).unwrap();
            let mut buf = vec![0u8; 4];
            mm.cache_read(b, 0, &mut buf).unwrap();
            assert_eq!(buf, vec![3u8; 4], "{mode:?}");
            mm.cache_destroy(b).unwrap();
        }
    }
}
