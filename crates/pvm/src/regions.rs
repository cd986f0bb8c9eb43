//! Context and region management (Table 2 operations).

use crate::descriptors::{ContextDesc, PageSet, RegionDesc, Slot};
use crate::keys::{CtxKey, PageKey, RegKey};
use crate::state::{Attempt, PvmState};
use chorus_gmi::{GmiError, RegionStatus, Result};
use chorus_hal::{OpKind, Prot, VirtAddr, Vpn};

impl PvmState {
    /// `contextCreate()`.
    pub fn context_create_locked(&mut self) -> CtxKey {
        let mmu_ctx = self.mmu.ctx_create();
        self.charge(OpKind::ObjectCreate);
        self.contexts.insert(ContextDesc {
            mmu_ctx,
            regions: Vec::new(),
        })
    }

    /// `context.destroy()`: destroys every region, then the translation
    /// context.
    pub fn context_destroy_locked(&mut self, ctx: CtxKey) -> Result<()> {
        let regions = self.ctx(ctx)?.regions.clone();
        for r in regions {
            // Locked regions are force-unlocked on context destruction.
            let _ = self.region_force_unlock(r);
            self.region_destroy_locked(r)?;
        }
        let desc = self.contexts.remove(ctx).expect("context vanished");
        self.mmu.ctx_destroy(desc.mmu_ctx);
        self.charge(OpKind::ObjectDestroy);
        if self.current == Some(ctx) {
            self.current = None;
        }
        Ok(())
    }

    /// `context.switch()`.
    pub fn context_switch_locked(&mut self, ctx: CtxKey) -> Result<()> {
        let mmu_ctx = self.ctx(ctx)?.mmu_ctx;
        self.mmu.switch(mmu_ctx);
        self.current = Some(ctx);
        Ok(())
    }

    /// `regionCreate(context, address, size, prot, cache, offset)`.
    pub fn region_create_locked(
        &mut self,
        ctx: CtxKey,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        cache: crate::keys::CacheKey,
        offset: u64,
    ) -> Result<RegKey> {
        self.check_aligned(addr.0, "region address")?;
        self.check_aligned(size, "region size")?;
        self.check_aligned(offset, "region segment offset")?;
        if size == 0 {
            return Err(GmiError::InvalidArgument("zero-size region"));
        }
        if addr.0.checked_add(size).is_none() {
            return Err(GmiError::InvalidArgument("region wraps the address space"));
        }
        self.cache(cache)?;
        let desc = self.ctx(ctx)?;
        // Find the insertion point in the sorted, non-overlapping list
        // and check both neighbours for overlap.
        let idx = desc
            .regions
            .partition_point(|&r| self.regions.get(r).map(|d| d.addr < addr).unwrap_or(false));
        let overlap = |k: Option<&RegKey>| -> bool {
            k.and_then(|&k| self.regions.get(k))
                .map(|d| d.addr.0 < addr.0 + size && addr.0 < d.end().0)
                .unwrap_or(false)
        };
        if overlap(desc.regions.get(idx)) || (idx > 0 && overlap(desc.regions.get(idx - 1))) {
            return Err(GmiError::RegionOverlap {
                ctx: crate::keys::pub_ctx(ctx),
                addr,
                size,
            });
        }
        let key = self.regions.insert(RegionDesc {
            ctx,
            addr,
            size,
            prot,
            cache,
            offset,
            locked: false,
            pinned: PageSet::new(self.ps()),
        });
        self.ctx_mut(ctx)?.regions.insert(idx, key);
        self.cache_mut(cache)?.mapped_regions += 1;
        self.charge(OpKind::RegionCreate);
        Ok(key)
    }

    /// `region.destroy()`: invalidates the region's portion of the
    /// virtual address space and unmaps its pages.
    pub fn region_destroy_locked(&mut self, reg: RegKey) -> Result<()> {
        let region = self.region(reg)?.clone();
        if region.locked {
            return Err(GmiError::Locked);
        }
        self.unmap_region_range(&region);
        // The paper: "destruction requires the invalidation of the
        // corresponding portion of the virtual address space" — the one
        // size-dependent cost of region teardown.
        self.charge_n(OpKind::VaInvalidatePage, self.geom.pages_for(region.size));
        let ctx = region.ctx;
        if let Ok(c) = self.ctx_mut(ctx) {
            c.regions.retain(|&r| r != reg);
        }
        self.regions.remove(reg);
        if let Ok(c) = self.cache_mut(region.cache) {
            c.mapped_regions -= 1;
        }
        self.charge(OpKind::RegionDestroy);
        self.collapse_if_possible(region.cache);
        Ok(())
    }

    /// The resident mappings inside a region, as (page, vpn) pairs in
    /// vpn order: what its context's MMU table holds in the region's
    /// range. The cost follows the pages mapped there, never the
    /// region's size or the pool.
    fn region_mappings(&self, region: &RegionDesc) -> Vec<(PageKey, Vpn)> {
        let Ok(ctx) = self.ctx(region.ctx) else {
            return Vec::new();
        };
        let lo = self.geom.vpn(region.addr);
        let hi = self.geom.vpn(VirtAddr(region.addr.0 + region.size - 1));
        self.mmu
            .mapped_in(ctx.mmu_ctx, lo, hi)
            .into_iter()
            .filter_map(|(vpn, frame)| Some((self.frame_owner[frame.0 as usize]?, vpn)))
            .collect()
    }

    /// Removes every MMU mapping inside a region.
    fn unmap_region_range(&mut self, region: &RegionDesc) {
        for (_page, vpn) in self.region_mappings(region) {
            self.unmap_va(region.ctx, vpn);
        }
    }

    /// `region.split(offset)`: cuts the region at `offset` (relative to
    /// its start), returning the upper part.
    pub fn region_split_locked(&mut self, reg: RegKey, offset: u64) -> Result<RegKey> {
        self.check_aligned(offset, "split offset")?;
        let region = self.region(reg)?.clone();
        if offset == 0 || offset >= region.size {
            return Err(GmiError::OutOfRange {
                offset,
                size: 0,
                what: "region split",
            });
        }
        // A locked region's pins are split with it: each half keeps the
        // pins of the offsets it still covers, so each half's later
        // unlock releases exactly its own pins.
        let mut lower_pinned = region.pinned;
        let upper_pinned = lower_pinned.split_off(region.offset + offset);
        let upper = RegionDesc {
            ctx: region.ctx,
            addr: VirtAddr(region.addr.0 + offset),
            size: region.size - offset,
            prot: region.prot,
            cache: region.cache,
            offset: region.offset + offset,
            locked: region.locked,
            pinned: upper_pinned,
        };
        let upper_key = self.regions.insert(upper);
        {
            let lower = self.region_mut(reg)?;
            lower.size = offset;
            lower.pinned = lower_pinned;
        }
        let ctx = region.ctx;
        let desc = self.ctx(ctx)?;
        let idx = desc
            .regions
            .iter()
            .position(|&r| r == reg)
            .expect("region not in its context");
        self.ctx_mut(ctx)?.regions.insert(idx + 1, upper_key);
        self.cache_mut(region.cache)?.mapped_regions += 1;
        self.charge(OpKind::DescriptorOp);
        Ok(upper_key)
    }

    /// `region.setProtection(prot)`: changes the protection of the whole
    /// region and re-protects the affected resident mappings.
    pub fn region_set_protection_locked(&mut self, reg: RegKey, prot: Prot) -> Result<()> {
        let region = {
            let r = self.region_mut(reg)?;
            r.prot = prot;
            r.clone()
        };
        let mut pages: Vec<PageKey> = self
            .region_mappings(&region)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        // A page copied within its own cache is mapped at two addresses
        // of one region; it is re-protected (and charged) once.
        pages.sort_unstable();
        pages.dedup();
        for p in pages {
            self.reprotect_mappings(p);
        }
        Ok(())
    }

    /// `region.lockInMemory()`: one attempt; pins pages one by one and
    /// records progress in the region flag only once complete.
    pub fn region_lock_attempt(&mut self, reg: RegKey) -> Attempt<()> {
        let region = self.region(reg)?.clone();
        if region.locked {
            return Ok(());
        }
        let writable = region.prot.contains(Prot::WRITE);
        let pages = self.geom.pages_for(region.size);
        for i in 0..pages {
            let va = VirtAddr(region.addr.0 + i * self.ps());
            let off = self.geom.round_down(region.va_to_offset(va));
            // Skip pages this region already pinned in a previous
            // (blocked) attempt. The pin is recorded per region, so a
            // page locked by *another* region still receives one more
            // pin here — nested locks balance (each unlock releases
            // only its own region's pin).
            if region.pinned.contains(off) {
                continue;
            }
            self.lock_one_page(region.ctx, va, writable)?;
            self.region_mut(reg)?.pinned.insert(off);
        }
        self.region_mut(reg)?.locked = true;
        Ok(())
    }

    /// `region.unlock()`.
    pub fn region_unlock_locked(&mut self, reg: RegKey) -> Result<()> {
        self.region_force_unlock(reg)
    }

    /// Releases every pin this region holds (also those left by a lock
    /// attempt that failed part-way) and clears its flag.
    pub fn region_force_unlock(&mut self, reg: RegKey) -> Result<()> {
        let region = self.region(reg)?.clone();
        for off in region.pinned.iter() {
            self.unlock_one_page(region.cache, off)?;
        }
        let desc = self.region_mut(reg)?;
        desc.pinned.clear();
        desc.locked = false;
        Ok(())
    }

    /// `region.status()`.
    pub fn region_status_locked(&self, reg: RegKey) -> Result<RegionStatus> {
        let region = self.region(reg)?;
        let cache = self.cache(region.cache)?;
        let resident = cache
            .entries
            .range(region.offset..region.offset + region.size)
            .filter(|&o| matches!(self.gmap.get(region.cache, o), Some(Slot::Present(_))))
            .count() as u64;
        Ok(RegionStatus {
            addr: region.addr,
            size: region.size,
            prot: region.prot,
            cache: crate::keys::pub_cache(region.cache),
            offset: region.offset,
            locked: region.locked,
            resident_pages: resident,
        })
    }
}
