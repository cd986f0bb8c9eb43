//! Large-page promotion and demotion over the buddy frame tier.
//!
//! With `PvmConfig::large_pages` on and an MMU back-end that supports a
//! large level, a fully-resident, physically-contiguous, uniformly
//! protected and aligned run of `PageGeometry::large_factor()` base
//! pages is *promoted*: one large MMU mapping is installed on top of the
//! base mappings, so sequential accesses translate through a single
//! entry and never re-enter the fault path. Promotion is additive — the
//! base mappings stay — and any event that could invalidate the run (a
//! global-map slot change, an unmap, a reprotect, a cleaning pass)
//! *demotes* it by removing only the large mapping; the base level then
//! carries on as before.
//!
//! Physical contiguity comes from the buddy allocator: a pull whose
//! window lands exactly on a large-aligned full run reserves one
//! contiguous pre-zeroed frame run up front
//! ([`PvmState::reserve_pull_run`]), and `fillUp` fills the reserved
//! frames in place. Every hook early-returns on an empty record list,
//! so the machinery costs one branch when the feature is off.

use crate::descriptors::{RegionDesc, Slot};
use crate::engine::Parked;
use crate::keys::{CacheKey, CtxKey};
use crate::state::PvmState;
use crate::stats::Counter;
use crate::trace::TraceEvent;
use chorus_hal::{FrameNo, Prot, VirtAddr, Vpn};

/// One installed large mapping (a promotion record).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LargeMap {
    /// Context owning the mapping.
    pub ctx: CtxKey,
    /// Large virtual page number ([`chorus_hal::PageGeometry::large_vpn`]).
    pub lvpn: Vpn,
    /// Cache backing the run.
    pub cache: CacheKey,
    /// Cache byte offset of the run's first page.
    pub offset: u64,
    /// First frame of the physically contiguous run.
    pub base_frame: FrameNo,
}

impl PvmState {
    // ----- promotion --------------------------------------------------------

    /// Called after a page was mapped at (ctx, vpn): if the whole large
    /// page around it is resident, physically contiguous and uniformly
    /// protected, installs a large mapping over the run. The per-page
    /// walk probes the global map directly (uncharged) — this is a
    /// knob-on optimization pass, not a modelled hardware walk; the one
    /// modelled charge is the `MapPage` of the large entry itself.
    pub(crate) fn maybe_promote(&mut self, ctx: CtxKey, vpn: Vpn, region: &RegionDesc) {
        if !self.config.large_pages || !self.mmu.supports_large() {
            return;
        }
        let factor = self.geom.large_factor();
        let ps = self.ps();
        let large = self.geom.large_page_size();
        let va_base = VirtAddr(self.geom.round_down_large(self.geom.base(vpn).0));
        let lvpn = self.geom.large_vpn(va_base);
        // The whole window must sit inside this one region, and the
        // backing run must start large-aligned in the cache's offset
        // space (matching the reservation granule).
        if va_base < region.addr || va_base.0 + large > region.end().0 {
            return;
        }
        let cache = region.cache;
        let off_base = region.va_to_offset(va_base);
        if !self.geom.is_large_aligned(off_base) {
            return;
        }
        if self
            .large_maps
            .iter()
            .any(|r| r.ctx == ctx && r.lvpn == lvpn)
        {
            return;
        }
        // Cheap residency screen before the per-page walk: the cache
        // must index every offset of the window.
        let Ok(desc) = self.cache(cache) else { return };
        if desc.entries.range(off_base..off_base + large).count() as u64 != factor {
            return;
        }
        let mut base_frame = FrameNo(0);
        let mut common_prot: Option<Prot> = None;
        for k in 0..factor {
            let off = off_base + k * ps;
            let Some(Slot::Present(p)) = self.gmap.get(cache, off) else {
                return;
            };
            let page = self.page(p);
            if page.cache != cache || page.cleaning {
                return;
            }
            if k == 0 {
                base_frame = page.frame;
            } else if u64::from(page.frame.0) != u64::from(base_frame.0) + k {
                return;
            }
            // The prot a base mapping of this page would carry (the
            // no-dirty-bit discipline: clean pages map read-only so the
            // first write faults and sets the dirty flag).
            let mut eff = page.effective_prot(region.prot);
            if !page.dirty {
                eff = eff.remove(Prot::WRITE);
            }
            match common_prot {
                None => common_prot = Some(eff),
                Some(c) if c == eff => {}
                Some(_) => return,
            }
        }
        let prot = common_prot.expect("factor >= 2 run with no pages");
        if prot.is_none() {
            return;
        }
        let Ok(cd) = self.ctx(ctx) else { return };
        let mmu_ctx = cd.mmu_ctx;
        if !self.mmu.map_large(mmu_ctx, lvpn, base_frame, prot) {
            return;
        }
        self.large_maps.push(LargeMap {
            ctx,
            lvpn,
            cache,
            offset: off_base,
            base_frame,
        });
        self.stats.bump(Counter::LargePromotions);
        self.trace.event(|| TraceEvent::LargePromote {
            ctx: ctx.index(),
            va: va_base.0,
            cache: cache.index(),
            offset: off_base,
        });
    }

    // ----- demotion ---------------------------------------------------------

    /// Removes the promotion record at `idx`: drops the large MMU
    /// mapping (the MMU charges the unmap) and counts the demotion.
    fn demote_record(&mut self, idx: usize) {
        let rec = self.large_maps.swap_remove(idx);
        if let Ok(cd) = self.ctx(rec.ctx) {
            let mmu_ctx = cd.mmu_ctx;
            self.mmu.unmap_large(mmu_ctx, rec.lvpn);
        }
        self.stats.bump(Counter::LargeDemotions);
        let va = rec.lvpn.0 * self.geom.large_page_size();
        self.trace.event(|| TraceEvent::LargeDemote {
            ctx: rec.ctx.index(),
            va,
        });
    }

    /// Demotes any large mapping of `ctx` covering base page `vpn`.
    /// Hooked into `unmap_va` and the per-mapping unmap loops.
    pub(crate) fn demote_covering_va(&mut self, ctx: CtxKey, vpn: Vpn) {
        if self.large_maps.is_empty() {
            return;
        }
        let lvpn = Vpn(vpn.0 / self.geom.large_factor());
        while let Some(i) = self
            .large_maps
            .iter()
            .position(|r| r.ctx == ctx && r.lvpn == lvpn)
        {
            self.demote_record(i);
        }
    }

    /// Demotes every large mapping whose backing run covers
    /// (cache, off). Hooked into the global-map slot mutators — any
    /// slot transition inside a promoted run invalidates it, so the
    /// mapping can never go stale.
    pub(crate) fn demote_covering_slot(&mut self, cache: CacheKey, off: u64) {
        if self.large_maps.is_empty() {
            return;
        }
        let large = self.geom.large_page_size();
        while let Some(i) = self
            .large_maps
            .iter()
            .position(|r| r.cache == cache && r.offset <= off && off < r.offset + large)
        {
            self.demote_record(i);
        }
    }

    /// Demotes every promotion backed by `cache` (quarantine path).
    pub(crate) fn demote_all_of_cache(&mut self, cache: CacheKey) {
        if self.large_maps.is_empty() {
            return;
        }
        while let Some(i) = self.large_maps.iter().position(|r| r.cache == cache) {
            self.demote_record(i);
        }
    }

    /// Drops every promotion record of a dying context. The MMU context
    /// teardown removes the large entries wholesale (and charges them),
    /// so only the records and counters are updated here.
    pub(crate) fn drop_large_maps_of_ctx(&mut self, ctx: CtxKey) {
        if self.large_maps.is_empty() {
            return;
        }
        let before = self.large_maps.len();
        self.large_maps.retain(|r| r.ctx != ctx);
        let dropped = (before - self.large_maps.len()) as u64;
        self.stats.add(Counter::LargeDemotions, dropped);
    }

    // ----- contiguous pull-run reservations ---------------------------------

    /// True if `[offset, offset + size)` of a cache is one aligned large
    /// page: the pull window a contiguous run is reserved for.
    pub(crate) fn is_large_window(&self, offset: u64, size: u64) -> bool {
        self.config.large_pages
            && size == self.geom.large_page_size()
            && self.geom.is_large_aligned(offset)
    }

    /// Reserves one physically contiguous pre-zeroed frame run for the
    /// large-aligned pull window starting at (cache, offset), parked per
    /// page offset so `fillUp` fills exact frames and the delivery lands
    /// them; a frame the mapper never fills goes back to the buddy pool
    /// with its page's delivery. Falls back silently (counted) when the
    /// buddy pool has no aligned run free — the pull proceeds with
    /// per-page allocation and the run simply cannot be promoted
    /// afterwards.
    pub(crate) fn reserve_pull_run(&mut self, cache: CacheKey, offset: u64) {
        let factor = self.geom.large_factor();
        let order = factor.trailing_zeros();
        match self.phys.alloc_run_zeroed(order) {
            Some(base) => {
                let ps = self.ps();
                for k in 0..factor {
                    let frame = FrameNo(base.0 + k as u32);
                    self.engine
                        .parked
                        .insert((cache, offset + k * ps), Parked::Reserved(frame));
                }
                self.stats.bump(Counter::LargeRunReserves);
            }
            None => {
                self.stats.bump(Counter::LargeRunFallbacks);
            }
        }
    }
}
