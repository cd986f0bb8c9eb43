//! Page-fault handling (§4.1.2) and the copy-on-write resolution paths.
//!
//! The flow follows the paper exactly: locate the region by searching the
//! faulting context's sorted region list; compute the fault offset in the
//! segment from the fault address, the region start address and the
//! region start offset; look the page up in the global map; then either
//! recover immediately (resident), sleep on a synchronization page stub
//! (in transit), resolve a copy-on-write stub (§4.3), or walk the history
//! tree / pull from the segment (§4.2).

use crate::config::IPC_MESSAGE_PAGES;
use crate::descriptors::{CowSource, Mapping, RegionDesc, Slot};
use crate::keys::{CtxKey, PageKey};
use crate::resolve::Version;
use crate::state::{blocked, Attempt, PvmState};
use crate::stats::Counter;
use crate::telemetry::At;
use crate::trace::{Resolution, TraceEvent};
use chorus_gmi::{GmiError, Result};
use chorus_hal::{Access, FrameNo, Prot, VirtAddr, Vpn};

impl PvmState {
    /// One locked attempt at resolving a fault; the driver in `pvm.rs`
    /// retries after performing any blocked action. Returns how the
    /// fault was resolved (recorded by the tracer at fault exit).
    ///
    /// `first` is true only on the first attempt of a client-visible
    /// fault: the fault is counted then, at its context and, once the
    /// region lookup this path does anyway resolves, at its cache
    /// (blocked retries and internal materialization calls pass false
    /// so a fault is counted exactly once).
    pub fn fault_attempt(
        &mut self,
        ctx: CtxKey,
        va: VirtAddr,
        access: Access,
        first: bool,
    ) -> Attempt<Resolution> {
        // Region lookup ("the PVM searches in its list of region
        // descriptors for the region containing the fault address").
        let found = self
            .find_region(ctx, va)
            .and_then(|k| self.region(k).cloned());
        if first {
            let cache = found.as_ref().ok().map(|r| r.cache);
            self.count(Counter::Faults, 1, At::Fault(ctx, cache));
        }
        let region: RegionDesc = found.map_err(|_| GmiError::SegmentationFault {
            ctx: crate::keys::pub_ctx(ctx),
            va,
            access,
        })?;
        if !region.prot.allows(access, false) {
            return Err(GmiError::ProtectionViolation {
                ctx: crate::keys::pub_ctx(ctx),
                va,
                access,
            }
            .into());
        }
        // Fault offset in the segment.
        let off = self.geom.round_down(region.va_to_offset(va));
        let vpn = self.geom.vpn(va);
        let cache = region.cache;
        // A quarantined cache answers every fault with a clean error —
        // including faulters that were asleep on a sync stub when the
        // permanent failure cleared it.
        self.check_not_poisoned(cache)?;

        // Global map lookup. A page in transit is waited for here when
        // the engine can deliver: simulated time, nothing to unlock
        // for, and nothing looked up so far goes stale by a delivery
        // (deeper in it would: there a wait is the driver's `WaitStub`
        // round, as is one on what the engine cannot deliver).
        let slot = loop {
            match self.slot(cache, off) {
                Some(Slot::Sync) => {
                    self.stats.bump(Counter::StubWaits);
                    self.trace.event(|| TraceEvent::StubWait {
                        cache: cache.index(),
                        offset: off,
                    });
                    if !self.await_page(cache, off) && !self.force_delivery(true) {
                        return blocked(crate::state::Blocked::WaitStub(cache, off));
                    }
                    if let Some(e) = self.take_demand_error((cache, off)) {
                        return Err(e.into());
                    }
                }
                slot => break slot,
            }
        };
        match slot {
            Some(Slot::Present(p)) => {
                if access == Access::Write && !self.page(p).write_allowed() {
                    self.promote_page(cache, off, p)?;
                }
                self.map_for_access(p, ctx, vpn, &region, access);
                if !region.prot.contains(Prot::WRITE) {
                    self.prefault_after(ctx, vpn, &region, off);
                }
                Ok(Resolution::Resident)
            }
            Some(Slot::Sync) => unreachable!("waited out above"),
            Some(Slot::Cow(src)) => {
                self.resolve_cow_stub_fault(ctx, vpn, &region, off, src, access)
            }
            None => self.resolve_miss(ctx, vpn, &region, off, access),
        }
    }

    /// Maps the resident run after a read fault's page in a read-only
    /// region (text, read-only files), up to one IPC message of pages
    /// in all. It stops at the region's end and at the first page not
    /// resident in the region's cache, unread readahead (its first use
    /// is its stream's), being cleaned, or already mapped. No use is
    /// noted: nothing has touched these pages.
    fn prefault_after(&mut self, ctx: CtxKey, vpn: Vpn, region: &RegionDesc, off: u64) {
        let mmu_ctx = self.ctx(ctx).expect("fault in a dead context").mmu_ctx;
        let ps = self.ps();
        let run = IPC_MESSAGE_PAGES.min((region.offset + region.size - off) / ps);
        for i in 1..run {
            let v = Vpn(vpn.0 + i);
            let Some(Slot::Present(p)) = self.slot(region.cache, off + i * ps) else {
                break;
            };
            let page = self.page(p);
            if page.prefetched || page.cleaning || self.mmu.query(mmu_ctx, v).is_some() {
                break;
            }
            self.mmu.map(mmu_ctx, v, page.frame, region.prot);
            let via = region.cache;
            self.page_mut(p).mappings.push(Mapping { ctx, vpn: v, via });
        }
    }

    /// Fault on a per-virtual-page copy-on-write stub (§4.3).
    fn resolve_cow_stub_fault(
        &mut self,
        ctx: CtxKey,
        vpn: chorus_hal::Vpn,
        region: &RegionDesc,
        off: u64,
        src: CowSource,
        access: Access,
    ) -> Attempt<Resolution> {
        let cache = region.cache;
        // Locate the source value.
        let version = match src {
            CowSource::Page(p) => Version::Page(p),
            CowSource::Loc(c2, o2) => self.resolve_version(c2, o2, Access::Read)?,
            CowSource::Zero => Version::Zero,
        };
        match access {
            Access::Read | Access::Execute => match version {
                Version::Page(p) => {
                    // "the source page is accessible, for reads, through
                    // any cache to which it was copied."
                    let prot = region.prot.remove(Prot::WRITE);
                    self.map_page(p, ctx, vpn, prot, cache);
                    Ok(Resolution::SharedRead)
                }
                Version::Zero => {
                    // Materialize the (zero) value as an own page.
                    self.materialize_own(ctx, vpn, region, off, Version::Zero, access, Some(src))
                }
            },
            Access::Write => {
                // "a new page frame is allocated with a copy of the
                // source page, and inserted in the global map in
                // replacement of the stub."
                self.materialize_own(ctx, vpn, region, off, version, access, Some(src))
            }
        }
    }

    /// Fault with no slot at all: cache miss — copy-on-write /
    /// copy-on-reference resolution through the history tree, or demand
    /// zero-fill.
    fn resolve_miss(
        &mut self,
        ctx: CtxKey,
        vpn: chorus_hal::Vpn,
        region: &RegionDesc,
        off: u64,
        access: Access,
    ) -> Attempt<Resolution> {
        let cache = region.cache;
        let version = self.resolve_version(cache, off, access)?;
        let cor = self.is_cor_at(cache, off);
        match version {
            Version::Page(p) if access != Access::Write && !cor => {
                // Copy-on-write read: share the ancestor's page
                // read-only through this cache.
                let prot = region.prot.remove(Prot::WRITE);
                self.map_page(p, ctx, vpn, prot, cache);
                Ok(Resolution::SharedRead)
            }
            version => {
                // Write violation in the copy, or copy-on-reference, or
                // demand zero: allocate an own page.
                self.materialize_own(ctx, vpn, region, off, version, access, None)
            }
        }
    }

    /// Allocates an own page for (cache, off) holding the *original*
    /// value given by `version`, replaces any stub, applies the history
    /// write-violation algorithm if the access is a write, and maps the
    /// page. Resolves as [`Resolution::CowCopy`] or
    /// [`Resolution::ZeroFill`] depending on the source version.
    #[allow(clippy::too_many_arguments)]
    fn materialize_own(
        &mut self,
        ctx: CtxKey,
        vpn: chorus_hal::Vpn,
        region: &RegionDesc,
        off: u64,
        version: Version,
        access: Access,
        replaced_stub: Option<CowSource>,
    ) -> Attempt<Resolution> {
        let cache = region.cache;
        // Pin the resolved source page across the allocation so the
        // inline eviction cannot reclaim it.
        let frame = match version {
            Version::Page(p) => self.alloc_frame_keeping(p)?,
            Version::Zero => self.alloc_frame()?,
        };
        // After a blocked alloc the whole attempt reruns, so `version`
        // is re-resolved; here we hold the lock continuously.
        let (dirty, resolution) = match version {
            Version::Page(p) => {
                let src_frame = self.page(p).frame;
                self.fill_from(src_frame, frame);
                self.stats.bump(Counter::CowCopies);
                // Readers that mapped the old version *through this
                // cache* must re-fault onto the new own page.
                self.unmap_via(p, cache);
                (true, Resolution::CowCopy)
            }
            Version::Zero => {
                self.phys.zero(frame);
                self.stats.bump(Counter::ZeroFills);
                // A demand-zero page is re-derivable; it only needs
                // writeback once actually written.
                (access == Access::Write, Resolution::ZeroFill)
            }
        };
        // Unthread the replaced per-page stub from its source.
        if let Some(src) = replaced_stub {
            self.unthread_cow_stub(cache, off, src);
        }
        let writable = !self.has_history_covering(cache, off);
        let page = self.create_page(cache, off, frame, writable, dirty);
        if access == Access::Write && !self.page(page).write_allowed() {
            // §4.2.3 complication: this cache has its own history, which
            // must receive the original value before the write.
            self.promote_page(cache, off, page)?;
        }
        self.map_for_access(page, ctx, vpn, region, access);
        Ok(resolution)
    }

    fn fill_from(&mut self, src: FrameNo, dst: FrameNo) {
        self.phys.copy_frame(src, dst);
    }

    /// Maps an own page with the protection appropriate for the access:
    /// write permission is granted only on write faults (or when the page
    /// is already dirty), because the simulated hardware has no dirty
    /// bits — a later first write must fault to set the dirty flag.
    fn map_for_access(
        &mut self,
        page: PageKey,
        ctx: CtxKey,
        vpn: chorus_hal::Vpn,
        region: &RegionDesc,
        access: Access,
    ) {
        let desc = self.page(page);
        let mut prot = desc.effective_prot(region.prot);
        if access == Access::Write {
            debug_assert!(
                prot.contains(Prot::WRITE),
                "write fault resolved without write access"
            );
            self.page_mut(page).dirty = true;
        } else if !desc.dirty {
            prot = prot.remove(Prot::WRITE);
        }
        let via = region.cache;
        self.map_page(page, ctx, vpn, prot, via);
    }

    /// Fault entry used by `lockInMemory`: faults a page in (and, when
    /// the region is writable, materializes a private copy so the maps
    /// can stay fixed), then pins the resident page.
    pub fn lock_one_page(
        &mut self,
        ctx: CtxKey,
        va: VirtAddr,
        writable_region: bool,
    ) -> Attempt<()> {
        // Materialize with a write fault if the region allows writes so
        // no copy-on-write fault can occur later; otherwise materialize a
        // private read-only copy (copy-on-reference style) so promote in
        // an ancestor cannot shoot our mapping down.
        let reg_key = self.find_region(ctx, va)?;
        let region = self.region(reg_key)?.clone();
        let off = self.geom.round_down(region.va_to_offset(va));
        let cache = region.cache;
        let owns_it = {
            let c = self.cache(cache)?;
            matches!(self.gmap.get(cache, off), Some(Slot::Present(_))) || c.owns(off)
        };
        if writable_region {
            self.fault_attempt(ctx, va, Access::Write, false)?;
        } else if owns_it {
            self.fault_attempt(ctx, va, Access::Read, false)?;
        } else {
            // Force a private materialization even for reads.
            let version = self.resolve_version(cache, off, Access::Read)?;
            let vpn = self.geom.vpn(va);
            self.materialize_own(ctx, vpn, &region, off, version, Access::Read, None)?;
        }
        // Pin the now-resident own page.
        match self.slot(cache, off) {
            Some(Slot::Present(p)) => {
                self.page_mut(p).lock_count += 1;
                Ok(())
            }
            _ => Err(GmiError::InvalidArgument("lockInMemory could not materialize page").into()),
        }
    }

    /// Unpins one page of a region.
    pub fn unlock_one_page(&mut self, cache: crate::keys::CacheKey, off: u64) -> Result<()> {
        if let Some(Slot::Present(p)) = self.slot(cache, off) {
            let page = self.page_mut(p);
            if page.lock_count > 0 {
                page.lock_count -= 1;
            }
        }
        Ok(())
    }
}
