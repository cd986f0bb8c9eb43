//! Page-fault handling (§4.1.2) and the copy-on-write resolution paths.
//!
//! The flow follows the paper exactly: locate the region by searching the
//! faulting context's sorted region list; compute the fault offset in the
//! segment from the fault address, the region start address and the
//! region start offset; look the page up in the global map; then either
//! recover immediately (resident), sleep on a synchronization page stub
//! (in transit), resolve a copy-on-write stub (§4.3), or walk the history
//! tree / pull from the segment (§4.2).

use crate::descriptors::{CowSource, RegionDesc, Slot};
use crate::keys::{CtxKey, PageKey};
use crate::resolve::Version;
use crate::state::{blocked, done, Attempt, PvmState};
use crate::stats::Counter;
use crate::trace::{Resolution, TraceEvent};
use chorus_gmi::{GmiError, Result};
use chorus_hal::{Access, FrameNo, Prot, VirtAddr};

impl PvmState {
    /// One locked attempt at resolving a fault; the driver in `pvm.rs`
    /// retries after performing any blocked action. Returns how the
    /// fault was resolved (recorded by the tracer at fault exit).
    ///
    /// `note_dims` is true only on the first attempt of a client-visible
    /// fault: it attributes the fault to its context up front and to its
    /// cache once the region resolves, reusing the lookup this path does
    /// anyway (blocked retries and internal materialization calls pass
    /// false so a fault is attributed exactly once).
    pub fn fault_attempt(
        &mut self,
        ctx: CtxKey,
        va: VirtAddr,
        access: Access,
        note_dims: bool,
    ) -> Attempt<Resolution> {
        if note_dims {
            self.note_fault_ctx_dim(ctx);
        }
        // Region lookup ("the PVM searches in its list of region
        // descriptors for the region containing the fault address").
        let reg_key = self
            .find_region(ctx, va)
            .map_err(|_| GmiError::SegmentationFault {
                ctx: crate::keys::pub_ctx(ctx),
                va,
                access,
            })?;
        let region: RegionDesc = self.region(reg_key)?.clone();
        if note_dims {
            self.note_fault_cache_dim(region.cache);
        }
        if !region.prot.allows(access, false) {
            return Err(GmiError::ProtectionViolation {
                ctx: crate::keys::pub_ctx(ctx),
                va,
                access,
            });
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
                        return Err(e);
                    }
                }
                slot => break slot,
            }
        };
        match slot {
            Some(Slot::Present(p)) => {
                if access == Access::Write && !self.page(p).write_allowed() {
                    match self.promote_page(cache, off, p)? {
                        crate::state::Outcome::Done(()) => {}
                        crate::state::Outcome::Blocked(b) => return blocked(b),
                    }
                }
                self.map_for_access(p, ctx, vpn, &region, access);
                done(Resolution::Resident)
            }
            Some(Slot::Sync) => unreachable!("waited out above"),
            Some(Slot::Cow(src)) => {
                self.resolve_cow_stub_fault(ctx, vpn, &region, off, src, access)
            }
            None => self.resolve_miss(ctx, vpn, &region, off, access),
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
            CowSource::Loc(c2, o2) => match self.resolve_version(c2, o2, Access::Read)? {
                crate::state::Outcome::Done(v) => v,
                crate::state::Outcome::Blocked(b) => return blocked(b),
            },
            CowSource::Zero => Version::Zero,
        };
        match access {
            Access::Read | Access::Execute => match version {
                Version::Page(p) => {
                    // "the source page is accessible, for reads, through
                    // any cache to which it was copied."
                    let prot = region.prot.remove(Prot::WRITE);
                    self.map_page(p, ctx, vpn, prot, cache);
                    done(Resolution::SharedRead)
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
        let version = match self.resolve_version(cache, off, access)? {
            crate::state::Outcome::Done(v) => v,
            crate::state::Outcome::Blocked(b) => return blocked(b),
        };
        let cor = self.is_cor_at(cache, off);
        match version {
            Version::Page(p) if access != Access::Write && !cor => {
                // Copy-on-write read: share the ancestor's page
                // read-only through this cache.
                let prot = region.prot.remove(Prot::WRITE);
                self.map_page(p, ctx, vpn, prot, cache);
                done(Resolution::SharedRead)
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
        let alloc = match version {
            Version::Page(p) => self.alloc_frame_keeping(p)?,
            Version::Zero => self.alloc_frame()?,
        };
        let frame = match alloc {
            crate::state::Outcome::Done(f) => f,
            crate::state::Outcome::Blocked(b) => return blocked(b),
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
            match self.promote_page(cache, off, page)? {
                crate::state::Outcome::Done(()) => {}
                crate::state::Outcome::Blocked(b) => return blocked(b),
            }
        }
        self.map_for_access(page, ctx, vpn, region, access);
        done(resolution)
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
            match self.fault_attempt(ctx, va, Access::Write, false)? {
                crate::state::Outcome::Done(_) => {}
                crate::state::Outcome::Blocked(b) => return blocked(b),
            }
        } else if owns_it {
            match self.fault_attempt(ctx, va, Access::Read, false)? {
                crate::state::Outcome::Done(_) => {}
                crate::state::Outcome::Blocked(b) => return blocked(b),
            }
        } else {
            // Force a private materialization even for reads.
            let version = match self.resolve_version(cache, off, Access::Read)? {
                crate::state::Outcome::Done(v) => v,
                crate::state::Outcome::Blocked(b) => return blocked(b),
            };
            let vpn = self.geom.vpn(va);
            match self.materialize_own(ctx, vpn, &region, off, version, Access::Read, None)? {
                crate::state::Outcome::Done(_) => {}
                crate::state::Outcome::Blocked(b) => return blocked(b),
            }
        }
        // Pin the now-resident own page.
        match self.slot(cache, off) {
            Some(Slot::Present(p)) => {
                self.page_mut(p).lock_count += 1;
                done(())
            }
            _ => Err(GmiError::InvalidArgument(
                "lockInMemory could not materialize page",
            )),
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
