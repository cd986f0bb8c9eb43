//! Cache management operations (Table 4): flush, sync, invalidate,
//! protection control, pinning, destruction.
//!
//! These are the hooks a segment server uses "to control some aspects of
//! caching", e.g. to implement distributed coherent virtual memory
//! (§3.3.3): downgrade with `setProtection` so the next write triggers a
//! `getWriteAccess` upcall, push replicas out with `sync`/`flush`, and
//! revoke them with `invalidate`.

use crate::descriptors::Slot;
use crate::engine::Parked;
use crate::keys::{CacheKey, PageKey};
use crate::state::{blocked, done, Attempt, Blocked, PushOrigin, PvmState, StubsTo};
use chorus_gmi::{GmiError, Result};
use chorus_hal::Prot;

impl PvmState {
    fn range_pages(&self, cache: CacheKey, off: u64, size: u64) -> Result<Vec<(u64, Slot)>> {
        let end = off.saturating_add(size);
        Ok(self
            .cache(cache)?
            .entries
            .range(off..end)
            .map(|&o| (o, self.gmap.get(cache, o).expect("entry without slot")))
            .collect())
    }

    /// Finds one run of dirty pages in the range and starts cleaning it
    /// (up to `push_cluster_pages` contiguous dirty pages per `pushOut`);
    /// completes once no dirty page remains.
    pub fn sync_attempt(&mut self, cache: CacheKey, off: u64, size: u64) -> Attempt<()> {
        self.check_not_poisoned(cache)?;
        let end = off.saturating_add(size);
        for (o, slot) in self.range_pages(cache, off, size)? {
            match slot {
                Slot::Present(p) => {
                    let page = self.page(p);
                    if page.cleaning {
                        return blocked(Blocked::WaitStub(cache, o));
                    }
                    if !page.dirty {
                        continue;
                    }
                    let Some(segment) = self.cache(cache)?.segment else {
                        return blocked(Blocked::NeedSegment { cache });
                    };
                    // Extend the run over contiguous dirty pages still
                    // inside the requested range.
                    let ps = self.ps();
                    let limit = self.config.push_cluster_pages.max(1);
                    let mut run = vec![p];
                    while (run.len() as u64) < limit {
                        let next = o + run.len() as u64 * ps;
                        if next >= end {
                            break;
                        }
                        match self.gmap.get(cache, next) {
                            Some(Slot::Present(q)) => {
                                let page = self.page(q);
                                if page.dirty && !page.cleaning {
                                    run.push(q);
                                } else {
                                    break;
                                }
                            }
                            _ => break,
                        }
                    }
                    for &q in &run {
                        self.begin_cleaning(q);
                    }
                    let size = run.len() as u64 * ps;
                    return blocked(Blocked::PushOut {
                        cache,
                        segment,
                        offset: o,
                        size,
                        pages: run,
                        origin: PushOrigin::Sync,
                    });
                }
                Slot::Sync => return blocked(Blocked::WaitStub(cache, o)),
                Slot::Cow(_) => {}
            }
        }
        done(())
    }

    /// Write-protects a page's mappings and marks it cleaning, so
    /// concurrent writers fault and wait for the push-out to finish.
    pub fn begin_cleaning(&mut self, page: PageKey) {
        let mappings = self.page(page).mappings.clone();
        for m in mappings {
            if let Ok(c) = self.ctx(m.ctx) {
                let mmu_ctx = c.mmu_ctx;
                if let Some((_, prot)) = self.mmu.query(mmu_ctx, m.vpn) {
                    self.mmu.protect(mmu_ctx, m.vpn, prot.remove(Prot::WRITE));
                }
            }
        }
        self.page_mut(page).cleaning = true;
    }

    /// `cache.flush(offset, size)`: sync, then discard the fragment.
    pub fn flush_attempt(&mut self, cache: CacheKey, off: u64, size: u64) -> Attempt<()> {
        match self.sync_attempt(cache, off, size)? {
            crate::state::Outcome::Done(()) => {}
            crate::state::Outcome::Blocked(b) => return blocked(b),
        }
        for (_o, slot) in self.range_pages(cache, off, size)? {
            if let Slot::Present(p) = slot {
                let page = self.page(p);
                if page.lock_count > 0 {
                    return Err(GmiError::Locked);
                }
                debug_assert!(!page.dirty, "flush after sync found a dirty page");
                // Data is safely on the segment; ownership marks stay so
                // later misses pull it back in.
                self.free_page(p, StubsTo::Loc, true);
            }
        }
        done(())
    }

    /// `cache.invalidate(offset, size)`: discard without write-back.
    pub fn invalidate_attempt(&mut self, cache: CacheKey, off: u64, size: u64) -> Attempt<()> {
        let end = off.saturating_add(size);
        for (o, slot) in self.range_pages(cache, off, size)? {
            match slot {
                Slot::Sync => return blocked(Blocked::WaitStub(cache, o)),
                Slot::Cow(src) => {
                    self.unthread_cow_stub(cache, o, src);
                    self.clear_slot(cache, o);
                }
                Slot::Present(p) => {
                    if self.page(p).lock_count > 0 {
                        return Err(GmiError::Locked);
                    }
                    // A history child's snapshot must survive the
                    // invalidation of the local replica.
                    if self.has_history_covering(cache, o) {
                        match self.push_original_to_history(cache, o, p)? {
                            crate::state::Outcome::Done(()) => {}
                            crate::state::Outcome::Blocked(b) => return blocked(b),
                        }
                    }
                    // Stub destinations still need the (pre-invalidation)
                    // value: hand the page over rather than dropping it.
                    if !self.page(p).stubs.is_empty() {
                        self.donate_page_to_stubs(p);
                    } else {
                        self.free_page(p, StubsTo::AlreadyHandled, true);
                    }
                }
            }
        }
        // The cache no longer has its own version of the range.
        let owned: Vec<u64> = self.cache(cache)?.owned.range(off..end).copied().collect();
        for o in owned {
            if self.gmap.has_loc_stubs_at(cache, o) {
                return Err(GmiError::Unsupported(
                    "invalidating swapped-out data with outstanding per-page stubs",
                ));
            }
            self.cache_mut(cache)?.owned.remove(&o);
        }
        done(())
    }

    /// `cache.setProtection(offset, size, prot)`: grants or revokes write
    /// access on the cached fragment (the coherence hook; read access of
    /// resident data is never revoked — use `invalidate` for that).
    pub fn cache_set_protection_locked(
        &mut self,
        cache: CacheKey,
        off: u64,
        size: u64,
        prot: Prot,
    ) -> Result<()> {
        let write_ok = prot.contains(Prot::WRITE);
        for (o, slot) in self.range_pages(cache, off, size)? {
            if let Slot::Present(p) = slot {
                self.page_mut(p).seg_write_ok = write_ok;
                if !write_ok {
                    // A revocation also means the segment-level copy is
                    // about to be the authoritative one elsewhere; the
                    // next local write must upcall.
                    self.reprotect_mappings(p);
                }
            } else if let Some(&Parked::Filled { page, .. }) = self.engine.parked.get(&(cache, o)) {
                // A page in flight: the mapper protects what it has just
                // filled.
                self.page_mut(page).seg_write_ok = write_ok;
            }
        }
        Ok(())
    }

    /// `cache.lockInMemory(offset, size)`: pull the fragment in and pin
    /// it (cache-level variant of region locking). `pinned` is a page
    /// cursor owned by the driver counting pages this *call* has already
    /// pinned, so blocked attempts resume without double-pinning — and a
    /// page pinned by a different caller still receives this call's own
    /// pin (nested locks balance).
    pub fn cache_lock_attempt(
        &mut self,
        cache: CacheKey,
        off: u64,
        size: u64,
        pinned: &mut u64,
    ) -> Attempt<()> {
        self.check_not_poisoned(cache)?;
        let ps = self.ps();
        let pages = self.geom.pages_for(size);
        for k in 0..pages {
            if k < *pinned {
                continue;
            }
            let o = self.geom.round_down(off) + k * ps;
            match self.slot(cache, o) {
                Some(Slot::Present(p)) => {
                    self.page_mut(p).lock_count += 1;
                    *pinned += 1;
                }
                Some(Slot::Sync) => return blocked(Blocked::WaitStub(cache, o)),
                _ => {
                    // Materialize an own resident page with the current
                    // value, then pin it.
                    let page = match self.own_resident_page(cache, o)? {
                        crate::state::Outcome::Done(p) => p,
                        crate::state::Outcome::Blocked(b) => return blocked(b),
                    };
                    self.page_mut(page).lock_count += 1;
                    *pinned += 1;
                }
            }
        }
        done(())
    }

    /// Materializes (without promoting) an own resident page holding the
    /// current value of (cache, off).
    fn own_resident_page(&mut self, cache: CacheKey, off: u64) -> Attempt<PageKey> {
        use crate::resolve::Version;
        let version = match self.resolve_version(cache, off, chorus_hal::Access::Read)? {
            crate::state::Outcome::Done(v) => v,
            crate::state::Outcome::Blocked(b) => return blocked(b),
        };
        if let Version::Page(p) = version {
            if self.page(p).cache == cache {
                return done(p);
            }
        }
        let alloc = match version {
            Version::Page(p) => self.alloc_frame_keeping(p)?,
            Version::Zero => self.alloc_frame()?,
        };
        let frame = match alloc {
            crate::state::Outcome::Done(f) => f,
            crate::state::Outcome::Blocked(b) => return blocked(b),
        };
        match version {
            Version::Page(p) => {
                let src = self.page(p).frame;
                self.phys.copy_frame(src, frame);
                self.unmap_via(p, cache);
            }
            Version::Zero => self.phys.zero(frame),
        }
        if let Some(Slot::Cow(src)) = self.slot(cache, off) {
            self.unthread_cow_stub(cache, off, src);
        }
        let writable = !self.has_history_covering(cache, off);
        done(self.create_page(cache, off, frame, writable, true))
    }

    /// `cache.unlock(offset, size)`.
    pub fn cache_unlock_locked(&mut self, cache: CacheKey, off: u64, size: u64) -> Result<()> {
        let ps = self.ps();
        let pages = self.geom.pages_for(size);
        for k in 0..pages {
            let o = self.geom.round_down(off) + k * ps;
            self.unlock_one_page(cache, o)?;
        }
        Ok(())
    }

    /// `cache.destroy()` (one attempt): write permanent data back, hand
    /// pages with outstanding stubs over, then either free everything or
    /// become a zombie internal node if descendants remain (§4.2.2).
    pub fn cache_destroy_attempt(&mut self, cache: CacheKey) -> Attempt<()> {
        let desc = self.cache(cache)?;
        if desc.mapped_regions > 0 {
            return Err(GmiError::InvalidArgument(
                "destroying a cache that is still mapped",
            ));
        }
        // Permanent caches write modified data back first — unless the
        // cache was quarantined, in which case its mapper is gone and
        // the write-back is abandoned (the data was already lost to the
        // permanent failure; destruction must still succeed).
        if desc.fully_backed && !desc.poisoned {
            match self.sync_attempt(cache, 0, u64::MAX)? {
                crate::state::Outcome::Done(()) => {}
                crate::state::Outcome::Blocked(b) => return blocked(b),
            }
        }
        // Any page with threaded stubs is donated to its first stub —
        // unless a history child still needs the original here, in which
        // case the stubs get a materialized copy and the page stays for
        // the child.
        let offsets: Vec<u64> = self.cache(cache)?.entries.iter().copied().collect();
        for o in offsets {
            if let Some(Slot::Present(p)) = self.slot(cache, o) {
                if self.page(p).lock_count > 0 {
                    return Err(GmiError::Locked);
                }
                if !self.page(p).stubs.is_empty() {
                    if self.has_history_covering(cache, o) {
                        match self.materialize_stub_original(p)? {
                            crate::state::Outcome::Done(()) => {}
                            crate::state::Outcome::Blocked(b) => return blocked(b),
                        }
                    } else {
                        self.donate_page_to_stubs(p);
                    }
                }
            }
        }
        let has_dependents = {
            let desc = self.cache(cache)?;
            !desc.children.is_empty() || self.gmap.has_loc_stubs_from(cache)
        };
        if has_dependents {
            // "remaining unmodified source data must be kept until the
            // copy is deleted": become a zombie internal node.
            let desc = self.cache_mut(cache)?;
            desc.zombie = true;
            desc.internal = true;
            self.collapse_if_possible(cache);
        } else {
            let desc = self.cache_mut(cache)?;
            desc.zombie = true;
            self.collapse_if_possible(cache); // Reclaims immediately.
        }
        done(())
    }
}
