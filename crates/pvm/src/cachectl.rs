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
use crate::state::{blocked, Attempt, Blocked, PushOrigin, PvmState, StubsTo};
use chorus_gmi::{GmiError, Result};
use chorus_hal::{Access, Prot};

impl PvmState {
    fn range_pages(&self, cache: CacheKey, off: u64, size: u64) -> Result<Vec<(u64, Slot)>> {
        let end = off.saturating_add(size);
        Ok(self
            .cache(cache)?
            .entries
            .range(off..end)
            .map(|o| (o, self.gmap.get(cache, o).expect("entry without slot")))
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
                    return blocked(Blocked::PushOut {
                        cache,
                        segment,
                        offset: o,
                        pages: run,
                        origin: PushOrigin::Sync,
                    });
                }
                Slot::Sync => return blocked(Blocked::WaitStub(cache, o)),
                Slot::Cow(_) => {}
            }
        }
        Ok(())
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
        self.sync_attempt(cache, off, size)?;
        for (_o, slot) in self.range_pages(cache, off, size)? {
            if let Slot::Present(p) = slot {
                let page = self.page(p);
                if page.lock_count > 0 {
                    return Err(GmiError::Locked.into());
                }
                debug_assert!(!page.dirty, "flush after sync found a dirty page");
                // Data is safely on the segment; ownership marks stay so
                // later misses pull it back in.
                self.free_page(p, StubsTo::Loc, true);
            }
        }
        Ok(())
    }

    /// `cache.invalidate(offset, size)`: discard without write-back. A
    /// history child's snapshot survives the invalidation of the local
    /// replica, and stub destinations keep the pre-invalidation value
    /// ([`PvmState::discard_slot`]).
    pub fn invalidate_attempt(&mut self, cache: CacheKey, off: u64, size: u64) -> Attempt<()> {
        self.check_unpinned(cache, off, off.saturating_add(size))?;
        for (o, slot) in self.range_pages(cache, off, size)? {
            self.discard_slot(cache, o, slot)?;
        }
        // The cache no longer has its own version of the range.
        self.disown_range(cache, off, off.saturating_add(size))?;
        Ok(())
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
            let page = match self.slot(cache, o) {
                Some(Slot::Present(p)) => p,
                Some(Slot::Sync) => return blocked(Blocked::WaitStub(cache, o)),
                _ => {
                    // Materialize an own resident page with the current
                    // value, then pin it.
                    let version = self.current_version(cache, o, Access::Read)?;
                    self.own_page(cache, o, version, false)?
                }
            };
            self.page_mut(page).lock_count += 1;
            *pinned += 1;
        }
        Ok(())
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
    /// pages with outstanding stubs over to them where no history child
    /// needs the original, then either free everything or become a
    /// zombie internal node if descendants remain (§4.2.2). A stubbed
    /// page a history child needs stays in the zombie for both: a merge
    /// carries it down, a reclaim donates it, and no copy is made here.
    pub fn cache_destroy_attempt(&mut self, cache: CacheKey) -> Attempt<()> {
        let desc = self.cache(cache)?;
        if desc.mapped_regions > 0 {
            return Err(
                GmiError::InvalidArgument("destroying a cache that is still mapped").into(),
            );
        }
        // Permanent caches write modified data back first — unless the
        // cache was quarantined, in which case its mapper is gone and
        // the write-back is abandoned (the data was already lost to the
        // permanent failure; destruction must still succeed).
        if desc.fully_backed && !desc.poisoned {
            self.sync_attempt(cache, 0, u64::MAX)?;
        }
        self.check_unpinned(cache, 0, u64::MAX)?;
        // A page with threaded stubs is donated to its first stub, unless
        // a history child also needs the original here: then it stays in
        // the zombie, read-only, serving the child and the stubs both,
        // and the first write on either side makes the one copy.
        let offsets: Vec<u64> = self.cache(cache)?.entries.iter().collect();
        for o in offsets {
            if let Some(Slot::Present(p)) = self.slot(cache, o) {
                if !self.page(p).stubs.is_empty() && !self.has_history_covering(cache, o) {
                    self.donate_page_to_stubs(p);
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
        Ok(())
    }
}
