//! Frame allocation with clock page replacement.
//!
//! The data management policy (page-out decisions) belongs to the memory
//! manager below the GMI (§3.3.3). When the frame pool is exhausted the
//! clock sweep picks a victim: clean victims are evicted inline; dirty
//! victims are set aside on the bounded write-behind queue, which the
//! driver launders one `pushOut` run per light entry (preceded, for
//! segment-less temporary caches, by a `segmentCreate` upcall — the
//! §5.1.2 lazy swap binding), and cleaned inline only once the queue is
//! full. Eviction keeps the cache's `owned` mark so a later miss pulls
//! the page back in.

use crate::config::IPC_MESSAGE_PAGES;
use crate::descriptors::Slot;
use crate::keys::PageKey;
use crate::policy::{Pick, StateView};
use crate::state::{blocked, done, Attempt, Blocked, Outcome, PushOrigin, PvmState, StubsTo};
use crate::stats::Counter;
use crate::trace::TraceEvent;
use chorus_gmi::GmiError;
use chorus_hal::{FrameNo, OpKind};

impl PvmState {
    /// Allocates a frame, running page replacement when the pool is
    /// dry (see [`PvmState::sweep`]; what it cannot take is cleaned via
    /// `pushOut`). When replacement finds nothing and no completion is
    /// owed, the allocation fails with `OutOfMemory`: exhaustion is the
    /// caller's to handle.
    pub fn alloc_frame(&mut self) -> Attempt<FrameNo> {
        loop {
            match self.sweep(0) {
                None => return done(self.phys.alloc().expect("free frame count lied")),
                Some(Pick::Victim(victim)) => {
                    match self.start_clean(victim, PushOrigin::Demand)? {
                        Outcome::Blocked(b) => return blocked(b),
                        Outcome::Done(()) => continue,
                    }
                }
                Some(Pick::Advice(pages)) => {
                    return blocked(self.victim_advice_blocked(pages));
                }
                Some(Pick::None) => {
                    // No victim, but the completion engine owes work
                    // (e.g. every candidate is `cleaning` under an
                    // in-flight laundering push, or parked until its
                    // arrival): delivering a completion makes those
                    // pages evictable, so wait for one instead of
                    // reporting a premature OutOfMemory.
                    if self.config.enable_pageout && !self.engine.queue.is_empty() {
                        return blocked(Blocked::AwaitCompletion);
                    }
                    return Err(GmiError::OutOfMemory);
                }
            }
        }
    }

    /// Sweeps for victims until more than `floor` frames are free,
    /// without an upcall: clean victims are evicted, dirty ones set
    /// aside for write-behind. `None` once the frames are there, else
    /// what stopped the sweep short — a dirty victim that could not be
    /// set aside (see [`PvmState::set_aside`]), the external policy's
    /// request for advice, or nothing evictable.
    fn sweep(&mut self, floor: u32) -> Option<Pick> {
        while self.phys.free_frames() <= floor {
            if !self.config.enable_pageout {
                return Some(Pick::None);
            }
            match self.select_victim() {
                Pick::Victim(victim) if !self.page(victim).dirty => self.evict(victim),
                Pick::Victim(victim) if self.set_aside(victim) => {}
                stop => return Some(stop),
            }
        }
        None
    }

    /// Frees up to `want` (at least one) frames without a single upcall,
    /// for the pull about to be issued. Returns how many of them are
    /// free now; the caller shrinks its window to that.
    pub fn secure_frames(&mut self, want: u64) -> u64 {
        if let Some(Pick::Advice(_)) = self.sweep(want as u32 - 1) {
            // Nobody will perform this round trip: release the external
            // policy's in-flight latch.
            self.approve_external_victims(&[]);
        }
        u64::from(self.phys.free_frames()).min(want)
    }

    /// True while a queued page can still be laundered from the
    /// write-behind queue: live, dirty, unpinned, not already being
    /// cleaned, and its cache can still reach its mapper.
    fn write_behind_ready(&self, page: PageKey) -> bool {
        self.pages.get(page).is_some_and(|p| {
            let dirty = p.dirty && !p.cleaning && p.lock_count == 0;
            dirty && !self.caches.get(p.cache).is_some_and(|c| c.poisoned)
        })
    }

    /// Sets a dirty victim aside for write-behind, so the sweep that met
    /// it can go on to a clean page. False when the queue (one IPC
    /// message of pages) is full or the sweep has come back round to a
    /// page already on it: the caller launders inline. A full queue is
    /// first rid of the keys a pop would drop anyway: with no light
    /// entry to pop them (every access a hard fault) they would hold
    /// their slots for good, and every allocation would launder inline
    /// (`ablation_writeback`: 5 % more pushes).
    fn set_aside(&mut self, page: PageKey) -> bool {
        let full = |s: &Self| s.write_behind.len() as u64 >= IPC_MESSAGE_PAGES;
        if full(self) {
            let mut queue = core::mem::take(&mut self.write_behind);
            queue.retain(|&k| self.write_behind_ready(k));
            self.write_behind = queue;
        }
        if full(self) || self.write_behind.contains(&page) {
            return false;
        }
        self.write_behind.push_back(page);
        true
    }

    /// One step of the write-behind drain: launders the run round the
    /// oldest queued page that is still a victim (a page freed, cleaned,
    /// pinned, quarantined or referenced again since it was set aside is
    /// dropped). `Done(())` once `pushed`
    /// — one `pushOut` has gone out — or the queue is empty, or the
    /// run's mapper has fewer than two slots free: its last one is a
    /// faulter's, so the key keeps the head of the queue for the next
    /// light entry and nothing is pushed synchronously inside an
    /// operation that had nothing to wait for. `Blocked` must be
    /// performed and the step retried, like any other blocked action.
    pub fn write_behind_attempt(&mut self, pushed: &mut bool) -> Attempt<()> {
        while !*pushed {
            let Some(&page) = self.write_behind.front() else {
                break;
            };
            if self.write_behind_ready(page) && !self.page_referenced(page) {
                let cache = self.caches.get(self.page(page).cache);
                let segment = cache.and_then(|c| c.segment);
                if segment.is_some_and(|s| self.engine.free_slots(s) < 2) {
                    break;
                }
                match self.start_clean(page, PushOrigin::Daemon)? {
                    Outcome::Blocked(b @ Blocked::PushOut { .. }) => {
                        let cache = self.page(page).cache;
                        self.stats.bump(Counter::WriteBehindPushes);
                        self.dim_cache(cache, crate::telemetry::DimCounter::WriteBehindPushes, 1);
                        *pushed = true;
                        self.write_behind.pop_front();
                        return blocked(b);
                    }
                    // `segmentCreate` first; the page keeps its place.
                    Outcome::Blocked(b) => return blocked(b),
                    // Its cache had died: evicted on the spot.
                    Outcome::Done(()) => {}
                }
            }
            self.write_behind.pop_front();
        }
        done(())
    }

    /// Allocates a frame while `keep` is guaranteed to stay resident:
    /// the inline eviction inside [`PvmState::alloc_frame`] must not pick
    /// the page whose contents the caller is about to copy.
    pub fn alloc_frame_keeping(&mut self, keep: PageKey) -> Attempt<FrameNo> {
        self.page_mut(keep).lock_count += 1;
        let result = self.alloc_frame();
        // The page may only disappear while the caller is blocked (lock
        // released); within this attempt it stayed pinned.
        if self.pages.contains(keep) {
            self.page_mut(keep).lock_count -= 1;
        }
        result
    }

    /// One victim-selection call into the replacement policy, with its
    /// bookkeeping: `ClockFullSweeps` (`step / n` full sweeps on
    /// success, two on exhaustion, a trace event whenever the count is
    /// positive) and the victim counters.
    fn select_victim(&mut self) -> Pick {
        self.stats.bump(Counter::PolicyVictimRequests);
        let out = self.policy.select_victim(&mut StateView {
            pages: &mut self.pages,
            caches: &self.caches,
            contexts: &self.contexts,
            mmu: &mut *self.mmu,
            model: &self.model,
            stats: &self.stats,
        });
        self.stats.add(Counter::ClockFullSweeps, out.full_sweeps);
        if out.full_sweeps > 0 {
            let sweeps = out.full_sweeps;
            self.trace.event(|| TraceEvent::ClockSweep { sweeps });
        }
        if out.external_fallback {
            self.stats.bump(Counter::PolicyExternalFallbacks);
        }
        if let Pick::Victim(victim) = out.pick {
            self.stats.bump(Counter::PolicyVictims);
            if self.telemetry.enabled() {
                self.dim_cache(
                    self.page(victim).cache,
                    crate::telemetry::DimCounter::PolicyVictims,
                    1,
                );
            }
        }
        out.pick
    }

    /// Builds the blocked `victimAdvice` action for a candidate batch:
    /// resolves each page's public identity for the segment manager.
    fn victim_advice_blocked(&self, pages: Vec<PageKey>) -> Blocked {
        let idents = pages
            .iter()
            .map(|&p| {
                let d = self.page(p);
                (crate::keys::pub_cache(d.cache), d.offset)
            })
            .collect();
        Blocked::VictimAdvice { pages, idents }
    }

    /// Emergency eviction pass (fault-recovery degradation): evicts every
    /// clean, unpinned, non-cleaning resident page regardless of
    /// reference bits. Used when a `fillUp` delivering pulled data cannot
    /// allocate a frame — failing that allocation would strand the pull
    /// and wedge every faulter waiting on its stubs, so trading the whole
    /// clean working set for progress is the better degradation. Returns
    /// the number of frames freed.
    pub fn emergency_evict(&mut self) -> u64 {
        let candidates: Vec<PageKey> = self
            .policy
            .keys()
            .filter(|&k| {
                self.pages
                    .get(k)
                    .map(|p| !p.dirty && !p.cleaning && p.lock_count == 0)
                    .unwrap_or(false)
            })
            .collect();
        let mut freed = 0u64;
        for k in candidates {
            if !self.pages.contains(k) {
                continue;
            }
            self.evict(k);
            freed += 1;
        }
        if freed > 0 {
            self.stats.bump(Counter::EmergencyPageouts);
        }
        freed
    }

    /// Begins cleaning a dirty victim: gathers the surrounding run of
    /// contiguous dirty pages (up to `push_cluster_pages`), downgrades
    /// every run member's mappings so re-dirtying faults, marks them
    /// cleaning, and requests one batched `pushOut` upcall (or first a
    /// `segmentCreate` if the cache has no segment yet). `Done(())`
    /// means the victim's cache died and the page was simply evicted.
    fn start_clean(&mut self, victim: PageKey, origin: PushOrigin) -> Attempt<()> {
        let cache = self.page(victim).cache;
        let Some(desc) = self.caches.get(cache) else {
            // Orphaned page: its cache died; just evict.
            self.evict(victim);
            return done(());
        };
        let Some(segment) = desc.segment else {
            return blocked(Blocked::NeedSegment { cache });
        };
        let limit = self.config.push_cluster_pages.max(1);
        let (offset, pages) = self.gather_push_run(victim, limit);
        // Write-protect every mapping so a concurrent write faults and
        // waits for the cleaning to finish.
        for &p in &pages {
            self.begin_cleaning(p);
        }
        if origin == PushOrigin::Demand {
            self.stats.bump(Counter::DemandPushes);
            self.dim_cache(cache, crate::telemetry::DimCounter::DemandPushes, 1);
        }
        let size = pages.len() as u64 * self.ps();
        blocked(Blocked::PushOut {
            cache,
            segment,
            offset,
            size,
            pages,
            origin,
        })
    }

    /// Extends a dirty victim into the longest run of pages contiguous
    /// in (cache, offset) that are resident, dirty, unpinned and not
    /// already being cleaned, capped at `limit` pages. Returns the run's
    /// start offset and its pages in offset order.
    fn gather_push_run(&self, victim: PageKey, limit: u64) -> (u64, Vec<PageKey>) {
        let ps = self.ps();
        let cache = self.page(victim).cache;
        let base = self.page(victim).offset;
        let mut start = base;
        let mut pages = vec![victim];
        let eligible = |o: u64| -> Option<PageKey> {
            match self.gmap.get(cache, o) {
                Some(Slot::Present(p)) => {
                    let page = self.page(p);
                    (page.dirty && !page.cleaning && page.lock_count == 0).then_some(p)
                }
                _ => None,
            }
        };
        while (pages.len() as u64) < limit && start >= ps {
            let Some(p) = eligible(start - ps) else { break };
            pages.insert(0, p);
            start -= ps;
        }
        let mut next = base + ps;
        while (pages.len() as u64) < limit {
            let Some(p) = eligible(next) else { break };
            pages.push(p);
            next += ps;
        }
        (start, pages)
    }

    /// Called by the driver after a `pushOut`. On success the page is
    /// clean and, unless it is referenced or pinned again first, the
    /// retry picks it as its victim before the policy sweeps on.
    pub fn finish_clean(&mut self, page: PageKey, success: bool) {
        if let Some(p) = self.pages.get_mut(page) {
            p.cleaning = false;
            if success {
                p.dirty = false;
                // Make it an immediate eviction candidate, unless it
                // was accessed while the push was out: the hardware
                // bits are left alone.
                p.ref_bit = false;
                self.policy.cleaned(page);
            }
            self.stats.add(Counter::PushOuts, success as u64);
        }
    }

    /// Evicts a clean resident page: unmap, re-point stubs at the
    /// segment location, drop the slot (ownership mark stays), release
    /// the frame.
    pub fn evict(&mut self, victim: PageKey) {
        debug_assert!(!self.page(victim).dirty, "evicting a dirty page");
        let (cache, unused) = (self.page(victim).cache, self.page(victim).prefetched);
        self.stats.bump(Counter::Evictions);
        self.dim_cache(cache, crate::telemetry::DimCounter::Evictions, 1);
        if unused {
            self.stats.bump(Counter::ReadaheadUnused);
            self.dim_cache(cache, crate::telemetry::DimCounter::ReadaheadUnused, 1);
        }
        self.trace.event(|| TraceEvent::Eviction {
            cache: self.page(victim).cache.index(),
            offset: self.page(victim).offset,
        });
        self.charge(OpKind::UnmapPage);
        self.free_page(victim, StubsTo::Loc, true);
    }

    /// True if (cache, off) currently holds a synchronization stub.
    pub fn is_sync_stub(&self, cache: crate::keys::CacheKey, off: u64) -> bool {
        matches!(self.gmap.get(cache, off), Some(Slot::Sync))
    }
}
