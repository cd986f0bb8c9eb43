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
use crate::state::{blocked, Attempt, Blocked, PushOrigin, PvmState, Stop, StubsTo};
use crate::stats::Counter;
use crate::telemetry::At;
use crate::trace::TraceEvent;
use chorus_gmi::{GmiError, SegmentId};
use chorus_hal::FrameNo;

impl PvmState {
    /// Allocates a frame, running page replacement when the pool is
    /// dry (see [`PvmState::sweep`]; what it cannot take is cleaned via
    /// `pushOut`). When replacement finds nothing and no completion is
    /// owed, the allocation fails with `OutOfMemory`: exhaustion is the
    /// caller's to handle.
    pub fn alloc_frame(&mut self) -> Attempt<FrameNo> {
        loop {
            match self.sweep(0) {
                None => return Ok(self.phys.alloc().expect("free frame count lied")),
                Some(Some(victim)) => self.start_clean(victim, PushOrigin::Demand)?,
                Some(None) => {
                    // No victim, but the completion engine owes work
                    // (e.g. every candidate is `cleaning` under an
                    // in-flight laundering push, or parked until its
                    // arrival): delivering a completion makes those
                    // pages evictable, so wait for one instead of
                    // reporting a premature OutOfMemory.
                    if !self.engine.queue.is_empty() {
                        return blocked(Blocked::AwaitCompletion);
                    }
                    return Err(GmiError::OutOfMemory.into());
                }
            }
        }
    }

    /// Sweeps for victims until more than `floor` frames are free,
    /// without an upcall: clean victims are evicted, dirty ones set
    /// aside for write-behind. `None` once the frames are there, else
    /// what stopped the sweep short — a dirty victim that could not be
    /// set aside (see [`PvmState::set_aside`]), or nothing evictable.
    /// The clock's hand meets first, in the order they came, the pages
    /// put just ahead of it: pages a stream has read and left, and
    /// pages a push has just cleaned (see [`PvmState::finish_clean`]).
    fn sweep(&mut self, floor: u32) -> Option<Option<PageKey>> {
        while self.phys.free_frames() <= floor {
            match self.select_victim() {
                Some(victim) if !self.page(victim).dirty => self.evict(victim),
                Some(victim) if self.set_aside(victim) => {}
                stop => return Some(stop),
            }
        }
        None
    }

    /// Frees up to `want` (at least one) frames without a single upcall,
    /// for the pull about to be issued. Returns how many of them are
    /// free now; the caller shrinks its window to that.
    pub fn secure_frames(&mut self, want: u64) -> u64 {
        self.sweep(want as u32 - 1);
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
                match self.start_clean(page, PushOrigin::Daemon) {
                    Err(Stop::Blocked(b @ Blocked::PushOut { .. })) => {
                        let cache = self.page(page).cache;
                        self.count(Counter::WriteBehindPushes, 1, At::Cache(cache));
                        *pushed = true;
                        self.write_behind.pop_front();
                        return blocked(b);
                    }
                    // `segmentCreate` first; the page keeps its place.
                    Err(stop) => return Err(stop),
                    // Its cache had died: evicted on the spot.
                    Ok(()) => {}
                }
            }
            self.write_behind.pop_front();
        }
        Ok(())
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

    /// One victim-selection call into the clock, with its bookkeeping:
    /// `ClockFullSweeps` (`step / n` full sweeps on success, two on
    /// exhaustion, a trace event whenever the count is positive) and the
    /// victim counters. Never a victim: a pinned page, one being
    /// cleaned, or a dirty page of a quarantined cache (it cannot be
    /// cleaned; its clean pages still are). A referenced page gets its
    /// second chance.
    fn select_victim(&mut self) -> Option<PageKey> {
        self.stats.bump(Counter::PolicyVictimRequests);
        let (victim, sweeps) = self.clock.select_victim(|key| {
            let p = self.pages.get_mut(key).expect("dead key in the clock");
            if p.lock_count > 0 || p.cleaning {
                return false;
            }
            if p.referenced(&self.contexts, &*self.mmu) {
                p.take_reference(&self.contexts, &mut *self.mmu, &self.model);
                self.stats.bump(Counter::RefSecondChances);
                return false;
            }
            !(p.dirty && self.caches.get(p.cache).is_some_and(|c| c.poisoned))
        });
        self.stats.add(Counter::ClockFullSweeps, sweeps);
        if sweeps > 0 {
            self.trace.event(|| TraceEvent::ClockSweep { sweeps });
        }
        if let Some(victim) = victim {
            let cache = self.page(victim).cache;
            self.count(Counter::PolicyVictims, 1, At::Cache(cache));
        }
        victim
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
            return Ok(());
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
            self.count(Counter::DemandPushes, 1, At::Cache(cache));
        }
        blocked(Blocked::PushOut {
            cache,
            segment,
            offset,
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

    /// Called by the driver after a `pushOut`: `pushed` names the
    /// mapper that took the page, `None` when the push failed. On
    /// success the page is clean, counted as pushed out, and joins the
    /// run just ahead of the clock's hand, behind the pages already put
    /// there: the sweep meets it before any page it would have to
    /// clear, and takes it unless it is pinned again or referenced
    /// since (then the hand clears its bit and moves on). A page that
    /// died while its push was out is neither.
    pub fn finish_clean(&mut self, page: PageKey, pushed: Option<SegmentId>) {
        let Some(p) = self.pages.get_mut(page) else {
            return;
        };
        p.cleaning = false;
        if let Some(segment) = pushed {
            p.dirty = false;
            // Make it an immediate eviction candidate, unless it was
            // accessed while the push was out: the hardware bits are
            // left alone.
            p.ref_bit = false;
            let cache = p.cache;
            self.clock.next_up(page);
            self.count(Counter::PushOuts, 1, At::Io(cache, segment));
        }
    }

    /// Evicts a clean resident page: unmap, re-point stubs at the
    /// segment location, drop the slot (ownership mark stays), release
    /// the frame.
    pub fn evict(&mut self, victim: PageKey) {
        debug_assert!(!self.page(victim).dirty, "evicting a dirty page");
        let (cache, unused) = (self.page(victim).cache, self.page(victim).prefetched);
        self.count(Counter::Evictions, 1, At::Cache(cache));
        if unused {
            self.count(Counter::ReadaheadUnused, 1, At::Cache(cache));
        }
        self.trace.event(|| TraceEvent::Eviction {
            cache: self.page(victim).cache.index(),
            offset: self.page(victim).offset,
        });
        self.free_page(victim, StubsTo::Loc, true);
    }

    /// True if (cache, off) currently holds a synchronization stub.
    pub fn is_sync_stub(&self, cache: crate::keys::CacheKey, off: u64) -> bool {
        matches!(self.gmap.get(cache, off), Some(Slot::Sync))
    }
}
