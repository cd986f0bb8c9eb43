//! Current-version resolution: the upward walk of the history tree.
//!
//! "Each cache contains the current version of its own pages. Pages not
//! present in some cache (cache misses) are found by looking upwards
//! (towards the root) in the tree" (§4.2.1). The walk also follows
//! per-virtual-page stub pointers (§4.3) and triggers `pullIn` for owned
//! but swapped-out data.

use crate::config::IPC_MESSAGE_PAGES;
use crate::descriptors::{CowSource, Slot};
use crate::engine::Parked;
use crate::keys::{CacheKey, PageKey};
use crate::state::{blocked, Attempt, Blocked, PvmState};
use crate::stats::Counter;
use crate::telemetry::At;
use crate::trace::TraceEvent;
use chorus_gmi::GmiError;
use chorus_hal::{Access, OpKind};
use core::ops::Range;

/// The resolved current version of a (cache, offset) datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Version {
    /// A resident page holds the value (it may belong to the queried
    /// cache itself or to an ancestor / stub source).
    Page(PageKey),
    /// No cache on the path and no segment holds the value: the logical
    /// content is zeroes.
    Zero,
}

impl PvmState {
    /// Resolves the current logical version of offset `off` of `cache`.
    ///
    /// May request a `pullIn` (placing the window's synchronization
    /// stubs first) or a wait on an in-transit page.
    pub fn resolve_version(
        &mut self,
        cache: CacheKey,
        off: u64,
        access: Access,
    ) -> Attempt<Version> {
        let mut depth = 0u32;
        let result = self.resolve_version_walk(cache, off, access, &mut depth);
        // Record the root-ward walk depth when the walk concluded (a
        // blocked walk re-runs and re-reports after the pull/wait).
        if result.is_ok() {
            self.trace.event(|| TraceEvent::HistoryWalk {
                cache: cache.index(),
                offset: off,
                depth,
            });
        }
        result
    }

    fn resolve_version_walk(
        &mut self,
        cache: CacheKey,
        off: u64,
        access: Access,
        depth: &mut u32,
    ) -> Attempt<Version> {
        let mut x = cache;
        let mut o = off;
        // Cycle guard: a correct history tree is acyclic; bound the walk.
        let mut steps = self.caches.len() + 2;
        loop {
            if steps == 0 {
                panic!("history tree cycle detected at {x:?}+{o:#x}");
            }
            steps -= 1;
            self.charge(OpKind::HistoryOp);
            // The walk may land in a quarantined ancestor whose segment
            // data is unreachable; fail cleanly rather than pulling.
            self.check_not_poisoned(x)?;
            match self.slot(x, o) {
                Some(Slot::Present(p)) | Some(Slot::Cow(CowSource::Page(p))) => {
                    debug_assert!(self.pages.contains(p), "stub points at dead page");
                    // Consumed, mapped or not: a use like any mapped
                    // access (`cache_read` and its kin map nothing, so
                    // no hardware bit speaks for them).
                    self.note_use(p);
                    return Ok(Version::Page(p));
                }
                Some(Slot::Sync) => return blocked(Blocked::WaitStub(x, o)),
                Some(Slot::Cow(CowSource::Loc(c2, o2))) => {
                    *depth += 1;
                    x = c2;
                    o = o2;
                }
                Some(Slot::Cow(CowSource::Zero)) => return Ok(Version::Zero),
                None => {
                    let desc = self.cache(x)?;
                    if desc.owns(o) {
                        // Owned but not resident: the data lives on the
                        // segment. Place the synchronization page stub
                        // and ask for a pull (§4.1.2); with clustering
                        // enabled, adjacent owned-non-resident pages ride
                        // along under their own stubs (read-ahead).
                        let segment = desc.segment.ok_or(GmiError::InvalidArgument(
                            "owned page with neither residence nor segment",
                        ))?;
                        let pages = self.size_pull(x, o, None)?;
                        let req = self.place_window(x, segment, o, pages, access);
                        return blocked(Blocked::PullIn { cache: x, req });
                    }
                    match desc.parent_at(o) {
                        Some(frag) => {
                            *depth += 1;
                            o = frag.to_parent(o);
                            x = frag.parent;
                        }
                        None => return Ok(Version::Zero),
                    }
                }
            }
        }
    }

    /// Places the synchronization stubs and parked entries of a window
    /// of `pages` pages of `cache` at `off`; returns its `pullIn`.
    fn place_window(
        &mut self,
        cache: CacheKey,
        segment: chorus_gmi::SegmentId,
        off: u64,
        pages: u64,
        access: Access,
    ) -> chorus_gmi::PullRequest {
        let ps = self.ps();
        for at in (off..off + pages * ps).step_by(ps as usize) {
            self.set_slot(cache, at, Slot::Sync);
            self.engine.parked.insert((cache, at), Parked::Empty);
        }
        chorus_gmi::PullRequest {
            cache: crate::keys::pub_cache(cache),
            segment,
            offset: off,
            size: pages * ps,
            access,
        }
    }

    /// Reading ahead of the reader (DESIGN.md §13): places the window
    /// after the one stream `slot` of `cache` is reading, for the driver
    /// to submit with no faulter. It starts at the first page at or past
    /// the stream's `next`, within its window, that a pull may cover
    /// (the reader steps over the resident ones as it did before), and
    /// is sized as a continuation, with no frame it would take a
    /// `pushOut` to free. `None` when there is nothing to pull or no
    /// room for it: a background request needs two free slots of its
    /// mapper, because the last one is a faulter's.
    pub fn size_ahead(&mut self, cache: CacheKey, slot: usize) -> Option<chorus_gmi::PullRequest> {
        let ps = self.ps();
        let desc = self.caches.get_mut(cache).filter(|c| !c.poisoned)?;
        let segment = desc.segment?;
        let stream = *desc.streams.table.get(slot).filter(|s| s.armed)?;
        if self.engine.free_slots(segment) < 2 {
            return None;
        }
        let mut reach = (stream.next..)
            .step_by(ps as usize)
            .take(stream.window as usize);
        let Some(off) = reach.find(|&o| desc.pullable(o, ps)) else {
            // Resident or past the segment's end, all of it: the stream
            // is over (its reader's next miss is outside its reach).
            desc.streams.table[slot].armed = false;
            return None;
        };
        let pages = self.size_pull(cache, off, Some(slot)).ok()?;
        (pages > 0).then(|| self.place_window(cache, segment, off, pages, Access::Read))
    }

    /// Whether a full-window stream keeps its next two windows in flight
    /// while it reads one, rather than one: only where the three stay
    /// under a quarter of the pool, the bound `size_pull` puts on one.
    pub fn two_ahead(&self) -> bool {
        3 * IPC_MESSAGE_PAGES * 4 < u64::from(self.phys.total_frames())
    }

    /// Sizes the `pullIn` run for a miss of `cache` at `off`, in pages
    /// (`ahead`: for stream `ahead` continued before its reader missed).
    ///
    /// The cache's stream table grants a window: `pull_cluster_pages`
    /// for a miss that continues no stream, doubling up to one IPC
    /// message for one that does. The run then stops at the first
    /// resident page, stub or unowned offset and at the segment's end.
    /// Whatever the run holds beyond `pull_cluster_pages` is readahead
    /// the PVM decided on its own, so it is also bounded by what the
    /// pool can take without a single upcall (see
    /// [`PvmState::secure_frames`]): no operation then carries both a
    /// multi-page pull and a `pushOut`.
    ///
    /// A miss that continues a stream also drops the reference of the
    /// window the stream has left, before frames are secured for the
    /// new one: see [`PvmState::drop_behind`].
    fn size_pull(
        &mut self,
        cache: CacheKey,
        off: u64,
        ahead: Option<usize>,
    ) -> chorus_gmi::Result<u64> {
        let ps = self.ps();
        let floor = self.config.pull_cluster_pages.max(1);
        // Readahead stays under a quarter of the pool: a delivery pins
        // its own earlier pages while the later ones land.
        let frames = u64::from(self.phys.total_frames());
        let mut cap = floor;
        while cap * 2 <= IPC_MESSAGE_PAGES && cap * 8 < frames {
            cap *= 2;
        }
        let two = self.two_ahead();
        let desc = self.cache_mut(cache)?;
        // A fully-backed cache owns *every* offset: until the segment's
        // length is known nothing bounds a window the mapper never
        // asked for, so the stream table is not consulted at all.
        let stream = match ahead {
            Some(slot) => Some(desc.streams.ahead(slot, off, two)),
            None => (!desc.fully_backed || desc.seg_len.is_some())
                .then(|| desc.streams.miss(off, ps, floor, cap)),
        };
        let window = stream
            .as_ref()
            .map_or(floor, |&(slot, ..)| desc.streams.table[slot].window);
        let mut pages = 1u64;
        while pages < window && desc.pullable(off + pages * ps, ps) {
            pages += 1;
        }
        if let Some((.., Some(left))) = &stream {
            self.drop_behind(cache, left.clone());
        }
        // Nobody waits for an ahead window: nothing free or clean, no
        // window.
        let least = if ahead.is_some() { 0 } else { floor };
        if pages > least {
            pages = self.secure_frames(pages).max(least);
        }
        if let Some((slot, before, _)) = stream {
            let s = &mut self.cache_mut(cache)?.streams.table[slot];
            // A pull driven again behind the last leaves `next` alone.
            if s.start == off {
                s.next = off + pages * ps;
            }
            let ramped = s.window > before;
            if before > 0 {
                self.count(Counter::ReadaheadHits, 1, At::Cache(cache));
                if ramped {
                    self.stats.bump(Counter::ReadaheadRamps);
                }
            }
        }
        Ok(pages)
    }

    /// Drop-behind: the resident pages of `left`, the window a stream of
    /// `cache` has just moved past, lose their reference, both halves. A
    /// sequential reader does not come back, so each is the hand's
    /// first-pass victim unless somebody touches it again; without this
    /// every scan page takes two passes and the hand revolves twice as
    /// fast, past hot pages that had no time to be used again.
    ///
    /// A page the stream has read is also put just ahead of the hand
    /// (`next_up`), to go before any the hand would have to clear; an
    /// unread readahead page keeps its place (DESIGN.md §13).
    fn drop_behind(&mut self, cache: CacheKey, left: Range<u64>) {
        let Some(desc) = self.caches.get(cache) else {
            return;
        };
        let mut dropped = 0u64;
        for &off in desc.entries.range(left) {
            if let Some(Slot::Present(p)) = self.gmap.get(cache, off) {
                let page = self.pages.get_mut(p).expect("dangling page key");
                dropped +=
                    u64::from(page.take_reference(&self.contexts, &mut *self.mmu, &self.model));
                if !page.prefetched {
                    self.policy.next_up(p);
                }
            }
        }
        self.stats.add(Counter::DropBehindPages, dropped);
    }

    /// True if the fragment policy of `cache` at `off` is
    /// copy-on-reference (materialize a private page on first access).
    pub fn is_cor_at(&self, cache: CacheKey, off: u64) -> bool {
        self.caches
            .get(cache)
            .and_then(|c| c.parent_at(off))
            .map(|f| f.cor)
            .unwrap_or(false)
    }
}
