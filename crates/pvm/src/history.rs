//! History objects: the paper's novel deferred-copy technique (§4.2).
//!
//! Copies between segments build *history trees* of their caches. The
//! shape invariant (§4.2.1): the tree is binary, and each source of a
//! copy has a single immediate descendant, its *history object*. Each
//! cache holds the current version of its own pages; misses are resolved
//! by walking towards the root. When a source page is about to be
//! modified, its original value is first placed in the source's history
//! object.
//!
//! - First copy from a source: the destination becomes the source's
//!   history (§4.2.2).
//! - Further copies from the same source: a *working* cache is inserted
//!   between the source and its previous history, becoming the source's
//!   new history and the parent of both the previous history and the new
//!   copy (§4.2.3, Figures 3.c/3.d).
//! - Copies into existing segments generalize the parent pointer into a
//!   sorted *fragment list*, so individual fragments may have different,
//!   arbitrary parents (§4.2.4).
//! - Deleting a copy discards its cache; deleting a source first turns it
//!   into a *zombie* internal node kept until its descendants die, and
//!   single-child zombies are merged downward — the bounded analogue of
//!   the shadow-chain garbage collection that §4.2.5 credits as "a major
//!   complication of the Mach algorithm".

use crate::descriptors::{CowSource, ParentFragment, Slot};
use crate::keys::{CacheKey, PageKey};
use crate::state::{blocked, Attempt, Blocked, PvmState, StubsTo};
use crate::stats::Counter;
use crate::trace::TraceEvent;
use chorus_gmi::{GmiError, Result};
use chorus_hal::{FrameNo, OpKind};

/// Fragment size used by working history objects to relay the entire
/// offset space of their parent.
pub(crate) const FULL_COVER: u64 = u64::MAX;

impl PvmState {
    // ----- coverage queries ------------------------------------------------

    /// True if `cache` has a history object that logically copied offset
    /// `off`, i.e. the original value of (cache, off) must be preserved
    /// before an in-place modification.
    pub fn has_history_covering(&self, cache: CacheKey, off: u64) -> bool {
        !self.history_child_offsets(cache, off).is_empty()
    }

    /// Every place in `cache`'s history object where the original value
    /// of (cache, off) logically belongs. With generalized fragment
    /// lists (§4.2.4), several fragments of the history child may alias
    /// the same source offset (repeated copies of an unmodified source),
    /// so the original must be preserved at each of them.
    pub fn history_child_offsets(&self, cache: CacheKey, off: u64) -> Vec<(CacheKey, u64)> {
        let Some(h) = self.caches.get(cache).and_then(|c| c.history) else {
            return Vec::new();
        };
        let Some(hist) = self.caches.get(h) else {
            return Vec::new();
        };
        hist.parents
            .iter()
            .filter(|f| f.parent == cache && f.covers_parent(off))
            .map(|f| (h, f.to_child(off)))
            .collect()
    }

    // ----- fragment list maintenance ----------------------------------------

    /// Installs a parent fragment on `child`, clipping any overlapping
    /// older fragments (a fragment copied later overrides earlier copies
    /// of the same range, §4.2.4). Maintains the parents' child lists.
    pub fn add_parent_fragment(&mut self, child: CacheKey, frag: ParentFragment) {
        self.charge(OpKind::HistoryOp);
        self.clip_parent_fragments(child, frag.child_off, frag.child_end());
        let list = &mut self
            .caches
            .get_mut(child)
            .expect("dead child cache")
            .parents;
        let pos = list.partition_point(|f| f.child_off < frag.child_off);
        list.insert(pos, frag);
        self.caches
            .get_mut(frag.parent)
            .expect("dead parent cache")
            .children
            .push(child);
    }

    /// Removes the parts of `child`'s fragments overlapping
    /// `[start, end)`, splitting fragments where needed.
    pub fn clip_parent_fragments(&mut self, child: CacheKey, start: u64, end: u64) {
        let old = core::mem::take(&mut self.caches.get_mut(child).expect("dead cache").parents);
        let mut kept: Vec<ParentFragment> = Vec::with_capacity(old.len() + 1);
        let mut removed_parents: Vec<CacheKey> = Vec::new();
        let mut added_parents: Vec<CacheKey> = Vec::new();
        for f in old {
            let f_end = f.child_end();
            if f_end <= start || f.child_off >= end {
                kept.push(f);
                continue;
            }
            // Overlap: the original fragment reference goes away...
            removed_parents.push(f.parent);
            // ...and up to two clipped pieces reference the parent anew.
            if f.child_off < start {
                let size = start - f.child_off;
                kept.push(ParentFragment { size, ..f });
                added_parents.push(f.parent);
            }
            if f_end > end {
                // A full-coverage fragment (a working object's) stays
                // full-coverage above the cut.
                let cut = end - f.child_off;
                let size = if f.size == FULL_COVER {
                    FULL_COVER
                } else {
                    f.size - cut
                };
                kept.push(ParentFragment {
                    child_off: end,
                    size,
                    parent_off: f.parent_off + cut,
                    ..f
                });
                added_parents.push(f.parent);
            }
        }
        self.caches.get_mut(child).expect("dead cache").parents = kept;
        // Add the clipped pieces' references before removing the old ones
        // so a parent's child list never transiently empties (which would
        // wrongly clear its history link).
        for p in added_parents {
            if let Some(pc) = self.caches.get_mut(p) {
                pc.children.push(child);
            }
        }
        for &p in &removed_parents {
            self.detach_child_ref(p, child);
        }
        for p in removed_parents {
            self.collapse_if_possible(p);
        }
    }

    /// Attaches a dependency fragment to `frag.parent`, preserving the
    /// single-history shape invariant: if the parent already has a
    /// different history object, the fragment is routed through it (when
    /// it is a transparent working object with no own data in the
    /// range) or through a freshly inserted working object.
    ///
    /// Used by internal re-composition (overwrite re-pointing, zombie
    /// merges); `link_copy` keeps its own paper-shaped insertion.
    pub fn attach_child_fragment(&mut self, child: CacheKey, frag: ParentFragment) {
        let p = frag.parent;
        let Some(pdesc) = self.caches.get(p) else {
            return;
        };
        match pdesc.history {
            None => {
                self.add_parent_fragment(child, frag);
                if let Some(pd) = self.caches.get_mut(p) {
                    pd.history = Some(child);
                }
            }
            Some(h) if h == child => {
                self.add_parent_fragment(child, frag);
            }
            Some(h) => {
                let frag_end = frag.parent_off.saturating_add(frag.size);
                let reusable = self
                    .caches
                    .get(h)
                    .map(|hd| {
                        hd.internal
                            && hd.parents.len() == 1
                            && hd.parents[0].parent == p
                            && hd.parents[0].size == FULL_COVER
                            && hd.parents[0].child_off == hd.parents[0].parent_off
                            && hd.entries.range(frag.parent_off..frag_end).next().is_none()
                            && hd.owned.range(frag.parent_off..frag_end).next().is_none()
                    })
                    .unwrap_or(false);
                if reusable {
                    // The existing working object is transparent over the
                    // range: route through it.
                    self.add_parent_fragment(child, ParentFragment { parent: h, ..frag });
                } else {
                    let w = self.insert_working_object(p, h);
                    self.add_parent_fragment(child, ParentFragment { parent: w, ..frag });
                    if let Some(wd) = self.caches.get_mut(w) {
                        wd.zombie = true;
                    }
                }
            }
        }
    }

    /// Removes one child-list entry of `parent` referring to `child`
    /// WITHOUT running the collapse check — used when several references
    /// must be detached before the graph is consistent enough to
    /// collapse. The history link goes with the last entry.
    pub fn detach_child_ref(&mut self, parent: CacheKey, child: CacheKey) {
        if let Some(pc) = self.caches.get_mut(parent) {
            if let Some(pos) = pc.children.iter().position(|&c| c == child) {
                pc.children.swap_remove(pos);
            }
            if pc.history == Some(child) && !pc.children.contains(&child) {
                pc.history = None;
            }
        }
    }

    // ----- tree construction (cache.copy, deferred) --------------------------

    /// Links `dst[dst_off..+size]` as a deferred copy of
    /// `src[src_off..+size]`, building the history tree.
    ///
    /// May block (waiting out in-transit destination pages, or allocating
    /// frames while preserving destination originals).
    pub fn link_copy(
        &mut self,
        src: CacheKey,
        src_off: u64,
        dst: CacheKey,
        dst_off: u64,
        size: u64,
        cor: bool,
    ) -> Attempt<()> {
        if src == dst {
            return Err(GmiError::InvalidArgument("deferred copy within one cache").into());
        }
        // 1. The destination range is being overwritten: preserve its
        //    originals for *its* history (if any), then drop its pages.
        self.overwrite_range(dst, dst_off, size)?;

        // 2. Protect the source's own present pages in the range
        //    read-only (§4.2.2: "all the pages of (the corresponding
        //    fragment of) the source are made read-only").
        self.write_protect_range(src, src_off, size)?;

        // 3. Tree linking with the shape invariant. The history link is
        //    (re)established *after* the destination fragment is
        //    installed: installing it clips overlapping old fragments,
        //    which could transiently empty the child list and clear the
        //    link.
        let src_desc = self.cache(src)?;
        let link_parent = match src_desc.history {
            None => {
                // Simple case (§4.2.2): dst becomes src's history.
                src
            }
            Some(h) if h == dst => {
                // Repeated copy into the same destination: the existing
                // link already serves; just extend coverage below.
                src
            }
            // §4.2.3: src already has a history; insert a working object
            // w between src and h. It is made collapsible (zombie) only
            // once fully linked, so no cascade can reclaim it
            // mid-construction.
            Some(h) => self.insert_working_object(src, h),
        };

        // 4. Install the destination fragment (working objects are
        //    identity overlays of src, so the parent offset is unchanged
        //    either way) and then (re)assert the source's history link.
        self.add_parent_fragment(
            dst,
            ParentFragment {
                child_off: dst_off,
                size,
                parent: link_parent,
                parent_off: src_off,
                cor,
            },
        );
        if link_parent == src {
            self.cache_mut(src)?.history = Some(dst);
        } else {
            self.cache_mut(src)?.history = Some(link_parent);
            // The working object now participates in zombie collapse.
            self.cache_mut(link_parent)?.zombie = true;
        }
        self.check_invariants_if_enabled();
        Ok(())
    }

    /// Inserts a fresh working object `w` between `p` and its history
    /// `h` (§4.2.3): `w` relays all of `p`, `h`'s fragments from `p`
    /// are re-pointed at `w` (an identity shift), and `w` becomes `p`'s
    /// history. `h` may itself use `p` as *its* history for a disjoint
    /// range (mutual links are legal at offset granularity); that
    /// relationship is unaffected. The caller marks `w` zombie once it
    /// has linked the new child.
    fn insert_working_object(&mut self, p: CacheKey, h: CacheKey) -> CacheKey {
        let w = self.create_internal_cache();
        self.stats.bump(Counter::WorkingObjects);
        self.charge(OpKind::ObjectCreate);
        self.charge(OpKind::HistoryOp);
        self.add_parent_fragment(
            w,
            ParentFragment {
                child_off: 0,
                size: FULL_COVER,
                parent: p,
                parent_off: 0,
                cor: false,
            },
        );
        let mut moved = 0;
        if let Some(hd) = self.caches.get_mut(h) {
            for f in hd.parents.iter_mut().filter(|f| f.parent == p) {
                f.parent = w;
                moved += 1;
            }
        }
        // Transfer the child references without a collapse check on
        // `p`: it is about to gain `w` as its history.
        for _ in 0..moved {
            self.detach_child_ref(p, h);
            self.caches
                .get_mut(w)
                .expect("fresh working object")
                .children
                .push(h);
        }
        self.charge_n(OpKind::HistoryOp, moved);
        if let Some(pd) = self.caches.get_mut(p) {
            pd.history = Some(w);
        }
        w
    }

    /// Creates an anonymous internal cache (a working history object).
    /// The caller marks it `zombie` once linked; from then on it lives
    /// exactly as long as it has children.
    pub fn create_internal_cache(&mut self) -> CacheKey {
        self.caches.insert(crate::descriptors::CacheDesc {
            internal: true,
            ..crate::descriptors::CacheDesc::new(self.ps())
        })
    }

    /// Write-protects the source's own resident pages in a range about
    /// to be logically copied ("all the pages of the corresponding
    /// fragment of the source are made read-only"). The hardware protect
    /// is issued per page on every copy — §5.3.2 derives ~0.02 ms per
    /// allocated page from Table 7, i.e. the original re-protected
    /// unconditionally — and the walk uses the cache's own page list,
    /// not the global map.
    pub fn write_protect_range(&mut self, cache: CacheKey, off: u64, size: u64) -> Result<()> {
        let offsets: Vec<u64> = self
            .cache(cache)?
            .entries
            .range(off..off.saturating_add(size))
            .collect();
        for o in offsets {
            if let Some(Slot::Present(p)) = self.gmap.get(cache, o) {
                self.charge(OpKind::ProtectPage);
                let page = self.page_mut(p);
                if page.writable {
                    page.writable = false;
                    self.reprotect_mappings(p);
                }
            }
        }
        Ok(())
    }

    /// Prepares a destination range for overwriting: preserves
    /// pre-overwrite values for the destination's history child
    /// (swapped-out own pages are pulled back in, per-page stubs
    /// duplicated, and inherited coverage re-pointed to the old
    /// parents), then discards the range like an invalidation
    /// ([`Self::discard_slot`], [`Self::disown_range`]).
    pub fn overwrite_range(&mut self, cache: CacheKey, off: u64, size: u64) -> Attempt<()> {
        let end = off.saturating_add(size);
        self.check_unpinned(cache, off, end)?;
        // 0. Swapped-out own pages that the history child still needs
        //    must come back in before their ownership marks die.
        if self.cache(cache)?.history.is_some() {
            let owned: Vec<u64> = self.cache(cache)?.owned.range(off..end).collect();
            for o in owned {
                if self.cache(cache)?.entries.contains(o) {
                    continue;
                }
                let needed = self
                    .history_child_offsets(cache, o)
                    .into_iter()
                    .any(|(h, ho)| self.caches.get(h).is_some_and(|hd| !hd.has_own(ho)));
                if needed {
                    self.resolve_version(cache, o, chorus_hal::Access::Read)?;
                }
            }
        }
        // 1. Walk the slots: the history child's snapshot includes a
        //    stub's value, so the stub is duplicated for it (at every
        //    aliasing offset); then the slot is discarded.
        let offsets: Vec<u64> = self.cache(cache)?.entries.range(off..end).collect();
        for o in offsets {
            let Some(slot) = self.slot(cache, o) else {
                continue;
            };
            if let Slot::Cow(src) = slot {
                for (h, ho) in self.history_child_offsets(cache, o) {
                    if !self.cache(h)?.has_own(ho) {
                        self.thread_cow_stub(h, ho, src);
                    }
                }
            }
            self.discard_slot(cache, o, slot)?;
        }
        // 2. The history child's *inherited* coverage of the range must
        //    keep resolving to the old parents, not to the new content:
        //    compose its fragments through this cache's current parents.
        if let Some(h) = self.cache(cache)?.history {
            self.repoint_history_coverage(cache, h, off, end);
        }
        // 3. Ownership marks for the overwritten range die with the old
        //    content.
        self.disown_range(cache, off, end)?;
        Ok(())
    }

    /// Refuses a discard of `[off, end)` of `cache` that would take a
    /// pinned page, before anything is discarded: a refused overwrite,
    /// invalidation or destruction changes nothing.
    pub fn check_unpinned(&self, cache: CacheKey, off: u64, end: u64) -> Result<()> {
        let pinned = |o| matches!(self.gmap.get(cache, o), Some(Slot::Present(p)) if self.page(p).lock_count > 0);
        match self.cache(cache)?.entries.range(off..end).any(pinned) {
            true => Err(GmiError::Locked),
            false => Ok(()),
        }
    }

    /// Discards what `cache` holds at `o`, whose slot is `slot`, as an
    /// overwrite or an invalidation of the range does, once the range
    /// is known to be unpinned: a page in transit is waited out; a
    /// resident page first gives its original to the cache's own history
    /// child (§4.2.4), then goes to its per-page stubs or is freed. A
    /// per-page stub is unthreaded, and a read through it had mapped its
    /// source page into this cache's regions: that mapping goes with the
    /// stub, or the reader goes on seeing the old value.
    pub fn discard_slot(&mut self, cache: CacheKey, o: u64, slot: Slot) -> Attempt<()> {
        match slot {
            Slot::Sync => return blocked(Blocked::WaitStub(cache, o)),
            Slot::Cow(src) => {
                if let CowSource::Page(p) = src {
                    self.unmap_via(p, cache);
                }
                self.unthread_cow_stub(cache, o, src);
                self.clear_slot(cache, o);
            }
            Slot::Present(p) => {
                if self.has_history_covering(cache, o) {
                    self.push_original_to_history(cache, o, p)?;
                }
                self.release_page(p);
            }
        }
        Ok(())
    }

    /// Drops `cache`'s ownership marks in `[off, end)`: it no longer has
    /// its own version there.
    pub fn disown_range(&mut self, cache: CacheKey, off: u64, end: u64) -> Result<()> {
        let owned: Vec<u64> = self.cache(cache)?.owned.range(off..end).collect();
        for o in owned {
            if self.gmap.loc_stubs_at(cache, o) > 0 {
                return Err(GmiError::Unsupported(
                    "discarding swapped-out data with outstanding per-page stubs",
                ));
            }
            self.cache_mut(cache)?.owned.remove(o);
        }
        Ok(())
    }

    /// Re-points the parts of `h`'s fragments that cover `[lo, hi)` of
    /// `cache` (in cache offsets) directly at `cache`'s current parents,
    /// composing offset translations — so `h` keeps seeing the values
    /// `cache` inherited before an overwrite.
    fn repoint_history_coverage(&mut self, cache: CacheKey, h: CacheKey, lo: u64, hi: u64) {
        let h_frags: Vec<ParentFragment> = match self.caches.get(h) {
            Some(hd) => hd
                .parents
                .iter()
                .copied()
                .filter(|f| {
                    f.parent == cache
                        && f.parent_off < hi
                        && f.parent_off.saturating_add(f.size) > lo
                })
                .collect(),
            None => return,
        };
        if h_frags.is_empty() {
            return;
        }
        let via: Vec<ParentFragment> = self
            .caches
            .get(cache)
            .map(|c| c.parents.clone())
            .unwrap_or_default();
        for f in h_frags {
            let plo = f.parent_off.max(lo);
            let phi = f.parent_off.saturating_add(f.size).min(hi);
            debug_assert!(plo < phi);
            let clo = f.to_child(plo);
            // Remove the covered piece (keeps the out-of-range parts).
            self.clip_parent_fragments(h, clo, clo + (phi - plo));
            // Re-add composed pieces where the cache inherited data.
            for piece in via.iter().filter_map(|&zf| f.through(zf, lo, hi)) {
                self.attach_child_fragment(h, piece);
            }
            self.charge(OpKind::HistoryOp);
        }
    }

    // ----- write-violation algorithm (§4.2.2, §4.2.3) -------------------------

    /// Preserves the original value of (cache, off) into the covering
    /// history object — at *every* aliasing offset that does not already
    /// have its own version ("it suffices to make the page writable"
    /// otherwise).
    pub fn push_original_to_history(
        &mut self,
        cache: CacheKey,
        off: u64,
        page: PageKey,
    ) -> Attempt<()> {
        for (h, h_off) in self.history_child_offsets(cache, off) {
            if self.cache(h)?.has_own(h_off) {
                // The history already has its own version at this spot.
                continue;
            }
            let frame = self.alloc_frame_keeping(page)?;
            let writable = !self.has_history_covering(h, h_off);
            self.copy_to_new_page(page, frame, (h, h_off), writable);
            self.stats.bump(Counter::HistoryPushes);
            self.trace.event(|| TraceEvent::HistoryPush {
                cache: h.index(),
                offset: h_off,
            });
            self.charge(OpKind::HistoryOp);
        }
        Ok(())
    }

    /// The full write-violation algorithm for a cache's own read-only
    /// page: resolve every constraint keeping it read-only, then make it
    /// writable and shoot down foreign (descendant) read mappings.
    pub fn promote_page(&mut self, cache: CacheKey, off: u64, page: PageKey) -> Attempt<()> {
        if self.page(page).cleaning {
            return blocked(Blocked::WaitStub(cache, off));
        }
        // Coherence constraint: the segment manager must grant write
        // access first (Table 3 getWriteAccess).
        if !self.page(page).seg_write_ok {
            let desc = self.cache(cache)?;
            let segment = desc.segment.ok_or(GmiError::InvalidArgument(
                "write access revoked on a segment-less cache",
            ))?;
            return blocked(Blocked::GetWriteAccess {
                cache,
                segment,
                offset: off,
                size: self.ps(),
                page,
            });
        }
        // Per-page stubs still reference the original value (§4.3).
        if !self.page(page).stubs.is_empty() {
            self.materialize_stub_original(page)?;
        }
        // History constraint (§4.2.2): place the original in the history
        // object unless it already has its own version.
        if !self.page(page).writable {
            self.push_original_to_history(cache, off, page)?;
            self.page_mut(page).writable = true;
            self.stats.bump(Counter::Promotes);
        }
        // Descendants reading the old value through this frame must
        // re-fault and find the preserved original.
        self.unmap_foreign(page);
        self.page_mut(page).dirty = true;
        self.charge(OpKind::ProtectPage);
        Ok(())
    }

    /// Copies the original value of a stub-source page into a fresh page
    /// owned by the first stub destination, re-threading the remaining
    /// stubs onto the new page.
    pub fn materialize_stub_original(&mut self, page: PageKey) -> Attempt<()> {
        let frame = self.alloc_frame_keeping(page)?;
        let mut stubs = core::mem::take(&mut self.page_mut(page).stubs);
        let first = stubs.remove(0);
        // The new page belongs to the first stub's cache; the remaining
        // stubs now thread on it. It stays read-only if that cache has
        // its own history child covering the offset.
        let writable = stubs.is_empty() && !self.has_history_covering(first.0, first.1);
        let new_page = self.copy_to_new_page(page, frame, first, writable);
        self.page_mut(new_page).stubs = stubs.clone();
        for (dc, doff) in stubs {
            self.set_slot(dc, doff, Slot::Cow(CowSource::Page(new_page)));
        }
        self.stats.bump(Counter::CowCopies);
        Ok(())
    }

    /// Lets go of a page its owner is discarding: handed over to its
    /// first stub destination while per-page stubs still need the value,
    /// freed otherwise.
    pub fn release_page(&mut self, page: PageKey) {
        if self.page(page).stubs.is_empty() {
            self.free_page(page, StubsTo::AlreadyHandled, true);
        } else {
            self.donate_page_to_stubs(page);
        }
    }

    /// Hands a page over to its first stub destination (see
    /// [`Self::release_page`]).
    pub fn donate_page_to_stubs(&mut self, page: PageKey) {
        let first = self.page_mut(page).stubs.remove(0);
        let remaining = self.page(page).stubs.clone();
        let writable = remaining.is_empty() && !self.has_history_covering(first.0, first.1);
        self.rehome_page(page, first, writable);
        for (dc, doff) in remaining {
            self.set_slot(dc, doff, Slot::Cow(CowSource::Page(page)));
        }
        self.stats.bump(Counter::MovedFrames);
    }

    /// Enters a copy of `src`'s value as a new dirty page at (cache, off)
    /// in the fresh `frame`, `writable` as the caller's rule has it.
    pub fn copy_to_new_page(
        &mut self,
        src: PageKey,
        frame: FrameNo,
        (cache, off): (CacheKey, u64),
        writable: bool,
    ) -> PageKey {
        let src_frame = self.page(src).frame;
        self.phys.copy_frame(src_frame, frame);
        self.create_page(cache, off, frame, writable, true)
    }

    /// Moves `page` to (cache, off), dirty and `writable` as the caller's
    /// rule has it: its mappings are shot down, its old slot and
    /// ownership mark given up. Its stubs stay threaded on it.
    pub fn rehome_page(&mut self, page: PageKey, (cache, off): (CacheKey, u64), writable: bool) {
        let (old_cache, old_off) = (self.page(page).cache, self.page(page).offset);
        self.unmap_all(page);
        if self.gmap.get(old_cache, old_off) == Some(Slot::Present(page)) {
            self.clear_slot(old_cache, old_off);
        }
        if let Some(c) = self.caches.get_mut(old_cache) {
            c.owned.remove(old_off);
        }
        let desc = self.page_mut(page);
        desc.cache = cache;
        desc.offset = off;
        desc.dirty = true;
        desc.writable = writable;
        self.set_slot(cache, off, Slot::Present(page));
        if let Some(c) = self.caches.get_mut(cache) {
            c.owned.insert(off);
        }
    }

    /// Installs a per-page stub at (dst, dst_off) and threads it on its
    /// source (§4.3): on the source page's stub list, or on the location
    /// index when the source is not resident. Only a page's first stub
    /// protects it read-only; later ones find it so, for a page with
    /// stubs has no writable mapping.
    pub fn thread_cow_stub(&mut self, dst: CacheKey, dst_off: u64, src: CowSource) {
        match src {
            CowSource::Page(p) => {
                let first = self.page(p).stubs.is_empty();
                self.page_mut(p).stubs.push((dst, dst_off));
                if first {
                    self.charge(OpKind::ProtectPage);
                    self.reprotect_mappings(p);
                }
            }
            CowSource::Loc(c, o) => self.gmap.push_loc_stub(c, o, (dst, dst_off)),
            CowSource::Zero => {}
        }
        self.set_slot(dst, dst_off, Slot::Cow(src));
    }

    /// Unthreads one per-page stub from its source bookkeeping.
    pub fn unthread_cow_stub(&mut self, dst: CacheKey, dst_off: u64, src: CowSource) {
        match src {
            CowSource::Page(p) => {
                if let Some(page) = self.pages.get_mut(p) {
                    page.stubs.retain(|&(c, o)| !(c == dst && o == dst_off));
                }
            }
            CowSource::Loc(c, o) => {
                let emptied = self.gmap.unthread_loc_stub(c, o, dst, dst_off);
                if emptied {
                    // The source cache may have been waiting only on this
                    // stub to die (zombie kept alive by loc stubs).
                    self.collapse_if_possible(c);
                }
            }
            CowSource::Zero => {}
        }
    }

    // ----- zombie collapse (§4.2.5) -------------------------------------------

    /// Frees a fully dead cache, or merges a single-child zombie into its
    /// child. Called whenever a cache loses a child or a user.
    pub fn collapse_if_possible(&mut self, cache: CacheKey) {
        let Some(desc) = self.caches.get(cache) else {
            return;
        };
        if desc.is_reclaimable() {
            // Outstanding location stubs (per-page copies of swapped or
            // not-yet-pulled data) keep the cache alive like children do.
            if self.gmap.has_loc_stubs_from(cache) {
                return;
            }
            self.reclaim_dead_cache(cache);
            return;
        }
        if !desc.zombie || desc.mapped_regions > 0 {
            return;
        }
        let Some(child) = desc.sole_child() else {
            return;
        };
        // Working objects relaying with FULL_COVER merge like any zombie.
        self.try_merge_into_child(cache, child);
    }

    /// Releases every resource of a cache with no remaining users.
    fn reclaim_dead_cache(&mut self, cache: CacheKey) {
        let offsets: Vec<u64> = match self.caches.get(cache) {
            Some(c) => c.entries.iter().collect(),
            None => return,
        };
        for o in offsets {
            match self.slot(cache, o) {
                Some(Slot::Present(p)) => self.release_page(p),
                Some(Slot::Cow(src)) => {
                    self.unthread_cow_stub(cache, o, src);
                    self.clear_slot(cache, o);
                }
                Some(Slot::Sync) | None => {
                    // A page in flight dies with the cache: its window
                    // stays queued and finds nothing to land.
                    if let Some(parked) = self.engine.parked.remove(&(cache, o)) {
                        self.drop_parked(cache, o, parked);
                    }
                }
            }
        }
        // Detach from parents (may cascade the collapse upward).
        let parents: Vec<CacheKey> = match self.caches.get(cache) {
            Some(c) => c.parents.iter().map(|f| f.parent).collect(),
            None => return,
        };
        self.caches
            .get_mut(cache)
            .expect("cache vanished")
            .parents
            .clear();
        self.charge(OpKind::ObjectDestroy);
        self.caches.remove(cache);
        // Detach every reference before any collapse runs, so no
        // intermediate collapse observes a half-detached graph.
        for &p in &parents {
            self.detach_child_ref(p, cache);
        }
        for p in parents {
            self.collapse_if_possible(p);
        }
    }

    /// True when nothing keeps `zombie` from merging synchronously:
    /// every page it holds is resident, unpinned and not being cleaned
    /// (no page in transit, no per-page stub of its own, no swapped-out
    /// data, which merging would have to pull in), and no location stub
    /// reads it.
    fn mergeable(&self, zombie: CacheKey) -> bool {
        let Some(z) = self.caches.get(zombie) else {
            return false;
        };
        let settled = |o| match self.gmap.get(zombie, o) {
            Some(Slot::Present(p)) => self.page(p).lock_count == 0 && !self.page(p).cleaning,
            _ => false,
        };
        z.entries.iter().all(settled)
            && z.owned.is_subset(&z.entries)
            && !self.gmap.has_loc_stubs_from(zombie)
    }

    /// Attempts the §4.2.5 merge of a zombie into its sole child. A page
    /// with per-page stubs goes down with them threaded (read-only while
    /// they remain), or to its stubs where the child has its own
    /// version. The merge is skipped (not an error — the chain simply
    /// persists, as in pre-GC Mach) when in-transit pages, locked pages,
    /// per-page stubs held by the zombie itself, or swapped-out data make
    /// it unsafe to do synchronously.
    fn try_merge_into_child(&mut self, zombie: CacheKey, child: CacheKey) {
        if !self.mergeable(zombie) {
            return;
        }

        let z = self.caches.get(zombie).expect("zombie vanished");
        let (zombie_frags, offsets) = (z.parents.clone(), Vec::from_iter(z.entries.iter()));
        // The child's fragments that point at the zombie.
        let child_frags = Vec::from_iter(
            (self.caches.get(child).into_iter().flat_map(|c| &c.parents))
                .filter(|f| f.parent == zombie)
                .copied(),
        );

        // 1. Move pages down into the child where the child lacks its
        //    own version and a fragment covers them; with generalized
        //    fragment lists SEVERAL child fragments may alias one zombie
        //    offset, and each uncovered alias needs the value — the
        //    first gets the page, the rest get copies. The merge bails
        //    (harmlessly, the chain just persists) if the pool cannot
        //    supply the extra frames without blocking.
        let targets_of = |s: &Self, o: u64| -> Vec<u64> {
            child_frags
                .iter()
                .filter(|f| f.covers_parent(o))
                .map(|f| f.to_child(o))
                .filter(|&co| !s.cache(child).expect("dead child").has_own(co))
                .collect()
        };
        let extra_frames: u64 = offsets
            .iter()
            .map(|&o| (targets_of(self, o).len().saturating_sub(1)) as u64)
            .sum();
        if (self.phys.free_frames() as u64) < extra_frames {
            return;
        }
        for o in offsets {
            let Some(Slot::Present(p)) = self.gmap.get(zombie, o) else {
                continue;
            };
            let targets = targets_of(self, o);
            match targets.split_first() {
                Some((&first, rest)) => {
                    // Copies for the additional aliases first (the frame
                    // data is still intact here).
                    for &co in rest {
                        let frame = self.phys.alloc().expect("reserved frame vanished");
                        let writable = !self.has_history_covering(child, co);
                        self.copy_to_new_page(p, frame, (child, co), writable);
                        self.charge(OpKind::HistoryOp);
                    }
                    // Re-home the page descriptor to the first alias. Its
                    // stubs stay threaded, and keep it read-only.
                    let writable = !self.has_history_covering(child, first);
                    self.rehome_page(p, (child, first), writable);
                }
                None => self.release_page(p),
            }
            self.charge(OpKind::HistoryOp);
        }

        // 2. Compose the child's zombie-fragments with the zombie's own
        //    parent fragments.
        let composed: Vec<ParentFragment> = child_frags
            .iter()
            .flat_map(|cf| {
                zombie_frags
                    .iter()
                    .filter_map(|&zf| cf.through(zf, 0, u64::MAX))
            })
            .collect();

        // 3. Splice the zombie out of the graph.
        //    Remove the child's fragments pointing at the zombie.
        if let Ok(c) = self.cache_mut(child) {
            c.parents.retain(|f| f.parent != zombie);
        }
        if let Some(z) = self.caches.get_mut(zombie) {
            z.children.retain(|&c| c != child);
        }
        //    Remove the zombie's own upward references.
        let z_parents: Vec<CacheKey> = zombie_frags.iter().map(|f| f.parent).collect();
        if let Some(z) = self.caches.get_mut(zombie) {
            z.parents.clear();
        }
        //    Install composed fragments on the child (routing through
        //    working objects where the shape invariant demands it).
        for f in composed {
            self.attach_child_fragment(child, f);
        }
        //    Whoever used the zombie as history now uses the child — but
        //    only where the composition kept a fragment from them; with
        //    no surviving fragment, nobody can see their originals
        //    anymore and the history link dissolves. Only a parent of
        //    the zombie can name it as its history.
        for &a in &z_parents {
            if self
                .caches
                .get(a)
                .is_some_and(|c| c.history == Some(zombie))
            {
                let keeps = self
                    .caches
                    .get(child)
                    .is_some_and(|c| c.parents.iter().any(|f| f.parent == a));
                self.caches.get_mut(a).expect("dead adopter").history = keeps.then_some(child);
            }
        }
        //    Detach the zombie from its parents (without collapsing
        //    them yet — the child now references them instead).
        for p in z_parents {
            self.detach_child_ref(p, zombie);
        }
        // The zombie should now be fully dead.
        debug_assert!(self
            .caches
            .get(zombie)
            .map(|z| z.children.is_empty() && z.parents.is_empty())
            .unwrap_or(true));
        self.charge(OpKind::ObjectDestroy);
        self.caches.remove(zombie);
        self.stats.bump(Counter::ZombieMerges);
        self.check_invariants_if_enabled();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptors::CacheDesc;
    use chorus_hal::{CostModel, CostParams, PageGeometry, PhysicalMemory, SoftMmu};
    use std::sync::Arc;

    fn state() -> PvmState {
        let geom = PageGeometry::new(256);
        let model = Arc::new(CostModel::new(CostParams::zero()));
        PvmState::new(
            geom,
            PhysicalMemory::new(geom, 64, model.clone()),
            Box::new(SoftMmu::new(geom, model.clone())),
            model,
            crate::config::PvmConfig {
                check_invariants: true,
                ..Default::default()
            },
        )
    }

    fn frag(child_off: u64, size: u64, parent: CacheKey, parent_off: u64) -> ParentFragment {
        ParentFragment {
            child_off,
            size,
            parent,
            parent_off,
            cor: false,
        }
    }

    #[test]
    fn clip_splits_fragments_and_keeps_child_lists_consistent() {
        let mut s = state();
        let parent = s.caches.insert(CacheDesc::default());
        let child = s.caches.insert(CacheDesc::default());
        s.add_parent_fragment(child, frag(0x100, 0x400, parent, 0x1000));
        s.caches.get_mut(parent).unwrap().history = Some(child);
        // Clip the middle: two pieces survive.
        s.clip_parent_fragments(child, 0x200, 0x300);
        let parents = &s.caches.get(child).unwrap().parents;
        assert_eq!(parents.len(), 2);
        assert_eq!(
            (parents[0].child_off, parents[0].size, parents[0].parent_off),
            (0x100, 0x100, 0x1000)
        );
        assert_eq!(
            (parents[1].child_off, parents[1].size, parents[1].parent_off),
            (0x300, 0x200, 0x1200)
        );
        assert_eq!(s.caches.get(parent).unwrap().children.len(), 2);
        s.check_invariants();
        // Clip everything: no fragments, no child refs.
        s.clip_parent_fragments(child, 0, u64::MAX);
        assert!(s.caches.get(child).unwrap().parents.is_empty());
        assert!(s.caches.get(parent).unwrap().children.is_empty());
        s.check_invariants();
    }

    #[test]
    fn clip_preserves_full_cover_upper_part() {
        let mut s = state();
        let parent = s.caches.insert(CacheDesc::default());
        let w = s.caches.insert(CacheDesc::default());
        s.add_parent_fragment(w, frag(0, FULL_COVER, parent, 0));
        s.clip_parent_fragments(w, 0x100, 0x200);
        let parents = &s.caches.get(w).unwrap().parents;
        assert_eq!(parents.len(), 2);
        // Identity translation preserved on the upper piece.
        assert_eq!(parents[1].to_parent(0x300), 0x300);
        assert_eq!(parents[1].size, FULL_COVER);
    }

    #[test]
    fn attach_creates_working_object_when_history_occupied() {
        let mut s = state();
        let p = s.caches.insert(CacheDesc::default());
        let h = s.caches.insert(CacheDesc::default());
        let other = s.caches.insert(CacheDesc::default());
        // h is p's history with its own data at the offset.
        s.add_parent_fragment(h, frag(0, 0x100, p, 0));
        s.caches.get_mut(p).unwrap().history = Some(h);
        s.caches.get_mut(h).unwrap().owned.insert(0);
        // Attaching another dependent must NOT reuse h (it has data).
        s.attach_child_fragment(other, frag(0, 0x100, p, 0));
        let w = s.caches.get(p).unwrap().history.unwrap();
        assert_ne!(w, h, "a fresh working object is inserted");
        assert!(s.caches.get(w).unwrap().internal);
        assert_eq!(s.caches.get(other).unwrap().parents[0].parent, w);
        assert_eq!(
            s.caches.get(h).unwrap().parents[0].parent,
            w,
            "h re-pointed through w"
        );
        s.check_invariants();
    }

    #[test]
    fn attach_reuses_transparent_working_object() {
        let mut s = state();
        let p = s.caches.insert(CacheDesc::default());
        let a = s.caches.insert(CacheDesc::default());
        let b = s.caches.insert(CacheDesc::default());
        s.attach_child_fragment(a, frag(0, 0x100, p, 0));
        assert_eq!(s.caches.get(p).unwrap().history, Some(a));
        // Second attach: creates w (a has the history slot).
        s.attach_child_fragment(b, frag(0, 0x100, p, 0));
        let w = s.caches.get(p).unwrap().history.unwrap();
        assert!(s.caches.get(w).unwrap().internal);
        // Third attach: the empty transparent w is reused, not chained.
        let c = s.caches.insert(CacheDesc::default());
        s.attach_child_fragment(c, frag(0, 0x100, p, 0));
        assert_eq!(
            s.caches.get(p).unwrap().history,
            Some(w),
            "no second working object"
        );
        assert_eq!(s.caches.get(c).unwrap().parents[0].parent, w);
        s.check_invariants();
    }

    #[test]
    fn history_child_offsets_reports_every_alias() {
        let mut s = state();
        let p = s.caches.insert(CacheDesc::default());
        let h = s.caches.insert(CacheDesc::default());
        s.add_parent_fragment(h, frag(0, 0x100, p, 0x200));
        s.add_parent_fragment(h, frag(0x300, 0x100, p, 0x200));
        s.caches.get_mut(p).unwrap().history = Some(h);
        let mut aliases = s.history_child_offsets(p, 0x240);
        aliases.sort();
        assert_eq!(aliases, vec![(h, 0x40), (h, 0x340)]);
        assert!(s.history_child_offsets(p, 0x100).is_empty());
    }
}
