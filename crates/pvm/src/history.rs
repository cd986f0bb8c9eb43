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
use crate::state::{blocked, done, Attempt, Blocked, PvmState, StubsTo};
use crate::stats::Counter;
use crate::trace::TraceEvent;
use chorus_gmi::{GmiError, Result};
use chorus_hal::OpKind;

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
            if f_end > end && f.size != FULL_COVER {
                let cut = end - f.child_off;
                kept.push(ParentFragment {
                    child_off: end,
                    size: f.size - cut,
                    parent_off: f.parent_off + cut,
                    ..f
                });
                added_parents.push(f.parent);
            } else if f.size == FULL_COVER && f_end > end {
                // Full-coverage fragments (working objects) keep their
                // upper part too.
                kept.push(ParentFragment {
                    child_off: end,
                    size: FULL_COVER,
                    parent_off: f.parent_off + (end - f.child_off),
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
                    // Insert a fresh working object between p and h.
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
                    self.repoint_fragments(h, p, w);
                    if let Some(pd) = self.caches.get_mut(p) {
                        pd.history = Some(w);
                    }
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
    /// collapse.
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
            return Err(GmiError::InvalidArgument("deferred copy within one cache"));
        }
        // 1. The destination range is being overwritten: preserve its
        //    originals for *its* history (if any), then drop its pages.
        match self.overwrite_range(dst, dst_off, size)? {
            crate::state::Outcome::Done(()) => {}
            crate::state::Outcome::Blocked(b) => return blocked(b),
        }

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
            Some(h) => {
                // §4.2.3: src already has a history; insert a working
                // object w between src and h. It is made collapsible
                // (zombie) only once fully linked, so no cascade can
                // reclaim it mid-construction.
                let w = self.create_internal_cache();
                self.stats.bump(Counter::WorkingObjects);
                self.charge(OpKind::ObjectCreate);
                self.charge(OpKind::HistoryOp);
                // w relays all of src.
                self.add_parent_fragment(
                    w,
                    ParentFragment {
                        child_off: 0,
                        size: FULL_COVER,
                        parent: src,
                        parent_off: 0,
                        cor: false,
                    },
                );
                // Re-point h's fragments from src to w (identity shift).
                // Note h may itself use src as *its* history for a
                // disjoint range (mutual links are legal at offset
                // granularity); that relationship is unaffected.
                self.repoint_fragments(h, src, w);
                self.cache_mut(src)?.history = Some(w);
                w
            }
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
        done(())
    }

    /// Re-points every fragment of `child` that references `old_parent`
    /// to `new_parent` (which must relay `old_parent` identically).
    fn repoint_fragments(&mut self, child: CacheKey, old_parent: CacheKey, new_parent: CacheKey) {
        let mut moved = 0;
        if let Some(c) = self.caches.get_mut(child) {
            for f in &mut c.parents {
                if f.parent == old_parent {
                    f.parent = new_parent;
                    moved += 1;
                }
            }
        }
        for _ in 0..moved {
            // Transfer child references without triggering collapse on
            // old_parent (it just gained new_parent as its history child).
            if let Some(pc) = self.caches.get_mut(old_parent) {
                if let Some(pos) = pc.children.iter().position(|&c| c == child) {
                    pc.children.swap_remove(pos);
                }
            }
            if let Some(pc) = self.caches.get_mut(new_parent) {
                pc.children.push(child);
            }
        }
        self.charge_n(OpKind::HistoryOp, moved);
    }

    /// Creates an anonymous internal cache (a working history object).
    /// The caller marks it `zombie` once linked; from then on it lives
    /// exactly as long as it has children.
    pub fn create_internal_cache(&mut self) -> CacheKey {
        self.caches.insert(crate::descriptors::CacheDesc {
            internal: true,
            ..Default::default()
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
            .copied()
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

    /// Prepares a destination range for overwriting: waits out sync
    /// stubs, refuses locked pages, preserves pre-overwrite values for
    /// the destination's history child (own pages are pushed, per-page
    /// stubs duplicated, and inherited coverage re-pointed to the old
    /// parents), unthreads per-page stubs, and finally drops the
    /// destination's own pages and ownership marks in the range.
    pub fn overwrite_range(&mut self, cache: CacheKey, off: u64, size: u64) -> Attempt<()> {
        let end = off.saturating_add(size);
        // 0. Swapped-out own pages that the history child still needs
        //    must come back in before their ownership marks die.
        if self.cache(cache)?.history.is_some() {
            let owned: Vec<u64> = self.cache(cache)?.owned.range(off..end).copied().collect();
            for o in owned {
                let resident = self.cache(cache)?.entries.contains(&o);
                if resident {
                    continue;
                }
                let mut needed = false;
                for (h, ho) in self.history_child_offsets(cache, o) {
                    let hd = self.cache(h)?;
                    if !(hd.owns(ho) || hd.entries.contains(&ho)) {
                        needed = true;
                    }
                }
                if needed {
                    match self.resolve_version(cache, o, chorus_hal::Access::Read)? {
                        crate::state::Outcome::Done(_) => {}
                        crate::state::Outcome::Blocked(b) => return blocked(b),
                    }
                }
            }
        }
        // 1. Walk the resident slots: preserve values for the history
        //    child, then drop them.
        let offsets: Vec<u64> = self
            .cache(cache)?
            .entries
            .range(off..end)
            .copied()
            .collect();
        for o in offsets {
            match self.slot(cache, o) {
                Some(Slot::Sync) => return blocked(Blocked::WaitStub(cache, o)),
                Some(Slot::Cow(src)) => {
                    // The history child's snapshot includes this stub's
                    // value: duplicate the stub for it (at every
                    // aliasing offset).
                    for (h, ho) in self.history_child_offsets(cache, o) {
                        let hd = self.cache(h)?;
                        if !(hd.owns(ho) || hd.entries.contains(&ho)) {
                            self.set_slot(h, ho, Slot::Cow(src));
                            match src {
                                crate::descriptors::CowSource::Page(p) => {
                                    self.page_mut(p).stubs.push((h, ho));
                                }
                                crate::descriptors::CowSource::Loc(c2, o2) => {
                                    self.gmap.push_loc_stub(c2, o2, (h, ho));
                                }
                                crate::descriptors::CowSource::Zero => {}
                            }
                        }
                    }
                    // A read through the stub mapped the source page
                    // into this cache's regions; that mapping must not
                    // outlive the stub, or the reader goes on seeing the
                    // old value after the overwrite.
                    if let crate::descriptors::CowSource::Page(p) = src {
                        self.unmap_via(p, cache);
                    }
                    self.unthread_cow_stub(cache, o, src);
                    self.clear_slot(cache, o);
                }
                Some(Slot::Present(p)) => {
                    if self.page(p).lock_count > 0 {
                        return Err(GmiError::Locked);
                    }
                    // Preserve the original for this cache's own history
                    // before the overwrite (§4.2.4 generalization).
                    if self.has_history_covering(cache, o) {
                        match self.push_original_to_history(cache, o, p)? {
                            crate::state::Outcome::Done(()) => {}
                            crate::state::Outcome::Blocked(b) => return blocked(b),
                        }
                    }
                    // Outstanding per-page stubs still need the value:
                    // hand the page over to the first stub instead of
                    // freeing it.
                    if !self.page(p).stubs.is_empty() {
                        self.donate_page_to_stubs(p);
                    } else {
                        self.free_page(p, StubsTo::AlreadyHandled, true);
                    }
                }
                None => {}
            }
        }
        // 2. The history child's *inherited* coverage of the range must
        //    keep resolving to the old parents, not to the new content:
        //    compose its fragments through this cache's current parents.
        if let Some(h) = self.cache(cache)?.history {
            self.repoint_history_coverage(cache, h, off, end);
        }
        // 3. Ownership marks for the overwritten range die with the old
        //    content.
        let owned: Vec<u64> = self.cache(cache)?.owned.range(off..end).copied().collect();
        for o in owned {
            if self.gmap.has_loc_stubs_at(cache, o) {
                return Err(GmiError::Unsupported(
                    "overwriting a swapped-out page with outstanding per-page stubs",
                ));
            }
            self.cache_mut(cache)?.owned.remove(&o);
        }
        done(())
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
            let chi = clo + (phi - plo);
            // Remove the covered piece (keeps the out-of-range parts).
            self.clip_parent_fragments(h, clo, chi);
            // Re-add composed pieces where the cache inherited data.
            for zf in &via {
                let zlo = plo.max(zf.child_off);
                let zhi = phi.min(zf.child_end());
                if zlo >= zhi {
                    continue;
                }
                self.attach_child_fragment(
                    h,
                    ParentFragment {
                        child_off: clo + (zlo - plo),
                        size: zhi - zlo,
                        parent: zf.parent,
                        parent_off: zf.to_parent(zlo),
                        cor: f.cor || zf.cor,
                    },
                );
            }
            self.charge(chorus_hal::OpKind::HistoryOp);
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
            let hist = self.cache(h)?;
            if hist.owns(h_off) || hist.entries.contains(&h_off) {
                // The history already has its own version at this spot.
                continue;
            }
            let frame = match self.alloc_frame_keeping(page)? {
                crate::state::Outcome::Done(f) => f,
                crate::state::Outcome::Blocked(b) => return blocked(b),
            };
            let src_frame = self.page(page).frame;
            self.phys.copy_frame(src_frame, frame);
            let writable = !self.has_history_covering(h, h_off);
            self.create_page(h, h_off, frame, writable, true);
            self.stats.bump(Counter::HistoryPushes);
            self.trace.event(|| TraceEvent::HistoryPush {
                cache: h.index(),
                offset: h_off,
            });
            self.charge(OpKind::HistoryOp);
        }
        done(())
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
            match self.materialize_stub_original(page)? {
                crate::state::Outcome::Done(()) => {}
                crate::state::Outcome::Blocked(b) => return blocked(b),
            }
        }
        // History constraint (§4.2.2): place the original in the history
        // object unless it already has its own version.
        if !self.page(page).writable {
            match self.push_original_to_history(cache, off, page)? {
                crate::state::Outcome::Done(()) => {}
                crate::state::Outcome::Blocked(b) => return blocked(b),
            }
            self.page_mut(page).writable = true;
            self.stats.bump(Counter::Promotes);
        }
        // Descendants reading the old value through this frame must
        // re-fault and find the preserved original.
        self.unmap_foreign(page);
        self.page_mut(page).dirty = true;
        self.charge(OpKind::ProtectPage);
        done(())
    }

    /// Copies the original value of a stub-source page into a fresh page
    /// owned by the first stub destination, re-threading the remaining
    /// stubs onto the new page.
    pub fn materialize_stub_original(&mut self, page: PageKey) -> Attempt<()> {
        let frame = match self.alloc_frame_keeping(page)? {
            crate::state::Outcome::Done(f) => f,
            crate::state::Outcome::Blocked(b) => return blocked(b),
        };
        let src_frame = self.page(page).frame;
        self.phys.copy_frame(src_frame, frame);
        let mut stubs = core::mem::take(&mut self.page_mut(page).stubs);
        let (first_cache, first_off) = stubs.remove(0);
        // The new page belongs to the first stub's cache; the remaining
        // stubs now thread on it. It stays read-only if that cache has
        // its own history child covering the offset.
        let writable = stubs.is_empty() && !self.has_history_covering(first_cache, first_off);
        let new_page = self.create_page(first_cache, first_off, frame, writable, true);
        self.page_mut(new_page).stubs = stubs.clone();
        for (dc, doff) in stubs {
            self.set_slot(dc, doff, Slot::Cow(CowSource::Page(new_page)));
        }
        self.stats.bump(Counter::CowCopies);
        done(())
    }

    /// Hands a page over to its first stub destination (used when the
    /// owner is discarding the page but stubs still need the value).
    pub fn donate_page_to_stubs(&mut self, page: PageKey) {
        let desc = self.page_mut(page);
        let (first_cache, first_off) = desc.stubs.remove(0);
        let old_cache = desc.cache;
        let old_off = desc.offset;
        desc.cache = first_cache;
        desc.offset = first_off;
        let remaining = desc.stubs.clone();
        desc.dirty = true;
        let writable = remaining.is_empty() && !self.has_history_covering(first_cache, first_off);
        self.page_mut(page).writable = writable;
        self.unmap_all(page);
        if self.gmap.get(old_cache, old_off) == Some(Slot::Present(page)) {
            self.clear_slot(old_cache, old_off);
        }
        if let Some(c) = self.caches.get_mut(old_cache) {
            c.owned.remove(&old_off);
        }
        self.set_slot(first_cache, first_off, Slot::Present(page));
        if let Ok(c) = self.cache_mut(first_cache) {
            c.owned.insert(first_off);
        }
        for (dc, doff) in remaining {
            self.set_slot(dc, doff, Slot::Cow(CowSource::Page(page)));
        }
        self.stats.bump(Counter::MovedFrames);
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
            Some(c) => c.entries.iter().copied().collect(),
            None => return,
        };
        for o in offsets {
            match self.slot(cache, o) {
                Some(Slot::Present(p)) => {
                    if !self.page(p).stubs.is_empty() {
                        self.donate_page_to_stubs(p);
                    } else {
                        self.free_page(p, StubsTo::AlreadyHandled, true);
                    }
                }
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

    /// Attempts the §4.2.5 merge of a zombie into its sole child. The
    /// merge is skipped (not an error — the chain simply persists, as in
    /// pre-GC Mach) when in-transit pages, locked pages, outstanding
    /// per-page stubs, or swapped-out data make it unsafe to do
    /// synchronously.
    fn try_merge_into_child(&mut self, zombie: CacheKey, child: CacheKey) {
        let Some(z) = self.caches.get(zombie) else {
            return;
        };
        // Bail-out checks.
        for &o in &z.entries {
            match self.gmap.get(zombie, o) {
                Some(Slot::Sync) => return,
                Some(Slot::Cow(_)) => return,
                Some(Slot::Present(p)) => {
                    let page = self.page(p);
                    if !page.stubs.is_empty() || page.lock_count > 0 || page.cleaning {
                        return;
                    }
                }
                None => return,
            }
        }
        let z = self.caches.get(zombie).expect("zombie vanished");
        if z.owned.iter().any(|o| !z.entries.contains(o)) {
            // Swapped-out data: merging would require pulling it in.
            return;
        }
        if self.gmap.has_loc_stubs_from(zombie) {
            return;
        }

        // The child's fragments that point at the zombie.
        let child_frags: Vec<ParentFragment> = self
            .cache(child)
            .map(|c| {
                c.parents
                    .iter()
                    .copied()
                    .filter(|f| f.parent == zombie)
                    .collect()
            })
            .unwrap_or_default();
        let zombie_frags: Vec<ParentFragment> = self
            .caches
            .get(zombie)
            .map(|z| z.parents.clone())
            .unwrap_or_default();

        // 1. Move pages down into the child where the child lacks its
        //    own version and a fragment covers them; with generalized
        //    fragment lists SEVERAL child fragments may alias one zombie
        //    offset, and each uncovered alias needs the value — the
        //    first gets the page, the rest get copies. The merge bails
        //    (harmlessly, the chain just persists) if the pool cannot
        //    supply the extra frames without blocking.
        let offsets: Vec<u64> = self
            .caches
            .get(zombie)
            .expect("zombie vanished")
            .entries
            .iter()
            .copied()
            .collect();
        let targets_of = |s: &Self, o: u64| -> Vec<u64> {
            child_frags
                .iter()
                .filter(|f| f.covers_parent(o))
                .map(|f| f.to_child(o))
                .filter(|co| {
                    let c = s.cache(child).expect("dead child");
                    !c.owns(*co) && !c.entries.contains(co)
                })
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
                        let src_frame = self.page(p).frame;
                        self.phys.copy_frame(src_frame, frame);
                        let writable = !self.has_history_covering(child, co);
                        self.create_page(child, co, frame, writable, true);
                        self.charge(OpKind::HistoryOp);
                    }
                    // Re-home the page descriptor to the first alias.
                    self.unmap_foreign(p);
                    self.clear_slot(zombie, o);
                    let desc = self.page_mut(p);
                    desc.cache = child;
                    desc.offset = first;
                    desc.dirty = true;
                    let writable = !self.has_history_covering(child, first)
                        && self.page(p).mappings.is_empty();
                    self.page_mut(p).writable = writable;
                    self.set_slot(child, first, Slot::Present(p));
                    self.cache_mut(child)
                        .expect("dead child")
                        .owned
                        .insert(first);
                }
                None => {
                    self.free_page(p, StubsTo::AlreadyHandled, true);
                }
            }
            self.charge(OpKind::HistoryOp);
        }

        // 2. Compose the child's zombie-fragments with the zombie's own
        //    parent fragments.
        let mut composed: Vec<ParentFragment> = Vec::new();
        for cf in &child_frags {
            for zf in &zombie_frags {
                // Overlap of cf's parent range with zf's child range, in
                // zombie offsets.
                let lo = cf.parent_off.max(zf.child_off);
                let hi = (cf.parent_off.saturating_add(cf.size)).min(zf.child_end());
                if lo >= hi {
                    continue;
                }
                composed.push(ParentFragment {
                    child_off: cf.to_child(lo),
                    size: if hi - lo == 0 { 0 } else { hi - lo },
                    parent: zf.parent,
                    parent_off: zf.to_parent(lo),
                    cor: cf.cor || zf.cor,
                });
            }
        }

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
            if f.size > 0 {
                self.attach_child_fragment(child, f);
            }
        }
        //    Whoever used the zombie as history now uses the child — but
        //    only where the composition kept a fragment from them; with
        //    no surviving fragment, nobody can see their originals
        //    anymore and the history link dissolves.
        let adopters: Vec<CacheKey> = self
            .caches
            .iter()
            .filter(|(_, c)| c.history == Some(zombie))
            .map(|(k, _)| k)
            .collect();
        for a in adopters {
            let keeps = self
                .caches
                .get(child)
                .map(|c| c.parents.iter().any(|f| f.parent == a))
                .unwrap_or(false);
            self.caches.get_mut(a).expect("dead adopter").history =
                if keeps { Some(child) } else { None };
        }
        //    Detach the zombie from its parents (without collapsing
        //    them yet — the child now references them instead).
        for p in z_parents {
            if let Some(pc) = self.caches.get_mut(p) {
                if let Some(pos) = pc.children.iter().position(|&c| c == zombie) {
                    pc.children.swap_remove(pos);
                }
            }
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
