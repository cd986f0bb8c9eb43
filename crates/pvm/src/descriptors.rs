//! The PVM descriptor types (paper Figure 2).
//!
//! - a **context descriptor** per context, holding the sorted list of its
//!   regions;
//! - a **region descriptor** per region: start address, size, access
//!   rights, the cache it maps and the start offset in that segment;
//! - a **cache descriptor** per local cache: segment identity, the set of
//!   currently-cached page offsets, the (generalized, §4.2.4) parent
//!   fragment list and the history link (§4.2.1);
//! - a **real page descriptor** per resident page: back pointer to its
//!   cache, offset in the segment, plus reverse mappings and the threaded
//!   per-virtual-page stub list (§4.3).
//!
//! The paper's "single global map, hashing real page descriptors by the
//! page's cache and its offset" lives in [`crate::state::PvmState`]; a
//! [`Slot`] in that map holds a page, a synchronization page stub, or a
//! copy-on-write page stub.

use crate::config::IPC_MESSAGE_PAGES;
use crate::keys::{CacheKey, CtxKey, PageKey, RegKey};
use chorus_gmi::SegmentId;
use chorus_hal::{Arena, CostModel, FrameNo, Mmu, MmuCtx, OpKind, Prot, VirtAddr, Vpn};
use core::ops::Range;
use std::collections::BTreeSet;

/// A context descriptor: one protected virtual address space.
#[derive(Debug)]
pub(crate) struct ContextDesc {
    /// The machine-dependent translation context.
    pub mmu_ctx: MmuCtx,
    /// Regions of the context, sorted by start address (non-overlapping).
    pub regions: Vec<RegKey>,
}

/// A region descriptor: a contiguous window of a context mapped onto a
/// cache.
#[derive(Debug, Clone)]
pub(crate) struct RegionDesc {
    /// Owning context.
    pub ctx: CtxKey,
    /// Start virtual address (page aligned).
    pub addr: VirtAddr,
    /// Size in bytes (page aligned, non-zero).
    pub size: u64,
    /// Protection of the entire region (§3.2: one protection per region).
    pub prot: Prot,
    /// The cache this region maps.
    pub cache: CacheKey,
    /// Start offset of the window within the cache's segment.
    pub offset: u64,
    /// Whether `lockInMemory` is in effect.
    pub locked: bool,
    /// Segment offsets whose pin count *this region* holds. Tracking pins
    /// per region (rather than inferring them from `lock_count > 0`)
    /// makes nested `lockInMemory` of the same page by two regions
    /// balance: each region contributes exactly one pin and removes
    /// exactly that pin on unlock.
    pub pinned: BTreeSet<u64>,
}

impl RegionDesc {
    /// Exclusive end address.
    pub fn end(&self) -> VirtAddr {
        VirtAddr(self.addr.0 + self.size)
    }

    /// True if the region contains `va`.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.addr && va < self.end()
    }

    /// Segment offset corresponding to a virtual address in the region.
    pub fn va_to_offset(&self, va: VirtAddr) -> u64 {
        debug_assert!(self.contains(va));
        self.offset + (va.0 - self.addr.0)
    }

    /// Virtual address corresponding to a segment offset, if the offset
    /// falls inside the window.
    #[allow(dead_code)] // Symmetry helper; exercised by unit tests.
    pub fn offset_to_va(&self, offset: u64) -> Option<VirtAddr> {
        if offset >= self.offset && offset < self.offset + self.size {
            Some(VirtAddr(self.addr.0 + (offset - self.offset)))
        } else {
            None
        }
    }
}

/// One entry of a cache's generalized parent list (§4.2.4): the fragment
/// `[child_off, child_off + size)` of this cache was copied from
/// `[parent_off, parent_off + size)` of `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ParentFragment {
    /// Start offset of the fragment in the child cache.
    pub child_off: u64,
    /// Fragment length in bytes.
    pub size: u64,
    /// The parent cache.
    pub parent: CacheKey,
    /// Start offset of the fragment in the parent cache.
    pub parent_off: u64,
    /// Copy-on-reference: materialize a private page on *any* first
    /// access, not only on writes (§4.2.2).
    pub cor: bool,
}

impl ParentFragment {
    /// Exclusive end offset in the child (saturating: working history
    /// objects use a full-coverage fragment of size `u64::MAX`).
    pub fn child_end(&self) -> u64 {
        self.child_off.saturating_add(self.size)
    }

    /// True if the fragment covers child offset `off`.
    pub fn covers_child(&self, off: u64) -> bool {
        off >= self.child_off && off < self.child_end()
    }

    /// True if the fragment's parent range covers parent offset `off`.
    pub fn covers_parent(&self, off: u64) -> bool {
        off >= self.parent_off && off < self.parent_off.saturating_add(self.size)
    }

    /// Maps a child offset to the corresponding parent offset.
    pub fn to_parent(self, off: u64) -> u64 {
        debug_assert!(self.covers_child(off));
        self.parent_off + (off - self.child_off)
    }

    /// Maps a parent offset back to the corresponding child offset.
    pub fn to_child(self, off: u64) -> u64 {
        debug_assert!(self.covers_parent(off));
        self.child_off + (off - self.parent_off)
    }

    /// Composes this fragment, a child's view of a middle cache, with
    /// `below`, one of the middle cache's own fragments, over the middle
    /// cache's offsets `[lo, hi)`: the piece of the child that reaches
    /// `below.parent` through the middle cache, if they overlap.
    pub fn through(self, below: ParentFragment, lo: u64, hi: u64) -> Option<ParentFragment> {
        let lo = lo.max(self.parent_off).max(below.child_off);
        let hi = hi
            .min(self.parent_off.saturating_add(self.size))
            .min(below.child_end());
        (lo < hi).then(|| ParentFragment {
            child_off: self.to_child(lo),
            size: hi - lo,
            parent: below.parent,
            parent_off: below.to_parent(lo),
            cor: self.cor || below.cor,
        })
    }
}

/// A local cache descriptor: the real memory in use for one segment.
#[derive(Debug, Default)]
pub(crate) struct CacheDesc {
    /// Identifier of the data segment, once known. Temporary caches get
    /// one lazily through the `segmentCreate` upcall at first `pushOut`
    /// (§5.1.2).
    pub segment: Option<SegmentId>,
    /// A permanent segment backs *every* offset of the cache, so a miss
    /// with no parent coverage means `pullIn`, not zero-fill.
    pub fully_backed: bool,
    /// Offsets (page aligned) with a live [`Slot`] in the global map.
    pub entries: BTreeSet<u64>,
    /// Offsets this cache owns a private version of, resident or swapped
    /// out. Misses on owned offsets are resolved by `pullIn`; misses on
    /// un-owned offsets go up the history tree.
    pub owned: BTreeSet<u64>,
    /// Generalized parent list, sorted by `child_off`, non-overlapping.
    pub parents: Vec<ParentFragment>,
    /// The history object: this cache's single immediate descendant in
    /// the history tree (§4.2.1 shape invariant).
    pub history: Option<CacheKey>,
    /// Caches whose parent fragments reference this cache (one entry per
    /// fragment, so a child with two fragments appears twice).
    pub children: Vec<CacheKey>,
    /// Destroyed while descendants still depend on it: kept as an
    /// internal node until they are gone (§4.2.2 "source deleted first").
    pub zombie: bool,
    /// Created unilaterally by the memory manager (a working history
    /// object, §4.2.3).
    pub internal: bool,
    /// Number of regions currently mapping this cache.
    pub mapped_regions: u32,
    /// Quarantined after a permanent mapper failure: further operations
    /// needing the cache fail with `CachePoisoned` instead of re-driving
    /// upcalls into an unavailable mapper. Resident clean data may still
    /// be invalidated and the cache destroyed.
    pub poisoned: bool,
    /// Known length of the backing segment, if any. Clamps clustered
    /// `pullIn` runs of fully-backed caches (which own *every* offset) so
    /// readahead never asks the mapper for data past segment end. Grown
    /// when a `pushOut` extends the segment; `None` means unknown: the
    /// configured `pull_cluster_pages` run goes unclamped and the stream
    /// table adds nothing to it.
    pub seg_len: Option<u64>,
    /// The sequential streams detected in this cache's miss sequence;
    /// they size clustered `pullIn` runs.
    pub streams: StreamTable,
}

/// Streams tracked per cache: a fifth replaces the weakest.
const MAX_STREAMS: usize = 4;

/// Misses of the cache a stream may sit out before its window halves.
const STREAM_IDLE_MISSES: u64 = 32;

/// One detected sequential stream of a cache's miss sequence.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stream {
    /// Where the stream's last pull began. A miss here again is that
    /// pull driven again after it failed: same stream, same window.
    pub start: u64,
    /// Offset one past the stream's last pull, set by whoever sized it
    /// once the run's real end is known. A miss anywhere in `[next,
    /// next + window pages)` continues the stream, so a pull cut short
    /// by a resident page does not break it.
    pub next: u64,
    /// The window last granted, in pages, demand page included.
    pub window: u64,
    /// The table's miss count when the stream last continued.
    seen: u64,
    /// The two pulls before the last, older first, `[from, to)` each,
    /// while their pages keep their reference: an ahead pull is
    /// submitted as the reader enters the pull before the last (or the
    /// last, one window deep), so drop-behind lags behind the reader.
    /// Empty otherwise.
    lag: [(u64, u64); 2],
    /// A continuation granted the stream a whole IPC message, and there
    /// may be something past `next` to pull: the first use of a
    /// readahead page of `[start, next)`, or of the pull before it, makes
    /// the next window due ([`StreamTable::due`]).
    pub armed: bool,
    /// The `next` whose due window was last counted as skipped
    /// ([`StreamTable::skip`]).
    skipped: Option<u64>,
}

/// A cache's stream table. Interleaved random misses and a second
/// sequential reader each get an entry of their own instead of
/// resetting the cursor of the stream that is ramping.
#[derive(Debug, Default)]
pub(crate) struct StreamTable {
    pub table: Vec<Stream>,
    misses: u64,
}

impl StreamTable {
    /// Finds the stream a miss at `off` belongs to and sets its window.
    /// A miss inside a stream's window continues it and doubles the
    /// window up to `cap`; a miss elsewhere starts a stream of `base`
    /// pages in place of the weakest one (smallest window, then longest
    /// idle). `base <= cap`, both at least one page of `ps` bytes.
    /// Returns the stream's index in `table`, the window it had before
    /// (0: the miss started it) and, when the miss *continued* the
    /// stream, the byte range of the pull it has now left behind. A miss
    /// at the last pull's start is that pull driven again: the stream
    /// has left nothing. So is one at the start of the pull before it
    /// (an ahead window given up while the one after it went on), and
    /// the stream stays where it is.
    pub fn miss(
        &mut self,
        off: u64,
        ps: u64,
        base: u64,
        cap: u64,
    ) -> (usize, u64, Option<Range<u64>>) {
        self.misses += 1;
        let now = self.misses;
        for s in &mut self.table {
            if now - s.seen > STREAM_IDLE_MISSES {
                s.window = (s.window / 2).max(1);
                s.seen = now;
                s.armed = false;
            }
        }
        let inside = |s: &Stream| off >= s.next && (off - s.next) / ps < s.window;
        let behind = |s: &Stream| s.lag[1].0 == off && off < s.lag[1].1;
        let found = self
            .table
            .iter()
            .position(|s| s.start == off)
            .or_else(|| {
                (0..self.table.len())
                    .filter(|&i| inside(&self.table[i]))
                    .max_by_key(|&i| self.table[i].window)
            })
            .or_else(|| self.table.iter().position(behind));
        let slot = found.unwrap_or_else(|| {
            if self.table.len() < MAX_STREAMS {
                self.table.push(Stream::default());
                return self.table.len() - 1;
            }
            (0..MAX_STREAMS)
                .min_by_key(|&i| (self.table[i].window, self.table[i].seen))
                .expect("a full table is not empty")
        });
        let s = &mut self.table[slot];
        if found.is_none() {
            *s = Stream {
                next: off,
                ..Stream::default()
            };
        }
        let before = s.window;
        let redriven_behind = behind(s);
        let again = off == s.start || redriven_behind;
        // The pulls ahead pulls left lagging are caught up with here,
        // from the oldest.
        let from = s.lag.iter().find(|l| l.0 < l.1).map_or(s.start, |l| l.0);
        let left = (before > 0 && !again).then_some(from..s.next);
        if before == 0 || !again {
            s.window = before.saturating_mul(2).clamp(base, cap);
            s.armed = before > 0 && s.window >= IPC_MESSAGE_PAGES;
            s.lag = Default::default();
        }
        if !redriven_behind {
            s.start = off;
        }
        s.seen = now;
        (slot, before, left)
    }

    /// The stream whose next window the first use of the readahead page
    /// at `off` makes due: a full-window one whose last pull holds it,
    /// else (`two`: two windows in flight) whose pull before the last
    /// does, as a stale stream's may overlap a live one's last. See
    /// `PvmState::size_ahead`.
    pub fn due(&self, off: u64, two: bool) -> Option<usize> {
        let holds = |s: &Stream, (from, to): (u64, u64)| s.armed && (from..to).contains(&off);
        let last = self.table.iter().position(|s| holds(s, (s.start, s.next)));
        last.or_else(|| two.then(|| self.table.iter().position(|s| holds(s, s.lag[1])))?)
    }

    /// Continues stream `slot` at `off` ahead of its reader: no miss, so
    /// the window stays and nobody ages. Returns what [`Self::miss`]
    /// does. The pull left behind is the one before the one the reader
    /// has just entered: the older of the two that lag (`two`), or the
    /// one before the last.
    pub fn ahead(&mut self, slot: usize, off: u64, two: bool) -> (usize, u64, Option<Range<u64>>) {
        let s = &mut self.table[slot];
        let [older, newer] = s.lag;
        let left = if two { older } else { newer };
        s.lag = [if two { newer } else { (0, 0) }, (s.start, s.next)];
        s.start = off;
        s.seen = self.misses;
        s.armed = true;
        (slot, s.window, Some(left.0..left.1))
    }

    /// Stream `slot`'s due window was not pulled: true the first time
    /// for the window at its `next` (`ahead_skipped` counts windows, not
    /// the first uses that retry one).
    pub fn skip(&mut self, slot: usize) -> bool {
        self.table
            .get_mut(slot)
            .is_none_or(|s| s.skipped.replace(s.next) != Some(s.next))
    }
}

impl CacheDesc {
    /// Finds the parent fragment covering child offset `off`, if any.
    pub fn parent_at(&self, off: u64) -> Option<ParentFragment> {
        // `parents` is sorted by child_off and non-overlapping.
        let idx = self.parents.partition_point(|f| f.child_end() <= off);
        self.parents
            .get(idx)
            .copied()
            .filter(|f| f.covers_child(off))
    }

    /// True if this cache owns a version of `off` (resident or swapped).
    pub fn owns(&self, off: u64) -> bool {
        self.fully_backed || self.owned.contains(&off)
    }

    /// True if the cache has its own version at `off`: owned, or in the
    /// global map (a resident page, a stub). A history or merge must not
    /// put a second one there.
    pub fn has_own(&self, off: u64) -> bool {
        self.owns(off) || self.entries.contains(&off)
    }

    /// True if a `pullIn` may cover the page at `off`: owned, neither
    /// resident nor in transit nor a COW stub (all indexed in `entries`:
    /// pulling them again would be redundant mapper I/O), and inside the
    /// segment's known length (a run crossing it would come back
    /// truncated).
    pub fn pullable(&self, off: u64, ps: u64) -> bool {
        self.owns(off)
            && !self.entries.contains(&off)
            && self.seg_len.is_none_or(|len| off + ps <= len)
    }

    /// True if the cache can be reclaimed entirely (no users left).
    pub fn is_reclaimable(&self) -> bool {
        self.zombie && self.children.is_empty() && self.mapped_regions == 0
    }

    /// The single distinct child, if there is exactly one.
    pub fn sole_child(&self) -> Option<CacheKey> {
        let first = *self.children.first()?;
        if self.children.iter().all(|&c| c == first) {
            Some(first)
        } else {
            None
        }
    }
}

/// One reverse mapping of a page: the page's frame is entered in the MMU
/// at (`ctx`, `vpn`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mapping {
    /// The mapped context.
    pub ctx: CtxKey,
    /// The virtual page within that context.
    pub vpn: Vpn,
    /// The cache through which the mapping was established. Descendant
    /// caches may map an ancestor's page read-only; those mappings must
    /// be shot down when the ancestor page is promoted to writable.
    pub via: CacheKey,
}

/// A real page descriptor.
#[derive(Debug)]
pub(crate) struct PageDesc {
    /// Back pointer to the owning cache.
    pub cache: CacheKey,
    /// The page's offset in the segment (page aligned).
    pub offset: u64,
    /// The physical frame holding the data.
    pub frame: FrameNo,
    /// History constraint: false while a history descendant may still
    /// need this page's original value, so it must stay read-only.
    pub writable: bool,
    /// Coherence constraint: the segment manager granted write access
    /// (`pullIn` access mode / `getWriteAccess`, Table 3).
    pub seg_write_ok: bool,
    /// Modified relative to the segment.
    pub dirty: bool,
    /// A `pushOut` is collecting this page; writers must wait.
    pub cleaning: bool,
    /// `lockInMemory` pin count.
    pub lock_count: u32,
    /// The software half of the reference signal: set at birth, by
    /// `map_page` and by the PVM's own consumption of the page
    /// (`resolve_version`). The hardware half is the referenced
    /// bit of each entry of `mappings`; see [`PageDesc::referenced`].
    pub ref_bit: bool,
    /// Landed as the readahead tail of a `pullIn` and not mapped since:
    /// evicting it in this state is a wasted prefetch.
    pub prefetched: bool,
    /// Reverse mappings of this page's frame.
    pub mappings: Vec<Mapping>,
    /// Per-virtual-page copy-on-write stubs threaded on this source page
    /// (§4.3: "all the stubs for some source page are threaded together
    /// on a list attached to its page descriptor").
    pub stubs: Vec<(CacheKey, u64)>,
}

impl PageDesc {
    /// Creates a descriptor for a fresh page.
    pub fn new(cache: CacheKey, offset: u64, frame: FrameNo) -> PageDesc {
        PageDesc {
            cache,
            offset,
            frame,
            writable: true,
            seg_write_ok: true,
            dirty: false,
            cleaning: false,
            lock_count: 0,
            ref_bit: true,
            prefetched: false,
            mappings: Vec::new(),
            stubs: Vec::new(),
        }
    }

    /// True if a write may currently be performed in place.
    pub fn write_allowed(&self) -> bool {
        self.writable && self.seg_write_ok && self.stubs.is_empty() && !self.cleaning
    }

    /// The use signal replacement reads: the software half, or the
    /// hardware referenced bit of any mapping of the page.
    pub fn referenced(&self, contexts: &Arena<ContextDesc>, mmu: &dyn Mmu) -> bool {
        self.ref_bit
            || self.mappings.iter().any(|m| {
                contexts
                    .get(m.ctx)
                    .is_some_and(|c| mmu.referenced(c.mmu_ctx, m.vpn))
            })
    }

    /// Clears both halves of the reference signal and reports whether
    /// either was set. Each hardware bit found set cost one TLB
    /// invalidate, charged as a `VaInvalidatePage`.
    pub fn take_reference(
        &mut self,
        contexts: &Arena<ContextDesc>,
        mmu: &mut dyn Mmu,
        model: &CostModel,
    ) -> bool {
        let mut bits = 0u64;
        for m in &self.mappings {
            if let Some(c) = contexts.get(m.ctx) {
                bits += u64::from(mmu.take_referenced(c.mmu_ctx, m.vpn));
            }
        }
        model.charge_n(OpKind::VaInvalidatePage, bits);
        core::mem::take(&mut self.ref_bit) || bits > 0
    }

    /// The hardware protection a mapping of this page may carry, given
    /// the region's protection.
    pub fn effective_prot(&self, region_prot: Prot) -> Prot {
        if self.write_allowed() {
            region_prot
        } else {
            region_prot.remove(Prot::WRITE)
        }
    }
}

/// What the source of a per-virtual-page copy-on-write stub points at
/// (§4.3): the source page descriptor if resident, otherwise the source
/// cache and offset; `Zero` records that the source was unpopulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CowSource {
    /// The source page is resident.
    Page(PageKey),
    /// The source is not resident: (source cache, source offset).
    Loc(CacheKey, u64),
    /// The source had no data: materialize a zero-filled page.
    Zero,
}

/// A slot of the global map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A resident real page.
    Present(PageKey),
    /// A synchronization page stub: the page is in transit (`pullIn` or
    /// `pushOut`); accessors sleep until it lands (§4.1.2).
    Sync,
    /// A per-virtual-page copy-on-write stub (§4.3).
    Cow(CowSource),
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;

    fn ck(i: u32) -> CacheKey {
        Id::from_raw_parts(i, 0)
    }

    #[test]
    fn region_va_offset_roundtrip() {
        let r = RegionDesc {
            ctx: Id::from_raw_parts(0, 0),
            addr: VirtAddr(0x8000),
            size: 0x4000,
            prot: Prot::RW,
            cache: ck(0),
            offset: 0x2000,
            locked: false,
            pinned: BTreeSet::new(),
        };
        assert!(r.contains(VirtAddr(0x8000)));
        assert!(!r.contains(VirtAddr(0xC000)));
        assert_eq!(r.va_to_offset(VirtAddr(0x9000)), 0x3000);
        assert_eq!(r.offset_to_va(0x3000), Some(VirtAddr(0x9000)));
        assert_eq!(r.offset_to_va(0x1000), None);
        assert_eq!(r.offset_to_va(0x6000), None);
    }

    #[test]
    fn parent_fragment_translation() {
        let f = ParentFragment {
            child_off: 0x1000,
            size: 0x2000,
            parent: ck(1),
            parent_off: 0x5000,
            cor: false,
        };
        assert!(f.covers_child(0x1000));
        assert!(f.covers_child(0x2FFF));
        assert!(!f.covers_child(0x3000));
        assert_eq!(f.to_parent(0x1800), 0x5800);
        assert_eq!(f.to_child(0x5800), 0x1800);
        assert!(f.covers_parent(0x5000));
        assert!(!f.covers_parent(0x7000));
    }

    #[test]
    fn cache_parent_at_uses_sorted_fragments() {
        let c = CacheDesc {
            parents: vec![
                ParentFragment {
                    child_off: 0,
                    size: 0x1000,
                    parent: ck(1),
                    parent_off: 0,
                    cor: false,
                },
                ParentFragment {
                    child_off: 0x2000,
                    size: 0x1000,
                    parent: ck(2),
                    parent_off: 0x800,
                    cor: true,
                },
            ],
            ..CacheDesc::default()
        };
        assert_eq!(c.parent_at(0).unwrap().parent, ck(1));
        assert_eq!(c.parent_at(0xFFF).unwrap().parent, ck(1));
        assert!(c.parent_at(0x1000).is_none());
        assert_eq!(c.parent_at(0x2000).unwrap().parent, ck(2));
        assert!(c.parent_at(0x3000).is_none());
    }

    #[test]
    fn cache_ownership() {
        let mut c = CacheDesc::default();
        assert!(!c.owns(0));
        c.owned.insert(0x1000);
        assert!(c.owns(0x1000));
        assert!(!c.owns(0x2000));
        c.fully_backed = true;
        assert!(c.owns(0x2000));
    }

    const PAGE: u64 = 0x1000;

    /// A miss on page `page` whose pull then covers the whole window.
    fn miss(t: &mut StreamTable, page: u64) -> u64 {
        let (slot, ..) = t.miss(page * PAGE, PAGE, 1, 8);
        let s = &mut t.table[slot];
        s.next = (page + s.window) * PAGE;
        s.window
    }

    #[test]
    fn random_misses_do_not_reset_a_sequential_stream() {
        let mut t = StreamTable::default();
        let mut next = 0;
        let mut windows = Vec::new();
        for round in 0..6 {
            let w = miss(&mut t, next);
            windows.push(w);
            next += w;
            // Three unrelated misses between every two of the stream's.
            for k in 0..3 {
                assert_eq!(miss(&mut t, 1000 + 50 * (3 * round + k)), 1);
            }
        }
        assert_eq!(windows, [1, 2, 4, 8, 8, 8]);
    }

    #[test]
    fn a_fifth_stream_replaces_the_weakest() {
        let mut t = StreamTable::default();
        // Two ramped streams, then two one-page ones: the table is full.
        for start in [0u64, 500] {
            let mut at = start;
            for _ in 0..3 {
                at += miss(&mut t, at);
            }
        }
        miss(&mut t, 2000);
        miss(&mut t, 3000);
        // A fifth takes the older of the two one-page entries (2000)...
        miss(&mut t, 4000);
        assert_eq!(miss(&mut t, 3001), 2, "the younger weak stream survived");
        assert_eq!(miss(&mut t, 2001), 1, "the older one was replaced");
        // ...and both ramped streams are still there.
        assert_eq!(miss(&mut t, 7), 8);
        assert_eq!(miss(&mut t, 507), 8);
    }

    #[test]
    fn two_interleaved_readers_both_reach_the_full_window() {
        let mut t = StreamTable::default();
        let (mut a, mut b) = (0u64, 10_000u64);
        let (mut wa, mut wb) = (0, 0);
        for _ in 0..5 {
            wa = miss(&mut t, a);
            a += wa;
            wb = miss(&mut t, b);
            b += wb;
        }
        assert_eq!((wa, wb), (8, 8));
    }

    #[test]
    fn a_truncated_window_is_continued() {
        let mut t = StreamTable::default();
        let mut at = 0;
        for _ in 0..3 {
            at += miss(&mut t, at);
        }
        // Granted 8, but a resident page cut the run after 3; the next
        // miss lands behind the resident pages, still inside the window.
        let (slot, before, left) = t.miss(at * PAGE, PAGE, 1, 8);
        assert_eq!((before, t.table[slot].window), (4, 8));
        assert_eq!(left, Some((at - 4) * PAGE..at * PAGE));
        t.table[slot].next = (at + 3) * PAGE;
        // What the stream leaves behind is the pull as it really ended.
        let cut = Some(at * PAGE..(at + 3) * PAGE);
        assert_eq!(t.miss((at + 5) * PAGE, PAGE, 1, 8), (slot, 8, cut));
        // One page past the window is somebody else's miss.
        t.table[slot].next = (at + 13) * PAGE;
        assert_eq!(t.miss((at + 13 + 8) * PAGE, PAGE, 1, 8).1, 0);
    }

    #[test]
    fn a_pull_driven_again_keeps_its_stream_and_window() {
        let mut t = StreamTable::default();
        let mut at = 0;
        for _ in 0..3 {
            at += miss(&mut t, at);
        }
        // The 8-page pull at `at` fails and the access faults again:
        // same stream, same window, and nobody's stream is evicted.
        assert_eq!(miss(&mut t, at), 8);
        assert_eq!(t.miss(at * PAGE, PAGE, 1, 8), (0, 8, None));
        assert_eq!((t.table.len(), t.table[0].window), (1, 8));
        t.table[0].next = (at + 8) * PAGE;
        assert_eq!(miss(&mut t, at + 8), 8);
    }

    #[test]
    fn an_idle_stream_decays_and_the_minimum_window_is_kept() {
        let mut t = StreamTable::default();
        let mut at = 0;
        for _ in 0..4 {
            at += miss(&mut t, at);
        }
        // The stream sits out a long run of misses: its window halves.
        for k in 0..=STREAM_IDLE_MISSES {
            miss(&mut t, 1_000_000 + 100 * k);
        }
        assert_eq!(miss(&mut t, at), 8, "halved to 4, doubled on the hit");
        for k in 0..=3 * STREAM_IDLE_MISSES + 2 {
            miss(&mut t, 2_000_000 + 100 * k);
        }
        assert_eq!(miss(&mut t, at + 8), 2, "decayed to 1 over three periods");
        // `base` is a floor for new and continued streams alike, and a
        // base above the ceiling is the window.
        let mut t = StreamTable::default();
        assert_eq!(t.miss(0, PAGE, 4, 8), (0, 0, None));
        assert_eq!(t.table[0].window, 4);
        t.table[0].next = 4 * PAGE;
        assert_eq!(t.miss(4 * PAGE, PAGE, 4, 8), (0, 4, Some(0..4 * PAGE)));
        assert_eq!(t.table[0].window, 8);
        let mut t = StreamTable::default();
        t.miss(0, PAGE, 16, 16);
        assert_eq!(t.table[0].window, 16);
    }

    #[test]
    fn a_stream_is_read_ahead_from_its_first_full_window_on() {
        // A lone miss's cluster is no stream, however wide.
        let mut t = StreamTable::default();
        t.miss(0, PAGE, 8, 8);
        t.table[0].next = 8 * PAGE;
        assert_eq!(t.due(3 * PAGE, true), None);
        // Nor is one still ramping: 1, 2, 4, then the full window.
        let mut t = ramped();
        assert_eq!(
            (t.due(8 * PAGE, true), t.due(15 * PAGE, true)),
            (Some(0), None)
        );
        // The next window goes out ahead; nothing lags yet.
        assert_eq!(t.ahead(0, 15 * PAGE, true), (0, 8, Some(0..0)));
        t.table[0].next = 23 * PAGE;
        // The reader is still in 7..15, now the pull before the last:
        // its next first use there makes the window after due as well.
        assert_eq!(
            (t.due(9 * PAGE, true), t.due(16 * PAGE, true)),
            (Some(0), Some(0))
        );
        assert_eq!(t.ahead(0, 23 * PAGE, true), (0, 8, Some(0..0)));
        t.table[0].next = 31 * PAGE;
        // Two windows in flight: nothing more of 7..15 makes a third
        // due. Entering 15..23 does, and leaves 7..15 behind.
        assert_eq!(
            (t.due(10 * PAGE, true), t.due(16 * PAGE, true)),
            (None, Some(0))
        );
        assert_eq!(t.ahead(0, 31 * PAGE, true).2, Some(7 * PAGE..15 * PAGE));
        t.table[0].next = 39 * PAGE;
        // A miss inside the reach catches up from the oldest pull that
        // lags.
        let caught_up = Some(15 * PAGE..39 * PAGE);
        assert_eq!(t.miss(41 * PAGE, PAGE, 1, 8), (0, 8, caught_up));
        t.table[0].next = 49 * PAGE;
        assert_eq!(t.due(42 * PAGE, true), Some(0));
        // An idle stream's window halves: it has to fill again first.
        for k in 0..=STREAM_IDLE_MISSES {
            miss(&mut t, 1_000_000 + 100 * k);
        }
        assert_eq!((t.table[0].window, t.due(42 * PAGE, true)), (4, None));
    }

    /// A stream ramped 1, 2, 4 to its first full window, `7..15`.
    fn ramped() -> StreamTable {
        let mut t = StreamTable::default();
        let mut at = 0;
        for _ in 0..3 {
            at += miss(&mut t, at);
            assert_eq!(t.due((at - 1) * PAGE, true), None);
        }
        assert_eq!(miss(&mut t, 7), 8);
        t
    }

    #[test]
    fn one_window_deep_the_pull_being_read_is_the_one_that_lags() {
        let mut t = ramped();
        assert_eq!(t.ahead(0, 15 * PAGE, false), (0, 8, Some(0..0)));
        t.table[0].next = 23 * PAGE;
        // Only the last pull makes the next window due, and entering it
        // leaves the one before.
        assert_eq!(
            (t.due(9 * PAGE, false), t.due(15 * PAGE, false)),
            (None, Some(0))
        );
        assert_eq!(t.ahead(0, 23 * PAGE, false).2, Some(7 * PAGE..15 * PAGE));
        t.table[0].next = 31 * PAGE;
        let caught_up = Some(15 * PAGE..31 * PAGE);
        assert_eq!(t.miss(33 * PAGE, PAGE, 1, 8), (0, 8, caught_up));
    }

    #[test]
    fn a_due_window_is_counted_skipped_once() {
        let mut t = ramped();
        // The first use that found no room, and not the ones that retry.
        assert!(t.skip(0));
        assert!(!t.skip(0));
        assert!(!t.skip(0));
        // The window goes out at last; the one after it is another.
        t.ahead(0, 15 * PAGE, true);
        t.table[0].next = 23 * PAGE;
        assert!(t.skip(0));
        assert!(!t.skip(0));
        // A stream that is gone still counts.
        assert!(t.skip(3));
    }

    #[test]
    fn page_effective_prot_respects_constraints() {
        let mut p = PageDesc::new(ck(0), 0, FrameNo(0));
        assert_eq!(p.effective_prot(Prot::RW), Prot::RW);
        p.writable = false;
        assert_eq!(p.effective_prot(Prot::RW), Prot::READ);
        p.writable = true;
        p.stubs.push((ck(1), 0));
        assert_eq!(p.effective_prot(Prot::RW), Prot::READ);
        p.stubs.clear();
        p.seg_write_ok = false;
        assert!(!p.write_allowed());
        p.seg_write_ok = true;
        p.cleaning = true;
        assert!(!p.write_allowed());
    }
}
