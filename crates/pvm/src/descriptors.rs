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

use crate::keys::{CacheKey, CtxKey, PageKey, RegKey};
use chorus_gmi::SegmentId;
use chorus_hal::{Arena, CostModel, FrameNo, Mmu, MmuCtx, OpKind, Prot, VirtAddr, Vpn};
use std::ops::{Bound, RangeBounds};

/// A set of page-aligned segment offsets, as bitmap words: a sorted
/// `Vec` of (word index, 64-bit mask) over page numbers, no zero mask
/// kept. It answers like an ordered set of the offsets; a probe
/// that is not page aligned is absent. A default set keys by byte (page
/// size 1).
#[derive(Debug, Clone, Default)]
pub(crate) struct PageSet {
    shift: u32,
    words: Vec<(u64, u64)>,
}

impl PageSet {
    /// An empty set of offsets aligned to `page_size` (a power of two).
    pub fn new(page_size: u64) -> PageSet {
        debug_assert!(page_size.is_power_of_two());
        PageSet {
            shift: page_size.trailing_zeros(),
            words: Vec::new(),
        }
    }

    /// The page number of an aligned offset.
    fn page(&self, off: u64) -> Option<u64> {
        (off & ((1u64 << self.shift) - 1) == 0).then_some(off >> self.shift)
    }

    /// Where word `w` is, or would go.
    fn find(&self, w: u64) -> std::result::Result<usize, usize> {
        self.words.binary_search_by_key(&w, |&(i, _)| i)
    }

    /// True if `off` is in the set.
    pub fn contains(&self, off: u64) -> bool {
        self.page(off).is_some_and(|p| {
            self.find(p >> 6)
                .is_ok_and(|i| self.words[i].1 & (1 << (p & 63)) != 0)
        })
    }

    /// Adds an aligned `off`; true if it was absent.
    pub fn insert(&mut self, off: u64) -> bool {
        let p = self.page(off).expect("unaligned offset in a page set");
        let bit = 1u64 << (p & 63);
        match self.find(p >> 6) {
            Ok(i) => {
                let mask = &mut self.words[i].1;
                let absent = *mask & bit == 0;
                *mask |= bit;
                absent
            }
            Err(i) => {
                self.words.insert(i, (p >> 6, bit));
                true
            }
        }
    }

    /// Removes `off`; true if it was present.
    pub fn remove(&mut self, off: u64) -> bool {
        let Some(p) = self.page(off) else {
            return false;
        };
        let Ok(i) = self.find(p >> 6) else {
            return false;
        };
        let bit = 1u64 << (p & 63);
        let present = self.words[i].1 & bit != 0;
        self.words[i].1 &= !bit;
        if self.words[i].1 == 0 {
            self.words.remove(i);
        }
        present
    }

    /// The number of offsets in the set.
    pub fn len(&self) -> usize {
        self.words
            .iter()
            .map(|&(_, m)| m.count_ones() as usize)
            .sum()
    }

    /// Removes every offset.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// The offsets in ascending order.
    pub fn iter(&self) -> PageIter<'_> {
        self.range(..)
    }

    /// The offsets inside `bounds`, in ascending order.
    pub fn range(&self, bounds: impl RangeBounds<u64>) -> PageIter<'_> {
        let mask = (1u64 << self.shift) - 1;
        // The first and last page numbers inside the bounds, inclusive.
        let first = match bounds.start_bound() {
            Bound::Unbounded => Some(0),
            Bound::Included(&lo) => Some((lo >> self.shift) + u64::from(lo & mask != 0)),
            Bound::Excluded(&lo) => (lo >> self.shift).checked_add(1),
        };
        let last = match bounds.end_bound() {
            Bound::Unbounded => Some(u64::MAX >> self.shift),
            Bound::Included(&hi) => Some(hi >> self.shift),
            Bound::Excluded(&hi) => hi.checked_sub(1).map(|hi| hi >> self.shift),
        };
        let (first, last, words) = match (first, last) {
            (Some(first), Some(last)) if first <= last => {
                let at = self.words.partition_point(|&(w, _)| w < first >> 6);
                (first, last, &self.words[at..])
            }
            _ => (0, 0, &[][..]),
        };
        PageIter {
            shift: self.shift,
            words,
            first,
            last,
            mask: 0,
            word: 0,
        }
    }

    /// True if every offset of `self` is in `other` (of the same page
    /// size).
    pub fn is_subset(&self, other: &PageSet) -> bool {
        debug_assert_eq!(self.shift, other.shift);
        let mut theirs = other.words.iter().peekable();
        self.words.iter().all(|&(w, m)| {
            while theirs.next_if(|&&(o, _)| o < w).is_some() {}
            theirs
                .peek()
                .is_some_and(|&&(o, om)| o == w && m & !om == 0)
        })
    }

    /// Splits the set at `off`: `self` keeps the offsets below it, the
    /// returned set holds the rest.
    pub fn split_off(&mut self, off: u64) -> PageSet {
        let (mut lower, mut upper) = (PageSet::new(1 << self.shift), PageSet::new(1 << self.shift));
        for o in self.iter() {
            if o < off { &mut lower } else { &mut upper }.insert(o);
        }
        *self = lower;
        upper
    }
}

/// The offsets of a [`PageSet`] range, ascending.
pub(crate) struct PageIter<'a> {
    shift: u32,
    /// The words not yet loaded.
    words: &'a [(u64, u64)],
    /// The page numbers in range, inclusive.
    first: u64,
    last: u64,
    /// The bits of the loaded word not yet yielded, and its index.
    mask: u64,
    word: u64,
}

impl Iterator for PageIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.mask == 0 {
            let (&(w, m), rest) = self.words.split_first()?;
            if w > self.last >> 6 {
                self.words = &[];
                return None;
            }
            self.words = rest;
            let lo = if w == self.first >> 6 {
                self.first & 63
            } else {
                0
            };
            let hi = if w == self.last >> 6 {
                self.last & 63
            } else {
                63
            };
            self.mask = m & (u64::MAX << lo) & (u64::MAX >> (63 - hi));
            self.word = w;
        }
        let bit = u64::from(self.mask.trailing_zeros());
        self.mask &= self.mask - 1;
        Some(((self.word << 6) | bit) << self.shift)
    }
}

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
    pub pinned: PageSet,
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
    pub entries: PageSet,
    /// Offsets this cache owns a private version of, resident or swapped
    /// out. Misses on owned offsets are resolved by `pullIn`; misses on
    /// un-owned offsets go up the history tree.
    pub owned: PageSet,
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
    pub streams: crate::streams::StreamTable,
}

impl CacheDesc {
    /// An empty descriptor whose page indexes key by `page_size`.
    pub fn new(page_size: u64) -> CacheDesc {
        CacheDesc {
            entries: PageSet::new(page_size),
            owned: PageSet::new(page_size),
            ..CacheDesc::default()
        }
    }

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
        self.fully_backed || self.owned.contains(off)
    }

    /// True if the cache has its own version at `off`: owned, or in the
    /// global map (a resident page, a stub). A history or merge must not
    /// put a second one there.
    pub fn has_own(&self, off: u64) -> bool {
        self.owns(off) || self.entries.contains(off)
    }

    /// True if a `pullIn` may cover the page at `off`: owned, neither
    /// resident nor in transit nor a COW stub (all indexed in `entries`:
    /// pulling them again would be redundant mapper I/O), and inside the
    /// segment's known length (a run crossing it would come back
    /// truncated).
    pub fn pullable(&self, off: u64, ps: u64) -> bool {
        self.owns(off)
            && !self.entries.contains(off)
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
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ck(i: u32) -> CacheKey {
        Id::from_raw_parts(i, 0)
    }

    /// One step of a page-set program: (op, set, base, page, jitter,
    /// length). The offset is `bases[base] + page * ps`, or with `jitter
    /// & 2` one the set holds (its `page`-th, cyclically); where the op
    /// probes, an odd `jitter` moves it off alignment by `jitter % ps`
    /// (odd). A range is `length` pages long, or ends at `u64::MAX` when
    /// `length` is 0.
    type Step = (u8, bool, usize, u64, u64, u64);

    fn step() -> impl Strategy<Value = Step> {
        (
            0u8..8,
            any::<bool>(),
            0usize..4,
            0u64..300,
            0u64..1 << 13,
            0u64..200,
        )
    }

    /// Runs `program` on two page sets of `1 << shift`-byte pages and on
    /// two `BTreeSet` models, comparing every answer.
    fn page_set_program(shift: u32, program: &[Step]) -> Result<(), TestCaseError> {
        let ps = 1u64 << shift;
        // Near zero, across a 64-page word boundary at 2^32, below 2^48,
        // and at the very top of the offset space.
        let bases = [
            0,
            (1 << 32) - 64 * ps,
            (1 << 48) - 7 * ps,
            u64::MAX - 299 * ps - (ps - 1),
        ];
        let mut sets = [PageSet::new(ps), PageSet::new(ps)];
        let mut models = [BTreeSet::new(), BTreeSet::new()];
        for &(op, which, base, page, jitter, len) in program {
            let (set, model) = (
                &mut sets[usize::from(which)],
                &mut models[usize::from(which)],
            );
            let held = model.iter().cycle().nth(page as usize).copied();
            let off = match held {
                Some(o) if jitter & 2 != 0 => o,
                _ => bases[base] + page * ps,
            };
            let probe = off + (jitter & 1) * (jitter % ps);
            match op {
                0..=2 => prop_assert_eq!(set.insert(off), model.insert(off)),
                3 => prop_assert_eq!(set.remove(probe), model.remove(&probe)),
                4 => prop_assert_eq!(set.contains(probe), model.contains(&probe)),
                5 => {
                    let hi = if len == 0 {
                        u64::MAX
                    } else {
                        probe.saturating_add(len * ps - jitter % 7)
                    };
                    let got: Vec<u64> = set.range(probe..hi).collect();
                    let want: Vec<u64> = model.range(probe..hi).copied().collect();
                    prop_assert_eq!(got, want, "range {:#x}..{:#x}", probe, hi);
                }
                6 => {
                    let got: Vec<u64> = set.range(probe..).collect();
                    prop_assert_eq!(got, model.range(probe..).copied().collect::<Vec<_>>());
                    let got: Vec<u64> = set.range(..=probe).collect();
                    prop_assert_eq!(got, model.range(..=probe).copied().collect::<Vec<_>>());
                }
                _ => {
                    let upper = set.split_off(probe);
                    let model_upper = model.split_off(&probe);
                    prop_assert_eq!(
                        upper.iter().collect::<Vec<_>>(),
                        model_upper.into_iter().collect::<Vec<_>>()
                    );
                }
            }
            for i in 0..2 {
                prop_assert_eq!(sets[i].len(), models[i].len());
                prop_assert_eq!(
                    sets[i].iter().collect::<Vec<_>>(),
                    models[i].iter().copied().collect::<Vec<_>>()
                );
            }
            prop_assert_eq!(sets[0].is_subset(&sets[1]), models[0].is_subset(&models[1]));
            prop_assert_eq!(sets[1].is_subset(&sets[0]), models[1].is_subset(&models[0]));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        #[test]
        fn a_page_set_answers_like_a_btreeset(shift in 4u32..14, program in proptest::collection::vec(step(), 1..120)) {
            page_set_program(shift, &program)?;
        }
    }

    #[test]
    fn a_default_page_set_keys_by_byte() {
        let mut s = PageSet::default();
        assert!(s.insert(0x1001) && s.insert(u64::MAX));
        assert_eq!(s.range(0x1000..u64::MAX).collect::<Vec<_>>(), [0x1001]);
        assert_eq!(s.range(0x1001..).collect::<Vec<_>>(), [0x1001, u64::MAX]);
        let mut pages = PageSet::new(0x2000);
        pages.insert(0x4000);
        assert!(!pages.contains(0x4001) && !pages.remove(0x4001));
        assert_eq!(pages.range(0x2001..0x4001).collect::<Vec<_>>(), [0x4000]);
        assert_eq!(pages.range(0x2001..0x4000).count(), 0);
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
            pinned: PageSet::new(0x1000),
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
