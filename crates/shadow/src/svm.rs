//! The shadow-object memory manager behind the GMI.
//!
//! Structural cost profile (deliberately Mach-shaped, for the Tables 6/7
//! comparison): an object is created eagerly per cache; every deferred
//! copy clips address-map entry parts and creates **two** shadow objects
//! (source side and copy side); faults walk the shadow chain; the
//! singly-referenced links of a chain are collapsed by a garbage-
//! collection pass — the complication §4.2.5 attributes to Mach.

use crate::objects::{
    EntryDesc, EntryKey, EntryPart, MemObject, ObjKey, SContext, SCtxKey, SPage, SPageKey, SRegKey,
    SRegion,
};
use chorus_gmi::{
    Access, CacheId, CacheIo, CopyMode, CtxId, Gmi, GmiError, PageGeometry, Prot, PullRequest,
    PushRequest, RegionId, RegionStatus, Result, SegmentId, SegmentManagerV2, VirtAddr,
};
use chorus_hal::{
    Arena, CostModel, CostParams, FrameNo, FxHashMap, Id, Mmu, OpKind, PhysicalMemory, SoftMmu, Vpn,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Construction options for a [`ShadowVm`].
#[derive(Clone, Debug)]
pub struct ShadowOptions {
    /// Page geometry (defaults to the paper's 8 KB pages).
    pub geometry: PageGeometry,
    /// Number of physical frames.
    pub frames: u32,
    /// Per-operation simulated costs.
    pub cost: CostParams,
    /// Collapse singly-referenced shadow chain links (Mach's GC). Turning
    /// this off exposes unbounded chain growth in the ablation bench.
    pub collapse_chains: bool,
}

impl Default for ShadowOptions {
    fn default() -> ShadowOptions {
        ShadowOptions {
            geometry: PageGeometry::sun3(),
            frames: 1024,
            cost: CostParams::zero(),
            collapse_chains: true,
        }
    }
}

/// Event counters of the shadow manager.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShadowStats {
    /// Page faults handled.
    pub faults: u64,
    /// Demand-zero pages materialized.
    pub zero_fills: u64,
    /// Copy-on-write copy-ups into a top object.
    pub copy_ups: u64,
    /// Shadow objects created (two per deferred copy).
    pub shadows_created: u64,
    /// Shadow-chain hops walked during lookups.
    pub chain_hops: u64,
    /// Deepest chain encountered.
    pub max_chain_depth: u64,
    /// Chain links merged by the garbage collector.
    pub collapses: u64,
    /// Entry parts clipped during copies.
    pub parts_clipped: u64,
    /// `pullIn` upcalls.
    pub pull_ins: u64,
    /// `pushOut` upcalls.
    pub push_outs: u64,
}

enum Step<T> {
    Done(T),
    Pull {
        object: ObjKey,
        segment: SegmentId,
        obj_off: u64,
    },
    Push {
        object: ObjKey,
        segment: SegmentId,
        obj_off: u64,
        page: SPageKey,
    },
    NeedSegment {
        object: ObjKey,
    },
}

#[derive(Clone, Copy, Debug)]
enum Value {
    Page(SPageKey),
    Zero,
}

struct SState {
    geom: PageGeometry,
    phys: PhysicalMemory,
    mmu: Box<dyn Mmu>,
    objects: Arena<MemObject>,
    entries: Arena<EntryDesc>,
    pages: Arena<SPage>,
    contexts: Arena<SContext>,
    regions: Arena<SRegion>,
    frame_owner: FxHashMap<u32, SPageKey>,
    collapse_chains: bool,
    stats: ShadowStats,
}

/// The Mach-style shadow-object memory manager.
///
/// Not hardened for concurrent use: upcalls run with the state lock
/// released, but no synchronization stubs are placed (the baseline is
/// exercised single-threaded by the benches and the differential tests).
pub struct ShadowVm {
    state: Mutex<SState>,
    seg_mgr: Arc<dyn SegmentManagerV2>,
    model: Arc<CostModel>,
}

fn pub_entry(k: EntryKey) -> CacheId {
    CacheId::pack(k.index(), k.generation())
}

fn entry_key(id: CacheId) -> EntryKey {
    let (i, g) = id.unpack();
    Id::from_raw_parts(i, g)
}

/// The upcall identity of a memory object: in Mach each VM object is
/// paged by its own (default) pager, so the "cache" named in segment-
/// manager upcalls is the object.
fn pub_object(k: ObjKey) -> CacheId {
    CacheId::pack(k.index(), k.generation())
}

fn object_key(id: CacheId) -> ObjKey {
    let (i, g) = id.unpack();
    Id::from_raw_parts(i, g)
}

fn pub_sctx(k: SCtxKey) -> CtxId {
    CtxId::pack(k.index(), k.generation())
}

fn sctx_key(id: CtxId) -> SCtxKey {
    let (i, g) = id.unpack();
    Id::from_raw_parts(i, g)
}

fn pub_sregion(k: SRegKey) -> RegionId {
    RegionId::pack(k.index(), k.generation())
}

fn sregion_key(id: RegionId) -> SRegKey {
    let (i, g) = id.unpack();
    Id::from_raw_parts(i, g)
}

impl ShadowVm {
    /// Creates a shadow-object manager over a [`SegmentManagerV2`].
    pub fn new(options: ShadowOptions, seg_mgr: Arc<dyn SegmentManagerV2>) -> ShadowVm {
        let model = Arc::new(CostModel::new(options.cost.clone()));
        let phys = PhysicalMemory::new(options.geometry, options.frames, model.clone());
        let mmu: Box<dyn Mmu> = Box::new(SoftMmu::new(options.geometry, model.clone()));
        ShadowVm {
            state: Mutex::new(SState {
                geom: options.geometry,
                phys,
                mmu,
                objects: Arena::new(),
                entries: Arena::new(),
                pages: Arena::new(),
                contexts: Arena::new(),
                regions: Arena::new(),
                frame_owner: FxHashMap::default(),
                collapse_chains: options.collapse_chains,
                stats: ShadowStats::default(),
            }),
            seg_mgr,
            model,
        }
    }

    /// The shared cost model.
    pub fn cost_model(&self) -> Arc<CostModel> {
        self.model.clone()
    }

    /// Event counters.
    pub fn stats(&self) -> ShadowStats {
        self.state.lock().stats
    }

    /// Resets the event counters.
    pub fn reset_stats(&self) {
        self.state.lock().stats = ShadowStats::default();
    }

    /// Number of live memory objects (chain-growth ablation).
    pub fn object_count(&self) -> usize {
        self.state.lock().objects.len()
    }

    /// Length of the shadow chain under a cache at the given offset.
    pub fn chain_depth(&self, cache: CacheId, off: u64) -> usize {
        let s = self.state.lock();
        let Some(entry) = s.entries.get(entry_key(cache)) else {
            return 0;
        };
        let Some(part) = entry.part_at(off) else {
            return 0;
        };
        let mut depth = 1;
        let mut cur = part.object;
        while let Some(next) = s.objects.get(cur).and_then(|o| o.shadow) {
            depth += 1;
            cur = next;
        }
        depth
    }

    fn run<T>(&self, mut attempt: impl FnMut(&mut SState) -> Result<Step<T>>) -> Result<T> {
        loop {
            let mut guard = self.state.lock();
            match attempt(&mut guard)? {
                Step::Done(v) => return Ok(v),
                Step::Pull {
                    object,
                    segment,
                    obj_off,
                } => {
                    let size = guard.geom.page_size();
                    drop(guard);
                    self.seg_mgr.submit_pull(
                        self,
                        &PullRequest {
                            cache: pub_object(object),
                            segment,
                            offset: obj_off,
                            size,
                            access: Access::Read,
                        },
                    )?;
                    let mut guard = self.state.lock();
                    guard.stats.pull_ins += 1;
                    // One mapper round trip plus the per-page transfer
                    // (charged identically to the PVM for fair tables).
                    guard.charge(OpKind::IpcOp);
                    guard.charge_n_io(size);
                }
                Step::Push {
                    object,
                    segment,
                    obj_off,
                    page,
                } => {
                    let size = guard.geom.page_size();
                    drop(guard);
                    let res = self.seg_mgr.submit_push(
                        self,
                        &PushRequest {
                            cache: pub_object(object),
                            segment,
                            offset: obj_off,
                            size,
                        },
                    );
                    let mut guard = self.state.lock();
                    if res.is_ok() {
                        guard.stats.push_outs += 1;
                        guard.charge(OpKind::IpcOp);
                        guard.charge_n_io(size);
                        if let Some(p) = guard.pages.get_mut(page) {
                            p.dirty = false;
                        }
                        if let Some(o) = guard.objects.get_mut(object) {
                            o.owned.insert(obj_off);
                        }
                    }
                    res?;
                }
                Step::NeedSegment { object } => {
                    drop(guard);
                    let segment = self.seg_mgr.create_segment_v2(pub_object(object));
                    let mut guard = self.state.lock();
                    if let Some(o) = guard.objects.get_mut(object) {
                        if o.pager.is_none() {
                            o.pager = Some(segment);
                        }
                    }
                }
            }
        }
    }
}

impl SState {
    fn ps(&self) -> u64 {
        self.geom.page_size()
    }

    fn charge(&self, op: OpKind) {
        self.phys.cost_model().charge(op);
    }

    /// Charges the per-page segment transfer cost for `size` bytes.
    fn charge_n_io(&self, size: u64) {
        self.phys
            .cost_model()
            .charge_n(OpKind::SegmentIoPage, size / self.ps());
    }

    fn entry(&self, k: EntryKey) -> Result<&EntryDesc> {
        self.entries
            .get(k)
            .ok_or(GmiError::NoSuchCache(pub_entry(k)))
    }

    fn entry_mut(&mut self, k: EntryKey) -> Result<&mut EntryDesc> {
        self.entries
            .get_mut(k)
            .ok_or(GmiError::NoSuchCache(pub_entry(k)))
    }

    fn object(&self, k: ObjKey) -> &MemObject {
        self.objects.get(k).expect("dangling object key")
    }

    fn object_mut(&mut self, k: ObjKey) -> &mut MemObject {
        self.objects.get_mut(k).expect("dangling object key")
    }

    fn page(&self, k: SPageKey) -> &SPage {
        self.pages.get(k).expect("dangling page key")
    }

    fn page_mut(&mut self, k: SPageKey) -> &mut SPage {
        self.pages.get_mut(k).expect("dangling page key")
    }

    fn new_object(&mut self, pager: Option<SegmentId>) -> ObjKey {
        self.charge(OpKind::ObjectCreate);
        self.objects.insert(MemObject {
            pager,
            fully_backed: pager.is_some(),
            refs: 0,
            ..MemObject::default()
        })
    }

    // ----- page helpers ------------------------------------------------------

    fn insert_page(
        &mut self,
        object: ObjKey,
        obj_off: u64,
        frame: FrameNo,
        dirty: bool,
    ) -> SPageKey {
        let mut page = SPage::new(object, obj_off, frame);
        page.dirty = dirty;
        let key = self.pages.insert(page);
        self.object_mut(object).pages.insert(obj_off, key);
        self.frame_owner.insert(frame.0, key);
        self.charge(OpKind::GlobalMapOp);
        key
    }

    fn free_page(&mut self, key: SPageKey) {
        self.unmap_page(key);
        let page = self.pages.remove(key).expect("double page free");
        if let Some(o) = self.objects.get_mut(page.object) {
            o.pages.remove(&page.offset);
        }
        self.frame_owner.remove(&page.frame.0);
        self.phys.release(page.frame);
    }

    fn unmap_page(&mut self, key: SPageKey) {
        let mappings = core::mem::take(&mut self.page_mut(key).mappings);
        for (ctx, vpn) in mappings {
            if let Some(c) = self.contexts.get(ctx) {
                let mmu_ctx = c.mmu_ctx;
                self.mmu.unmap(mmu_ctx, vpn);
            }
        }
    }

    fn map_page(&mut self, key: SPageKey, ctx: SCtxKey, vpn: Vpn, prot: Prot) {
        let mmu_ctx = self.contexts.get(ctx).expect("dead context").mmu_ctx;
        let frame = self.page(key).frame;
        // Already mapped there (a write fault on a read-only entry):
        // re-protect the entry in place, as the PVM does.
        if self.mmu.query(mmu_ctx, vpn).map(|(f, _)| f) == Some(frame)
            && self.page(key).mappings.contains(&(ctx, vpn))
        {
            self.mmu.protect(mmu_ctx, vpn, prot);
            return;
        }
        // Clear any previous mapping at this slot.
        if let Some(old_frame) = self.mmu.unmap(mmu_ctx, vpn) {
            if let Some(&owner) = self.frame_owner.get(&old_frame.0) {
                self.page_mut(owner)
                    .mappings
                    .retain(|&(c, v)| !(c == ctx && v == vpn));
            }
        }
        self.mmu.map(mmu_ctx, vpn, frame, prot);
        self.page_mut(key).mappings.push((ctx, vpn));
    }

    fn alloc_frame(&mut self) -> Result<FrameNo> {
        // The baseline implements no page replacement.
        self.phys.alloc().ok_or(GmiError::OutOfMemory)
    }

    // ----- chain resolution ---------------------------------------------------

    /// Finds the current value of (object, obj_off), walking the shadow
    /// chain; may require a pull at the first object owning a swapped
    /// version.
    fn resolve(&mut self, object: ObjKey, obj_off: u64) -> Result<Step<Value>> {
        let mut cur = object;
        let mut depth: u64 = 0;
        loop {
            depth += 1;
            self.charge(OpKind::HistoryOp);
            let Some(o) = self.objects.get(cur) else {
                return Err(GmiError::NoSuchCache(pub_object(cur)));
            };
            if let Some(&p) = o.pages.get(&obj_off) {
                self.stats.chain_hops += depth - 1;
                self.stats.max_chain_depth = self.stats.max_chain_depth.max(depth);
                return Ok(Step::Done(Value::Page(p)));
            }
            if o.owned.contains(&obj_off) || o.fully_backed {
                let Some(segment) = o.pager else {
                    return Err(GmiError::InvalidArgument("owned page without pager"));
                };
                return Ok(Step::Pull {
                    object: cur,
                    segment,
                    obj_off,
                });
            }
            match o.shadow {
                Some(next) => cur = next,
                None => {
                    self.stats.chain_hops += depth - 1;
                    self.stats.max_chain_depth = self.stats.max_chain_depth.max(depth);
                    return Ok(Step::Done(Value::Zero));
                }
            }
        }
    }

    /// Materializes a private page in `object` holding `value`,
    /// displacing any page already at that slot (e.g. an immutable page
    /// inherited through a chain collapse).
    fn copy_up(
        &mut self,
        object: ObjKey,
        obj_off: u64,
        value: Value,
        dirty: bool,
    ) -> Result<SPageKey> {
        let frame = self.alloc_frame()?;
        match value {
            Value::Page(src) => {
                let src_frame = self.page(src).frame;
                self.phys.copy_frame(src_frame, frame);
                self.stats.copy_ups += 1;
            }
            Value::Zero => {
                self.phys.zero(frame);
                self.stats.zero_fills += 1;
            }
        }
        if let Some(&old) = self.object(object).pages.get(&obj_off) {
            self.free_page(old);
        }
        // Any existing mapping of the value's source page may have been
        // established through the entry that now has its own version:
        // shoot them all down (conservative; other readers simply
        // re-fault onto the unchanged chain page).
        if let Value::Page(src) = value {
            if self.page(src).object != object {
                self.unmap_page(src);
            }
        }
        Ok(self.insert_page(object, obj_off, frame, dirty))
    }

    // ----- reference counting & chain GC ---------------------------------------

    fn obj_ref(&mut self, object: ObjKey) {
        self.object_mut(object).refs += 1;
    }

    fn obj_unref(&mut self, object: ObjKey) {
        let refs = {
            let o = self.object_mut(object);
            o.refs -= 1;
            o.refs
        };
        if refs == 0 {
            self.destroy_object(object);
        } else if refs == 1 {
            self.try_collapse(object);
        }
    }

    fn destroy_object(&mut self, object: ObjKey) {
        let page_keys: Vec<SPageKey> = self.object(object).pages.values().copied().collect();
        for p in page_keys {
            self.free_page(p);
        }
        let shadow = self.object(object).shadow;
        self.objects.remove(object);
        self.charge(OpKind::ObjectDestroy);
        if let Some(below) = shadow {
            self.obj_unref(below);
        }
    }

    /// Mach's shadow-chain garbage collection: an object referenced only
    /// by the single shadow above it is merged into that shadow.
    fn try_collapse(&mut self, object: ObjKey) {
        if !self.collapse_chains {
            return;
        }
        let Some(o) = self.objects.get(object) else {
            return;
        };
        if o.refs != 1 {
            return;
        }
        // The single reference must be a shadow-above link (not an entry
        // part).
        let referenced_by_entry = self
            .entries
            .iter()
            .any(|(_, e)| e.parts.iter().any(|p| p.object == object));
        if referenced_by_entry {
            return;
        }
        let Some(above) = self
            .objects
            .iter()
            .find(|(_, s)| s.shadow == Some(object))
            .map(|(k, _)| k)
        else {
            return;
        };
        // The merged object's pager (and owned marks) must survive: its
        // segment may hold the only copy of synced-out data. Transfer
        // them when the shadow above has no paging state of its own;
        // otherwise bail (the chain persists, which is always safe).
        let o = self.object(object);
        if o.fully_backed {
            return;
        }
        if o.pager.is_some() {
            let above_obj = self.object(above);
            if above_obj.pager.is_some() || !above_obj.owned.is_empty() {
                return;
            }
            let pager = o.pager;
            let owned: Vec<u64> = o.owned.iter().copied().collect();
            let above_mut = self.object_mut(above);
            above_mut.pager = pager;
            for off in owned {
                above_mut.owned.insert(off);
            }
        }
        // Move pages up where the shadow lacks its own version.
        let moved: Vec<(u64, SPageKey)> = self
            .object(object)
            .pages
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        for (off, pkey) in moved {
            self.charge(OpKind::HistoryOp);
            // Free the page only if the shadow above has its own page
            // (newer) or the transferred pager already holds this exact
            // data (owned and clean); a dirty page is the only copy.
            let above_has_page = self.object(above).pages.contains_key(&off);
            let above_owned_clean =
                self.object(above).owned.contains(&off) && !self.page(pkey).dirty;
            if above_has_page || above_owned_clean || self.object(above).fully_backed {
                self.free_page(pkey);
            } else {
                self.object_mut(object).pages.remove(&off);
                let page = self.page_mut(pkey);
                page.object = above;
                // Nothing else can reach the merged object's data: the
                // page is private to `above` again and may be written in
                // place (a later write fault upgrades it).
                page.immutable = false;
                self.object_mut(above).pages.insert(off, pkey);
            }
        }
        // Splice the chain.
        let below = self.object(object).shadow;
        self.object_mut(above).shadow = below;
        self.objects.remove(object);
        self.charge(OpKind::ObjectDestroy);
        self.stats.collapses += 1;
        // The link below may now itself be collapsible.
        if let Some(b) = below {
            self.try_collapse(b);
        }
    }

    // ----- entry part surgery ----------------------------------------------------

    /// Splits parts so no part straddles `at` (Mach's entry clipping).
    fn clip_entry(&mut self, entry: EntryKey, at: u64) -> Result<()> {
        let e = self.entry_mut(entry)?;
        let idx = e.parts.partition_point(|p| p.end() <= at);
        if let Some(p) = e.parts.get(idx).copied() {
            if p.covers(at) && p.off != at {
                let head = EntryPart {
                    size: at - p.off,
                    ..p
                };
                let tail = EntryPart {
                    off: at,
                    size: p.end() - at,
                    object: p.object,
                    obj_off: p.obj_off + (at - p.off),
                };
                let e = self.entry_mut(entry)?;
                e.parts[idx] = head;
                e.parts.insert(idx + 1, tail);
                // Both halves reference the object: one more ref.
                self.obj_ref(p.object);
                self.charge(OpKind::DescriptorOp);
                self.stats.parts_clipped += 1;
            }
        }
        Ok(())
    }

    /// Removes all parts inside `[lo, hi)` (clipping the boundaries
    /// first), dereferencing their objects.
    fn remove_parts(&mut self, entry: EntryKey, lo: u64, hi: u64) -> Result<()> {
        self.clip_entry(entry, lo)?;
        self.clip_entry(entry, hi)?;
        let removed: Vec<EntryPart> = {
            let e = self.entry_mut(entry)?;
            let (keep, drop): (Vec<EntryPart>, Vec<EntryPart>) =
                e.parts.iter().partition(|p| p.end() <= lo || p.off >= hi);
            e.parts = keep;
            drop
        };
        for p in removed {
            self.charge(OpKind::DescriptorOp);
            self.obj_unref(p.object);
        }
        Ok(())
    }

    fn insert_part(&mut self, entry: EntryKey, part: EntryPart) -> Result<()> {
        self.obj_ref(part.object);
        let e = self.entry_mut(entry)?;
        let pos = e.parts.partition_point(|p| p.off < part.off);
        e.parts.insert(pos, part);
        self.charge(OpKind::DescriptorOp);
        Ok(())
    }

    /// The symmetric shadow copy (§4.2.5): clip, freeze, create the two
    /// shadows, re-point.
    fn shadow_copy(
        &mut self,
        src: EntryKey,
        src_off: u64,
        dst: EntryKey,
        dst_off: u64,
        size: u64,
    ) -> Result<()> {
        self.remove_parts(dst, dst_off, dst_off.saturating_add(size))?;
        self.clip_entry(src, src_off)?;
        self.clip_entry(src, src_off.saturating_add(size))?;
        let src_parts: Vec<(usize, EntryPart)> = self
            .entry(src)?
            .parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.off >= src_off && p.end() <= src_off.saturating_add(size))
            .map(|(i, p)| (i, *p))
            .collect();
        // Ranges of the copy with no source part are zero-filled holes:
        // the destination simply has no part there either (reads resolve
        // to zero), which matches the sparse-segment semantics.
        for (idx, part) in src_parts {
            let original = part.object;
            // Freeze the original's resident pages in the copied window.
            let frozen: Vec<SPageKey> = self
                .object(original)
                .pages
                .range(part.obj_off..part.obj_off + part.size)
                .map(|(_, &p)| p)
                .collect();
            for pkey in frozen {
                // The hardware protect is issued per page on every copy
                // (matching the paper's per-page deferred-copy cost).
                self.charge(OpKind::ProtectPage);
                let page = self.page_mut(pkey);
                if !page.immutable {
                    page.immutable = true;
                    let mappings = self.page(pkey).mappings.clone();
                    for (ctx, vpn) in mappings {
                        let mmu_ctx = self.contexts.get(ctx).expect("dead ctx").mmu_ctx;
                        if let Some((_, prot)) = self.mmu.query(mmu_ctx, vpn) {
                            self.mmu.protect(mmu_ctx, vpn, prot.remove(Prot::WRITE));
                        }
                    }
                }
            }
            // Two new shadow objects.
            let s_src = self.new_object(None);
            let s_dst = self.new_object(None);
            self.stats.shadows_created += 2;
            self.object_mut(s_src).shadow = Some(original);
            self.object_mut(s_dst).shadow = Some(original);
            // refs: the source part's reference moves to s_src; the
            // original gains the two shadow references.
            self.object_mut(original).refs += 1; // (-1 part, +2 shadows)
            self.object_mut(s_src).refs = 1;
            self.object_mut(s_dst).refs = 1;
            let e = self.entry_mut(src)?;
            e.parts[idx].object = s_src;
            self.charge(OpKind::DescriptorOp);
            // Destination part mirrors the source window.
            let dpart = EntryPart {
                off: dst_off + (part.off - src_off),
                size: part.size,
                object: s_dst,
                obj_off: part.obj_off,
            };
            // insert_part refs the object (already 1): adjust to avoid
            // double-count.
            self.object_mut(s_dst).refs -= 1;
            self.insert_part(dst, dpart)?;
        }
        Ok(())
    }

    // ----- fault handling ----------------------------------------------------------

    fn find_region(&self, ctx: SCtxKey, va: VirtAddr) -> Result<SRegKey> {
        let desc = self
            .contexts
            .get(ctx)
            .ok_or(GmiError::NoSuchContext(pub_sctx(ctx)))?;
        let idx = desc
            .regions
            .partition_point(|&r| self.regions.get(r).map(|d| d.addr <= va).unwrap_or(false));
        if idx > 0 {
            let key = desc.regions[idx - 1];
            if let Some(r) = self.regions.get(key) {
                if r.contains(va) {
                    return Ok(key);
                }
            }
        }
        Err(GmiError::SegmentationFault {
            ctx: pub_sctx(ctx),
            va,
            access: Access::Read,
        })
    }

    fn fault_step(&mut self, ctx: SCtxKey, va: VirtAddr, access: Access) -> Result<Step<()>> {
        let reg_key = self
            .find_region(ctx, va)
            .map_err(|_| GmiError::SegmentationFault {
                ctx: pub_sctx(ctx),
                va,
                access,
            })?;
        let region = self.regions.get(reg_key).expect("region vanished").clone();
        if !region.prot.allows(access, false) {
            return Err(GmiError::ProtectionViolation {
                ctx: pub_sctx(ctx),
                va,
                access,
            });
        }
        let off = self.geom.round_down(region.va_to_offset(va));
        let vpn = self.geom.vpn(va);
        self.charge(OpKind::DescriptorOp); // Entry/part lookup.
        let entry = self.entry(region.entry)?;
        let Some(part) = entry.part_at(off) else {
            // A hole: materialize a fresh zero object part lazily.
            let obj = self.new_object(None);
            let page_off = off;
            let part = EntryPart {
                off: self.geom.round_down(page_off),
                size: self.ps(),
                object: obj,
                obj_off: self.geom.round_down(page_off),
            };
            self.insert_part(region.entry, part)?;
            return self.fault_step(ctx, va, access);
        };
        let obj_off = part.to_obj(off);
        let top = part.object;
        // Top object hit?
        if let Some(&p) = self.object(top).pages.get(&obj_off) {
            let page = self.page(p);
            if page.immutable && access == Access::Write {
                return Err(GmiError::InvalidArgument(
                    "write to an immutable top page (entry not re-shadowed)",
                ));
            }
            let mut prot = region.prot;
            if page.immutable || (access != Access::Write && !page.dirty) {
                prot = prot.remove(Prot::WRITE);
            }
            if access == Access::Write {
                self.page_mut(p).dirty = true;
            }
            self.map_page(p, ctx, vpn, prot);
            return Ok(Step::Done(()));
        }
        // Walk the chain.
        let value = match self.resolve(top, obj_off)? {
            Step::Done(v) => v,
            Step::Pull {
                object,
                segment,
                obj_off,
            } => {
                return Ok(Step::Pull {
                    object,
                    segment,
                    obj_off,
                })
            }
            _ => unreachable!(),
        };
        match (access, value) {
            (Access::Write, v) => {
                let p = self.copy_up(top, obj_off, v, true)?;
                self.object_mut(top).owned.insert(obj_off);
                self.map_page(p, ctx, vpn, region.prot);
            }
            (_, Value::Page(p)) => {
                // Read through the chain: share the lower page read-only.
                self.map_page(p, ctx, vpn, region.prot.remove(Prot::WRITE));
            }
            (_, Value::Zero) => {
                let p = self.copy_up(top, obj_off, Value::Zero, false)?;
                self.object_mut(top).owned.insert(obj_off);
                self.map_page(p, ctx, vpn, region.prot.remove(Prot::WRITE));
            }
        }
        Ok(Step::Done(()))
    }

    // ----- byte access ---------------------------------------------------------------

    fn read_step(
        &mut self,
        entry: EntryKey,
        off: u64,
        buf: &mut [u8],
        progress: &mut u64,
    ) -> Result<Step<()>> {
        let ps = self.ps();
        let mut cur = off + *progress;
        let end = off + buf.len() as u64;
        while cur < end {
            let page_off = self.geom.round_down(cur);
            let in_page = (page_off + ps).min(end) - cur;
            let dst_range = (cur - off) as usize..(cur - off + in_page) as usize;
            let value = match self.entry(entry)?.part_at(page_off) {
                None => Value::Zero,
                Some(part) => {
                    let obj_off = part.to_obj(page_off);
                    match self.resolve(part.object, obj_off)? {
                        Step::Done(v) => v,
                        Step::Pull {
                            object,
                            segment,
                            obj_off,
                        } => {
                            return Ok(Step::Pull {
                                object,
                                segment,
                                obj_off,
                            })
                        }
                        _ => unreachable!(),
                    }
                }
            };
            match value {
                Value::Page(p) => {
                    let frame = self.page(p).frame;
                    self.phys.read(frame, cur - page_off, &mut buf[dst_range]);
                }
                Value::Zero => buf[dst_range].fill(0),
            }
            cur += in_page;
            *progress = cur - off;
        }
        Ok(Step::Done(()))
    }

    fn write_step(
        &mut self,
        entry: EntryKey,
        off: u64,
        data: &[u8],
        progress: &mut u64,
    ) -> Result<Step<()>> {
        let ps = self.ps();
        let mut cur = off + *progress;
        let end = off + data.len() as u64;
        while cur < end {
            let page_off = self.geom.round_down(cur);
            let in_page = (page_off + ps).min(end) - cur;
            let src_range = (cur - off) as usize..(cur - off + in_page) as usize;
            let part = match self.entry(entry)?.part_at(page_off) {
                Some(p) => p,
                None => {
                    // Extend the entry with a fresh zero object covering
                    // this page.
                    let obj = self.new_object(None);
                    let part = EntryPart {
                        off: page_off,
                        size: ps,
                        object: obj,
                        obj_off: page_off,
                    };
                    self.insert_part(entry, part)?;
                    part
                }
            };
            let obj_off = part.to_obj(page_off);
            let top = part.object;
            let pkey = match self.object(top).pages.get(&obj_off).copied() {
                Some(p) if !self.page(p).immutable => p,
                _ => {
                    let value = match self.resolve(top, obj_off)? {
                        Step::Done(v) => v,
                        Step::Pull {
                            object,
                            segment,
                            obj_off,
                        } => {
                            return Ok(Step::Pull {
                                object,
                                segment,
                                obj_off,
                            })
                        }
                        _ => unreachable!(),
                    };
                    let p = self.copy_up(top, obj_off, value, true)?;
                    self.object_mut(top).owned.insert(obj_off);
                    p
                }
            };
            let frame = self.page(pkey).frame;
            self.phys.write(frame, cur - page_off, &data[src_range]);
            self.page_mut(pkey).dirty = true;
            self.charge(OpKind::BcopyPage);
            cur += in_page;
            *progress = cur - off;
        }
        Ok(Step::Done(()))
    }

    // ----- sync machinery ---------------------------------------------------------

    /// Finds one dirty page in the chain objects under the entry range
    /// and requests its push-out; `Done` once clean.
    fn sync_step(&mut self, entry: EntryKey, off: u64, size: u64) -> Result<Step<()>> {
        let end = off.saturating_add(size);
        let parts: Vec<EntryPart> = self
            .entry(entry)?
            .parts
            .iter()
            .copied()
            .filter(|p| p.off < end && p.end() > off)
            .collect();
        for part in parts {
            let lo = part.to_obj(part.off.max(off));
            let hi = lo + (part.end().min(end) - part.off.max(off));
            let mut cur = Some(part.object);
            while let Some(obj) = cur {
                let dirty: Vec<(u64, SPageKey)> = self
                    .object(obj)
                    .pages
                    .range(lo..hi)
                    .filter(|(_, &p)| self.page(p).dirty)
                    .map(|(&o, &p)| (o, p))
                    .collect();
                if let Some(&(obj_off, page)) = dirty.first() {
                    match self.object(obj).pager {
                        Some(segment) => {
                            return Ok(Step::Push {
                                object: obj,
                                segment,
                                obj_off,
                                page,
                            })
                        }
                        None => return Ok(Step::NeedSegment { object: obj }),
                    }
                }
                cur = self.object(obj).shadow;
            }
        }
        Ok(Step::Done(()))
    }
}

// ----- CacheIo: upcall-side data transfer (object-addressed) -----------------

impl CacheIo for ShadowVm {
    fn fill_up(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let obj = object_key(cache);
        let mut s = self.state.lock();
        if s.objects.get(obj).is_none() {
            return Err(GmiError::NoSuchCache(cache));
        }
        let ps = s.ps();
        let mut cur = 0u64;
        while cur < data.len() as u64 {
            let page_off = offset + cur;
            let n = ps.min(data.len() as u64 - cur);
            if !s.object(obj).pages.contains_key(&page_off) {
                let frame = s.alloc_frame()?;
                s.phys.zero(frame);
                s.phys
                    .write(frame, 0, &data[cur as usize..(cur + n) as usize]);
                s.insert_page(obj, page_off, frame, false);
                s.object_mut(obj).owned.insert(page_off);
            }
            cur += n;
        }
        Ok(())
    }

    fn copy_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let obj = object_key(cache);
        let s = self.state.lock();
        let ps = s.ps();
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let o = offset + cur;
            let page_off = s.geom.round_down(o);
            let in_page = (page_off + ps - o).min(buf.len() as u64 - cur);
            let Some(&p) = s.objects.get(obj).and_then(|ob| ob.pages.get(&page_off)) else {
                return Err(GmiError::OutOfRange {
                    offset: page_off,
                    size: ps,
                    what: "copyBack",
                });
            };
            let frame = s.page(p).frame;
            s.phys.read(
                frame,
                o - page_off,
                &mut buf[cur as usize..(cur + in_page) as usize],
            );
            cur += in_page;
        }
        Ok(())
    }

    fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.copy_back(cache, offset, buf)?;
        let obj = object_key(cache);
        let mut s = self.state.lock();
        let ps = s.ps();
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let page_off = offset + cur;
            if let Some(&p) = s.objects.get(obj).and_then(|ob| ob.pages.get(&page_off)) {
                if s.page(p).lock_count == 0 {
                    s.free_page(p);
                }
            }
            cur += ps;
        }
        Ok(())
    }
}

// ----- the GMI --------------------------------------------------------------

impl Gmi for ShadowVm {
    fn cache_create(&self, segment: Option<SegmentId>) -> Result<CacheId> {
        let mut s = self.state.lock();
        let obj = s.new_object(segment);
        s.object_mut(obj).refs = 1;
        let entry = s.entries.insert(EntryDesc {
            parts: vec![EntryPart {
                off: 0,
                size: u64::MAX,
                object: obj,
                obj_off: 0,
            }],
            mapped_regions: 0,
        });
        s.charge(OpKind::DescriptorOp);
        Ok(pub_entry(entry))
    }

    fn cache_destroy(&self, cache: CacheId) -> Result<()> {
        let key = entry_key(cache);
        // Permanent caches write back first.
        let backed = {
            let s = self.state.lock();
            let e = s.entry(key)?;
            if e.mapped_regions > 0 {
                return Err(GmiError::InvalidArgument("destroying a mapped cache"));
            }
            e.parts.iter().any(|p| {
                s.objects
                    .get(p.object)
                    .map(|o| o.fully_backed)
                    .unwrap_or(false)
            })
        };
        if backed {
            self.cache_sync(cache, 0, u64::MAX)?;
        }
        let mut s = self.state.lock();
        let parts = core::mem::take(&mut s.entry_mut(key)?.parts);
        for p in parts {
            s.obj_unref(p.object);
        }
        s.entries.remove(key);
        s.charge(OpKind::ObjectDestroy);
        Ok(())
    }

    fn cache_copy_with(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
        mode: CopyMode,
    ) -> Result<()> {
        if size == 0 {
            let s = self.state.lock();
            s.entry(entry_key(src))?;
            s.entry(entry_key(dst))?;
            return Ok(());
        }
        let aligned = {
            let s = self.state.lock();
            s.geom.is_aligned(src_offset)
                && s.geom.is_aligned(dst_offset)
                && s.geom.is_aligned(size)
        };
        let eager = matches!(mode, CopyMode::Eager) || !aligned;
        if eager {
            // Byte-exact copy via a bounce buffer.
            let mut buf = vec![0u8; size as usize];
            self.cache_read(src, src_offset, &mut buf)?;
            self.cache_write(dst, dst_offset, &buf)?;
            return Ok(());
        }
        if src == dst {
            return Err(GmiError::InvalidArgument("deferred copy within one cache"));
        }
        // All deferred modes use the one Mach technique: shadow objects.
        let (sk, dk) = (entry_key(src), entry_key(dst));
        let mut s = self.state.lock();
        s.entry(sk)?;
        s.entry(dk)?;
        s.shadow_copy(sk, src_offset, dk, dst_offset, size)
    }

    fn cache_read(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = entry_key(cache);
        let mut progress = 0u64;
        // SAFETY of the closure borrow: buf is re-borrowed per attempt.
        self.run(|s| {
            s.entry(key)?;
            s.read_step(key, offset, buf, &mut progress)
        })
    }

    fn cache_write(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let key = entry_key(cache);
        let mut progress = 0u64;
        self.run(|s| {
            s.entry(key)?;
            s.write_step(key, offset, data, &mut progress)
        })
    }

    fn cache_move(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
    ) -> Result<()> {
        // The baseline has no frame-stealing move: plain copy (the source
        // may keep its contents — "undefined" permits that).
        if size == 0 {
            return Ok(());
        }
        let mut buf = vec![0u8; size as usize];
        self.cache_read(src, src_offset, &mut buf)?;
        self.cache_write(dst, dst_offset, &buf)
    }

    fn context_create(&self) -> Result<CtxId> {
        let mut s = self.state.lock();
        let mmu_ctx = s.mmu.ctx_create();
        s.charge(OpKind::ObjectCreate);
        Ok(pub_sctx(s.contexts.insert(SContext {
            mmu_ctx,
            regions: Vec::new(),
        })))
    }

    fn context_destroy(&self, ctx: CtxId) -> Result<()> {
        let key = sctx_key(ctx);
        let regions = {
            let s = self.state.lock();
            s.contexts
                .get(key)
                .ok_or(GmiError::NoSuchContext(ctx))?
                .regions
                .clone()
        };
        for r in regions {
            let _ = self.region_unlock(pub_sregion(r));
            self.region_destroy(pub_sregion(r))?;
        }
        let mut s = self.state.lock();
        let desc = s.contexts.remove(key).ok_or(GmiError::NoSuchContext(ctx))?;
        s.mmu.ctx_destroy(desc.mmu_ctx);
        s.charge(OpKind::ObjectDestroy);
        Ok(())
    }

    fn context_switch(&self, ctx: CtxId) -> Result<()> {
        let mut s = self.state.lock();
        let mmu_ctx = s
            .contexts
            .get(sctx_key(ctx))
            .ok_or(GmiError::NoSuchContext(ctx))?
            .mmu_ctx;
        s.mmu.switch(mmu_ctx);
        Ok(())
    }

    fn region_list(&self, ctx: CtxId) -> Result<Vec<(RegionId, RegionStatus)>> {
        let s = self.state.lock();
        let desc = s
            .contexts
            .get(sctx_key(ctx))
            .ok_or(GmiError::NoSuchContext(ctx))?;
        desc.regions
            .iter()
            .map(|&r| {
                let region = s.regions.get(r).expect("dead region in list");
                Ok((pub_sregion(r), region_status(&s, region)))
            })
            .collect()
    }

    fn find_region(&self, ctx: CtxId, va: VirtAddr) -> Result<RegionId> {
        let s = self.state.lock();
        s.find_region(sctx_key(ctx), va).map(pub_sregion)
    }

    fn region_create(
        &self,
        ctx: CtxId,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        cache: CacheId,
        offset: u64,
    ) -> Result<RegionId> {
        let mut s = self.state.lock();
        for (v, what) in [
            (addr.0, "region address"),
            (size, "region size"),
            (offset, "offset"),
        ] {
            if !s.geom.is_aligned(v) {
                return Err(GmiError::Unaligned { value: v, what });
            }
        }
        if size == 0 {
            return Err(GmiError::InvalidArgument("zero-size region"));
        }
        let ckey = entry_key(cache);
        s.entry(ckey)?;
        let ctx_key = sctx_key(ctx);
        let desc = s
            .contexts
            .get(ctx_key)
            .ok_or(GmiError::NoSuchContext(ctx))?;
        let idx = desc
            .regions
            .partition_point(|&r| s.regions.get(r).map(|d| d.addr < addr).unwrap_or(false));
        let overlap = |k: Option<&SRegKey>| {
            k.and_then(|&k| s.regions.get(k))
                .map(|d| d.addr.0 < addr.0 + size && addr.0 < d.end().0)
                .unwrap_or(false)
        };
        if overlap(desc.regions.get(idx)) || (idx > 0 && overlap(desc.regions.get(idx - 1))) {
            return Err(GmiError::RegionOverlap { ctx, addr, size });
        }
        let key = s.regions.insert(SRegion {
            ctx: ctx_key,
            addr,
            size,
            prot,
            entry: ckey,
            offset,
            locked: false,
        });
        s.contexts
            .get_mut(ctx_key)
            .expect("ctx vanished")
            .regions
            .insert(idx, key);
        s.entry_mut(ckey)?.mapped_regions += 1;
        s.charge(OpKind::RegionCreate);
        Ok(pub_sregion(key))
    }

    fn region_split(&self, region: RegionId, offset: u64) -> Result<RegionId> {
        let mut s = self.state.lock();
        if !s.geom.is_aligned(offset) {
            return Err(GmiError::Unaligned {
                value: offset,
                what: "split offset",
            });
        }
        let key = sregion_key(region);
        let desc = s
            .regions
            .get(key)
            .ok_or(GmiError::NoSuchRegion(region))?
            .clone();
        if offset == 0 || offset >= desc.size {
            return Err(GmiError::OutOfRange {
                offset,
                size: 0,
                what: "region split",
            });
        }
        let upper = s.regions.insert(SRegion {
            addr: VirtAddr(desc.addr.0 + offset),
            size: desc.size - offset,
            offset: desc.offset + offset,
            ..desc.clone()
        });
        s.regions.get_mut(key).expect("region vanished").size = offset;
        let ctx = desc.ctx;
        let c = s.contexts.get_mut(ctx).expect("dead ctx");
        let idx = c
            .regions
            .iter()
            .position(|&r| r == key)
            .expect("region not listed");
        c.regions.insert(idx + 1, upper);
        s.entry_mut(desc.entry)?.mapped_regions += 1;
        s.charge(OpKind::DescriptorOp);
        Ok(pub_sregion(upper))
    }

    fn region_set_protection(&self, region: RegionId, prot: Prot) -> Result<()> {
        let mut s = self.state.lock();
        let key = sregion_key(region);
        let desc = {
            let r = s
                .regions
                .get_mut(key)
                .ok_or(GmiError::NoSuchRegion(region))?;
            r.prot = prot;
            r.clone()
        };
        // Re-protect resident mappings inside the region.
        let lo = s.geom.vpn(desc.addr);
        let hi = s.geom.vpn(VirtAddr(desc.addr.0 + desc.size - 1));
        let hits: Vec<SPageKey> = s
            .pages
            .iter()
            .filter(|(_, p)| {
                p.mappings
                    .iter()
                    .any(|&(c, v)| c == desc.ctx && v >= lo && v <= hi)
            })
            .map(|(k, _)| k)
            .collect();
        for pkey in hits {
            let page = s.page(pkey);
            let mut eff = prot;
            if page.immutable || !page.dirty {
                eff = eff.remove(Prot::WRITE);
            }
            let mappings = page.mappings.clone();
            for (c, v) in mappings {
                if c == desc.ctx && v >= lo && v <= hi {
                    let mmu_ctx = s.contexts.get(c).expect("dead ctx").mmu_ctx;
                    s.mmu.protect(mmu_ctx, v, eff);
                }
            }
        }
        Ok(())
    }

    fn region_lock_in_memory(&self, region: RegionId) -> Result<()> {
        let key = sregion_key(region);
        let (ctx, addr, size, writable) = {
            let s = self.state.lock();
            let r = s.regions.get(key).ok_or(GmiError::NoSuchRegion(region))?;
            (r.ctx, r.addr, r.size, r.prot.contains(Prot::WRITE))
        };
        let (ps, pages) = {
            let s = self.state.lock();
            (s.ps(), s.geom.pages_for(size))
        };
        for i in 0..pages {
            let va = VirtAddr(addr.0 + i * ps);
            let access = if writable {
                Access::Write
            } else {
                Access::Read
            };
            self.run(|s| s.fault_step(ctx, va, access))?;
            // Pin the page now mapped at va.
            let mut s = self.state.lock();
            let mmu_ctx = s.contexts.get(ctx).expect("dead ctx").mmu_ctx;
            if let Some((frame, _)) = s.mmu.query(mmu_ctx, s.geom.vpn(va)) {
                if let Some(&p) = s.frame_owner.get(&frame.0) {
                    s.page_mut(p).lock_count += 1;
                }
            }
        }
        self.state
            .lock()
            .regions
            .get_mut(key)
            .ok_or(GmiError::NoSuchRegion(region))?
            .locked = true;
        Ok(())
    }

    fn region_unlock(&self, region: RegionId) -> Result<()> {
        let mut s = self.state.lock();
        let key = sregion_key(region);
        let desc = s
            .regions
            .get(key)
            .ok_or(GmiError::NoSuchRegion(region))?
            .clone();
        if !desc.locked {
            return Ok(());
        }
        let lo = s.geom.vpn(desc.addr);
        let hi = s.geom.vpn(VirtAddr(desc.addr.0 + desc.size - 1));
        let hits: Vec<SPageKey> = s
            .pages
            .iter()
            .filter(|(_, p)| {
                p.mappings
                    .iter()
                    .any(|&(c, v)| c == desc.ctx && v >= lo && v <= hi)
            })
            .map(|(k, _)| k)
            .collect();
        for p in hits {
            let page = s.page_mut(p);
            if page.lock_count > 0 {
                page.lock_count -= 1;
            }
        }
        s.regions.get_mut(key).expect("region vanished").locked = false;
        Ok(())
    }

    fn region_status(&self, region: RegionId) -> Result<RegionStatus> {
        let s = self.state.lock();
        let r = s
            .regions
            .get(sregion_key(region))
            .ok_or(GmiError::NoSuchRegion(region))?;
        Ok(region_status(&s, r))
    }

    fn region_destroy(&self, region: RegionId) -> Result<()> {
        let mut s = self.state.lock();
        let key = sregion_key(region);
        let desc = s
            .regions
            .get(key)
            .ok_or(GmiError::NoSuchRegion(region))?
            .clone();
        if desc.locked {
            return Err(GmiError::Locked);
        }
        // Invalidate the region's portion of the address space.
        let lo = s.geom.vpn(desc.addr);
        let hi = s.geom.vpn(VirtAddr(desc.addr.0 + desc.size - 1));
        let hits: Vec<(SPageKey, Vpn)> = s
            .pages
            .iter()
            .flat_map(|(k, p)| {
                p.mappings
                    .iter()
                    .filter(|&&(c, v)| c == desc.ctx && v >= lo && v <= hi)
                    .map(move |&(_, v)| (k, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (pkey, vpn) in hits {
            let mmu_ctx = s.contexts.get(desc.ctx).expect("dead ctx").mmu_ctx;
            s.mmu.unmap(mmu_ctx, vpn);
            s.page_mut(pkey)
                .mappings
                .retain(|&(c, v)| !(c == desc.ctx && v == vpn));
        }
        let pages = s.geom.pages_for(desc.size);
        s.phys
            .cost_model()
            .charge_n(OpKind::VaInvalidatePage, pages);
        if let Some(c) = s.contexts.get_mut(desc.ctx) {
            c.regions.retain(|&r| r != key);
        }
        s.regions.remove(key);
        if let Ok(e) = s.entry_mut(desc.entry) {
            e.mapped_regions -= 1;
        }
        s.charge(OpKind::RegionDestroy);
        Ok(())
    }

    fn cache_flush(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        self.cache_sync(cache, offset, size)?;
        let key = entry_key(cache);
        let mut s = self.state.lock();
        let end = offset.saturating_add(size);
        let parts: Vec<EntryPart> = s
            .entry(key)?
            .parts
            .iter()
            .copied()
            .filter(|p| p.off < end && p.end() > offset)
            .collect();
        for part in parts {
            let lo = part.to_obj(part.off.max(offset));
            let hi = lo + (part.end().min(end) - part.off.max(offset));
            let mut cur = Some(part.object);
            while let Some(obj) = cur {
                let resident: Vec<SPageKey> =
                    s.object(obj).pages.range(lo..hi).map(|(_, &p)| p).collect();
                for p in resident {
                    if s.page(p).lock_count > 0 {
                        return Err(GmiError::Locked);
                    }
                    debug_assert!(!s.page(p).dirty, "flush after sync found dirt");
                    s.free_page(p);
                }
                cur = s.object(obj).shadow;
            }
        }
        Ok(())
    }

    fn cache_sync(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = entry_key(cache);
        self.run(|s| {
            s.entry(key)?;
            s.sync_step(key, offset, size)
        })
    }

    fn cache_invalidate(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = entry_key(cache);
        let mut s = self.state.lock();
        let end = offset.saturating_add(size);
        let parts: Vec<EntryPart> = s
            .entry(key)?
            .parts
            .iter()
            .copied()
            .filter(|p| p.off < end && p.end() > offset)
            .collect();
        for part in parts {
            let lo = part.to_obj(part.off.max(offset));
            let hi = lo + (part.end().min(end) - part.off.max(offset));
            let top = part.object;
            let resident: Vec<(u64, SPageKey)> = s
                .object(top)
                .pages
                .range(lo..hi)
                .map(|(&o, &p)| (o, p))
                .collect();
            for (o, p) in resident {
                if s.page(p).lock_count > 0 {
                    return Err(GmiError::Locked);
                }
                s.free_page(p);
                s.object_mut(top).owned.remove(&o);
            }
            let owned: Vec<u64> = s.object(top).owned.range(lo..hi).copied().collect();
            for o in owned {
                s.object_mut(top).owned.remove(&o);
            }
        }
        Ok(())
    }

    fn cache_set_protection(
        &self,
        _cache: CacheId,
        _offset: u64,
        _size: u64,
        _prot: Prot,
    ) -> Result<()> {
        Err(GmiError::Unsupported(
            "shadow baseline implements no coherence control",
        ))
    }

    fn cache_lock_in_memory(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = entry_key(cache);
        let ps = self.state.lock().ps();
        let pages = self.state.lock().geom.pages_for(size);
        for k in 0..pages {
            let o = self.state.lock().geom.round_down(offset) + k * ps;
            self.run(|s| {
                s.entry(key)?;
                let part = match s.entry(key)?.part_at(o) {
                    Some(p) => p,
                    None => {
                        let obj = s.new_object(None);
                        let part = EntryPart {
                            off: o,
                            size: ps,
                            object: obj,
                            obj_off: o,
                        };
                        s.insert_part(key, part)?;
                        part
                    }
                };
                let obj_off = part.to_obj(o);
                let top = part.object;
                if let Some(&p) = s.object(top).pages.get(&obj_off) {
                    s.page_mut(p).lock_count += 1;
                    return Ok(Step::Done(()));
                }
                let value = match s.resolve(top, obj_off)? {
                    Step::Done(v) => v,
                    Step::Pull {
                        object,
                        segment,
                        obj_off,
                    } => {
                        return Ok(Step::Pull {
                            object,
                            segment,
                            obj_off,
                        })
                    }
                    _ => unreachable!(),
                };
                let p = s.copy_up(top, obj_off, value, true)?;
                s.object_mut(top).owned.insert(obj_off);
                s.page_mut(p).lock_count += 1;
                Ok(Step::Done(()))
            })?;
        }
        Ok(())
    }

    fn cache_unlock(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = entry_key(cache);
        let mut s = self.state.lock();
        let ps = s.ps();
        let pages = s.geom.pages_for(size);
        for k in 0..pages {
            let o = s.geom.round_down(offset) + k * ps;
            let Some(part) = s.entry(key)?.part_at(o) else {
                continue;
            };
            let obj_off = part.to_obj(o);
            if let Some(&p) = s.object(part.object).pages.get(&obj_off) {
                let page = s.page_mut(p);
                if page.lock_count > 0 {
                    page.lock_count -= 1;
                }
            }
        }
        Ok(())
    }

    fn handle_fault(&self, ctx: CtxId, va: VirtAddr, access: Access) -> Result<()> {
        let key = sctx_key(ctx);
        let mut first = true;
        self.run(|s| {
            if first {
                first = false;
                s.stats.faults += 1;
                s.charge(OpKind::FaultEntry);
            }
            s.fault_step(key, va, access)
        })
    }

    fn vm_read(&self, ctx: CtxId, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.vm_access(
            ctx,
            va,
            Access::Read,
            buf.len(),
            |s, pa, range, buf2: &mut &mut [u8]| {
                s.phys.read_phys(pa, &mut buf2[range]);
            },
            buf,
        )
    }

    fn vm_write(&self, ctx: CtxId, va: VirtAddr, data: &[u8]) -> Result<()> {
        // Reuse the access loop with a write closure over an owned copy.
        let key = sctx_key(ctx);
        let ps = self.state.lock().ps();
        let len = data.len() as u64;
        let mut cur = 0u64;
        while cur < len {
            let addr = VirtAddr(va.0 + cur);
            let page_rem = ps - (addr.0 % ps);
            let n = page_rem.min(len - cur) as usize;
            loop {
                let mut s = self.state.lock();
                let mmu_ctx = s
                    .contexts
                    .get(key)
                    .ok_or(GmiError::NoSuchContext(ctx))?
                    .mmu_ctx;
                match s.mmu.translate(mmu_ctx, addr, Access::Write, false) {
                    Ok(pa) => {
                        s.phys.write_phys(pa, &data[cur as usize..cur as usize + n]);
                        break;
                    }
                    Err(_) => {
                        drop(s);
                        self.handle_fault(ctx, addr, Access::Write)?;
                    }
                }
            }
            cur += n as u64;
        }
        Ok(())
    }

    fn geometry(&self) -> PageGeometry {
        self.state.lock().geom
    }

    fn cache_resident_pages(&self, cache: CacheId) -> Result<u64> {
        let s = self.state.lock();
        let e = s.entry(entry_key(cache))?;
        let mut count = 0u64;
        for part in &e.parts {
            let mut cur = Some(part.object);
            while let Some(obj) = cur {
                count += s
                    .object(obj)
                    .pages
                    .range(part.obj_off..part.obj_off.saturating_add(part.size))
                    .count() as u64;
                cur = s.object(obj).shadow;
            }
        }
        Ok(count)
    }
}

impl ShadowVm {
    #[allow(clippy::too_many_arguments)]
    fn vm_access<B>(
        &self,
        ctx: CtxId,
        va: VirtAddr,
        access: Access,
        len: usize,
        apply: impl Fn(&mut SState, chorus_hal::PhysAddr, core::ops::Range<usize>, &mut B),
        mut buf: B,
    ) -> Result<()> {
        let key = sctx_key(ctx);
        let ps = self.state.lock().ps();
        let mut cur = 0u64;
        while cur < len as u64 {
            let addr = VirtAddr(va.0 + cur);
            let page_rem = ps - (addr.0 % ps);
            let n = page_rem.min(len as u64 - cur) as usize;
            loop {
                let mut s = self.state.lock();
                let mmu_ctx = s
                    .contexts
                    .get(key)
                    .ok_or(GmiError::NoSuchContext(ctx))?
                    .mmu_ctx;
                match s.mmu.translate(mmu_ctx, addr, access, false) {
                    Ok(pa) => {
                        apply(&mut s, pa, cur as usize..cur as usize + n, &mut buf);
                        break;
                    }
                    Err(_) => {
                        drop(s);
                        self.handle_fault(ctx, addr, access)?;
                    }
                }
            }
            cur += n as u64;
        }
        Ok(())
    }
}

fn region_status(s: &SState, r: &SRegion) -> RegionStatus {
    let resident = s
        .entries
        .get(r.entry)
        .map(|e| {
            e.parts
                .iter()
                .filter(|p| p.off < r.offset + r.size && p.end() > r.offset)
                .map(|p| {
                    let lo = p.to_obj(p.off.max(r.offset));
                    let hi = lo + (p.end().min(r.offset + r.size) - p.off.max(r.offset));
                    let mut count = 0u64;
                    let mut cur = Some(p.object);
                    while let Some(obj) = cur {
                        let Some(o) = s.objects.get(obj) else { break };
                        count += o.pages.range(lo..hi).count() as u64;
                        cur = o.shadow;
                    }
                    count
                })
                .sum()
        })
        .unwrap_or(0);
    RegionStatus {
        addr: r.addr,
        size: r.size,
        prot: r.prot,
        cache: pub_entry(r.entry),
        offset: r.offset,
        locked: r.locked,
        resident_pages: resident,
    }
}
